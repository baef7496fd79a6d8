"""Scenario documents: the batch input format for the engines.

A scenario is a UTF-8 JSON document::

    {
      "players": ["A", "B", "C"],
      "coalitions": [
        {"members": ["A"], "value": "1000"},
        {"members": ["A", "B"], "value": "2000"},
        ...
      ],
      "factors": {"A": "0.6648", "B": "0.2633", "C": "0.0703"},
      "mode": "eq3",
      "normalize_factors": false,
      "ahp": {
        "criteria": ["R1", "R2"],
        "criteria_matrix": [["1", "3"], ["0.3333333333333333", "1"]],
        "alternatives": {
          "R1": {"A": "0.5", "B": "0.3", "C": "0.2"},
          "R2": [["1", "2", "4"], ["0.5", "1", "2"], ["0.25", "0.5", "1"]]
        }
      }
    }

Numbers are strings, either decimals ("0.6648") or integer ratios
("6648/9984"), and are parsed exactly. Coalition values are read once,
a column at a time, straight into the integer-pair
:class:`~chainshare.game.ValueTable` that the game built from the
scenario uses as it is. ``factors`` and ``ahp`` are mutually exclusive;
an alternatives entry is a player->score map of direct normalized scores
or a full pairwise matrix over the players in order. Member lists are
canonicalized on parse, so permuted lists name the same coalition.
"""

from __future__ import annotations

import functools
import json
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from itertools import repeat
from operator import setitem
from pathlib import Path
from typing import Mapping

from .adjust import MODES, AdjustmentFactors, compute_deltas
from .ahp import METHODS, ComparisonMatrix, CriteriaHierarchy, WeightVector, synthesize_factors
from .errors import ChoiceError, FloatRangeError, IdentifierError, MatrixValidationError, NumberError, ScenarioError
from .game import CharacteristicFunction, PlayerSet, ValueTable, _unique_labels
from .rational import exact_string, parse_pair, plain_pairs, plain_ratios


@dataclass(frozen=True)
class AhpBlock:
    """Parsed two-level hierarchy section of a scenario."""

    criteria: tuple[str, ...]
    criteria_matrix: tuple[tuple[Fraction, ...], ...]
    alternative_matrices: dict[str, tuple[tuple[Fraction, ...], ...]] = field(default_factory=dict)
    alternative_scores: dict[str, tuple[Fraction, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioFile:
    """Fully validated scenario content, numbers held exactly.

    A parsed scenario's ``coalition_values`` is a read-only
    :class:`~chainshare.game.ValueTable`: Fractions keyed by coalition mask.
    The parser reads it a column at a time (every entry's members, then
    every value) when all entries are plain, and entry by entry otherwise;
    both give the same integer pairs, or the same error. ``player_set`` is
    built once, or kept from the parse that validated ``players``.
    """

    players: tuple[str, ...]
    coalition_values: Mapping[int, Fraction]
    factors: tuple[Fraction, ...] | None = None
    mode: str | None = None
    normalize_factors: bool = False
    ahp: AhpBlock | None = None

    @functools.cached_property
    def player_set(self) -> PlayerSet:
        return PlayerSet(self.players)


def _at(locus: str, build, *args):
    """``build(*args)``, an identifier, number or matrix it rejects reported as a ScenarioError at ``locus``."""
    try:
        return build(*args)
    except (IdentifierError, NumberError, MatrixValidationError) as exc:
        raise ScenarioError(str(exc), locus) from None


_BEYOND_FLOAT = f"number {FloatRangeError.BEYOND}; weights are computed in floats"


def _number_pair(raw) -> tuple[int, int]:
    if type(raw) is not str:  # ints take the string path too, so the size bound covers them
        if isinstance(raw, bool) or not isinstance(raw, (str, int)):
            raise NumberError(
                f"numbers must be strings (or ints), got {type(raw).__name__}; "
                "write values like \"1000\" or \"0.6648\" to keep them exact"
            )
        raw = str(raw)
    return parse_pair(raw)


def _fraction(raw) -> Fraction:
    return Fraction(*_number_pair(raw))


def _read_matrix(read, raw, labels: tuple[str, ...], locus: str) -> tuple[tuple, ...]:
    """The square matrix ``raw`` over ``labels``, each entry through ``read``.

    One handler serves every entry: the locus of a number ``read`` rejects
    (a NumberError, or a float conversion's OverflowError) is built only then.
    """
    n = len(labels)
    if not isinstance(raw, (list, tuple)) or len(raw) != n:
        raise ScenarioError(f"must be a {n}x{n} matrix (rows over {', '.join(labels)})", locus)
    entries = []
    try:
        for i, row in enumerate(raw):
            if not isinstance(row, (list, tuple)) or len(row) != n:
                raise ScenarioError(f"row must have {n} entries", f"{locus}[{i}]")
            for j, x in enumerate(row):
                entries.append(read(x))
    except (NumberError, OverflowError) as exc:
        raise ScenarioError(str(exc) if isinstance(exc, NumberError) else _BEYOND_FLOAT, f"{locus}[{i}][{j}]") from None
    return tuple(tuple(entries[k : k + n]) for k in range(0, n * n, n))


def _read_scores(read, values, players: tuple[str, ...], locus: str) -> tuple:
    """One value per player through ``read``, under one handler as in :func:`_read_matrix`."""
    numbers = []
    try:
        for p, x in zip(players, values):
            numbers.append(read(x))
    except (NumberError, OverflowError) as exc:
        raise ScenarioError(str(exc) if isinstance(exc, NumberError) else _BEYOND_FLOAT, f"{locus}.{p}") from None
    return tuple(numbers)


def _parse_players(doc: dict) -> PlayerSet:
    players = doc.get("players")
    if players is None:
        raise ScenarioError("missing required field", "players")
    if not isinstance(players, list):
        raise ScenarioError("must be a non-empty list of identifiers", "players")
    return _at("players", PlayerSet, tuple(players))


def _parse_coalitions(doc: dict, players: PlayerSet | tuple[str, ...]) -> ValueTable:
    """The coalitions' values, read in columns when every entry is plain, else
    entry by entry: one table or one error for a document either way. Both
    readers look names up in the player set's ``bits``."""
    coalitions = doc.get("coalitions")
    if coalitions is None:
        raise ScenarioError("missing required field", "coalitions")
    if not isinstance(coalitions, list) or not coalitions:
        raise ScenarioError("must be a non-empty list of {members, value} entries", "coalitions")
    players = players if isinstance(players, PlayerSet) else PlayerSet(players)
    table = _read_columns(coalitions, players.bits, players.n)
    if table is None:
        table = _read_entries(coalitions, players.bits, players.players)
    return table


def _scatter(column, masks: list[int], items) -> None:
    """``column[mask] = item`` for each pair, with no Python step per pair."""
    deque(map(setitem, repeat(column), masks, items), maxlen=0)


def _read_columns(coalitions: list, bits: dict[str, int], n: int) -> ValueTable | None:
    """The table, read a column at a time, when every entry is a dict of a
    list of known members, none repeated, and a value :func:`plain_ratios`
    accepts, and no coalition is given twice; else None.

    No step runs in Python once per entry. On success ``coalitions``, the
    parser's own list, is emptied, so that its entries are freed before the
    values are read; on None it is untouched, for :func:`_read_entries`.
    """
    try:  # dict.__getitem__ refuses an entry that is not a dict
        members = list(map(dict.__getitem__, coalitions, repeat("members")))
        values = list(map(dict.__getitem__, coalitions, repeat("value")))
    except (KeyError, TypeError):
        return None
    ratios = plain_ratios(values)
    if ratios is None or set(map(len, coalitions)) != {2}:  # a value not plain, or a key besides the two
        return None
    try:  # list.__iter__ refuses members that are not a list
        masks = list(map(sum, map(map, repeat(bits.__getitem__), map(list.__iter__, members))))
    except (KeyError, TypeError):  # or an unknown or unhashable name
        return None
    # An empty list gives mask 0. A mask's bit count is at most its list's
    # length, and equal unless a member repeats, so equal totals mean that no
    # member repeats anywhere.
    if 0 in masks or sum(map(int.bit_count, masks)) != sum(map(len, members)):
        return None
    table = ValueTable(n)
    _scatter(table.denominators, masks, repeat(1))
    if len(table) != len(masks):  # a coalition given twice
        return None
    coalitions.clear()
    del members
    for column, read in zip((table.numerators, table.denominators), plain_pairs(values, ratios)):
        _scatter(column, masks, read)
    return table


def _read_entries(coalitions: list, bits: dict[str, int], players: tuple[str, ...]) -> ValueTable:
    """The table, read one entry at a time, each entry's members through
    :meth:`ValueTable.mask_for`: the first error in document order, for a
    document :func:`_read_columns` refuses."""
    table = ValueTable(len(players))
    try:  # around the loop, not per entry: the locus is built only to raise
        for i, entry in enumerate(coalitions):
            if not isinstance(entry, dict) or entry.keys() != {"members", "value"}:
                raise ScenarioError("each coalition needs exactly the keys 'members' and 'value'", f"coalitions[{i}]")
            members = entry["members"]
            if not isinstance(members, list):
                raise ScenarioError("members must be a non-empty list", f"coalitions[{i}].members")
            mask = table.mask_for(bits, members)
            table.numerators[mask], table.denominators[mask] = _number_pair(entry["value"])
    except (IdentifierError, NumberError) as exc:
        part = "members" if isinstance(exc, IdentifierError) else "value"
        raise ScenarioError(str(exc), f"coalitions[{i}].{part}") from None
    return table


def _parse_ahp(doc: dict, players: tuple[str, ...]) -> AhpBlock | None:
    raw = doc.get("ahp")
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ScenarioError("must be an object", "ahp")
    unknown = set(raw) - {"criteria", "criteria_matrix", "alternatives"}
    if unknown:
        raise ScenarioError(f"unknown keys {sorted(unknown)}", "ahp")
    criteria = raw.get("criteria")
    if not isinstance(criteria, list):
        raise ScenarioError("must be a non-empty list of labels", "ahp.criteria")
    criteria = _at("ahp.criteria", _unique_labels, criteria, "criterion")
    matrix = _read_matrix(_fraction, raw.get("criteria_matrix"), criteria, "ahp.criteria_matrix")
    alternatives = raw.get("alternatives")
    if not isinstance(alternatives, dict):
        raise ScenarioError("must map every criterion to a matrix or a score map", "ahp.alternatives")
    unknown = set(alternatives) - set(criteria)
    if unknown:
        raise ScenarioError(f"unknown criteria {sorted(unknown)}", "ahp.alternatives")
    missing = [c for c in criteria if c not in alternatives]
    if missing:
        raise ScenarioError(f"missing entries for criteria {missing}", "ahp.alternatives")
    matrices: dict[str, tuple[tuple[Fraction, ...], ...]] = {}
    scores: dict[str, tuple[Fraction, ...]] = {}
    for label in criteria:
        entry = alternatives[label]
        locus = f"ahp.alternatives.{label}"
        if isinstance(entry, list):
            matrices[label] = _read_matrix(_fraction, entry, players, locus)
        elif isinstance(entry, dict):
            if set(entry) != set(players):
                raise ScenarioError("score map keys must be exactly the players", locus)
            scores[label] = _read_scores(_fraction, [entry[p] for p in players], players, locus)
        else:
            raise ScenarioError("must be a matrix (list of rows) or a player->score map", locus)
    return AhpBlock(
        criteria=criteria,
        criteria_matrix=matrix,
        alternative_matrices=matrices,
        alternative_scores=scores,
    )


def parse_scenario(text: str) -> ScenarioFile:
    """Parse and validate a scenario document from JSON text.

    Raises :class:`ScenarioError` with a locus ("coalitions[3].members",
    "ahp.alternatives.R1", ...) for every schema violation.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc.msg}", f"line {exc.lineno}, column {exc.colno}") from None
    except (ValueError, RecursionError) as exc:  # an integer literal too long to convert, or nesting too deep
        raise ScenarioError(str(exc), "document") from None
    if not isinstance(doc, dict):
        raise ScenarioError("the top level must be an object", "document")
    unknown = set(doc) - {"players", "coalitions", "factors", "mode", "normalize_factors", "ahp"}
    if unknown:
        raise ScenarioError(f"unknown keys {sorted(unknown)}", "document")
    player_set = _parse_players(doc)
    players = player_set.players
    values = _parse_coalitions(doc, player_set)

    factors = None
    raw_factors = doc.get("factors")
    if raw_factors is not None:
        if not isinstance(raw_factors, dict):
            raise ScenarioError("must map every player to a factor", "factors")
        if set(raw_factors) != set(players):
            raise ScenarioError("factor keys must be exactly the players", "factors")
        factors = _read_scores(_fraction, [raw_factors[p] for p in players], players, "factors")
        for p, f in zip(players, factors):
            if f < 0:
                raise ScenarioError(f"factor for {p!r} is negative", f"factors.{p}")

    mode = doc.get("mode")
    if mode is not None and mode not in MODES:
        raise ScenarioError(f"must be one of {MODES}", "mode")

    normalize = doc.get("normalize_factors", False)
    if not isinstance(normalize, bool):
        raise ScenarioError("must be true or false", "normalize_factors")

    ahp = _parse_ahp(doc, players)
    if factors is not None and ahp is not None:
        raise ScenarioError("at most one of 'factors' and 'ahp' may be present", "document")

    sf = ScenarioFile(
        players=players,
        coalition_values=values,
        factors=factors,
        mode=mode,
        normalize_factors=normalize,
        ahp=ahp,
    )
    object.__setattr__(sf, "player_set", player_set)  # kept, not built again on first access
    return sf


def load_scenario(path: str | Path) -> ScenarioFile:
    """Read and parse a scenario file from disk."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(str(exc), "document") from None
    return parse_scenario(text)


def serialize_scenario(sf: ScenarioFile) -> str:
    """Canonical JSON text for a scenario; the inverse of parse_scenario.

    Deterministic: fixed key order, coalitions sorted by size then
    player order, numbers rendered exactly (decimal when finite, "p/q"
    otherwise). parse(serialize(sf)) == sf.
    """
    members = sf.player_set.members
    doc: dict = {
        "players": list(sf.players),
        "coalitions": [
            {"members": members(mask), "value": exact_string(sf.coalition_values[mask])}
            for mask in sorted(sf.coalition_values, key=lambda m: (m.bit_count(), m))
        ],
    }
    if sf.factors is not None:
        doc["factors"] = {p: exact_string(f) for p, f in zip(sf.players, sf.factors)}
    if sf.mode is not None:
        doc["mode"] = sf.mode
    if sf.normalize_factors:
        doc["normalize_factors"] = True
    if sf.ahp is not None:
        alternatives: dict = {}
        for label in sf.ahp.criteria:
            if label in sf.ahp.alternative_matrices:
                alternatives[label] = [
                    [exact_string(x) for x in row] for row in sf.ahp.alternative_matrices[label]
                ]
            else:
                alternatives[label] = {
                    p: exact_string(x) for p, x in zip(sf.players, sf.ahp.alternative_scores[label])
                }
        doc["ahp"] = {
            "criteria": list(sf.ahp.criteria),
            "criteria_matrix": [[exact_string(x) for x in row] for row in sf.ahp.criteria_matrix],
            "alternatives": alternatives,
        }
    return json.dumps(doc, indent=2) + "\n"


def scenario_game(sf: ScenarioFile) -> CharacteristicFunction:
    """Build the (total) characteristic function a scenario describes."""
    return CharacteristicFunction(sf.player_set, sf.coalition_values)


def scenario_hierarchy(sf: ScenarioFile, *, method: str = METHODS[0]) -> CriteriaHierarchy:
    """Build the criteria hierarchy from a scenario's ahp block."""
    if sf.ahp is None:
        raise ScenarioError("scenario has no 'ahp' section", "ahp")
    block = sf.ahp
    locus = "ahp.criteria_matrix"
    rows = _read_matrix(float, block.criteria_matrix, block.criteria, locus)
    criteria = _at(locus, ComparisonMatrix, block.criteria, rows)
    alternatives: dict[str, ComparisonMatrix | WeightVector] = {}
    for label in block.criteria:
        locus = f"ahp.alternatives.{label}"
        if label in block.alternative_matrices:
            rows = _read_matrix(float, block.alternative_matrices[label], sf.players, locus)
            alternatives[label] = _at(locus, ComparisonMatrix, sf.players, rows)
        else:
            scores = _read_scores(float, block.alternative_scores[label], sf.players, locus)
            alternatives[label] = _at(locus, WeightVector, sf.players, scores)
    return CriteriaHierarchy.from_matrices(criteria, alternatives, method=method)


def resolve_factors(sf: ScenarioFile, *, normalize: bool | None = None) -> AdjustmentFactors | None:
    """Adjustment factors a scenario carries, if any.

    Direct ``factors`` are validated by :func:`compute_deltas` (the
    ``normalize`` argument overrides the scenario's flag); an ``ahp``
    section is synthesized through the consistency gate. Returns None
    when the scenario has neither.
    """
    if sf.factors is not None:
        do_normalize = sf.normalize_factors if normalize is None else normalize
        return compute_deltas(sf.factors, sf.player_set, normalize=do_normalize)
    if sf.ahp is not None:
        return synthesize_factors(scenario_hierarchy(sf))
    return None


def bundled_scenario(name: str) -> Path:
    """Filesystem path of a scenario shipped with the package."""
    root = resources.files("chainshare") / "data"
    candidate = root / f"{name}.scenario"
    if not candidate.is_file():
        available = sorted(p.name.removesuffix(".scenario") for p in root.iterdir() if p.name.endswith(".scenario"))
        raise ChoiceError(f"no bundled scenario {name!r}; available: {', '.join(available)}")
    return Path(str(candidate))
