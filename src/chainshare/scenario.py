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
("6648/9984"), and are parsed exactly, in :mod:`chainshare.rational`'s
one plain grammar. Coalition values are read a column at a time, in
blocks of entries, with the cyclic collector paused, straight into the
:class:`~chainshare.game.ValueTable` of integer pairs the game uses as
it is: a plain decimal by its digit shape, and any other valid value (a
ratio, "1e3", a JSON int) by :func:`~chainshare.rational.parse_pair`.
Only a block that holds an error, such as a coalition given twice, is
read again, one entry at a time, to word its first error. ``factors``
and ``ahp`` are mutually exclusive; an alternatives entry is a
player->score map of direct normalized scores or a full pairwise matrix
over the players in order. Member lists are canonicalized on parse, so
permuted lists name the same coalition.
"""

from __future__ import annotations

import functools
import gc
import json
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from itertools import compress, repeat
from operator import itemgetter, not_
from pathlib import Path
from typing import Mapping

from .adjust import MODES, AdjustmentFactors, compute_deltas
from .ahp import METHODS, ComparisonMatrix, CriteriaHierarchy, WeightVector, synthesize_factors
from .errors import ChoiceError, FloatRangeError, IdentifierError, MatrixValidationError, NumberError, ScenarioError
from .game import CharacteristicFunction, PlayerSet, ValueTable, _unique_labels
from .rational import decimal_power, exact_string, parse_pair


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
    :class:`~chainshare.game.ValueTable`: Fractions keyed by coalition mask,
    held as the integer pairs the parser read.
    ``player_set`` is built once, or kept from the parse that validated
    ``players``.
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
    return _at("players", PlayerSet, players)


_ENTRY_KEYS = frozenset({"members", "value"})
_MEMBERS, _VALUE = itemgetter("members"), itemgetter("value")
# Entries read per block of columns: every column a block makes (masks,
# value texts, the split digits) is freed before the next block starts, so
# the columns add a fixed amount, not one per entry, to the table's memory.
_BLOCK_ROWS = 1024
# ASCII digits written as 0: a plain decimal's shape ("-12.50" is "-00.00") is one too.
_ZEROS = str.maketrans("123456789", "000000000")


def _parse_coalitions(doc: dict, players: PlayerSet) -> ValueTable:
    """The coalitions' values: the table, or the first error in document
    order at its entry's locus.

    The entries are read a column at a time, in blocks of ``_BLOCK_ROWS``,
    by :func:`_read_columns`, which reads every valid block. A block it
    refuses holds an error, which :func:`_read_entries` words, reading that
    block alone, one entry at a time.
    """
    coalitions = doc.get("coalitions")
    if coalitions is None:
        raise ScenarioError("missing required field", "coalitions")
    if not isinstance(coalitions, list) or not coalitions:
        raise ScenarioError("must be a non-empty list of {members, value} entries", "coalitions")
    table, bits = ValueTable(players.n), players.bits
    for start in range(0, len(coalitions), _BLOCK_ROWS):
        block = coalitions[start : start + _BLOCK_ROWS]
        if not _read_columns(block, bits, table):
            _read_entries(block, bits, table, start)
    return table


def _read_columns(entries: list, bits: dict[str, int], table: ValueTable) -> bool:
    """Fill ``table`` from ``entries``, one column at a time; False, with
    nothing written, for a block that holds an error.

    Every entry must be a dict of the keys members and value, its members a
    list and its value a string or an int, read as its decimal text. Each
    mask is one sum of ``bits``, which fails on an unknown or unhashable
    name; 0 is an empty list, and a repeated member carries, so it leaves
    fewer bits than names. No mask may repeat in the block or hold a value
    already. A value with a plain decimal's shape, whose
    :func:`decimal_power` is its denominator, is read as :func:`parse_pair`
    reads it, unreduced ("1.50" is (150, 100)), its numerator by ``int`` of
    its digits. Every other value (a ratio, "1e3", "+12", "5.") goes
    through :func:`parse_pair` one row at a time.
    """
    try:  # an entry that is not a dict or lacks a key, or an unknown or unhashable name, raises here
        if set(map(len, entries)) != {2}:
            return False
        members, values = list(map(_MEMBERS, entries)), list(map(_VALUE, entries))
        types = set(map(type, values))
        if set(map(type, members)) != {list} or not types <= {str, int}:
            return False
        masks = list(map(sum, map(map, repeat(bits.__getitem__), members)))
    except (KeyError, TypeError):
        return False
    if 0 in masks or list(map(int.bit_count, masks)) != list(map(len, members)):
        return False
    numerators, denominators = table.numerators, table.denominators
    if len(set(masks)) != len(masks) or any(map(denominators.__getitem__, masks)):
        return False
    if int in types:
        values = list(map(str, values))
    text = ",".join(values)
    shapes = text.translate(_ZEROS).split(",")
    if len(shapes) != len(values):  # a comma inside a value
        return False
    power = {shape: decimal_power(shape) for shape in set(shapes)}
    powers = list(map(power.__getitem__, shapes))
    others = []
    if None in power.values():
        other = list(map(not_, powers))  # True where the power is None: a power of ten is never 0
        try:
            others = list(zip(compress(masks, other), map(parse_pair, compress(values, other))))
        except NumberError:
            return False
        masks, text = list(compress(masks, powers)), ",".join(compress(values, powers))
        powers = list(filter(None, powers))
    if masks:
        deque(map(denominators.__setitem__, masks, powers), 0)
        deque(map(numerators.__setitem__, masks, map(int, text.replace(".", "").split(","))), 0)
    for mask, (numerator, denominator) in others:
        numerators[mask], denominators[mask] = numerator, denominator
    return True


def _read_entries(block: list, bits: dict[str, int], table: ValueTable, offset: int) -> None:
    """Raise the first error of ``block``, a block the column pass refused,
    at its entry's locus, ``coalitions[offset + i]``: the entries before it
    are read into ``table`` one at a time, each mask through
    :meth:`ValueTable.mask_for`, which words a refused member list.
    """
    numerators, denominators = table.numerators, table.denominators
    try:  # around the loop, not per entry: the locus is built only to raise
        for i, entry in enumerate(block, offset):
            if not isinstance(entry, dict) or entry.keys() != _ENTRY_KEYS:
                raise ScenarioError("each coalition needs exactly the keys 'members' and 'value'", f"coalitions[{i}]")
            members = entry["members"]
            if not isinstance(members, list):
                raise ScenarioError("members must be a non-empty list", f"coalitions[{i}].members")
            mask = table.mask_for(bits, members)
            numerators[mask], denominators[mask] = _number_pair(entry["value"])
    except (IdentifierError, NumberError) as exc:
        part = "members" if isinstance(exc, IdentifierError) else "value"
        raise ScenarioError(str(exc), f"coalitions[{i}].{part}") from None


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
    "ahp.alternatives.R1", ...) for every schema violation. The cyclic
    collector is paused while the document is decoded and read (a decoded
    document holds no cycles), and the caller's collector state restored.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_document(text)
    finally:
        if enabled:
            gc.enable()


def _parse_document(text: str) -> ScenarioFile:
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
