import json
import random
import tracemalloc
from collections.abc import Mapping, MutableMapping
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainshare import scenario as scenario_module
from chainshare.adjust import adjusted_shapley
from chainshare.errors import EnumerationBoundError, IdentifierError, IncompleteGameError, NumberError, ScenarioError
from chainshare.game import ENUMERATION_MAX_PLAYERS, CharacteristicFunction, PlayerSet, ValueTable
from chainshare.rational import MAX_DIGITS, exact_string, parse_pair
from chainshare.scenario import (
    AhpBlock,
    ScenarioFile,
    bundled_scenario,
    load_scenario,
    parse_scenario,
    resolve_factors,
    scenario_game,
    scenario_hierarchy,
    serialize_scenario,
)

from .oracles import entry_by_entry_coalitions, mixed_value
from .strategies import scenario_numbers, scenario_texts

MINIMAL = {
    "players": ["A", "B"],
    "coalitions": [
        {"members": ["A"], "value": "10"},
        {"members": ["B"], "value": "5"},
        {"members": ["A", "B"], "value": "20"},
    ],
}


def doc(**overrides) -> str:
    merged = {**MINIMAL, **overrides}
    return json.dumps(merged)


def locus_of(excinfo) -> str:
    return excinfo.value.locus


def test_parse_bundled_case_study():
    sf = load_scenario(bundled_scenario("paper_case"))
    assert sf.players == ("A", "B", "C")
    assert len(sf.coalition_values) == 7
    assert sf.coalition_values[0b011] == Fraction(2000)
    assert sf.coalition_values[0b111] == Fraction(3000)
    assert sf.factors == (Fraction("0.6648"), Fraction("0.2633"), Fraction("0.0703"))
    assert sf.mode == "eq3"
    assert sf.ahp is None
    game = scenario_game(sf)
    assert game.grand_value == 3000


def test_parse_bundled_hierarchy():
    sf = load_scenario(bundled_scenario("paper_ahp"))
    assert sf.ahp is not None
    assert len(sf.ahp.criteria) == 7
    assert sf.factors is None
    hierarchy = scenario_hierarchy(sf)
    assert hierarchy.criteria_consistency.passed
    factors = resolve_factors(sf)
    assert abs(float(factors.total) - 1.0) < 1e-9
    assert float(factors.factors[0]) == pytest.approx(0.6648 / 0.9984, abs=1e-9)


def test_bundled_hierarchy_factors_are_exact():
    sf = load_scenario(bundled_scenario("paper_ahp"))
    factors = resolve_factors(sf)
    assert factors.total == 1
    assert adjusted_shapley(scenario_game(sf), factors, "grand").efficiency_gap == 0


def test_bundled_scenario_unknown_name():
    with pytest.raises(ValueError, match="paper_case"):
        bundled_scenario("nonexistent")


@pytest.mark.parametrize("name", ["paper_case", "paper_ahp"])
def test_round_trip_identity(name):
    text = bundled_scenario(name).read_text(encoding="utf-8")
    sf = parse_scenario(text)
    again = serialize_scenario(sf)
    assert parse_scenario(again) == sf
    assert serialize_scenario(parse_scenario(again)) == again
    # the bundled files are stored in canonical form
    assert again == text


def test_round_trip_with_every_optional():
    sf = ScenarioFile(
        players=("A", "B"),
        coalition_values={1: Fraction(1, 3), 2: Fraction("2.5"), 3: Fraction(9)},
        mode="grand",
        normalize_factors=True,
        ahp=AhpBlock(
            criteria=("k1", "k2"),
            criteria_matrix=((Fraction(1), Fraction(3)), (Fraction(1, 3), Fraction(1))),
            alternative_matrices={
                "k2": ((Fraction(1), Fraction(2)), (Fraction(1, 2), Fraction(1)))
            },
            alternative_scores={"k1": (Fraction(1, 4), Fraction(3, 4))},
        ),
    )
    assert parse_scenario(serialize_scenario(sf)) == sf


@pytest.mark.parametrize(
    "value",
    ["9" * 1000, "1e999", "-1E-999", "0." + "1" * 999, "7/" + str(2**3000), str(10**999 + 1) + "/1024"],
)
def test_round_trip_at_the_number_size_bound(value):
    sf = parse_scenario(doc(coalitions=[{"members": ["A", "B"], "value": value}]))
    assert parse_scenario(serialize_scenario(sf)) == sf


def test_serialize_canonicalizes_member_order():
    text = doc(coalitions=[
        {"members": ["B", "A"], "value": "20"},
        {"members": ["A"], "value": "10"},
        {"members": ["B"], "value": "5"},
    ])
    sf = parse_scenario(text)
    out = serialize_scenario(sf)
    order = [c["members"] for c in json.loads(out)["coalitions"]]
    assert order == [["A"], ["B"], ["A", "B"]]


def test_parse_errors_with_loci():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("{not json")
    assert "line 1" in locus_of(err)

    with pytest.raises(ScenarioError) as err:
        parse_scenario("[1, 2]")
    assert locus_of(err) == "document"

    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc(players=[]))
    assert locus_of(err) == "players"

    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc(players=["A", "A"]))
    assert locus_of(err) == "players"

    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps({"players": ["A"]}))
    assert locus_of(err) == "coalitions"

    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc(extra=1))
    assert locus_of(err) == "document"


def test_unknown_player_in_coalition():
    bad = doc(coalitions=MINIMAL["coalitions"] + [{"members": ["D"], "value": "1"}])
    with pytest.raises(ScenarioError) as err:
        parse_scenario(bad)
    assert "'D'" in str(err.value)
    assert locus_of(err) == "coalitions[3].members"


def test_duplicate_coalition_detected_across_orderings():
    bad = doc(coalitions=MINIMAL["coalitions"] + [{"members": ["B", "A"], "value": "21"}])
    with pytest.raises(ScenarioError, match="duplicate coalition"):
        parse_scenario(bad)


def test_repeated_member_detected():
    bad = doc(coalitions=[{"members": ["A", "A"], "value": "1"}])
    with pytest.raises(ScenarioError, match="listed twice"):
        parse_scenario(bad)


RULE_PLAYERS = ("A", "B", "C")
# known and unknown names, and names no player can be: unhashable, or not strings
MEMBER_NAMES = st.one_of(st.sampled_from(RULE_PLAYERS + ("D", "")), st.sampled_from([["A"], {"A": 1}, 1, None, True]))


class _Key(tuple):
    """A member list that can key a dict whatever names it holds."""

    __hash__ = object.__hash__


def _members_of(mask: int) -> tuple[str, ...]:
    return tuple(p for i, p in enumerate(RULE_PLAYERS) if mask >> i & 1)


def _member_rule(members: list) -> int | str:
    """The member-list rule written out: the mask, or why the first bad name is bad."""
    mask = 0
    for name in members:
        if name not in RULE_PLAYERS:
            return f"unknown player {name!r}"
        bit = 1 << RULE_PLAYERS.index(name)
        if mask & bit:
            return f"player {name!r} listed twice"
        mask |= bit
    return mask


def _scenario_verdict(*member_lists: list) -> int | str:
    coalitions = [{"members": members, "value": "7"} for members in member_lists]
    try:
        sf = parse_scenario(json.dumps({"players": list(RULE_PLAYERS), "coalitions": coalitions}))
    except ScenarioError as exc:
        assert exc.locus == f"coalitions[{len(member_lists) - 1}].members"
        return str(exc).removeprefix(exc.locus + ": ")
    return max(sf.coalition_values)


def _from_values_verdict(*member_lists: list, mask: int = 0) -> int | str:
    """The last list's verdict from from_values, every coalition but ``mask`` given first."""
    values = {_members_of(m): "1" for m in range(1, 1 << len(RULE_PLAYERS)) if m != mask}
    values.update({_Key(members): "7" for members in member_lists})
    try:
        game = CharacteristicFunction.from_values(RULE_PLAYERS, values)
    except IdentifierError as exc:
        return str(exc)
    return next(m for m, value in game.values.items() if value == 7)


def _library_verdict(call, members: list) -> int | str:
    try:
        return call(members)
    except IdentifierError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(MEMBER_NAMES, max_size=5))
def test_member_lists_have_one_rule(members):
    expected = _member_rule(members)
    players = PlayerSet(RULE_PLAYERS)
    game = CharacteristicFunction.from_values(players, {_members_of(m): m for m in range(1, 8)})  # worth its mask
    assert _library_verdict(lambda names: players.coalition(names).mask, members) == expected
    assert _library_verdict(game, members) == expected
    # the empty coalition is a coalition, but no value table holds one
    table_verdict = expected or "members must be a non-empty list"
    assert _scenario_verdict(members) == table_verdict
    assert _from_values_verdict(members, mask=expected if isinstance(expected, int) else 0) == table_verdict


@given(
    st.lists(st.sampled_from(RULE_PLAYERS), min_size=1, unique=True).flatmap(
        lambda members: st.tuples(st.just(members), st.permutations(members))
    )
)
def test_a_coalition_given_twice_is_one_error(lists):
    first, again = lists
    message = "duplicate coalition {" + ", ".join(sorted(first)) + "}"
    assert _scenario_verdict(first, again) == message
    assert _from_values_verdict(first, again, mask=_member_rule(first)) == message


def test_malformed_value():
    bad = doc(coalitions=[{"members": ["A"], "value": "12,5"}])
    with pytest.raises(ScenarioError) as err:
        parse_scenario(bad)
    assert locus_of(err) == "coalitions[0].value"

    with pytest.raises(ScenarioError, match="strings"):
        parse_scenario(doc(coalitions=[{"members": ["A"], "value": 12.5}]))


def test_ratio_strings_parse_exactly():
    sf = parse_scenario(doc(factors={"A": "2/3", "B": "1/3"}))
    assert sf.factors == (Fraction(2, 3), Fraction(1, 3))


def test_factor_validation():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc(factors={"A": "1"}))
    assert locus_of(err) == "factors"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc(factors={"A": "-0.1", "B": "1.1"}))
    assert locus_of(err) == "factors.A"


def test_mode_validation():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc(mode="both"))
    assert locus_of(err) == "mode"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc(normalize_factors="yes"))
    assert locus_of(err) == "normalize_factors"


AHP_BLOCK = {
    "criteria": ["k1", "k2"],
    "criteria_matrix": [["1", "2"], ["0.5", "1"]],
    "alternatives": {
        "k1": {"A": "0.5", "B": "0.5"},
        "k2": [["1", "3"], ["1/3", "1"]],
    },
}


def test_ahp_block_parses():
    sf = parse_scenario(doc(ahp=AHP_BLOCK))
    assert sf.ahp.criteria == ("k1", "k2")
    assert sf.ahp.alternative_scores["k1"] == (Fraction(1, 2), Fraction(1, 2))
    assert sf.ahp.alternative_matrices["k2"][1][0] == Fraction(1, 3)
    hierarchy = scenario_hierarchy(sf)
    assert hierarchy.players == ("A", "B")


def test_ahp_block_validation():
    block = {**AHP_BLOCK, "alternatives": {"k1": {"A": "0.5", "B": "0.5"}}}
    with pytest.raises(ScenarioError, match="missing entries"):
        parse_scenario(doc(ahp=block))

    block = {**AHP_BLOCK, "alternatives": {**AHP_BLOCK["alternatives"], "k9": {"A": "1", "B": "0"}}}
    with pytest.raises(ScenarioError, match="unknown criteria"):
        parse_scenario(doc(ahp=block))

    block = {**AHP_BLOCK, "criteria_matrix": [["1"], ["1"], ["1"]]}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc(ahp=block))
    assert locus_of(err) == "ahp.criteria_matrix"

    block = {**AHP_BLOCK, "criteria_matrix": [["1", "2", "3"], ["0.5", "1", "2"]]}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc(ahp=block))
    assert locus_of(err) == "ahp.criteria_matrix[0]"

    block = {**AHP_BLOCK, "alternatives": {"k1": {"A": "0.5"}, "k2": AHP_BLOCK["alternatives"]["k2"]}}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc(ahp=block))
    assert locus_of(err) == "ahp.alternatives.k1"


@pytest.mark.parametrize(
    "overrides, locus, message",
    [
        ({"ahp": {**AHP_BLOCK, "weights": []}}, "ahp", "unknown keys ['weights']"),
        ({"ahp": {**AHP_BLOCK, "criteria": "k1"}}, "ahp.criteria", "must be a non-empty list of labels"),
        ({"ahp": {**AHP_BLOCK, "alternatives": [["1"]]}}, "ahp.alternatives",
         "must map every criterion to a matrix or a score map"),
        ({"ahp": {**AHP_BLOCK, "alternatives": {**AHP_BLOCK["alternatives"], "k1": "0.5"}}}, "ahp.alternatives.k1",
         "must be a matrix (list of rows) or a player->score map"),
        ({"factors": ["0.5", "0.5"]}, "factors", "must map every player to a factor"),
    ],
)
def test_malformed_ahp_and_factor_blocks_are_refused_at_their_locus(overrides, locus, message):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc(**overrides))
    assert locus_of(err) == locus
    assert str(err.value) == f"{locus}: {message}"


def test_factors_and_ahp_are_exclusive():
    with pytest.raises(ScenarioError, match="at most one"):
        parse_scenario(doc(factors={"A": "0.5", "B": "0.5"}, ahp=AHP_BLOCK))


def test_scenario_game_requires_totality():
    sf = parse_scenario(doc(coalitions=[
        {"members": ["A"], "value": "10"},
        {"members": ["B"], "value": "5"},
    ]))
    with pytest.raises(IncompleteGameError) as err:
        scenario_game(sf)
    assert err.value.coalition == ("A", "B")


def assert_read_only_fractions(values, masks: set[int]) -> None:
    assert isinstance(values, Mapping) and not isinstance(values, MutableMapping)
    assert set(values) == masks and len(values) == len(masks)
    assert all(type(v) is Fraction for v in values.values())
    with pytest.raises(TypeError):
        values[min(masks)] = Fraction(0)
    with pytest.raises(KeyError):
        values[0]
    assert all(key not in values for key in (0, -1, max(masks) + 1, "A", None))


@pytest.mark.parametrize("seed", range(8))
def test_value_tables_round_trip_and_read_as_read_only_fractions(seed):
    rng = random.Random(seed)
    players = tuple(f"p{i}" for i in range(rng.randint(1, 6)))
    masks = list(range(1, 1 << len(players)))
    rng.shuffle(masks)
    given = {mask: mixed_value(rng) for mask in masks[:len(masks) - rng.randint(0, 1)]}
    entries = [
        {"members": [p for i, p in enumerate(players) if mask >> i & 1][::rng.choice([1, -1])], "value": value}
        for mask, value in given.items()
    ]
    sf = parse_scenario(json.dumps({"players": list(players), "coalitions": entries}))
    assert parse_scenario(serialize_scenario(sf)) == sf
    assert dict(sf.coalition_values) == {mask: Fraction(value) for mask, value in given.items()}
    assert_read_only_fractions(sf.coalition_values, set(given))
    if len(given) < len(masks):
        with pytest.raises(IncompleteGameError):
            scenario_game(sf)
    else:
        game = scenario_game(sf)
        assert game.values is sf.coalition_values  # the game reads the parsed table, not a copy
        assert_read_only_fractions(game.values, set(given))


def test_scenario_past_the_enumeration_bound_still_parses():
    players = [f"p{i}" for i in range(ENUMERATION_MAX_PLAYERS + 4)]
    entries = [
        {"members": [players[-1]], "value": "2.5"},
        {"members": ["p0", players[-1]], "value": "-7/3"},
        {"members": ["p3"], "value": 4},
    ]
    sf = parse_scenario(json.dumps({"players": players, "coalitions": entries}))
    top = 1 << (len(players) - 1)
    assert dict(sf.coalition_values) == {top: Fraction(5, 2), top | 1: Fraction(-7, 3), 8: Fraction(4)}
    assert parse_scenario(serialize_scenario(sf)) == sf
    assert_read_only_fractions(sf.coalition_values, {top, top | 1, 8})
    with pytest.raises(ScenarioError, match="duplicate coalition"):
        parse_scenario(json.dumps({"players": players, "coalitions": entries + entries[:1]}))
    with pytest.raises(EnumerationBoundError):
        scenario_game(sf)


def test_resolve_factors_variants():
    assert resolve_factors(parse_scenario(doc())) is None
    sf = parse_scenario(doc(factors={"A": "0.7", "B": "0.3"}))
    factors = resolve_factors(sf)
    assert factors.factors == (Fraction(7, 10), Fraction(3, 10))
    sf = parse_scenario(doc(factors={"A": "0.5", "B": "0.6"}, normalize_factors=True))
    factors = resolve_factors(sf)
    assert factors.total == 1
    assert factors.factors == (Fraction(5, 11), Fraction(6, 11))


def test_scenario_hierarchy_requires_ahp():
    with pytest.raises(ScenarioError, match="no 'ahp' section"):
        scenario_hierarchy(parse_scenario(doc()))


def test_unhashable_member_names_its_coalition():
    bad = doc(coalitions=[{"members": [["A"]], "value": "1"}])
    with pytest.raises(ScenarioError, match="unknown player") as err:
        parse_scenario(bad)
    assert locus_of(err) == "coalitions[0].members"


def test_a_scenario_keeps_one_player_set():
    parsed = parse_scenario(doc())
    assert parsed.player_set is parsed.player_set
    assert scenario_game(parsed).player_set is parsed.player_set
    built = ScenarioFile(players=("A", "B"), coalition_values={1: Fraction(1), 2: Fraction(2), 3: Fraction(4)})
    assert built.player_set is built.player_set
    assert built.player_set.players == ("A", "B")


def test_deep_nesting_is_a_document_error():
    with pytest.raises(ScenarioError, match="recursion") as err:
        parse_scenario("[" * 100_000)
    assert locus_of(err) == "document"


def test_text_that_is_not_utf8_is_a_document_error(tmp_path):
    path = tmp_path / "latin1.scenario"
    path.write_bytes(b'{"players": ["\xe9"]}')
    with pytest.raises(ScenarioError, match="utf-8") as err:
        load_scenario(path)
    assert locus_of(err) == "document"


def test_player_and_criterion_rules_come_from_the_library():
    with pytest.raises(ScenarioError, match="non-empty strings") as err:
        parse_scenario(doc(players=["A", 1]))
    assert locus_of(err) == "players"
    for criteria in ([], ["k1", "k1"], ["k1", ""]):
        with pytest.raises(ScenarioError, match="criterion label") as err:
            parse_scenario(doc(ahp={**AHP_BLOCK, "criteria": criteria}))
        assert locus_of(err) == "ahp.criteria"


def test_labels_that_utf8_cannot_encode_are_rejected_at_their_locus():
    with pytest.raises(ScenarioError, match="UTF-8") as err:
        parse_scenario(doc(players=["A", "\ud800"]))
    assert locus_of(err) == "players"
    with pytest.raises(ScenarioError, match="UTF-8") as err:
        parse_scenario(doc(ahp={**AHP_BLOCK, "criteria": ["k1", "\udfff"]}))
    assert locus_of(err) == "ahp.criteria"
    assert parse_scenario(doc(players=["A", "\U0001f600"], coalitions=[{"members": ["A"], "value": "1"}]))


def test_hierarchy_matrix_errors_name_their_matrix():
    block = {**AHP_BLOCK, "criteria_matrix": [["1", "2"], ["2", "1"]]}
    with pytest.raises(ScenarioError, match="reciprocal") as err:
        scenario_hierarchy(parse_scenario(doc(ahp=block)))
    assert locus_of(err) == "ahp.criteria_matrix"
    block = {**AHP_BLOCK, "alternatives": {**AHP_BLOCK["alternatives"], "k2": [["2", "3"], ["1/3", "1"]]}}
    with pytest.raises(ScenarioError, match="diagonal") as err:
        scenario_hierarchy(parse_scenario(doc(ahp=block)))
    assert locus_of(err) == "ahp.alternatives.k2"


@settings(max_examples=100, deadline=2000)
@given(text=scenario_texts)
def test_parse_scenario_raises_only_scenario_errors(text):
    try:
        parse_scenario(text)
    except ScenarioError:
        pass


@settings(max_examples=300, deadline=2000)
@given(raw=scenario_numbers)
def test_coalition_values_read_what_fraction_reads_and_fail_at_their_locus(raw):
    expected = None  # for a bool, or a string Fraction rejects or that needs too many digits
    if not isinstance(raw, bool):
        try:
            parse_pair(str(raw))
            expected = Fraction(str(raw).strip())
        except NumberError:
            pass
    coalitions = [dict(entry) for entry in MINIMAL["coalitions"]]
    coalitions[1]["value"] = raw
    for fields, locus, read in [
        ({"coalitions": coalitions}, "coalitions[1].value", lambda sf: sf.coalition_values[0b10]),
        ({"factors": {"A": "1/2", "B": raw}}, "factors.B", lambda sf: sf.factors[1]),
    ]:
        try:
            got = read(parse_scenario(doc(**fields)))
        except ScenarioError as err:  # a factor may also be refused for being negative
            assert expected is None or (locus == "factors.B" and expected < 0), raw
            assert err.locus == locus
        else:
            assert type(got) is Fraction and got == expected


# --- the coalition reader against the entry-by-entry reference ---------------

COLUMN_PLAYERS = ("A", "B", "C", "D")
WIDE_PLAYERS = tuple(f"p{i}" for i in range(ENUMERATION_MAX_PLAYERS + 2))  # a sparse table
_decimals = st.builds(lambda whole, places: f"{whole}.{places}" if places else str(whole),
                      st.integers(-(10**6), 10**6), st.sampled_from(["", "5", "25", "001", "50"]))
_ratios = st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 10**6), st.sampled_from([1, 3, 4, 7, 10, 97]))
# Values at and past the edges of the plain grammar and of MAX_DIGITS, and values that are not strings.
_ODD_VALUES = st.sampled_from([
    7, -2, 10**MAX_DIGITS, True, False, 1.5, None, "1e3", " 1", "+1", "-3/4", "1/0", "١٢", "1\n2", "", "2/4",
    "9" * (MAX_DIGITS - 1), "9" * MAX_DIGITS, "9" * (MAX_DIGITS + 1), "-" + "9" * MAX_DIGITS,
    "0." + "0" * (MAX_DIGITS - 3) + "1", "0." + "0" * (MAX_DIGITS - 2) + "1",
    "1/" + "7" * (MAX_DIGITS - 2), "1/" + "7" * (MAX_DIGITS - 1),
])
_ODD_MEMBERS = st.sampled_from(["A", {"A": 1}, None, [], ["Z"], [["A"]], [{"A": 1}], [1], [True]])


@st.composite
def coalition_lists(draw) -> tuple[tuple[str, ...], list]:
    """Players and a generated coalitions list, plain or mutated in one or more entries."""
    wide = draw(st.integers(0, 9)) == 0
    players = WIDE_PLAYERS if wide else COLUMN_PLAYERS[: draw(st.integers(1, len(COLUMN_PLAYERS)))]
    if wide:
        masks = draw(st.lists(st.integers(1, (1 << len(players)) - 1), min_size=1, max_size=6, unique=True))
    else:
        masks = draw(st.permutations(range(1, 1 << len(players))))
        masks = masks[: draw(st.integers(1, len(masks)))]
    values = draw(st.sampled_from([_decimals, _ratios, _decimals | _ratios]))
    coalitions = []
    for mask in masks:
        members = [p for i, p in enumerate(players) if mask >> i & 1]
        coalitions.append({"members": draw(st.permutations(members)), "value": draw(values)})
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(coalitions) - 1))
        if not isinstance(coalitions[i], dict) or not isinstance(coalitions[i].get("members"), list):
            continue  # mutated past what the kinds below take
        entry = dict(coalitions[i])
        kind = draw(st.sampled_from(["entry", "extra", "missing", "members", "repeat", "duplicate", "value"]))
        if kind == "entry":
            entry = draw(st.sampled_from([["A"], "A", None, 3]))
        elif kind == "extra":
            entry["weight"] = 1
        elif kind == "missing":
            entry.pop(draw(st.sampled_from(["members", "value"])), None)
        elif kind == "members":
            entry["members"] = draw(_ODD_MEMBERS)
        elif kind == "repeat":
            entry["members"] = entry["members"] + entry["members"][:1]
        elif kind == "duplicate":
            coalitions.insert(draw(st.integers(0, len(coalitions))), {**entry, "members": entry["members"][::-1]})
        else:
            entry["value"] = draw(_ODD_VALUES)
        coalitions[i] = entry
    return players, json.loads(json.dumps(coalitions))


def _table_or_error(read, coalitions: list) -> tuple:
    try:
        table = read(coalitions)
    except ScenarioError as exc:
        return "error", str(exc), exc.locus
    return "table", table.numerators, table.denominators


@settings(max_examples=300, deadline=None)
@given(coalition_lists())
@example(case=(WIDE_PLAYERS, [{"members": ["p0"], "value": "1"}, {"members": [], "value": "2"}]))
@example(case=(("A", "B"), [{"members": "AB", "value": "1"}]))
@example(case=(("A", "B"), [{"members": ["A", "A"], "value": "1"}]))
@example(case=(("A", "B"), [{"members": ["A", "B"], "value": "1"}, {"members": ["B", "A"], "value": "2"}]))
@example(case=(("A", "B"), [{"members": ["A"], "value": "1\n2"}, {"members": ["B"], "value": "+1"}]))
# Each edge of the column pass's value check, in the second entry: the plain
# decimal shape, ASCII digits, a non-zero ratio, a JSON int, and the lengths
# past int64 and past MAX_DIGITS (a value of MAX_DIGITS + 1 characters that
# Fraction still reads).
@example(case=(("A", "B"), [{"members": ["A"], "value": "1"}, {"members": ["B"], "value": "5."}]))
@example(case=(("A", "B"), [{"members": ["A"], "value": "1"}, {"members": ["B"], "value": ".5"}]))
@example(case=(("A", "B"), [{"members": ["A"], "value": "1"}, {"members": ["B"], "value": "-.5"}]))
@example(case=(("A", "B"), [{"members": ["A"], "value": "1"}, {"members": ["B"], "value": "1.2.3"}]))
@example(case=(("A", "B"), [{"members": ["A"], "value": "1"}, {"members": ["B"], "value": "5-"}]))
@example(case=(("A", "B"), [{"members": ["A"], "value": "1"}, {"members": ["B"], "value": "--1"}]))
@example(case=(("A", "B"), [{"members": ["A"], "value": "1"}, {"members": ["B"], "value": "1/0"}]))
@example(case=(("A", "B"), [{"members": ["A"], "value": "1"}, {"members": ["B"], "value": "\u0661"}]))
@example(case=(("A", "B"), [{"members": ["A"], "value": "1"}, {"members": ["B"], "value": "1_0"}]))
@example(case=(("A", "B"), [{"members": ["A"], "value": "1"}, {"members": ["B"], "value": " 5"}]))
@example(case=(("A", "B"), [{"members": ["A"], "value": "1"}, {"members": ["B"], "value": 5}]))
@example(case=(("A", "B"), [{"members": ["A"], "value": "1"}, {"members": ["B"], "value": "9" * 19}]))
@example(case=(("A", "B"), [{"members": ["A"], "value": "1"},
                            {"members": ["B"], "value": "0." + "0" * (MAX_DIGITS - 2) + "1"}]))
def test_the_coalition_reader_reads_what_the_reference_reads(case):
    names, coalitions = case
    players = PlayerSet(names)
    expected = _table_or_error(lambda cs: entry_by_entry_coalitions(cs, players.bits, players.n), coalitions)
    got = _table_or_error(lambda cs: scenario_module._parse_coalitions({"coalitions": cs}, players), coalitions)
    assert got == expected


def _mask_for_refused(*args):
    raise AssertionError("a plain table reached ValueTable.mask_for")


NEGATIVE_RATIOS = {1: Fraction(1), 2: Fraction(-1, 3), 3: Fraction(5, 2), 4: Fraction(-22, 7), 5: Fraction(-1, 6),
                   6: Fraction(2, -9), 7: Fraction(-4)}


@pytest.mark.parametrize("seed", range(6))
def test_plain_tables_never_reach_the_entry_reader(monkeypatch, seed):
    """A plain document's member lists never go through the entry-wise
    member check, ValueTable.mask_for, which the reader calls only to word an error."""
    rng = random.Random(seed)
    players = tuple(f"p{i}" for i in range(rng.randint(1, 7)))
    entries = []
    for mask in range(1, 1 << len(players)):
        if rng.randrange(5):
            value = Fraction(rng.randint(-(10**6), 10**6), rng.choice([1, 10, 100]))
        else:  # a ratio, written "p/q"
            value = Fraction(rng.randint(0, 10**4), rng.choice([3, 7, 9, 11, 13]))
        members = [p for i, p in enumerate(players) if mask >> i & 1]
        rng.shuffle(members)
        entries.append({"members": members, "value": exact_string(value)})
    rng.shuffle(entries)
    uniform = {p: f"1/{len(players)}" for p in players}
    extra = [
        {},
        {"factors": uniform, "mode": "eq3"},
        {"ahp": {"criteria": ["k1", "k2"], "criteria_matrix": [["1", "2"], ["1/2", "1"]],
                 "alternatives": {"k1": uniform, "k2": uniform}}},
    ][seed % 3]
    negative = ScenarioFile(players=("A", "B", "C"), coalition_values=NEGATIVE_RATIOS)
    texts = [json.dumps({"players": list(players), "coalitions": entries, **extra})]
    texts += [bundled_scenario(name).read_text(encoding="utf-8") for name in ("paper_case", "paper_ahp")]
    texts.append(serialize_scenario(negative))  # signed ratios, serialized as "-1/3"
    assert {"-1/3", "-22/7", "-1/6", "-2/9"} <= {entry["value"] for entry in json.loads(texts[-1])["coalitions"]}
    expected = [parse_scenario(text) for text in texts]
    assert expected[-1] == negative and dict(expected[-1].coalition_values) == NEGATIVE_RATIOS
    monkeypatch.setattr(ValueTable, "mask_for", _mask_for_refused)
    assert [parse_scenario(text) for text in texts] == expected


def _plain_coalitions(n: int) -> tuple[PlayerSet, list]:
    """Every coalition of ``n`` players, in a shuffled order, one value in ten
    a "p/q" ratio and the rest decimals of 0 to 2 places, some negative."""
    rng = random.Random(n)
    players = PlayerSet(tuple(f"p{i}" for i in range(n)))
    coalitions = []
    for mask in range(1, 1 << n):
        if rng.randrange(10):
            value = f"{rng.randint(-(10**6), 10**6)}{rng.choice(['', '.5', '.25', '.07'])}"
        else:
            value = f"{rng.randint(-(10**4), 10**4)}/{rng.choice([3, 7, 9, 11, 13])}"
        members = list(players.members(mask))
        rng.shuffle(members)
        coalitions.append({"members": members, "value": value})
    rng.shuffle(coalitions)
    return players, coalitions


def test_a_plain_document_reads_only_its_ratio_rows_one_at_a_time(monkeypatch):
    """The column pass reads a plain document, in more than one block, and
    calls parse_pair once per ratio row only; the entry loop never runs."""
    players, coalitions = _plain_coalitions(11)
    assert len(coalitions) > scenario_module._BLOCK_ROWS
    expected = entry_by_entry_coalitions(coalitions, players.bits, players.n)
    read = []

    def counted(value):
        read.append(value)
        return parse_pair(value)

    def refused(*args):
        raise AssertionError("a plain document entered the entry loop")

    monkeypatch.setattr(scenario_module, "parse_pair", counted)
    monkeypatch.setattr(scenario_module, "_read_entries", refused)
    table = scenario_module._parse_coalitions({"coalitions": coalitions}, players)
    assert sorted(read) == sorted(entry["value"] for entry in coalitions if "/" in entry["value"])
    assert table.numerators == expected.numerators and table.denominators == expected.denominators


def _entry(members: str, value) -> dict:
    return {"members": list(members), "value": value}


@pytest.mark.parametrize("coalitions", [
    [_entry("A", "1"), _entry("B", "2"), _entry("AB", "3.5"), _entry("C", "1/3")],
    [_entry("A", "1"), _entry("B", "2"), _entry("C", "3"), _entry("A", "4")],  # given twice, blocks apart
    [_entry("A", "1"), _entry("B", "2"), _entry("AB", "1e3"), _entry("C", 7)],  # valid, not plain: read by columns
    [_entry("A", "1"), _entry("B", "2"), _entry("AB", "1/0"), _entry("C", "5.")],
    [_entry("A", "1"), _entry("B", "2"), _entry("AB", "1"), _entry("CC", "3")],
    [_entry("A", "1"), _entry("B", "2"), _entry("AB", "1"), {"members": ["C"]}],
    # given twice, three blocks apart, with a valid value that is not plain between
    [_entry("A", "1"), _entry("B", "2"), _entry("C", "3"), _entry("AB", "1e3"), _entry("AC", "5"),
     _entry("BC", "6"), _entry("A", "7")],
    # a JSON int in the first block, then two errors in the third: the first is reported
    [_entry("A", 7), _entry("B", "2"), _entry("C", "3"), _entry("AB", "4"), _entry("AC", "1/0"), _entry("AC", "5")],
])
def test_every_block_of_the_column_pass_reads_what_the_reference_reads(monkeypatch, coalitions):
    players = PlayerSet(("A", "B", "C"))
    monkeypatch.setattr(scenario_module, "_BLOCK_ROWS", 2)  # so each case spans blocks
    expected = _table_or_error(lambda cs: entry_by_entry_coalitions(cs, players.bits, players.n), coalitions)
    got = _table_or_error(lambda cs: scenario_module._parse_coalitions({"coalitions": cs}, players), coalitions)
    assert got == expected


@pytest.mark.parametrize("coalitions, start", [
    # an unknown member in the middle block; the last block is never read
    ([_entry("A", "1"), _entry("B", "2"), _entry("AD", "1"), _entry("C", "3"), _entry("AC", "4"),
      _entry("BC", "5")], 2),
    ([_entry("A", "1"), _entry("B", "2"), _entry("C", "3"), _entry("A", "4")], 2),  # a repeat across blocks
    ([_entry("A", "1"), _entry("B", "2"), _entry("AB", "1/3"), _entry("C", "1/0")], 2),  # the block's ratio unwritten
    ([_entry("A", "1"), _entry("A", "2"), _entry("B", "3")], 0),  # a repeat inside the first block
    ([_entry("A", 7.5), _entry("B", "2"), _entry("C", "3"), _entry("AB", "4")], 0),  # a JSON float in the first block
    ([_entry("A", "1"), _entry("A", "2"), _entry("B", "1e3")], 0),  # the first block's error ends the read
])
def test_the_entry_loop_reads_on_from_the_refused_block(monkeypatch, coalitions, start):
    """Only the block the column pass refuses, which holds an error, is read
    one entry at a time, at its own offset, into the table the blocks before
    it filled, and the read ends at that block's first error."""
    players = PlayerSet(("A", "B", "C"))
    monkeypatch.setattr(scenario_module, "_BLOCK_ROWS", 2)
    calls = []
    read_entries = scenario_module._read_entries

    def recorded(block, bits, table, offset):
        calls.append((offset, len(block)))
        return read_entries(block, bits, table, offset)

    monkeypatch.setattr(scenario_module, "_read_entries", recorded)
    expected = _table_or_error(lambda cs: entry_by_entry_coalitions(cs, players.bits, players.n), coalitions)
    got = _table_or_error(lambda cs: scenario_module._parse_coalitions({"coalitions": cs}, players), coalitions)
    assert got == expected
    assert calls == [(start, len(coalitions[start : start + 2]))]


def test_a_valid_value_that_is_not_plain_is_read_by_the_column_pass(monkeypatch):
    """JSON ints, and strings that are valid but not plain decimals, spread
    over the blocks: the column pass reads the whole document, and calls
    parse_pair once per ratio row and once per value that is not plain."""
    players, coalitions = _plain_coalitions(11)
    odd = {3: 1000, 700: -250, 1100: "1e3", 1500: "+12", 1501: " 5", 1900: "5.", 2000: "١٢", 2046: "1_000"}
    for i, value in odd.items():
        coalitions[i] = {**coalitions[i], "value": value}
    expected = entry_by_entry_coalitions(coalitions, players.bits, players.n)
    read = []

    def counted(value):
        read.append(value)
        return parse_pair(value)

    def refused(*args):
        raise AssertionError("a valid document entered the entry loop")

    monkeypatch.setattr(scenario_module, "parse_pair", counted)
    monkeypatch.setattr(scenario_module, "_read_entries", refused)
    table = scenario_module._parse_coalitions({"coalitions": coalitions}, players)
    ratios = [entry["value"] for entry in coalitions if "/" in str(entry["value"])]
    assert sorted(read) == sorted(ratios + [value for value in odd.values() if isinstance(value, str)])
    assert table.numerators == expected.numerators and table.denominators == expected.denominators


def _whole_values_as_ints(coalitions: list) -> list:
    return [{**entry, "value": int(entry["value"])} if entry["value"].lstrip("-").isdigit() else entry
            for entry in coalitions]


@pytest.mark.parametrize("write", [list, _whole_values_as_ints], ids=["strings", "ints"])
def test_the_column_pass_holds_its_columns_a_block_at_a_time(write):
    # Reading these 65,535 coalitions one entry at a time peaked at 2.75 MiB
    # of tracemalloc (the table's two lists and its numerators), and the bound
    # leaves 0.5 MiB over that for one block's columns: blocks of 1,024
    # entries peak at 2.9 MiB, blocks of 4,096 at 3.3 MiB, and columns held
    # for the whole list at once (masks, value texts, split digits) at 11.8 MiB.
    # With every whole value a JSON int, each block's texts are made from its
    # ints, and the peak stays within the same bound.
    players, coalitions = _plain_coalitions(16)
    coalitions = write(coalitions)
    scenario_module._parse_coalitions({"coalitions": coalitions[:9]}, players)  # caches the shapes' powers of ten
    tracemalloc.start()
    try:
        table = scenario_module._parse_coalitions({"coalitions": coalitions}, players)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == len(coalitions)
    assert peak < 3.25 * 2**20, peak
