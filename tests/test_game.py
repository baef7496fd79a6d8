import json
import random
import time
import tracemalloc
from fractions import Fraction
from math import comb, gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainshare import game as game_module
from chainshare import report
from chainshare.adjust import compute_deltas, weighted_value_sums
from chainshare.ahp import ComparisonMatrix, WeightVector
from chainshare.errors import (
    AlignmentError,
    EnumerationBoundError,
    IdentifierError,
    IncompleteGameError,
    InputTypeError,
    NumberError,
)
from chainshare.game import (
    CharacteristicFunction,
    Coalition,
    PlayerSet,
    SuperadditivityViolation,
    ValidationReport,
    ValueTable,
    coalition_weight,
    shapley_exact,
    shapley_terms,
    validate_game,
)
from chainshare.rational import exact_string, format_fixed, parse_pair
from chainshare.scenario import parse_scenario, scenario_game

from .conftest import CASE_CLASSICAL, CASE_VALUES
from .oracles import (
    as_from_values,
    list_payoffs_and_levers,
    mixed_value,
    per_player_lever,
    permutation_shapley,
    random_game_table,
    superadditivity_violations,
)


def test_coalition_weight_three_player_terms():
    assert coalition_weight(3, 1) == Fraction(1, 3)
    assert coalition_weight(3, 2) == Fraction(1, 6)
    assert coalition_weight(3, 3) == Fraction(1, 3)


def test_coalition_weight_single_player():
    assert coalition_weight(1, 1) == 1


@pytest.mark.parametrize("n,s", [(3, 0), (3, 4), (0, 0), (-1, 1), (21, 1)])
def test_coalition_weight_domain_errors(n, s):
    with pytest.raises(ValueError):
        coalition_weight(n, s)


@pytest.mark.parametrize("n", range(1, 13))
def test_coalition_weights_sum_to_one_per_player(n):
    # A fixed player belongs to C(n-1, s-1) coalitions of size s.
    total = sum(comb(n - 1, s - 1) * coalition_weight(n, s) for s in range(1, n + 1))
    assert total == 1


def test_case_game_allocation(case_game):
    allocation = shapley_exact(case_game)
    assert allocation.payoffs == CASE_CLASSICAL
    assert allocation.total == Fraction(3000)
    assert [format_fixed(p) for p in allocation.payoffs] == ["1383.3333", "983.3333", "633.3333"]


def test_single_player_game():
    game = CharacteristicFunction.from_values(("P",), {("P",): 7})
    assert shapley_exact(game).payoffs == (Fraction(7),)


def test_two_player_symmetric_game():
    game = CharacteristicFunction.from_values(
        ("1", "2"), {("1",): 0, ("2",): 0, ("1", "2"): 10}
    )
    assert shapley_exact(game).payoffs == (Fraction(5), Fraction(5))


@pytest.mark.parametrize("seed", range(5))
def test_additive_game_pays_standalone(seed):
    rng = random.Random(seed)
    players = tuple("pqrst"[: rng.randint(2, 5)])
    standalone = {p: Fraction(rng.randint(-500, 500), 10) for p in players}
    table = {
        s: sum((standalone[p] for p in s), Fraction(0))
        for s in random_game_table(rng, players)
    }
    game = CharacteristicFunction.from_values(players, as_from_values(table))
    allocation = shapley_exact(game)
    assert allocation.as_dict() == standalone


@pytest.mark.parametrize("n", range(1, 7))
def test_matches_permutation_oracle(n):
    rng = random.Random(100 + n)
    players = tuple(f"p{i}" for i in range(n))
    for _ in range(3):
        table = random_game_table(rng, players)
        game = CharacteristicFunction.from_values(players, as_from_values(table))
        expected = permutation_shapley(players, table)
        assert shapley_exact(game).as_dict() == expected


@pytest.mark.parametrize("seed", range(4))
def test_symmetry_axiom(seed):
    # v depends only on the pair-count of {x, y} and the rest of the
    # coalition, so x and y are interchangeable.
    rng = random.Random(seed)
    others = ("a", "b")
    players = ("x", "y") + others
    base = {}
    for rest in ({}, {"a"}, {"b"}, {"a", "b"}):
        for pair_count in (0, 1, 2):
            base[(frozenset(rest), pair_count)] = Fraction(rng.randint(-1000, 1000), 10)
    table = {}
    for s in random_game_table(rng, players):
        rest = frozenset(s - {"x", "y"})
        table[s] = base[(rest, len(s & {"x", "y"}))]
    game = CharacteristicFunction.from_values(players, as_from_values(table))
    allocation = shapley_exact(game)
    assert allocation.payoff_of("x") == allocation.payoff_of("y")


@pytest.mark.parametrize("seed", range(4))
def test_dummy_axiom(seed):
    rng = random.Random(seed)
    others = ("a", "b", "c")
    standalone = Fraction(rng.randint(-100, 100), 10)
    base = random_game_table(rng, others)
    table = dict(base)
    table[frozenset({"d"})] = standalone
    for s, v in base.items():
        table[s | {"d"}] = v + standalone
    players = others + ("d",)
    game = CharacteristicFunction.from_values(players, as_from_values(table))
    assert shapley_exact(game).payoff_of("d") == standalone


@pytest.mark.parametrize("seed", range(4))
def test_linearity_axioms(seed):
    rng = random.Random(1000 + seed)
    players = ("a", "b", "c", "d")
    v = random_game_table(rng, players)
    w = random_game_table(rng, players)
    scale = Fraction(rng.randint(1, 50), 7)
    phi_v = shapley_exact(CharacteristicFunction.from_values(players, as_from_values(v))).payoffs
    phi_w = shapley_exact(CharacteristicFunction.from_values(players, as_from_values(w))).payoffs
    combined = {s: v[s] + w[s] for s in v}
    scaled = {s: scale * v[s] for s in v}
    phi_sum = shapley_exact(
        CharacteristicFunction.from_values(players, as_from_values(combined))
    ).payoffs
    phi_scaled = shapley_exact(
        CharacteristicFunction.from_values(players, as_from_values(scaled))
    ).payoffs
    assert phi_sum == tuple(a + b for a, b in zip(phi_v, phi_w))
    assert phi_scaled == tuple(scale * a for a in phi_v)


def test_terms_audit_trail(case_game):
    allocation = shapley_exact(case_game)
    n = case_game.n
    for i, player in enumerate(case_game.player_set):
        player_terms = shapley_terms(case_game, player)
        assert len(player_terms) == 2 ** (n - 1)
        assert sum((t.weight for t in player_terms), Fraction(0)) == 1
        assert sum((t.weight * t.marginal for t in player_terms), Fraction(0)) == allocation.payoffs[i]
        for term in player_terms:
            assert term.coalition.mask >> i & 1
            assert term.weight == coalition_weight(n, term.coalition.size)
            without = term.coalition.mask & ~(1 << i)
            assert term.marginal == case_game(term.coalition.mask) - case_game(without)


@pytest.mark.parametrize("seed", range(10))
def test_efficiency_random_games(seed):
    rng = random.Random(seed)
    players = tuple(f"p{i}" for i in range(rng.randint(2, 8)))
    table = random_game_table(rng, players)
    game = CharacteristicFunction.from_values(players, as_from_values(table))
    assert shapley_exact(game).total == table[frozenset(players)]


def test_incomplete_game_names_missing_coalition():
    values = dict(CASE_VALUES)
    del values[("A", "C")]
    with pytest.raises(IncompleteGameError) as err:
        CharacteristicFunction.from_values(("A", "B", "C"), values)
    assert err.value.coalition == ("A", "C")
    assert "A, C" in str(err.value)


def test_rejects_empty_coalition_key(case_game):
    with pytest.raises(ValueError):
        CharacteristicFunction(case_game.player_set, {0: Fraction(0), **case_game.values})
    with pytest.raises(ValueError):
        CharacteristicFunction(case_game.player_set, {**case_game.values, 8: Fraction(1)})


def test_a_numpy_integer_coalition_key_is_its_int(case_game):
    # keys are read by the Coalition mask rule; an np.int64 key was once an IdentifierError
    keys = {np.int64(mask): value for mask, value in case_game.values.items()}
    assert CharacteristicFunction(case_game.player_set, keys).values == case_game.values


def test_enumeration_bound():
    players = tuple(f"p{i}" for i in range(21))
    with pytest.raises(EnumerationBoundError) as err:
        CharacteristicFunction(PlayerSet(players), {})
    assert "sample_shapley" in str(err.value)


def test_from_values_rejects_duplicates_and_unknowns():
    with pytest.raises(ValueError, match="duplicate coalition"):
        CharacteristicFunction.from_values(
            ("A", "B"), {("A",): 1, ("B",): 1, ("A", "B"): 3, ("B", "A"): 3}
        )
    with pytest.raises(ValueError, match="unknown player 'D'"):
        CharacteristicFunction.from_values(("A", "B"), {("A",): 1, ("D",): 1})


def test_repeated_member_is_an_identifier_error(case_game):
    with pytest.raises(IdentifierError, match="^player 'A' listed twice$"):
        CharacteristicFunction.from_values(("A", "B"), {("A", "A"): "1", ("B",): "1", ("A", "B"): "3"})
    with pytest.raises(IdentifierError, match="^player 'A' listed twice$"):
        case_game(["A", "A"])


def test_from_values_reads_each_value_once(monkeypatch):
    reads = []
    monkeypatch.setattr(game_module, "parse_pair", lambda value: reads.append(value) or parse_pair(value))
    values = {("A",): "1.50", ("B",): 2, ("A", "B"): Fraction(7, 3)}
    game = CharacteristicFunction.from_values(("A", "B"), values)
    assert reads == list(values.values())
    assert dict(game.values) == {1: Fraction(3, 2), 2: 2, 3: Fraction(7, 3)}


def test_value_lookup_forms(case_game):
    assert case_game(("A", "B")) == 2000
    assert case_game(3) == 2000
    assert case_game(case_game.player_set.coalition(["B", "A"])) == 2000
    assert case_game(()) == 0
    assert case_game.grand_value == 3000


def test_a_bare_string_names_one_player_everywhere():
    # from_values once read the key "sup1" as {sup1} while game("sup1") and
    # coalition("sup1") iterated its characters: "unknown player 's'"
    ps = PlayerSet(("sup1", "B"))
    game = CharacteristicFunction.from_values(ps, {"sup1": "1.5", "B": 2, ("sup1", "B"): 4})
    assert ps.coalition("sup1") == ps.coalition(["sup1"]) == Coalition(ps, 1)
    assert game("sup1") == game(["sup1"]) == Fraction(3, 2)
    assert game("B") == 2
    with pytest.raises(IdentifierError, match=r"^duplicate coalition \{sup1\}$"):
        CharacteristicFunction.from_values(ps, {"sup1": 1, ("sup1",): 1})
    with pytest.raises(IdentifierError, match="^unknown player 'sup'$"):
        game("sup")
    # A bare string given as the players or labels is one label too: PlayerSet,
    # from_values, compute_deltas and the AHP constructors once read "AB" as ('A', 'B')
    assert PlayerSet("AB").players == ("AB",)
    game = CharacteristicFunction.from_values("AB", {"AB": "1.5"})
    assert game.player_set.players == ("AB",) and game("AB") == Fraction(3, 2)
    assert compute_deltas(["1"], "AB").player_set.players == ("AB",)
    with pytest.raises(AlignmentError, match="^expected 1 factors, got 2$"):
        compute_deltas(["0.5", "0.5"], "AB")
    assert ComparisonMatrix("AB", [[1]]).labels == WeightVector("AB", (1.0,)).labels == ("AB",)


def test_a_mask_follows_the_coalition_rule(case_game):
    # game(8) and game(-1) once raised a bare KeyError, and game(True) read v({A})
    for mask in (8, -1, 2**70):
        with pytest.raises(IdentifierError, match=f"^coalition mask {mask:#x} out of range for 3 players$"):
            case_game(mask)
    for mask in (True, False):
        with pytest.raises(InputTypeError, match="not a bool"):
            case_game(mask)
        with pytest.raises(InputTypeError, match="not a bool"):
            Coalition(case_game.player_set, mask)
    assert case_game(0) == 0 and case_game(7) == 3000
    # the table is a Mapping, so a key it does not hold stays a KeyError
    with pytest.raises(KeyError):
        case_game.values[8]


def test_a_numpy_integer_is_a_mask(case_game):
    # game(np.int64(3)) once escaped as "'numpy.int64' object is not iterable"
    assert case_game(np.int64(3)) == case_game(3)
    coalition = Coalition(case_game.player_set, np.uint8(5))
    assert type(coalition.mask) is int and coalition == Coalition(case_game.player_set, 5)


def test_a_0d_integer_array_is_a_mask(case_game):
    # game(np.array(3)) once escaped as "iteration over a 0-d array"
    assert case_game(np.array(3)) == case_game(3)
    assert case_game(np.array(5, np.uint8)) == case_game(5)
    assert case_game(np.array(["A", "C"])) == case_game(("A", "C"))


def test_a_coalition_of_another_player_set_is_read_by_its_names(case_game):
    # such a coalition was once read by its mask, as another set's players
    reordered = PlayerSet(tuple(reversed(case_game.player_set.players)))
    for mask in range(8):
        coalition = Coalition(reordered, mask)
        assert case_game(coalition) == case_game(coalition.members)
    with pytest.raises(IdentifierError, match="^unknown player 'D'$"):
        case_game(PlayerSet(("A", "B", "C", "D")).coalition(["A", "D"]))


def test_negative_values_allowed():
    game = CharacteristicFunction.from_values(
        ("1", "2"), {("1",): "-5.5", ("2",): 0, ("1", "2"): "-1"}
    )
    total = shapley_exact(game).total
    assert total == Fraction(-1)


def test_player_set_validation():
    with pytest.raises(ValueError):
        PlayerSet(())
    with pytest.raises(ValueError):
        PlayerSet(("A", "A"))
    with pytest.raises(ValueError):
        PlayerSet(("A", ""))
    ps = PlayerSet(("A", "B"))
    with pytest.raises(ValueError, match="unknown player"):
        ps.index("Z")


@pytest.mark.parametrize("name", [["A"], {"A": 1}, 1])
def test_a_name_no_player_can_be_is_an_unknown_player(name):
    ps = PlayerSet(("A", "B"))
    for call in (ps.index, lambda name: ps.coalition([name])):
        with pytest.raises(IdentifierError) as err:
            call(name)
        assert str(err.value) == f"unknown player {name!r}"


def test_coalition_basics():
    ps = PlayerSet(("A", "B", "C"))
    c = ps.coalition(["C", "A"])
    assert c.mask == 0b101
    assert c.size == 2
    assert c.members == ("A", "C")
    assert c.contains("A") and not c.contains("B")
    assert c.without("A").members == ("C",)
    assert str(c) == "{A, C}"
    with pytest.raises(ValueError):
        Coalition(ps, 8)


def test_validate_game_clean(case_game):
    report = validate_game(case_game)
    assert report.ok
    assert report.violations == ()


def test_validate_game_flags_violation():
    game = CharacteristicFunction.from_values(
        ("1", "2"), {("1",): 10, ("2",): 5, ("1", "2"): 5}
    )
    report = validate_game(game)
    assert not report.ok
    assert len(report.violations) == 1
    violation = report.violations[0]
    assert {violation.left.members, violation.right.members} == {("1",), ("2",)}
    assert violation.union_value == 5
    assert violation.left_value + violation.right_value == 15
    assert "<" in str(violation)


def test_validate_game_single_player():
    game = CharacteristicFunction.from_values(("P",), {("P",): -3})
    assert validate_game(game).ok


def test_validate_game_counts_every_pair():
    # v identically 0 except all singletons worth 1: every disjoint
    # pair violates.
    players = ("a", "b", "c")
    table = {}
    for s in random_game_table(random.Random(0), players):
        table[s] = Fraction(1) if len(s) == 1 else Fraction(0)
    game = CharacteristicFunction.from_values(players, as_from_values(table))
    report = validate_game(game)
    # pairs: 3 singleton-singleton, 3 singleton-pair, and {a}{b,c} style
    # double counts excluded; total disjoint unordered pairs = 6.
    assert len(report.violations) == 6


@pytest.mark.parametrize("seed", range(16))
def test_validate_matches_the_fraction_oracle_on_mixed_tables(seed):
    rng = random.Random(900 + seed)
    players = tuple(f"p{i}" for i in range(rng.randint(1, 6)))
    # Some coalitions are worth exactly the sum of their members' values,
    # so some pairs tie: v(S u T) == v(S) + v(T) is no violation.
    single = {p: Fraction(mixed_value(rng)) for p in players}
    text = {
        s: exact_string(sum(single[p] for p in s)) if rng.random() < 0.4 else mixed_value(rng)
        for s in random_game_table(rng, players)
    }
    table = {s: Fraction(x) for s, x in text.items()}
    entries = [{"members": sorted(s), "value": x} for s, x in text.items()]
    game = scenario_game(parse_scenario(json.dumps({"players": players, "coalitions": entries})))
    violations = validate_game(game).violations
    got = [(frozenset(v.left.members), frozenset(v.right.members), v.left_value, v.right_value, v.union_value)
           for v in violations]
    assert got == superadditivity_violations(players, table)
    assert all(type(x) is Fraction for v in got for x in v[2:])


def test_violations_that_name_one_coalition_share_one_object():
    # every singleton worth 1 and every larger coalition 0: each disjoint pair with a singleton violates
    players = ("a", "b", "c", "d")
    values = {s: Fraction(len(s) == 1) for s in random_game_table(random.Random(0), players)}
    violations = validate_game(CharacteristicFunction.from_values(players, as_from_values(values))).violations
    assert len(violations) == 22
    shared = {}
    for v in violations:
        for coalition in (v.left, v.right):
            assert shared.setdefault(coalition.mask, coalition) is coalition
            assert coalition.members is coalition.members
    assert len(shared) == 14


def test_validate_peaks_below_a_stated_bound_on_a_random_10_player_table():
    # 23,479 violations. Sharing one Coalition per mask reads about 3.2 MiB;
    # one new Coalition pair per violation read 7.8 MiB.
    n = 10
    rng = random.Random(n)
    table = ValueTable(n)
    for mask in range(1, 1 << n):
        table.numerators[mask], table.denominators[mask] = rng.randint(0, 10**8), 100
    game = CharacteristicFunction(_players(n), table)
    tracemalloc.start()
    try:
        violations = validate_game(game).violations
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(violations) == 23_479
    assert peak < 5 << 20, peak / 2**20


def term_sum(game: CharacteristicFunction, player: str) -> Fraction:
    return sum((t.weight * t.marginal for t in shapley_terms(game, player)), Fraction(0))


@pytest.mark.parametrize("n", range(1, 10))
def test_kernel_matches_references_on_mixed_denominators(n):
    rng = random.Random(300 + n)
    players = tuple(f"p{i}" for i in range(n))
    table = {s: Fraction(*parse_pair(mixed_value(rng))) for s in random_game_table(rng, players)}
    game = CharacteristicFunction.from_values(players, as_from_values(table))
    payoffs = shapley_exact(game).as_dict()
    # The n! arrival orders take about 3 s at n = 9, so the widest game is
    # checked against the per-term audit instead.
    if n <= 8:
        assert payoffs == permutation_shapley(players, table)
    else:
        assert payoffs == {p: term_sum(game, p) for p in players}
    assert dict(zip(players, weighted_value_sums(game))) == per_player_lever(players, table)
    assert sum(payoffs.values()) == table[frozenset(players)]


def test_kernel_exact_with_distinct_prime_denominators():
    players = tuple(f"p{i}" for i in range(8))
    primes = [p for p in range(2, 2000) if all(p % d for d in range(2, int(p**0.5) + 1))][:255]
    rng = random.Random(11)
    table = {
        s: Fraction(rng.randint(-10**6, 10**6), prime)
        for s, prime in zip(random_game_table(rng, players), primes, strict=True)
    }
    game = CharacteristicFunction.from_values(players, as_from_values(table))
    allocation = shapley_exact(game)
    assert allocation.as_dict() == {p: term_sum(game, p) for p in players}
    assert allocation.total == table[frozenset(players)]
    assert dict(zip(players, weighted_value_sums(game))) == per_player_lever(players, table)


def test_a_table_too_wide_to_scale_is_refused_quickly():
    # 16,383 distinct 20-digit denominators: up to about a million bits in D
    players = tuple(f"p{i}" for i in range(14))
    game = CharacteristicFunction.from_values(players, {
        tuple(p for i, p in enumerate(players) if mask >> i & 1): f"1/{10**19 + 2 * mask + 1}"
        for mask in range(1, 1 << len(players))
    })
    for kernel in (shapley_exact, weighted_value_sums, validate_game):
        start = time.perf_counter()
        with pytest.raises(NumberError, match="common denominator passes 131072 bits"):
            kernel(game)
        assert time.perf_counter() - start < 1


def test_a_20_player_table_of_two_place_decimals_passes_the_scale_bound():
    table = ValueTable(20)
    table.numerators = list(range(1 << 20))
    table.denominators = [1] + [10 ** (mask % 3) for mask in range(1, 1 << 20)]  # "7", "1.5", "12.34"
    scaled, scale = table.scaled()
    assert scale == 100
    assert scaled.dtype == np.int64
    assert scaled[:4].tolist() == [0, 10, 2, 300] and scaled[-1] == ((1 << 20) - 1) * 100


def _folded_scale(table: ValueTable) -> int | None:
    """D by the one-by-one lcm fold, or None where it passes the scale bound."""
    scale = 1
    for denominator in set(table.denominators):
        scale = lcm(scale, denominator)
        if scale.bit_length() << table.n > game_module.MAX_SCALED_BITS:
            return None
    return scale


def test_a_refused_scale_takes_no_lcm_over_the_right_half(monkeypatch):
    # seven distinct denominators fold as 3 | 4; the left three's lcm passes the
    # bound, and a left-to-right binary counter would have joined the fourth first
    table = ValueTable(3)
    table.denominators = [1, 1, 101, 103, 107, 109, 113, 127]
    leaves = list(set(table.denominators))
    left, right = leaves[:3], leaves[3:]
    limit = lcm(*left).bit_length() - 1
    monkeypatch.setattr(game_module, "MAX_SCALED_BITS", limit << 3)
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return lcm(a, b)

    monkeypatch.setattr(game_module.math, "lcm", spy)
    with pytest.raises(NumberError, match=f"passes {limit} bits"):
        table.scaled()
    assert calls and all(gcd(a * b, prod(right)) == 1 for a, b in calls)


@pytest.mark.parametrize("seed", range(6))
def test_the_pairwise_scale_matches_the_one_by_one_fold(seed, monkeypatch):
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(1, 7)
        table = ValueTable(n)
        table.numerators = [rng.randint(-99, 99) for _ in range(1 << n)]
        table.denominators = [1] + [
            prod(rng.choice((2, 3, 5, 7, 11, 13, 4099)) ** rng.randint(0, 3) for _ in range(3))
            for _ in range((1 << n) - 1)
        ]
        bits = lcm(*table.denominators).bit_length()
        # a bound one bit short of D, at D and past it, and one drawn at random
        for limit in (bits - 1, bits, bits + 1, rng.randint(1, bits + 2)):
            monkeypatch.setattr(game_module, "MAX_SCALED_BITS", limit << n)
            expected = _folded_scale(table)
            if expected is None:
                with pytest.raises(NumberError, match=f"passes {limit} bits"):
                    table.scaled()
            else:
                scaled, scale = table.scaled()
                assert scale == expected
                assert scaled.tolist() == [v * (scale // d) for v, d in zip(table.numerators, table.denominators)]


def _edge_bits(n: int) -> int:
    """The most bits a scaled value may have for the kernel to read int64 at n players."""
    return 63 - comb(n, n // 2).bit_length()


def _players(n: int) -> PlayerSet:
    return PlayerSet(tuple(f"p{i}" for i in range(n)))


# Four kinds of table: 2-place decimals; values at the bound of the
# size-bucket guard, and values one bit wider, all of one sign at times so
# that the widest bucket sums C(n, n // 2) of them (past the bound, that sum
# passes 2**63 from n = 3 on); and distinct 20-digit denominators, whose lcm
# scales nonzero values past any int64.
KERNEL_KINDS = ("decimals", "edge", "past", "wide")


@st.composite
def kernel_tables(draw) -> ValueTable:
    kind = draw(st.sampled_from(KERNEL_KINDS))
    n = draw(st.integers(2 if kind == "wide" else 1, 8))
    slots = (1 << n) - 1
    table = ValueTable(n)
    if kind == "decimals":
        numerators = draw(st.lists(st.integers(-10**8, 10**8), min_size=slots, max_size=slots))
        denominators = draw(st.lists(st.sampled_from((1, 10, 100)), min_size=slots, max_size=slots))
    elif kind == "wide":
        numerators = draw(st.lists(st.integers(-10**8, 10**8).filter(bool), min_size=slots, max_size=slots))
        denominators = draw(st.lists(st.integers(10**19, 10**20 - 1), min_size=slots, max_size=slots, unique=True))
    else:
        top = (1 << (_edge_bits(n) + (kind == "past"))) - 1
        if draw(st.booleans()):
            numerators = [draw(st.sampled_from((top, -top)))] * slots
        else:
            numerators = draw(st.lists(st.sampled_from((top, -top)) | st.integers(-top, top),
                                       min_size=slots, max_size=slots))
            numerators[draw(st.integers(0, slots - 1))] = draw(st.sampled_from((top, -top)))
        denominators = [1] * slots
    table.numerators, table.denominators = [0] + numerators, [1] + denominators
    return table


@settings(max_examples=200, deadline=None)
@given(kernel_tables())
def test_the_size_sums_kernel_matches_the_list_kernel(table):
    n = table.n
    scale = lcm(*table.denominators)
    widest = max(abs(v) * (scale // d) for v, d in zip(table.numerators, table.denominators)).bit_length()
    assert table.scaled()[0].dtype == (np.int64 if widest <= _edge_bits(n) else object)
    game = CharacteristicFunction(_players(n), table)
    assert game_module._payoffs_and_levers(game) == list_payoffs_and_levers(game)


@pytest.mark.parametrize("n", [14, 20])
def test_the_kernel_reads_int64_up_to_the_size_bucket_bound(n):
    top = (1 << _edge_bits(n)) - 1
    table = ValueTable(n)
    table.numerators = [0] + [top] * ((1 << n) - 1)
    table.denominators = [1] * (1 << n)
    assert table.scaled()[0].dtype == np.int64
    # the middle bucket sums C(n, n // 2) values of top, just below 2**63;
    # with v(S) = top for every S, phi_i = top / n and A_i = top
    payoffs, levers = game_module._payoffs_and_levers(CharacteristicFunction(_players(n), table))
    assert payoffs == (Fraction(top, n),) * n and levers == (Fraction(top),) * n
    table.numerators[-1] = top + 1
    assert table.scaled()[0].dtype == object


@pytest.mark.parametrize("numerators, denominators, dtype", [
    # bits(|numerator|) + bits(D) = 63: the product runs in int64 and is exact,
    # though the bucket guard then refuses 63-bit values
    ([0, 2**32 - 1, 2**32 - 1, 1], [1, 2**31 - 1, 1, 1], object),
    # 64: (2**33 - 1) * (2**31 - 1) passes 2**63, so it runs on Python ints
    ([0, 2**33 - 1, 2**33 - 1, 1], [1, 2**31 - 1, 1, 1], object),
    # numerator * D is 71 bits, but every x(S) is at most 41 bits: int64 after all
    ([0, 2**40, 1, -(2**40)], [1, 2**30, 1, 2**30], np.int64),
])
def test_the_scaling_product_runs_in_int64_only_where_it_cannot_wrap(numerators, denominators, dtype):
    table = ValueTable(2)
    table.numerators, table.denominators = numerators, denominators
    scaled, scale = table.scaled()
    assert scale == lcm(*denominators)
    assert scaled.dtype == dtype
    assert scaled.tolist() == [v * (scale // d) for v, d in zip(numerators, denominators)]


@pytest.mark.parametrize("kind", ["edge", "wide"])
def test_validate_reports_alike_from_an_int64_or_a_python_int_column(kind):
    rng = random.Random(kind)
    n = 5
    ps = _players(n)
    table = ValueTable(n)
    top = (1 << _edge_bits(n)) - 1
    for mask in range(1, 1 << n):
        if kind == "edge":
            table.numerators[mask], table.denominators[mask] = rng.choice((top, -top, rng.randint(-top, top))), 1
        else:
            table.numerators[mask], table.denominators[mask] = rng.randint(-10**6, 10**6), 10**19 + 2 * mask + 1
    assert table.scaled()[0].dtype == (np.int64 if kind == "edge" else object)
    game = CharacteristicFunction(ps, table)
    values = {frozenset(ps.members(mask)): Fraction(table[mask]) for mask in range(1, 1 << n)}
    expected = ValidationReport(ps, tuple(
        SuperadditivityViolation(ps.coalition(left), ps.coalition(right), *found)
        for left, right, *found in superadditivity_violations(ps.players, values)
    ))
    assert len(expected.violations) > 10
    got = validate_game(game)
    for format in report.FORMATS:
        rendered = [report.render(report.ReportDocument("validate", ps.players, (report.violations(r),), ok=r.ok), format)
                    for r in (got, expected)]
        assert rendered[0] == rendered[1]
