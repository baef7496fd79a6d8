import random
from fractions import Fraction

import pytest

from chainshare import adjust
from chainshare.adjust import (
    AdjustmentFactors,
    adjusted_shapley,
    compute_deltas,
    weighted_value_sums,
)
from chainshare.errors import AlignmentError, FactorSumError
from chainshare.game import CharacteristicFunction, PlayerSet, shapley_exact

from .conftest import CASE_FACTORS, CASE_VALUES
from .oracles import (
    as_from_values,
    eq3_per_term,
    per_player_lever,
    random_factors,
    random_game_table,
)

CASE_DEVIATIONS = (Fraction(1243, 3750), Fraction(-2101, 30000), Fraction(-7891, 30000))


def case_factors() -> AdjustmentFactors:
    return compute_deltas(CASE_FACTORS, ("A", "B", "C"))


def test_case_deltas_exact():
    factors = case_factors()
    assert factors.factors == (Fraction("0.6648"), Fraction("0.2633"), Fraction("0.0703"))
    assert factors.deviations == CASE_DEVIATIONS
    # the published factors sum to 0.9984, inside the 0.01 tolerance
    assert factors.total == Fraction(624, 625)
    assert sum(factors.deviations) == factors.total - 1


def test_uniform_deltas_are_zero():
    factors = compute_deltas([Fraction(1, 3)] * 3, 3)
    assert factors.deviations == (0, 0, 0)


def test_factor_sum_error():
    with pytest.raises(FactorSumError) as err:
        compute_deltas(["0.5", "0.6"], 2)
    assert err.value.total == Fraction(11, 10)
    assert "1.1" in str(err.value)


def test_negative_factor_rejected():
    with pytest.raises(ValueError, match="negative"):
        compute_deltas(["-0.1", "1.1"], 2)


def test_normalize_rescales_to_exact_one():
    factors = compute_deltas(CASE_FACTORS, ("A", "B", "C"), normalize=True)
    assert factors.total == 1
    assert factors.factors[0] == Fraction(6648, 9984)
    assert factors.deviations[0] == Fraction(6648, 9984) - Fraction(1, 3)
    with pytest.raises(FactorSumError, match="normalize"):
        compute_deltas([0, 0], 2, normalize=True)


def test_mapping_input_and_mismatches():
    by_name = compute_deltas({"A": "0.6648", "B": "0.2633", "C": "0.0703"}, ("A", "B", "C"))
    assert by_name == case_factors()
    with pytest.raises(ValueError, match="factor keys"):
        compute_deltas({"A": "1"}, ("A", "B"))
    with pytest.raises(ValueError, match="expected 3 factors"):
        compute_deltas(["0.5", "0.5"], 3)


def test_count_players_get_default_names():
    factors = compute_deltas(["0.25"] * 4, 4)
    assert factors.player_set.players == ("p1", "p2", "p3", "p4")
    assert factors.factor_of("p2") == Fraction(1, 4)


def test_eq3_case_exact(case_game):
    adjusted = adjusted_shapley(case_game, case_factors(), "eq3")
    assert adjusted.adjusted_payoffs == (
        Fraction(90839, 45),
        Fraction(259283, 300),
        Fraction(135379, 600),
    )
    assert adjusted.efficiency_gap == Fraction(39079, 360)
    assert adjusted.rationality_flags == (True, True, False)
    assert adjusted.mode == "eq3"


def test_grand_case_exact(case_game):
    adjusted = adjusted_shapley(case_game, case_factors(), "grand")
    assert adjusted.adjusted_payoffs == (
        Fraction(35666, 15),
        Fraction(23197, 30),
        Fraction(-4673, 30),
    )
    # gap = v(N) * (sum G - 1) = 3000 * (-0.0016)
    assert adjusted.efficiency_gap == Fraction(-24, 5)
    assert adjusted.rationality_flags == (True, True, False)


def test_eq3_matches_per_term_oracle(case_game):
    table = {frozenset(k): Fraction(v) for k, v in CASE_VALUES.items()}
    g = dict(zip(("A", "B", "C"), case_factors().factors))
    expected = eq3_per_term(("A", "B", "C"), table, g)
    adjusted = adjusted_shapley(case_game, case_factors(), "eq3")
    assert adjusted.payoff_of("A") == expected["A"]
    assert adjusted.payoff_of("B") == expected["B"]
    assert adjusted.payoff_of("C") == expected["C"]


@pytest.mark.parametrize("mode", ["eq3", "grand"])
def test_uniform_factors_reproduce_classical(case_game, mode):
    uniform = compute_deltas([Fraction(1, 3)] * 3, case_game.player_set)
    adjusted = adjusted_shapley(case_game, uniform, mode)
    assert adjusted.adjusted_payoffs == shapley_exact(case_game).payoffs
    assert adjusted.efficiency_gap == 0
    assert adjusted.adjustments == (0, 0, 0)


@pytest.mark.parametrize("seed", range(8))
def test_grand_mode_efficiency_with_normalized_factors(seed):
    rng = random.Random(seed)
    players = tuple(f"p{i}" for i in range(rng.randint(2, 5)))
    table = random_game_table(rng, players)
    game = CharacteristicFunction.from_values(players, as_from_values(table))
    factors = compute_deltas(random_factors(rng, players), players)
    assert factors.total == 1
    adjusted = adjusted_shapley(game, factors, "grand")
    assert adjusted.efficiency_gap == 0
    assert sum(adjusted.adjusted_payoffs) == game.grand_value


@pytest.mark.parametrize("seed", range(8))
def test_eq3_gap_identity_random(seed):
    rng = random.Random(500 + seed)
    players = tuple(f"p{i}" for i in range(rng.randint(2, 5)))
    table = random_game_table(rng, players)
    game = CharacteristicFunction.from_values(players, as_from_values(table))
    factors = compute_deltas(random_factors(rng, players), players)
    adjusted = adjusted_shapley(game, factors, "eq3")
    levers = per_player_lever(players, table)
    expected_gap = sum(
        (dev * levers[p] for p, dev in zip(players, factors.deviations)), Fraction(0)
    )
    assert adjusted.efficiency_gap == expected_gap


def test_weighted_value_sums_against_oracle(case_game):
    levers = weighted_value_sums(case_game)
    assert levers == (Fraction(5750, 3), Fraction(1700), Fraction(1550))


@pytest.mark.parametrize("seed", range(5))
def test_eq3_shift_is_deviation_times_lever(seed):
    rng = random.Random(900 + seed)
    players = ("a", "b", "c", "d")
    # all-positive game so the sign property is decidable
    table = random_game_table(rng, players, lo=1, hi=10_000)
    game = CharacteristicFunction.from_values(players, as_from_values(table))
    factors = compute_deltas(random_factors(rng, players), players)
    adjusted = adjusted_shapley(game, factors, "eq3")
    levers = weighted_value_sums(game)
    for i in range(len(players)):
        shift = adjusted.adjusted_payoffs[i] - adjusted.base.payoffs[i]
        assert shift == factors.deviations[i] * levers[i]
        if factors.deviations[i] > 0:
            assert shift > 0
        elif factors.deviations[i] < 0:
            assert shift < 0


@pytest.mark.parametrize("seed", range(5))
def test_grand_shift_sign_matches_deviation(seed):
    rng = random.Random(40 + seed)
    players = ("a", "b", "c")
    table = random_game_table(rng, players, lo=1, hi=10_000)
    game = CharacteristicFunction.from_values(players, as_from_values(table))
    factors = compute_deltas(random_factors(rng, players), players)
    adjusted = adjusted_shapley(game, factors, "grand")
    for i in range(len(players)):
        shift = adjusted.adjusted_payoffs[i] - adjusted.base.payoffs[i]
        assert shift == factors.deviations[i] * game.grand_value
        if factors.deviations[i] > 0:
            assert shift > 0
        elif factors.deviations[i] < 0:
            assert shift < 0


def test_adjusted_equals_classical_plus_delta(case_game):
    adjusted = adjusted_shapley(case_game, case_factors(), "eq3")
    for base, delta, final in zip(
        adjusted.base.payoffs, adjusted.adjustments, adjusted.adjusted_payoffs
    ):
        assert final == base + delta


@pytest.mark.parametrize("mode", ["eq3", "grand"])
def test_adjusted_reads_the_exact_kernel_once(case_game, mode, monkeypatch):
    calls = []
    kernel = adjust._payoffs_and_levers
    monkeypatch.setattr(adjust, "_payoffs_and_levers", lambda game: calls.append(game) or kernel(game))
    adjusted = adjusted_shapley(case_game, case_factors(), mode)
    assert calls == [case_game]
    assert adjusted.base == shapley_exact(case_game)


def test_alignment_error(case_game):
    other = compute_deltas([Fraction(1, 3)] * 3, ("X", "Y", "Z"))
    with pytest.raises(AlignmentError):
        adjusted_shapley(case_game, other, "eq3")


def test_unknown_mode_rejected(case_game):
    with pytest.raises(ValueError, match="mode"):
        adjusted_shapley(case_game, case_factors(), "both")
