"""Adjustment of classical allocations by per-player influence factors.

Each player carries an influence factor G_i >= 0 with sum(G) = 1; the
deviation G_i - 1/n measures how far the player sits from a uniform
share. Two adjustment variants ship because the method's published
formula and its worked example disagree:

- ``eq3``: the literal per-coalition formula. Every Shapley term gains
  ``v(S) * (G_i - 1/n)`` for the coalition S containing i. Does not
  preserve efficiency; the gap equals sum_i (G_i - 1/n) * A_i with
  A_i = sum over S containing i of W(|S|) * v(S).
- ``grand``: the efficiency-preserving reading. The classical payoff
  moves by ``v(N) * (G_i - 1/n)``, so payoffs still sum to v(N)
  whenever the factors sum to exactly 1.

Negative adjusted payoffs are reported, never clamped; the rationality
flags mark players whose adjusted payoff drops below their standalone
value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import AlignmentError, ChoiceError, FactorSumError, InputTypeError, NumberError
from .game import Allocation, CharacteristicFunction, PlayerSet, _payoffs_and_levers
from .rational import RationalLike, parse_rational

FACTOR_SUM_TOLERANCE = Fraction(1, 100)

MODES = ("eq3", "grand")  # the first is the default


@dataclass(frozen=True)
class AdjustmentFactors:
    """Raw influence shares plus their deviations from the uniform 1/n."""

    player_set: PlayerSet
    factors: tuple[Fraction, ...]
    deviations: tuple[Fraction, ...]

    @property
    def total(self) -> Fraction:
        return sum(self.factors, Fraction(0))

    def factor_of(self, player: str) -> Fraction:
        return self.factors[self.player_set.index(player)]


def _as_player_set(players: PlayerSet | Sequence[str] | int) -> PlayerSet:
    if isinstance(players, PlayerSet):
        return players
    if isinstance(players, bool):
        raise InputTypeError(f"a player count is an int, not a bool, got {players!r}")
    if isinstance(players, int):
        return PlayerSet(tuple(f"p{i + 1}" for i in range(players)))
    try:
        iter(players)
    except TypeError:
        raise InputTypeError(f"players are a PlayerSet, a count or names, got {players!r}") from None
    return PlayerSet(players)


def compute_deltas(
    factors: Mapping[str, RationalLike] | Sequence[RationalLike],
    players: PlayerSet | Sequence[str] | int,
    *,
    normalize: bool = False,
) -> AdjustmentFactors:
    """Validate raw factors and derive their deviations G_i - 1/n.

    ``factors`` is either a mapping keyed by player or a sequence aligned
    with the player order; ``players`` may be a PlayerSet, a sequence of
    names, or a bare count (names default to p1..pn). Factors must be
    non-negative and sum to 1 within ``FACTOR_SUM_TOLERANCE`` (0.01)
    unless ``normalize`` rescales them to sum to exactly 1 first.
    """
    player_set = _as_player_set(players)
    n = player_set.n
    if isinstance(factors, Mapping):
        missing = [p for p in player_set.players if p not in factors]
        extra = [p for p in factors if p not in player_set.players]
        if missing or extra:
            raise AlignmentError(f"factor keys do not match players (missing {missing}, unexpected {extra})")
        raw = [parse_rational(factors[p]) for p in player_set.players]
    else:
        if len(factors) != n:
            raise AlignmentError(f"expected {n} factors, got {len(factors)}")
        raw = [parse_rational(f) for f in factors]
    for player, value in zip(player_set.players, raw):
        if value < 0:
            raise NumberError(f"factor for {player!r} is negative: {value}")
    total = sum(raw, Fraction(0))
    if normalize:
        if total <= 0:
            raise FactorSumError(total, FACTOR_SUM_TOLERANCE, "factors that sum to zero cannot be normalized")
        raw = [value / total for value in raw]
    elif abs(total - 1) > FACTOR_SUM_TOLERANCE:
        raise FactorSumError(total, FACTOR_SUM_TOLERANCE)
    uniform = Fraction(1, n)
    return AdjustmentFactors(
        player_set=player_set,
        factors=tuple(raw),
        deviations=tuple(value - uniform for value in raw),
    )


@dataclass(frozen=True)
class AdjustedAllocation:
    """Classical allocation plus per-player adjustments and audit fields.

    ``adjustments[i]`` is the amount added to the classical payoff;
    ``efficiency_gap`` is sum(adjusted) - v(N) (zero in grand mode with
    exactly normalized factors); ``rationality_flags[i]`` is True when
    the adjusted payoff is at least the player's standalone value.
    """

    base: Allocation
    factors: AdjustmentFactors
    mode: str
    adjusted_payoffs: tuple[Fraction, ...]
    adjustments: tuple[Fraction, ...]
    efficiency_gap: Fraction
    rationality_flags: tuple[bool, ...]

    @property
    def player_set(self) -> PlayerSet:
        return self.base.player_set

    def payoff_of(self, player: str) -> Fraction:
        return self.adjusted_payoffs[self.player_set.index(player)]


def weighted_value_sums(game: CharacteristicFunction) -> tuple[Fraction, ...]:
    """Per-player A_i = sum over coalitions S containing i of W(|S|) * v(S).

    This is the lever arm of the eq3 adjustment: its per-coalition extra
    terms collapse to deviation_i * A_i.
    """
    return _payoffs_and_levers(game)[1]


def adjusted_shapley(
    game: CharacteristicFunction,
    factors: AdjustmentFactors,
    mode: str = MODES[0],
) -> AdjustedAllocation:
    """Apply influence-factor adjustments to the exact Shapley allocation.

    ``mode`` selects the variant: "eq3" adds deviation_i * A_i to each
    classical payoff (the literal per-coalition formula, summed in
    closed form), "grand" adds v(N) * deviation_i. Uniform factors
    reproduce the classical allocation exactly in both modes.
    """
    if mode not in MODES:
        raise ChoiceError(f"mode must be one of {MODES}, got {mode!r}")
    if not isinstance(factors, AdjustmentFactors):
        raise InputTypeError(f"factors are AdjustmentFactors, as compute_deltas returns, got {type(factors).__name__}")
    if factors.player_set != game.player_set:
        raise AlignmentError(
            f"factors are for players {factors.player_set.players}, "
            f"game has {game.player_set.players}"
        )
    payoffs, levers = _payoffs_and_levers(game)
    base = Allocation(player_set=game.player_set, payoffs=payoffs)
    if mode == "eq3":
        adjustments = tuple(d * a for d, a in zip(factors.deviations, levers))
    else:
        grand = game.grand_value
        adjustments = tuple(d * grand for d in factors.deviations)
    adjusted = tuple(p + a for p, a in zip(payoffs, adjustments))
    gap = sum(adjusted, Fraction(0)) - game.grand_value
    flags = tuple(
        payoff >= game(1 << i) for i, payoff in enumerate(adjusted)
    )
    return AdjustedAllocation(
        base=base,
        factors=factors,
        mode=mode,
        adjusted_payoffs=adjusted,
        adjustments=adjustments,
        efficiency_gap=gap,
        rationality_flags=flags,
    )
