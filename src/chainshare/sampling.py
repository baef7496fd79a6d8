"""Seeded Monte Carlo estimation of Shapley payoffs by permutation sampling.

For each sampled arrival order, every player's marginal contribution is
v(predecessors + player) - v(predecessors). Sampling is split into
chunks; chunk c draws its permutations from an RNG stream derived from
(seed, c), so the output is a pure function of (oracle, players, plan)
regardless of how many workers execute the chunks.

One pass serves every game width. Worker threads draw the chunks and
count each one's distinct (prefix, player) steps, with prefix masks held
as ceil(n/64) uint64 words. The counts merge in chunk order into one
table for the whole run, and the oracle is called on the caller's
thread, once per distinct coalition. Each distinct step's marginal is
then an integer k over the lcm d of its two values' denominators, and
each player sums c*k and c*k*k as integers per denominator d; only
those per-(player, d) sums become Fractions, added as a balanced tree.
The sums are exact, so the estimates always sum to v(N) - v(empty), an
equality, not a tolerance.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import FloatRangeError, OracleError, SamplingPlanError
from .game import Coalition, PlayerSet
from .rational import parse_rational

_WORD_BITS = 64

DEFAULT_CHUNK_SIZE = 4096


@dataclass(frozen=True)
class SamplingPlan:
    """How many permutations to draw, from which seed, in which chunks."""

    permutations: int
    seed: int
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self):
        if not isinstance(self.permutations, int) or self.permutations < 1:
            raise SamplingPlanError(f"permutation count must be >= 1, got {self.permutations!r}")
        if not isinstance(self.chunk_size, int) or self.chunk_size < 1:
            raise SamplingPlanError(f"chunk size must be >= 1, got {self.chunk_size!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise SamplingPlanError(f"seed must be a 64-bit unsigned int, got {self.seed!r}")


@dataclass(frozen=True)
class EstimateReport:
    """Sampled allocation estimates with per-player standard errors.

    ``estimates`` are exact rational sample means, so their sum equals
    the grand-coalition value exactly on every run; ``rng`` records the
    generator and library version behind the permutation stream.
    """

    player_set: PlayerSet
    estimates: tuple[Fraction, ...]
    std_error: tuple[float, ...]
    m: int
    rng: str


def _count_steps(n: int, seed: int, chunk_index: int, count: int):
    """Draw chunk ``chunk_index`` and count its distinct (prefix, player) steps.

    Prefix masks are held as ceil(n/64) little-endian uint64 words.
    Players within one word contribute distinct power-of-two bits, so a
    cumulative sum along the row is the cumulative OR of prefixes.
    Returns each distinct step's player, its mask words, the flat index
    of its first occurrence and its count, sorted by mask, then player.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
    perms = rng.permuted(np.tile(np.arange(n, dtype=np.uint64), (count, 1)), axis=1)
    width = np.uint64(_WORD_BITS)
    words = []
    for word in range(-(-n // _WORD_BITS)):
        bits = np.where(perms // width == word, np.uint64(1) << perms % width, np.uint64(0))
        prefix = np.cumsum(bits, axis=1, dtype=np.uint64)
        prefix -= bits
        words.append(prefix.ravel())
    players = perms.ravel()
    del perms, bits, prefix
    # lexsort's last key is the primary one: the most significant word.
    order = np.lexsort((players, *words))
    players = players[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = players[1:] != players[:-1]
    for k, word in enumerate(words):
        words[k] = word = word[order]
        new[1:] |= word[1:] != word[:-1]
    starts = np.flatnonzero(new)
    counts = np.diff(starts, append=order.size)
    return players[starts], [word[starts] for word in words], order[starts], counts


def _merge_steps(
    steps: dict, values: dict, oracle: Callable, players: PlayerSet, chunk_start: int, counting: Future
) -> None:
    """Add a chunk's counted steps to the run's (mask, player) -> count table.

    The oracle is asked for both coalitions of a step new to the run, so it
    sees coalitions in chunk order, then mask and player order, each once.
    """
    step_players, words, first, counts = counting.result()
    masks = words[0].tolist()
    for k in range(1, len(words)):
        masks = [low | high << (_WORD_BITS * k) for low, high in zip(masks, words[k].tolist())]
    permutations = (first // players.n + chunk_start).tolist()
    for mask, player, c, permutation in zip(masks, step_players.tolist(), counts.tolist(), permutations):
        key = (mask, player)
        if key in steps:
            steps[key] += c
            continue
        steps[key] = c
        for coalition in (mask | 1 << player, mask):
            if coalition not in values:
                try:
                    values[coalition] = parse_rational(oracle(Coalition(players, coalition)))
                except Exception as exc:
                    raise OracleError(permutation, exc) from exc


def _pairwise_sum(terms: list[Fraction]) -> Fraction:
    """The exact sum of ``terms``, added as a balanced tree.

    Adding many Fractions with unrelated denominators one after another
    makes every addition work on the whole running denominator; halving
    keeps most additions between small operands.
    """
    if len(terms) <= 2:
        return sum(terms, Fraction(0))
    half = len(terms) // 2
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


def _std_error(variance: Fraction, player: str) -> float:
    """sqrt(variance) as a float, also where ``variance`` is beyond the float range.

    Dividing by 4**k before the float conversion and multiplying the root
    by 2**k after it are exact; below about 2**1000, k is 0 and this is
    math.sqrt(float(variance)).
    """
    k = max(variance.numerator.bit_length() - variance.denominator.bit_length() - 1000, 0) // 2
    try:
        return math.ldexp(math.sqrt(float(variance / 4**k)), k)
    except OverflowError:
        raise FloatRangeError(f"standard error of {player!r}") from None


def sample_shapley(
    oracle: Callable,
    players: PlayerSet,
    plan: SamplingPlan,
    *,
    workers: int = 1,
) -> EstimateReport:
    """Estimate the Shapley allocation of ``oracle`` by permutation sampling.

    ``oracle`` is a pure callable from :class:`Coalition` to a value
    (int, Fraction, Decimal, decimal string, or float); a
    :class:`chainshare.game.CharacteristicFunction` works directly. It
    is called on the calling thread only, once per distinct coalition,
    so it need not be thread-safe. ``workers`` threads draw and count
    chunks; at most ``workers`` counted chunks are held at once. The
    report is identical for identical (players, plan) inputs whatever
    ``workers`` is; chunks merge in index order.
    """
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    n = players.n
    m = plan.permutations
    values: dict[int, Fraction] = {}
    steps: dict[tuple[int, int], int] = {}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for chunk_index, chunk_start in enumerate(range(0, m, plan.chunk_size)):
            if len(pending) == workers:
                _merge_steps(steps, values, oracle, players, *pending.popleft())
            count = min(plan.chunk_size, m - chunk_start)
            pending.append((chunk_start, pool.submit(_count_steps, n, plan.seed, chunk_index, count)))
        for chunk in pending:
            _merge_steps(steps, values, oracle, players, *chunk)
    # Sums are kept per denominator, not over one lcm of the whole table:
    # with a distinct prime denominator per coalition that lcm makes every
    # marginal an int of thousands of digits.
    sums: list[dict[int, list[int]]] = [{} for _ in range(n)]
    for (mask, player), c in steps.items():
        a = values[mask | 1 << player]
        b = values[mask]
        d = math.lcm(a.denominator, b.denominator)
        k = a.numerator * (d // a.denominator) - b.numerator * (d // b.denominator)
        entry = sums[player].get(d)
        if entry is None:  # not setdefault: no throwaway list per step
            sums[player][d] = [c * k, c * k * k]
        else:
            entry[0] += c * k
            entry[1] += c * k * k
    totals = [_pairwise_sum([Fraction(t, d) for d, (t, _) in by_den.items()]) for by_den in sums]
    squares = [_pairwise_sum([Fraction(sq, d * d) for d, (_, sq) in by_den.items()]) for by_den in sums]
    return EstimateReport(
        player_set=players,
        estimates=tuple(t / m for t in totals),
        # with one permutation sq == t * t, so the error is 0
        std_error=tuple(
            _std_error((sq - t * t / m) / max(m - 1, 1) / m, player)
            for player, sq, t in zip(players, squares, totals)
        ),
        m=m,
        rng=f"numpy.random.PCG64 via SeedSequence(seed, spawn_key=(chunk,)), numpy=={np.__version__}",
    )
