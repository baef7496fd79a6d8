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
thread, once per distinct coalition. Each distinct step then adds its
count times its marginal (and squared marginal) in exact rationals, so
the estimates always sum to v(N) - v(empty), an equality, not a
tolerance.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import OracleError, SamplingPlanError
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
    totals = [Fraction(0)] * n
    squares = [Fraction(0)] * n
    for (mask, player), c in steps.items():
        marginal = values[mask | 1 << player] - values[mask]
        totals[player] += c * marginal
        squares[player] += c * marginal * marginal
    return EstimateReport(
        player_set=players,
        estimates=tuple(t / m for t in totals),
        # with one permutation sq == t * t, so the error is 0
        std_error=tuple(
            math.sqrt(float((sq - t * t / m) / max(m - 1, 1) / m)) for sq, t in zip(squares, totals)
        ),
        m=m,
        rng=f"numpy.random.PCG64 via SeedSequence(seed, spawn_key=(chunk,)), numpy=={np.__version__}",
    )
