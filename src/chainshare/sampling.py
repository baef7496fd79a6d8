"""Seeded Monte Carlo estimation of Shapley payoffs by permutation sampling.

For each sampled arrival order, every player's marginal contribution is
v(predecessors + player) - v(predecessors). Sampling is split into
chunks; chunk c draws its permutations from an RNG stream derived from
(seed, c), so the output is a pure function of (oracle, players, plan).

One pass serves every game width, on the caller's thread, one chunk at a
time: :func:`_count_steps` counts a chunk's distinct (prefix, player)
steps, :func:`_merge_steps` merges them in chunk order into the run's
:class:`_StepTable`, and :func:`_evaluate` asks the oracle once per
coalition new to the run, in ascending mask order; no step is probed one
by one in Python. :func:`_marginal_sums` sums each player's marginals as
integers per denominator, and only those sums become Fractions. The sums
are exact, so the estimates always sum to v(N) - v(empty), an equality,
not a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import FloatRangeError, OracleError, SamplingPlanError
from .game import Coalition, PlayerSet
from .rational import parse_pair

_WORD_BITS = 64

DEFAULT_CHUNK_SIZE = 4096

# Counting a chunk peaks at about 5.4 arrays of chunk size x n 8-byte words at
# 64 players and 7.6 at 130 (about 170 MiB at this bound and 64 players), and
# one chunk is counted at a time, so plans are bounded.
MAX_CHUNK_SIZE = 65_536

# An int64 holds every magnitude below 2**63.
_INT64_BITS = 63

# Steps whose marginals are summed at a time, so the sums' temporaries peak
# near fifteen columns of this size, in int64 or Python ints of any size.
_SUM_BLOCK = 8192


def _check_count(value, low: int, high: int | float, rule: str) -> None:
    """SamplingPlanError "``rule``, got ``value``" unless ``value`` is an int, not a bool, in low..high - 1."""
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value < high:
        raise SamplingPlanError(f"{rule}, got {value!r}")


@dataclass(frozen=True)
class SamplingPlan:
    """How many permutations to draw, from which seed, in which chunks."""

    permutations: int
    seed: int
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self):
        _check_count(self.permutations, 1, math.inf, "permutation count must be >= 1")
        _check_count(self.chunk_size, 1, MAX_CHUNK_SIZE + 1, f"chunk size must be in 1..{MAX_CHUNK_SIZE}")
        _check_count(self.seed, 0, 2**64, "seed must be a 64-bit unsigned int")


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

    Prefix masks are held as ceil(n/64) little-endian words, each in the
    narrowest unsigned dtype that holds its bits. Players within one word
    contribute distinct power-of-two bits, so a cumulative sum along the
    row is the cumulative OR of prefixes.

    Two stable sorts count the steps. The first sorts the rows by their
    prefix words alone and ranks the distinct prefixes in mask order; the
    second sorts one key per row, prefix rank times n plus player, held in
    the narrowest unsigned dtype that fits. For keys of 16 bits or less
    numpy's stable sort is a radix sort.

    The chunk's coalitions are every distinct prefix and the grand
    coalition: a step's prefix plus player is the prefix of the next step
    in its permutation, or the grand coalition after the last one.
    Returns the coalition keys, sorted, and for each the chunk's first
    permutation that needs it; then for each distinct step, in (mask,
    player) order, its count, its player, and the positions of its prefix
    plus player and of its prefix among the coalitions. The last three
    are in the narrow dtypes they were counted in.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
    # numpy shuffles 8-byte items fastest; the order drawn does not depend on the dtype
    perms = np.tile(np.arange(n, dtype=np.intp), (count, 1))
    rng.permuted(perms, axis=1, out=perms)
    players = perms.astype(np.min_scalar_type(n - 1)).ravel()
    del perms
    size = players.size
    words = []
    for low in range(0, n, _WORD_BITS):
        width = min(_WORD_BITS, n - low)
        dtype = np.min_scalar_type((1 << width) - 1)
        bit = np.zeros(n, dtype)
        bit[low : low + width] = dtype.type(1) << np.arange(width, dtype=dtype)
        bits = bit[players].reshape(count, n)
        before = np.cumsum(bits, axis=1, dtype=dtype)
        before -= bits
        words.append(before.ravel())
        del bits, before
    # lexsort's last key is the primary one: the most significant word.
    order = np.lexsort(words)
    new_prefix = np.zeros(size, dtype=bool)
    new_prefix[0] = True
    for word in words:
        word = word[order]
        new_prefix[1:] |= word[1:] != word[:-1]
    del word
    # the sort is stable, so a prefix's first row in it is its first row in the chunk
    heads = order[new_prefix]
    prefixes = heads.size
    # rank[f] is the position of flat row f's prefix among the coalitions
    rank = np.empty(size + 1, np.min_scalar_type(prefixes))
    group = np.cumsum(new_prefix, dtype=rank.dtype)
    del new_prefix
    group -= 1
    rank[order] = group
    del order, group
    # Coalition c is the c-th distinct prefix, and the last one the grand
    # coalition. Its key is its mask words, most significant first, written
    # into big-endian rows, so the keys' byte order is the masks' numeric order.
    rows = np.empty((prefixes + 1, len(words)), ">u8")
    for k, word in enumerate(reversed(words)):
        rows[:-1, k] = word[heads]
        rows[-1, k] = (1 << min(_WORD_BITS, n - _WORD_BITS * (len(words) - 1 - k))) - 1
    coalitions = rows.view(f"V{rows.itemsize * len(words)}").ravel()
    del words, word
    # a prefix is first needed by its first row's permutation; the grand coalition by every one
    heads //= n
    needed_by = np.append(heads, 0)
    del rows, heads
    key = rank[:-1].astype(np.min_scalar_type(prefixes * n - 1))
    key *= n
    key += players
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.empty(size, dtype=bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    del key
    starts = np.flatnonzero(new)
    del new
    first = order[starts]
    del order
    counts = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = size - starts[-1]
    del starts
    prefix = rank[first]
    players = players[first]
    # the prefix after flat row f is f's prefix plus player
    rank[n::n] = prefixes  # after a permutation's last step
    first += 1
    joined = rank[first]
    return coalitions, needed_by, counts, players, joined, prefix


class _SortedKeys:
    """Distinct keys held in sorted arrays, each key with values in parallel columns.

    ``arrays`` holds (keys, *columns) tuples. Keys new to the table become
    a new last array, and the last two merge while the one before is at
    most twice the size of the last. Each array is then more than twice
    the next, so N keys lie in at most log2(N) + 1 arrays and a key is
    copied O(log N) times, where inserting each batch into one sorted
    array would copy the whole table per batch.
    """

    def __init__(self):
        self.arrays: list[tuple[np.ndarray, ...]] = []

    def match(self, keys: np.ndarray):
        """Where ``keys`` are held, and which are not.

        Returns, for each array, the array, the positions in ``keys`` of
        the keys it holds and their positions in it; then the positions
        of the keys no array holds, in ascending order.
        """
        found = []
        missing = np.arange(keys.size)
        for array in self.arrays:
            wanted = keys[missing]
            at = np.minimum(np.searchsorted(array[0], wanted), array[0].size - 1)
            hit = array[0][at] == wanted
            found.append((array, missing[hit], at[hit]))
            missing = missing[~hit]
        return found, missing

    def add(self, keys: np.ndarray, *columns: np.ndarray) -> None:
        """Add sorted ``keys``, none of them held yet, with their ``columns``."""
        self.arrays.append((keys, *columns))
        while len(self.arrays) > 1 and self.arrays[-2][0].size <= 2 * self.arrays[-1][0].size:
            new, old = self.arrays.pop(), self.arrays.pop()
            at = np.searchsorted(old[0], new[0])
            self.arrays.append(tuple(np.insert(a, at, b) for a, b in zip(old, new)))


class _StepTable:
    """A run's coalitions, the oracle's answers for them, and its counted steps.

    ``values`` holds the oracle's answers as (numerator, denominator)
    pairs in the order it gave them; a coalition's slot is its index
    there. ``coalitions`` maps coalition keys to slots. A step's key is
    its prefix's slot times n plus its player, and ``steps`` maps it to
    its count and to the slot of its prefix plus player.
    """

    def __init__(self):
        self.coalitions = _SortedKeys()
        self.steps = _SortedKeys()
        self.values: list[tuple[int, int]] = []


def _merge_steps(
    table: _StepTable, players: PlayerSet, chunk_start: int, counted: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Merge a chunk's counted steps into the run's step table.

    Steps already in the table add their counts in place; new steps are
    added with theirs. The chunk's coalitions the run has not seen are
    due to the oracle in ascending mask order, and their slots in
    ``table.values`` are reserved in that order. Returns their keys, in
    that order, and for each the permutation an oracle failure names: the
    first one of the stream that needs it. The oracle is left to
    :func:`_evaluate`, so the chunk's arrays are freed before it runs.
    """
    coalitions, needed_by, counts, step_players, joined, prefix = counted
    found, due = table.coalitions.match(coalitions)
    slots = np.empty(coalitions.size, np.int64)
    for (_, held), where, at in found:
        slots[where] = held[at]
    slots[due] = np.arange(len(table.values), len(table.values) + due.size)
    if due.size:
        table.coalitions.add(coalitions[due], slots[due])
    keys = slots[prefix] * players.n + step_players
    found, new = table.steps.match(keys)
    for (_, held, _), where, at in found:
        held[at] += counts[where]
    if new.size:
        new = new[np.argsort(keys[new])]
        table.steps.add(keys[new], counts[new], slots[joined[new]])
    return coalitions[due], needed_by[due] + chunk_start


def _evaluate(
    table: _StepTable, oracle: Callable, players: PlayerSet, keys: np.ndarray, permutations: np.ndarray
) -> None:
    """Ask the oracle for each coalition of ``keys``, appending the answers to ``table.values``."""
    masks, size = keys.tobytes(), keys.itemsize
    for k in range(keys.size):
        mask = int.from_bytes(masks[k * size : (k + 1) * size], "big")
        try:
            table.values.append(parse_pair(oracle(Coalition(players, mask))))
        except Exception as exc:
            raise OracleError(int(permutations[k]), exc) from exc


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


def _marginal_sums(table: _StepTable, n: int, m: int) -> list[dict[int, list[int]]]:
    """For each player, its steps' sums of c*k and c*k*k, keyed by denominator d.

    A step counted c times, whose prefix plus player is worth a/a_den and
    whose prefix is worth b/b_den, has the marginal k/d, where d is the lcm
    of the two denominators and k = a*(d//a_den) - b*(d//b_den). The steps
    are grouped by one sort of d*n + player, and each group's sums are
    taken by ``np.add.reduceat``, so Python steps once per group.

    The columns are int64 when the values' bit lengths bound every key, k
    and group sum below 2**63: a player's counts add up to m, and c*k*k is
    summed in three products of two limbs of |k|, each limb below
    2**half. Past that bound the same expressions run on Python ints.
    Either way the steps are taken ``_SUM_BLOCK`` at a time.
    """
    numerators, denominators = zip(*table.values)
    num_bits = max(max(numerators), -min(numerators)).bit_length()
    den_bits = max(denominators).bit_length()
    half = (num_bits + den_bits + 2) // 2  # |k| < 2**(num_bits + den_bits + 1) <= 2**(2 * half)
    # d < 2**(2 * den_bits), and a sum over c is at most m times its largest term
    fits = 2 * den_bits + n.bit_length() <= _INT64_BITS and m.bit_length() + 2 * half <= _INT64_BITS
    dtype = np.int64 if fits else object
    num = np.fromiter(numerators, dtype, len(numerators))
    den = np.fromiter(denominators, dtype, len(denominators))
    keys, counts, joined = (np.concatenate(column) for column in zip(*table.steps.arrays))
    sums: list[dict[int, list[int]]] = [{} for _ in range(n)]
    for start in range(0, keys.size, _SUM_BLOCK):
        block = slice(start, start + _SUM_BLOCK)
        before, player = np.divmod(keys[block], n)
        after = joined[block]
        d = np.lcm(den[after], den[before])
        k = num[after] * (d // den[after]) - num[before] * (d // den[before])
        key = d * n + player
        order = np.argsort(key)
        key, k, c = key[order], k[order], counts[block][order]
        new = np.empty(key.size, bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        groups = np.flatnonzero(new)
        ck = c * k
        totals = np.add.reduceat(ck, groups).tolist()
        if fits:  # k*k = (high * 2**half + low)**2
            k = np.abs(k)
            high, low = k >> half, k & ((1 << half) - 1)
            limbs = ((high, high), (high, low), (low, low))
            hh, hl, ll = (np.add.reduceat(c * x * y, groups).tolist() for x, y in limbs)
            squares = [(x << 2 * half) + (y << (half + 1)) + z for x, y, z in zip(hh, hl, ll)]
        else:
            squares = np.add.reduceat(ck * k, groups).tolist()
        for group, t, sq in zip(key[groups].tolist(), totals, squares):
            d, player = divmod(group, n)
            entry = sums[player].get(d)
            if entry is None:
                sums[player][d] = [t, sq]
            else:
                entry[0] += t
                entry[1] += sq
    return sums


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
    so it need not be thread-safe: chunk by chunk, on the coalitions the
    chunk needs that no earlier chunk did, in ascending mask order. If it
    raises, :class:`OracleError` names the first permutation of the
    stream that needs the coalition it was asked for. ``workers`` must be
    an int >= 1 and is otherwise ignored: it is kept for callers that pass
    it, and the report does not depend on it.
    """
    _check_count(workers, 1, math.inf, "worker count must be an int >= 1")
    m = plan.permutations
    table = _StepTable()
    for chunk_index, chunk_start in enumerate(range(0, m, plan.chunk_size)):
        count = min(plan.chunk_size, m - chunk_start)
        due = _merge_steps(table, players, chunk_start, _count_steps(players.n, plan.seed, chunk_index, count))
        _evaluate(table, oracle, players, *due)
    # Sums are kept per denominator, not over one lcm of the whole table:
    # with a distinct prime denominator per coalition that lcm makes every
    # marginal an int of thousands of digits.
    sums = _marginal_sums(table, players.n, m)
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
