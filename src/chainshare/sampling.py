"""Seeded Monte Carlo estimation of Shapley payoffs by permutation sampling.

For each sampled arrival order, every player's marginal contribution is
v(predecessors + player) - v(predecessors). Sampling is split into
chunks; chunk c draws its permutations from an RNG stream derived from
(seed, c), so the output is a pure function of (oracle, players, plan).

Chunk c is drawn by :func:`_draw`, and a run counts its (prefix, player)
steps on one of two paths, picked by the oracle's kind alone, on the
caller's thread.

A :class:`CharacteristicFunction` over the sampled players themselves
takes the dense path, :func:`_dense_steps`: each step's key, prefix
mask * n + player, is added by ``np.add.at`` into one run-wide table of
2**n * n counts, a chunk at a time, and the game's two value columns
are read once. No count passes the permutation count m, so a slot takes
2 bytes (uint16) below 2**16 permutations, 4 (uint32) below 2**32 and 8
(int64) past that: 40 MiB at the 20-player cap of a game below 65,536
permutations, and 80 MiB from there.

Every other oracle takes the sort path, :func:`_sorted_steps`, one chunk
at a time: :func:`_count_steps` counts a chunk's distinct steps by
sorting, and :func:`_merge_chunk` finds the chunk's coalitions in the
run's one coalition table and has :func:`_evaluate` ask the oracle once
per coalition new to the run, in ascending mask order, ``_ASK_ROWS`` at
a time. The table's arrays are read-only, so a chunk whose coalitions
are all new reads its answers from the table's own columns. Each step
holds the positions of its two coalitions, and a block of steps gathers
their values when it is summed; no step is probed one by one in Python.

On both paths :func:`_sum_block` adds the steps' marginals to each
player's integer sums per denominator, and only those sums become
Fractions, added as one balanced fold per player. A run keeps its
coalitions, their answers or its count table, and these sums, not its
steps. The sums are exact, so both paths report the same, and the
estimates always sum to v(N) - v(empty), an equality, not a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Callable

import numpy as np

from .errors import FloatRangeError, InputTypeError, OracleError, SamplingPlanError
from .game import _INT64_BITS, CharacteristicFunction, Coalition, PlayerSet, _bits, _column
from .rational import balanced_fold, parse_pair

_WORD_BITS = 64

DEFAULT_CHUNK_SIZE = 4096

# Counting a chunk peaks at about 5.4 arrays of chunk size x n 8-byte words at
# 64 players and 7.6 at 130 (about 170 MiB at this bound and 64 players), and
# one chunk is counted at a time, so plans are bounded. The dense path adds a
# chunk's keys into its count table of 2**n * n slots of 2, 4 or 8 bytes, by
# the permutation count (see _dense_steps), and at 16 players and 2**16
# permutations, in 4-byte counts, the run peaks near 9.2 MiB at the default
# chunk size and 16.7 MiB at this bound.
MAX_CHUNK_SIZE = 65_536

# Steps whose marginals are summed at a time: counted steps wait until this many
# are due, each block's values are gathered when it is summed, and the sums'
# temporaries peak near fifteen columns of this size, in int64 or Python ints.
_SUM_BLOCK = 8192

# Coalitions the sort path asks the oracle for at a time, whose answers are held
# as Python ints until they are written into the chunk's answer columns.
_ASK_ROWS = 1024

# Count-table slots searched for steps at a time: numpy finds the nonzero
# entries of a bool mask on a fast loop, not of a uint16 or int64 table, and
# a slice keeps the mask at 1 MiB whatever the table's size.
_SCAN_SLOTS = 1 << 20


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


def _draw(n: int, seed: int, chunk_index: int, count: int) -> np.ndarray:
    """Chunk ``chunk_index`` of the stream: ``count`` permutations of range(n), one per row, as intp.

    Chunk c is shuffled by PCG64 seeded with SeedSequence(seed, spawn_key=(c,)).
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
    # numpy shuffles 8-byte items fastest; the order drawn does not depend on the dtype
    perms = np.tile(np.arange(n, dtype=np.intp), (count, 1))
    rng.permuted(perms, axis=1, out=perms)
    return perms


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
    plus player and of its prefix among the coalitions. Permutations and
    counts are in the narrowest unsigned dtype that holds ``count``, and
    the last three in the narrow dtypes they were counted in.
    """
    perms = _draw(n, seed, chunk_index, count)
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
    needed_by = np.zeros(prefixes + 1, np.min_scalar_type(count))
    needed_by[:-1] = heads
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
    counts = np.empty(starts.size, np.min_scalar_type(count))
    np.subtract(starts[1:], starts[:-1], out=counts[:-1], casting="unsafe")
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
    array would copy the whole table per batch. Two arrays merge a column
    at a time, in the wider of the two dtypes, and each old column is let
    go once its merged copy exists, so a merge holds the merged table and
    one old column. Every array the table holds is read-only.
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
        """Add sorted ``keys``, none of them held yet, with their ``columns``, all made read-only."""
        self.arrays.append((keys, *columns))
        while len(self.arrays) > 1 and self.arrays[-2][0].size <= 2 * self.arrays[-1][0].size:
            new, old = list(self.arrays.pop()), list(self.arrays.pop())
            # each new key's slot in the merged array, and the slots the old keys keep
            at = np.searchsorted(old[0], new[0]) + np.arange(new[0].size)
            kept = np.ones(old[0].size + at.size, bool)
            kept[at] = False
            for c in range(len(old)):
                merged = np.empty(kept.size, np.result_type(old[c], new[c]))
                merged[kept], merged[at] = old[c], new[c]
                old[c] = new[c] = merged
            self.arrays.append(tuple(old))
        for array in self.arrays[-1]:
            array.setflags(write=False)


def _evaluate(oracle: Callable, players: PlayerSet, keys: np.ndarray, needed_by: np.ndarray, chunk_start: int):
    """The oracle's answers for the coalitions of ``keys``, in that order, asked ``_ASK_ROWS`` at a time.

    The oracle is called once per key, in order, and a failure at key k
    names permutation ``chunk_start + needed_by[k]``. A slice's answers
    become columns by :func:`_column` before the next slice is asked, and
    are written into one numerator and one denominator column over all
    the keys: int64, widened to Python ints once a slice needs them.
    """
    columns = [np.empty(keys.size, np.int64), np.empty(keys.size, np.int64)]
    for start in range(0, keys.size, _ASK_ROWS):
        block = keys[start : start + _ASK_ROWS]
        masks = [int.from_bytes(key, "big") for key in block.tolist()]
        num, den = [0] * len(masks), [0] * len(masks)
        try:
            for k, mask in enumerate(masks):
                num[k], den[k] = parse_pair(oracle(Coalition(players, mask)))
        except Exception as exc:
            raise OracleError(chunk_start + int(needed_by[start + k]), exc) from exc
        for c, values in enumerate(map(_column, (num, den))):
            columns[c] = columns[c].astype(np.result_type(columns[c], values), copy=False)
            columns[c][start : start + values.size] = values
    return tuple(columns)


def _merge_chunk(table: _SortedKeys, oracle: Callable, players: PlayerSet, chunk_start: int, counted):
    """Add a chunk's new coalitions to the run's table, and give each of the chunk's coalitions its answer.

    The chunk's coalitions the table does not hold are answered by
    :func:`_evaluate` in ascending mask order, and a failure names the
    first permutation of the stream that needs the coalition. Returns,
    for each of the chunk's distinct steps, its count, its player, and
    the positions of its prefix plus player and of its prefix among the
    chunk's coalitions; then those coalitions' numerators and
    denominators. When every coalition is new, these are the columns the
    table is given; otherwise they are filled before the table adds the
    new ones, so that a merge holds no column of the table twice. The
    keys of ``counted`` are let go once answered.
    """
    coalitions, needed_by, counts, step_players, joined, prefix = counted
    del counted
    size = coalitions.size
    found, due = table.match(coalitions)
    if due.size < size:
        coalitions, needed_by = coalitions[due], needed_by[due]
    new = _evaluate(oracle, players, coalitions, needed_by, chunk_start)
    del needed_by
    if due.size == size:
        num, den = new
    else:
        held = [(columns, where, at) for (_, *columns), where, at in found] + [(new, due, slice(None))]
        num, den = (np.empty(size, np.result_type(*(columns[c] for columns, _, _ in held))) for c in (0, 1))
        for (held_num, held_den), where, at in held:
            num[where], den[where] = held_num[at], held_den[at]
        del held
    del found
    if due.size:
        table.add(coalitions, *new)
    return counts, step_players, joined, prefix, num, den


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


def _sum_block(sums: list[dict[int, list[int]]], n: int, m: int, counts, player, a, a_den, b, b_den) -> None:
    """Add a block of steps' c*k and c*k*k to ``sums``, per player and denominator d.

    A step counted c times, whose prefix plus player is worth a/a_den and
    whose prefix is worth b/b_den, has the marginal k/d, where d is the lcm
    of the two denominators and k = a*(d//a_den) - b*(d//b_den). The steps
    are grouped by one sort of d*n + player, and each group's sums are
    taken by ``np.add.reduceat``, so Python steps once per group.

    The columns are int64 when the block's bit lengths bound every key, k
    and group sum below 2**63: a player's counts add up to at most m, and
    c*k*k is summed in three products of two limbs of |k|, each limb below
    2**half. Past that bound the same expressions run on Python ints.
    """
    num_bits = max(_bits(a), _bits(b))
    den_bits = int(max(a_den.max(), b_den.max())).bit_length()
    half = (num_bits + den_bits + 2) // 2  # |k| < 2**(num_bits + den_bits + 1) <= 2**(2 * half)
    # d < 2**(2 * den_bits), and a sum over c is at most m times its largest term
    fits = 2 * den_bits + n.bit_length() <= _INT64_BITS and m.bit_length() + 2 * half <= _INT64_BITS
    a, a_den, b, b_den = (x.astype(np.int64 if fits else object, copy=False) for x in (a, a_den, b, b_den))
    g = np.gcd(a_den, b_den)
    a_scale, b_scale = b_den // g, a_den // g  # d // a_den and d // b_den
    d = a_den * a_scale
    k = a * a_scale - b * b_scale
    key = d * n + player
    order = np.argsort(key)
    key, k, c = key[order], k[order], counts[order]
    new = np.empty(key.size, bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    groups = np.flatnonzero(new)
    ck = c * k
    totals = np.add.reduceat(ck, groups).tolist()
    if fits:  # k*k = (high * 2**half + low)**2
        k = np.abs(k)  # |k| < 2**62, so the absolute value does not wrap
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


def _sorted_steps(oracle: Callable, players: PlayerSet, plan: SamplingPlan):
    """The run's steps with their values, counted a chunk at a time by sorting, in blocks for :func:`_sum_block`.

    Each chunk's distinct steps are counted by :func:`_count_steps` and
    their coalitions answered by :func:`_merge_chunk` against the run's one
    coalition table. Counted steps wait until ``_SUM_BLOCK`` are due, or
    the run ends, and then go in the fewest blocks of at most
    ``_SUM_BLOCK``, each block's values gathered from its coalitions' columns.
    """
    n, m = players.n, plan.permutations
    table = _SortedKeys()
    waiting: list[tuple] = []
    for chunk_index, chunk_start in enumerate(range(0, m, plan.chunk_size)):
        count = min(plan.chunk_size, m - chunk_start)
        waiting.append(_merge_chunk(table, oracle, players, chunk_start, _count_steps(n, plan.seed, chunk_index, count)))
        if sum(steps[0].size for steps in waiting) < _SUM_BLOCK and chunk_start + count < m:
            continue
        if len(waiting) > 1:  # a chunk's coalition positions follow the coalitions of those before it
            offsets = np.cumsum([0] + [steps[4].size for steps in waiting[:-1]])
            waiting = [(c, p, np.add(j, at, dtype=np.intp), np.add(q, at, dtype=np.intp), num, den)
                       for (c, p, j, q, num, den), at in zip(waiting, offsets)]
            waiting = [tuple(map(np.concatenate, zip(*waiting)))]
        counts, step_players, joined, prefix, num, den = waiting.pop()
        blocks = -(-counts.size // _SUM_BLOCK)
        for c, p, j, q in zip(*(np.array_split(column, blocks) for column in (counts, step_players, joined, prefix))):
            yield c, p, num[j], den[j], num[q], den[q]
        del counts, step_players, joined, prefix, num, den, c, p, j, q  # not held while the next chunk is counted


def _nonzero_slots(counts: np.ndarray) -> np.ndarray:
    """``np.flatnonzero(counts)``, found ``_SCAN_SLOTS`` slots at a time."""
    return np.concatenate([np.flatnonzero(counts[start : start + _SCAN_SLOTS] != 0) + start
                           for start in range(0, counts.size, _SCAN_SLOTS)])


def _dense_steps(game: CharacteristicFunction, plan: SamplingPlan):
    """A table game's run of steps, counted in one table, with their values, in blocks for :func:`_sum_block`.

    A step (prefix mask S, player i) has the key S * n + i, below 2**n * n.
    Each chunk is drawn by :func:`_draw` and laid out as one int32 row per
    arrival position, so its prefix masks are n - 1 in-place adds of a row
    into the next, less each row's own bits. ``np.add.at`` adds its keys in
    place to the run's table of 2**n * n counts, at a cost in keys, not in
    table slots. A count is at most m, so the table is uint16 below 2**16
    permutations, uint32 below 2**32 and int64 past that: 2, 4 or 8 bytes a
    slot. The table's nonzero entries are the run's distinct steps, in
    (mask, player) order, found by :func:`_nonzero_slots`. The game's
    two value columns are read once by :func:`_column`, and each step takes
    the values of its prefix plus player and of its prefix, in blocks of at
    most ``_SUM_BLOCK`` steps.
    """
    n, m = game.n, plan.permutations
    # no count passes m; uint64 is never used, as uint64 times int64 is float64 in _sum_block
    counts = np.zeros(n << n, np.uint16 if m < 1 << 16 else np.uint32 if m < 1 << 32 else np.int64)
    one = counts.dtype.type(1)  # an untyped 1 takes np.add.at off its fast loop on a narrow table
    for chunk_index, chunk_start in enumerate(range(0, m, plan.chunk_size)):
        count = min(plan.chunk_size, m - chunk_start)
        # Row j holds the players at arrival position j. A game has at most 20
        # players, so every key is below 2**25 and fits an int32.
        players = np.ascontiguousarray(_draw(n, plan.seed, chunk_index, count).T, dtype=np.int32)
        keys = 1 << players
        for j in range(1, n):
            keys[j] += keys[j - 1]
        keys -= 1 << players
        keys *= n
        keys += players
        np.add.at(counts, keys.ravel(), one)
    steps = _nonzero_slots(counts)
    num, den = _column(game.values.numerators), _column(game.values.denominators)
    for start in range(0, steps.size, _SUM_BLOCK):
        step = steps[start : start + _SUM_BLOCK]
        prefix, player = np.divmod(step, n)
        joined = prefix | 1 << player
        yield counts[step], player, num[joined], den[joined], num[prefix], den[prefix]


def sample_shapley(
    oracle: Callable,
    players: PlayerSet,
    plan: SamplingPlan,
    *,
    workers: int = 1,
) -> EstimateReport:
    """Estimate the Shapley allocation of ``oracle`` by permutation sampling.

    ``oracle`` is a pure callable from :class:`Coalition` to a value
    (int, Fraction, Decimal, decimal string, or float). A
    :class:`chainshare.game.CharacteristicFunction` whose player set is
    ``players`` is not called: its steps are counted in one run-wide table
    of 2**n * n counts of 2 bytes each below 2**16 permutations, 4 below
    2**32 and 8 past that, and its value table's exact pairs are read
    once. Any other oracle, a subclass of the game or a game over another
    player set included, is called on the calling thread only, once per
    distinct coalition, so it need not be thread-safe: chunk
    by chunk, on the coalitions the chunk needs that no earlier chunk did,
    in ascending mask order. If it raises, :class:`OracleError` names the
    first permutation of the stream that needs the coalition it was asked
    for. The report is the same either way. Each player's exact sums per
    denominator become one Fraction by :func:`balanced_fold`. ``workers``
    must be an int >= 1 and is otherwise ignored: it is kept for callers
    that pass it, and the report does not depend on it.
    """
    _check_count(workers, 1, math.inf, "worker count must be an int >= 1")
    if not isinstance(players, PlayerSet) or not isinstance(plan, SamplingPlan):
        raise InputTypeError(
            f"players are a PlayerSet and plan a SamplingPlan, got {type(players).__name__} and {type(plan).__name__}"
        )
    n, m = players.n, plan.permutations
    # Sums are kept per denominator, not over one lcm of the whole table:
    # with a distinct prime denominator per coalition that lcm makes every
    # marginal an int of thousands of digits.
    sums: list[dict[int, list[int]]] = [{} for _ in range(n)]
    dense = type(oracle) is CharacteristicFunction and oracle.player_set == players
    for block in _dense_steps(oracle, plan) if dense else _sorted_steps(oracle, players, plan):
        _sum_block(sums, n, m, *block)
    totals = [balanced_fold(add, [Fraction(t, d) for d, (t, _) in by_den.items()]) for by_den in sums]
    squares = [balanced_fold(add, [Fraction(sq, d * d) for d, (_, sq) in by_den.items()]) for by_den in sums]
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
