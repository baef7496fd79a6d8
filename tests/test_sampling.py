import math
import random
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainshare import sampling
from chainshare.errors import FloatRangeError, IdentifierError, OracleError, SamplingPlanError
from chainshare.game import CharacteristicFunction, PlayerSet, ValueTable, shapley_exact
from chainshare.sampling import (
    DEFAULT_CHUNK_SIZE,
    MAX_CHUNK_SIZE,
    EstimateReport,
    SamplingPlan,
    sample_shapley,
)

from .conftest import CASE_CLASSICAL
from .oracles import as_from_values, random_game_table


def test_single_player_estimate_is_exact():
    game = CharacteristicFunction.from_values(("P",), {("P",): "7.25"})
    report = sample_shapley(game, game.player_set, SamplingPlan(50, seed=3))
    assert report.estimates == (Fraction(29, 4),)
    assert report.std_error == (0.0,)
    assert report.m == 50


@pytest.mark.parametrize("seed", [0, 7, 123456789])
def test_estimates_telescope_to_grand_value(case_game, seed):
    plan = SamplingPlan(permutations=2_000, seed=seed, chunk_size=256)
    report = sample_shapley(case_game, case_game.player_set, plan)
    assert sum(report.estimates, Fraction(0)) == case_game.grand_value


def test_workers_do_not_change_the_report(case_game):
    plan = SamplingPlan(permutations=30_000, seed=11, chunk_size=1024)
    reports = [
        sample_shapley(case_game, case_game.player_set, plan, workers=w)
        for w in (1, 4, 8)
    ]
    assert reports[0] == reports[1] == reports[2]


def test_repeated_runs_are_identical(case_game):
    plan = SamplingPlan(permutations=5_000, seed=99)
    a = sample_shapley(case_game, case_game.player_set, plan)
    b = sample_shapley(case_game, case_game.player_set, plan)
    assert a == b


def test_different_seeds_differ(case_game):
    a = sample_shapley(case_game, case_game.player_set, SamplingPlan(5_000, seed=1))
    b = sample_shapley(case_game, case_game.player_set, SamplingPlan(5_000, seed=2))
    assert a.estimates != b.estimates


def test_close_to_exact_on_case_game(case_game):
    plan = SamplingPlan(permutations=50_000, seed=5, chunk_size=12_500)
    report = sample_shapley(case_game, case_game.player_set, plan)
    for estimate, exact in zip(report.estimates, CASE_CLASSICAL):
        assert abs(float(estimate - exact)) / float(exact) < 0.01


def test_error_shrinks_with_more_permutations():
    rng = random.Random(42)
    players = tuple(f"p{i}" for i in range(5))
    table = random_game_table(rng, players, lo=0, hi=10_000)
    game = CharacteristicFunction.from_values(players, as_from_values(table))
    exact = shapley_exact(game).payoffs
    mean_errors = []
    for m in (1_000, 10_000, 100_000):
        errors = []
        for seed in range(10):
            report = sample_shapley(game, game.player_set, SamplingPlan(m, seed=seed, chunk_size=25_000))
            errors.append(
                np.mean([abs(float(e - x)) for e, x in zip(report.estimates, exact)])
            )
        mean_errors.append(np.mean(errors))
    assert mean_errors[0] > mean_errors[1] > mean_errors[2]


def _mixing_value(mask: int) -> Fraction:
    """A non-additive coalition value, so marginals vary with the prefix."""
    h = (mask * 2654435761 + 12345) % 1_000_003
    return Fraction(h % 997, 1 + h % 11) + mask.bit_count() ** 2


def _stream(n: int, plan: SamplingPlan):
    """The documented permutation stream: each chunk's first permutation index and its orders.

    Chunk c holds ``chunk_size`` permutations (the last one may be short),
    drawn by PCG64 seeded with SeedSequence(entropy=seed, spawn_key=(c,)).
    """
    m = plan.permutations
    for chunk, start in enumerate(range(0, m, plan.chunk_size)):
        count = min(plan.chunk_size, m - start)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=plan.seed, spawn_key=(chunk,))))
        yield start, rng.permuted(np.tile(np.arange(n), (count, 1)), axis=1).tolist()


def _reference_report(
    n: int, plan: SamplingPlan, value=_mixing_value
) -> tuple[tuple[Fraction, ...], tuple[float, ...]]:
    """Estimates and standard errors from the documented stream, one permutation at a time.

    ``value`` maps a coalition mask to its value.
    """
    m = plan.permutations
    totals = [Fraction(0)] * n
    squares = [Fraction(0)] * n
    for _, orders in _stream(n, plan):
        for order in orders:
            mask = 0
            before = value(mask)
            for player in order:
                mask |= 1 << player
                after = value(mask)
                totals[player] += after - before
                squares[player] += (after - before) ** 2
                before = after
    estimates = tuple(t / m for t in totals)
    std_error = tuple(math.sqrt(float((sq - t * t / m) / max(m - 1, 1) / m)) for sq, t in zip(squares, totals))
    return estimates, std_error


def _assert_matches_reference(n: int, plan: SamplingPlan, value, workers=(1, 2)):
    players = PlayerSet(tuple(f"p{i}" for i in range(n)))
    expected = _reference_report(n, plan, value)
    for w in workers:
        report = sample_shapley(lambda c: value(c.mask), players, plan, workers=w)
        assert (report.estimates, report.std_error) == expected
    return report


@pytest.mark.parametrize(
    "n, permutations, chunk_size",
    [
        (3, 500, 64), (8, 300, 64), (9, 300, 64), (16, 150, 40), (17, 150, 40), (32, 80, 24), (33, 80, 24),
        (57, 60, 16), (58, 60, 16), (64, 45, 7), (65, 45, 20), (130, 25, 10),
    ],
)
def test_every_width_matches_the_permutation_reference(n, permutations, chunk_size):
    plan = SamplingPlan(permutations, seed=1000 + n, chunk_size=chunk_size)
    _assert_matches_reference(n, plan, _mixing_value, workers=(1, 3))


@settings(max_examples=30, deadline=2000)
@given(
    n=st.integers(1, 7),
    permutations=st.integers(1, 150),
    chunk_size=st.integers(1, 64),
    seed=st.integers(0, 2**64 - 1),
    workers=st.integers(1, 3),
)
def test_any_plan_matches_the_permutation_reference(n, permutations, chunk_size, seed, workers):
    plan = SamplingPlan(permutations, seed=seed, chunk_size=chunk_size)
    _assert_matches_reference(n, plan, _mixing_value, workers=(workers,))


def test_negative_values_match_the_permutation_reference():
    def value(mask):
        return Fraction(mask % 5, 7) - 3 * _mixing_value(mask)

    report = _assert_matches_reference(7, SamplingPlan(400, seed=21, chunk_size=96), value)
    assert any(e < 0 for e in report.estimates)


def _primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def test_one_prime_denominator_per_coalition_matches_the_permutation_reference():
    # every marginal has its own denominator, so the per-denominator sums
    # hold about one entry per distinct step
    n = 10
    rng = random.Random(10)
    table = [Fraction(rng.randint(-10**6, 10**6), p) for p in _primes(1 << n)]
    table[0] = Fraction(0)
    _assert_matches_reference(n, SamplingPlan(150, seed=5, chunk_size=40), table.__getitem__)


def _wide_table(n: int, bits: int, seed: int) -> list[Fraction]:
    """Values near +-2**bits over a distinct prime denominator per coalition."""
    rng = random.Random(seed)
    top = 1 << bits
    table = [Fraction(rng.choice((-1, 1)) * (top - rng.randrange(top >> 4)), p) for p in _primes(1 << n)]
    table[0] = Fraction(0)
    return table


@pytest.mark.parametrize("permutations", [1, 300])
@pytest.mark.parametrize("bits", [44, 62])
def test_marginal_sums_stay_exact_past_int64(bits, permutations):
    # 64 prime denominators below 2**9: with 300 permutations, 44-bit numerators
    # are the widest the int64 sums take, and at 62 bits the marginals times
    # their denominators pass 2**63
    n = 6
    plan = SamplingPlan(permutations, seed=bits, chunk_size=128)
    report = _assert_matches_reference(n, plan, _wide_table(n, bits, bits).__getitem__, workers=(1,))
    if permutations == 1:
        assert report.std_error == (0.0,) * n


@pytest.mark.parametrize("scale", [1, 2**62 + 1], ids=["int64", "python-ints"])
def test_marginal_sums_merge_across_blocks(monkeypatch, scale):
    # Eleven denominators, so each (player, d) group spans many blocks. Chunks
    # of 64 permutations fill several blocks of 7 steps each. Chunks of 3
    # have at most 15 steps, so they wait until 50 are due and are then
    # summed in blocks that each hold steps of several chunks, before the
    # run ends.
    blocks = []
    sum_block = sampling._sum_block

    def spy(sums, n, m, counts, *columns):
        blocks.append(counts.size)
        sum_block(sums, n, m, counts, *columns)

    monkeypatch.setattr(sampling, "_sum_block", spy)
    for block, chunk_size in ((7, 64), (50, 3)):
        monkeypatch.setattr(sampling, "_SUM_BLOCK", block)
        blocks.clear()
        plan = SamplingPlan(200, seed=3, chunk_size=chunk_size)
        _assert_matches_reference(5, plan, lambda mask: scale * _mixing_value(mask), workers=(1,))
        assert len(blocks) > 2 and max(blocks) <= block
        if chunk_size == 3:
            assert min(blocks[:-1]) > 15


@pytest.mark.parametrize("permutations", [2**13 - 1, 2**13])
def test_the_sums_hold_marginals_at_the_int64_bound(permutations):
    # Player b's step from {a} to {a, b} has the marginal
    # (2**31 - 1) * (2**17 - 1) / ((2**16 - 1) * 2**16), a k of 48 bits against
    # the bound of 2**50 for 31-bit numerators over 17-bit denominators. With
    # 2**13 - 1 permutations that bound is the widest the int64 sums take;
    # 2**13 permutations take the Python-int sums.
    top = 2**31 - 1
    values = {0: Fraction(0), 1: Fraction(-top, 2**16), 2: Fraction(1, 3), 3: Fraction(top, 2**16 - 1)}
    half = (31 + 17 + 2) // 2
    assert (2**13 - 1).bit_length() + 2 * half == sampling._INT64_BITS
    _assert_matches_reference(2, SamplingPlan(permutations, seed=4), values.__getitem__, workers=(1,))


def test_one_permutation_matches_the_reference_with_zero_error():
    report = _assert_matches_reference(6, SamplingPlan(1, seed=8), _mixing_value)
    assert report.std_error == (0.0,) * 6


def test_std_error_beyond_the_float_range_of_its_variance():
    # marginals near 1e200 have a variance near 1e400, beyond a float,
    # while the standard error itself still fits in one
    players = PlayerSet(("a", "b"))
    values = {0: 0, 1: 10**200, 2: 1, 3: 3 * 10**200}
    report = sample_shapley(lambda c: values[c.mask], players, SamplingPlan(50, seed=2))
    assert all(1e198 < se < 1e201 for se in report.std_error)
    assert sum(report.estimates, Fraction(0)) == 3 * 10**200
    huge = {0: 0, 1: 10**400, 2: 1, 3: 3 * 10**400}
    with pytest.raises(FloatRangeError, match="standard error"):
        sample_shapley(lambda c: huge[c.mask], players, SamplingPlan(50, seed=2))


def test_oracle_runs_once_per_coalition_on_the_calling_thread():
    players = PlayerSet(tuple(f"p{i}" for i in range(6)))
    threads = []
    masks = []

    def oracle(coalition):
        threads.append(threading.get_ident())
        masks.append(coalition.mask)
        return _mixing_value(coalition.mask)

    sample_shapley(oracle, players, SamplingPlan(3_000, seed=4, chunk_size=100), workers=4)
    assert set(threads) == {threading.get_ident()}
    assert len(masks) == len(set(masks)) == 2**6


def _documented_calls(n: int, plan: SamplingPlan) -> tuple[list[int], list[int]]:
    """The oracle's calls in order, and the permutation a failure at each call names.

    Chunk by chunk, each coalition the chunk needs (every prefix of its
    permutations and the grand coalition) that no earlier chunk needed is
    evaluated, in ascending mask order. A failure names the first
    permutation of the stream that needs the coalition.
    """
    calls: list[int] = []
    permutations: list[int] = []
    seen: set[int] = set()
    for start, orders in _stream(n, plan):
        first: dict[int, int] = {}
        for index, order in enumerate(orders, start):
            mask = 0
            for player in order:
                first.setdefault(mask, index)
                mask |= 1 << player
            first.setdefault(mask, index)
        for mask in sorted(first.keys() - seen):
            calls.append(mask)
            permutations.append(first[mask])
        seen |= first.keys()
    return calls, permutations


# a prefix word fits 8 bits up to n = 8, 16 up to 16, 32 up to 32 and 64 beyond
STREAM_CASES = pytest.mark.parametrize(
    "n, permutations, chunk_size",
    [(6, 300, 40), (8, 60, 16), (9, 60, 16), (16, 40, 12), (17, 40, 12), (32, 30, 8), (33, 30, 8), (65, 30, 8)],
)


@pytest.mark.parametrize("workers", [1, 3])
@STREAM_CASES
def test_oracle_calls_follow_the_documented_stream(n, permutations, chunk_size, workers):
    plan = SamplingPlan(permutations, seed=60 + n, chunk_size=chunk_size)
    players = PlayerSet(tuple(f"p{i}" for i in range(n)))
    masks = []

    def oracle(coalition):
        masks.append(coalition.mask)
        return _mixing_value(coalition.mask)

    sample_shapley(oracle, players, plan, workers=workers)
    assert masks == _documented_calls(n, plan)[0]


@pytest.mark.parametrize("workers", [1, 3])
@STREAM_CASES
def test_oracle_failure_names_the_permutation_of_the_asking_step(n, permutations, chunk_size, workers):
    plan = SamplingPlan(permutations, seed=60 + n, chunk_size=chunk_size)
    players = PlayerSet(tuple(f"p{i}" for i in range(n)))
    calls, expected = _documented_calls(n, plan)
    failing = {0, 1, len(calls) - 1, *random.Random(n).sample(range(len(calls)), 6)}
    for call in sorted(failing):

        def oracle(coalition):
            if coalition.mask == calls[call]:
                raise RuntimeError("boom")
            return _mixing_value(coalition.mask)

        with pytest.raises(OracleError) as err:
            sample_shapley(oracle, players, plan, workers=workers)
        assert err.value.permutation_index == expected[call]


@pytest.mark.parametrize("workers", [1, 3])
@STREAM_CASES
def test_step_table_holds_each_step_once(monkeypatch, n, permutations, chunk_size, workers):
    # a chunk's counted steps are its step table; the run sums them and keeps none
    chunks = []
    count_steps = sampling._count_steps

    def spy(*args):
        chunks.append(count_steps(*args))
        return chunks[-1]

    monkeypatch.setattr(sampling, "_count_steps", spy)
    plan = SamplingPlan(permutations, seed=60 + n, chunk_size=chunk_size)
    players = PlayerSet(tuple(f"p{i}" for i in range(n)))
    sample_shapley(lambda c: _mixing_value(c.mask), players, plan, workers=workers)
    stream = list(_stream(n, plan))
    assert len(chunks) == len(stream)
    for (_, orders), (coalitions, _, counts, step_players, joined, prefix) in zip(stream, chunks):
        masks = [int.from_bytes(key, "big") for key in coalitions.tolist()]
        assert masks == sorted(set(masks))
        steps = [(masks[p], player) for p, player in zip(prefix.tolist(), step_players.tolist())]
        expected = Counter()
        for order in orders:
            mask = 0
            for player in order:
                expected[mask, player] += 1
                mask |= 1 << player
        assert steps == sorted(expected)
        assert counts.tolist() == [expected[step] for step in steps]
        assert [masks[j] for j in joined.tolist()] == [m | 1 << p for m, p in steps]
    assert sum(int(chunk[2].sum()) for chunk in chunks) == permutations * n


@pytest.mark.parametrize("workers", [1, 3])
@STREAM_CASES
def test_a_run_keeps_one_coalition_table(monkeypatch, n, permutations, chunk_size, workers):
    added = []
    add = sampling._SortedKeys.add

    def spy(table, keys, *columns):
        added.append((table, [int.from_bytes(key, "big") for key in keys.tolist()]))
        add(table, keys, *columns)

    monkeypatch.setattr(sampling._SortedKeys, "add", spy)
    answered = []

    def oracle(coalition):
        answered.append(coalition.mask)
        return _mixing_value(coalition.mask)

    plan = SamplingPlan(permutations, seed=60 + n, chunk_size=chunk_size)
    sample_shapley(oracle, PlayerSet(tuple(f"p{i}" for i in range(n))), plan, workers=workers)
    # every key the run adds is a coalition the oracle answered, added once, to one table
    assert len({id(table) for table, _ in added}) == 1
    assert sorted(mask for _, keys in added for mask in keys) == sorted(set(answered)) == sorted(answered)
    table = added[0][0]
    stored = {}
    for keys, numerators, denominators in table.arrays:
        level = [int.from_bytes(key, "big") for key in keys.tolist()]
        assert level == sorted(set(level))
        stored.update(zip(level, map(Fraction, numerators.tolist(), denominators.tolist())))
    assert sum(keys.size for keys, *_ in table.arrays) == len(stored) == len(answered)
    assert len(table.arrays) <= len(stored).bit_length()
    assert stored == {mask: _mixing_value(mask) for mask in answered}


def test_step_keys_past_16_bits_follow_the_documented_stream():
    # the first chunk holds 73,754 distinct prefixes, so prefix ranks and step keys both pass 16 bits
    n, plan = 30, SamplingPlan(3_100, seed=3, chunk_size=3_000)
    coalitions = sampling._count_steps(n, plan.seed, 0, plan.chunk_size)[0]
    assert coalitions.size - 1 > 2**16
    _assert_matches_reference(n, plan, _mixing_value, workers=(2,))
    players = PlayerSet(tuple(f"p{i}" for i in range(n)))
    calls, expected = _documented_calls(n, plan)
    masks = []

    def oracle(coalition):
        masks.append(coalition.mask)
        return _mixing_value(coalition.mask)

    sample_shapley(oracle, players, plan)
    assert masks == calls
    for call in (0, len(calls) // 2, len(calls) - 1):

        def failing(coalition):
            if coalition.mask == calls[call]:
                raise RuntimeError("boom")
            return 0

        with pytest.raises(OracleError) as err:
            sample_shapley(failing, players, plan)
        assert err.value.permutation_index == expected[call]


@pytest.mark.parametrize("n, arrays", [(12, 2.5), (64, 5.5), (130, 7.7)])
def test_counting_a_chunk_peaks_below_a_stated_number_of_arrays(n, arrays):
    # the peak of traced allocations, in arrays of chunk size x n 8-byte words
    count = DEFAULT_CHUNK_SIZE
    sampling._count_steps(n, 5, 0, count)  # numpy's first-call setup is not counted
    tracemalloc.start()
    try:
        sampling._count_steps(n, 5, 0, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * count * n * 8


def _cheap_oracle(coalition):
    return Fraction(coalition.mask.bit_count() * 3, 7)


@pytest.mark.parametrize("permutations", [1_000, DEFAULT_CHUNK_SIZE])
def test_a_sort_path_chunk_peaks_below_a_stated_number_of_arrays(permutations):
    # One chunk of a 64-player oracle holds each working column once, its
    # answers in the table's own columns, asked 1,024 at a time, and its steps'
    # values a block at a time. The peak of traced allocations, in arrays of
    # permutations x n 8-byte words, reads about 5.8 and 5.4; a chunk that
    # copied its answers out of the table and asked 8,192 at a time read 7.6
    # and 6.9, and one that held every answer as a Python int passed 15.
    n = 64
    players = PlayerSet(tuple(f"p{i}" for i in range(n)))
    sample_shapley(_cheap_oracle, PlayerSet(("a", "b")), SamplingPlan(8, seed=0))  # numpy's first-call setup
    tracemalloc.start()
    try:
        report = sample_shapley(_cheap_oracle, players, SamplingPlan(permutations, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(report.estimates, Fraction(0)) == Fraction(3 * n, 7)
    assert peak <= 6.5 * permutations * n * 8, peak / (permutations * n * 8)


def test_a_run_hands_out_only_read_only_columns_of_its_table(monkeypatch):
    merged = []
    merge_chunk = sampling._merge_chunk

    def spy(table, *args):
        steps = merge_chunk(table, *args)
        merged.append((table, steps))
        return steps

    monkeypatch.setattr(sampling, "_merge_chunk", spy)
    players = PlayerSet(tuple(f"p{i}" for i in range(64)))
    # 32 chunks: every array the table holds, merged ones included, is read-only
    sample_shapley(_cheap_oracle, players, SamplingPlan(2_000, seed=2, chunk_size=64))
    table = merged[-1][0]
    assert len(merged) == 32 and len(table.arrays) < 32
    assert not any(array.flags.writeable for arrays in table.arrays for array in arrays)
    # one chunk, all of its coalitions new: its answer columns are the table's own
    merged.clear()
    sample_shapley(_cheap_oracle, players, SamplingPlan(300, seed=2))
    ((table, (*_, num, den)),) = merged
    ((_, table_num, table_den),) = table.arrays
    assert np.shares_memory(num, table_num) and np.shares_memory(den, table_den)
    for column in (num, table_den):
        with pytest.raises(ValueError):
            column[0] = 1


# one chunk, chunks whose new coalitions span several slices of 7, a 64-player
# run of one-word keys and a 65-player run of two-word keys
SLICE_CASES = pytest.mark.parametrize(
    "n, permutations, chunk_size", [(6, 300, 300), (6, 300, 40), (64, 20, 6), (65, 30, 8)]
)


def _asked(n: int, plan: SamplingPlan, value=_mixing_value):
    """The masks the oracle was asked for, in order, and the report."""
    masks = []

    def oracle(coalition):
        masks.append(coalition.mask)
        return value(coalition.mask)

    report = sample_shapley(oracle, PlayerSet(tuple(f"p{i}" for i in range(n))), plan)
    return masks, report


@SLICE_CASES
def test_the_oracle_is_asked_alike_a_slice_at_a_time(monkeypatch, n, permutations, chunk_size):
    plan = SamplingPlan(permutations, seed=70 + n, chunk_size=chunk_size)
    expected = _asked(n, plan)
    assert expected[0] == _documented_calls(n, plan)[0]
    slices = []
    column = sampling._column

    def spy(values):
        slices.append(len(values))
        return column(values)

    monkeypatch.setattr(sampling, "_column", spy)
    monkeypatch.setattr(sampling, "_ASK_ROWS", 7)
    assert _asked(n, plan) == expected
    # a numerator and a denominator column per slice, each of at most 7 answers
    assert max(slices) <= 7 and sum(slices) == 2 * len(expected[0])
    assert len(slices) > 2 * -(-permutations // chunk_size)


@SLICE_CASES
def test_a_failure_in_a_later_slice_names_the_first_permutation_that_needs_it(monkeypatch, n, permutations, chunk_size):
    monkeypatch.setattr(sampling, "_ASK_ROWS", 7)
    plan = SamplingPlan(permutations, seed=70 + n, chunk_size=chunk_size)
    players = PlayerSet(tuple(f"p{i}" for i in range(n)))
    calls, expected = _documented_calls(n, plan)
    for call in (7, 8, 20, len(calls) // 2, len(calls) - 1):

        def oracle(coalition):
            if coalition.mask == calls[call]:
                raise RuntimeError("boom")
            return _mixing_value(coalition.mask)

        with pytest.raises(OracleError) as err:
            sample_shapley(oracle, players, plan)
        assert err.value.permutation_index == expected[call], call


@SLICE_CASES
def test_answers_past_int64_in_a_later_slice_alone_report_alike(monkeypatch, n, permutations, chunk_size):
    # calls 14 to 20 are one slice of 7, past the first of their chunk's
    # slices in every case; only their answers pass int64
    plan = SamplingPlan(permutations, seed=70 + n, chunk_size=chunk_size)
    wide = set(_documented_calls(n, plan)[0][14:21])

    def value(mask):
        return _mixing_value(mask) * (2**64 if mask in wide else 1)

    expected = _asked(n, plan, value)
    monkeypatch.setattr(sampling, "_ASK_ROWS", 7)
    assert _asked(n, plan, value) == expected
    assert expected[1].estimates == _reference_report(n, plan, value)[0]


def test_sorted_keys_stay_in_few_arrays():
    # batches of new keys that shrink slowly, as a run's new steps do
    table = sampling._SortedKeys()
    keys = np.random.default_rng(3).permutation(20_100)
    added = 0
    for size in range(200, 0, -1):
        batch = np.sort(keys[added : added + size])
        found, missing = table.match(batch)
        assert all(where.size == 0 for _, where, _ in found)
        assert missing.tolist() == list(range(size))
        table.add(batch, batch * 10)
        added += size
        assert len(table.arrays) <= added.bit_length()
        assert all(a.tolist() == sorted(a.tolist()) for a, _ in table.arrays)
    found, missing = table.match(keys)
    assert missing.size == 0
    for (_, tens), where, at in found:
        assert (tens[at] == keys[where] * 10).all()
    assert sorted(k for a, _ in table.arrays for k in a.tolist()) == list(range(20_100))


def test_sorted_keys_widen_a_merged_column():
    table = sampling._SortedKeys()
    table.add(np.array([1, 3]), np.array([10, 30]))
    table.add(np.array([2]), np.array([2**70], object))
    ((keys, values),) = table.arrays
    assert keys.tolist() == [1, 2, 3]
    assert values.tolist() == [10, 2**70, 30]


def test_a_cascading_merge_holds_the_merged_table_and_little_more():
    # The last add merges its 100k keys with the 100k before them, and that
    # array with the 400k before it. A merge builds one column at a time and
    # lets each old column go once its merged copy exists: the traced peak
    # reads about 1.3 times the final table, where holding both arrays' columns
    # and np.insert's temporaries read about 1.7.
    keys = np.random.default_rng(4).permutation(600_000)

    def batch(part):
        part = np.sort(part)
        return part, part * 2, part * 3

    table = sampling._SortedKeys()
    table.add(*batch(keys[:400_000]))
    table.add(*batch(keys[400_000:500_000]))
    last = batch(keys[500_000:])
    tracemalloc.start()
    try:
        table.add(*last)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ((merged, doubled, tripled),) = table.arrays
    assert np.array_equal(merged, np.arange(600_000))
    assert np.array_equal(doubled, merged * 2) and np.array_equal(tripled, merged * 3)
    final = merged.nbytes + doubled.nbytes + tripled.nbytes
    assert peak < 1.6 * final, peak / final


def test_answers_past_int64_after_chunks_of_int64_answers():
    # the first chunk's answers fit int64 and later ones do not, so the table
    # holds int64 and Python-int columns and merges them
    n, plan = 5, SamplingPlan(60, seed=9, chunk_size=3)
    first = set()
    for order in next(_stream(n, plan))[1]:
        mask = 0
        for player in order:
            first.add(mask)
            mask |= 1 << player
    first.add(mask)

    def value(mask):
        return _mixing_value(mask) * (1 if mask in first else 2**64)

    _assert_matches_reference(n, plan, value, workers=(1,))


def _table_value(rng: random.Random, kind: str):
    """A value as a scenario holds it: a 2-place decimal or a p/q ratio, kept
    unreduced in the table; an int past 2**63; or a numerator at an edge of
    the int64 range over 1 or 2**63, so a value column is int64 with -2**63
    in it, or Python ints for one entry past the range."""
    if kind == "decimals":
        return f"{rng.randint(-10**6, 10**6)}.{rng.randrange(100):02d}"
    if kind == "ratios":
        return f"{rng.randint(-999, 999)}/{rng.randint(1, 60)}"
    if kind == "int64-edges":
        return f"{rng.choice((2**63 - 1, -2**63, 2**63, -2**63 - 1))}/{rng.choice((1, 2**63))}"
    return rng.choice((-1, 1)) * (2**63 + rng.randrange(2**66))


def _table_game(n: int, kinds: tuple[str, ...], seed: int) -> CharacteristicFunction:
    rng = random.Random(seed)
    players = tuple(f"p{i}" for i in range(n))
    values = {
        tuple(p for i, p in enumerate(players) if mask >> i & 1): _table_value(rng, rng.choice(kinds))
        for mask in range(1, 1 << n)
    }
    return CharacteristicFunction.from_values(players, values)


@pytest.mark.parametrize("chunk_size", [1, 7, 500])
@pytest.mark.parametrize("kind", ["decimals", "ratios", "past-int64", "int64-edges"])
def test_a_table_game_reports_what_its_calls_report(kind, chunk_size):
    # the table's pairs are read, not called for; "1.50" is held as (150, 100)
    game = _table_game(6, (kind,), seed=chunk_size)
    plan = SamplingPlan(300, seed=chunk_size, chunk_size=chunk_size)
    report = sample_shapley(game, game.player_set, plan)
    assert report == sample_shapley(lambda c: game(c), game.player_set, plan)
    assert sum(report.estimates, Fraction(0)) == game.grand_value


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 9),
    permutations=st.integers(1, 120),
    chunk_size=st.sampled_from([1, 2, 7, 64, 4096]),
    seed=st.integers(0, 2**64 - 1),
    kinds=st.sets(st.sampled_from(["decimals", "ratios", "past-int64", "int64-edges"]), min_size=1).map(sorted).map(tuple),
)
def test_any_table_game_reports_what_its_calls_report(n, permutations, chunk_size, seed, kinds):
    game = _table_game(n, kinds, seed=seed)
    plan = SamplingPlan(permutations, seed=seed, chunk_size=chunk_size)
    assert sample_shapley(game, game.player_set, plan) == sample_shapley(lambda c: game(c), game.player_set, plan)


def _spy(monkeypatch, owner, name: str, calls: list) -> None:
    wrapped = getattr(owner, name)

    def spy(*args):
        calls.append(name)
        return wrapped(*args)

    monkeypatch.setattr(owner, name, spy)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_a_table_game_is_counted_densely_at_every_m(monkeypatch, n):
    # no size test picks the path: far below 2**n permutations as at and past it
    calls = []
    for owner, name in ((sampling, "_dense_steps"), (sampling, "_count_steps"), (sampling._SortedKeys, "add")):
        _spy(monkeypatch, owner, name, calls)
    game = _table_game(n, ("ratios",), seed=n)
    for permutations in (1, 2**n - 1, 2**n, 4 * 2**n):
        calls.clear()
        sample_shapley(game, game.player_set, SamplingPlan(permutations, seed=n, chunk_size=3))
        assert calls == ["_dense_steps"], permutations


@pytest.mark.parametrize("chunk_size", [1, 7, 4096])
@pytest.mark.parametrize("kind", ["decimals", "ratios", "past-int64"])
@pytest.mark.parametrize("n, permutations", [(4, 16), (4, 17), (7, 128), (7, 129)])
def test_the_dense_count_reports_what_the_calls_report(n, permutations, kind, chunk_size):
    # with chunks of 1 and 7 a step's count builds up over many chunks, each
    # added into the run's one count table
    game = _table_game(n, (kind,), seed=permutations + chunk_size)
    plan = SamplingPlan(permutations, seed=chunk_size, chunk_size=chunk_size)
    report = sample_shapley(game, game.player_set, plan)
    assert report == sample_shapley(lambda c: game(c), game.player_set, plan)
    assert sum(report.estimates, Fraction(0)) == game.grand_value


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("permutations, dtype", [(2**16 - 1, np.uint16), (2**16, np.uint32)])
def test_the_dense_count_table_is_the_narrowest_the_permutations_allow(monkeypatch, n, permutations, dtype):
    # A step is counted at most m times; at one player its one step is counted
    # exactly m times, the most a uint16 table holds at 2**16 - 1. Chunks of
    # 4096 split the run, so every count builds up over 16 chunks.
    seen = set()
    sum_block = sampling._sum_block

    def spy(sums, n, m, counts, *columns):
        seen.add(counts.dtype)
        sum_block(sums, n, m, counts, *columns)

    monkeypatch.setattr(sampling, "_sum_block", spy)
    game = _table_game(n, ("ratios",), seed=n)
    plan = SamplingPlan(permutations, seed=permutations, chunk_size=4096)
    report = sample_shapley(game, game.player_set, plan)
    assert seen == {np.dtype(dtype)}
    monkeypatch.undo()
    assert report == sample_shapley(lambda c: game(c), game.player_set, plan)


@pytest.mark.parametrize("kind", ["ratios", "int64-edges"])
def test_the_sums_are_the_same_for_every_count_dtype(kind):
    # ratios take the int64 sums and int64 edges the Python-int sums; a narrow
    # count times an int64 or object column is an int64 or a Python int
    n, m = 5, 300
    game = _table_game(n, (kind,), seed=n)
    blocks = list(sampling._dense_steps(game, SamplingPlan(m, seed=n, chunk_size=64)))
    assert blocks and all(block[0].dtype == np.uint16 for block in blocks)
    sums_by_dtype = []
    for dtype in (np.uint16, np.uint32, np.int64):
        sums = [{} for _ in range(n)]
        for counts, *columns in blocks:
            sampling._sum_block(sums, n, m, counts.astype(dtype), *columns)
        sums_by_dtype.append(sums)
    assert sums_by_dtype[0] == sums_by_dtype[1] == sums_by_dtype[2]
    assert all(type(x) is int for by_den in sums_by_dtype[0] for entry in by_den.values() for x in entry)


def test_a_20_player_dense_call_below_2_16_permutations_holds_a_uint16_table():
    # 2**20 * 20 uint16 counts are 40 MiB, and the two int64 value columns 8 MiB
    # each; a table of int64 counts alone would be 160 MiB
    n = 20
    table = ValueTable(n)
    table.numerators[:] = [mask % 1000 for mask in range(1 << n)]
    table.denominators[:] = [1] * (1 << n)
    game = CharacteristicFunction(PlayerSet(tuple(f"p{i}" for i in range(n))), table)
    small = _table_game(2, ("ratios",), seed=0)
    sample_shapley(small, small.player_set, SamplingPlan(8, seed=0))  # numpy's first-call setup is not counted
    tracemalloc.start()
    try:
        report = sample_shapley(game, game.player_set, SamplingPlan(1000, seed=20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(report.estimates, Fraction(0)) == game.grand_value
    assert peak < 64 * 2**20, peak


@pytest.mark.parametrize("dtype", [np.uint16, np.uint32, np.int64])
def test_the_step_scan_finds_what_flatnonzero_finds_across_slice_edges(monkeypatch, dtype):
    # nonzero slots on both sides of every edge of 8-slot slices, and a last slice cut short
    monkeypatch.setattr(sampling, "_SCAN_SLOTS", 8)
    counts = np.zeros(61, dtype)
    counts[[0, 7, 8, 15, 16, 23, 31, 40, 47, 48, 56, 60]] = [1, 2, 3, 1, 65535, 1, 9, 1, 1, 4, 1, 2]
    for table in (counts, np.zeros(61, dtype), np.ones(61, dtype), counts[:56]):
        steps = sampling._nonzero_slots(table)
        assert steps.dtype == np.flatnonzero(table).dtype
        assert steps.tolist() == np.flatnonzero(table).tolist()


def test_a_sampled_report_does_not_depend_on_the_scan_slice(monkeypatch):
    game = _table_game(5, ("ratios",), seed=5)
    plan = SamplingPlan(300, seed=5, chunk_size=64)
    expected = sample_shapley(game, game.player_set, plan)
    monkeypatch.setattr(sampling, "_SCAN_SLOTS", 7)  # 5 * 2**5 slots in 23 slices, the last of 6
    assert sample_shapley(game, game.player_set, plan) == expected


def test_dense_counting_peaks_below_two_count_tables_at_the_default_chunk():
    # the bound is in tables of 2**n * n int64s, n * 8 bytes per permutation at
    # 2**n = m, whatever dtype the counts take; each chunk's keys are added into
    # the table in place, so a chunk's arrays are the rest. One permutation
    # still takes the whole table, plus the two value columns.
    n = 16
    players = PlayerSet(tuple(f"p{i}" for i in range(n)))
    game = CharacteristicFunction(players, {mask: mask % 1000 for mask in range(1, 1 << n)})
    small = _table_game(2, ("ratios",), seed=0)
    sample_shapley(small, small.player_set, SamplingPlan(8, seed=0))  # numpy's first-call setup is not counted
    for permutations, chunk_size, tables in [(2**n, DEFAULT_CHUNK_SIZE, 2), (2**n, MAX_CHUNK_SIZE, 3.5), (1, 1, 1.25)]:
        tracemalloc.start()
        try:
            report = sample_shapley(game, players, SamplingPlan(permutations, seed=16, chunk_size=chunk_size))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(report.estimates, Fraction(0)) == game.grand_value
        assert peak <= tables * 2**n * n * 8, (permutations, chunk_size)


def test_a_table_game_is_never_called(monkeypatch, case_game):
    plan = SamplingPlan(2_000, seed=3, chunk_size=256)
    expected = sample_shapley(lambda c: case_game(c), case_game.player_set, plan)

    def refuse(self, coalition):
        raise AssertionError(f"the game was called for {coalition}")

    monkeypatch.setattr(CharacteristicFunction, "__call__", refuse)
    assert sample_shapley(case_game, case_game.player_set, plan) == expected


def test_a_subclass_of_the_game_is_called_in_the_documented_order():
    masks = []

    class Logged(CharacteristicFunction):
        def __call__(self, coalition):
            masks.append(coalition.mask)
            return super().__call__(coalition)

    n, plan = 6, SamplingPlan(300, seed=66, chunk_size=40)
    game = _table_game(n, ("ratios",), seed=6)
    report = sample_shapley(Logged(game.player_set, game.values), game.player_set, plan)
    assert masks == _documented_calls(n, plan)[0]
    assert report == sample_shapley(game, game.player_set, plan)


def test_a_game_over_a_wider_player_set_fails_at_the_first_coalition_past_it(case_game):
    # the game is called for each coalition, and the first that holds the
    # fourth player fails with the documented permutation
    players = PlayerSet(("A", "B", "C", "D"))
    plan = SamplingPlan(50, seed=8, chunk_size=12)
    calls, expected = _documented_calls(4, plan)
    first = next(k for k, mask in enumerate(calls) if mask & 0b1000)
    with pytest.raises(OracleError) as err:
        sample_shapley(case_game, players, plan)
    assert err.value.permutation_index == expected[first]
    assert isinstance(err.value.__cause__, IdentifierError)


def test_a_game_sampled_under_a_reordered_player_set_reads_its_values_by_name(case_game):
    # the table was once read whenever the widths matched, so each player got
    # the payoff of the player at its position in the game's own order
    two = CharacteristicFunction.from_values(("A", "B"), {("A",): 1, ("B",): 2, ("A", "B"): 4})
    for game, players in ((two, PlayerSet(("B", "A"))), (case_game, PlayerSet(("C", "A", "B")))):
        plan = SamplingPlan(100, seed=1, chunk_size=32)
        by_name = sample_shapley(lambda c: game(c.members), players, plan)
        assert sample_shapley(game, players, plan) == by_name
    assert sample_shapley(two, PlayerSet(("B", "A")), SamplingPlan(100, seed=1)).estimates == (
        Fraction(51, 20), Fraction(29, 20))


def test_wide_game_beyond_mask_width():
    # 60 additive players: the estimate of each is exactly its own value
    # on every run because marginals never vary.
    n = 60
    players = PlayerSet(tuple(f"p{i}" for i in range(n)))
    contributions = [Fraction(i + 1, 4) for i in range(n)]

    def oracle(coalition):
        return sum((contributions[players.index(p)] for p in coalition.members), Fraction(0))

    report = sample_shapley(oracle, players, SamplingPlan(40, seed=8, chunk_size=16))
    assert report.estimates == tuple(contributions)
    assert sum(report.estimates, Fraction(0)) == oracle(players.grand_coalition)


def test_plan_validation():
    with pytest.raises(SamplingPlanError):
        SamplingPlan(0, seed=1)
    with pytest.raises(SamplingPlanError):
        SamplingPlan(10, seed=1, chunk_size=0)
    with pytest.raises(SamplingPlanError):
        SamplingPlan(10, seed=-1)
    with pytest.raises(SamplingPlanError):
        SamplingPlan(10, seed=2**64)
    with pytest.raises(ValueError, match="worker"):
        game = CharacteristicFunction.from_values(("P",), {("P",): 1})
        sample_shapley(game, game.player_set, SamplingPlan(10, seed=1), workers=0)


def test_chunk_size_is_bounded():
    for chunk_size in (256, 1000, DEFAULT_CHUNK_SIZE, MAX_CHUNK_SIZE):
        assert SamplingPlan(10**9, seed=0, chunk_size=chunk_size).chunk_size == chunk_size
    # a plan is checked when it is made, before any chunk is drawn
    with pytest.raises(SamplingPlanError, match=str(MAX_CHUNK_SIZE)):
        SamplingPlan(10**12, seed=0, chunk_size=MAX_CHUNK_SIZE + 1)


def test_oracle_failure_carries_permutation_index():
    players = PlayerSet(("a", "b"))

    def broken(coalition):
        if coalition.size == 2:
            raise RuntimeError("boom")
        return 1

    plan = SamplingPlan(10, seed=0, chunk_size=4)
    with pytest.raises(OracleError) as err:
        sample_shapley(broken, players, plan)
    calls, expected = _documented_calls(2, plan)
    assert err.value.permutation_index == expected[calls.index(0b11)]
    assert "boom" in str(err.value)


def test_oracle_failure_names_the_first_permutation_that_needs_the_coalition():
    # every permutation needs the empty coalition, so the first one names it
    def broken(coalition):
        if coalition.mask == 0:
            raise RuntimeError("boom")
        return coalition.size

    with pytest.raises(OracleError) as err:
        sample_shapley(broken, PlayerSet(tuple("abcd")), SamplingPlan(50, seed=5, chunk_size=10))
    assert err.value.permutation_index == 0


def test_oracle_values_parsed_exactly():
    players = PlayerSet(("a", "b"))

    def oracle(coalition):
        return {0: 0, 1: "0.5", 2: 1, 3: 2.25}[coalition.mask]

    report = sample_shapley(oracle, players, SamplingPlan(100, seed=4))
    assert sum(report.estimates, Fraction(0)) == Fraction(9, 4)


def test_report_names_generator():
    game = CharacteristicFunction.from_values(("P",), {("P",): 1})
    report = sample_shapley(game, game.player_set, SamplingPlan(5, seed=0))
    assert "PCG64" in report.rng
    assert np.__version__ in report.rng


def test_std_error_signal():
    # symmetric two-player game: both marginals are always 5, so the
    # standard error collapses to zero.
    game = CharacteristicFunction.from_values(("1", "2"), {("1",): 5, ("2",): 5, ("1", "2"): 10})
    report = sample_shapley(game, game.player_set, SamplingPlan(500, seed=9))
    assert report.std_error == (0.0, 0.0)
    skewed = CharacteristicFunction.from_values(("1", "2"), {("1",): 0, ("2",): 0, ("1", "2"): 10})
    noisy = sample_shapley(skewed, skewed.player_set, SamplingPlan(500, seed=9))
    assert all(se > 0 for se in noisy.std_error)
