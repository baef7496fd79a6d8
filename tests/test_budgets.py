"""Time and memory bounds, each stated once, checked on a child process."""

import json
import random
import resource

import pytest

from .child import run_child


def write_full_table(path, n):
    """Every coalition of n players: 2-place decimals, one value in ten a p/q ratio."""
    rng, players = random.Random(n), [f"p{i}" for i in range(n)]
    with open(path, "w", encoding="utf-8") as out:
        head = {"players": players, "factors": {p: f"1/{n}" for p in players}}
        out.write(json.dumps(head, separators=(",", ":"))[:-1] + ',"coalitions":[')
        for mask in range(1, 1 << n):
            members = ",".join(f'"{p}"' for i, p in enumerate(players) if mask >> i & 1)
            value = (f"{rng.randint(0, 10**6)}.{rng.randint(0, 99):02d}" if rng.randrange(10)
                     else f"{rng.randint(0, 10**6)}/{rng.randint(1, 97)}")
            out.write(("," if mask > 1 else "") + f'{{"members":[{members}],"value":"{value}"}}')
        out.write("]}")


# 21 MB at n = 18 and 93 MB at n = 20. Tier-1 deselects the ci case; CI runs it with -m ci.
@pytest.mark.parametrize("n, seconds, mb", [(18, 10, 512), pytest.param(20, 10, 1536, marks=pytest.mark.ci)])
def test_a_full_table_allocate_runs_within_its_bounds(tmp_path, n, seconds, mb):
    path = tmp_path / f"wide{n}.scenario"
    write_full_table(path, n)
    run_child(["-m", "chainshare.cli", "allocate", str(path)], seconds=seconds, mb=mb)
    path.unlink()


def test_a_multi_chunk_sort_path_run_stays_within_its_memory_bound():
    # 32 chunks of 256 permutations, one coalition table; the estimates sum to v(N).
    run_child(["-c", "from fractions import Fraction as F\n"
               "from chainshare import PlayerSet, SamplingPlan, sample_shapley\n"
               "players = PlayerSet(tuple(f'p{i}' for i in range(64)))\n"
               "plan = SamplingPlan(8_000, seed=0, chunk_size=256)\n"
               "report = sample_shapley(lambda c: F(c.mask.bit_count() * 3, 7), players, plan)\n"
               "assert sum(report.estimates, F(0)) == F(3 * 64, 7)"], mb=96)


def test_each_child_reads_its_own_maxrss():
    big, small = run_child(["-c", "held = b'x' * (64 << 20)"]), run_child(["-c", "pass"])
    assert big.maxrss_mb > 64 and small.maxrss_mb < 32
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024 > 64  # the largest child's
    with pytest.raises(AssertionError):
        run_child(["-c", "pass"], mb=1)
