"""
Monte Carlo estimation for games too wide to enumerate
======================================================

Exact enumeration touches all 2^n - 1 coalitions and is capped at 20
players. Beyond that, sample arrival orders: in each random permutation
every player is paid its marginal contribution, and the sample mean
converges to the exact allocation.

Two engineering properties worth seeing:

1. The estimates are exact rationals whose sum telescopes to v(N) on
   every run, no matter how few permutations were drawn.
2. Chunk c of the permutation stream derives from (seed, c), so a plan
   gives the same report on every run.
"""

from fractions import Fraction

from chainshare import (
    CharacteristicFunction,
    PlayerSet,
    SamplingPlan,
    sample_shapley,
    shapley_exact,
)

game = CharacteristicFunction.from_values(
    ("A", "B", "C"),
    {
        ("A",): "1000", ("B",): "500", ("C",): "300",
        ("A", "B"): "2000", ("A", "C"): "1500", ("B", "C"): "1200",
        ("A", "B", "C"): "3000",
    },
)
exact = shapley_exact(game).payoffs

###############################################################################
# Convergence: the error of the sample mean shrinks roughly like
# 1/sqrt(m).

for m in (100, 1_000, 10_000, 100_000):
    report = sample_shapley(game, game.player_set, SamplingPlan(m, seed=0, chunk_size=25_000))
    worst = max(abs(float(e - x)) for e, x in zip(report.estimates, exact))
    total = sum(report.estimates, Fraction(0))
    print(f"  m={m:>7}: worst abs error {worst:8.4f}   sum of estimates = {total}")

###############################################################################
# Determinism: the same plan gives a bit-identical report on every run.

plan = SamplingPlan(permutations=50_000, seed=123, chunk_size=4096)
first = sample_shapley(game, game.player_set, plan)
again = sample_shapley(game, game.player_set, plan)
assert first == again
print("repeatable:", first.estimates == again.estimates)
print("generator:", first.rng)

###############################################################################
# Wide games: any callable from coalition to value works as the oracle.
# Sixty players would need 2^60 stored values; the sampler only evaluates
# the coalitions it visits.

players = PlayerSet(tuple(f"firm{i:02d}" for i in range(60)))
# firm i stands alone at (i + 1) / 2; the sum runs over the mask's bits in integers
halves = [i + 1 for i in range(60)]

def oracle(coalition):
    mask, base = coalition.mask, 0
    while mask:
        low = mask & -mask
        base += halves[low.bit_length() - 1]
        mask ^= low
    return Fraction(base, 2) + Fraction(coalition.size * (coalition.size - 1), 7)

report = sample_shapley(oracle, players, SamplingPlan(2_000, seed=9, chunk_size=500))
print("firm00 estimate:", float(report.estimates[0]))
print("firm59 estimate:", float(report.estimates[-1]))
assert sum(report.estimates, Fraction(0)) == oracle(players.grand_coalition)
print("telescoping still exact at n=60")
