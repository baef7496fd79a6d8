"""
Exact profit allocation for a three-company value chain
=======================================================

A provider (A) and two suppliers (B, C) earn more together than apart.
The allocation question: how should the 3000-unit joint profit split so
that each company is paid its average marginal contribution?

Every number below is an exact rational, so the payoffs sum to the
grand-coalition value as an equality, not a rounding coincidence.
"""

from fractions import Fraction

from chainshare import CharacteristicFunction, shapley_exact, shapley_terms, validate_game

###############################################################################
# The characteristic function maps every non-empty coalition to the profit
# it can secure on its own (values in "value units": 1000 = the provider's
# standalone profit).

game = CharacteristicFunction.from_values(
    ("A", "B", "C"),
    {
        ("A",): "1000",
        ("B",): "500",
        ("C",): "300",
        ("A", "B"): "2000",
        ("A", "C"): "1500",
        ("B", "C"): "1200",
        ("A", "B", "C"): "3000",
    },
)

###############################################################################
# Before allocating, check the premise that cooperation pays: no disjoint
# pair of coalitions should be worth more apart than together.

report = validate_game(game)
print("superadditivity violations:", len(report.violations))

###############################################################################
# The exact allocation. Each payoff is the weighted sum, over coalitions S
# containing the player, of (n-|S|)!(|S|-1)!/n! times the player's marginal
# contribution to S.

allocation = shapley_exact(game)
for player, payoff in allocation.as_dict().items():
    print(f"  {player}: {payoff}  (= {float(payoff):.4f})")

assert allocation.total == game.grand_value  # exact equality
print("total:", allocation.total)

###############################################################################
# The audit trail lists one player's (coalition, weight, marginal) terms on
# demand. Here is how A's payoff of 4150/3 decomposes:

terms = shapley_terms(game, "A")
for term in terms:
    print(f"  W={term.weight}  marginal={term.marginal}  from {term.coalition}")

assert sum((t.weight * t.marginal for t in terms), Fraction(0)) == allocation.payoff_of("A")
weight_sum = sum((t.weight for t in terms), Fraction(0))
print("weights over A's coalitions sum to", weight_sum)
