"""Independent reference implementations the tests check the engines against.

These deliberately avoid the package's bitmask enumeration: coalitions
are frozensets of names, Shapley values are averaged over explicit
arrival orders, and the adjusted formula is evaluated term by term. The
scenario's coalition reader is checked against the plainest reader of
the same rules, one member check and one number read per entry. The
exact kernel's size sums over an int64 or object column are checked
against a kernel on Python lists, which weights every scaled value by
its size before folding the table in halves.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from math import factorial, lcm
from operator import add, mul

from chainshare.errors import IdentifierError, NumberError, ScenarioError
from chainshare.game import CharacteristicFunction, ValueTable
from chainshare.scenario import _number_pair

GameTable = dict[frozenset, Fraction]


def permutation_shapley(players: tuple[str, ...], values: GameTable) -> dict[str, Fraction]:
    """Average marginal contribution over all n! arrival orders.

    Values are scaled to integers over the lcm of the table's
    denominators, so each arrival step adds an int and one Fraction is
    built per player at the end.
    """
    n = len(players)
    scale = lcm(*(v.denominator for v in values.values()))
    scaled = {s: v.numerator * (scale // v.denominator) for s, v in values.items()}
    totals = dict.fromkeys(players, 0)
    for order in itertools.permutations(players):
        seen: frozenset = frozenset()
        for p in order:
            joined = seen | {p}
            totals[p] += scaled.get(joined, 0) - scaled.get(seen, 0)
            seen = joined
    return {p: Fraction(t, scale * factorial(n)) for p, t in totals.items()}


def per_player_lever(players: tuple[str, ...], values: GameTable) -> dict[str, Fraction]:
    """A_i = sum over coalitions S containing i of W(|S|) * v(S)."""
    n = len(players)
    out = {}
    for i in players:
        total = Fraction(0)
        for r in range(1, n + 1):
            for combo in itertools.combinations(players, r):
                if i in combo:
                    w = Fraction(factorial(n - r) * factorial(r - 1), factorial(n))
                    total += w * values[frozenset(combo)]
        out[i] = total
    return out


def eq3_per_term(
    players: tuple[str, ...], values: GameTable, factors: dict[str, Fraction]
) -> dict[str, Fraction]:
    """Term-by-term adjusted payoffs: every coalition S containing i
    contributes W(|S|) * ([v(S) - v(S - {i})] + v(S) * (G_i - 1/n))."""
    n = len(players)
    out = {}
    for i in players:
        dev = factors[i] - Fraction(1, n)
        total = Fraction(0)
        for r in range(1, n + 1):
            for combo in itertools.combinations(players, r):
                if i not in combo:
                    continue
                s = frozenset(combo)
                w = Fraction(factorial(n - r) * factorial(r - 1), factorial(n))
                marginal = values[s] - values.get(s - {i}, Fraction(0))
                total += w * (marginal + values[s] * dev)
        out[i] = total
    return out


def superadditivity_violations(
    players: tuple[str, ...], values: GameTable
) -> list[tuple[frozenset, frozenset, Fraction, Fraction, Fraction]]:
    """Every unordered pair of disjoint coalitions S, T with v(S u T) < v(S) + v(T).

    Each entry is (S, T, v(S), v(T), v(S u T)), summed as Fractions. The
    list is in validate_game's documented order: read each coalition as
    the binary number with bit i for players[i]; unions ascending, then
    within a union the left coalition descending, with left < right.
    """
    def rank(coalition: frozenset) -> int:
        return sum(2 ** players.index(p) for p in coalition)

    found = []
    for union in values:
        for r in range(1, len(union)):
            for combo in itertools.combinations(sorted(union), r):
                left = frozenset(combo)
                right = union - left
                if rank(left) < rank(right) and values[union] < values[left] + values[right]:
                    found.append((left, right, values[left], values[right], values[union]))
    return sorted(found, key=lambda v: (rank(v[0] | v[1]), -rank(v[0])))


def _member_sums(table: list[int], n: int) -> list[int]:
    """Per player i, the sum of ``table[mask]`` over the masks holding i.

    Folds the table in half n times: the upper half is the masks holding
    the highest player left, and adding it onto the lower half drops that
    player from every mask.
    """
    sums = [0] * n
    for i in reversed(range(n)):
        upper = table[1 << i:]
        sums[i] = sum(upper)
        table = list(map(add, table[:1 << i], upper))
    return sums


def list_payoffs_and_levers(game: CharacteristicFunction) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Shapley payoffs and eq3 levers A_i on Python lists of Python ints,
    weighting every scaled value by its size before two halving folds.

    With D the lcm of the denominators, x(S) = v(S) * D is an int. With
    c(s) = (n-s)!(s-1)! = n! W(s) and c(n+1) = 0, n! D A_i is the sum of
    c(|S|) x(S) over the S holding i. Each S without i is S' \\ {i} for
    one S' of size |S| + 1 holding i, so with b(S) = c(|S|+1) x(S),
    n! D phi_i = n! D A_i - (sum of b over all S) + (sum of b over the S
    holding i).
    """
    n = game.n
    scale = lcm(*game.values.denominators)
    scaled = [v * (scale // d) for v, d in zip(game.values.numerators, game.values.denominators)]
    c = [0] + [math.factorial(n - s) * math.factorial(s - 1) for s in range(1, n + 1)] + [0]
    sizes = list(map(int.bit_count, range(1 << n)))
    levers = _member_sums(list(map(mul, map(c.__getitem__, sizes), scaled)), n)
    after = list(map(mul, map(c[1:].__getitem__, sizes), scaled))
    total = sum(after)
    payoffs = [a - total + b for a, b in zip(levers, _member_sums(after, n))]
    denominator = math.factorial(n) * scale
    return (tuple(Fraction(x, denominator) for x in payoffs),
            tuple(Fraction(x, denominator) for x in levers))


def entry_by_entry_coalitions(coalitions: list, bits: dict[str, int], n: int) -> ValueTable:
    """A scenario's ``coalitions`` list read one entry at a time, each
    entry's members through :meth:`ValueTable.mask_for` and its value
    through the parser's number reader: the table, or the first error in
    document order at its entry's locus."""
    table = ValueTable(n)
    for i, entry in enumerate(coalitions):
        if not isinstance(entry, dict) or entry.keys() != {"members", "value"}:
            raise ScenarioError("each coalition needs exactly the keys 'members' and 'value'", f"coalitions[{i}]")
        members = entry["members"]
        if not isinstance(members, list):
            raise ScenarioError("members must be a non-empty list", f"coalitions[{i}].members")
        try:
            mask = table.mask_for(bits, members)
        except IdentifierError as exc:
            raise ScenarioError(str(exc), f"coalitions[{i}].members") from None
        try:
            table.numerators[mask], table.denominators[mask] = _number_pair(entry["value"])
        except NumberError as exc:
            raise ScenarioError(str(exc), f"coalitions[{i}].value") from None
    return table


def mixed_value(rng: random.Random) -> str:
    """A decimal, a p/q ratio or an integer string, each possibly negative."""
    kind = rng.randrange(3)
    if kind == 0:
        return f"{rng.choice('-+')}{rng.randint(0, 9999)}.{rng.randint(0, 999):03d}"
    if kind == 1:
        return f"{rng.randint(-9999, 9999)}/{rng.randint(1, 97)}"
    return str(rng.randint(-9999, 9999))


def random_game_table(
    rng: random.Random,
    players: tuple[str, ...],
    lo: int = -10_000,
    hi: int = 10_000,
    denominator: int = 100,
) -> GameTable:
    """Random characteristic function with power-of-ten denominators."""
    values: GameTable = {}
    for r in range(1, len(players) + 1):
        for combo in itertools.combinations(players, r):
            values[frozenset(combo)] = Fraction(rng.randint(lo, hi), denominator)
    return values


def as_from_values(values: GameTable) -> dict[tuple[str, ...], Fraction]:
    """Re-key a frozenset table for CharacteristicFunction.from_values."""
    return {tuple(sorted(s)): v for s, v in values.items()}


def random_factors(rng: random.Random, players: tuple[str, ...]) -> dict[str, Fraction]:
    """Random non-negative factors summing to exactly 1."""
    cuts = [Fraction(rng.randint(0, 1000), 1000) for _ in players]
    total = sum(cuts)
    if total == 0:
        cuts[0] = Fraction(1)
        total = Fraction(1)
    return {p: c / total for p, c in zip(players, cuts)}


def fraction_format_fixed(value: Fraction | float, places: int = 4) -> str:
    """Fixed-point text with ties rounded to even, by Fraction arithmetic."""
    frac = value if isinstance(value, Fraction) else Fraction(float(value))
    q = 10**places
    scaled = frac * q
    floor = scaled.numerator // scaled.denominator
    remainder = scaled - floor
    if remainder > Fraction(1, 2) or (remainder == Fraction(1, 2) and floor % 2):
        floor += 1
    sign = "-" if floor < 0 else ""
    magnitude = abs(floor)
    if places == 0:
        return f"{sign}{magnitude}"
    return f"{sign}{magnitude // q}.{magnitude % q:0{places}d}"
