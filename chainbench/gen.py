"""Seeded inputs for the benchmark: value-chain games with known answers.

Every game is built from Harsanyi dividends: v(S) is the sum of the
dividends d_T over all T inside S. That makes the exact Shapley value
(phi_i = sum over T containing i of d_T / |T|) and the eq3 levers
(A_i = sum over S containing i of W(|S|) v(S)) cheap to compute here,
independently of the program, so every report can be checked exactly.

Values are money with two decimal places. A seeded minority of
dividends are ratios p/q with q from a fixed list of small numbers, so
the coalitions above them carry values written as "p/q" with differing
denominators. The list is fixed so that the cost of exact arithmetic
does not change with the seed.
Singletons and pair synergies are positive, so the game is
superadditive except for a seeded handful of disjoint negative pairs;
each such pair {i, j} breaks superadditivity at exactly ({i}, {j}).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

ROLES = ("sup", "mfr", "asm", "dst", "ret", "lgx", "dsn", "lab")
RATIO_DENOMINATORS = (3, 7, 9, 11, 13)


@dataclass
class Game:
    """A generated game and everything needed to check reports about it."""

    players: tuple[str, ...]
    dividends: dict[int, Fraction]
    values: list[Fraction]  # indexed by mask; values[0] == 0
    violations: list[tuple[int, int]] = field(default_factory=list)  # (left mask, right mask)

    @property
    def n(self) -> int:
        return len(self.players)

    @property
    def grand(self) -> Fraction:
        return self.values[-1]

    def shapley(self) -> list[Fraction]:
        phi = [Fraction(0)] * self.n
        for mask, d in self.dividends.items():
            share = d / mask.bit_count()
            for i in _bits(mask):
                phi[i] += share
        return phi

    def levers(self) -> list[Fraction]:
        """A_i = sum over S containing i of W(|S|) v(S), from the dividends.

        A dividend d_T contributes to every S containing T and i, so it
        adds d_T * g(|T u {i}|) with g(u) = sum_k C(n-u, k) W(u+k).
        """
        n = self.n
        weight = [Fraction(0)] + [
            Fraction(math.factorial(n - s) * math.factorial(s - 1), math.factorial(n))
            for s in range(1, n + 1)
        ]
        g = [Fraction(0)] + [
            sum((math.comb(n - u, k) * weight[u + k] for k in range(n - u + 1)), Fraction(0))
            for u in range(1, n + 1)
        ]
        levers = [Fraction(0)] * n
        for mask, d in self.dividends.items():
            size = mask.bit_count()
            for i in range(n):
                levers[i] += d * g[size if mask >> i & 1 else size + 1]
        return levers

    def members(self, mask: int) -> list[str]:
        return [self.players[i] for i in _bits(mask)]


def _bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def money(rng: random.Random, low: int, high: int) -> Fraction:
    """A random amount of money between ``low`` and ``high`` whole units, in cents."""
    return Fraction(rng.randint(low * 100, high * 100), 100)


def value_string(value: Fraction) -> str:
    """Two-place money when the value is whole cents, else "p/q"."""
    if 100 % value.denominator == 0:
        cents = value.numerator * (100 // value.denominator)
        sign = "-" if cents < 0 else ""
        return f"{sign}{abs(cents) // 100}.{abs(cents) % 100:02d}"
    return f"{value.numerator}/{value.denominator}"


def player_names(n: int) -> tuple[str, ...]:
    return tuple(f"{ROLES[i % len(ROLES)]}{i + 1}" for i in range(n))


def make_game(rng: random.Random, n: int, *, violations: int = 0) -> Game:
    """A seeded n-player value-chain game with ``violations`` negative pairs."""
    dividends: dict[int, Fraction] = {}
    for i in range(n):
        dividends[1 << i] = money(rng, 200, 5000)
    order = list(range(n))
    rng.shuffle(order)
    negative = {
        (1 << order[2 * k]) | (1 << order[2 * k + 1]) for k in range(min(violations, n // 2))
    }
    for i in range(n):
        for j in range(i + 1, n):
            pair = (1 << i) | (1 << j)
            dividends[pair] = -money(rng, 5, 40) if pair in negative else money(rng, 50, 800)
    if n >= 3:
        for _ in range(n):
            triple = sum(1 << i for i in rng.sample(range(n), 3))
            dividends[triple] = dividends.get(triple, Fraction(0)) + money(rng, 10, 300)
        for k in range(1 + n // 6):
            size = rng.randint(max(3, n - 6), n)
            mask = sum(1 << i for i in rng.sample(range(n), size))
            q = RATIO_DENOMINATORS[k % len(RATIO_DENOMINATORS)]
            dividends[mask] = dividends.get(mask, Fraction(0)) + Fraction(rng.randint(q, 100 * q), q)

    scale = math.lcm(*(d.denominator for d in dividends.values()))
    table = [0] * (1 << n)
    for mask, d in dividends.items():
        table[mask] = d.numerator * (scale // d.denominator)
    for i in range(n):  # zeta transform: v(S) = sum of d_T over T inside S
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                table[mask] += table[mask ^ bit]
    values = [Fraction(v, scale) for v in table]
    return Game(player_names(n), dividends, values, sorted(_split(p) for p in negative))


def _split(pair: int) -> tuple[int, int]:
    low = pair & -pair
    return low, pair ^ low


def make_factors(rng: random.Random, n: int, total: int = 10_000) -> list[Fraction]:
    """Four-place influence factors, each positive, summing to total / 10000."""
    cuts = sorted(rng.sample(range(1, total), n - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return [Fraction(p, 10_000) for p in parts]


def factor_string(value: Fraction) -> str:
    """Four-place decimal of a factor that is a whole number of ten-thousandths."""
    units = value.numerator * (10_000 // value.denominator)
    return f"{units // 10_000}.{units % 10_000:04d}"


def game_from_values(players, values: list[Fraction]) -> Game:
    """The game with the given value table; its dividends by Moebius inversion."""
    n = len(players)
    dividends = list(values)
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                dividends[mask] -= dividends[mask ^ bit]
    return Game(tuple(players), {m: d for m, d in enumerate(dividends) if m and d}, list(values))


def ratio_string(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def judgment_matrix(rng: random.Random, size: int) -> list[list[Fraction]]:
    """A reciprocal matrix near the ratios of random integer weights.

    Entries above the diagonal are w_i / w_j scaled by 1, 9/10 or 11/10,
    which keeps the consistency ratio far below the 0.1 gate.
    """
    weights = [rng.randint(1, 9) for _ in range(size)]
    m = [[Fraction(1)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            m[i][j] = Fraction(weights[i], weights[j]) * rng.choice(
                (Fraction(1), Fraction(9, 10), Fraction(11, 10))
            )
            m[j][i] = 1 / m[i][j]
    return m


def score_map(rng: random.Random, players: tuple[str, ...]) -> dict[str, str]:
    """Direct normalized scores as exact ratios summing to exactly 1."""
    raw = [rng.randint(1, 20) for _ in players]
    total = sum(raw)
    return {p: ratio_string(Fraction(r, total)) for p, r in zip(players, raw)}


def make_ahp(rng: random.Random, players: tuple[str, ...]) -> dict:
    criteria = [f"R{k + 1}" for k in range(rng.randint(2, 7))]
    alternatives: dict = {}
    for label in criteria:
        if rng.random() < 0.5:
            alternatives[label] = [
                [ratio_string(x) for x in row] for row in judgment_matrix(rng, len(players))
            ]
        else:
            alternatives[label] = score_map(rng, players)
    return {
        "criteria": criteria,
        "criteria_matrix": [
            [ratio_string(x) for x in row] for row in judgment_matrix(rng, len(criteria))
        ],
        "alternatives": alternatives,
    }


def scenario_document(game: Game, **extra) -> dict:
    doc: dict = {
        "players": list(game.players),
        "coalitions": [
            {"members": game.members(mask), "value": value_string(game.values[mask])}
            for mask in sorted(range(1, 1 << game.n), key=lambda m: (m.bit_count(), m))
        ],
    }
    doc.update(extra)
    return doc


def dump(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"
