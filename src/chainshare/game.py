"""Transferable-utility coalition games and the exact Shapley allocation.

Coalitions are bit-vectors over a fixed player order. All values are
exact rationals, so efficiency (payoffs summing to the grand-coalition
value) holds as an equality. Exact enumeration walks all 2**n - 1
coalitions and is capped at 20 players; larger games belong to
:mod:`chainshare.sampling`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, islice
from operator import add, mul
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import EnumerationBoundError, IdentifierError, IncompleteGameError, InputTypeError, NumberError
from .rational import RationalLike, parse_pair

ENUMERATION_MAX_PLAYERS = 20

# Bits (256 MiB) that the 2**n values of a table scaled to one common
# denominator may need in all, at the denominator's width each: a larger
# table takes seconds to build, and gigabytes from n = 14 on.
MAX_SCALED_BITS = 1 << 31


def _unique_labels(labels: Iterable[str], what: str) -> tuple[str, ...]:
    """``labels`` as a tuple: at least one, each a non-empty string that UTF-8
    can encode (so a report can print it), none repeated."""
    out = tuple(labels)
    if not out:
        raise IdentifierError(f"at least one {what} label is needed")
    for label in out:
        if not isinstance(label, str) or not label:
            raise IdentifierError(f"{what} labels must be non-empty strings, got {label!r}")
        try:
            label.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate
            raise IdentifierError(f"{what} labels must be encodable as UTF-8, got {label!r}") from None
    if len(set(out)) != len(out):
        raise IdentifierError(f"{what} labels must be unique")
    return out


def _mask_of(bits: Mapping[str, int], members: Iterable[str]) -> int:
    """The mask of ``members`` by a player set's ``bits``: every name a known player, none repeated."""
    mask = 0
    for name in members:
        try:
            bit = bits[name]
        except (KeyError, TypeError):  # an unknown or unhashable name
            raise IdentifierError(f"unknown player {name!r}") from None
        if mask & bit:
            raise IdentifierError(f"player {name!r} listed twice")
        mask |= bit
    return mask


@dataclass(frozen=True)
class PlayerSet:
    """Ordered unique player identifiers; the order fixes bit positions. ``bits``, built
    once, maps each name to its bit for every reader of names; :meth:`members` maps back."""

    players: tuple[str, ...]
    bits: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "players", _unique_labels(self.players, "player"))
        object.__setattr__(self, "bits", {p: 1 << i for i, p in enumerate(self.players)})

    @property
    def n(self) -> int:
        return len(self.players)

    def index(self, player: str) -> int:
        return _mask_of(self.bits, (player,)).bit_length() - 1

    def coalition(self, members: Iterable[str]) -> Coalition:
        """The coalition of ``members``: every name a known player, none repeated."""
        return Coalition(self, _mask_of(self.bits, members))

    def members(self, mask: int) -> tuple[str, ...]:
        """The names of the players in ``mask``, in player order."""
        return tuple(p for p, bit in self.bits.items() if mask & bit)

    @property
    def grand_coalition(self) -> Coalition:
        return Coalition(self, (1 << self.n) - 1)

    def __iter__(self):
        return iter(self.players)

    def __len__(self) -> int:
        return len(self.players)


@dataclass(frozen=True)
class Coalition:
    """A subset of a player set, stored as a bit-vector."""

    player_set: PlayerSet
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.player_set.n):
            raise IdentifierError(f"coalition mask {self.mask:#x} out of range for {self.player_set.n} players")

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def members(self) -> tuple[str, ...]:
        return self.player_set.members(self.mask)

    def contains(self, player: str) -> bool:
        return bool(self.mask >> self.player_set.index(player) & 1)

    def without(self, player: str) -> Coalition:
        return Coalition(self.player_set, self.mask & ~(1 << self.player_set.index(player)))

    def __str__(self) -> str:
        return "{" + ", ".join(self.members) + "}"


class ShapleyTerm(NamedTuple):
    """One audited summand: coalition S (containing the player), its
    weight (n-|S|)!(|S|-1)!/n!, and the marginal v(S) - v(S \\ {i})."""

    coalition: Coalition
    weight: Fraction
    marginal: Fraction


def coalition_weight(n: int, s: int) -> Fraction:
    """Weight of a size-``s`` coalition in an ``n``-player game.

    Returns (n-s)!(s-1)!/n! exactly. Over all coalitions containing a
    fixed player these weights sum to 1.
    """
    if not isinstance(n, int) or not isinstance(s, int):
        raise InputTypeError("player count and coalition size must be ints")
    if not 1 <= s <= n:
        raise NumberError(f"coalition size must satisfy 1 <= s <= n, got s={s}, n={n}")
    if n > ENUMERATION_MAX_PLAYERS:
        raise NumberError(f"player count {n} exceeds the enumeration bound {ENUMERATION_MAX_PLAYERS}")
    return Fraction(math.factorial(n - s) * math.factorial(s - 1), math.factorial(n))


class _Sparse(dict):
    """Slots of a table past the enumeration bound: only the coalitions given."""

    def __missing__(self, mask):
        return 0


class ValueTable(Mapping[int, Fraction]):
    """Coalition values of ``n`` players as exact integer pairs, read as a
    Mapping of Fractions.

    ``numerators[mask]`` and ``denominators[mask]`` hold v(S) for the
    coalition with bit-mask ``mask``; the pair need not be in lowest terms,
    and a coalition without a value has denominator 0. Up to the
    enumeration bound the two are lists over every mask, with the empty
    coalition's (0, 1) in slot 0, which is not a key. Past it they are
    dicts holding only the coalitions given, since no game is built there.
    """

    __slots__ = ("n", "numerators", "denominators")

    def __init__(self, n: int):
        self.n = n
        if n <= ENUMERATION_MAX_PLAYERS:
            self.numerators = [0] * (1 << n)
            self.denominators = [1] + [0] * ((1 << n) - 1)
        else:
            self.numerators, self.denominators = {}, _Sparse()

    def __getitem__(self, mask) -> Fraction:
        try:
            denominator = self.denominators[mask] if isinstance(mask, int) and mask > 0 else 0
        except IndexError:
            denominator = 0
        if not denominator:
            raise KeyError(mask)
        return Fraction(self.numerators[mask], denominator)

    def __iter__(self) -> Iterator[int]:
        if isinstance(self.denominators, dict):
            return iter(self.denominators)
        return compress(range(1, len(self.denominators)), islice(self.denominators, 1, None))

    def __len__(self) -> int:
        if isinstance(self.denominators, dict):
            return len(self.denominators)
        return len(self.denominators) - 1 - self.denominators.count(0)

    def __repr__(self) -> str:
        return f"ValueTable({dict(self)!r})"

    def mask_for(self, bits: Mapping[str, int], members) -> int:
        """The mask under which ``members`` take a value here, by a
        :class:`PlayerSet`'s ``bits``: a non-empty list of known players,
        none repeated, naming a coalition that holds no value yet."""
        if not members:
            raise IdentifierError("members must be a non-empty list")
        mask = _mask_of(bits, members)
        if self.denominators[mask]:
            raise IdentifierError("duplicate coalition {" + ", ".join(sorted(members)) + "}")
        return mask

    def scaled(self) -> tuple[list[int], int]:
        """v(S) * D by mask (0 for the empty coalition), and D, the lcm of
        the denominators, for a table over every mask.

        Raises NumberError as soon as 2**n times the bits of D passes
        ``MAX_SCALED_BITS``. The denominators join as a balanced tree of
        pairwise lcms, built left to right like a binary counter: ``joined``
        holds (lcm, leaf count) subtrees of falling sizes, and every lcm
        made is checked. Each divides D, so the verdict is D's; a refusal
        comes at the first subtree past the bound, with no lcm of a wide
        running value per denominator, which a one-by-one fold would take.
        """
        limit = MAX_SCALED_BITS >> self.n

        def checked(value: int) -> int:
            if value.bit_length() > limit:
                raise NumberError(
                    f"the coalition values' common denominator passes {limit} bits, "
                    f"too wide to scale {1 << self.n} values to (at most {MAX_SCALED_BITS} bits in all)"
                )
            return value

        denominators = set(self.denominators)
        joined: list[tuple[int, int]] = []
        for scale in denominators:
            leaves = 1
            checked(scale)
            while joined and joined[-1][1] == leaves:
                scale = checked(math.lcm(joined.pop()[0], scale))
                leaves *= 2
            joined.append((scale, leaves))
        scale = 1
        for subtree, _ in reversed(joined):
            scale = checked(math.lcm(scale, subtree))
        factor = {d: scale // d for d in denominators}
        return list(map(mul, self.numerators, map(factor.__getitem__, self.denominators))), scale


@dataclass(frozen=True)
class CharacteristicFunction:
    """Total map from non-empty coalitions to exact rational values.

    ``values`` is keyed by coalition bit-mask and must cover every one of
    the 2**n - 1 non-empty coalitions; the empty coalition is implicitly
    worth 0 and is never stored. The game holds them in one
    :class:`ValueTable` of integer pairs, and ``values`` is that table: a
    read-only Mapping of Fractions. A ValueTable over these players (as a
    parsed scenario holds) is used as it is; any other Mapping is read
    into a new one.
    """

    player_set: PlayerSet
    values: Mapping[int, Fraction]

    def __post_init__(self):
        n = self.player_set.n
        if n > ENUMERATION_MAX_PLAYERS:
            raise EnumerationBoundError(n, ENUMERATION_MAX_PLAYERS)
        table = self.values
        if not isinstance(table, ValueTable) or table.n != n:
            table = ValueTable(n)
            for mask, value in self.values.items():
                if not isinstance(mask, int) or not 0 < mask < (1 << n):
                    raise IdentifierError(f"coalition key {mask!r} is not a non-empty mask for {n} players")
                table.numerators[mask], table.denominators[mask] = parse_pair(value)
            object.__setattr__(self, "values", table)
        if 0 in table.denominators:
            raise IncompleteGameError(self.player_set.members(table.denominators.index(0)))

    @classmethod
    def from_values(
        cls,
        players: Iterable[str] | PlayerSet,
        values: Mapping[Iterable[str], RationalLike],
    ) -> CharacteristicFunction:
        """Build a game from coalition member lists, e.g.
        ``{("A",): "1000", ("A", "B"): "2000", ...}``, under the rules a
        scenario's coalitions follow."""
        player_set = players if isinstance(players, PlayerSet) else PlayerSet(tuple(players))
        table = ValueTable(player_set.n)
        for members, value in values.items():
            mask = table.mask_for(player_set.bits, (members,) if isinstance(members, str) else tuple(members))
            table.numerators[mask], table.denominators[mask] = parse_pair(value)
        return cls(player_set, table)

    @property
    def n(self) -> int:
        return self.player_set.n

    @property
    def grand_value(self) -> Fraction:
        return self.values[(1 << self.n) - 1]

    def __call__(self, coalition: Coalition | int | Iterable[str]) -> Fraction:
        if isinstance(coalition, Coalition):
            mask = coalition.mask
        elif isinstance(coalition, int):
            mask = coalition
        else:
            mask = self.player_set.coalition(coalition).mask
        if mask == 0:
            return Fraction(0)
        return self.values[mask]


@dataclass(frozen=True)
class Allocation:
    """Per-player payoffs over a player set; :func:`shapley_terms` audits
    any one payoff term by term."""

    player_set: PlayerSet
    payoffs: tuple[Fraction, ...]

    @property
    def total(self) -> Fraction:
        return sum(self.payoffs, Fraction(0))

    def payoff_of(self, player: str) -> Fraction:
        return self.payoffs[self.player_set.index(player)]

    def as_dict(self) -> dict[str, Fraction]:
        return dict(zip(self.player_set.players, self.payoffs))


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


def _payoffs_and_levers(game: CharacteristicFunction) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Shapley payoffs and eq3 levers A_i from the game's scaled value table.

    With D the lcm of the denominators, x(S) = v(S) * D is an int. With
    c(s) = (n-s)!(s-1)! = n! W(s) and c(n+1) = 0, n! D A_i is the sum of
    c(|S|) x(S) over the S holding i. Each S without i is S' \\ {i} for
    one S' of size |S| + 1 holding i, so with b(S) = c(|S|+1) x(S),
    n! D phi_i = n! D A_i - (sum of b over all S) + (sum of b over the S
    holding i).
    """
    n = game.n
    scaled, scale = game.values.scaled()
    c = [0] + [math.factorial(n - s) * math.factorial(s - 1) for s in range(1, n + 1)] + [0]
    sizes = list(map(int.bit_count, range(1 << n)))
    levers = _member_sums(list(map(mul, map(c.__getitem__, sizes), scaled)), n)
    after = list(map(mul, map(c[1:].__getitem__, sizes), scaled))
    total = sum(after)
    payoffs = [a - total + b for a, b in zip(levers, _member_sums(after, n))]
    denominator = math.factorial(n) * scale
    return (tuple(Fraction(x, denominator) for x in payoffs),
            tuple(Fraction(x, denominator) for x in levers))


def shapley_exact(game: CharacteristicFunction) -> Allocation:
    """Exact Shapley allocation.

    For each player i the payoff is the sum over coalitions S containing
    i of (n-|S|)!(|S|-1)!/n! * [v(S) - v(S \\ {i})]. The returned
    allocation satisfies efficiency exactly: payoffs sum to v(N).
    """
    return Allocation(player_set=game.player_set, payoffs=_payoffs_and_levers(game)[0])


def shapley_terms(game: CharacteristicFunction, player: str) -> tuple[ShapleyTerm, ...]:
    """One player's audited summands, one per coalition containing the
    player in ascending mask order; weight * marginal sums to the payoff."""
    bit = 1 << game.player_set.index(player)
    return tuple(
        ShapleyTerm(Coalition(game.player_set, mask), coalition_weight(game.n, mask.bit_count()),
                    game(mask) - game(mask ^ bit))
        for mask in range(bit, 1 << game.n) if mask & bit
    )


@dataclass(frozen=True)
class SuperadditivityViolation:
    """Disjoint coalitions worth more apart than together."""

    left: Coalition
    right: Coalition
    left_value: Fraction
    right_value: Fraction
    union_value: Fraction

    def __str__(self) -> str:
        return (
            f"v({self.left} u {self.right}) = {self.union_value} < "
            f"{self.left_value} + {self.right_value}"
        )


@dataclass(frozen=True)
class ValidationReport:
    """Superadditivity diagnostic; violations are warnings, never fatal."""

    player_set: PlayerSet
    violations: tuple[SuperadditivityViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_game(game: CharacteristicFunction) -> ValidationReport:
    """List every disjoint pair S, T with v(S u T) < v(S) + v(T).

    Exhaustive over all unordered disjoint pairs, which is O(3**n);
    practical through roughly 14 players. Compares the values as ints
    over their common denominator.
    """
    violations: list[SuperadditivityViolation] = []
    scaled, _ = game.values.scaled()
    value = functools.cache(game.values.__getitem__)  # one Fraction per coalition its violations share
    n = game.n
    for union in range(1, 1 << n):
        if union.bit_count() < 2:
            continue
        v_union = scaled[union]
        # Proper non-empty submasks; keep left < right to visit each
        # unordered pair once.
        left = (union - 1) & union
        while left:
            right = union ^ left
            if left < right and v_union < scaled[left] + scaled[right]:
                violations.append(
                    SuperadditivityViolation(
                        left=Coalition(game.player_set, left),
                        right=Coalition(game.player_set, right),
                        left_value=value(left),
                        right_value=value(right),
                        union_value=value(union),
                    )
                )
            left = (left - 1) & union
    return ValidationReport(player_set=game.player_set, violations=tuple(violations))
