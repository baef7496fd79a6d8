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
from operator import index, mul
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import EnumerationBoundError, IdentifierError, IncompleteGameError, InputTypeError, NumberError
from .rational import RationalLike, balanced_fold, parse_pair

ENUMERATION_MAX_PLAYERS = 20

# Bits (256 MiB) that the 2**n values of a table scaled to one common
# denominator may need in all, at the denominator's width each: a larger
# table takes seconds to build, and gigabytes from n = 14 on.
MAX_SCALED_BITS = 1 << 31

# An int64 holds every magnitude below 2**63.
_INT64_BITS = 63


def _unique_labels(labels: Iterable[str] | str, what: str) -> tuple[str, ...]:
    """``labels`` as a tuple: at least one, each a non-empty string that UTF-8
    can encode (so a report can print it), none repeated. A bare string is
    one label."""
    out = (labels,) if isinstance(labels, str) else tuple(labels)
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


def _is_names(members) -> bool:
    """Whether ``members`` is read as names: a string, or anything ``iter``
    takes (not an int, a numpy integer or a 0-d array)."""
    if isinstance(members, str):
        return True
    try:
        iter(members)
    except TypeError:
        return False
    return True


def _mask_of(bits: Mapping[str, int], members: Iterable[str] | str) -> int:
    """The mask of ``members`` by a player set's ``bits``: every name a known
    player, none repeated. A bare string names one player; anything that is
    not names is an InputTypeError."""
    if isinstance(members, str):
        members = (members,)
    elif not _is_names(members):
        raise InputTypeError(f"members are a player name or an iterable of names, got {members!r}")
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

    def coalition(self, members: Iterable[str] | str) -> Coalition:
        """The coalition of ``members``: every name a known player, none
        repeated. A bare string names one player."""
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
    """A subset of a player set, stored as a bit-vector: an int below 2**n. A
    mask is taken by ``operator.index``, so a numpy integer is stored as an
    int; a bool, a float, a string or None is an InputTypeError."""

    player_set: PlayerSet
    mask: int

    def __post_init__(self):
        if type(self.mask) is not int:  # a plain int, as nearly every caller passes, is taken as it is
            if isinstance(self.mask, bool):
                raise InputTypeError(f"a coalition mask is an int, not a bool, got {self.mask!r}")
            try:
                object.__setattr__(self, "mask", index(self.mask))
            except TypeError:
                raise InputTypeError(f"a coalition mask is an int, got {self.mask!r}") from None
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
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (n, s)):
        raise InputTypeError("player count and coalition size must be ints (not bools)")
    if not 1 <= s <= n:
        raise NumberError(f"coalition size must satisfy 1 <= s <= n, got s={s}, n={n}")
    if n > ENUMERATION_MAX_PLAYERS:
        raise NumberError(f"player count {n} exceeds the enumeration bound {ENUMERATION_MAX_PLAYERS}")
    return Fraction(math.factorial(n - s) * math.factorial(s - 1), math.factorial(n))


def _bits(column: np.ndarray) -> int:
    """The bit length of the largest magnitude in ``column``, taken on Python ints, so -2**63 is 64 bits."""
    return max(int(column.max()), -int(column.min())).bit_length()


def _column(values) -> np.ndarray:
    """A sequence of ints as int64, or as Python ints where one is outside the int64 range."""
    try:
        return np.array(values, np.int64)
    except OverflowError:
        return np.array(values, object)


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
        :class:`PlayerSet`'s ``bits``: a non-empty list of known players
        (or one name), none repeated, naming a coalition that holds no
        value yet."""
        if not members:
            raise IdentifierError("members must be a non-empty list")
        mask = _mask_of(bits, members)
        if self.denominators[mask]:
            named = sorted(name for name, bit in bits.items() if mask & bit)
            raise IdentifierError("duplicate coalition {" + ", ".join(named) + "}")
        return mask

    def scaled(self) -> tuple[np.ndarray, int]:
        """x(S) = v(S) * D by mask (0 for the empty coalition), and D, the lcm
        of the denominators, for a table over every mask.

        x is an int64 column when no sum of x over coalitions of one size
        can reach 2**63: every bucket of one size holds at most
        C(n, n // 2) values, so bits(max |x|) + bits(C(n, n // 2)) <= 63
        suffices. Otherwise it is an object column of Python ints. The
        product numerator * (D // denominator) runs in int64 only when
        bits(max |numerator|) + bits(D) <= 63, since no factor passes D.

        Raises EnumerationBoundError past the enumeration bound, where the
        table holds only the coalitions given, and IncompleteGameError
        naming the first mask without a value, by its players' bit
        positions. Raises NumberError as soon as 2**n times the bits of D
        passes ``MAX_SCALED_BITS``. The distinct denominators join by
        :func:`balanced_fold` of pairwise lcms, and every lcm made is
        checked. Each divides D, so the verdict is D's; a refusal comes at
        the first subtree past the bound, with no lcm of a wide running
        value per denominator, which a one-by-one fold would take.
        """
        if isinstance(self.denominators, dict):
            raise EnumerationBoundError(self.n, ENUMERATION_MAX_PLAYERS)
        denominators = set(self.denominators)
        if 0 in denominators:
            mask = self.denominators.index(0)
            raise IncompleteGameError(tuple(f"#{i}" for i in range(self.n) if mask >> i & 1))
        limit = MAX_SCALED_BITS >> self.n

        def checked_lcm(a: int, b: int) -> int:
            scale = math.lcm(a, b)
            if scale.bit_length() > limit:
                raise NumberError(
                    f"the coalition values' common denominator passes {limit} bits, "
                    f"too wide to scale {1 << self.n} values to (at most {MAX_SCALED_BITS} bits in all)"
                )
            return scale

        scale = balanced_fold(checked_lcm, list(denominators))
        x = _column(self.numerators)
        bits = _bits(x) + scale.bit_length()  # bounds the bits of every x(S), as no factor passes D
        if bits <= _INT64_BITS:
            factors = np.array(self.denominators, np.int64)
            x *= np.floor_divide(scale, factors, out=factors)
        else:
            x = x.astype(object) * (scale // np.array(self.denominators, object))
        widest = math.comb(self.n, self.n // 2).bit_length()
        if bits + widest > _INT64_BITS:
            bits = _bits(x)
        fits = bits + widest <= _INT64_BITS
        return x.astype(np.int64 if fits else object, copy=False), scale


@dataclass(frozen=True)
class CharacteristicFunction:
    """Total map from non-empty coalitions to exact rational values.

    ``values`` is keyed by coalition bit-mask and must cover every one of
    the 2**n - 1 non-empty coalitions; the empty coalition is implicitly
    worth 0 and is never stored. The game holds them in one
    :class:`ValueTable` of integer pairs, and ``values`` is that table: a
    read-only Mapping of Fractions. A ValueTable over these players (as a
    parsed scenario holds) is used as it is; any other Mapping is read
    into a new one, its keys taken as masks by the :class:`Coalition`
    rule, the empty mask 0 excluded.
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
            for key, value in self.values.items():
                mask = Coalition(self.player_set, key).mask
                if not mask:
                    raise IdentifierError("the empty coalition takes no value: it is worth 0")
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
        player_set = players if isinstance(players, PlayerSet) else PlayerSet(players)
        table = ValueTable(player_set.n)
        for members, value in values.items():
            mask = table.mask_for(player_set.bits, members)
            table.numerators[mask], table.denominators[mask] = parse_pair(value)
        return cls(player_set, table)

    @property
    def n(self) -> int:
        return self.player_set.n

    @property
    def grand_value(self) -> Fraction:
        return self.values[(1 << self.n) - 1]

    def __call__(self, coalition: Coalition | int | Iterable[str] | str) -> Fraction:
        """v(coalition): of a Coalition of this game's player set; of one of
        another player set, read by its members' names; of a name or names,
        as PlayerSet.coalition reads them; of anything else (an int, a
        numpy integer or a 0-d array), as a mask by the Coalition rule."""
        if isinstance(coalition, Coalition):
            if coalition.player_set != self.player_set:
                coalition = self.player_set.coalition(coalition.members)
        elif _is_names(coalition):
            coalition = self.player_set.coalition(coalition)
        else:
            coalition = Coalition(self.player_set, coalition)
        if coalition.mask == 0:
            return Fraction(0)
        return self.values[coalition.mask]


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


@functools.cache
def _grid_layout(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]:
    """The fixed arrays :func:`_size_sums` reads an n-player table with, per
    side (rows by the high n - n // 2 players, then the transpose): the row
    masks in size order and where each size starts, the flat index of each
    row size and column (in that order) in an n + 1 by columns grid by
    total size, and the columns' player bits with a last column of ones."""
    low = n // 2
    layout = []
    for a, b in ((n - low, low), (low, n - low)):
        # built as flat lists of Python ints: a numpy sort, a shift or a nested list
        # would map more of numpy's code into the memory of every exact command
        order = sorted(range(1 << a), key=int.bit_count)
        sizes = [row.bit_count() for row in order]
        starts = list(map(sizes.index, range(a + 1)))
        place = [((p + column.bit_count()) << b) + column for p in range(a + 1) for column in range(1 << b)]
        members = [column >> i & 1 if i < b else 1 for column in range(1 << b) for i in range(b + 1)]
        layout.append((np.array(order), np.array(starts), np.array(place), np.array(members).reshape(-1, b + 1)))
    return tuple(layout)


def _size_sums(x: np.ndarray, n: int) -> tuple[list[int], list[list[int]]]:
    """T[s], the sum of x(S) over the coalitions of size s, and per player i
    the list of M[s], that sum over the S holding i, for s = 0..n.

    Reads the table as a grid, rows by the high players and columns by the
    low ones: sums the rows of each size, moves each sum to its total size
    (row size plus column size), and multiplies by the columns' bits. The
    transposed grid serves the high players. Every sum, partial or whole,
    adds coalitions of one size only.
    """
    table = x.reshape(1 << (n - n // 2), 1 << (n // 2))
    players = []
    for grid, (order, starts, place, members) in zip((table, table.T), _grid_layout(n)):
        by_size = np.zeros((n + 1, members.shape[0]), x.dtype)
        by_size.put(place, np.add.reduceat(grid[order], starts, axis=0))
        sums = by_size @ members
        players += sums[:, :-1].T.tolist()
    return sums[:, -1].tolist(), players  # either side's last column is T


def _payoffs_and_levers(game: CharacteristicFunction) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Shapley payoffs and eq3 levers A_i from the game's scaled value table.

    With D the lcm of the denominators, x(S) = v(S) * D is an int, and
    :func:`_size_sums` gives T[s] and M[s][i] from it in int64 where
    :meth:`ValueTable.scaled` allows. With c(s) = (n-s)!(s-1)! = n! W(s),
    c(0) = c(n+1) = 0, n! D A_i is the sum over s of c(s) M[s][i]. Each S
    without i is S' \\ {i} for one S' of size |S| + 1 holding i, so
    n! D phi_i is the sum over s of c(s) M[s][i] - c(s+1) (T[s] - M[s][i]).
    The weights, up to 57 bits at n = 20, multiply only these n**2 sums.
    """
    n = game.n
    scaled, scale = game.values.scaled()
    totals, players = _size_sums(scaled, n)
    del scaled  # 8 MiB at n = 20, not needed while the Fractions are built
    c = [0] + [math.factorial(n - s) * math.factorial(s - 1) for s in range(1, n + 1)] + [0]
    after = c[1:]
    total = sum(map(mul, after, totals))
    levers = [sum(map(mul, c, m)) for m in players]
    payoffs = [a + sum(map(mul, after, m)) - total for a, m in zip(levers, players)]
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
    over their common denominator: the :meth:`ValueTable.scaled` column,
    read once as a list of Python ints, since the pair loop indexes it
    3**n times.
    """
    violations: list[SuperadditivityViolation] = []
    scaled = game.values.scaled()[0].tolist()
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
