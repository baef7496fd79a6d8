"""Exact rational parsing and display formatting.

Game values travel through the package as :class:`fractions.Fraction` so
that allocation identities (efficiency, telescoping) are equalities
rather than tolerances. Every number the engines read (a coalition
value, a factor, an oracle's answer) goes through one reader,
:func:`parse_pair`: decimal strings, ratio strings, ints, Decimals,
Fractions and floats become an exact integer (numerator, denominator)
pair, with no Fraction built for a plain decimal or ratio string.
:func:`balanced_fold` joins a list of exact values (sums, lcms) as a
balanced tree, so that most joins are of small operands.
"""

from __future__ import annotations

import functools
import re
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InputTypeError, NumberError

RationalLike = int | str | Fraction | Decimal | float

# Digits a number string may need, in each side of a ratio or in a decimal's
# expansion: more make integers too large to build or print. exact_decimal
# writes no longer expansion, so serialized scenarios parse again.
MAX_DIGITS = 1000

# A plain ASCII decimal ("-12.50", "7") or ratio with a non-zero denominator
# ("4150/3", "-1/3"), a minus sign only in front.
_PLAIN = re.compile(r"(-?[0-9]+)(?:\.([0-9]+))?|(-?[0-9]+)/([0-9]*[1-9][0-9]*)").fullmatch


def _check_size(text: str) -> None:
    if len(text) <= MAX_DIGITS and "e" not in text and "E" not in text:
        return
    for side in text.split("/"):
        try:
            number = Decimal(side)
        except InvalidOperation:
            raise NumberError(f"not a number within {MAX_DIGITS} digits: {text[:40]!r}") from None
        _, digits, exponent = number.as_tuple()
        if number.is_finite() and max(len(digits) + exponent, 1) + max(-exponent, 0) > MAX_DIGITS:
            raise NumberError(f"number needs more than {MAX_DIGITS} digits")


@functools.cache
def _power_of_ten(places: int) -> int:
    return 10**places  # one int per length, shared by every pair with that many places


def parse_pair(value: RationalLike) -> tuple[int, int]:
    """``value`` as an exact (numerator, denominator) pair, the denominator positive.

    Strings may be decimal ("1000", "-3.25", "0.6648") or a ratio of
    integers ("4150/3") that need at most ``MAX_DIGITS`` digits. A plain
    ASCII decimal or ratio string is read straight into ints, and its pair
    need not be in lowest terms ("1.50" gives (150, 100)); any other string
    goes through ``Fraction``. An int, float, Fraction or Decimal gives its
    ``as_integer_ratio()``: a float is a dyadic rational, so no rounding
    happens here, and a NaN or an infinity is a NumberError. A bool or any
    other type is an InputTypeError.
    """
    if type(value) is str and len(value) <= MAX_DIGITS:
        plain = _PLAIN(value)
        if plain:
            whole, places, numerator, denominator = plain.groups("")
            if numerator:
                return int(numerator), int(denominator)
            return int(whole + places), _power_of_ten(len(places))
    if type(value) is Fraction:  # an oracle's usual answer, read without the checks below
        return value.as_integer_ratio()
    if isinstance(value, str):
        _check_size(value)
        try:
            return Fraction(value.strip()).as_integer_ratio()
        except (ValueError, ZeroDivisionError) as exc:
            raise NumberError(f"not a decimal or ratio string: {value!r}") from exc
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction, Decimal)):
        raise InputTypeError(f"cannot interpret {type(value).__name__} as a rational")
    try:
        return value.as_integer_ratio()
    except (ValueError, OverflowError) as exc:
        raise NumberError(f"not a finite number: {value!r}") from exc


def balanced_fold(combine: Callable, items: Sequence):
    """``items``, a non-empty list, joined by ``combine`` as a balanced tree:
    each index range is split at its middle, its halves folded depth first,
    the left one first, and the two joined. One item comes back as it is.
    An item takes part in at most ceil(log2 len(items)) joins, so exact sums
    and lcms stay between small operands, not the whole running value."""

    def fold(low: int, high: int):
        if high - low <= 1:
            return items[low]
        middle = (low + high) // 2
        return combine(fold(low, middle), fold(middle, high))

    return fold(0, len(items))


def exact_decimal(value: Fraction) -> str | None:
    """Shortest exact decimal form, or None when one does not exist.

    A fraction has a finite decimal expansion iff its reduced denominator
    is of the form 2**a * 5**b. A non-integer expansion with more than
    ``MAX_DIGITS`` digits counts as none. An integer with more digits than
    Python prints (``sys.get_int_max_str_digits()``) raises NumberError,
    here and in :func:`exact_string`.
    """
    den = value.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return None
    places = max(twos, fives)
    if places == 0:
        return _digits(value.numerator)
    if places >= MAX_DIGITS:
        return None
    scaled = value.numerator * 10**places // value.denominator
    if abs(scaled) >= _power_of_ten(MAX_DIGITS):
        return None
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(places + 1, "0")
    whole, frac = digits[:-places], digits[-places:]
    frac = frac.rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


def exact_string(value: Fraction) -> str:
    """Exact text form: finite decimal when possible, else "p/q"."""
    dec = exact_decimal(value)
    if dec is not None:
        return dec
    return f"{_digits(value.numerator)}/{_digits(value.denominator)}"


def _digits(number: int) -> str:
    """``str(number)``, or NumberError past Python's limit on the digits an int may print."""
    try:
        return str(number)
    except ValueError:
        raise NumberError(
            f"an exact value has more than {sys.get_int_max_str_digits()} digits, too many to print"
        ) from None


def format_fixed(value: Fraction | float, places: int = 4) -> str:
    """Render with a fixed number of decimals, rounding ties to even.

    Rounding happens on the exact rational, so the rendered digits are a
    pure function of the value (display only; engines never consume this).
    """
    numerator, denominator = (value if isinstance(value, Fraction) else float(value)).as_integer_ratio()
    q = 10**places
    floor, remainder = divmod(numerator * q, denominator)
    if 2 * remainder > denominator or (2 * remainder == denominator and floor % 2):
        floor += 1
    sign = "-" if floor < 0 else ""
    magnitude = abs(floor)
    if places == 0:
        return f"{sign}{magnitude}"
    return f"{sign}{magnitude // q}.{magnitude % q:0{places}d}"
