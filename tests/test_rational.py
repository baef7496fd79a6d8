import math
import random
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainshare.errors import InputTypeError, NumberError
from chainshare.rational import (
    MAX_DIGITS,
    balanced_fold,
    decimal_power,
    exact_decimal,
    exact_string,
    format_fixed,
    parse_pair,
)

from .oracles import fraction_format_fixed
from .strategies import number_texts


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("1000", Fraction(1000)),
        ("0.6648", Fraction(831, 1250)),
        ("-3.25", Fraction(-13, 4)),
        ("4150/3", Fraction(4150, 3)),
        (" 2/4 ", Fraction(1, 2)),
        (7, Fraction(7)),
        (Fraction(1, 3), Fraction(1, 3)),
        (Decimal("0.10"), Fraction(1, 10)),
        (0.5, Fraction(1, 2)),
        ("1e3", Fraction(1000)),
        ("1e999", Fraction(10**999)),
        ("-1E-999", Fraction(-1, 10**999)),
        ("9" * 1000, Fraction(10**1000 - 1)),
        ("1_0e9_9_0", Fraction(10**991)),
    ],
)
def test_parse_rational(raw, expected):
    assert Fraction(*parse_pair(raw)) == expected


@pytest.mark.parametrize(
    "raw",
    ["", "12,5", "x", "1/0", float("nan"), float("inf"),
     "1e1000", "1e-1000", "0.5e-999", "1e300000", "1e" + "9" * 5000, "1" * 1001, "1/" + "1" * 1001],
)
def test_parse_rational_rejects(raw):
    with pytest.raises(NumberError):
        parse_pair(raw)


@pytest.mark.parametrize(
    "text, power",
    [("7", 1), ("-12.50", 100), ("-00.00", 100), ("0." + "0" * (MAX_DIGITS - 3) + "1", 10 ** (MAX_DIGITS - 2)),
     ("4150/3", None), ("1e3", None), ("+1", None), ("5.", None), (".5", None), ("\u0661", None), ("", None),
     ("0." + "0" * (MAX_DIGITS - 2) + "1", None)],
    ids=lambda value: str(value)[:12],
)
def test_decimal_power_is_a_plain_decimals_denominator(text, power):
    """The column pass's power of ten for a plain decimal is parse_pair's
    denominator; any other text, or one past MAX_DIGITS, has none."""
    assert decimal_power(text) == power
    if power is not None:
        assert parse_pair(text)[1] == power


@pytest.mark.parametrize(
    "text", ["1e1000", "-1E+1000", "1e-1000", "0.5e-999", "1e3000000", "1" * 1001], ids=lambda text: text[:12]
)
def test_a_decimal_whose_expansion_needs_too_many_digits_is_refused_before_it_is_built(text):
    # Decimal("1e3000000") once built a numerator of about 10 million bits, in about 2 s
    began = time.perf_counter()
    with pytest.raises(NumberError, match=f"more than {MAX_DIGITS} digits"):
        parse_pair(Decimal(text))
    assert time.perf_counter() - began < 0.5


def test_a_decimal_at_the_digit_bound_reads_exactly():
    assert parse_pair(Decimal("1e999")) == (10**999, 1)
    assert Fraction(*parse_pair(Decimal("-1E-999"))) == Fraction(-1, 10**999)
    assert Fraction(*parse_pair(Decimal("9" * 1000))) == 10**1000 - 1


class Tagged(Fraction):
    pass


def test_parse_rational_returns_an_exact_fraction_unchanged():
    assert parse_pair(Fraction(10**40 + 1, 7)) == (10**40 + 1, 7)
    numerator, denominator = parse_pair(Tagged(3, 4))
    assert type(numerator) is int and type(denominator) is int and (numerator, denominator) == (3, 4)


# Every kind of number the pair reader takes, the non-finite ones included.
exact_numbers = (
    st.integers()
    | st.fractions()
    | st.fractions().map(lambda value: Tagged(value.numerator, value.denominator))
    | st.floats()
    | st.decimals()
    | st.sampled_from([Decimal(text) for text in ("NaN", "-NaN", "sNaN", "Infinity", "-Infinity")])
)


@settings(max_examples=400, deadline=2000)
@given(value=exact_numbers)
def test_pair_reader_reads_every_number_fraction_reads(value):
    try:
        expected = Fraction(value)
    except (ValueError, OverflowError):  # a NaN or an infinity
        with pytest.raises(NumberError, match="not a finite number"):
            parse_pair(value)
        return
    if isinstance(value, Decimal):  # read as its string is, a refusal for too many digits included
        assert _outcome(value) == _outcome(str(value))
        if isinstance(_outcome(value), str):
            return
    numerator, denominator = parse_pair(value)
    assert type(numerator) is int and type(denominator) is int and denominator > 0
    assert Fraction(numerator, denominator) == expected


def _outcome(value):
    """The Fraction :func:`parse_pair` gives for ``value``, or the message of the NumberError it raises."""
    try:
        result = parse_pair(value)
    except NumberError as exc:
        return str(exc)
    return Fraction(*result)


@settings(max_examples=400, deadline=2000)
@given(text=number_texts)
def test_pair_reader_reads_what_fraction_reads(text):
    try:
        expected = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        expected = None
    got = _outcome(text)
    if isinstance(got, Fraction):
        assert got == expected
        numerator, denominator = parse_pair(text)
        assert type(numerator) is int and type(denominator) is int and denominator > 0
    elif expected is not None:  # Fraction reads it, but it needs too many digits
        assert "digits" in got and (len(text) > MAX_DIGITS or "e" in text.lower())


@pytest.mark.parametrize(
    "text,pair",
    [("1.50", (150, 100)), ("-0.5", (-5, 10)), ("-0", (0, 1)), ("007", (7, 1)), ("6/4", (6, 4)), ("0/5", (0, 5)),
     ("-6/4", (-6, 4)), ("-0/5", (0, 5))],
)
def test_pair_reader_keeps_plain_strings_unreduced(text, pair):
    assert parse_pair(text) == pair


def test_parse_rational_rejects_bools_and_objects():
    with pytest.raises(InputTypeError):
        parse_pair(True)
    with pytest.raises(InputTypeError):
        parse_pair(object())


@pytest.mark.parametrize(
    "value,expected",
    [
        (Fraction(1000), "1000"),
        (Fraction(831, 1250), "0.6648"),
        (Fraction(-13, 4), "-3.25"),
        (Fraction(-1, 2), "-0.5"),
        (Fraction(-3, 10), "-0.3"),
        (Fraction(0), "0"),
        (Fraction(30, 100), "0.3"),
        (Fraction(25, 1000), "0.025"),
    ],
)
def test_exact_decimal(value, expected):
    assert exact_decimal(value) == expected
    assert Fraction(*parse_pair(expected)) == value


def test_exact_decimal_undefined_beyond_the_size_bound():
    assert len(exact_decimal(Fraction(1, 2**999)).replace(".", "")) == 1000
    assert exact_decimal(Fraction(1, 2**1000)) is None
    assert exact_string(Fraction(1, 2**1000)) == f"1/{2**1000}"
    # whose expansion's digits alone pass the interpreter's limit on printing an int
    assert exact_string(Fraction(1, 2**10_000)) == f"1/{2**10_000}"


def test_a_value_with_too_many_digits_to_print_is_a_number_error():
    # past the interpreter's 4,300-digit default limit on printing an int
    with pytest.raises(NumberError, match="too many to print"):
        exact_string(Fraction(1, 3**10_000))
    with pytest.raises(NumberError, match="too many to print"):
        exact_decimal(Fraction(10**5_000))


def test_exact_decimal_undefined_for_repeating():
    assert exact_decimal(Fraction(1, 3)) is None
    assert exact_string(Fraction(1, 3)) == "1/3"
    assert exact_string(Fraction(-4150, 3)) == "-4150/3"
    assert exact_string(Fraction(5, 4)) == "1.25"


@pytest.mark.parametrize(
    "value,expected",
    [
        (Fraction(4150, 3), "1383.3333"),
        (Fraction(259283, 300), "864.2767"),
        (Fraction(135379, 600), "225.6317"),
        (Fraction(39079, 360), "108.5528"),
        (Fraction(-4673, 30), "-155.7667"),
        (Fraction(1, 2), "0.5000"),
        (Fraction(0), "0.0000"),
    ],
)
def test_format_fixed(value, expected):
    assert format_fixed(value) == expected


def test_format_fixed_ties_to_even():
    assert format_fixed(Fraction(25, 100000)) == "0.0002"
    assert format_fixed(Fraction(35, 100000)) == "0.0004"
    assert format_fixed(Fraction(-25, 100000)) == "-0.0002"
    assert format_fixed(Fraction(15, 10), places=0) == "2"
    assert format_fixed(Fraction(25, 10), places=0) == "2"


def test_format_fixed_accepts_floats():
    assert format_fixed(1.5, places=2) == "1.50"


# ratios, exact ties at each place count (a denominator of 2 * 10**k), negatives and floats
FIXED_VALUES = st.one_of(
    st.fractions(max_denominator=10**9),
    st.builds(lambda k, e: Fraction(2 * k + 1, 2 * 10**e), st.integers(-10**6, 10**6), st.integers(0, 7)),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=400, deadline=None)
@given(FIXED_VALUES, st.sampled_from([0, 2, 4, 6]))
def test_format_fixed_matches_the_fraction_reference(value, places):
    assert format_fixed(value, places) == fraction_format_fixed(value, places)


@pytest.mark.parametrize("seed", range(4))
def test_the_balanced_fold_sums_and_joins_exactly(seed):
    rng = random.Random(seed)
    for length in range(1, 70):
        fractions = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(length)]
        assert balanced_fold(add, fractions) == sum(fractions, Fraction(0))
        ints = [rng.randint(1, 10**4) for _ in range(length)]
        assert balanced_fold(math.lcm, ints) == math.lcm(*ints)


def test_the_balanced_fold_returns_one_item_without_a_join():
    item = Fraction(3, 7)

    def refuse(a, b):
        raise AssertionError("joined a one-item list")

    assert balanced_fold(refuse, [item]) is item


@pytest.mark.parametrize("length", [2, 3, 5, 7, 8, 9, 100, 1023, 1024, 1025])
def test_the_balanced_fold_joins_each_item_at_most_ceil_log2_times(length):
    joins = Counter()

    def join(a, b):
        joins.update(a + b)
        return a + b

    # the leaves come back in their order, so every half was joined left first
    assert balanced_fold(join, [(i,) for i in range(length)]) == tuple(range(length))
    assert max(joins.values()) <= math.ceil(math.log2(length))
