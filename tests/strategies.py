"""Hypothesis strategies for scenario documents, mostly well formed and sometimes not.

Each field is sometimes any JSON value instead, and a number sometimes
malformed or oversized, so the generated documents reach every parser
rule and, when they pass, the engines behind each command.
"""

from __future__ import annotations

import functools
import json

from hypothesis import strategies as st

from chainshare.rational import MAX_DIGITS

NAMES = ("A", "B", "C")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**6), 10**6) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)

# Valid numbers eight times as often as the rest.
numbers = st.sampled_from(["1", "0.5", "2/3", "-1", "0", "12.25", "1/7", "3"] * 8 + [
    "1e400", "1e-400", "x", "1/0", "9" * 1001, 1.5, True, 7,
])

ratios = st.sampled_from(["1", "2", "3", "9", "1/2", "1/9"])

_roll = st.integers(0, 15)


@st.composite
def _reciprocal(draw, size: int) -> list[list[str]]:
    rows = [["1"] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            rows[i][j] = draw(ratios)
            p, _, q = rows[i][j].partition("/")
            rows[j][i] = f"{q or 1}/{p}"
    return rows


def _matrix(size: int):
    rows = st.lists(numbers, min_size=size, max_size=size)
    return _reciprocal(size) | st.lists(rows, min_size=size, max_size=size)


_entries = st.fixed_dictionaries(
    {"members": st.lists(st.sampled_from(NAMES) | json_values, max_size=3), "value": numbers}
)


@functools.cache
def _optional_fields(players: tuple[str, ...], criteria: tuple[str, ...]) -> dict:
    """Strategies for the optional keys, built once per player and criterion list."""
    uniform = {p: f"1/{len(players)}" for p in players}
    shares = st.just(uniform) | st.fixed_dictionaries({p: numbers for p in players})
    return {
        "factors": shares,
        "mode": st.sampled_from(["eq3", "grand", "both"]),
        "normalize_factors": st.booleans(),
        "ahp": st.fixed_dictionaries({
            "criteria": st.just(list(criteria)),
            "criteria_matrix": _matrix(len(criteria)),
            "alternatives": st.fixed_dictionaries({c: shares | _matrix(len(players)) for c in criteria}),
        }),
    }


@st.composite
def scenario_documents(draw) -> dict:
    def field(value):  # about one in sixteen is any JSON value instead
        return draw(json_values) if draw(_roll) == 0 else value

    players = tuple(draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True)))
    complete = [
        {"members": [p for i, p in enumerate(players) if mask >> i & 1], "value": draw(numbers)}
        for mask in range(1, 1 << len(players))
    ]
    doc = {
        "players": field(list(players)),
        "coalitions": field(complete if draw(_roll) > 3 else draw(st.lists(_entries, max_size=4))),
    }
    if draw(_roll) == 0:
        doc["extra"] = draw(json_values)
    criteria = tuple(draw(st.lists(st.sampled_from(["k1", "k2", "k3"]), min_size=1, max_size=3, unique=True)))
    optional = _optional_fields(players, criteria)
    keys = draw(st.lists(st.sampled_from(["mode", "normalize_factors"]), unique=True, max_size=2))
    both = ["factors", "ahp"] if draw(_roll) == 0 else []
    keys += draw(st.sampled_from([[], ["factors"], ["ahp"], ["ahp"], both]))
    for key in keys:
        doc[key] = field(draw(optional[key]))
    return doc


scenario_texts = scenario_documents().map(json.dumps) | st.text(max_size=40)


# Number strings in and around the forms Fraction(s.strip()) reads: plain
# ASCII decimals and ratios, and every variation the general reader must
# settle the same way (underscores, other scripts' digits, whitespace,
# signs, bare points, exponents, zero denominators, lengths at the bound).
_digit_runs = st.text("0123456789", min_size=1, max_size=8) | st.sampled_from(
    ["0", "00", "1_000", "1__0", "_1", "1_", "١٢", "٣", "١_٢", "²"]
)
_signs = st.sampled_from(["", "", "-", "+", "--", "+-"])
_spaces = st.sampled_from(["", "", " ", "\t", "\n ", "\u00a0"])
_tails = st.one_of(
    st.just(""),
    _digit_runs.map(lambda d: "." + d),
    st.sampled_from([".", "/0", "/00", "/", "e", "E+", "/-3", ". 5"]),
    # exponents up to 9999: Fraction builds 10**exponent, however many digits that is
    st.tuples(st.sampled_from(["e", "E", "e-", "E+", "e+"]), _digit_runs.filter(lambda d: len(d) <= 4)).map("".join),
    st.tuples(st.sampled_from(["/", " / ", "/ "]), _digit_runs).map("".join),
)
_short_numbers = st.tuples(_spaces, _signs, _digit_runs | st.just(""), _tails, _spaces).map("".join)


@st.composite
def _long_numbers(draw) -> str:
    """A plain or ratio number string of about MAX_DIGITS characters."""
    length = draw(st.integers(MAX_DIGITS - 3, MAX_DIGITS + 3))
    head = draw(st.sampled_from(["", "-", "0.", "-1.", "7/", " "]))
    return head + "9" * (length - len(head))


# Ratios with a sign in front, on either side or both, some with a zero denominator.
_signed_ratios = st.tuples(
    st.sampled_from(["-", "-", "-0", "+", "--"]), _digit_runs, st.sampled_from(["/", "/-"]), _digit_runs
).map("".join)

number_texts = _short_numbers | _signed_ratios | _long_numbers() | st.text("0123456789._/-+eE ١", max_size=8)

# What a scenario may hold where a number belongs: the strings above, JSON
# ints (some at the digit bound) and bools.
_sizes = st.integers(MAX_DIGITS - 2, MAX_DIGITS + 2)
scenario_numbers = number_texts | st.integers() | st.booleans() | st.builds(
    lambda places, sign: sign * (10**places - 1), _sizes, st.sampled_from([1, -1])
)
