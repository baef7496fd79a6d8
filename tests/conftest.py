from fractions import Fraction

import pytest

from chainshare.game import CharacteristicFunction

# Bundled three-player case study, in formula units.
CASE_VALUES = {
    ("A",): 1000,
    ("B",): 500,
    ("C",): 300,
    ("A", "B"): 2000,
    ("A", "C"): 1500,
    ("B", "C"): 1200,
    ("A", "B", "C"): 3000,
}

CASE_FACTORS = ("0.6648", "0.2633", "0.0703")

CASE_CLASSICAL = (Fraction(4150, 3), Fraction(2950, 3), Fraction(1900, 3))


@pytest.fixture
def case_game() -> CharacteristicFunction:
    return CharacteristicFunction.from_values(("A", "B", "C"), CASE_VALUES)


def pytest_collection_modifyitems(config, items):
    # Without -m, a case marked ci is deselected: tier-1 runs everything else.
    if not config.option.markexpr:
        ci = [item for item in items if item.get_closest_marker("ci")]
        config.hook.pytest_deselected(items=ci)
        items[:] = [item for item in items if item not in ci]
