import pytest

from chainshare import report
from chainshare.game import CharacteristicFunction, SuperadditivityViolation, validate_game
from chainshare.report import ReportDocument, render


@pytest.fixture
def violated():
    # every pair of singletons is worth more apart than together
    game = CharacteristicFunction.from_values(
        ("A", "B", "C"),
        {("A",): 5, ("B",): 5, ("C",): 5, ("A", "B"): 1, ("A", "C"): 1, ("B", "C"): 1, ("A", "B", "C"): 2},
    )
    return ReportDocument("validate", game.player_set.players, validation=validate_game(game))


def test_no_format_builds_rows_it_does_not_print(violated, monkeypatch):
    calls = {"fixed": 0, "str": 0}
    fixed, text = report._fixed, SuperadditivityViolation.__str__

    def counted_fixed(value):
        calls["fixed"] += 1
        return fixed(value)

    def counted_str(self):
        calls["str"] += 1
        return text(self)

    monkeypatch.setattr(report, "_fixed", counted_fixed)
    monkeypatch.setattr(SuperadditivityViolation, "__str__", counted_str)
    violations = len(violated.validation.violations)
    assert violations > 1
    table = render(violated, "table")  # one line per violation, no value columns
    assert calls == {"fixed": 0, "str": violations}
    assert table.count(" < ") == violations
    csv = render(violated, "csv")  # value columns, no violation lines
    assert calls == {"fixed": 3 * violations, "str": violations}
    assert csv.count("\n") == violations + 1

