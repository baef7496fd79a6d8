import hashlib
import json

import numpy as np
import pytest

from chainshare import report
from chainshare.cli import main
from chainshare.game import CharacteristicFunction, SuperadditivityViolation, shapley_exact, validate_game
from chainshare.report import FORMATS, ReportDocument, render
from chainshare.scenario import bundled_scenario


@pytest.fixture
def game():
    # every pair of singletons is worth more apart than together
    return CharacteristicFunction.from_values(
        ("A", "B", "C"),
        {("A",): 5, ("B",): 5, ("C",): 5, ("A", "B"): 1, ("A", "C"): 1, ("B", "C"): 1, ("A", "B", "C"): 2},
    )


@pytest.fixture
def validation(game):
    return validate_game(game)


@pytest.fixture
def violated(validation):
    return ReportDocument("validate", validation.player_set.players, (report.violations(validation),), ok=validation.ok)


def test_no_format_builds_rows_it_does_not_print(validation, violated, monkeypatch):
    calls = {"fixed": 0, "str": 0, "num": 0}
    fixed, text, num = report._fixed, SuperadditivityViolation.__str__, report._num

    def counted(key, function):
        def wrapper(*args):
            calls[key] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(report, "_fixed", counted("fixed", fixed))
    monkeypatch.setattr(report, "_num", counted("num", num))
    monkeypatch.setattr(SuperadditivityViolation, "__str__", counted("str", text))
    violations = len(validation.violations)
    assert violations > 1
    table = render(violated, "table")  # one line per violation, no value columns
    assert calls == {"fixed": 0, "str": violations, "num": 0}
    assert table.count(" < ") == violations
    csv = render(violated, "csv")  # value columns, no violation lines
    assert calls == {"fixed": 3 * violations, "str": violations, "num": 0}
    assert csv.count("\n") == violations + 1
    structured = render(violated, "structured")  # exact entries, neither rows nor lines
    assert calls == {"fixed": 3 * violations, "str": violations, "num": 3 * violations}
    assert len(json.loads(structured)["validation"]["violations"]) == violations


@pytest.mark.parametrize("format", FORMATS)
def test_a_document_renders_alike_every_time(game, validation, format):
    players = game.player_set.players
    sections = (report.classical(players, shapley_exact(game)), report.violations(validation))
    doc = ReportDocument("shapley", players, sections)
    first = render(doc, format)
    assert first.count("0.6667") == {"table": 3, "csv": 3, "structured": 0}[format]
    assert render(doc, format) == first


def test_a_document_without_sections_renders_in_every_format():
    doc = ReportDocument("shapley", ("A",))
    assert render(doc, "table") == "Players: A\n"
    assert render(doc, "csv") == ""
    assert json.loads(render(doc, "structured")) == {"kind": "shapley", "players": ["A"]}


# The game fixture above, plus factors that leave every adjusted payoff
# below its standalone value; the third name needs quoting in CSV.
VIOLATED_SCENARIO = json.dumps({
    "players": ["A", "B", 'C "x", y'],
    "coalitions": [
        {"members": members, "value": value}
        for members, value in [(["A"], "5"), (["B"], "5"), (['C "x", y'], "5"), (["A", "B"], "1"),
                               (["A", 'C "x", y'], "1"), (["B", 'C "x", y'], "1"),
                               (["A", "B", 'C "x", y'], "2")]
    ],
    "factors": {"A": "0.5", "B": "0.3", 'C "x", y': "0.2"},
})

PINNED_COMMANDS = {
    "shapley": ["shapley"],
    "allocate": ["allocate"],
    "allocate-grand": ["allocate", "--mode", "grand", "--normalize"],
    "ahp-weights": ["ahp", "weights"],
    "ahp-synthesize": ["ahp", "synthesize"],
    "sample": ["sample", "--permutations", "500", "--seed", "11", "--chunk-size", "64"],
    "validate-strict": ["validate", "--strict"],
}

# SHA-256 of [exit code, stdout, stderr] in the table, CSV and structured
# formats, per scenario and command line, with the numpy version that the
# sampler's rng line names replaced by "VERSION".
PINNED_DIGESTS = {
    ("paper_case", "shapley"): "f0f6896e08705dba6237c2ca63f94c6e790d5d88bae10defc7f79a3d7e0f2f7e",
    ("paper_case", "allocate"): "aaca57a2f04b3dbc35068fab872efba564d245cd06239890f1ee1758bec6ad1b",
    ("paper_case", "allocate-grand"): "fa77757f5c2f3d281f1c2c775b35bcbe3ab2d0950a738ebecd8efe4bbcad3fc2",
    ("paper_case", "ahp-synthesize"): "b4d3701e811f292b9231c396e5c9b748281cf85d7880909b604b7ed78a4e1db5",
    ("paper_case", "sample"): "9921eddd9915b21970eb087bdc50067a76e0638b97eeb348bcc7afdbe32a365d",
    ("paper_case", "validate-strict"): "471fd86f9f16865ce5c2ec03012fa84d638aef9ec66d6649cfe28c4ccfbabce2",
    ("paper_ahp", "shapley"): "f0f6896e08705dba6237c2ca63f94c6e790d5d88bae10defc7f79a3d7e0f2f7e",
    ("paper_ahp", "allocate"): "c2187666e8433de9a059670d79e4c7964ae7235bcb239c34ec19631fb5904755",
    ("paper_ahp", "allocate-grand"): "97151cebbec96b1fb66455416743b20b501cdaef7a00b721a3f2b99ecc199633",
    ("paper_ahp", "ahp-weights"): "3fe9293b893aa993a1b32fe5033df915fdaa7a5849e0af73a5d31a9c0c5cbb5f",
    ("paper_ahp", "ahp-synthesize"): "458eaccf1cff6636bd6d806d6701e710654346a828048b24c990099c391056ca",
    ("paper_ahp", "sample"): "9921eddd9915b21970eb087bdc50067a76e0638b97eeb348bcc7afdbe32a365d",
    ("paper_ahp", "validate-strict"): "471fd86f9f16865ce5c2ec03012fa84d638aef9ec66d6649cfe28c4ccfbabce2",
    ("violated", "shapley"): "a30f9377242776772455238a8b2713c822cff5e0a73e10ef837b81bf3941bb0f",
    ("violated", "allocate"): "2791b1deeb6686296eee635ea8477e52cd9091ba79da8b719d54be2fee684c7c",
    ("violated", "allocate-grand"): "26bf42790ca58738265a4f94e8c372a630a7b4765c2c434d78465ebfe6275893",
    ("violated", "sample"): "3e827863cefe4e1bb6edef54ecbe96b35e1fb69ef2c26b6cf76a0798d2de0085",
    ("violated", "validate-strict"): "5c3649d2d3271c43cc1bd6ace36f12af4955225a28c889ac8469424d3020f648",
}


@pytest.mark.parametrize("scenario, command", list(PINNED_DIGESTS))
def test_report_bytes_are_pinned(scenario, command, tmp_path, capsys):
    if scenario == "violated":
        path = tmp_path / "violated.scenario"
        path.write_text(VIOLATED_SCENARIO, encoding="utf-8")
    else:
        path = bundled_scenario(scenario)
    words = PINNED_COMMANDS[command]
    split = 2 if words[0] == "ahp" else 1
    outcomes = []
    for fmt in ("table", "csv", "structured"):
        code = main([*words[:split], str(path), *words[split:], "--format", fmt])
        captured = capsys.readouterr()
        outcomes.append([code, captured.out.replace(f"numpy=={np.__version__}", "numpy==VERSION"), captured.err])
    digest = hashlib.sha256(json.dumps(outcomes).encode("utf-8")).hexdigest()
    assert digest == PINNED_DIGESTS[scenario, command]
