import csv
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainshare import cli
from chainshare.cli import build_parser, main
from chainshare.report import FORMATS
from chainshare.sampling import MAX_CHUNK_SIZE
from chainshare.scenario import bundled_scenario, load_scenario, scenario_hierarchy

from .child import run_child
from .strategies import scenario_texts

CASE_PATH = str(bundled_scenario("paper_case"))
HIERARCHY_PATH = str(bundled_scenario("paper_ahp"))

SHAPLEY_CSV = "player,classical\nA,1383.3333\nB,983.3333\nC,633.3333\n"

ALLOCATE_EQ3_CSV = (
    "player,classical,adjusted,delta_g,delta_v\n"
    "A,1383.3333,2018.6444,0.3315,635.3111\n"
    "B,983.3333,864.2767,-0.0700,-119.0567\n"
    "C,633.3333,225.6317,-0.2630,-407.7017\n"
)


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shapley_csv(capsys):
    code, out, err = run(capsys, "shapley", CASE_PATH, "--format", "csv")
    assert code == 0 and err == ""
    assert out == SHAPLEY_CSV


def test_allocate_eq3_csv(capsys):
    code, out, _ = run(capsys, "allocate", CASE_PATH, "--mode", "eq3", "--format", "csv")
    assert code == 0
    assert out == ALLOCATE_EQ3_CSV


def test_allocate_default_mode_comes_from_scenario(capsys):
    code, out, _ = run(capsys, "allocate", CASE_PATH, "--format", "csv")
    assert code == 0
    assert out == ALLOCATE_EQ3_CSV  # the bundled scenario pins mode eq3


def test_allocate_table_shows_gap_and_warning(capsys):
    code, out, _ = run(capsys, "allocate", CASE_PATH, "--mode", "eq3")
    assert code == 0
    assert "efficiency gap: 108.5528" in out
    assert "below standalone value for C" in out
    code, out, _ = run(capsys, "allocate", CASE_PATH, "--mode", "grand")
    assert code == 0
    assert "2377.7333" in out and "-155.7667" in out
    assert "efficiency gap: -4.8000" in out


def test_allocate_normalize_flag(capsys):
    code, out, _ = run(capsys, "allocate", CASE_PATH, "--mode", "grand", "--normalize", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["adjusted"]["efficiency_gap"]["exact"] == "0"


def test_hierarchy_factors_leave_no_efficiency_gap(capsys):
    for flags in ([], ["--normalize"]):
        code, out, _ = run(capsys, "allocate", HIERARCHY_PATH, "--mode", "grand", "--format", "structured", *flags)
        assert code == 0
        doc = json.loads(out)
        assert doc["adjusted"]["efficiency_gap"]["exact"] == "0"
        assert sum(Fraction(f["exact"]) for f in doc["factors"].values()) == 1


def test_structured_output_carries_exact_values(capsys):
    code, out, _ = run(capsys, "shapley", CASE_PATH, "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "shapley"
    assert doc["classical"]["A"]["exact"] == "4150/3"
    assert doc["classical"]["A"]["float"] == pytest.approx(1383.3333333333333)


def test_validate_clean(capsys):
    code, out, _ = run(capsys, "validate", CASE_PATH)
    assert code == 0
    assert "no superadditivity violations" in out


def test_validate_with_violations(tmp_path, capsys):
    scenario = tmp_path / "bad.scenario"
    scenario.write_text(json.dumps({
        "players": ["1", "2"],
        "coalitions": [
            {"members": ["1"], "value": "10"},
            {"members": ["2"], "value": "5"},
            {"members": ["1", "2"], "value": "5"},
        ],
    }))
    code, out, _ = run(capsys, "validate", str(scenario))
    assert code == 0  # diagnostics are warnings by default
    assert "5 < 10 + 5" in out
    code, _, _ = run(capsys, "validate", str(scenario), "--strict")
    assert code == 1
    code, out, _ = run(capsys, "validate", str(scenario), "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "left,right,left_value,right_value,union_value"
    assert "1,2,10.0000,5.0000,5.0000" in out


def test_ahp_weights(capsys):
    code, out, _ = run(capsys, "ahp", "weights", HIERARCHY_PATH)
    assert code == 0
    assert "innovation-investment" in out
    assert "CR = 0.0037 -> pass" in out
    code, out_geo, _ = run(capsys, "ahp", "weights", HIERARCHY_PATH, "--method", "geometric")
    assert code == 0
    assert out_geo != out  # method reported through different weights


def test_ahp_weights_csv(capsys):
    code, out, _ = run(capsys, "ahp", "weights", HIERARCHY_PATH, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "criterion,weight"
    assert lines[1].startswith("innovation-investment,0.40")


def test_ahp_weights_reports_each_alternative_matrix(tmp_path, capsys):
    # criteria listed out of sorted order: two matrices and one score map
    matrices = {
        "z": [["1", "2", "4"], ["1/2", "1", "3"], ["1/4", "1/3", "1"]],
        "a": [["1", "1/3", "1/5"], ["3", "1", "1/2"], ["5", "2", "1"]],
    }
    block = {
        "criteria": ["z", "m", "a"],
        "criteria_matrix": [["1", "2", "3"], ["1/2", "1", "2"], ["1/3", "1/2", "1"]],
        "alternatives": {**matrices, "m": {"A": "1/2", "B": "1/4", "C": "1/4"}},
    }
    path = write_scenario(tmp_path, ["A", "B", "C"], ahp=block)
    hierarchy = scenario_hierarchy(load_scenario(path))
    code, out, _ = run(capsys, "ahp", "weights", path, "--format", "structured")
    assert code == 0
    consistency = json.loads(out)["ahp"]["score_consistency"]
    assert list(consistency) == ["a", "z"]
    assert consistency == {label: asdict(hierarchy.score_consistency[label]) for label in matrices}
    code, out, _ = run(capsys, "ahp", "weights", path)
    assert code == 0
    assert [line.split(":")[0].strip() for line in out.splitlines() if " scores:" in line] == ["z scores", "a scores"]


def test_ahp_synthesize(capsys):
    code, out, _ = run(capsys, "ahp", "synthesize", HIERARCHY_PATH, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "player,factor,delta_g"
    assert lines[1] == "A,0.6659,0.3325"
    assert lines[2] == "B,0.2637,-0.0696"
    assert lines[3] == "C,0.0704,-0.2629"


def test_ahp_synthesize_gate_failure(tmp_path, capsys):
    scenario = tmp_path / "inconsistent.scenario"
    scenario.write_text(json.dumps({
        "players": ["A", "B", "C"],
        "coalitions": [{"members": ["A"], "value": "1"},
                       {"members": ["B"], "value": "1"},
                       {"members": ["C"], "value": "1"},
                       {"members": ["A", "B"], "value": "2"},
                       {"members": ["A", "C"], "value": "2"},
                       {"members": ["B", "C"], "value": "2"},
                       {"members": ["A", "B", "C"], "value": "3"}],
        "ahp": {
            "criteria": ["x", "y", "z"],
            "criteria_matrix": [["1", "9", "1/9"], ["1/9", "1", "9"], ["9", "1/9", "1"]],
            "alternatives": {
                "x": {"A": "1/3", "B": "1/3", "C": "1/3"},
                "y": {"A": "1/3", "B": "1/3", "C": "1/3"},
                "z": {"A": "1/3", "B": "1/3", "C": "1/3"},
            },
        },
    }))
    code, out, err = run(capsys, "ahp", "synthesize", str(scenario))
    assert code == 1
    assert out == ""
    assert "consistency gate failed" in err
    assert err.count("CR = ") == 1  # stated once, not repeated in a suffix
    assert "allow_inconsistent" not in err  # a library keyword no flag sets


def test_sample_deterministic(capsys):
    args = ("sample", CASE_PATH, "--permutations", "20000", "--seed", "7", "--format", "csv")
    code, first, _ = run(capsys, *args)
    assert code == 0
    code, second, _ = run(capsys, *args)
    assert first == second
    code, eight, _ = run(capsys, *args, "--workers", "8")
    assert first == eight
    assert first.splitlines()[0] == "player,estimate,std_error"


def test_sample_structured_reports_rng(capsys):
    code, out, _ = run(capsys, "sample", CASE_PATH, "--permutations", "500",
                       "--seed", "1", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["sampling"]["permutations"] == 500
    assert "PCG64" in doc["sampling"]["rng"]
    total = sum(
        # estimates are exact: they must sum to the grand value
        eval_fraction(doc["sampling"]["estimates"][p]["exact"]) for p in ("A", "B", "C")
    )
    assert total == 3000


def eval_fraction(text: str):
    from fractions import Fraction

    return Fraction(text)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run(capsys, "shapley", CASE_PATH, "--format", "csv", "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_bytes() == SHAPLEY_CSV.encode()


def test_output_to_directory_exits_one(tmp_path, capsys):
    code, out, err = run(capsys, "shapley", CASE_PATH, "--output", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sample_workers_below_one_is_usage_error(capsys, workers):
    with pytest.raises(SystemExit) as exc:
        main(["sample", CASE_PATH, "--workers", workers])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--workers" in captured.err


def test_sample_zero_permutations_is_a_domain_error(capsys):
    code, out, err = run(capsys, "sample", CASE_PATH, "--permutations", "0")
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_missing_file_exits_one(capsys):
    code, out, err = run(capsys, "shapley", "/nonexistent/file.scenario")
    assert code == 1
    assert "error:" in err


def test_malformed_scenario_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.scenario"
    bad.write_text("{")
    code, _, err = run(capsys, "shapley", str(bad))
    assert code == 1
    assert "invalid JSON" in err


def test_allocate_without_factors_exits_one(tmp_path, capsys):
    scenario = tmp_path / "plain.scenario"
    scenario.write_text(json.dumps({
        "players": ["A"],
        "coalitions": [{"members": ["A"], "value": "1"}],
    }))
    code, _, err = run(capsys, "allocate", str(scenario))
    assert code == 1
    assert "no adjustment factors" in err


MALFORMED_CORPUS = [
    "",
    "{",
    "[]",
    '{"players": []}',
    '{"players": ["A"], "coalitions": []}',
    '{"players": ["A"], "coalitions": [{"members": ["B"], "value": "1"}]}',
    '{"players": ["A"], "coalitions": [{"members": ["A"], "value": "x"}]}',
    '{"players": ["A"], "coalitions": [{"members": ["A"], "value": "1"}], "mode": "zzz"}',
    '{"players": ["A", "B"], "coalitions": [{"members": ["A"], "value": "1"}]}',
    '{"players": ["A"], "coalitions": [{"members": ["A"], "value": "1"}], "factors": {"B": "1"}}',
]


@pytest.mark.parametrize("text", MALFORMED_CORPUS)
def test_malformed_corpus_exits_one(tmp_path, capsys, text):
    bad = tmp_path / "bad.scenario"
    bad.write_text(text)
    for command in (["shapley"], ["allocate"], ["validate"]):
        code, out, err = run(capsys, *command, str(bad))
        assert code == 1
        assert err.startswith("error:")


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["shapley", CASE_PATH, "--format", "xml"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def write_scenario(tmp_path, players, value=lambda mask: str(10 * mask), **extra) -> str:
    coalitions = [
        {"members": [p for i, p in enumerate(players) if mask >> i & 1], "value": value(mask)}
        for mask in range(1, 1 << len(players))
    ]
    path = tmp_path / "case.scenario"
    path.write_text(json.dumps({"players": players, "coalitions": coalitions, **extra}))
    return str(path)


def assert_one_error_line(code, out, err, *fragments):
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    for fragment in fragments:
        assert fragment in err


def test_a_malformed_factor_block_exits_one_with_one_error_line(tmp_path, capsys):
    path = write_scenario(tmp_path, ["A", "B"], factors=["0.5", "0.5"])
    code, out, err = run(capsys, "shapley", path)
    assert_one_error_line(code, out, err, "error: factors: must map every player to a factor\n")


@pytest.mark.parametrize("players, criteria, locus", [
    (["A", "B"], [f"k{i}" for i in range(11)], "ahp.criteria_matrix"),
    ([f"P{i}" for i in range(11)], ["k"], "ahp.alternatives.k"),
])
def test_an_ahp_level_with_no_random_index_exits_one_at_its_locus(tmp_path, capsys, players, criteria, locus):
    def ones(n):
        return [["1"] * n for _ in range(n)]

    alternatives = {c: ones(len(players)) for c in criteria}
    path = write_scenario(tmp_path, players, ahp={
        "criteria": criteria, "criteria_matrix": ones(len(criteria)), "alternatives": alternatives})
    for command in (["ahp", "weights"], ["ahp", "synthesize"], ["allocate"]):
        code, out, err = run(capsys, *command, path)
        assert_one_error_line(code, out, err, f"error: {locus}: no random index tabulated for n=11; table covers 1..10")


def test_an_exact_value_too_long_to_print_exits_one(tmp_path, capsys):
    # 511 distinct 20-digit denominators: the exact payoffs need thousands of digits
    path = write_scenario(tmp_path, [f"P{i}" for i in range(9)], value=lambda mask: f"{mask}/{10**19 + 2 * mask + 1}")
    code, out, _ = run(capsys, "shapley", path)  # the table rounds them
    assert code == 0 and "total" in out
    code, out, err = run(capsys, "shapley", path, "--format", "structured")
    assert_one_error_line(code, out, err, "digits, too many to print")


def test_a_value_table_too_wide_to_scale_exits_one_quickly(tmp_path, capsys):
    players = [f"P{i}" for i in range(14)]
    path = write_scenario(tmp_path, players, value=lambda mask: f"1/{10**19 + 2 * mask + 1}",
                          factors={p: "1/14" for p in players})
    for command in ("shapley", "allocate", "validate"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, path)
        assert_one_error_line(code, out, err, "common denominator passes 131072 bits")
        assert time.perf_counter() - start < 1


def test_all_zero_factors_with_normalize_exits_one(tmp_path, capsys):
    path = write_scenario(tmp_path, ["A", "B"], factors={"A": "0", "B": "0.00"}, normalize_factors=True)
    assert_one_error_line(*run(capsys, "allocate", path), "sum to zero")


def test_a_factor_sum_error_names_the_flag_that_rescales(tmp_path, capsys):
    path = write_scenario(tmp_path, ["A", "B"], factors={"A": "0.7", "B": "0.5"})
    assert_one_error_line(*run(capsys, "allocate", path), "sum to 1.200000", "--normalize")
    code, out, err = run(capsys, "allocate", path, "--normalize", "--format", "csv")
    assert code == 0 and err == "" and out.startswith("player,classical,adjusted")


def test_score_map_not_summing_to_one_exits_one(tmp_path, capsys):
    path = write_scenario(tmp_path, ["A", "B", "C"], ahp={
        "criteria": ["R1"],
        "criteria_matrix": [["1"]],
        "alternatives": {"R1": {"A": "0.5", "B": "0.5", "C": "0.5"}},
    })
    for command in (["ahp", "synthesize"], ["ahp", "weights"], ["allocate"]):
        assert_one_error_line(*run(capsys, *command, path), "ahp.alternatives.R1")


@pytest.mark.parametrize("value", ["1e300000", "-2.5E+999999999999999999", "1" * 1001, "1/" + "3" * 1001, 10**1000])
def test_oversized_number_exits_one(tmp_path, capsys, value):
    path = Path(write_scenario(tmp_path, ["A", "B"]))
    doc = json.loads(path.read_text())
    doc["coalitions"][2]["value"] = value
    path.write_text(json.dumps(doc))
    assert_one_error_line(*run(capsys, "shapley", str(path), "--format", "csv"), "coalitions[2].value")


def test_oversized_json_integer_exits_one(tmp_path, capsys):
    path = tmp_path / "huge.scenario"
    path.write_text('{"players": ["A"], "coalitions": [{"members": ["A"], "value": ' + "9" * 5000 + "}]}")
    assert_one_error_line(*run(capsys, "shapley", str(path)), "document")


@pytest.mark.parametrize("command", [["shapley"], ["sample", "--permutations", "50"]])
def test_csv_quotes_names_with_separators(tmp_path, capsys, command):
    players = ["A,x", 'B "quoted"', "C\nline", "D"]
    path = write_scenario(tmp_path, players)
    code, out, _ = run(capsys, command[0], path, *command[1:], "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [row[0] for row in rows[1:]] == players
    assert {len(row) for row in rows} == {len(rows[0])}


@pytest.mark.parametrize("command", [["shapley"], ["sample", "--permutations", "50"], ["validate"]])
def test_csv_round_trips_a_lone_carriage_return(tmp_path, capsys, command):
    players = ["A", "B\rX", "C\r\nY"]
    path = Path(write_scenario(tmp_path, players))
    doc = json.loads(path.read_text())
    doc["coalitions"][-1]["value"] = "1"  # the grand coalition: three violations for validate
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, command[0], str(path), *command[1:], "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert {len(row) for row in rows} == {len(rows[0])}
    if command[0] == "validate":
        assert {name for row in rows[1:] for name in row[:2]} >= {"B\rX", "C\r\nY"}
    else:
        assert [row[0] for row in rows[1:]] == players


def test_structured_output_beyond_the_float_range(tmp_path, capsys):
    path = Path(write_scenario(tmp_path, ["A", "B"]))
    doc = json.loads(path.read_text())
    doc["coalitions"][0]["value"] = "1e400"
    doc["coalitions"][2]["value"] = "3e400"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "shapley", str(path), "--format", "structured")
    assert code == 0 and err == ""
    payoff = json.loads(out)["classical"]["A"]
    assert payoff["float"] is None
    assert Fraction(payoff["exact"]) == 2 * 10**400 - 10


def test_sample_standard_error_beyond_the_float_range_exits_one(tmp_path, capsys):
    path = Path(write_scenario(tmp_path, ["A", "B"]))
    doc = json.loads(path.read_text())
    doc["coalitions"][0]["value"] = "1e400"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "sample", str(path), "--permutations", "50")
    assert_one_error_line(code, out, err, "standard error of 'A'", "float range")


def test_factor_sum_beyond_the_float_range_exits_one(tmp_path, capsys):
    path = write_scenario(tmp_path, ["A", "B"], factors={"A": "1e400", "B": "0"})
    assert_one_error_line(*run(capsys, "allocate", path), "sum to 1" + "0" * 400 + ".000000")


def test_ahp_matrix_entry_beyond_the_float_range_exits_one(tmp_path, capsys):
    path = write_scenario(tmp_path, ["A", "B"], ahp={
        "criteria": ["R1", "R2"],
        "criteria_matrix": [["1", "1e400"], ["1e-400", "1"]],
        "alternatives": {"R1": {"A": "0.5", "B": "0.5"}, "R2": {"A": "0.5", "B": "0.5"}},
    })
    for command in (["ahp", "weights"], ["ahp", "synthesize"]):
        assert_one_error_line(*run(capsys, *command, path), "ahp.criteria_matrix[0][1]", "float range")


@pytest.mark.parametrize("where,locus", [("players", "players"), ("criteria", "ahp.criteria")])
@pytest.mark.parametrize("to_file", [False, True])
def test_label_with_a_lone_surrogate_exits_one_in_a_real_process(tmp_path, where, locus, to_file):
    # An in-process run writes to a StringIO, which takes any str: only a real
    # stdout or file shows whether the report could be encoded.
    players, criteria = ["A", "B"], ["R1", "R2"]
    (players if where == "players" else criteria)[1] = "\ud800"
    path = write_scenario(tmp_path, players, ahp={
        "criteria": criteria,
        "criteria_matrix": [["1", "2"], ["1/2", "1"]],
        "alternatives": {c: {p: "1/2" for p in players} for c in criteria},
    })
    command = ["shapley", path] if where == "players" else ["ahp", "weights", path]
    output = tmp_path / "report.txt"
    result = run_child(["-m", "chainshare.cli", *command, *(["--output", str(output)] if to_file else [])],
                       seconds=60, code=1)
    assert_one_error_line(result.code, result.stdout, result.stderr, f"error: {locus}: ", "UTF-8")
    assert not output.exists()


def test_repeated_in_process_runs_match_a_fresh_parser(capsys, monkeypatch):
    # main builds its parser once per process; a usage error, a run and
    # --version must leave it as a fresh one would be
    sequence = [
        ["shapley", CASE_PATH, "--format", "xml"],
        ["shapley", CASE_PATH, "--format", "csv"],
        ["--version"],
        ["sample", CASE_PATH, "--workers", "0"],
        ["allocate", CASE_PATH, "--mode", "grand"],
        [],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    repeated = [outcome(argv) for _ in range(2) for argv in sequence]
    assert repeated == fresh * 2
    assert [code for code, _, _ in fresh] == [2, 0, 0, 2, 0, 2]
    assert len(builds) == 1
    assert build_parser() is not build_parser()


def test_chunk_size_above_the_bound_exits_one(capsys):
    code, out, err = run(capsys, "sample", CASE_PATH, "--chunk-size", str(MAX_CHUNK_SIZE + 1))
    assert_one_error_line(code, out, err, "chunk size", str(MAX_CHUNK_SIZE))


COMMAND_LINES = st.sampled_from([
    (["shapley"], []),
    (["allocate"], []),
    (["allocate"], ["--mode", "grand", "--normalize"]),
    (["ahp", "weights"], ["--method", "geometric"]),
    (["ahp", "synthesize"], []),
    (["validate"], ["--strict"]),
]) | st.builds(
    lambda permutations, chunk_size, workers, seed: (["sample"], [
        "--permutations", str(permutations), "--chunk-size", str(chunk_size),
        "--workers", str(workers), "--seed", str(seed),
    ]),
    st.integers(-1, 40), st.sampled_from([1, 7, 64, 0, MAX_CHUNK_SIZE + 1, 10**12]), st.sampled_from([1, 2, 0]),
    st.sampled_from([0, 5, 2**64 - 1, -1, 2**64]),
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "case.scenario"


@settings(max_examples=60, deadline=2000)
@given(content=scenario_texts.map(str.encode) | st.binary(max_size=40), line=COMMAND_LINES,
       format=st.sampled_from(FORMATS))
def test_main_returns_0_or_1_or_exits_2_on_any_scenario(fuzz_path, content, line, format):
    fuzz_path.write_bytes(content)
    words, flags = line
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = main([*words, str(fuzz_path), *flags, "--format", format])
        except SystemExit as exc:
            assert exc.code == 2
        else:
            assert code in (0, 1)
