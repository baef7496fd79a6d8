"""The cyclic collector: paused while a scenario is read, and not needed after.

``parse_scenario`` pauses the collector and must hand back the caller's
state whatever the outcome. That pause is safe only because the commands
leave no reference cycles behind: a table kept alive by a cycle is freed
at the next full collection, not when its command returns.
"""

import gc
import io
import json
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from operator import add

import pytest

from chainshare import cli
from chainshare import scenario as scenario_module
from chainshare.adjust import adjusted_shapley, compute_deltas
from chainshare.errors import ScenarioError
from chainshare.game import shapley_exact, validate_game
from chainshare.rational import balanced_fold
from chainshare.sampling import SamplingPlan, sample_shapley
from chainshare.scenario import bundled_scenario, parse_scenario, scenario_game

CASE = bundled_scenario("paper_case")
AHP = bundled_scenario("paper_ahp")
VALID = CASE.read_text(encoding="utf-8")
REFUSED = [
    "{not json",
    json.dumps({"players": ["A", "B"], "coalitions": [{"members": ["A", "C"], "value": "1"}]}),
    "[" * 100_000 + "]" * 100_000,  # nested past the decoder's recursion limit
]


@contextmanager
def _collector(enabled: bool):
    """The collector switched on or off for the block, then put back as it was."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_scenario_restores_the_collector_state(enabled):
    with _collector(enabled):
        parse_scenario(VALID)
        assert gc.isenabled() is enabled
        for text in REFUSED:
            with pytest.raises(ScenarioError):
                parse_scenario(text)
            assert gc.isenabled() is enabled


def test_parse_scenario_decodes_with_the_collector_paused(monkeypatch):
    seen = []
    loads = json.loads

    def recorded(*args, **kwargs):
        seen.append(gc.isenabled())
        return loads(*args, **kwargs)

    monkeypatch.setattr(scenario_module.json, "loads", recorded)
    with _collector(True):
        parse_scenario(VALID)
        assert gc.isenabled()
    assert seen == [False]


def _run_command(argv: list[str]) -> None:
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


def _library_calls():
    sf = parse_scenario(VALID)
    game = scenario_game(sf)
    factors = compute_deltas(sf.factors, sf.player_set)
    plan = SamplingPlan(300, seed=5, chunk_size=64)
    return {
        "parse_scenario": lambda: parse_scenario(VALID),
        "scenario_game": lambda: scenario_game(parse_scenario(VALID)),
        "shapley_exact": lambda: shapley_exact(game),
        "adjusted_shapley eq3": lambda: adjusted_shapley(game, factors, "eq3"),
        "adjusted_shapley grand": lambda: adjusted_shapley(game, factors, "grand"),
        "validate_game": lambda: validate_game(game),
        "sample_shapley table": lambda: sample_shapley(game, game.player_set, plan),
        "sample_shapley oracle": lambda: sample_shapley(
            lambda c: Fraction(c.mask.bit_count() * 3, 7), game.player_set, plan
        ),
        "balanced_fold": lambda: balanced_fold(add, [Fraction(1, d) for d in range(1, 40)]),
    }


COMMANDS = [
    ["shapley", str(CASE)],
    ["allocate", str(CASE)],
    ["allocate", str(CASE), "--mode", "grand"],
    ["allocate", str(AHP)],
    ["validate", str(CASE)],
    ["sample", str(CASE), "--permutations", "500"],
    ["ahp", "weights", str(AHP)],
    ["ahp", "synthesize", str(AHP)],
]


def test_no_call_or_command_leaves_a_reference_cycle():
    # --format structured is left out: json.dumps(indent=...) builds the
    # standard library's pure-Python encoder, whose nested closures
    # (json.encoder._make_iterencode) refer to one another, so every
    # structured report leaves 33 objects for the collector, none of them
    # chainshare's.
    calls = _library_calls()
    for argv in COMMANDS:  # the first run builds the cached parser and loads lazy imports
        _run_command(argv)
    gc.collect()
    with _collector(False):
        for name, call in calls.items():
            call()
            assert gc.collect() == 0, name
        for fmt in ("table", "csv"):
            for argv in COMMANDS:
                _run_command([*argv, "--format", fmt])
                assert gc.collect() == 0, (argv, fmt)
