import ast
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import chainshare
from chainshare import errors
from chainshare.adjust import adjusted_shapley, compute_deltas
from chainshare.ahp import ComparisonMatrix, WeightVector, dominant_eigen, geometric_mean_weights, principal_weights
from chainshare.game import CharacteristicFunction, Coalition, PlayerSet, ValueTable, coalition_weight
from chainshare.rational import parse_pair
from chainshare.report import ReportDocument, render
from chainshare.sampling import SamplingPlan, sample_shapley
from chainshare.scenario import bundled_scenario

SOURCES = sorted(Path(chainshare.__file__).parent.glob("*.py"))


def test_no_module_raises_a_bare_builtin():
    bare = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(target, ast.Name) and target.id in ("ValueError", "TypeError"):
                    bare.append(f"{path.name}:{node.lineno}")
    assert len(SOURCES) >= 10
    assert bare == []


@pytest.mark.parametrize("name, builtin", [
    ("IdentifierError", ValueError),
    ("NumberError", ValueError),
    ("ChoiceError", ValueError),
    ("AlignmentError", ValueError),
    ("MatrixValidationError", ValueError),
    ("SamplingPlanError", ValueError),
    ("InputTypeError", TypeError),
])
def test_named_errors_keep_their_builtin_base(name, builtin):
    cls = getattr(errors, name)
    assert issubclass(cls, errors.ChainshareError) and issubclass(cls, builtin)
    assert getattr(chainshare, name) is cls


GAME = CharacteristicFunction.from_values(("A", "B"), {("A",): 1, ("B",): 1, ("A", "B"): 3})
FACTORS = compute_deltas(["0.5", "0.5"], GAME.player_set)


def _table(n: int, values: dict[int, tuple[int, int]]) -> ValueTable:
    """A value table of ``n`` players holding only ``values``: mask to (numerator, denominator)."""
    table = ValueTable(n)
    for mask, (numerator, denominator) in values.items():
        table.numerators[mask], table.denominators[mask] = numerator, denominator
    return table


@pytest.mark.parametrize("error, call", [
    (errors.IdentifierError, lambda: PlayerSet(("A", "A"))),
    (errors.IdentifierError, lambda: GAME.player_set.index("Z")),
    (errors.IdentifierError, lambda: Coalition(GAME.player_set, 4)),
    (errors.IdentifierError, lambda: ComparisonMatrix(("x", "x"), [[1, 1], [1, 1]])),
    (errors.NumberError, lambda: parse_pair("12,5")),
    (errors.NumberError, lambda: compute_deltas(["-0.1", "1.1"], 2)),
    (errors.NumberError, lambda: WeightVector(("a", "b"), (0.5, 0.6))),
    (errors.NumberError, lambda: coalition_weight(3, 4)),
    (errors.ChoiceError, lambda: adjusted_shapley(GAME, FACTORS, "both")),
    (errors.ChoiceError, lambda: principal_weights(ComparisonMatrix(("a",), [[1]]), method="inverse")),
    (errors.ChoiceError, lambda: render(ReportDocument("shapley", ("A",)), "xml")),
    (errors.ChoiceError, lambda: bundled_scenario("nonexistent")),
    (errors.AlignmentError, lambda: compute_deltas(["1"], 2)),
    (errors.AlignmentError, lambda: WeightVector(("a", "b"), (1.0,))),
    (errors.MatrixValidationError, lambda: dominant_eigen(np.ones((2, 3)))),
    (errors.SamplingPlanError, lambda: sample_shapley(GAME, GAME.player_set, SamplingPlan(5, seed=0), workers=0)),
    (errors.InputTypeError, lambda: parse_pair(True)),
    (errors.InputTypeError, lambda: coalition_weight(3.0, 1)),
    (errors.IdentifierError, lambda: GAME(4)),
    (errors.IdentifierError, lambda: GAME(-1)),
    (errors.InputTypeError, lambda: GAME(True)),
    (errors.InputTypeError, lambda: Coalition(GAME.player_set, True)),
    (errors.InputTypeError, lambda: Coalition(GAME.player_set, 1.0)),
    (errors.InputTypeError, lambda: Coalition(GAME.player_set, "a")),
    (errors.InputTypeError, lambda: GAME(1.0)),
    (errors.InputTypeError, lambda: GAME(None)),
    (errors.IdentifierError, lambda: GAME(Coalition(PlayerSet(("A", "B", "C")), 4))),
    (errors.IdentifierError, lambda: WeightVector(("a", "b"), (0.5, 0.5)).weight_of("z")),
    (errors.InputTypeError, lambda: coalition_weight(True, 1)),
    (errors.InputTypeError, lambda: compute_deltas(["1"], True)),
    (errors.InputTypeError, lambda: GAME.player_set.coalition(5)),
    (errors.InputTypeError, lambda: GAME(np.array(3.0))),
    (errors.InputTypeError, lambda: compute_deltas(["1"], 1.5)),
    (errors.InputTypeError, lambda: compute_deltas(["1"], None)),
    (errors.InputTypeError, lambda: sample_shapley(GAME, ("A", "B"), SamplingPlan(5, seed=0))),
    (errors.InputTypeError, lambda: sample_shapley(GAME, GAME.player_set, 5)),
    (errors.InputTypeError, lambda: adjusted_shapley(GAME, ["0.5", "0.5"])),
    (errors.InputTypeError, lambda: CharacteristicFunction(GAME.player_set, {True: 1, 2: 1, 3: 3})),
    (errors.InputTypeError, lambda: CharacteristicFunction(GAME.player_set, {"1": 1, 2: 1, 3: 3})),
    (errors.IdentifierError, lambda: CharacteristicFunction(GAME.player_set, {0: 0, 1: 1, 2: 1, 3: 3})),
    (errors.IdentifierError, lambda: CharacteristicFunction(GAME.player_set, {1: 1, 2: 1, 3: 3, 4: 1})),
    (errors.EnumerationBoundError, lambda: _table(21, {3: (5, 2), 5: (7, 3)}).scaled()),
    (errors.IncompleteGameError, lambda: _table(2, {1: (1, 1)}).scaled()),
    pytest.param(errors.NumberError, lambda: parse_pair(Decimal("NaN")), id="parse_pair-Decimal-NaN"),
    pytest.param(errors.NumberError, lambda: parse_pair(Decimal("sNaN")), id="parse_pair-Decimal-sNaN"),
    pytest.param(errors.NumberError, lambda: parse_pair(Decimal("Infinity")), id="parse_pair-Decimal-Infinity"),
    pytest.param(errors.NumberError, lambda: CharacteristicFunction.from_values(("A",), {("A",): Decimal("NaN")}),
                 id="from_values-Decimal-NaN"),
    pytest.param(errors.NumberError, lambda: compute_deltas([Decimal("Infinity"), "0"], 2),
                 id="compute_deltas-Decimal-Infinity"),
    pytest.param(errors.InputTypeError, lambda: PlayerSet(5), id="PlayerSet-int"),
    pytest.param(errors.InputTypeError, lambda: PlayerSet(None), id="PlayerSet-None"),
    pytest.param(errors.InputTypeError, lambda: CharacteristicFunction.from_values(5, {}),
                 id="from_values-int-players"),
    pytest.param(errors.InputTypeError, lambda: ComparisonMatrix(5, [[1]]), id="ComparisonMatrix-int-labels"),
    pytest.param(errors.InputTypeError, lambda: WeightVector(None, (1.0,)), id="WeightVector-None-labels"),
    pytest.param(errors.MatrixValidationError, lambda: ComparisonMatrix(("a",), "x"),
                 id="ComparisonMatrix-string-entries"),
    pytest.param(errors.AlignmentError, lambda: WeightVector(("a",), 5), id="WeightVector-int-weights"),
    pytest.param(errors.NumberError, lambda: WeightVector(("a",), ["x"]), id="WeightVector-string-weight"),
    pytest.param(errors.MatrixValidationError, lambda: dominant_eigen("x"), id="dominant_eigen-string"),
    pytest.param(errors.MatrixValidationError, lambda: dominant_eigen([[1, 2], [3]]), id="dominant_eigen-ragged"),
    pytest.param(errors.MatrixValidationError, lambda: dominant_eigen(5), id="dominant_eigen-scalar"),
    pytest.param(errors.MatrixValidationError, lambda: geometric_mean_weights("x"),
                 id="geometric_mean_weights-string"),
    pytest.param(errors.MatrixValidationError, lambda: geometric_mean_weights([[1, 2], [3]]),
                 id="geometric_mean_weights-ragged"),
    pytest.param(errors.MatrixValidationError, lambda: geometric_mean_weights([[1, -1], [-1, 1]]),
                 id="geometric_mean_weights-negative"),
    pytest.param(errors.MatrixValidationError, lambda: ComparisonMatrix(tuple("abcdefghijk"), np.ones((11, 11))),
                 id="ComparisonMatrix-no-random-index"),
])
def test_each_rule_raises_its_named_error(error, call):
    with pytest.raises(error):
        call()


def test_a_table_without_a_value_names_its_first_empty_slot_by_bit_position():
    # masks 2 and 3 hold no value; mask 2 is player bit 1
    with pytest.raises(errors.IncompleteGameError, match=r"no value for coalition \{#1\}$"):
        _table(2, {1: (1, 1)}).scaled()


@pytest.mark.parametrize("workers", [0, -2, 1.5, 2.0, "2", None, True, False])
def test_a_worker_count_is_an_int_of_at_least_one(workers):
    # 1.5 once passed the >= 1 check, and "2" and None raised a bare TypeError
    with pytest.raises(errors.SamplingPlanError, match="worker count"):
        sample_shapley(GAME, GAME.player_set, SamplingPlan(5, seed=0), workers=workers)


@pytest.mark.parametrize("fields, rule", [
    (dict(permutations=True, seed=True, chunk_size=True), "permutation count"),
    (dict(permutations=True, seed=0), "permutation count"),
    (dict(permutations=5, seed=True), "seed"),
    (dict(permutations=5, seed=False), "seed"),
    (dict(permutations=5, seed=0, chunk_size=True), "chunk size"),
])
def test_a_plan_count_is_an_int_never_a_bool(fields, rule):
    # each of these once passed the plan, and sample_shapley then raised a bare TypeError
    with pytest.raises(errors.SamplingPlanError, match=rule):
        SamplingPlan(**fields)
