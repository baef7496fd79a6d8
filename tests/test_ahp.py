import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from chainshare import ahp
from chainshare.ahp import (
    RANDOM_INDEX,
    ComparisonMatrix,
    CriteriaHierarchy,
    WeightVector,
    consistency_report,
    dominant_eigen,
    geometric_mean_weights,
    principal_weights,
    synthesize_factors,
)
from chainshare.errors import (
    ConsistencyGateError,
    IterationLimitError,
    MatrixValidationError,
    NumberError,
)

PUBLISHED_WEIGHT_COLUMN = (0.4182, 0.2401, 0.1218, 0.1030, 0.0442, 0.0351, 0.0377)


def consistent_matrix(w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    return w[:, None] / w[None, :]


def random_saaty_matrix(rng: random.Random, n: int) -> np.ndarray:
    scale = [1, 2, 3, 4, 5, 6, 7, 8, 9]
    a = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            r = rng.choice(scale)
            if rng.random() < 0.5:
                a[i, j], a[j, i] = r, 1 / r
            else:
                a[i, j], a[j, i] = 1 / r, r
    return a


def labels(n: int) -> tuple[str, ...]:
    return tuple(f"c{i}" for i in range(n))


def test_reference_consistency_numbers():
    report = consistency_report(7.5838, 7)
    assert abs(report.ci - 0.0973) <= 1e-4
    assert report.ri == 1.32
    assert abs(report.cr - 0.073) <= 0.005
    assert abs(report.cr - 0.0737) < 5e-4
    assert report.passed


def test_consistency_threshold_is_strict(monkeypatch):
    # The gate reads ``passed``, set iff cr < 0.1. With the tabulated
    # random indices no float lambda_max gives cr == 0.1 exactly, so one
    # index is set to 1.25: lambda_max = 5.5 then gives ci = 0.125 and
    # cr = 0.125 / 1.25, which rounds to 0.1 exactly.
    monkeypatch.setitem(RANDOM_INDEX, 5, 1.25)
    at_boundary = consistency_report(5.5, 5)
    assert at_boundary.cr == 0.1
    assert not at_boundary.passed
    just_below = consistency_report(math.nextafter(5.5, 0), 5)
    assert just_below.cr < 0.1
    assert just_below.passed
    # with the tabulated indices, these two land just either side of 0.1
    above = consistency_report(3.116, 3)
    assert 0.1 < above.cr < 0.1 + 1e-15
    assert not above.passed
    below = consistency_report(4.27, 4)
    assert 0.1 - 1e-15 < below.cr < 0.1
    assert below.passed


@pytest.mark.parametrize("ratio", [2.0, 5.0, 9.0])
def test_two_by_two_always_consistent(ratio):
    m = ComparisonMatrix(labels(2), [[1, ratio], [1 / ratio, 1]])
    weights, report = principal_weights(m)
    assert report.cr == 0.0
    assert report.passed
    assert abs(report.lambda_max - 2) < 1e-9
    assert abs(weights.w[0] - ratio / (1 + ratio)) < 1e-9


def test_consistent_matrix_recovers_weights():
    w = (0.5, 0.3, 0.2)
    m = ComparisonMatrix(labels(3), consistent_matrix(w))
    weights, report = principal_weights(m)
    assert np.max(np.abs(np.array(weights.w) - w)) < 1e-9
    assert abs(report.lambda_max - 3) < 1e-9
    assert abs(report.cr) < 1e-9


def test_unity_judgment_matrix():
    m = ComparisonMatrix(labels(3), np.ones((3, 3)))
    weights, report = principal_weights(m)
    assert np.max(np.abs(np.array(weights.w) - 1 / 3)) < 1e-12
    assert abs(report.lambda_max - 3) < 1e-12
    assert abs(report.ci) < 1e-12


def test_single_item_matrix():
    weights, report = principal_weights(ComparisonMatrix(("only",), [[1.0]]))
    assert weights.w == (1.0,)
    assert report.cr == 0.0
    assert report.passed


def test_matrix_validation_errors():
    with pytest.raises(MatrixValidationError, match="shape"):
        ComparisonMatrix(labels(2), [[1, 2, 3], [0.5, 1, 2]])
    with pytest.raises(MatrixValidationError, match="positive"):
        ComparisonMatrix(labels(2), [[1, 0], [2, 1]])
    with pytest.raises(MatrixValidationError, match="positive"):
        ComparisonMatrix(labels(2), [[1, -2], [-0.5, 1]])
    with pytest.raises(MatrixValidationError, match="diagonal"):
        ComparisonMatrix(labels(2), [[2, 1], [1, 1]])
    with pytest.raises(MatrixValidationError, match="reciprocal"):
        ComparisonMatrix(labels(2), [[1, 2], [0.4, 1]])
    with pytest.raises(ValueError, match="unique"):
        ComparisonMatrix(("x", "x"), [[1, 1], [1, 1]])


@pytest.mark.parametrize("entry", [0.0, -2.0, math.nan, math.inf])
def test_dominant_eigen_refuses_an_entry_that_is_not_positive_and_finite(entry):
    a = consistent_matrix((0.5, 0.3, 0.2))
    a[0, 2] = entry
    with pytest.raises(MatrixValidationError, match="strictly positive matrix"):
        dominant_eigen(a)


@pytest.mark.parametrize("shape", [(2, 3), (3,), (0, 0), (0,)])
def test_dominant_eigen_refuses_a_matrix_that_is_not_square_or_is_empty(shape):
    with pytest.raises(MatrixValidationError, match=re.escape(f"expected a square matrix, got shape {shape}")):
        dominant_eigen(np.ones(shape))


@pytest.mark.parametrize("seed", range(5))
def test_eigenvector_scale_invariance(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    base = consistent_matrix([rng.uniform(0.1, 1.0) for _ in range(n)])
    # mild multiplicative perturbation keeps the matrix positive
    noise = np.exp(np.random.default_rng(seed).uniform(-0.3, 0.3, (n, n)))
    for a in (base, base * noise):
        w1, lam1 = dominant_eigen(a)
        for c in (0.25, 3.0, 17.5):
            w2, lam2 = dominant_eigen(c * a)
            assert np.max(np.abs(w1 - w2)) < 1e-9
            assert abs(lam2 - c * lam1) < 1e-9 * max(1.0, abs(c * lam1))


@pytest.mark.parametrize("seed", range(6))
def test_lambda_max_at_least_n(seed):
    rng = random.Random(200 + seed)
    n = rng.randint(3, 8)
    m = ComparisonMatrix(labels(n), random_saaty_matrix(rng, n))
    _, report = principal_weights(m)
    assert report.lambda_max >= n - 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_geometric_agrees_on_consistent_matrices(seed):
    rng = random.Random(300 + seed)
    n = rng.randint(2, 7)
    w = [rng.uniform(0.05, 1.0) for _ in range(n)]
    a = consistent_matrix(w)
    eig, _ = dominant_eigen(a)
    geo = geometric_mean_weights(a)
    assert np.max(np.abs(eig - geo)) < 1e-6


def test_geometric_method_through_principal_weights():
    m = ComparisonMatrix(labels(3), consistent_matrix((0.6, 0.3, 0.1)))
    weights, report = principal_weights(m, method="geometric")
    assert np.max(np.abs(np.array(weights.w) - (0.6, 0.3, 0.1))) < 1e-9
    assert abs(report.lambda_max - 3) < 1e-9
    with pytest.raises(ValueError, match="method"):
        principal_weights(m, method="inverse")


def test_random_index_table():
    assert RANDOM_INDEX == {1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12, 6: 1.24, 7: 1.32, 8: 1.41, 9: 1.45, 10: 1.49}
    with pytest.raises(MatrixValidationError, match="random index"):
        consistency_report(12.0, 11)


def test_iteration_limit_error(monkeypatch):
    rng = random.Random(1)
    a = random_saaty_matrix(rng, 5)
    monkeypatch.setattr(ahp, "POWER_MAX_ITERATIONS", 1)
    with pytest.raises(IterationLimitError) as err:
        dominant_eigen(a)
    assert err.value.iterations == 1


def test_weight_vector_validation():
    with pytest.raises(ValueError, match="sum"):
        WeightVector(labels(2), (0.5, 0.6))
    with pytest.raises(ValueError, match="positive"):
        WeightVector(labels(2), (1.0, 0.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(NumberError, match="finite"):
            WeightVector(labels(2), (bad, 1.0))
    with pytest.raises(ValueError, match="labels"):
        WeightVector(labels(3), (0.5, 0.5))
    wv = WeightVector(labels(2), (0.25, 0.75))
    assert wv.weight_of("c1") == 0.75


def test_synthesize_single_criterion_collapse():
    h = CriteriaHierarchy(
        criteria_weights=WeightVector(("only",), (1.0,)),
        player_scores={"only": WeightVector(("A", "B", "C"), (0.6, 0.3, 0.1))},
    )
    factors = synthesize_factors(h)
    assert [float(f) for f in factors.factors] == pytest.approx([0.6, 0.3, 0.1], abs=1e-12)


def test_synthesize_uniform_scores():
    h = CriteriaHierarchy(
        criteria_weights=WeightVector(labels(3), (0.5, 0.3, 0.2)),
        player_scores={c: WeightVector(("A", "B"), (0.5, 0.5)) for c in labels(3)},
    )
    factors = synthesize_factors(h)
    assert [float(f) for f in factors.factors] == pytest.approx([0.5, 0.5], abs=1e-12)
    assert all(abs(d) < 1e-12 for d in map(float, factors.deviations))


def test_synthesize_identical_columns_collapse():
    # Weighted-sum oracle: with every per-criterion column equal to s,
    # the synthesis must return s itself whatever the criteria weights.
    total = sum(PUBLISHED_WEIGHT_COLUMN)  # the published column sums to 1.0001
    weights = tuple(w / total for w in PUBLISHED_WEIGHT_COLUMN)
    column = (0.6648 / 0.9984, 0.2633 / 0.9984, 0.0703 / 0.9984)
    expected = [
        sum(w * s for w in weights) for s in column
    ]
    h = CriteriaHierarchy(
        criteria_weights=WeightVector(labels(7), weights),
        player_scores={c: WeightVector(("A", "B", "C"), column) for c in labels(7)},
    )
    factors = synthesize_factors(h)
    got = [float(f) for f in factors.factors]
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(list(column), abs=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_synthesize_sums_to_one(seed):
    rng = random.Random(700 + seed)
    k = rng.randint(2, 6)
    players = tuple(f"p{i}" for i in range(rng.randint(2, 5)))
    raw = [rng.uniform(0.1, 1.0) for _ in range(k)]
    weights = WeightVector(labels(k), tuple(x / sum(raw) for x in raw))
    scores = {}
    for c in labels(k):
        col = [rng.uniform(0.05, 1.0) for _ in players]
        scores[c] = WeightVector(players, tuple(x / sum(col) for x in col))
    factors = synthesize_factors(CriteriaHierarchy(weights, scores))
    assert abs(float(factors.total) - 1.0) < 1e-9


def contradictory_matrix() -> np.ndarray:
    # a>b, b>c but c>a by a lot: wildly inconsistent
    return np.array([[1, 9, 1 / 9], [1 / 9, 1, 9], [9, 1 / 9, 1]])


def test_consistency_gate_blocks_and_overrides():
    criteria = ComparisonMatrix(("k1", "k2"), [[1, 2], [0.5, 1]])
    alternatives = {
        "k1": ComparisonMatrix(("A", "B", "C"), contradictory_matrix()),
        "k2": WeightVector(("A", "B", "C"), (0.4, 0.3, 0.3)),
    }
    h = CriteriaHierarchy.from_matrices(criteria, alternatives)
    assert not h.score_consistency["k1"].passed
    with pytest.raises(ConsistencyGateError) as err:
        synthesize_factors(h)
    assert err.value.name == "k1"
    assert err.value.ratio > 0.1
    assert f"{err.value.ratio:.4f}" in str(err.value)


def test_consistency_gate_on_criteria_level():
    criteria = ComparisonMatrix(labels(3), contradictory_matrix())
    alternatives = {
        c: WeightVector(("A", "B"), (0.5, 0.5)) for c in labels(3)
    }
    h = CriteriaHierarchy.from_matrices(criteria, alternatives)
    with pytest.raises(ConsistencyGateError) as err:
        synthesize_factors(h)
    assert err.value.name == "criteria"


def test_hierarchy_validation():
    weights = WeightVector(labels(2), (0.5, 0.5))
    with pytest.raises(ValueError, match="cover"):
        CriteriaHierarchy(weights, {"c0": WeightVector(("A", "B"), (0.5, 0.5))})
    with pytest.raises(ValueError, match="player list"):
        CriteriaHierarchy(
            weights,
            {
                "c0": WeightVector(("A", "B"), (0.5, 0.5)),
                "c1": WeightVector(("A", "Z"), (0.5, 0.5)),
            },
        )
    with pytest.raises(ValueError, match="no player scores"):
        CriteriaHierarchy.from_matrices(
            ComparisonMatrix(labels(2), [[1, 2], [0.5, 1]]),
            {"c0": WeightVector(("A", "B"), (0.5, 0.5))},
        )


def test_from_matrices_mixed_sources():
    criteria = ComparisonMatrix(("k1", "k2"), [[1, 3], [1 / 3, 1]])
    alternatives = {
        "k1": ComparisonMatrix(("A", "B"), [[1, 4], [0.25, 1]]),
        "k2": WeightVector(("A", "B"), (0.3, 0.7)),
    }
    h = CriteriaHierarchy.from_matrices(criteria, alternatives)
    assert h.players == ("A", "B")
    assert set(h.score_consistency) == {"k1"}
    assert h.criteria_consistency is not None and h.criteria_consistency.passed
    factors = synthesize_factors(h)
    # k1 eigenvector is (0.8, 0.2); weights (0.75, 0.25)
    assert float(factors.factors[0]) == pytest.approx(0.75 * 0.8 + 0.25 * 0.3, abs=1e-9)
