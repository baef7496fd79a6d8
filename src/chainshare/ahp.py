"""Pairwise-comparison weighting with a consistency gate.

Weights come from the principal right eigenvector of a reciprocal
judgment matrix (power iteration on the sum-normalized iterate; row
geometric means are available as a deterministic cross-check). The
consistency ratio CR = CI / RI gates downstream use at the customary
0.1 threshold, with CI = (lambda_max - n) / (n - 1) and RI from Saaty's
random-index table.

A two-level hierarchy (criteria weights over per-criterion player
scores) synthesizes the per-player influence factors consumed by
:mod:`chainshare.adjust`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .adjust import AdjustmentFactors, compute_deltas
from .errors import (
    AlignmentError, ChainshareError, ChoiceError, ConsistencyGateError, IdentifierError, IterationLimitError,
    MatrixValidationError, NumberError,
)
from .game import _unique_labels

RANDOM_INDEX = {1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12, 6: 1.24, 7: 1.32, 8: 1.41, 9: 1.45, 10: 1.49}
CR_THRESHOLD = 0.1
RECIPROCAL_TOLERANCE = 1e-9
WEIGHT_SUM_TOLERANCE = 1e-9
POWER_TOLERANCE = 1e-12
POWER_MAX_ITERATIONS = 10_000

METHODS = ("power", "geometric")  # the first is the default


def _positive_floats(values, error: type[ChainshareError], message: str) -> np.ndarray:
    """``values`` as a new float array whose entries are all finite and
    strictly positive; ``error(message)`` for any entry that is not, and for
    values numpy cannot read as floats (a ragged list, a string that is no number)."""
    try:
        a = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise error(message) from None
    if not np.all((0 < a) & (a < np.inf)):  # NaN fails every comparison
        raise error(message)
    return a


@dataclass(frozen=True, eq=False)
class ComparisonMatrix:
    """Reciprocal judgment matrix over labelled items.

    Entries are positive ratios (Saaty 1-9 scale and reciprocals) with
    unit diagonal and a[i][j] * a[j][i] = 1 within 1e-9, over at most ten
    items: the orders that have a tabulated random index.
    """

    labels: tuple[str, ...]
    a: np.ndarray

    def __post_init__(self):
        labels = _unique_labels(self.labels, "matrix")
        object.__setattr__(self, "labels", labels)
        a = _positive_floats(self.a, MatrixValidationError, "matrix entries must be finite and strictly positive")
        n = len(labels)
        if a.shape != (n, n):
            raise MatrixValidationError(
                f"matrix shape {a.shape} does not match {n} labels"
            )
        _random_index(n)  # every weighing needs it: refused here, where a scenario names the matrix
        if np.max(np.abs(np.diag(a) - 1.0)) > RECIPROCAL_TOLERANCE:
            raise MatrixValidationError("diagonal entries must equal 1")
        worst = np.max(np.abs(a * a.T - 1.0))
        if worst > RECIPROCAL_TOLERANCE:
            i, j = np.unravel_index(np.argmax(np.abs(a * a.T - 1.0)), a.shape)
            raise MatrixValidationError(
                f"entries ({labels[i]}, {labels[j]}) are not reciprocal: "
                f"{a[i, j]:.6g} * {a[j, i]:.6g} = {a[i, j] * a[j, i]:.12g}"
            )
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class WeightVector:
    """Finite positive weights over labelled items, summing to 1 within 1e-9."""

    labels: tuple[str, ...]
    w: tuple[float, ...]

    def __post_init__(self):
        labels = _unique_labels(self.labels, "weight")
        object.__setattr__(self, "labels", labels)
        w = _positive_floats(self.w, NumberError, "weights must be finite and strictly positive")
        if w.shape != (len(labels),):
            raise AlignmentError(f"{len(labels)} labels need one weight each, got weights of shape {w.shape}")
        w = tuple(w.tolist())
        object.__setattr__(self, "w", w)
        if abs(sum(w) - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise NumberError(f"weights sum to {sum(w):.12f}, expected 1")

    def weight_of(self, label: str) -> float:
        try:
            return self.w[self.labels.index(label)]
        except ValueError:
            raise IdentifierError(f"unknown weight label {label!r}") from None

    def as_array(self) -> np.ndarray:
        return np.array(self.w, dtype=float)


@dataclass(frozen=True)
class ConsistencyReport:
    """Dominant-eigenvalue consistency diagnostics for one matrix.

    ``passed`` is True iff cr < 0.1; cr is defined as 0 for n <= 2
    (reciprocal matrices that small are always consistent).
    """

    n: int
    lambda_max: float
    ci: float
    ri: float
    cr: float
    passed: bool


def _random_index(n: int) -> float:
    """Saaty's random index RI for an n x n matrix; MatrixValidationError past the table."""
    if n not in RANDOM_INDEX:
        raise MatrixValidationError(f"no random index tabulated for n={n}; table covers 1..{max(RANDOM_INDEX)}")
    return RANDOM_INDEX[n]


def consistency_report(lambda_max: float, n: int) -> ConsistencyReport:
    """Build the CI/CR report from a dominant eigenvalue and matrix order."""
    ri = _random_index(n)
    ci = 0.0 if n == 1 else (lambda_max - n) / (n - 1)
    cr = 0.0 if n <= 2 else ci / ri
    return ConsistencyReport(
        n=n,
        lambda_max=float(lambda_max),
        ci=float(ci),
        ri=float(ri),
        cr=float(cr),
        passed=cr < CR_THRESHOLD,
    )


def dominant_eigen(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Principal eigenpair of a positive matrix by power iteration.

    Iterates x -> A x / sum(A x) from the uniform vector until the
    successive-iterate max-norm drops below ``POWER_TOLERANCE`` (1e-12),
    at most ``POWER_MAX_ITERATIONS`` times. Returns the sum-1 eigenvector
    and lambda_max = mean((A w)_i / w_i). The eigenvector is invariant
    under positive scaling of ``a``; the eigenvalue scales linearly.
    """
    a = _positive_floats(a, MatrixValidationError, "power iteration requires a strictly positive matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise MatrixValidationError(f"expected a square matrix, got shape {a.shape}")
    n = len(a)
    x = np.full(n, 1.0 / n)
    step = np.inf
    for _ in range(POWER_MAX_ITERATIONS):
        y = a @ x
        y /= y.sum()
        step = float(np.max(np.abs(y - x)))
        x = y
        if step < POWER_TOLERANCE:
            break
    else:
        raise IterationLimitError(POWER_MAX_ITERATIONS, step)
    lam = float(np.mean((a @ x) / x))
    return x, lam


def geometric_mean_weights(a: np.ndarray) -> np.ndarray:
    """Normalized row geometric means; deterministic eigenvector cross-check."""
    a = np.asarray(a, dtype=float)
    g = np.exp(np.mean(np.log(a), axis=1))
    return g / g.sum()


def principal_weights(
    m: ComparisonMatrix,
    *,
    method: str = METHODS[0],
) -> tuple[WeightVector, ConsistencyReport]:
    """Weights and consistency verdict for one comparison matrix.

    ``method`` is "power" (principal eigenvector, the canonical choice)
    or "geometric" (row geometric means). lambda_max always comes from
    the ratio mean((A w)_i / w_i), so the report is meaningful for both.
    """
    if method not in METHODS:
        raise ChoiceError(f"method must be one of {METHODS}, got {method!r}")
    if method == "power":
        w, lam = dominant_eigen(m.a)
    else:
        w = geometric_mean_weights(m.a)
        lam = float(np.mean((m.a @ w) / w))
    report = consistency_report(lam, m.n)
    return WeightVector(m.labels, tuple(w)), report


@dataclass(frozen=True)
class CriteriaHierarchy:
    """Two-level hierarchy: criteria weights over per-criterion player scores.

    ``player_scores`` maps every criterion to a normalized score vector
    over one shared player list (a column per criterion). Consistency
    reports are present for matrix-sourced levels and absent for
    directly supplied scores.
    """

    criteria_weights: WeightVector
    player_scores: Mapping[str, WeightVector]
    criteria_consistency: ConsistencyReport | None = None
    score_consistency: Mapping[str, ConsistencyReport] = field(default_factory=dict)

    def __post_init__(self):
        scores = dict(self.player_scores)
        criteria = set(self.criteria_weights.labels)
        if set(scores) != criteria:
            missing = sorted(criteria - set(scores))
            extra = sorted(set(scores) - criteria)
            raise AlignmentError(
                f"player scores must cover the criteria exactly: no player scores for {missing}, "
                f"scores for unknown criteria {extra}"
            )
        player_lists = {sv.labels for sv in scores.values()}
        if len(player_lists) != 1:
            raise AlignmentError("all score vectors must share one ordered player list")
        object.__setattr__(self, "player_scores", MappingProxyType(scores))
        object.__setattr__(self, "score_consistency", MappingProxyType(dict(self.score_consistency)))

    @property
    def players(self) -> tuple[str, ...]:
        return next(iter(self.player_scores.values())).labels

    @classmethod
    def from_matrices(
        cls,
        criteria: ComparisonMatrix,
        alternatives: Mapping[str, ComparisonMatrix | WeightVector],
        *,
        method: str = METHODS[0],
    ) -> CriteriaHierarchy:
        """Evaluate every comparison matrix in a two-level hierarchy.

        ``alternatives`` maps each criterion label to either a player
        comparison matrix (weights and consistency are computed) or an
        already-normalized WeightVector of direct scores.
        """
        criteria_weights, criteria_report = principal_weights(criteria, method=method)
        scores: dict[str, WeightVector] = {}
        reports: dict[str, ConsistencyReport] = {}
        for label, entry in alternatives.items():
            if isinstance(entry, ComparisonMatrix):
                scores[label], reports[label] = principal_weights(entry, method=method)
            else:
                scores[label] = entry
        return cls(
            criteria_weights=criteria_weights,
            player_scores=scores,
            criteria_consistency=criteria_report,
            score_consistency=reports,
        )


def synthesize_factors(h: CriteriaHierarchy) -> AdjustmentFactors:
    """Weighted-sum synthesis of per-player influence factors.

    G_i = sum_k criteria_weight[k] * player_scores[k][i], computed in
    floats, then divided by their exact sum, so the factors sum to
    exactly 1. Every matrix-sourced level must pass the consistency gate.
    """
    if h.criteria_consistency is not None and not h.criteria_consistency.passed:
        raise ConsistencyGateError("criteria", h.criteria_consistency.cr)
    for label in h.criteria_weights.labels:
        report = h.score_consistency.get(label)
        if report is not None and not report.passed:
            raise ConsistencyGateError(label, report.cr)
    players = h.players
    g = np.zeros(len(players))
    for label, weight in zip(h.criteria_weights.labels, h.criteria_weights.w):
        g += weight * h.player_scores[label].as_array()
    return compute_deltas(g.tolist(), players, normalize=True)
