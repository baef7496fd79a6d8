"""Rendering of engine outputs as text tables, CSV, and structured JSON.

Renderers only format numbers the engines already computed. Output is
deterministic: fixed section and column order, 4-decimal display
rounding, LF line endings; the structured form carries full precision
as exact strings alongside float approximations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .adjust import AdjustedAllocation, AdjustmentFactors
from .ahp import ConsistencyReport, CriteriaHierarchy
from .game import Allocation, ValidationReport
from .rational import exact_string, format_fixed
from .sampling import EstimateReport

FORMATS = ("table", "csv", "structured")

DISPLAY_PLACES = 4

CSV_HEADERS = {
    "shapley": "player,classical",
    "allocate": "player,classical,adjusted,delta_g,delta_v",
    "ahp-weights": "criterion,weight",
    "ahp-synthesize": "player,factor,delta_g",
    "sample": "player,estimate,std_error",
    "validate": "left,right,left_value,right_value,union_value",
}


@dataclass(frozen=True)
class ReportDocument:
    """Everything one command run produced, ready to render.

    ``kind`` names the primary section (and picks the CSV layout); the
    optional sections render only when present.
    """

    kind: str
    players: tuple[str, ...]
    classical: Allocation | None = None
    adjusted: AdjustedAllocation | None = None
    factors: AdjustmentFactors | None = None
    validation: ValidationReport | None = None
    hierarchy: CriteriaHierarchy | None = None
    estimates: EstimateReport | None = None

    def __post_init__(self):
        if self.kind not in CSV_HEADERS:
            raise ValueError(f"unknown report kind {self.kind!r}")


def render(doc: ReportDocument, format: str = "table") -> str:
    if format == "table":
        return render_table(doc)
    if format == "csv":
        return render_csv(doc)
    if format == "structured":
        return render_structured(doc)
    raise ValueError(f"format must be one of {FORMATS}, got {format!r}")


def _fixed(value) -> str:
    return format_fixed(value, DISPLAY_PLACES)


def _rows(lines: list[str], header: list[str], body: list[list[str]]) -> None:
    table = [header] + body
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        lines.append("  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _consistency_line(report: ConsistencyReport) -> str:
    verdict = "pass" if report.passed else "FAIL"
    return (
        f"lambda_max = {report.lambda_max:.4f}, CI = {report.ci:.4f}, "
        f"RI = {report.ri:.2f}, CR = {report.cr:.4f} -> {verdict}"
    )


def render_table(doc: ReportDocument) -> str:
    lines: list[str] = [f"Players: {', '.join(doc.players)}"]

    if doc.classical is not None:
        lines += ["", "Classical allocation"]
        body = [[p, _fixed(v)] for p, v in zip(doc.players, doc.classical.payoffs)]
        body.append(["total", _fixed(doc.classical.total)])
        _rows(lines, ["player", "payoff"], body)

    if doc.adjusted is not None:
        adj = doc.adjusted
        lines += ["", f"Adjusted allocation (mode: {adj.mode})"]
        body = []
        for i, p in enumerate(doc.players):
            body.append(
                [
                    p,
                    _fixed(adj.base.payoffs[i]),
                    _fixed(adj.adjusted_payoffs[i]),
                    _fixed(adj.factors.deviations[i]),
                    _fixed(adj.adjustments[i]),
                    "yes" if adj.rationality_flags[i] else "NO",
                ]
            )
        _rows(lines, ["player", "classical", "adjusted", "delta_g", "delta_v", "rational"], body)
        lines.append(f"  efficiency gap: {_fixed(adj.efficiency_gap)}")
        short = [p for p, ok in zip(doc.players, adj.rationality_flags) if not ok]
        if short:
            lines.append(
                "  warning: adjusted payoff below standalone value for " + ", ".join(short)
            )

    if doc.factors is not None and doc.adjusted is None:
        lines += ["", "Influence factors"]
        body = [
            [p, _fixed(f), _fixed(d)]
            for p, f, d in zip(doc.players, doc.factors.factors, doc.factors.deviations)
        ]
        _rows(lines, ["player", "factor", "delta_g"], body)

    if doc.hierarchy is not None:
        h = doc.hierarchy
        lines += ["", "Criteria weights"]
        body = [[c, _fixed(w)] for c, w in zip(h.criteria_weights.labels, h.criteria_weights.w)]
        _rows(lines, ["criterion", "weight"], body)
        if h.criteria_consistency is not None:
            lines.append("  consistency: " + _consistency_line(h.criteria_consistency))
        for label in h.criteria_weights.labels:
            report = h.score_consistency.get(label)
            if report is not None:
                lines.append(f"  {label} scores: " + _consistency_line(report))

    if doc.estimates is not None:
        est = doc.estimates
        lines += ["", f"Sampled allocation ({est.m} permutations)"]
        body = [
            [p, _fixed(e), _fixed(se)]
            for p, e, se in zip(doc.players, est.estimates, est.std_error)
        ]
        body.append(["total", _fixed(sum(est.estimates, Fraction(0))), ""])
        _rows(lines, ["player", "estimate", "std_error"], body)
        lines.append(f"  rng: {est.rng}")

    if doc.validation is not None:
        lines += ["", "Superadditivity check"]
        if doc.validation.ok:
            lines.append("  no superadditivity violations")
        else:
            for v in doc.validation.violations:
                lines.append(f"  {v}")

    return "\n".join(lines) + "\n"


def render_csv(doc: ReportDocument) -> str:
    rows = [CSV_HEADERS[doc.kind].split(",")]
    if doc.kind == "shapley":
        for p, v in zip(doc.players, doc.classical.payoffs):
            rows.append([p, _fixed(v)])
    elif doc.kind == "allocate":
        adj = doc.adjusted
        for i, p in enumerate(doc.players):
            rows.append([
                p, _fixed(adj.base.payoffs[i]), _fixed(adj.adjusted_payoffs[i]),
                _fixed(adj.factors.deviations[i]), _fixed(adj.adjustments[i]),
            ])
    elif doc.kind == "ahp-weights":
        wv = doc.hierarchy.criteria_weights
        for c, w in zip(wv.labels, wv.w):
            rows.append([c, _fixed(w)])
    elif doc.kind == "ahp-synthesize":
        for p, f, d in zip(doc.players, doc.factors.factors, doc.factors.deviations):
            rows.append([p, _fixed(f), _fixed(d)])
    elif doc.kind == "sample":
        est = doc.estimates
        for p, e, se in zip(doc.players, est.estimates, est.std_error):
            rows.append([p, _fixed(e), _fixed(se)])
    elif doc.kind == "validate":
        for v in doc.validation.violations:
            rows.append([
                "+".join(v.left.members),
                "+".join(v.right.members),
                _fixed(v.left_value),
                _fixed(v.right_value),
                _fixed(v.union_value),
            ])
    return "".join(",".join(map(_csv_field, row)) + "\n" for row in rows)


def _csv_field(text: str) -> str:
    """Quote a field holding a comma, a quote or a line break, "\r" alone included.

    csv.writer with a "\n" terminator leaves a lone "\r" bare, and
    csv.reader then ends the record there.
    """
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _num(value: Fraction) -> dict:
    try:
        approx = float(value)
    except OverflowError:  # beyond about 1.8e308: the exact string alone carries it
        approx = None
    return {"exact": exact_string(value), "float": approx}


def render_structured(doc: ReportDocument) -> str:
    out: dict = {"kind": doc.kind, "players": list(doc.players)}
    if doc.classical is not None:
        out["classical"] = {p: _num(v) for p, v in zip(doc.players, doc.classical.payoffs)}
    if doc.factors is not None:
        out["factors"] = {p: _num(f) for p, f in zip(doc.players, doc.factors.factors)}
        out["delta_g"] = {p: _num(d) for p, d in zip(doc.players, doc.factors.deviations)}
    if doc.adjusted is not None:
        adj = doc.adjusted
        out["adjusted"] = {
            "mode": adj.mode,
            "payoffs": {p: _num(v) for p, v in zip(doc.players, adj.adjusted_payoffs)},
            "delta_v": {p: _num(v) for p, v in zip(doc.players, adj.adjustments)},
            "efficiency_gap": _num(adj.efficiency_gap),
            "rationality": dict(zip(doc.players, adj.rationality_flags)),
        }
    if doc.hierarchy is not None:
        h = doc.hierarchy
        block: dict = {
            "criteria_weights": dict(zip(h.criteria_weights.labels, h.criteria_weights.w)),
        }
        if h.criteria_consistency is not None:
            block["consistency"] = _consistency_dict(h.criteria_consistency)
        scores = {
            label: _consistency_dict(report)
            for label, report in sorted(h.score_consistency.items())
        }
        if scores:
            block["score_consistency"] = scores
        out["ahp"] = block
    if doc.estimates is not None:
        est = doc.estimates
        out["sampling"] = {
            "permutations": est.m,
            "estimates": {p: _num(e) for p, e in zip(doc.players, est.estimates)},
            "std_error": dict(zip(doc.players, est.std_error)),
            "rng": est.rng,
        }
    if doc.validation is not None:
        out["validation"] = {
            "ok": doc.validation.ok,
            "violations": [
                {
                    "left": list(v.left.members),
                    "right": list(v.right.members),
                    "left_value": _num(v.left_value),
                    "right_value": _num(v.right_value),
                    "union_value": _num(v.union_value),
                }
                for v in doc.validation.violations
            ],
        }
    return json.dumps(out, indent=2) + "\n"


def _consistency_dict(report: ConsistencyReport) -> dict:
    return {
        "n": report.n,
        "lambda_max": report.lambda_max,
        "ci": report.ci,
        "ri": report.ri,
        "cr": report.cr,
        "passed": report.passed,
    }
