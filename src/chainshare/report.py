"""Rendering of engine outputs as text tables, CSV, and structured JSON.

Renderers only format numbers the engines already computed. Output is
deterministic: fixed section and column order, 4-decimal display
rounding, LF line endings; the structured form carries full precision
as exact strings alongside float approximations.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .adjust import AdjustedAllocation, AdjustmentFactors
from .ahp import CriteriaHierarchy
from .errors import ChoiceError
from .game import Allocation, ValidationReport
from .rational import exact_string, format_fixed
from .sampling import EstimateReport

FORMATS = ("table", "csv", "structured")

DISPLAY_PLACES = 4


@dataclass(frozen=True)
class ReportDocument:
    """Everything one command run produced, ready to render.

    ``kind`` names the primary section, the one CSV prints; the other
    sections render only when present.
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
        if self.kind not in SECTIONS:
            raise ChoiceError(f"unknown report kind {self.kind!r}")


def render(doc: ReportDocument, format: str = "table") -> str:
    renderer = {"table": render_table, "csv": render_csv, "structured": render_structured}.get(format)
    if renderer is None:
        raise ChoiceError(f"format must be one of {FORMATS}, got {format!r}")
    return renderer(doc)


def _fixed(value) -> str:
    return format_fixed(value, DISPLAY_PLACES)


class Section(NamedTuple):
    """One titled block of a report.

    The table prints the title, ``header`` over ``rows`` and ``totals`` (no
    columns when ``header`` is empty), then the notes; CSV prints ``csv_header``
    (default ``header``) over each row cut to its width. ``rows`` and ``notes``
    may be generators: only a format that prints them iterates them.
    """

    title: str
    header: tuple[str, ...]
    rows: Iterable[list[str]]
    totals: tuple[list[str], ...] = ()
    notes: Iterable[str] = ()
    csv_header: tuple[str, ...] = ()


def _classical(doc: ReportDocument) -> Section | None:
    if doc.classical is None:
        return None
    return Section(
        "Classical allocation", ("player", "payoff"),
        ([p, _fixed(v)] for p, v in zip(doc.players, doc.classical.payoffs)),
        totals=(["total", _fixed(doc.classical.total)],), csv_header=("player", "classical"),
    )


def _adjusted(doc: ReportDocument) -> Section | None:
    adj = doc.adjusted
    if adj is None:
        return None
    notes = [f"efficiency gap: {_fixed(adj.efficiency_gap)}"]
    short = [p for p, ok in zip(doc.players, adj.rationality_flags) if not ok]
    if short:
        notes.append("warning: adjusted payoff below standalone value for " + ", ".join(short))
    header = ("player", "classical", "adjusted", "delta_g", "delta_v")
    columns = (adj.base.payoffs, adj.adjusted_payoffs, adj.factors.deviations, adj.adjustments)
    return Section(
        f"Adjusted allocation (mode: {adj.mode})", header + ("rational",),
        ([p, *map(_fixed, values), "yes" if ok else "NO"]
         for p, ok, *values in zip(doc.players, adj.rationality_flags, *columns)),
        notes=notes, csv_header=header,
    )


def _factors(doc: ReportDocument) -> Section | None:
    factors = doc.factors
    if factors is None or doc.adjusted is not None:
        return None
    return Section(
        "Influence factors", ("player", "factor", "delta_g"),
        ([p, _fixed(f), _fixed(d)] for p, f, d in zip(doc.players, factors.factors, factors.deviations)),
    )


def _weights(doc: ReportDocument) -> Section | None:
    h = doc.hierarchy
    if h is None:
        return None
    reports = [("consistency", h.criteria_consistency)] + [
        (f"{label} scores", h.score_consistency.get(label)) for label in h.criteria_weights.labels
    ]
    return Section(
        "Criteria weights", ("criterion", "weight"),
        ([c, _fixed(w)] for c, w in zip(h.criteria_weights.labels, h.criteria_weights.w)),
        notes=(
            f"{name}: lambda_max = {r.lambda_max:.4f}, CI = {r.ci:.4f}, RI = {r.ri:.2f}, "
            f"CR = {r.cr:.4f} -> {'pass' if r.passed else 'FAIL'}"
            for name, r in reports if r is not None
        ),
    )


def _sampled(doc: ReportDocument) -> Section | None:
    est = doc.estimates
    if est is None:
        return None
    return Section(
        f"Sampled allocation ({est.m} permutations)", ("player", "estimate", "std_error"),
        ([p, _fixed(e), _fixed(se)] for p, e, se in zip(doc.players, est.estimates, est.std_error)),
        totals=(["total", _fixed(sum(est.estimates, Fraction(0))), ""],), notes=[f"rng: {est.rng}"],
    )


def _violations(doc: ReportDocument) -> Section | None:
    if doc.validation is None:
        return None
    violations = doc.validation.violations
    return Section(
        "Superadditivity check", (),
        (["+".join(v.left.members), "+".join(v.right.members),
          _fixed(v.left_value), _fixed(v.right_value), _fixed(v.union_value)] for v in violations),
        notes=map(str, violations) if violations else ["no superadditivity violations"],
        csv_header=("left", "right", "left_value", "right_value", "union_value"),
    )


# Report kind -> the builder of the one section its CSV prints; the table
# prints every section present, in this order.
SECTIONS = {
    "shapley": _classical,
    "allocate": _adjusted,
    "ahp-synthesize": _factors,
    "ahp-weights": _weights,
    "sample": _sampled,
    "validate": _violations,
}


def render_table(doc: ReportDocument) -> str:
    lines = [f"Players: {', '.join(doc.players)}"]
    for section in filter(None, (build(doc) for build in SECTIONS.values())):
        lines += ["", section.title]
        if section.header:
            table = [section.header, *section.rows, *section.totals]
            widths = [max(map(len, column)) for column in zip(*table)]
            lines += ["  " + "  ".join(map(str.ljust, row, widths)).rstrip() for row in table]
        lines += ["  " + note for note in section.notes]
    return "\n".join(lines) + "\n"


def render_csv(doc: ReportDocument) -> str:
    section = SECTIONS[doc.kind](doc)
    header = section.csv_header or section.header
    rows = [header, *(row[: len(header)] for row in section.rows)]
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
            block["consistency"] = asdict(h.criteria_consistency)
        scores = {label: asdict(report) for label, report in sorted(h.score_consistency.items())}
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
