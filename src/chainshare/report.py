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
from typing import Callable, Iterable, NamedTuple

from .adjust import AdjustedAllocation, AdjustmentFactors
from .ahp import CriteriaHierarchy
from .errors import ChoiceError
from .game import Allocation, ValidationReport
from .rational import exact_string, format_fixed
from .sampling import EstimateReport

DISPLAY_PLACES = 4


class Section(NamedTuple):
    """One titled block of a report, rendered by every format.

    The table prints the title, ``header`` over ``rows()`` and ``totals`` (no
    columns when ``header`` is empty), then ``notes()``; CSV prints
    ``csv_header`` (default ``header``) over each row cut to its width; the
    structured form adds the keys of ``entries()``. ``rows``, ``notes`` and
    ``entries`` are functions: a format calls only those whose output it
    prints, and each call builds anew, so one document renders in every
    format, any number of times.
    """

    title: str
    header: tuple[str, ...]
    rows: Callable[[], Iterable[list[str]]]
    entries: Callable[[], dict]
    totals: tuple[list[str], ...] = ()
    notes: Callable[[], Iterable[str]] = tuple
    csv_header: tuple[str, ...] = ()


@dataclass(frozen=True)
class ReportDocument:
    """Everything one command run produced, ready to render.

    ``kind`` labels the structured form, ``sections`` are in table order,
    CSV prints ``sections[csv]`` (nothing when there are no sections), and
    ``ok`` is False when the report found a fault.
    """

    kind: str
    players: tuple[str, ...]
    sections: tuple[Section, ...] = ()
    csv: int = 0
    ok: bool = True


def render(doc: ReportDocument, format: str = "table") -> str:
    renderer = _RENDERERS.get(format)
    if renderer is None:
        raise ChoiceError(f"format must be one of {FORMATS}, got {format!r}")
    return renderer(doc)


def _fixed(value) -> str:
    return format_fixed(value, DISPLAY_PLACES)


def _num(value: Fraction) -> dict:
    try:
        approx = float(value)
    except OverflowError:  # beyond about 1.8e308: the exact string alone carries it
        approx = None
    return {"exact": exact_string(value), "float": approx}


def _nums(players, values) -> dict:
    return {p: _num(v) for p, v in zip(players, values)}


def classical(players, allocation: Allocation) -> Section:
    payoffs = allocation.payoffs
    return Section(
        "Classical allocation", ("player", "payoff"),
        lambda: ([p, _fixed(v)] for p, v in zip(players, payoffs)),
        lambda: {"classical": _nums(players, payoffs)},
        totals=(["total", _fixed(allocation.total)],), csv_header=("player", "classical"),
    )


def adjusted(players, adj: AdjustedAllocation) -> Section:
    short = [p for p, ok in zip(players, adj.rationality_flags) if not ok]
    warning = ["warning: adjusted payoff below standalone value for " + ", ".join(short)] if short else []
    header = ("player", "classical", "adjusted", "delta_g", "delta_v")
    columns = (adj.base.payoffs, adj.adjusted_payoffs, adj.factors.deviations, adj.adjustments)
    return Section(
        f"Adjusted allocation (mode: {adj.mode})", header + ("rational",),
        lambda: ([p, *map(_fixed, values), "yes" if ok else "NO"]
                 for p, ok, *values in zip(players, adj.rationality_flags, *columns)),
        lambda: factors(players, adj.factors).entries() | {"adjusted": {
            "mode": adj.mode,
            "payoffs": _nums(players, adj.adjusted_payoffs),
            "delta_v": _nums(players, adj.adjustments),
            "efficiency_gap": _num(adj.efficiency_gap),
            "rationality": dict(zip(players, adj.rationality_flags)),
        }},
        notes=lambda: [f"efficiency gap: {_fixed(adj.efficiency_gap)}", *warning], csv_header=header,
    )


def factors(players, factors: AdjustmentFactors) -> Section:
    return Section(
        "Influence factors", ("player", "factor", "delta_g"),
        lambda: ([p, _fixed(f), _fixed(d)] for p, f, d in zip(players, factors.factors, factors.deviations)),
        lambda: {"factors": _nums(players, factors.factors), "delta_g": _nums(players, factors.deviations)},
    )


def weights(h: CriteriaHierarchy) -> Section:
    labels, w = h.criteria_weights.labels, h.criteria_weights.w
    reports = [("consistency", h.criteria_consistency)] + [
        (f"{label} scores", h.score_consistency.get(label)) for label in labels
    ]

    def entries() -> dict:
        block: dict = {"criteria_weights": dict(zip(labels, w))}
        if h.criteria_consistency is not None:
            block["consistency"] = asdict(h.criteria_consistency)
        if h.score_consistency:
            block["score_consistency"] = {label: asdict(r) for label, r in sorted(h.score_consistency.items())}
        return {"ahp": block}

    return Section(
        "Criteria weights", ("criterion", "weight"),
        lambda: ([c, _fixed(x)] for c, x in zip(labels, w)),
        entries,
        notes=lambda: (
            f"{name}: lambda_max = {r.lambda_max:.4f}, CI = {r.ci:.4f}, RI = {r.ri:.2f}, "
            f"CR = {r.cr:.4f} -> {'pass' if r.passed else 'FAIL'}"
            for name, r in reports if r is not None
        ),
    )


def sampled(players, est: EstimateReport) -> Section:
    return Section(
        f"Sampled allocation ({est.m} permutations)", ("player", "estimate", "std_error"),
        lambda: ([p, _fixed(e), _fixed(se)] for p, e, se in zip(players, est.estimates, est.std_error)),
        lambda: {"sampling": {
            "permutations": est.m,
            "estimates": _nums(players, est.estimates),
            "std_error": dict(zip(players, est.std_error)),
            "rng": est.rng,
        }},
        totals=(["total", _fixed(sum(est.estimates, Fraction(0))), ""],), notes=lambda: [f"rng: {est.rng}"],
    )


def violations(validation: ValidationReport) -> Section:
    found = validation.violations
    return Section(
        "Superadditivity check", (),
        lambda: (["+".join(v.left.members), "+".join(v.right.members),
                  _fixed(v.left_value), _fixed(v.right_value), _fixed(v.union_value)] for v in found),
        lambda: {"validation": {"ok": validation.ok, "violations": [
            {"left": list(v.left.members), "right": list(v.right.members), "left_value": _num(v.left_value),
             "right_value": _num(v.right_value), "union_value": _num(v.union_value)}
            for v in found
        ]}},
        notes=lambda: map(str, found) if found else ["no superadditivity violations"],
        csv_header=("left", "right", "left_value", "right_value", "union_value"),
    )


def render_table(doc: ReportDocument) -> str:
    lines = [f"Players: {', '.join(doc.players)}"]
    for section in doc.sections:
        lines += ["", section.title]
        if section.header:
            table = [section.header, *section.rows(), *section.totals]
            widths = [max(map(len, column)) for column in zip(*table)]
            lines += ["  " + "  ".join(map(str.ljust, row, widths)).rstrip() for row in table]
        lines += ["  " + note for note in section.notes()]
    return "\n".join(lines) + "\n"


def render_csv(doc: ReportDocument) -> str:
    if not doc.sections:
        return ""
    section = doc.sections[doc.csv]
    header = section.csv_header or section.header
    rows = [header, *(row[: len(header)] for row in section.rows())]
    return "".join(",".join(map(_csv_field, row)) + "\n" for row in rows)


def _csv_field(text: str) -> str:
    """Quote a field holding a comma, a quote or a line break, "\r" alone included.

    csv.writer with a "\n" terminator leaves a lone "\r" bare, and
    csv.reader then ends the record there.
    """
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def render_structured(doc: ReportDocument) -> str:
    out: dict = {"kind": doc.kind, "players": list(doc.players)}
    for section in doc.sections:
        out |= section.entries()
    return json.dumps(out, indent=2) + "\n"


_RENDERERS = {"table": render_table, "csv": render_csv, "structured": render_structured}
FORMATS = tuple(_RENDERERS)
