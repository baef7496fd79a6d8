"""Output checks: every report is compared with answers known from the generator.

Exact quantities (Shapley payoffs, adjusted payoffs, efficiency gaps)
are compared as Fractions in the structured format and as their
4-place round-half-even rendering in the table and CSV formats. Float
quantities (pairwise-comparison weights) are compared with an
independent numpy eigen-solve, within 1e-6 (structured) or one display
unit (table, CSV). Sampled estimates must sum to v(N) exactly and lie
within six standard errors of the exact Shapley value.

Each check returns None when the output is right, else a message.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

PLACES = 4
DISPLAY_UNIT = 10.0**-PLACES


def fixed(value) -> str:
    """Round-half-even to four places, as the reports display numbers."""
    scaled = round(Fraction(value) * 10**PLACES)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**PLACES)
    return f"{sign}{whole}.{frac:0{PLACES}d}"


def rows(text: str, fmt: str) -> dict[str, list[str]]:
    """Cells of every table or CSV row, keyed by its first cell (last row wins).

    Table rows are the lines indented by exactly two spaces; indented
    lines with a colon are notes ("efficiency gap: ...", "R1 scores: ...").
    """
    out: dict[str, list[str]] = {}
    for line in text.splitlines()[1:] if fmt == "csv" else text.splitlines():
        if fmt == "csv":
            cells = line.split(",")
        elif line.startswith("  ") and not line.startswith("   ") and ":" not in line:
            cells = line.split()
        else:
            continue
        if cells:
            out[cells[0]] = cells
    return out


def efficiency_gap(table: str) -> str:
    """The number on the "efficiency gap:" line of a table report."""
    line = next((x for x in table.splitlines() if "efficiency gap:" in x), "")
    return line.split(":")[-1].strip()


def exact(entry: dict) -> Fraction:
    return Fraction(entry["exact"])


def _compare(label, got, want) -> str | None:
    return None if got == want else f"{label}: got {got}, want {want}"


def _first(*results) -> str | None:
    return next((r for r in results if r), None)


def principal_vector(matrix: list[list[str]], method: str) -> np.ndarray:
    """Principal eigenvector (or row geometric means), normalized to sum 1."""
    a = np.array([[float(Fraction(x)) for x in row] for row in matrix])
    if method == "geometric":
        g = np.exp(np.log(a).mean(axis=1))
        return g / g.sum()
    values, vectors = np.linalg.eig(a)
    v = np.abs(np.real(vectors[:, np.argmax(np.real(values))]))
    return v / v.sum()


def expected_hierarchy(ahp: dict, players, method: str = "power"):
    """Criteria weights and synthesized player factors of a scenario's ahp block."""
    criteria = ahp["criteria"]
    weights = principal_vector(ahp["criteria_matrix"], method)
    factors = np.zeros(len(players))
    for label, w in zip(criteria, weights):
        entry = ahp["alternatives"][label]
        if isinstance(entry, list):
            scores = principal_vector(entry, method)
        else:
            scores = np.array([float(Fraction(entry[p])) for p in players])
        factors += w * scores
    return dict(zip(criteria, weights)), dict(zip(players, factors))


def close(label, got, want: float, tolerance: float) -> str | None:
    got = float(got)
    return None if abs(got - want) <= tolerance else f"{label}: got {got}, want {want}"


# --- per-command checks -----------------------------------------------------


def check_shapley(out: str, fmt: str, players, phi, grand) -> str | None:
    if fmt == "structured":
        doc = json.loads(out)
        got = [exact(doc["classical"][p]) for p in players]
        return _first(
            _compare("efficiency", sum(got, Fraction(0)), grand),
            _compare("payoffs", got, list(phi)),
        )
    table = rows(out, fmt)
    problems = [_compare(p, table[p][1], fixed(v)) for p, v in zip(players, phi)]
    if fmt == "table":
        problems.append(_compare("total", table["total"][1], fixed(grand)))
    return _first(*problems)


def check_allocate(out: str, fmt: str, players, phi, levers, grand, mode, deltas) -> str | None:
    """``deltas`` are the exact G_i - 1/n, or None when they come from AHP
    synthesis; then the structured report's own delta_g are used, and
    table and CSV reports are checked on their classical column."""
    if fmt == "structured":
        doc = json.loads(out)
        classical = [exact(doc["classical"][p]) for p in players]
        reported = [exact(doc["delta_g"][p]) for p in players]
        d = reported if deltas is None else list(deltas)
        shift = list(levers) if mode == "eq3" else [grand] * len(players)
        adjusted = [c + di * s for c, di, s in zip(phi, d, shift)]
        gap = sum(di * s for di, s in zip(d, shift))
        block = doc["adjusted"]
        return _first(
            _compare("efficiency", sum(classical, Fraction(0)), grand),
            _compare("classical", classical, list(phi)),
            _compare("delta_g", reported, d),
            _compare("mode", block["mode"], mode),
            _compare("adjusted", [exact(block["payoffs"][p]) for p in players], adjusted),
            _compare("gap identity", exact(block["efficiency_gap"]), gap),
        )
    table = rows(out, fmt)
    problems = [_compare(p, table[p][1], fixed(v)) for p, v in zip(players, phi)]
    if deltas is not None:
        shift = list(levers) if mode == "eq3" else [grand] * len(players)
        for p, c, di, s in zip(players, phi, deltas, shift):
            problems.append(_compare(p, table[p][2:5], [fixed(c + di * s), fixed(di), fixed(di * s)]))
        if fmt == "table":
            gap = sum(di * s for di, s in zip(deltas, shift))
            problems.append(_compare("gap", efficiency_gap(out), fixed(gap)))
    return _first(*problems)


def check_validate(out: str, fmt: str, players, violations) -> str | None:
    """``violations`` are (left members, right members) pairs, in any order."""
    want = sorted((list(left), list(right)) for left, right in violations)
    if fmt == "structured":
        doc = json.loads(out)["validation"]
        got = sorted((v["left"], v["right"]) for v in doc["violations"])
        return _first(_compare("ok", doc["ok"], not want), _compare("violations", got, want))
    if fmt == "csv":
        got = sorted(
            tuple(cell.split("+") for cell in line.split(",")[:2]) for line in out.splitlines()[1:]
        )
        return _compare("violations", [tuple(g) for g in got], [tuple(w) for w in want])
    got = [line for line in out.splitlines() if line.startswith("  v(")]
    if not want:
        return None if "no superadditivity violations" in out else "expected no violations"
    return _compare("violation count", len(got), len(want))


def check_weights(out: str, fmt: str, criteria_weights: dict) -> str | None:
    if fmt == "structured":
        got = json.loads(out)["ahp"]["criteria_weights"]
        return _first(*(close(c, got[c], w, 1e-6) for c, w in criteria_weights.items()))
    table = rows(out, fmt)
    return _first(
        *(close(c, table[c][1], w, DISPLAY_UNIT) for c, w in criteria_weights.items())
    )


def check_synthesize(out: str, fmt: str, factors: dict) -> str | None:
    if fmt == "structured":
        doc = json.loads(out)
        total = sum(exact(doc["factors"][p]) for p in factors)
        return _first(
            close("factor sum", total, 1.0, 1e-9),
            *(close(p, exact(doc["factors"][p]), f, 1e-6) for p, f in factors.items()),
        )
    table = rows(out, fmt)
    return _first(*(close(p, table[p][1], f, DISPLAY_UNIT) for p, f in factors.items()))


def check_estimates(estimates, std_errors, phi, grand) -> str | None:
    """Exact efficiency, and every estimate within six standard errors."""
    if sum(estimates, Fraction(0)) != grand:
        return f"sampled efficiency: estimates sum to {sum(estimates)}, want {grand}"
    for i, (e, se, want) in enumerate(zip(estimates, std_errors, phi)):
        if abs(float(e) - float(want)) > 6 * se + 1e-6 * (1 + abs(float(want))):
            return f"estimate {i}: {float(e)} is more than 6 se ({se}) from {float(want)}"
    return None


def check_sample(out: str, fmt: str, players, phi, grand) -> str | None:
    if fmt == "structured":
        doc = json.loads(out)["sampling"]
        estimates = [exact(doc["estimates"][p]) for p in players]
        return check_estimates(estimates, [doc["std_error"][p] for p in players], phi, grand)
    table = rows(out, fmt)
    problems = []
    for p, want in zip(players, phi):
        estimate, se = float(table[p][1]), float(table[p][2])
        if abs(estimate - float(want)) > 6 * se + 2 * DISPLAY_UNIT:
            problems.append(f"{p}: estimate {estimate} more than 6 se ({se}) from {float(want)}")
    if fmt == "table":
        problems.append(_compare("total", table["total"][1], fixed(grand)))
    return _first(*problems)


def superadditivity_violations(values: list[Fraction], n: int) -> list[tuple[int, int]]:
    """Every disjoint (left, right) mask pair, left < right, that breaks superadditivity."""
    found = []
    for union in range(1, 1 << n):
        left = (union - 1) & union
        while left:
            right = union ^ left
            if left < right and values[union] < values[left] + values[right]:
                found.append((left, right))
            left = (left - 1) & union
    return found
