"""Spans and counters around calls into chainshare's public functions.

The program is not changed: while a traced pass runs, each public
function named in LAYERS is replaced, in every chainshare module that
holds a reference to it, by a wrapper that records a span. Calls the
modules make into each other are therefore timed too, e.g. the
shapley_exact pass inside adjusted_shapley. Spans are kept in memory and
written out once, at the end of the run.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (defining module, public function) -> span name; the span name's
# prefix is the layer the per-layer metrics are reported under.
LAYERS = {
    ("chainshare.scenario", "load_scenario"): "scenario.load",
    ("chainshare.scenario", "scenario_game"): "game.build",
    ("chainshare.scenario", "resolve_factors"): "adjust.factors",
    ("chainshare.scenario", "scenario_hierarchy"): "ahp.weights",
    ("chainshare.ahp", "synthesize_factors"): "ahp.synthesize",
    ("chainshare.game", "shapley_exact"): "game.shapley",
    ("chainshare.game", "validate_game"): "game.validate",
    ("chainshare.adjust", "weighted_value_sums"): "adjust.levers",
    ("chainshare.adjust", "adjusted_shapley"): "adjust.adjusted",
    ("chainshare.sampling", "sample_shapley"): "sampling.sample",
    ("chainshare.report", "render"): "report.render",
}
ROOT = "cli.command"


class CountingOracle:
    """Counts and times calls to a value oracle; safe across worker threads."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.calls = 0
        self.seconds = 0.0
        self._lock = threading.Lock()

    def __call__(self, coalition):
        start = perf_counter()
        value = self.oracle(coalition)
        elapsed = perf_counter() - start
        with self._lock:
            self.calls += 1
            self.seconds += elapsed
        return value


class Tracer:
    """Spans (id, parent, trace id, pass, name, start, end) and per-pass counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.pass_index = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._trace_id = 0

    def count(self, name: str, amount) -> None:
        self.counts[self.pass_index][name] += amount

    @contextmanager
    def span(self, name: str):
        if not self._stack:
            self._trace_id += 1
        self._next_id += 1
        span_id = self._next_id
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, self._trace_id, self.pass_index, name, start, end))

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if name == "sampling.sample":
                oracle = CountingOracle(args[0])
                args = (oracle,) + args[1:]
            with self.span(name):
                result = fn(*args, **kwargs)
            self._count(name, args, result)
            if name == "sampling.sample":
                self.count("sampling.oracle_calls", oracle.calls)
                self.count("sampling.oracle_s", oracle.seconds)
            return result

        return traced

    def _count(self, name: str, args, result) -> None:
        if name == "scenario.load":
            self.count("scenario.bytes_in", os.path.getsize(args[0]))
            self.count("scenario.coalitions", len(result.coalition_values))
        elif name == "game.shapley":
            n = args[0].n
            self.count("game.terms", n << (n - 1))
        elif name == "game.validate":
            n = args[0].n
            self.count("game.pairs", (3**n - 2 ** (n + 1) + 1) // 2)
            self.count("game.violations", len(result.violations))
        elif name == "ahp.weights":
            self.count("ahp.matrices", 1 + len(args[0].ahp.alternative_matrices))
        elif name == "sampling.sample":
            self.count("sampling.steps", result.player_set.n * result.m)
        elif name == "report.render":
            self.count("report.bytes_out", len(result.encode("utf-8")))

    def _wrap_parser(self, build_parser):
        def traced_build_parser():
            with self.span("cli.build_parser"):
                parser = build_parser()
            parse_args = parser.parse_args

            def traced_parse_args(argv=None, namespace=None):
                with self.span("cli.parse_args"):
                    return parse_args(argv, namespace)

            parser.parse_args = traced_parse_args
            return parser

        return traced_build_parser

    @contextmanager
    def installed(self):
        """Swap the wrappers into every loaded chainshare module, then restore."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "chainshare"]
        targets = {(module, fn): self.wrap(span, getattr(sys.modules[module], fn))
                   for (module, fn), span in LAYERS.items()}
        cli = sys.modules["chainshare.cli"]
        targets[("chainshare.cli", "build_parser")] = self._wrap_parser(cli.build_parser)
        saved = []
        for (module, fn), wrapper in targets.items():
            original = getattr(sys.modules[module], fn)
            for m in modules:
                if vars(m).get(fn) is original:
                    saved.append((m, fn, original))
                    setattr(m, fn, wrapper)
        try:
            yield
        finally:
            for m, fn, original in saved:
                setattr(m, fn, original)

    def layer_metrics(self, passes: list[int]) -> dict[str, float]:
        """Per-pass totals of span time, self time and counters, median over ``passes``."""
        children: dict[int, float] = defaultdict(float)
        for _, parent, _, _, _, start, end in self.spans:
            children[parent] += end - start
        per_pass: dict[int, Counter] = {p: Counter(self.counts[p]) for p in passes}
        parse_by_trace: dict[int, float] = defaultdict(float)
        for span_id, _, trace, pass_index, name, start, end in self.spans:
            if pass_index not in per_pass:
                continue
            totals = per_pass[pass_index]
            totals[name + "_s"] += end - start
            if name == ROOT:
                totals["cli.self_s"] += (end - start) - children[span_id]
            elif name in ("cli.build_parser", "cli.parse_args"):
                parse_by_trace[trace] += end - start
        parse_ms = [1000 * s for s in parse_by_trace.values()]
        for totals in per_pass.values():
            totals["sampling.self_s"] = totals["sampling.sample_s"] - totals["sampling.oracle_s"]
            steps = totals.pop("sampling.steps", 0)
            totals["sampling.distinct_ratio"] = totals["sampling.oracle_calls"] / steps if steps else 0.0
        names = set().union(*per_pass.values()) if per_pass else set()
        out = {name: statistics.median(t[name] for t in per_pass.values()) for name in names}
        out["cli.parse_args_ms"] = statistics.median(parse_ms) if parse_ms else 0.0
        return out

    def write(self, path) -> None:
        fields = ("id", "parent", "trace", "pass", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
