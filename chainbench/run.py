"""chainshare benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

    python3 chainbench/run.py --workload exact-wide --seed 1 --seconds 22 --trace 0
    python3 chainbench/run.py --workload all --seed 1 --seconds 22

Run from the repository root; the package is imported from ./src.
Workloads: exact-wide, batch-small, sample-mid, sample-wide (see
workloads.py for what each does and why it was chosen). With --trace 0
the last line of stdout is a JSON object with the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics, taken
from traced passes that alternate with untraced ones. Human-readable
lines, run metadata and the report digest come before it. End-to-end
times are corrected for the host's speed with a reference computation
run between the operations (see Run.end_to_end).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
SETUP_REPEATS = 7
DIGEST_SEED = 0
# After each operation the benchmark runs a fixed pure-Python computation
# for about a tenth of the operation's time, and after each set-up for half
# of its time. Its nominal time per unit is about what one unit takes on a
# 2-vCPU cloud VM; only the ratio matters.
REFERENCE_SHARE = 0.1
SETUP_REFERENCE_SHARE = 0.5
REFERENCE_UNIT_S = 0.0005


def reference_unit() -> None:
    """One unit of the reference computation: a dict, JSON, and exact fractions
    with small and with growing denominators, as in chainshare."""
    total = Fraction(0)
    table = {}
    for i in range(1, 41):
        total += Fraction(i, 7 * i + 3)
        table[str(i)] = [i, total.numerator % 1000]
    json.loads(json.dumps(table))
    x = Fraction(1, 3)
    for i in range(2, 60):
        x = x * Fraction(i, i + 7) + Fraction(1, i * i + 1)


def reference(elapsed: float, share: float) -> tuple[int, float]:
    """Run the reference for about ``share`` of ``elapsed``: (units run, seconds taken)."""
    units = max(1, round(share * elapsed / REFERENCE_UNIT_S))
    start = perf_counter()
    for _ in range(units):
        reference_unit()
    return units, perf_counter() - start


def fresh_import():
    """Import chainshare anew from ./src, so each set-up pays for the import."""
    for name in [m for m in sys.modules if m.split(".")[0] == "chainshare"]:
        del sys.modules[name]
    importlib.import_module("chainshare.cli")


def metadata() -> dict:
    import numpy

    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            sha = target.read_text().strip() if target.is_file() else None
        else:
            sha = ref
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
    }


def p95(samples: list[float]) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


class Run:
    """One measured run of a workload: timed passes over its operations, each checked."""

    def __init__(self, workloads, name: str, seed: int, tracer):
        self.workloads = workloads
        self.name = name
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.tracebacks = 0
        self.problems: list[str] = []
        self.setup_times: list[float] = []
        self.setup_speeds: list[float] = []
        self.reference_seconds = 0.0
        self.reference_units = 0
        self.ops: list = []
        self.set_up()
        self.verified: dict[int, tuple] = {}
        self.last = [None] * len(self.ops)
        self.first_digest = None
        self.passes: list[tuple[bool, float]] = []  # (traced, seconds of its operations)
        self.latencies: list[list[float]] = [[] for _ in self.ops]  # per op, untraced passes
        self.perm_seconds = 0.0
        self.perm_count = 0

    def set_up(self) -> None:
        """Import chainshare anew, generate the inputs and warm up: one timed set-up."""
        start = perf_counter()
        fresh_import()
        workload = self.workloads.WORKLOADS[self.name](self.seed)
        for op in workload.warmup:
            op.run()
        elapsed = perf_counter() - start
        # A set-up is short, so it is corrected by the speed of the reference
        # run right after it, not by the speed of the whole run.
        units, seconds = reference(elapsed, SETUP_REFERENCE_SHARE)
        self.setup_times.append(elapsed)
        self.setup_speeds.append(REFERENCE_UNIT_S * units / seconds)
        if self.ops and [op.label for op in workload.ops] != [op.label for op in self.ops]:
            self.fail("a set-up from the same seed built other operations")
        # Later passes use the operations of the latest import, so that the
        # objects they pass in come from the modules that receive them.
        self.workload, self.ops = workload, workload.ops

    def speed(self) -> float:
        """Nominal over measured time of the reference: above 1 when the host ran fast."""
        return REFERENCE_UNIT_S * self.reference_units / self.reference_seconds

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    def evaluate(self, index: int, outcome) -> None:
        op = self.ops[index]
        self.attempted += 1
        error = outcome.error
        if error is not None:
            if op.defect == type(error).__name__:
                self.tracebacks += 1
            else:
                self.fail(f"{op.label}: raised {type(error).__name__}: {error}")
            return
        key = (outcome.code, outcome.stdout)
        if self.verified.get(index) == key:
            return
        if outcome.code != op.expect:
            return self.fail(f"{op.label}: exit code {outcome.code}, want {op.expect}")
        if op.check is None:
            problem = outcome.stdout and "an error exit printed a report"
        else:
            try:
                problem = op.check(outcome.stdout)
            except (KeyError, IndexError, ValueError) as exc:
                problem = f"unreadable report ({type(exc).__name__}: {exc})"
        if problem:
            return self.fail(f"{op.label}: {problem}")
        self.verified[index] = key

    def one_pass(self, traced: bool) -> None:
        tracer = self.tracer
        digest = hashlib.sha256()
        seconds = 0.0
        with tracer.installed() if traced else nullcontext():
            for index, op in enumerate(self.ops):
                began = perf_counter()
                with tracer.span("cli.command") if traced and op.cli else nullcontext():
                    outcome = op.run()
                elapsed = perf_counter() - began
                seconds += elapsed
                units, reference_s = reference(elapsed, REFERENCE_SHARE)
                self.reference_units += units
                self.reference_seconds += reference_s
                if not traced:
                    self.latencies[index].append(elapsed)
                    if op.perms:
                        self.perm_seconds += elapsed
                        self.perm_count += op.perms
                self.evaluate(index, outcome)
                self.last[index] = outcome
                if op.digest:
                    digest.update(f"{op.label}\n{outcome.code}\n{outcome.stdout}\n".encode())
            self.passes.append((traced, seconds))
        if self.first_digest is None:
            self.first_digest = digest.hexdigest()
        elif digest.hexdigest() != self.first_digest:
            self.fail("the reports changed between passes")

    def measure(self, seconds: float, trace: bool) -> None:
        gc.collect()
        deadline = perf_counter() + seconds
        while True:
            # The set-ups are spread over the first passes, so that they see
            # the host in the same states as the passes do.
            if 0 < len(self.passes) < SETUP_REPEATS:
                self.set_up()
            traced = trace and len(self.passes) % 2 == 1
            if self.tracer is not None:
                self.tracer.pass_index = len(self.passes)
            self.one_pass(traced)
            if (perf_counter() >= deadline and len(self.setup_times) >= SETUP_REPEATS
                    and (not trace or len(self.passes) % 2 == 0)):
                break
        problem = self.workload.final_check(self.last)
        if problem:
            self.fail(problem)
        if self.seed == DIGEST_SEED:
            want = json.loads(DIGESTS.read_text()).get(self.name)
            if want != self.first_digest:
                self.fail(f"report digest {self.first_digest} differs from the recorded {want}")

    def raw_end_to_end(self) -> dict[str, float]:
        """The end-to-end metrics in measured seconds, before the speed correction."""
        untraced = [s for traced, s in self.passes if not traced]
        # A command's latency is its mean over the passes, and the
        # percentiles are over the distinct commands.
        per_command = [statistics.fmean(times) for times in self.latencies]
        return {
            "run_s": statistics.fmean(untraced),
            "cmd_p50_ms": 1000 * statistics.median(per_command),
            "cmd_p95_ms": 1000 * p95(per_command),
            "cmds_per_s": len(self.ops) * len(untraced) / sum(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(self.setup_times),
        }

    def end_to_end(self) -> dict[str, float]:
        """Times scaled by the run's speed, so that they read as on a host of nominal speed.

        The host's speed drifts by up to 2x over minutes, and a whole run
        can sit in a slow or a fast stretch. The reference computation,
        interleaved with the operations, shares that drift; dividing by
        it removes the drift and leaves the program's own cost.
        """
        values = self.raw_end_to_end()
        speed = self.speed()
        for name in ("run_s", "cmd_p50_ms", "cmd_p95_ms"):
            values[name] *= speed
        values["cmds_per_s"] /= speed
        values["setup_s"] = statistics.median(t * v for t, v in zip(self.setup_times, self.setup_speeds))
        return values

    def per_layer(self) -> dict[str, float]:
        traced = [i for i, (t, _) in enumerate(self.passes) if t]
        metrics = self.tracer.layer_metrics(traced)
        untraced_s = statistics.median(s for t, s in self.passes if not t)
        traced_s = statistics.median(s for t, s in self.passes if t)
        metrics["trace.overhead_s"] = traced_s - untraced_s
        metrics["cli.tracebacks"] = self.tracebacks / len(self.passes)
        metrics["perms_per_s"] = self.perm_count / self.perm_seconds if self.perm_seconds else 0.0
        return metrics


def result_line(spec_metrics: list[dict], values: dict[str, float], run: Run) -> dict:
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in spec_metrics
        },
    }


def run_all(spec: dict, args) -> int:
    """Each workload in its own process, one after another; a summary line at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        argv = [sys.executable, str(Path(__file__)), "--workload", workload["name"],
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload['name']} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload['name']}/{name}"] = metric
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chainshare" / "__init__.py").is_file():
        print(f"error: no chainshare package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(spec, args)
    sys.path.insert(0, str(SRC))
    fresh_import()
    if not Path(sys.modules["chainshare"].__file__).resolve().is_relative_to(SRC):
        print("error: chainshare was not imported from ./src", file=sys.stderr)
        return 2
    import spans
    import workloads

    workdir = ROOT / ".chainbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    home = os.getcwd()
    os.chdir(workdir)
    try:
        tracer = spans.Tracer() if args.trace else None
        run = Run(workloads, args.workload, args.seed, tracer)
        run.measure(args.seconds, bool(args.trace))
        values = run.end_to_end()
        if args.trace:
            values.update(run.per_layer())
            tracer.write(workdir.parent / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    print("meta " + json.dumps(metadata() | {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "passes": len(run.passes), "ops_per_pass": len(run.ops), "report_sha256": run.first_digest,
        "failed_ratio": run.failed / run.attempted, "tracebacks": run.tracebacks,
        "speed": run.speed(), "measured": run.raw_end_to_end(),
    }))
    for problem in run.problems:
        print(f"FAILED {problem}")
    for m in metrics:
        print(f"{args.workload:12} {m['name']:24} {values.get(m['name'], 0.0):14.6g} {m['unit']}")
    print(json.dumps(result_line(metrics, values, run)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
