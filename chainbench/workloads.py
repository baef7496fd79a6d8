"""The four benchmark workloads and the operations each one times.

Each workload is built from a seed: it generates its scenario files in
the current directory and returns the operations of one pass, each with
the check its output must pass. The program only ever sees the
generated files, the argv and, on sample-wide, the oracle.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
import gen

@dataclass
class Outcome:
    code: int | None
    stdout: str
    error: BaseException | None = None


@dataclass
class Op:
    """One timed operation and the check its outcome must pass.

    ``expect`` is the exit code a correct program returns. ``defect``
    names the exception a ROADMAP item 4 reproducer raises at present:
    that outcome is tallied as a traceback, not as a wrong result.
    ``digest`` marks outputs whose bytes the ROADMAP freezes.
    """

    label: str
    run: Callable[[], Outcome]
    check: Callable[[str], str | None] | None = None
    expect: int = 0
    defect: str | None = None
    digest: bool = True
    perms: int = 0
    cli: bool = True


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op]
    final_check: Callable[[list[Outcome]], str | None] = lambda outcomes: None


def run_cli(argv: list[str]) -> Outcome:
    """Run ``chainshare.cli.main`` in-process, capturing its output."""
    main = sys.modules["chainshare.cli"].main
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # an uncaught error: the CLI would print a traceback
        return Outcome(None, out.getvalue(), exc)
    return Outcome(code, out.getvalue())


def cli_op(argv: list[str], check=None, **kw) -> Op:
    return Op(" ".join(argv), lambda: run_cli(argv), check, **kw)


@dataclass
class Scenario:
    """A scenario file plus the answers its reports must contain."""

    path: str
    game: gen.Game
    factors: list[Fraction] | None = None
    normalize: bool = False
    mode: str | None = None
    ahp: dict | None = None

    def __post_init__(self):
        self.players = self.game.players
        self.phi = self.game.shapley()
        self.levers = self.game.levers()
        self.violations = [
            (self.game.members(left), self.game.members(right)) for left, right in self.game.violations
        ]

    def deltas(self, normalize: bool) -> list[Fraction] | None:
        if self.factors is None:
            return None
        g = self.factors
        if normalize or self.normalize:
            total = sum(g, Fraction(0))
            g = [x / total for x in g]
        return [x - Fraction(1, len(g)) for x in g]


def write_scenario(path: str, game: gen.Game, **extra) -> str:
    Path(path).write_text(gen.dump(gen.scenario_document(game, **extra)), encoding="utf-8")
    return path


def generated_scenario(rng: random.Random, path: str, n: int, kind: str) -> Scenario:
    game = gen.make_game(rng, n, violations=rng.choice((0, 0, 1, 2)))
    mode = rng.choice((None, "eq3", "grand"))
    extra: dict = {} if mode is None else {"mode": mode}
    sc = dict(mode=mode)
    if kind == "factors":
        total = 10_000 if rng.random() < 0.75 else rng.randint(9_901, 10_099)
        factors = gen.make_factors(rng, n, total)
        normalize = rng.random() < 0.3
        extra["factors"] = {p: gen.factor_string(f) for p, f in zip(game.players, factors)}
        if normalize:
            extra["normalize_factors"] = True
        sc.update(factors=factors, normalize=normalize)
    elif kind == "ahp":
        extra["ahp"] = gen.make_ahp(rng, game.players)
        sc.update(ahp=extra["ahp"])
    write_scenario(path, game, **extra)
    return Scenario(path, game, **sc)


def bundled_scenario(name: str) -> Scenario:
    """Copy a scenario shipped with chainshare into the work directory."""
    source = sys.modules["chainshare.scenario"].bundled_scenario(name)
    text = Path(source).read_text(encoding="utf-8")
    path = f"{name}.scenario"
    Path(path).write_text(text, encoding="utf-8")
    doc = json.loads(text)
    players = doc["players"]
    values = [Fraction(0)] * (1 << len(players))
    for entry in doc["coalitions"]:
        mask = sum(1 << players.index(p) for p in entry["members"])
        values[mask] = Fraction(entry["value"])
    game = gen.game_from_values(players, values)
    game.violations = checks.superadditivity_violations(values, len(players))
    factors = doc.get("factors")
    return Scenario(
        path,
        game,
        factors=None if factors is None else [Fraction(factors[p]) for p in players],
        normalize=doc.get("normalize_factors", False),
        mode=doc.get("mode"),
        ahp=doc.get("ahp"),
    )


# --- exact-wide ---------------------------------------------------------------

EXACT_PLAYERS = 14


def _allocate_op(sc: Scenario) -> Op:
    deltas = sc.deltas(False)
    return cli_op(
        ["allocate", sc.path, "--mode", "eq3", "--format", "table"],
        lambda out: checks.check_allocate(
            out, "table", sc.players, sc.phi, sc.levers, sc.game.grand, "eq3", deltas
        ),
    )


def exact_wide(seed: int) -> Workload:
    """`allocate --mode eq3 --format table` on one 14-player scenario.

    Why: the exact kernel plus the eq3 levers are about 85% of its time and
    parse about 10%, so exact-kernel work shows here; n = 15 or 16 takes
    7 to 14 s a command, too long to repeat within one run.
    """
    rng = random.Random(f"exact-wide:{seed}")

    def scenario(path: str, n: int) -> Scenario:
        game = gen.make_game(rng, n, violations=rng.randint(0, 2))
        factors = gen.make_factors(rng, n)
        write_scenario(path, game, factors={p: gen.factor_string(f) for p, f in zip(game.players, factors)})
        return Scenario(path, game, factors=factors)

    wide = scenario("wide.scenario", EXACT_PLAYERS)
    warm = scenario("warm.scenario", 4)

    def final_check(outcomes: list[Outcome]) -> str | None:
        # The table shows four places; the structured report shows the exact
        # payoffs behind it. Then the eq3 gap identity with A_i from the
        # program's own weighted_value_sums.
        structured = run_cli(["allocate", wide.path, "--mode", "eq3", "--format", "structured"])
        problem = checks.check_allocate(structured.stdout, "structured", wide.players, wide.phi,
                                        wide.levers, wide.game.grand, "eq3", wide.deltas(False))
        if problem:
            return f"structured report: {problem}"
        cs = sys.modules["chainshare"]
        levers = list(cs.weighted_value_sums(cs.scenario_game(cs.load_scenario(wide.path))))
        if levers != wide.levers:
            return "weighted_value_sums disagrees with the closed-form levers"
        gap = sum((d * a for d, a in zip(wide.deltas(False), levers)), Fraction(0))
        shown = checks.efficiency_gap(outcomes[0].stdout)
        if shown != checks.fixed(gap):
            return f"eq3 gap {shown!r} is not sum((G_i - 1/n) * A_i) = {checks.fixed(gap)}"
        return None

    return Workload([_allocate_op(wide)], [_allocate_op(warm)], final_check)


# --- batch-small --------------------------------------------------------------

BATCH_SCENARIOS = 60
BATCH_MALFORMED = 30
BATCH_PERMUTATIONS = 2000
FORMATS = ("table", "csv", "structured")
CHUNK_SIZES = (256, 1000, None, None, None, None, None)  # --chunk-size on 2 in 7 samples
# Fixed command counts, player counts and scenario kinds, so that the seed
# changes the inputs but not the shape of the stream.
COMMAND_MIX = {"shapley": 60, "allocate": 70, "validate": 44, "weights": 32, "synthesize": 32, "sample": 32}
SCENARIO_KINDS = ("factors", "ahp", "factors", "plain", "ahp")
SMALLEST, LARGEST = 3, 8


def _valid_command(rng: random.Random, kind: str, i: int, sc: Scenario) -> Op:
    """The i-th command of its kind. Its flags follow from i, so that every
    seed runs the same mix of formats and flags."""
    fmt = FORMATS[i % len(FORMATS)]
    tail = ["--format", fmt]
    players, phi, grand = sc.players, sc.phi, sc.game.grand

    if kind == "shapley":
        return cli_op(["shapley", sc.path] + tail,
                      lambda out: checks.check_shapley(out, fmt, players, phi, grand))
    if kind == "allocate":
        flag = (None, "eq3", "grand")[i // len(FORMATS) % 3]
        normalize = sc.factors is not None and i % 5 == 0
        argv = ["allocate", sc.path] + tail + (["--mode", flag] if flag else []) + (
            ["--normalize"] if normalize else [])
        mode = flag or sc.mode or "eq3"
        deltas = sc.deltas(normalize)
        return cli_op(argv, lambda out: checks.check_allocate(
            out, fmt, players, phi, sc.levers, grand, mode, deltas), digest=sc.ahp is None)
    if kind == "validate":
        strict = i % 10 < 3
        return cli_op(["validate", sc.path] + tail + (["--strict"] if strict else []),
                      lambda out: checks.check_validate(out, fmt, players, sc.violations),
                      expect=1 if strict and sc.violations else 0)
    if kind == "weights":
        method = ("power", "geometric")[i % 2]
        weights, _ = checks.expected_hierarchy(sc.ahp, players, method)
        return cli_op(["ahp", "weights", sc.path, "--method", method] + tail,
                      lambda out: checks.check_weights(out, fmt, weights))
    if kind == "synthesize":
        _, factors = checks.expected_hierarchy(sc.ahp, players)
        return cli_op(["ahp", "synthesize", sc.path] + tail,
                      lambda out: checks.check_synthesize(out, fmt, factors), digest=False)
    argv = ["sample", sc.path, "--permutations", str(BATCH_PERMUTATIONS),
            "--seed", str(rng.getrandbits(32))] + tail
    chunk = CHUNK_SIZES[i % len(CHUNK_SIZES)]
    if chunk:
        argv += ["--chunk-size", str(chunk)]
    return cli_op(argv, lambda out: checks.check_sample(out, fmt, players, phi, grand),
                  perms=BATCH_PERMUTATIONS)


def _malformed_commands(rng: random.Random, scenarios: list[Scenario]) -> tuple[list[Op], list[Op]]:
    """Bad inputs and flags with their documented exit codes, and the five
    ROADMAP item 4 reproducers, which raise the named exception today."""
    base = rng.choice([s for s in scenarios if s.factors is not None])
    small = gen.make_game(rng, 3)
    doc = gen.scenario_document(small)

    def variant(path: str, edit) -> None:
        d = json.loads(json.dumps(doc))
        edit(d)
        Path(path).write_text(gen.dump(d), encoding="utf-8")

    Path("bad-json.scenario").write_text(gen.dump(doc)[:-40], encoding="utf-8")
    variant("unknown-player.scenario", lambda d: d["coalitions"][0]["members"].append("ghost"))
    variant("incomplete.scenario", lambda d: d["coalitions"].pop(3))
    variant("float-value.scenario", lambda d: d["coalitions"][1].update(value=1000.5))
    variant("plain.scenario", lambda d: None)
    variant("factor-sum.scenario", lambda d: d.update(factors={p: "0.4" for p in d["players"]}))
    inconsistent = {  # a preference cycle: CR far above the 0.1 gate
        "criteria": ["R1", "R2", "R3"],
        "criteria_matrix": [["1", "9", "1/9"], ["1/9", "1", "9"], ["9", "1/9", "1"]],
        "alternatives": {c: gen.score_map(rng, small.players) for c in ("R1", "R2", "R3")},
    }
    variant("inconsistent.scenario", lambda d: d.update(ahp=inconsistent))
    variant("zero-factors.scenario",
            lambda d: d.update(factors={p: "0.00" for p in d["players"]}, normalize_factors=True))
    scores = {"R1": {p: s for p, s in zip(small.players, ("0.5", "0.5", "0.5"))}}
    variant("score-sum.scenario", lambda d: d.update(
        ahp={"criteria": ["R1"], "criteria_matrix": [["1"]], "alternatives": scores}))
    variant("huge-value.scenario", lambda d: d["coalitions"][0].update(value="1e300000"))
    Path("outdir").mkdir(exist_ok=True)

    documented = [
        (["shapley", base.path, "--format", "xml"], 2),
        (["sample", base.path, "--permutations", "many"], 2),
        (["allocate", base.path, "--mode", "half"], 2),
        (["frobnicate", base.path], 2),
        (["sample", base.path, "--permutations", "0"], 1),
        (["shapley", "absent.scenario"], 1),
        (["shapley", "bad-json.scenario"], 1),
        (["shapley", "unknown-player.scenario"], 1),
        (["validate", "incomplete.scenario"], 1),
        (["shapley", "float-value.scenario"], 1),
        (["allocate", "plain.scenario"], 1),
        (["allocate", "factor-sum.scenario"], 1),
        (["ahp", "synthesize", "inconsistent.scenario"], 1),
        (["ahp", "weights", "plain.scenario"], 1),
    ]
    reproducers = [
        (["sample", base.path, "--workers", "0"], 2, "ValueError"),
        (["allocate", "zero-factors.scenario"], 1, "ValueError"),
        (["ahp", "synthesize", "score-sum.scenario"], 1, "ValueError"),
        (["shapley", "huge-value.scenario", "--format", "csv"], 1, "ValueError"),
        (["shapley", base.path, "--output", "outdir"], 1, "IsADirectoryError"),
    ]
    count = BATCH_MALFORMED - len(reproducers)
    picks = [documented[k % len(documented)] for k in range(count)]
    ops = [cli_op(argv, expect=code) for argv, code in picks]
    return ops, [cli_op(argv, expect=code, defect=exc, digest=False) for argv, code, exc in reproducers]


def batch_small(seed: int) -> Workload:
    """300 shuffled CLI commands over 62 small scenarios, 30 of them malformed.

    Why: per-command fixed costs (argparse, file read, JSON parse, AHP,
    render) dominate and the kernel is negligible: the bypass case for
    kernel work, where fixed overhead added to tiny games shows.
    """
    rng = random.Random(f"batch-small:{seed}")
    sizes = LARGEST - SMALLEST + 1
    scenarios = [
        generated_scenario(rng, f"s{k:02d}.scenario", SMALLEST + k % sizes,
                           SCENARIO_KINDS[k // sizes % len(SCENARIO_KINDS)])
        for k in range(BATCH_SCENARIOS)
    ]
    scenarios += [bundled_scenario("paper_case"), bundled_scenario("paper_ahp")]
    with_ahp = [s for s in scenarios if s.ahp is not None]
    pools = {
        "allocate": [s for s in scenarios if s.factors is not None or s.ahp is not None],
        "weights": with_ahp,
        "synthesize": with_ahp,
    }
    ops = []
    for kind, count in COMMAND_MIX.items():
        pool = pools.get(kind, scenarios)
        for i in range(count):
            n = SMALLEST + i % sizes
            candidates = [s for s in pool if s.game.n == n]
            ops.append(_valid_command(rng, kind, i, candidates[i // sizes % len(candidates)]))
    documented, reproducers = _malformed_commands(rng, scenarios)
    ops += documented + reproducers
    rng.shuffle(ops)
    return Workload(ops, ops[:20])


# --- sample-mid ---------------------------------------------------------------

MID_PLAYERS = 12
MID_PERMUTATIONS = 40_000
MID_WORKERS = 2


def sample_mid(seed: int) -> Workload:
    """`sample --permutations 40000 --workers 2` on a 12-player scenario.

    Why: the vectorized step counter with a table oracle, and the only
    workload that runs the worker pool (two workers, as many as cores).
    """
    rng = random.Random(f"sample-mid:{seed}")
    game = gen.make_game(rng, MID_PLAYERS, violations=rng.randint(0, 2))
    path = write_scenario("mid.scenario", game)
    phi = game.shapley()
    sampler_seed = rng.getrandbits(63)

    def op(permutations: int, workers: int) -> Op:
        argv = ["sample", path, "--permutations", str(permutations), "--workers", str(workers),
                "--seed", str(sampler_seed), "--format", "structured"]
        return cli_op(argv, lambda out: checks.check_sample(
            out, "structured", game.players, phi, game.grand), perms=permutations)

    timed = op(MID_PERMUTATIONS, MID_WORKERS)

    def final_check(outcomes: list[Outcome]) -> str | None:
        single = op(MID_PERMUTATIONS, 1).run()
        if single.stdout != outcomes[0].stdout:
            return f"--workers {MID_WORKERS} report differs from the --workers 1 report"
        return None

    return Workload([timed], [op(1000, MID_WORKERS)], final_check)


# --- sample-wide --------------------------------------------------------------

WIDE_PLAYERS = 64
WIDE_PERMUTATIONS = 1000
SYNERGY_DENOMINATOR = 7


class SynergyOracle:
    """v(S) = sum of standalone values over S + c * |S| (|S| - 1) / 2, exactly.

    Shapley gives player i its standalone value plus c (n - 1) / 2.
    """

    def __init__(self, cents: list[int], synergy: Fraction):
        self.cents = cents
        self.synergy = synergy

    def __call__(self, coalition) -> Fraction:
        mask = coalition.mask
        total = 0
        while mask:
            low = mask & -mask
            total += self.cents[low.bit_length() - 1]
            mask ^= low
        size = coalition.size
        return Fraction(total, 100) + self.synergy * (size * (size - 1) // 2)


def sample_wide(seed: int) -> Workload:
    """Library `sample_shapley`, 1,000 permutations, on a 64-player oracle.

    Why: a user oracle on the other side of the 57-player switch runs the
    Python step counter, which the CLI never does.
    """
    rng = random.Random(f"sample-wide:{seed}")
    cs = sys.modules["chainshare"]
    players = cs.PlayerSet(gen.player_names(WIDE_PLAYERS))
    oracle = SynergyOracle([rng.randint(20_000, 500_000) for _ in range(WIDE_PLAYERS)],
                           Fraction(rng.randint(1, 50 * SYNERGY_DENOMINATOR), SYNERGY_DENOMINATOR))
    n = WIDE_PLAYERS
    phi = [Fraction(c, 100) + oracle.synergy * Fraction(n - 1, 2) for c in oracle.cents]
    grand = sum(phi, Fraction(0))
    seed64 = rng.getrandbits(63)

    def op(permutations: int) -> Op:
        plan = cs.SamplingPlan(permutations=permutations, seed=seed64)

        def run() -> Outcome:
            report = sys.modules["chainshare.sampling"].sample_shapley(oracle, players, plan, workers=1)
            return Outcome(0, json.dumps({
                "estimates": [str(e) for e in report.estimates],
                "std_error": list(report.std_error),
                "m": report.m,
                "rng": report.rng,
            }) + "\n")

        def check(out: str) -> str | None:
            doc = json.loads(out)
            estimates = [Fraction(e) for e in doc["estimates"]]
            return checks.check_estimates(estimates, doc["std_error"], phi, grand)

        return Op(f"sample_shapley n={n} m={permutations}", run, check, perms=permutations, cli=False)

    return Workload([op(WIDE_PERMUTATIONS)], [op(20)])


WORKLOADS = {
    "exact-wide": exact_wide,
    "batch-small": batch_small,
    "sample-mid": sample_mid,
    "sample-wide": sample_wide,
}
