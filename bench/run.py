#!/usr/bin/env python3
"""Benchmark of the two ofbic user paths: packet simulation and grid sweeps.

Run from the repository root:

    python3 bench/run.py --workload simulate-examples --seed 1 --seconds 30 --trace 0

Each workload runs in this one process as a closed loop: one caller, the next
op only after the previous one has returned.  Every op checks its own output
and a failing op is counted, never skipped.  ``--trace 0`` measures the
end-to-end metrics with tracing off, in reference seconds that cancel the
drift of a shared host's speed.  ``--trace 1`` is a separate traced run that
times each layer from outside, around its public calls, and reports the
per-layer metrics and the tracing overhead.  The lines printed first give the
environment, the exact work counts and the full figures; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

Only the standard library is used, and only the public functions of
``ofbic.channel``, ``rates``, ``allocation``, ``midcode``, ``pipeline``,
``sweep`` and ``cli``.  ``bench/README.md`` says why each workload was chosen
and which end-to-end metric each per-layer metric should move.

Exit codes: 0 when every check passed, 1 when a check failed (the result line
is still printed), 2 for a usage error or when ``src/ofbic`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
LAYERS = ("channel", "rates", "allocation", "midcode", "pipeline", "sweep", "cli")

# Why each workload was chosen: bench/README.md and BENCHMARK.json.
WORKLOADS = ("simulate-examples", "simulate-wide", "sweep-default")

# The five acceptance worked examples and the nofb-mid control point.
EXAMPLES = (
    ("fbxw", (2, 4, 1, 1, 3)),
    ("rsw", (2, 4, 0, 1, 3)),
    ("rss", (4, 1, 1, 1, 2)),
    ("rsw", (2, 4, 0, 4, 3)),
    ("rss", (4, 1, 1, 3, 2)),
    ("nofb-mid", (3, 4, 0, 0, 8)),
)
WIDE = (("fbxw", (16, 32, 8, 8, 24)),)
# Points timed by the allocation and midcode probes when a workload's cases
# hold no packet-scheme run or no nofb-mid run.
PACKET_CONTROL = ("fbxw", (2, 4, 1, 1, 3))
MID_CONTROL = (3, 4, 0, 0, 8)

END_TO_END = {
    "setup_s": "s",
    "points_per_ref_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "pipeline.build_s": "s",
    "pipeline.build_ms_per_packet": "ms",
    "pipeline.payload_s": "s",
    "pipeline.engine_s": "s",
    "pipeline.engine_bits_per_s": "bit/s",
    "pipeline.verify_s": "s",
    "pipeline.format_s": "s",
    "pipeline.parse_s": "s",
    "pipeline.trace_bytes": "bytes",
    "pipeline.slots": "count",
    "pipeline.decode_steps": "count",
    "pipeline.delivered_bits": "bit",
    "channel.hop_us": "us",
    "rates.bundle_us": "us",
    "rates.points": "count",
    "allocation.alloc_us": "us",
    "midcode.build_ms": "ms",
    "sweep.formula_s": "s",
    "sweep.sim_s": "s",
    "sweep.sim_runs": "count",
    "cli.simulate_s": "s",
    "cli.self_s": "s",
    "op.self_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.span_us": "us",
}
# Per-layer metrics that are exact counts: they must repeat run to run.
COUNTS = ("pipeline.trace_bytes", "pipeline.slots", "pipeline.decode_steps",
          "pipeline.delivered_bits", "rates.points", "sweep.sim_runs")

SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
# The reference work takes about this long on the host the baseline was
# recorded on (2-vCPU Intel Xeon, Python 3.11.7).  It only sets the scale of
# reference seconds; both commits of a comparison use the same value.
REF_SECONDS = 0.2
CLI_REPEATS = 15
SPAN_CALIBRATION = 10000


@dataclass(frozen=True)
class Size:
    packets: int        # packets per simulate-* run
    ranges: dict        # sweep-default grid; empty means the SweepSpec default
    sample: int         # SCHEME_VS_FORMULA runs per scheme in a sweep
    probe_runs: int     # sampled in-regime runs the traced sweep-default probes
    batch: int          # calls per case for the micro probes
    grid_points: int    # grid points the traced sweep-default times rate_bundle on


FULL = Size(packets=300, ranges={}, sample=200, probe_runs=24, batch=200,
            grid_points=1000)
SMOKE = Size(packets=8, ranges={"m": (0, 3), "n": (0, 3), "mbar": (0, 1),
                                "nbar": (0, 1), "f": (0, 2)},
             sample=3, probe_runs=6, batch=5, grid_points=20)


@dataclass(frozen=True)
class Case:
    scheme: str
    p: object           # ofbic.channel.ChannelParams
    packets: int
    seed: int

    def label(self) -> str:
        return f"{self.scheme} {self.p.short()} P={self.packets}"


@dataclass
class Inputs:
    cases: list         # pipeline runs of one op, or the probe runs of a sweep
    roundtrip: bool     # the op writes and parses the trace text
    spec: object        # SweepSpec one sweep-default op runs, else None
    grids: list         # SweepSpecs whose grids the traced run sweeps
    bundle_points: list  # points the traced run times rate_bundle on
    points: int         # parameter points one op fully checks


@dataclass
class OpResult:
    attempted: int
    failed: int
    problems: list
    counts: dict
    bits: int = 0


# ---------------------------------------------------------------------------
# Host speed reference.  On a shared host the CPU switches between a fast and
# a slow state, about 1.5x apart, for spells of a fraction of a second to
# minutes, so two runs of the same code disagree by more than a change worth
# catching.  Runs therefore also time a fixed piece of object-heavy Python,
# made of the operations ofbic spends its time in, right after each set-up
# and each op, and report end-to-end times in reference seconds: t seconds
# measured while the reference next to it took r seconds are
# t * REF_SECONDS / r reference seconds.  The raw figures are printed too.
# The reference keeps under a megabyte live at a time, so that it never sets
# the process's peak memory, which is an end-to-end metric.

def reference_work() -> int:
    """Fixed work of tuple-keyed dicts, frozenset XORs and tuple XORs."""
    acc = 0
    for block in range(50):
        table = {}
        for i in range(2000):
            key = (i % 97, i // 97 + block, "mb", i & 7)
            table[key] = frozenset((i & 31, (i >> 5) & 31, key))
        for key, refs in table.items():
            acc ^= len(refs ^ frozenset((key[0] & 31,))) + key[1]
    vec = tuple(i & 1 for i in range(32))
    for _ in range(35000):
        vec = tuple(a ^ b for a, b in zip(vec, vec[1:] + vec[:1]))
    return acc ^ sum(vec)


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Set-up: import of ofbic plus generation of the workload's inputs.

def layer_modules() -> dict:
    """The ofbic layer modules by name, imported from src/ if not yet."""
    mods = {name: importlib.import_module(f"ofbic.{name}") for name in LAYERS}
    origin = Path(mods["pipeline"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"ofbic was imported from {origin}, not from {SRC}")
    return mods


def in_regime_schemes(mods, p) -> list:
    """Schemes whose regime contains p, as the sweep's scheme check runs them."""
    rates, alloc = mods["rates"], mods["allocation"]
    tags = rates.regime_of(p)
    schemes = []
    if rates.Regime.WEAK in tags:
        schemes.append(alloc.SCHEME_FBXW)
        if p.mbar == 0:
            schemes.append(alloc.SCHEME_RSW)
    if rates.Regime.STRONG in tags:
        schemes.append(alloc.SCHEME_RSS)
    if rates.Regime.MID in tags or rates.Regime.DEGENERATE in tags:
        schemes.append(alloc.SCHEME_NOFB_MID)
    return schemes


def make_inputs(mods, workload: str, seed: int, size: Size) -> Inputs:
    ChannelParams = mods["channel"].ChannelParams
    SweepSpec = mods["sweep"].SweepSpec
    if workload == "sweep-default":
        spec = SweepSpec(seed=seed, sample=size.sample,
                         **({"ranges": dict(size.ranges)} if size.ranges else {}))
        points = math.prod(hi - lo + 1 for lo, hi in spec.ranges.values())
        return Inputs(cases=[], roundtrip=False, spec=spec, grids=[spec],
                      bundle_points=[], points=points)
    table = EXAMPLES if workload == "simulate-examples" else WIDE
    cases = [Case(scheme, ChannelParams(*point), size.packets, seed)
             for scheme, point in table]
    # One single-point sweep per case gives the sweep layer the same points.
    grids = [SweepSpec(ranges={k: (v, v) for k, v in zip(("m", "n", "mbar", "nbar", "f"),
                                                          point)},
                       sample=size.sample, seed=seed)
             for _, point in table]
    return Inputs(cases=cases, roundtrip=workload == "simulate-examples", spec=None,
                  grids=grids, bundle_points=[c.p for c in cases], points=len(cases))


def sample_sweep_runs(mods, inputs: Inputs, size: Size) -> None:
    """Give the traced sweep-default a seeded sample of the sweep's own runs.

    The sweep does not expose its runs, so the probe draws in-regime
    (scheme, point) pairs from the same grid at the same packet count.
    """
    spec = inputs.spec
    grid = list(spec.points())
    rng = random.Random(spec.seed)
    pool = [(scheme, p) for p in grid for scheme in in_regime_schemes(mods, p)]
    inputs.cases = [Case(scheme, p, spec.scheme_packets, spec.seed)
                    for scheme, p in rng.sample(pool, min(size.probe_runs, len(pool)))]
    inputs.bundle_points = rng.sample(grid, min(size.grid_points, len(grid)))


def set_up(workload: str, seed: int, smoke: bool):
    """Time SETUP_REPEATS set-ups, each in a fresh interpreter, then set up here.

    bench/setup_probe.py times one set-up, standard-library imports included,
    and one reference sample right after it, to scale it by.  The set-up in
    this process, whose imports the benchmark's own have already warmed, is
    the one the ops use; it is not timed.
    """
    argv = [sys.executable, str(Path(__file__).resolve().parent / "setup_probe.py"),
            workload, str(seed), str(int(smoke))]
    times, refs = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup_probe.py exited {proc.returncode}: "
                               f"{proc.stderr[-1000:]}")
        sample = json.loads(proc.stdout.splitlines()[-1])
        times.append(sample["setup_s"])
        refs.append(sample["reference_s"])
    mods = layer_modules()
    inputs = make_inputs(mods, workload, seed, SMOKE if smoke else FULL)
    return mods, inputs, times, refs


# ---------------------------------------------------------------------------
# Tracing: spans kept in memory around the benchmark's own calls.

def no_span(name):
    return contextlib.nullcontext()


class Tracer:
    """Spans with name, start, end and parent; self time excludes children."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1]["id"] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict:
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        return {s["id"]: s["end"] - s["start"] - child.get(s["id"], 0.0)
                for s in self.spans}

    def summary(self) -> dict:
        selfs = self.self_times()
        out = {}
        for s in self.spans:
            row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += s["end"] - s["start"]
            row["self_s"] += selfs[s["id"]]
        return out


# ---------------------------------------------------------------------------
# Ops.  Each returns an OpResult; a problem is one failed check.

def check_run(case: Case, trace, report) -> list:
    problems = []
    if not report.ok:
        problems.append(f"{case.label()}: verify {report.summary()}")
    if trace.steady_state_rate != trace.formula_rate:
        problems.append(f"{case.label()}: steady-state rate {trace.steady_state_rate} "
                        f"!= formula {trace.formula_rate}")
    return problems


def simulate_op(mods, inputs: Inputs, span) -> OpResult:
    """run_scheme -> verify_trace (-> format_trace -> parse_trace) per case."""
    pl = mods["pipeline"]
    problems, slots, bits = [], 0, 0
    for case in inputs.cases:
        with span("pipeline.run_scheme"):
            trace = pl.run_scheme(case.scheme, case.p, case.packets, seed=case.seed)
        with span("pipeline.verify_trace"):
            report = pl.verify_trace(trace)
        problems += check_run(case, trace, report)
        if inputs.roundtrip:
            with span("pipeline.format_trace"):
                text = pl.format_trace(trace)
            with span("pipeline.parse_trace"):
                parsed = pl.parse_trace(text)
            if parsed.slots != trace.slots:
                problems.append(f"{case.label()}: parsed slots differ from "
                                "the recorded ones")
        slots += trace.n_slots
        bits += report.delivered_bits
    return OpResult(attempted=1, failed=int(bool(problems)), problems=problems,
                    counts={"slots": slots, "delivered_bits": bits}, bits=bits)


def sweep_op(mods, inputs: Inputs, span) -> OpResult:
    """One default `ofbic sweep`; each check evaluated is one attempt."""
    with span("sweep.sweep"):
        report = mods["sweep"].sweep(inputs.spec)
    problems = [f"[{ce.check}] {ce.p.short()}: {ce.detail}"
                for ce in report.counterexamples]
    return OpResult(attempted=sum(report.evaluated.values()),
                    failed=len(report.counterexamples), problems=problems,
                    counts=dict(report.evaluated))


class Runner:
    """Runs ops of one workload and tallies attempts, failures and counts."""

    def __init__(self, mods, inputs: Inputs):
        self.mods = mods
        self.inputs = inputs
        self.op = sweep_op if inputs.spec is not None else simulate_op
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.counts = {}

    def expect_counts(self, key: str, counts: dict) -> list:
        """Exact counts must repeat: the first value of each key is the reference."""
        first = self.counts.setdefault(key, counts)
        if counts != first:
            return [f"{key} counts {counts} differ from the first {first}"]
        return []

    def record(self, attempted: int, failed: int, problems: list) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems += problems

    def run_op(self, span) -> tuple:
        gc.collect()  # each op starts from a clean heap, as a fresh `ofbic` run does
        start = time.perf_counter()
        try:
            with span("op"):
                result = self.op(self.mods, self.inputs, span)
        except Exception as exc:  # an op that raises counts as one failure
            result = OpResult(1, 1, [f"op raised {type(exc).__name__}: {exc}"], None)
        elapsed = time.perf_counter() - start
        if result.counts is not None:
            mismatch = self.expect_counts("op", result.counts)
            if mismatch:
                result.failed = max(result.failed, 1)
                result.problems += mismatch
        self.record(result.attempted, result.failed, result.problems)
        return elapsed, result


def warm_up(mods, workload: str, seed: int) -> None:
    """One op at smoke size, untimed, so lazy set-up finishes before timing."""
    runner = Runner(mods, make_inputs(mods, workload, seed, SMOKE))
    runner.run_op(no_span)


# ---------------------------------------------------------------------------
# Untraced run: the end-to-end metrics.

def end_to_end(mods, inputs: Inputs, seconds: float, setup_times: list,
               setup_refs: list):
    """Ops until `seconds` have passed, each followed by one reference sample.

    An op is scaled by the mean of the reference samples just before and
    just after it.
    """
    runner = Runner(mods, inputs)
    floor_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    durations, bits, refs = [], [], [time_reference()]
    start = time.perf_counter()
    while not durations or time.perf_counter() - start < seconds:
        elapsed, result = runner.run_op(no_span)
        durations.append(elapsed)
        bits.append(result.bits)
        refs.append(time_reference())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref_ops = [d * 2 * REF_SECONDS / (before + after)
               for d, before, after in zip(durations, refs, refs[1:])]
    ref_setups = [t * REF_SECONDS / r for t, r in zip(setup_times, setup_refs)]
    metrics = {
        "setup_s": statistics.median(ref_setups),
        "points_per_ref_s": statistics.median(inputs.points / d for d in ref_ops),
        "peak_rss_mb": peak_mb,
    }
    detail = {
        "ops": len(durations),
        "op_s": durations,
        "setup_s": setup_times,
        "reference_s": refs,
        "setup_reference_s": setup_refs,
        "raw_setup_s": statistics.median(setup_times),
        "raw_points_per_s": statistics.median(inputs.points / d for d in durations),
        "points_per_op": inputs.points,
        "peak_rss_before_ops_mb": floor_mb,
        "error_rate": runner.failed / max(runner.attempted, 1),
    }
    if inputs.spec is None:
        detail["sim_bits_per_s"] = sum(bits) / sum(durations)
    return runner, metrics, detail


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics, each timed from outside around public calls.

def timed(tracer: Tracer, acc: dict, name: str, fn, *args, **kwargs):
    with tracer.span(name) as record:
        result = fn(*args, **kwargs)
    acc[name] = acc.get(name, 0.0) + record["end"] - record["start"]
    return result


def random_vec(GfVec, rng: random.Random, length: int):
    return GfVec(rng.getrandbits(1) for _ in range(length))


def probe_pipeline(runner: Runner, tracer: Tracer, acc: dict) -> dict:
    """Per case: build, payload, run, verify, format, parse on the same inputs."""
    pl = runner.mods["pipeline"]
    counts = {"pipeline.slots": 0, "pipeline.decode_steps": 0,
              "pipeline.delivered_bits": 0, "pipeline.trace_bytes": 0}
    for case in runner.inputs.cases:
        schedule = timed(tracer, acc, "pipeline.build_schedule",
                         pl.build_schedule, case.scheme, case.p, case.packets)
        payload = timed(tracer, acc, "pipeline.generate_payload",
                        pl.generate_payload, schedule, case.seed)
        trace = timed(tracer, acc, "pipeline.run_scheme",
                      pl.run_scheme, case.scheme, case.p, case.packets, seed=case.seed)
        report = timed(tracer, acc, "pipeline.verify_trace", pl.verify_trace, trace)
        text = timed(tracer, acc, "pipeline.format_trace", pl.format_trace, trace)
        parsed = timed(tracer, acc, "pipeline.parse_trace", pl.parse_trace, text)
        problems = check_run(case, trace, report)
        if parsed.slots != trace.slots:
            problems.append(f"{case.label()}: parsed slots differ from the recorded ones")
        if trace.payload != payload:
            problems.append(f"{case.label()}: generate_payload differs from run_scheme")
        runner.record(1, int(bool(problems)), problems)
        counts["pipeline.slots"] += schedule.n_slots
        counts["pipeline.decode_steps"] += sum(len(s) for s in schedule.steps.values())
        counts["pipeline.delivered_bits"] += report.delivered_bits
        counts["pipeline.trace_bytes"] += len(text.encode())
    return counts


def probe_micro(runner: Runner, tracer: Tracer, acc: dict, size: Size) -> dict:
    """Hop pairs, rate bundles, allocations and mid-codes, in batches."""
    mods, cases = runner.mods, runner.inputs.cases
    ch, rates, alloc = mods["channel"], mods["rates"], mods["allocation"]
    rng = random.Random(cases[0].seed)
    calls = {}

    def hops(pairs):
        for x1, x2, r1, r2, p in pairs:
            ch.first_hop(x1, x2, p)
            ch.second_hop(r1, r2, p)

    pairs = []
    for case in cases:
        q, qbar = case.p.q, case.p.qbar
        vecs = [random_vec(ch.GfVec, rng, n) for n in (q, q, qbar, qbar)]
        pairs += [(*vecs, case.p)] * size.batch
    timed(tracer, acc, "channel.hop_pairs", hops, pairs)
    calls["channel.hop_pairs"] = len(pairs)

    points = runner.inputs.bundle_points
    points = [points[i % len(points)] for i in range(max(size.batch, len(points)))]
    timed(tracer, acc, "rates.rate_bundle", lambda: [rates.rate_bundle(p) for p in points])
    calls["rates.rate_bundle"] = len(points)

    packet = [(c.scheme, c.p) for c in cases if c.scheme in alloc.PACKET_SCHEMES]
    scheme, point = PACKET_CONTROL
    packet = (packet or [(scheme, ch.ChannelParams(*point))]) * size.batch

    def allocations():
        for scheme, p in packet:
            a = alloc.allocate(scheme, p)
            alloc.level_map(a, p, 1)
            alloc.level_map(a, p, 4)

    timed(tracer, acc, "allocation.allocate+level_map", allocations)
    calls["allocation.allocate+level_map"] = len(packet)

    mid = [c.p for c in cases if c.scheme == alloc.SCHEME_NOFB_MID]
    mid = (mid or [ch.ChannelParams(*MID_CONTROL)]) * size.batch
    timed(tracer, acc, "midcode.build_mid_code",
          lambda: [mods["midcode"].build_mid_code(p.m, p.n, rates.r_nom(p)) for p in mid])
    calls["midcode.build_mid_code"] = len(mid)
    return calls


def probe_sweeps(runner: Runner, tracer: Tracer, acc: dict) -> dict:
    """Each grid swept with only the formula checks, then only SCHEME_VS_FORMULA."""
    sw = runner.mods["sweep"]
    counts = {"rates.points": 0, "sweep.sim_runs": 0}
    for spec in runner.inputs.grids:
        for name, checks in (("sweep.formula", sw.FORMULA_CHECKS),
                             ("sweep.sim", ("SCHEME_VS_FORMULA",))):
            one = sw.SweepSpec(ranges=dict(spec.ranges), checks=checks,
                               scheme_packets=spec.scheme_packets,
                               sample=spec.sample, seed=spec.seed)
            report = timed(tracer, acc, name, sw.sweep, one)
            runner.record(sum(report.evaluated.values()), len(report.counterexamples),
                          [f"[{c.check}] {c.p.short()}: {c.detail}"
                           for c in report.counterexamples])
        counts["rates.points"] += sum(1 for _ in spec.points())
        counts["sweep.sim_runs"] += report.evaluated["SCHEME_VS_FORMULA"]
    return counts


def probe_cli(runner: Runner, tracer: Tracer, acc: dict, tmp: str) -> list:
    """`ofbic simulate` on the first case, with an absolute --out.

    Returns the CLI's own time at the 4-packet minimum, where run, verify and
    format are small enough that their difference is not lost in noise: the
    median over CLI_REPEATS pairs of (cli.main) - (run + verify + format).
    """
    pl = runner.mods["pipeline"]
    case = runner.inputs.cases[0]
    out = os.path.join(tmp, "trace.txt")

    def cli(packets):
        p = case.p
        argv = ["simulate", "--scheme", case.scheme, "--m", str(p.m), "--n", str(p.n),
                "--mbar", str(p.mbar), "--nbar", str(p.nbar), "--f", str(p.f),
                "--packets", str(packets), "--seed", str(case.seed), "--out", out]
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = runner.mods["cli"].main(argv)
        ok = code == 0 and "result: pass" in text.getvalue()
        runner.record(1, int(not ok), [] if ok else [f"cli simulate exited {code}"])

    def direct(packets):
        trace = pl.run_scheme(case.scheme, case.p, packets, seed=case.seed)
        pl.verify_trace(trace)
        pl.format_trace(trace)

    timed(tracer, acc, "cli.simulate", cli, case.packets)
    own = []
    for i in range(CLI_REPEATS):
        pair = {}
        order = (("cli", cli), ("direct", direct))
        for name, fn in order if i % 2 else order[::-1]:  # alternate which goes first
            timed(tracer, pair, f"{name}@4", fn, 4)
        own.append(pair["cli@4"] - pair["direct@4"])
    return own


def probe_round(runner: Runner, tracer: Tracer, size: Size, tmp: str) -> tuple:
    acc = {}
    with tracer.span("round"):
        counts = probe_pipeline(runner, tracer, acc)
        calls = probe_micro(runner, tracer, acc, size)
        counts.update(probe_sweeps(runner, tracer, acc))
        cli_own = probe_cli(runner, tracer, acc, tmp)
    packets = sum(c.packets for c in runner.inputs.cases)
    engine = (acc["pipeline.run_scheme"] - acc["pipeline.build_schedule"]
              - acc["pipeline.generate_payload"])
    values = {
        "pipeline.build_s": acc["pipeline.build_schedule"],
        "pipeline.build_ms_per_packet": acc["pipeline.build_schedule"] * 1e3 / packets,
        "pipeline.payload_s": acc["pipeline.generate_payload"],
        "pipeline.engine_s": engine,
        "pipeline.engine_bits_per_s": counts["pipeline.delivered_bits"] / engine,
        "pipeline.verify_s": acc["pipeline.verify_trace"],
        "pipeline.format_s": acc["pipeline.format_trace"],
        "pipeline.parse_s": acc["pipeline.parse_trace"],
        "channel.hop_us": acc["channel.hop_pairs"] * 1e6 / calls["channel.hop_pairs"],
        "rates.bundle_us": acc["rates.rate_bundle"] * 1e6 / calls["rates.rate_bundle"],
        "allocation.alloc_us": (acc["allocation.allocate+level_map"] * 1e6
                                / calls["allocation.allocate+level_map"]),
        "midcode.build_ms": (acc["midcode.build_mid_code"] * 1e3
                             / calls["midcode.build_mid_code"]),
        "sweep.formula_s": acc["sweep.formula"],
        "sweep.sim_s": acc["sweep.sim"],
        "cli.simulate_s": acc["cli.simulate"],
        "cli.self_s": statistics.median(cli_own),
    }
    return values, counts


def span_cost(tracer: Tracer) -> float:
    """Seconds one empty span costs, from SPAN_CALIBRATION of them."""
    start = time.perf_counter()
    for _ in range(SPAN_CALIBRATION):
        with tracer.span("calibration"):
            pass
    return (time.perf_counter() - start) / SPAN_CALIBRATION


def repeat_within(budget: float, fn) -> None:
    """Call fn once, then again while one more call as long as the last fits."""
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        fn()
        end = time.perf_counter()
        if end - start + (end - begin) > budget:
            return


def traced(mods, inputs: Inputs, seconds: float, size: Size):
    """Half the time alternates untraced and traced ops, the rest probes layers."""
    if inputs.spec is not None:
        sample_sweep_runs(mods, inputs, size)
    runner = Runner(mods, inputs)
    tracer = Tracer()
    plain, spanned, op_self, rounds = [], [], [], []

    def op_pair():
        plain.append(runner.run_op(no_span)[0])
        spanned.append(runner.run_op(tracer.span)[0])
        op = next(s for s in reversed(tracer.spans) if s["name"] == "op")
        op_self.append(tracer.self_times()[op["id"]])

    def probe():
        values, counts = probe_round(runner, tracer, size, tmp)
        rounds.append(values)
        mismatch = runner.expect_counts("probe", counts)
        runner.record(0, len(mismatch), mismatch)

    repeat_within(seconds / 2, op_pair)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        repeat_within(seconds / 2, probe)
    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    metrics.update({name: runner.counts["probe"][name] for name in COUNTS})
    metrics["op.self_ms"] = statistics.median(op_self) * 1e3
    metrics["trace.span_us"] = span_cost(Tracer()) * 1e6
    metrics["trace.overhead_pct"] = (statistics.median(spanned)
                                     / statistics.median(plain) - 1) * 100
    detail = {"ops_untraced": plain, "ops_traced": spanned, "rounds": len(rounds),
              "spans": len(tracer.spans)}
    return runner, tracer, metrics, detail


# ---------------------------------------------------------------------------
# Environment and output.

def git_commit() -> str:
    if not (ROOT / ".git").exists():  # an exported tree, or one nested in another repo
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    files = sorted((SRC / "ofbic").glob("*.py"))
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "src_ofbic_lines": sum(len(f.read_text(encoding="utf-8").splitlines())
                               for f in files),
    }


def emit(name: str, payload) -> None:
    print(f"{name}: {json.dumps(payload, sort_keys=True)}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny packets and grid, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ofbic" / "__init__.py").is_file():
        print(f"error: no ofbic sources at {SRC / 'ofbic'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    size = SMOKE if args.smoke else FULL
    mods, inputs, setup_times, setup_refs = set_up(args.workload, args.seed, args.smoke)
    warm_up(mods, args.workload, args.seed)
    emit("env", environment())
    emit("workload", {"name": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "smoke": args.smoke})
    if args.trace:
        runner, tracer, metrics, detail = traced(mods, inputs, args.seconds, size)
        units = PER_LAYER
        summary = tracer.summary()
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"env": environment(), "summary": summary,
                                          "spans": tracer.spans}))
        emit("self_time_s", {k: round(v["self_s"], 6) for k, v in summary.items()})
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        runner, metrics, detail = end_to_end(mods, inputs, args.seconds, setup_times,
                                             setup_refs)
        units = END_TO_END
    emit("counts", runner.counts)
    emit("detail", detail)
    for problem in runner.problems[:20]:
        print(f"problem: {problem}")
    correct = runner.failed == 0 and not runner.problems
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
