"""Grid sweeps that turn the closed-form claims into machine checks.

Each check evaluates one claim at every applicable grid point and collects
counterexamples instead of aborting; a failed tuple is rendered with a CLI
command that reproduces it.  Every point is evaluated once, without raising
(``rates._evaluate``), and every formula check reads that evaluation: pieces
of a boundary point that disagree are a BOUNDARY_CONTINUITY counterexample,
not an exception.  A failed internal invariant raised while a check runs
(an allocation in APPENDIX_IDENTITIES, a run or its replay in
SCHEME_VS_FORMULA) is reported by that check, with the error as its detail.
The default grid is small enough for a sub-minute full formula sweep;
simulation checks run on a seeded subsample.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .allocation import ALL_SCHEMES, PACKET_SCHEMES, allocate
from .channel import ChannelDomainError, ChannelParams
from .pipeline import DEFAULT_SEED, INVARIANT_ERRORS, run_scheme, verify_trace
from .rates import Regime, dfb_reference, nofb_reference, rate_bundle
from .rates import _evaluate

ALL_CHECKS = (
    "INNER_LE_OUTER",
    "COROLLARY1",
    "THEOREM3",
    "BOUNDARY_CONTINUITY",
    "APPENDIX_IDENTITIES",
    "OFB_EQ_DFB_WEAK",
    "SCHEME_VS_FORMULA",
)
FORMULA_CHECKS = ALL_CHECKS[:-1]

DEFAULT_RANGES = {"m": (0, 8), "n": (0, 8), "mbar": (0, 4), "nbar": (0, 4), "f": (0, 8)}


@dataclass(frozen=True)
class SweepSpec:
    ranges: dict = field(default_factory=lambda: dict(DEFAULT_RANGES))
    checks: tuple = ALL_CHECKS
    scheme_packets: int = 8
    sample: int = 200
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for name in ("seed", "sample", "scheme_packets"):
            if type(getattr(self, name)) is not int:
                raise ChannelDomainError(f"{name} {getattr(self, name)!r} is not an int")
        for key, (lo, hi) in self.ranges.items():
            if type(lo) is not int or type(hi) is not int:
                raise ChannelDomainError(f"sweep range {key} bounds {(lo, hi)!r} are not ints")
            if key not in DEFAULT_RANGES or lo > hi or lo < 0:
                raise ChannelDomainError(f"bad sweep range {key}={lo}..{hi}")
        missing = [key for key in DEFAULT_RANGES if key not in self.ranges]
        if missing:
            raise ChannelDomainError(f"sweep ranges lack {', '.join(missing)}")
        if not self.checks:
            raise ChannelDomainError("no sweep checks selected")
        unknown = set(self.checks) - set(ALL_CHECKS)
        if unknown:
            raise ChannelDomainError(f"unknown checks {sorted(unknown)}")
        if self.sample < 0:
            raise ChannelDomainError(f"sample must be non-negative, got {self.sample}")
        if self.seed < 0:       # random.Random(-s) draws as Random(s)
            raise ChannelDomainError(f"seed must be non-negative, got {self.seed}")
        if "SCHEME_VS_FORMULA" in self.checks and self.scheme_packets < 8:
            raise ChannelDomainError("simulation checks need scheme_packets >= 8")

    def points(self):
        """The grid's points, m outermost and f innermost."""
        axes = (range(lo, hi + 1) for lo, hi in map(self.ranges.get, DEFAULT_RANGES))
        return itertools.starmap(ChannelParams, itertools.product(*axes))


@dataclass(frozen=True)
class Counterexample:
    check: str
    p: ChannelParams
    detail: str
    # the failed run of a SCHEME_VS_FORMULA counterexample
    scheme: str = None
    packets: int = None
    seed: int = None

    def replay(self) -> str:
        base = (f"--m {self.p.m} --n {self.p.n} --mbar {self.p.mbar} "
                f"--nbar {self.p.nbar} --f {self.p.f}")
        if self.scheme is not None:
            return (f"ofbic simulate --scheme {self.scheme} {base} "
                    f"--packets {self.packets} --seed {self.seed}")
        return f"ofbic rates {base}"


@dataclass
class SweepReport:
    spec: SweepSpec
    evaluated: dict            # check -> points evaluated
    counterexamples: list      # Counterexample, sorted
    gap_histogram: dict        # open-regime outer-inner gap -> count

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def render(self) -> str:
        grid = " ".join(f"{k} {lo}..{hi}" for k, (lo, hi) in self.spec.ranges.items())
        lines = ["sweep results", f"  grid: {grid}"]
        for check in self.spec.checks:
            n_fail = sum(1 for c in self.counterexamples if c.check == check)
            n_eval = self.evaluated.get(check, 0)
            status = "pass" if n_fail == 0 else "FAIL"
            lines.append(f"  {check:<20} {n_eval:>7} points  "
                         f"{n_fail} counterexamples  {status}")
        if self.gap_histogram:
            hist = " ".join(f"{g}:{c}" for g, c in sorted(self.gap_histogram.items()))
            lines.append(f"  open-regime gap histogram (gap:count): {hist}")
        lines.append(f"  total counterexamples: {len(self.counterexamples)}")
        for ce in self.counterexamples[:50]:
            lines.append(f"  [{ce.check}] {ce.p.short()}: {ce.detail}")
            lines.append(f"      replay: {ce.replay()}")
        return "\n".join(lines)


def _by_regime(pieces: dict) -> str:
    return " ".join(f"{tag}={value}" for tag, value in pieces.items())


def _check_point(check: str, p: ChannelParams, bundle):
    """Evaluate one formula check from p's one evaluation; (applicable, detail)."""
    tags, inner, outer = bundle.regimes, bundle.inner, bundle.outer
    if check == "INNER_LE_OUTER":
        return True, None if inner <= outer else f"inner {inner} > outer {outer}"
    if check == "COROLLARY1":
        if bundle.open_regime:
            return False, None
        return True, None if inner == outer else f"inner {inner} != outer {outer}"
    if check == "THEOREM3":
        if p.mbar != 0:
            return False, None
        caps = bundle.capacity_pieces
        if set(caps.values()) == {outer}:
            return True, None
        return True, f"capacity {_by_regime(caps)} != outer {outer}"
    if check == "BOUNDARY_CONTINUITY":
        if len(tags) < 2:
            return False, None
        outs, ins = bundle.outer_pieces, bundle.inner_pieces
        if len(set(outs.values())) > 1 or len(set(ins.values())) > 1:
            return True, (f"pieces disagree: outer {_by_regime(outs)} "
                          f"inner {_by_regime(ins)}")
        return True, None
    if check == "APPENDIX_IDENTITIES":
        jobs = [(s, rate) for s, rate in bundle.schemes if s in PACKET_SCHEMES]
        if not jobs:
            return False, None
        problems = []
        for scheme, rate in jobs:
            try:
                bits = allocate(scheme, p).bits_per_packet
            except INVARIANT_ERRORS as exc:
                problems.append(str(exc))
                continue
            if bits != rate:
                problems.append(f"{scheme} {bits} != {rate}")
        return True, "; ".join(problems) or None
    if check == "OFB_EQ_DFB_WEAK":
        dfb = dfb_reference(p)
        if dfb < inner:
            return True, f"dfb {dfb} < inner {inner}"
        if Regime.WEAK in tags and p.mbar >= p.nbar and inner != dfb:
            return True, f"inner {inner} != dfb {dfb} in weak mbar>=nbar"
        return True, None
    raise ChannelDomainError(f"unknown check {check!r}")


def sweep(spec: SweepSpec) -> SweepReport:
    evaluated = {check: 0 for check in spec.checks}
    counterexamples = []
    gap_histogram = {}
    formula_checks = [c for c in spec.checks if c != "SCHEME_VS_FORMULA"]
    simulate = "SCHEME_VS_FORMULA" in spec.checks
    by_scheme = {s: [] for s in ALL_SCHEMES}       # in-regime (p, formula rate)

    for p in spec.points():
        bundle = _evaluate(p)
        for check in formula_checks:
            applicable, detail = _check_point(check, p, bundle)
            if applicable:
                evaluated[check] += 1
                if detail:
                    counterexamples.append(Counterexample(check, p, detail))
        if bundle.open_regime:
            gap_histogram[bundle.gap] = gap_histogram.get(bundle.gap, 0) + 1
        if simulate:
            for scheme, want in bundle.schemes:
                by_scheme[scheme].append((p, want))

    if simulate:
        rng = random.Random(spec.seed)
        for scheme, pool in by_scheme.items():
            if not pool:
                continue
            chosen = pool if len(pool) <= spec.sample else rng.sample(pool, spec.sample)
            for p, want in chosen:
                evaluated["SCHEME_VS_FORMULA"] += 1
                try:
                    trace = run_scheme(scheme, p, spec.scheme_packets, seed=spec.seed)
                    report = verify_trace(trace)
                except INVARIANT_ERRORS as exc:
                    detail = f"{scheme} failed: {exc}"
                else:
                    rate = trace.steady_state_rate
                    if rate == want and report.ok:
                        continue
                    detail = (f"{scheme} steady {rate} vs formula {want}; "
                              f"{report.summary()}")
                counterexamples.append(Counterexample(
                    "SCHEME_VS_FORMULA", p, detail, scheme=scheme,
                    packets=spec.scheme_packets, seed=spec.seed))

    counterexamples.sort(key=lambda c: (c.check, c.p.m, c.p.n, c.p.mbar,
                                        c.p.nbar, c.p.f))
    return SweepReport(spec, evaluated, counterexamples, gap_histogram)


# ---------------------------------------------------------------------------
# Comparison curves (overheard vs dedicated vs no feedback).

def _round_half_up(x: Fraction) -> int:
    return int(x + Fraction(1, 2)) if x >= 0 else -int(-x + Fraction(1, 2))


COMPARE_COLUMNS = (
    "alpha", "m", "n", "mbar", "nbar", "f",
    "ofb_inner", "ofb_outer", "dfb", "nofb", "ofb_eq_dfb", "all_equal_2f",
)


def compare_curves(n: int, mbar: int, nbar: int, f: int, alpha_grid):
    """Rows of (alpha, rates, flags) with m = alpha*n rounded to the grid."""
    if n <= 0:
        raise ChannelDomainError("compare_curves needs n > 0")
    rows = []
    for alpha in alpha_grid:
        alpha = Fraction(alpha)
        if alpha < 0:
            raise ChannelDomainError("alpha must be non-negative")
        m = _round_half_up(alpha * n)
        p = ChannelParams(m, n, mbar, nbar, f)
        bundle = rate_bundle(p)
        inner, outer = bundle.inner, bundle.outer
        dfb, nofb = dfb_reference(p), nofb_reference(p)
        rows.append({
            "alpha": alpha,
            "m": m, "n": n, "mbar": mbar, "nbar": nbar, "f": f,
            "ofb_inner": inner,
            "ofb_outer": outer,
            "dfb": dfb,
            "nofb": nofb,
            "ofb_eq_dfb": int(inner == dfb),
            "all_equal_2f": int(inner == dfb == nofb == 2 * f),
        })
    return rows


def default_alpha_grid(step_denominator: int = 8, top: int = 3):
    return [Fraction(k, step_denominator) for k in range(top * step_denominator + 1)]


def _cell(column, value) -> str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        if value.denominator == 2 and column != "alpha":
            return f"{value.numerator // 2}.5"
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def compare_csv(rows) -> str:
    lines = [",".join(COMPARE_COLUMNS)]
    for row in rows:
        lines.append(",".join(_cell(col, row[col]) for col in COMPARE_COLUMNS))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Which relay transmission is worth overhearing.

@dataclass(frozen=True)
class FrequencyChoice:
    theta: int
    cross: object              # RateBundle with (mbar=theta, nbar=0)
    direct: object             # RateBundle with (mbar=0, nbar=theta)
    verdict: str


def frequency_choice_report(theta: int, m: int, n: int, f: int) -> FrequencyChoice:
    """Compare listening to the cross relay against the own relay."""
    if theta < 0:
        raise ChannelDomainError("theta must be non-negative")
    cross = rate_bundle(ChannelParams(m, n, theta, 0, f))
    direct = rate_bundle(ChannelParams(m, n, 0, theta, f))
    if cross.inner > direct.inner:
        verdict = "cross"
    elif direct.inner > cross.inner:
        verdict = "direct"
    else:
        verdict = "tie"
    return FrequencyChoice(theta, cross, direct, verdict)
