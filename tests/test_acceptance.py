"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import time

from ofbic import (
    ChannelParams,
    Regime,
    capacity_mbar0,
    dfb_reference,
    inner_bound,
    outer_bound,
    regime_of,
    run_scheme,
    verify_trace,
)
from ofbic.rates import r_fbxw, r_rss, r_rsw
from ofbic.allocation import allocate_fbxw, allocate_rss, allocate_rsw
from ofbic.sweep import SweepSpec, compare_curves, default_alpha_grid, sweep
from ofbic.pipeline import DEFAULT_SEED

GRID = [
    ChannelParams(m, n, mbar, nbar, f)
    for m, n, mbar, nbar, f in itertools.product(
        range(9), range(9), range(5), range(5), range(9)
    )
]


def report(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}{tail}")
    assert ok, f"criterion {num}: {name}{tail}"


def test_criterion_01_worked_example_simulations():
    cases = [
        ("fbxw", ChannelParams(2, 4, 1, 1, 3), 6),
        ("rsw", ChannelParams(2, 4, 0, 1, 3), 5),
        ("rss", ChannelParams(4, 1, 1, 1, 2), 3),
        ("rsw", ChannelParams(2, 4, 0, 4, 3), 6),
        ("rss", ChannelParams(4, 1, 1, 3, 2), 4),
    ]
    packets = 100
    problems = []
    worst = 0.0
    for scheme, p, want in cases:
        start = time.perf_counter()
        trace = run_scheme(scheme, p, packets)
        ok = verify_trace(trace).ok
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        if trace.steady_state_rate != want:
            problems.append(f"{scheme}@{p.short()}: rate {trace.steady_state_rate}")
        if trace.decode_errors or not ok:
            problems.append(f"{scheme}@{p.short()}: decode errors")
        if trace.n_slots > 2 * packets + 4:
            problems.append(f"{scheme}@{p.short()}: {trace.n_slots} slots")
        if elapsed >= 1.0:
            problems.append(f"{scheme}@{p.short()}: {elapsed:.2f}s")
    report(1, "worked-example rates, zero errors, slot budget",
           not problems, "; ".join(problems) or f"worst {worst*1000:.0f} ms")


def test_criterion_02_corollary1_sweep():
    start = time.perf_counter()
    bad = []
    for p in GRID:
        inner, outer = inner_bound(p), outer_bound(p)
        if inner > outer:
            bad.append(f"inner>outer at {p.short()}")
        open_point = 3 * p.m < 2 * p.n and 1 <= p.mbar < p.nbar
        if not open_point and inner != outer:
            bad.append(f"gap outside open set at {p.short()}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60:
        bad.append(f"too slow: {elapsed:.1f}s")
    report(2, "corollary-1 sweep over default grid", not bad,
           "; ".join(bad[:3]) or f"{len(GRID)} points in {elapsed:.1f}s")


def test_criterion_03_theorem3_slice():
    bad = [p.short() for p in GRID
           if p.mbar == 0 and capacity_mbar0(p) != outer_bound(p)]
    report(3, "mbar=0 capacity equals outer bound", not bad,
           "; ".join(bad[:3]))


def test_criterion_04_appendix_identities():
    bad = []
    for p in GRID:
        tags = regime_of(p)
        if Regime.WEAK in tags:
            if allocate_fbxw(p).bits_per_packet != r_fbxw(p):
                bad.append(f"fbxw {p.short()}")
            if p.mbar == 0 and allocate_rsw(p).bits_per_packet != r_rsw(p):
                bad.append(f"rsw {p.short()}")
        if Regime.STRONG in tags:
            if allocate_rss(p).bits_per_packet != r_rss(p):
                bad.append(f"rss {p.short()}")
    report(4, "appendix allocation identities", not bad, "; ".join(bad[:3]))


def test_criterion_05_scheme_vs_formula_samples():
    start = time.perf_counter()
    spec = SweepSpec(checks=("SCHEME_VS_FORMULA",), scheme_packets=8,
                     sample=200, seed=DEFAULT_SEED)
    result = sweep(spec)
    elapsed = time.perf_counter() - start
    detail = (f"{result.evaluated['SCHEME_VS_FORMULA']} runs in {elapsed:.1f}s"
              if result.ok else result.counterexamples[0].detail)
    report(5, "200 sampled runs per scheme hit the closed form exactly",
           result.ok and elapsed < 300, detail)


def test_criterion_06_ofb_vs_dfb():
    bad = []
    for p in GRID:
        inner, dfb = inner_bound(p), dfb_reference(p)
        if dfb < inner:
            bad.append(f"dfb<inner at {p.short()}")
        if Regime.WEAK in regime_of(p) and p.mbar >= p.nbar and inner != dfb:
            bad.append(f"no match at {p.short()}")
    strict = [
        p for p in GRID
        if Regime.STRONG in regime_of(p) and p.nbar > 0
        and inner_bound(p) < dfb_reference(p)
        and inner_bound(p) not in (2 * p.f, p.m)
    ]
    if not strict:
        bad.append("no strict strong gap point found")
    report(6, "OFB=DFB in weak mbar>=nbar; strict loss in strong", not bad,
           "; ".join(bad[:3]) or f"strong gap e.g. {strict[0].short()}")


def test_criterion_07_boundary_continuity():
    from ofbic.rates import _evaluate

    bad = []
    for p in GRID:
        bundle = _evaluate(p)
        if len(bundle.regimes) < 2:
            continue
        if len(set(bundle.outer_pieces.values())) > 1:
            bad.append(f"outer at {p.short()}")
        if len(set(bundle.inner_pieces.values())) > 1:
            bad.append(f"inner at {p.short()}")
    report(7, "regime boundary pieces agree", not bad, "; ".join(bad[:3]))


def test_criterion_08_frequency_choice_dominance():
    bad = []
    for m, n, f, theta in itertools.product(range(9), range(9), range(9),
                                            range(5)):
        tags = regime_of(ChannelParams(m, n, 0, 0, f))
        cross = inner_bound(ChannelParams(m, n, theta, 0, f))
        direct = inner_bound(ChannelParams(m, n, 0, theta, f))
        if Regime.WEAK in tags and cross < direct:
            bad.append(f"weak m={m} n={n} f={f} theta={theta}")
        if Regime.STRONG in tags and direct < cross:
            bad.append(f"strong m={m} n={n} f={f} theta={theta}")
    report(8, "overhearing choice dominance (weak: cross, strong: direct)",
           not bad, "; ".join(bad[:3]))


def test_criterion_09_comparison_curve_features():
    problems = []
    rows = compare_curves(4, 2, 2, 12, default_alpha_grid())
    weak_win = [r for r in rows if r["ofb_eq_dfb"] and r["ofb_inner"] > r["nofb"]]
    if not weak_win:
        problems.append("no weak region with OFB=DFB>NoFB at f=12")
    rows = compare_curves(4, 2, 2, 1, default_alpha_grid())
    if not all(r["all_equal_2f"] for r in rows):
        problems.append("small-f rows not all limited by 2f")
    report(9, "comparison curves show the qualitative regions", not problems,
           "; ".join(problems))


def test_criterion_10_negative_controls():
    cases = [
        ("fbxw", ChannelParams(2, 4, 1, 1, 3)),
        ("rsw", ChannelParams(2, 4, 0, 4, 3)),
        ("rss", ChannelParams(4, 1, 1, 3, 2)),
        ("nofb-mid", ChannelParams(3, 4, 0, 0, 8)),
    ]
    bad = []
    for scheme, p in cases:
        for slot, signal in ((6, "X_R1"), (9, "X_R2"), (11, "Y_R1")):
            trace = run_scheme(scheme, p, 10, faults={(slot, signal): 0})
            rep = verify_trace(trace)
            if rep.ok:
                bad.append(f"{scheme} flip at {slot} {signal} missed")
            elif rep.first_fault[0] != slot:
                bad.append(f"{scheme} flip at {slot} located at "
                           f"{rep.first_fault[0]}")
    report(10, "fault-injected traces caught with slot localization",
           not bad, "; ".join(bad[:3]))
