"""Sweep machinery: checks, counterexample plumbing, curves, frequency choice."""

import re
from fractions import Fraction

import pytest

from ofbic import ChannelParams, ChannelDomainError, allocation, pipeline, rates
from ofbic.rates import Regime
from ofbic.sweep import (
    ALL_CHECKS,
    FORMULA_CHECKS,
    Counterexample,
    SweepSpec,
    compare_csv,
    compare_curves,
    default_alpha_grid,
    frequency_choice_report,
    sweep,
)


def small_spec(**kw):
    defaults = dict(
        ranges={"m": (0, 4), "n": (0, 4), "mbar": (0, 2), "nbar": (0, 2),
                "f": (0, 4)},
        checks=FORMULA_CHECKS,
        scheme_packets=8,
        sample=10,
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


class TestSweep:
    def test_formula_checks_clean_on_small_grid(self):
        report = sweep(small_spec())
        assert report.ok
        assert report.evaluated["INNER_LE_OUTER"] == 5 * 5 * 3 * 3 * 5
        assert report.evaluated["THEOREM3"] == 5 * 5 * 3 * 5

    def test_simulation_check_clean(self):
        report = sweep(small_spec(checks=("SCHEME_VS_FORMULA",), sample=6))
        assert report.ok
        assert report.evaluated["SCHEME_VS_FORMULA"] > 0

    def test_single_point_spec(self):
        spec = SweepSpec(
            ranges={"m": (2, 2), "n": (4, 4), "mbar": (1, 1), "nbar": (1, 1),
                    "f": (3, 3)},
            checks=("INNER_LE_OUTER", "COROLLARY1"),
        )
        report = sweep(spec)
        assert report.evaluated["INNER_LE_OUTER"] == 1
        assert report.ok

    def test_gap_histogram_counts_open_points(self):
        spec = SweepSpec(
            ranges={"m": (3, 3), "n": (6, 6), "mbar": (1, 1), "nbar": (2, 2),
                    "f": (5, 5)},
            checks=("INNER_LE_OUTER",),
        )
        report = sweep(spec)
        assert report.gap_histogram == {1: 1}

    def test_replay_command_formatting(self):
        ce = Counterexample("COROLLARY1", ChannelParams(1, 2, 0, 1, 3), "x")
        assert ce.replay() == "ofbic rates --m 1 --n 2 --mbar 0 --nbar 1 --f 3"
        ce = Counterexample("SCHEME_VS_FORMULA", ChannelParams(1, 2, 0, 1, 3),
                            "steady 1 vs formula 2", scheme="rsw", packets=8,
                            seed=1009)
        assert ce.replay() == ("ofbic simulate --scheme rsw --m 1 --n 2 --mbar 0 "
                               "--nbar 1 --f 3 --packets 8 --seed 1009")

    def test_spec_validation(self):
        with pytest.raises(ChannelDomainError):
            SweepSpec(ranges={"m": (3, 1), "n": (0, 2), "mbar": (0, 1),
                              "nbar": (0, 1), "f": (0, 2)})
        # the seed, the sample, the packet count and the range bounds are
        # ints, bools excluded, checked when the spec is made
        for field, value in (("seed", "3"), ("seed", 1.5), ("seed", True),
                             ("sample", 2.5), ("sample", None), ("sample", False),
                             ("scheme_packets", 8.0), ("scheme_packets", "8")):
            text = re.escape(f"{field} {value!r} is not an int")
            with pytest.raises(ChannelDomainError, match=f"^{text}$"):
                small_spec(**{field: value})
        for bound in ((0, 4.0), ("0", 4), (False, 4), (0, None)):
            text = re.escape(f"sweep range m bounds {bound!r} are not ints")
            with pytest.raises(ChannelDomainError, match=f"^{text}$"):
                small_spec(ranges={**CI_GRID, "m": bound})
        # a range is a (lo, hi) pair, not a bare bound or a longer tuple
        for bounds in (3, (0,), (0, 1, 2), [0, 2], None):
            text = re.escape(f"sweep range m {bounds!r} is not a (lo, hi) pair")
            with pytest.raises(ChannelDomainError, match=f"^{text}$"):
                small_spec(ranges={**CI_GRID, "m": bounds})
        with pytest.raises(ChannelDomainError):
            small_spec(checks=("NOT_A_CHECK",))
        # a check named twice would be evaluated, and reported, twice
        for checks, repeated in ((("COROLLARY1", "COROLLARY1"), "['COROLLARY1']"),
                                 (("THEOREM3", "COROLLARY1", "THEOREM3", "COROLLARY1",
                                   "THEOREM3"), "['COROLLARY1', 'THEOREM3']")):
            text = re.escape(f"repeated checks {repeated}")
            with pytest.raises(ChannelDomainError, match=f"^{text}$"):
                small_spec(checks=checks)
        with pytest.raises(ChannelDomainError):
            small_spec(checks=ALL_CHECKS, scheme_packets=4)
        with pytest.raises(ChannelDomainError, match="lack n, mbar, nbar, f"):
            SweepSpec(ranges={"m": (0, 1)})
        with pytest.raises(ChannelDomainError, match="no sweep checks"):
            small_spec(checks=())

    def test_negative_seed_is_rejected(self):
        """random.Random(-s) seeds as Random(s): a negative seed would rerun
        the payloads of its absolute value under another name."""
        with pytest.raises(ChannelDomainError, match="^seed must be non-negative, got -1$"):
            small_spec(seed=-1)
        assert small_spec(seed=0).seed == 0

    def test_render_mentions_every_check(self):
        report = sweep(small_spec(checks=("COROLLARY1",)))
        text = report.render()
        assert "COROLLARY1" in text and "0 counterexamples" in text


# ---------------------------------------------------------------------------
# Mutation matrix: each deliberately broken formula or step must be reported
# as counterexamples by the checks named for it, and the sweep must finish.

CI_GRID = {"m": (0, 4), "n": (0, 4), "mbar": (0, 2), "nbar": (0, 2), "f": (0, 4)}


def _shift_scheme_rate(scheme, delta):
    # rates.SCHEMES holds the rate functions themselves, so patch the entry
    def apply(monkeypatch):
        spec = rates.SCHEMES[scheme]
        monkeypatch.setitem(rates.SCHEMES, scheme,
                            spec._replace(rate=lambda p: spec.rate(p) + delta))
    return apply


def _shift_outer_piece(regime, delta):
    def apply(monkeypatch):
        piece = rates._outer_piece
        monkeypatch.setattr(
            rates, "_outer_piece",
            lambda p, tag: piece(p, tag) + (delta if tag is regime else 0))
    return apply


def _shift_mid_capacity(monkeypatch):
    monkeypatch.setitem(rates._CAPACITY_PIECES, Regime.MID,
                        lambda p: rates.r_nom(p) + 1)


def _shift_weak_private(monkeypatch):
    counts = allocation._weak_common_counts

    def shifted(p):
        noncoop, private = counts(p)
        return noncoop, private + 1
    monkeypatch.setattr(allocation, "_weak_common_counts", shifted)


def _flip_echo_levels(monkeypatch):
    """Every echo replays its level flipped, on both evaluators: the
    sequential engine's _echo_value, and the lanes' echo read, every lane of
    it.  A flipped lane echo fails its decode check, which raises
    PipelineError; the sweep reports that raised invariant under
    SCHEME_VS_FORMULA, the only check that runs the schemes."""
    echo_value, lane_echo = pipeline._echo_value, pipeline._LaneGroup._echo

    def flipped(level, *where):
        return echo_value(level, *where) ^ 1

    def flipped_lanes(group, emit):
        return lane_echo(group, emit) ^ ((1 << group.width) - 1)
    monkeypatch.setattr(pipeline, "_echo_value", flipped)
    monkeypatch.setattr(pipeline._LaneGroup, "_echo", flipped_lanes)


_IO, _C1, _T3, _BC = "INNER_LE_OUTER", "COROLLARY1", "THEOREM3", "BOUNDARY_CONTINUITY"
_AI, _DFB, _SVF = "APPENDIX_IDENTITIES", "OFB_EQ_DFB_WEAK", "SCHEME_VS_FORMULA"

MUTANTS = {
    "fbxw+1": (_shift_scheme_rate("fbxw", 1), {_IO, _C1, _BC, _AI, _DFB, _SVF}),
    "fbxw-1": (_shift_scheme_rate("fbxw", -1), {_C1, _BC, _AI, _DFB, _SVF}),
    "rsw+1": (_shift_scheme_rate("rsw", 1), {_IO, _C1, _BC, _AI, _DFB, _SVF}),
    "rsw-1": (_shift_scheme_rate("rsw", -1), {_AI, _SVF}),
    "rss+1": (_shift_scheme_rate("rss", 1), {_IO, _C1, _BC, _AI, _DFB, _SVF}),
    "rss-1": (_shift_scheme_rate("rss", -1), {_C1, _BC, _AI, _SVF}),
    "nofb-mid+1": (_shift_scheme_rate("nofb-mid", 1), {_IO, _C1, _BC, _DFB, _SVF}),
    "nofb-mid-1": (_shift_scheme_rate("nofb-mid", -1), {_C1, _BC, _SVF}),
    "outer-weak+1": (_shift_outer_piece(Regime.WEAK, 1), {_C1, _T3, _BC}),
    "outer-weak-1": (_shift_outer_piece(Regime.WEAK, -1), {_IO, _C1, _T3, _BC}),
    "outer-mid+1": (_shift_outer_piece(Regime.MID, 1), {_C1, _T3, _BC}),
    "outer-mid-1": (_shift_outer_piece(Regime.MID, -1), {_IO, _C1, _T3, _BC}),
    "outer-strong+1": (_shift_outer_piece(Regime.STRONG, 1), {_C1, _T3, _BC}),
    "outer-strong-1": (_shift_outer_piece(Regime.STRONG, -1), {_IO, _C1, _T3, _BC}),
    "capacity-mid+1": (_shift_mid_capacity, {_T3}),
    "weak-private+1": (_shift_weak_private, {_AI, _SVF}),
    "echo-level-flip": (_flip_echo_levels, {_SVF}),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_reported_by_its_checks(name, monkeypatch):
    apply, checks = MUTANTS[name]
    apply(monkeypatch)
    report = sweep(SweepSpec(ranges=CI_GRID, sample=20))
    reported = {c.check for c in report.counterexamples}
    assert checks <= reported, f"{name}: missed {sorted(checks - reported)}"
    if name == "echo-level-flip":       # only a simulated run can see it
        assert reported == {_SVF}
        for c in report.counterexamples:    # the replay re-runs that run
            assert c.replay().startswith(f"ofbic simulate --scheme {c.scheme} ")
            assert c.replay().endswith(f"--packets 8 --seed {pipeline.DEFAULT_SEED}")
    if name == "weak-private+1":        # raised invariants became details
        assert all("allocation does not add up" in c.detail
                   for c in report.counterexamples)


def test_every_check_reports_some_mutant():
    named = set().union(*(checks for _, checks in MUTANTS.values()))
    assert named == set(ALL_CHECKS)


class TestCompareCurves:
    def test_alpha_zero_is_parallel_links(self):
        rows = compare_curves(4, 1, 1, 6, [0])
        row = rows[0]
        assert row["ofb_inner"] == row["nofb"] == min(2 * 4, 2 * 6)

    def test_weak_region_ofb_equals_dfb_beats_nofb(self):
        rows = compare_curves(4, 2, 2, 12, [Fraction(1, 2)])
        row = rows[0]
        assert row["ofb_eq_dfb"] == 1
        assert row["ofb_inner"] > row["nofb"]

    def test_small_f_everything_collapses_to_2f(self):
        rows = compare_curves(4, 2, 2, 1, default_alpha_grid())
        assert all(row["all_equal_2f"] == 1 for row in rows)

    def test_m_rounding_half_up(self):
        rows = compare_curves(4, 0, 0, 5, [Fraction(5, 8)])
        assert rows[0]["m"] == 3  # 2.5 rounds up

    def test_csv_shape(self):
        rows = compare_curves(4, 1, 1, 3, [0, Fraction(1, 2), 2])
        text = compare_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0].startswith("alpha,m,n,")
        assert len(lines) == 4
        assert lines[2].startswith("1/2,2,4,")

    def test_needs_positive_n(self):
        with pytest.raises(ChannelDomainError):
            compare_curves(0, 1, 1, 3, [1])


class TestFrequencyChoice:
    def test_weak_prefers_cross(self):
        choice = frequency_choice_report(1, 2, 4, 10)
        assert choice.cross.inner >= choice.direct.inner

    def test_strong_prefers_direct(self):
        choice = frequency_choice_report(1, 4, 1, 10)
        assert choice.direct.inner >= choice.cross.inner
        assert choice.verdict == "direct"

    def test_theta_zero_ties(self):
        choice = frequency_choice_report(0, 3, 5, 4)
        assert choice.verdict == "tie"
        assert choice.cross.inner == choice.direct.inner

    def test_dominance_over_grid(self):
        from ofbic.rates import Regime, regime_of

        for m in range(7):
            for n in range(7):
                for f in range(7):
                    tags = regime_of(ChannelParams(m, n, 0, 0, f))
                    for theta in range(5):
                        choice = frequency_choice_report(theta, m, n, f)
                        if Regime.WEAK in tags:
                            assert choice.cross.inner >= choice.direct.inner
                        if Regime.STRONG in tags:
                            assert choice.direct.inner >= choice.cross.inner
