"""Bit allocations: worked examples, rate identities, level placement."""

import dataclasses
import itertools

import pytest

from ofbic import (
    ChannelParams,
    Regime,
    RegimeError,
    allocate_fbxw,
    allocate_rss,
    allocate_rsw,
    level_map,
    r_fbxw,
    r_rss,
    r_rsw,
    regime_of,
)
from ofbic.allocation import PACKET_SCHEMES, _finish, allocate
from ofbic.rates import SCHEMES, InvariantError, pos, schemes_at
from ofbic.schedule import _payload_plan


def cp(m, n, mbar=0, nbar=0, f=0):
    return ChannelParams(m, n, mbar, nbar, f)


class TestFbxw:
    def test_narrow_example(self):
        a = allocate_fbxw(cp(2, 4, 1, 1, 3))
        assert (a.noncoop, a.coop, a.private) == (0, 2, 2)

    def test_wide_example(self):
        a = allocate_fbxw(cp(4, 7, 1, 1, 5))
        assert (a.noncoop, a.coop, a.private) == (1, 2, 3)

    def test_no_backward_cross_link_means_no_coop(self):
        a = allocate_fbxw(cp(2, 4, 0, 3, 3))
        assert a.coop == 0

    def test_regime_gate(self):
        with pytest.raises(RegimeError):
            allocate_fbxw(cp(4, 1, 1, 1, 2))
        with pytest.raises(RegimeError):
            allocate_fbxw(cp(0, 0, 1, 1, 2))


class TestRsw:
    def test_narrow_example(self):
        a = allocate_rsw(cp(2, 4, 0, 1, 3))
        assert (a.noncoop, a.coop, a.private) == (0, 1, 2)
        assert a.superframe == 2 and a.per_phase_coop == (1, 0)

    def test_tall_backward_example(self):
        a = allocate_rsw(cp(2, 4, 0, 4, 3))
        assert (a.noncoop, a.coop, a.private) == (0, 2, 2)

    def test_zero_forward(self):
        a = allocate_rsw(cp(2, 4, 0, 2, 0))
        assert (a.noncoop, a.coop, a.private) == (0, 0, 0)

    def test_needs_mbar_zero(self):
        with pytest.raises(RegimeError):
            allocate_rsw(cp(2, 4, 1, 1, 3))


class TestRss:
    def test_narrow_example(self):
        a = allocate_rss(cp(4, 1, 1, 1, 2))
        assert (a.noncoop, a.coop, a.private) == (1, 1, 0)

    def test_tall_backward_example(self):
        a = allocate_rss(cp(4, 1, 1, 3, 2))
        assert (a.noncoop, a.coop, a.private) == (1, 2, 0)

    def test_zero_direct_link(self):
        a = allocate_rss(cp(4, 0, 1, 3, 2))
        # f' = min((2-0-1)/2, 2, 2) = 1/2, so 2(nbar-f)+ + 2f' = 3
        assert a.noncoop == 0
        assert a.coop == min(3, 4, 4)

    def test_regime_gate(self):
        with pytest.raises(RegimeError):
            allocate_rss(cp(2, 4, 1, 1, 3))


class TestIdentities:
    """The appendix case analyses, exhaustively on the grid."""

    def test_weak_identity(self):
        for m, n, mbar, nbar, f in itertools.product(
            range(9), range(9), range(5), range(5), range(9)
        ):
            p = cp(m, n, mbar, nbar, f)
            if Regime.WEAK not in regime_of(p):
                continue
            assert allocate_fbxw(p).bits_per_packet == r_fbxw(p), p.short()
            if mbar == 0:
                assert allocate_rsw(p).bits_per_packet == r_rsw(p), p.short()

    def test_strong_identity(self):
        for m, n, mbar, nbar, f in itertools.product(
            range(9), range(9), range(5), range(5), range(9)
        ):
            p = cp(m, n, mbar, nbar, f)
            if Regime.STRONG not in regime_of(p):
                continue
            assert allocate_rss(p).bits_per_packet == r_rss(p), p.short()

    def test_per_phase_caps(self):
        for m, n, mbar, nbar, f in itertools.product(
            range(9), range(9), range(5), range(5), range(9)
        ):
            p = cp(m, n, mbar, nbar, f)
            tags = regime_of(p)
            allocs = []
            if Regime.WEAK in tags:
                allocs.append(allocate_fbxw(p))
                if mbar == 0:
                    allocs.append(allocate_rsw(p))
            if Regime.STRONG in tags:
                allocs.append(allocate_rss(p))
            for a in allocs:
                assert sum(a.per_phase_coop) == a.coop
                assert a.noncoop + a.private <= p.q
                assert a.superframe == (2 if a.coop % 2 else 1)
                if a.scheme == "fbxw":
                    assert a.per_phase_coop[0] <= min(p.mbar, p.f) or a.coop == 0
                else:
                    loss = pos(p.nbar - p.f)
                    top = a.coop - min(a.coop, 2 * loss)
                    assert (top + 1) // 2 <= min(p.nbar, p.f) or a.coop == 0


class TestLevelMap:
    def test_fbxw_wide_layout(self):
        p = cp(4, 7, 1, 1, 5)
        lm = level_map(allocate_fbxw(p), p, 1)
        assert lm[0] == ("noncoop", 0)
        assert lm[1] == ("coop", 0) and lm[2] == ("coop", 1)
        assert 3 not in lm  # the gap level stays silent
        assert lm[4] == ("private", 0) and lm[6] == ("private", 2)

    def test_rss_layout(self):
        p = cp(4, 1, 1, 1, 2)
        lm = level_map(allocate_rss(p), p, 1)
        assert lm == {0: ("noncoop", 0), 1: ("coop", 0)}

    def test_phase4_coop_band_is_relayed(self):
        p = cp(2, 4, 1, 1, 3)
        lm = level_map(allocate_fbxw(p), p, 4)
        assert lm[0] == ("coop_relay", 0) and lm[1] == ("coop_relay", 1)
        assert lm[2] == ("private", 0)

    def test_empty_allocation_maps_nothing(self):
        p = cp(2, 4, 0, 0, 0)
        assert level_map(allocate_fbxw(p), p, 1) == {}

    def test_phase_validation(self):
        p = cp(2, 4, 1, 1, 3)
        with pytest.raises(Exception):
            level_map(allocate_fbxw(p), p, 2)

    def test_broken_allocation_raises_under_any_optimisation(self):
        # raised, not asserted, so these hold under python -O as well
        p = cp(2, 4, 1, 1, 3)
        with pytest.raises(InvariantError, match="does not add up"):
            _finish("fbxw", p, 0, 2, 2, 7)
        spilled = dataclasses.replace(allocate_fbxw(p), private=3)
        with pytest.raises(InvariantError, match="spills past q"):
            level_map(spilled, p, 1)


def test_scheme_table_agrees_with_every_gate():
    """run_scheme's gate and allocate refuse exactly the schemes that
    schemes_at leaves out, and agree with the table's rate where they run."""
    for m, n, mbar, nbar, f in itertools.product(
        range(5), range(5), range(3), range(3), range(5)
    ):
        p = cp(m, n, mbar, nbar, f)
        runs = dict(schemes_at(p))
        for scheme in SCHEMES:
            if scheme not in runs:
                with pytest.raises(RegimeError):
                    _payload_plan(scheme, p, 4)
                if scheme in PACKET_SCHEMES:
                    with pytest.raises(RegimeError):
                        allocate(scheme, p)
                continue
            assert _payload_plan(scheme, p, 4)[1] == runs[scheme], (scheme, p)
            if scheme in PACKET_SCHEMES:
                assert allocate(scheme, p).bits_per_packet == runs[scheme]
