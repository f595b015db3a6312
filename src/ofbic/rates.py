"""Closed-form sum-rate expressions: outer bound, inner bounds, capacities.

Everything here is exact integer (or half-integer Fraction) arithmetic; no
floating point.  Regime boundaries are closed on both sides, so boundary
points evaluate both adjacent pieces and check that they agree.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .channel import ChannelDomainError, ChannelParams


class InvariantError(AssertionError):
    """A closed-form or allocation identity failed (a bug, not bad input).

    Raised explicitly rather than asserted, so the check survives ``python -O``.
    """


class Regime(enum.Enum):
    WEAK = "weak"          # alpha in [0, 2/3]
    MID = "mid"            # alpha in [2/3, 2]
    STRONG = "strong"      # alpha in [2, inf]
    DEGENERATE = "degenerate"  # m = n = 0

    def __str__(self) -> str:
        return self.value


def pos(x: int) -> int:
    """The (x)+ operator."""
    return x if x > 0 else 0


def regime_of(p: ChannelParams):
    """All regimes containing p; boundary points carry both adjacent tags."""
    if p.m == 0 and p.n == 0:
        return (Regime.DEGENERATE,)
    tags = []
    if 3 * p.m <= 2 * p.n:
        tags.append(Regime.WEAK)
    if 2 * p.n <= 3 * p.m and p.m <= 2 * p.n:
        tags.append(Regime.MID)
    if p.m >= 2 * p.n:
        tags.append(Regime.STRONG)
    return tuple(tags)


def _m0(p: ChannelParams) -> int:
    return max(p.n - p.m, p.m)


# ---------------------------------------------------------------------------
# Achievable-rate formulas (evaluable for any p; regime gating is the
# caller's job).

def r_fbxw(p: ChannelParams) -> int:
    """Weak-regime scheme using cross-link overhearing."""
    return min(2 * _m0(p) + 2 * p.mbar, 2 * p.n - p.m, 2 * p.f)


def r_rss(p: ChannelParams) -> int:
    """Strong-regime scheme using direct-link overhearing with rate splitting."""
    return min(p.n + p.f + pos(p.nbar - p.f), 2 * p.n + 2 * p.nbar, p.m, 2 * p.f)


def r_nom(p: ChannelParams) -> int:
    """No-feedback rate; capacity in the intermediate regime."""
    return min(max(2 * p.n - p.m, p.m), 2 * p.f)


def r_rsw(p: ChannelParams) -> int:
    """Weak-regime scheme using direct-link overhearing (mbar = 0 setting)."""
    return min(
        p.f + _m0(p) + pos(p.nbar - p.f),
        2 * _m0(p) + 2 * p.nbar,
        2 * p.n - p.m,
        2 * p.f,
    )


def f_star(p: ChannelParams) -> Fraction:
    """Relay levels split off for feedback in the weak direct-link scheme."""
    loss = pos(p.nbar - p.f)
    return min(
        Fraction(pos(p.f - _m0(p) - loss), 2),
        Fraction(p.nbar - loss),
        Fraction(p.f),
    )


def f_prime(p: ChannelParams) -> Fraction:
    """Relay levels split off for feedback in the strong-regime scheme."""
    loss = pos(p.nbar - p.f)
    return min(
        Fraction(pos(p.f - p.n - loss), 2),
        Fraction(p.nbar - loss),
        Fraction(p.f),
    )


def delta0(p: ChannelParams) -> int:
    return _m0(p) + pos(p.nbar - p.f)


@dataclass(frozen=True)
class AuxQuantities:
    f_star: Fraction
    f_prime: Fraction
    delta0: int


def aux_quantities(p: ChannelParams) -> AuxQuantities:
    return AuxQuantities(f_star(p), f_prime(p), delta0(p))


# ---------------------------------------------------------------------------
# Outer bound.

def general_bounds(p: ChannelParams) -> dict:
    """The typed list of sum-rate upper bounds, by closed-form term."""
    bounds = {
        "n+f+(nbar-f)+": p.n + p.f + pos(p.nbar - p.f),
        "2n+2nbar": 2 * p.n + 2 * p.nbar,
        "2max(n-m,m)+2max(nbar,mbar)": 2 * _m0(p) + 2 * max(p.nbar, p.mbar),
        "max(n,m)+(n-m)+": max(p.n, p.m) + pos(p.n - p.m),
        "2f": 2 * p.f,
    }
    if p.mbar == 0:
        bounds["f+max(n-m,m)+(nbar-f)+"] = p.f + _m0(p) + pos(p.nbar - p.f)
    return bounds


def _outer_piece(p: ChannelParams, tag: Regime) -> int:
    if tag is Regime.WEAK:
        return min(2 * _m0(p) + 2 * max(p.nbar, p.mbar), 2 * p.n - p.m, 2 * p.f)
    if tag is Regime.MID:
        return min(max(2 * p.n - p.m, p.m), 2 * p.f)
    if tag is Regime.STRONG:
        return min(
            p.n + p.f + pos(p.nbar - p.f), 2 * p.n + 2 * p.nbar, p.m, 2 * p.f
        )
    return 0


def outer_bound(p: ChannelParams) -> int:
    """Regime-piecewise sum-capacity upper bound.

    For mbar = 0 the extra direct-link bound also applies and is
    intersected in.
    """
    tags = regime_of(p)
    if tags == (Regime.DEGENERATE,):
        return 0
    values = {_outer_piece(p, tag) for tag in tags}
    if len(values) != 1:
        raise InvariantError(f"regime pieces disagree at {p.short()}: {values}")
    value = values.pop()
    if p.mbar == 0:
        value = min(value, p.f + _m0(p) + pos(p.nbar - p.f))
    return value


# ---------------------------------------------------------------------------
# Inner bound and the mbar = 0 capacity.

def _inner_piece(p: ChannelParams, tag: Regime) -> int:
    if tag is Regime.WEAK:
        if p.mbar == 0:
            return max(r_fbxw(p), r_rsw(p))
        return r_fbxw(p)
    if tag is Regime.MID:
        return r_nom(p)
    if tag is Regime.STRONG:
        return r_rss(p)
    return 0


def inner_bound(p: ChannelParams) -> int:
    """Best achievable sum rate among the implemented schemes."""
    tags = regime_of(p)
    if tags == (Regime.DEGENERATE,):
        return 0
    values = {_inner_piece(p, tag) for tag in tags}
    if len(values) != 1:
        raise InvariantError(f"inner pieces disagree at {p.short()}: {values}")
    return values.pop()


def capacity_mbar0(p: ChannelParams) -> int:
    """Exact sum capacity for channels without a backward cross-link."""
    if p.mbar != 0:
        raise ChannelDomainError("capacity_mbar0 requires mbar = 0")
    tags = regime_of(p)
    if tags == (Regime.DEGENERATE,):
        return 0
    pieces = {
        Regime.WEAK: r_rsw,
        Regime.MID: r_nom,
        Regime.STRONG: r_rss,
    }
    values = {pieces[tag](p) for tag in tags}
    if len(values) != 1:
        raise InvariantError(f"capacity pieces disagree at {p.short()}: {values}")
    return values.pop()


# ---------------------------------------------------------------------------
# Reference envelopes for the comparison curves.  These summarize prior-work
# bounds for the dedicated-feedback and no-feedback settings; they are
# reference envelopes, not results claimed by the schemes implemented here.

def dfb_reference(p: ChannelParams) -> int:
    """Dedicated-feedback reference envelope (second hop capped at 2f)."""
    return min(
        2 * p.f,
        2 * _m0(p) + 2 * max(p.nbar, p.mbar),
        max(p.n, p.m) + pos(p.n - p.m),
        2 * p.n + 2 * p.nbar,
    )


def nofb_reference(p: ChannelParams) -> int:
    """No-feedback reference envelope (the classical W-curve capped at 2f)."""
    return min(2 * p.f, 2 * p.n, 2 * _m0(p), max(2 * p.n - p.m, p.m))


# ---------------------------------------------------------------------------
# Bundled evaluation.

@dataclass(frozen=True)
class RateBundle:
    outer: int
    inner: int
    regimes: tuple
    components: dict
    matches: bool
    open_regime: bool
    gap: int

    @property
    def regime(self) -> str:
        return "+".join(str(t) for t in self.regimes)


def _inner_terms(p: ChannelParams, tags) -> dict:
    terms = {}
    if Regime.WEAK in tags:
        terms["R_fbxw"] = r_fbxw(p)
        terms["2max(n-m,m)+2mbar"] = 2 * _m0(p) + 2 * p.mbar
        if p.mbar == 0:
            terms["R_rsw"] = r_rsw(p)
    if Regime.MID in tags:
        terms["R_nom"] = r_nom(p)
        terms["max(2n-m,m)"] = max(2 * p.n - p.m, p.m)
    if Regime.STRONG in tags:
        terms["R_rss"] = r_rss(p)
    return terms


def rate_bundle(p: ChannelParams) -> RateBundle:
    """Evaluate outer/inner bounds plus every contributing min-term."""
    tags = regime_of(p)
    outer = outer_bound(p)
    inner = inner_bound(p)
    components = {
        "2n-m": 2 * p.n - p.m,
        "2f": 2 * p.f,
        "m": p.m,
    }
    components.update(general_bounds(p))
    components.update(_inner_terms(p, tags))
    open_regime = 3 * p.m < 2 * p.n and p.mbar < p.nbar
    if inner > outer:
        raise InvariantError(f"inner > outer at {p.short()}")
    return RateBundle(
        outer=outer,
        inner=inner,
        regimes=tags,
        components=components,
        matches=inner == outer,
        open_regime=open_regime,
        gap=outer - inner,
    )
