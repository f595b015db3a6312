"""Closed-form sum-rate expressions: outer bound, inner bounds, capacities.

Everything here is exact integer (or half-integer Fraction) arithmetic; no
floating point.  Regime boundaries are closed on both sides, so a boundary
point carries the outer, inner and capacity pieces of both adjacent regimes.

Each point is evaluated once, by ``_evaluate``, which records every piece
and never raises.  ``rate_bundle`` reads that evaluation, and
``outer_bound``, ``inner_bound`` and ``capacity_mbar0`` compute only their
own pieces with the same piece functions; each raises ``InvariantError``
when pieces disagree.  The sweep reads the evaluation and reports a
disagreement as a counterexample of the check that owns it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .channel import ChannelDomainError, ChannelParams


class InvariantError(AssertionError):
    """A closed-form or allocation identity failed (a bug, not bad input).

    Raised explicitly rather than asserted, so the check survives ``python -O``.
    """


class RegimeError(ChannelDomainError):
    """Scheme applied outside its interference regime."""


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
# Achievable-rate formulas (evaluable for any p; SCHEMES below says where
# each scheme runs).

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


# The outer pieces keep their own formulas, never the scheme rates, so that
# the sweep's COROLLARY1 and INNER_LE_OUTER checks compare two derivations.
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


# ---------------------------------------------------------------------------
# The achievable schemes: where each runs and the sum rate it reaches.  This
# table is the one place that decides which scheme serves which regime.

SCHEME_FBXW = "fbxw"
SCHEME_RSW = "rsw"
SCHEME_RSS = "rss"
SCHEME_NOFB_MID = "nofb-mid"


class SchemeSpec(NamedTuple):
    regimes: tuple          # the scheme runs where p has any of these regimes
    mbar0: bool             # ... and, when set, only if mbar = 0
    rate: Callable          # its closed-form sum rate there


SCHEMES = {
    SCHEME_FBXW: SchemeSpec((Regime.WEAK,), False, r_fbxw),
    SCHEME_RSW: SchemeSpec((Regime.WEAK,), True, r_rsw),
    SCHEME_RSS: SchemeSpec((Regime.STRONG,), False, r_rss),
    SCHEME_NOFB_MID: SchemeSpec((Regime.MID, Regime.DEGENERATE), False, r_nom),
}
PACKET_SCHEMES = (SCHEME_FBXW, SCHEME_RSW, SCHEME_RSS)
ALL_SCHEMES = tuple(SCHEMES)


def _runs_at(spec: SchemeSpec, p: ChannelParams, tags) -> bool:
    """Does the scheme of ``spec`` run at p, whose regimes are ``tags``?"""
    return (p.mbar == 0 or not spec.mbar0) and any(t in tags for t in spec.regimes)


def _schemes_at(p: ChannelParams, tags) -> list:
    return [(name, spec.rate(p)) for name, spec in SCHEMES.items()
            if _runs_at(spec, p, tags)]


def schemes_at(p: ChannelParams) -> list:
    """(scheme, closed-form rate) for every scheme that runs at p, in table order."""
    return _schemes_at(p, regime_of(p))


def require_scheme(scheme: str, p: ChannelParams) -> None:
    """Raise RegimeError unless ``scheme`` runs at p."""
    spec, tags = SCHEMES[scheme], regime_of(p)
    if _runs_at(spec, p, tags):
        return
    if any(t in tags for t in spec.regimes):
        raise RegimeError(f"scheme {scheme} needs mbar = 0 at {p.short()}")
    raise RegimeError(
        f"scheme {scheme} needs the {spec.regimes[0]} regime, "
        f"got {'+'.join(str(t) for t in tags)} at {p.short()}"
    )


# Theorem 3's pieces, kept apart from the scheme table so that the sweep's
# THEOREM3 check compares two independent derivations.
_CAPACITY_PIECES = {
    Regime.WEAK: r_rsw,
    Regime.MID: r_nom,
    Regime.STRONG: r_rss,
    Regime.DEGENERATE: lambda p: 0,     # m = n = 0: nothing gets through
}


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
    """Every rate at one point, with the per-regime pieces it was read from.

    With correct formulas the pieces of a boundary point agree.  When they
    do not, ``outer`` and ``inner`` are the first regime's pieces (``outer``
    still capped by the mbar = 0 bound).
    """

    outer: int
    inner: int
    regimes: tuple
    components: dict
    matches: bool
    open_regime: bool
    gap: int
    outer_pieces: dict          # regime -> outer-bound piece
    inner_pieces: dict          # regime -> best scheme rate in that regime
    capacity_pieces: dict       # regime -> Theorem 3 piece; empty unless mbar = 0
    schemes: list               # (scheme, rate) for each scheme that runs at p

    @property
    def regime(self) -> str:
        return "+".join(str(t) for t in self.regimes)


def _mbar0_cap(p: ChannelParams, outer: int) -> int:
    """``outer`` with the mbar = 0 direct-link bound intersected in."""
    return min(outer, p.f + _m0(p) + pos(p.nbar - p.f)) if p.mbar == 0 else outer


def _inner_pieces(tags, schemes) -> dict:
    """Regime -> the best rate among ``schemes`` that serve it."""
    return {t: max([rate for s, rate in schemes if t in SCHEMES[s].regimes])
            for t in tags}


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


def _evaluate(p: ChannelParams) -> RateBundle:
    """The one evaluation of p: every piece and min-term; never raises."""
    tags = regime_of(p)
    schemes = _schemes_at(p, tags)
    outer_pieces = {t: _outer_piece(p, t) for t in tags}
    inner_pieces = _inner_pieces(tags, schemes)
    capacity_pieces = {t: _CAPACITY_PIECES[t](p) for t in tags} if p.mbar == 0 else {}
    outer = _mbar0_cap(p, outer_pieces[tags[0]])
    inner = inner_pieces[tags[0]]
    components = {
        "2n-m": 2 * p.n - p.m,
        "2f": 2 * p.f,
        "m": p.m,
    }
    components.update(general_bounds(p))
    components.update(_inner_terms(p, tags))
    return RateBundle(
        outer=outer,
        inner=inner,
        regimes=tags,
        components=components,
        matches=inner == outer,
        open_regime=3 * p.m < 2 * p.n and p.mbar < p.nbar,
        gap=outer - inner,
        outer_pieces=outer_pieces,
        inner_pieces=inner_pieces,
        capacity_pieces=capacity_pieces,
        schemes=schemes,
    )


def _agree(p: ChannelParams, what: str, pieces: dict) -> None:
    values = set(pieces.values())
    if len(values) != 1:
        raise InvariantError(f"{what} pieces disagree at {p.short()}: {values}")


def rate_bundle(p: ChannelParams) -> RateBundle:
    """Evaluate outer/inner bounds plus every contributing min-term."""
    bundle = _evaluate(p)
    _agree(p, "regime", bundle.outer_pieces)
    _agree(p, "inner", bundle.inner_pieces)
    if bundle.inner > bundle.outer:
        raise InvariantError(f"inner > outer at {p.short()}")
    return bundle


def outer_bound(p: ChannelParams) -> int:
    """Regime-piecewise sum-capacity upper bound.

    For mbar = 0 the extra direct-link bound also applies and is
    intersected in.
    """
    tags = regime_of(p)
    pieces = {t: _outer_piece(p, t) for t in tags}
    _agree(p, "regime", pieces)
    return _mbar0_cap(p, pieces[tags[0]])


def inner_bound(p: ChannelParams) -> int:
    """Best achievable sum rate among the implemented schemes."""
    tags = regime_of(p)
    pieces = _inner_pieces(tags, _schemes_at(p, tags))
    _agree(p, "inner", pieces)
    return pieces[tags[0]]


def capacity_mbar0(p: ChannelParams) -> int:
    """Exact sum capacity for channels without a backward cross-link."""
    if p.mbar != 0:
        raise ChannelDomainError("capacity_mbar0 requires mbar = 0")
    tags = regime_of(p)
    pieces = {t: _CAPACITY_PIECES[t](p) for t in tags}
    _agree(p, "capacity", pieces)
    return pieces[tags[0]]
