"""Per-packet bit allocations for the three four-phase schemes.

A packet carries, per source: ``noncoop + coop + private`` fresh bits in
phase 1 and ``noncoop + private`` fresh bits in phase 4, so

    2*noncoop + 2*private + coop  ==  closed-form sum rate

holds exactly in the scheme's regime (the appendix case analyses).  Counts
are per packet per source; ``superframe`` is 2 when the coop count is odd,
meaning phases 2 and 3 carry unequal feedback loads and only a two-packet
batch has phase-symmetric level counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import ChannelDomainError, ChannelParams
from .rates import (
    InvariantError,
    Regime,
    f_prime,
    f_star,
    pos,
    r_fbxw,
    r_rss,
    r_rsw,
    regime_of,
)


class RegimeError(ChannelDomainError):
    """Scheme applied outside its interference regime."""


SCHEME_FBXW = "fbxw"
SCHEME_RSW = "rsw"
SCHEME_RSS = "rss"
SCHEME_NOFB_MID = "nofb-mid"

PACKET_SCHEMES = (SCHEME_FBXW, SCHEME_RSW, SCHEME_RSS)
ALL_SCHEMES = PACKET_SCHEMES + (SCHEME_NOFB_MID,)


@dataclass(frozen=True)
class BitAllocation:
    scheme: str
    noncoop: int
    coop: int
    private: int
    per_phase_coop: tuple
    superframe: int

    @property
    def bits_per_packet(self) -> int:
        """Fresh payload bits per packet per source."""
        return 2 * (self.noncoop + self.private) + self.coop


def _require(p: ChannelParams, tag: Regime, scheme: str) -> None:
    if tag not in regime_of(p):
        raise RegimeError(
            f"scheme {scheme} needs the {tag} regime, "
            f"got {'+'.join(str(t) for t in regime_of(p))} at {p.short()}"
        )


def _weak_common_counts(p: ChannelParams):
    noncoop = min(pos(2 * p.m - p.n), p.f)
    private = min(p.n - p.m, pos(p.f - pos(2 * p.m - p.n)))
    return noncoop, private


def _finish(scheme: str, p: ChannelParams, noncoop: int, coop: int,
            private: int, rate: int) -> BitAllocation:
    if min(noncoop, coop, private) < 0:
        raise InvariantError(
            f"{scheme} allocation has a negative count at {p.short()}: "
            f"noncoop={noncoop} coop={coop} private={private}"
        )
    if 2 * noncoop + 2 * private + coop != rate:
        raise InvariantError(
            f"{scheme} allocation does not add up at {p.short()}: "
            f"2*{noncoop}+2*{private}+{coop} != {rate}"
        )
    if noncoop + private > p.q:
        raise InvariantError(
            f"{scheme} allocation exceeds q at {p.short()}: "
            f"{noncoop}+{private} > {p.q}"
        )
    per_phase = ((coop + 1) // 2, coop // 2)
    return BitAllocation(
        scheme=scheme,
        noncoop=noncoop,
        coop=coop,
        private=private,
        per_phase_coop=per_phase,
        superframe=2 if coop % 2 else 1,
    )


def allocate_fbxw(p: ChannelParams) -> BitAllocation:
    _require(p, Regime.WEAK, SCHEME_FBXW)
    noncoop, private = _weak_common_counts(p)
    m0 = max(p.n - p.m, p.m)
    coop = min(2 * p.mbar, 2 * p.n - p.m - 2 * m0, pos(2 * p.f - 2 * m0))
    return _finish(SCHEME_FBXW, p, noncoop, coop, private, r_fbxw(p))


def allocate_rsw(p: ChannelParams) -> BitAllocation:
    _require(p, Regime.WEAK, SCHEME_RSW)
    if p.mbar != 0:
        raise RegimeError(f"scheme {SCHEME_RSW} needs mbar = 0 at {p.short()}")
    noncoop, private = _weak_common_counts(p)
    m0 = max(p.n - p.m, p.m)
    two_fs = 2 * f_star(p)
    if two_fs.denominator != 1:
        raise InvariantError(f"2*f_star = {two_fs} is not an integer at {p.short()}")
    coop = min(
        2 * pos(p.nbar - p.f) + int(two_fs),
        2 * p.n - p.m - 2 * m0,
        pos(2 * p.f - 2 * m0),
    )
    return _finish(SCHEME_RSW, p, noncoop, coop, private, r_rsw(p))


def allocate_rss(p: ChannelParams) -> BitAllocation:
    _require(p, Regime.STRONG, SCHEME_RSS)
    noncoop = min(p.n, p.f)
    two_fp = 2 * f_prime(p)
    if two_fp.denominator != 1:
        raise InvariantError(f"2*f_prime = {two_fp} is not an integer at {p.short()}")
    coop = min(
        2 * pos(p.nbar - p.f) + int(two_fp),
        p.m - 2 * p.n,
        pos(2 * p.f - 2 * p.n),
    )
    # common bits must clear the other source's direct band at the cross relay
    if coop and noncoop + coop > p.m - p.n:
        raise InvariantError(
            f"{SCHEME_RSS} common bits overlap the direct band at {p.short()}"
        )
    return _finish(SCHEME_RSS, p, noncoop, coop, 0, r_rss(p))


def allocate(scheme: str, p: ChannelParams) -> BitAllocation:
    if scheme == SCHEME_FBXW:
        return allocate_fbxw(p)
    if scheme == SCHEME_RSW:
        return allocate_rsw(p)
    if scheme == SCHEME_RSS:
        return allocate_rss(p)
    raise ChannelDomainError(f"no bit allocation for scheme {scheme!r}")


def level_map(alloc: BitAllocation, p: ChannelParams, phase: int) -> dict:
    """Source-level assignment for a hop-1 phase (1 or 4).

    Maps 0-based level -> (band, index).  Unlisted levels are fixed to zero.
    Phase 1 bands carry fresh bits; in phase 4 the coop band instead carries
    the cooperative information of the other source ('coop_relay').
    """
    if phase not in (1, 4):
        raise ChannelDomainError(f"phase must be 1 or 4, got {phase}")
    nc, cp, pv = alloc.noncoop, alloc.coop, alloc.private
    assignment = {}
    for j in range(nc):
        assignment[j] = ("noncoop", j)
    coop_band = "coop" if phase == 1 else "coop_relay"
    for j in range(cp):
        assignment[nc + j] = (coop_band, j)
    for j in range(pv):
        assignment[p.m + j] = ("private", j)
    if assignment:
        top = max(assignment)
        if top >= p.q:
            raise InvariantError(f"allocation spills past q at {p.short()}")
        if alloc.scheme in (SCHEME_FBXW, SCHEME_RSW):
            fits = nc + cp <= p.n - p.m
        else:
            fits = pv == 0 and nc + cp <= max(p.m - p.n, p.n)
        if not fits:
            raise InvariantError(
                f"{alloc.scheme} bands do not fit at {p.short()}: "
                f"noncoop={nc} coop={cp} private={pv}"
            )
    return assignment
