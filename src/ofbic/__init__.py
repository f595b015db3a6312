"""Exact simulator and rate calculator for the deterministic two-hop
interference channel with feedback through overhearing."""

from .allocation import (
    ALL_SCHEMES,
    SCHEME_FBXW,
    SCHEME_NOFB_MID,
    SCHEME_RSS,
    SCHEME_RSW,
    BitAllocation,
    RegimeError,
    allocate,
    allocate_fbxw,
    allocate_rss,
    allocate_rsw,
    level_map,
)
from .channel import (
    ChannelDomainError,
    ChannelParams,
    GfVec,
    first_hop,
    second_hop,
    shift,
)
from .midcode import MidCode, MidCodeError, build_mid_code
from .pipeline import DEFAULT_SEED, VerifyReport, run_scheme, verify_trace
from .rates import (
    AuxQuantities,
    RateBundle,
    Regime,
    aux_quantities,
    capacity_mbar0,
    dfb_reference,
    f_prime,
    f_star,
    inner_bound,
    nofb_reference,
    outer_bound,
    r_fbxw,
    r_nom,
    r_rss,
    r_rsw,
    rate_bundle,
    regime_of,
)
from .schedule import Schedule, build_schedule
from .trace import SimulationTrace, format_trace, parse_trace

__version__ = "0.1.0"
