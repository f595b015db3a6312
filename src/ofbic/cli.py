"""Command-line front end: rate evaluation, scheme simulation, sweeps,
comparison-curve export.

Exit codes: 0 success, 2 usage error (bad flags, config lines or values,
files that cannot be read or written), 3 domain/regime error, 4 a failed
internal invariant (``InvariantError``, ``PipelineError`` or
``MidCodeError``: a bug, reported as one ``error: internal invariant
failed: ...`` line).  Every run is fully determined by its flags; the
default seed is 1009.  Relative --out paths are resolved against
$OFBIC_OUT_DIR when that variable is set.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from fractions import Fraction

from .allocation import ALL_SCHEMES
from .channel import ChannelDomainError, ChannelParams
from .pipeline import DEFAULT_SEED, run_scheme, verify_trace
from .rates import aux_quantities, dfb_reference, nofb_reference, rate_bundle
from .schedule import INVARIANT_ERRORS
from .sweep import (
    DEFAULT_RANGES,
    SweepSpec,
    compare_csv,
    compare_curves,
    default_alpha_grid,
    frequency_choice_report,
    sweep,
)
from .trace import format_trace

OUT_DIR_ENV = "OFBIC_OUT_DIR"


class UsageError(Exception):
    """A bad value found after argument parsing (exit 2)."""


def _out_path(path: str) -> str:
    """Resolve an --out path; its directory must exist, so check before a run."""
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    return path


def _add_param_flags(parser, required=False):
    for name in ("m", "n", "mbar", "nbar", "f"):
        parser.add_argument(f"--{name}", type=int, default=None if required else 0,
                            required=required)


def _params(args) -> ChannelParams:
    return ChannelParams(args.m, args.n, args.mbar, args.nbar, args.f)


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _grid_ranges(text: str) -> dict:
    """--grid value: comma list of key=lo:hi (or key=v) into {key: (lo, hi)}."""
    grid = {}
    for part in text.split(","):
        key, _, span = part.strip().partition("=")
        key = key.strip()
        if key not in DEFAULT_RANGES:
            raise argparse.ArgumentTypeError(
                f"unknown grid key {key!r}, expected one of "
                f"{', '.join(DEFAULT_RANGES)}"
            )
        if key in grid:
            raise argparse.ArgumentTypeError(f"grid key {key!r} given twice")
        lo, _, hi = span.partition(":")
        try:
            grid[key] = (int(lo), int(hi or lo))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad range {part.strip()!r}, expected key=lo:hi"
            ) from None
    return grid


def _alpha_list(text: str) -> list:
    """--alphas value: comma list of rationals such as 0,1/2,3."""
    try:
        alphas = [Fraction(a.strip()) for a in text.split(",") if a.strip()]
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad rational in {text!r}") from None
    if not alphas:
        raise argparse.ArgumentTypeError(f"no alpha in {text!r}")
    return alphas


def cmd_rates(args) -> int:
    p = _params(args)
    bundle = rate_bundle(p)
    aux = aux_quantities(p)
    print(f"params: {p.short()}")
    print(f"regime: {bundle.regime}")
    print(f"outer_bound: {bundle.outer}")
    print(f"inner_bound: {bundle.inner}")
    print(f"matches: {'yes' if bundle.matches else 'no'}")
    print(f"open_regime: {'yes' if bundle.open_regime else 'no'}")
    print(f"gap: {bundle.gap}")
    for name in sorted(bundle.components):
        print(f"term {name} = {bundle.components[name]}")
    print(f"aux f_star = {_fmt(aux.f_star)}")
    print(f"aux f_prime = {_fmt(aux.f_prime)}")
    print(f"aux delta0 = {aux.delta0}")
    print(f"reference dfb = {dfb_reference(p)} (reference envelope)")
    print(f"reference nofb = {nofb_reference(p)} (reference envelope)")
    return 0


def cmd_simulate(args) -> int:
    p = _params(args)
    out = _out_path(args.out or (
        f"trace_{args.scheme}_m{p.m}n{p.n}mb{p.mbar}nb{p.nbar}f{p.f}"
        f"_p{args.packets}_s{args.seed}.txt"
    ))
    trace = run_scheme(args.scheme, p, args.packets, seed=args.seed)
    report = verify_trace(trace)
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(format_trace(trace))
    print(f"scheme: {args.scheme}")
    print(f"params: {p.short()}")
    print(f"packets: {args.packets}  seed: {args.seed}  slots: {trace.n_slots}")
    print(f"formula_rate: {trace.formula_rate}")
    print(f"measured_sum_rate: {_fmt(trace.measured_sum_rate)}")
    print(f"steady_state_rate: {_fmt(trace.steady_state_rate)}")
    print(f"verify: {report.summary()}")
    print(f"trace: {out}")
    good = report.ok and trace.steady_state_rate == trace.formula_rate
    print(f"result: {'pass' if good else 'fail'}")
    return 0 if good else 1


def _read_config(path: str) -> dict:
    config = {}                       # key -> (value, line number)
    try:
        with open(path, encoding="utf-8") as handle:
            lines = list(handle)
    except UnicodeDecodeError as exc:
        raise UsageError(f"config {path} is not UTF-8 text: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(
                f"config {path} line {lineno}: expected key = value, "
                f"got {raw.strip()!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        if key in config:
            raise UsageError(
                f"config {path} line {lineno}: {key!r} already set on "
                f"line {config[key][1]}"
            )
        config[key] = (value.strip(), lineno)
    return config


def cmd_sweep(args) -> int:
    config = _read_config(args.config) if args.config else {}

    def setting(name, flag_value, cast, default=None):
        value, lineno = config.pop(name, (None, 0))
        if flag_value is not None:
            return flag_value
        if value is not None:
            try:
                return cast(value)
            except ValueError:
                raise UsageError(
                    f"config {args.config} line {lineno}: {name} = {value!r} "
                    "is not an integer"
                ) from None
        return default

    grid_flag = args.grid or {}
    ranges = {}
    for key, (lo_default, hi_default) in DEFAULT_RANGES.items():
        lo_flag, hi_flag = getattr(args, f"{key}_min"), getattr(args, f"{key}_max")
        if key in grid_flag and (lo_flag, hi_flag) != (None, None):
            raise UsageError(f"{key} given by both --grid and --{key}-min/--{key}-max")
        lo = setting(f"{key}_min", lo_flag, int, lo_default)
        hi = setting(f"{key}_max", hi_flag, int, hi_default)
        ranges[key] = grid_flag.get(key, (lo, hi))
    checks = setting("checks", args.checks, str)
    given = {
        "ranges": ranges,
        "checks": None if checks is None else tuple(
            c.strip().upper() for c in checks.split(",") if c.strip()),
        "scheme_packets": setting("packets", args.packets, int),
        "sample": setting("sample", args.sample, int),
        "seed": setting("seed", args.seed, int),
    }
    for key, (_, lineno) in config.items():     # setting() popped the rest
        raise UsageError(f"config {args.config} line {lineno}: unknown key {key!r}")
    # Unset values are left out so that SweepSpec's defaults apply.
    spec = SweepSpec(**{k: v for k, v in given.items() if v is not None})
    out = _out_path(args.out) if args.out else None
    report = sweep(spec)
    print(report.render())
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write("check,m,n,mbar,nbar,f,detail,replay\n")
            for ce in report.counterexamples:
                p = ce.p
                handle.write(
                    f"{ce.check},{p.m},{p.n},{p.mbar},{p.nbar},{p.f},"
                    f"\"{ce.detail}\",\"{ce.replay()}\"\n"
                )
        print(f"counterexamples written to {out}")
    return 0 if report.ok else 1


def cmd_compare(args) -> int:
    grid = args.alphas or default_alpha_grid()
    rows = compare_curves(args.n, args.mbar, args.nbar, args.f, grid)
    text = compare_csv(rows)
    if args.out:
        out = _out_path(args.out)
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"curve data written to {out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_freq_choice(args) -> int:
    choice = frequency_choice_report(args.theta, args.m, args.n, args.f)
    print(f"params: m={args.m} n={args.n} f={args.f} theta={args.theta}")
    print(f"cross-listening  (mbar=theta, nbar=0): inner {choice.cross.inner} "
          f"outer {choice.cross.outer} [{choice.cross.regime}]")
    print(f"direct-listening (mbar=0, nbar=theta): inner {choice.direct.inner} "
          f"outer {choice.direct.outer} [{choice.direct.regime}]")
    print(f"verdict: {choice.verdict}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofbic",
        description="Two-hop interference channel with overheard feedback: "
                    "exact rates and scheme simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rates = sub.add_parser("rates", help="evaluate all bounds at one point")
    _add_param_flags(p_rates)
    p_rates.set_defaults(func=cmd_rates)

    p_sim = sub.add_parser("simulate", help="run a scheme and verify the trace")
    _add_param_flags(p_sim)
    p_sim.add_argument("--scheme", required=True, choices=ALL_SCHEMES)
    p_sim.add_argument("--packets", type=int, default=100)
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="grid-check the closed-form claims")
    for key in ("m", "n", "mbar", "nbar", "f"):
        p_sweep.add_argument(f"--{key}-min", type=int, default=None)
        p_sweep.add_argument(f"--{key}-max", type=int, default=None)
    p_sweep.add_argument("--grid", type=_grid_ranges, default=None,
                         help="compact ranges, e.g. m=0:6,n=0:6,f=0:6")
    p_sweep.add_argument("--checks", default=None,
                         help="comma list (default: all checks)")
    p_sweep.add_argument("--packets", type=int, default=None)
    p_sweep.add_argument("--sample", type=int, default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--config", default=None,
                         help="key = value file; flags override")
    p_sweep.add_argument("--out", default=None,
                         help="write counterexample CSV here")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="OFB/DFB/NoFB curves as CSV")
    p_cmp.add_argument("--n", type=int, required=True)
    p_cmp.add_argument("--mbar", type=int, default=0)
    p_cmp.add_argument("--nbar", type=int, default=0)
    p_cmp.add_argument("--f", type=int, required=True)
    p_cmp.add_argument("--alphas", type=_alpha_list, default=None,
                       help="comma list of rationals (default 0..3 step 1/8)")
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_freq = sub.add_parser("freq-choice",
                            help="compare overhearing the cross vs own relay")
    p_freq.add_argument("--theta", type=int, required=True)
    p_freq.add_argument("--m", type=int, required=True)
    p_freq.add_argument("--n", type=int, required=True)
    p_freq.add_argument("--f", type=int, required=True)
    p_freq.set_defaults(func=cmd_freq_choice)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ChannelDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except INVARIANT_ERRORS as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
