"""Command-line front end: rate evaluation, scheme simulation, sweeps,
comparison-curve export.

Exit codes: 0 success, 2 usage error, 3 domain/regime error.  Every run is
fully determined by its flags; the default seed is 1009.  Relative --out
paths are resolved against $OFBIC_OUT_DIR when that variable is set.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .allocation import ALL_SCHEMES
from .channel import ChannelDomainError, ChannelParams
from .pipeline import DEFAULT_SEED, format_trace, run_scheme, verify_trace
from .rates import aux_quantities, dfb_reference, nofb_reference, rate_bundle
from .sweep import (
    ALL_CHECKS,
    DEFAULT_RANGES,
    SweepSpec,
    compare_csv,
    compare_curves,
    default_alpha_grid,
    frequency_choice_report,
    sweep,
)

OUT_DIR_ENV = "OFBIC_OUT_DIR"


def _out_path(path: str) -> str:
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
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
        lo, _, hi = span.partition(":")
        try:
            grid[key.strip()] = (int(lo), int(hi or lo))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad range {part.strip()!r}, expected key=lo:hi"
            ) from None
    return grid


def _alpha_list(text: str) -> list:
    """--alphas value: comma list of rationals such as 0,1/2,3."""
    try:
        return [Fraction(a.strip()) for a in text.split(",") if a.strip()]
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad rational in {text!r}") from None


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
    trace = run_scheme(args.scheme, p, args.packets, seed=args.seed)
    report = verify_trace(trace)
    out = args.out or (
        f"trace_{args.scheme}_m{p.m}n{p.n}mb{p.mbar}nb{p.nbar}f{p.f}"
        f"_p{args.packets}_s{args.seed}.txt"
    )
    out = _out_path(out)
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
    config = {}
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ChannelDomainError(f"bad config line {raw.strip()!r}")
            key, _, value = line.partition("=")
            config[key.strip()] = value.strip()
    return config


def cmd_sweep(args) -> int:
    config = _read_config(args.config) if args.config else {}

    def setting(name, flag_value, cast, default):
        if flag_value is not None:
            return flag_value
        if name in config:
            return cast(config[name])
        return default

    grid_flag = args.grid or {}
    ranges = {}
    for key, (lo_default, hi_default) in DEFAULT_RANGES.items():
        lo = setting(f"{key}_min", getattr(args, f"{key}_min"), int, lo_default)
        hi = setting(f"{key}_max", getattr(args, f"{key}_max"), int, hi_default)
        ranges[key] = grid_flag.get(key, (lo, hi))
    checks_raw = setting("checks", args.checks, str, ",".join(ALL_CHECKS))
    checks = tuple(c.strip().upper() for c in checks_raw.split(",") if c.strip())
    spec = SweepSpec(
        ranges=ranges,
        checks=checks,
        scheme_packets=setting("packets", args.packets, int, 8),
        sample=setting("sample", args.sample, int, 200),
        seed=setting("seed", args.seed, int, DEFAULT_SEED),
    )
    report = sweep(spec)
    print(report.render())
    if args.out:
        out = _out_path(args.out)
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


if __name__ == "__main__":
    sys.exit(main())
