"""Command-line front end.

Exit codes: 0 success, 2 input error (a value too large for float
arithmetic too), 3 precision exhaustion,
4 unresolved verdict (an indeterminate regime, an uncertified depth, or
a failing report row).  Every output embeds the effective config, seed
and tool version; serialization is deterministic so identical configs
give byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
import tempfile
from fractions import Fraction

from . import __version__
from .diffusion import DEFAULT_SEED, parse_rv, scaling_fit
from .diophantine import (LinearFormSystem, bounded_quotient_report, cf_expand,
                          delta_from_sigma, lattice_min, system_lattice_min)
from .directions import parse_direction
from .errors import (DepthNotCertified, DirpError, ParseError,
                     PrecisionCapExceeded, PrecisionExhausted)
from .extremizers import parse_family_token
from .precision import DEFAULT_CONTEXT, PrecisionContext, read_ratio
from .report import build_report, report_to_bytes
from .spectral import (TrigPoly, directional_norm, grad_norm, l2_norm,
                       multi_directional_functional, poincare_ratio)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECISION = 3
EXIT_UNRESOLVED = 4
_CONFIG_KEYS = ("digits", "max_digits", "radius", "grid", "seed", "out", "format")
_FORMATS = ("json", "csv", "both")


def _read_config(path: str) -> dict:
    """Single key=value per line; # comments; an unknown key or format raises."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key=value")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in _CONFIG_KEYS:
                raise ParseError(f"{path}:{lineno}: unknown key {key!r}; "
                                 f"expected one of {', '.join(_CONFIG_KEYS)}")
            if key == "format" and value not in _FORMATS:  # checked like --format
                raise ParseError(f"{path}:{lineno}: unknown format {value!r}; "
                                 f"expected one of {', '.join(_FORMATS)}")
            out[key] = value
    return out


def _build_settings(args) -> dict:
    cfg = _read_config(args.config) if args.config else {}
    def pick(flag, env, key, default, cast):
        if flag is not None:
            return cast(flag)
        if env and os.environ.get(env):
            return cast(os.environ[env])
        if key in cfg:
            return cast(cfg[key])
        return default
    return {
        "digits": pick(args.digits, "DIRP_DIGITS", "digits",
                       DEFAULT_CONTEXT.working_digits, int),
        "max_digits": pick(args.max_digits, None, "max_digits",
                           DEFAULT_CONTEXT.max_digits, int),
        "radius": pick(args.radius, None, "radius", 100, int),
        "grid": pick(args.grid, None, "grid", 4096, int),
        "seed": pick(args.seed, None, "seed", DEFAULT_SEED, int),
        "out": args.out or cfg.get("out"),
        "format": pick(args.format, None, "format", "json", str),
    }


def _emit(payload, settings, csv_text: str | None = None) -> None:
    payload = {
        "version": __version__,
        "config": {k: settings[k] for k in
                   ("digits", "max_digits", "radius", "grid", "seed", "format")},
        "result": payload,
    }
    # exact integers (continued-fraction quotients and convergents) print
    # whole; input parsing keeps the interpreter's digit limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        text = report_to_bytes(payload).decode()
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    fmt = settings["format"]
    if fmt == "csv" and csv_text is None:
        fmt = "json"  # no CSV form: the JSON stands in, on stdout and in files
    out = settings["out"]
    if out:
        targets = []
        if fmt in ("json", "both"):
            targets.append((out if out.endswith(".json") or fmt == "json"
                            else out + ".json", text))
        if fmt in ("csv", "both") and csv_text is not None:
            targets.append((out if out.endswith(".csv") and fmt == "csv"
                            else out + ".csv", csv_text))
        for path, content in targets:
            # atomic write: tempfile in the same directory, then rename
            d = os.path.dirname(os.path.abspath(path))
            fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(content)
            os.replace(tmp, path)
    else:
        if fmt == "csv":
            sys.stdout.write(csv_text)
        else:
            sys.stdout.write(text + "\n")


def _load_poly(token: str, direction, ctx) -> TrigPoly:
    if token.startswith("@"):
        with open(token[1:], encoding="utf-8") as fh:
            return TrigPoly.from_json(fh.read())
    return parse_family_token(token, direction, ctx).poly


def _cmd_norms(args, settings, ctx) -> int:
    a = parse_direction(args.direction)
    f = _load_poly(args.poly, a, ctx)
    digits = settings["digits"]
    result = {
        "l2": l2_norm(f).to_json(digits),
        "grad": grad_norm(f).to_json(digits),
        "directional": directional_norm(f, a).to_json(digits),
        "direction": a.key(),
    }
    _emit(result, settings)
    return EXIT_OK


def _cmd_ratio(args, settings, ctx) -> int:
    dirs = [parse_direction(d) for d in args.direction]
    preset = args.preset
    if len(dirs) > 1 and (preset == "thm1" or preset.startswith("delta:")):
        raise ParseError(f"preset {preset} takes one --direction, got {len(dirs)}")
    f = _load_poly(args.poly, dirs[0], ctx)
    d, ell = f.dim, len(dirs)
    if preset == "thm1":
        value = poincare_ratio(f, dirs[0], d - 1, 1)
        exps = (d - 1, 1)
    elif preset == "thm2":
        value = multi_directional_functional(f, dirs, d - 1, ell)
        exps = (d - 1, ell)
    elif preset == "improved":
        value = multi_directional_functional(f, dirs, d - ell, ell)
        exps = (d - ell, ell)
    elif preset.startswith("delta:"):
        eg, ed = delta_from_sigma(Fraction(*read_ratio(preset[6:])))
        value = poincare_ratio(f, dirs[0], eg, ed)
        exps = (eg, ed)
    else:
        raise ParseError(f"unknown preset {preset!r}")
    result = {
        "preset": preset,
        "exponents": [str(e) for e in exps],
        "directions": [a.key() for a in dirs],
        "ratio": value.to_json(settings["digits"]),
    }
    _emit(result, settings)
    return EXIT_OK


def _cmd_lattice(args, settings, ctx) -> int:
    digits = settings["digits"]
    if args.system and args.direction is not None:
        raise ParseError("lattice takes --direction or --system, not both")
    if args.system:
        forms = tuple(parse_direction(s.strip())
                      for s in args.system.split(";") if s.strip())
        res = system_lattice_min(LinearFormSystem(forms), settings["radius"], ctx)
    elif args.direction is None:
        raise ParseError("lattice needs --direction or --system")
    else:
        a = parse_direction(args.direction)
        res = lattice_min(a, settings["radius"],
                          Fraction(*read_ratio(args.sigma)), args.norm, ctx)
    _emit(res.to_json(digits), settings)
    return EXIT_OK


def _cmd_cf(args, settings, ctx) -> int:
    spec = parse_direction(args.spec)
    if spec.dim != 1:
        raise ParseError(f"cf takes one number, got {spec.dim} entries")
    cf = cf_expand(spec.entries[0], args.depth, ctx)
    result = {**dataclasses.asdict(cf), "convergents": cf.convergents}
    if args.bound is not None:
        rep = dataclasses.asdict(bounded_quotient_report(cf, args.bound))
        del rep["certified_depth"]      # already in the expansion's own fields
        result["bound_report"] = rep
    _emit(result, settings)
    if cf.certified_depth < args.depth and not cf.finite:
        raise DepthNotCertified(
            f"certified only {cf.certified_depth} of {args.depth} quotients")
    return EXIT_OK


def _cmd_diffusion(args, settings, ctx) -> int:
    Y = parse_rv(args.rv)
    p = math.inf if args.p == "inf" else int(args.p)
    t_grid = [Fraction(*read_ratio(t)) for t in args.t_grid.split(",")]
    M = settings["grid"]
    est = scaling_fit(Y, p, t_grid, M, seed=settings["seed"])
    rows = ["p,t,h,method,M,seed"]
    label = "inf" if p == math.inf else str(p)
    for t, h, method in zip(est.t_grid, est.h_values, est.methods):
        rows.append(f"{label},{t!r},{h!r},{method},{M},{settings['seed']}")
    _emit(est.to_json(), settings, csv_text="\n".join(rows) + "\n")
    if est.regime == "indeterminate":
        raise _Unresolved(f"scaling fit indeterminate: slope {est.slope:.3f}")
    return EXIT_OK


def _cmd_report(args, settings, ctx) -> int:
    report = build_report(seed=settings["seed"], ctx=ctx)
    for row in report["rows"]:
        status = "PASS" if row["pass"] else "FAIL"
        print(f"criterion {row['criterion']:>2} {row['name']:<28} {status}",
              file=sys.stderr)
    _emit(report, settings)
    if not report["all_pass"]:
        raise _Unresolved("one or more report rows failed")
    return EXIT_OK


class _Unresolved(DirpError):
    pass


def _global_flags(default) -> argparse.ArgumentParser:
    """The global flags, each defaulting to `default`.  The subcommands'
    copy uses SUPPRESS: argparse copies a subparser's defaults over the
    values parsed before the subcommand, so a flag may come before or
    after it, and one given after wins."""
    flags = argparse.ArgumentParser(add_help=False, argument_default=default)
    flags.add_argument("--digits", type=int,
                       help="working precision (decimal digits)")
    flags.add_argument("--max-digits", type=int, dest="max_digits")
    flags.add_argument("--radius", type=int, help="default lattice radius R")
    flags.add_argument("--grid", type=int, help="default grid size M")
    flags.add_argument("--seed", type=int)
    flags.add_argument("--out", help="write output to this path (atomically)")
    flags.add_argument("--format", choices=_FORMATS)
    flags.add_argument("--config", help="key=value config file")
    return flags


@functools.cache  # built on first use; each parse_args fills a fresh Namespace
def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dirp", parents=[_global_flags(None)],
        description="certified directional Poincare / diffusion toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    sub_flags = _global_flags(argparse.SUPPRESS)

    def add(name, **kw):
        return sub.add_parser(name, parents=[sub_flags], **kw)

    p = add("norms", help="l2/gradient/directional norms")
    p.add_argument("poly", help="family token (fib:n, liouville:N[:base], "
                                "cwave:n) or @file.json")
    p.add_argument("--direction", required=True)
    p.set_defaults(func=_cmd_norms)

    p = add("ratio", help="weighted Poincare ratios")
    p.add_argument("poly")
    p.add_argument("--direction", action="append", required=True)
    p.add_argument("--preset", default="thm1",
                   help="thm1 | thm2 | improved | delta:SIGMA")
    p.set_defaults(func=_cmd_ratio)

    p = add("lattice", help="lattice minima of |k|^sigma |<k,alpha>|")
    p.add_argument("--direction")
    p.add_argument("--system", help="semicolon-separated linear forms")
    p.add_argument("--sigma", default="1")
    p.add_argument("--norm", choices=("euclidean", "max"), default="euclidean")
    p.set_defaults(func=_cmd_lattice)

    p = add("cf", help="certified continued fractions")
    p.add_argument("spec")
    p.add_argument("--depth", type=int, default=25)
    p.add_argument("--bound", type=int, help="quotient-bound diagnostic window")
    p.set_defaults(func=_cmd_cf)

    p = add("diffusion", help="contraction scaling fits")
    p.add_argument("rv", help="uniform:lo:hi | atoms:[(p,m)] | mix:[...]")
    p.add_argument("--p", default="2", choices=("1", "2", "inf"))
    p.add_argument("--t-grid", dest="t_grid", default="0.1,0.05,0.02,0.01")
    p.set_defaults(func=_cmd_diffusion)

    p = add("report", help="run every release-gate row")
    p.set_defaults(func=_cmd_report)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        settings = _build_settings(args)
        ctx = PrecisionContext(working_digits=settings["digits"],
                               max_digits=settings["max_digits"])
        return args.func(args, settings, ctx)
    except (PrecisionExhausted, PrecisionCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (_Unresolved, DepthNotCertified) as exc:
        print(f"unresolved: {exc}", file=sys.stderr)
        return EXIT_UNRESOLVED
    except (DirpError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
