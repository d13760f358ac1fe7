"""Command-line front end: figure-grade data grids and verification reports.

Subcommands
-----------
dynamics         occupation and current traces (exact, semigroup, slip)
divisibility-map max |g| and max |g_dual| over a detuning/temperature grid
frequency-map    |<0|X(E)|0>| over a complex-frequency grid
duality-check    run the full relation suite, JSON report, exit code contract
markov           CP-onset map of the slip approximation plus breakdown couplings

All numeric output uses 17 significant digits and newline line endings, so a
fixed configuration produces byte-identical files.  Diagnostics go to stderr;
stdout stays silent unless --stdout is given.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from .liouville import vectorize
from .markov import (
    breakdown_locator,
    cp_onset_time,
    semigroup_propagator,
    semigroup_propagator_hat,
    slip_operator,
    slip_propagator_hat,
)
from .model import DIVERGES, NUMBER_OP, RlmProvider, divisibility_max, pole_catalog
from .scalars import ModelParams, QuadratureError
from .verify import (
    DEFAULT_FREQS,
    DEFAULT_PARAMS,
    DEFAULT_TIMES,
    family_from_json,
    perturbed_family,
    rlm_family,
    run_suite,
    run_tabulated_suite,
)

__all__ = ["main"]


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return f"{x:.17g}"


def _emit(text: str, out: str | None, to_stdout: bool):
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    if to_stdout or not out:
        sys.stdout.write(text)


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else _fmt(c) for c in row))
    return "\n".join(lines) + "\n"


def _rows_json(header: list[str], rows: list[list]) -> str:
    recs = [{k: (v if isinstance(v, str) else float(v)) for k, v in zip(header, row)}
            for row in rows]
    return json.dumps(recs, indent=1) + "\n"


def _parse_params(args) -> ModelParams:
    return ModelParams(args.eps, args.mu, args.T, args.gamma)


def _parse_range(text: str) -> tuple[float, float]:
    lo, hi = (float(x) for x in text.split(","))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("range endpoints must be finite")
    return lo, hi


def _parse_grid(text: str) -> tuple[int, int]:
    nx, ny = (int(x) for x in text.split(","))
    if nx < 1 or ny < 1:
        raise ValueError("grid counts must be positive")
    return nx, ny


def _parse_rho0(text: str) -> np.ndarray:
    data = json.loads(text)
    rows = []
    for row in data:
        rows.append([complex(x[0], x[1]) if isinstance(x, list) else complex(x)
                     for x in row])
    return np.array(rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_dynamics(args) -> int:
    params = _parse_params(args)
    if params.gamma == 0.0:
        raise ValueError("gamma must be nonzero: the difference step is 1e-4/|gamma|")
    rho0 = _parse_rho0(args.rho0)
    t_lo, t_hi = _parse_range(args.times)
    ts = np.linspace(t_lo, t_hi, args.points)
    provider = RlmProvider(params)
    v0 = vectorize(rho0)
    vn = vectorize(NUMBER_OP).conj()
    h = 1e-4 / abs(params.gamma)
    t_minus = np.maximum(ts - h, 0.0)
    fd = (provider.occupation(ts + h, rho0)
          - provider.occupation(t_minus, rho0)) / (ts + h - t_minus)
    semigroup = semigroup_propagator(ts, params)
    slip = semigroup @ slip_operator(params).matrix   # slip_propagator on the same stack
    columns = [
        ts,
        provider.occupation(ts, rho0),
        np.einsum("i,nij,j->n", vn, semigroup, v0).real,
        np.einsum("i,nij,j->n", vn, slip, v0).real,
        fd,
        provider.current(ts, rho0),
    ]
    rows = np.column_stack(columns).tolist()
    header = ["t", "occ_exact", "occ_semigroup", "occ_slip",
              "current_exact", "current_closed_form"]
    text = _rows_json(header, rows) if args.format == "json" else _csv(header, rows)
    _emit(text, args.out, args.stdout)
    return 0


def cmd_divisibility_map(args) -> int:
    x_lo, x_hi = _parse_range(args.eps_range)
    y_lo, y_hi = _parse_range(args.T_range)
    nx, ny = _parse_grid(args.grid)
    xs = np.linspace(x_lo, x_hi, nx)
    ys = np.linspace(y_lo, y_hi, ny)
    gamma = args.gamma
    if not gamma > 0.0:
        raise ValueError("--gamma must be positive: the axes are in units of gamma")
    if min(y_lo, y_hi) < 0.0:
        raise ValueError("--T-range endpoints must be nonnegative")
    rows = []
    for y in ys:
        for x in xs:
            # T = 0 is evaluated at 1e-12, where g already equals its T -> 0 limit
            params = ModelParams(x * gamma, 0.0, max(y * gamma, 1e-12), gamma)
            mg = divisibility_max("g", params)
            mgd = divisibility_max("g_dual", params)
            rows.append([x, y, mg, "inf" if mgd == DIVERGES else mgd])
    header = ["eps_minus_mu_over_gamma", "T_over_gamma", "max_g", "max_g_dual"]
    text = _rows_json(header, rows) if args.format == "json" else _csv(header, rows)
    _emit(text, args.out, args.stdout)
    return 0


def cmd_frequency_map(args) -> int:
    params = _parse_params(args)
    re_lo, re_hi = _parse_range(args.re_range)
    im_lo, im_hi = _parse_range(args.im_range)
    nx, ny = _parse_grid(args.grid)
    res = np.linspace(re_lo, re_hi, nx)
    ims = np.linspace(im_lo, im_hi, ny)
    provider = RlmProvider(params)
    catalog = pole_catalog(params, n_max=6).all_poles
    offset = 1e-6 * abs(params.gamma)
    slip = slip_operator(params) if args.which == "slip-error" else None
    ground = np.zeros((2, 2), dtype=complex)
    ground[0, 0] = 1.0
    vg = vectorize(ground)

    def element(e: complex) -> float:
        if min(abs(e - p) for p in catalog) < 10 * offset:
            e = e + offset
        exact = provider.propagator_hat(e)
        if args.which == "exact":
            m = exact
        elif args.which == "semigroup-error":
            m = exact - semigroup_propagator_hat(e, params)
        else:
            m = exact - slip_propagator_hat(e, params, slip=slip)
        return float(abs(vg.conj() @ (m @ vg)))

    rows = []
    for im in ims:
        for re in res:
            rows.append([re, im, element(complex(re, im))])
    header = ["re_E", "im_E", "abs_element"]
    text = _rows_json(header, rows) if args.format == "json" else _csv(header, rows)
    _emit(text, args.out, args.stdout)
    return 0


def _parse_tols(items) -> dict:
    tols = {}
    for item in items or []:
        name, _, val = item.partition("=")
        if not val:
            raise ValueError(f"--tol expects relation=value, got {item!r}")
        tols[name] = float(val)
    return tols


def cmd_duality_check(args) -> int:
    tols = _parse_tols(args.tol)
    if args.family:
        with open(args.family) as fh:
            tab = family_from_json(fh.read())
        if args.perturb:
            tab.family = _apply_perturb(tab.family, args.perturb)
        reports = run_tabulated_suite(tab, tols)
    else:
        family = rlm_family()
        if args.perturb:
            family = _apply_perturb(family, args.perturb)
        params_list = DEFAULT_PARAMS
        if args.params:
            params_list = [ModelParams(*(float(x) for x in spec.split(",")))
                           for spec in args.params]
        times = DEFAULT_TIMES
        if args.times:
            times = tuple(float(x) for x in args.times.split(","))
        freqs = list(DEFAULT_FREQS)
        if args.seed is not None:
            rng = np.random.default_rng(args.seed)
            freqs += [complex(x, y) for x, y in
                      zip(rng.uniform(-2, 2, 4), rng.uniform(0.2, 2.5, 4))]
        reports = run_suite(family, params_list, times, tuple(freqs), tols)
    text = json.dumps([r.as_dict() for r in reports], indent=1) + "\n"
    _emit(text, args.out, args.stdout)
    n_fail = sum(not r.passed for r in reports)
    print(f"{len(reports)} relation reports, {n_fail} failed", file=sys.stderr)
    return 0 if n_fail == 0 else 1


def _apply_perturb(family, spec: str):
    name, _, val = spec.partition("=")
    if name != "gamma" or not val:
        raise ValueError(f"--perturb expects gamma=<factor>, got {spec!r}")
    return perturbed_family(family, float(val))


def cmd_markov(args) -> int:
    temp = args.T
    d_lo, d_hi = _parse_range(args.eps_range)
    g_lo, g_hi = _parse_range(args.gamma_over_T_range)
    nx, ny = _parse_grid(args.grid)
    detunings = np.linspace(d_lo, d_hi, nx)
    gammas = np.linspace(g_lo, g_hi, ny)
    t_max = args.t_max / temp
    rows = []
    for g_over_t in gammas:
        for det in detunings:
            params = ModelParams(det * temp, 0.0, temp, g_over_t * temp)
            onset = cp_onset_time(params, t_max=t_max, cp_tol=args.cp_tol)
            cell = onset if isinstance(onset, str) else onset * temp
            rows.append([det, g_over_t, cell])
    header = ["eps_minus_mu_over_T", "gamma_over_T", "cp_onset_times_T"]
    text = _rows_json(header, rows) if args.format == "json" else _csv(header, rows)
    _emit(text, args.out, args.stdout)

    bd_rows = []
    for det in detunings:
        if det == 0.0:
            continue
        for n, peak in enumerate(breakdown_locator(temp, det * temp, n_max=args.n_max)):
            bd_rows.append([det, float(n), peak / temp])
    bd_text = _csv(["eps_minus_mu_over_T", "peak_index", "gamma_over_T"], bd_rows)
    if args.out:
        stem, dot, ext = args.out.rpartition(".")
        bd_path = f"{stem}_breakdown.{ext}" if dot else f"{args.out}_breakdown"
        with open(bd_path, "w", newline="") as fh:
            fh.write(bd_text)
    if args.stdout or not args.out:
        sys.stdout.write("# breakdown\n" + bd_text)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_param_flags(p: argparse.ArgumentParser):
    p.add_argument("--eps", type=float, default=0.5, help="level energy")
    p.add_argument("--mu", type=float, default=0.0, help="electrochemical potential")
    p.add_argument("--T", type=float, default=0.25, help="temperature (> 0)")
    p.add_argument("--gamma", type=float, default=1.0, help="tunnel coupling")


def _add_io_flags(p: argparse.ArgumentParser):
    p.add_argument("--out", help="output file path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--stdout", action="store_true",
                   help="also write data to stdout when --out is given")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlmdual",
        description="Resonant-level dynamics, duality verification and "
                    "Markov-approximation diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dynamics", help="occupation/current traces")
    _add_param_flags(p)
    p.add_argument("--rho0", default="[[1,0],[0,0]]",
                   help="initial state as JSON matrix ([re,im] pairs allowed)")
    p.add_argument("--times", default="0,10",
                   help="start,stop of the time window")
    p.add_argument("--points", type=int, default=101)
    _add_io_flags(p)
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("divisibility-map", help="max |g|, max |g_dual| grids")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--eps-range", default="0,3", help="detuning/gamma axis")
    p.add_argument("--T-range", default="0.02,3", help="temperature/gamma axis")
    p.add_argument("--grid", default="121,121")
    _add_io_flags(p)
    p.set_defaults(func=cmd_divisibility_map)

    p = sub.add_parser("frequency-map", help="|<0|X(E)|0>| over complex E")
    _add_param_flags(p)
    p.add_argument("--re-range", default="-2,2")
    p.add_argument("--im-range", default="-2.5,0.5")
    p.add_argument("--grid", default="81,81")
    p.add_argument("--which", choices=("exact", "semigroup-error", "slip-error"),
                   default="exact")
    _add_io_flags(p)
    p.set_defaults(func=cmd_frequency_map)

    p = sub.add_parser("duality-check", help="run the relation suite")
    p.add_argument("--family", help="JSON file with a tabulated family")
    p.add_argument("--params", action="append",
                   help="eps,mu,T,gamma (repeatable; default: built-in grid)")
    p.add_argument("--times", help="comma-separated sample times")
    p.add_argument("--tol", action="append",
                   help="relation=value tolerance override (repeatable)")
    p.add_argument("--perturb", help="test hook, e.g. gamma=1.01")
    p.add_argument("--seed", type=int,
                   help="seed for extra random frequency samples")
    _add_io_flags(p)
    p.set_defaults(func=cmd_duality_check)

    p = sub.add_parser("markov", help="CP-onset map and breakdown couplings")
    p.add_argument("--T", type=float, default=1.0, help="temperature (energy unit)")
    p.add_argument("--eps-range", default="0.01,5", help="detuning/T axis")
    p.add_argument("--gamma-over-T-range", default="1,15")
    p.add_argument("--grid", default="9,9")
    p.add_argument("--t-max", type=float, default=1e3, help="scan horizon in 1/T")
    p.add_argument("--cp-tol", type=float, default=1e-9)
    p.add_argument("--n-max", type=int, default=2, help="breakdown ladder depth")
    _add_io_flags(p)
    p.set_defaults(func=cmd_markov)
    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join ``--opt -0.5,0`` into ``--opt=-0.5,0``: argparse reads a token that
    starts with '-' and is not a plain number as an option."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] \
                and re.match(r"-\.?\d", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process (a build costs about 2 ms)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(_attach_negative_values(
        sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except (ValueError, OSError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
