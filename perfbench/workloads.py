"""Seeded operations of the three workloads and the checks on their outputs.

Each workload is a sequence of rounds; a round is a fixed list of operations,
each an argv for ``rlmdual.cli.main`` that writes into a work directory, plus
the data its check needs.  Inputs come only from the seed.  Checks read the
files an operation wrote and compare them with :mod:`oracle` values or with a
property the method must have; they return a list of error strings.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracle

# The fixed boundary tile of the maps cycle: every T/gamma row lies just below
# 1/(2 pi), so max|g_dual| is unbounded on all four cells.  It does not
# depend on the seed.
BOUNDARY_ARGV = ["divisibility-map", "--eps-range", "1,2.5",
                 "--T-range", "0.1552,0.1582", "--grid", "2,2"]

# Rounds run by a traced pass (a fixed count, so that its counts repeat).
TRACE_ROUNDS = {"dynamics": 12, "maps": 6, "duality": 8}

# Tolerances of the checks (absolute unless stated).
OCC_TOL = 1e-9          # occupations against the closed forms
CURRENT_TOL = 1e-9      # closed-form current against mpmath g_dual, times gamma
FD_TOL = 1e-7           # central-difference current against the closed form, times gamma
MAX_G_TOL = 1e-4        # dense-scan max|g| against |g(pi/|delta|)|
MAX_G_DUAL_RTOL = 1e-5  # same for the convergent dual, relative
FREQ_RTOL = 1e-10       # frequency-grid cells against the digamma form
LAPLACE_RTOL = 1e-9     # digamma form against the direct transform
ONSET_TOL = 1e-3        # bisect_tol = 1e-3/T, in the CLI's units of 1/T
CP_TOL = 1e-9           # markov --cp-tol default
T_MAX = 1e3             # markov --t-max default, in 1/T


class Inputs:
    """Seeded inputs: a generator plus one low-discrepancy point per round.

    The parameters that set an operation's cost come from the additive
    recurrence x_i = frac(x_0 + i * alpha) with alpha from the generalized
    golden ratio (Roberts 2018) and x_0 drawn from the seed, so every run
    covers the parameter box evenly and per-run averages vary little from
    seed to seed.  Points never repeat.  Other draws use the generator.
    """

    DIMS = 16

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        phi = 2.0
        for _ in range(60):   # root of x^(d+1) = x + 1
            phi = (1.0 + phi) ** (1.0 / (self.DIMS + 1))
        self.alpha = (1.0 / phi) ** np.arange(1, self.DIMS + 1) % 1.0
        self.start = self.rng.uniform(size=self.DIMS)

    def point(self, index: int) -> np.ndarray:
        return (self.start + index * self.alpha) % 1.0


def _box(u, lo, hi):
    return lo + (hi - lo) * u


@dataclass
class Op:
    kind: str
    argv: list
    out: str
    items: int
    check: Callable[["Op", int], list]
    data: dict = field(default_factory=dict)
    expect_fail: bool = False


def _f(x: float) -> str:
    return repr(float(x))


def _read_csv(path: str):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _has_nan(path: str) -> bool:
    with open(path) as fh:
        return re.search(r"\bnan\b", fh.read(), re.IGNORECASE) is not None


def _col(header, rows, name):
    i = header.index(name)
    return np.array([float(r[i]) for r in rows])


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def _density_matrix(rng) -> np.ndarray:
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _rho_json(rho: np.ndarray) -> str:
    return json.dumps([[[float(x.real), float(x.imag)] for x in row] for row in rho])


def dynamics_round(src: Inputs, workdir: str, index: int) -> list:
    u, rng = src.point(index), src.rng
    eps, mu = _box(u[0], -1.5, 1.5), _box(u[1], -0.3, 0.3)
    temp, gamma = _box(u[2], 0.1, 0.6), _box(u[3], 0.5, 2.0)
    t_end = 10.0 / gamma
    rho = _density_matrix(rng)
    sample_rows = sorted(int(i) for i in rng.choice(np.arange(1, 100), 2, replace=False))
    out = os.path.join(workdir, f"dyn{index}.csv")
    argv = ["dynamics", f"--eps={_f(eps)}", f"--mu={_f(mu)}", f"--T={_f(temp)}",
            f"--gamma={_f(gamma)}", "--rho0", _rho_json(rho),
            "--times", f"0,{_f(t_end)}", "--out", out]
    data = {"eps": eps, "mu": mu, "temp": temp, "gamma": gamma, "t_end": t_end,
            "parity0": float((rho[0, 0] - rho[1, 1]).real),
            "sample_rows": sample_rows + [100]}
    return [Op("dynamics", argv, out, 101, check_dynamics, data)]


def check_dynamics(op: Op, rc: int) -> list:
    d = op.data
    if rc != 0:
        return [f"exit code {rc}"]
    if _has_nan(op.out):
        return ["NaN in output"]
    header, rows = _read_csv(op.out)
    if len(rows) != 101:
        return [f"{len(rows)} rows, expected 101"]
    t = _col(header, rows, "t")
    errors = []
    if np.abs(t - np.linspace(0.0, d["t_end"], 101)).max() > 1e-12 * d["t_end"]:
        errors.append("time column is not the requested grid")
    delta, temp, gamma, par0 = d["eps"] - d["mu"], d["temp"], d["gamma"], d["parity0"]
    decay = np.exp(-gamma * t)

    def occupation(pval, parity):
        return (1.0 - pval) / 2.0 - decay * (parity - pval) / 2.0

    g_stat = oracle.g_inf(delta, temp, gamma)
    c = oracle.slip_coefficient(delta, temp, gamma)
    for name, expected in (
            ("occ_semigroup", occupation(g_stat, par0)),
            ("occ_slip", np.real(occupation(g_stat, par0 + 2.0 * c)))):
        err = np.abs(_col(header, rows, name) - expected).max()
        if err > OCC_TOL:
            errors.append(f"{name} off the closed form by {err:.3e}")
    fd = _col(header, rows, "current_exact")
    closed = _col(header, rows, "current_closed_form")
    h = 1e-4 / gamma
    # central differences from the second row on, a forward one at t = 0
    fd_err = np.abs(fd - closed) / (gamma * np.maximum(1.0, np.abs(closed)))
    if fd_err[1:].max() > FD_TOL or fd_err[0] > 2.0 * h * gamma:
        errors.append(f"finite-difference current off by {fd_err.max():.3e}")
    occ = _col(header, rows, "occ_exact")
    for i in d["sample_rows"]:
        ti = t[i]
        g_val = oracle.g(ti, delta, temp, gamma)
        g_dual = oracle.g(ti, -delta, temp, -gamma)
        pval = (g_val + math.exp(-gamma * ti) * g_dual) / -math.expm1(-gamma * ti)
        want = (1.0 - pval) / 2.0 - math.exp(-gamma * ti) * (par0 - pval) / 2.0
        if abs(occ[i] - want) > OCC_TOL:
            errors.append(f"occ_exact row {i} off by {abs(occ[i] - want):.3e}")
        cur = 0.5 * gamma * math.exp(-gamma * ti) * (g_dual + par0)
        if abs(closed[i] - cur) > CURRENT_TOL * gamma:
            errors.append(f"current_closed_form row {i} off by {abs(closed[i] - cur):.3e}")
    return errors


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

def _divisibility_op(argv, out, gamma, cells, expect_fail=False) -> Op:
    argv = list(argv) + ["--out", out]
    return Op("boundary" if expect_fail else "divisibility", argv, out, cells,
              check_divisibility, {"gamma": gamma}, expect_fail)


def check_divisibility(op: Op, rc: int) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    if _has_nan(op.out):
        return ["NaN in output"]
    header, rows = _read_csv(op.out)
    if len(rows) != op.items:
        return [f"{len(rows)} cells, expected {op.items}"]
    gamma = op.data["gamma"]
    errors = []
    for row in rows:
        x, y, max_g, max_g_dual = (float(v) for v in row)
        delta, temp = x * gamma, y * gamma
        if delta == 0.0:
            want, want_dual = 0.0, 0.0
        else:
            t_peak = math.pi / abs(delta)
            want = abs(oracle.g(t_peak, delta, temp, gamma))
            want_dual = (math.inf if gamma > 2.0 * math.pi * temp
                         else abs(oracle.g(t_peak, -delta, temp, -gamma)))
        if abs(max_g - want) > MAX_G_TOL:
            errors.append(f"max_g at ({x}, {y}) is {max_g}, mpmath {want}")
        if math.isinf(want_dual) != math.isinf(max_g_dual) or (
                not math.isinf(want_dual)
                and abs(max_g_dual - want_dual) > MAX_G_DUAL_RTOL * max(1.0, want_dual)):
            errors.append(f"max_g_dual at ({x}, {y}) is {max_g_dual}, expected {want_dual}")
    return errors


def _poles(eps, delta, temp, gamma, n_max=60):
    poles = [0.0, -1j * gamma, eps - 0.5j * gamma, -eps - 0.5j * gamma]
    for n in range(n_max + 1):
        im = -0.5 * gamma - math.pi * temp * (2 * n + 1)
        poles += [complex(delta, im), complex(-delta, im)]
    return np.array(poles)


def _frequency_op(u, rng, workdir, index) -> Op:
    eps, mu = _box(u[5], -1.0, 1.0), _box(u[6], -0.3, 0.3)
    temp, gamma = _box(u[7], 0.1, 0.5), _box(u[8], 0.5, 1.5)
    while True:
        re = (rng.uniform(-2.5, -1.5), rng.uniform(1.5, 2.5))
        im = (rng.uniform(-2.5, -1.5), rng.uniform(0.3, 0.8))
        grid = (np.linspace(*re, 12)[None, :] + 1j * np.linspace(*im, 12)[:, None]).ravel()
        poles = _poles(eps, eps - mu, temp, gamma)
        if np.abs(grid[:, None] - poles[None, :]).min() > 1e-4 * gamma:
            break
    out = os.path.join(workdir, f"freq{index}.csv")
    argv = ["frequency-map", f"--eps={_f(eps)}", f"--mu={_f(mu)}", f"--T={_f(temp)}",
            f"--gamma={_f(gamma)}", f"--re-range={_f(re[0])},{_f(re[1])}",
            f"--im-range={_f(im[0])},{_f(im[1])}", "--grid", "12,12",
            "--which", "exact", "--out", out]
    data = {"eps": eps, "mu": mu, "temp": temp, "gamma": gamma}
    return Op("frequency", argv, out, 144, check_frequency, data)


def check_frequency(op: Op, rc: int) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    if _has_nan(op.out):
        return ["NaN in output"]
    header, rows = _read_csv(op.out)
    if len(rows) != op.items:
        return [f"{len(rows)} cells, expected {op.items}"]
    d = op.data
    delta, temp, gamma = d["eps"] - d["mu"], d["temp"], d["gamma"]
    errors = []
    top = None
    for row in rows:
        e = complex(float(row[0]), float(row[1]))
        value = float(row[2])
        kh = oracle.k_hat(e + 0.5j * gamma, delta, temp)
        want = abs(0.5j * (1.0 + kh) / e + 0.5j * (1.0 - kh) / (e + 1j * gamma))
        if abs(value - want) > FREQ_RTOL * want:
            errors.append(f"cell {e} is {value}, mpmath digamma form {want}")
        if top is None or e.imag > top[0].imag:
            top = (e, value)
    # the frequency convention, once per grid: direct transform at an
    # upper-half-plane cell
    e, value = top
    direct = abs(oracle.laplace_vacuum_element(e, delta, temp, gamma))
    if abs(value - direct) > LAPLACE_RTOL * direct:
        errors.append(f"cell {e} is {value}, direct Laplace transform {direct}")
    return errors


def _markov_op(u, workdir, index) -> Op:
    temp = _box(u[9], 0.5, 2.0)
    det = (_box(u[10], 0.02, 0.3), _box(u[11], 2.0, 5.0))
    gam = (_box(u[12], 1.0, 4.0), _box(u[13], 8.0, 15.0))
    out = os.path.join(workdir, f"markov{index}.csv")
    argv = ["markov", f"--T={_f(temp)}", f"--eps-range={_f(det[0])},{_f(det[1])}",
            f"--gamma-over-T-range={_f(gam[0])},{_f(gam[1])}", "--grid", "2,2",
            "--out", out]
    return Op("markov", argv, out, 4, check_markov, {"temp": temp})


def check_markov(op: Op, rc: int) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    bd_path = op.out[:-len(".csv")] + "_breakdown.csv"
    if _has_nan(op.out) or _has_nan(bd_path):
        return ["NaN in output"]
    temp = op.data["temp"]
    header, rows = _read_csv(op.out)
    if len(rows) != op.items:
        return [f"{len(rows)} cells, expected {op.items}"]
    errors = []
    for det, g_over_t, cell in rows:
        delta, gamma = float(det) * temp, float(g_over_t) * temp
        want = oracle.cp_onset(delta, delta, temp, gamma, T_MAX / temp, CP_TOL)
        if isinstance(want, str) or cell in ("always", "never"):
            if cell != want:
                errors.append(f"onset at ({det}, {g_over_t}) is {cell}, expected {want}")
        elif abs(float(cell) - want * temp) > ONSET_TOL * (1.0 + 1e-6):
            errors.append(f"onset at ({det}, {g_over_t}) is {cell}, brentq root {want * temp}")
    _, peaks = _read_csv(bd_path)
    for det, _, g_over_t in peaks:
        delta, gamma = float(det) * temp, float(g_over_t) * temp
        h = 1e-5 * min(abs(delta), temp)
        size = lambda gm: abs(oracle.k_hat(-0.5j * gm, delta, temp))
        top = size(gamma)
        if not (top >= size(gamma - h) and top >= size(gamma + h)):
            errors.append(f"breakdown coupling {g_over_t} at detuning {det} "
                          "is not a local maximum of |k_hat(-i gamma/2)|")
    return errors


def maps_round(src: Inputs, workdir: str, index: int) -> list:
    u, rng = src.point(index), src.rng
    gamma = _box(u[0], 0.5, 2.0)
    x_lo = _box(u[1], 0.2, 1.5)
    x_hi = x_lo + _box(u[2], 0.5, 1.5)
    # three T/gamma rows: the first below 1/(2 pi), where the dual is
    # unbounded, the other two above 0.26, away from the boundary tile's band
    y_lo, y_hi = _box(u[3], 0.03, 0.1), _box(u[4], 0.5, 1.5)
    div = ["divisibility-map", f"--gamma={_f(gamma)}",
           f"--eps-range={_f(x_lo)},{_f(x_hi)}", f"--T-range={_f(y_lo)},{_f(y_hi)}",
           "--grid", "4,3"]
    return [
        _divisibility_op(div, os.path.join(workdir, f"div{index}.csv"), gamma, 12),
        _frequency_op(u, rng, workdir, index),
        _markov_op(u, workdir, index),
        _divisibility_op(BOUNDARY_ARGV, os.path.join(workdir, f"edge{index}.csv"), 1.0, 4,
                         expect_fail=True),
    ]


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

BUILTIN_RELATIONS = {
    "choi_duality", "fixed_point_stationary", "functional_fixed_point",
    "generator_duality", "generator_duality_gflip", "jump_duality",
    "kernel_duality", "kraus_duality", "kraus_sum_rules", "propagator_duality",
    "spectral_cross_kernel_hat", "spectral_cross_propagator"}
TABULATED_RELATIONS = {
    "choi_duality", "generator_duality", "jump_duality", "kernel_duality",
    "kraus_duality", "kraus_sum_rules", "propagator_duality",
    "spectral_cross_propagator"}


def _duality_params(u):
    gamma = _box(u[3], 0.5, 2.0)
    return (_box(u[0], -2.0, 2.0), _box(u[1], -0.5, 0.5), gamma * _box(u[2], 0.25, 1.5), gamma)


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def write_family(path: str, params, times, freqs):
    """Tabulate the closed-form family with mpmath scalars (the --family schema)."""
    eps, mu, temp, gamma = params
    delta = eps - mu
    theta = {"epsilon": eps, "mu": mu, "temperature": temp, "gamma": gamma}
    dual = {"epsilon": -eps, "mu": -mu, "temperature": temp, "gamma": -gamma}
    samples = []
    for t in times:
        g_val = oracle.g(t, delta, temp, gamma)
        g_dual = oracle.g(t, -delta, temp, -gamma)
        # (1 - e^{-G t}) p = g + e^{-G t} g_dual at G = gamma and at G = -gamma
        p_val = (g_val + math.exp(-gamma * t) * g_dual) / -math.expm1(-gamma * t)
        p_dual = (g_dual + math.exp(gamma * t) * g_val) / -math.expm1(gamma * t)
        for th, e, gm, pv, gv in ((theta, eps, gamma, p_val, g_val),
                                  (dual, -eps, -gamma, p_dual, g_dual)):
            samples.append({"kind": "propagator", "arg": t, "theta": th,
                            "matrix": _matrix_json(oracle.propagator(t, e, gm, pv))})
            samples.append({"kind": "generator", "arg": t, "theta": th,
                            "matrix": _matrix_json(oracle.generator(e, gm, gv))})
    for w in freqs:
        wd = 1j * gamma - w.conjugate()
        for th, e, gm, dl, arg in ((theta, eps, gamma, delta, w),
                                   (dual, -eps, -gamma, -delta, wd)):
            kh = oracle.k_hat(arg + 0.5j * gm, dl, temp)
            samples.append({"kind": "kernel_hat", "arg": [arg.real, arg.imag],
                            "theta": th,
                            "matrix": _matrix_json(oracle.generator(e, gm, kh))})
    doc = {"dim": 2, "basis_convention": "column-stacking", "gamma_sum": gamma,
           "parity_diag": [1.0, -1.0], "samples": samples}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def check_duality(op: Op, rc: int) -> list:
    perturbed = op.data["perturbed"]
    want_rc = 1 if perturbed else 0
    errors = [] if rc == want_rc else [f"exit code {rc}, expected {want_rc}"]
    if _has_nan(op.out):
        return errors + ["NaN in output"]
    with open(op.out) as fh:
        reports = json.load(fh)
    ids = {r["relation_id"] for r in reports}
    if ids != op.data["relations"] or len(reports) != op.items:
        errors.append(f"relations {sorted(ids)} in {len(reports)} reports")
    for r in reports:
        if r["pass"] == perturbed or not (perturbed or math.isfinite(r["max_residual"])):
            errors.append(f"{r['relation_id']} pass={r['pass']} "
                          f"(residual {r['max_residual']:.3e}, tolerance {r['tolerance']:.1e})")
    return errors


def duality_round(src: Inputs, workdir: str, index: int) -> list:
    """Two built-in points, plain and perturbed, and one tabulated family.

    Four slow built-in runs to two fast tabulated ones keep the median
    latency inside one group of operations, not in the gap between two.
    """
    u, rng = src.point(index), src.rng
    fam_point = _duality_params(u[8:12])
    gamma = fam_point[3]
    times = sorted(float(t) for t in rng.uniform(0.1, 3.0, 4) / gamma)
    freqs = [complex(x, y) for x, y in zip(rng.uniform(-2.0, 2.0, 3),
                                          rng.uniform(0.2, 2.5, 3))]
    fam_path = os.path.join(workdir, f"family{index}.json")
    write_family(fam_path, fam_point, times, freqs)
    sources = [("builtin", ["--params=" + ",".join(_f(v) for v in _duality_params(u[k:k + 4]))])
               for k in (0, 4)] + [("family", ["--family", fam_path])]
    ops = []
    for kind, source in sources:
        for perturbed in (False, True):
            relations = BUILTIN_RELATIONS if kind == "builtin" else TABULATED_RELATIONS
            if perturbed and kind == "family":
                # the scaled coupling moves the reflected frequencies off the
                # table, so the tabulated suite skips kernel_duality
                relations = relations - {"kernel_duality"}
            out = os.path.join(workdir, f"dual{index}_{len(ops)}.json")
            argv = (["duality-check"] + source
                    + (["--perturb", "gamma=1.01"] if perturbed else []) + ["--out", out])
            ops.append(Op(kind + ("_perturbed" if perturbed else ""), argv, out,
                          len(relations), check_duality,
                          {"perturbed": perturbed, "relations": relations}))
    return ops


ROUNDS = {"dynamics": dynamics_round, "maps": maps_round, "duality": duality_round}
