#!/usr/bin/env python3
"""rlmdual benchmark: three oracle-checked CLI workloads and a per-layer trace.

    python3 perfbench/run.py --workload {dynamics,maps,duality} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from ./src.
Each workload is a closed loop with one client: every operation is an
in-process call of ``rlmdual.cli.main`` with the argv a user would type,
writing into a work directory under perfbench/.  Operations run in whole
rounds until they have used S seconds of CPU time (and at least MIN_OPS
operations expected to succeed have run); reported times are CPU times scaled
by a machine-speed probe (calibrate.py).  Every output is checked
after the timed loop.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced pass with --trace 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
OUT = HERE / "out"

# BLAS/OpenMP threads are pinned before numpy is imported: on the 2-core
# machine this was built on, a 4x4 complex expm took 27.5 us of wall time and
# 49 us of CPU time with threads unpinned, 17.4 us of both pinned.
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_IMPORTS = 7
IMPORTTIME_RUNS = 3
MIN_OPS = 100
WALL_CAP_S = 120.0
LAYERS = ("scalars", "liouville", "model", "verify", "markov", "cli")


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PIN)
    env["PYTHONPATH"] = str(SRC)
    return env


def _python(args: list, timeout: float = 120.0) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=timeout, check=True)


def measure_setup() -> float:
    """Median scaled CPU time to import rlmdual.cli in a fresh interpreter."""
    code = ("import sys, time; t = time.process_time(); import rlmdual.cli; "
            "t = time.process_time() - t; sys.path.insert(0, sys.argv[1]); "
            "from calibrate import probe, PROBE_REF_S; "
            "p = sorted(probe() for _ in range(5))[2]; print(repr(t * PROBE_REF_S / p))")
    _python(["-c", code, str(HERE)])   # writes the bytecode caches once
    return statistics.median(float(_python(["-c", code, str(HERE)]).stdout.split()[-1])
                             for _ in range(SETUP_IMPORTS))


def measure_layer_imports() -> dict:
    """Median import time of each layer module, from ``python -X importtime``.

    A layer's time is its cumulative import time less that of the rlmdual
    modules imported beneath it, so third-party modules count for the layer
    that first imports them (scipy.integrate for scalars).
    """
    _python(["-c", "import rlmdual.cli"])
    samples = {layer: [] for layer in LAYERS}
    for _ in range(IMPORTTIME_RUNS):
        err = _python(["-X", "importtime", "-c", "import rlmdual.cli"]).stderr
        pending: dict[int, list] = {}   # depth -> (name, cumulative) of finished children
        for line in err.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, field = line[len("import time:"):].split("|")
            name = field.strip()
            depth = (len(field) - len(field.lstrip())) // 2
            children = pending.pop(depth + 1, [])
            own = int(cumulative) - sum(c for n, c in children
                                        if n == "rlmdual" or n.startswith("rlmdual."))
            pending.setdefault(depth, []).append((name, int(cumulative)))
            layer = name[len("rlmdual."):] if name.startswith("rlmdual.") else None
            if layer in samples:
                samples[layer].append(own * 1e-6)
    return {layer: statistics.median(v) for layer, v in samples.items()}


@dataclass
class Record:
    op: object
    rc: int | None    # exit code, None when the call raised
    cpu_s: float      # process CPU time of the call
    scaled_s: float   # cpu_s at reference machine speed (calibrate.py)
    log: str          # what the call wrote to stderr


def run_ops(workload: str, seed: int, workdir: Path, seconds: float | None = None,
            rounds: int | None = None) -> list:
    """Run whole rounds of operations, a speed probe between every two."""
    import rlmdual.cli
    import workloads
    from calibrate import PROBE_REF_S, probe

    make_round = workloads.ROUNDS[workload]
    src = workloads.Inputs(seed)
    records = []
    busy = 0.0
    expected_ok = 0
    wall0 = time.perf_counter()
    index = 0
    before = probe()
    while True:
        for op in make_round(src, str(workdir), index):
            log = io.StringIO()
            t0 = time.process_time()
            try:
                with contextlib.redirect_stderr(log):
                    rc = rlmdual.cli.main(op.argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:   # the operation crashed; its check reports it
                rc = None
                log.write(traceback.format_exc())
            dt = time.process_time() - t0
            after = probe()
            records.append(Record(op, rc, dt, dt * 2.0 * PROBE_REF_S / (before + after),
                                  log.getvalue()))
            before = after
            busy += dt
            expected_ok += not op.expect_fail
        index += 1
        if rounds is not None:
            if index >= rounds:
                break
        elif (busy >= seconds and expected_ok >= MIN_OPS) \
                or time.perf_counter() - wall0 > WALL_CAP_S:
            break
    return records


def check_records(records) -> tuple[list, int, list]:
    """Check every output; returns (per-record ok flags, failed count, problems)."""
    ok, failed, problems = [], 0, []
    for r in records:
        if r.rc is None:
            errors = ["raised: " + r.log.strip().splitlines()[-1]]
        else:
            try:
                errors = r.op.check(r.op, r.rc)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errors = [f"unreadable output: {exc!r}"]
        ok.append(not errors)
        if errors:
            if r.op.expect_fail:
                failed += 1
            else:
                problems.append(f"{r.op.kind} {' '.join(r.op.argv)}: {'; '.join(errors[:3])}")
    return ok, failed, problems


def end_to_end(records, ok, setup_s: float, peak_rss_mb: float, field: str = "scaled_s") -> dict:
    times = [getattr(r, field) for r, good in zip(records, ok) if good]
    items = sum(r.op.items for r, good in zip(records, ok) if good)
    busy = sum(getattr(r, field) for r in records)
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "items_per_s": {"value": items / busy, "unit": "1/s"},
        "op_s.p50": {"value": statistics.median(times), "unit": "s"},
        "op_s.p90": {"value": deciles[8], "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(summary: dict, imports: dict, overhead_s: float, untraced_s: float) -> dict:
    calls, self_s, ext = summary["calls"], summary["self_s"], summary["layer_calls"]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.import_s"] = (imports[layer], "s")
        m[f"{layer}.self_s"] = (summary["layer_self_s"][layer], "s")
    for name in ("scalars.g_of_t", "scalars.p_of_t", "scalars.g_stationary",
                 "scalars.k_hat", "scalars.digamma_complex", "model.propagator",
                 "model.divisibility_max", "liouville.is_cp", "markov.cp_onset_time",
                 "markov.stationary_generator"):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in ("scalars.k_hat", "model.propagator", "model.propagator_hat",
                 "model.divisibility_max", "liouville.is_cp", "liouville.canonical_kraus",
                 "liouville.gksl_decompose", "liouville.spectral_decompose",
                 "verify.check_fixed_point_stationary",
                 "verify.check_functional_fixed_point", "verify.run_tabulated_suite",
                 "markov.breakdown_locator"):
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    m["scalars.quad.calls"] = (ext.get("scalars.quad", 0), "count")
    for layer in ("model", "verify", "markov"):
        m[f"{layer}.expm.calls"] = (ext.get(f"{layer}.expm", 0), "count")
    m["model.memo_hit_ratio"] = (
        summary["memo_hits"] / summary["memo_requests"] if summary["memo_requests"] else 0.0,
        "ratio")
    m["markov.cp_onset_time.useful_ratio"] = (
        summary["cp_onset_top"] / summary["cp_onset_all"] if summary["cp_onset_all"] else 0.0,
        "ratio")
    m["trace.spans"] = (summary["spans"], "count")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.overhead_frac"] = (overhead_s / untraced_s, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def traced_pass(workload: str, seed: int, workdir: Path) -> dict:
    """Child process of --trace 1: the traced rounds, their checks and span summary."""
    import rlmdual.cli  # noqa: F401  (all layers loaded before they are wrapped)
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracing.install(tracer)
    records = run_ops(workload, seed, workdir, rounds=workloads.TRACE_ROUNDS[workload])
    tracer.enabled = False
    ok, failed, problems = check_records(records)
    OUT.mkdir(exist_ok=True)
    tracer.save(str(OUT / f"trace-{workload}-seed{seed}.npz"))
    return {"busy_s": sum(r.scaled_s for r in records), "attempted": len(records),
            "failed": failed, "problems": problems, "summary": tracer.summary()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("dynamics", "maps", "duality"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "rlmdual" / "cli.py").is_file():
        print(f"error: no rlmdual sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(PIN)
    sys.path[:0] = [str(SRC), str(HERE)]
    import rlmdual
    if SRC.resolve() not in Path(rlmdual.__file__).resolve().parents:
        print(f"error: rlmdual imported from {rlmdual.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.traced_pass:
            print(json.dumps(traced_pass(args.workload, args.seed, workdir)))
            return 0
        if args.trace:
            return run_traced(args, workdir)
        return run_timed(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _report(correct: bool, attempted: int, failed: int, metrics: dict, problems: list):
    for line in problems[:10]:
        print("CHECK FAILED:", line, file=sys.stderr)
    print(f"{attempted} operations attempted, {failed} failed", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_timed(args, workdir: Path) -> int:
    setup_s = measure_setup()
    records = run_ops(args.workload, args.seed, workdir, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok, failed, problems = check_records(records)
    raw = end_to_end(records, ok, setup_s, peak_rss_mb, field="cpu_s")
    print("unscaled CPU figures: " + ", ".join(
        f"{k} {raw[k]['value']:.6g}" for k in ("items_per_s", "op_s.p50", "op_s.p90")),
        file=sys.stderr)
    _report(not problems, len(records), failed,
            end_to_end(records, ok, setup_s, peak_rss_mb), problems)
    return 0


def run_traced(args, workdir: Path) -> int:
    import workloads

    imports = measure_layer_imports()
    untraced = run_ops(args.workload, args.seed, workdir,
                       rounds=workloads.TRACE_ROUNDS[args.workload])
    _, failed_u, problems_u = check_records(untraced)
    untraced_s = sum(r.scaled_s for r in untraced)
    child = _python([str(HERE / "run.py"), "--workload", args.workload,
                     "--seed", str(args.seed), "--traced-pass"], timeout=170.0)
    traced = json.loads(child.stdout.strip().splitlines()[-1])
    metrics = per_layer(traced["summary"], imports, traced["busy_s"] - untraced_s, untraced_s)
    problems = problems_u + traced["problems"]
    _report(not problems, len(untraced) + traced["attempted"], failed_u + traced["failed"],
            metrics, problems)
    return 0


if __name__ == "__main__":
    sys.exit(main())
