"""Time rlmdual as a user runs it: whole processes, and the tier-1 test run.

Writes ``BENCH_<label>.json`` with the machine's facts (cores, CPU model,
Python, numpy and scipy versions, BLAS thread variables, whether the children
can write bytecode caches: without them every ``import rlmdual.cli`` compiles
the package again, about 10 % of its import time), the wall time of
``import rlmdual.cli`` next to that of numpy plus scipy.special alone, each of
the five subcommands at its default size, and the tier-1 run.  Process times
are the median of 3 runs; every run is kept as well.

    python3 tools/bench_processes.py --label lean_import
    python3 tools/bench_processes.py --label baseline --tree ../parent --revision 1ae6567

``--tree`` is the checkout to measure (its ``src/`` and ``tests/``); the file
is written to the root of the repository holding this script.  Unset BLAS
thread variables are set to 1 for the children: with threaded BLAS a 4x4
``expm`` or eigensolve is hundreds of times slower.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy
import scipy

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

IMPORTS = {
    "import_rlmdual_cli": "import rlmdual.cli",
    "import_numpy_scipy_special": "import numpy, scipy.special",
}
SUBCOMMANDS = {   # default sizes; each writes its table into a scratch directory
    "dynamics": ["dynamics", "--out", "dyn.csv"],
    "divisibility-map": ["divisibility-map", "--out", "map.csv"],
    "frequency-map": ["frequency-map", "--out", "freq.csv"],
    "duality-check": ["duality-check"],
    "markov": ["markov", "--out", "markov.csv"],
}


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _revision(tree: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", tree, "describe", "--always", "--dirty"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip() or None


def _bytecode_caches(env: dict, src: str) -> dict:
    """What decides whether a child process writes ``__pycache__`` next to the package."""
    code = "import sys; print(sys.flags.dont_write_bytecode)"
    flag = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()
    return {"PYTHONDONTWRITEBYTECODE": env.get("PYTHONDONTWRITEBYTECODE"),
            "dont_write_bytecode": flag != "0",
            "package_dir_writable": os.access(os.path.join(src, "rlmdual"), os.W_OK)}


def _timed(argv: list[str], env: dict, cwd: str) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=env, cwd=cwd, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def _median_of(argv: list[str], env: dict, cwd: str) -> dict:
    runs = [_timed(argv, env, cwd) for _ in range(REPEATS)]
    return {"median_s": round(statistics.median(runs), 4), "runs_s": [round(r, 4) for r in runs]}


def measure(tree: str) -> dict:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env.setdefault(var, "1")
    src = os.path.join(tree, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = {
        "machine": {
            "cores": os.cpu_count(),
            "cores_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else None,
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {var: env[var] for var in BLAS_VARS},
            "bytecode_caches": _bytecode_caches(env, src),
        },
        "repeats": REPEATS,
        "process_wall_s": {},
    }
    with tempfile.TemporaryDirectory() as work:
        for name, code in IMPORTS.items():
            result["process_wall_s"][name] = _median_of(
                [sys.executable, "-c", code], env, work)
        for name, args in SUBCOMMANDS.items():
            result["process_wall_s"][name] = _median_of(
                [sys.executable, "-m", "rlmdual.cli", *args], env, work)
    start = time.perf_counter()
    tests = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        env=env, cwd=tree, capture_output=True, text=True)
    summary = tests.stdout.strip().splitlines()[-1] if tests.stdout.strip() else ""
    result["tier1"] = {"wall_s": round(time.perf_counter() - start, 2),
                       "exit_code": tests.returncode, "summary": summary}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="file name: BENCH_<label>.json")
    parser.add_argument("--tree", default=REPO, help="checkout to measure (default: this one)")
    parser.add_argument("--revision", help="revision to record (default: git describe of --tree)")
    args = parser.parse_args(argv)
    tree = os.path.abspath(args.tree)
    bench = {"label": args.label, "revision": args.revision or _revision(tree),
             **measure(tree)}
    path = os.path.join(REPO, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
