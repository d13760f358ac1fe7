"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

A short run of each workload passes its checks; one altered value in an
output is caught by each check; two traced passes give identical counts; the
mpmath double-precision oracle agrees with the 30-digit one; and the benchmark
refuses to run without the sources.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import mpmath  # noqa: E402
import numpy as np  # noqa: E402
import pytest  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _run_rounds(workload, tmp_path, rounds=1, seed=7):
    return run.run_ops(workload, seed, tmp_path, rounds=rounds)


def _rewrite_csv(path, row, column, change):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    col = header.index(column) if isinstance(column, str) else column
    rows[row + 1][col] = change(rows[row + 1][col])
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(",".join(r) for r in rows) + "\n")


def _bump(delta):
    return lambda text: repr(float(text) + delta)


@pytest.mark.parametrize("workload", ["dynamics", "maps", "duality"])
def test_short_run_passes_checks(workload, tmp_path):
    records = _run_rounds(workload, tmp_path)
    ok, failed, problems = run.check_records(records)
    assert problems == []
    # the only failing operation is the fixed boundary tile of the maps cycle
    assert failed == (1 if workload == "maps" else 0)
    assert [r.op.kind for r, good in zip(records, ok) if not good] == \
        (["boundary"] if workload == "maps" else [])


def test_dynamics_check_catches_each_altered_column(tmp_path):
    rec, = _run_rounds("dynamics", tmp_path)
    op, rc = rec.op, rec.rc
    assert op.check(op, rc) == []
    sampled = op.data["sample_rows"][0]
    original = Path(op.out).read_text()
    for column, row in (("occ_exact", sampled), ("occ_semigroup", 40),
                        ("occ_slip", 60), ("current_exact", 30),
                        ("current_closed_form", sampled), ("t", 10)):
        Path(op.out).write_text(original)
        _rewrite_csv(op.out, row, column, _bump(1e-6))
        assert op.check(op, rc), column
    Path(op.out).write_text(original)
    assert op.check(op, 1)


def test_divisibility_check_catches_altered_cells(tmp_path):
    out = str(tmp_path / "div.csv")
    argv = ["divisibility-map", "--eps-range", "0.5,2", "--T-range", "0.05,0.5",
            "--grid", "2,2"]
    op = workloads._divisibility_op(argv, out, 1.0, 4)
    from rlmdual.cli import main
    rc = main(op.argv)
    assert op.check(op, rc) == []
    original = Path(out).read_text()
    assert "inf" in original   # the T = 0.05 row has an unbounded dual
    for row, column, change in ((0, "max_g", _bump(1e-3)),
                                (3, "max_g_dual", _bump(1e-3)),
                                (0, "max_g_dual", lambda _: "1234.5")):
        Path(out).write_text(original)
        _rewrite_csv(out, row, column, change)
        assert op.check(op, rc), (row, column)


def test_boundary_tile_fails_its_check(tmp_path):
    out = str(tmp_path / "edge.csv")
    op = workloads._divisibility_op(workloads.BOUNDARY_ARGV, out, 1.0, 4, expect_fail=True)
    from rlmdual.cli import main
    errors = op.check(op, main(op.argv))
    assert errors and all("max_g_dual" in e for e in errors)


def test_maps_checks_catch_altered_values(tmp_path):
    records = _run_rounds("maps", tmp_path)
    by_kind = {r.op.kind: (r.op, r.rc) for r in records}
    op, rc = by_kind["frequency"]
    _rewrite_csv(op.out, 77, "abs_element", lambda s: repr(float(s) * (1 + 1e-8)))
    assert op.check(op, rc)
    op, rc = by_kind["markov"]
    original = Path(op.out).read_text()
    _rewrite_csv(op.out, 1, "cp_onset_times_T", _bump(1e-2))
    assert op.check(op, rc)
    Path(op.out).write_text(original)
    bd = op.out[:-len(".csv")] + "_breakdown.csv"
    assert len(Path(bd).read_text().splitlines()) > 1
    _rewrite_csv(bd, 0, "gamma_over_T", _bump(1e-3))
    assert op.check(op, rc)


def test_duality_check_catches_altered_report(tmp_path):
    for rec in _run_rounds("duality", tmp_path):
        op, rc = rec.op, rec.rc
        assert op.check(op, rc) == []
        reports = json.loads(Path(op.out).read_text())
        reports[3]["pass"] = not reports[3]["pass"]
        Path(op.out).write_text(json.dumps(reports))
        assert op.check(op, rc), op.kind
        assert op.check(op, 1 - rc), op.kind


def test_traced_passes_repeat_their_counts():
    def counts(workload):
        child = run._python([str(HERE / "run.py"), "--workload", workload, "--seed", "5",
                             "--traced-pass"], timeout=170.0)
        s = json.loads(child.stdout.strip().splitlines()[-1])["summary"]
        return {k: s[k] for k in ("spans", "calls", "layer_calls", "memo_hits",
                                  "memo_requests", "cp_onset_top", "cp_onset_all")}

    for workload in ("dynamics", "maps", "duality"):
        first = counts(workload)
        assert first["spans"] > 0
        assert counts(workload) == first, workload


def test_double_precision_oracle_matches_30_digits():
    mpmath.mp.dps = 30
    try:
        for t, delta, temp, gamma in ((3.0, 0.6, 0.3, 1.3), (7.7, -0.6, 0.3, -1.3),
                                      (2.0, 2.5, 0.1582, 1.0)):
            f = lambda s: (mpmath.exp(-gamma * s / 2) * 2 * temp * mpmath.sin(delta * s)
                           / mpmath.sinh(mpmath.pi * temp * s))
            exact = mpmath.quad(f, mpmath.linspace(0, t, 40))
            assert abs(oracle.g(t, delta, temp, gamma) - float(exact)) < 1e-14 * max(1, abs(exact))
        for w in (0.3 + 0.2j, -1.1 - 0.4j, 0.65j):
            z = [mpmath.mpf(0.5) - 1j * (mpmath.mpc(w) + eta * 0.6) / (2 * mpmath.pi * 0.3)
                 for eta in (1, -1)]
            exact = 1j * (mpmath.digamma(z[0]) - mpmath.digamma(z[1])) / mpmath.pi
            assert abs(oracle.k_hat(w, 0.6, 0.3) - complex(exact)) < 1e-14
    finally:
        mpmath.mp.dps = 15


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "maps",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
