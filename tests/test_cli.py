import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import rlmdual
from rlmdual import cli
from rlmdual.cli import main

from oracles import matrix_to_json


def run(args):
    return main(args)


def read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return header, rows


def _mp_g(mpmath, delta, weight, gamma=1.0):
    """g(pi/|delta|) = int_0^{pi/|delta|} exp(-gamma s/2) weight(s) sin(delta s) ds."""
    return mpmath.quad(lambda s: mpmath.exp(-gamma * s / 2) * weight(s)
                       * mpmath.sin(delta * s), [0, mpmath.pi / abs(delta)])


class TestDynamics:
    def test_columns_and_monotone_time(self, tmp_path):
        out = tmp_path / "dyn.csv"
        assert run(["dynamics", "--times", "0,5", "--points", "21",
                    "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "occ_exact", "occ_semigroup", "occ_slip",
                          "current_exact", "current_closed_form"]
        ts = [float(r[0]) for r in rows]
        assert all(b > a for a, b in zip(ts[:-1], ts[1:]))

    def test_current_columns_agree(self, tmp_path):
        out = tmp_path / "dyn.csv"
        run(["dynamics", "--times", "0.2,4", "--points", "12", "--out", str(out)])
        _, rows = read_csv(out)
        for r in rows:
            assert abs(float(r[4]) - float(r[5])) < 1e-6

    def test_hot_limit_traces_coincide(self, tmp_path):
        out = tmp_path / "dyn.csv"
        run(["dynamics", "--T", "10000", "--times", "0,3", "--points", "7",
             "--out", str(out)])
        _, rows = read_csv(out)
        for r in rows:
            occ = [float(x) for x in r[1:4]]
            assert max(occ) - min(occ) < 1e-6

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["dynamics", "--times", "0,2", "--points", "9"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_current_finite_where_g_dual_overflows(self, capsys):
        # at T << gamma the dual g_dual(t) grows like e^{gamma t/2} and
        # overflows near t = 1420; the current must not depend on it alone
        assert run(["dynamics", "--T", "1e-6", "--eps", "5", "--times", "0,1e4",
                    "--stdout"]) == 0
        assert "nan" not in capsys.readouterr().out

    def test_occupation_finite_where_g_dual_overflows(self, capsys):
        # p's identity takes e^{-gamma t} g_dual(t) as one series; past
        # t = 8e4 (2 pi T t >= 1/2) the product alone was 0 * inf
        assert run(["dynamics", "--T", "1e-6", "--eps", "5", "--times", "0,2e5",
                    "--points", "11", "--stdout"]) == 0
        captured = capsys.readouterr()
        assert "nan" not in captured.out and captured.err == ""

    @pytest.mark.parametrize("flag, value", [("--eps", "1e300"), ("--mu", "1e200")],
                             ids=["eps_1e300", "mu_1e200"])
    def test_detuning_past_any_scale(self, flag, value, tmp_path):
        # a RuntimeWarning is an error here; as |delta| -> inf, g -> sign(delta)
        # and p -> sign(delta) at every t > 0, so the level empties or fills at rate gamma
        out = tmp_path / "dyn.csv"
        assert run(["dynamics", flag, value, "--out", str(out)]) == 0
        assert "nan" not in out.read_text()
        _, rows = read_csv(out)
        for r in rows:
            t = float(r[0])
            limit = 0.0 if flag == "--eps" else -math.expm1(-t)
            assert all(abs(float(x) - limit) <= 1e-12 for x in r[1:4]), r

    def test_huge_temperature_is_the_hot_limit(self, tmp_path):
        # past T ~ 2.6e151 p's rates squared overflowed into nan; the T-dependent part of
        # every column is of order 1/T, below rounding at both temperatures
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["dynamics", "--T", "1e150", "--out", str(a)]) == 0
        assert run(["dynamics", "--T", "1e200", "--out", str(b)]) == 0
        assert "nan" not in b.read_text()
        assert a.read_bytes() == b.read_bytes()

    def test_current_matches_product_form(self, tmp_path):
        from rlmdual.scalars import ModelParams, g_dual_of_t
        out = tmp_path / "dyn.csv"
        assert run(["dynamics", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        th = ModelParams(0.5, 0.0, 0.25, 1.0)
        for r in rows:
            t = float(r[0])
            # gamma e^{-gamma t} (g_dual(t) + <parity>)/2 with <parity> = 1
            assert abs(float(r[5]) - 0.5 * math.exp(-t) * (g_dual_of_t(t, th) + 1.0)) < 1e-12

    def test_json_format(self, tmp_path):
        out = tmp_path / "dyn.json"
        run(["dynamics", "--times", "0,1", "--points", "3", "--format", "json",
             "--out", str(out)])
        recs = json.loads(out.read_text())
        assert len(recs) == 3 and "occ_exact" in recs[0]


class TestDivisibilityMap:
    def test_rows_and_flags(self, tmp_path):
        out = tmp_path / "map.csv"
        assert run(["divisibility-map", "--grid", "3,3", "--eps-range", "0,2",
                    "--T-range", "0.05,0.5", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[:2] == ["eps_minus_mu_over_gamma", "T_over_gamma"]
        assert len(rows) == 9
        # row-major order: x varies fastest
        assert float(rows[0][0]) == 0.0 and float(rows[1][0]) == 1.0
        for r in rows:
            if float(r[0]) == 0.0:
                assert float(r[2]) == 0.0  # resonance column
            if float(r[1]) < 1 / (2 * math.pi) and float(r[0]) > 0:
                assert r[3] == "inf"

    def test_dual_unbounded_just_below_threshold(self, tmp_path):
        # T just under gamma/(2 pi) = 0.15915 gamma: the dual weight still grows
        mpmath = pytest.importorskip("mpmath")
        out = tmp_path / "edge.csv"
        assert run(["divisibility-map", "--eps-range", "1,2.5",
                    "--T-range", "0.1552,0.1582", "--grid", "2,2",
                    "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 4
        for x, y, max_g, max_g_dual in rows:
            delta, temp = float(x), float(y)
            weight = lambda s: 2 * temp / mpmath.sinh(mpmath.pi * temp * s)
            exact = abs(_mp_g(mpmath, delta, weight))
            assert max_g_dual == "inf"
            assert abs(float(max_g) - float(exact)) < 1e-10

    def test_zero_temperature_row(self, tmp_path):
        # the 1e-12 clamp of T = 0 gives the weight's limit 2/(pi s)
        mpmath = pytest.importorskip("mpmath")
        out = tmp_path / "cold.csv"
        assert run(["divisibility-map", "--T-range", "0,0.01", "--grid", "5,3",
                    "--out", str(out)]) == 0
        assert "nan" not in out.read_text()
        _, rows = read_csv(out)
        cold = [r for r in rows if float(r[1]) == 0.0 and float(r[0]) > 0.0]
        assert len(cold) == 4
        for x, _, max_g, max_g_dual in cold:
            exact = _mp_g(mpmath, float(x), lambda s: 2 / (mpmath.pi * s))
            assert abs(float(max_g) - float(exact)) < 1e-12
            assert max_g_dual == "inf"

    @pytest.mark.parametrize("flag", ["--gamma=-1", "--gamma=0", "--gamma=inf",
                                      "--T-range=-1,1", "--T-range=0.5,-0.1",
                                      "--T-range=0,1e308"])
    def test_domain_errors_exit_two(self, flag, capsys):
        # the axes are in units of a finite gamma, and a negative temperature has no
        # meaning; an infinite gamma is rejected before inf * 0 can warn, and a
        # temperature whose series rates 2 pi T (n + 1/2) pass DBL_MAX before they form
        assert run(["divisibility-map", "--grid", "2,2", flag]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("gamma", ["1e-13", "1e-200"])
    def test_gamma_only_sets_the_unit(self, gamma, tmp_path):
        # s -> u/gamma maps g's integral at (x gamma, y gamma, gamma) onto (x, y, 1), so
        # the map does not depend on gamma; the T = 0 row's clamp is relative to gamma
        unit, scaled = tmp_path / "unit.csv", tmp_path / "scaled.csv"
        args = ["divisibility-map", "--grid", "2,2", "--T-range", "0,3"]
        assert run(args + ["--gamma", "1", "--out", str(unit)]) == 0
        assert run(args + ["--gamma", gamma, "--out", str(scaled)]) == 0
        assert scaled.read_bytes() == unit.read_bytes()

    def test_json_writes_unbounded_as_inf(self, tmp_path):
        # strict JSON has no Infinity: an unbounded dual maximum is the text "inf"
        out = tmp_path / "map.json"
        assert run(["divisibility-map", "--grid", "2,2", "--T-range", "0.05,0.5",
                    "--format", "json", "--out", str(out)]) == 0
        recs = json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(c))
        assert [r["max_g_dual"] == "inf" for r in recs] == [False, True, False, False]
        assert all(isinstance(r["max_g"], float) for r in recs)

    def test_blocks_equal_row_by_row(self, tmp_path, monkeypatch):
        # the default grid in blocks of rows (14,641 cells, 4 blocks) and one row per call
        block, row = tmp_path / "block.csv", tmp_path / "row.csv"
        assert run(["divisibility-map", "--out", str(block)]) == 0
        monkeypatch.setattr(cli, "_BLOCK_CELLS", 1)
        assert run(["divisibility-map", "--out", str(row)]) == 0
        assert block.read_bytes() == row.read_bytes()

    def test_subnormal_detuning_is_warning_free(self, tmp_path):
        # pi/|delta| overflows below |delta| = pi/DBL_MAX: the first lobe of g never
        # closes, and the maximum is the limit g_c; a RuntimeWarning fails the run
        from rlmdual.scalars import ModelParams, g_stationary
        out = tmp_path / "map.csv"
        assert run(["divisibility-map", "--eps-range", "1e-320,1e-320", "--grid", "1,2",
                    "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [r[3] == "inf" for r in rows] == [True, False]
        for x, y, max_g, max_g_dual in rows:
            th = ModelParams(float(x), 0.0, float(y), 1.0)
            assert float(max_g) == abs(g_stationary(th)) > 0.0
        assert float(max_g_dual) == abs(g_stationary(th.dual())) > 0.0

    @pytest.mark.parametrize("flag", ["--eps-range=1e10,1e10", "--T-range=1e10,1e10"])
    def test_overflowing_cell_exits_two(self, flag, capsys):
        # x gamma or y gamma past the largest float: one error line, no warning
        assert run(["divisibility-map", "--gamma", "1e300", flag, "--grid", "1,1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: model parameters must be finite, the temperature positive\n"
        assert captured.out == ""


class TestFrequencyMap:
    @pytest.mark.parametrize("which", ["exact", "semigroup-error", "slip-error"])
    def test_blocks_equal_row_by_row(self, which, tmp_path, monkeypatch):
        # the default 81x81 grid in two blocks of rows and one row per call
        block, row = tmp_path / "block.csv", tmp_path / "row.csv"
        assert run(["frequency-map", "--which", which, "--out", str(block)]) == 0
        monkeypatch.setattr(cli, "_BLOCK_CELLS", 1)
        assert run(["frequency-map", "--which", which, "--out", str(row)]) == 0
        assert block.read_bytes() == row.read_bytes()

    def test_pole_maxima_and_far_field(self, tmp_path):
        out = tmp_path / "freq.csv"
        assert run(["frequency-map", "--grid", "41,41", "--re-range=-1.5,1.5",
                    "--im-range=-1.4,0.2", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        vals = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
        # the grid maximum sits near one of the visible poles E = 0, -i gamma
        peak = max(vals, key=vals.get)
        assert min(abs(complex(*peak) - p) for p in (0.0, -1.0j)) < 0.2
        # resolvent decay in the far field
        far = np.mean([v for (re, im), v in vals.items() if abs(re) > 1.2])
        assert far < vals[peak] / 30

    def test_slip_error_far_detuned(self, tmp_path):
        # the stationary eigenvalues 0 and -i gamma stay distinct however large eps is
        out = tmp_path / "slip.csv"
        assert run(["frequency-map", "--eps", "2e9", "--which", "slip-error",
                    "--grid", "2,2", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 4 and all(math.isfinite(float(r[2])) for r in rows)

    def test_slip_error_cancels_parity_pole(self, tmp_path):
        out_1 = tmp_path / "semi.csv"
        out_2 = tmp_path / "slip.csv"
        common = ["frequency-map", "--grid", "21,21", "--re-range=-0.4,0.4",
                  "--im-range=-1.4,-0.6"]
        run(common + ["--which", "semigroup-error", "--out", str(out_1)])
        run(common + ["--which", "slip-error", "--out", str(out_2)])
        _, rows1 = read_csv(out_1)
        _, rows2 = read_csv(out_2)
        near_pole = [i for i, r in enumerate(rows1)
                     if abs(complex(float(r[0]), float(r[1])) + 1.0j) < 0.1]
        m1 = max(float(rows1[i][2]) for i in near_pole)
        m2 = max(float(rows2[i][2]) for i in near_pole)
        assert m1 > 10 * m2


    def test_slip_error_at_parity_pole_against_mpmath(self, tmp_path):
        # the cell E = -i gamma of the default map is nudged to -i gamma + 1e-6
        # gamma; exact and slip-corrected transforms cancel their 1e6-size pole
        # terms there, leaving <0|X(E)|0> with X the difference of
        #   i/2 (1 + k)/E + i/2 (1 - k)/(E + i gamma),       k = k_hat(E + i gamma/2),
        #   i/2 (1 + g)/E + i/2 (1 - g)/(E + i gamma) + i c/(E + i gamma),
        # g = Re k_hat(i gamma/2), c = (k_hat(i gamma/2) - k_hat(-i gamma/2))/2
        mpmath = pytest.importorskip("mpmath")
        out = tmp_path / "slip.csv"
        assert run(["frequency-map", "--which", "slip-error", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        cell = [float(r[2]) for r in rows if float(r[0]) == 0.0 and float(r[1]) == -1.0]
        assert len(cell) == 1
        with mpmath.workdps(40):
            delta, temp, gam = 0.5, 0.25, 1.0

            def kh(w):
                a = [mpmath.digamma(0.5 - 1j * (w + s * delta) / (2 * mpmath.pi * temp))
                     for s in (1, -1)]
                return 1j * (a[0] - a[1]) / mpmath.pi

            e = mpmath.mpc(1e-6 * gam, -gam)
            k, g = kh(e + 0.5j * gam), mpmath.re(kh(0.5j * gam))
            c = (kh(0.5j * gam) - kh(-0.5j * gam)) / 2
            diff = 0.5j * (k - g) / e - 0.5j * (k - g) / (e + 1j * gam) - 1j * c / (e + 1j * gam)
            assert abs(cell[0] - float(abs(diff))) < 1e-9


class TestDualityCheck:
    def test_default_run_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["duality-check", "--params", "0.5,0,0.25,1",
                    "--out", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert len({r["relation_id"] for r in reports}) >= 12
        assert all(r["pass"] for r in reports)

    @pytest.mark.parametrize("params", ["0.5,0,0.25,1.47", "0.5,0,0.25,1.5",
                                        "0.5,0,0.25,1.56", "0.5,0,0.16,-1"])
    def test_near_the_convergence_edge_passes(self, params, tmp_path):
        # just above T = gamma/(2 pi), and its dual point: the stationary
        # kernel integral converges, however slowly
        out = tmp_path / "report.json"
        assert run(["duality-check", f"--params={params}", "--out", str(out)]) == 0
        reports = json.loads(out.read_text())
        assert len(reports) == 12
        assert all(r["pass"] for r in reports)

    def test_huge_temperature_passes(self, tmp_path):
        # p at t = 0.1 < 0.3/gamma takes its far branch, whose rates squared overflowed
        out = tmp_path / "report.json"
        assert run(["duality-check", "--params=0.5,0,1e200,1", "--out", str(out)]) == 0
        reports = json.loads(out.read_text())
        assert len(reports) == 12 and all(r["pass"] for r in reports)

    def test_perturbation_flips_exit_code(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["duality-check", "--params", "0.5,0,0.25,1",
                    "--perturb", "gamma=1.01", "--out", str(out)])
        assert code == 1
        reports = json.loads(out.read_text())
        assert all(not r["pass"] for r in reports)

    def test_family_round_trip_identical(self, tmp_path):
        from rlmdual.verify import family_to_json, rlm_family, run_suite
        from rlmdual.scalars import ModelParams
        fam = rlm_family()
        params = [ModelParams(0.5, 0.0, 0.25, 1.0)]
        times = (0.25, 1.0, 2.0)
        freqs = (0.6j, 1.1 + 0.8j)
        doc = family_to_json(fam, params, times, freqs)
        path = tmp_path / "family.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "external.json"
        assert run(["duality-check", "--family", str(path), "--out", str(out)]) == 0
        external = json.loads(out.read_text())
        ref = run_suite(fam, params, times, freqs)
        ref_by_id = {r.relation_id: r for r in ref}
        for rec in external:
            target = ref_by_id[rec["relation_id"]]
            if rec["relation_id"] == "propagator_duality":
                assert rec["witness"]["time"] == target.witness["time"]
            if rec["relation_id"] == "kraus_duality":
                assert rec["max_residual"] == target.max_residual

    def test_seed_extends_samples(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["duality-check", "--params", "0.5,0,0.25,1",
                    "--seed", "7", "--out", str(out)]) == 0

    @pytest.mark.parametrize("argv, code", [
        (["--params=-0.5,0,0.25,-1"], 0),                          # a dual point
        (["--params=-0.5,0,0.25,-1", "--perturb", "gamma=1.01"], 1),
        (["--params", "0.5,0,0.25,1.45"], 0),       # kernel integral just in range
    ])
    def test_all_relations_reported(self, tmp_path, argv, code):
        out = tmp_path / "r.json"
        assert run(["duality-check", *argv, "--out", str(out)]) == code
        reports = json.loads(out.read_text())
        assert len(reports) == 12
        assert all(r["pass"] == (code == 0) for r in reports)


class TestMarkovCommand:
    def test_grid_and_breakdown(self, tmp_path):
        out = tmp_path / "markov.csv"
        code = run(["markov", "--grid", "2,2", "--eps-range", "0.01,20",
                    "--gamma-over-T-range", "2,4", "--t-max", "50",
                    "--n-max", "0", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["eps_minus_mu_over_T", "gamma_over_T", "cp_onset_times_T"]
        assert len(rows) == 4
        bd = tmp_path / "markov_breakdown.csv"
        header_b, rows_b = read_csv(bd)
        assert header_b == ["eps_minus_mu_over_T", "peak_index", "gamma_over_T"]
        small = [r for r in rows_b if float(r[0]) == 0.01]
        assert small and abs(float(small[0][2]) - 2 * math.pi) < 0.01 * 2 * math.pi


class TestErrors:
    @pytest.mark.parametrize("flag", ["--n-max=-1", "--t-max=0", "--t-max=-5",
                                      "--cp-tol=-1"])
    def test_markov_domain_errors_exit_two(self, flag, capsys):
        # no scan is attempted: no output, no RuntimeWarning, one error line
        assert run(["markov", "--grid", "2,2", flag]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_bad_range_exits_two(self, capsys):
        assert run(["dynamics", "--times", "oops"]) == 2

    @pytest.mark.parametrize("argv", [
        ["frequency-map", "--re-range=-1e308,1e308", "--grid", "3,3"],
        ["divisibility-map", "--eps-range=-1e308,1e308"],
        ["markov", "--eps-range=-1e308,1e308"],
    ], ids=["frequency-map", "divisibility-map", "markov"])
    def test_range_wider_than_double_exits_two(self, argv, tmp_path, capsys):
        # hi - lo overflows: the range is rejected before a grid is spaced on it
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: range '-1e308,1e308' must have finite endpoints "
                                "and a finite width\n")
        assert captured.out == "" and not out.exists()

    def test_bad_rho0_exits_two(self):
        assert run(["dynamics", "--rho0", "not json"]) == 2

    @pytest.mark.parametrize("times, points, message", [
        ("1e13,1e13", "1", "vanishes in rounding at t=10000000000000"),
        ("0,1e308", "3", "vanishes in rounding at t=5.0000000000000001e+307"),
        ("-0.0001,1", "3", "time must be nonnegative"),
    ], ids=["t=1e13", "t_max=1e308", "t_min=-h"])
    def test_bad_time_window_exits_two(self, times, points, message, capsys):
        # where t +- 1e-4/|gamma| rounds to t the central difference would be 0/0, and a
        # negative time is out of domain; the window is rejected before anything is
        # evaluated, so no warning either
        assert run(["dynamics", "--times", times, "--points", points]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err and captured.out == ""

    def test_overflowing_time_exits_two(self, tmp_path):
        # a fresh process, as a user runs it: t = 1e308 is rejected before the
        # propagators are evaluated, so numpy prints no overflow warning either
        src = os.path.dirname(os.path.dirname(rlmdual.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "rlmdual.cli", "duality-check", "--params", "0.5,0,0.25,1",
             "--times", "1e308,1", "--out", str(tmp_path / "report.json")],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "leaves double range at t=1e+308" in proc.stderr

    @pytest.mark.parametrize("argv, message", [
        (["dynamics", "--gamma=-1", "--times", "0,2000", "--points", "3"], "t=1000 "),
        (["dynamics", "--gamma=-5", "--T", "3", "--times", "0,140.5"], "t=140.5 "),
        (["duality-check", "--params", "0.5,0,0.25,1", "--times", "1e308,1"], "t=1e+308 "),
        (["duality-check", "--params=0.5,0,0.16,-1", "--times", "1,800"], "t=800 "),
        (["duality-check", "--params", "0.5,0,0.25,1", "--params", "0.5,0,1,3",
          "--times", "1,300"], "t=300 with gamma=3"),
    ], ids=["dynamics", "dynamics_gamma5", "duality_dual", "duality_primary", "duality_grid"])
    def test_growing_time_rejected_before_evaluation(self, argv, message, capsys):
        # e^{|gamma| t} past e^700 leaves double range; a RuntimeWarning is an error here
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "leaves double range" in captured.err and message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("gamma, temp", [(-1.0, 0.25), (-5.0, 3.0)])
    def test_last_accepted_time_is_finite(self, gamma, temp, tmp_path):
        out = tmp_path / "dyn.csv"
        assert run(["dynamics", f"--gamma={gamma}", "--T", str(temp),
                    "--times", f"0,{700 / abs(gamma)!r}", "--points", "3",
                    "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 3
        assert all(math.isfinite(float(c)) for row in rows for c in row)

    def test_decaying_window_stays_accepted(self, tmp_path):
        out = tmp_path / "dyn.csv"
        assert run(["dynamics", "--times", "0,2000", "--points", "3", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(math.isfinite(float(c)) for row in rows for c in row)

    def test_bad_perturb_exits_two(self):
        assert run(["duality-check", "--perturb", "mu=2"]) == 2

    @pytest.mark.parametrize("params", ["0.5,0,0.1,1", "0.5,0,0.25,0"])
    def test_domain_errors_exit_two(self, params, capsys):
        # below T = gamma/(2 pi) the stationary kernel integral diverges;
        # gamma = 0 leaves the suite's time and frequency units undefined
        assert run(["duality-check", "--params", params]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("params", ["1,2,3", "1,2,3,4,5"])
    def test_wrong_param_count_exits_two(self, params, capsys):
        assert run(["duality-check", "--params", params]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert params in err

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("parity_diag"), "'parity_diag'"),
        (lambda doc: doc.update(parity_diag=[1.0]), "parity_diag has 1 entries"),
        (lambda doc: doc["samples"][0].pop("theta"), "'theta'"),
        (lambda doc: doc["samples"][0].update(matrix=doc["samples"][0]["matrix"][:2]),
         "is not 4x4"),
        (lambda doc: doc["samples"][0].update(matrix=[[1.0]]), "malformed family JSON"),
    ], ids=["no_parity", "short_parity", "no_theta", "short_matrix", "scalar_entries"])
    def test_malformed_family_exits_two(self, edit, message, tmp_path, capsys):
        from rlmdual.verify import family_to_json, rlm_family
        from rlmdual.scalars import ModelParams
        doc = family_to_json(rlm_family(), [ModelParams(0.5, 0.0, 0.25, 1.0)], (1.0,), (0.6j,))
        edit(doc)
        path = tmp_path / "family.json"
        path.write_text(json.dumps(doc))
        assert run(["duality-check", "--family", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("argv, message", [
        (["markov", "--grid", "2,2", "--T", "0"], "--T must be positive"),
        (["markov", "--grid", "2,2", "--gamma-over-T-range=-1,-1"], "gamma must be positive"),
        (["dynamics", "--rho0", "[1,0]"], "--rho0 must be a JSON matrix"),
        (["duality-check", "--params", "1e300,0,0.25,1"],
         "functional_fixed_point residual is NaN"),
        (["duality-check", "--tol", "kraus_duality=nan"], "finite and nonnegative"),
        (["duality-check", "--tol", "kraus_duality=-1"], "finite and nonnegative"),
        (["duality-check", "--tol", "foo=1"], "names no relation: 'foo'"),
        (["duality-check", "--params", "0.5,0,0.25,1e-300"],
         "functional_fixed_point residual is NaN"),
        (["dynamics", "--T", "1e306"], "thermal series"),
        (["duality-check", "--params", "0.5,0,1e306,1"], "thermal series"),
    ], ids=["markov_T0", "markov_gamma_negative", "rho0_vector", "duality_eps_1e300",
            "tol_nan", "tol_negative", "tol_unknown", "gamma_1e-300", "dynamics_T_1e306",
            "duality_T_1e306"])
    def test_input_and_domain_contract(self, argv, message, tmp_path, capsys):
        # a RuntimeWarning is an error here; nothing is written where the run fails
        out = tmp_path / "out.txt"
        assert run(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["frequency-map", "--grid", "3,3"],
                                      ["markov", "--grid", "2,2"]], ids=["frequency", "markov"])
    def test_series_free_commands_take_a_huge_temperature(self, argv, capsys):
        # neither forms the thermal series whose rates leave double range past T = 3.49e305
        assert run(argv + ["--T", "1e306"]) == 0
        captured = capsys.readouterr()
        assert "nan" not in captured.out and captured.err == ""

    def test_family_not_hermiticity_preserving_exits_two(self, tmp_path, capsys):
        from rlmdual.scalars import ModelParams
        th = ModelParams(0.5, 0.0, 0.25, 1.0)
        entries = matrix_to_json(np.diag([1.0, 2.0, 3.0, 1.0]))["entries"]
        samples = [{"kind": "propagator", "arg": 0.5, "matrix": entries,
                    "theta": {"epsilon": p.epsilon, "mu": p.mu,
                              "temperature": p.temperature, "gamma": p.gamma}}
                   for p in (th, th.dual())]
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"dim": 2, "parity_diag": [1.0, -1.0], "samples": samples}))
        out = tmp_path / "report.json"
        assert run(["duality-check", "--family", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "not Hermitian" in captured.err and not out.exists()

    def test_negative_leading_param_accepted(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["duality-check", "--params", "-0.5,0,0.25,1", "--out", str(a)]) == 0
        assert run(["duality-check", "--params=-0.5,0,0.25,1", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2


class TestTables:
    @staticmethod
    def per_value(header, rows):
        """The table one value at a time, each number through f"{x:.17g}"."""
        lines = [",".join(header)]
        lines += [",".join(c if isinstance(c, str) else f"{c:.17g}" for c in row) for row in rows]
        return "\n".join(lines) + "\n"

    def test_one_format_matches_per_value(self):
        cells = [0.0, -0.0, 5e-324, 1e308, math.inf, math.nan, 0.1 + 0.2, 2.0 ** 53, 2 ** 53,
                 -1.5, "inf", "always", "never"]
        rows = [cells[i:i + 3] for i in range(0, 12, 3)] + [[cells[12], 1.0, "50%"]]
        assert cli._csv(["a", "b", "c"], rows) == self.per_value(["a", "b", "c"], rows)
        assert cli._csv(["a", "b", "c"], rows).splitlines()[1:3] == [
            "0,-0,4.9406564584124654e-324", "1e+308,inf,nan"]
        assert cli._csv(["a"], []) == "a\n"

    def test_one_format_matches_per_value_on_random_bits(self):
        bits = np.random.default_rng(5).integers(0, 2 ** 63, 199_998, dtype=np.uint64)
        bits[::2] |= np.uint64(1 << 63)   # both signs
        values = np.concatenate([bits.view(np.float64), [math.inf, -math.inf, math.nan]])
        rows = values.reshape(-1, 3).tolist()
        got = cli._csv(["x", "y", "z"], rows).split("\n")
        want = self.per_value(["x", "y", "z"], rows).split("\n")
        assert len(got) == len(want) == 66_669
        assert next((pair for pair in zip(got, want) if pair[0] != pair[1]), None) is None
