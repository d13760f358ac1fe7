import json
import math

import numpy as np
import pytest

from rlmdual.cli import main


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

    @pytest.mark.parametrize("flag", ["--gamma=-1", "--gamma=0", "--T-range=-1,1",
                                      "--T-range=0.5,-0.1"])
    def test_domain_errors_exit_two(self, flag, capsys):
        # the axes are in units of gamma, and a negative temperature has no meaning
        assert run(["divisibility-map", "--grid", "2,2", flag]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""


class TestFrequencyMap:
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


class TestDualityCheck:
    def test_default_run_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["duality-check", "--params", "0.5,0,0.25,1",
                    "--out", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert len({r["relation_id"] for r in reports}) >= 12
        assert all(r["pass"] for r in reports)

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
    def test_bad_range_exits_two(self, capsys):
        assert run(["dynamics", "--times", "oops"]) == 2

    def test_bad_rho0_exits_two(self):
        assert run(["dynamics", "--rho0", "not json"]) == 2

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

    def test_negative_leading_param_accepted(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["duality-check", "--params", "-0.5,0,0.25,1", "--out", str(a)]) == 0
        assert run(["duality-check", "--params=-0.5,0,0.25,1", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2
