import math
import warnings

import numpy as np
import pytest
import scipy.special as sps
from scipy.integrate import quad

from rlmdual.scalars import (
    ModelParams,
    PoleError,
    digamma_complex,
    g_and_p,
    g_dual_of_t,
    g_of_t,
    g_stationary,
    k_hat,
    k_hat_pole_ladder,
    p_of_t,
    QuadratureError,
    weighted_kernel_grid,
)

from oracles import g_tail, k_of_t

EULER = 0.5772156649015328606

THETAS = [
    ModelParams(0.5, 0.0, 0.25, 1.0),
    ModelParams(1.0, 0.3, 0.5, 1.0),
    ModelParams(2.0, -0.5, 0.3, 1.0),
    ModelParams(-0.7, 0.2, 1.0, 2.0),
    ModelParams(1.5, 0.0, 0.2, 0.7),
]


def double_integral_p(t, th):
    """Oracle: p from its defining double integral (two nested quadratures)."""
    def g(s):
        return quad(lambda u: math.exp(-0.5 * th.gamma * u) * k_of_t(u, th),
                    0.0, s, limit=400)[0]
    outer = quad(lambda s: math.exp(-th.gamma * (t - s)) * g(s), 0.0, t, limit=400)[0]
    return th.gamma * outer / (1.0 - math.exp(-th.gamma * t))


class TestModelParams:
    def test_dual_map_values(self):
        th = ModelParams(1.0, 0.5, 0.3, 2.0)
        d = th.dual()
        assert (d.epsilon, d.mu, d.temperature, d.gamma) == (-1.0, -0.5, 0.3, -2.0)

    def test_dual_involution(self):
        for th in THETAS:
            assert th.dual().dual() == th

    def test_resonant_fixed_point(self):
        th = ModelParams(0.0, 0.0, 1.0, 1.0)
        d = th.dual()
        assert d.epsilon == 0.0 and d.mu == 0.0 and d.gamma == -1.0

    def test_temperature_positive(self):
        with pytest.raises(ValueError):
            ModelParams(0.0, 0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            ModelParams(0.0, 0.0, 0.0, 1.0)


class TestKernelAmplitude:
    def test_small_time_limit(self):
        th = ModelParams(0.8, 0.1, 0.4, 1.0)
        assert k_of_t(0.0, th) == pytest.approx(2.0 * th.detuning / math.pi, rel=1e-14)
        assert k_of_t(1e-9, th) == pytest.approx(2.0 * th.detuning / math.pi, rel=1e-6)

    def test_resonance_vanishes(self):
        th = ModelParams(0.4, 0.4, 0.3, 1.0)
        for t in (0.0, 0.3, 2.0, 11.0):
            assert k_of_t(t, th) == 0.0

    def test_dual_sign_flip(self):
        rng = np.random.default_rng(7)
        for th in THETAS:
            for t in rng.uniform(0.0, 8.0, 6):
                assert k_of_t(t, th.dual()) == pytest.approx(-k_of_t(t, th), abs=1e-14)

    def test_matches_plain_formula(self):
        th = ModelParams(1.3, 0.0, 0.7, 1.0)
        for t in (0.05, 0.7, 3.0):
            ref = 2 * th.temperature * math.sin(th.detuning * t) \
                / math.sinh(math.pi * th.temperature * t)
            assert k_of_t(t, th) == pytest.approx(ref, rel=1e-14)

    def test_grid_agrees_with_scalar(self):
        th = ModelParams(0.9, 0.0, 0.33, 1.2)
        ts = np.linspace(0.0, 10.0, 57)
        grid = weighted_kernel_grid(ts, th, -0.5 * th.gamma)
        ref = [math.exp(-0.5 * th.gamma * t) * k_of_t(t, th) for t in ts]
        assert np.abs(grid - ref).max() < 1e-14

    def test_large_argument_no_overflow(self):
        th = ModelParams(0.5, 0.0, 1.0, 1.0)
        assert k_of_t(500.0, th) == pytest.approx(0.0, abs=1e-300)


class TestG:
    def test_zero_time(self):
        assert g_of_t(0.0, THETAS[0]) == 0.0

    def test_resonance(self):
        th = ModelParams(0.6, 0.6, 0.3, 1.0)
        assert g_of_t(2.0, th) == 0.0

    def test_quadrature_against_scipy(self):
        for th in THETAS[:3]:
            for t in (0.4, 1.7, 6.0):
                ref = quad(lambda s: math.exp(-0.5 * th.gamma * s) * k_of_t(s, th),
                           0.0, t, limit=500)[0]
                assert g_of_t(t, th) == pytest.approx(ref, abs=1e-9)

    def test_stationary_matches_digamma_form(self):
        # g(inf) equals the continued kernel transform at i*gamma/2, which has
        # the explicit digamma expression
        for th in THETAS:
            expected = (2.0 / math.pi) * complex(sps.digamma(
                0.5 + (0.5 * th.gamma + 1j * th.detuning)
                / (2.0 * math.pi * th.temperature))).imag
            assert g_stationary(th) == pytest.approx(expected, abs=1e-7)

    def test_dual_identity(self):
        # g_dual(t) = exp(gamma t) [ -g(t) + (1 - exp(-gamma t)) p(t) ]
        rng = np.random.default_rng(3)
        for th in THETAS:
            for t in rng.uniform(0.2, 5.0, 4):
                lhs = g_dual_of_t(t, th)
                rhs = math.exp(th.gamma * t) * (
                    -g_of_t(t, th)
                    + (1.0 - math.exp(-th.gamma * t)) * p_of_t(t, th))
                assert lhs == pytest.approx(rhs, abs=1e-8 * max(1.0, abs(lhs)))


class TestP:
    def test_initial_value(self):
        th = ModelParams(0.9, 0.0, 0.4, 1.0)
        assert p_of_t(0.0, th) == 0.0
        assert abs(p_of_t(1e-8, th)) < 1e-7

    def test_dual_sign_flip(self):
        rng = np.random.default_rng(11)
        for th in THETAS:
            for t in rng.uniform(0.1, 6.0, 4):
                assert p_of_t(t, th.dual()) == pytest.approx(-p_of_t(t, th), abs=1e-8)

    def test_identity_against_double_integral(self):
        rng = np.random.default_rng(5)
        for th in THETAS[:3]:
            for t in rng.uniform(0.3, 4.0, 2):
                assert p_of_t(t, th) == pytest.approx(double_integral_p(t, th), abs=1e-8)

    def test_bounded_for_physical_parameters(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            th = ModelParams(rng.uniform(-3, 3), rng.uniform(-1, 1),
                             rng.uniform(0.05, 2.0), rng.uniform(0.2, 3.0))
            for t in np.linspace(0.05, 20.0, 50):
                assert abs(p_of_t(t, th)) <= 1.0 + 1e-9

    def test_high_temperature_limit(self):
        base = ModelParams(0.5, 0.0, 1.0, 1.0)
        th = ModelParams(0.5, 0.0, 1e4 * max(abs(base.detuning), base.gamma), 1.0)
        for t in (0.5, 2.0, 8.0):
            assert abs(g_of_t(t, th)) < 1e-3
            assert abs(p_of_t(t, th)) < 1e-3


# both signs of gamma, on both sides of |gamma| = 2 pi T
ORACLE_THETAS = [
    ModelParams(0.5, 0.0, 0.25, 1.0),      # gamma = 0.64 * 2 pi T
    ModelParams(-1.3, 0.2, 0.7, -0.4),     # gamma < 0, |gamma| < 2 pi T
    ModelParams(2.0, 0.0, 0.1, 1.5),       # gamma = 2.4 * 2 pi T
    ModelParams(1.1, -0.3, 0.2, -2.5),     # gamma < 0, |gamma| = 2.0 * 2 pi T
]


def oracle_times(temp):
    """1e-3/T to 8/T, with points on both sides of 2 pi T t = 1/2."""
    x = 2.0 * math.pi * temp
    return np.array([1e-3 / temp, 0.45 / x, 0.55 / x, 2.0 / temp, 8.0 / temp])


def mp_g(mpmath, t, th, pieces=None):
    """g(t) = int_0^t exp(-gamma s/2) 2T sin(delta s)/sinh(pi T s) ds by mpmath quadrature."""
    d, temp, gam = th.detuning, th.temperature, th.gamma
    f = lambda s: mpmath.exp(-gam * s / 2) * 2 * temp * mpmath.sin(d * s) \
        / mpmath.sinh(mpmath.pi * temp * s)
    pieces = pieces or int(abs(d) * t / (2 * math.pi) + abs(gam) * t / 16) + 2
    return mpmath.quad(f, mpmath.linspace(0, t, pieces))


@pytest.fixture
def gs_args(monkeypatch):
    """Sizes of the argument arrays that scalars._gs is called with."""
    import rlmdual.scalars as scalars
    args = []
    gs = scalars._gs
    monkeypatch.setattr(scalars, "_gs", lambda w: args.append(np.size(w)) or gs(w))
    return args


class TestClosedFormAgainstMpmath:
    def test_g_g_dual_p(self):
        mpmath = pytest.importorskip("mpmath")
        for th in ORACLE_THETAS:
            ts = oracle_times(th.temperature)
            g, gd, p = g_of_t(ts, th), g_dual_of_t(ts, th), p_of_t(ts, th)
            for i, t in enumerate(ts):
                with mpmath.workdps(20):
                    rg, rd = mp_g(mpmath, t, th), mp_g(mpmath, t, th.dual())
                    decay = mpmath.exp(-th.gamma * t)
                    rp = (rg + decay * rd) / (1 - decay)  # the exact identity
                for val, ref in ((g[i], rg), (gd[i], rd), (p[i], rp)):
                    assert abs(val - float(ref)) <= 1e-12 * abs(float(ref)), (th, t)

    def test_tail_is_the_long_time_rest(self):
        # g(t) - g_inf = -int_t^inf exp(-gamma s/2) k(s) ds, resolved far below g_inf
        mpmath = pytest.importorskip("mpmath")
        for th in ORACLE_THETAS[:3]:
            d, temp, gam = th.detuning, th.temperature, th.gamma
            rate = math.pi * temp + gam / 2
            f = lambda s: mpmath.exp(-gam * s / 2) * 2 * temp * mpmath.sin(d * s) \
                / mpmath.sinh(mpmath.pi * temp * s)
            span = 60.0 / rate  # the integrand falls by e^-60 over it
            nodes = mpmath.linspace(0, span, int(abs(d) * span / math.pi) + 2)
            for t in (1.0 / temp, 8.0 / temp):
                # scaled to order one: mpmath's error target is absolute
                with mpmath.workdps(20):
                    scale = mpmath.exp(rate * t)
                    ref = -mpmath.quad(lambda u: f(t + u) * scale, nodes + [mpmath.inf]) / scale
                assert abs(g_tail(t, th) - float(ref)) <= 1e-12 * abs(float(ref))

    def test_long_window_at_low_temperature(self, gs_args):
        # every time lies below 2 pi T t = 1/2, so all of them take the short-time series
        mpmath = pytest.importorskip("mpmath")
        th = ModelParams(1.0, 0.0, 1e-4, 0.05)
        ts = np.linspace(0.0, 300.0, 101)
        p = p_of_t(ts, th)
        # g, g_dual and p cost a few series per time, however long the window
        assert sum(gs_args) <= 3 * len(ts)
        for i in (1, 100):   # gamma t = 0.15 and 15
            t = ts[i]
            with mpmath.workdps(20):
                rg, rd = mp_g(mpmath, t, th), mp_g(mpmath, t, th.dual())
                decay = mpmath.exp(-th.gamma * t)
                rp = float((rg + decay * rd) / (1 - decay))
            assert abs(p[i] - rp) <= 1e-12 * abs(rp), t
            assert abs(g_of_t(t, th) - float(rg)) <= 1e-12 * abs(float(rg)), t

    @pytest.mark.parametrize("th, ts", [
        *[(th, [0.499 / (2.0 * math.pi * th.temperature)]) for th in ORACLE_THETAS],
        # deep in the short-time regime, on both sides of |gamma t| = 0.3
        (ModelParams(0.7, 0.0, 1e-8, 0.5), [0.4, 3.0, 30.0]),
        (ModelParams(0.7, 0.0, 1e-8, -0.5), [0.4, 3.0, 30.0]),
        # e^{|gamma| t} past double range: the identity must not form it
        (ModelParams(0.5, 0.0, 1e-5, -1.0), [720.0, 1000.0]),
    ], ids=["edge0", "edge1", "edge2", "edge3", "lowT_pos", "lowT_neg", "gamma_t_1000"])
    def test_short_time_series(self, th, ts):
        mpmath = pytest.importorskip("mpmath")
        ts = np.array(ts)
        g, gd, p = g_of_t(ts, th), g_dual_of_t(ts, th), p_of_t(ts, th)
        for i, t in enumerate(ts):
            with mpmath.workdps(20):   # eight adaptive pieces hold 1e-16 up to e^500
                rg, rd = mp_g(mpmath, t, th, 8), mp_g(mpmath, t, th.dual(), 8)
                decay = mpmath.exp(-th.gamma * t)
                rp = (rg + decay * rd) / (1 - decay)
            for val, ref in ((g[i], rg), (gd[i], rd), (p[i], rp)):
                assert abs(val - float(ref)) <= 1e-12 * abs(float(ref)), (th, t)

    @pytest.mark.parametrize("th, t", [
        # both sides of |gamma t| = 0.3 past 2 pi T t = 1/2, for both signs of gamma
        *[pytest.param(ModelParams(0.7, 0.0, 1.0, g), (0.3 + d) / abs(g), id=f"gt_0.3{d:+g}_g{g:+g}")
          for g in (0.5, -0.5) for d in (-1e-9, 1e-9)],
        # both sides of 2 pi T t = 1/2 at |gamma t| >= 0.3
        *[pytest.param(ModelParams(0.5, 0.0, 0.25, g), (0.5 + d) / (0.5 * math.pi),
                       id=f"2piTt_0.5{d:+g}_g{g:+g}") for g in (1.0, -1.0) for d in (-1e-9, 1e-9)],
        # gamma t around the short-time drop at 80 and at 700, past and below 2 pi T t = 1/2
        *[pytest.param(ModelParams(0.5, 0.0, temp, g), gt / abs(g), id=f"gt_{gt:g}_g{g:+g}_T{temp:g}")
          for temp in (2.0, 1e-3) for g in (10.0, -10.0) for gt in (79.9, 80.1, 700.0)],
        # gamma < -2 pi T: Re b_0 < 0, so g's exponentials grow
        pytest.param(ModelParams(0.5, 0.0, 0.5, -5.0), 2.0, id="re_b0_negative"),
    ])
    def test_p_from_g_exponentials(self, th, t):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(20):
            rg, rd = mp_g(mpmath, t, th, 8), mp_g(mpmath, t, th.dual(), 8)
            decay = mpmath.exp(-th.gamma * t)
            rp = float((rg + decay * rd) / (1 - decay))
        assert abs(p_of_t(t, th) - rp) <= 1e-12 * abs(rp)

    def test_divisibility_max_at_low_temperature(self, gs_args):
        # g(pi/delta) with gamma t = 3e6 and T = 1e-12: one series, not 1.5 s of panels
        mpmath = pytest.importorskip("mpmath")
        from rlmdual.model import divisibility_max
        th = ModelParams(1e-6, 0.0, 1e-12, 1.0)
        val = divisibility_max("g", th.detuning, th.temperature, th.gamma)
        assert sum(gs_args) == 1
        d, temp = th.detuning, th.temperature
        with mpmath.workdps(20):
            f = lambda s: mpmath.exp(-s / 2) * 2 * temp * mpmath.sin(d * s) \
                / mpmath.sinh(mpmath.pi * temp * s)
            ref = float(mpmath.quad(f, [0, 2, 8, 32, 128, mpmath.pi / d]))
        assert abs(val - ref) <= 1e-12 * ref

    def test_large_detuning_costs_no_more(self, gs_args):
        # the work of g, g_dual and p at 2 pi T t < 1/2 does not grow with t |delta|
        mpmath = pytest.importorskip("mpmath")
        for eps in (2e7, 2e3):
            th = ModelParams(eps, 0.0, 0.25, 1.0)
            gs_args.clear()
            vals = g_of_t(0.3, th), g_dual_of_t(0.3, th), p_of_t(0.3, th)
            assert sum(gs_args) == 4   # g, g_dual, and g with g_dual inside p
        with mpmath.workdps(20):   # at delta = 2e3, which mpmath still integrates
            rg, rd = mp_g(mpmath, 0.3, th), mp_g(mpmath, 0.3, th.dual())
            decay = mpmath.exp(-th.gamma * 0.3)
            rp = (rg + decay * rd) / (1 - decay)
        for val, ref in zip(vals, (rg, rd, rp)):
            assert abs(val - float(ref)) <= 1e-12 * abs(float(ref))

    def test_p_at_small_coupling(self):
        # |gamma t| << 1 in the closed-form regime, where the identity cancels
        # log10(1/|gamma t|) digits, and on both sides of the switch at 0.3
        mpmath = pytest.importorskip("mpmath")
        for gam, t in ((1e-4, 0.2), (1e-4, 1.0), (1e-3, 0.2), (0.29, 1.0), (0.31, 1.0),
                       (4.0, 0.08)):
            th = ModelParams(0.7, 0.0, 1.0, gam)
            with mpmath.workdps(30):
                rg, rd = mp_g(mpmath, t, th), mp_g(mpmath, t, th.dual())
                decay = mpmath.exp(-gam * t)
                rp = float((rg + decay * rd) / (1 - decay))
            assert abs(p_of_t(t, th) - rp) <= 1e-12 * abs(rp), (gam, t)

    def test_p_where_g_dual_overflows(self):
        # gamma > 2 pi T: g_dual(t) grows as e^{(gamma/2 - pi T) t} and overflows
        # past t ~ 1400, while e^{-gamma t} g_dual(t) stays below e^{-gamma t/2}
        mpmath = pytest.importorskip("mpmath")
        th = ModelParams(5.0, 0.0, 1e-6, 1.0)
        d, temp, gam = th.detuning, th.temperature, th.gamma
        ts = np.linspace(0.0, 2e5, 11)[1:]
        p = p_of_t(ts, th)   # a RuntimeWarning fails the run
        # for t >= 2e4 the tail of g, e^{-gamma t} g_dual and e^{-gamma t} g_inf
        # are each below (4 |delta|/(pi gamma)) e^{-gamma t/2}: p(t) = g_inf
        f = lambda s: mpmath.exp(-gam * s / 2) * 2 * temp * mpmath.sin(d * s) \
            / mpmath.sinh(mpmath.pi * temp * s)
        span = 100.0 / (0.5 * gam + math.pi * temp)   # the integrand falls by e^-100
        with mpmath.workdps(20):
            ref = float(mpmath.quad(f, mpmath.linspace(0, span, int(d * span / math.pi) + 2)))
        assert np.isfinite(p).all()
        assert np.abs(p - ref).max() <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("gam", [1.0, -1.0])
    def test_detuning_past_any_scale(self, gam):
        # p's terms E_n (1/b_n) (1/(b_n - gamma)) at |delta| = 1e300 stay warning-free:
        # as one product 1/(b_n (b_n - gamma)) they overflow.  As |delta| -> inf,
        # g and p tend to sign(delta) at every t > 0
        ts = np.array([0.0, 0.1, 0.5, 2.0, 30.0])
        for eps in (1e300, -1e300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                g, p = g_and_p(ts, ModelParams(eps, 0.0, 0.25, gam))
            assert g[0] == p[0] == 0.0
            assert np.abs(g[1:] - math.copysign(1.0, eps)).max() <= 1e-12
            assert np.abs(p[1:] - math.copysign(1.0, eps)).max() <= 1e-12

    def test_array_entries_equal_float_calls(self):
        for th in ORACLE_THETAS + [ModelParams(0.7, 0.0, 0.3, 1e-9)]:
            ts = np.concatenate(([0.0], oracle_times(th.temperature), [20.0]))
            for fn in (g_of_t, g_dual_of_t, p_of_t):
                arr = fn(ts, th)
                single = np.array([fn(float(t), th) for t in ts])
                assert isinstance(fn(float(ts[1]), th), float)
                assert np.abs(arr - single).max() <= 1e-15

    def test_gs_value_does_not_depend_on_the_call(self):
        # each argument is a one-row product of its own, so Gs(n, w) has the
        # same bits whichever arguments share the call, on both branches
        import rlmdual.scalars as scalars
        rng = np.random.default_rng(11)
        w = 10.0 ** rng.uniform(-1.0, 1.5, 300) * np.exp(1j * rng.uniform(-np.pi, np.pi, 300))
        assert (np.abs(w) <= 4.0).sum() > 80 and (np.abs(w) > 4.0).sum() > 80
        whole = scalars._gs(w)
        assert np.array_equal(whole, np.concatenate([scalars._gs(w[i:i + 1]) for i in range(300)]))
        assert np.array_equal(whole, np.concatenate([scalars._gs(c) for c in np.array_split(w, 7)]))

    def test_stationary_limit_needs_net_decay(self):
        with pytest.raises(QuadratureError):
            g_stationary(ModelParams(0.5, 0.0, 0.1, -1.0))
        # the continued constant still anchors g beyond the threshold
        th = ModelParams(0.5, 0.0, 0.1, -1.0)
        assert np.isfinite(g_of_t(np.array([0.5, 3.0]), th)).all()


class TestHugeTemperature:
    # past 2 pi T t >= 1/2 the thermal spike of k is far narrower than every sampled t,
    # so g and p equal the constant g_c = delta/(2T) to rounding; a warning fails the run
    @pytest.mark.parametrize("temp", [1e152, 1e200, 1e305])
    def test_g_and_p_reach_the_stationary_constant(self, temp):
        # p's far branch at |gamma t| < 0.3 (t = 0.1, 0.2) squared its rates, past
        # T = 2.6e151, and took Im of a quotient of order delta/T^2; at T = 1e305 the
        # products t b_n of g's series pass DBL_MAX, where each term is e^{-inf} = 0
        th = ModelParams(0.5, 0.0, temp, 1.0)
        ts = np.array([0.1, 0.2, 1.0, 5.0])
        g, p = g_and_p(ts, th)
        g_c = g_stationary(th)
        assert g_c == pytest.approx(0.25 / temp, rel=1e-12)
        assert np.abs(g - g_c).max() <= 1e-12 * g_c
        assert np.abs(p - g_c).max() <= 1e-12 * g_c
        assert np.array_equal(g_of_t(ts, th), g)

    @pytest.mark.parametrize("fn", [g_of_t, p_of_t])
    def test_rates_past_double_range_are_rejected(self, fn):
        # from 2 pi T 82 > DBL_MAX (T > 3.49e305) the series rates themselves overflow
        with pytest.raises(ValueError, match="thermal series"):
            fn(1.0, ModelParams(0.5, 0.0, 3.5e305, 1.0))


class TestDigamma:
    def test_special_values(self):
        assert digamma_complex(1.0) == pytest.approx(-EULER, rel=1e-13)
        assert digamma_complex(0.5) == pytest.approx(-EULER - 2 * math.log(2.0), rel=1e-13)

    def test_recurrence(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            if abs(z - round(z.real)) < 0.1 and abs(z.imag) < 0.1:
                continue
            lhs = digamma_complex(z + 1.0) - digamma_complex(z)
            assert lhs == pytest.approx(1.0 / z, rel=1e-11, abs=1e-13)

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(4)
        for _ in range(60):
            z = complex(rng.uniform(-20, 20), rng.uniform(-30, 30))
            if min(abs(z - n) for n in range(-25, 1)) < 1e-3:
                continue
            with mpmath.workdps(30):
                ref = complex(mpmath.digamma(mpmath.mpc(z)))
            assert digamma_complex(z) == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_array_equals_scalar_calls(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(-20, 20, (3, 7)) + 1j * rng.uniform(-30, 30, (3, 7))
        vals = digamma_complex(z)
        assert vals.shape == z.shape
        assert all(vals[i] == digamma_complex(complex(z[i])) for i in np.ndindex(z.shape))
        with pytest.raises(PoleError):
            digamma_complex(np.array([0.5 + 1j, -3.0]))

    def test_pole_rejection(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                digamma_complex(z)


class TestKernelTransform:
    def test_array_equals_scalar_calls(self):
        rng = np.random.default_rng(6)
        w = rng.uniform(-3, 3, (4, 5)) + 1j * rng.uniform(-3, 3, (4, 5))
        for th in THETAS:
            vals = k_hat(w, th)
            assert vals.shape == w.shape
            assert all(vals[i] == k_hat(complex(w[i]), th) for i in np.ndindex(w.shape))

    def test_pole_in_array_raises(self):
        th = THETAS[0]
        pole = k_hat_pole_ladder(th, 1)[3]
        with pytest.raises(PoleError):
            k_hat(np.array([0.3j, pole]), th)

    def test_resonance_vanishes(self):
        th = ModelParams(0.3, 0.3, 0.5, 1.0)
        assert abs(k_hat(0.7 + 0.4j, th)) < 1e-14

    def test_slip_frequency_identity(self):
        # k_hat(i gamma/2) = (2/pi) Im psi(1/2 + [gamma/2 + i delta]/(2 pi T))
        for th in THETAS:
            expected = (2.0 / math.pi) * complex(sps.digamma(
                0.5 + (0.5 * th.gamma + 1j * th.detuning)
                / (2.0 * math.pi * th.temperature))).imag
            val = k_hat(0.5j * th.gamma, th)
            assert val.real == pytest.approx(expected, rel=1e-12)
            assert abs(val.imag) < 1e-13

    def test_against_numeric_laplace(self):
        # oracle: direct transform where the integral converges (Im w > -pi T,
        # including a sample strictly below the real axis)
        for th in THETAS[:3]:
            below = -0.4j * math.pi * th.temperature
            for w in (1j * th.gamma, 0.8 + 1j * th.gamma, -1.4 + 2j, 0.6 + below):
                rate = math.pi * th.temperature + np.imag(w)
                horizon = 28.0 / rate
                re = quad(lambda t: (np.exp(1j * w * t) * k_of_t(t, th)).real,
                          0.0, horizon, limit=1600)[0]
                im = quad(lambda t: (np.exp(1j * w * t) * k_of_t(t, th)).imag,
                          0.0, horizon, limit=1600)[0]
                assert k_hat(w, th) == pytest.approx(complex(re, im), abs=1e-8)

    def test_pole_ladder_positions(self):
        th = ModelParams(0.5, 0.0, 0.25, 1.0)
        poles = k_hat_pole_ladder(th, 2)
        expected = []
        for n in range(3):
            im = -math.pi * th.temperature * (2 * n + 1)
            expected += [complex(th.detuning, im), complex(-th.detuning, im)]
        assert np.allclose(poles, expected)
        # pole residue scan: k_hat behaves like a simple pole at each position
        for pole in poles:
            near = abs(k_hat(pole + 1e-6, th))
            far = abs(k_hat(pole + 1e-4, th))
            assert near / far > 50.0

    def test_on_pole_raises(self):
        th = ModelParams(0.5, 0.0, 0.25, 1.0)
        pole = k_hat_pole_ladder(th, 0)[0]
        with pytest.raises(PoleError):
            k_hat(pole, th)
