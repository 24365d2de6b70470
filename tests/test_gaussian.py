import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infoflow import gaussian, models
from infoflow.ensemble import EnsembleConfig, run_filter_ensemble
from infoflow.errors import ConfigError, CovarianceError, NonHurwitzError
from infoflow.gaussian import (_rk4_linear_series, _rk4_quadratic_series,
                               _rk4_step, gaussian_relax_series,
                               kalman_bucy_run, kb_identity_scan,
                               kb_info_rates, lyapunov_series,
                               lyapunov_steady, riccati_series)
from infoflow.grid import Grid1D
from infoflow.rng import (CHANNEL_DYNAMICS, CHANNEL_INITIAL,
                          CHANNEL_OBSERVATION, substream)

SQRT2 = math.sqrt(2.0)


class TestLyapunov:
    def test_scalar(self):
        assert lyapunov_steady([[-1.0]], [[2.0]])[0, 0] == pytest.approx(1.0)

    def test_decoupled_diagonal(self):
        vss = lyapunov_steady(np.diag([-1.0, -2.0]), np.eye(2))
        np.testing.assert_allclose(vss, np.diag([0.5, 0.25]), atol=1e-12)

    def test_kronecker_oracle(self):
        # vectorized linear system (I (x) A + A (x) I) vec(V) = -vec(Sigma)
        a = np.array([[-1.0, 1.0], [0.0, -1.0]])
        sigma = np.eye(2)
        lhs = np.kron(np.eye(2), a) + np.kron(a, np.eye(2))
        vec = np.linalg.solve(lhs, -sigma.reshape(-1))
        expected = vec.reshape(2, 2)
        np.testing.assert_allclose(lyapunov_steady(a, sigma), expected,
                                   atol=1e-12)

    def test_non_hurwitz(self):
        with pytest.raises(NonHurwitzError):
            lyapunov_steady([[1.0]], [[1.0]])


def _scalar_ledger(v, mu, v_ss):
    """Closed forms for N(mu, v) against the steady law N(0, V_ss): the
    entropy H, the cross entropy E and KL = F, scalar or elementwise."""
    h = 0.5 * np.log(2.0 * math.pi * math.e * v)
    e = 0.5 * np.log(2.0 * math.pi * v_ss) + 0.5 * (v + mu * mu) / v_ss
    kl = 0.5 * (v / v_ss - 1.0 - np.log(v / v_ss) + mu * mu / v_ss)
    return h, e, kl


class TestPropagation:
    def test_steady_start_stays(self):
        series = gaussian_relax_series(-1.0, 2.0, 1.0, 0.0, 2.0, 1e-3, [2.0])
        assert series["v"][-1] == pytest.approx(1.0, abs=1e-12)

    def test_pure_diffusion(self):
        v = lyapunov_series([[0.0]], [[1.0]], [[0.0]], 1e-3 * np.arange(701))
        assert v[-1, 0, 0] == pytest.approx(0.7, rel=1e-10)

    def test_mean_decay(self):
        series = gaussian_relax_series(-1.0, 2.0, 1.0, 1.0, 1.0, 1e-3, [1.0])
        assert series["mu"][-1] == pytest.approx(math.exp(-1.0), rel=1e-9)

    @pytest.mark.parametrize("t, dt", [
        (5.0, -1e-3), (1.0, 0.0), (1.0, math.nan), (1.0, math.inf),
        (-1.0, 1e-3), (math.nan, 1e-3), (math.inf, 1e-3), (-math.inf, 1e-3)])
    def test_bad_times_are_refused(self, t, dt):
        # a horizon and step that are not a whole number >= 1 of finite
        # steps > 0 are refused before any step
        with pytest.raises(ConfigError):
            gaussian_relax_series(-1.0, 2.0, 1.0, 0.0, t, dt)

    def test_zero_time_is_a_copy(self):
        # the series starts at the initial law, bit for bit
        series = gaussian_relax_series(-1.0, 2.0, 1.5, 0.3, 2e-3, 1e-3, [0.0])
        assert series["times"][0] == 0.0
        assert series["v"][0] == 1.5 and series["mu"][0] == 0.3

    def test_log_det_rate_identity(self):
        # d/dt ln|V| equals tr{2A + V^-1 Sigma} along the covariance flow
        a = np.array([[-1.0, 0.5], [0.0, -2.0]])
        sigma = np.array([[1.0, 0.2], [0.2, 1.0]])
        dt = 1e-4
        times = dt * np.arange(2001)
        vs = lyapunov_series(a, sigma, np.eye(2) * 0.3, times)
        logdets = np.array([np.linalg.slogdet(v)[1] for v in vs])
        fd = (logdets[2:] - logdets[:-2]) / (2.0 * dt)
        for k in (10, 1000, 1990):
            v = vs[k]
            rate = np.trace(2.0 * a + np.linalg.solve(v, sigma))
            assert fd[k - 1] == pytest.approx(rate, rel=1e-6)


def _scalar_lyapunov_recursion(a, s, v0, times):
    # the scalar RK4 recursion lyapunov_series once kept beside its matrix path
    out = np.empty(times.size)
    out[0] = v = v0
    rhs = lambda y: 2 * a * y + s
    for k in range(times.size - 1):
        h = times[k + 1] - times[k]
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * h * k1)
        k3 = rhs(v + 0.5 * h * k2)
        k4 = rhs(v + h * k3)
        out[k + 1] = v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out


@pytest.mark.parametrize("a, s, v0", [(-1.0, 2.0, 0.25), (-0.3, 0.7, 3.1),
                                      (0.4, 1.0, 0.5), (-2.5, 0.0, 1.7)])
@pytest.mark.parametrize("times", [
    1e-3 * np.arange(2001),
    np.cumsum(np.r_[0.0, np.linspace(1e-4, 3e-3, 600)]),
    np.sort(np.random.default_rng(3).uniform(0.0, 2.0, 400))],
    ids=["uniform", "graded", "random"])
def test_lyapunov_series_scalar_is_bitwise(a, s, v0, times):
    out = lyapunov_series([[a]], [[s]], [[v0]], times)
    assert out.shape == (times.size, 1, 1)
    np.testing.assert_array_equal(out[:, 0, 0],
                                  _scalar_lyapunov_recursion(a, s, v0, times))


class TestSurpriseLedger:
    # the relaxation series of a = -1, sigma = 2 (V_ss = 1) against the
    # closed forms of H, E and F = KL = E - H
    def test_gibbs_equality(self):
        series = gaussian_relax_series(-1.0, 2.0, 1.0, 0.0, 2e-3, 1e-3, [0.0])
        assert series["F"][0] == pytest.approx(0.0, abs=1e-14)
        assert series["dF_dt"][0] == pytest.approx(0.0, abs=1e-14)

    def test_standard_entropy(self):
        series = gaussian_relax_series(-1.0, 2.0, 1.0, 0.0, 2e-3, 1e-3, [0.0])
        assert series["H"][0] == pytest.approx(
            0.5 * math.log(2 * math.pi * math.e), abs=1e-12)

    def test_worked_rates(self):
        # V=2 against V_ss=1 with Sigma=2: F = (1 - ln 2)/2, dF/dt = -1/2
        series = gaussian_relax_series(-1.0, 2.0, 2.0, 0.0, 2e-3, 1e-3, [0.0])
        assert series["F"][0] == pytest.approx(0.5 * (1.0 - math.log(2.0)),
                                               abs=1e-12)
        assert series["dF_dt"][0] == pytest.approx(-0.5, abs=1e-12)
        assert series["F"][0] == pytest.approx(_scalar_ledger(2.0, 0.0, 1.0)[2],
                                               abs=1e-12)

    def test_free_surprise_monotone_along_flow(self):
        times = np.linspace(0.0, 3.0, 16)
        series = gaussian_relax_series(-1.0, 2.0, 0.25, 1.0, 3.0, 1e-3, times)
        last = math.inf
        for k, t in enumerate(times):
            v, mu, f = series["v"][k], series["mu"][k], series["F"][k]
            h, e, _ = _scalar_ledger(v, mu, 1.0)
            assert v == pytest.approx(1.0 - 0.75 * math.exp(-2.0 * t), rel=1e-10)
            assert series["dF_dt"][k] <= 1e-10
            assert f <= last + 1e-12
            assert f == pytest.approx(e - h, abs=1e-10)
            last = f

    @given(v=st.floats(0.05, 5.0), mu=st.floats(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_f_equals_gaussian_kl(self, v, mu):
        series = gaussian_relax_series(-1.0, 2.0, v, mu, 2e-3, 1e-3, [0.0])
        h, e, kl = _scalar_ledger(v, mu, 1.0)
        f = series["F"][0]
        assert f == pytest.approx(kl, abs=1e-10)
        assert f >= -1e-12
        assert f == pytest.approx(e - h, abs=1e-10)
        assert series["H"][0] == pytest.approx(h, abs=1e-12)

    def test_singular_covariance(self):
        # a zero variance has no entropy: refused as a configuration
        with pytest.raises(ConfigError, match="v0 must be finite and positive"):
            gaussian_relax_series(-1.0, 2.0, 0.0, 0.0, 1e-3, 1e-3)


class TestRiccati:
    def test_no_observation_matches_lyapunov(self):
        model = models.lqg(A=[[-1.0]], B=[[SQRT2]], C=[[0.0]])
        times = 1e-3 * np.arange(501)
        ric = riccati_series(model, 0.25, times)
        lya = lyapunov_series([[-1.0]], [[SQRT2 * SQRT2]], [[0.25]], times)
        assert np.array_equal(ric, lya[:, 0, 0])

    def test_scalar_fixed_point(self):
        model = models.lqg(A=[[-1.0]], B=[[SQRT2]], C=[[1.0]])
        times = 1e-3 * np.arange(15001)
        ric = riccati_series(model, 0.25, times)
        assert ric[-1] == pytest.approx(math.sqrt(3.0) - 1.0, abs=1e-9)

    def test_positivity_loss_reported(self):
        model = models.lqg(A=[[-1.0]], B=[[SQRT2]], C=[[1.0]])
        with pytest.raises(CovarianceError):
            riccati_series(model, -0.1, 1e-3 * np.arange(50))

    @pytest.mark.parametrize("name", ["ou", "double_well"])
    def test_non_lqg_model_refused(self, name):
        # the exact lane reads a, sigma and c from the lqg preset alone
        model = models.preset(name)
        with pytest.raises(ConfigError, match="lqg"):
            riccati_series(model, 0.25, 1e-3 * np.arange(5))
        with pytest.raises(ConfigError, match="lqg"):
            kalman_bucy_run(model, 0.0, 0.25, 0.005, 1e-3, seed=0, indices=0)


class TestKalmanBucy:
    def test_no_channel_filter(self):
        model = models.lqg(A=[[-1.0]], B=[[SQRT2]], C=[[0.0]])
        run = kalman_bucy_run(model, 0.5, 0.25, 1.0, 1e-3, seed=3, indices=0)
        # no information channel: mean follows dXhat = A Xhat dt
        expected = 0.5 * np.exp(-run.times)
        np.testing.assert_allclose(run.means[:, 0], expected, rtol=2e-3)

    def test_columns_match_single_runs(self):
        model = models.lqg(A=[[-0.7]], B=[[1.3]], C=[[0.8]])
        kw = dict(x0_mean=0.2, x0_var=0.36, horizon=0.5, dt=1e-3, seed=8,
                  gain=0.5)
        whole = kalman_bucy_run(model, indices=np.arange(6), **kw)
        assert whole.means.shape == whole.states.shape == (501, 6)
        assert whole.covs.shape == (501,)
        for j in (0, 3, 5):
            single = kalman_bucy_run(model, indices=j, **kw)
            np.testing.assert_array_equal(whole.states[:, j], single.states[:, 0])
            np.testing.assert_array_equal(whole.means[:, j], single.means[:, 0])
            np.testing.assert_array_equal(whole.covs, single.covs)

    def test_criterion_5_oracle_is_bitwise(self):
        # criterion 5's oracle: the ensemble's truths, and the inline filter
        # loop criterion 5 once ran on the ensemble's dY
        cfg = EnsembleConfig(dt=2.5e-4, horizon=0.1, n_trajectories=7,
                             seed=12, sample_stride=40, x0_mean=0.3,
                             x0_var=0.5)
        model = models.lqg(A=[[-1.0]], B=[[SQRT2]], C=[[1.0]])
        kb = kalman_bucy_run(model, cfg.x0_mean, cfg.x0_var, cfg.horizon,
                             cfg.dt, cfg.seed, np.arange(cfg.n_trajectories))
        path = models.simulate_joint(
            model, lambda r: cfg.x0_mean + math.sqrt(cfg.x0_var) * r.normal(),
            cfg.horizon, cfg.dt, cfg.seed, np.arange(cfg.n_trajectories))
        np.testing.assert_array_equal(kb.states, path.states)
        run = run_filter_ensemble(model, Grid1D(-6.0, 6.0, 128), cfg)
        sample_steps = (run.times / cfg.dt).round().astype(int)
        np.testing.assert_array_equal(kb.states[sample_steps], run.states)
        vhat = riccati_series(model, cfg.x0_var, path.times)
        xh = np.full(cfg.n_trajectories, cfg.x0_mean)
        dt = cfg.dt
        for k in range(cfg.n_steps):
            np.testing.assert_array_equal(kb.means[k], xh)
            di = path.obs_increments[k] - xh * dt
            xh = xh - xh * dt + vhat[k] * di
        np.testing.assert_array_equal(kb.means[-1], xh)
        np.testing.assert_array_equal(kb.covs, vhat)

    def test_conditioned_covariance_monte_carlo(self):
        # ensemble mean of (X - Xhat)^2 matches the Riccati variance
        a, b, c = -1.0, SQRT2, 1.0
        model = models.lqg(A=[[a]], B=[[b]], C=[[c]])
        n, horizon, dt = 10_000, 1.0, 1e-3
        k_steps = int(round(horizon / dt))
        times = dt * np.arange(k_steps + 1)
        vhat = riccati_series(model, 0.25, times)
        seed = 77
        sq = math.sqrt(dt)
        x = np.empty(n)
        for j in range(n):
            x[j] = substream(seed, j, CHANNEL_INITIAL).normal(0.0, 0.5)
        dw = np.empty((n, k_steps))
        du = np.empty((n, k_steps))
        for j in range(n):
            dw[j] = substream(seed, j, CHANNEL_DYNAMICS).normal(size=k_steps) * sq
            du[j] = substream(seed, j, CHANNEL_OBSERVATION).normal(size=k_steps) * sq
        xh = np.zeros(n)
        for k in range(k_steps):
            dy = c * x * dt + du[:, k]
            di = dy - c * xh * dt
            xh = xh + a * xh * dt + vhat[k] * c * di
            x = x + a * x * dt + b * dw[:, k]
        err_sq = (x - xh) ** 2
        se = float(np.std(err_sq, ddof=1) / math.sqrt(n))
        assert abs(float(np.mean(err_sq)) - vhat[-1]) <= 3.0 * se


class TestInfoRates:
    def test_no_channel(self):
        rates = kb_info_rates([[0.7]], [[0.7]], [[2.0]], [[0.0]])
        assert rates.S_rate == 0.0
        assert rates.D_rate == pytest.approx(0.0, abs=1e-14)

    def test_stationary_point(self):
        target = (math.sqrt(3.0) - 1.0) / 2.0
        rates = kb_info_rates([[1.0]], [[math.sqrt(3.0) - 1.0]], [[2.0]],
                              [[1.0]])
        assert rates.S_rate == pytest.approx(target, abs=1e-12)
        assert rates.D_rate == pytest.approx(target, abs=1e-12)
        assert rates.I_rate == pytest.approx(0.0, abs=1e-12)

    def test_transient_identity_scan(self):
        scan = kb_identity_scan(a=-1.0, sigma_sq=2.0, c=1.0, v0=0.25,
                                vhat0=0.25, horizon=1.0, dt=1e-3)
        assert scan["max_rel_err"] <= 1e-4

    def test_closed_form_consistency(self):
        rates = kb_info_rates([[1.0]], [[0.5]], [[2.0]], [[1.0]])
        assert rates.I_closed == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
        assert rates.I_rate == pytest.approx(rates.S_rate - rates.D_rate)


@pytest.mark.parametrize("horizon, dt", [(0.0104, 1e-3), (1.0, -1e-3)])
def test_scalar_scans_share_the_time_grid_rule(horizon, dt):
    # models.step_count: a whole number of dt > 0 steps, or ConfigError
    with pytest.raises(ConfigError):
        gaussian_relax_series(-1.0, 2.0, 0.5, 0.0, horizon, dt)
    with pytest.raises(ConfigError):
        kb_identity_scan(-1.0, 2.0, 1.0, 0.25, 0.25, horizon, dt)


@pytest.mark.parametrize("name, value", [
    ("a", math.nan), ("a", math.inf), ("sigma_sq", 0.0), ("sigma_sq", -1.0),
    ("v0", 0.0), ("v0", -0.25), ("vhat0", 0.0), ("c", 0.0), ("c", math.nan)])
def test_scalar_scans_refuse_what_they_cannot_compute(name, value):
    # refused before any step, as a configuration error
    kw = dict(a=-1.0, sigma_sq=2.0, c=1.0, v0=0.25, vhat0=0.25, horizon=0.01,
              dt=1e-3)
    kw[name] = value
    with pytest.raises(ConfigError, match=name):
        kb_identity_scan(**kw)
    if name in ("a", "sigma_sq", "v0"):
        relax = dict(a=kw["a"], sigma_sq=kw["sigma_sq"], v0=kw["v0"], mu0=0.5,
                     horizon=0.01, dt=1e-3)
        with pytest.raises(ConfigError, match=name):
            gaussian_relax_series(**relax)


def test_scalar_scans_need_a_stable_drift():
    with pytest.raises(NonHurwitzError):
        gaussian_relax_series(0.0, 2.0, 0.25, 0.5, 0.01, 1e-3)
    with pytest.raises(NonHurwitzError):
        kb_identity_scan(0.5, 2.0, 1.0, 0.25, 0.25, 0.01, 1e-3)


@pytest.mark.parametrize("A, sigma", [([[math.nan]], [[2.0]]),
                                      ([[-1.0]], [[math.inf]])])
def test_lyapunov_steady_refuses_a_non_finite_matrix(A, sigma):
    with pytest.raises(ConfigError, match="finite"):
        lyapunov_steady(A, sigma)


@pytest.mark.parametrize("sigma", [[[-1.0]], [[1.0, 0.5], [0.4, 1.0]],
                                   [[1.0, 2.0], [2.0, 1.0]]],
                         ids=["negative", "asymmetric", "indefinite"])
def test_lyapunov_steady_refuses_a_sigma_that_is_not_psd(sigma):
    a = -np.eye(np.shape(sigma)[0])
    with pytest.raises(ConfigError, match="positive semi-definite"):
        lyapunov_steady(a, sigma)


def test_lyapunov_steady_takes_a_singular_sigma():
    # rank one: an eigenvalue of 0 is semi-definite
    b = np.array([[1.0], [0.5]])
    vss = lyapunov_steady([[-1.0, 0.3], [0.0, -2.0]], b @ b.T)
    assert np.all(np.linalg.eigvalsh(vss) > 0)


@pytest.mark.parametrize("kw", [dict(x0_mean=math.nan), dict(x0_mean=math.inf),
                                dict(x0_var=-1.0), dict(x0_var=0.0),
                                dict(x0_var=math.inf), dict(gain=math.nan),
                                dict(gain=-math.inf)],
                         ids=["mean-nan", "mean-inf", "var-negative", "var-zero",
                              "var-inf", "gain-nan", "gain-inf"])
def test_kalman_bucy_run_refuses_a_bad_law_or_gain(kw, monkeypatch):
    # refused before any draw: the noise is never asked for
    import infoflow.gaussian as gaussian
    drawn = []
    monkeypatch.setattr(gaussian, "draw_increments",
                        lambda *a: drawn.append(a) or gaussian.draw_increments(*a))
    model = models.lqg(A=[[-1.0]], B=[[SQRT2]], C=[[1.0]])
    args = dict(x0_mean=0.0, x0_var=0.25, gain=0.5) | kw
    name = next(iter(kw))
    with pytest.raises(ConfigError, match=name if name != "gain" else "the gain"):
        kalman_bucy_run(model, horizon=0.01, dt=1e-3, seed=0, indices=0, **args)
    assert not drawn


def _joined(chunks, n: int) -> np.ndarray:
    """The samples 0..n of a chunked series, each once."""
    return np.concatenate([chunk[new - lo:] for (lo, new, _), chunk
                           in zip(gaussian._chunk_spans(n), chunks)])


@pytest.mark.parametrize("lin, quad, y0, h, n", [
    (-2.0 * (math.sqrt(3.0) - 1.0) - 2.0, 1.0, 0.25 - (math.sqrt(3.0) - 1.0), 1e-4, 50_000),
    (-0.7, 2.5, 1.3, 1e-3, 2_000), (0.4, -1.5, -0.2, 5e-3, 400)])
def test_quadratic_rk4_series_is_the_stepped_loop(lin, quad, y0, h, n):
    # criterion 2's Riccati deviation: one written-out loop, bit for bit the
    # RK4 steps of dy/dt = lin y - quad y^2
    series = _joined(_rk4_quadratic_series(lin, quad, y0, h, n), n)
    looped = np.empty(n + 1)
    y = looped[0] = y0
    f = lambda v: lin * v - quad * v * v
    for k in range(n):
        y = looped[k + 1] = _rk4_step(f, y, h)
    assert series.shape == (n + 1,)
    assert np.array_equal(series.view(np.uint64), looped.view(np.uint64))


@pytest.mark.parametrize("rate, h, n", [(-2.0, 1e-4, 100_000), (-1.0, 1e-4, 100_000)])
def test_linear_rk4_series_is_the_stepped_loop(rate, h, n):
    # y0 R^k by one running product, against n RK4 steps of dy/dt = rate y
    y0 = -0.75
    series = _joined(_rk4_linear_series(rate, y0, h, n), n)
    looped = np.empty(n + 1)
    y = looped[0] = y0
    f = lambda v: rate * v
    for k in range(n):
        y = looped[k + 1] = _rk4_step(f, y, h)
    assert series.shape == (n + 1,) and series[0] == y0
    assert float(np.max(np.abs(series - looped) / np.abs(looped))) <= 1e-11


def _bits(value):
    """A scan's result as bits: floats by float.hex, arrays by their words."""
    if isinstance(value, dict):
        return {key: _bits(v) for key, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.view(np.uint64).tolist() if value.dtype == float else value.tolist()
    return float(value).hex()


@pytest.mark.parametrize("chunk", [1, 2, 3, 41, 1000])
def test_chunked_series_are_the_one_shot_series(chunk, monkeypatch):
    # 40 steps in chunks of 1, 3 and more: the samples, the centered
    # differences' errors and the ledger rows are bitwise one chunk's
    n, h = 40, 2.5e-2
    one_shot = (_joined(_rk4_linear_series(-1.3, 0.7, h, n), n),
                _joined(_rk4_quadratic_series(-2.1, 0.8, 0.6, h, n), n))
    relax = lambda: gaussian_relax_series(-1.0, 2.0, 0.25, 1.0, n * h, h,
                                          np.linspace(0.0, n * h, 9))
    scan = lambda: kb_identity_scan(-1.0, 2.0, 1.0, 0.25, 0.6, n * h, h)
    ref_relax, ref_scan = _bits(relax()), _bits(scan())
    monkeypatch.setattr(gaussian, "_CHUNK", chunk)
    assert len(list(gaussian._chunk_spans(n))) == -(-(n + 1) // chunk)
    for ref, series in zip(one_shot, (_rk4_linear_series(-1.3, 0.7, h, n),
                                      _rk4_quadratic_series(-2.1, 0.8, 0.6, h, n))):
        assert np.array_equal(_joined(series, n).view(np.uint64), ref.view(np.uint64))
    assert _bits(relax()) == ref_relax
    assert _bits(scan()) == ref_scan


@pytest.mark.parametrize("scan", [
    lambda n: gaussian_relax_series(-1.0, 2.0, 0.25, 1.0, n * 1e-4, 1e-4, [0.0]),
    lambda n: kb_identity_scan(-1.0, 2.0, 1.0, 0.25, 0.25, n * 1e-4, 1e-4)],
    ids=["relax", "kalman_bucy"])
def test_scan_memory_does_not_grow_with_its_samples(scan):
    # 20,000 and 160,000 samples: the traced peak is a few chunks of
    # floats, not a series (160,000 floats are 1.28 MB)
    peaks = []
    for n in (20_000, 160_000):
        tracemalloc.start()
        try:
            scan(n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 4096
    assert peaks[1] <= 16 * 8 * (gaussian._CHUNK + 2)


def test_scans_refuse_a_horizon_of_one_step():
    # the centered difference has no interior sample: refused before any
    # step, not left to an empty reduction
    with pytest.raises(ConfigError, match="at least 2 steps"):
        kb_identity_scan(-1, 2, 1, .25, .25, 1e-3, 1e-3)
    with pytest.raises(ConfigError, match="at least 2 steps"):
        gaussian_relax_series(-1.0, 2.0, 0.25, 1.0, 1e-3, 1e-3)


@pytest.mark.parametrize("at", [[-0.1], [2.1], [math.nan], [0.0, 3.0]])
def test_relax_ledger_refuses_a_time_off_the_horizon(at):
    with pytest.raises(ConfigError, match="ledger times"):
        gaussian_relax_series(-1.0, 2.0, 0.25, 1.0, 2.0, 1e-3, at)


@pytest.mark.parametrize("rate, h", [(-2.0, 1e-4), (-1.0, 1e-4), (-1.0, 1e-3),
                                     (-0.5, 2e-2)])
def test_linear_rk4_factor_is_the_stability_polynomial(rate, h):
    # R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, z = rate h, not exp(z)
    z = Fraction(rate) * Fraction(h)
    poly = float(1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24)
    factor = float(next(_rk4_linear_series(rate, 1.0, h, 1))[1])
    assert abs(factor - poly) <= np.spacing(poly)
