import math

import numpy as np
import pytest

from infoflow import models
from infoflow.control import (ControlPolicy, bang_bang_policy,
                              linear_gain_policy, make_policy,
                              run_controlled_experiment, zero_policy)
from infoflow.ensemble import (EnsembleConfig, apply_policy, mean_drift,
                               run_filter_ensemble)
from infoflow.errors import CflError, ConfigError, NumericalError
from infoflow.gaussian import kalman_bucy_run
from infoflow.grid import Grid1D, GridDensity, steady_state_grid
from infoflow.metrics import entropy_production_rate

SQRT2 = math.sqrt(2.0)


class TestPolicies:
    def test_zero(self):
        beta, clamped = apply_policy(zero_policy(), 0.0, np.array([1.0, -2.0]))
        assert np.all(beta == 0.0) and clamped == 0

    def test_linear_gain_worked_example(self):
        policy = linear_gain_policy(gain=1.0, bound=10.0)
        beta, _ = apply_policy(policy, 0.0, np.array([0.5]))
        assert beta[0] == pytest.approx(-0.5)

    def test_clamping_counted(self):
        policy = linear_gain_policy(gain=10.0, bound=1.0)
        beta, clamped = apply_policy(policy, 0.0, np.array([0.5, -0.01, 3.0]))
        assert clamped == 2
        assert np.all(np.abs(beta) <= 1.0)

    def test_bang_bang(self):
        policy = bang_bang_policy(threshold=0.5, level=2.0)
        beta, _ = apply_policy(policy, 0.0, np.array([0.2, 0.9, -1.4]))
        np.testing.assert_allclose(beta, [0.0, -2.0, 2.0])

    @pytest.mark.parametrize("name, params", [
        ("linear_gain", dict(gain=math.nan)), ("linear_gain", dict(gain=-math.inf)),
        ("bang_bang", dict(threshold=math.nan, level=1.0)),
        ("bang_bang", dict(threshold=0.5, level=math.inf))])
    def test_non_finite_parameter_refused(self, name, params):
        with pytest.raises(ConfigError, match="finite"):
            make_policy(name, **params)

    def test_replay_purity(self):
        policy = linear_gain_policy(gain=0.7, bound=5.0)
        summaries = np.linspace(-2, 2, 9)
        first, _ = apply_policy(policy, 1.5, summaries)
        second, _ = apply_policy(policy, 1.5, summaries)
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("value, bound", [(math.nan, 5.0), (math.inf, 0.0),
                                              (-math.inf, 0.0), (math.nan, 0.0)])
    def test_non_finite_control_refused(self, value, bound):
        policy = ControlPolicy("odd", lambda t, m: np.where(m > 1.0, value, m),
                               bound=bound)
        with pytest.raises(NumericalError,
                           match=r"policy 'odd' .* trajectory 2 at t=0\.25"):
            apply_policy(policy, 0.25, np.array([0.5, -0.01, 3.0]))

    def test_clamped_infinity_is_legal(self):
        policy = ControlPolicy("odd", lambda t, m: m * math.inf, bound=5.0)
        beta, clamped = apply_policy(policy, 0.0, np.array([0.5, -2.0]))
        np.testing.assert_array_equal(beta, [5.0, -5.0])
        assert clamped == 2

    def test_registry(self):
        with pytest.raises(ConfigError):
            make_policy("fancy")
        with pytest.raises(ConfigError):
            make_policy("linear_gain", wrong=1.0)
        assert make_policy("linear_gain", gain=0.5).bound == 10.0

    @pytest.mark.parametrize("bound", [-5.0, math.nan, math.inf])
    def test_bound_is_finite_and_non_negative(self, bound):
        # a negative bound would run unclamped under a widened CFL budget
        with pytest.raises(ConfigError, match="bound"):
            linear_gain_policy(gain=0.5, bound=bound)


class TestMeanDrift:
    def test_open_loop_exact(self):
        m = models.double_well()
        xs = np.linspace(-2, 2, 11)
        same = np.full(7, 0.3)
        expected = m.drift(xs) + 0.3
        np.testing.assert_array_equal(mean_drift(m, xs, same), expected)

    def test_affine_average(self):
        m = models.lqg(A=[[-1.0]], B=[[SQRT2]], C=[[1.0]])
        xs = np.linspace(-1, 1, 5)
        controls = np.array([0.2, -0.4, 1.0])
        expected = -xs + np.mean(controls)
        np.testing.assert_allclose(mean_drift(m, xs, controls), expected,
                                   atol=1e-12)

    def test_zero_gain_reproduces_uncontrolled(self):
        m = models.double_well()
        xs = np.linspace(-2, 2, 21)
        assert np.array_equal(mean_drift(m, xs, np.zeros(16)), m.drift(xs))


class TestControlledKalman:
    def test_riccati_invariant_under_gain(self):
        model = models.lqg(A=[[-1.0]], B=[[SQRT2]], C=[[1.0]])
        kw = dict(x0_mean=1.0, x0_var=0.25, horizon=1.0, dt=1e-3, seed=4,
                  indices=0)
        a = kalman_bucy_run(model, gain=0.5, **kw)
        b = kalman_bucy_run(model, gain=0.0, **kw)
        assert np.array_equal(a.covs, b.covs)
        assert float(np.max(np.abs(a.means - b.means))) > 1e-2

    @pytest.mark.parametrize("horizon, dt", [(1.0, -1e-3), (0.0104, 1e-3)])
    def test_time_grid_contract(self, horizon, dt):
        # a whole number of dt > 0 steps, as EnsembleConfig requires
        model = models.lqg(A=[[-1.0]], B=[[SQRT2]], C=[[1.0]])
        with pytest.raises(ConfigError):
            kalman_bucy_run(model, x0_mean=0.0, x0_var=0.25, horizon=horizon,
                            dt=dt, seed=0, indices=0, gain=0.5)


@pytest.mark.filterwarnings("ignore:mean-drift estimation")
class TestControlledEnsemble:
    @staticmethod
    def _setup():
        model = models.double_well()
        grid = Grid1D(-2.5, 2.5, 192)
        cfg = EnsembleConfig(dt=1e-3, horizon=0.2, n_trajectories=40, seed=2,
                             sample_stride=40, x0_mean=0.0, x0_var=0.25)
        rho_ss = steady_state_grid(model, grid)
        return model, grid, cfg, rho_ss

    def test_zero_gain_ledger_identical(self):
        model, grid, cfg, rho_ss = self._setup()
        plain, _ = run_controlled_experiment(model, grid, cfg, None,
                                             rho_ss=rho_ss)
        zero, _ = run_controlled_experiment(model, grid, cfg, zero_policy(),
                                            rho_ss=rho_ss)
        for name, vals in plain.ledger.data.items():
            np.testing.assert_array_equal(vals, zero.ledger.data[name],
                                          err_msg=name)

    def test_adaptedness_replay(self):
        model, grid, cfg, rho_ss = self._setup()
        policy = linear_gain_policy(gain=0.5, bound=5.0)
        controlled, run = run_controlled_experiment(model, grid, cfg, policy,
                                                    rho_ss=rho_ss)
        # recomputing controls from the logged posterior summaries
        # reproduces the logged controls exactly
        for s in range(run.n_samples):
            replayed, _ = apply_policy(policy, float(run.times[s]),
                                       run.post_mean[s])
            np.testing.assert_array_equal(replayed, run.controls[s])

    def test_controlled_ledger_extras(self):
        model, grid, cfg, rho_ss = self._setup()
        policy = linear_gain_policy(gain=0.5, bound=5.0)
        controlled, run = run_controlled_experiment(model, grid, cfg, policy,
                                                    rho_ss=rho_ss)
        assert run.controls.shape == (run.n_samples, cfg.n_trajectories)
        assert controlled.ledger.metadata["mwz_control_correction"] is True
        # the prior's drift is the mean drift of the recorded controls
        s = run.n_samples - 1
        v_bar = mean_drift(model, grid.centers, run.controls[s])
        rho = GridDensity(grid, run.prior_fp[s])
        assert controlled.ledger.data["dH_dt"][s] == entropy_production_rate(
            model, rho, v_bar)
        assert v_bar[0] != model.drift(grid.centers)[0]

    def test_unbounded_controls_checked_against_cfl(self):
        # gain 20 on posterior means near 2 asks for |beta| near 40, past
        # the stability limit that an unbounded policy's budget assumed
        model = models.double_well()
        grid = Grid1D(-2.5, 2.5, 256)
        cfg = EnsembleConfig(dt=1e-3, horizon=0.05, n_trajectories=100,
                             seed=20260809, sample_stride=50, x0_mean=2.0,
                             x0_var=0.25)
        policy = linear_gain_policy(gain=20.0, bound=0.0)
        with pytest.raises(CflError, match=r"max\|beta\|"):
            run_filter_ensemble(model, grid, cfg, policy)

    def test_nan_control_stops_the_run_before_stepping(self):
        model, grid, cfg, _ = self._setup()
        policy = ControlPolicy(
            "nan_late", lambda t, m: np.full_like(m, math.nan if t > 0.1 else 0.0),
            bound=5.0)
        with pytest.raises(NumericalError,
                           match=r"policy 'nan_late' .* trajectory 0 at t=0\.101"):
            run_filter_ensemble(model, grid, cfg, policy)

    def test_small_ensemble_warns(self):
        model, grid, cfg, rho_ss = self._setup()
        policy = linear_gain_policy(gain=0.5, bound=5.0)
        with pytest.warns(UserWarning, match="mean-drift"):
            run_filter_ensemble(model, grid, cfg, policy)
