import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_continuous_lyapunov

from infoflow import models
from infoflow.errors import ConfigError, SimulationBlowupError
from infoflow.grid import Grid1D, face_fields
from infoflow.metrics import u_values_on_grid
from infoflow.models import (DiffusionModel, SmoothField, gamma, preset,
                             product_field, sigma_at, simulate_joint, u_field)


def constant_b_model(b_matrix, dim):
    b_matrix = np.asarray(b_matrix, dtype=float)
    sig = b_matrix @ b_matrix.T
    return DiffusionModel(
        dim_state=dim,
        drift=lambda x: np.zeros(dim),
        sigma=lambda x: sig,
        observation_map=lambda x: np.zeros(1),
        domain_box=[[-5.0, 5.0]] * dim)


# (preset, parameters, its sigma, the noise factor B it used to state)
SIGMA_CASES = [
    ("brownian", dict(sigma_sq=1.3), 1.3, math.sqrt(1.3)),
    ("ou", dict(rate=0.7, sigma_sq=2.0), 2.0, math.sqrt(2.0)),
    ("double_well", dict(sigma_sq=0.5), 0.5, math.sqrt(0.5)),
    ("lqg", dict(A=[[-0.5]], B=[[0.9]], C=[[1.0]]), 0.9 * 0.9, 0.9),
    ("lqg", {}, 1.4142135623730951 ** 2, 1.4142135623730951),
]


@pytest.mark.parametrize("name, params, sigma_sq, b", SIGMA_CASES,
                         ids=["brownian", "ou", "double_well", "lqg", "lqg_default"])
class TestOneSigma:
    def test_simulate_joint_is_the_noise_factor_step(self, name, params, sigma_sq, b):
        # x' = x + v dt + B dw with B filled with b, written out
        m = preset(name, **params)
        idx, n_steps, dt = np.arange(6), 30, 0.01
        sampler = lambda r: r.normal(0.0, 0.5, size=1)
        path = simulate_joint(m, sampler, n_steps * dt, dt, seed=17,
                              trajectory_index=idx)
        dw, du, x = models.draw_increments(17, idx, n_steps, dt, sampler)
        states, incs = [x], []
        for k in range(n_steps):
            incs.append(m.observation_map(x) * dt + du[k])
            x = x + m.drift(x) * dt + np.full_like(x, b) * dw[k]
            states.append(x)
        np.testing.assert_array_equal(path.states, np.array(states))
        np.testing.assert_array_equal(path.obs_increments, np.array(incs))

    def test_grid_reads_sigma(self, name, params, sigma_sq, b):
        ff = face_fields(preset(name, **params), Grid1D(-2.0, 2.0, 33))
        np.testing.assert_array_equal(ff.sigma_centers, np.full(33, sigma_sq))


@pytest.mark.parametrize("sigma", [lambda x: np.ones((2, 2)),
                                   lambda x: np.ones(3),
                                   lambda x: np.ones((np.size(x), 1))],
                         ids=["matrix", "too_short", "column"])
def test_sigma_that_does_not_broadcast_is_refused(sigma):
    m = DiffusionModel(1, drift=lambda x: np.zeros_like(x), sigma=sigma,
                       observation_map=lambda x: np.zeros_like(x))
    with pytest.raises(ConfigError, match="does not broadcast"):
        m.sigma_profile(np.linspace(-1.0, 1.0, 5))
    with pytest.raises(ConfigError, match="does not broadcast"):
        face_fields(m, Grid1D(-1.0, 1.0, 16))


class TestSigmaAt:
    def test_scalar_sqrt2(self):
        m = models.ou(rate=1.0, sigma_sq=2.0)
        np.testing.assert_allclose(sigma_at(m, [0.7]), [[2.0]], atol=1e-12)

    def test_matrix_product(self):
        m = constant_b_model([[1.0, 0.0], [1.0, 1.0]], dim=2)
        np.testing.assert_allclose(sigma_at(m, [0.0, 0.0]),
                                   [[1.0, 1.0], [1.0, 2.0]])

    def test_double_well_constant(self):
        m = models.double_well(sigma_sq=0.5)
        for x in (-2.0, 0.0, 1.3):
            assert sigma_at(m, [x])[0, 0] == pytest.approx(0.5, abs=1e-14)


class TestGamma:
    def test_identity_field(self):
        m = models.ou(sigma_sq=2.0)
        f = SmoothField(lambda x: float(x[0]), lambda x: np.ones(1))
        for x in (-1.0, 0.0, 2.5):
            assert gamma(m, f, f, [x]) == pytest.approx(2.0, abs=1e-12)

    def test_quadratic_times_linear(self):
        m = models.brownian(sigma_sq=1.0)
        f = SmoothField(lambda x: float(x[0]) ** 2, lambda x: 2.0 * x)
        g = SmoothField(lambda x: float(x[0]), lambda x: np.ones(1))
        assert gamma(m, f, g, [3.0]) == pytest.approx(6.0, abs=1e-12)

    def test_bi_derivation_worked_example(self):
        m = models.brownian(sigma_sq=1.0)
        f = SmoothField(lambda x: float(x[0]), lambda x: np.ones(1))
        left = gamma(m, f, product_field(f, f), [2.0])
        right = gamma(m, f, f, [2.0]) * 2.0 + 2.0 * gamma(m, f, f, [2.0])
        assert left == pytest.approx(4.0, abs=1e-12)
        assert left == pytest.approx(right, abs=1e-12)

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3), c=st.floats(-3, 3),
           x=st.floats(-2, 2))
    @settings(max_examples=50, deadline=None)
    def test_polarization_and_symmetry(self, a, b, c, x):
        m = models.ou(sigma_sq=2.0)
        f = SmoothField(lambda y: a * float(y[0]) ** 2 + b * float(y[0]),
                        lambda y: 2.0 * a * y + b)
        g = SmoothField(lambda y: c * float(y[0]),
                        lambda y: np.full(1, c))
        plus = SmoothField(lambda y: f.value(y) + g.value(y),
                           lambda y: f.gradient_at(y) + g.gradient_at(y))
        minus = SmoothField(lambda y: f.value(y) - g.value(y),
                            lambda y: f.gradient_at(y) - g.gradient_at(y))
        lhs = 4.0 * gamma(m, f, g, [x])
        rhs = gamma(m, plus, plus, [x]) - gamma(m, minus, minus, [x])
        assert lhs == pytest.approx(rhs, abs=1e-9)
        assert gamma(m, f, g, [x]) == pytest.approx(gamma(m, g, f, [x]),
                                                    abs=1e-12)
        assert gamma(m, f, f, [x]) >= -1e-12


class TestUField:
    def test_constant_sigma_is_drift(self):
        m = models.ou(rate=1.0, sigma_sq=2.0)
        assert u_field(m, [0.5])[0] == pytest.approx(-0.5, abs=1e-12)

    def test_quadratic_sigma(self):
        # v = 0, sigma(x) = x^2  ->  u = -x
        m = DiffusionModel(
            1,
            drift=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            sigma=lambda x: np.asarray(x, dtype=float) ** 2,
            observation_map=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            domain_box=[[-5.0, 5.0]])
        assert u_field(m, [2.0])[0] == pytest.approx(-2.0, rel=1e-8)

    def test_preset_u_is_drift_exactly(self):
        # a constant sigma's differences are exactly 0, on the grid as well
        grid = Grid1D(-2.5, 2.5, 256)
        for name, params, _, _ in SIGMA_CASES:
            m = preset(name, **params)
            for x in (-1.7, 0.0, 1.2):
                np.testing.assert_array_equal(u_field(m, [x]),
                                              m.drift(np.array([x])))
            np.testing.assert_array_equal(u_values_on_grid(m, grid),
                                          m.drift(grid.centers))


class TestSimulateJoint:
    def test_degenerate_dynamics(self):
        m = DiffusionModel(
            1,
            drift=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            sigma=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            observation_map=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            domain_box=[[-5.0, 5.0]])
        path = simulate_joint(m, lambda r: np.array([0.3]), 1.0, 0.01, seed=1)
        assert np.all(path.states == 0.3)
        # pure Wiener observations: increments are the raw noise
        assert np.std(path.obs_increments) == pytest.approx(0.1, rel=0.2)
        dts = np.diff(path.times)
        assert np.all(dts > 0) and np.allclose(dts, dts[0], atol=1e-12)
        assert np.allclose(np.diff(path.observations, axis=0),
                           path.obs_increments, atol=1e-12)

    def test_determinism(self):
        m = models.ou()
        kw = dict(horizon=0.5, dt=0.01, seed=9, trajectory_index=4)
        p1 = simulate_joint(m, lambda r: r.normal(size=1), **kw)
        p2 = simulate_joint(m, lambda r: r.normal(size=1), **kw)
        assert np.array_equal(p1.states, p2.states)
        assert np.array_equal(p1.obs_increments, p2.obs_increments)
        p3 = simulate_joint(m, lambda r: r.normal(size=1), horizon=0.5,
                            dt=0.01, seed=9, trajectory_index=5)
        assert not np.array_equal(p1.states, p3.states)

    def test_brownian_variance_monte_carlo(self):
        # ensemble variance of X(T) matches T within 3 standard errors
        m = models.brownian(sigma_sq=1.0)
        n, horizon, dt = 100_000, 0.5, 0.05
        path = simulate_joint(m, lambda r: np.zeros(1), horizon, dt,
                              seed=123, trajectory_index=np.arange(n))
        var = float(np.var(path.states[-1]))
        se = horizon * math.sqrt(2.0 / n)
        assert abs(var - horizon) <= 3.0 * se

    def test_blowup_contract(self):
        m = DiffusionModel(
            1,
            drift=lambda x: 1e4 * np.ones_like(np.asarray(x, dtype=float)),
            sigma=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            observation_map=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            domain_box=[[-1.0, 1.0]])
        with pytest.raises(SimulationBlowupError):
            simulate_joint(m, lambda r: np.zeros(1), 1.0, 0.01, seed=0)

    def test_bad_arguments(self):
        # a whole number of dt > 0 steps, as EnsembleConfig requires
        m = models.ou()
        for horizon, dt in ((0.5, -0.1), (0.0104, 1e-3), (math.inf, 1e-3),
                            (1.0, math.inf), (math.inf, math.inf)):
            with pytest.raises(ConfigError):
                simulate_joint(m, lambda r: np.zeros(1), horizon, dt, seed=0)

    @pytest.mark.parametrize("name", ["ou", "double_well", "lqg", "brownian"])
    def test_batch_split_is_bitwise(self, name):
        # results do not depend on the batch a trajectory is simulated in
        m = preset(name)
        kw = dict(horizon=0.5, dt=0.01, seed=31)
        sampler = lambda r: r.normal(0.0, 0.5, size=1)
        whole = simulate_joint(m, sampler, trajectory_index=np.arange(16), **kw)
        halves = [simulate_joint(m, sampler, trajectory_index=np.arange(lo, lo + 8),
                                 **kw) for lo in (0, 8)]
        for field in ("states", "observations", "obs_increments"):
            np.testing.assert_array_equal(
                getattr(whole, field),
                np.hstack([getattr(p, field) for p in halves]), err_msg=field)
        assert whole.states.shape == (51, 16)
        single = simulate_joint(m, sampler, trajectory_index=11, **kw)
        np.testing.assert_array_equal(single.states, whole.states[:, 11:12])


def test_preset_registry():
    with pytest.raises(ConfigError):
        preset("nonexistent")
    with pytest.raises(ConfigError):
        preset("ou", rate=-1.0)
    with pytest.raises(ConfigError, match="sigma_sq"):
        preset("lqg", B=[[0.0]])
    m = preset("double_well", scale=2.0)
    assert m.params["scale"] == 2.0


@pytest.mark.parametrize("name", ["brownian", "ou", "double_well"])
@pytest.mark.parametrize("sigma_sq", [0.0, -0.5, math.nan, math.inf])
def test_presets_refuse_bad_sigma_sq(name, sigma_sq):
    with pytest.raises(ConfigError, match="sigma_sq"):
        preset(name, sigma_sq=sigma_sq)


@pytest.mark.parametrize("a, b", [(-1.0, math.sqrt(2.0)), (-0.3, 0.7),
                                  (-13.0, 2.2), (-1e-3, 0.05)])
def test_lqg_box_is_six_steady_deviations(a, b):
    # the closed form V_ss = -b^2 / 2a, bit for bit as scipy's Lyapunov solver
    sd = math.sqrt(solve_continuous_lyapunov([[a]], [[-b * b]])[0, 0])
    box = preset("lqg", A=[[a]], B=[[b]], C=[[1.0]]).domain_box
    np.testing.assert_array_equal(box, [[-6.0 * sd, 6.0 * sd]])


@pytest.mark.parametrize("A, B, C", [
    ([[-1.0, 0.0], [0.0, -1.0]], [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0]]),
    ([[-1.0]], [[1.0, 0.5]], [[1.0]]),
    ([[-1.0]], [[1.0]], [[1.0], [2.0]]),
])
def test_lqg_is_scalar(A, B, C):
    with pytest.raises(ConfigError):
        preset("lqg", A=A, B=B, C=C)
