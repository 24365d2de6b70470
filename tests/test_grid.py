import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infoflow import checks, models
from infoflow.errors import (CflError, ConfigError, FilterCollapseError,
                             UnstableStepError)
from infoflow.grid import (Grid1D, GridDensity, advance_values, entropy,
                           face_fields, fp_evolve, fp_step, gaussian_density,
                           kl_divergence, ks_step, normalize, score_values,
                           steady_state_grid, zakai_step)
from infoflow.grid import (FaceFields, ks_advance, observation_values,
                           substeps_for, zakai_advance)
from infoflow.models import simulate_joint


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid1D(-1.0, 1.0, 8)
    with pytest.raises(ConfigError):
        Grid1D(1.0, -1.0, 64)
    g = Grid1D(-2.0, 2.0, 64)
    assert g.dx == pytest.approx(4.0 / 64)
    assert g.centers.size == 64
    assert g.interior_faces.size == 63


class TestFpStep:
    def test_mass_conserved(self):
        m = models.ou()
        rho = gaussian_density(Grid1D(-6, 6, 128), 0.3, 0.5)
        out = fp_step(m, rho, 1e-4)
        assert out.mass() == pytest.approx(rho.mass(), abs=1e-13)

    def test_cfl_guard(self):
        m = models.ou()
        rho = gaussian_density(Grid1D(-6, 6, 256), 0.0, 0.5)
        with pytest.raises(CflError):
            fp_step(m, rho, 1.0)

    def test_heat_kernel_variance(self):
        m = models.brownian(sigma_sq=1.0)
        grid = Grid1D(-9, 9, 512)
        rho = fp_evolve(m, gaussian_density(grid, 0.0, 0.25), 0.5)
        xc = grid.centers
        var = float(np.sum(xc ** 2 * rho.values) * grid.dx)
        assert var == pytest.approx(0.75, abs=2e-3)

    def test_steady_state_fixed_point(self):
        m = models.ou()
        grid = Grid1D(-6, 6, 512)
        rho_ss = steady_state_grid(m, grid)
        stepped = fp_step(m, rho_ss, 1e-5)
        assert float(np.max(np.abs(stepped.values - rho_ss.values))) <= 1e-8


class TestSteadyState:
    def test_ou_matches_lyapunov(self):
        m = models.ou(rate=1.0, sigma_sq=2.0)   # V_ss = 1
        grid = Grid1D(-6, 6, 512)
        rho_ss = steady_state_grid(m, grid)
        gauss = gaussian_density(grid, 0.0, 1.0)
        assert float(np.max(np.abs(rho_ss.values - gauss.values))) <= 1e-6

    def test_double_well_quadrature_formula(self):
        sigma_sq = 0.5
        m = models.double_well(sigma_sq=sigma_sq)
        grid = Grid1D(-2.5, 2.5, 512)
        rho_ss = steady_state_grid(m, grid)
        xc = grid.centers
        expected = np.exp((xc ** 2 - xc ** 4 / 2.0) / sigma_sq)
        expected /= np.sum(expected) * grid.dx
        # the drift quadrature carries its own O(dx^2) error
        np.testing.assert_allclose(rho_ss.values, expected, rtol=1e-3,
                                   atol=1e-12)
        coarse = steady_state_grid(m, Grid1D(-2.5, 2.5, 256))
        xc_c = Grid1D(-2.5, 2.5, 256).centers
        exp_c = np.exp((xc_c ** 2 - xc_c ** 4 / 2.0) / sigma_sq)
        exp_c /= np.sum(exp_c) * grid.dx * 2.0
        gap_c = float(np.max(np.abs(np.log(coarse.values) - np.log(exp_c))))
        gap_f = float(np.max(np.abs(np.log(rho_ss.values) - np.log(expected))))
        assert gap_c / max(gap_f, 1e-300) >= 3.0

    def test_iterative_fallback(self):
        # non-constant sigma forces the relaxation path
        m = models.DiffusionModel(
            1, 1, 1,
            drift=lambda x: -np.asarray(x, dtype=float),
            diffusion_factor=lambda x: np.sqrt(1.0 + 0.1 * np.asarray(x, dtype=float) ** 2),
            observation_map=lambda x, y=None: np.asarray(x, dtype=float),
            domain_box=[[-6.0, 6.0]],
            sigma_1d=lambda xs: 1.0 + 0.1 * np.asarray(xs, dtype=float) ** 2)
        grid = Grid1D(-6, 6, 128)
        rho_ss = steady_state_grid(m, grid, max_time=400.0, tol=1e-9)
        moved = fp_evolve(m, rho_ss, 0.5)
        assert float(np.max(np.abs(moved.values - rho_ss.values))) <= 1e-6


class TestZakai:
    def test_no_observation_matches_fp_split(self):
        m = models.double_well(obs_gain=0.0)
        grid = Grid1D(-2.5, 2.5, 192)
        zeta = gaussian_density(grid, 0.0, 0.25)
        dt, n_sub = 1e-3, 2
        out = zakai_step(m, zeta, 0.13, dt, n_substeps_half=n_sub)
        ff = face_fields(m, grid)
        manual = advance_values(zeta.values, ff, 0.5 * dt, n_sub)
        manual = advance_values(manual, ff, 0.5 * dt, n_sub)
        assert np.array_equal(out.values, manual)
        assert out.log_norm == 0.0

    def test_linearity(self):
        m = models.double_well()
        grid = Grid1D(-2.5, 2.5, 192)
        z1 = gaussian_density(grid, -0.7, 0.2)
        z2 = gaussian_density(grid, 0.8, 0.3)
        mix = GridDensity(grid, 0.4 * z1.values + 2.1 * z2.values)
        out_mix = zakai_step(m, mix, 0.05, 1e-3, n_substeps_half=2)
        parts = (0.4 * zakai_step(m, z1, 0.05, 1e-3, n_substeps_half=2).values
                 + 2.1 * zakai_step(m, z2, 0.05, 1e-3, n_substeps_half=2).values)
        scale = float(np.max(np.abs(parts)))
        assert float(np.max(np.abs(out_mix.values - parts))) <= 1e-12 * scale

    def test_overflow_guard(self):
        m = models.lqg(A=[[-1.0]], B=[[1.0]], C=[[200.0]])
        grid = Grid1D(-6, 6, 64)
        zeta = gaussian_density(grid, 0.0, 1.0)
        with pytest.raises(UnstableStepError):
            zakai_step(m, zeta, 5.0, 1e-3, n_substeps_half=1)

    def test_observation_map_may_use_current_observation(self):
        # h(x, y) = x - y: the multiplicative update shifts with y
        m = models.DiffusionModel(
            1, 1, 1,
            drift=lambda x: -np.asarray(x, dtype=float),
            diffusion_factor=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            observation_map=lambda x, y=None: np.asarray(x, dtype=float)
            - (0.0 if y is None else float(y)),
            domain_box=[[-6.0, 6.0]],
            sigma_1d=lambda xs: np.ones_like(np.asarray(xs, dtype=float)))
        grid = Grid1D(-6, 6, 128)
        zeta = gaussian_density(grid, 0.0, 1.0)
        out0 = zakai_step(m, zeta, 0.02, 1e-3, n_substeps_half=1,
                          y_current=0.0)
        out1 = zakai_step(m, zeta, 0.02, 1e-3, n_substeps_half=1,
                          y_current=0.8)
        ref = zakai_step(models.ou(rate=1.0, sigma_sq=1.0, obs_gain=1.0),
                         zeta, 0.02, 1e-3, n_substeps_half=1)
        np.testing.assert_allclose(out0.values, ref.values, rtol=1e-12)
        assert float(np.max(np.abs(out1.values - out0.values))) > 0.0


class TestNormalize:
    def test_already_normalized(self):
        rho = gaussian_density(Grid1D(-6, 6, 128), 0.0, 1.0)
        out, log_mass = normalize(rho)
        assert log_mass == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(out.values, rho.values, rtol=1e-12)

    def test_collapse(self):
        rho = GridDensity(Grid1D(-1, 1, 32), np.zeros(32))
        with pytest.raises(FilterCollapseError):
            normalize(rho)

    def test_log_mass_accumulates(self):
        grid = Grid1D(-6, 6, 128)
        zeta = GridDensity(grid, 3.0 * gaussian_density(grid, 0, 1).values,
                           log_norm=1.5)
        out, log_mass = normalize(zeta)
        assert log_mass == pytest.approx(1.5 + math.log(3.0), abs=1e-10)
        assert out.log_norm == log_mass
        assert out.mass() == pytest.approx(1.0, abs=1e-12)

    def test_log_sigma_discrete_sum_oracle(self):
        # Ito-sum reconstruction of ln sigma_t(1): strong observations over a
        # long horizon keep the quadratic-variation noise floor below the
        # 1e-3 relative target.
        c_gain = 15.0
        m = models.lqg(A=[[-1.0]], B=[[math.sqrt(2.0)]], C=[[c_gain]])
        grid = Grid1D(-6, 6, 192)
        dt, horizon = 1e-4, 5.0
        path = simulate_joint(m, lambda r: r.normal(0.0, 1.0, size=1),
                              horizon, dt, seed=42)
        incs = path.obs_increments[:, 0]
        ff = face_fields(m, grid)
        vals = gaussian_density(grid, 0.0, 1.0).values
        h = c_gain * grid.centers
        dx = grid.dx
        half_h2dt = 0.5 * h * h * dt
        ledger = 0.0
        ito_sum = 0.0
        for k in range(incs.size):
            mass = vals.sum() * dx
            pi_h = (vals @ h) * dx / mass
            ito_sum += pi_h * incs[k] - 0.5 * pi_h * pi_h * dt
            vals = advance_values(vals, ff, 0.5 * dt, 1)
            expo = h * incs[k] - half_h2dt
            shift = expo.max()
            vals = vals * np.exp(expo - shift)
            ledger += shift
            vals = advance_values(vals, ff, 0.5 * dt, 1)
            if (k + 1) % 100 == 0:
                msum = vals.sum() * dx
                vals /= msum
                ledger += math.log(msum)
        log_sigma = ledger + math.log(vals.sum() * dx)
        assert abs(ito_sum - log_sigma) / abs(log_sigma) <= 1e-3


class TestDensityFunctionals:
    def test_gaussian_entropy(self):
        rho = gaussian_density(Grid1D(-8, 8, 512), 0.0, 1.0)
        assert entropy(rho) == pytest.approx(
            0.5 * math.log(2 * math.pi * math.e), abs=1e-4)

    def test_kl_self_and_errors(self):
        grid = Grid1D(-8, 8, 256)
        rho = gaussian_density(grid, 0.0, 1.0)
        assert kl_divergence(rho, rho) == 0.0
        with pytest.raises(ConfigError):
            kl_divergence(rho, gaussian_density(Grid1D(-8, 8, 128), 0.0, 1.0))

    def test_kl_disjoint_support_sentinel(self):
        grid = Grid1D(-8, 8, 256)
        rho = gaussian_density(grid, 0.0, 1.0)
        other_vals = np.where(grid.centers > 0, rho.values, 0.0)
        other = GridDensity(grid, other_vals)
        assert kl_divergence(rho, other) == math.inf

    def test_gaussian_score(self):
        grid = Grid1D(-8, 8, 512)
        rho = gaussian_density(grid, 0.5, 2.0)
        xc = grid.centers
        inner = np.abs(xc - 0.5) < 4.0
        np.testing.assert_allclose(score_values(rho.values, grid.dx)[inner],
                                   (-(xc - 0.5) / 2.0)[inner], atol=1e-3)

    def test_score_invariant_under_scaling(self):
        grid = Grid1D(-6, 6, 256)
        vals = gaussian_density(grid, 0.0, 1.0).values
        s1 = score_values(vals, grid.dx)
        s2 = score_values(np.exp(-37.2) * vals, grid.dx)
        assert float(np.max(np.abs(s1 - s2))) <= 1e-12

    @given(mean=st.floats(-1.5, 1.5), var=st.floats(0.1, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_normalized_mass_invariant(self, mean, var):
        grid = Grid1D(-10, 10, 256)
        rho = gaussian_density(grid, mean, var)
        assert float(np.trapezoid(rho.values, dx=grid.dx)) == pytest.approx(
            1.0, abs=1e-8)


class TestGeneratorLogIdentity:
    @staticmethod
    def _deviation(n_cells):
        # generator applied to ln f vs (1/f) L f - Gamma(ln f, ln f)/2 on grid
        m = models.ou(rate=1.0, sigma_sq=2.0)
        grid = Grid1D(-2, 2, n_cells)
        xc = grid.centers
        dx = grid.dx
        f = np.exp(np.sin(1.3 * xc)) + 0.5
        log_f = np.log(f)
        v = -xc
        sig = 2.0

        def lap(arr):
            out = np.empty_like(arr)
            out[1:-1] = (arr[2:] - 2 * arr[1:-1] + arr[:-2]) / dx ** 2
            out[0], out[-1] = out[1], out[-2]
            return out

        def grad(arr):
            return np.gradient(arr, dx, edge_order=2)

        lhs = v * grad(log_f) + 0.5 * sig * lap(log_f)
        rhs = (v * grad(f) + 0.5 * sig * lap(f)) / f \
            - 0.5 * sig * grad(log_f) ** 2
        return float(np.max(np.abs(lhs - rhs)[2:-2]))

    def test_second_order(self):
        dev_c = self._deviation(128)
        dev_f = self._deviation(256)
        assert dev_c <= 1e-3
        assert dev_c / dev_f >= 3.0


def test_ks_factor_positivity_guard():
    m = models.lqg(A=[[-1.0]], B=[[1.0]], C=[[5.0]])
    grid = Grid1D(-6, 6, 128)
    rho = gaussian_density(grid, 0.0, 1.0)
    with pytest.raises(UnstableStepError):
        ks_step(m, rho, 3.0, 1e-2, n_substeps_half=1)


def test_ks_advance_positivity_guard():
    m = models.lqg(A=[[-1.0]], B=[[1.0]], C=[[5.0]])
    grid = Grid1D(-6, 6, 128)
    with pytest.raises(UnstableStepError, match="lost positivity"):
        ks_advance(gaussian_density(grid, 0.0, 1.0).values, face_fields(m, grid),
                   1, observation_values(m, grid), 3.0, 1e-2)


def test_ks_advance_rejects_a_bank():
    m = models.double_well()
    grid = Grid1D(-2.5, 2.5, 64)
    vals = np.tile(gaussian_density(grid, 0.0, 0.3).values[:, None], (1, 2))
    with pytest.raises(ConfigError):
        ks_advance(vals, face_fields(m, grid), 1, observation_values(m, grid),
                   np.zeros(2), 1e-3)


def _ks_reference(m, grid, vals, dy, dt, n_half):
    """Oracle: the KS step written out, half transport, Milstein factor,
    half transport, renormalization."""
    ff = face_fields(m, grid)
    h = observation_values(m, grid)
    vals = advance_values(vals.copy(), ff, 0.5 * dt, n_half)
    mass = np.sum(vals) * grid.dx
    pi_h = np.sum(vals * h) * grid.dx / mass
    var_h = np.sum(vals * h * h) * grid.dx / mass - pi_h * pi_h
    di = dy - pi_h * dt
    fluct = h - pi_h
    vals = advance_values(vals * (1.0 + fluct * di + 0.5 * (fluct * fluct - var_h)
                                  * (di * di - dt)), ff, 0.5 * dt, n_half)
    return vals / (np.sum(vals) * grid.dx)


@pytest.mark.parametrize("name, half", [("ou", 6.0), ("double_well", 2.5),
                                        ("lqg", 6.0)])
def test_ks_step_matches_ks_advance(name, half):
    m = models.preset(name)
    grid = Grid1D(-half, half, 128)
    dt = 1e-3
    ff = face_fields(m, grid)
    n_half = substeps_for(ff, 0.5 * dt)
    h_vals = observation_values(m, grid)
    rho = gaussian_density(grid, 0.3, 0.4)
    vals = rho.values.copy()
    for dy in np.random.default_rng(3).normal(0.0, 0.05, size=20):
        before = rho.values.copy()
        stepped = ks_step(m, rho, dy, dt)
        assert np.array_equal(rho.values, before)
        ref = _ks_reference(m, grid, before, float(dy), dt, n_half)
        assert ks_advance(vals, ff, n_half, h_vals, dy, dt) is vals
        assert np.array_equal(stepped.values, ref)
        assert np.array_equal(vals, ref)
        rho = stepped


@pytest.mark.parametrize("dt", [5e-4, 1e-3])
@pytest.mark.parametrize("m, half", [
    (models.lqg(A=[[-1.0]], B=[[math.sqrt(2.0)]], C=[[1.0]]), 6.0),
    (models.double_well(), 2.5)], ids=["lqg", "double_well"])
def test_ks_zakai_gap_matches_per_step_loop(m, half, dt):
    # the criterion-9d gap, hoisted, equals the per-step zakai_step/ks_step loop
    grid = Grid1D(-half, half, 256)
    horizon = 0.2                                   # 400 and 200 steps
    fine = simulate_joint(m, lambda r: r.normal(0.0, 0.5, size=1), horizon,
                          2.5e-4, 11, 0).obs_increments[:, 0]
    zak = gaussian_density(grid, 0.0, 0.25)
    ks = zak.copy()
    for dy in fine.reshape(int(round(horizon / dt)), -1).sum(axis=1):
        zak = zakai_step(m, zak, dy, dt)
        ks = ks_step(m, ks, dy, dt)
    ref = float(np.sum(np.abs(normalize(zak)[0].values - ks.values)) * grid.dx)
    assert checks._ks_zakai_gap(m, grid, dt, horizon, fine) == ref


def test_multi_element_increment_rejected():
    m = models.double_well()
    rho = gaussian_density(Grid1D(-2.5, 2.5, 128), 0.0, 0.25)
    for step in (zakai_step, ks_step):
        with pytest.raises(ConfigError):
            step(m, rho, np.array([0.1, 5.0]), 1e-3)


def test_ks_step_cfl_guard():
    # a half step at 0.95 x the raw limit breaks the 0.9 safety margin
    m = models.ou()
    grid = Grid1D(-6, 6, 128)
    rho = gaussian_density(grid, 0.0, 0.5)
    dt = 2.0 * 0.95 * face_fields(m, grid).cfl_limit()
    for step in (zakai_step, ks_step):
        with pytest.raises(CflError):
            step(m, rho, 0.01, dt, n_substeps_half=1)


def test_batched_zakai_rows_match_single_density():
    m = models.double_well()
    grid = Grid1D(-2.5, 2.5, 192)
    dt = 1e-3
    rows = [gaussian_density(grid, mean, var).values
            for mean, var in ((-0.8, 0.2), (0.1, 0.5), (0.9, 0.3))]
    dy = np.array([0.05, -0.12, 0.31])
    ff = face_fields(m, grid)
    vals, shift = zakai_advance(np.stack(rows, axis=1), ff,
                                substeps_for(ff, 0.5 * dt),
                                observation_values(m, grid), dy, dt)
    assert vals.shape == (grid.n_cells, 3)
    assert shift.shape == (3,)
    for i, row in enumerate(rows):
        single = zakai_step(m, GridDensity(grid, row), dy[i], dt)
        assert np.array_equal(vals[:, i], single.values)
        assert shift[i] == single.log_norm


def test_zakai_advance_per_column_controls():
    # each column equals its density stepped alone under its own control,
    # and the shared-operator correction matches the per-column drift v + beta
    m = models.double_well()
    grid = Grid1D(-2.5, 2.5, 96)
    dt = 1e-3
    n_cols = 9
    rng = np.random.default_rng(7)
    base = face_fields(m, grid)
    beta = rng.uniform(-1.0, 1.0, size=n_cols)
    ff = FaceFields(base.v_face, base.sigma_centers, grid.dx, beta=beta)
    n_half = substeps_for(ff, 0.5 * dt)
    h_vals = observation_values(m, grid)
    start = np.stack([gaussian_density(grid, mean, 0.3).values
                      for mean in rng.uniform(-1.0, 1.0, size=n_cols)], axis=1)
    dy = rng.normal(0.0, 0.05, size=n_cols)
    vals, shift = zakai_advance(start.copy(), ff, n_half, h_vals, dy, dt)
    for r in range(n_cols):
        ff_r = FaceFields(base.v_face, base.sigma_centers, grid.dx,
                          beta=beta[r])
        col, col_shift = zakai_advance(start[:, r].copy(), ff_r, n_half,
                                       h_vals, dy[r], dt)
        assert np.array_equal(vals[:, r], col)
        assert shift[r] == col_shift
        ff_v = FaceFields(base.v_face + beta[r], base.sigma_centers, grid.dx)
        ref, _ = zakai_advance(start[:, r].copy(), ff_v, n_half, h_vals,
                               dy[r], dt)
        assert float(np.max(np.abs(col - ref))) <= 1e-13 * float(np.max(ref))


def test_zero_controls_match_uncontrolled_step():
    m = models.double_well()
    grid = Grid1D(-2.5, 2.5, 128)
    dt = 1e-3
    base = face_fields(m, grid)
    zero = FaceFields(base.v_face, base.sigma_centers, grid.dx,
                      beta=np.zeros(4))
    n_half = substeps_for(zero, 0.5 * dt)
    h_vals = observation_values(m, grid)
    start = np.stack([gaussian_density(grid, mean, 0.2).values
                      for mean in (-0.9, -0.2, 0.4, 1.1)], axis=1)
    dy = np.array([0.03, -0.07, 0.0, 0.11])
    plain, plain_shift = zakai_advance(start.copy(), base, n_half, h_vals, dy, dt)
    ctrl, ctrl_shift = zakai_advance(start.copy(), zero, n_half, h_vals, dy, dt)
    assert np.array_equal(plain, ctrl)
    assert np.array_equal(plain_shift, ctrl_shift)


def test_zakai_advance_rejects_nested_batches():
    m = models.double_well()
    grid = Grid1D(-2.5, 2.5, 64)
    vals = np.tile(gaussian_density(grid, 0.0, 0.3).values, (2, 2, 1))
    with pytest.raises(ConfigError):
        zakai_advance(vals, face_fields(m, grid), 1,
                      observation_values(m, grid), np.zeros((2, 2)), 1e-3)


def test_zakai_step_leaves_input_unchanged():
    m = models.double_well()
    zeta = gaussian_density(Grid1D(-2.5, 2.5, 128), 0.2, 0.3)
    before = zeta.values.copy()
    out = zakai_step(m, zeta, 0.07, 1e-3)
    assert np.array_equal(zeta.values, before)
    assert not np.array_equal(out.values, before)


def _flux_form_step(values, v_face, sigma, dx, h):
    """Oracle: rho - (h/dx) (J_{i+1/2} - J_{i-1/2}),
    J = v avg - d(sigma rho)/(2 dx); cells on axis 0, v_face per column."""
    srho = sigma[:, None] * values
    flux = (v_face * 0.5 * (values[:-1] + values[1:])
            - 0.5 * (srho[1:] - srho[:-1]) / dx)
    wall = np.zeros((1, values.shape[1]))
    return values - (h / dx) * np.diff(np.vstack([wall, flux, wall]), axis=0)


@given(seed=st.integers(0, 2 ** 32 - 1), peclet=st.floats(0.0, 1.99),
       cfl=st.floats(0.05, 0.9))
@settings(max_examples=50, deadline=None)
def test_transport_substep_properties(seed, peclet, cfl):
    # a shared face drift plus per-column controls, with mesh Peclet
    # |v + beta| dx / (sigma/2) < 2 at every face
    rng = np.random.default_rng(seed)
    n_cols, n_cells = 5, 40
    grid = Grid1D(-1.0, 1.0, n_cells)
    sigma = rng.uniform(0.2, 2.0, size=n_cells)
    v_max = peclet * 0.5 * np.minimum(sigma[:-1], sigma[1:]) / grid.dx
    b_max = 0.5 * float(np.min(v_max))
    v_face = (v_max - b_max) * rng.uniform(-1.0, 1.0, size=n_cells - 1)
    beta = b_max * rng.uniform(-1.0, 1.0, size=n_cols)
    ff = FaceFields(v_face, sigma, grid.dx, beta=beta)
    h = cfl * ff.cfl_limit()
    values = rng.uniform(0.0, 1.0, size=(n_cells, n_cols))
    values[rng.uniform(size=values.shape) < 0.2] = 0.0
    expected = _flux_form_step(values, v_face[:, None] + beta, sigma,
                               grid.dx, h)
    out = advance_values(values.copy(), ff, h, 1)
    assert float(np.min(out)) >= 0.0
    mass = np.sum(values, axis=0)
    np.testing.assert_allclose(np.sum(out, axis=0), mass, rtol=1e-12)
    scale = np.max(np.abs(expected), axis=0)
    assert float(np.max(np.abs(out - expected) / scale)) <= 1e-13


@pytest.mark.parametrize("spike", [1.0, 1e-15])
def test_negative_coefficients_take_the_guard(spike):
    # mesh Peclet > 2 makes upper < 0: a spike drives the cell below it
    # negative; below -1e-14 that raises, in [-1e-14, 0) it is clipped
    grid = Grid1D(-1.0, 1.0, 32)
    sigma = np.full(grid.n_cells, 0.1)
    v_face = np.full(grid.n_cells - 1, 3.0 * 0.5 * 0.1 / grid.dx)
    ff = FaceFields(v_face, sigma, grid.dx)
    h = 0.5 * ff.cfl_limit()
    values = np.zeros((grid.n_cells, 2))
    values[10, 1] = spike
    expected = _flux_form_step(values, np.tile(v_face[:, None], (1, 2)),
                               sigma, grid.dx, h)
    assert expected[9, 1] < 0.0
    if expected[9, 1] < -1e-14:
        with pytest.raises(UnstableStepError, match="at cell 9$"):
            advance_values(values.copy(), ff, h, 1)
    else:
        out = advance_values(values.copy(), ff, h, 1)
        assert out[9, 1] == 0.0
        assert float(np.max(np.abs(out - np.maximum(expected, 0.0)))) <= 1e-28


def test_negative_input_takes_the_guard():
    m = models.ou()
    grid = Grid1D(-6, 6, 64)
    ff = face_fields(m, grid)
    h = 0.5 * ff.cfl_limit()
    values = np.zeros(grid.n_cells)
    values[:8] = 1.0
    values[40] = -5e-15               # stays in [-1e-14, 0): clipped
    out = advance_values(values.copy(), ff, h, 1)
    assert out[40] == 0.0 and float(np.min(out)) == 0.0
    values[40] = -1e-13
    with pytest.raises(UnstableStepError, match="at cell 40$"):
        advance_values(values.copy(), ff, h, 1)
