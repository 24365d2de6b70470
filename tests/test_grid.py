import importlib.machinery
import math
import os
import re
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_trapezoid
from scipy.sparse import _sparsetools

from infoflow import checks, models
from infoflow.errors import (CflError, ConfigError, FilterCollapseError,
                             UnstableStepError, check_integer)
from infoflow.grid import (Grid1D, GridDensity, advance_values, entropy,
                           face_fields, gaussian_density,
                           kl_divergence, normalize, score_values,
                           steady_state_grid, zakai_step)
from infoflow.grid import (FaceFields, _load_kernels, ks_advance,
                           observation_values, substeps_for, zakai_advance)
from infoflow.models import simulate_joint


@pytest.mark.parametrize("m, grid", [
    (models.ou(), Grid1D(-6.0, 6.0, 512)),
    (models.ou(rate=0.3, sigma_sq=0.7), Grid1D(-4.0, 5.0, 97)),
    (models.double_well(), Grid1D(-2.5, 2.5, 256)),
    (models.double_well(scale=2.0, sigma_sq=0.3), Grid1D(-2.0, 2.2, 130)),
    (models.lqg(A=[[-0.5]], B=[[0.9]], C=[[1.0]]), Grid1D(-3.0, 3.0, 64))],
    ids=["ou", "ou_skewed_box", "double_well", "double_well_steep", "lqg"])
def test_steady_state_is_scipy_cumulative_trapezoid(m, grid):
    # the closed-form steady state reproduces scipy's quadrature bit for bit
    xc = grid.centers
    log_w = cumulative_trapezoid(2.0 * m.drift(xc) / m.sigma_profile(xc), xc,
                                 initial=0.0)
    vals = np.exp(log_w - np.max(log_w))
    vals /= np.sum(vals) * grid.dx
    np.testing.assert_array_equal(steady_state_grid(m, grid).values, vals)


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid1D(-1.0, 1.0, 8)
    with pytest.raises(ConfigError):
        Grid1D(1.0, -1.0, 64)
    for lo, hi in ((-1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)):
        with pytest.raises(ConfigError):
            Grid1D(lo, hi, 64)
    for n_cells in (16.5, 32.0, True, "32"):
        with pytest.raises(ConfigError, match="n_cells must be an integer >= 16"):
            Grid1D(-1.0, 1.0, n_cells)
    assert Grid1D(-1.0, 1.0, np.int64(32)).centers.size == 32
    g = Grid1D(-2.0, 2.0, 64)
    assert g.dx == pytest.approx(4.0 / 64)
    assert g.centers.size == 64
    assert g.interior_faces.size == 63


@pytest.mark.parametrize("shape", [(3, 16), (16, 3), ()])
def test_grid_density_holds_one_density(shape):
    # a bank or a scalar is refused at construction, before mass() or
    # zakai_step could misread it
    with pytest.raises(ConfigError, match="does not match the grid"):
        GridDensity(Grid1D(-1.0, 1.0, 16), np.ones(shape))


def _one_substep(m, rho: GridDensity, dt: float) -> GridDensity:
    """One explicit Fokker-Planck substep of ``rho`` on fresh face fields."""
    ff = face_fields(m, rho.grid)
    vals = advance_values(rho.values.copy(), ff, dt, substeps_for(ff, dt, n_substeps=1))
    return GridDensity(rho.grid, vals)


@pytest.mark.parametrize("mean, var", [(0.0, 0.0), (0.0, -0.5), (0.0, math.nan),
                                       (0.0, math.inf), (40.0, 0.25),
                                       (math.nan, 0.25), (-math.inf, 0.25)])
def test_gaussian_density_refuses_a_law_without_mass_on_the_grid(mean, var):
    with pytest.raises(ConfigError, match="variance|no mass"):
        gaussian_density(Grid1D(-2.5, 2.5, 64), mean, var)


class TestFpStep:
    def test_mass_conserved(self):
        m = models.ou()
        rho = gaussian_density(Grid1D(-6, 6, 128), 0.3, 0.5)
        out = _one_substep(m, rho, 1e-4)
        assert out.mass() == pytest.approx(rho.mass(), abs=1e-13)

    def test_cfl_guard(self):
        # refused before any cell changes
        m = models.ou()
        rho = gaussian_density(Grid1D(-6, 6, 256), 0.0, 0.5)
        before = rho.values.copy()
        with pytest.raises(CflError):
            _one_substep(m, rho, 1.0)
        np.testing.assert_array_equal(rho.values, before)

    def test_heat_kernel_variance(self):
        m = models.brownian(sigma_sq=1.0)
        grid = Grid1D(-9, 9, 512)
        ff = face_fields(m, grid)
        vals = advance_values(gaussian_density(grid, 0.0, 0.25).values, ff, 0.5,
                              substeps_for(ff, 0.5))
        xc = grid.centers
        var = float(np.sum(xc ** 2 * vals) * grid.dx)
        assert var == pytest.approx(0.75, abs=2e-3)

    def test_steady_state_fixed_point(self):
        m = models.ou()
        grid = Grid1D(-6, 6, 512)
        rho_ss = steady_state_grid(m, grid)
        stepped = _one_substep(m, rho_ss, 1e-5)
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
        # non-constant sigma takes the discrete zero-flux route: a fixed
        # point of the transport step to roundoff
        m = models.DiffusionModel(
            1,
            drift=lambda x: -np.asarray(x, dtype=float),
            sigma=lambda x: 1.0 + 0.1 * np.asarray(x, dtype=float) ** 2,
            observation_map=lambda x: np.asarray(x, dtype=float),
            domain_box=[[-6.0, 6.0]])
        grid = Grid1D(-6, 6, 128)
        rho_ss = steady_state_grid(m, grid)
        ff = face_fields(m, grid)
        moved = advance_values(rho_ss.values.copy(), ff, 0.5, substeps_for(ff, 0.5))
        assert float(np.max(np.abs(moved - rho_ss.values))) <= 1e-13

    def test_zero_flux_route_refuses_peclet_above_2(self):
        # |v| dx / (sigma/2) is 10.7 at face 0 and up to 12.6 elsewhere: no
        # positive zero-flux density exists
        m = models.DiffusionModel(
            1,
            drift=lambda x: -np.asarray(x, dtype=float),
            sigma=lambda x: 0.1 + 0.01 * np.asarray(x, dtype=float) ** 2,
            observation_map=lambda x: np.asarray(x, dtype=float),
            domain_box=[[-6.0, 6.0]])
        with pytest.raises(ConfigError, match="Peclet number .* at interior face 0 "):
            steady_state_grid(m, Grid1D(-6, 6, 32))


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
    vals = gaussian_density(grid, 0.3, 0.4).values
    for dy in np.random.default_rng(3).normal(0.0, 0.05, size=20):
        ref = _ks_reference(m, grid, vals, float(dy), dt, n_half)
        assert ks_advance(vals, ff, n_half, h_vals, dy, dt) is vals
        assert np.array_equal(vals, ref)


@pytest.mark.parametrize("dt", [5e-4, 1e-3])
@pytest.mark.parametrize("m, half", [
    (models.lqg(A=[[-1.0]], B=[[math.sqrt(2.0)]], C=[[1.0]]), 6.0),
    (models.double_well(), 2.5)], ids=["lqg", "double_well"])
def test_ks_zakai_gap_matches_per_step_loop(m, half, dt):
    # the criterion-9d gap, hoisted, equals a per-step loop that builds its
    # face fields afresh each step
    grid = Grid1D(-half, half, 256)
    horizon = 0.2                                   # 400 and 200 steps
    fine = simulate_joint(m, lambda r: r.normal(0.0, 0.5, size=1), horizon,
                          2.5e-4, 11, 0).obs_increments[:, 0]
    zak = gaussian_density(grid, 0.0, 0.25)
    ks = zak.values.copy()
    h_vals = observation_values(m, grid)
    for dy in fine.reshape(int(round(horizon / dt)), -1).sum(axis=1):
        zak = zakai_step(m, zak, dy, dt)
        ff = face_fields(m, grid)
        ks = ks_advance(ks, ff, substeps_for(ff, 0.5 * dt), h_vals, dy, dt)
    ref = float(np.sum(np.abs(normalize(zak)[0].values - ks)) * grid.dx)
    assert checks._ks_zakai_gap(m, grid, dt, horizon, fine) == ref


def test_multi_element_increment_rejected():
    m = models.double_well()
    rho = gaussian_density(Grid1D(-2.5, 2.5, 128), 0.0, 0.25)
    with pytest.raises(ConfigError):
        zakai_step(m, rho, np.array([0.1, 5.0]), 1e-3)


def test_ks_step_cfl_guard():
    # a half step at 0.95 x the raw limit breaks the 0.9 safety margin
    m = models.ou()
    grid = Grid1D(-6, 6, 128)
    rho = gaussian_density(grid, 0.0, 0.5)
    dt = 2.0 * 0.95 * face_fields(m, grid).cfl_limit()
    with pytest.raises(CflError):
        zakai_step(m, rho, 0.01, dt, n_substeps_half=1)


def test_batched_zakai_rows_match_single_density():
    m = models.double_well()
    grid = Grid1D(-2.5, 2.5, 192)
    dt = 1e-3
    rows = [gaussian_density(grid, mean, var).values
            for mean, var in ((-0.8, 0.2), (0.1, 0.5), (0.9, 0.3))]
    dy = np.array([0.05, -0.12, 0.31])
    ff = face_fields(m, grid)
    vals = zakai_advance(np.stack(rows, axis=1), ff,
                         substeps_for(ff, 0.5 * dt),
                         observation_values(m, grid), dy, dt)
    assert vals.shape == (grid.n_cells, 3)
    for i, row in enumerate(rows):
        single = zakai_step(m, GridDensity(grid, row), dy[i], dt)
        assert np.array_equal(vals[:, i], single.values)


def test_zakai_advance_per_column_controls():
    # each column equals its density stepped alone under its own control,
    # and the shared-operator correction matches the per-column drift v + beta;
    # on 144 cells the mesh Peclet number of v + beta stays below 2 for
    # |beta| <= 1.88, while 96 cells, where v's alone is 2.7, are refused
    m = models.double_well()
    with pytest.raises(ConfigError, match="Peclet"):
        face_fields(m, Grid1D(-2.5, 2.5, 96)).operator(1e-4)
    grid = Grid1D(-2.5, 2.5, 144)
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
    vals = zakai_advance(start.copy(), ff, n_half, h_vals, dy, dt)
    for r in range(n_cols):
        ff_r = FaceFields(base.v_face, base.sigma_centers, grid.dx,
                          beta=beta[r])
        col = zakai_advance(start[:, r].copy(), ff_r, n_half, h_vals, dy[r], dt)
        assert np.array_equal(vals[:, r], col)
        ff_v = FaceFields(base.v_face + beta[r], base.sigma_centers, grid.dx)
        ref = zakai_advance(start[:, r].copy(), ff_v, n_half, h_vals, dy[r], dt)
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
    plain = zakai_advance(start.copy(), base, n_half, h_vals, dy, dt)
    ctrl = zakai_advance(start.copy(), zero, n_half, h_vals, dy, dt)
    assert np.array_equal(plain, ctrl)


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


@given(seed=st.integers(0, 2 ** 32 - 1), peclet=st.floats(0.0, 4.0),
       cfl=st.floats(0.05, 0.9))
@settings(max_examples=50, deadline=None)
def test_peclet_check_is_the_sign_of_the_couplings(seed, peclet, cfl):
    # within the CFL limit T's diagonal is >= 0, so T would have a negative
    # entry exactly where a face's |v| dx / (sigma/2), with the sigma of the
    # cell v points into, exceeds 2; the operator refuses exactly those fields
    rng = np.random.default_rng(seed)
    grid = Grid1D(-1.0, 1.0, 40)
    sigma = rng.uniform(0.2, 2.0, size=grid.n_cells)
    v_face = (peclet * 0.5 * np.minimum(sigma[:-1], sigma[1:]) / grid.dx
              * rng.uniform(-1.0, 1.0, size=grid.n_cells - 1))
    ff = FaceFields(v_face, sigma, grid.dx)
    into = np.where(v_face > 0.0, sigma[1:], sigma[:-1])
    too_steep = bool(np.any(np.abs(v_face) * grid.dx / (0.5 * into) > 2.0))
    h = cfl * ff.cfl_limit()
    if too_steep:
        for refusal in (ff.check_peclet, lambda: ff.operator(h)):
            with pytest.raises(ConfigError, match="Peclet"):
                refusal()
    else:
        ff.check_peclet()
        assert float(np.min(ff.operator(h)[0])) >= 0.0


@pytest.mark.parametrize("spike", [1.0, 1e-15])
def test_negative_coefficients_take_the_guard(spike):
    # mesh Peclet 3 makes upper < 0: a step would drive the cell below a
    # spike of any size negative, so T is refused before any cell changes,
    # for one substep and for two
    grid = Grid1D(-1.0, 1.0, 32)
    sigma = np.full(grid.n_cells, 0.1)
    v_face = np.full(grid.n_cells - 1, 3.0 * 0.5 * 0.1 / grid.dx)
    ff = FaceFields(v_face, sigma, grid.dx)
    h = 0.5 * ff.cfl_limit()
    values = np.zeros((grid.n_cells, 2))
    values[10, 1] = spike
    expected = _flux_form_step(values, np.tile(v_face[:, None], (1, 2)), sigma,
                               grid.dx, h)
    assert expected[9, 1] < 0.0
    before = values.copy()
    for n in (1, 2):
        with pytest.raises(ConfigError, match="Peclet number .* at interior face 0 "):
            advance_values(values, ff, n * h, n)
        assert np.array_equal(values, before)


def test_negative_input_takes_the_guard():
    # a negative cell of any size is refused, the input left as it was
    m = models.ou()
    grid = Grid1D(-6, 6, 64)
    ff = face_fields(m, grid)
    h = 0.5 * ff.cfl_limit()
    values = np.zeros(grid.n_cells)
    values[:8] = 1.0
    for low in (-5e-15, -1e-13, -5e-324):
        values[40] = low
        before = values.copy()
        with pytest.raises(ConfigError, match=r"non-negative .* at \(40,\)$"):
            advance_values(values, ff, h, 1)
        assert np.array_equal(values, before)


def _transport_case(shape, beta=None):
    """OU face fields on 64 cells and random non-negative values."""
    grid = Grid1D(-2.5, 2.5, 64)
    base = face_fields(models.ou(), grid)
    ff = FaceFields(base.v_face, base.sigma_centers, grid.dx, beta=beta)
    values = np.random.default_rng(11).uniform(0.0, 1.0, size=(64,) + shape)
    return ff, values, 0.5 * ff.cfl_limit()


def _dense(band):
    """The m x m matrix of an (m, 2n + 1) band array, whose row i holds
    columns i - n .. i + n."""
    m, n = band.shape[0], band.shape[1] // 2
    rows, k = np.indices(band.shape)
    cols = rows - n + k
    inside = (cols >= 0) & (cols < m)
    dense = np.zeros((m, m))
    dense[rows[inside], cols[inside]] = band[inside]
    return dense


def _csr(band):
    return sp.csr_array(_dense(band))


def _operator(ff, h):
    return _csr(ff.operator(h)[0])


def test_csr_kernels_add_the_product():
    # the compiled kernels advance_values calls: Y += A X, in place;
    # csr_matvec takes one vector, csr_matvecs any number of columns, each
    # as a C-contiguous array of any shape; rows r0 .. r1 - 1 of A X come
    # from A's indptr[r0:r1 + 1] with its whole indices and data
    rng = np.random.default_rng(3)
    a = sp.csr_array(np.array([[2.0, -1.0, 0.0, 0.0], [1.0, 3.0, 4.0, 0.0],
                               [0.0, 0.0, 5.0, -2.0], [0.0, 6.0, 0.0, 1.0]]))

    def matvec(x, y):
        _sparsetools.csr_matvec(4, 4, a.indptr, a.indices, a.data, x, y)

    def matvecs(x, y):
        _sparsetools.csr_matvecs(4, 4, x.size // 4, a.indptr, a.indices,
                                 a.data, x.reshape(-1), y.reshape(-1))

    for kernel, shape in ((matvec, (4,)), (matvecs, (4,)), (matvecs, (4, 3))):
        x = rng.integers(-9, 10, size=shape).astype(float)
        y0 = rng.integers(-9, 10, size=shape).astype(float)
        y = y0.copy()
        kernel(x, y)
        assert np.array_equal(y, y0 + a @ x)       # small integers: exact
        x = rng.uniform(-1.0, 1.0, size=shape)
        y = np.zeros(shape)
        kernel(x, y)
        assert np.array_equal(y, a @ x)
    x = rng.uniform(-1.0, 1.0, size=(4, 3))
    rows = np.zeros((2, 3))
    _sparsetools.csr_matvecs(2, 4, 3, a.indptr[1:4], a.indices, a.data, x, rows)
    assert np.array_equal(rows, (a @ x)[1:3])
    rows = np.zeros(2)
    _sparsetools.csr_matvec(2, 4, a.indptr[2:5], a.indices, a.data, x[:, 0].copy(), rows)
    assert np.array_equal(rows, (a @ x[:, 0])[2:4])


def test_missing_kernel_file_is_an_import_error(monkeypatch):
    # the kernels have one import route: their extension file, whose paths
    # the error names
    monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools")
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
    with pytest.raises(ImportError, match=re.escape(
            os.path.join("scipy", "sparse", "_sparsetools.missing.so"))):
        _load_kernels()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("shape", [(), (5,)])
def test_uncontrolled_advance_is_repeated_product(shape, n):
    # n substeps are one product with T^n: n products with T up to rounding
    ff, values, h = _transport_case(shape)
    op = _operator(ff, h)
    expected = values
    for _ in range(n):
        expected = op @ expected
    out = advance_values(values.copy(), ff, n * h, n)
    assert np.array_equal(out, _csr(ff.power(h, n)) @ values)
    assert float(np.max(np.abs(out - expected))) <= 1e-15 * float(np.max(expected))


def _chunk_case(name, shape):
    """A preset's face fields on 128 cells, a substep of half the CFL
    limit, and one off-center Gaussian per column."""
    m = models.preset(name)
    (low, high), = m.domain_box
    grid = Grid1D(low, high, 128)
    means = np.linspace(0.2 * low, 0.3 * high, int(np.prod(shape)))
    values = np.stack([gaussian_density(grid, mean, 0.01 * (high - low) ** 2).values
                       for mean in means], axis=1).reshape((128,) + shape)
    ff = face_fields(m, grid)
    return ff, values, 0.5 * ff.cfl_limit()


@pytest.mark.parametrize("n", [8, 9, 17, 500])
@pytest.mark.parametrize("shape", [(), (3,)])
@pytest.mark.parametrize("name", ["ou", "double_well", "brownian"])
def test_long_uncontrolled_advance_is_chunked(name, shape, n, monkeypatch):
    # n substeps are n // 8 products with T^8 and one with T^(n % 8): n
    # products with T up to rounding, each one compiled kernel call per
    # block of 16 rows of a bank, or one call for one density
    ff, values, h = _chunk_case(name, shape)
    op = _operator(ff, h)
    expected = values
    for _ in range(n):
        expected = op @ expected
    calls = []
    for kernel in ("csr_matvec", "csr_matvecs"):
        def counted(*args, kernel=kernel, run=getattr(_sparsetools, kernel)):
            calls.append(kernel)
            return run(*args)
        monkeypatch.setattr(_sparsetools, kernel, counted)
    out = advance_values(values.copy(), ff, n * h, n)
    monkeypatch.undo()
    blocks = -(-128 // 16) if shape else 1          # row blocks per product
    assert calls == ["csr_matvecs" if shape else "csr_matvec"] * (-(-n // 8) * blocks)
    assert float(np.min(out)) >= 0.0
    scale = np.max(expected, axis=0)
    assert float(np.max(np.abs(out - expected) / scale)) <= 1e-14


@pytest.mark.parametrize("n", [2, 4, 5, 8])
@pytest.mark.parametrize("name", ["ou", "double_well", "brownian"])
def test_powers_by_squaring_are_non_negative_bands(name, n):
    # T^n = T^(n//2) T^(n - n//2): a band of 2n + 1 diagonals, no entry < 0
    ff, _, h = _chunk_case(name, ())
    power = ff.power(h, n)
    assert power.shape == (128, 2 * n + 1)
    assert float(np.min(power)) >= 0.0
    rows, cols = _dense(power).nonzero()
    assert int(np.max(np.abs(rows - cols))) == n
    repeated = _dense(ff.operator(h)[0])
    expected = np.linalg.matrix_power(repeated, n)
    assert float(np.max(np.abs(_dense(power) - expected))) <= 1e-15 * n


def _triple_csr(triple):
    """A plan's CSR triple (indptr, indices, data) as a csr_array."""
    m = triple[0].size - 1
    return sp.csr_array(triple[::-1], shape=(m, m))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 17])
@pytest.mark.parametrize("name", ["brownian", "ou", "double_well"])
def test_band_powers_are_scipys_products(name, n):
    # T^n is scipy's CSR product of the same factors: bit for bit up to T^3,
    # whose left factor is T, with rows in column order; from T^4 on scipy's
    # left factor T^2 holds its rows out of column order, so scipy sums in
    # another order.  Each CSR triple of the plan holds its power's band,
    # every row in column order.
    ff, _, h = _chunk_case(name, ())
    scipy_powers = {1: _operator(ff, h)}

    def scipy_power(k):
        if k not in scipy_powers:
            scipy_powers[k] = scipy_power(k // 2) @ scipy_power(k - k // 2)
        return scipy_powers[k]

    band, expected = _dense(ff.power(h, n)), scipy_power(n).toarray()
    if n <= 3:
        assert _same_bits(band, expected)
    else:
        assert float(np.max(np.abs(band - expected))) <= 1e-15 * n * float(np.max(expected))
    _, _, products = ff.plan(h, n)
    counts = [8] * (n // 8) + [n % 8] * (n % 8 > 0)
    assert len(products) == len(counts)
    for triple, k in zip(products, counts):
        csr = _triple_csr(triple)
        assert csr.has_canonical_format
        assert _same_bits(csr.toarray(), _dense(ff.power(h, k)))


def test_plan_products_share_one_triple():
    # 500 uncontrolled substeps are 62 products with T^8, which share one
    # CSR triple, and one with T^4; n controlled substeps share T's triple
    ff, _, h = _chunk_case("double_well", ())
    _, _, products = ff.plan(h, 500)
    assert len(products) == 63 and all(t is products[0] for t in products[:62])
    assert _same_bits(_triple_csr(products[0]).toarray(), _dense(ff.power(h, 8)))
    assert _same_bits(_triple_csr(products[-1]).toarray(), _dense(ff.power(h, 4)))
    controlled = replace(ff, beta=np.full(3, 0.1))
    _, _, products = controlled.plan(h, 5)
    assert len(products) == 5 and all(t is products[0] for t in products)
    assert _same_bits(_triple_csr(products[0]).toarray(),
                      _dense(controlled.operator(h)[0]))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("shape", [(), (5,)])
def test_controlled_advance_adds_the_correction(shape, n):
    # per substep T X + (h/2dx) beta D(X), as one shared product plus a
    # per-column centered difference, up to the order of the additions
    beta = np.linspace(-1.5, 1.5, 5) if shape else 0.7
    ff, values, h = _transport_case(shape, beta=beta)
    op, cb = _operator(ff, h), h / (2.0 * ff.dx) * np.asarray(beta)
    expected = values
    for _ in range(n):
        diff = np.empty_like(expected)
        diff[1:-1] = expected[:-2] - expected[2:]
        diff[0] = -(expected[0] + expected[1])
        diff[-1] = expected[-2] + expected[-1]
        expected = op @ expected + cb * diff
    out = advance_values(values.copy(), ff, n * h, n)
    scale = np.max(np.abs(expected), axis=0)
    assert float(np.max(np.abs(out - expected) / scale)) <= 1e-15


@pytest.mark.parametrize("bad", ["column", "float32"])
def test_advance_rejects_values_it_cannot_write(bad):
    ff, bank, h = _transport_case((4,))
    values = bank[:, 1] if bad == "column" else bank.astype(np.float32)
    before = values.copy()
    with pytest.raises(ConfigError, match="C-contiguous float64"):
        advance_values(values, ff, h, 1)
    assert np.array_equal(values, before)


@pytest.mark.parametrize("call, count", [("advance", 0), ("advance", -2),
                                         ("zakai_step", 0)])
def test_substep_count_below_one_is_refused(call, count):
    # a count of 0 once reached the division, and -2 a CFL message about a
    # negative substep: each is a ConfigError before any cell changes
    ff, values, _ = _transport_case(())
    before = values.copy()
    with pytest.raises(ConfigError, match="substep count must be an integer >= 1"):
        if call == "zakai_step":
            zakai_step(models.ou(), GridDensity(Grid1D(-2.5, 2.5, 64), values),
                       0.0, 1e-3, n_substeps_half=count)
        else:
            advance_values(values, ff, 0.01, count)
    assert np.array_equal(values, before)


@pytest.mark.parametrize("duration", [-1e-3, 0.0, -0.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("shape", [(), (3,)], ids=["density", "bank"])
def test_advance_refuses_a_duration_that_is_not_positive(shape, duration, monkeypatch):
    # a negative duration was once refused as too long a substep (CflError)
    # and 0 stepped with T = I; each is a ConfigError before any cell
    # changes or any plan is built
    ff, values, _ = _transport_case(shape)
    monkeypatch.setattr(FaceFields, "plan", lambda *args: pytest.fail("plan built"))
    before = values.copy()
    with pytest.raises(ConfigError, match=re.escape(
            f"the duration must be finite and positive, got {duration}")):
        advance_values(values, ff, duration, 2)
    assert _same_bits(values, before)


def _reference_advance(values, ff, h, n):
    """The transport out of place, as a reference: each product of the
    plan accumulates all rows into a new array, onto zeros or, under a
    control, onto c D(X), and then takes the wall rows of T + c D."""
    m = values.shape[0]
    _, walls, products = ff.plan(h, n)
    src = values
    for indptr, indices, data in products:
        dst = np.zeros_like(src)
        if walls is not None:
            cb, a_0, b_0, a_m, b_m = walls
            np.subtract(src[:-2], src[2:], out=dst[1:-1])
            dst[1:-1] *= cb
        if src.ndim == 1:
            _sparsetools.csr_matvec(m, m, indptr, indices, data, src, dst)
        else:
            _sparsetools.csr_matvecs(m, m, src.shape[1], indptr, indices, data,
                                     src.reshape(-1), dst.reshape(-1))
        if walls is not None:
            dst[:1] = a_0 * src[:1] + b_0 * src[1:2]
            dst[-1:] = a_m * src[-2:-1] + b_m * src[-1:]
        src = dst
    return src


@pytest.mark.parametrize("n", range(1, 18))
@pytest.mark.parametrize("shape, beta", [((), None), ((3,), None),
                                         ((3,), np.array([0.3, -0.4, 0.0]))],
                         ids=["density", "bank", "controlled"])
def test_in_place_advance_is_the_out_of_place_product(shape, beta, n):
    # row blocks of 16 on 100 cells end in a block of 4, shorter than T^8's
    # half-width: every cell is still the reference's sum, bit for bit
    grid = Grid1D(-2.5, 2.5, 100)
    base = face_fields(models.ou(), grid)
    ff = FaceFields(base.v_face, base.sigma_centers, grid.dx, beta=beta)
    h = 0.5 * ff.cfl_limit()
    values = np.random.default_rng(n).uniform(0.0, 1.0, size=(100,) + shape)
    values[values < 0.1] = 0.0
    expected = _reference_advance(values, ff, h, n)
    out = advance_values(values, ff, n * h, n)
    assert out is values
    assert _same_bits(out, expected)


@pytest.mark.parametrize("beta", [None, np.full(400, 0.3)], ids=["plain", "controlled"])
def test_bank_step_allocates_no_bank_sized_array(beta):
    # the products and the observation factor run in row blocks: with its
    # plan built, a call's traced peak is its two-block scratch and numpy's
    # iterator buffers (getbufsize() elements for each of up to three
    # operands of a broadcast ufunc), well under one bank
    m, n_cols, dt = 256, 400, 1e-3
    grid = Grid1D(-2.5, 2.5, m)
    base = face_fields(models.double_well(), grid)
    h_vals = observation_values(models.double_well(), grid)
    n_half = substeps_for(replace(base, beta=beta), 0.5 * dt)
    values = np.repeat(gaussian_density(grid, 0.0, 0.3).values[:, None], n_cols, axis=1)
    dy = np.random.default_rng(2).normal(0.0, 0.03, size=n_cols)
    h = 0.5 * dt / n_half
    steps = ((lambda ff: advance_values(values, ff, 11 * h, 11), 11 * h, 11),
             (lambda ff: zakai_advance(values, ff, n_half, h_vals, dy, dt),
              0.5 * dt, n_half))
    for call, duration, n in steps:
        ff = replace(base, beta=beta)
        ff.plan(duration / n, n)
        tracemalloc.start()
        try:
            call(ff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffers = 3 * 8 * np.getbufsize()
        assert peak <= 2 * 16 * 8 * n_cols + buffers + 0.05 * values.nbytes


def test_advance_steps_the_values_in_place():
    # advance_values, zakai_advance and ks_advance return the array they
    # were given, and a C-contiguous view is advanced where it lies
    for shape, beta in (((), None), ((3,), None), ((3,), np.full(3, 0.2))):
        ff, values, h = _transport_case(shape, beta=beta)
        h_vals = observation_values(models.ou(), Grid1D(-2.5, 2.5, 64))
        dy = np.full(shape, 0.03)
        assert advance_values(values, ff, h, 1) is values
        assert zakai_advance(values, ff, 1, h_vals, dy, 2.0 * h) is values
        if not shape:
            assert ks_advance(values, ff, 1, h_vals, 0.03, 2.0 * h) is values
        storage = np.zeros((2,) + values.shape)
        view = storage[1]
        view[...] = values
        expected = _reference_advance(values, ff, h, 3)
        assert advance_values(view, ff, 3 * h, 3) is view
        assert _same_bits(storage[1], expected) and not np.any(storage[0])



def test_advance_reuses_its_workspace():
    # the values are the transport's only bank-sized array: every call
    # steps the same array, and two calls are the two products in turn
    for beta in (None, np.full(3, 0.2)):
        ff, values, h = _transport_case((3,), beta=beta)
        expected = _reference_advance(_reference_advance(values, ff, h, 1), ff, h, 2)
        held = values
        values = advance_values(values, ff, h, 1)
        values = advance_values(values, ff, 2 * h, 2)
        assert values is held
        assert _same_bits(values, expected)


def test_advance_refuses_its_own_work_array():
    # the values are the work array, so values that cannot be written, a
    # read-only array or view, are refused before any cell changes, not
    # at the first write-back; each step refuses them the same way
    for shape, beta in (((), None), ((3,), None), ((3,), np.full(3, 0.2))):
        ff, values, h = _transport_case(shape, beta=beta)
        h_vals = observation_values(models.ou(), Grid1D(-2.5, 2.5, 64))
        dy = np.full(shape, 0.03)
        before = values.copy()
        frozen = values.view()
        frozen.flags.writeable = False
        steps = [lambda v: advance_values(v, ff, h, 1),
                 lambda v: zakai_advance(v, ff, 1, h_vals, dy, 2.0 * h)]
        if not shape:
            steps.append(lambda v: ks_advance(v, ff, 1, h_vals, 0.03, 2.0 * h))
        for step in steps:
            for held in (frozen, np.broadcast_to(values, values.shape)):
                with pytest.raises(ConfigError, match="writable.*read-only"):
                    step(held)
        assert _same_bits(values, before)

@pytest.mark.parametrize("shape, beta, match", [
    ((6, 2), None, r"got float64 \(64, 6, 2\)"),
    ((6, 2), np.array([0.1, 0.2]), r"got float64 \(64, 6, 2\)"),
    ((5,), np.array(0.1), "1 controls for 5 density columns"),
    ((5,), np.array([0.1, 0.2, 0.3]), "3 controls for 5 density columns"),
    ((), np.array([0.1, 0.2]), "2 controls for 1 density columns")],
    ids=["3d", "3d-controlled", "one-control", "three-controls", "density"])
def test_advance_refuses_a_shape_or_control_count_it_cannot_step(shape, beta, match):
    # a third axis was once stepped as more columns, one control broadcast
    # over a bank, and a control count that is neither 1 nor N a raw numpy
    # error; each is a ConfigError before any cell changes
    ff, values, h = _transport_case(shape, beta=beta)
    before = values.copy()
    with pytest.raises(ConfigError, match=match):
        advance_values(values, ff, h, 1)
    assert _same_bits(values, before)


@pytest.mark.parametrize("step", ["advance_values", "zakai_advance"])
def test_a_bank_without_columns_is_refused_by_its_shape(step):
    # an (M, 0) bank once reached a reduction of an empty array and raised
    # numpy's ValueError ("attempt to get argmax of an empty sequence",
    # "zero-size array to reduction operation maximum")
    ff, values, h = _transport_case((0,))
    h_vals = observation_values(models.ou(), Grid1D(-2.5, 2.5, 64))
    with pytest.raises(ConfigError, match=re.escape("(64, 0)")):
        if step == "advance_values":
            advance_values(values, ff, h, 1)
        else:
            zakai_advance(values, ff, 1, h_vals, np.zeros(0), 2.0 * h)


def test_face_fields_are_immutable():
    grid = Grid1D(-2.5, 2.5, 64)
    base = face_fields(models.ou(), grid)
    v = base.v_face.copy()
    ff = FaceFields(v, base.sigma_centers, grid.dx)
    h = 0.5 * ff.cfl_limit()
    for name in ("beta", "v_face"):
        with pytest.raises(FrozenInstanceError):
            setattr(ff, name, np.zeros(3))
    with pytest.raises(ValueError):
        ff.v_face[0] = 1.0
    v[0] += 1.0                       # the caller's array is not ff's
    assert ff.v_face[0] == base.v_face[0]
    assert ff.operator(h) is ff.operator(h)
    doubled = replace(ff, v_face=2 * v)
    fresh = FaceFields(2 * v, base.sigma_centers, grid.dx)
    assert np.array_equal(doubled.operator(h)[0], fresh.operator(h)[0])
    assert not np.array_equal(doubled.operator(h)[0], ff.operator(h)[0])


@pytest.mark.parametrize("name", sorted(models.PRESETS))
def test_fused_step_matches_substeps(name):
    # 200 Strang steps of a small bank: each transport half is one product
    # with T^n, against n products with T around the same observation factor
    m = models.preset(name)
    (low, high), = m.domain_box
    grid = Grid1D(low, high, 128)
    dt = 1e-3
    ff = face_fields(m, grid)
    n_half = max(3, substeps_for(ff, 0.5 * dt))
    op = _operator(ff, 0.5 * dt / n_half)
    h_vals = observation_values(m, grid)
    bank = np.stack([gaussian_density(grid, mean, 0.3 * (high - low) ** 2 / 25).values
                     for mean in (0.3 * low, 0.0, 0.2 * high)], axis=1)
    ref = bank.copy()
    for dy in np.random.default_rng(5).normal(0.0, 0.03, size=(200, 3)):
        bank = zakai_advance(bank, ff, n_half, h_vals, dy, dt)
        for _ in range(n_half):
            ref = op @ ref
        ref = ref * np.exp(np.multiply.outer(h_vals, dy)
                           - (0.5 * h_vals * h_vals * dt)[:, None])
        for _ in range(n_half):
            ref = op @ ref
    assert float(np.max(np.abs(bank - ref) / np.max(ref, axis=0))) <= 1e-13


def test_overflow_guard_changes_no_cell():
    # the exponent bound is read from h and dY alone, before the first half
    m = models.lqg(A=[[-1.0]], B=[[1.0]], C=[[200.0]])
    grid = Grid1D(-6, 6, 64)
    values = np.repeat(gaussian_density(grid, 0.0, 1.0).values[:, None], 2, axis=1)
    before = values.copy()
    with pytest.raises(UnstableStepError, match="overflow"):
        zakai_advance(values, face_fields(m, grid), 1, observation_values(m, grid),
                      np.array([0.0, 5.0]), 1e-3)
    assert np.array_equal(values, before)


def _controlled_product(values, band, cb):
    """One controlled substep exactly as the kernel computes it: c D(X) plus
    T X on the interior rows, and each wall row of T + c D from its two
    coefficients."""
    out = np.zeros_like(values)
    np.subtract(values[:-2], values[2:], out=out[1:-1])
    out[1:-1] *= cb
    op = _csr(band)
    _sparsetools.csr_matvecs(op.shape[0], op.shape[1], values.shape[1], op.indptr,
                             op.indices, op.data, values.reshape(-1), out.reshape(-1))
    (diag_0, upper_0), (lower_m, diag_m) = band[0, 1:], band[-1, :2]
    out[0] = (diag_0 - cb) * values[0] + (upper_0 - cb) * values[1]
    out[-1] = (lower_m + cb) * values[-2] + (diag_m + cb) * values[-1]
    return out


@given(seed=st.integers(0, 2 ** 32 - 1), reach=st.floats(0.0, 1.5),
       cfl=st.floats(0.05, 0.9))
@settings(max_examples=80, deadline=None)
def test_controls_inside_the_bounds_are_proved_non_negative(seed, reach, cfl):
    # T + c D >= 0 entrywise for c in T's bounds.  Inside them no cell of a
    # non-negative input, wall rows included, goes below zero, unscanned,
    # even beside zeros and subnormals; outside them the step is refused
    # before any cell changes.
    rng = np.random.default_rng(seed)
    n_cols, n_cells = 6, 40
    grid = Grid1D(-1.0, 1.0, n_cells)
    sigma = rng.uniform(0.2, 2.0, size=n_cells)
    v_face = (0.99 * 0.5 * np.minimum(sigma[:-1], sigma[1:]) / grid.dx
              * rng.uniform(-1.0, 1.0, size=n_cells - 1))
    base = FaceFields(v_face, sigma, grid.dx)
    h = cfl * base.cfl_limit()
    op, (lo, hi) = base.operator(h)
    assert lo < 0.0 < hi
    cb = reach * rng.uniform(lo, hi, size=n_cols)
    cb[:2] = reach * lo, reach * hi
    ff = FaceFields(v_face, sigma, grid.dx, beta=cb * (2.0 * grid.dx / h))
    cb = (h / (2.0 * grid.dx)) * ff.beta            # as the transport forms it
    values = (rng.uniform(0.0, 1.0, size=(n_cells, n_cols))
              * 10.0 ** rng.integers(-322, 3, size=(n_cells, n_cols)))
    values[rng.uniform(size=values.shape) < 0.4] = 0.0
    if lo <= float(np.min(cb)) and float(np.max(cb)) <= hi:
        raw = _controlled_product(values, op, cb)
        assert float(np.min(raw)) >= 0.0
        assert np.array_equal(advance_values(values.copy(), ff, h, 1), raw)
        return
    before = values.copy()
    with pytest.raises(UnstableStepError, match="column [01] "):
        advance_values(values, ff, h, 1)
    assert np.array_equal(values, before)


def _same_bits(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("kind, error, match", [
    ("peclet", ConfigError, "Peclet"),
    ("cfl", CflError, "stability limit"),
    ("negative", ConfigError, "non-negative"),
    ("nan", ConfigError, "non-negative"),
    ("inf", ConfigError, "non-negative"),
    ("-0", ConfigError, "non-negative"),
    ("control", UnstableStepError, "column")],
    ids=["peclet", "cfl", "negative", "nan", "inf", "-0", "control"])
@pytest.mark.parametrize("shape", [(), (3,)], ids=["density", "bank"])
def test_every_refusal_changes_no_cell(shape, kind, error, match):
    # one positivity rule: a step that cannot be proved >= 0 is refused
    # by the transport and by the Zakai step before any cell changes
    beta = {(): 50.0, (3,): np.array([0.1, 50.0, -0.2])}[shape]
    ff, values, h = _transport_case(shape, beta=beta if kind == "control" else None)
    if kind == "peclet":                # |v| dx / (sigma/2) = 3 at every face
        ff = replace(ff, v_face=np.full_like(ff.v_face, 1.5 * ff.sigma_centers[0] / ff.dx))
    if kind == "cfl":
        h *= 4.0
    bad = {"negative": -1e-300, "nan": math.nan, "inf": math.inf, "-0": -0.0}
    if kind in bad:                     # only a finite number >= +0 passes
        cell = (20, 1)[:values.ndim]
        values[cell] = bad[kind]
        match += ".* " + re.escape(f"got {bad[kind]} at {cell}")
    if kind == "control":
        match += f" {1 if shape else 0} "
    before = values.copy()
    h_vals = observation_values(models.ou(), Grid1D(-2.5, 2.5, 64))
    with pytest.raises(error, match=match):
        advance_values(values, ff, h, 1)
    with pytest.raises(error, match=match):
        zakai_advance(values, ff, 1, h_vals, np.zeros(shape), 2.0 * h)
    assert _same_bits(values, before)


def test_inf_cells_under_control_are_refused():
    # beside an inf cell a controlled substep would form c (inf - inf)
    ff, values, h = _transport_case((2,), beta=np.array([0.1, 0.2]))
    values[30:32, 0] = math.inf
    before = values.copy()
    with pytest.raises(ConfigError, match=re.escape("got inf at (30, 0)")):
        advance_values(values, ff, 2.0 * h, 2)
    assert _same_bits(values, before)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("shape", [(), (3,)], ids=["density", "bank"])
def test_non_finite_increment_is_refused_before_any_cell_changes(shape, bad):
    ff, values, h = _transport_case(shape)
    h_vals = observation_values(models.ou(), Grid1D(-2.5, 2.5, 64))
    dy = np.array([0.1, bad, -0.2]) if shape else np.array(bad)
    match = re.escape(f"dY of density {1 if shape else 0} is {bad}, not finite")
    before = values.copy()
    with pytest.raises(UnstableStepError, match=match):
        zakai_advance(values, ff, 1, h_vals, dy, 2.0 * h)
    if not shape:                       # the KS step takes one density
        with pytest.raises(UnstableStepError, match=match):
            ks_advance(values, ff, 1, h_vals, dy, 2.0 * h)
    assert _same_bits(values, before)


def test_step_plan_is_built_once_per_substep_and_count(monkeypatch):
    # a repeat step of the same (h, n) is one lookup: it re-enters neither
    # the operator nor its powers; a new n or h builds a new plan, and only
    # the plans of the last h are kept
    ff, values, h = _transport_case(())
    h = 2.0 ** math.floor(math.log2(h))             # n h / n is h exactly
    calls = {"operator": 0, "power": 0}
    for name in calls:
        def counted(self, *args, _name=name, _fn=getattr(FaceFields, name)):
            calls[_name] += 1
            return _fn(self, *args)
        monkeypatch.setattr(FaceFields, name, counted)
    values = advance_values(values, ff, 11 * h, 11)     # T^8 and T^3
    built = dict(calls)
    assert built["operator"] >= 1 and built["power"] >= 2
    eleven = ff.plan(h, 11)
    values = advance_values(values, ff, 11 * h, 11)
    assert calls == built and ff.plan(h, 11) is eleven
    values = advance_values(values, ff, 5 * h, 5)
    five = ff.plan(h, 5)
    assert five is not eleven and calls["power"] > built["power"]
    shorter = ff.plan(0.75 * h, 5)
    assert not np.array_equal(shorter[2][0][2], five[2][0][2])
    assert ff.plan(h, 5) is not five


def test_out_of_bounds_control_is_refused_on_every_call():
    # the plan is cached after the first refusal, and the bounds are still
    # checked before any cell changes on a repeat call to the same fields
    ff, values, h = _transport_case((3,), beta=np.array([0.1, 50.0, -0.2]))
    before = values.copy()
    for _ in range(2):
        with pytest.raises(UnstableStepError, match="column 1 "):
            advance_values(values, ff, 2.0 * h, 2)
        assert _same_bits(values, before)


@pytest.mark.parametrize("value", [3, np.int64(3), np.int32(1)])
def test_check_integer_takes_integers(value):
    check_integer(value, "the count", 1)


@pytest.mark.parametrize("value", [True, np.bool_(True), 2.0, "2", 0, -1,
                                   np.int64(0)])
def test_check_integer_refuses_what_is_not_a_count(value):
    with pytest.raises(ConfigError, match=re.escape(
            f"the count must be an integer >= 1, got {value!r}")):
        check_integer(value, "the count", 1)


def test_float_increment_steps_as_a_0d_array():
    # one density's dY is taken as a float without array reductions; a
    # 0-d array, a Python float and a numpy float step alike, and a
    # non-finite float is refused before any cell changes
    ff, values, h = _transport_case(())
    h_vals = observation_values(models.ou(), Grid1D(-2.5, 2.5, 64))
    outs = []
    for dy in (np.array(0.03), 0.03, np.float64(0.03)):
        for step in (zakai_advance, ks_advance):
            outs.append(step(values.copy(), ff, 1, h_vals, dy, 2.0 * h))
    assert all(_same_bits(out, outs[i % 2]) for i, out in enumerate(outs))
    before = values.copy()
    for step in (zakai_advance, ks_advance):
        with pytest.raises(UnstableStepError, match="dY of density 0 is nan"):
            step(values, ff, 1, h_vals, math.nan, 2.0 * h)
    with pytest.raises(ConfigError, match="one increment per density"):
        zakai_advance(values, ff, 1, h_vals, [0.03], 2.0 * h)
    assert _same_bits(values, before)
