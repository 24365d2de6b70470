import tracemalloc

import numpy as np
import pytest

from infoflow import ensemble, models
from infoflow.control import linear_gain_policy
from infoflow.ensemble import EnsembleConfig, interp_rows, run_filter_ensemble
from infoflow.errors import ConfigError, SimulationBlowupError
from infoflow.grid import Grid1D, score_values
from infoflow.models import simulate_joint


def small_config(**overrides):
    base = dict(dt=1e-3, horizon=0.1, n_trajectories=8, seed=5,
                sample_stride=20, x0_mean=0.0, x0_var=0.25)
    base.update(overrides)
    return EnsembleConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        EnsembleConfig(dt=-1.0, horizon=1.0, n_trajectories=2, seed=0)
    with pytest.raises(ConfigError):
        EnsembleConfig(dt=1e-3, horizon=1.0, n_trajectories=0, seed=0)
    with pytest.raises(ConfigError):
        EnsembleConfig(dt=1e-3, horizon=1.0, n_trajectories=2, seed=0,
                       x0_var=0.0)


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("seed", 1.5), ("seed", True), ("x0_mean", np.inf),
    ("x0_mean", np.nan), ("x0_var", np.nan), ("x0_var", np.inf),
    ("horizon", np.inf), ("sample_stride", 2.5), ("sample_stride", 5.0),
    ("sample_stride", True), ("n_trajectories", 10.5),
    ("n_trajectories", True)])
def test_config_refuses_bad_values(field, value):
    # a stride of 2.5 divides 100 steps and left sampled rows unwritten
    with pytest.raises(ConfigError):
        small_config(**{field: value})


def test_states_match_per_trajectory_simulator():
    # the ensemble's truth is simulate_joint's, trajectory for trajectory
    model = models.ou()
    grid = Grid1D(-6, 6, 64)
    cfg = small_config()
    run = run_filter_ensemble(model, grid, cfg)
    path = simulate_joint(model, lambda r: np.array([r.normal(0.0, 0.5)]),
                          cfg.horizon, cfg.dt, seed=cfg.seed,
                          trajectory_index=np.arange(cfg.n_trajectories))
    np.testing.assert_array_equal(run.states,
                                  path.states[::cfg.sample_stride])


def test_deterministic_repeat():
    model = models.double_well()
    grid = Grid1D(-2.5, 2.5, 192)
    r1 = run_filter_ensemble(model, grid, small_config())
    r2 = run_filter_ensemble(model, grid, small_config())
    np.testing.assert_array_equal(r1.log_post_at_x, r2.log_post_at_x)
    np.testing.assert_array_equal(r1.prior_fp, r2.prior_fp)
    np.testing.assert_array_equal(r1.log_sigma1, r2.log_sigma1)


def test_mass_fold_is_per_column(monkeypatch):
    # a lower fold bound inside the masses' range folds some columns at
    # some steps; each trajectory's record must not depend on the others
    monkeypatch.setattr(ensemble, "_MASS_FOLD_LO", 0.5)
    model = models.double_well()
    grid = Grid1D(-2.5, 2.5, 128)
    big = run_filter_ensemble(model, grid, small_config(n_trajectories=37))
    few = run_filter_ensemble(model, grid, small_config(n_trajectories=5))
    for name in ("states", "pi_h", "log_post_at_x", "score_post_at_x",
                 "log_zeta_at_x", "log_sigma1", "int_pi_h_sq", "post_mean",
                 "post_var", "posterior_final"):
        whole = getattr(big, name)
        whole = whole[:5] if name == "posterior_final" else whole[:, :5]
        np.testing.assert_array_equal(whole, getattr(few, name), err_msg=name)


def test_initial_sample_has_zero_information():
    model = models.ou()
    grid = Grid1D(-6, 6, 64)
    run = run_filter_ensemble(model, grid, small_config())
    np.testing.assert_array_equal(run.log_post_at_x[0],
                                  run.log_prior_fp_at_x[0])
    np.testing.assert_allclose(run.log_sigma1[0], 0.0, atol=1e-12)
    np.testing.assert_allclose(run.int_pi_h_sq[0], 0.0)


def test_posterior_masses_and_moments():
    model = models.ou()
    grid = Grid1D(-6, 6, 128)
    run = run_filter_ensemble(model, grid, small_config(horizon=0.2))
    # recorded moments must be those of a unit-mass density
    assert np.all(run.post_var > 0)
    assert np.all(np.abs(run.post_mean) < 6)
    assert run.posterior_final.shape == (8, 128)
    mass = run.posterior_final.sum(axis=1) * grid.dx
    np.testing.assert_allclose(mass, 1.0, atol=1e-9)


def test_excluded_trajectories_counted():
    # narrow grid box: some truths wander outside and must be excluded
    model = models.ou(obs_gain=0.0)
    grid = Grid1D(-0.4, 0.4, 32)
    cfg = small_config(horizon=0.5, sample_stride=100, n_trajectories=32,
                       x0_var=0.04)
    run = run_filter_ensemble(model, grid, cfg)
    assert run.excluded.shape == (6, 32)
    assert run.excluded_fraction() > 0.0


def test_blowup_aborts():
    # sigma = 1e4 keeps the mesh Peclet number at 0.125, so the grid is
    # accepted and the truth's blow-up is what stops the run
    model = models.DiffusionModel(
        1,
        drift=lambda x: 1e4 * np.ones_like(np.asarray(x, dtype=float)),
        sigma=lambda x: np.full_like(np.asarray(x, dtype=float), 1e4),
        observation_map=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        domain_box=[[-1.0, 1.0]])
    grid = Grid1D(-1, 1, 32)
    with pytest.raises(SimulationBlowupError):
        run_filter_ensemble(model, grid, small_config(horizon=0.5,
                                                      sample_stride=100))


def test_mesh_peclet_above_2_is_refused_before_stepping(monkeypatch):
    # the double well's 64-cell grid reaches |v| dx / (sigma/2) = 3.7 at the
    # walls; stepping it would drive the shared prior negative
    def no_step(*args):
        raise AssertionError("stepped")

    monkeypatch.setattr(ensemble, "advance_values", no_step)
    monkeypatch.setattr(ensemble, "zakai_advance", no_step)
    with pytest.raises(ConfigError, match="Peclet number .* at interior face 0 "):
        run_filter_ensemble(models.double_well(), Grid1D(-2.5, 2.5, 64),
                            small_config(n_trajectories=37))


def test_interp_rows_matches_numpy():
    grid = Grid1D(-2, 2, 32)
    rng = np.random.default_rng(0)
    values = rng.uniform(0.1, 1.0, size=grid.n_cells)
    xs = rng.uniform(-2.5, 2.5, size=50)
    mine = interp_rows(values, grid, xs)
    ref = np.where((xs >= -2) & (xs <= 2),
                   np.interp(xs, grid.centers, values), 0.0)
    np.testing.assert_allclose(mine, ref, atol=1e-14)


def test_interp_rows_reads_columns():
    # a cell-major bank: trajectory r interpolates column r at its own point
    grid = Grid1D(-2, 2, 32)
    rng = np.random.default_rng(1)
    values = rng.uniform(0.1, 1.0, size=(grid.n_cells, 6))
    xs = rng.uniform(-1.9, 1.9, size=6)
    mine = interp_rows(values, grid, xs)
    for r in range(6):
        assert mine[r] == interp_rows(values[:, r], grid, xs[r:r + 1])[0]


def test_stencil_score_is_the_whole_column_score():
    # four cells per point give bitwise the score of the whole column: in
    # the first and last half cells, next to each wall, inside and outside
    # the box, on a bank and on one density, with floored empty cells
    grid = Grid1D(-2, 2, 32)
    m = grid.n_cells
    pos = np.array([-0.9, -0.5, -0.3, 0.0, 0.4, 1.0, 1.6, 2.5, 15.3,
                    m - 3.5, m - 2.6, m - 1.5, m - 1.2, m - 0.7, m - 0.5, m - 0.1])
    xs = grid.x_min + grid.dx * (pos + 0.5)
    rng = np.random.default_rng(4)
    bank = rng.uniform(0.0, 1.0, size=(m, xs.size))
    bank[rng.uniform(size=bank.shape) < 0.1] = 0.0
    for values in (bank, bank[:, 3].copy()):
        dens, _, score = ensemble._eval_log_and_score(values, grid, xs)
        whole = interp_rows(score_values(values, grid.dx), grid, xs)
        assert np.array_equal(score.view(np.uint64), whole.view(np.uint64))
        assert np.array_equal(dens, interp_rows(values, grid, xs))
        assert np.any(score != 0.0)


def test_controlled_run_steps_one_bank_in_place(monkeypatch):
    # each step's controls are new face fields; every step advances the
    # same bank, and the transport returns it
    banks = []
    step = ensemble.zakai_advance

    def recorded(values, *args):
        banks.append(values)
        out = step(values, *args)
        assert out is values
        return out

    monkeypatch.setattr(ensemble, "zakai_advance", recorded)
    grid = Grid1D(-2.5, 2.5, 128)
    cfg = small_config(horizon=5e-3, n_trajectories=100, sample_stride=5)
    run_filter_ensemble(models.double_well(), grid, cfg,
                        linear_gain_policy(gain=0.5, bound=5.0))
    assert len(banks) == 5 and all(bank is banks[0] for bank in banks)


@pytest.mark.parametrize("policy", [None, linear_gain_policy(gain=0.5, bound=5.0)],
                         ids=["plain", "policy"])
def test_run_holds_one_bank_and_a_block_scratch(policy):
    # sampling reads four cells per trajectory and the horizon bank is kept
    # as a view, so the traced peak is the bank, the transport's scratch of
    # two 16-row blocks (32 of N floats), the noise draws and the records,
    # plus per-trajectory vectors (64 of N floats: truths, masses, ledgers,
    # the values evaluated at X and their stencils) and 5 % of a bank
    # (operators, interpreter caches); a second bank-sized array would
    # exceed it
    m, n, k, stride = 128, 400, 10, 5
    cfg = EnsembleConfig(dt=1e-3, horizon=k * 1e-3, n_trajectories=n, seed=3,
                         sample_stride=stride)
    tracemalloc.start()
    try:
        run = run_filter_ensemble(models.double_well(), Grid1D(-2.5, 2.5, m),
                                  cfg, policy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bank, vector = 8 * m * n, 8 * n
    draws = 2 * k * vector
    records = sum(v.nbytes for v in vars(run).values()
                  if isinstance(v, np.ndarray) and v.shape == (k // stride + 1, n))
    assert peak <= bank + 32 * vector + draws + records + 64 * vector + 0.05 * bank


def test_config_steps_and_stride_contract():
    # 0.0104 is not a whole number of 1e-3 steps
    with pytest.raises(ConfigError):
        EnsembleConfig(dt=1e-3, horizon=0.0104, n_trajectories=2, seed=0)
    with pytest.raises(ConfigError):
        EnsembleConfig(dt=1e-3, horizon=0.1, n_trajectories=2, seed=0,
                       sample_stride=30)
    cfg = EnsembleConfig(dt=1e-3, horizon=0.1, n_trajectories=2, seed=0,
                         sample_stride=25)
    assert cfg.n_steps == 100
