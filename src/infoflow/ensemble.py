"""Vectorized ensemble of coupled (state, observation, filter) trajectories.

Each trajectory owns a grid filter density advanced by the Strang-split
Zakai update with its own observation path (and, when a policy is supplied,
its own control).  One shared prior density follows the Fokker-Planck flow
with the ensemble-mean drift.  At sample times the runner records everything
the information-flow estimators need: the true state, the filter and prior
log-densities and scores evaluated at the true state, the filtered
observation estimate pi_t(h), and the running log-normalization and
integrated |pi(h)|^2 ledgers.

The true states take the Euler-Maruyama step of :mod:`infoflow.models`, and
all randomness is drawn there from per-trajectory substreams of the master
seed, so results do not depend on evaluation order.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, FilterCollapseError, NumericalError
from .grid import (DENSITY_FLOOR, Grid1D, advance_values, face_fields,
                   gaussian_density, observation_values, score_values,
                   substeps_for, zakai_advance)
from .models import DiffusionModel, euler_maruyama, step_count
from .models import draw_increments as _draw_increments
from .rng import check_seed

_MASS_FOLD_LO, _MASS_FOLD_HI = 1e-12, 1e12


@dataclass
class EnsembleConfig:
    dt: float
    horizon: float
    n_trajectories: int
    seed: int
    sample_stride: int = 1
    x0_mean: float = 0.0
    x0_var: float = 0.25

    def __post_init__(self):
        if self.sample_stride < 1 or self.n_steps % self.sample_stride != 0:
            raise ConfigError("sample_stride must divide horizon/dt")
        if self.n_trajectories < 1:
            raise ConfigError("need at least one trajectory")
        check_seed(self.seed)
        if not (math.isfinite(self.x0_mean) and math.isfinite(self.x0_var)
                and self.x0_var > 0):
            raise ConfigError("x0_mean must be finite, x0_var finite and positive")

    @property
    def n_steps(self) -> int:
        return step_count(self.horizon, self.dt)


@dataclass
class EnsembleRun:
    """Sampled record of one filtered ensemble.

    Arrays indexed (sample, trajectory) unless stated otherwise.
    ``log_prior*_at_x`` / ``score_prior*_at_x`` come in two flavors: the
    Fokker-Planck reference density (``fp``) and the ensemble-mean posterior
    (``mix``), which estimates the exact mixture law of the state.
    """

    model: DiffusionModel
    grid: Grid1D
    config: EnsembleConfig
    times: np.ndarray                 # (S,)
    states: np.ndarray                # (S, N)
    pi_h: np.ndarray                  # (S, N)
    h_at_x: np.ndarray                # (S, N)
    sigma_at_x: np.ndarray            # (S, N)
    log_post_at_x: np.ndarray         # (S, N)
    score_post_at_x: np.ndarray       # (S, N)
    log_zeta_at_x: np.ndarray         # (S, N)
    log_sigma1: np.ndarray            # (S, N) cumulative ln sigma_t(1)
    int_pi_h_sq: np.ndarray           # (S, N) cumulative int |pi(h)|^2 ds
    log_prior_fp_at_x: np.ndarray     # (S, N)
    score_prior_fp_at_x: np.ndarray   # (S, N)
    log_prior_mix_at_x: np.ndarray    # (S, N)
    score_prior_mix_at_x: np.ndarray  # (S, N)
    post_mean: np.ndarray             # (S, N) posterior first moment
    post_var: np.ndarray              # (S, N) posterior variance
    excluded: np.ndarray              # (S, N) bool
    prior_fp: np.ndarray              # (S, M) shared FP density
    posterior_mean: np.ndarray        # (S, M) ensemble-mean posterior
    posterior_final: np.ndarray       # (N, M) posterior at the horizon
    controls: Optional[np.ndarray] = None   # (S, N)
    v_bar: Optional[np.ndarray] = None      # (S, M) mean drift at centers
    clamp_count: int = 0

    @property
    def n_samples(self) -> int:
        return self.times.size

    @property
    def n_trajectories(self) -> int:
        return self.states.shape[1]

    def sample_index(self, t: float) -> int:
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > 1e-9 + 1e-9 * abs(t):
            raise ConfigError(f"t={t} is not a sample time")
        return k

    def excluded_fraction(self) -> float:
        return float(self.excluded.mean())


def interp_rows(values: np.ndarray, grid: Grid1D, x: np.ndarray) -> np.ndarray:
    """Linear interpolation of cell values at one point per trajectory.

    ``values`` is (M,) shared or (M, N) with one trajectory per column;
    ``x`` is (N,).  Returns 0 outside the grid box, edge-clamped inside the
    half cells.
    """
    x = np.asarray(x, dtype=float)
    pos = (x - grid.x_min) / grid.dx - 0.5
    i0 = np.clip(np.floor(pos).astype(int), 0, grid.n_cells - 2)
    w = np.clip(pos - i0, 0.0, 1.0)
    cols = () if values.ndim == 1 else (np.arange(values.shape[1]),)
    out = (1.0 - w) * values[(i0,) + cols] + w * values[(i0 + 1,) + cols]
    inside = (x >= grid.x_min) & (x <= grid.x_max)
    return np.where(inside, out, 0.0)


def _column_sums(values: np.ndarray) -> np.ndarray:
    """Sums down axis 0 (at least 8 rows) in numpy's pairwise order for a
    contiguous 1-d sum, so each column's sum equals ``np.sum`` of it alone."""
    n = values.shape[0]
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _column_sums(values[:half]) + _column_sums(values[half:])
    r = np.add.reduce(values[:n - n % 8].reshape((-1, 8) + values.shape[1:]))
    out = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return functools.reduce(np.add, values[n - n % 8:], out)


def _eval_log_and_score(values, grid, x):
    """(log density, score) rows evaluated at the per-trajectory points."""
    dens = interp_rows(values, grid, x)
    score = interp_rows(score_values(values, grid.dx), grid, x)
    logs = np.log(np.maximum(dens, DENSITY_FLOOR))
    return dens, logs, score


def apply_policy(policy, t: float, posterior_summary):
    """Evaluate a policy, one control per summary, and clamp to its bound.

    Returns (controls, n_clamped).  A policy whose ``bound`` is 0, or that
    has none, runs unclamped; a control still not finite raises
    :class:`NumericalError`.  Deterministic in its inputs, so replays from
    logged summaries reproduce logged controls exactly.
    """
    beta = np.broadcast_to(np.asarray(policy(t, posterior_summary), dtype=float),
                           np.shape(posterior_summary)).astype(float)
    bound = float(getattr(policy, "bound", 0.0))
    n_clamped = 0
    if bound > 0.0:
        clipped = np.clip(beta, -bound, bound)
        beta, n_clamped = clipped, int(np.sum(clipped != beta))
    if not np.all(np.isfinite(beta)):
        bad = int(np.argmax(~np.isfinite(beta)))
        raise NumericalError(f"policy {getattr(policy, 'name', policy)!r} gave "
                             f"{beta.flat[bad]} for trajectory {bad} at t={t:.6g}")
    return beta, n_clamped


def mean_drift(model, xs, beta) -> np.ndarray:
    """Ensemble-mean drift field v_bar(x) = v(x) + mean_k beta_k at ``xs``."""
    xs = np.asarray(xs, dtype=float)
    v = np.broadcast_to(np.asarray(model.drift(xs), dtype=float), xs.shape)
    return v + np.mean(beta)


def run_filter_ensemble(model: DiffusionModel, grid: Grid1D,
                        config: EnsembleConfig, policy=None) -> EnsembleRun:
    """Advance N coupled trajectories with per-trajectory Zakai filters.

    ``policy``, when given, is called as ``policy(t, posterior_mean_array)``
    and must return per-trajectory controls; its ``bound`` attribute widens
    the CFL drift budget and clamps the output.  A grid whose mesh Peclet
    number exceeds 2 at a face is refused with ConfigError before any step.
    """
    # the truth's step; it refuses a non-scalar model before any set-up
    truth_step = euler_maruyama(model, config.dt, range(config.n_trajectories))
    if policy is not None and config.n_trajectories < 100:
        warnings.warn(
            f"mean-drift estimation from only {config.n_trajectories} "
            f"trajectories is noisy and contaminates the shared prior "
            f"density; use at least 100", stacklevel=2)
    dt, n_traj, n_steps = config.dt, config.n_trajectories, config.n_steps
    sample_steps = np.arange(0, n_steps + 1, config.sample_stride)
    n_samples = sample_steps.size
    xc = grid.centers
    xf = grid.interior_faces
    dx = grid.dx

    # one per density array, each owning its workspace; under a policy each
    # step's controls and the prior's mean drift are new instances
    ff_post = face_fields(model, grid)
    ff_post.check_peclet()
    ff_prior = replace(ff_post)
    budget = replace(ff_post, beta=np.array([getattr(policy, "bound", 0.0)]))
    n_half = substeps_for(budget, 0.5 * dt)
    n_full = substeps_for(budget, dt)

    h_c = observation_values(model, grid)

    rho0 = gaussian_density(grid, config.x0_mean, config.x0_var)
    prior_vals = rho0.values.copy()
    # (M, N), owning its memory: the transport trades it with its work array
    post_vals = np.repeat(rho0.values[:, None], n_traj, axis=1)
    ledger = np.zeros(n_traj)
    int_pi2 = np.zeros(n_traj)

    x0_sd = math.sqrt(config.x0_var)
    dw, du, x = _draw_increments(config.seed, range(n_traj), n_steps, dt,
                                 lambda rng: config.x0_mean + x0_sd * rng.normal())

    shape = (n_samples, n_traj)
    rec = {name: np.empty(shape) for name in
           ("states", "pi_h", "h_at_x", "sigma_at_x", "log_post_at_x",
            "score_post_at_x", "log_zeta_at_x", "log_sigma1", "int_pi_h_sq",
            "log_prior_fp_at_x", "score_prior_fp_at_x", "log_prior_mix_at_x",
            "score_prior_mix_at_x", "post_mean", "post_var")}
    excluded = np.zeros(shape, dtype=bool)
    prior_snap = np.empty((n_samples, grid.n_cells))
    post_mean_snap = np.empty((n_samples, grid.n_cells))
    controls_rec = np.empty(shape) if policy is not None else None
    v_bar_rec = np.empty((n_samples, grid.n_cells)) if policy is not None else None
    posterior_final = None
    clamp_count = 0

    s_idx = 0
    mass = _column_sums(post_vals) * dx
    for k in range(n_steps + 1):
        t = k * dt
        if not np.all(np.isfinite(mass)) or np.any(mass <= 0.0):
            raise FilterCollapseError(
                f"filter collapse at t={t:.6g} "
                f"(min mass {float(np.min(mass)):.3e})")
        # column moments by einsum, not BLAS: independent of its thread count
        pi_mean = np.einsum("i,ij->j", xc, post_vals) * dx / mass
        pi_h = np.einsum("i,ij->j", h_c, post_vals) * dx / mass

        beta = None
        if policy is not None:
            beta, n_clamped = apply_policy(policy, t, pi_mean)
            clamp_count += n_clamped

        if k == sample_steps[s_idx]:
            raw_at_x = interp_rows(post_vals, grid, x)
            rec["log_zeta_at_x"][s_idx] = \
                np.log(np.maximum(raw_at_x, DENSITY_FLOOR)) + ledger
            # first moment recorded exactly as the policy saw it
            rec["post_mean"][s_idx] = pi_mean
            rec["post_var"][s_idx] = \
                np.einsum("i,ij->j", xc * xc, post_vals) * dx / mass - pi_mean ** 2
            post_vals /= mass
            ledger = ledger + np.log(mass)
            post_at_x, log_post, score_post = _eval_log_and_score(post_vals, grid, x)
            prior_at_x, log_prior, score_prior = _eval_log_and_score(prior_vals, grid, x)
            mix_vals = np.mean(post_vals, axis=1)
            mix_at_x, log_mix, score_mix = _eval_log_and_score(mix_vals, grid, x)

            for name, val in dict(
                    states=x, pi_h=pi_h, sigma_at_x=model.sigma_profile(x),
                    h_at_x=np.asarray(model.observation_map(x), dtype=float),
                    log_post_at_x=log_post, score_post_at_x=score_post,
                    log_sigma1=ledger, int_pi_h_sq=int_pi2,
                    log_prior_fp_at_x=log_prior, score_prior_fp_at_x=score_prior,
                    log_prior_mix_at_x=log_mix, score_prior_mix_at_x=score_mix).items():
                rec[name][s_idx] = val
            excluded[s_idx] = ((x < grid.x_min) | (x > grid.x_max)
                               | (post_at_x <= DENSITY_FLOOR)
                               | (prior_at_x <= DENSITY_FLOOR))
            prior_snap[s_idx] = prior_vals
            post_mean_snap[s_idx] = mix_vals
            if policy is not None:
                controls_rec[s_idx] = beta
                v_bar_rec[s_idx] = mean_drift(model, xc, beta)
            if k == n_steps:
                posterior_final = post_vals.T.copy()
            s_idx += 1

        if k == n_steps:
            break

        int_pi2 = int_pi2 + pi_h * pi_h * dt

        x, dy = truth_step(x, beta, dw[k], du[k], t + dt)

        # --- per-trajectory Zakai step (Strang split)
        if beta is not None:
            ff_post = replace(ff_post, beta=beta)
            substeps_for(ff_post, 0.5 * dt, n_substeps=n_half)
            ff_prior = replace(ff_prior, v_face=mean_drift(model, xf, beta))
        post_vals = zakai_advance(post_vals, ff_post, n_half, h_c, dy, dt)
        mass = _column_sums(post_vals) * dx       # the next step's masses
        # fold only the columns out of range: no column sees the batch
        fold = (mass < _MASS_FOLD_LO) | (mass > _MASS_FOLD_HI)
        if np.any(fold):
            safe = np.maximum(mass[fold], DENSITY_FLOOR)
            post_vals[:, fold] /= safe
            ledger[fold] += np.log(safe)
            mass[fold] = _column_sums(post_vals[:, fold]) * dx

        # --- shared prior with the ensemble-mean drift
        prior_vals = advance_values(prior_vals, ff_prior, dt, n_full)

    return EnsembleRun(
        model=model, grid=grid, config=config,
        times=dt * sample_steps.astype(float),
        excluded=excluded, prior_fp=prior_snap, posterior_mean=post_mean_snap,
        posterior_final=posterior_final, controls=controls_rec,
        v_bar=v_bar_rec, clamp_count=clamp_count, **rec)
