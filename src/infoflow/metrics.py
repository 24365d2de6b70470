"""Information-flow estimators and the ledger they feed.

Quadrature estimators (on grid densities):
  * entropy production rate  dH/dt = E[div u] + (1/2) E[Gamma(ln rho, ln rho)]
    with the corrected drift u = v - (1/2) d sigma/dx
  * rate of decay of the relative entropy to the steady state, in the
    squared-score ("gamma") form the ledger's dF/dt column reads and in
    the flux form
  * the sigma-weighted translational Fisher trace of the prior density,
    and the Cramer-Rao gap
  * the entropy-rate scan of a stepped density (criteria 3 and 4).

Monte-Carlo integrands (on an :class:`EnsembleRun`), one value per sample
and trajectory from :func:`integrands`, which :func:`assemble_info_ledger`
averages into the ledger's columns:
  * supply rate    (1/2) |h(X) - pi(h)|^2          (Duncan)
  * dissipation    (1/2) (J_pi - J_rho), both as a paired Fisher
    difference and as the non-negative relative-score form
  * ln(posterior / prior) at the truth, whose mean is the mutual
    information between the state and the observation history, and the
    same from the Zakai bookkeeping
  * the residual of the information balance dI/dt = supply - dissipation
    (Mayer-Wolf & Zakai identity), with common-random-number finite
    differences across sample times; :func:`mwz_residual` reads it at
    one time.

Standard errors are sample standard deviations over trajectories divided by
sqrt(N).  Balance residuals pair every component per trajectory before
averaging, which prices in the common-random-number correlations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, NumericalError, check_finite
from .ensemble import EnsembleRun, mean_drift
from .grid import (DENSITY_FLOOR, Grid1D, GridDensity, SCORE_GATE,
                   advance_values, entropy, face_fields, gaussian_density,
                   kl_divergence, score_values, substeps_for)
from .models import DiffusionModel, brownian
from .report import csv_text, write_csv

LEDGER_COLUMNS = (
    "t", "H", "dH_dt", "F", "dF_dt", "trJ_rho", "trJ_pi", "trJ_pi_se",
    "S_rate", "S_rate_se", "D_rate_fisher", "D_rate_fisher_se",
    "D_rate_gamma", "D_rate_gamma_se", "I_mc", "I_mc_se",
    "mwz_residual", "mwz_residual_se")

MAX_EXCLUDED_FRACTION = 1e-3


# ---------------------------------------------------------------------------
# Quadrature estimators
# ---------------------------------------------------------------------------

def _gate(values: np.ndarray) -> np.ndarray:
    return values > SCORE_GATE * float(np.max(values))


def _fisher(rho: GridDensity, weight) -> float:
    """int rho weight (d ln rho / dx)^2 dx, gated where rho is negligible."""
    score = score_values(rho.values, rho.grid.dx)
    integrand = np.where(_gate(rho.values), rho.values * weight * score * score, 0.0)
    return float(np.trapezoid(integrand, dx=rho.grid.dx))

def u_values_on_grid(model: DiffusionModel, grid: Grid1D,
                     drift_values: Optional[np.ndarray] = None) -> np.ndarray:
    """u = v - (1/2) d sigma/dx at the cell centers.  Differences of sigma
    less its first value are exactly 0 for a constant sigma, where numpy's
    one-sided edge stencils on sigma itself leave roundoff."""
    xc = grid.centers
    v = drift_values if drift_values is not None else \
        np.asarray(model.drift(xc), dtype=float)
    sig = model.sigma_profile(xc)
    return v - 0.5 * np.gradient(sig - sig[0], grid.dx, edge_order=2)


def mean_divergence_u(model: DiffusionModel, rho: GridDensity,
                      drift_values: Optional[np.ndarray] = None) -> float:
    """E[div u] under the grid density (central-difference divergence)."""
    grid = rho.grid
    u = u_values_on_grid(model, grid, drift_values)
    div_u = np.gradient(u, grid.dx, edge_order=2)
    return float(np.trapezoid(rho.values * div_u, dx=grid.dx))


def entropy_production_rate(model: DiffusionModel, rho: GridDensity,
                            drift_values: Optional[np.ndarray] = None) -> float:
    """dH/dt = E[div u] + (1/2) E[Gamma(ln rho, ln rho)] by quadrature."""
    return mean_divergence_u(model, rho, drift_values) \
        + 0.5 * fisher_trace_unconditional(model, rho)


def free_surprise_rate(model: DiffusionModel, rho: GridDensity,
                       rho_ss: GridDensity,
                       drift_values: Optional[np.ndarray] = None):
    """Rate of decay of KL(rho || rho_ss), two independent quadratures.

    gamma form: -(1/2) E[Gamma(g, g)] with g = ln(rho/rho_ss);
    flux form:  -2 int J^2 / (rho sigma) with J = rho u - (1/2)(sigma rho)'
    (the prefactor follows from J = -(1/2) rho sigma grad g at any density
    when u derives from the steady state).  Both are non-positive and agree
    to O(dx^2).
    """
    grid = rho.grid
    if rho_ss.grid != grid:
        raise ConfigError("densities must share one grid")
    sig = model.sigma_profile(grid.centers)
    if float(np.min(sig)) <= 0.0:
        raise NumericalError("flux form needs invertible sigma on the grid")
    logs = np.log(np.maximum(rho.values, DENSITY_FLOOR)) \
        - np.log(np.maximum(rho_ss.values, DENSITY_FLOOR))
    dg = np.gradient(logs, grid.dx, edge_order=2)
    mask = _gate(rho.values) & _gate(rho_ss.values)
    gamma_integrand = np.where(mask, rho.values * sig * dg * dg, 0.0)
    gamma_form = -0.5 * float(np.trapezoid(gamma_integrand, dx=grid.dx))

    u = u_values_on_grid(model, grid, drift_values)
    srho = sig * rho.values
    flux = rho.values * u - 0.5 * np.gradient(srho, grid.dx, edge_order=2)
    flux_integrand = np.where(mask, flux * flux / np.maximum(rho.values, DENSITY_FLOOR)
                              / sig, 0.0)
    flux_form = -2.0 * float(np.trapezoid(flux_integrand, dx=grid.dx))
    return gamma_form, flux_form


def fisher_trace_unconditional(model: DiffusionModel, rho: GridDensity) -> float:
    """tr J^rho = E[(d ln rho)^T sigma (d ln rho)] by quadrature."""
    return _fisher(rho, model.sigma_profile(rho.grid.centers))


def cramer_rao_check(rho: GridDensity) -> float:
    """Smallest eigenvalue of Cov(X) - J(X)^{-1} (scalar gap in 1-d)."""
    grid = rho.grid
    xc = grid.centers
    mass = float(np.trapezoid(rho.values, dx=grid.dx))
    mean = float(np.trapezoid(xc * rho.values, dx=grid.dx)) / mass
    cov = float(np.trapezoid((xc - mean) ** 2 * rho.values, dx=grid.dx)) / mass
    j = _fisher(rho, 1.0)
    if j <= 0:
        raise NumericalError("singular Fisher information")
    return cov - 1.0 / j


# ---------------------------------------------------------------------------
# Monte-Carlo estimators over an ensemble
# ---------------------------------------------------------------------------

def _mean_se(values: np.ndarray, mask: np.ndarray):
    vals = values[mask]
    if vals.size == 0:
        raise NumericalError("all trajectories excluded at this sample")
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
    return mean, se


def _stencil_rows(series: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Time derivative along axis 0 on a uniform sample grid.

    Five-point fourth-order stencil in the interior, three-point centered
    next to the ends, one-sided at the ends.
    """
    s_n = series.shape[0]
    if s_n < 2:
        raise ConfigError("need at least two samples for a time derivative")
    dt = float(times[1] - times[0])
    if not np.allclose(np.diff(times), dt, rtol=1e-9, atol=1e-12):
        raise ConfigError("sample times must be uniform")
    out = np.empty_like(series)
    out[0] = (series[1] - series[0]) / dt
    out[-1] = (series[-1] - series[-2]) / dt
    if s_n > 2:
        out[1:-1] = (series[2:] - series[:-2]) / (2.0 * dt)
    if s_n >= 5:
        out[2:-2] = (series[:-4] - 8.0 * series[1:-3] + 8.0 * series[3:-1]
                     - series[4:]) / (12.0 * dt)
    return out


def integrands(run: EnsembleRun, prior: str = "fp") -> dict:
    """Every per-trajectory ledger integrand as an (S, N) array.

    Keys: ``supply``, ``j_pi``, ``d_fisher``, ``d_gamma``, ``i_mc``,
    ``i_zakai``, ``di_dt`` (the time derivative of ``i_mc``) and
    ``control_score`` (beta * grad ln rho(X), or None without controls).
    """
    if prior == "fp":
        log_prior, sr = run.log_prior_fp_at_x, run.score_prior_fp_at_x
    elif prior == "mixture":
        log_prior, sr = run.log_prior_mix_at_x, run.score_prior_mix_at_x
    else:
        raise ConfigError("prior must be 'fp' or 'mixture'")
    err = np.asarray(run.model.observation_map(run.states), dtype=float) - run.pi_h
    sp = run.score_post_at_x
    sig = run.model.sigma_profile(run.states)
    out = dict(supply=0.5 * err * err, j_pi=sig * sp * sp,
               d_gamma=0.5 * sig * (sp - sr) ** 2,
               i_mc=run.log_post_at_x - log_prior,
               i_zakai=run.log_zeta_at_x - run.log_sigma1 - log_prior,
               control_score=None if run.controls is None else run.controls * sr)
    out["d_fisher"] = 0.5 * (out["j_pi"] - sig * sr * sr)
    out["di_dt"] = _stencil_rows(out["i_mc"], run.times)
    return out


def _drift_at(run: EnsembleRun, s: int) -> Optional[np.ndarray]:
    """The shared prior's drift at the centers at sample ``s``: under a
    policy v + mean beta of the recorded controls, else None (the model's v)."""
    if run.controls is None:
        return None
    return mean_drift(run.model, run.grid.centers, run.controls[s])


def _window_mask(run: EnsembleRun, s: int) -> np.ndarray:
    lo = max(0, s - 2)
    hi = min(run.n_samples, s + 3)
    return ~np.any(run.excluded[lo:hi], axis=0)


def _balance(run: EnsembleRun, terms: dict, s: int, d_form: str,
             control_correction: bool):
    """Mean and SE of dI/dt - supply + dissipation at sample ``s``."""
    if d_form not in ("gamma", "fisher"):
        raise ConfigError("d_form must be 'gamma' or 'fisher'")
    rows = terms["di_dt"][s] - terms["supply"][s] + terms["d_" + d_form][s]
    if control_correction and terms["control_score"] is not None:
        rows = rows + terms["control_score"][s]
    return _mean_se(rows, _window_mask(run, s))


def mwz_residual(run: EnsembleRun, t: float, prior: str = "fp",
                 control_correction: bool = False):
    """Residual of the information balance dI/dt = supply - dissipation.

    The derivative of the mutual information uses a five-sample window with
    common random numbers: the per-trajectory integrand ln(post/prior) at
    the truth is differenced in time before averaging, which cancels most of
    the path-to-path variance.

    With feedback the balance closes only with the feedback term of the
    controlled Mayer-Wolf-Zakai balance, the correlation between the
    control and the score of the law of X,

        dI/dt = supply - dissipation - E[beta * grad ln rho(X)],

    which is there under the exact law too: for scalar lqg under
    beta = -K x_hat it is KQ/P, Q = Var(x_hat) and P = Var(X).
    ``control_correction=True`` includes that term (it vanishes
    identically without a policy or with a zero-gain one).
    """
    return _balance(run, integrands(run, prior), run.sample_index(t), "gamma",
                    control_correction)


# ---------------------------------------------------------------------------
# Stand-alone identity checks
# ---------------------------------------------------------------------------

def entropy_rate_scan(model: DiffusionModel, grid: Grid1D, values,
                      times, substep: float) -> np.ndarray:
    """|dH/dt - entropy_production_rate| at each of the ascending ``times``.

    One set of face fields steps the density from ``values`` at t = 0 by
    whole substeps to each time, reached to within half a substep.  There
    dH/dt = -int (1 + ln rho) d_t rho of the semi-discrete flow, with the
    trapezoid weights of :func:`entropy`, and one forward substep gives
    d_t rho exactly, as the step is linear in its length; a backward step
    would be anti-diffusive and can drive tail cells negative.  A substep
    that is not finite and > 0 or is above 0.9 x the CFL limit, or times
    that are not finite, >= 0 and ascending, raise before any step.
    """
    check_finite(substep, "the substep", positive=True)
    times = np.asarray(times, dtype=float)
    if not (np.all(np.isfinite(times)) and np.all(np.diff(times, prepend=0.0) >= 0)):
        raise ConfigError("the scan times must be finite, >= 0 and ascending")
    ff = face_fields(model, grid)
    substeps_for(ff, substep, n_substeps=1)
    vals = np.array(values, dtype=float)
    deviations = np.empty(len(times))
    t_now = 0.0
    for i, t in enumerate(times):
        n = round((t - t_now) / substep)
        if n:
            advance_values(vals, ff, n * substep, n)
            t_now += n * substep
        drho = (advance_values(vals.copy(), ff, substep, 1) - vals) / substep
        integrand = -(1.0 + np.log(np.maximum(vals, DENSITY_FLOOR))) * drho
        fd = float(np.trapezoid(integrand, dx=grid.dx))
        deviations[i] = abs(fd - entropy_production_rate(model, GridDensity(grid, vals)))
    return deviations


def de_bruijn_check(v0: float, t_grid, sigma_sq: float = 1.0,
                    n_cells: int = 1024) -> dict:
    """Deviation |dH/dt - (1/2) tr J^rho| for pure diffusion.

    With v = 0 and constant sigma, E[div u] is 0, so the entropy-production
    theorem is de Bruijn's identity and this is :func:`entropy_rate_scan` of
    a centered Gaussian of variance ``v0``.  Its substep splits the first
    positive time into the fewest substeps within 0.45 x the CFL limit, or
    is 0.45 x that limit when no time is positive.
    """
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    if t_grid.size == 0:
        raise ConfigError("the de Bruijn check needs at least one time")
    check_finite(v0, "v0", positive=True)
    model = brownian(sigma_sq=sigma_sq)
    half = 6.0 * math.sqrt(v0 + sigma_sq * float(t_grid[-1]))
    grid = Grid1D(-half, half, n_cells)
    ff = face_fields(model, grid)
    first = t_grid[t_grid > 0.0]
    substep = first[0] / substeps_for(ff, first[0], 0.45) if first.size \
        else 0.45 * ff.cfl_limit()
    deviations = entropy_rate_scan(model, grid, gaussian_density(grid, 0.0, v0).values,
                                   t_grid, substep)
    return dict(times=t_grid, deviations=deviations,
                max_deviation=float(np.max(deviations)))


# ---------------------------------------------------------------------------
# Ledger
# ---------------------------------------------------------------------------

@dataclass
class InfoLedger:
    times: np.ndarray
    data: dict                      # column name -> (S,) array
    metadata: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        if name == "t":
            return self.times
        return self.data[name]

    def csv_text(self) -> str:
        """Header plus one row per sample time."""
        return csv_text(LEDGER_COLUMNS, [self.column(c) for c in LEDGER_COLUMNS])

    def to_csv(self, path) -> None:
        write_csv(path, LEDGER_COLUMNS, [self.column(c) for c in LEDGER_COLUMNS])

    def all_finite(self) -> bool:
        return all(bool(np.all(np.isfinite(self.column(c))))
                   for c in LEDGER_COLUMNS)

    def invariant_report(self) -> dict:
        d = self.data
        checks = {
            "S_rate_nonneg": bool(np.all(d["S_rate"] >= -3.0 * d["S_rate_se"] - 1e-12)),
            "D_gamma_nonneg": bool(np.all(
                d["D_rate_gamma"] >= -3.0 * d["D_rate_gamma_se"] - 1e-12)),
            "D_forms_agree": bool(np.all(
                np.abs(d["D_rate_fisher"] - d["D_rate_gamma"])
                <= 3.0 * np.hypot(d["D_rate_fisher_se"], d["D_rate_gamma_se"])
                + 1e-12)),
            "I_mc_nonneg": bool(np.all(d["I_mc"] >= -3.0 * d["I_mc_se"] - 1e-12)),
            "dF_dt_nonpos": bool(np.all(d["dF_dt"] <= 1e-10)),
            "all_finite": self.all_finite(),
            "excluded_fraction_ok": bool(
                self.metadata.get("excluded_fraction", 0.0) <= MAX_EXCLUDED_FRACTION),
        }
        checks["all_pass"] = all(checks.values())
        return checks


def assemble_info_ledger(run: EnsembleRun, rho_ss: Optional[GridDensity] = None,
                         prior: str = "fp", d_form: str = "gamma") -> InfoLedger:
    """Evaluate every ledger column at the run's sample times.

    For controlled runs the residual column carries the control-corrected
    balance (see :func:`mwz_residual`); without a policy the two coincide.
    """
    correct = run.controls is not None
    s_n = run.n_samples
    cols = {name: np.empty(s_n) for name in LEDGER_COLUMNS if name != "t"}
    model, grid = run.model, run.grid
    terms = integrands(run, prior)
    per_sample = {"trJ_pi": terms["j_pi"], "S_rate": terms["supply"],
                  "D_rate_fisher": terms["d_fisher"],
                  "D_rate_gamma": terms["d_gamma"], "I_mc": terms["i_mc"]}
    for s in range(s_n):
        drift_vals = _drift_at(run, s)
        rho = GridDensity(grid, run.prior_fp[s])
        cols["H"][s] = entropy(rho)
        cols["dH_dt"][s] = entropy_production_rate(model, rho, drift_vals)
        if rho_ss is not None:
            cols["F"][s] = kl_divergence(rho, rho_ss)
            gamma_form, _ = free_surprise_rate(model, rho, rho_ss, drift_vals)
            cols["dF_dt"][s] = gamma_form
        else:
            cols["F"][s] = 0.0
            cols["dF_dt"][s] = 0.0
        prior_vals = run.prior_fp[s] if prior == "fp" else run.posterior_mean[s]
        cols["trJ_rho"][s] = fisher_trace_unconditional(
            model, GridDensity(grid, prior_vals))
        included = ~run.excluded[s]
        for name, rows in per_sample.items():
            cols[name][s], cols[name + "_se"][s] = _mean_se(rows[s], included)
        cols["mwz_residual"][s], cols["mwz_residual_se"][s] = \
            _balance(run, terms, s, d_form, correct)
    meta = dict(
        n_trajectories=run.n_trajectories, dt=run.config.dt,
        seed=run.config.seed, grid=(grid.x_min, grid.x_max, grid.n_cells),
        prior=prior, d_form=d_form,
        excluded_fraction=run.excluded_fraction(),
        excluded_per_sample=run.excluded.sum(axis=1).tolist(),
        clamp_count=run.clamp_count,
        has_steady_state=rho_ss is not None,
        mwz_control_correction=correct,
    )
    return InfoLedger(times=run.times.copy(), data=cols, metadata=meta)
