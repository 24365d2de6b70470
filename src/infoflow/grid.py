"""Finite-volume solvers on a 1-d grid: Fokker-Planck evolution, the Zakai
and Kushner-Stratonovich filter updates, entropy and KL divergence.

The transport update is the conservative flux form

    rho_i <- rho_i - (h/dx) (J_{i+1/2} - J_{i-1/2}),
    J = v rho - (1/2) d(sigma rho)/dx,

with zero-flux boundaries.  Advection uses centered face averages, diffusion
a centered difference of sigma*rho, both second order in dx.  Each face flux
is linear in its two cells, (h/dx) J = p rho_i + q rho_{i+1}, so one substep
is the product with the tridiagonal matrix T,

    rho_i <- lower_i rho_{i-1} + diag_i rho_i + upper_i rho_{i+1},
    lower_i = p_{i-1/2},  diag_i = 1 - p_{i+1/2} + q_{i-1/2},
    upper_i = -q_{i+1/2},

whose columns sum to one, so total mass is conserved to roundoff.  Explicit
stepping is guarded by the stability limit
dt <= safety / (sigma_max/dx^2 + v_max/dx).

Densities are stored cell-major, a bank of N as an (n_cells, N) array, so
a substep of all of them is one compiled sparse product ``T @ X``.  A
control beta_r added to the drift of column r adds (h/2dx) beta_r D(X_r),
with D the centered difference, to that shared product.

The Zakai update is Strang split: half a step of the dual generator, the
multiplicative observation factor exp(h dY - |h|^2 dt / 2) applied in the
log domain, half a step again.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.integrate import cumulative_trapezoid

from .errors import (CflError, ConfigError, FilterCollapseError,
                     NumericalError, UnstableStepError)
from .models import DiffusionModel

DENSITY_FLOOR = 1e-300       # log-domain floor
SCORE_GATE = 1e-12           # score integrands gated at this fraction of max
NEGATIVITY_TOL = -1e-14
EXPONENT_LIMIT = 700.0


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 16:
            raise ConfigError("grid needs at least 16 cells")
        if not self.x_max > self.x_min:
            raise ConfigError("empty grid interval")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + self.dx * (np.arange(self.n_cells) + 0.5)

    @property
    def interior_faces(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(1, self.n_cells)


@dataclass
class GridDensity:
    """Cell-averaged density.  ``log_norm`` is the accumulated log of mass
    divided out so far; for a Zakai density it tracks ln sigma_t(1)."""

    grid: Grid1D
    values: np.ndarray
    log_norm: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[-1] != self.grid.n_cells:
            raise ConfigError("values shape does not match the grid")

    def mass(self) -> float:
        return float(np.sum(self.values, axis=-1) * self.grid.dx)

    def copy(self) -> "GridDensity":
        return GridDensity(self.grid, self.values.copy(), self.log_norm)


def gaussian_density(grid: Grid1D, mean: float, var: float) -> GridDensity:
    """Gaussian cell values rescaled to unit mass on the grid."""
    xc = grid.centers
    vals = np.exp(-0.5 * (xc - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)
    return GridDensity(grid, vals / (np.sum(vals) * grid.dx))


# ---------------------------------------------------------------------------
# Face fields and the conservative kernel
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _tridiagonal_pattern(m: int):
    """CSR (indices, indptr) of an m x m tridiagonal matrix, rows in order."""
    indices = (np.arange(m)[:, None] + np.arange(-1, 2)).ravel()[1:-1].astype(np.int32)
    indptr = np.r_[0, 2:3 * m - 1:3, 3 * m - 2].astype(np.int32)
    indices.flags.writeable = indptr.flags.writeable = False   # shared by all
    return indices, indptr


@functools.lru_cache(maxsize=64)
def _substep_operator(h: float, dx: float, v_face: bytes, sigma: bytes):
    """(T, nonneg): one uncontrolled substep of length ``h`` as an
    (n_cells, n_cells) ``csr_array``, and whether every entry is >= 0.
    Keyed on the fields' bytes, so equal fields share one build."""
    v, sig = np.frombuffer(v_face), np.frombuffer(sigma)
    c, m = h / dx, sig.size
    sd = sig / (2.0 * dx)
    bands = np.zeros((m, 3))                    # rows (lower_i, diag_i, upper_i)
    p, minus_q, diag = bands[1:, 0], bands[:-1, 2], bands[:, 1]
    np.multiply(0.5 * v + sd[:-1], c, out=p)            # c (v/2 + sd_i)
    np.multiply(sd[1:] - 0.5 * v, c, out=minus_q)       # c (sd_{i+1} - v/2)
    diag[:] = 1.0
    diag[:-1] -= p
    diag[1:] -= minus_q
    data = bands.ravel()[1:-1]                  # the walls carry no flux
    op = sp.csr_array((data, *_tridiagonal_pattern(m)), shape=(m, m))
    return op, bool(np.min(data) >= 0.0)


@dataclass
class FaceFields:
    """Drift at interior faces, sigma at cell centers, and an optional control
    ``beta`` (N,) added to the drift of each density column; the scratch of
    the control term is kept."""

    v_face: np.ndarray
    sigma_centers: np.ndarray
    dx: float
    beta: Optional[np.ndarray] = None
    _scratch: Optional[np.ndarray] = field(default=None, init=False,
                                           repr=False, compare=False)

    def cfl_limit(self) -> float:
        vmax = float(np.max(np.abs(self.v_face), initial=0.0))
        if self.beta is not None:
            vmax += float(np.max(np.abs(self.beta), initial=0.0))
        denom = float(np.max(self.sigma_centers)) / self.dx ** 2 + vmax / self.dx
        return 1.0 / denom if denom > 0 else math.inf


def face_fields(model: DiffusionModel, grid: Grid1D) -> FaceFields:
    """Uncontrolled drift at the interior faces and sigma at the centers."""
    if model.dim_state != 1:
        raise ConfigError("grid solvers support 1-d state models only")
    xf = grid.interior_faces
    v = np.asarray(model.drift(xf), dtype=float)
    if v.ndim == 0:
        v = np.full(xf.shape, float(v))
    sig = model.sigma_profile(grid.centers)
    return FaceFields(v_face=v, sigma_centers=np.asarray(sig, dtype=float),
                      dx=grid.dx)


def advance_values(values: np.ndarray, ff: FaceFields, duration: float,
                   n_substeps: int) -> np.ndarray:
    """Advance cell values, (n_cells,) or (n_cells, N) with one density per
    column, in place by ``duration`` in ``n_substeps`` substeps; return them.

    Each substep is one product T @ X, plus (h/2dx) beta D(X) per column
    when ``ff.beta`` is set.  When every entry of T and every input cell is
    >= 0, each output is a sum of products of non-negative numbers and so
    is >= 0 exactly; otherwise a substep that drives any cell below -1e-14
    raises UnstableStepError and cells in [-1e-14, 0) are set to zero."""
    h = duration / n_substeps
    op, nonneg = _substep_operator(h, ff.dx, np.asarray(ff.v_face, float).tobytes(),
                                   np.asarray(ff.sigma_centers, float).tobytes())
    beta = ff.beta
    if beta is not None:
        cb = (h / (2.0 * ff.dx)) * np.asarray(beta)
        if ff._scratch is None or ff._scratch.shape != values.shape:
            ff._scratch = np.empty_like(values)
        diff = ff._scratch
    guarded = beta is not None or not nonneg or float(np.min(values)) < 0.0
    for _ in range(n_substeps):
        if beta is None:
            values[...] = op @ values
        else:                                   # cb D(X) of the old values
            np.subtract(values[:-2], values[2:], out=diff[1:-1])
            diff[0], diff[-1] = -(values[0] + values[1]), values[-2] + values[-1]
            diff *= cb
            np.add(op @ values, diff, out=values)
        if guarded:
            mn = float(np.min(values))
            if mn < NEGATIVITY_TOL:
                idx = np.unravel_index(int(np.argmin(values)), values.shape)
                raise UnstableStepError(
                    f"unstable step: density reached {mn:.3e} at cell {idx[0]}")
            if mn < 0.0:
                np.clip(values, 0.0, None, out=values)
    return values


def substeps_for(ff: FaceFields, duration: float, safety: float = 0.9,
                 n_substeps: Optional[int] = None) -> int:
    """Fewest substeps of ``duration`` within ``safety`` x the CFL limit.

    A given ``n_substeps`` is returned as is, after a CflError if its
    substep exceeds that limit.
    """
    limit = safety * ff.cfl_limit()
    if n_substeps is not None:
        step = abs(duration) / n_substeps
        if step > limit:
            controls = "" if ff.beta is None else f", max|beta|={np.max(np.abs(ff.beta)):.3e}"
            raise CflError(f"step {step:.3e} exceeds the explicit stability "
                           f"limit {limit:.3e} (grid dx={ff.dx:.3e}{controls})")
        return n_substeps
    if not math.isfinite(limit) or limit <= 0:
        return 1
    return max(1, int(math.ceil(abs(duration) / limit)))


def fp_step(model: DiffusionModel, rho: GridDensity, dt: float) -> GridDensity:
    """One explicit Fokker-Planck step.  Mass is conserved to roundoff.

    Raises CflError before stepping if |dt| exceeds the stability limit and
    UnstableStepError if the update drives any cell below -1e-14.
    """
    ff = face_fields(model, rho.grid)
    vals = advance_values(rho.values.copy(), ff, dt,
                          substeps_for(ff, dt, n_substeps=1))
    return GridDensity(rho.grid, vals, rho.log_norm)


def fp_evolve(model: DiffusionModel, rho: GridDensity, duration: float,
              safety: float = 0.9) -> GridDensity:
    """Evolve over a finite horizon with automatic CFL substepping."""
    ff = face_fields(model, rho.grid)
    vals = advance_values(rho.values.copy(), ff, duration,
                          substeps_for(ff, duration, safety))
    return GridDensity(rho.grid, vals, rho.log_norm)


# ---------------------------------------------------------------------------
# Filter updates
# ---------------------------------------------------------------------------

def observation_values(model: DiffusionModel, grid: Grid1D, y_current=None) -> np.ndarray:
    """h at the cell centers, shaped (n_cells,) for scalar observations."""
    hv = np.asarray(model.observation_map(grid.centers, y_current), dtype=float)
    if hv.shape == grid.centers.shape:
        return hv
    raise ConfigError("grid filtering expects an elementwise scalar observation map")


def _increments(delta_y, values: np.ndarray) -> np.ndarray:
    """Observation increments, one per density column of ``values``."""
    dy = np.asarray(delta_y, dtype=float)
    if dy.shape != values.shape[1:]:
        raise ConfigError(f"dY has shape {dy.shape}; one increment per density "
                          f"needs shape {values.shape[1:]}")
    return dy


def zakai_advance(values: np.ndarray, ff: FaceFields, n_half: int,
                  h_vals: np.ndarray, delta_y, dt: float):
    """One Strang-split Zakai step of one density (M,) or a bank (M, N), in
    place.  Half a transport step, the factor exp(h dY - |h|^2 dt / 2), half a
    transport step, with one increment per density in ``delta_y``.  Each
    column's factor is divided by its maximum, returned as ``shift`` for the
    caller's log-normalization ledger.  Returns (values, shift); after an
    error ``values`` is left partly advanced.
    """
    if values.ndim > 2:
        raise ConfigError("zakai_advance takes one density or an (M, N) bank")
    dy = _increments(delta_y, values)
    advance_values(values, ff, 0.5 * dt, n_half)
    expo = np.multiply.outer(h_vals, dy)                # h dY, built in place
    np.subtract(expo.T, 0.5 * h_vals * h_vals * dt, out=expo.T)
    shift = np.max(expo, axis=0)
    peak = max(float(np.max(shift)), -float(np.min(expo)))   # max |expo|
    if peak > EXPONENT_LIMIT:
        h_dy = float(np.max(np.abs(h_vals))) * float(np.max(np.abs(dy)))
        raise UnstableStepError(
            f"observation update overflow: max |h dY - h^2 dt/2| = "
            f"{peak:.3e}, max |h dY| = {h_dy:.3e}")
    expo -= shift
    values *= np.exp(expo, out=expo)
    del expo                                  # freed before the second half
    return advance_values(values, ff, 0.5 * dt, n_half), shift


def zakai_step(model: DiffusionModel, zeta: GridDensity, delta_y, dt: float,
               n_substeps_half: Optional[int] = None,
               y_current=None) -> GridDensity:
    """One Strang-split step of the unnormalized filter density.

    Linear in the density.  The multiplicative factor is applied with its
    per-step maximum shifted into ``log_norm`` so the stored values never
    overflow; the shift is density-independent, preserving linearity.
    """
    ff = face_fields(model, zeta.grid)
    n_sub = substeps_for(ff, 0.5 * dt, n_substeps=n_substeps_half)
    h_vals = observation_values(model, zeta.grid, y_current)
    vals, shift = zakai_advance(zeta.values.copy(), ff, n_sub, h_vals,
                                delta_y, dt)
    return GridDensity(zeta.grid, vals, log_norm=zeta.log_norm + float(shift))


def ks_advance(values: np.ndarray, ff: FaceFields, n_half: int,
               h_vals: np.ndarray, delta_y, dt: float) -> np.ndarray:
    """One step of the normalized (Kushner-Stratonovich) density equation on
    one density (M,), in place; returns it.

    Nonlinear: the innovation dI = dY - pi(h) dt multiplies the centered
    observation fluctuation h - pi(h).  The scalar innovation admits the
    Milstein second-order term, so the pathwise gap to the normalized Zakai
    solution is O(dt).  Renormalizes afterwards (the grid update preserves
    mass only to O(dt^2)).  After an error ``values`` is left partly advanced.
    """
    if values.ndim != 1:
        raise ConfigError("ks_advance takes one density")
    dy = float(_increments(delta_y, values))
    advance_values(values, ff, 0.5 * dt, n_half)
    mass = np.sum(values) * ff.dx
    pi_h = np.sum(values * h_vals) * ff.dx / mass
    pi_h2 = np.sum(values * h_vals * h_vals) * ff.dx / mass
    var_h = pi_h2 - pi_h * pi_h
    di = dy - pi_h * dt
    fluct = h_vals - pi_h
    factor = 1.0 + fluct * di + 0.5 * (fluct * fluct - var_h) * (di * di - dt)
    if np.min(factor) <= 0.0:
        raise UnstableStepError("Kushner-Stratonovich factor lost positivity; "
                                "reduce dt")
    values *= factor
    advance_values(values, ff, 0.5 * dt, n_half)
    values /= np.sum(values) * ff.dx
    return values


def ks_step(model: DiffusionModel, rho_hat: GridDensity, delta_y, dt: float,
            n_substeps_half: Optional[int] = None) -> GridDensity:
    """One Kushner-Stratonovich step (:func:`ks_advance`) of a copy of
    ``rho_hat``; raises CflError before stepping."""
    ff = face_fields(model, rho_hat.grid)
    n_sub = substeps_for(ff, 0.5 * dt, n_substeps=n_substeps_half)
    vals = ks_advance(rho_hat.values.copy(), ff, n_sub,
                      observation_values(model, rho_hat.grid), delta_y, dt)
    return GridDensity(rho_hat.grid, vals, log_norm=rho_hat.log_norm)


def normalize(zeta: GridDensity):
    """Split a filter density into its normalized shape and log-mass.

    Returns (rho_hat, log_mass) where ``log_mass`` is the cumulative
    ln sigma_t(1): the log of the mass just divided out plus everything
    already accumulated in ``zeta.log_norm``.
    """
    mass = zeta.mass()
    if not math.isfinite(mass) or mass <= 0.0:
        raise FilterCollapseError(f"filter collapse: total mass {mass:.3e}")
    log_mass = zeta.log_norm + math.log(mass)
    rho_hat = GridDensity(zeta.grid, zeta.values / mass, log_norm=log_mass)
    return rho_hat, log_mass


# ---------------------------------------------------------------------------
# Entropy, KL divergence and the score
# ---------------------------------------------------------------------------

def _log_values(values: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(values, DENSITY_FLOOR))


def score_values(values: np.ndarray, dx: float) -> np.ndarray:
    """d ln rho / dx along the cell axis 0, by central differences
    (one-sided at the ends)."""
    logs = _log_values(values)
    out = np.empty_like(logs)
    out[1:-1] = (logs[2:] - logs[:-2]) / (2.0 * dx)
    out[0] = (logs[1] - logs[0]) / dx
    out[-1] = (logs[-1] - logs[-2]) / dx
    return out


def entropy(rho: GridDensity) -> float:
    """-int rho ln rho dx by the trapezoid rule, 0 ln 0 taken as 0."""
    vals = rho.values
    integrand = np.where(vals > 0.0, -vals * _log_values(vals), 0.0)
    return float(np.trapezoid(integrand, dx=rho.grid.dx))


def kl_divergence(rho: GridDensity, other: GridDensity) -> float:
    """KL(rho || other) by the trapezoid rule; inf where other has no mass."""
    if other.grid != rho.grid:
        raise ConfigError("KL requires densities on the same grid")
    p, q = rho.values, other.values
    if np.any((p > DENSITY_FLOOR) & (q <= 0.0)):
        return math.inf
    integrand = np.where(p > 0.0, p * (_log_values(p) - _log_values(q)), 0.0)
    return float(np.trapezoid(integrand, dx=rho.grid.dx))


# ---------------------------------------------------------------------------
# Steady state
# ---------------------------------------------------------------------------

def steady_state_grid(model: DiffusionModel, grid: Grid1D,
                      max_time: float = 200.0, tol: float = 1e-10) -> GridDensity:
    """Zero-flux steady state on the grid.

    With constant sigma the exact zero-flux solution rho_ss ~ exp(2 int v/sigma)
    is computed by quadrature of the drift along cell centers; otherwise the
    Fokker-Planck flow is iterated until the sup-norm rate of change per unit
    time falls below ``tol``.
    """
    xc = grid.centers
    sig = model.sigma_profile(xc)
    if float(np.ptp(sig)) <= 1e-14 * float(np.max(np.abs(sig))):
        v = np.asarray(model.drift(xc), dtype=float)
        log_w = cumulative_trapezoid(2.0 * v / sig, xc, initial=0.0)
        log_w -= np.max(log_w)
        vals = np.exp(log_w)
        vals /= np.sum(vals) * grid.dx
        return GridDensity(grid, vals)
    rho = GridDensity(grid, np.full(grid.n_cells, 1.0 / (grid.x_max - grid.x_min)))
    elapsed, chunk = 0.0, 1.0
    while elapsed < max_time:
        new = fp_evolve(model, rho, chunk)
        change = float(np.max(np.abs(new.values - rho.values))) / chunk
        rho = new
        elapsed += chunk
        if change < tol:
            return rho
    raise NumericalError(f"steady state iteration did not converge within "
                         f"t={max_time}: last rate {change:.3e}")
