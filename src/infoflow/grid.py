"""Finite-volume solvers on a 1-d grid: Fokker-Planck evolution, the Zakai
and Kushner-Stratonovich filter updates, entropy and KL divergence.

The transport update is the conservative flux form

    rho_i <- rho_i - (h/dx) (J_{i+1/2} - J_{i-1/2}),
    J = v rho - (1/2) d(sigma rho)/dx,

with zero-flux boundaries.  Advection uses centered face averages, diffusion
a centered difference of sigma*rho, both second order in dx.  Each face flux
is linear in its two cells, (h/dx) J = p rho_i + q rho_{i+1}, so one substep
is the tridiagonal product

    rho_i <- lower_i rho_{i-1} + diag_i rho_i + upper_i rho_{i+1},
    lower_i = p_{i-1/2},  diag_i = 1 - p_{i+1/2} + q_{i-1/2},
    upper_i = -q_{i+1/2},

whose columns sum to one, so total mass is conserved to roundoff.  Explicit
stepping is guarded by the stability limit
dt <= safety / (sigma_max/dx^2 + v_max/dx).

The Zakai update is Strang split: half a step of the dual generator, the
multiplicative observation factor exp(h dY - |h|^2 dt / 2) applied in the
log domain, half a step again.  A batch of densities is advanced in place,
one block of ``ROW_BLOCK`` rows at a time, so a block stays in cache through
all three stages.  The transport kernel accepts value arrays of shape
(..., n_cells) and the Zakai step an (N, n_cells) batch, so whole ensembles
advance in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .errors import (CflError, ConfigError, FilterCollapseError,
                     NumericalError, UnstableStepError)
from .models import DiffusionModel

DENSITY_FLOOR = 1e-300       # log-domain floor
SCORE_GATE = 1e-12           # score integrands gated at this fraction of max
NEGATIVITY_TOL = -1e-14
EXPONENT_LIMIT = 700.0
ROW_BLOCK = 64               # densities per Strang block: 128 KB at 256 cells


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

@dataclass
class FaceFields:
    """Precomputed drift at interior faces and sigma at cell centers.

    ``v_face`` may be (n_faces,) or (N, n_faces) for per-trajectory drifts.
    """

    v_face: np.ndarray
    sigma_centers: np.ndarray
    dx: float
    _last: tuple = field(default=(), init=False, repr=False, compare=False)

    def cfl_limit(self) -> float:
        vmax = float(np.max(np.abs(self.v_face))) if self.v_face.size else 0.0
        smax = float(np.max(self.sigma_centers))
        denom = smax / self.dx ** 2 + vmax / self.dx
        if denom <= 0:
            return math.inf
        return 1.0 / denom

    def coefficients(self, h: float):
        """(lower, diag, upper) of one transport substep of length ``h``.

        Shaped (..., n_cells) like the drift rows; ``lower[..., 0]`` and
        ``upper[..., -1]`` are zero because the walls carry no flux.  The
        arrays of the last ``h`` are kept and returned read-only.
        """
        if self._last and self._last[0] == h:
            return self._last[1]
        c = h / self.dx
        sd = self.sigma_centers / (2.0 * self.dx)
        half_v = 0.5 * self.v_face
        shape = half_v.shape[:-1] + (half_v.shape[-1] + 1,)
        lower, diag, upper = np.zeros(shape), np.ones(shape), np.zeros(shape)
        p, minus_q = lower[..., 1:], upper[..., :-1]
        np.add(half_v, sd[:-1], out=p)
        p *= c                                  # p = c (v/2 + sd_i)
        np.subtract(sd[1:], half_v, out=minus_q)
        minus_q *= c                            # -q = c (sd_{i+1} - v/2)
        diag[..., :-1] -= p
        diag[..., 1:] -= minus_q
        for arr in (lower, diag, upper):
            arr.flags.writeable = False
        self._last = (h, (lower, diag, upper))
        return lower, diag, upper


def face_fields(model: DiffusionModel, grid: Grid1D) -> FaceFields:
    """Uncontrolled drift at the interior faces and sigma at the centers."""
    if model.dim_state != 1:
        raise ConfigError("grid solvers support 1-d state models only")
    xf = grid.interior_faces
    v = np.asarray(model.drift(xf, None), dtype=float)
    if v.ndim == 0:
        v = np.full(xf.shape, float(v))
    sig = model.sigma_profile(grid.centers)
    return FaceFields(v_face=v, sigma_centers=np.asarray(sig, dtype=float),
                      dx=grid.dx)


def advance_values(values: np.ndarray, ff: FaceFields, duration: float,
                   n_substeps: int) -> np.ndarray:
    """Advance ``values`` (..., n_cells) in place by ``duration`` in
    ``n_substeps`` explicit substeps and return it.

    A substep that drives any cell below -1e-14 raises UnstableStepError;
    cells in [-1e-14, 0) are set to zero.
    """
    lower, diag, upper = ff.coefficients(duration / n_substeps)
    lower, upper = lower[..., 1:], upper[..., :-1]
    x, y = values, np.empty_like(values)
    tmp = np.empty_like(values[..., 1:])
    for _ in range(n_substeps):
        np.multiply(diag, x, out=y)
        np.multiply(lower, x[..., :-1], out=tmp)
        y[..., 1:] += tmp
        np.multiply(upper, x[..., 1:], out=tmp)
        y[..., :-1] += tmp
        mn = float(np.min(y))
        if mn < NEGATIVITY_TOL:
            idx = np.unravel_index(int(np.argmin(y)), y.shape)
            raise UnstableStepError(
                f"unstable step: density reached {mn:.3e} at cell {idx[-1]}")
        if mn < 0.0:
            np.clip(y, 0.0, None, out=y)
        x, y = y, x
    if x is not values:
        values[...] = x
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
            raise CflError(f"step {step:.3e} exceeds the explicit stability "
                           f"limit {limit:.3e} (grid dx={ff.dx:.3e})")
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
    """Observation increments, one per density row of ``values``."""
    dy = np.asarray(delta_y, dtype=float)
    if dy.shape != values.shape[:-1]:
        raise ConfigError(f"dY has shape {dy.shape}; one increment per density "
                          f"needs shape {values.shape[:-1]}")
    return dy


def zakai_advance(values: np.ndarray, ff: FaceFields, n_half: int,
                  h_vals: np.ndarray, delta_y, dt: float):
    """One Strang-split Zakai step of one density (M,) or a batch (N, M),
    in place.

    Half a transport step, the factor exp(h dY - |h|^2 dt / 2), half a
    transport step, with one increment per density in ``delta_y``, run on
    one block of ``ROW_BLOCK`` rows at a time.  Each row's factor is divided
    by its maximum, returned as ``shift`` for the caller's log-normalization
    ledger.  Returns (values, shift); after an error ``values`` is left
    partly advanced.
    """
    if values.ndim > 2:
        raise ConfigError("zakai_advance takes one density or an (N, M) batch")
    dy = _increments(delta_y, values)
    rows = values[None, :] if values.ndim == 1 else values
    dy_rows = dy.reshape(-1)
    half_h2dt = 0.5 * h_vals * h_vals * dt
    shift = np.empty(rows.shape[0])
    for r0 in range(0, rows.shape[0], ROW_BLOCK):
        block = slice(r0, r0 + ROW_BLOCK)
        vals = rows[block]
        ff_block = ff if ff.v_face.ndim == 1 else FaceFields(
            ff.v_face[block], ff.sigma_centers, ff.dx)
        advance_values(vals, ff_block, 0.5 * dt, n_half)
        h_dy = h_vals * dy_rows[block, None]
        expo = h_dy - half_h2dt
        peak = float(np.max(np.abs(expo)))
        if peak > EXPONENT_LIMIT:
            raise UnstableStepError(
                f"observation update overflow: max |h dY - h^2 dt/2| = "
                f"{peak:.3e}, max |h dY| = {float(np.max(np.abs(h_dy))):.3e}")
        top = np.max(expo, axis=-1)
        expo -= top[:, None]
        vals *= np.exp(expo, out=expo)
        shift[block] = top
        advance_values(vals, ff_block, 0.5 * dt, n_half)
    return values, shift.reshape(dy.shape)


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


def ks_step(model: DiffusionModel, rho_hat: GridDensity, delta_y, dt: float,
            n_substeps_half: Optional[int] = None) -> GridDensity:
    """One step of the normalized (Kushner-Stratonovich) density equation.

    Nonlinear: the innovation dI = dY - pi(h) dt multiplies the centered
    observation fluctuation h - pi(h).  The scalar innovation admits the
    Milstein second-order term, so the pathwise gap to the normalized Zakai
    solution is O(dt).  Renormalizes afterwards (the grid update preserves
    mass only to O(dt^2)).
    """
    grid = rho_hat.grid
    dy = float(_increments(delta_y, rho_hat.values))
    ff = face_fields(model, grid)
    n_sub = substeps_for(ff, 0.5 * dt, n_substeps=n_substeps_half)
    vals = advance_values(rho_hat.values.copy(), ff, 0.5 * dt, n_sub)
    h_vals = observation_values(model, grid)
    mass = np.sum(vals, axis=-1) * grid.dx
    pi_h = np.sum(vals * h_vals, axis=-1) * grid.dx / mass
    pi_h2 = np.sum(vals * h_vals * h_vals, axis=-1) * grid.dx / mass
    var_h = pi_h2 - pi_h * pi_h
    di = dy - pi_h * dt
    fluct = h_vals - pi_h
    factor = 1.0 + fluct * di + 0.5 * (fluct * fluct - var_h) * (di * di - dt)
    if np.min(factor) <= 0.0:
        raise UnstableStepError("Kushner-Stratonovich factor lost positivity; "
                                "reduce dt")
    vals = vals * factor
    vals = advance_values(vals, ff, 0.5 * dt, n_sub)
    vals = vals / (np.sum(vals, axis=-1) * grid.dx)
    return GridDensity(grid, vals, log_norm=rho_hat.log_norm)


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
    """d ln rho / dx by central differences (one-sided at the ends)."""
    logs = _log_values(values)
    out = np.empty_like(logs)
    out[..., 1:-1] = (logs[..., 2:] - logs[..., :-2]) / (2.0 * dx)
    out[..., 0] = (logs[..., 1] - logs[..., 0]) / dx
    out[..., -1] = (logs[..., -1] - logs[..., -2]) / dx
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
        v = np.asarray(model.drift(xc, None), dtype=float)
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
