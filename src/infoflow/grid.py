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

whose columns sum to one, so total mass is conserved to roundoff.  A step
runs only when it is proved to keep every cell >= 0 (:func:`advance_values`)
and is refused, before any cell changes, otherwise.

Densities are stored cell-major, a bank of N as an (n_cells, N) array, so
a substep of all of them is one compiled sparse product T X.  The immutable
face fields build T for their substep length on first use as an
(n_cells, 3) band array, its powers by squaring as band arrays, and one
step plan per substep count, with one CSR triple per power: n uncontrolled
substeps are n // 8 products T^8 X and one T^(n % 8) X.  The product runs
scipy's compiled CSR kernels, loaded from their extension file without
importing the scipy.sparse package (:func:`_load_kernels`).
They own a work array of the bank's shape that each product accumulates
into; the bank and the work array trade roles after each product.
A control beta_r added to the drift of column r adds (h/2dx) beta_r D(X_r),
with D the centered difference, written into the work array before T X.

The Zakai update is Strang split: half a step of the dual generator, the
multiplicative observation factor exp(h dY - |h|^2 dt / 2), half a step
again.  It rescales nothing, so it is linear in the density and the
log-mass ln sigma_t(1) is read off the masses.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (CflError, ConfigError, FilterCollapseError,
                     UnstableStepError, check_finite, check_integer)
from .models import DiffusionModel

DENSITY_FLOOR = 1e-300       # log-domain floor
SCORE_GATE = 1e-12           # score integrands gated at this fraction of max
EXPONENT_LIMIT = 700.0
FUSED_SUBSTEPS = 8           # uncontrolled substeps per product: T^8, and T^(n mod 8)
INF_BITS = 0x7FF0000000000000  # +inf as uint64: exactly the finite floats >= +0 lie below


def _load_kernels():
    """scipy's compiled CSR kernels, the module ``scipy.sparse._sparsetools``,
    loaded from its extension file: importing the scipy.sparse package would
    also import its array-API shim, which costs more time and memory than
    the rest of the program.  The module is registered under its own name,
    so a later ``import scipy.sparse`` gets this same module object, and the
    one scipy.sparse loaded is taken if it came first."""
    name = "scipy.sparse._sparsetools"
    if name not in sys.modules:
        scipy = importlib.util.find_spec("scipy")   # runs none of scipy's code
        paths = [os.path.join(folder, "sparse", "_sparsetools" + suffix)
                 for folder in (scipy.submodule_search_locations if scipy else [])
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next(filter(os.path.isfile, paths), None)
        if path is None:
            raise ImportError("scipy's compiled CSR kernels are missing: "
                              + (f"none of {paths}" if paths else "no scipy package"))
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


_sparsetools = _load_kernels()


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        check_integer(self.n_cells, "n_cells", 16)
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ConfigError("grid bounds must be finite")
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
    """One cell-averaged density, values of shape (n_cells,)."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_cells,):
            raise ConfigError("values shape does not match the grid")

    def mass(self) -> float:
        return float(np.sum(self.values) * self.grid.dx)


def gaussian_density(grid: Grid1D, mean: float, var: float) -> GridDensity:
    """Gaussian cell values rescaled to unit mass on the grid.  ConfigError
    for a variance that is not finite and > 0, or a law whose every cell
    underflows to 0."""
    check_finite(var, "the variance", positive=True)
    xc = grid.centers
    vals = np.exp(-0.5 * (xc - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)
    total = np.sum(vals)
    if not total > 0:
        raise ConfigError(f"N({mean}, {var}) has no mass on the grid "
                          f"[{grid.x_min}, {grid.x_max}]")
    return GridDensity(grid, vals / (total * grid.dx))


# ---------------------------------------------------------------------------
# Face fields and the conservative kernel
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _band_pattern(m: int, n: int):
    """CSR (indptr, indices) of an m x m band of half-width ``n``, each row
    in column order, and the mask of the entries inside the matrix in an
    (m, 2n + 1) band array, whose row i holds columns i - n .. i + n."""
    cols = np.arange(m)[:, None] + np.arange(-n, n + 1)
    inside = (cols >= 0) & (cols < m)
    indptr = np.r_[0, np.cumsum(np.count_nonzero(inside, axis=1))].astype(np.int32)
    indices = cols[inside].astype(np.int32)
    for a in (indptr, indices, inside):
        a.flags.writeable = False                   # shared by all
    return indptr, indices, inside


def _band_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The band of A B from the bands of A, (m, 2p + 1), and B, (m, 2q + 1),
    each 0 outside the matrix.  Every entry is summed over A's row in column
    order from 0, as scipy's CSR product sums a row with sorted indices."""
    m, width = a.shape
    rows = np.zeros((m + width - 1, b.shape[1]))   # row k of B at k + p
    rows[width // 2:width // 2 + m] = b
    out = np.zeros((m, width + b.shape[1] - 1))
    for s in range(width):                          # column i - p + s of A's row i
        out[:, s:s + b.shape[1]] += a[:, s:s + 1] * rows[s:s + m]
    return out


@dataclass(frozen=True, eq=False)
class FaceFields:
    """Drift at interior faces, sigma at cell centers, and an optional control
    ``beta`` (N,) added to the drift of each density column, all kept as
    read-only copies: a new drift or control is a new instance
    (``dataclasses.replace``).  It builds its substep operator and its
    powers as band arrays, and its step plans as CSR triples, on first use
    (:meth:`operator`, :meth:`power`, :meth:`plan`) and holds the step's
    one work array (:meth:`workspace`)."""

    v_face: np.ndarray
    sigma_centers: np.ndarray
    dx: float
    beta: Optional[np.ndarray] = None
    _substep: Optional[tuple] = field(default=None, init=False, repr=False)
    _scratch: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for name in ("v_face", "sigma_centers", "beta"):
            value = getattr(self, name)
            if value is not None:
                value = np.array(value, dtype=float)
                value.flags.writeable = False
                object.__setattr__(self, name, value)

    def cfl_limit(self) -> float:
        vmax = float(np.max(np.abs(self.v_face), initial=0.0))
        if self.beta is not None:
            vmax += float(np.max(np.abs(self.beta), initial=0.0))
        denom = float(np.max(self.sigma_centers)) / self.dx ** 2 + vmax / self.dx
        return 1.0 / denom if denom > 0 else math.inf

    def couplings(self) -> tuple:
        """(p, -q) of each interior face per unit h/dx, the flux written as in
        the module docstring: p = v/2 + sigma_i/2dx, -q = sigma_{i+1}/2dx - v/2."""
        sd = self.sigma_centers / (2.0 * self.dx)
        return 0.5 * self.v_face + sd[:-1], sd[1:] - 0.5 * self.v_face

    def check_peclet(self) -> None:
        """ConfigError at the first face whose mesh Peclet number |v| dx /
        (sigma/2), sigma of the cell v points into, exceeds 2: T's coupling < 0."""
        bad = np.flatnonzero(np.minimum(*self.couplings()) < 0.0)
        if bad.size:
            raise ConfigError(f"mesh Peclet number |v| dx / (sigma/2) > 2 at interior face "
                              f"{bad[0]} (v={self.v_face[bad[0]]:.4g}): refine the grid")

    def operator(self, h: float) -> tuple:
        """(T, (lo, hi)): one uncontrolled substep of length ``h`` as a
        read-only (n_cells, 3) band array, row i (lower_i, diag_i, upper_i)
        with 0 outside the matrix, and the controls c = (h/2dx) beta
        with every entry of T + c D >= 0, lo <= c <= hi: c may exceed no
        upper coupling nor diag_0, -c no lower one nor diag_{m-1}, less a
        relative 2^-40 that covers a fused multiply-add.  A T with a negative
        entry is refused: a coupling by :meth:`check_peclet`, a diagonal
        entry by CflError.  Built on first use and kept, with its powers and
        plans, for the last ``h`` asked for."""
        if self._substep is not None and self._substep[0] == h:
            return self._substep[1]
        self.check_peclet()
        c, m = h / self.dx, self.sigma_centers.size
        bands = np.tile([0.0, 1.0, 0.0], (m, 1))   # rows (lower_i, diag_i, upper_i)
        p, minus_q, diag = bands[1:, 0], bands[:-1, 2], bands[:, 1]
        p[:], minus_q[:] = np.multiply(self.couplings(), c)
        diag[:-1] -= p
        diag[1:] -= minus_q
        if not float(np.min(bands)) >= 0.0:
            raise CflError(f"substep {h:.3e} exceeds the explicit stability limit "
                           f"{self.cfl_limit():.3e}: T has a negative entry")
        keep = 1.0 - 2.0 ** -40
        bounds = (-keep * min(float(np.min(p)), diag[-1]),
                  keep * min(float(np.min(minus_q)), diag[0]))
        walls = None
        if self.beta is not None and np.any(self.beta):
            cb = (h / (2.0 * self.dx)) * self.beta
            walls = (cb, diag[0] - cb, minus_q[0] - cb, p[-1] + cb, diag[-1] + cb)
        bands.flags.writeable = False               # the walls carry no flux
        pair = (bands, bounds)
        object.__setattr__(self, "_substep", (h, pair, {1: bands}, walls, {}))
        return pair

    def plan(self, h: float, n: int) -> tuple:
        """((lo, hi), walls, products) of ``n`` substeps of length ``h``:
        the control bounds of :meth:`operator`; None without a non-zero
        control, else c = (h/2dx) beta and T + c D's wall coefficients,
        >= 0 for c in the bounds (diag_0 - c, upper_0 - c, lower_{m-1} + c,
        diag_{m-1} + c); the CSR triples (indptr, indices, data) of n x T under
        a control, else of (n // 8) x T^8 and T^(n % 8), one triple per
        power, which its repeated products share.  Kept while h is."""
        sub = self._substep
        if sub is not None and sub[0] == h and n in sub[4]:
            return sub[4][n]
        _, bounds = self.operator(h)
        walls = self._substep[3]
        if walls is not None:
            counts = [1] * n
        else:
            fused, rest = divmod(n, FUSED_SUBSTEPS)
            counts = [FUSED_SUBSTEPS] * fused + ([rest] if rest else [])
        csr = {}
        for k in set(counts):
            indptr, indices, inside = _band_pattern(self.sigma_centers.size, k)
            csr[k] = indptr, indices, self.power(h, k)[inside]
        plan = bounds, walls, tuple(csr[k] for k in counts)
        self._substep[4][n] = plan
        return plan

    def power(self, h: float, n: int) -> np.ndarray:
        """T^n, ``n`` uncontrolled substeps of length ``h``, as an
        (n_cells, 2n + 1) band array, row i holding columns i - n .. i + n
        with 0 outside the matrix; built on first use as T^(n//2) T^(n - n//2)
        (:func:`_band_product`), kept while ``h`` is."""
        self.operator(h)
        powers = self._substep[2]
        if n not in powers:
            powers[n] = _band_product(self.power(h, n // 2), self.power(h, n - n // 2))
        return powers[n]

    def workspace(self, shape) -> np.ndarray:
        """Scratch of this ``shape``, reused while the shape holds."""
        if self._scratch is None or self._scratch.shape != shape:
            object.__setattr__(self, "_scratch", np.empty(shape))
        return self._scratch

    def trade(self, values: np.ndarray) -> None:
        """Take ``values``, of the work array's shape, as the work array."""
        object.__setattr__(self, "_scratch", values)


def face_fields(model: DiffusionModel, grid: Grid1D) -> FaceFields:
    """Uncontrolled drift at the interior faces and sigma at the centers."""
    if model.dim_state != 1:
        raise ConfigError("grid solvers support 1-d state models only")
    xf = grid.interior_faces
    v = np.broadcast_to(np.asarray(model.drift(xf), dtype=float), xf.shape)
    return FaceFields(v, model.sigma_profile(grid.centers), grid.dx)


def advance_values(values: np.ndarray, ff: FaceFields, duration: float,
                   n_substeps: int) -> np.ndarray:
    """Advance cell values, (n_cells,) or (n_cells, N) with one density per
    column, by ``duration`` in ``n_substeps`` substeps and return them.

    Each product accumulates into ``ff.workspace``, onto zeros or, under a
    non-zero control, onto (h/2dx) beta D(X); the two arrays then swap roles.
    An odd product count leaves the result in the former work array, which
    is returned while ``values`` becomes the work array (a view is written
    back instead), so callers go on with the returned array.

    No cell is checked after a product: each new cell is a sum of products
    of non-negative numbers, so >= 0 exactly.  T has no negative entry
    (:meth:`FaceFields.operator`), nor T^n; uncontrolled, ``FUSED_SUBSTEPS``
    substeps are one product with T^8.  Under controls inside T's bounds an
    interior cell's one negative term, c X_{i+1} (or -c X_{i-1}), rounds to
    no more than the product it cancels, upper_i X_{i+1} (lower_i X_{i-1}),
    and each wall row is formed from its own coefficients, which are >= 0
    (:meth:`FaceFields.plan`).
    Refused before any cell changes: values that are not C-contiguous
    float64, are the work array or hold a cell that is not a finite number
    >= +0 (ConfigError; one pass over the cells' bits, read as uint64),
    T's refusals, a control outside T's bounds (UnstableStepError), a
    substep count that is not an integer >= 1 or a duration that is not
    finite and > 0 (ConfigError)."""
    m = ff.sigma_centers.size
    check_integer(n_substeps, "the substep count", 1)
    check_finite(duration, "the duration", positive=True)
    if values.dtype != np.float64 or not values.flags.c_contiguous \
            or values.shape[:1] != (m,):
        raise ConfigError(f"transport needs C-contiguous float64 cell "
                          f"values with {m} rows, got {values.dtype} {values.shape}")
    src, dst = values, ff.workspace(values.shape)
    if np.may_share_memory(src, dst):
        raise ConfigError("these values are the face fields' work array: go on "
                          "with the array the previous step returned")
    (lo, hi), walls, products = ff.plan(duration / n_substeps, n_substeps)
    bits = values.view(np.uint64)
    if np.maximum.reduce(bits, axis=None) >= INF_BITS:
        bad = tuple(np.argwhere(bits >= INF_BITS)[0].tolist())
        raise ConfigError(f"transport needs finite non-negative cells (>= +0), "
                          f"got {values[bad]} at {bad}")
    if walls is not None:
        cb, a_0, b_0, a_m, b_m = walls
        out = np.flatnonzero(~((lo <= cb) & (cb <= hi)))
        if out.size:
            raise UnstableStepError(
                f"control {np.ravel(ff.beta)[out[0]]:.4g} of column {out[0]} puts "
                f"(h/2dx) beta outside [{lo:.4g}, {hi:.4g}]: T + c D has a negative entry")
    for csr in products:
        if walls is None:
            dst.fill(0.0)
        else:                                   # c D(X) of the old values
            np.subtract(src[:-2], src[2:], out=dst[1:-1])
            dst[1:-1] *= cb
        if values.ndim == 1:                    # dst += T src
            _sparsetools.csr_matvec(m, m, *csr, src, dst)
        else:
            _sparsetools.csr_matvecs(m, m, values.size // m, *csr,
                                     src.reshape(-1), dst.reshape(-1))
        if walls is not None:                   # the wall rows of T + c D
            dst[:1] = a_0 * src[:1] + b_0 * src[1:2]
            dst[-1:] = a_m * src[-2:-1] + b_m * src[-1:]
        src, dst = dst, src
    if src is not values:                       # an odd count ends in the workspace
        if not values.flags.owndata:
            values[...] = src
            return values
        ff.trade(values)
    return src


def substeps_for(ff: FaceFields, duration: float, safety: float = 0.9,
                 n_substeps: Optional[int] = None) -> int:
    """Fewest substeps of ``duration`` within ``safety`` x the CFL limit.

    A given ``n_substeps`` is returned as is, after a ConfigError if it is
    not an integer >= 1 and a CflError if its substep exceeds that limit.
    """
    limit = safety * ff.cfl_limit()
    if n_substeps is not None:
        check_integer(n_substeps, "the substep count", 1)
        step = abs(duration) / n_substeps
        if step > limit:
            controls = "" if ff.beta is None else f", max|beta|={np.max(np.abs(ff.beta)):.3e}"
            raise CflError(f"step {step:.3e} exceeds the explicit stability "
                           f"limit {limit:.3e} (grid dx={ff.dx:.3e}{controls})")
        return n_substeps
    if not math.isfinite(limit) or limit <= 0:
        return 1
    return max(1, int(math.ceil(abs(duration) / limit)))


# ---------------------------------------------------------------------------
# Filter updates
# ---------------------------------------------------------------------------

def observation_values(model: DiffusionModel, grid: Grid1D) -> np.ndarray:
    """h at the cell centers, shaped (n_cells,) for scalar observations."""
    hv = np.asarray(model.observation_map(grid.centers), dtype=float)
    if hv.shape == grid.centers.shape:
        return hv
    raise ConfigError("grid filtering expects an elementwise scalar observation map")


def _increments(delta_y, values: np.ndarray):
    """Observation increments, one per density column of ``values``: a float
    for one density."""
    if isinstance(delta_y, float) and values.ndim == 1:
        return delta_y
    dy = np.asarray(delta_y, dtype=float)
    if dy.shape != values.shape[1:]:
        raise ConfigError(f"dY has shape {dy.shape}; one increment per density "
                          f"needs shape {values.shape[1:]}")
    return float(dy) if values.ndim == 1 else dy


def _non_finite(dy) -> UnstableStepError:
    """The refusal of increments ``dy`` that hold a NaN or an infinity."""
    bad = int(np.argmax(~np.isfinite(dy)))
    return UnstableStepError(f"observation increment dY of density {bad} is "
                             f"{np.ravel(dy)[bad]}, not finite")


def zakai_advance(values: np.ndarray, ff: FaceFields, n_half: int,
                  h_vals: np.ndarray, delta_y, dt: float) -> np.ndarray:
    """One Strang-split Zakai step of one density (M,) or a bank (M, N):
    half a transport step, the factor exp(h dY - |h|^2 dt / 2), half a
    transport step, with one increment per density in ``delta_y``.

    Nothing is rescaled, so the step is linear in the values and the
    caller reads ln sigma_t(1) from the masses.  The exponent is bounded
    from O(M + N) data, |h dY - h^2 dt/2| <= max|h| max|dY| + max(h^2) dt/2,
    and a bound above ``EXPONENT_LIMIT``, like a non-finite dY, raises
    UnstableStepError before any cell changes.  Returns the stepped
    values, which callers go on with (see :func:`advance_values`); after a
    transport error they are left partly advanced.
    """
    if values.ndim > 2:
        raise ConfigError("zakai_advance takes one density or an (M, N) bank")
    dy = _increments(delta_y, values)
    dy_max = abs(dy) if values.ndim == 1 else float(np.maximum.reduce(np.abs(dy)))
    if not dy_max < math.inf:
        raise _non_finite(dy)
    h_max = float(np.maximum.reduce(np.abs(h_vals)))
    bound = h_max * dy_max + 0.5 * h_max * h_max * dt
    if bound > EXPONENT_LIMIT:
        raise UnstableStepError(
            f"observation update overflow: max|h| max|dY| + max(h^2) dt/2 = "
            f"{bound:.3e} exceeds {EXPONENT_LIMIT:g}")
    values = advance_values(values, ff, 0.5 * dt, n_half)
    expo = ff.workspace(values.shape)           # h dY - h^2 dt/2
    half_h2dt = 0.5 * h_vals * h_vals * dt
    if values.ndim == 1:
        np.subtract(np.multiply(h_vals, dy, out=expo), half_h2dt, out=expo)
    else:                                       # the same two roundings, one pass
        np.einsum("ik,kj->ij", np.stack([h_vals, -half_h2dt], axis=1),
                  np.stack([dy, np.ones_like(dy)]), out=expo)
    values *= np.exp(expo, out=expo)
    return advance_values(values, ff, 0.5 * dt, n_half)


def zakai_step(model: DiffusionModel, zeta: GridDensity, delta_y, dt: float,
               n_substeps_half: Optional[int] = None) -> GridDensity:
    """One Strang-split step of the unnormalized filter density.

    Linear in the density: the values carry the step's factor, so ln(mass)
    stays ln sigma_t(1).
    """
    ff = face_fields(model, zeta.grid)
    n_sub = substeps_for(ff, 0.5 * dt, n_substeps=n_substeps_half)
    vals = zakai_advance(zeta.values.copy(), ff, n_sub,
                         observation_values(model, zeta.grid), delta_y, dt)
    return GridDensity(zeta.grid, vals)


def ks_advance(values: np.ndarray, ff: FaceFields, n_half: int,
               h_vals: np.ndarray, delta_y, dt: float) -> np.ndarray:
    """One step of the normalized (Kushner-Stratonovich) density equation on
    one density (M,); returns it (see :func:`advance_values`).

    Nonlinear: the innovation dI = dY - pi(h) dt multiplies the centered
    observation fluctuation h - pi(h).  The scalar innovation admits the
    Milstein second-order term, so the pathwise gap to the normalized Zakai
    solution is O(dt).  Renormalizes afterwards (the grid update preserves
    mass only to O(dt^2)).  A non-finite dY is refused before any cell
    changes, a factor that is not > 0 after the first half, which leaves
    the values partly advanced.
    """
    if values.ndim != 1:
        raise ConfigError("ks_advance takes one density")
    dy = _increments(delta_y, values)
    if not math.isfinite(dy):
        raise _non_finite(dy)
    values = advance_values(values, ff, 0.5 * dt, n_half)
    mass = values.sum() * ff.dx
    moment = values * h_vals
    pi_h = moment.sum() * ff.dx / mass
    moment *= h_vals
    var_h = moment.sum() * ff.dx / mass - pi_h * pi_h
    di = dy - pi_h * dt
    fluct = h_vals - pi_h
    # 1 + fluct dI + (fluct^2 - var_h)/2 (dI^2 - dt), in place, in this order
    factor = np.multiply(fluct, di)
    factor += 1.0
    fluct *= fluct
    fluct -= var_h
    fluct *= 0.5
    fluct *= di * di - dt
    factor += fluct
    if not np.minimum.reduce(factor) > 0.0:
        raise UnstableStepError("Kushner-Stratonovich factor lost positivity; "
                                "reduce dt")
    values *= factor
    values = advance_values(values, ff, 0.5 * dt, n_half)
    values /= values.sum() * ff.dx
    return values


def normalize(zeta: GridDensity):
    """Split a filter density into its normalized shape and log-mass:
    (rho_hat, ln mass), for a Zakai density ln sigma_t(1)."""
    mass = zeta.mass()
    if not math.isfinite(mass) or mass <= 0.0:
        raise FilterCollapseError(f"filter collapse: total mass {mass:.3e}")
    return GridDensity(zeta.grid, zeta.values / mass), math.log(mass)


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
    np.subtract(logs[2:], logs[:-2], out=out[1:-1])
    out[1:-1] /= 2.0 * dx
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

def steady_state_grid(model: DiffusionModel, grid: Grid1D) -> GridDensity:
    """Zero-flux steady state on the grid.

    With constant sigma the exact zero-flux solution rho_ss ~ exp(2 int v/sigma)
    is computed by quadrature of the drift along cell centers; otherwise each
    face's flux in T is zero, rho_{i+1}/rho_i = p/-q of :meth:`FaceFields.couplings`.
    """
    xc = grid.centers
    sig = model.sigma_profile(xc)
    if float(np.ptp(sig)) <= 1e-14 * float(np.max(np.abs(sig))):
        f = 2.0 * np.asarray(model.drift(xc), dtype=float) / sig
        log_steps = np.diff(xc) * (f[1:] + f[:-1]) / 2.0
    else:
        ff = face_fields(model, grid)
        ff.check_peclet()               # else no positive solution exists
        log_steps = np.log(np.divide(*ff.couplings()))
    log_w = np.concatenate(([0.0], np.cumsum(log_steps)))
    log_w -= np.max(log_w)
    vals = np.exp(log_w)
    vals /= np.sum(vals) * grid.dx
    return GridDensity(grid, vals)
