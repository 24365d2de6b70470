"""Diffusion models, their co-metric geometry, and the coupled path simulator.

A :class:`DiffusionModel` bundles the drift ``v``, the diffusion tensor
``sigma = B B^T`` and the observation map ``h`` of the state/observation pair

    dX = (v(X) + beta) dt + B(X) dW,      dY = h(X) dt + dU,

with ``W`` and ``U`` independent Wiener processes.  The generator, and so
every density, Fisher and co-metric computation, sees the noise only
through ``sigma`` (Bakry, Gentil & Ledoux 2014, section 1.4), so the model
states ``sigma`` alone; the path simulator steps with B = sqrt(sigma), which
has the same law.  The model knows nothing of the control ``beta``: the
simulators add an observation-adapted control to ``v(X)``.

For one-dimensional models, which feed the path simulator and the grid
solvers, ``drift``, ``sigma`` and ``observation_map`` must broadcast
elementwise over numpy arrays of states; all shipped presets do.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, SimulationBlowupError
from .rng import (CHANNEL_DYNAMICS, CHANNEL_INITIAL, CHANNEL_OBSERVATION,
                  substreams)


@dataclass
class SmoothField:
    """Scalar test function with its analytic gradient."""

    value: Callable
    gradient: Callable

    def __call__(self, x):
        return self.value(x)

    def gradient_at(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.atleast_1d(np.asarray(self.gradient(x), dtype=float))


def product_field(f: SmoothField, g: SmoothField) -> SmoothField:
    """Pointwise product f*g with the product-rule gradient."""
    return SmoothField(
        value=lambda x: f.value(x) * g.value(x),
        gradient=lambda x: np.asarray(f.gradient(x)) * g.value(x)
        + f.value(x) * np.asarray(g.gradient(x)),
    )


@dataclass
class DiffusionModel:
    """Coupled state/observation diffusion on R^n.

    Fields
    ------
    drift : callable x -> velocity v(x), same shape as x; a control adds
        to it, v(x) + beta
    sigma : callable x -> diffusion tensor sigma(x) = B(x) B(x)^T; for 1-d
        models elementwise over an array of states, otherwise the (n, n)
        matrix at one point
    observation_map : callable x -> observation drift h(x)
    domain_box : (n, 2) array of [low, high]; trajectories leaving ten
        times this box abort with :class:`SimulationBlowupError`
    """

    dim_state: int
    drift: Callable
    sigma: Callable
    observation_map: Callable
    domain_box: np.ndarray = None
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim_state < 1:
            raise ConfigError("the state dimension must be positive")
        if self.domain_box is None:
            self.domain_box = np.array([[-10.0, 10.0]] * self.dim_state)
        self.domain_box = np.atleast_2d(np.asarray(self.domain_box, dtype=float))
        if self.domain_box.shape != (self.dim_state, 2):
            raise ConfigError("domain_box must have shape (dim_state, 2)")

    @property
    def fd_step(self) -> float:
        """Central-difference step for sigma's divergence: 1e-5 of the box."""
        width = float(np.max(self.domain_box[:, 1] - self.domain_box[:, 0]))
        return 1e-5 * width

    def sigma_profile(self, xs: np.ndarray) -> np.ndarray:
        """sigma(x) at every state of the array ``xs`` of a 1-d model."""
        if self.dim_state != 1:
            raise ConfigError("sigma_profile is only defined for 1-d models")
        sig = np.asarray(self.sigma(xs), dtype=float)
        try:
            return np.broadcast_to(sig, np.shape(xs)).copy()
        except ValueError:
            raise ConfigError(f"sigma of shape {sig.shape} does not broadcast "
                              f"to the states' shape {np.shape(xs)}") from None


@dataclass
class JointPath:
    """Euler-Maruyama realizations of the state/observation pair, one column
    per trajectory."""

    times: np.ndarray          # (K+1,)
    states: np.ndarray         # (K+1, N)
    observations: np.ndarray   # (K+1, N), Y(0) = 0
    obs_increments: np.ndarray  # (K, N)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def sigma_at(model: DiffusionModel, x) -> np.ndarray:
    """Diffusion tensor sigma(x) as an (n, n) matrix."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = model.dim_state
    return np.asarray(model.sigma(x), dtype=float).reshape(n, n)


def gamma(model: DiffusionModel, f: SmoothField, g: SmoothField, x) -> float:
    """Co-metric (carre du champ) of the generator: (grad f)^T sigma (grad g).

    Symmetric, bilinear, positive semi-definite on the diagonal, and a
    bi-derivation in each argument.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sig = sigma_at(model, x)
    return float(f.gradient_at(x) @ sig @ g.gradient_at(x))


def u_field(model: DiffusionModel, x) -> np.ndarray:
    """Drift corrected by the diffusion-tensor divergence.

    u^i = v^i - (1/2) d sigma^{ij} / dx^j, by central differences of step
    ``model.fd_step``.  The probability flux is then
    J = rho u - (1/2) sigma grad rho.  For constant sigma the differences
    are exactly 0, and u == v bit for bit.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.atleast_1d(np.asarray(model.drift(x), dtype=float))
    h = model.fd_step
    n = model.dim_state
    div = np.zeros(n)
    for j in range(n):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        dsig = (sigma_at(model, xp) - sigma_at(model, xm)) / (2.0 * h)
        div += dsig[:, j]
    return v - 0.5 * div


def step_count(horizon: float, dt: float) -> int:
    """Number of Euler-Maruyama steps: ``horizon`` must be a whole number of
    ``dt > 0`` steps, at least one."""
    if not (math.isfinite(horizon) and math.isfinite(dt)):
        raise ConfigError("dt and horizon must be finite")
    if not (dt > 0 and horizon >= dt):
        raise ConfigError("require dt > 0 and horizon >= dt")
    n_steps = int(round(horizon / dt))
    if abs(n_steps * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ConfigError("horizon must be an integer multiple of dt")
    return n_steps


def draw_increments(seed: int, indices, n_steps: int, dt: float,
                    x0_sampler: Callable):
    """Noise of a batch of trajectories: dW and dU as (K, N), and X(0) as (N,).

    Trajectory ``j`` draws dW, dU and ``x0_sampler(rng)`` (one state, a
    scalar or a one-element array) from its own substreams, so each column
    depends on its index alone.  The streams come from ``rng.substreams``,
    one re-seeded generator per channel, so a sampler must not keep its
    ``rng``.  Each trajectory's draws fill one contiguous row; the (K, N)
    arrays are transposed views.
    """
    sq = math.sqrt(dt)
    dw = np.empty((len(indices), n_steps))
    du = np.empty((len(indices), n_steps))
    x0 = np.empty(len(indices))
    for out, channel in ((dw, CHANNEL_DYNAMICS), (du, CHANNEL_OBSERVATION)):
        for row, rng in zip(out, substreams(seed, indices, channel)):
            np.multiply(rng.normal(size=n_steps), sq, out=row)
    for col, rng in enumerate(substreams(seed, indices, CHANNEL_INITIAL)):
        x0[col:col + 1] = x0_sampler(rng)
    return dw.T, du.T, x0


def euler_maruyama(model: DiffusionModel, dt: float, indices) -> Callable:
    """The Euler-Maruyama step of a batch of scalar trajectories.

    Returns ``step(x, beta, dw, du, t)`` -> ``(x', dy)`` with

        x' = x + (v(x) + beta) dt + sqrt(sigma(x)) dw,    dy = h(x) dt + du,

    ``beta`` an optional control per trajectory (Kloeden & Platen 1992,
    Numerical Solution of SDEs, section 10).  A new state outside ten times
    the domain box, or non-finite, raises :class:`SimulationBlowupError`
    naming its trajectory index and the time ``t`` it was reached.
    """
    if model.dim_state != 1:
        raise ConfigError("the path simulator supports scalar models only")
    (low, high), = model.domain_box
    center, half = 0.5 * (low + high), 0.5 * (high - low)
    lo, hi = center - 10.0 * half, center + 10.0 * half

    def step(x, beta, dw, du, t):
        dy = np.asarray(model.observation_map(x), dtype=float) * dt + du
        v = np.asarray(model.drift(x), dtype=float)
        if beta is not None:
            v = v + beta
        x = x + v * dt + np.sqrt(model.sigma(x)) * dw
        if not np.all(np.isfinite(x)) or np.any(x < lo) or np.any(x > hi):
            bad = int(np.argmax(~np.isfinite(x) | (x < lo) | (x > hi)))
            raise SimulationBlowupError(
                f"trajectory {indices[bad]} left 10x the domain box at "
                f"t={t:.6g}: state={x[bad]}")
        return x, dy

    return step


def simulate_joint(model: DiffusionModel, x0_sampler: Callable, horizon: float,
                   dt: float, seed: int, trajectory_index=0) -> JointPath:
    """Euler-Maruyama simulation of (X, Y) trajectories, one column each.

    ``trajectory_index`` is an int or an array of indices; ``x0_sampler(rng)``
    draws one initial state.  The observation increment over
    [t_k, t_k + dt] is h(X(t_k)) dt + dU_k with dU_k ~ N(0, dt).  Each
    column is fully determined by (seed, its index), bit for bit, whatever
    the batch it is simulated in.
    """
    n_steps = step_count(horizon, dt)
    indices = np.atleast_1d(trajectory_index)
    step = euler_maruyama(model, dt, indices)
    dw, du, x0 = draw_increments(seed, indices, n_steps, dt, x0_sampler)
    times = dt * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1, indices.size))
    obs = np.zeros((n_steps + 1, indices.size))
    incs = np.empty((n_steps, indices.size))
    states[0] = x0
    for k in range(n_steps):
        states[k + 1], incs[k] = step(states[k], None, dw[k], du[k], times[k + 1])
        obs[k + 1] = obs[k] + incs[k]
    return JointPath(times=times, states=states, observations=obs,
                     obs_increments=incs)


# ---------------------------------------------------------------------------
# Model presets
# ---------------------------------------------------------------------------

def _require_positive(name: str, value: float) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise ConfigError(f"{name} must be finite and positive, got {value}")


def brownian(sigma_sq: float = 1.0, obs_gain: float = 0.0) -> DiffusionModel:
    """Pure diffusion: v = 0, constant sigma.  No steady state."""
    _require_positive("sigma_sq", sigma_sq)
    return DiffusionModel(
        dim_state=1,
        drift=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        sigma=lambda x: np.full_like(np.asarray(x, dtype=float), sigma_sq),
        observation_map=lambda x: obs_gain * np.asarray(x, dtype=float),
        domain_box=[[-20.0, 20.0]],
        name="brownian", params=dict(sigma_sq=sigma_sq, obs_gain=obs_gain))


def ou(rate: float = 1.0, sigma_sq: float = 2.0, obs_gain: float = 1.0) -> DiffusionModel:
    """Scalar Ornstein-Uhlenbeck: v = -rate*x, steady variance sigma_sq/(2 rate)."""
    _require_positive("rate", rate)
    _require_positive("sigma_sq", sigma_sq)
    sd = math.sqrt(sigma_sq / (2.0 * rate))
    return DiffusionModel(
        dim_state=1,
        drift=lambda x: -rate * np.asarray(x, dtype=float),
        sigma=lambda x: np.full_like(np.asarray(x, dtype=float), sigma_sq),
        observation_map=lambda x: obs_gain * np.asarray(x, dtype=float),
        domain_box=[[-6.0 * sd, 6.0 * sd]],
        name="ou", params=dict(rate=rate, sigma_sq=sigma_sq, obs_gain=obs_gain))


def lqg(A=(-1.0,), B=(1.4142135623730951,), C=(1.0,)) -> DiffusionModel:
    """Scalar linear model dX = A X dt + B dW, dY = C X dt + dU (1x1 A, B, C)."""
    A, B, C = (np.atleast_2d(np.asarray(m, dtype=float)) for m in (A, B, C))
    if any(m.shape != (1, 1) for m in (A, B, C)):
        raise ConfigError("the lqg preset is scalar: A, B and C must be 1x1")
    a, cc = A[0, 0], C[0, 0]
    sigma_sq = B[0, 0] * B[0, 0]
    _require_positive("sigma_sq = B^2", sigma_sq)
    box = np.array([[-10.0, 10.0]])
    if a < 0:   # six steady standard deviations, V_ss = -b^2 / 2a
        sd = math.sqrt(max(-sigma_sq / (2.0 * a), 1e-12))
        box = np.array([[-6.0 * sd, 6.0 * sd]])
    return DiffusionModel(
        dim_state=1,
        drift=lambda x: a * np.asarray(x, dtype=float),
        sigma=lambda x: np.full_like(np.asarray(x, dtype=float), sigma_sq),
        observation_map=lambda x: cc * np.asarray(x, dtype=float),
        domain_box=box,
        name="lqg", params=dict(A=A, B=B, C=C))


def double_well(scale: float = 1.0, sigma_sq: float = 0.5,
                obs_gain: float = 1.0) -> DiffusionModel:
    """Bistable drift v = scale*(x - x^3) with constant sigma."""
    _require_positive("sigma_sq", sigma_sq)
    return DiffusionModel(
        dim_state=1,
        drift=lambda x: scale * (np.asarray(x, dtype=float)
                                 - np.asarray(x, dtype=float) ** 3),
        sigma=lambda x: np.full_like(np.asarray(x, dtype=float), sigma_sq),
        observation_map=lambda x: obs_gain * np.asarray(x, dtype=float),
        # +-2.5 leaves < 1e-11 steady-state mass outside while keeping the
        # boundary mesh Peclet below 2, so the centered flux stays positive
        domain_box=[[-2.5, 2.5]],
        name="double_well", params=dict(scale=scale, sigma_sq=sigma_sq, obs_gain=obs_gain))


PRESETS = {
    "brownian": brownian,
    "ou": ou,
    "lqg": lqg,
    "double_well": double_well,
}


def preset(name: str, **params) -> DiffusionModel:
    """Instantiate a model preset by name."""
    if name not in PRESETS:
        raise ConfigError(f"unknown model preset {name!r}; "
                          f"known: {sorted(PRESETS)}")
    try:
        return PRESETS[name](**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for preset {name!r}: {exc}") from exc


def preset_signature(name: str) -> str:
    fn = PRESETS[name]
    return f"{name}{inspect.signature(fn)}"
