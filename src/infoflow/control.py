"""Observation-adapted feedback: control policies, the ensemble-mean drift,
and the controlled filtering experiment.

A policy maps (time, posterior summary) to a control value; because the
summary is a functional of the trajectory's own filter state, adaptedness to
the observation filtration holds by construction.  The true state and the
filter then share the controlled drift v(x) + beta, while the shared prior
density evolves under the ensemble-mean drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .ensemble import EnsembleConfig, run_filter_ensemble
from .errors import ConfigError
from .gaussian import LinearModel, riccati_series
from .grid import Grid1D, GridDensity
from .metrics import InfoLedger, assemble_info_ledger
from .models import draw_increments, euler_maruyama, lqg, step_count


@dataclass
class ControlPolicy:
    """Bounded map (t, posterior summary) -> control.

    ``fn`` must act elementwise on an array of posterior summaries (one per
    trajectory).  ``bound`` (finite, >= 0) declares the largest |control|
    the policy may emit; the runner clamps anything beyond it and counts
    the clamps, and uses the bound to budget the grid stability limit.  A
    bound of 0 means unclamped.
    """

    name: str
    fn: Callable
    bound: float = 0.0

    def __post_init__(self):
        if not (self.bound >= 0 and math.isfinite(self.bound)):
            raise ConfigError("policy bound must be finite and >= 0 "
                              f"(0: unclamped), got {self.bound}")

    def __call__(self, t, summary):
        return self.fn(t, np.asarray(summary, dtype=float))


def zero_policy() -> ControlPolicy:
    return ControlPolicy("zero", lambda t, m: np.zeros_like(m), bound=0.0)


def linear_gain_policy(gain: float, bound: float = 10.0) -> ControlPolicy:
    """beta = -gain * posterior mean."""
    return ControlPolicy("linear_gain", lambda t, m: -gain * m, bound=bound)


def bang_bang_policy(threshold: float, level: float) -> ControlPolicy:
    """beta = -level * sign(mean) once |mean| exceeds the threshold."""
    def fn(t, m):
        return np.where(np.abs(m) > threshold, -level * np.sign(m), 0.0)
    return ControlPolicy("bang_bang", fn, bound=abs(level))


POLICIES = {
    "zero": zero_policy,
    "linear_gain": linear_gain_policy,
    "bang_bang": bang_bang_policy,
}


def make_policy(name: str, **params) -> ControlPolicy:
    if name not in POLICIES:
        raise ConfigError(f"unknown policy {name!r}; known: {sorted(POLICIES)}")
    try:
        return POLICIES[name](**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for policy {name!r}: {exc}") from exc


@dataclass
class ControlledLedger:
    """InfoLedger of a controlled run and the number of clamped controls."""

    ledger: InfoLedger
    clamp_count: int = 0


def run_controlled_experiment(model, grid: Grid1D, config: EnsembleConfig,
                              policy: Optional[ControlPolicy] = None,
                              rho_ss: Optional[GridDensity] = None,
                              prior: str = "fp",
                              d_form: str = "gamma"):
    """Filtered ensemble with feedback; returns (ControlledLedger, EnsembleRun).

    With ``policy=None`` the run is the plain uncontrolled experiment; a
    zero-gain policy reproduces it bit for bit under the same seed.
    """
    run = run_filter_ensemble(model, grid, config, policy)
    ledger = assemble_info_ledger(run, rho_ss=rho_ss, prior=prior, d_form=d_form)
    ledger.metadata["policy"] = None if policy is None else policy.name
    return ControlledLedger(ledger=ledger, clamp_count=run.clamp_count), run


# ---------------------------------------------------------------------------
# Controlled Kalman-Bucy experiment (exact linear lane)
# ---------------------------------------------------------------------------

def controlled_kb_experiment(model: LinearModel, gain: float, x0_mean: float,
                             x0_var: float, horizon: float, dt: float,
                             seed: int, trajectory_index: int = 0) -> dict:
    """Scalar Kalman-Bucy filter in closed loop with beta = -gain * Xhat.

    The filter knows the control it applied, so the conditioned mean gains
    the beta drift while the Riccati flow is untouched.  Returns the truth,
    filter mean, conditioned variance and innovation paths.
    """
    if model.n != 1:
        raise ConfigError("the controlled Kalman-Bucy experiment is scalar")
    a = float(model.A[0, 0])
    c = float(model.C[0, 0])
    n_steps = step_count(horizon, dt)
    times = dt * np.arange(n_steps + 1)
    vhat = riccati_series(model, np.array([[x0_var]]), times)[:, 0, 0]

    index = [trajectory_index]
    step = euler_maruyama(lqg(A=model.A, B=model.B, C=model.C), dt, index)
    x0_sd = math.sqrt(x0_var)
    dw, du, x0 = draw_increments(seed, index, n_steps, dt,
                                 lambda rng: x0_mean + x0_sd * rng.normal())

    x = np.empty(n_steps + 1)
    xhat = np.empty(n_steps + 1)
    innov = np.empty(n_steps)
    x[0], xhat[0] = x0[0], x0_mean
    for k in range(n_steps):
        beta = -gain * xhat[k]
        x_next, dy = step(x[k:k + 1], beta, dw[k], du[k], times[k + 1])
        di = dy[0] - c * xhat[k] * dt
        innov[k] = di
        x[k + 1] = x_next[0]
        xhat[k + 1] = xhat[k] + (a * xhat[k] + beta) * dt + vhat[k] * c * di
    return dict(times=times, x=x, xhat=xhat, vhat=vhat, innovations=innov)
