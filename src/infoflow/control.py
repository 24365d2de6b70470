"""Observation-adapted feedback: control policies and the controlled
filtering experiment.

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
from .errors import ConfigError, check_finite
from .grid import Grid1D, GridDensity
from .metrics import InfoLedger, assemble_info_ledger


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
    check_finite(gain, "gain")
    return ControlPolicy("linear_gain", lambda t, m: -gain * m, bound=bound)


def bang_bang_policy(threshold: float, level: float) -> ControlPolicy:
    """beta = -level * sign(mean) once |mean| exceeds the threshold."""
    check_finite(threshold, "threshold")
    check_finite(level, "level")
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
