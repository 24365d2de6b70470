"""Built-in verification suites.

Every check returns a :class:`CheckResult` of named conditions (value,
comparison, bound).  Its verdict, its printed line and its JSON report are
all read off them.  Suites: ``gaussian`` (exact linear ledgers), ``grid``
(PDE identities and solver properties), ``infoflow`` (Monte-Carlo
information balance), ``feedback`` (controlled runs), ``all``.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import metrics
from .control import (ControlPolicy, linear_gain_policy,
                      run_controlled_experiment, zero_policy)
from .ensemble import EnsembleConfig, run_filter_ensemble
from .errors import ConfigError
from .gaussian import (gaussian_relax_series, kalman_bucy_run,
                       kb_identity_scan, kb_info_rates, lyapunov_series)
from .grid import (Grid1D, GridDensity, advance_values, face_fields,
                   gaussian_density, ks_advance, normalize, observation_values,
                   steady_state_grid, substeps_for, zakai_advance, zakai_step)
from .models import (DiffusionModel, SmoothField, double_well, gamma, lqg,
                     ou, product_field, simulate_joint, step_count)
from .rng import CHANNEL_BOOTSTRAP, CHANNEL_FIELDS, check_seed, substream

DEFAULT_SEED = 20260809
SQRT2 = math.sqrt(2.0)
_OPS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt,
        ">": operator.gt, "==": operator.eq}


class Condition(NamedTuple):
    """One gate of a criterion: it holds when ``value op bound``."""
    label: str
    value: float
    op: str
    bound: float

    def holds(self) -> bool:
        return bool(_OPS[self.op](self.value, self.bound))

    def __str__(self) -> str:
        value, bound = (format(v, "" if isinstance(v, bool) else ".6g")
                        for v in (self.value, self.bound))
        text = f"{self.label}={value} {self.op} {bound}"
        return text if self.holds() else text + " (fails)"


@dataclass
class CheckResult:
    """Passes when every condition holds; ``detail`` notes lie outside it."""
    name: str
    conditions: tuple
    detail: str = ""
    runtime_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.holds() for c in self.conditions)

    @property
    def measured(self) -> float:
        return self.conditions[0].value

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        gate = "; ".join(map(str, self.conditions))
        extra = f" | {self.detail}" if self.detail else ""
        return f"[{tag}] {self.name}: {gate}{extra} ({self.runtime_s:.2f}s)"


def _timed(check: Callable[..., CheckResult]) -> Callable[..., CheckResult]:
    """Record the check's wall time in the ``runtime_s`` of its result."""
    @functools.wraps(check)
    def timed(*args, **kwargs) -> CheckResult:
        start = time.perf_counter()
        res = check(*args, **kwargs)
        res.runtime_s = time.perf_counter() - start
        return res
    return timed


# ---------------------------------------------------------------------------
# Criterion 1: LQG free-surprise dissipation
# ---------------------------------------------------------------------------

@_timed
def check_lqg_free_surprise() -> CheckResult:
    dt = 1e-4
    series = gaussian_relax_series(a=-1.0, sigma_sq=2.0, v0=0.25,
                                   mu0=1.0, horizon=10.0, dt=dt)
    f_vals, df = series["F"], series["dF_dt"]
    fd = (f_vals[2:] - f_vals[:-2]) / (2.0 * dt)
    rel = np.abs(fd - df[1:-1]) / np.maximum(np.abs(df[1:-1]), 1e-300)
    return CheckResult("1 lqg_free_surprise", (
        Condition("max rel err", float(np.max(rel)), "<=", 1e-6),
        Condition("max dF/dt", float(np.max(df)), "<=", 1e-10),
        Condition("F(10)", float(f_vals[-1]), "<=", 1e-6)))


# ---------------------------------------------------------------------------
# Criterion 2: Kalman-Bucy information identity
# ---------------------------------------------------------------------------

@_timed
def check_kb_identity() -> CheckResult:
    scan = kb_identity_scan(a=-1.0, sigma_sq=2.0, c=1.0, v0=0.25,
                            vhat0=0.25, horizon=5.0, dt=1e-4)
    target = (math.sqrt(3.0) - 1.0) / 2.0
    rates = kb_info_rates([[1.0]], [[math.sqrt(3.0) - 1.0]], [[2.0]], [[1.0]])
    st_err = max(abs(rates.S_rate - target), abs(rates.D_rate - target))
    return CheckResult("2 kalman_bucy_identity", (
        Condition("max rel err", scan["max_rel_err"], "<=", 1e-6),
        Condition("stationary |S-D-target|", st_err, "<=", 1e-8)))


# ---------------------------------------------------------------------------
# Criterion 3: entropy-production theorem on the grid
# ---------------------------------------------------------------------------

@_timed
def check_entropy_production_grid() -> CheckResult:
    model = ou(rate=1.0, sigma_sq=2.0)
    devs = []
    for n_cells, substep in ((512, 1e-4), (1024, 5e-5)):  # finer substep within CFL
        grid = Grid1D(-6.0, 6.0, n_cells)
        devs.append(float(np.max(metrics.entropy_rate_scan(
            model, grid, gaussian_density(grid, 0.0, 0.25).values,
            0.05 * np.arange(1, 21), substep))))
    dev_512, dev_1024 = devs
    ratio = dev_512 / max(dev_1024, 1e-300)
    return CheckResult("3 entropy_production_grid", (
        Condition("deviation at 512", dev_512, "<=", 1e-3),
        Condition("512->1024 ratio", ratio, ">=", 3.0)))


# ---------------------------------------------------------------------------
# Criterion 4: de Bruijn identity
# ---------------------------------------------------------------------------

@_timed
def check_de_bruijn() -> CheckResult:
    res = metrics.de_bruijn_check(v0=0.25, t_grid=np.linspace(0.1, 2.0, 20),
                                  sigma_sq=1.0, n_cells=1024)
    return CheckResult("4 de_bruijn", (
        Condition("max deviation", res["max_deviation"], "<=", 1e-3),))


# ---------------------------------------------------------------------------
# Criterion 5: Gaussian-oracle filter equivalence
# ---------------------------------------------------------------------------

@_timed
def check_lqg_grid_filter(seed: int = DEFAULT_SEED,
                          n_trajectories: int = 100) -> CheckResult:
    dt = 2.5e-4
    model = lqg(A=[[-1.0]], B=[[SQRT2]], C=[[1.0]])
    grid = Grid1D(-6.0, 6.0, 512)
    cfg = EnsembleConfig(dt=dt, horizon=3.0, n_trajectories=n_trajectories,
                         seed=seed, sample_stride=400, x0_mean=0.0,
                         x0_var=0.5)
    run = run_filter_ensemble(model, grid, cfg)
    # the Kalman-Bucy filter of the ensemble's own truths and observations
    kb = kalman_bucy_run(model, cfg.x0_mean, cfg.x0_var, cfg.horizon, dt,
                         seed, np.arange(n_trajectories))
    sample_steps = (run.times / dt).round().astype(int)
    vhat = kb.covs[sample_steps][:, None]
    var_err = float(np.max(np.abs(run.post_var - vhat)))
    mean_err = float(np.max(np.abs(run.post_mean - kb.means[sample_steps])
                            / np.sqrt(vhat)))
    return CheckResult("5 lqg_grid_filter", (
        Condition("var err", var_err, "<=", 5e-3),
        Condition("mean err/sqrt(Vhat)", mean_err, "<=", 5e-3)),
        detail=f"N={n_trajectories}")


# ---------------------------------------------------------------------------
# Criteria 6-8: double-well information balance, tower property, feedback
# ---------------------------------------------------------------------------

def _double_well_setup():
    model = double_well(scale=1.0, sigma_sq=0.5, obs_gain=1.0)
    grid = Grid1D(-2.5, 2.5, 256)
    rho_ss = steady_state_grid(model, grid)
    return model, grid, rho_ss


def _double_well_run(seed: int, n_trajectories: int,
                     policy: Optional[ControlPolicy] = None):
    model, grid, rho_ss = _double_well_setup()
    cfg = EnsembleConfig(dt=1e-3, horizon=2.0, n_trajectories=n_trajectories,
                         seed=seed, sample_stride=50, x0_mean=0.0, x0_var=0.25)
    controlled, run = run_controlled_experiment(model, grid, cfg, policy,
                                                rho_ss=rho_ss)
    return controlled.ledger, run


@functools.lru_cache(maxsize=None)
def _double_well_cached(seed: int, n_trajectories: int):
    return _double_well_run(seed, n_trajectories)


MWZ_SAMPLE_INDICES = (4, 8, 12, 16, 20, 24, 28, 32, 36, 38)


def _mwz_violation(ledger) -> float:
    """Worst |residual| / (3 SE) over the designated sample times."""
    resid = ledger.column("mwz_residual")
    se = ledger.column("mwz_residual_se")
    ratios = [abs(resid[i]) / max(3.0 * se[i], 1e-300)
              for i in MWZ_SAMPLE_INDICES]
    return float(np.max(ratios))


@_timed
def check_double_well_mwz(seed: int = DEFAULT_SEED,
                          n_trajectories: int = 2000) -> CheckResult:
    ledger, run = _double_well_cached(seed, n_trajectories)
    worst = _mwz_violation(ledger)
    inv = ledger.invariant_report()
    return CheckResult("6 double_well_mwz", (
        Condition("max |resid|/(3 SE)", worst, "<=", 1.0),
        *(Condition(key, inv[key], "==", True)
          for key in ("S_rate_nonneg", "D_forms_agree", "I_mc_nonneg"))),
        detail=f"residual over 10 sample times, N={n_trajectories}")


@_timed
def check_tower_property(seed: int = DEFAULT_SEED,
                         n_trajectories: int = 2000) -> CheckResult:
    ledger, run = _double_well_cached(seed, n_trajectories)
    dx = run.grid.dx
    final = np.ascontiguousarray(run.posterior_final)   # rows to resample
    mean_post = final.mean(axis=0)
    dist = float(np.sum(np.abs(mean_post - run.prior_fp[-1])) * dx)
    rng = substream(seed, 0, CHANNEL_BOOTSTRAP)
    n = run.n_trajectories
    boot = np.empty(200)
    for b in range(200):
        idx = rng.integers(0, n, size=n)
        boot[b] = float(np.sum(np.abs(
            final[idx].mean(axis=0) - mean_post)) * dx)
    return CheckResult("7 tower_property", (
        Condition("L1 distance", dist, "<=", 3.0 * float(np.mean(boot))),),
        detail=f"L1(mean posterior, FP density), 200 bootstrap draws, N={n}")


@_timed
def check_feedback_lqg(seed: int = DEFAULT_SEED) -> CheckResult:
    model = lqg(A=[[-1.0]], B=[[SQRT2]], C=[[1.0]])
    controlled, plain = (kalman_bucy_run(model, x0_mean=1.0, x0_var=0.25,
                                         horizon=2.0, dt=1e-3, seed=seed,
                                         indices=0, gain=gain)
                         for gain in (0.5, 0.0))
    dv = float(np.max(np.abs(controlled.covs - plain.covs)))
    times = controlled.times
    v_unc = lyapunov_series([[-1.0]], [[2.0]], [[0.25]], times)[:, 0, 0]
    d_rates = 0.0
    for k in range(0, times.size, 200):
        rc = kb_info_rates([[v_unc[k]]], [[controlled.covs[k]]],
                           [[2.0]], [[1.0]])
        ru = kb_info_rates([[v_unc[k]]], [[plain.covs[k]]],
                           [[2.0]], [[1.0]])
        d_rates = max(d_rates, abs(rc.S_rate - ru.S_rate),
                      abs(rc.D_rate - ru.D_rate))
    mean_gap = float(np.max(np.abs(controlled.means - plain.means)))
    return CheckResult("8a feedback_lqg_invariance", (
        Condition("max |dVhat|", dv, "<=", 1e-10),
        Condition("max |d rates|", d_rates, "<=", 1e-10),
        Condition("mean-path gap", mean_gap, ">", 1e-2)))


@_timed
def check_feedback_mwz(seed: int = DEFAULT_SEED,
                       n_trajectories: int = 2000) -> CheckResult:
    policy = linear_gain_policy(gain=0.5, bound=5.0)
    ledger, run = _double_well_run(seed + 1, n_trajectories, policy)
    worst = _mwz_violation(ledger)
    raw = max(
        abs(r) / max(3.0 * se, 1e-300)
        for r, se in (metrics.mwz_residual(run, run.times[i],
                                           control_correction=False)
                      for i in MWZ_SAMPLE_INDICES))
    return CheckResult("8b feedback_mwz", (
        Condition("max |resid|/(3 SE)", worst, "<=", 1.0),),
        detail=f"controlled balance (with control-score term), K=0.5, "
               f"N={n_trajectories}; uncorrected form max |r|/(3 SE) = "
               f"{raw:.2f}; clamps={run.clamp_count}")


@_timed
def check_zero_gain_bitwise(seed: int = DEFAULT_SEED) -> CheckResult:
    model, grid, rho_ss = _double_well_setup()
    cfg = EnsembleConfig(dt=1e-3, horizon=0.5, n_trajectories=200,
                         seed=seed, sample_stride=25, x0_mean=0.0,
                         x0_var=0.25)
    texts = []
    for policy in (None, zero_policy()):
        controlled, _ = run_controlled_experiment(model, grid, cfg, policy,
                                                  rho_ss=rho_ss)
        texts.append(controlled.ledger.csv_text())
    return CheckResult("8c zero_gain_bitwise", (
        Condition("ledger bytes equal", texts[0] == texts[1], "==", True),),
        detail="zero-gain ledger against the uncontrolled ledger")


# ---------------------------------------------------------------------------
# Criterion 9: property suites
# ---------------------------------------------------------------------------

def _random_field(rng, dim: int) -> SmoothField:
    amp = rng.normal(size=3)
    freq = rng.uniform(0.5, 2.0, size=dim)
    lin = rng.normal(size=dim)
    quad = rng.normal(size=dim) * 0.3

    def value(x):
        x = np.atleast_1d(x)
        return (amp[0] * math.sin(float(freq @ x))
                + amp[1] * float(lin @ x)
                + amp[2] * float(quad @ (x * x)))

    def gradient(x):
        x = np.atleast_1d(x)
        return (amp[0] * math.cos(float(freq @ x)) * freq
                + amp[1] * lin + 2.0 * amp[2] * quad * x)

    return SmoothField(value=value, gradient=gradient)


def _random_model(dim: int, b_mat: np.ndarray) -> DiffusionModel:
    sig = b_mat @ b_mat.T
    return DiffusionModel(
        dim_state=dim,
        drift=lambda x: np.zeros(dim),
        sigma=lambda x: sig,
        observation_map=lambda x: np.zeros(1),
        domain_box=[[-5.0, 5.0]] * dim)


def _field_combine(f: SmoothField, g: SmoothField, sign: float) -> SmoothField:
    return SmoothField(
        value=lambda x: f.value(x) + sign * g.value(x),
        gradient=lambda x: f.gradient_at(x) + sign * g.gradient_at(x))


@_timed
def check_gamma_properties(seed: int = DEFAULT_SEED) -> CheckResult:
    rng = substream(seed, 0, CHANNEL_FIELDS)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 3))
        b1 = rng.normal(size=(dim, int(rng.integers(1, 3))))
        b2 = rng.normal(size=(dim, int(rng.integers(1, 3))))
        m1 = _random_model(dim, b1)
        m2 = _random_model(dim, b2)
        m12 = _random_model(dim, np.concatenate([b1, b2], axis=1))
        f = _random_field(rng, dim)
        g = _random_field(rng, dim)
        h = _random_field(rng, dim)
        x = rng.uniform(-2.0, 2.0, size=dim)
        worst = max(worst, -gamma(m1, f, f, x))        # positivity
        plus = _field_combine(f, g, +1.0)
        minus = _field_combine(f, g, -1.0)
        pol = abs(4.0 * gamma(m1, f, g, x)
                  - gamma(m1, plus, plus, x) + gamma(m1, minus, minus, x))
        worst = max(worst, pol)
        bider = abs(gamma(m1, f, product_field(g, h), x)
                    - gamma(m1, f, g, x) * h.value(x)
                    - g.value(x) * gamma(m1, f, h, x))
        worst = max(worst, bider)
        addit = abs(gamma(m12, f, g, x)
                    - gamma(m1, f, g, x) - gamma(m2, f, g, x))
        worst = max(worst, addit)
    return CheckResult("9a gamma_properties", (
        Condition("worst violation", worst, "<=", 1e-10),),
        detail="positivity/polarization/bi-derivation/additivity, 100 fields")


@_timed
def check_mass_conservation() -> CheckResult:
    model = ou(rate=1.0, sigma_sq=2.0)
    grid = Grid1D(-6.0, 6.0, 128)
    ff = face_fields(model, grid)
    dt = 0.5 * ff.cfl_limit()
    vals = gaussian_density(grid, 0.5, 0.3).values
    worst = 0.0
    mass = float(vals.sum() * grid.dx)
    for _ in range(10_000):
        advance_values(vals, ff, dt, 1)
        new_mass = float(vals.sum() * grid.dx)
        worst = max(worst, abs(new_mass - mass))
        mass = new_mass
    return CheckResult("9b fp_mass_conservation", (
        Condition("max per-step mass drift", worst, "<=", 1e-12),),
        detail="over 1e4 steps")


@_timed
def check_zakai_linearity() -> CheckResult:
    model = double_well()
    grid = Grid1D(-2.5, 2.5, 256)
    z1 = gaussian_density(grid, -0.8, 0.2)
    z2 = gaussian_density(grid, 0.9, 0.3)
    a_w, b_w = 0.7, 1.3
    mix = GridDensity(grid, a_w * z1.values + b_w * z2.values)
    dt, dy = 1e-3, 0.04
    kw = dict(n_substeps_half=2)
    out_mix = zakai_step(model, mix, dy, dt, **kw)
    out_sep = (a_w * zakai_step(model, z1, dy, dt, **kw).values
               + b_w * zakai_step(model, z2, dy, dt, **kw).values)
    scale = float(np.max(np.abs(out_sep)))
    gap = float(np.max(np.abs(out_mix.values - out_sep))) / scale
    return CheckResult("9c zakai_linearity", (
        Condition("relative gap", gap, "<=", 1e-12),))


def _ks_zakai_gap(model, grid: Grid1D, dt: float, horizon: float,
                  fine_incs: np.ndarray) -> float:
    """L1 gap at ``horizon`` between the KS density and the normalized Zakai
    density, both driven by ``fine_incs`` summed to steps of ``dt``."""
    n_steps = step_count(horizon, dt)
    incs = fine_incs.reshape(n_steps, -1).sum(axis=1)
    ff = face_fields(model, grid)
    n_half = substeps_for(ff, 0.5 * dt)
    h_vals = observation_values(model, grid)
    zak = gaussian_density(grid, 0.0, 0.25).values
    ks = zak.copy()
    for dy in incs:
        zakai_advance(zak, ff, n_half, h_vals, dy, dt)
        ks_advance(ks, ff, n_half, h_vals, dy, dt)
    zak_n, _ = normalize(GridDensity(grid, zak))
    return float(np.sum(np.abs(zak_n.values - ks)) * grid.dx)


@_timed
def check_ks_zakai_agreement(seed: int = DEFAULT_SEED) -> CheckResult:
    conditions = []
    for model, half in ((lqg(A=[[-1.0]], B=[[SQRT2]], C=[[1.0]]), 6.0),
                        (double_well(), 2.5)):
        grid = Grid1D(-half, half, 256)
        dt_fine = 5e-4
        path = simulate_joint(model, lambda r: r.normal(0.0, 0.5, size=1),
                              0.5, dt_fine / 2.0, seed, 0)
        fine = path.obs_increments[:, 0]
        gap_coarse = _ks_zakai_gap(model, grid, 2.0 * dt_fine, 0.5, fine)
        gap_fine = _ks_zakai_gap(model, grid, dt_fine, 0.5, fine)
        ratio = gap_coarse / max(gap_fine, 1e-300)
        conditions += [Condition(f"{model.name} ratio", ratio, ">=", 1.6),
                       Condition(f"{model.name} ratio", ratio, "<=", 2.4)]
    return CheckResult("9d ks_zakai_agreement", tuple(conditions),
                       detail="L1 gap at 2 dt over L1 gap at dt")


@_timed
def check_cramer_rao() -> CheckResult:
    grid = Grid1D(-8.0, 8.0, 512)
    mix_vals = 0.5 * (gaussian_density(grid, -2.5, 0.3).values
                      + gaussian_density(grid, 2.5, 0.3).values)
    mix = GridDensity(grid, mix_vals / (np.sum(mix_vals) * grid.dx))
    g_gap = metrics.cramer_rao_check(gaussian_density(grid, 0.0, 1.0))
    dw_gap = metrics.cramer_rao_check(_double_well_setup()[2])
    mix_gap = metrics.cramer_rao_check(mix)
    return CheckResult("9e cramer_rao", (
        Condition("gauss gap", g_gap, ">=", -1e-6),
        Condition("|gauss gap|", abs(g_gap), "<=", 1e-3),
        Condition("double-well gap", dw_gap, ">=", -1e-6),
        Condition("mixture gap", mix_gap, ">", 0.5)))


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def run_suite(suite: str, seed: int = DEFAULT_SEED,
              scale: str = "full") -> list:
    if scale not in ("small", "full"):
        raise ConfigError("scale must be 'small' or 'full'")
    check_seed(seed)
    n_big = 2000 if scale == "full" else 300
    n_mid = 100 if scale == "full" else 20
    suites = {
        "gaussian": [check_lqg_free_surprise, check_kb_identity],
        "grid": [check_entropy_production_grid, check_de_bruijn,
                 lambda: check_gamma_properties(seed),
                 check_mass_conservation, check_zakai_linearity,
                 lambda: check_ks_zakai_agreement(seed),
                 check_cramer_rao],
        "infoflow": [lambda: check_lqg_grid_filter(seed, n_mid),
                     lambda: check_double_well_mwz(seed, n_big),
                     lambda: check_tower_property(seed, n_big)],
        "feedback": [lambda: check_feedback_lqg(seed),
                     lambda: check_feedback_mwz(seed, n_big),
                     lambda: check_zero_gain_bitwise(seed)],
    }
    if suite == "all":
        order = ["gaussian", "grid", "infoflow", "feedback"]
        return [res for name in order for res in
                (fn() for fn in suites[name])]
    if suite not in suites:
        raise ConfigError(f"unknown suite {suite!r}; known: "
                          f"{sorted(suites) + ['all']}")
    return [fn() for fn in suites[suite]]
