"""Exact linear-Gaussian stack: Lyapunov/Riccati propagation, the Gaussian
entropy ledger, the Kalman-Bucy filter and its closed-form information rates.

For dX = A X dt + B dW with sigma = B B^T, the covariance obeys
dV/dt = A V + V A^T + sigma and, when A is Hurwitz, relaxes to the steady
state A V_ss + V_ss A^T + sigma = 0.  The ledger tracks

    H  = (1/2) ln|V| + (n/2) ln(2 pi e)                  (entropy)
    E  = (1/2) tr{V_ss^-1 (V + mu mu^T)} + E0            (mean steady surprisal)
    F  = E - H = KL(N(mu, V) || N(0, V_ss))              (free surprise)

with E0 = (1/2) ln((2 pi)^n |V_ss|).  F is non-increasing along the flow.

The mean term in E and its rate are kept so that E equals the expectation of
the steady-state surprisal for any mu; with mu = 0 the rates reduce to the
pure trace forms
    dE/dt = tr{V_ss^-1 A (V - V_ss)},   dH/dt = tr{V^-1 A (V - V_ss)},
    dF/dt = -(1/2) tr{[V_ss^-1 - V^-1] sigma [V_ss^-1 - V^-1] V} <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (ConfigError, CovarianceError, NonHurwitzError,
                     check_finite)
from .models import (DiffusionModel, draw_increments, euler_maruyama,
                     step_count)

_LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass
class GaussianBelief:
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if self.cov.shape != (self.mean.size, self.mean.size):
            raise CovarianceError("mean/cov dimensions disagree")
        if np.max(np.abs(self.cov - self.cov.T)) > 1e-12 * max(1.0, np.max(np.abs(self.cov))):
            raise CovarianceError("covariance is not symmetric")


@dataclass
class SurpriseLedgerPoint:
    t: float
    H: float
    E: float
    F: float
    dH_dt: float
    dE_dt: float
    dF_dt: float


@dataclass
class KBRates:
    S_rate: float
    D_rate: float
    I_rate: float
    I_closed: float


@dataclass
class KalmanRun:
    times: np.ndarray   # (K+1,)
    states: np.ndarray  # (K+1, N), the truths, one column per trajectory
    means: np.ndarray   # (K+1, N), their conditioned means
    covs: np.ndarray    # (K+1,), shared by every trajectory and every gain


# ---------------------------------------------------------------------------
# Symmetric linear algebra with an explicit failure contract
# ---------------------------------------------------------------------------

def _check_pd(mat: np.ndarray, what: str) -> None:
    eig = np.linalg.eigvalsh(mat)
    if eig[0] <= 1e-12 * max(eig[-1], 0.0) or eig[-1] <= 0:
        raise CovarianceError(f"{what} is numerically singular (eig range "
                              f"[{eig[0]:.3e}, {eig[-1]:.3e}])")


def inv_psd(mat: np.ndarray, what: str = "covariance") -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    _check_pd(mat, what)
    return np.linalg.inv(0.5 * (mat + mat.T))


def logdet_psd(mat: np.ndarray, what: str = "covariance") -> float:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    _check_pd(mat, what)
    chol = np.linalg.cholesky(0.5 * (mat + mat.T))
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


# ---------------------------------------------------------------------------
# Lyapunov / Riccati propagation
# ---------------------------------------------------------------------------

def lyapunov_steady(A, sigma) -> np.ndarray:
    """Steady covariance solving A V + V A^T + sigma = 0 (A Hurwitz), as the
    linear system (A (x) I + I (x) A) vec V = -vec sigma.  ConfigError for a
    sigma that is not symmetric or has an eigenvalue below -1e-12 max|sigma|."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(sigma))):
        raise ConfigError("the drift matrix and sigma must be finite")
    tol = 1e-12 * float(np.max(np.abs(sigma)))
    if sigma.shape != A.shape or np.max(np.abs(sigma - sigma.T)) > tol \
            or np.linalg.eigvalsh(sigma)[0] < -tol:
        raise ConfigError(f"sigma must be a symmetric positive semi-definite "
                          f"matrix of the drift matrix's shape, got {sigma.tolist()}")
    if not np.all(np.linalg.eigvals(A).real < 0):
        raise NonHurwitzError("no steady state: drift matrix is not Hurwitz")
    eye = np.eye(A.shape[0])
    vss = np.linalg.solve(np.kron(A, eye) + np.kron(eye, A),
                          -sigma.reshape(-1)).reshape(A.shape)
    vss = 0.5 * (vss + vss.T)
    resid = np.max(np.abs(A @ vss + vss @ A.T + sigma))
    if resid > 1e-10 * max(1.0, np.max(np.abs(sigma))):
        raise NonHurwitzError(f"steady-state residual too large: {resid:.3e}")
    return vss


def _rk4_step(f: Callable, y, h):
    """One classical RK4 step of dy/dt = f(y)."""
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_linear_series(rate: float, y0: float, h: float, n: int) -> np.ndarray:
    """y_0..y_n of ``n`` RK4 steps of dy/dt = rate y: y0 R^k by one running
    product of RK4's own factor, its stability polynomial R(z) = 1 + z + z^2/2
    + z^3/6 + z^4/24 at z = rate h (not exp(z)), from one step of y = 1."""
    out = np.full(n + 1, _rk4_step(lambda y: rate * y, 1.0, h))
    out[0] = y0
    return np.multiply.accumulate(out, out=out)


def _rk4_quadratic_series(lin: float, quad: float, y0: float, h: float,
                          n: int) -> np.ndarray:
    """y_0..y_n of ``n`` RK4 steps of dy/dt = lin y - quad y^2: the stages
    and sums of :func:`_rk4_step`, in its order, written out for floats."""
    out = np.empty(n + 1)
    y = out[0] = y0
    half, sixth = 0.5 * h, h / 6.0
    for k in range(1, n + 1):
        k1 = lin * y - quad * y * y
        y2 = y + half * k1
        k2 = lin * y2 - quad * y2 * y2
        y3 = y + half * k2
        k3 = lin * y3 - quad * y3 * y3
        y4 = y + h * k3
        k4 = lin * y4 - quad * y4 * y4
        y = out[k] = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out


def propagate_gaussian(A, sigma, belief0: GaussianBelief, t: float,
                       dt: float = 1e-3) -> GaussianBelief:
    """Propagate an unconditioned Gaussian law by RK4.

    Mean solves d mu/dt = A mu, covariance solves dV/dt = A V + V A^T + sigma.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ConfigError(f"t must be finite and >= 0, got {t}")
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigError(f"dt must be finite and > 0, got {dt}")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if t == 0:
        return GaussianBelief(belief0.mean.copy(), belief0.cov.copy())
    n_steps = max(1, int(math.ceil(t / dt)))
    h = t / n_steps
    f_cov = lambda v: A @ v + v @ A.T + sigma
    f_mean = lambda m: A @ m
    cov, mean = belief0.cov, belief0.mean
    for _ in range(n_steps):
        cov = _rk4_step(f_cov, cov, h)
        mean = _rk4_step(f_mean, mean, h)
    cov = 0.5 * (cov + cov.T)
    if not np.all(np.isfinite(cov)) or not np.all(np.isfinite(mean)):
        raise CovarianceError("Gaussian propagation became non-finite "
                              f"(t={t}, dt={dt}); reduce the step")
    return GaussianBelief(mean, cov)


def lyapunov_series(A, sigma, v0, times) -> np.ndarray:
    """Covariance V(t) on a time grid, one RK4 step per grid step."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    v0 = np.atleast_2d(np.asarray(v0, dtype=float))
    times = np.asarray(times, dtype=float)
    out = np.empty((times.size,) + v0.shape)
    out[0] = v0
    v = v0
    rhs = lambda m: A @ m + m @ A.T + sigma
    for k in range(times.size - 1):
        v = _rk4_step(rhs, v, times[k + 1] - times[k])
        v = 0.5 * (v + v.T)
        out[k + 1] = v
    return out


def _lqg_coefficients(model: DiffusionModel) -> tuple:
    """(a, sigma, c) of the scalar ``lqg`` preset; ConfigError for any other
    model."""
    if model.name != "lqg":
        raise ConfigError("the Kalman-Bucy filter needs the lqg preset, "
                          f"got {model.name!r}")
    b = float(model.params["B"][0, 0])
    return float(model.params["A"][0, 0]), b * b, float(model.params["C"][0, 0])


def riccati_series(model: DiffusionModel, v0, times) -> np.ndarray:
    """Conditioned variance V^(t) of the ``lqg`` preset, shaped (K+1,),
    solving the Kalman-Bucy Riccati equation

        dV^/dt = 2 a V^ + sigma - c^2 V^^2,

    one RK4 step per grid step.  Raises ConfigError for any other model, and
    CovarianceError with a time stamp if positivity is lost.
    """
    a, s, c = _lqg_coefficients(model)
    c2 = c ** 2
    times = np.asarray(times, dtype=float)
    out = np.empty(times.size)
    v = out[0] = float(np.asarray(v0, dtype=float).reshape(()))
    rhs = lambda y: 2 * a * y + s - c2 * y * y
    for k in range(times.size - 1):
        v = _rk4_step(rhs, v, times[k + 1] - times[k])
        if not (v > 0) or not math.isfinite(v):
            raise CovarianceError(
                f"Riccati solution lost positivity at t={times[k + 1]:.6g}")
        out[k + 1] = v
    return out


# ---------------------------------------------------------------------------
# Entropy ledger
# ---------------------------------------------------------------------------

def gaussian_entropy(cov) -> float:
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    n = cov.shape[0]
    return 0.5 * logdet_psd(cov) + 0.5 * n * (_LOG_2PI + 1.0)


def gaussian_kl(mean1, cov1, mean0, cov0) -> float:
    """KL(N(mean1, cov1) || N(mean0, cov0))."""
    mean1 = np.atleast_1d(np.asarray(mean1, dtype=float))
    mean0 = np.atleast_1d(np.asarray(mean0, dtype=float))
    cov1 = np.atleast_2d(np.asarray(cov1, dtype=float))
    cov0 = np.atleast_2d(np.asarray(cov0, dtype=float))
    n = mean1.size
    inv0 = inv_psd(cov0, "reference covariance")
    dm = mean1 - mean0
    return 0.5 * (float(np.trace(inv0 @ cov1)) - n + float(dm @ inv0 @ dm)
                  + logdet_psd(cov0) - logdet_psd(cov1))


def surprise_ledger(belief: GaussianBelief, v_ss, A, sigma,
                    t: float = 0.0) -> SurpriseLedgerPoint:
    """Entropy / mean-steady-surprisal / free-surprise point with rates.

    F is evaluated through the deviation D = V - V_ss so that it stays
    accurate (and non-negative) arbitrarily close to the steady state.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    v_ss = np.atleast_2d(np.asarray(v_ss, dtype=float))
    v, mu = belief.cov, belief.mean
    n = mu.size

    inv_ss = inv_psd(v_ss, "steady covariance")
    inv_v = inv_psd(v, "covariance")
    dev = v - v_ss

    h_val = gaussian_entropy(v)
    e0 = 0.5 * (n * _LOG_2PI + logdet_psd(v_ss))
    e_val = 0.5 * (float(np.trace(inv_ss @ v)) + float(mu @ inv_ss @ mu)) + e0

    # F via: tr(V_ss^-1 D) - ln|I + V_ss^-1 D|, stable for small D
    m_dev = inv_ss @ dev
    if n == 1:
        d = float(m_dev[0, 0])
        f_core = d - math.log1p(d)
    else:
        sign, ld = np.linalg.slogdet(np.eye(n) + m_dev)
        if sign <= 0:
            raise CovarianceError("free surprise undefined: V not PD relative to V_ss")
        f_core = float(np.trace(m_dev)) - ld
    f_val = 0.5 * (f_core + float(mu @ inv_ss @ mu))

    dh = float(np.trace(inv_v @ A @ dev))
    mean_rate = -0.5 * float(mu @ inv_ss @ sigma @ inv_ss @ mu)
    de = float(np.trace(inv_ss @ A @ dev)) + mean_rate
    gap = inv_ss - inv_v
    df = -0.5 * float(np.trace(gap @ sigma @ gap @ v)) + mean_rate
    return SurpriseLedgerPoint(t=t, H=h_val, E=e_val, F=f_val,
                               dH_dt=dh, dE_dt=de, dF_dt=df)


def gaussian_relax_series(a: float, sigma_sq: float, v0: float, mu0: float,
                          horizon: float, dt: float) -> dict:
    """Scalar relaxation ledger on a uniform grid, cancellation-free.

    Propagates the deviation d = V - V_ss (whose ODE is d' = 2 a d) and the
    mean by RK4, then evaluates F and dF/dt in forms that stay exact in
    relative terms down to F ~ 1e-18.
    """
    for name, value in (("a", a), ("mu0", mu0)):
        check_finite(value, name)
    for name, value in (("sigma_sq", sigma_sq), ("v0", v0)):
        check_finite(value, name, positive=True)
    if not a < 0:
        raise NonHurwitzError("scalar relaxation requires a < 0")
    v_ss = -sigma_sq / (2.0 * a)
    n_steps = step_count(horizon, dt)
    times = dt * np.arange(n_steps + 1)
    # exact-step propagation factors would hide integrator error; keep RK4
    dev = _rk4_linear_series(2.0 * a, v0 - v_ss, dt, n_steps)
    mu = _rk4_linear_series(a, mu0, dt, n_steps)
    v = v_ss + dev
    rel = dev / v_ss
    f = 0.5 * (rel - np.log1p(rel) + mu * mu / v_ss)
    df = -0.5 * sigma_sq * (dev / (v * v_ss)) ** 2 * v - 0.5 * mu * mu * sigma_sq / v_ss ** 2
    h = 0.5 * np.log(v) + 0.5 * (_LOG_2PI + 1.0)
    return dict(times=times, v=v, mu=mu, F=f, dF_dt=df, H=h, v_ss=v_ss)


# ---------------------------------------------------------------------------
# Kalman-Bucy filter
# ---------------------------------------------------------------------------

def kalman_bucy_run(model: DiffusionModel, x0_mean: float, x0_var: float,
                    horizon: float, dt: float, seed: int, indices,
                    gain: float = 0.0) -> KalmanRun:
    """Scalar Kalman-Bucy filter of ``lqg`` trajectories in closed loop with
    beta = -gain Xhat.

    X(0) ~ N(x0_mean, x0_var), and each truth is drawn and stepped as the
    ensemble and :func:`simulate_joint` do, column by column from
    (seed, index).  The filter knows the control it applied, so the
    conditioned mean gains the beta drift,

        Xhat_{k+1} = Xhat_k + (a Xhat_k + beta_k) dt + Vhat_k c (dY_k - c Xhat_k dt),

    while the conditioned variance Vhat solves the Riccati equation, the
    same for every trajectory and every gain.  Gain 0 is the uncontrolled
    filter.  ConfigError, before any draw, for a non-finite mean or gain or
    a variance that is not finite and > 0.
    """
    a, _, c = _lqg_coefficients(model)
    check_finite(x0_mean, "x0_mean")
    check_finite(x0_var, "x0_var", positive=True)
    check_finite(gain, "the gain")
    n_steps = step_count(horizon, dt)
    indices = np.atleast_1d(indices)
    step = euler_maruyama(model, dt, indices)
    x0_sd = math.sqrt(x0_var)
    dw, du, x0 = draw_increments(seed, indices, n_steps, dt,
                                 lambda rng: x0_mean + x0_sd * rng.normal())
    times = dt * np.arange(n_steps + 1)
    covs = riccati_series(model, x0_var, times)
    states = np.empty((n_steps + 1, indices.size))
    means = np.empty_like(states)
    states[0], means[0] = x0, x0_mean
    for k in range(n_steps):
        xh = means[k]
        beta = -gain * xh
        states[k + 1], dy = step(states[k], beta, dw[k], du[k], times[k + 1])
        means[k + 1] = xh + (a * xh + beta) * dt + covs[k] * c * (dy - c * xh * dt)
    return KalmanRun(times=times, states=states, means=means, covs=covs)


def kb_info_rates(v, v_hat, sigma, C) -> KBRates:
    """Closed-form linear-Gaussian information rates.

    supply   = (1/2) tr{C Vhat C^T}
    dissipate= (1/2) tr{sigma (Vhat^-1 - V^-1)}
    I_rate   = supply - dissipate
    I_closed = (1/2) ln(|V| / |Vhat|), the Gaussian mutual information
               between the state and the observation history.
    """
    v = np.atleast_2d(np.asarray(v, dtype=float))
    v_hat = np.atleast_2d(np.asarray(v_hat, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    C = np.asarray(C, dtype=float).reshape(-1, v.shape[0])
    s_rate = 0.5 * float(np.trace(C @ v_hat @ C.T))
    d_rate = 0.5 * float(np.trace(sigma @ (inv_psd(v_hat, "conditioned covariance")
                                           - inv_psd(v, "covariance"))))
    i_closed = 0.5 * (logdet_psd(v) - logdet_psd(v_hat))
    return KBRates(S_rate=s_rate, D_rate=d_rate,
                   I_rate=s_rate - d_rate, I_closed=i_closed)


def kb_identity_scan(a: float, sigma_sq: float, c: float, v0: float,
                     vhat0: float, horizon: float, dt: float) -> dict:
    """Scalar consistency scan of d/dt [ (1/2) ln(V/Vhat) ] = supply - dissipate.

    Propagates the deviations from the stationary pair (V_ss, Vhat_ss) so
    that both sides of the identity remain meaningful (relative accuracy)
    even after the filter has essentially reached stationarity.  Returns the
    interior times, the centered finite difference of the closed-form mutual
    information, the closed-form rate, and their max relative error.
    """
    for name, value in (("a", a), ("c", c)):
        check_finite(value, name)
    for name, value in (("sigma_sq", sigma_sq), ("v0", v0), ("vhat0", vhat0)):
        check_finite(value, name, positive=True)
    if c == 0:
        raise ConfigError("the identity scan needs an observation gain c != 0")
    if not a < 0:
        raise NonHurwitzError("identity scan requires a < 0")
    v_ss = -sigma_sq / (2.0 * a)
    vhat_ss = (a + math.sqrt(a * a + c * c * sigma_sq)) / (c * c)
    n_steps = step_count(horizon, dt)
    times = dt * np.arange(n_steps + 1)

    dev = _rk4_linear_series(2.0 * a, v0 - v_ss, dt, n_steps)  # V - V_ss
    c2 = c * c
    dev_h = _rk4_quadratic_series(2.0 * (a - c2 * vhat_ss), c2, vhat0 - vhat_ss,
                                  dt, n_steps)  # Vhat - Vhat_ss, nonlinear

    v = v_ss + dev
    vh = vhat_ss + dev_h
    # varying part of (1/2) ln(V/Vhat); the constant stationary part cancels
    # exactly in finite differences
    i_var = 0.5 * (np.log1p(dev / v_ss) - np.log1p(dev_h / vhat_ss))
    fd = (i_var[2:] - i_var[:-2]) / (2.0 * dt)
    resid_ss = 0.5 * c2 * vhat_ss + 0.5 * sigma_sq * (1.0 / v_ss - 1.0 / vhat_ss)
    rate = (0.5 * c2 * dev_h - 0.5 * sigma_sq * dev / (v * v_ss)
            + 0.5 * sigma_sq * dev_h / (vh * vhat_ss) + resid_ss)
    rate_in = rate[1:-1]
    rel = np.abs(fd - rate_in) / np.maximum(np.abs(rate_in), 1e-300)
    return dict(times=times[1:-1], fd=fd, rate=rate_in,
                max_rel_err=float(np.max(rel)),
                v=v, v_hat=vh, v_ss=v_ss, vhat_ss=vhat_ss)
