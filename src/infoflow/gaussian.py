"""Exact linear-Gaussian stack: Lyapunov/Riccati propagation, the scalar
relaxation ledger, the Kalman-Bucy filter and its closed-form information
rates.

For dX = A X dt + B dW with sigma = B B^T, the covariance obeys
dV/dt = A V + V A^T + sigma and, when A is Hurwitz, relaxes to the steady
state A V_ss + V_ss A^T + sigma = 0.  For a scalar law N(mu, v) with
a < 0, V_ss = -sigma / (2a), the relaxation ledger
(:func:`gaussian_relax_series`) tracks

    H  = (1/2) ln(2 pi e v)                               (entropy)
    F  = (1/2) (v/V_ss - 1 - ln(v/V_ss) + mu^2/V_ss)      (free surprise)
    dF/dt = -(1/2) sigma v (1/V_ss - 1/v)^2 - (1/2) sigma mu^2 / V_ss^2 <= 0,

where F = KL(N(mu, v) || N(0, V_ss)) = E - H and E, the mean steady-state
surprisal, is the cross entropy of the law against N(0, V_ss).
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
_CHUNK = 4096   # new samples per chunk of a streamed RK4 series


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

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


def _chunk_spans(n: int):
    """(lo, new, hi) of each chunk of the samples 0..n of a streamed series:
    it holds samples lo..hi-1, of which new..hi-1 (at most ``_CHUNK``) are
    new.  From the third sample on, a chunk starts with the last two samples
    of the one before, so a centered difference over the chunks sees each
    interior sample once."""
    for new in range(0, n + 1, _CHUNK):
        yield max(new - 2, 0), new, min(new + _CHUNK, n + 1)


def _rk4_linear_series(rate: float, y0: float, h: float, n: int):
    """y_0..y_n of ``n`` RK4 steps of dy/dt = rate y, one chunk of
    :func:`_chunk_spans` at a time: y0 R^k by one running product of RK4's
    own factor, its stability polynomial R(z) = 1 + z + z^2/2 + z^3/6 +
    z^4/24 at z = rate h (not exp(z)), from one step of y = 1.  Each chunk's
    product starts from the last sample before it, so the chunks are bitwise
    the one-shot product."""
    factor = _rk4_step(lambda y: rate * y, 1.0, h)
    out = np.array([y0])
    for lo, new, hi in _chunk_spans(n):
        keep = max(new - lo, 1)               # the carried samples, or y0
        out = np.concatenate((out[out.size - keep:], np.full(hi - lo - keep, factor)))
        np.multiply.accumulate(out[keep - 1:], out=out[keep - 1:])
        yield out


def _rk4_quadratic_series(lin: float, quad: float, y0: float, h: float,
                          n: int):
    """y_0..y_n of ``n`` RK4 steps of dy/dt = lin y - quad y^2, one chunk of
    :func:`_chunk_spans` at a time: the stages and sums of
    :func:`_rk4_step`, in its order, written out for floats, with y carried
    from chunk to chunk."""
    half, sixth = 0.5 * h, h / 6.0
    out, y = np.array([y0]), y0
    for lo, new, hi in _chunk_spans(n):
        keep = max(new - lo, 1)               # the carried samples, or y0
        out = np.concatenate((out[out.size - keep:], np.empty(hi - lo - keep)))
        for k in range(keep, out.size):
            k1 = lin * y - quad * y * y
            y2 = y + half * k1
            k2 = lin * y2 - quad * y2 * y2
            y3 = y + half * k2
            k3 = lin * y3 - quad * y3 * y3
            y4 = y + h * k3
            k4 = lin * y4 - quad * y4 * y4
            y = out[k] = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield out


def _fd_error(values: np.ndarray, rate: np.ndarray, dt: float):
    """Largest relative error of the centered difference of ``values``
    against ``rate`` over a chunk's interior samples; -inf if it has none."""
    if values.size < 3:
        return -math.inf
    inner = rate[1:-1]
    fd = (values[2:] - values[:-2]) / (2.0 * dt)
    return np.max(np.abs(fd - inner) / np.maximum(np.abs(inner), 1e-300))


def _scan_steps(horizon: float, dt: float) -> int:
    """Steps of a scan's time grid: ConfigError below 2, where its centered
    difference has no interior sample."""
    n_steps = step_count(horizon, dt)
    if n_steps < 2:
        raise ConfigError("a scan's centered difference needs a horizon of "
                          f"at least 2 steps of dt, got {n_steps}")
    return n_steps


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
# Relaxation ledger
# ---------------------------------------------------------------------------

def gaussian_relax_series(a: float, sigma_sq: float, v0: float, mu0: float,
                          horizon: float, dt: float, at=()) -> dict:
    """Scalar relaxation ledger on a uniform grid, cancellation-free, in one
    pass over chunks of the grid.

    Propagates the deviation d = V - V_ss (whose ODE is d' = 2 a d) and the
    mean by RK4, then evaluates F and dF/dt in forms that stay exact in
    relative terms down to F ~ 1e-18.  Returns ``v_ss``; the ledger (times,
    v, mu, F, dF_dt, H) at the grid samples nearest the times ``at``; and
    its reductions over every sample: ``max_rel_err``, the largest relative
    error of the centered difference of F against dF/dt, and ``max_dF_dt``.
    ConfigError, before any step, for fewer than 2 steps or a time of ``at``
    outside [0, horizon].
    """
    for name, value in (("a", a), ("mu0", mu0)):
        check_finite(value, name)
    for name, value in (("sigma_sq", sigma_sq), ("v0", v0)):
        check_finite(value, name, positive=True)
    if not a < 0:
        raise NonHurwitzError("scalar relaxation requires a < 0")
    v_ss = -sigma_sq / (2.0 * a)
    n_steps = _scan_steps(horizon, dt)
    at = np.asarray(at, dtype=float).reshape(-1)
    samples = np.rint(at / dt)
    if not np.all((samples >= 0) & (samples <= n_steps)):
        raise ConfigError(f"ledger times must lie in [0, {horizon}], got {at.tolist()}")
    samples = samples.astype(np.int64)
    names = ("v", "mu", "F", "dF_dt", "H")
    rows = {name: np.empty(samples.size) for name in names}
    worst = top = -math.inf
    # exact-step propagation factors would hide integrator error; keep RK4
    for (lo, new, hi), dev, mu in zip(_chunk_spans(n_steps),
                                      _rk4_linear_series(2.0 * a, v0 - v_ss, dt, n_steps),
                                      _rk4_linear_series(a, mu0, dt, n_steps)):
        v = v_ss + dev
        rel = dev / v_ss
        f = 0.5 * (rel - np.log1p(rel) + mu * mu / v_ss)
        df = -0.5 * sigma_sq * (dev / (v * v_ss)) ** 2 * v - 0.5 * mu * mu * sigma_sq / v_ss ** 2
        h = 0.5 * np.log(v) + 0.5 * (_LOG_2PI + 1.0)
        worst = np.maximum(worst, _fd_error(f, df, dt))
        top = np.maximum(top, np.max(df))
        here = (samples >= new) & (samples < hi)
        for name, values in zip(names, (v, mu, f, df, h)):
            rows[name][here] = values[samples[here] - lo]
    return dict(times=dt * samples, v_ss=v_ss, max_rel_err=float(worst),
                max_dF_dt=float(top), **rows)


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
    even after the filter has essentially reached stationarity.  Returns
    the largest relative error of the centered finite difference of the
    closed-form mutual information against the closed-form rate over the
    interior samples, reduced chunk by chunk, with V_ss and Vhat_ss.
    ConfigError, before any step, for fewer than 2 steps.
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
    n_steps = _scan_steps(horizon, dt)
    c2 = c * c
    resid_ss = 0.5 * c2 * vhat_ss + 0.5 * sigma_sq * (1.0 / v_ss - 1.0 / vhat_ss)
    worst = -math.inf
    for dev, dev_h in zip(  # V - V_ss, and Vhat - Vhat_ss, which is nonlinear
            _rk4_linear_series(2.0 * a, v0 - v_ss, dt, n_steps),
            _rk4_quadratic_series(2.0 * (a - c2 * vhat_ss), c2, vhat0 - vhat_ss,
                                  dt, n_steps)):
        v = v_ss + dev
        vh = vhat_ss + dev_h
        # varying part of (1/2) ln(V/Vhat); the constant stationary part
        # cancels exactly in finite differences
        i_var = 0.5 * (np.log1p(dev / v_ss) - np.log1p(dev_h / vhat_ss))
        rate = (0.5 * c2 * dev_h - 0.5 * sigma_sq * dev / (v * v_ss)
                + 0.5 * sigma_sq * dev_h / (vh * vhat_ss) + resid_ss)
        worst = np.maximum(worst, _fd_error(i_var, rate, dt))
    return dict(max_rel_err=float(worst), v_ss=v_ss, vhat_ss=vhat_ss)
