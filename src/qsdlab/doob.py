"""Doob-transformed Markovian generator and time evolution of measures.

The transform conjugates the absorbed generator by the principal eigenfunction,
``Ltilde f = (1/eta) (L + lambda0) (eta f)``, producing a mass-conserving
generator whose invariant measure is beta = eta^2 * gamma.  Evolution runs on
the measure (adjoint) side with Crank-Nicolson steps.  Both generators are
reversible (the absorbed one in L2(gamma), the transformed one in L2(beta)),
so the measure-side matrix M is similar to a symmetric S = D^-1 M D with a
positive diagonal D (sqrt(gamma), resp. sqrt(beta), up to a constant).  The
stepper runs in w = D^-1 m: it factors the symmetric positive definite
I - aS with LAPACK ``pttrf`` (LDL^T, no pivoting) once per step size, shared
by the segments of a `flow_curve`, and every step is one ``pttrs`` solve with
those factors.  The off-diagonal rows are obtained from the operator rows by
transposition, which keeps the discrete duality exact.

The conditioned semigroup is evolved with the same stepper applied to the
sub-Markovian generator.  Supplying the eigenpair shifts the generator by
lambda0 inside the stepper; the shift is removed analytically from the
recorded survival weight, keeps the unnormalized mass O(1), and makes the
rational time step commute exactly with the eta-conjugation (so the
conditioned flow followed by an eta-tilt reproduces the transformed flow to
roundoff rather than to the time-discretization error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .grid_measure import GridMeasure, chi2_divergence, tilt, tv_distance
from .spectral import EigenPair, TridiagonalOperator

__all__ = [
    "TransformedOperator",
    "FlowState",
    "FlowError",
    "doob_generator",
    "beta_measure",
    "evolve_transformed",
    "conditioned_flow",
    "flow_curve",
    "checkpoint_residual",
    "chi2_decay_curve",
    "default_dt",
]

NEGATIVE_DENSITY_TOL = -1e-10
MASS_UNDERFLOW = 1e-290
RENORM_EVERY = 64


class FlowError(RuntimeError):
    """Raised when a time stepper detects an unusable state."""


@dataclass(frozen=True)
class TransformedOperator:
    """Markovian generator obtained from the Doob transform of ``base``."""

    base: TridiagonalOperator
    eigen: EigenPair
    diag: np.ndarray = field(repr=False)
    off_upper: np.ndarray = field(repr=False)
    off_lower: np.ndarray = field(repr=False)
    beta_weights: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class FlowState:
    """Snapshot of the conditioned law at time t."""

    t: float
    mu_t: GridMeasure
    survival_weight: float
    log_survival: float
    chi2_to_beta: float = None


def doob_generator(op: TridiagonalOperator, eigen: EigenPair) -> TransformedOperator:
    """Conjugate the generator by eta and enforce zero row sums exactly."""
    eta = np.asarray(eigen.eta, dtype=float)
    if np.any(eta <= 0.0):
        raise ValueError("eta must be positive on the grid interior")
    t_up = op.off_upper * eta[1:] / eta[:-1]
    t_low = op.off_lower * eta[:-1] / eta[1:]
    diag = np.zeros(op.grid.n)
    diag[:-1] -= t_up
    diag[1:] -= t_low
    beta = eta**2 * op.gamma_weights
    return TransformedOperator(
        base=op,
        eigen=eigen,
        diag=diag,
        off_upper=t_up,
        off_lower=t_low,
        beta_weights=beta,
    )


def beta_measure(tilde: TransformedOperator) -> GridMeasure:
    """Invariant measure beta = eta^2 * gamma of the transformed semigroup."""
    return GridMeasure(tilde.base.grid, tilde.beta_weights)


def default_dt(grid, lambda0: float = None) -> float:
    """Default Crank-Nicolson step: min(h, 0.01 / lambda0)."""
    dt = grid.h
    if lambda0 is not None and lambda0 > 0.0:
        dt = min(dt, 0.01 / lambda0)
    return dt


def _symmetric_bands(off_upper, off_lower):
    """Scaling d and off band s of S = D^-1 M D, M the measure-side matrix.

    M's sub band is ``off_upper`` and its super band ``off_lower`` (the
    transpose of the operator acting on functions).  With
    d_{i+1}/d_i = sqrt(off_upper_i / off_lower_i), S is symmetric with off
    band sqrt(off_upper * off_lower) and the diagonal of M.  d is built in
    the log domain and centered, so a weight spanning many decades neither
    overflows nor underflows; equal bands (both zero included) give ratio 1.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_ratio = 0.5 * (np.log(off_upper) - np.log(off_lower))
        log_ratio[off_upper == off_lower] = 0.0
        log_d = np.concatenate(([0.0], np.cumsum(log_ratio)))
        d = np.exp(log_d - 0.5 * (log_d.max() + log_d.min()))
    if not (np.isfinite(d).all() and d.min() > 0.0):
        raise FlowError("non-finite generator scaling; the generator must be reversible")
    return d, np.sqrt(off_upper * off_lower)


def _cn_factors(diag, off, a, shift):
    """LAPACK ``pttrf`` (LDL^T) factors of I - a (S + shift), for ``pttrs`` solves.

    S is the symmetric matrix with bands ``diag`` and ``off`` from
    `_symmetric_bands`.  ``pttrs`` does not check its input, so non-finite
    bands are rejected here; a zero or negative pivot (the matrix is not
    positive definite) is rejected as well.
    """
    bands = (1.0 - a * (diag + shift), -a * off)
    if not all(np.isfinite(b).all() for b in bands):
        raise FlowError("non-finite generator band; check the potential and eigenpair")
    *factors, info = dpttrf(*bands)
    if info != 0:
        raise FlowError(f"singular or indefinite stepper matrix (pttrf info {info}); reduce dt")
    return factors


def _cn_run(diag, off_upper, off_lower, m0, duration, dt, shift=0.0, conserve=False, startup=True,
            cache=None):
    """Run Crank-Nicolson over ``duration``; returns (state, accumulated log mass).

    The steps act on w = m / d, with d and the symmetric bands from
    `_symmetric_bands`.  I - aS, a = step/2, is factored once per step size:
    ``cache``, a dict shared by the runs of one `flow_curve`, keeps d and the
    factors of the latest step (the startup runs once per flow, so its
    factors are not kept).  Each step is one ``pttrs`` solve, y = (I - aS)^-1
    w, and w <- 2y - w, which equals (I - aS)^-1 (I + aS) w without the
    explicit multiply.  As d > 0, w has the sign of m: m = d w is formed for
    the negativity test only when w has a negative (or NaN) entry, and for
    the renormalizations the mass is d @ w.

    With ``startup`` the first two steps are replaced by implicit-Euler
    quarter-steps (Rannacher smoothing): initial densities need not vanish at
    the absorbing endpoints, and the L-stable startup damps the incompatible
    stiff content that Crank-Nicolson would carry as slowly decaying
    oscillations, without losing second-order accuracy overall.

    With ``conserve`` the mass is checked to stay within roundoff of its
    initial value before the final normalization (Markovian flows).
    """
    log_mass = 0.0
    if duration == 0.0:
        return m0.copy(), log_mass
    steps = max(1, math.ceil(duration / dt))
    step = duration / steps
    cache = {} if cache is None else cache
    d, off = cache.get("scaling") or _symmetric_bands(off_upper, off_lower)
    if cache.get("step") != step:
        cn = _cn_factors(diag, off, 0.5 * step, shift)
        cn[0] *= 0.5  # halving the pivots (exact) makes each solve return 2y directly
        cache.update(scaling=(d, off), step=step, cn=cn)
    cn = cache["cn"]
    n_startup = min(2, steps) if startup else 0
    if n_startup:
        ie = _cn_factors(diag, off, 0.25 * step, shift)
    mass0 = float(m0.sum())
    w = m0 / d
    for k in range(steps):
        if k < n_startup:
            for _ in range(4):
                w, _ = dpttrs(*ie, w, overwrite_b=True)
        else:
            y, _ = dpttrs(*cn, w)
            y -= w
            w = y
        # "not >=" also sends a NaN to the test, which every comparison fails
        if not w.min() >= 0.0:
            m = d * w
            low = float(m.min())
            if not low >= NEGATIVE_DENSITY_TOL * max(float(m.max()), -low):
                raise FlowError(
                    f"negative density {low:.3e} after step {k + 1}; reduce dt"
                )
        if (k + 1) % RENORM_EVERY == 0:
            mass = float(d @ w)
            if mass < MASS_UNDERFLOW:
                raise FlowError(
                    "total mass underflow; restart the flow from the "
                    "normalized state (semi-flow property)"
                )
            log_mass += math.log(mass / mass0)
            w *= mass0 / mass
    m = d * w
    mass = float(m.sum())
    log_mass += math.log(mass / mass0)
    m *= mass0 / mass
    if conserve and abs(math.expm1(log_mass)) > 1e-8:
        raise FlowError(f"mass drifted by {math.expm1(log_mass):.3e} during evolution")
    return m, log_mass


def evolve_transformed(tilde: TransformedOperator, nu: GridMeasure, t: float, dt: float) -> GridMeasure:
    """Evolve a measure under the transformed (Markovian) semigroup."""
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if nu.grid != tilde.base.grid:
        raise ValueError("measure lives on a different grid")
    if t == 0.0:
        return nu
    m, _ = _cn_run(
        tilde.diag, tilde.off_upper, tilde.off_lower, nu.density, t, dt, conserve=True
    )
    return GridMeasure(tilde.base.grid, np.clip(m, 0.0, None))


def flow_curve(
    op: TridiagonalOperator,
    mu: GridMeasure,
    times,
    dt: float,
    eigen: EigenPair = None,
    smooth_start: bool = True,
) -> list[FlowState]:
    """Conditioned law at the requested times via checkpointed restarts.

    The evolution proceeds segment by segment (the semi-flow property makes
    restarting from the normalized state exact up to the recorded log of the
    surviving mass).  With ``eigen`` supplied, the stepper shifts the
    generator by lambda0 and the chi-square distance of eta*mu_t to beta is
    recorded on each snapshot.  ``smooth_start`` applies the Rannacher
    startup once at t=0; disable it when composing flows whose initial
    density already vanishes at the absorbing endpoints.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("need a nonempty 1D array of times")
    if np.any(times < 0.0) or np.any(np.diff(times) < 0.0):
        raise ValueError("times must be nonnegative and nondecreasing")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if mu.grid != op.grid:
        raise ValueError("measure lives on a different grid")

    shift = eigen.lambda0 if eigen is not None else 0.0
    beta = None
    if eigen is not None:
        beta = GridMeasure(op.grid, eigen.eta**2 * op.gamma_weights)

    cache = {}
    states = []
    m = mu.density.copy()
    log_surv = 0.0
    t_prev = 0.0
    smoothed = not smooth_start
    for t in times:
        seg = t - t_prev
        m, log_mass = _cn_run(
            op.diag, op.off_upper, op.off_lower, m, seg, dt,
            shift=shift, startup=not smoothed, cache=cache,
        )
        if seg > 0.0:
            smoothed = True
        log_surv += log_mass - shift * seg
        t_prev = t
        mu_t = GridMeasure(op.grid, np.clip(m, 0.0, None))
        chi2 = None
        if beta is not None:
            chi2 = chi2_divergence(tilt(eigen.eta, mu_t), beta)
        states.append(
            FlowState(
                t=float(t),
                mu_t=mu_t,
                survival_weight=min(math.exp(log_surv), 1.0) if log_surv > -700 else 0.0,
                log_survival=log_surv,
                chi2_to_beta=chi2,
            )
        )
    return states


def conditioned_flow(
    op: TridiagonalOperator,
    mu: GridMeasure,
    t: float,
    dt: float,
    eigen: EigenPair = None,
    smooth_start: bool = True,
) -> FlowState:
    """Conditioned law phi_t(mu) with its survival weight."""
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    return flow_curve(op, mu, [t], dt, eigen=eigen, smooth_start=smooth_start)[-1]


def checkpoint_residual(
    op: TridiagonalOperator,
    eigen: EigenPair,
    mu: GridMeasure,
    t: float,
    dt: float,
) -> float:
    """TV distance between eta*phi_t(mu) and (eta*mu) evolved by the transform.

    Both sides use the same Crank-Nicolson stepper and step count, so the
    residual reflects only the inexactness of the discrete conjugation.
    """
    lhs = tilt(eigen.eta, conditioned_flow(op, mu, t, dt, eigen=eigen).mu_t)
    tilde = doob_generator(op, eigen)
    rhs = evolve_transformed(tilde, tilt(eigen.eta, mu), t, dt)
    return tv_distance(lhs, rhs)


def chi2_decay_curve(
    op: TridiagonalOperator,
    eigen: EigenPair,
    mu: GridMeasure,
    times,
    dt: float = None,
) -> np.ndarray:
    """chi2(eta * phi_t(mu) | beta) at each requested time, as a (t, chi2) array."""
    if dt is None:
        dt = default_dt(op.grid, eigen.lambda0)
    states = flow_curve(op, mu, times, dt, eigen=eigen)
    return np.array([(s.t, s.chi2_to_beta) for s in states])
