"""Doob-transformed Markovian generator and time evolution of measures.

The transform conjugates the absorbed generator by the principal eigenfunction,
``Ltilde f = (1/eta) (L + lambda0) (eta f)``, producing a mass-conserving
generator whose invariant measure is beta = eta^2 * gamma; `doob_generator`
returns it as a `TridiagonalOperator` with ``gamma_weights`` beta, so every
function below takes either generator.  Evolution runs on the measure
(adjoint) side.  Both generators are reversible (the absorbed one in
L2(gamma), the transformed one in L2(beta)), so the measure-side matrix M
is similar to a symmetric S = D^-1 M D with a positive diagonal D
(sqrt(gamma), resp. sqrt(beta), up to a constant), and I - aS is symmetric
positive definite for a > 0: both time integrators below solve only with its
LAPACK ``pttrf`` (LDL^T, no pivoting) factors.  The off-diagonal rows are
obtained from the operator rows by transposition, which keeps the discrete
duality exact.

`flow_curve` steps the flow by Crank-Nicolson in w = D^-1 m with a
Rannacher startup: the matrix is factored once per step size, shared by the
segments of a `flow_curve`, and every step is one ``pttrs`` solve.
`flow_exponential` takes no time step: it evaluates exp(t (M + shift)) m0 at
every sample time from one shift-and-invert Krylov space of
(I - gamma (M + shift))^-1, gamma = t_max / 10 (van den Eshof & Hochbruck,
SIAM J. Sci. Comput. 27, 2006), Arnoldi on m itself in the 2-norm, with an
a-posteriori estimate (Saad, SIAM J. Numer. Anal. 29, 1992) held below
``KRYLOV_TOL`` on every sample; the chi-square distance, which weights the
density by 1/beta, comes from a second such space in w, deflated by the
principal eigenvector.  A basis that reaches ``KRYLOV_MAX_DIM`` without
meeting the tolerance raises `FlowError`.

The conditioned semigroup is evolved with the same integrators applied to the
sub-Markovian generator.  Supplying the eigenpair shifts the generator by
lambda0; the shift is removed analytically from the recorded survival weight,
keeps the unnormalized mass O(1), and makes the rational time step commute
exactly with the eta-conjugation (so the conditioned flow followed by an
eta-tilt reproduces the transformed flow to roundoff rather than to the
time-discretization error).  Both flows return one `FlowState` per sample
time, with the chi-square distance of eta*mu_t to beta when the eigenpair
is given; the law at a single time t is the last state for ``[t]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid_measure import GridMeasure, chi2_divergence, tilt, tv_distance
from .spectral import EigenPair, TridiagonalOperator, _doob_rates, _symmetric_bands, tridiag_apply

__all__ = [
    "FlowState",
    "FlowError",
    "doob_generator",
    "flow_curve",
    "flow_exponential",
    "checkpoint_residual",
    "default_dt",
]

NEGATIVE_DENSITY_TOL = -1e-10
MASS_UNDERFLOW = 1e-290
RENORM_EVERY = 64
KRYLOV_TOL = 1e-10
KRYLOV_CHI_TOL = 1e-8  # relative to the decaying part of the chi-square flow
KRYLOV_MAX_DIM = 300
KRYLOV_CHUNK = 32
KRYLOV_CHECK_EVERY = 5


class FlowError(RuntimeError):
    """Raised when a time stepper detects an unusable state."""


@dataclass(frozen=True)
class FlowState:
    """Snapshot of the conditioned law at time t."""

    t: float
    mu_t: GridMeasure
    survival_weight: float
    log_survival: float
    chi2_to_beta: float = None


def doob_generator(op: TridiagonalOperator, eigen: EigenPair) -> TridiagonalOperator:
    """Conjugate the generator by eta and enforce zero row sums exactly."""
    eta = np.asarray(eigen.eta, dtype=float)
    if np.any(eta <= 0.0):
        raise ValueError("eta must be positive on the grid interior")
    t_up, t_low = _doob_rates(op, eta)
    diag = np.zeros(op.grid.n)
    diag[:-1] -= t_up
    diag[1:] -= t_low
    return TridiagonalOperator(
        grid=op.grid,
        diag=diag,
        off_upper=t_up,
        off_lower=t_low,
        gamma_weights=eta**2 * op.gamma_weights,
        boundary_weights=(0.0, 0.0),
    )


def default_dt(grid, lambda0: float = None) -> float:
    """Default Crank-Nicolson step: min(h, 0.01 / lambda0)."""
    dt = grid.h
    if lambda0 is not None and lambda0 > 0.0:
        dt = min(dt, 0.01 / lambda0)
    return dt


def _cn_factors(diag, off, a, shift):
    """LAPACK ``pttrf`` (LDL^T) factors of I - a (S + shift), for ``pttrs`` solves.

    S is the symmetric matrix with bands ``diag`` and ``off`` from
    `_symmetric_bands`.  ``pttrs`` does not check its input, so non-finite
    bands are rejected here; a zero or negative pivot (the matrix is not
    positive definite) is rejected as well.
    """
    from scipy.linalg.lapack import dpttrf
    bands = (1.0 - a * (diag + shift), -a * off)
    if not all(np.isfinite(b).all() for b in bands):
        raise FlowError("non-finite generator band; check the potential and eigenpair")
    *factors, info = dpttrf(*bands)
    if info != 0:
        raise FlowError(f"singular or indefinite stepper matrix (pttrf info {info}); reduce dt")
    return factors


def _check_density(m, mass, where: str) -> None:
    """Raise `FlowError` on a mass underflow or a negative density; None skips a test."""
    if mass is not None and not mass >= MASS_UNDERFLOW:
        raise FlowError("total mass underflow; restart the flow from the "
                        "normalized state (semi-flow property)")
    if m is not None:
        low = float(m.min())
        if not low >= NEGATIVE_DENSITY_TOL * max(float(m.max()), -low):  # a NaN fails too
            raise FlowError(f"negative density {low:.3e} {where}")


def _krylov_coefficients(hess, gamma, times, residual, tol):
    """Snapshot coefficients u(t_j) in the Krylov basis and the largest error estimate.

    ``hess`` is the (k+1, k) Arnoldi matrix of Z = (I - gamma A)^-1, so A is
    represented by (I - H_k^-1) / gamma = -B and u(t) = expm(-t B) e_1.  The
    residual of the Krylov approximation is
    (h_{k+1,k} / gamma) (e_k^T H_k^-1 u(t)) (I - gamma A) v_{k+1}; times t
    and relative to |u(t)| it estimates the error at t.  ``residual`` is the
    norm of (I - gamma A) v_{k+1}.  The estimate is taken first at the
    first positive and the last sample time, where it peaks in practice (it
    is largest at the shortest time); only when both meet ``tol`` is
    u marched over the sample gaps, with one ``expm`` per distinct gap, and
    the estimate taken on every sample.  Returns (None, estimate) when the
    first test fails.
    """
    from scipy.linalg import expm
    k = hess.shape[1]
    h_inv = np.linalg.inv(hess[:k])
    b = (h_inv - np.eye(k)) / gamma
    scale = hess[k, k - 1] / gamma * residual

    def estimate(t, u):
        return scale * abs(h_inv[-1] @ u) * t / np.linalg.norm(u)

    ends = (times[times > 0.0][0], times[-1])
    first = max(estimate(t, expm(-t * b)[:, 0]) for t in ends)
    if not first <= tol:
        return None, first
    # linspace gaps differ in their last bits: gaps equal to 12 digits share
    # one propagator, which moves a sample time by less than 1e-12 of itself
    gaps = np.array([float(f"{g:.12e}") for g in np.diff(times, prepend=0.0)])
    propagators = {g: expm(-g * b) for g in np.unique(gaps) if g > 0.0}
    u = np.zeros(k)
    u[0] = 1.0
    coeffs = np.empty((times.size, k))
    worst = 0.0
    for j, (t, g) in enumerate(zip(times, gaps)):
        if g > 0.0:
            u = propagators[g] @ u
        coeffs[j] = u
        worst = max(worst, estimate(t, u))
    return coeffs, worst


def _krylov_run(v0, times, gamma, solve, apply, tol):
    """exp(t A) v0 at each of ``times`` (t_max > 0); returns (basis, coefficients).

    ``solve(v)`` returns Z v = (I - gamma A)^-1 v and ``apply(v)`` returns
    A v.  Arnoldi with two passes of classical Gram-Schmidt builds an
    orthonormal basis of the Krylov space of Z from v0 in the 2-norm of the
    variable v0 lives in, so the error estimate of `_krylov_coefficients` is
    relative to the 2-norm of exp(t A) v0.  The basis grows in chunks of
    ``KRYLOV_CHUNK`` rows; every ``KRYLOV_CHECK_EVERY`` vectors the estimate
    is taken, and the run stops once it is at most ``tol`` on every
    sample.  The result at times[j] is coefficients[j] @ basis, formed by
    the caller one sample at a time.
    """
    n = v0.size
    norm0 = float(np.linalg.norm(v0))
    if norm0 == 0.0:
        return np.zeros((1, n)), np.zeros((times.size, 1))
    basis = np.empty((KRYLOV_CHUNK, n))
    basis[0] = v0 / norm0
    hess = np.zeros((KRYLOV_MAX_DIM + 1, KRYLOV_MAX_DIM))
    est = math.inf
    for k in range(1, KRYLOV_MAX_DIM + 1):
        w = solve(basis[k - 1])
        v = basis[:k]
        for _ in range(2):
            h = v @ w
            w -= h @ v
            hess[:k, k - 1] += h
        h_next = float(np.linalg.norm(w))
        if not math.isfinite(h_next):
            raise FlowError("non-finite Krylov vector; check the potential and eigenpair")
        hess[k, k - 1] = h_next
        if h_next == 0.0:  # invariant subspace: the projection is exact
            return basis[:k], norm0 * _krylov_coefficients(hess[:k + 1, :k], gamma, times, 0.0, tol)[0]
        if k == basis.shape[0]:
            basis = np.concatenate((basis, np.empty((KRYLOV_CHUNK, n))))
        basis[k] = w / h_next
        if k % KRYLOV_CHECK_EVERY == 0 or k == KRYLOV_MAX_DIM:
            residual = float(np.linalg.norm(basis[k] - gamma * apply(basis[k])))
            coeffs, est = _krylov_coefficients(hess[:k + 1, :k], gamma, times, residual, tol)
            if est <= tol:
                return basis[:k], norm0 * coeffs
    raise FlowError(
        f"Krylov exponential not converged: basis size {KRYLOV_MAX_DIM}, "
        f"error estimate {est:.3e} > {tol:.0e}"
    )


def _sample_times(op: TridiagonalOperator, mu: GridMeasure, times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("need a nonempty 1D array of times")
    if np.any(times < 0.0) or np.any(np.diff(times) < 0.0):
        raise ValueError("times must be nonnegative and nondecreasing")
    if mu.grid != op.grid:
        raise ValueError("measure lives on a different grid")
    return times


def _beta(op: TridiagonalOperator, eigen: EigenPair) -> GridMeasure:
    return GridMeasure(op.grid, eigen.eta**2 * op.gamma_weights)


def _flow_state(op, t, m, log_surv, chi2=None, eigen=None, beta=None) -> FlowState:
    """The sample's law; with ``eigen`` and no ``chi2``, the law's chi-square distance to ``beta``."""
    law = GridMeasure(op.grid, np.clip(m, 0.0, None))
    if chi2 is None and eigen is not None:
        chi2 = chi2_divergence(tilt(eigen.eta, law), beta)
    return FlowState(
        t=float(t),
        mu_t=law,
        survival_weight=min(math.exp(log_surv), 1.0) if log_surv > -700 else 0.0,
        log_survival=log_surv,
        chi2_to_beta=chi2,
    )


def flow_curve(
    op: TridiagonalOperator,
    mu: GridMeasure,
    times,
    dt: float,
    eigen: EigenPair = None,
    smooth_start: bool = True,
) -> list[FlowState]:
    """Conditioned law at the requested times via checkpointed Crank-Nicolson restarts.

    The evolution proceeds segment by segment (the semi-flow property makes
    restarting from the normalized state exact up to the recorded log of the
    surviving mass).  With ``eigen`` supplied, the stepper shifts the
    generator by lambda0 and the chi-square distance of eta*mu_t to beta is
    recorded on each snapshot.  `flow_exponential` evaluates the same flow
    without time steps.

    The steps act on w = m / d (d and the symmetric bands from
    `_symmetric_bands`, formed at the first positive segment).  Each step is
    one ``pttrs`` solve, y = (I - aS)^-1 w, a = step/2, and w <- 2y - w,
    which equals (I - aS)^-1 (I + aS) w without the explicit multiply.  As
    d > 0, w has the sign of m: m = d w is formed for the negativity test
    only when w has a negative (or NaN) entry, and for the renormalizations
    the mass is d @ w.  ``smooth_start`` replaces the first two steps of the
    flow by implicit-Euler quarter-steps (Rannacher smoothing): initial
    densities need not vanish at the absorbing endpoints, and the L-stable
    startup damps the incompatible stiff content that Crank-Nicolson would
    carry as slowly decaying oscillations.  Disable it when composing flows
    whose initial density already vanishes at the absorbing endpoints.
    """
    from scipy.linalg.lapack import dpttrs
    times = _sample_times(op, mu, times)
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    shift = eigen.lambda0 if eigen is not None else 0.0
    beta = _beta(op, eigen) if eigen is not None else None

    factors = {}
    states = []
    m = mu.density
    log_surv = 0.0
    startup = smooth_start
    for t, seg in zip(times, np.diff(times, prepend=0.0)):
        log_mass = 0.0
        if seg > 0.0:
            if not factors:  # the first positive segment
                d, off = _symmetric_bands(op.off_upper, op.off_lower, FlowError)
            steps = max(1, math.ceil(seg / dt))
            step = seg / steps
            if step not in factors:
                factors[step] = _cn_factors(op.diag, off, 0.5 * step, shift)
                factors[step][0] *= 0.5  # halving the pivots (exact) makes each solve return 2y directly
            cn = factors[step]
            n_startup = min(2, steps) if startup else 0
            if n_startup:
                ie = _cn_factors(op.diag, off, 0.25 * step, shift)
            startup = False
            mass0 = float(m.sum())
            w = m / d
            for k in range(steps):
                if k < n_startup:
                    for _ in range(4):
                        w, _ = dpttrs(*ie, w, overwrite_b=True)
                else:
                    y, _ = dpttrs(*cn, w)
                    y -= w
                    w = y
                if not w.min() >= 0.0:  # a NaN fails this test too
                    _check_density(d * w, None, f"after step {k + 1}; reduce dt")
                if (k + 1) % RENORM_EVERY == 0:
                    mass = float(d @ w)
                    _check_density(None, mass, "")
                    log_mass += math.log(mass / mass0)
                    w *= mass0 / mass
            m = d * w
            mass = float(m.sum())
            log_mass += math.log(mass / mass0)
            m *= mass0 / mass
        log_surv += log_mass - shift * seg
        states.append(_flow_state(op, t, m, log_surv, eigen=eigen, beta=beta))
    return states


def flow_exponential(
    op: TridiagonalOperator,
    mu: GridMeasure,
    times,
    eigen: EigenPair = None,
) -> list[FlowState]:
    """Conditioned law at the requested times, exp(t (M + shift)) m0 without time steps.

    The law comes from one shift-and-invert Krylov space (`_krylov_run`) in
    m itself, accurate to ``KRYLOV_TOL`` relative to the density's 2-norm.
    With ``eigen`` supplied the generator is shifted by lambda0 and the
    chi-square distance of eta*mu_t to beta is recorded on each snapshot.
    That distance weights the density by 1/beta, which an error small in
    the 2-norm of m does not bound where beta is tiny, so it comes from a
    second Krylov space in the symmetric variable w = m / d, deflated by the
    principal eigenvector: w(t) = c0 psi0 + exp(t (S + lambda0)) w_perp with
    psi0 the unit eigenvector d * eta of S, c0 = <psi0, w0> and w_perp =
    w0 - c0 psi0.  The generator is in detailed balance with gamma, so d^2
    and beta / eta^2 are proportional to gamma, and the distance is
    |w_perp(t)| / c0.  Holding the error estimate to ``KRYLOV_CHI_TOL``
    relative to |w_perp(t)| keeps that relative accuracy as the distance
    decays.  Roundoff leaves w_perp a part of size eps |w_perp(0)| along
    psi0 that does not decay, so psi0 is projected out of each result too,
    with b, the basis applied to psi0, formed before the m-space run.  The
    ``NEGATIVE_DENSITY_TOL`` test and the mass-underflow check apply to
    every snapshot; t = 0 returns the initial law.
    """
    from scipy.linalg.lapack import dpttrs
    times = _sample_times(op, mu, times)
    m0 = mu.density
    shift = eigen.lambda0 if eigen is not None else 0.0
    beta = _beta(op, eigen) if eigen is not None else None
    start = _flow_state(op, 0.0, m0, 0.0, eigen=eigen, beta=beta)
    later = times[times > 0.0]
    states = [start] * (times.size - later.size)
    if later.size == 0:
        return states
    gamma = float(later[-1]) / 10.0
    d, off = _symmetric_bands(op.off_upper, op.off_lower, FlowError)
    factors = _cn_factors(op.diag, off, gamma, shift)

    chi2 = [None] * later.size
    if eigen is not None:
        psi = d * eigen.eta
        psi /= np.linalg.norm(psi)
        w0 = m0 / d
        c0 = float(psi @ w0)
        basis, coeffs = _krylov_run(
            w0 - c0 * psi, later, gamma,
            lambda v: dpttrs(*factors, v)[0],
            lambda v: tridiag_apply(op.diag, off, off, v) + shift * v,
            KRYLOV_CHI_TOL,
        )
        b = basis @ psi
        del basis
        # V orthonormal: psi . (c V) = b . c, and |c V - (b . c) psi|^2 as a sum of squares
        bc = coeffs @ b
        chi2 = np.sqrt(np.sum((coeffs - np.outer(bc, b)) ** 2, axis=1) + bc**2 * (1.0 - b @ b)) / c0
    basis, coeffs = _krylov_run(
        m0, later, gamma,
        lambda v: d * dpttrs(*factors, v / d)[0],
        lambda v: tridiag_apply(op.diag, op.off_lower, op.off_upper, v) + shift * v,
        KRYLOV_TOL,
    )
    mass0 = float(m0.sum())
    for t, c, x in zip(later, coeffs, chi2):
        m = c @ basis
        mass = float(m.sum())
        _check_density(m, mass, f"at t={t:.6g}")
        states.append(_flow_state(op, t, m, math.log(mass / mass0) - shift * t, x))
    return states


def checkpoint_residual(
    op: TridiagonalOperator,
    eigen: EigenPair,
    mu: GridMeasure,
    t: float,
    dt: float,
) -> float:
    """TV distance between eta*phi_t(mu) and (eta*mu) evolved by the transform.

    Both sides use the same Crank-Nicolson stepper and step count, so the
    residual reflects only the inexactness of the discrete conjugation.  The
    transform conserves mass: a drift beyond 1e-8 raises `FlowError`.
    """
    lhs = tilt(eigen.eta, flow_curve(op, mu, [t], dt, eigen=eigen)[-1].mu_t)
    rhs = flow_curve(doob_generator(op, eigen), tilt(eigen.eta, mu), [t], dt)[-1]
    if abs(math.expm1(rhs.log_survival)) > 1e-8:
        raise FlowError(f"mass drifted by {math.expm1(rhs.log_survival):.3e} during evolution")
    return tv_distance(lhs, rhs.mu_t)

