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
density by 1/beta, comes from a second such space in w, built orthogonal to
the principal eigenvector.  A space exhausted to roundoff (at most n vectors)
or a basis of ``KRYLOV_MAX_DIM`` that misses the tolerance raises `FlowError`;
a check the basis can still outgrow ends its march at a clear failure.  The
densities are formed ``BLOCK_BYTES`` (1 MiB) of samples at a time, one product
each, and `analytics.decay_curves` takes its distances from those blocks.

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
KRYLOV_CHECK_EVERY = 5
# a new direction below this fraction of |Z v_k| after two Gram-Schmidt passes is
# roundoff and the space exhausted: over their first 60 vectors, live directions on
# n = 2000 and 8000 grids stay above 2e-2; the one past a full basis reads 1e-31 or less
KRYLOV_LOST = 1e-12
# float64 bytes of sample densities per product: 16 rows at n = 8000, 61 at n <= 2000
BLOCK_BYTES = 1 << 20


class FlowError(RuntimeError):
    """Raised when a time stepper detects an unusable state."""


@dataclass(frozen=True)
class FlowState:
    """Snapshot of the conditioned law at time t; ``survival_weight`` is
    exp(``log_survival``), unclipped, so a wrong flow can show one above 1."""

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


def _sample_gaps(times) -> list:
    # linspace gaps differ in their last bits: gaps equal to 12 digits share
    # one propagator, which moves a sample time by less than 1e-12 of itself
    return [float(f"{g:.12e}") for g in np.diff(times, prepend=0.0).tolist()]


def _krylov_coefficients(hess, gamma, times, residual, gaps=None, stop=math.inf):
    """Snapshot coefficients u(t_j) in the Krylov basis and their largest error estimate.

    ``hess`` is the (k+1, k) Arnoldi matrix of Z = (I - gamma A)^-1, so A is
    represented by (I - H_k^-1) / gamma = -B and u(t) = expm(-t B) e_1,
    marched over the sample ``gaps`` (`_sample_gaps`) with one ``expm`` per
    distinct gap.  The residual of the Krylov approximation is
    (h_{k+1,k} / gamma) (e_k^T H_k^-1 u(t)) (I - gamma A) v_{k+1}; times t
    and relative to |u(t)| it estimates the error at t.  ``residual`` is the
    norm of (I - gamma A) v_{k+1}, 0 for an exhausted space.  Returns the
    coefficients and the largest estimate over the samples, taken on those
    same coefficients; the march ends early, with the rows marched, where
    the estimate on samples 2^(i-1) to 2^i - 1 exceeds ``stop`` (no NaN does).
    """
    from scipy.linalg import expm
    k = hess.shape[1]
    h_inv = np.linalg.inv(hess[:k])
    b = (h_inv - np.eye(k)) / gamma
    gaps = _sample_gaps(times) if gaps is None else gaps
    propagators = {g: expm(-g * b) for g in set(gaps) if g > 0.0}
    scale = hess[k, k - 1] / gamma * residual
    u = np.zeros(k)
    u[0] = 1.0
    coeffs = np.empty((times.size, k))

    # rows scaled, |u| < 1e-154 keeps its norm; u = 0 gives NaN, which meets no tolerance
    def estimate(rows):
        with np.errstate(invalid="ignore"):
            us = coeffs[rows] / np.max(np.abs(coeffs[rows]), axis=1, keepdims=True)
        return np.max(scale * np.abs(us @ h_inv[-1]) * times[rows] / np.linalg.norm(us, axis=1))

    for j, g in enumerate(gaps):
        if g > 0.0:
            u = propagators[g] @ u
        coeffs[j] = u
        if j & (j + 1) == 0 and stop < math.inf:  # the rows since the last power of two
            est = estimate(slice((j + 1) // 2, j + 1))
            if est > stop:
                return coeffs[:j + 1], est
    return coeffs, estimate(slice(None))


def _krylov_run(v0, times, gamma, solve, apply, tol, lock=None):
    """exp(t A) v0 at each of ``times`` (t_max > 0); returns (basis, coefficients).

    ``solve(v)`` returns Z v = (I - gamma A)^-1 v and ``apply(v)`` returns
    A v.  Arnoldi with two passes of classical Gram-Schmidt builds an
    orthonormal basis of the Krylov space of Z from v0 in the 2-norm of the
    variable v0 lives in, so the error estimate of `_krylov_coefficients` is
    relative to the 2-norm of exp(t A) v0.  ``lock``, a unit eigenvector of
    A, sits in front of the basis in both passes, the start's included, and
    its coefficient is dropped: the run evolves the rest of v0, and a rest of
    at most 8 sqrt(n) eps |v0| is roundoff, 0 at every sample (a QSD start
    leaves 1.9 sqrt(n) eps or less on OU, Brownian and delta = 3, n = 3 to
    32000).  The space is exhausted when the basis holds n vectors (n - 1
    with a lock) or the new direction is roundoff (``KRYLOV_LOST``);
    that direction never joins the basis, and the estimate is taken right
    there with residual 0, else every ``KRYLOV_CHECK_EVERY`` vectors and at
    ``KRYLOV_MAX_DIM``.  The run stops once the estimate is at most ``tol``
    on every sample; a failed check where the basis cannot grow raises
    `FlowError` with the basis size reached, and one it can outgrow may end
    its march at an estimate above 2 tol.
    """
    n = v0.size
    first = 0 if lock is None else 1  # the basis row of the first Krylov vector
    basis = np.empty((first + min(n, KRYLOV_MAX_DIM) + 1, n))
    floor = 8.0 * math.sqrt(n) * np.finfo(float).eps * float(np.linalg.norm(v0))
    if lock is not None:
        basis[0] = lock
        for _ in range(2):
            v0 = v0 - (lock @ v0) * lock
    norm0 = float(np.linalg.norm(v0))
    if norm0 <= floor:  # 0, or the lock to working precision
        return np.zeros((1, n)), np.zeros((times.size, 1))
    basis[first] = v0 / norm0
    hess = np.zeros((KRYLOV_MAX_DIM + 1, KRYLOV_MAX_DIM))
    gaps = _sample_gaps(times)
    for k in range(1, KRYLOV_MAX_DIM + 1):
        w = solve(basis[first + k - 1])
        z_norm = float(np.linalg.norm(w))
        v = basis[:first + k]
        for _ in range(2):
            h = v @ w
            w -= h @ v
            hess[:k, k - 1] += h[first:]
        h_next = float(np.linalg.norm(w))
        if not math.isfinite(h_next):
            raise FlowError("non-finite Krylov vector; check the potential and eigenpair")
        hess[k, k - 1] = h_next
        exhausted = k == n - first or h_next <= KRYLOV_LOST * z_norm
        if not exhausted:
            w /= h_next
            basis[first + k] = w
            if k % KRYLOV_CHECK_EVERY and k < KRYLOV_MAX_DIM:
                continue
        residual = 0.0 if exhausted else float(np.linalg.norm(w - gamma * apply(w)))
        final = exhausted or k == KRYLOV_MAX_DIM  # else a margin of 2 keeps the full march's outcome
        coeffs, est = _krylov_coefficients(hess[:k + 1, :k], gamma, times, residual,
                                           gaps, math.inf if final else 2.0 * tol)
        if est <= tol:
            return basis[first:first + k], norm0 * coeffs
        if final:
            raise FlowError(f"Krylov exponential not converged: basis size {k}, "
                            f"error estimate {est:.3e} > {tol:.0e}")


def _sample_times(op: TridiagonalOperator, mu: GridMeasure, times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("need a nonempty 1D array of times")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if np.any(times < 0.0) or np.any(np.diff(times) < 0.0):
        raise ValueError("times must be nonnegative and nondecreasing")
    if mu.grid != op.grid:
        raise ValueError("measure lives on a different grid")
    return times


def _flow_state(op, t, m, log_surv, eigen=None) -> FlowState:
    """The sample's law; with ``eigen``, the law's chi-square distance to beta."""
    law = GridMeasure(op.grid, np.clip(m, 0.0, None))
    beta = None if eigen is None else GridMeasure(op.grid, eigen.eta**2 * op.gamma_weights)
    chi2 = None if eigen is None else chi2_divergence(tilt(eigen.eta, law), beta)
    return FlowState(float(t), law, math.exp(log_surv), log_surv, chi2)


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
                    w = 2.0 * dpttrs(*cn, w)[0] - w
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
        states.append(_flow_state(op, t, m, log_surv, eigen=eigen))
    return states


def _flow_blocks(op: TridiagonalOperator, mu: GridMeasure, times, eigen: EigenPair = None):
    """`flow_exponential` as blocks (t, m, log_survival, survival_weight, chi2)
    of samples in time order, m the densities clipped at 0, not normalized,
    chi2 None without ``eigen``.  The t = 0 rows are the initial law; the
    later ones are formed ``BLOCK_BYTES`` at a time as coefficients[rows] @
    basis and tested whole, and the first sample that fails the mass or the
    ``NEGATIVE_DENSITY_TOL`` test raises its `FlowError`."""
    from scipy.linalg.lapack import dpttrs
    times = _sample_times(op, mu, times)
    m0 = mu.density
    shift = eigen.lambda0 if eigen is not None else 0.0
    later = times[times > 0.0]
    if later.size < times.size:
        zeros = times[:times.size - later.size]
        chi2 = _flow_state(op, 0.0, m0, 0.0, eigen=eigen).chi2_to_beta
        yield zeros, np.tile(m0, (zeros.size, 1)), zeros, zeros + 1.0, None if chi2 is None else zeros + chi2
    if later.size == 0:
        return
    gamma = float(later[-1]) / 10.0 or float(later[-1])  # a tenth of t <= 2e-323 rounds to 0
    d, off = _symmetric_bands(op.off_upper, op.off_lower, FlowError)
    factors = _cn_factors(op.diag, off, gamma, shift)

    chi2 = None
    if eigen is not None:
        psi = d * eigen.eta
        psi /= np.linalg.norm(psi)
        w0 = m0 / d
        # the basis is released here, before the m-space run builds its own
        coeffs = _krylov_run(
            w0, later, gamma,
            lambda v: dpttrs(*factors, v)[0],
            lambda v: tridiag_apply(op.diag, off, off, v) + shift * v,
            KRYLOV_CHI_TOL, lock=psi,
        )[1]
        # hypot keeps |c| where its squares would underflow
        chi2 = np.hypot.reduce(coeffs, axis=1) / float(psi @ w0)
    basis, coeffs = _krylov_run(
        m0, later, gamma,
        lambda v: d * dpttrs(*factors, v / d)[0],
        lambda v: tridiag_apply(op.diag, op.off_lower, op.off_upper, v) + shift * v,
        KRYLOV_TOL,
    )
    mass0 = float(m0.sum())
    step = max(1, BLOCK_BYTES // (8 * m0.size))
    for lo in range(0, later.size, step):
        rows = slice(lo, lo + step)
        t, m = later[rows], coeffs[rows] @ basis
        mass, low = m.sum(axis=1), m.min(axis=1)
        bad = ~(mass >= MASS_UNDERFLOW) | ~(low >= NEGATIVE_DENSITY_TOL * np.maximum(m.max(axis=1), -low))
        for j in np.flatnonzero(bad):  # a NaN is bad too; the first bad sample raises
            _check_density(m[j], float(mass[j]), f"at t={t[j]:.6g}")
        log_surv = np.log(mass / mass0) - shift * t
        # math.exp per sample: numpy's vectorized exp may differ from it in the last bit
        surv = np.array([math.exp(x) for x in log_surv.tolist()])
        yield t, np.clip(m, 0.0, None, out=m), log_surv, surv, None if chi2 is None else chi2[rows]


def flow_exponential(
    op: TridiagonalOperator,
    mu: GridMeasure,
    times,
    eigen: EigenPair = None,
) -> list[FlowState]:
    """Conditioned law at the requested times, exp(t (M + shift)) m0 without time steps.

    The law comes from one shift-and-invert Krylov space (`_krylov_run`) in
    m itself, accurate to ``KRYLOV_TOL`` relative to the density's 2-norm.
    With ``eigen`` supplied the generator is shifted by lambda0 and each
    snapshot records the chi-square distance of eta*mu_t to beta.  It
    weights the density by 1/beta, which that norm does not bound where beta
    is tiny, so it comes from a second space in w = m / d: w(t) = c0 psi0 +
    exp(t (S + lambda0)) w_perp, psi0 = d * eta / |d * eta| the eigenvector
    of S, c0 = <psi0, w0>.  By detailed balance d^2 and beta / eta^2 are
    proportional to gamma, so the distance is |w_perp(t)| / c0, the norm of
    the coefficients of the run that locks psi0, held to ``KRYLOV_CHI_TOL``
    relative as it decays; the QSD's own w_perp(0), roundoff, gives 0.
    Every snapshot passes the mass-underflow and ``NEGATIVE_DENSITY_TOL``
    tests; t = 0 returns the initial law.  The snapshots wrap the rows of
    `_flow_blocks`, which `analytics.decay_curves` reads directly.
    """
    return [FlowState(*row) for t, m, log_surv, surv, chi2 in _flow_blocks(op, mu, times, eigen)
            for row in zip(t.tolist(), (GridMeasure(op.grid, q) for q in m), surv.tolist(),
                           log_surv.tolist(), [None] * t.size if chi2 is None else chi2.tolist())]


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

