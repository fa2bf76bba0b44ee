"""Discretized sub-Markovian generator, principal eigenpairs and spectral gap.

The generator ``L f = (1/2) f'' - (1/2) V' f'`` with absorption at both
endpoints is discretized in divergence form,

    L_h f_i = e^{V_i} [ e^{-V_{i+1/2}} (f_{i+1} - f_i)
                        - e^{-V_{i-1/2}} (f_i - f_{i-1}) ] / (2 h^2),

with Dirichlet rows at the two ends and midpoint potentials evaluated
exactly.  The operator is symmetric under the weighted inner product with
gamma = exp(-V).  One eigensolver, inverse iteration on the symmetric form
of a killed birth-death chain with subtraction-free (Grassmann-Taksar-Heyman)
LDL^T factors, returns lambda0 and eta from -L_h and the gap lambda1 -
lambda0 from the edge chain of the Doob transform, each relatively accurate
even far below eps ||L_h||.

The principal eigenvector eta is stored with the normalization
``gamma(eta^2) = gamma(eta)``, i.e. the quasi-stationary distribution
``alpha = eta * gamma`` integrates eta to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import write_csv, write_json
from .grid_measure import Grid1D, GridMeasure, quadrature
from .potential import PotentialSpec, evaluate

__all__ = [
    "TridiagonalOperator",
    "EigenPair",
    "ProductEigenPair",
    "ConvergenceError",
    "assemble_generator",
    "tridiag_apply",
    "principal_eigenpair",
    "eigen_residual",
    "qsd_from_eigen",
    "tensor_eigen",
    "IdentityResiduals",
    "integral_identity_residual",
    "save_eigen_json",
    "save_eigen_csv",
]

EIGEN_TOL = 1e-14  # bracket width, relative to lambda0, that ends inverse iteration
MAX_ITER = 500  # inverse-iteration steps before ConvergenceError


class ConvergenceError(RuntimeError):
    """Raised when an eigensolve fails to converge or returns a bad vector."""


@dataclass(frozen=True)
class TridiagonalOperator:
    """Tridiagonal generator on a grid: the absorbed one or its Doob transform.

    ``gamma_weights`` are the weights the generator is reversible for:
    exp(-(V - min V)) at the nodes from `assemble_generator` (the shift guards
    against overflow and only rescales gamma, which leaves every normalized
    quantity unchanged), beta = eta^2 * gamma from `doob.doob_generator`.
    ``boundary_weights`` couple the first and the last node to the absorbing
    ends (the row sums of -L_h); the Doob transform kills no mass: (0, 0).
    """

    grid: Grid1D
    diag: np.ndarray = field(repr=False)
    off_upper: np.ndarray = field(repr=False)
    off_lower: np.ndarray = field(repr=False)
    gamma_weights: np.ndarray = field(repr=False)
    boundary_weights: tuple[float, float]


@dataclass(frozen=True)
class EigenPair:
    """Principal eigenvalue/eigenvector pair of the discretized generator."""

    lambda0: float
    eta: np.ndarray = field(repr=False)
    lambda1: float = None
    lambda0_bracket: tuple[float, float] = None  # Collatz-Wielandt, see principal_eigenpair

    @property
    def gap(self) -> float | None:
        """The spectral gap lambda1 - lambda0, or None without lambda1."""
        return None if self.lambda1 is None else self.lambda1 - self.lambda0


@dataclass(frozen=True)
class ProductEigenPair:
    """Tensor eigenpair: product eigenfunction, summed eigenvalue."""

    factors: tuple[EigenPair, ...]
    lambda0_total: float


def assemble_generator(spec: PotentialSpec, grid: Grid1D) -> TridiagonalOperator:
    """Assemble the divergence-form discretization of (1/2)(Lap - V' d/dx)."""
    if not grid.h**2 >= np.finfo(float).tiny:  # so that 1 / (2 h^2) is finite
        raise ValueError(f"grid spacing h = {grid.h:.3g} is too small: h^2 underflows")
    v_nodes, _, _ = evaluate(spec, grid.nodes)
    v_nodes = np.asarray(v_nodes, dtype=float)
    if not np.all(np.isfinite(v_nodes)):
        raise ValueError("potential is not finite on the grid interior")
    mids = np.concatenate(([grid.x_min + 0.5 * grid.h], grid.nodes + 0.5 * grid.h))
    v_mids, _, _ = evaluate(spec, mids)
    v_mids = np.asarray(v_mids, dtype=float)

    shift = float(v_nodes.min())
    vn = v_nodes - shift
    vm = v_mids - shift

    scale = 1.0 / (2.0 * grid.h**2)
    # coefficients e^{V_i - V_{i +/- 1/2}} stay O(1); no overflow possible
    left = scale * np.exp(vn - vm[:-1])   # couples node i to i-1 (and boundary)
    right = scale * np.exp(vn - vm[1:])   # couples node i to i+1 (and boundary)
    if not (np.all(np.isfinite(left)) and np.all(np.isfinite(right))):
        raise ValueError("potential variation overflows the stencil weights")

    diag = -(left + right)
    off_upper = right[:-1]
    off_lower = left[1:]
    gamma = np.exp(-vn)
    return TridiagonalOperator(
        grid=grid,
        diag=diag,
        off_upper=off_upper,
        off_lower=off_lower,
        gamma_weights=gamma,
        boundary_weights=(float(left[0]), float(right[-1])),
    )


def tridiag_apply(diag: np.ndarray, upper: np.ndarray, lower: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Apply a tridiagonal matrix given by its three bands."""
    out = diag * f
    out[:-1] += upper * f[1:]
    out[1:] += lower * f[:-1]
    return out


def _symmetric_bands(off_upper, off_lower, error=ConvergenceError):
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
        off = np.sqrt(off_upper * off_lower)
    if not (np.isfinite(d).all() and d.min() > 0.0 and np.isfinite(off).all()):
        raise error("non-finite generator scaling: not reversible, or weights over too many decades")
    return d, off


def _gth_factors(left: np.ndarray, right: np.ndarray) -> tuple:
    """LAPACK ``pttrs`` factors (e, pivots) of a killed chain's symmetric form, and its scaling d.

    The M-matrix has diagonal left + right and off-diagonals -left[1:] and
    -right[:-1].  The Grassmann-Taksar-Heyman recurrence s_0 = left_0, u_i =
    s_i + right_i, s_{i+1} = left_{i+1} s_i / u_i builds each pivot from the
    positive row margin s_i.  tau_i = left_i / s_i obeys tau_0 = 1, tau_{i+1}
    = 1 + (right_i / left_i) tau_i, i.e. tau_k = q_k sum_{j <= k} 1 / q_j with
    q_k the product of the first k ratios, which is summed in the log domain;
    no entry is a difference.  The off-diagonals enter only through their
    products, so these are also the LDL^T pivots of the symmetric form; its
    off band -sqrt(right[:-1] left[1:]) (`_symmetric_bands`, which gives d)
    over pivots[:-1] is the off band e of L.
    """
    d, off = _symmetric_bands(left[1:], right[:-1])
    log_q = np.concatenate(([0.0], np.cumsum(np.log(right[:-1]) - np.log(left[:-1]))))
    log_tau = log_q + np.logaddexp.accumulate(-log_q)
    pivots = left * np.exp(-log_tau) + right
    return -off / pivots[:-1], pivots, d


def _inverse_iteration(left: np.ndarray, right: np.ndarray) -> tuple:
    """Bracket (lo, hi) of a killed chain's principal eigenvalue, and its eigenvector.

    Inverse iteration on the symmetric form S = D^-1 M D from D^-1 1 solves
    with `_gth_factors`, so it only adds and divides positive numbers and the
    iterate stays positive.  For y = S^-1 x the Collatz-Wielandt ratios x/y,
    those of M, bracket the eigenvalue (up to the few-ulp roundoff of factors
    and solves); the iteration stops once the bracket's relative width is at
    most ``EIGEN_TOL``, within ``MAX_ITER`` steps.  Returns D y.
    """
    from scipy.linalg.lapack import dpttrs
    if not all(np.isfinite(w).all() and w.min() > 0.0 for w in (left, right)):
        raise ConvergenceError("non-finite or non-positive chain weight; check the potential")
    e, pivots, d = _gth_factors(left, right)
    x = 1.0 / d
    with np.errstate(all="ignore"):  # a y that underflowed makes a ratio non-finite: raised below
        for _ in range(MAX_ITER):
            y, _ = dpttrs(pivots, e, x)
            ratio = x / y
            lo, hi = float(ratio.min()), float(ratio.max())
            if not hi < math.inf:
                raise ConvergenceError("the eigenvector spans more decades than float64 holds")
            if hi - lo <= EIGEN_TOL * lo:
                break
            x = y / y.max()
        else:
            raise ConvergenceError(f"inverse iteration did not converge in {MAX_ITER} steps")
    if not lo > 0.0:
        raise ConvergenceError(f"principal eigenvalue is not positive: {lo}")
    return lo, hi, d * y


def _doob_rates(op: TridiagonalOperator, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rates of the Doob transform: B_i from node i up, D_{i+1} from node i + 1 down."""
    return op.off_upper * eta[1:] / eta[:-1], op.off_lower * eta[:-1] / eta[1:]


def principal_eigenpair(op: TridiagonalOperator, with_lambda1: bool = True) -> EigenPair:
    """Principal pair (lambda0 > 0, eta > 0) of -L_h, with lambda1 and a bracket.

    lambda0 is the midpoint of the `_inverse_iteration` bracket on the chain
    -L_h.  eta, scaled from the iterate, is normalized so that gamma(eta^2) =
    gamma(eta), i.e. alpha(eta) = 1.  The gap is the principal eigenvalue of
    the edge chain (Diaconis & Fill, Ann. Probab. 18, 1990; Miclo, MPRF 5,
    1999): the differences g_{i+1} - g_i of the Doob transform's
    eigenfunctions solve a killed chain on the n - 1 edges with left weights
    B_i and right weights D_{i+1} (`_doob_rates`), and lambda1 = lambda0 +
    gap.  ``with_lambda1=False`` skips that solve and leaves ``lambda1`` None.
    """
    left = np.concatenate(([op.boundary_weights[0]], op.off_lower))
    right = np.concatenate((op.off_upper, [op.boundary_weights[1]]))
    lo, hi, y = _inverse_iteration(left, right)
    lam0 = 0.5 * (lo + hi)
    eta = y / y.max()
    g_eta = quadrature(eta * op.gamma_weights, op.grid)
    g_eta2 = quadrature(eta**2 * op.gamma_weights, op.grid)
    eta = eta * (g_eta / g_eta2)
    lam1 = None
    if with_lambda1:
        gap_lo, gap_hi, _ = _inverse_iteration(*_doob_rates(op, eta))
        lam1 = lam0 + 0.5 * (gap_lo + gap_hi)
        if not lam1 > lam0:
            raise ConvergenceError(f"degenerate spectrum: lambda1={lam1} <= lambda0={lam0}")
    return EigenPair(lambda0=lam0, eta=eta, lambda1=lam1, lambda0_bracket=(lo, hi))


def eigen_residual(op: TridiagonalOperator, eigen: EigenPair) -> float:
    """Sup-norm residual ||L_h eta + lambda0 eta|| / ||eta||."""
    r = tridiag_apply(op.diag, op.off_upper, op.off_lower, eigen.eta) + eigen.lambda0 * eigen.eta
    return float(np.max(np.abs(r)) / np.max(np.abs(eigen.eta)))


def qsd_from_eigen(op: TridiagonalOperator, eigen: EigenPair) -> GridMeasure:
    """Quasi-stationary distribution alpha = eta * gamma as a grid measure."""
    return GridMeasure(op.grid, eigen.eta * op.gamma_weights)


def tensor_eigen(factors) -> ProductEigenPair:
    """Combine per-coordinate eigenpairs into the tensor eigenpair."""
    factors = tuple(factors)
    if not factors:
        raise ValueError("tensor_eigen needs at least one factor")
    total = float(sum(f.lambda0 for f in factors))
    return ProductEigenPair(factors=factors, lambda0_total=total)


@dataclass(frozen=True)
class IdentityResiduals:
    """Relative residuals of the integral identities satisfied by eta.

    For a process on (0, x_max) coming down from infinity, with
    s(u) = int_0^u exp(V) the scale function and gamma = exp(-V) dx:

    * ``kernel``:  eta(x) = 2 lambda0 int (s(x) ^ s(y)) eta(y) gamma(dy),
    * ``first_derivative``:  exp(-V) eta' = 2 lambda0 int_x^xmax eta dgamma,
    * ``second_derivative``: (exp(-V) eta')' = -2 lambda0 exp(-V) eta,

    each evaluated by quadrature/central differences and scaled by the sup of
    the left-hand side.  Residuals are taken over nodes to the left of the
    truncation margin, where the artificial Dirichlet layer at x_max has not
    contaminated eta.
    """

    kernel: float
    first_derivative: float
    second_derivative: float


def integral_identity_residual(
    eigen: EigenPair,
    spec: PotentialSpec,
    grid: Grid1D,
    boundary_margin: float = 0.15,
) -> IdentityResiduals:
    """Check the kernel and derivative identities of a CDFI eigenpair.

    Raises if the grid does not start at 0 (the identities characterize
    eigenfunctions of processes on (0, infinity) absorbed at 0).
    """
    if grid.x_min != 0.0:
        raise ValueError(
            "integral identity requires the domain (0, x_max); "
            f"got x_min = {grid.x_min}"
        )
    if not 0.0 <= boundary_margin < 1.0:
        raise ValueError("boundary_margin must lie in [0, 1)")
    eta = np.asarray(eigen.eta, dtype=float)
    lam0 = eigen.lambda0
    h = grid.h
    v, _, _ = evaluate(spec, grid.nodes)
    w = np.exp(-np.asarray(v, dtype=float))
    ev = np.exp(np.asarray(v, dtype=float))
    if not np.all(np.isfinite(ev)):
        raise ValueError(
            "exp(V) overflows on this grid; shrink x_max (the gamma tail "
            "is negligible long before the scale function overflows)"
        )

    v0 = float(evaluate(spec, 0.0)[0])
    # scale function s(x) = int_0^x exp(V) by cumulative trapezoid from 0
    increments = np.empty(grid.n)
    increments[0] = 0.5 * h * (math.exp(v0) + ev[0])
    increments[1:] = 0.5 * h * (ev[:-1] + ev[1:])
    s = np.cumsum(increments)

    ew = eta * w
    # sum_{j <= i} s_j ew_j  and  sum_{j > i} ew_j, both O(n); the tail sums
    # are accumulated from the right so that relative accuracy survives the
    # huge dynamic range of the scale function
    lower = np.cumsum(s * ew)
    upper = np.concatenate((np.cumsum(ew[::-1])[-2::-1], [0.0]))
    kernel = 2.0 * lam0 * h * (lower + s * upper)

    keep = grid.nodes <= grid.x_max - boundary_margin * (grid.x_max - grid.x_min)
    if not np.any(keep):
        raise ValueError("boundary margin leaves no nodes to check")
    sup_eta = float(np.max(np.abs(eta)))
    res_kernel = float(np.max(np.abs(eta - kernel)[keep]) / sup_eta)

    # first-derivative identity: w eta' = 2 lambda0 int_x^xmax eta dgamma
    etap = np.empty(grid.n)
    etap[1:-1] = (eta[2:] - eta[:-2]) / (2.0 * h)
    etap[0] = (-3.0 * eta[0] + 4.0 * eta[1] - eta[2]) / (2.0 * h)
    etap[-1] = (3.0 * eta[-1] - 4.0 * eta[-2] + eta[-3]) / (2.0 * h)
    lhs1 = w * etap
    tail = h * (0.5 * ew + upper)
    rhs1 = 2.0 * lam0 * tail
    res_d1 = float(np.max(np.abs(lhs1 - rhs1)[keep]) / np.max(np.abs(lhs1)))

    # divergence-form second derivative against the true gamma weights
    mids = np.concatenate(([0.5 * h], grid.nodes + 0.5 * h))
    w_mid = np.exp(-np.asarray(evaluate(spec, mids)[0], dtype=float))
    eta_ext = np.concatenate(([0.0], eta, [0.0]))
    flux = w_mid * np.diff(eta_ext) / h
    lhs2 = np.diff(flux) / h
    rhs2 = -2.0 * lam0 * w * eta
    res_d2 = float(np.max(np.abs(lhs2 - rhs2)[keep]) / np.max(np.abs(rhs2)))

    return IdentityResiduals(
        kernel=res_kernel,
        first_derivative=res_d1,
        second_derivative=res_d2,
    )


def save_eigen_json(eigen: EigenPair, path) -> None:
    """Write eigenvalue metadata as JSON {lambda0, lambda1, gap, normalization}."""
    write_json(path, {
        "lambda0": eigen.lambda0,
        "lambda1": eigen.lambda1,
        "gap": eigen.gap,
        "normalization": "alpha(eta) = 1",
    })


def save_eigen_csv(eigen: EigenPair, grid: Grid1D, path) -> None:
    """Write the eigenvector as CSV ``x,eta`` through :mod:`qsdlab.artifacts`."""
    write_csv(path, "x,eta", (grid.nodes, eigen.eta))
