"""Independent references the benchmark checks qsdlab's artifacts against.

Nothing here imports qsdlab.  The references share only the problem
definition with the program: the uniform grid with ``n`` interior nodes on
``(x_min, x_max)`` and the divergence-form stencil with midpoint potential
values, both as documented in the package.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import expm

EPS = np.finfo(float).eps


def grid_points(x_min: float, x_max: float, n: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(h, nodes, midpoints) of the uniform grid with n interior nodes."""
    h = (x_max - x_min) / (n + 1)
    nodes = x_min + h * np.arange(1, n + 1)
    mids = np.concatenate(([x_min + 0.5 * h], nodes + 0.5 * h))
    return h, nodes, mids


# --- closed forms --------------------------------------------------------

def brownian_eigenvalues(N: float) -> tuple[float, float]:
    """(lambda0, lambda1) of (1/2) d^2/dx^2 absorbed at -N and N."""
    return math.pi**2 / (8.0 * N**2), math.pi**2 / (2.0 * N**2)


def ou_eigenvalues(lam: float) -> tuple[float, float]:
    """(lambda0, lambda1) of the OU process with V = lam x^2 absorbed at 0."""
    return lam, 3.0 * lam


def eigen_tolerance(kind: str, k: int, n: int, h: float, value: float) -> float:
    """Relative tolerance on the k-th eigenvalue (k = 1, 2) at n nodes.

    Twice the discretisation error plus the roundoff floor eps * ||M|| of a
    solve with the symmetric matrix M, ||M|| ~ 2/h^2.  For V = 0 the
    discretisation error is exactly known: the discrete eigenvalue is
    (2/h^2) sin^2(x), x = k pi / (2 (n + 1)), a relative error of x^2/3 to
    leading order.  For the OU process the generic second-order term
    h^2 * lambda is used.
    """
    if kind == "brownian":
        x = k * math.pi / (2.0 * (n + 1))
        disc = x * x / 3.0
    else:
        disc = h * h * value
    return 2.0 * disc + EPS * (2.0 / h**2) / value


# --- double well ---------------------------------------------------------

def double_well_table(a: float, x_min: float = -2.0, x_max: float = 2.0, points: int = 2001) -> np.ndarray:
    """Samples (x, V, V', V'') of V = a (x^2 - 1)^2, one row per abscissa."""
    x = np.linspace(x_min, x_max, points)
    return np.column_stack((
        x, a * (x * x - 1.0) ** 2, 4.0 * a * x * (x * x - 1.0), a * (12.0 * x * x - 4.0),
    ))


def write_table_csv(table: np.ndarray, path) -> None:
    lines = ["x,V,Vp,Vpp"] + [",".join(f"{v:.17g}" for v in row) for row in table]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def tabulated_samples(path, n: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(h, V at nodes, V at midpoints) of a tabulated CSV potential.

    The table is interpolated with a cubic spline of the V column on the
    table's own domain, which is how a tabulated potential is defined, so
    these are the float64 samples a solver on that grid sees.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    spline = CubicSpline(data[:, 0], data[:, 1])
    h, nodes, mids = grid_points(float(data[0, 0]), float(data[-1, 0]), n)
    return h, spline(nodes), spline(mids)


def sturm_lambda0(v_nodes, v_mids, h: float, dps: int = 60) -> float:
    """Smallest eigenvalue of the divergence-form generator, by Sturm bisection.

    The symmetrised matrix M = -D^{1/2} L_h D^{-1/2} is built in ``dps``-digit
    arithmetic from the given float64 samples, and its smallest eigenvalue is
    bracketed by counting negative LDL^T pivots of M - x.  No step loses the
    eigenvalue to cancellation however close it is to eps * ||M||.
    """
    with mpmath.workdps(dps):
        vn = [mpmath.mpf(float(v)) for v in v_nodes]
        vm = [mpmath.mpf(float(v)) for v in v_mids]
        scale = 1 / (2 * mpmath.mpf(float(h)) ** 2)
        n = len(vn)
        left = [scale * mpmath.exp(vn[i] - vm[i]) for i in range(n)]
        right = [scale * mpmath.exp(vn[i] - vm[i + 1]) for i in range(n)]
        diag = [left[i] + right[i] for i in range(n)]
        off2 = [right[i] * left[i + 1] for i in range(n - 1)]

        def below(x):
            count = 0
            d = diag[0] - x
            for i in range(n):
                if i:
                    d = diag[i] - x - off2[i - 1] / d
                if d == 0:
                    d = mpmath.mpf(10) ** (-2 * dps)
                if d < 0:
                    count += 1
            return count

        lo, hi = mpmath.mpf(0), min(diag)
        while hi - lo > mpmath.mpf(10) ** (-(dps // 2)) * hi:
            mid = (lo + hi) / 2
            if below(mid) >= 1:
                hi = mid
            else:
                lo = mid
        return float((lo + hi) / 2)


# --- conditioned flow ----------------------------------------------------

def ou_generator(lam: float, x_max: float, n: int) -> np.ndarray:
    """Dense divergence-form generator of V = lam x^2 on (0, x_max)."""
    h, nodes, mids = grid_points(0.0, x_max, n)
    vn, vm = lam * nodes**2, lam * mids**2
    left = np.exp(vn - vm[:-1]) / (2.0 * h * h)
    right = np.exp(vn - vm[1:]) / (2.0 * h * h)
    return np.diag(-(left + right)) + np.diag(right[:-1], 1) + np.diag(left[1:], -1)


def expm_log_survival(generator: np.ndarray, m0: np.ndarray, times) -> np.ndarray:
    """log(1^T exp(t A^T) m0 / 1^T m0) at each time, by the matrix exponential."""
    at = generator.T
    mass0 = m0.sum()
    return np.array([math.log((expm(t * at) @ m0).sum() / mass0) for t in times])


# --- Monte Carlo exit rate -------------------------------------------------

def tail_slope(t, log_survival, window: tuple[float, float]) -> float:
    """Least-squares slope of -log survival over the time window."""
    t = np.asarray(t, dtype=float)
    y = -np.asarray(log_survival, dtype=float)
    keep = (t >= window[0]) & (t <= window[1]) & np.isfinite(y)
    if keep.sum() < 5:
        raise ValueError("need at least 5 finite samples in the fit window")
    return float(np.polyfit(t[keep], y[keep], 1)[0])
