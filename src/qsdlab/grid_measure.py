"""Uniform grids, quadrature, probability measures and distances between them.

Everything lives on a uniform grid over an open interval (x_min, x_max) whose
endpoints absorb: grid functions and densities are extended by zero there, so
the trapezoid rule over the closed interval collapses to ``h * sum(values)``.

Conventions used throughout the package:

* total variation is ``sup_{|f| <= 1} |mu(f) - nu(f)|``, i.e. the L1 distance
  between densities, with range [0, 2] (disjoint supports give 2);
* the chi-square divergence is ``sqrt(int (dmu/dnu - 1)^2 dnu)`` and returns
  ``math.inf`` when mu carries mass where nu has none;
* the 1-Wasserstein distance uses the L1 ground metric; in one dimension it is
  the integral of |F_mu - F_nu| between cumulative distribution functions, and
  for product measures it is the sum of the marginal distances.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .artifacts import write_csv

__all__ = [
    "Grid1D",
    "GridMeasure",
    "ProductGridMeasure",
    "build_grid",
    "quadrature",
    "tilt",
    "tv_distance",
    "weighted_tv",
    "w1_distance",
    "chi2_divergence",
    "entropy",
    "cdf_values",
    "regrid",
    "save_measure_csv",
    "load_measure_csv",
]

# Absolute-continuity floor: nu-density below ABS_FLOOR while mu-density is
# above MASS_EPS triggers the +inf sentinel instead of a division by zero.
ABS_FLOOR = 1e-300
MASS_EPS = 1e-14


@dataclass(frozen=True)
class Grid1D:
    """Uniform discretization of (x_min, x_max) by n interior nodes.

    The endpoints are absorbing and carry no mass; node i sits at
    ``x_min + (i + 1) * h`` with ``h = (x_max - x_min) / (n + 1)``.  A grid
    is identified by (n, first node, last node), which a saved node column
    gives back exactly.
    """

    x_min: float
    x_max: float
    n: int
    h: float
    nodes: np.ndarray = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, Grid1D):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self) -> tuple:
        return self.n, self.nodes[0], self.nodes[-1]


def build_grid(x_min: float, x_max: float, n: int) -> Grid1D:
    """Build a uniform grid with ``n`` interior nodes on (x_min, x_max)."""
    x_min = float(x_min)
    x_max = float(x_max)
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise ValueError("grid endpoints must be finite")
    if not x_min < x_max:
        raise ValueError(f"empty interval: x_min={x_min} >= x_max={x_max}")
    n = int(n)
    if n < 3:
        raise ValueError(f"need at least 3 interior nodes, got n={n}")
    h = (x_max - x_min) / (n + 1)
    nodes = x_min + h * np.arange(1, n + 1)
    return Grid1D(x_min=x_min, x_max=x_max, n=n, h=h, nodes=nodes)


def quadrature(values: np.ndarray, grid: Grid1D, boundary: tuple[float, float] = (0.0, 0.0)) -> float:
    """Trapezoid rule on the closed interval with prescribed endpoint values.

    ``boundary`` defaults to (0, 0) -- the extension-by-zero rule matching
    functions that vanish at the absorbing endpoints.  Integrands with a
    nonzero boundary limit (e.g. ratios like alpha/eta) can pass explicit or
    extrapolated endpoint values instead.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} values, got shape {values.shape}")
    fl, fr = boundary
    return grid.h * (float(values.sum()) + 0.5 * (fl + fr))


def extrapolated_boundary(values: np.ndarray) -> tuple[float, float]:
    """Quadratic extrapolation of interior node values to the two endpoints."""
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        raise ValueError("need at least 3 values to extrapolate")
    left = 3.0 * v[0] - 3.0 * v[1] + v[2]
    right = 3.0 * v[-1] - 3.0 * v[-2] + v[-3]
    return left, right


@dataclass(frozen=True)
class GridMeasure:
    """Probability measure given by a density at the interior nodes.

    The stored density is normalized on construction so that the zero-extended
    trapezoid quadrature equals 1 (within 1e-12).
    """

    grid: Grid1D
    density: np.ndarray = field(repr=False)

    def __post_init__(self):
        dens = np.asarray(self.density, dtype=float)
        if dens.shape != (self.grid.n,):
            raise ValueError(
                f"density has shape {dens.shape}, expected ({self.grid.n},)"
            )
        if not np.all(np.isfinite(dens)):
            raise ValueError("density values must be finite")
        if np.any(dens < 0.0):
            raise ValueError("density values must be nonnegative")
        mass = self.grid.h * float(dens.sum())
        if not (math.isfinite(mass) and mass > 0.0):
            raise ValueError("density has zero or non-finite mass")
        object.__setattr__(self, "density", dens / mass)


@dataclass(frozen=True)
class ProductGridMeasure:
    """Product of one-dimensional grid measures, stored factorized."""

    factors: tuple[GridMeasure, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        if len(factors) < 1:
            raise ValueError("product measure needs at least one factor")
        if not all(isinstance(f, GridMeasure) for f in factors):
            raise TypeError("all factors must be GridMeasure instances")
        object.__setattr__(self, "factors", factors)

    @property
    def dim(self) -> int:
        return len(self.factors)


def _require_same_grid(mu: GridMeasure, nu: GridMeasure) -> None:
    if mu.grid != nu.grid:
        raise ValueError("measures live on different grids")


def tilt(f: np.ndarray, mu: GridMeasure) -> GridMeasure:
    """Return the tilted probability measure with density ~ f * (density of mu).

    Realizes f*mu = f mu / mu(f) for a nonnegative grid function f.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (mu.grid.n,):
        raise ValueError(f"expected {mu.grid.n} values, got shape {f.shape}")
    if np.any(f < 0.0):
        raise ValueError("tilt function must be nonnegative")
    weighted = f * mu.density
    mass = quadrature(weighted, mu.grid)
    if not (math.isfinite(mass) and mass > 0.0):
        raise ValueError("tilt has zero or non-finite mass")
    return GridMeasure(mu.grid, weighted)


def tv_distance(mu: GridMeasure, nu: GridMeasure) -> float:
    """Total variation distance sup_{|f|<=1} |mu(f) - nu(f)|, range [0, 2]."""
    _require_same_grid(mu, nu)
    return quadrature(np.abs(mu.density - nu.density), mu.grid)


def weighted_tv(mu: GridMeasure, nu: GridMeasure, psi: np.ndarray) -> float:
    """Weighted distance sup_{|f| <= psi} |mu(f) - nu(f)| for psi >= 1."""
    _require_same_grid(mu, nu)
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (mu.grid.n,):
        raise ValueError(f"expected {mu.grid.n} weight values, got {psi.shape}")
    if np.any(psi < 1.0):
        raise ValueError("weight function must satisfy psi >= 1 everywhere")
    return quadrature(psi * np.abs(mu.density - nu.density), mu.grid)


def cdf_values(mu: GridMeasure) -> np.ndarray:
    """Cumulative distribution at the interior nodes (trapezoid, zero at x_min)."""
    p = mu.density
    h = mu.grid.h
    # contributions of cells (x_{i-1}, x_i) with zero boundary density
    increments = np.empty(mu.grid.n)
    increments[0] = 0.5 * h * p[0]
    increments[1:] = 0.5 * h * (p[:-1] + p[1:])
    return np.cumsum(increments)


def w1_distance(mu, nu) -> float:
    """1-Wasserstein distance for the L1 ground metric.

    One-dimensional measures are compared through their CDFs; product measures
    through the sum of the marginal distances.
    """
    if isinstance(mu, ProductGridMeasure) or isinstance(nu, ProductGridMeasure):
        if not (isinstance(mu, ProductGridMeasure) and isinstance(nu, ProductGridMeasure)):
            raise ValueError("cannot mix plain and product measures")
        if mu.dim != nu.dim:
            raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
        return float(sum(w1_distance(a, b) for a, b in zip(mu.factors, nu.factors)))
    _require_same_grid(mu, nu)
    return quadrature(np.abs(cdf_values(mu) - cdf_values(nu)), mu.grid)


def chi2_divergence(mu: GridMeasure, nu: GridMeasure) -> float:
    """Chi-square divergence sqrt(int (dmu/dnu - 1)^2 dnu), +inf if mu !<< nu."""
    _require_same_grid(mu, nu)
    p = mu.density
    q = nu.density
    tiny = q < ABS_FLOOR
    if np.any(p[tiny] > MASS_EPS):
        return math.inf
    ok = ~tiny
    integrand = np.zeros_like(p)
    integrand[ok] = (p[ok] - q[ok]) ** 2 / q[ok]
    value = quadrature(integrand, mu.grid)
    return math.sqrt(value)


def entropy(mu: GridMeasure, nu: GridMeasure) -> float:
    """Kullback-Leibler divergence int log(dmu/dnu) dmu, +inf if mu !<< nu."""
    _require_same_grid(mu, nu)
    p = mu.density
    q = nu.density
    bad = (q < ABS_FLOOR) & (p > MASS_EPS)
    if np.any(bad):
        return math.inf
    support = p > 0.0
    integrand = np.zeros_like(p)
    ps = p[support]
    qs = np.maximum(q[support], ABS_FLOOR)
    integrand[support] = ps * np.log(ps / qs)
    return quadrature(integrand, mu.grid)


def regrid(mu: GridMeasure, grid: Grid1D) -> GridMeasure:
    """Project a measure onto another (typically coarser) grid.

    Each target node receives the mass of its cell
    [node - h/2, node + h/2] under the piecewise-linear extension of the
    source density; the result is renormalized.
    """
    src = mu.grid
    xs = np.concatenate(([src.x_min], src.nodes, [src.x_max]))
    ps = np.concatenate(([0.0], mu.density, [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * np.diff(xs) * (ps[:-1] + ps[1:]))))
    edges = np.concatenate((
        [grid.x_min],
        grid.nodes[:-1] + 0.5 * grid.h,
        [grid.x_max],
    ))
    edge_cdf = np.interp(edges, xs, cdf)
    masses = np.maximum(np.diff(edge_cdf), 0.0)
    return GridMeasure(grid, masses / grid.h)


def save_measure_csv(mu: GridMeasure, path) -> None:
    """Write a measure as CSV ``x,density`` through :mod:`qsdlab.artifacts`."""
    write_csv(path, "x,density", (mu.grid.nodes, mu.density))


def load_measure_csv(path) -> GridMeasure:
    """Read a measure written by :func:`save_measure_csv`.

    The grid's ends are reconstructed from the node coordinates assuming the
    uniform node layout ``x_i = x_min + (i + 1) h``; it keeps the saved nodes.
    """
    with warnings.catch_warnings():  # a header-only file fails the column test below
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 2:
        raise ValueError("measure CSV must have columns x,density")
    xs = data[:, 0]
    dens = data[:, 1]
    if xs.size < 3:
        raise ValueError("measure CSV needs at least 3 rows")
    h = xs[1] - xs[0]
    grid = build_grid(xs[0] - h, xs[-1] + h, xs.size)
    if not np.allclose(grid.nodes, xs, rtol=0, atol=1e-9 * max(1.0, abs(xs[-1]))):
        raise ValueError("nodes in CSV are not a uniform interior-node grid")
    return GridMeasure(replace(grid, nodes=xs), dens)
