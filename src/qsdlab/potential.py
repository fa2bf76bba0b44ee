"""Potential families with exact derivatives and curvature-based decay rates.

A potential V enters the drift of the diffusion ``dX = dB - (1/2) V'(X) dt``
and the reversible weight ``exp(-V)``.  The closed-form families carry exact
first and second derivatives; tabulated potentials are interpolated with cubic
splines column by column.

The convexity constant of the effective potential ``W = V - 2 log(eta)``
certifies an exponential convergence rate for the conditioned semigroup, and
for processes coming down from infinity the improved rate
``inf { V'' + 8 lambda0 exp(-V) (+ drift term) }`` is available without
knowing eta.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PotentialSpec",
    "zero_potential",
    "quadratic_potential",
    "shifted_power_potential",
    "tabulated_potential",
    "tabulated_from_csv",
    "evaluate",
    "be_constant",
    "effective_second_derivative",
    "cdfi_rate",
]

@dataclass(frozen=True)
class PotentialSpec:
    """A twice continuously differentiable potential on an open interval."""

    family: str
    lam: float = math.nan
    delta: float = math.nan
    domain: tuple[float, float] = (-math.inf, math.inf)
    table: tuple = field(default=None, repr=False)


def zero_potential(domain: tuple[float, float] = (-math.inf, math.inf)) -> PotentialSpec:
    """V = 0 (driftless Brownian motion)."""
    return PotentialSpec(family="zero", domain=domain)


def quadratic_potential(lam: float, domain: tuple[float, float] = (0.0, math.inf)) -> PotentialSpec:
    """V(x) = lam * x^2 (Ornstein-Uhlenbeck drift), lam > 0."""
    lam = float(lam)
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"quadratic potential needs lam > 0, got {lam}")
    return PotentialSpec(family="quadratic", lam=lam, domain=domain)


def shifted_power_potential(delta: float, domain: tuple[float, float] = (0.0, math.inf)) -> PotentialSpec:
    """V(x) = (x + 1)^delta with delta > 2 (comes down from infinity on (0, inf))."""
    delta = float(delta)
    if not (math.isfinite(delta) and delta > 2.0):
        raise ValueError(f"shifted-power potential needs delta > 2, got {delta}")
    return PotentialSpec(family="shifted_power", delta=delta, domain=domain)


def tabulated_potential(x: np.ndarray, v: np.ndarray, vp: np.ndarray, vpp: np.ndarray) -> PotentialSpec:
    """Potential given by samples of V, V', V'' on an increasing abscissa."""
    from scipy.interpolate import CubicSpline

    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 4:
        raise ValueError("tabulated potential needs at least 4 sample points")
    if np.any(np.diff(x) <= 0):
        raise ValueError("tabulated abscissa must be strictly increasing")
    cols = []
    for name, col in (("V", v), ("Vp", vp), ("Vpp", vpp)):
        col = np.asarray(col, dtype=float)
        if col.shape != x.shape:
            raise ValueError(f"column {name} has shape {col.shape}, expected {x.shape}")
        cols.append(CubicSpline(x, col))
    return PotentialSpec(
        family="tabulated",
        domain=(float(x[0]), float(x[-1])),
        table=tuple(cols),
    )


def tabulated_from_csv(path) -> PotentialSpec:
    """Load a tabulated potential from CSV with header ``x,V,Vp,Vpp``."""
    with warnings.catch_warnings():  # a header-only file fails the column test below
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 4:
        raise ValueError("potential CSV must have columns x,V,Vp,Vpp")
    return tabulated_potential(data[:, 0], data[:, 1], data[:, 2], data[:, 3])


def _first_derivative(spec: PotentialSpec, x: np.ndarray):
    """V' at an array of points (no domain check), or None for V = 0."""
    if spec.family == "zero":
        return None
    if spec.family == "quadratic":
        return 2.0 * spec.lam * x
    if spec.family == "shifted_power":
        return spec.delta * (x + 1.0) ** (spec.delta - 1.0)
    if spec.family == "tabulated":
        return spec.table[1](x)
    raise ValueError(f"unknown potential family {spec.family!r}")  # pragma: no cover


def evaluate(spec: PotentialSpec, x):
    """Evaluate (V, V', V'') at a scalar or array of points."""
    x_arr = np.asarray(x, dtype=float)
    lo, hi = spec.domain
    # the closed interval is allowed: V extends continuously to the boundary
    if np.any(x_arr < lo) or np.any(x_arr > hi):
        raise ValueError(f"point outside potential domain [{lo}, {hi}]")
    vp = _first_derivative(spec, x_arr)
    if spec.family == "zero":
        z = np.zeros_like(x_arr)
        out = (z, z.copy(), z.copy())
    elif spec.family == "quadratic":
        out = (spec.lam * x_arr**2, vp, np.full_like(x_arr, 2.0 * spec.lam))
    elif spec.family == "shifted_power":
        d = spec.delta
        base = x_arr + 1.0
        out = (base**d, vp, d * (d - 1.0) * base ** (d - 2.0))
    else:
        out = (spec.table[0](x_arr), vp, spec.table[2](x_arr))
    if np.isscalar(x) or x_arr.ndim == 0:
        return tuple(float(v) for v in out)
    return out


def be_constant(values: np.ndarray) -> float:
    """Curvature lower bound: the minimum of second-derivative samples."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot take the infimum of an empty sample array")
    return float(values.min())


def _log_second_derivative(log_eta: np.ndarray, h: float) -> np.ndarray:
    """Second derivative of log(eta) by central differences.

    Uses second-order one-sided stencils at the two extreme interior nodes so
    that eta never has to be differentiated across its boundary zeros.
    """
    s = log_eta
    n = s.size
    if n < 4:
        raise ValueError("need at least 4 nodes for the one-sided stencils")
    d2 = np.empty(n)
    d2[1:-1] = (s[2:] - 2.0 * s[1:-1] + s[:-2]) / h**2
    d2[0] = (2.0 * s[0] - 5.0 * s[1] + 4.0 * s[2] - s[3]) / h**2
    d2[-1] = (2.0 * s[-1] - 5.0 * s[-2] + 4.0 * s[-3] - s[-4]) / h**2
    return d2


def effective_second_derivative(spec: PotentialSpec, eigen, grid) -> np.ndarray:
    """Samples of W'' for the effective potential W = V - 2 log(eta)."""
    eta = np.asarray(eigen.eta, dtype=float)
    if eta.shape != (grid.n,):
        raise ValueError(f"eigenvector has shape {eta.shape}, expected ({grid.n},)")
    if np.any(eta <= 0.0):
        raise ValueError("eta must be positive at every interior node")
    _, _, vpp = evaluate(spec, grid.nodes)
    return vpp - 2.0 * _log_second_derivative(np.log(eta), grid.h)


def cdfi_rate(
    spec: PotentialSpec,
    lambda0: float,
    grid,
    use_drift_form: bool = False,
    full_output: bool = False,
):
    """Improved convergence rate for processes coming down from infinity.

    Basic form: ``inf V'' + 8 lambda0 exp(-V)``.  With ``use_drift_form`` the
    extra square term ``8 lambda0^2 ((1 - 2 exp(-V)) / V')^2`` is added, which
    requires V' > 0 on the grid interior.  ``lambda0`` may be a lower bound
    (the rate is monotone in lambda0 whenever ``exp(-V) <= 1/2``).

    With ``full_output`` the minimizing node is returned as well, so boundary
    layer artifacts of the domain truncation can be spotted.
    """
    lambda0 = float(lambda0)
    if not (math.isfinite(lambda0) and lambda0 > 0.0):
        raise ValueError(f"need lambda0 > 0, got {lambda0}")
    v, vp, vpp = evaluate(spec, grid.nodes)
    weight = np.exp(-v)
    values = vpp + 8.0 * lambda0 * weight
    if use_drift_form:
        if np.any(vp <= 0.0):
            raise ValueError("drift form requires V' > 0 on the grid interior")
        values = values + 8.0 * lambda0**2 * ((1.0 - 2.0 * weight) / vp) ** 2
    k = int(np.argmin(values))
    if full_output:
        return float(values[k]), float(grid.nodes[k])
    return float(values[k])
