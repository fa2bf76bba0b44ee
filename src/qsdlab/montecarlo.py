"""Euler-Maruyama simulation of the absorbed diffusion, with empirical laws.

Each particle follows ``X_{k+1} = X_k + sqrt(dt) xi - (1/2) V'(X_k) dt`` with
independent standard Gaussians per coordinate and is absorbed when any
coordinate leaves the open domain at a step boundary.  There is no
Brownian-bridge exit correction, so survival carries the known O(sqrt(dt))
monitoring bias; dt is exposed for that reason.

Randomness is drawn from counter-based Philox streams keyed by
``(seed, step index)``, so results are a pure function of the configuration.
Step k draws one standard normal per surviving particle and coordinate, as a
``(survivors, coordinates)`` block with the survivors in particle-index order;
absorbed particles are dropped from the ensemble and draw nothing.  The
optional Fleming-Viot-style resampling restarts absorbed particles at a
uniformly chosen survivor, drawn from the same step stream after the normals,
and accumulates the log survival estimate; its output is meant for exit-rate
estimation only.

The survivors are kept as one contiguous array per coordinate j, stepped with
column j of that block and stacked only at the end; the drift needs V' alone,
and the potential's domain is checked once, before stepping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import write_csv
from .grid_measure import Grid1D, GridMeasure, ProductGridMeasure
from .potential import PotentialSpec, _first_derivative

__all__ = [
    "SimConfig",
    "ParticleEnsemble",
    "simulate",
    "conditioned_empirical",
    "estimate_lambda0",
    "sample_measure",
    "save_survival_csv",
    "save_positions_csv",
]

_KEY_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class SimConfig:
    """Configuration of an absorbed-diffusion simulation.

    ``spec`` and ``domain`` may be single objects (1D) or per-coordinate
    sequences (product potentials / product domains).  Open domain ends may
    be infinite.
    """

    spec: object
    domain: object
    dt: float
    horizon: float
    n_particles: int
    seed: int
    resample: bool = False

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.dt > self.horizon:
            raise ValueError("dt must not exceed the horizon")
        if self.n_particles < 100:
            raise ValueError("need at least 100 particles")

    def coordinates(self) -> tuple[tuple[PotentialSpec, tuple[float, float]], ...]:
        specs = self.spec if isinstance(self.spec, (list, tuple)) else (self.spec,)
        dom = self.domain
        if isinstance(dom, (list, tuple)) and dom and isinstance(dom[0], (list, tuple)):
            domains = tuple(tuple(map(float, d)) for d in dom)
        else:
            domains = (tuple(map(float, dom)),)
        if len(specs) == 1 and len(domains) > 1:
            specs = specs * len(domains)
        if len(specs) != len(domains):
            raise ValueError("spec/domain dimension mismatch")
        return tuple(zip(specs, domains))


@dataclass(frozen=True)
class ParticleEnsemble:
    """Surviving particles at the final time, plus the survival history."""

    positions: np.ndarray = field(repr=False)
    alive_count: int
    t: float
    initial_count: int
    log_survival_estimate: float
    status: str = "ok"
    survival_curve: np.ndarray = field(default=None, repr=False)


def _step_rng(seed: int, step_index: int) -> np.random.Generator:
    key = (int(seed) & _KEY_MASK) | (int(step_index) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_measure(measure, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points from a grid measure (columns are coordinates).

    A node is chosen with its cell mass, then the point is jittered uniformly
    inside the cell, clipped to the open domain.
    """
    if isinstance(measure, ProductGridMeasure):
        cols = [sample_measure(f, n, rng)[:, 0] for f in measure.factors]
        return np.column_stack(cols)
    grid = measure.grid
    masses = measure.density * grid.h
    masses = masses / masses.sum()
    idx = rng.choice(grid.n, size=n, p=masses)
    jitter = rng.uniform(-0.5 * grid.h, 0.5 * grid.h, size=n)
    x = grid.nodes[idx] + jitter
    eps = 1e-12 * (grid.x_max - grid.x_min)
    return np.clip(x, grid.x_min + eps, grid.x_max - eps)[:, None]


def simulate(config: SimConfig, initial_sampler, record_every: int = 1) -> ParticleEnsemble:
    """Run the absorbed Euler-Maruyama scheme from a sampled initial law."""
    coords = config.coordinates()
    d = len(coords)
    n = config.n_particles
    steps = int(round(config.horizon / config.dt))
    if steps < 1:
        raise ValueError("horizon shorter than one step")
    dt = config.horizon / steps
    sqdt = math.sqrt(dt)

    if any(lo < spec.domain[0] or hi > spec.domain[1] for spec, (lo, hi) in coords):
        raise ValueError("each simulation interval must lie inside its potential domain")

    rng0 = _step_rng(config.seed, 0)
    x = sample_measure(initial_sampler, n, rng0)
    if x.shape[1] != d:
        raise ValueError(f"initial sampler has {x.shape[1]} coordinates, domain has {d}")
    for j, (_, (lo, hi)) in enumerate(coords):
        if np.any(x[:, j] <= lo) or np.any(x[:, j] >= hi):
            raise ValueError("initial measure must be supported inside the open domain")

    # cols[j] holds coordinate j of the survivors only, in particle-index order
    cols = [x[:, j] for j in range(d)]
    log_surv = 0.0
    history = [(0.0, 1.0, 0.0)]
    status = "ok"
    t = 0.0

    for k in range(1, steps + 1):
        rng = _step_rng(config.seed, k)
        m = cols[0].size
        xi = rng.standard_normal((m, d))
        exited = np.zeros(m, dtype=bool)
        for j, (spec, (lo, hi)) in enumerate(coords):
            vp = _first_derivative(spec, cols[j])  # None for V' == 0: x + (-0.0) == x
            xj = cols[j] if vp is None else cols[j] + (-0.5 * vp) * dt
            cols[j] = xj = xj + sqdt * xi[:, j]
            exited |= (xj <= lo) | (xj >= hi)
        n_alive = m - int(np.count_nonzero(exited))
        t = k * dt

        if n_alive == 0:
            status = "all_absorbed"
            log_surv = -math.inf
            cols = [c[:0] for c in cols]
            history.append((t, 0.0, log_surv))
            break
        if config.resample:
            log_surv += math.log(n_alive / m)
            dead = np.flatnonzero(exited)
            if dead.size:
                donors = rng.choice(np.flatnonzero(~exited), size=dead.size)
                for c in cols:
                    c[dead] = c[donors]
        else:
            if n_alive < m:
                cols = [c[~exited] for c in cols]
            log_surv = math.log(n_alive / n)

        if k % record_every == 0 or k == steps:
            history.append((t, cols[0].size / n, log_surv))

    return ParticleEnsemble(
        positions=np.stack(cols, axis=1),
        alive_count=cols[0].size,
        t=t,
        initial_count=n,
        log_survival_estimate=log_surv,
        status=status,
        survival_curve=np.array(history),
    )


def conditioned_empirical(ensemble: ParticleEnsemble, grid):
    """Histogram of survivor positions as a normalized grid measure.

    ``grid`` is a Grid1D, or a sequence of Grid1D for product domains (the
    marginals are binned independently).  A survivor exactly on a cell edge
    goes to the lower cell.
    """
    if ensemble.alive_count == 0:
        raise ValueError("no survivors to histogram")
    pos = ensemble.positions
    if isinstance(grid, (list, tuple)):
        if len(grid) != pos.shape[1]:
            raise ValueError("need one grid per coordinate")
        factors = tuple(
            _histogram_1d(pos[:, j], g) for j, g in enumerate(grid)
        )
        return ProductGridMeasure(factors)
    if pos.shape[1] != 1:
        raise ValueError("product ensemble needs one grid per coordinate")
    return _histogram_1d(pos[:, 0], grid)


def _histogram_1d(xs: np.ndarray, grid: Grid1D) -> GridMeasure:
    idx = np.ceil((xs - grid.x_min) / grid.h - 1.5).astype(int)
    idx = np.clip(idx, 0, grid.n - 1)
    counts = np.bincount(idx, minlength=grid.n).astype(float)
    return GridMeasure(grid, counts / (xs.size * grid.h))


def estimate_lambda0(survival_curve: np.ndarray, window: tuple[float, float] = None) -> float:
    """Exit rate from the tail slope of -log(survival) against time.

    ``survival_curve`` has columns (t, alive_fraction[, log_survival]); the
    last column is used, interpreted as log survival when nonpositive
    throughout and as a raw fraction otherwise.  The fit window defaults to
    the second half of the curve.
    """
    curve = np.asarray(survival_curve, dtype=float)
    if curve.ndim != 2 or curve.shape[1] < 2:
        raise ValueError("survival curve needs columns (t, value)")
    t = curve[:, 0]
    v = curve[:, -1]
    log_s = v if np.all(v <= 0.0) else np.log(np.maximum(v, 1e-300))
    if window is None:
        window = (t[-1] / 2.0, t[-1])
    lo, hi = window
    mask = (t >= lo) & (t <= hi) & np.isfinite(log_s)
    if mask.sum() < 5:
        raise ValueError("need at least 5 samples with positive survival in the window")
    a = np.vstack([t[mask], np.ones(mask.sum())]).T
    slope, _ = np.linalg.lstsq(a, -log_s[mask], rcond=None)[0]
    return float(slope)


def save_survival_csv(ensemble: ParticleEnsemble, path) -> None:
    """Write the survival history as CSV ``t,alive_fraction,log_survival``."""
    write_csv(path, "t,alive_fraction,log_survival", ensemble.survival_curve.tolist())


def save_positions_csv(ensemble: ParticleEnsemble, path) -> None:
    """Write final positions as CSV ``particle_id,x1[,x2,...]``."""
    header = "particle_id," + ",".join(f"x{j + 1}" for j in range(ensemble.positions.shape[1]))
    write_csv(path, header, zip(range(len(ensemble.positions)), *ensemble.positions.T.tolist()))
