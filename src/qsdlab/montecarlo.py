"""Euler-Maruyama simulation of the absorbed diffusion, with empirical laws.

Each particle follows ``X_{k+1} = X_k + sqrt(dt) xi - (1/2) V'(X_k) dt`` with
independent standard Gaussians per coordinate.  Exits are tested with the
Brownian bridge (Gobet, SPA 87, 2000): for each finite end b of coordinate j,
with x the position before the step and y after it, let
``g = (x - b)(y - b)``.  ``g <= 0`` means the step ended outside.  Otherwise
the path between the two positions is a unit-variance bridge, which touches
b with probability ``exp(-2 g / dt)``, so a particle is absorbed with
probability ``p = 1 - prod(1 - exp(-2 g+ / dt))`` over every finite end of
every coordinate (coordinates in order, lower end first), with ``g+ =
max(g, 0)``.  Each end is taken on its own, which is exact for a half-line
and leaves an exponentially small error once an interval is a few sqrt(dt)
wide.  This removes the O(sqrt(dt)) survival bias of a test at step ends
alone; the O(dt) error of the Euler drift remains.

Only particles with ``g < BRIDGE_REACH * dt`` = 18.5 dt at some end draw a
uniform u, and they are absorbed when ``u < p``.  At every other particle
each end adds less than ``exp(-37) < 2**-53`` to p, below the resolution of
a 53-bit uniform.

Randomness is drawn from one SFC64 stream per step,
``Generator(SFC64(SeedSequence((seed & (2**64 - 1), k))))`` for step k, so
results are a pure function of the configuration.  Step 0 samples the initial
law.  Step k draws, in this order: one standard normal per surviving particle
and coordinate, as a ``(survivors, coordinates)`` block with the survivors in
particle-index order; one uniform per survivor within the bridge reach of an
end, in particle-index order; and, with resampling, the donors.  Absorbed
particles are dropped from the ensemble and draw nothing.  The optional
Fleming-Viot-style resampling restarts absorbed particles at a uniformly
chosen survivor and accumulates the log survival estimate; its output is
meant for exit-rate estimation only.

The survivors are kept as one array per coordinate j and stacked only at the
end.  A step draws its normal block into a reused ``(survivors,
coordinates)`` buffer and turns column j into the new coordinate j in place;
the exit test forms g at every survivor in a reused scratch buffer and the
exact probability only at those within reach.  The drift needs V' alone, and
the potential's domain is checked once, before stepping.

One helper thread draws normals ahead, ``AHEAD`` = 4 steps ahead of the
main thread, into ``AHEAD + 1`` = 5 reused ``(particles, coordinates)``
buffers.  At the end of step k the first ``lead`` rows of step k + 4's block
are queued on it; it draws the queued steps in step order.  Queued that
early, a block is taken up as soon as the one before is done, not when the
helper next wins the interpreter lock from the stepping main thread.  With
resampling ``lead = n``; otherwise ``lead = max(m - 4 D - 64, 0)``, with m
the survivors after step k and D its deaths (m = n and D = 0 for steps 1 to
4).  When step k's rows are not drawn yet, the main thread does not wait:
it takes the latest queued step the helper has not started, draws it itself,
and repeats until step k's rows are drawn or nothing is left to take.  A
successful ``Future.cancel()`` hands a step over, so no buffer is written by
both threads.  A stream fills a block row after row, so step k draws its
remaining rows on from where the first draw stopped and gets the values and
stream position of a single draw.  If fewer than ``lead`` particles survive
to step k, step k opens its stream again and draws the whole block itself.
When the last survivor dies, the queued steps the helper has not started
are cancelled and only the one it is drawing is waited for.  Which thread
draws what decides nothing else: the stream layout and every output bit
depend neither on thread timing nor on the number of cores.  The helper is
started once per run and joined before ``simulate`` returns or raises, and
it calls no public function.  It runs wherever the scheduler puts it, and no
output depends on where.
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
# an end with (x - b)(y - b) >= BRIDGE_REACH * dt is touched with probability
# at most exp(-2 * BRIDGE_REACH) < 2**-53: such particles draw no uniform
BRIDGE_REACH = 18.5
# exp(-40) < 2**-54, so 1 - exp(a) rounds to 1 for every a <= -40; clipping
# there keeps exp off its slow underflow path without changing a result
_EXP_FLOOR = -40.0
# steps whose normals are queued on the helper thread ahead of the step run
AHEAD = 4


@dataclass(frozen=True)
class SimConfig:
    """Configuration of an absorbed-diffusion simulation.

    ``spec`` and ``domain`` may be single objects (1D) or per-coordinate
    sequences (product potentials / product domains).  Open domain ends may
    be infinite.  Every finite end absorbs with the Brownian-bridge exit test
    of the module docstring: a particle within 18.5 dt of an end in
    ``(x - b)(y - b)`` draws a uniform from the step's SFC64 stream, keyed by
    ``(seed, step)``.  The horizon and the step count horizon / dt must be
    finite.
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
        if not math.isfinite(self.horizon):
            raise ValueError("horizon must be finite")
        if self.dt > self.horizon:
            raise ValueError("dt must not exceed the horizon")
        if not math.isfinite(self.horizon / self.dt):
            raise ValueError("the step count horizon / dt must be finite")
        if self.n_particles < 100:
            raise ValueError("need at least 100 particles")

    def coordinates(self) -> tuple[tuple[PotentialSpec, tuple[float, float]], ...]:
        specs = self.spec if isinstance(self.spec, (list, tuple)) else (self.spec,)
        dom = self.domain
        if isinstance(dom, (list, tuple)) and dom and isinstance(dom[0], (list, tuple)):
            domains = tuple(tuple(map(float, d)) for d in dom)
        else:
            domains = (tuple(map(float, dom)),)
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
    entropy = (int(seed) & _KEY_MASK, int(step_index))
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy)))


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
    x = grid.nodes[rng.choice(grid.n, size=n, p=masses)]
    x += rng.uniform(-0.5 * grid.h, 0.5 * grid.h, size=n)
    eps = 1e-12 * (grid.x_max - grid.x_min)
    return np.clip(x, grid.x_min + eps, grid.x_max - eps, out=x)[:, None]


def _euler_step(coords, cols, ys, dt: float) -> None:
    """Turn the normals xi_j in ``ys`` into ``y = x - (1/2) V'(x) dt + sqrt(dt) xi_j``."""
    sqdt = math.sqrt(dt)
    for j, (spec, _) in enumerate(coords):
        x, y = cols[j], ys[j]
        y *= sqdt
        vp = _first_derivative(spec, x)  # a new array, or None for V' == 0
        if vp is None:
            y += x
        else:
            vp *= -0.5 * dt
            vp += x
            y += vp


@np.errstate(over="ignore")
def _bridge_exits(rng, cols, ys, ends, dt: float, scratch, masks) -> np.ndarray:
    """Indices of the survivors that the Brownian-bridge exit test absorbs.

    ``g = (x - b)(y - b)`` is formed at each finite end in ``scratch``, which
    also holds ``y - b``; an overflowed g is +inf, out of reach.
    Survivors with ``g < BRIDGE_REACH * dt`` at some end draw one uniform
    each, in particle-index order, and are absorbed when it falls below
    ``1 - prod(1 - exp(-2 g+ / dt))``; an end with g <= 0 makes that 1.
    """
    m = ys[0].size
    near, below = masks[0][:m], masks[1][:m]
    g, y_minus_b = scratch[:m], scratch[m:2 * m]
    near.fill(False)
    for j, b in ends:
        np.multiply(np.subtract(cols[j], b, out=g), np.subtract(ys[j], b, out=y_minus_b), out=g)
        near |= np.less(g, BRIDGE_REACH * dt, out=below)

    near = np.flatnonzero(near)
    x_near = [x[near] for x in cols]
    y_near = [y[near] for y in ys]
    f = scratch[:near.size]
    stay = np.ones(near.size)
    for j, b in ends:
        np.multiply(np.subtract(x_near[j], b, out=f), np.subtract(y_near[j], b), out=f)
        f *= -2.0 / dt
        np.clip(f, _EXP_FLOOR, 0.0, out=f)
        stay *= np.subtract(1.0, np.exp(f, out=f), out=f)
    return near[rng.random(out=f) < np.subtract(1.0, stay, out=stay)]


def _draw_ahead(seed: int, step_index: int, out: np.ndarray) -> np.random.Generator:
    """Fill ``out`` with the first normals of a step; return the step's stream after them."""
    rng = _step_rng(seed, step_index)
    rng.standard_normal(out=out)
    return rng


def simulate(config: SimConfig, initial_sampler) -> ParticleEnsemble:
    """Run the absorbed Euler-Maruyama scheme from a sampled initial law.

    The survival curve holds one row (t, alive fraction, log survival) per
    step, after the t = 0 row.
    """
    coords = config.coordinates()
    d = len(coords)
    n = config.n_particles
    steps = int(round(config.horizon / config.dt))  # >= 1, as 0 < dt <= horizon
    dt = config.horizon / steps

    if any(lo < spec.domain[0] or hi > spec.domain[1] for spec, (lo, hi) in coords):
        raise ValueError("each simulation interval must lie inside its potential domain")

    rng0 = _step_rng(config.seed, 0)
    x = sample_measure(initial_sampler, n, rng0)
    if x.shape[1] != d:
        raise ValueError(f"initial sampler has {x.shape[1]} coordinates, domain has {d}")
    for j, (_, (lo, hi)) in enumerate(coords):
        if np.any(x[:, j] <= lo) or np.any(x[:, j] >= hi):
            raise ValueError("initial measure must be supported inside the open domain")

    # (coordinate, end) pairs of the finite ends, in the order of the product
    ends = [(j, b) for j, (_, dom) in enumerate(coords) for b in dom if math.isfinite(b)]
    # buffers reused by every step, so that a run allocates few large arrays:
    # step k draws its (survivors, coordinates) normals into
    # blocks[k % (AHEAD + 1)] and turns column j into the new coordinate j in
    # place, while cols may sit in blocks[(k - 1) % (AHEAD + 1)] and the
    # blocks of steps k + 1 ... k + AHEAD - 1 are queued or drawn; step
    # k + AHEAD is queued into the block of step k - 1 once step k is done
    blocks = [x] + [np.empty((n, d)) for _ in range(AHEAD)]
    cols = list(x.T)  # survivors' coordinates, particle-index order
    scratch = np.empty(2 * n)  # for the exit test
    masks = (np.empty(n, dtype=bool), np.empty(n, dtype=bool))
    m = n
    log_surv = 0.0
    history = [(0.0, 1.0, 0.0)]
    status = "ok"
    t = 0.0

    from concurrent.futures import Future, ThreadPoolExecutor  # loaded by simulate alone

    with ThreadPoolExecutor(max_workers=1) as helper:
        queued = {}  # step: (lead, future) of the steps queued, in step order

        def prefetch(k: int, survivors: int, deaths: int) -> None:
            """Queue the first lead rows of step k's normals on the helper."""
            if k <= steps:
                lead = n if config.resample else max(survivors - AHEAD * deaths - 64, 0)
                out = blocks[k % (AHEAD + 1)][:lead]
                queued[k] = (lead, helper.submit(_draw_ahead, config.seed, k, out))

        for k in range(1, AHEAD + 1):
            prefetch(k, n, 0)
        for k in range(1, steps + 1):
            block = blocks[k % (AHEAD + 1)]
            # while step k's rows are not drawn, draw the latest step the
            # helper has not started here; a successful cancel hands it over
            for j in reversed(queued):
                if queued[k][1].done():
                    break
                lead, drawn = queued[j]
                if drawn.done():  # drawn here already
                    continue
                if not drawn.cancel():  # the helper has started it, and every earlier one
                    break
                stolen = Future()
                stolen.set_result(_draw_ahead(config.seed, j, blocks[j % (AHEAD + 1)][:lead]))
                queued[j] = (lead, stolen)
            lead, drawn = queued.pop(k)
            rng = drawn.result()
            if lead > m:  # more deaths than guessed: draw the whole step here
                rng, lead = _step_rng(config.seed, k), 0
            rng.standard_normal(out=block[lead:m])
            ys = list(block[:m].T)
            _euler_step(coords, cols, ys, dt)
            dead = _bridge_exits(rng, cols, ys, ends, dt, scratch, masks)
            n_alive = m - dead.size
            t = k * dt

            if n_alive == 0:
                status = "all_absorbed"
                log_surv = -math.inf
                cols = [c[:0] for c in cols]
                history.append((t, 0.0, log_surv))
                break
            cols = ys
            if config.resample:
                log_surv += math.log(n_alive / m)
                if dead.size:
                    # the r-th survivor sits at r plus the number of dead before it
                    ahead = dead - np.arange(dead.size)
                    r = rng.integers(0, n_alive, size=dead.size)
                    donors = r + np.searchsorted(ahead, r, side="right")
                    for c in cols:
                        c[dead] = c[donors]
            else:
                if dead.size:
                    keep = masks[0][:m]
                    keep.fill(True)
                    keep[dead] = False
                    cols = [c[keep] for c in cols]
                m = n_alive
                log_surv = math.log(m / n)
            prefetch(k + AHEAD, m, dead.size)
            history.append((t, m / n, log_surv))
        # queued for steps after the last survivor died: drop those the helper
        # has not started and wait only for the one it draws
        for _, drawn in queued.values():
            if not drawn.cancel():
                drawn.result()

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
    if np.all(v <= 0.0):
        log_s = v
    else:
        with np.errstate(divide="ignore"):  # a zero fraction is log 0 = -inf
            log_s = np.log(v)
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
    write_csv(path, "t,alive_fraction,log_survival", ensemble.survival_curve.T)


def save_positions_csv(ensemble: ParticleEnsemble, path) -> None:
    """Write final positions as CSV ``particle_id,x1[,x2,...]``."""
    header = "particle_id," + ",".join(f"x{j + 1}" for j in range(ensemble.positions.shape[1]))
    write_csv(path, header, (np.arange(len(ensemble.positions)), *ensemble.positions.T))
