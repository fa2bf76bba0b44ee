"""Closed-form examples, explicit constants, rate fitting and decay reports.

The two closed-form examples (absorbed Brownian motion in a centered box and
the absorbed Ornstein-Uhlenbeck process on the positive half-line) come with
their eigenpairs, quasi-stationary densities, curvature constants and spectral
gaps in analytic form.  Reports evolve an initial law through the conditioned
semigroup, record distances to the quasi-stationary distribution, fit
empirical decay rates after the burn-in, and attach every certified rate the
theory provides (curvature kappa, the improved rate for processes coming down
from infinity, and the spectral gap).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .artifacts import write_csv, write_json
from .doob import flow_exponential
from .grid_measure import (
    Grid1D,
    GridMeasure,
    ProductGridMeasure,
    build_grid,
    extrapolated_boundary,
    quadrature,
    tv_distance,
    w1_distance,
)
from .potential import (
    PotentialSpec,
    be_constant,
    cdfi_rate,
    evaluate,
    quadratic_potential,
    zero_potential,
)
from .spectral import EigenPair, assemble_generator, principal_eigenpair, qsd_from_eigen

__all__ = [
    "ClosedFormExample",
    "BoundConstants",
    "BurnIn",
    "FitResult",
    "ReportConfig",
    "DecayReport",
    "closed_form",
    "bound_constants",
    "alpha_psi2_over_eta",
    "burn_in_time",
    "fit_decay_rate",
    "decay_curves",
    "decay_report",
    "lambda0_lower_used",
    "save_report_json",
    "save_curves_csv",
    "write_curves_csv",
]

# explicit constants from the two-sided bound around the quasi-stationary
# mean: a = 1 + 1/(1 - sqrt(0.9)), b = 1/(1 - sqrt(0.9)); the 0.9 threshold
# is the (arbitrary) entry point of the contraction regime
BOUND_B = 1.0 / (1.0 - math.sqrt(0.9))
BOUND_A = 1.0 + BOUND_B

DISTANCE_FLOOR = 1e-12
FIT_MIN_SAMPLES = 5
BURN_IN_THRESHOLD = 0.9
CURVE_NAMES = ("tv", "w1", "chi2", "survival_weight", "log_survival")
CURVES_HEADER = ",".join(("t",) + CURVE_NAMES)


@dataclass(frozen=True)
class ClosedFormExample:
    """Analytic data of a closed-form example, sampled on a 1D factor grid."""

    grid: Grid1D
    spec: PotentialSpec
    eigen: EigenPair
    alpha: GridMeasure
    constants: dict


def closed_form(example: str, N: float = 1.0, lam: float = 1.0, d: int = 1,
                n: int = 2000) -> ClosedFormExample:
    """Analytic eigenpair, QSD and constants of a closed-form example.

    ``example`` is ``brownian_hypercube`` (box half-width N) or
    ``ornstein_uhlenbeck`` (quadratic coefficient lam, on (0, 8/sqrt(lam))).
    Multi-dimensional versions are products of the returned 1D factor;
    constants that scale with the dimension are reported for the given d.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if example == "brownian_hypercube":
        if not N > 0.0:
            raise ValueError("box half-width N must be positive")
        grid = build_grid(-N, N, n)
        spec = zero_potential(domain=(-N, N))
        a = math.pi / (2.0 * N)
        eta = (4.0 / math.pi) * np.cos(a * grid.nodes)
        lam0 = math.pi**2 / (8.0 * N**2)
        lam1 = math.pi**2 / (2.0 * N**2)
        alpha = GridMeasure(grid, np.cos(a * grid.nodes))
        constants = {
            "lambda0": lam0,
            "lambda1": lam1,
            "lambda0_total": d * lam0,
            "gap": lam1 - lam0,
            "kappa": a**2,
            "alpha_inv_eta": math.pi**2 / 8.0,
            "alpha_inv_eta_total": (math.pi**2 / 8.0) ** d,
            "prefactor_Cd": None,
        }
        return ClosedFormExample(
            grid=grid,
            spec=spec,
            eigen=EigenPair(lambda0=lam0, eta=eta, lambda1=lam1),
            alpha=alpha,
            constants=constants,
        )
    if example == "ornstein_uhlenbeck":
        if not lam > 0.0:
            raise ValueError("quadratic coefficient lam must be positive")
        grid = build_grid(0.0, 8.0 / math.sqrt(lam), n)
        spec = quadratic_potential(lam, domain=(0.0, math.inf))
        c = 2.0 * math.sqrt(lam / math.pi)  # makes alpha(eta) = 1
        eta = c * grid.nodes
        alpha = GridMeasure(grid, grid.nodes * np.exp(-lam * grid.nodes**2))
        constants = {
            "lambda0": lam,
            "lambda1": 3.0 * lam,
            "lambda0_total": d * lam,
            "gap": 2.0 * lam,
            "kappa": 2.0 * lam,
            "alpha_inv_eta": math.pi / 2.0,
            "alpha_inv_eta_total": (math.pi / 2.0) ** d,
            "prefactor_Cd": d * (d - 1) / (4.0 * lam) * (math.pi / 2.0) ** d if d >= 2 else None,
        }
        return ClosedFormExample(
            grid=grid,
            spec=spec,
            eigen=EigenPair(lambda0=lam, eta=eta, lambda1=3.0 * lam),
            alpha=alpha,
            constants=constants,
        )
    raise ValueError(f"unknown closed-form example {example!r}")


def alpha_psi2_over_eta(psi: np.ndarray, eigen: EigenPair, alpha: GridMeasure) -> float:
    """alpha(psi^2 / eta) by quadrature with extrapolated endpoint values.

    The integrand psi^2 alpha/eta has a finite boundary limit (alpha and eta
    vanish at the same rate), so the endpoints are extrapolated quadratically
    instead of being forced to zero.
    """
    psi = np.asarray(psi, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        ratio = psi**2 * alpha.density / eigen.eta
    if not np.all(np.isfinite(ratio)):
        raise ValueError("alpha(psi^2/eta) is not finite on this grid")
    value = quadrature(ratio, alpha.grid, boundary=extrapolated_boundary(ratio))
    if not math.isfinite(value):
        raise ValueError("alpha(psi^2/eta) is not finite on this grid")
    return float(value)


@dataclass(frozen=True)
class BoundConstants:
    """Constants of the weighted-distance bound for psi; its coefficients are BOUND_A, BOUND_B."""

    C_psi: float
    alpha_psi: float
    alpha_psi2_over_eta: float


def bound_constants(psi: np.ndarray, eigen: EigenPair, alpha: GridMeasure) -> BoundConstants:
    """Constants (C_psi, alpha(psi), alpha(psi^2/eta)) for a weight psi >= 1."""
    psi = np.asarray(psi, dtype=float)
    if np.any(psi < 1.0):
        raise ValueError("psi must be >= 1 everywhere")
    a_psi = quadrature(psi * alpha.density, alpha.grid)
    a_ratio = alpha_psi2_over_eta(psi, eigen, alpha)
    c_psi = (BOUND_A + BOUND_B * a_psi) * math.sqrt(a_ratio)
    return BoundConstants(C_psi=c_psi, alpha_psi=float(a_psi), alpha_psi2_over_eta=a_ratio)


@dataclass(frozen=True)
class BurnIn:
    """First sampled time at which the contraction-regime threshold holds."""

    time: float
    reached: bool


def burn_in_time(a_ratio: float, times, chi2) -> BurnIn:
    """First of ``times`` with a_ratio * chi2^2 < 0.9, a_ratio = alpha(psi^2/eta).

    ``chi2`` holds the chi-square distances of eta*phi_t(mu) to beta at
    ``times``; returns (times[-1], reached=False) when the threshold is never
    crossed on the sampled times.
    """
    for t, c in zip(times, chi2):
        if a_ratio * c**2 < BURN_IN_THRESHOLD:
            return BurnIn(time=float(t), reached=True)
    return BurnIn(time=float(times[-1]), reached=False)


def decay_curves(op, eigen: EigenPair, alpha: GridMeasure, mu: GridMeasure, times) -> dict:
    """The conditioned flow's decay curves at ``times``, keyed by `CURVE_NAMES`.

    TV and W1 distance of phi_t(mu) to the QSD ``alpha``, the chi-square
    distance of eta*phi_t(mu) to beta, the survival weight and its log, from
    `flow_exponential`.
    """
    states = flow_exponential(op, mu, times, eigen=eigen)
    return {
        "tv": np.array([tv_distance(s.mu_t, alpha) for s in states]),
        "w1": np.array([w1_distance(s.mu_t, alpha) for s in states]),
        "chi2": np.array([s.chi2_to_beta for s in states]),
        "survival_weight": np.array([s.survival_weight for s in states]),
        "log_survival": np.array([s.log_survival for s in states]),
    }


@dataclass(frozen=True)
class FitResult:
    """Least-squares exponential-decay fit on (t, log value)."""

    rate: float
    intercept: float
    r_squared: float


def fit_decay_rate(times, values, window: tuple[float, float]) -> FitResult:
    """Fit log(values) ~ intercept - rate * t over the time window."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window
    mask = (times >= lo) & (times <= hi)
    if np.any(values[mask] <= 0.0):
        raise ValueError("nonpositive values inside the fit window")
    if mask.sum() < FIT_MIN_SAMPLES:
        raise ValueError(f"need at least {FIT_MIN_SAMPLES} points inside the fit window")
    t = times[mask]
    y = np.log(values[mask])
    a = np.vstack([t, np.ones(t.size)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    slope, intercept = coef
    resid = y - a @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return FitResult(rate=float(-slope), intercept=float(intercept), r_squared=r2)


@dataclass
class ReportConfig:
    """Configuration of a decay report.

    For product examples pass per-coordinate lists in ``spec``/``grid`` and a
    ProductGridMeasure as the initial law; all distances are then sums over
    marginals (exact for W1, an upper bound for TV).  The bound's weight psi = 1,
    the fit window and the drift form of the ``cdfi`` rate are not settings.
    """

    label: str
    spec: object
    grid: object
    initial: object
    times: np.ndarray
    cdfi: bool = False
    lambda0_lower: float = None
    kappa: float = None           # certified curvature rate, if known analytically


@dataclass
class DecayReport:
    """Decay curves with fitted rates and every certified rate bound."""

    label: str
    times: np.ndarray
    tv: np.ndarray
    w1: np.ndarray
    chi2: np.ndarray
    survival_weight: np.ndarray
    log_survival: np.ndarray
    fitted_rate_tv: float
    fitted_rate_w1: float
    fitted_rate_chi2: float
    kappa: float
    kappa_tilde: float
    lambda0: float
    lambda1: float
    gap: float
    burn_in_time: float
    burn_in_reached: bool
    bound_constant: float
    bound_a: float
    bound_b: float
    alpha_psi: float
    alpha_psi2_over_eta: float
    fit_window: tuple
    prefactor_Cd: float = None
    notes: tuple = ()
    marginals: tuple = field(default=(), repr=False)


def _fit_or_nan(times, values, window) -> float:
    keep = values > DISTANCE_FLOOR
    try:
        return fit_decay_rate(times[keep], values[keep], window).rate
    except ValueError:
        return math.nan


def _assemble_report(config: ReportConfig, curves: dict, burn: BurnIn, gap: float,
                     **fields) -> DecayReport:
    """Fit the curves over the fit window and build the report.

    The window starts after the burn-in, and no earlier than half a relaxation
    time 1/gap, and ends at three relaxation times, or at the last sample time
    (with a note) when it would not start before that.  A window with width
    but fewer than ``FIT_MIN_SAMPLES`` samples gets a note too.  Each end is
    snapped to a sample time within 1e-9 relative of it, so the roundoff in
    the gap neither keeps nor drops a sample that lies on an end.
    """
    times = np.asarray(config.times, dtype=float)
    start, stop = (next((float(s) for s in times if abs(s - t) <= 1e-9 * t), t)
                   for t in (max(burn.time, 0.5 / gap), 3.0 / gap))
    window = (start, stop if start < stop else float(times[-1]))
    if start >= stop:
        fields["notes"] += ("default fit window starts at max(burn-in, 0.5/gap) >= 3/gap: "
                            + ("no width, so the fitted rates are NaN" if start >= window[1]
                               else "ended at the last sample time"),)
    held = int(np.count_nonzero((times >= window[0]) & (times <= window[1])))
    if start < window[1] and held < FIT_MIN_SAMPLES:
        fields["notes"] += (f"default fit window holds {held} sample(s), fewer than the "
                            f"{FIT_MIN_SAMPLES} a fit needs, so the fitted rates are NaN",)
    return DecayReport(
        label=config.label,
        times=times,
        **curves,
        fitted_rate_tv=_fit_or_nan(times, curves["tv"], window),
        fitted_rate_w1=_fit_or_nan(times, curves["w1"], window),
        fitted_rate_chi2=_fit_or_nan(times, curves["chi2"], window),
        gap=gap,
        burn_in_time=burn.time,
        burn_in_reached=burn.reached,
        bound_a=BOUND_A,
        bound_b=BOUND_B,
        fit_window=window,
        **fields,
    )


def lambda0_lower_used(eigen: EigenPair, lower: float = None) -> float:
    """The lambda0 a CDFI rate uses: ``lower``, or lambda0; one above the bracket (or lambda0) raises."""
    hi = eigen.lambda0 if eigen.lambda0_bracket is None else eigen.lambda0_bracket[1]
    if lower is not None and lower > hi:
        raise ValueError(f"lambda0_lower = {lower:.12g} exceeds the upper bound {hi:.12g} on lambda0")
    return eigen.lambda0 if lower is None else lower


def _report_1d(config: ReportConfig, op, eigen: EigenPair) -> DecayReport:
    """The report of one factor, on its generator ``op`` and principal pair ``eigen``."""
    spec, grid, mu = config.spec, config.grid, config.initial
    lam_low = lambda0_lower_used(eigen, config.lambda0_lower)
    alpha = qsd_from_eigen(op, eigen)

    times = np.asarray(config.times, dtype=float)
    curves = decay_curves(op, eigen, alpha, mu, times)

    bc = bound_constants(np.ones(grid.n), eigen, alpha)
    burn = burn_in_time(bc.alpha_psi2_over_eta, times, curves["chi2"])
    notes = ["tensor eigenfunction: n/a (one factor)"]
    if not burn.reached:
        notes.append("burn-in threshold not reached on the sampled times")
    notes.append(
        "fitted rates approach the spectral gap for generic initial laws; "
        "laws orthogonal to the second eigenfunction decay faster"
    )

    kappa = config.kappa
    if kappa is None:
        _, _, vpp = evaluate(spec, grid.nodes)
        kappa = be_constant(np.asarray(vpp))
    kappa_tilde = None
    if config.cdfi:
        kappa_tilde = cdfi_rate(spec, lam_low, grid, use_drift_form=True)

    return _assemble_report(
        config, curves, burn, eigen.gap,
        kappa=float(kappa),
        kappa_tilde=kappa_tilde,
        lambda0=eigen.lambda0,
        lambda1=eigen.lambda1,
        bound_constant=bc.C_psi,
        alpha_psi=bc.alpha_psi,
        alpha_psi2_over_eta=bc.alpha_psi2_over_eta,
        notes=tuple(notes),
    )


def decay_report(config: ReportConfig) -> DecayReport:
    """Run the conditioned flow and assemble the full decay report.

    Product configurations produce marginal reports plus a combined report
    whose distance curves are the marginal sums (exact for W1 by the additive
    structure of the L1 ground metric; an upper bound for TV).
    """
    if not isinstance(config.spec, (list, tuple)):
        op = assemble_generator(config.spec, config.grid)
        return _report_1d(config, op, principal_eigenpair(op))

    specs = list(config.spec)
    grids = list(config.grid)
    initial = config.initial
    if not isinstance(initial, ProductGridMeasure):
        raise ValueError("product report needs a ProductGridMeasure initial law")
    if not (len(specs) == len(grids) == initial.dim):
        raise ValueError("spec/grid/initial dimension mismatch")

    marginals = [
        decay_report(replace(config, label=f"{config.label}[{j}]", spec=sp, grid=gr, initial=mu))
        for j, (sp, gr, mu) in enumerate(zip(specs, grids, initial.factors))
    ]
    curves = {
        name: np.sum([getattr(m, name) for m in marginals], axis=0)
        for name in ("tv", "w1", "chi2", "log_survival")
    }
    curves["survival_weight"] = np.prod([m.survival_weight for m in marginals], axis=0)
    kts = [m.kappa_tilde for m in marginals]
    burn = BurnIn(time=max(m.burn_in_time for m in marginals),
                  reached=all(m.burn_in_reached for m in marginals))
    notes = (
        "product example: eta is the tensor eigenfunction built from the "
        "per-coordinate principal eigenvectors (recorded choice; the "
        "eigenfunction is not unique a priori)",
        "tv/w1/chi2 curves are sums over marginals (exact for w1)",
    )
    return _assemble_report(
        config, curves, burn, min(m.gap for m in marginals),
        kappa=min(m.kappa for m in marginals),
        kappa_tilde=min(kts) if all(k is not None for k in kts) else None,
        lambda0=float(sum(m.lambda0 for m in marginals)),
        lambda1=math.nan,
        bound_constant=max(m.bound_constant for m in marginals),
        alpha_psi=math.nan,
        alpha_psi2_over_eta=math.nan,
        notes=notes,
        marginals=tuple(marginals),
    )


def save_report_json(report: DecayReport, path) -> None:
    """Write the report as JSON through :mod:`qsdlab.artifacts`."""
    write_json(path, asdict(report))


def write_curves_csv(path, times, curves: dict) -> None:
    """Write decay curves as CSV ``t,tv,w1,chi2,survival_weight,log_survival``."""
    write_csv(path, CURVES_HEADER, (times, *(curves[name] for name in CURVE_NAMES)))


def save_curves_csv(report: DecayReport, path) -> None:
    """Write the report's decay curves with `write_curves_csv`."""
    write_curves_csv(path, report.times, {name: getattr(report, name) for name in CURVE_NAMES})
