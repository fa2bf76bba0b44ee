"""The three workloads: their requests, generated from a seed, and their checks.

A request is the argv of one ``qsdlab`` command (its ``--output`` is added by
the runner) and a check that reads the artifacts back and compares them with
an independent reference from ``oracles``.  A check records named figures in
the dict it is given and raises ``CheckError`` when an artifact misses its
reference; the workload's accuracy metrics are taken from the figures.

Probes are requests that are run once per benchmark run, untimed and outside
the request count, because they exercise a known defect: the benchmark
records what they do today instead of counting them as failures.

Why each workload exists, and which layer metric should move which end-to-end
metric on it, is written down in README.md next to this file.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

# Shifted-power rate table inputs, as in the package README.
SP_DELTA, SP_X_MAX, SP_LAMBDA0_LOWER = 3.0, 2.5, 1.0
# Metastable double well V = a (x^2 - 1)^2 on (-2, 2).
DW_N = 150
# A solver that is stable for the double well meets this relative error
# against the Sturm reference at every a.
DW_RTOL = 1e-6
# Allowed growth of log survival between samples (roundoff, not dynamics).
MONOTONE_SLACK = 1e-12
# Error figure of a request that produced no value to compare.
FAILED_ERR = 1.0


class CheckError(AssertionError):
    """An artifact misses its reference."""


@dataclass
class Request:
    name: str
    command: str
    argv: list[str]
    check: Callable[[str, str, dict], None]


@dataclass
class Workload:
    requests: list[Request]
    probes: list[Request]
    summarize: Callable[[dict], dict]
    """Accuracy metrics from ``{request or probe name: Outcome}``, ``ref_err`` first."""


@dataclass
class Outcome:
    """What one execution of a request did."""

    exit_code: int
    seconds: float
    stdout: str = ""
    stderr_first_line: str = ""
    error: str = ""
    fig: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.error


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _fmt(x: float) -> str:
    return repr(float(x))


def read_csv(path: str, header: str) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().strip()
    _require(first == header, f"{os.path.basename(path)}: header {first!r}, expected {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _require(bool(np.all(np.isfinite(data))), f"{os.path.basename(path)}: non-finite value")
    return data


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _relerr(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


# --- spectral --------------------------------------------------------------

def _check_eigen_artifacts(outdir: str, x_min: float, x_max: float, n: int) -> dict:
    eig = read_json(os.path.join(outdir, "eigen.json"))
    lam0, lam1 = eig["lambda0"], eig["lambda1"]
    _require(0.0 < lam0 < lam1, f"eigen.json: lambda0={lam0}, lambda1={lam1}")
    _require(abs(eig["gap"] - (lam1 - lam0)) <= 1e-9 * lam1, "eigen.json: gap != lambda1 - lambda0")
    _, nodes, _ = oracles.grid_points(x_min, x_max, n)
    eta = read_csv(os.path.join(outdir, "eta.csv"), "x,eta")
    alpha = read_csv(os.path.join(outdir, "alpha.csv"), "x,density")
    for name, data in (("eta.csv", eta), ("alpha.csv", alpha)):
        _require(data.shape == (n, 2), f"{name}: shape {data.shape}, expected ({n}, 2)")
        _require(bool(np.allclose(data[:, 0], nodes, rtol=0.0, atol=8 * oracles.EPS * max(abs(x_min), abs(x_max)))),
                 f"{name}: abscissae are not the grid nodes")
        _require(bool(np.all(data[:, 1] > 0.0)), f"{name}: non-positive value")
    # normalization alpha(eta) = 1: gamma(eta^2) = gamma(eta)
    mass, first = alpha[:, 1].sum(), (alpha[:, 1] * eta[:, 1]).sum()
    _require(_relerr(first, mass) <= 1e-9, "alpha(eta) != 1")
    return eig


def _eigen_closed_form(kind: str, param: float, n: int):
    if kind == "brownian":
        x_min, x_max = -param, param
        refs = oracles.brownian_eigenvalues(param)
    else:
        x_min, x_max = 0.0, 8.0 / math.sqrt(param)
        refs = oracles.ou_eigenvalues(param)
    h = (x_max - x_min) / (n + 1)

    def check(outdir: str, stdout: str, fig: dict) -> None:
        eig = _check_eigen_artifacts(outdir, x_min, x_max, n)
        for k, (key, ref) in enumerate(zip(("lambda0", "lambda1"), refs), start=1):
            err = _relerr(eig[key], ref)
            fig["closed_form_relerr"] = max(err, fig.get("closed_form_relerr", 0.0))
            tol = oracles.eigen_tolerance(kind, k, n, h, ref)
            _require(err <= tol, f"{key}={eig[key]!r}, closed form {ref!r}: relative error {err:.3e} > {tol:.3e}")
    return check


def _eigen_double_well(reference: float):
    def check(outdir: str, stdout: str, fig: dict) -> None:
        eig = _check_eigen_artifacts(outdir, -2.0, 2.0, DW_N)
        err = _relerr(eig["lambda0"], reference)
        fig.update(lambda0=eig["lambda0"], reference=reference, relerr=err)
        _require(err <= DW_RTOL, f"lambda0={eig['lambda0']!r}, Sturm reference {reference!r}: "
                                 f"relative error {err:.3e} > {DW_RTOL:.0e}")
    return check


def _rates_check(n: int, outdirs: dict):
    """rates.json against rates recomputed from V = (x + 1)^3 on the same nodes."""
    h, nodes, _ = oracles.grid_points(0.0, SP_X_MAX, n)
    v = (nodes + 1.0) ** SP_DELTA
    vp = SP_DELTA * (nodes + 1.0) ** (SP_DELTA - 1.0)
    vpp = SP_DELTA * (SP_DELTA - 1.0) * (nodes + 1.0) ** (SP_DELTA - 2.0)
    low = SP_LAMBDA0_LOWER
    basic = vpp + 8.0 * low * np.exp(-v)
    expected = {
        "kappa_classical_inf_Vpp": float(vpp.min()),
        "kappa_tilde_basic": float(basic.min()),
        "kappa_tilde_refined": float((basic + 8.0 * low**2 * ((1.0 - 2.0 * np.exp(-v)) / vp) ** 2).min()),
    }

    def check(outdir: str, stdout: str, fig: dict) -> None:
        table = read_json(os.path.join(outdir, "rates.json"))
        lam0, lam1 = table["lambda0"], table["lambda1"]
        fig["lambda0"] = lam0
        _require(table["gap"] == lam1 - lam0, "rates.json: gap != lambda1 - lambda0")
        _require(table["lambda0_lower_used"] == low, "rates.json: lambda0_lower_used is not the given bound")
        _require(lam0 > low, f"lambda0={lam0} is below the lower bound {low} it was given")
        _require(math.isfinite(table["kappa_effective_inf_Wpp"]), "kappa_effective is not finite")
        for key, ref in expected.items():
            _require(_relerr(table[key], ref) <= 1e-12, f"{key}={table[key]!r}, recomputed {ref!r}")
        printed = {}
        for line in stdout.splitlines():
            key, _, val = line.strip().partition(" ")
            if key:
                printed[key] = val.strip()
        for key, val in table.items():
            shown = "None" if val is None else format(val, ".12g")
            _require(printed.get(key) == shown, f"stdout shows {key}={printed.get(key)!r}, rates.json {shown!r}")
        # second order in h: the coarser rung agrees with this one to O(h^2)
        for m, prev_dir in outdirs.items():
            if m >= n:
                continue
            prev = read_json(os.path.join(prev_dir, "rates.json"))
            h_prev = SP_X_MAX / (m + 1)
            for key in ("lambda0", "lambda1"):
                _require(_relerr(prev[key], table[key]) <= 2.0 * h_prev**2 * table[key],
                         f"{key} at n={m} and n={n} differ by more than O(h^2)")
    return check


def spectral(seed: int, workdir: str, outdir_of: Callable[[str], str]) -> Workload:
    # The inputs are the fixed closed-form cases N = 1 and lambda = 1; the
    # seed only orders each pass.  Perturbed N or lambda would be closed-form
    # cases too, but at n = 3.2e4 whether inverse iteration meets its stopping
    # test depends on roundoff, so some perturbations make eigen exit with 2.
    requests, probes = [], []
    rates_dirs: dict[int, str] = {}
    for n in (2000, 8000, 32000):
        requests.append(Request(f"eigen-brownian-n{n}", "eigen",
                                ["eigen", "--example", "brownian", "--N", "1.0", "--n", str(n)],
                                _eigen_closed_form("brownian", 1.0, n)))
        requests.append(Request(f"eigen-ou-n{n}", "eigen",
                                ["eigen", "--example", "ou", "--lambda", "1.0", "--n", str(n)],
                                _eigen_closed_form("ou", 1.0, n)))
        name = f"rates-shifted-power-n{n}"
        argv = ["rates", "--potential", "shifted-power", "--delta", _fmt(SP_DELTA),
                "--lambda0-lower", _fmt(SP_LAMBDA0_LOWER), "--x-max", _fmt(SP_X_MAX), "--n", str(n)]
        req = Request(name, "rates", argv, _rates_check(n, dict(rates_dirs)))
        if n == 32000:
            probes.append(req)  # inverse iteration stalls here (ConvergenceError)
        else:
            requests.append(req)
            rates_dirs[n] = outdir_of(name)
    for a in (1.0, 4.0):
        path = os.path.join(workdir, f"double_well_a{a:g}.csv")
        oracles.write_table_csv(oracles.double_well_table(a), path)
        h, vn, vm = oracles.tabulated_samples(path, DW_N)
        req = Request(f"eigen-double-well-a{a:g}", "eigen",
                      ["eigen", "--potential", "tabulated", "--table-path", path, "--n", str(DW_N)],
                      _eigen_double_well(oracles.sturm_lambda0(vn, vm, h)))
        # a = 4 puts lambda0 near eps * ||M||, where the Cholesky-based solver
        # loses it; it is a probe so that the defect is recorded, not timed
        (probes if a == 4.0 else requests).append(req)
    order = np.random.default_rng(seed).permutation(len(requests))
    requests = [requests[i] for i in order]

    def summarize(outcomes: dict) -> dict:
        ref_err = max((o.fig["closed_form_relerr"] if "closed_form_relerr" in o.fig else FAILED_ERR)
                      for name, o in outcomes.items() if name.startswith(("eigen-brownian", "eigen-ou")))
        # a failed request scores 0 digits
        digits = [max(0.0, -math.log10(max(o.fig["relerr"], 1e-300))) if o.ok else 0.0
                  for name, o in outcomes.items() if name.startswith("eigen-double-well")]
        return {"ref_err": ref_err, "lambda0_metastable_digits": min(digits)}

    return Workload(requests, probes, summarize)


# --- flow ------------------------------------------------------------------

FLOW_EXPM_N = 200
FLOW_EXPM_TOL = 2e-4


def _check_curves(path: str, t_max: float, samples: int) -> np.ndarray:
    c = read_csv(path, "t,tv,w1,chi2,survival_weight,log_survival")
    _require(c.shape == (samples, 6), f"curves.csv: shape {c.shape}, expected ({samples}, 6)")
    _require(bool(np.allclose(c[:, 0], np.linspace(0.0, t_max, samples), rtol=1e-15, atol=0.0)),
             "curves.csv: sample times")
    _require(bool(np.all(c[:, 1:5] >= 0.0)), "curves.csv: negative distance or survival weight")
    _require(bool(np.all(c[:, 1] <= 2.0 + 1e-12)), "curves.csv: tv above 2")
    _require(bool(np.all(c[:, 4] <= 1.0)), "curves.csv: survival weight above 1")
    _require(bool(np.all(np.diff(c[:, 5]) <= MONOTONE_SLACK)), "curves.csv: log survival increases")
    _require(bool(np.allclose(c[:, 4], np.exp(c[:, 5]), rtol=1e-12, atol=0.0)),
             "curves.csv: survival_weight != exp(log_survival)")
    return c


def _flow_check(command: str, t_max: float, samples: int, lam0_ref, evolve_dir: str | None):
    def check(outdir: str, stdout: str, fig: dict) -> None:
        curves = _check_curves(os.path.join(outdir, "curves.csv"), t_max, samples)
        if command == "evolve":
            return
        rep = read_json(os.path.join(outdir, "report.json"))
        for col, key in enumerate(("times", "tv", "w1", "chi2", "survival_weight", "log_survival")):
            _require(np.array_equal(np.asarray(rep[key], dtype=float), curves[:, col]),
                     f"report.json {key} differs from curves.csv")
        _require(rep["gap"] == rep["lambda1"] - rep["lambda0"], "report.json: gap != lambda1 - lambda0")
        if lam0_ref is not None:
            for key, ref in zip(("lambda0", "lambda1"), lam0_ref):
                _require(_relerr(rep[key], ref) <= 1e-6, f"report.json {key}={rep[key]!r}, closed form {ref!r}")
        else:
            _require(rep["kappa_tilde"] is not None, "report.json: no improved rate for a CDFI potential")
        # report and evolve run the same conditioned flow on the same argv
        other = read_csv(os.path.join(evolve_dir, "curves.csv"), "t,tv,w1,chi2,survival_weight,log_survival")
        _require(bool(np.allclose(curves, other, rtol=1e-9, atol=1e-14)), "report and evolve curves differ")
    return check


def flow(seed: int, workdir: str, outdir_of: Callable[[str], str]) -> Workload:
    rng = np.random.default_rng(seed)
    requests = []
    problems = (
        ("ou", ["--example", "ou", "--lambda", "1.0"], 3.0, oracles.ou_eigenvalues(1.0)),
        ("shifted-power", ["--potential", "shifted-power", "--delta", _fmt(SP_DELTA), "--x-max", _fmt(SP_X_MAX)],
         1.0, None),
    )
    for label, spec_args, t_max, refs in problems:
        for n in (2000, 8000):
            for samples in (61, 5):
                center, width = rng.uniform(0.8, 1.6), rng.uniform(0.3, 0.5)
                base = [*spec_args, "--n", str(n), "--t-max", _fmt(t_max), "--samples", str(samples),
                        "--initial", "gaussian-truncated", "--initial-center", _fmt(center),
                        "--initial-width", _fmt(width)]
                evolve_name = f"evolve-{label}-n{n}-s{samples}"
                requests.append(Request(evolve_name, "evolve", ["evolve", *base],
                                        _flow_check("evolve", t_max, samples, refs, None)))
                requests.append(Request(f"report-{label}-n{n}-s{samples}", "report", ["report", *base],
                                        _flow_check("report", t_max, samples, refs, outdir_of(evolve_name))))

    # CN survival against the matrix exponential of the same generator
    t_max, samples, center, width = 3.0, 61, 1.5, 1.0
    x_max = 8.0
    _, nodes, _ = oracles.grid_points(0.0, x_max, FLOW_EXPM_N)
    m0 = np.exp(-((nodes - center) ** 2) / (2.0 * width**2))
    times = np.linspace(0.0, t_max, samples)
    reference = oracles.expm_log_survival(oracles.ou_generator(1.0, x_max, FLOW_EXPM_N), m0, times)

    def expm_check(outdir: str, stdout: str, fig: dict) -> None:
        curves = _check_curves(os.path.join(outdir, "curves.csv"), t_max, samples)
        err = float(np.max(np.abs(curves[:, 5] - reference)))
        fig["flow_err"] = err
        _require(err <= FLOW_EXPM_TOL, f"log survival misses expm by {err:.3e} > {FLOW_EXPM_TOL:.0e}")

    requests.append(Request(f"evolve-ou-n{FLOW_EXPM_N}-expm", "evolve",
                            ["evolve", "--example", "ou", "--lambda", "1.0", "--n", str(FLOW_EXPM_N),
                             "--t-max", _fmt(t_max), "--samples", str(samples), "--initial", "gaussian-truncated",
                             "--initial-center", _fmt(center), "--initial-width", _fmt(width)],
                            expm_check))

    def summarize(outcomes: dict) -> dict:
        err = outcomes[f"evolve-ou-n{FLOW_EXPM_N}-expm"].fig.get("flow_err", FAILED_ERR)
        return {"ref_err": err, "flow_err": err}

    return Workload(requests, [], summarize)


# --- montecarlo ------------------------------------------------------------

MC_PARTICLES = 100_000
MC_FIT_WINDOW = (1.0, 3.0)


def _mc_check(domain: tuple[float, float], dt: float, horizon: float, resample: bool, survival_ref=None):
    steps = int(round(horizon / dt))

    def check(outdir: str, stdout: str, fig: dict) -> None:
        surv = read_csv(os.path.join(outdir, "survival.csv"), "t,alive_fraction,log_survival")
        _require(surv.shape == (steps + 1, 3), f"survival.csv: shape {surv.shape}, expected ({steps + 1}, 3)")
        _require(bool(np.allclose(surv[:, 0], dt * np.arange(steps + 1), rtol=1e-12, atol=1e-15)),
                 "survival.csv: step times")
        alive = surv[:, 1]
        _require(bool(np.all((alive >= 0.0) & (alive <= 1.0))), "survival.csv: alive fraction outside [0, 1]")
        _require(bool(np.all(np.diff(surv[:, 2]) <= MONOTONE_SLACK)), "survival.csv: log survival increases")
        if resample:
            _require(bool(np.all(alive == 1.0)), "survival.csv: resampled ensemble not fully alive")
        else:
            _require(bool(np.all(np.diff(alive) <= 0.0)), "survival.csv: alive fraction increases")
            _require(bool(np.allclose(surv[:, 2], np.log(alive), rtol=1e-12, atol=0.0)),
                     "survival.csv: log_survival != log(alive_fraction)")
        pos = read_csv(os.path.join(outdir, "positions.csv"), "particle_id,x1")
        expected_rows = int(round(alive[-1] * MC_PARTICLES))
        _require(pos.shape[0] == expected_rows, f"positions.csv: {pos.shape[0]} rows, {expected_rows} alive")
        _require(bool(np.array_equal(pos[:, 0], np.arange(expected_rows))), "positions.csv: particle ids")
        lo, hi = domain
        _require(bool(np.all((pos[:, 1] > lo) & (pos[:, 1] < hi))), "positions.csv: survivor outside the domain")
        fig.update(alive_at_step_start=float(alive[:-1].sum() * MC_PARTICLES),
                   particle_steps=MC_PARTICLES * steps)
        bias = 2.5 * math.sqrt(dt)  # step-end monitoring biases survival up by O(sqrt(dt))
        if survival_ref is not None:
            s_mc, s_ref = alive[-1], survival_ref(horizon)
            sd = math.sqrt(s_ref * (1.0 - s_ref) / MC_PARTICLES)
            _require(-5.0 * sd <= s_mc - s_ref <= bias * s_ref,
                     f"survival {s_mc:.5f} at t={horizon}, continuum {s_ref:.5f}: outside [-5 sd, +{bias:.3f} rel]")
        if resample:
            lam_hat = oracles.tail_slope(surv[:, 0], surv[:, 2], MC_FIT_WINDOW)
            lam_ref = oracles.brownian_eigenvalues(domain[1])[0]
            err = _relerr(lam_hat, lam_ref)
            fig.update(lambda0_estimate=lam_hat, mc_lambda0_relerr=err)
            _require(err <= bias, f"exit rate {lam_hat:.5f}, pi^2/8 = {lam_ref:.5f}: relative error {err:.3f} > {bias:.3f}")

    return check


def brownian_uniform_survival(t: float) -> float:
    """P(T > t) for Brownian motion on (-1, 1) started uniformly (50 modes)."""
    return sum(8.0 / (k * k * math.pi**2) * math.exp(-k * k * math.pi**2 * t / 8.0)
               for k in range(1, 100, 2))


def montecarlo(seed: int, workdir: str, outdir_of: Callable[[str], str]) -> Workload:
    rng = np.random.default_rng(seed)
    s1, s2, s3 = (str(int(s)) for s in rng.integers(0, 2**31, size=3))
    common = ["--particles", str(MC_PARTICLES)]
    requests = [
        Request("simulate-brownian-absorb", "simulate",
                ["simulate", "--example", "brownian", "--N", "1.0", *common, "--dt", "0.001",
                 "--horizon", "1.0", "--seed", s1],
                _mc_check((-1.0, 1.0), 1e-3, 1.0, False, brownian_uniform_survival)),
        Request("simulate-brownian-resample", "simulate",
                ["simulate", "--example", "brownian", "--N", "1.0", *common, "--dt", "0.01",
                 "--horizon", "3.0", "--resample", "--seed", s2],
                _mc_check((-1.0, 1.0), 1e-2, 3.0, True)),
        Request("simulate-ou-drift", "simulate",
                ["simulate", "--example", "ou", "--lambda", "1.0", *common, "--dt", "0.001",
                 "--horizon", "0.5", "--seed", s3],
                _mc_check((0.0, math.inf), 1e-3, 0.5, False)),
    ]

    def summarize(outcomes: dict) -> dict:
        err = outcomes["simulate-brownian-resample"].fig.get("mc_lambda0_relerr", FAILED_ERR)
        return {"ref_err": err, "mc_lambda0_relerr": err}

    return Workload(requests, [], summarize)


WORKLOADS = {"spectral": spectral, "flow": flow, "montecarlo": montecarlo}
