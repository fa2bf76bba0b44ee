"""Command-line front end: configuration parsing, orchestration, artifacts.

Commands
--------
eigen      solve the eigenproblem; writes eigen.json, eta.csv, alpha.csv
evolve     evolve an initial law; writes curves.csv
simulate   Monte Carlo run; writes survival.csv, positions.csv
rates      certified rate table (kappa, kappa~, gap); writes rates.json
report     full decay report; writes report.json and curves.csv

Configuration is flat ``section.key = value`` text; command-line flags mirror
the keys and win over the file.  Outputs go through :mod:`qsdlab.artifacts`
(atomic, floats at 17 significant digits), mostly by way of the library
``save_*`` functions, so identical configurations and seeds produce
byte-identical artifacts.  Exit codes: 0 success, 1 validation error, 2
numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import analytics, doob, montecarlo, spectral
from .artifacts import write_json
from .grid_measure import (
    GridMeasure,
    build_grid,
    load_measure_csv,
    regrid,
    save_measure_csv,
)
from .potential import (
    be_constant,
    cdfi_rate,
    effective_second_derivative,
    evaluate,
    quadratic_potential,
    shifted_power_potential,
    tabulated_from_csv,
    zero_potential,
)
from .spectral import ConvergenceError

__all__ = ["RunConfig", "parse_config_file", "validate", "run", "main"]

COMMANDS = ("eigen", "evolve", "simulate", "rates", "report")

# Every config key with its flag, type and default; every command takes every
# flag.  A flag is parsed as text and converted by _coerce, as a config-file
# value is, and its allowed values are checked by validate; a bool flag is a
# bare switch that stores "true".
_KEYS = {
    "example": ("--example", str, None),  # brownian | ou
    "example.N": ("--N", float, 1.0),
    "example.lambda": ("--lambda", float, 1.0),
    "potential.family": ("--potential", str, None),  # zero | quadratic | shifted-power | tabulated
    "potential.lambda": (None, float, 1.0),  # --lambda sets it too
    "potential.delta": ("--delta", float, 3.0),
    "potential.table_path": ("--table-path", str, None),
    "grid.x_min": ("--x-min", float, None),
    "grid.x_max": ("--x-max", float, None),
    "grid.n": ("--n", int, 2000),
    "flow.t_max": ("--t-max", float, 2.0),
    "flow.samples": ("--samples", int, 41),
    "mc.dt": ("--dt", float, 1e-3),
    "mc.horizon": ("--horizon", float, 1.0),
    "mc.particles": ("--particles", int, 10000),
    "mc.resample": ("--resample", bool, False),
    "initial.family": ("--initial", str, "uniform"),  # uniform | gaussian-truncated | qsd | custom
    "initial.lo": ("--initial-lo", float, None),
    "initial.hi": ("--initial-hi", float, None),
    "initial.center": ("--initial-center", float, None),
    "initial.width": ("--initial-width", float, None),
    "initial.path": ("--initial-path", str, None),
    "rates.lambda0_lower": ("--lambda0-lower", float, None),
    "output": ("--output", str, "."),
    "seed": ("--seed", int, 0),
}
DEFAULTS = {key: default for key, (_, _, default) in _KEYS.items()}
_FLAGS = {flag: key for key, (flag, _, _) in _KEYS.items() if flag is not None}


class RunConfig(dict):
    """Flat configuration mapping with the DEFAULTS schema."""


class FlowFailure(RuntimeError):
    """Numerical failure surfaced by a command (exit code 2)."""


def _coerce(key: str, raw: str):
    kind = _KEYS[key][1]
    if kind is str:
        return raw
    if kind is bool:
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"{key}: expected a boolean, got {raw!r}")
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(f"{key}: expected {kind.__name__}, got {raw!r}") from None


def parse_config_file(path) -> dict:
    """Parse flat ``key = value`` configuration text ('#' starts a comment)."""
    if not os.path.exists(path):
        raise ValueError(f"config file not found: {path}")
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in DEFAULTS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = _coerce(key, raw)
    return out


def validate(config: RunConfig) -> list[str]:
    """Return one diagnostic per violated invariant (empty list when valid)."""
    bad = []
    if config.get("command") not in COMMANDS:
        bad.append(f"command must be one of {COMMANDS}")
    example = config.get("example")
    family = config.get("potential.family")
    if example is None and family is None:
        bad.append("either example or potential.family must be set")
    if example is not None and example not in ("brownian", "ou"):
        bad.append("example must be 'brownian' or 'ou'")
    if family is not None and family not in ("zero", "quadratic", "shifted-power", "tabulated"):
        bad.append("potential.family must be zero|quadratic|shifted-power|tabulated")
    if family == "shifted-power" and not config.get("potential.delta", 0.0) > 2.0:
        bad.append("potential.delta must satisfy delta > 2 for the shifted-power family")
    if family == "quadratic" and not config.get("potential.lambda", 0.0) > 0.0:
        bad.append("potential.lambda must be positive")
    if family == "tabulated":
        path = config.get("potential.table_path")
        if not path or not os.path.exists(path):
            bad.append("potential.table_path must point to an existing CSV")
    if example is not None and not config.get("example.N", 1.0) > 0.0:
        bad.append("example.N must be positive")
    if example == "ou" and not config.get("example.lambda", 1.0) > 0.0:
        bad.append("example.lambda must be positive")
    if config.get("grid.n", 0) < 3:
        bad.append("grid.n must be >= 3")
    bad += _grid_bound_diagnostics(config)
    if not config.get("flow.t_max", 0.0) > 0.0:
        bad.append("flow.t_max must be positive")
    elif not math.isfinite(config["flow.t_max"]):
        bad.append("flow.t_max must be finite")
    if config.get("flow.samples", 0) < 2:
        bad.append("flow.samples must be >= 2")
    if not config.get("mc.dt", 0.0) > 0.0:
        bad.append("mc.dt must be positive")
    if not math.isfinite(config.get("mc.horizon", 0.0)):
        bad.append("mc.horizon must be finite")
    if config.get("mc.dt", 0.0) > config.get("mc.horizon", 0.0):
        bad.append("mc.dt must not exceed mc.horizon")
    if config.get("mc.particles", 0) < 100:
        bad.append("mc.particles must be >= 100")
    fam = config.get("initial.family")
    if fam not in ("uniform", "gaussian-truncated", "qsd", "custom"):
        bad.append("initial.family must be uniform|gaussian-truncated|qsd|custom")
    if config.get("initial.width") is not None and not config["initial.width"] > 0.0:
        bad.append("initial.width must be positive")
    if fam == "custom":
        path = config.get("initial.path")
        if not path or not os.path.exists(path):
            bad.append("initial.path must point to an existing CSV")
    return bad


def _grid_bound_diagnostics(config: RunConfig) -> list[str]:
    """Reject grid bounds that the problem would ignore or that leave no interval.

    The Brownian example takes its domain (-N, N) from example.N, and the OU
    example and the shifted-power family start at the absorbing point 0; the
    OU and quadratic problems put the lower bound at 0 when it is unset.
    """
    problem = config.get("example") or config.get("potential.family")
    xmin, xmax = config.get("grid.x_min"), config.get("grid.x_max")
    if problem == "brownian" and (xmin is not None or xmax is not None):
        return ["example = brownian takes its domain (-N, N) from example.N; "
                "unset grid.x_min and grid.x_max"]
    if problem == "zero" and (xmin is None or xmax is None):
        return ["potential.family = zero needs grid.x_min and grid.x_max"]
    if any(x is not None and not math.isfinite(x) for x in (xmin, xmax)):
        return ["grid.x_min and grid.x_max must be finite"]
    if problem in ("ou", "shifted-power") and xmin not in (None, 0.0):
        return [f"grid.x_min must be 0 or unset: the {problem} domain starts at 0"]
    if xmin is None and problem in ("ou", "quadratic", "shifted-power"):
        xmin = 0.0
    if xmin is not None and xmax is not None and not xmin < xmax:
        return [f"grid.x_min ({xmin:g}) must be < grid.x_max ({xmax:g})"]
    return []


def _bound(config: RunConfig, key: str, default: float) -> float:
    value = config.get(key)
    return default if value is None else value


def _build_problem(config: RunConfig):
    """Resolve (spec, grid) from the example or potential block."""
    example = config.get("example")
    n = config["grid.n"]
    if example == "brownian":
        half = config["example.N"]
        return zero_potential(domain=(-half, half)), build_grid(-half, half, n)
    if example == "ou":
        lam = config["example.lambda"]
        x_max = _bound(config, "grid.x_max", 8.0 / math.sqrt(lam))
        return quadratic_potential(lam), build_grid(0.0, x_max, n)
    family = config["potential.family"]
    if family == "zero":
        xmin, xmax = config["grid.x_min"], config["grid.x_max"]
        return zero_potential(domain=(xmin, xmax)), build_grid(xmin, xmax, n)
    if family == "quadratic":
        lam = config["potential.lambda"]
        x_max = _bound(config, "grid.x_max", 8.0 / math.sqrt(lam))
        return quadratic_potential(lam), build_grid(_bound(config, "grid.x_min", 0.0), x_max, n)
    if family == "shifted-power":
        delta = config["potential.delta"]
        return shifted_power_potential(delta), build_grid(0.0, _bound(config, "grid.x_max", 2.5), n)
    if family == "tabulated":
        spec = tabulated_from_csv(config["potential.table_path"])
        xmin = _bound(config, "grid.x_min", spec.domain[0])
        xmax = _bound(config, "grid.x_max", spec.domain[1])
        return spec, build_grid(xmin, xmax, n)
    raise ValueError(f"unresolved potential family {family!r}")


def _initial_measure(config: RunConfig, spec, grid, eigen=None) -> GridMeasure:
    family = config["initial.family"]
    if family == "uniform":
        lo, hi = _bound(config, "initial.lo", grid.x_min), _bound(config, "initial.hi", grid.x_max)
        dens = ((grid.nodes >= lo) & (grid.nodes <= hi)).astype(float)
        return GridMeasure(grid, dens)
    if family == "gaussian-truncated":
        center = _bound(config, "initial.center", 0.5 * (grid.x_min + grid.x_max))
        width = _bound(config, "initial.width", 0.125 * (grid.x_max - grid.x_min))
        dens = np.exp(-((grid.nodes - center) ** 2) / (2.0 * width**2))
        return GridMeasure(grid, dens)
    if family == "qsd":
        if eigen is None:
            op = spectral.assemble_generator(spec, grid)
            eigen = spectral.principal_eigenpair(op, with_lambda1=False)
        return spectral.qsd_from_eigen(eigen, spec, grid)
    if family == "custom":
        measure = load_measure_csv(config["initial.path"])
        if measure.grid != grid:
            measure = regrid(measure, grid)
        return measure
    raise ValueError(f"unresolved initial family {family!r}")


def _cmd_eigen(config: RunConfig, outdir: str) -> None:
    spec, grid = _build_problem(config)
    eigen = spectral.principal_eigenpair(spectral.assemble_generator(spec, grid))
    spectral.save_eigen_json(eigen, os.path.join(outdir, "eigen.json"))
    spectral.save_eigen_csv(eigen, grid, os.path.join(outdir, "eta.csv"))
    save_measure_csv(spectral.qsd_from_eigen(eigen, spec, grid), os.path.join(outdir, "alpha.csv"))


def _cmd_evolve(config: RunConfig, outdir: str) -> None:
    spec, grid = _build_problem(config)
    op = spectral.assemble_generator(spec, grid)
    eigen = spectral.principal_eigenpair(op, with_lambda1=False)
    alpha = spectral.qsd_from_eigen(eigen, spec, grid)
    mu = _initial_measure(config, spec, grid, eigen)
    times = np.linspace(0.0, config["flow.t_max"], config["flow.samples"])
    curves = analytics.decay_curves(op, eigen, alpha, mu, times)
    analytics.write_curves_csv(os.path.join(outdir, "curves.csv"), times, curves)


def _cmd_simulate(config: RunConfig, outdir: str) -> None:
    spec, grid = _build_problem(config)
    mu = _initial_measure(config, spec, grid)
    sim = montecarlo.SimConfig(
        spec=spec,
        domain=spec.domain,
        dt=config["mc.dt"],
        horizon=config["mc.horizon"],
        n_particles=config["mc.particles"],
        seed=config["seed"],
        resample=bool(config["mc.resample"]),
    )
    ensemble = montecarlo.simulate(sim, mu)
    montecarlo.save_survival_csv(ensemble, os.path.join(outdir, "survival.csv"))
    montecarlo.save_positions_csv(ensemble, os.path.join(outdir, "positions.csv"))
    if ensemble.status != "ok":
        raise FlowFailure(f"simulation ended with status {ensemble.status}")


def _cmd_rates(config: RunConfig, outdir: str) -> None:
    spec, grid = _build_problem(config)
    eigen = spectral.principal_eigenpair(spectral.assemble_generator(spec, grid))
    _, _, vpp = evaluate(spec, grid.nodes)
    lam_low = config.get("rates.lambda0_lower")
    lam_used = lam_low if lam_low is not None else eigen.lambda0
    table = {
        "lambda0": eigen.lambda0,
        "lambda1": eigen.lambda1,
        "gap": eigen.lambda1 - eigen.lambda0,
        "kappa_classical_inf_Vpp": be_constant(np.asarray(vpp)),
        "kappa_effective_inf_Wpp": be_constant(effective_second_derivative(spec, eigen, grid)),
        "lambda0_lower_used": lam_used,
        "kappa_tilde_basic": cdfi_rate(spec, lam_used, grid, use_drift_form=False),
        "kappa_tilde_refined": None,
    }
    try:
        table["kappa_tilde_refined"] = cdfi_rate(spec, lam_used, grid, use_drift_form=True)
    except ValueError:  # the drift form needs V' > 0
        pass
    write_json(os.path.join(outdir, "rates.json"), table)
    width = max(len(k) for k in table)
    for key, val in table.items():
        print(f"{key.ljust(width)}  {val if val is None else format(val, '.12g')}")


def _cmd_report(config: RunConfig, outdir: str) -> None:
    spec, grid = _build_problem(config)
    mu = _initial_measure(config, spec, grid)
    times = np.linspace(0.0, config["flow.t_max"], config["flow.samples"])
    family = config.get("potential.family")
    is_cdfi = family == "shifted-power"
    kappa = None
    if config.get("example") == "brownian":
        kappa = (math.pi / (2.0 * config["example.N"])) ** 2
    rc = analytics.ReportConfig(
        label=config.get("example") or family,
        spec=spec,
        grid=grid,
        initial=mu,
        times=times,
        cdfi=is_cdfi,
        lambda0_lower=config.get("rates.lambda0_lower"),
        kappa=kappa,
    )
    report = analytics.decay_report(rc)
    analytics.save_report_json(report, os.path.join(outdir, "report.json"))
    analytics.save_curves_csv(report, os.path.join(outdir, "curves.csv"))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsdlab",
        description="quasi-stationary distribution laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        for flag, key in _FLAGS.items():
            if _KEYS[key][1] is bool:
                p.add_argument(flag, dest=key, action="store_const", const="true")
            else:
                p.add_argument(flag, dest=key)
    return parser


def _join_negative_values(argv) -> list[str]:
    """Write ``--flag -1e-3`` as ``--flag=-1e-3`` for every flag that takes a value.

    argparse takes a separate argument that starts with '-' for an option
    unless it looks like -1 or -.5, so -1e-3 or -inf would be lost.
    """
    out = []
    for arg in argv:
        kind = _KEYS[_FLAGS[out[-1]]][1] if out and out[-1] in _FLAGS else bool
        if kind is not bool and arg.startswith("-") and _is_number(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _assemble_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(DEFAULTS)
    config["command"] = args.command
    if args.config is not None:
        config.update(parse_config_file(args.config))
    flags = {key: _coerce(key, getattr(args, key)) for key in _FLAGS.values()
             if getattr(args, key) is not None}
    config.update(flags)
    # --lambda names the quadratic coefficient wherever it appears
    if "example.lambda" in flags:
        config["potential.lambda"] = flags["example.lambda"]
    # --dt is the step of simulate; evolve and report evaluate the flow without steps
    if "mc.dt" in flags and args.command in ("evolve", "report"):
        raise ValueError(f"--dt: {args.command} evaluates the flow without time steps")
    return config


_COMMAND_IMPL = {
    "eigen": _cmd_eigen,
    "evolve": _cmd_evolve,
    "simulate": _cmd_simulate,
    "rates": _cmd_rates,
    "report": _cmd_report,
}


def run(argv=None) -> int:
    """Parse arguments, run one command, and map failures to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        config = _assemble_config(args)
        diagnostics = validate(config)
        if diagnostics:
            for diag in diagnostics:
                print(f"qsdlab: {diag}", file=sys.stderr)
            return 1
        _COMMAND_IMPL[config["command"]](config, config["output"])
        return 0
    except ValueError as exc:
        print(f"qsdlab: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, doob.FlowError, FlowFailure) as exc:
        print(f"qsdlab: numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
