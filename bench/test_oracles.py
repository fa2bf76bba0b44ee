"""Self-tests of the benchmark's references.

    python3 -m pytest bench -q
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402


def test_sturm_reference_reproduces_metastable_lambda0(tmp_path):
    path = tmp_path / "double_well.csv"
    oracles.write_table_csv(oracles.double_well_table(4.0), path)
    h, v_nodes, v_mids = oracles.tabulated_samples(path, workloads.DW_N)
    assert oracles.sturm_lambda0(v_nodes, v_mids, h) == pytest.approx(2.9526e-14, rel=1e-4)


def test_sturm_reference_matches_discrete_closed_form():
    n = 50
    h, _, _ = oracles.grid_points(-1.0, 1.0, n)
    exact = (2.0 / h**2) * math.sin(math.pi / (2.0 * (n + 1))) ** 2
    assert oracles.sturm_lambda0(np.zeros(n), np.zeros(n + 1), h) == pytest.approx(exact, rel=1e-14)


def test_expm_oracle_matches_crank_nicolson():
    from qsdlab import GridMeasure, build_grid, flow_curve, principal_eigenpair, quadratic_potential
    from qsdlab.spectral import assemble_generator

    n, x_max = workloads.FLOW_EXPM_N, 8.0
    generator = oracles.ou_generator(1.0, x_max, n)
    op = assemble_generator(quadratic_potential(1.0), build_grid(0.0, x_max, n))
    np.testing.assert_allclose(np.diag(generator), op.diag, rtol=1e-13)
    np.testing.assert_allclose(np.diag(generator, 1), op.off_upper, rtol=1e-13)
    np.testing.assert_allclose(np.diag(generator, -1), op.off_lower, rtol=1e-13)

    times = np.linspace(0.0, 3.0, 61)
    m0 = np.exp(-((op.grid.nodes - 1.5) ** 2) / 2.0)
    reference = oracles.expm_log_survival(generator, m0, times)
    eigen = principal_eigenpair(op)
    errors = []
    for dt in (0.01, 0.0025):
        states = flow_curve(op, GridMeasure(op.grid, m0), times, dt, eigen=eigen)
        errors.append(max(abs(s.log_survival - r) for s, r in zip(states, reference)))
    # the CN curve meets the oracle to within the check's tolerance and
    # converges to it at second order
    assert errors[0] <= workloads.FLOW_EXPM_TOL
    assert errors[1] <= errors[0] / 8.0


def test_tail_fit_recovers_known_slope():
    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 3.0, 301)
    log_s = 0.05 - 1.2337 * t + 1e-3 * rng.standard_normal(t.size)
    assert oracles.tail_slope(t, log_s, (1.0, 3.0)) == pytest.approx(1.2337, rel=1e-3)


def test_brownian_survival_series_matches_flow():
    assert workloads.brownian_uniform_survival(0.0) == pytest.approx(1.0, abs=5e-3)
    # single-mode decay once higher modes have died out
    t = 2.0
    assert workloads.brownian_uniform_survival(t) == pytest.approx(
        8.0 / math.pi**2 * math.exp(-math.pi**2 * t / 8.0), rel=1e-9)
