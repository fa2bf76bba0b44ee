import math

import numpy as np
import pytest

from qsdlab.grid_measure import build_grid
from qsdlab.potential import (
    be_constant,
    cdfi_rate,
    effective_second_derivative,
    evaluate,
    quadratic_potential,
    shifted_power_potential,
    tabulated_from_csv,
    tabulated_potential,
    zero_potential,
)
from qsdlab.spectral import EigenPair


class TestEvaluate:
    def test_zero_family(self):
        spec = zero_potential()
        assert evaluate(spec, 0.7) == (0.0, 0.0, 0.0)

    def test_quadratic_family(self):
        spec = quadratic_potential(1.0)
        assert evaluate(spec, 2.0) == (4.0, 4.0, 2.0)
        spec2 = quadratic_potential(2.5)
        v, vp, vpp = evaluate(spec2, 1.0)
        assert (v, vp, vpp) == (2.5, 5.0, 5.0)

    def test_shifted_power_family(self):
        spec = shifted_power_potential(3.0)
        assert evaluate(spec, 1.0) == (8.0, 12.0, 12.0)

    def test_vectorized_evaluation(self):
        spec = quadratic_potential(1.0)
        x = np.array([0.5, 1.0, 2.0])
        v, vp, vpp = evaluate(spec, x)
        np.testing.assert_allclose(v, x**2)
        np.testing.assert_allclose(vp, 2 * x)
        np.testing.assert_allclose(vpp, 2.0)

    def test_domain_enforced(self):
        spec = shifted_power_potential(3.0, domain=(0.0, 10.0))
        with pytest.raises(ValueError):
            evaluate(spec, -1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            quadratic_potential(0.0)
        with pytest.raises(ValueError):
            shifted_power_potential(2.0)

    def test_tabulated_matches_closed_form(self):
        xs = np.linspace(0.0, 4.0, 201)
        v, vp, vpp = evaluate(quadratic_potential(1.0, domain=(0.0, 4.0)), xs)
        spec = tabulated_potential(xs, v, vp, vpp)
        probe = np.linspace(0.05, 3.95, 57)
        out = evaluate(spec, probe)
        np.testing.assert_allclose(out[0], probe**2, atol=1e-8)
        np.testing.assert_allclose(out[1], 2 * probe, atol=1e-8)
        np.testing.assert_allclose(out[2], 2.0, atol=1e-8)

    def test_tabulated_from_csv(self, tmp_path):
        xs = np.linspace(0.0, 2.0, 41)
        path = tmp_path / "pot.csv"
        rows = ["x,V,Vp,Vpp"] + [
            f"{x},{x**2},{2*x},2.0" for x in xs
        ]
        path.write_text("\n".join(rows) + "\n")
        spec = tabulated_from_csv(path)
        v, vp, vpp = evaluate(spec, 1.3)
        assert v == pytest.approx(1.69, abs=1e-9)
        assert vp == pytest.approx(2.6, abs=1e-9)

    def test_central_differences_agree_with_exact_second_derivative(self):
        # consistency of the closed forms: FD of V' reproduces V'' within 10 h^2
        for spec, (lo, hi) in (
            (zero_potential(), (-1.0, 1.0)),
            (quadratic_potential(1.5), (0.1, 4.0)),
            (shifted_power_potential(3.0), (0.1, 2.0)),
        ):
            g = build_grid(lo, hi, 400)
            _, vp, vpp = evaluate(spec, g.nodes)
            fd = (vp[2:] - vp[:-2]) / (2 * g.h)
            assert np.max(np.abs(fd - np.asarray(vpp)[1:-1])) <= 10 * g.h**2 + 1e-12


class TestBeConstant:
    def test_constant_array(self):
        assert be_constant(np.full(7, 3.25)) == 3.25

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            be_constant(np.array([]))

    def test_ou_effective_curvature(self, ou):
        # W'' = 2 lam + 2/x^2 >= 2 lam, so the sampled infimum certifies 2 lam
        w2 = effective_second_derivative(ou.spec, ou.eigen, ou.grid)
        kappa = be_constant(w2)
        assert kappa >= 2.0 - 1e-9

    def test_brownian_effective_curvature(self, brownian):
        # W = -2 log eta has W'' = 2 a^2 (1 + tan^2(a x)) with a = pi/2; the
        # sampled infimum is 2 a^2, which certifies the quoted value a^2
        w2 = effective_second_derivative(brownian.spec, brownian.eigen, brownian.grid)
        kappa = be_constant(w2)
        a2 = (math.pi / 2.0) ** 2
        assert kappa >= a2
        assert kappa == pytest.approx(2.0 * a2, rel=1e-4)


class TestEffectiveSecondDerivative:
    def test_ou_matches_symbolic(self, ou):
        # W'' = 2 lam + 2/x^2; compared away from x = 0 (where the stencil
        # error scales like h^2/x^2) and from the right truncation layer
        w2 = effective_second_derivative(ou.spec, ou.eigen, ou.grid)
        x = ou.grid.nodes
        keep = (x > 0.5) & (x < 5.0)
        exact = 2.0 + 2.0 / x[keep] ** 2
        rel = np.abs(w2[keep] - exact) / exact
        assert np.max(rel) < 2e-4

    def test_brownian_matches_symbolic(self, brownian):
        # the log-eta Hessian entry is -a^2 (1 + tan^2(a x)); negated and
        # doubled it gives W''
        a = math.pi / 2.0
        x = brownian.grid.nodes
        w2 = effective_second_derivative(brownian.spec, brownian.eigen, brownian.grid)
        keep = np.abs(x) < 0.8
        exact = 2.0 * a**2 * (1.0 + np.tan(a * x[keep]) ** 2)
        rel = np.abs(w2[keep] - exact) / exact
        assert np.max(rel) < 1e-4

    def test_synthetic_constant_eigenfunction(self):
        g = build_grid(0.0, 1.0, 50)
        eigen = EigenPair(lambda0=1.0, eta=np.ones(g.n))
        w2 = effective_second_derivative(zero_potential(), eigen, g)
        np.testing.assert_allclose(w2, 0.0, atol=1e-12)

    def test_rejects_nonpositive_eta(self):
        g = build_grid(0.0, 1.0, 10)
        eta = np.ones(g.n)
        eta[3] = 0.0
        with pytest.raises(ValueError):
            effective_second_derivative(zero_potential(), EigenPair(1.0, eta), g)

    def test_dominates_vpp_for_convex_families(self, brownian, ou, delta3):
        # log-concavity of eta in discrete form: W'' >= V''
        for prob in (brownian, ou, delta3):
            w2 = effective_second_derivative(prob.spec, prob.eigen, prob.grid)
            _, _, vpp = evaluate(prob.spec, prob.grid.nodes)
            assert np.min(w2 - np.asarray(vpp)) >= -2e-8


class TestCdfiRate:
    def test_basic_form_dominates_curvature_floor(self):
        g = build_grid(0.0, 2.5, 500)
        spec = shifted_power_potential(3.0)
        val = cdfi_rate(spec, 1.0, g)
        # every summand is nonnegative, so the rate dominates inf V'' = 6
        assert val >= 6.0

    def test_refined_dominates_basic(self):
        g = build_grid(0.0, 2.5, 500)
        spec = shifted_power_potential(3.0)
        for lam0 in (0.5, 1.0, 4.0):
            basic = cdfi_rate(spec, lam0, g)
            refined = cdfi_rate(spec, lam0, g, use_drift_form=True)
            assert refined >= basic

    def test_shifted_power_with_lower_bound_one(self):
        g = build_grid(0.0, 2.5, 2000)
        spec = shifted_power_potential(3.0)
        basic = cdfi_rate(spec, 1.0, g)
        refined = cdfi_rate(spec, 1.0, g, use_drift_form=True)
        assert refined >= basic >= 6.0

    def test_refined_requires_positive_drift(self):
        g = build_grid(0.0, 1.0, 20)
        with pytest.raises(ValueError):
            cdfi_rate(zero_potential(domain=(0.0, 1.0)), 1.0, g, use_drift_form=True)

    def test_rejects_nonpositive_lambda0(self):
        g = build_grid(0.0, 1.0, 20)
        with pytest.raises(ValueError):
            cdfi_rate(shifted_power_potential(3.0), 0.0, g)

    def test_minimizing_node_reported(self):
        g = build_grid(0.0, 2.5, 500)
        spec = shifted_power_potential(3.0)
        val, where = cdfi_rate(spec, 1.0, g, full_output=True)
        assert g.x_min < where < g.x_max
        assert val == cdfi_rate(spec, 1.0, g)

    def test_rate_chain_with_curvature(self, ou, delta3):
        # refined >= basic >= inf V'' whenever lambda0 > 0
        for prob in (ou, delta3):
            _, _, vpp = evaluate(prob.spec, prob.grid.nodes)
            floor = be_constant(np.asarray(vpp))
            if np.any(np.asarray(evaluate(prob.spec, prob.grid.nodes)[1]) <= 0.0):
                continue
            basic = cdfi_rate(prob.spec, prob.lambda0, prob.grid)
            refined = cdfi_rate(prob.spec, prob.lambda0, prob.grid, use_drift_form=True)
            assert refined >= basic >= floor - 1e-12


@pytest.mark.parametrize("x, columns, message", [
    (np.linspace(0.0, 1.0, 3), None, "tabulated potential needs at least 4 sample points"),
    (np.ones((2, 4)), None, "tabulated potential needs at least 4 sample points"),
    (np.array([0.0, 0.5, 0.5, 1.0]), None, "tabulated abscissa must be strictly increasing"),
    (np.array([0.0, 0.6, 0.4, 1.0]), None, "tabulated abscissa must be strictly increasing"),
    (np.linspace(0.0, 1.0, 5), {"vp": np.zeros(4)}, r"column Vp has shape \(4,\), expected \(5,\)"),
    (np.linspace(0.0, 1.0, 5), {"vpp": np.zeros((5, 1))}, r"column Vpp has shape \(5, 1\), expected \(5,\)"),
], ids=["three-points", "two-dimensional", "repeated-abscissa", "decreasing-abscissa", "vp-shape", "vpp-shape"])
def test_tabulated_input_checks(x, columns, message):
    cols = {"v": np.zeros(np.shape(x)), "vp": np.zeros(np.shape(x)), "vpp": np.zeros(np.shape(x))}
    cols.update(columns or {})
    with pytest.raises(ValueError, match=message):
        tabulated_potential(x, **cols)
