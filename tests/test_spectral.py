import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from qsdlab.grid_measure import build_grid, quadrature, tv_distance
from qsdlab.doob import default_dt, flow_curve
from qsdlab.potential import quadratic_potential, shifted_power_potential, tabulated_potential, zero_potential
from qsdlab.spectral import (
    ConvergenceError,
    _doob_rates,
    _gth_factors,
    _inverse_iteration,
    assemble_generator,
    eigen_residual,
    integral_identity_residual,
    principal_eigenpair,
    qsd_from_eigen,
    save_eigen_csv,
    save_eigen_json,
    tensor_eigen,
    tridiag_apply,
)


class TestAssembly:
    def test_zero_potential_is_half_laplacian(self):
        g = build_grid(-1.0, 1.0, 50)
        op = assemble_generator(zero_potential(), g)
        scale = 1.0 / (2.0 * g.h**2)
        np.testing.assert_allclose(op.diag, -2.0 * scale, rtol=1e-14)
        np.testing.assert_allclose(op.off_upper, scale, rtol=1e-14)
        np.testing.assert_allclose(op.off_lower, scale, rtol=1e-14)

    def test_gamma_symmetry(self, ou):
        op = ou.op
        lhs = op.gamma_weights[:-1] * op.off_upper
        rhs = op.gamma_weights[1:] * op.off_lower
        rel = np.abs(lhs - rhs) / np.abs(lhs)
        assert np.max(rel) < 1e-12

    def test_constant_function_in_kernel_away_from_boundary(self, ou):
        image = tridiag_apply(ou.op.diag, ou.op.off_upper, ou.op.off_lower, np.ones(ou.grid.n))
        interior = np.abs(image[1:-1]) / np.max(np.abs(ou.op.diag))
        assert np.max(interior) < 1e-10

    def test_potential_must_be_finite(self):
        g = build_grid(0.0, 1.0, 10)

        class BadSpec:
            domain = (0.0, 1.0)

        with pytest.raises(Exception):
            assemble_generator(BadSpec(), g)

    @pytest.mark.parametrize("half", [1e-160, 1e-152])
    def test_grid_spacing_underflow_raises(self, half):
        # h^2 is 0 (half = 1e-160) or subnormal (1e-152): the stencil weight
        # 1 / (2 h^2) divides by zero or overflows
        g = build_grid(-half, half, 2000)
        with pytest.raises(ValueError, match="grid spacing"):
            assemble_generator(zero_potential(domain=(-half, half)), g)


class TestPrincipalEigenpair:
    def test_brownian_oracle(self):
        # Dirichlet eigenpair of the half Laplacian on (-1, 1)
        g = build_grid(-1.0, 1.0, 3999)
        op = assemble_generator(zero_potential(), g)
        eig = principal_eigenpair(op)
        exact = math.pi**2 / 8.0
        assert abs(eig.lambda0 - exact) / exact < 1e-5
        eta_exact = (4.0 / math.pi) * np.cos(math.pi * g.nodes / 2.0)
        assert np.max(np.abs(eig.eta - eta_exact)) < 1e-4

    def test_ou_oracle(self):
        g = build_grid(0.0, 8.0, 7999)
        op = assemble_generator(quadratic_potential(1.0), g)
        eig = principal_eigenpair(op)
        assert abs(eig.lambda0 - 1.0) < 1e-3
        c = 2.0 / math.sqrt(math.pi)  # alpha-normalized eigenfunction slope
        keep = (g.nodes >= 0.1) & (g.nodes <= 4.0)
        rel = np.abs(eig.eta[keep] / (c * g.nodes[keep]) - 1.0)
        assert np.max(rel) <= 1e-3

    def test_second_order_convergence(self):
        exact = math.pi**2 / 8.0
        errs = []
        for n in (500, 1001):
            g = build_grid(-1.0, 1.0, n)
            eig = principal_eigenpair(assemble_generator(zero_potential(), g))
            errs.append(abs(eig.lambda0 - exact))
        ratio = errs[0] / errs[1]
        assert 3.0 < ratio < 5.0  # halving h divides the error by about 4

    def test_positivity_and_normalization(self, brownian, ou, delta3):
        for prob in (brownian, ou, delta3):
            eta = prob.eigen.eta
            assert np.all(eta > 0.0)
            g_eta = quadrature(eta * prob.op.gamma_weights, prob.grid)
            g_eta2 = quadrature(eta**2 * prob.op.gamma_weights, prob.grid)
            assert abs(g_eta2 / g_eta - 1.0) < 1e-10

    def test_gth_pivots_match_the_recurrence_loop(self, ou, delta3):
        # the log-domain pivots against the plain recurrence; the log of a
        # product of up to e^64 carries ~eps * 64 absolute error per term
        well = assemble_generator(double_well(4.0), build_grid(-2.0, 2.0, 150))
        for op in (ou.op, delta3.op, well):
            left = np.concatenate(([op.boundary_weights[0]], op.off_lower))
            right = np.concatenate((op.off_upper, [op.boundary_weights[1]]))
            s, ref = left[0], []
            for i in range(left.size):
                ref.append(s + right[i])
                if i + 1 < left.size:
                    s = left[i + 1] * s / ref[i]
            assert np.max(np.abs(_gth_factors(left, right)[1] / np.array(ref) - 1.0)) <= 1e-13

    def test_eigen_relation_residual(self):
        for spec, lo, hi in (
            (zero_potential(domain=(-1, 1)), -1.0, 1.0),
            (quadratic_potential(1.0), 0.0, 8.0),
        ):
            g = build_grid(lo, hi, 800)
            op = assemble_generator(spec, g)
            eig = principal_eigenpair(op)
            assert eigen_residual(op, eig) <= 1e-10


def double_well(a):
    """V = a (x^2 - 1)^2 tabulated at 2001 points on (-2, 2)."""
    x = np.linspace(-2.0, 2.0, 2001)
    return tabulated_potential(x, a * (x * x - 1.0) ** 2, 4.0 * a * x * (x * x - 1.0),
                               a * (12.0 * x * x - 4.0))


class TestSpectralGap:
    def test_brownian_gap(self):
        g = build_grid(-1.0, 1.0, 3999)
        eig = principal_eigenpair(assemble_generator(zero_potential(), g))
        lam0, lam1 = eig.lambda0, eig.lambda1
        exact = 3.0 * math.pi**2 / 8.0
        assert abs(lam1 - lam0 - exact) / exact < 1e-4

    def test_gap_quarters_when_box_doubles(self):
        gaps = []
        for N in (1.0, 2.0):
            g = build_grid(-N, N, 2000)
            eig = principal_eigenpair(assemble_generator(zero_potential(domain=(-N, N)), g))
            lam0, lam1 = eig.lambda0, eig.lambda1
            gaps.append(lam1 - lam0)
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=1e-5)

    def test_ou_gap_positive(self, ou):
        assert ou.gap > 0.0
        assert ou.gap == pytest.approx(2.0, abs=1e-6)

    def test_dense_oracle_equivalence(self):
        # n <= 60: inverse iteration against a full symmetric eigensolve
        for spec, lo, hi, n in (
            (zero_potential(domain=(-1, 1)), -1.0, 1.0, 60),
            (quadratic_potential(1.0), 0.0, 6.0, 50),
            (shifted_power_potential(3.0), 0.0, 2.5, 40),
        ):
            g = build_grid(lo, hi, n)
            op = assemble_generator(spec, g)
            eig = principal_eigenpair(op)
            lam0, lam1 = eig.lambda0, eig.lambda1
            m_diag = -op.diag
            m_off = -np.sqrt(op.off_upper * op.off_lower)
            dense = eigh_tridiagonal(m_diag, m_off, eigvals_only=True, select="i", select_range=(0, 1))
            assert abs(lam0 - dense[0]) < 1e-10
            assert abs(lam1 - dense[1]) < 1e-10
            # the bracket is at most 1e-14 wide, while the dense solve is
            # only accurate to its error bound eps * ||M||_1
            lo0, hi0 = eig.lambda0_bracket
            slack = np.finfo(float).eps * (m_diag.max() + 2.0 * np.abs(m_off).max())
            assert hi0 - lo0 <= 1e-14 * lo0
            assert lo0 - slack <= dense[0] <= hi0 + slack

    @pytest.mark.parametrize("n", [3, 2000, 8000, 32000])
    def test_brownian_exact_discrete_eigenvalues(self, n):
        # the discrete half Laplacian on (-1, 1) has eigenvalues
        # (2 / h^2) sin^2(k pi / (2 (n + 1))), k = 1, 2, ... exactly; at
        # n = 3 the gap comes from an edge chain of only two states
        g = build_grid(-1.0, 1.0, n)
        eig = principal_eigenpair(assemble_generator(zero_potential(), g))
        for k, lam in ((1, eig.lambda0), (2, eig.lambda1)):
            exact = (2.0 / g.h**2) * math.sin(k * math.pi / (2.0 * (n + 1))) ** 2
            assert abs(lam - exact) / exact <= 1e-12
        # sin^2(2u) - sin^2(u) = sin(3u) sin(u), with no cancellation
        u = math.pi / (2.0 * (n + 1))
        exact_gap = (2.0 / g.h**2) * math.sin(3.0 * u) * math.sin(u)
        assert abs((eig.lambda1 - eig.lambda0) - exact_gap) / exact_gap <= 1e-12

    def test_shifted_power_converges_at_n32000(self):
        g = build_grid(0.0, 2.5, 32000)
        eig = principal_eigenpair(assemble_generator(shifted_power_potential(3.0), g))
        assert eig.lambda0 > 1.0
        lo, hi = eig.lambda0_bracket
        assert lo <= eig.lambda0 <= hi and hi - lo <= 1e-14 * lo
        assert eig.lambda1 > eig.lambda0

    def test_iteration_budget_exhausted_raises(self, ou, monkeypatch):
        from qsdlab import spectral

        monkeypatch.setattr(spectral, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="did not converge"):
            principal_eigenpair(ou.op)

    @pytest.mark.parametrize("band", ["off_lower", "off_upper"])
    @pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
    def test_bad_chain_weight_raises(self, ou, band, bad):
        # a zero weight splits the chain, and an eta ratio that under- or
        # overflowed gives the edge chain a zero or non-finite weight
        weights = getattr(ou.op, band).copy()
        weights[5] = bad
        with pytest.raises(ConvergenceError, match="chain weight"):
            principal_eigenpair(dataclasses.replace(ou.op, **{band: weights}))
        eta = ou.eigen.eta.copy()
        eta[5] = bad
        with np.errstate(divide="ignore"), pytest.raises(ConvergenceError, match="chain weight"):
            _inverse_iteration(*_doob_rates(ou.op, eta))


class TestMetastable:
    # lambda0 of the divergence-form generator built from the float64 samples
    # of the tabulated double well, computed by Sturm bisection in 60-digit
    # mpmath (bench/oracles.sturm_lambda0 on the same samples)
    STURM_LAMBDA0 = {1.0: 0.001387446387098734, 4.0: 2.9525984055658875e-14}

    @pytest.mark.parametrize("a", [1.0, 4.0])
    def test_double_well_matches_sturm_reference(self, a):
        # V = a (x^2 - 1)^2 tabulated at 2001 points on (-2, 2): for a = 4,
        # lambda0 lies near eps * ||L_h|| and must keep its relative accuracy
        eig = principal_eigenpair(assemble_generator(double_well(a), build_grid(-2.0, 2.0, 150)))
        ref = self.STURM_LAMBDA0[a]
        assert abs(eig.lambda0 - ref) / ref <= 1e-12
        assert np.all(eig.eta > 0.0)

    # lambda1 - lambda0 of the same float64 bands: both eigenvalues by Sturm
    # bisection (counting negative LDL^T pivots, as in bench/oracles.sturm_lambda0,
    # with the count >= 2 for lambda1) on the symmetrised matrix built in
    # 100-digit mpmath from the stencil weights of assemble_generator at n = 150
    STURM_GAP = {
        4.0: 0.059557546642589006,
        16.0: 1.5808271514607212e-06,
        32.0: 3.6046396332845625e-13,
        48.0: 6.109903677247741e-20,
        64.0: 9.186338627057832e-27,
    }

    @pytest.mark.parametrize("a", [4.0, 16.0, 32.0, 48.0, 64.0])
    def test_double_well_gap_matches_sturm_reference(self, a):
        # the gap lies far below eps * ||L_h|| for a >= 16 and must still
        # keep its relative accuracy
        eig = principal_eigenpair(assemble_generator(double_well(a), build_grid(-2.0, 2.0, 150)))
        ref = self.STURM_GAP[a]
        assert abs((eig.lambda1 - eig.lambda0) - ref) / ref <= 1e-12


def test_potential_with_a_range_of_800_matches_dense_solve():
    # V = 200 x^2 tabulated on (0, 2): iterated on the unscaled edge chain,
    # the gap's eigenvector spans more decades than a float64 holds, and on
    # the symmetric form about half as many; lambda0 and the gap are far
    # above eps * ||L_h||, so a dense solve of the same symmetrised bands is
    # a 1e-10 oracle
    x = np.linspace(0.0, 2.0, 2001)
    spec = tabulated_potential(x, 200.0 * x * x, 400.0 * x, np.full_like(x, 400.0))
    op = assemble_generator(spec, build_grid(0.0, 2.0, 300))
    off = np.sqrt(op.off_upper * op.off_lower)
    ref = np.linalg.eigvalsh(np.diag(-op.diag) - np.diag(off, 1) - np.diag(off, -1))
    eig = principal_eigenpair(op)
    assert eig.lambda0 == pytest.approx(ref[0], rel=1e-10)
    assert eig.lambda1 - eig.lambda0 == pytest.approx(ref[1] - ref[0], rel=1e-10)
    assert np.all(eig.eta > 0.0)


class TestQsd:
    def test_brownian_density(self):
        g = build_grid(-1.0, 1.0, 3999)
        spec = zero_potential(domain=(-1, 1))
        op = assemble_generator(spec, g)
        eig = principal_eigenpair(op)
        alpha = qsd_from_eigen(op, eig)
        exact = (math.pi / 4.0) * np.cos(math.pi * g.nodes / 2.0)
        assert np.max(np.abs(alpha.density - exact)) < 1e-4

    def test_ou_density(self):
        g = build_grid(0.0, 8.0, 7999)
        spec = quadratic_potential(1.0)
        op = assemble_generator(spec, g)
        eig = principal_eigenpair(op)
        alpha = qsd_from_eigen(op, eig)
        exact = 2.0 * g.nodes * np.exp(-g.nodes**2)
        assert np.max(np.abs(alpha.density - exact)) < 1e-3

    def test_stationarity_under_conditioned_flow(self, brownian):
        alpha = qsd_from_eigen(brownian.op, brownian.eigen)
        state = flow_curve(
            brownian.op, alpha, [0.01], default_dt(brownian.grid, brownian.lambda0),
            eigen=brownian.eigen,
        )[-1]
        assert tv_distance(state.mu_t, alpha) <= 1e-6


class TestTensor:
    def test_single_factor(self, brownian):
        prod = tensor_eigen([brownian.eigen])
        assert prod.lambda0_total == brownian.eigen.lambda0
        assert prod.factors == (brownian.eigen,)

    def test_two_brownian_factors(self):
        g = build_grid(-1.0, 1.0, 2000)
        eig = principal_eigenpair(assemble_generator(zero_potential(domain=(-1, 1)), g))
        prod = tensor_eigen([eig, eig])
        assert prod.lambda0_total == pytest.approx(math.pi**2 / 4.0, rel=1e-6)
        assert prod.lambda0_total == eig.lambda0 + eig.lambda0

    def test_ou_factors_scale_linearly(self):
        g = build_grid(0.0, 8.0, 1500)
        eig = principal_eigenpair(assemble_generator(quadratic_potential(1.0), g))
        for d in (2, 3, 5):
            prod = tensor_eigen([eig] * d)
            assert prod.lambda0_total == pytest.approx(d * eig.lambda0, rel=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tensor_eigen([])


class TestIntegralIdentity:
    def test_shifted_power_fine_grid(self, delta3):
        res = integral_identity_residual(delta3.eigen, delta3.spec, delta3.grid)
        assert res.kernel <= 5e-3
        assert res.second_derivative <= 1e-8

    def test_residual_decreases_under_domain_extension(self):
        spec = shifted_power_potential(3.0)
        values = []
        for x_max in (1.0, 1.5, 2.0):
            g = build_grid(0.0, x_max, int(round(x_max * 1000)))
            eig = principal_eigenpair(assemble_generator(spec, g))
            values.append(integral_identity_residual(eig, spec, g).kernel)
        assert values[0] > values[1] > values[2]

    def test_exact_on_ou_closed_form(self):
        # the kernel identity holds for the OU eigenfunction as well (same
        # derivation from the eigen-relation and the boundary behavior)
        g = build_grid(0.0, 7.0, 3500)
        spec = quadratic_potential(1.0)
        eig = principal_eigenpair(assemble_generator(spec, g))
        res = integral_identity_residual(eig, spec, g)
        assert res.kernel < 1e-4
        assert res.first_derivative < 1e-4

    def test_wrong_domain_rejected(self, brownian):
        with pytest.raises(ValueError):
            integral_identity_residual(brownian.eigen, brownian.spec, brownian.grid)

    def test_bad_margin_rejected(self, delta3):
        # the margin is the module constant IDENTITY_MARGIN, not an argument
        with pytest.raises(TypeError):
            integral_identity_residual(delta3.eigen, delta3.spec, delta3.grid, boundary_margin=1.0)


class TestLogConcavity:
    def test_discrete_log_concavity_all_families(self, brownian, ou, delta3):
        for prob in (brownian, ou, delta3):
            s = np.log(prob.eigen.eta)
            d2 = (s[2:] - 2.0 * s[1:-1] + s[:-2]) / prob.grid.h**2
            # away from the two extreme interior nodes
            assert np.max(d2[1:-1]) <= 1e-8


class TestSerialization:
    def test_eigen_json_and_csv(self, tmp_path, brownian):
        jpath = tmp_path / "eigen.json"
        cpath = tmp_path / "eta.csv"
        save_eigen_json(brownian.eigen, jpath)
        save_eigen_csv(brownian.eigen, brownian.grid, cpath)
        payload = json.loads(jpath.read_text())
        assert payload["lambda0"] == brownian.eigen.lambda0
        assert payload["normalization"] == "alpha(eta) = 1"
        lines = cpath.read_text().splitlines()
        assert lines[0] == "x,eta"
        assert len(lines) == brownian.grid.n + 1


def test_lambda0_only_solve_skips_lambda1(monkeypatch):
    from qsdlab import spectral

    op = assemble_generator(quadratic_potential(1.0), build_grid(0.0, 8.0, 400))
    full = principal_eigenpair(op)
    solves = []
    solve = spectral._inverse_iteration
    monkeypatch.setattr(spectral, "_inverse_iteration", lambda *args: solves.append(args) or solve(*args))
    only = principal_eigenpair(op, with_lambda1=False)
    assert only.lambda1 is None and len(solves) == 1
    assert only.lambda0 == full.lambda0 and only.lambda0_bracket == full.lambda0_bracket
    assert np.array_equal(only.eta, full.eta)


@pytest.mark.parametrize("spec, message", [
    (shifted_power_potential(1000.0), "potential is not finite on the grid interior"),
    (shifted_power_potential(50.0), "potential variation overflows the stencil weights"),
], ids=["non-finite-v", "stencil-overflow"])
def test_assembly_input_checks(spec, message):
    # both overflow inside the assembly; it raises the ValueError, and warns nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            assemble_generator(spec, build_grid(0.0, 2.0, 50))
