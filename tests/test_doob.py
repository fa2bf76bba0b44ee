import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from qsdlab import doob
from qsdlab.doob import (
    FlowError,
    checkpoint_residual,
    default_dt,
    doob_generator,
    flow_curve,
    flow_exponential,
)
from qsdlab.grid_measure import GridMeasure, build_grid, chi2_divergence, tilt, tv_distance
from qsdlab.potential import quadratic_potential, shifted_power_potential, zero_potential
from qsdlab.spectral import (
    EigenPair,
    TridiagonalOperator,
    assemble_generator,
    principal_eigenpair,
    qsd_from_eigen,
    tridiag_apply,
)


def transformed_apply(tilde, f):
    return tridiag_apply(tilde.diag, tilde.off_upper, tilde.off_lower, f)


def dense_cn(diag, off_upper, off_lower, m0, duration, dt, shift=0.0, startup=True):
    """The stepper's scheme with dense solves: four implicit-Euler
    quarter-steps for each of the first two steps, then Crank-Nicolson."""
    steps = max(1, math.ceil(duration / dt))
    step = duration / steps
    # measure side: the transpose of the operator acting on functions
    gen = np.diag(diag + shift) + np.diag(off_lower, 1) + np.diag(off_upper, -1)
    eye = np.eye(diag.size)
    m = m0.copy()
    for k in range(steps):
        if startup and k < 2:
            for _ in range(4):
                m = np.linalg.solve(eye - 0.25 * step * gen, m)
        else:
            m = np.linalg.solve(eye - 0.5 * step * gen, (eye + 0.5 * step * gen) @ m)
    ratio = m.sum() / m0.sum()
    return m / ratio, math.log(ratio)


def bands_operator(diag, off):
    """A symmetric generator with the given bands, on a grid of diag.size nodes."""
    return TridiagonalOperator(
        grid=build_grid(0.0, 1.0, diag.size), diag=diag, off_upper=off, off_lower=off,
        gamma_weights=np.ones(diag.size), boundary_weights=(0.0, 0.0),
    )


class TestStepper:
    @pytest.fixture(scope="class")
    def small(self):
        g = build_grid(-1.0, 1.0, 50)
        op = assemble_generator(zero_potential(domain=(-1, 1)), g)
        mu = GridMeasure(g, np.exp(-((g.nodes - 0.3) ** 2) / 0.08))
        return op, principal_eigenpair(op), mu

    def test_markovian_run_matches_dense_scheme(self, small):
        op, eigen, mu = small
        tilde = doob_generator(op, eigen)
        nu = tilt(eigen.eta, mu)
        state = flow_curve(tilde, nu, [1.3], 0.04)[-1]
        ref, ref_log = dense_cn(tilde.diag, tilde.off_upper, tilde.off_lower, nu.density, 1.3, 0.04)
        assert np.max(np.abs(state.mu_t.density - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert abs(state.log_survival - ref_log) <= 1e-12

    def test_shifted_flow_curve_matches_dense_scheme(self, small):
        op, eigen, mu = small
        times = [0.0, 0.15, 0.4, 0.4, 1.1, 2.0]
        dt = 0.03
        states = flow_curve(op, mu, times, dt, eigen=eigen)
        m, log_surv, t_prev, startup = mu.density, 0.0, 0.0, True
        for t, state in zip(times, states):
            seg = t - t_prev
            if seg > 0.0:
                m, log_mass = dense_cn(
                    op.diag, op.off_upper, op.off_lower, m, seg, dt,
                    shift=eigen.lambda0, startup=startup,
                )
                log_surv += log_mass - eigen.lambda0 * seg
                startup = False
            t_prev = t
            ref = np.clip(m, 0.0, None)
            got = state.mu_t.density
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref)
            assert state.log_survival == pytest.approx(log_surv, rel=1e-12, abs=1e-15)

    def test_flow_curve_reuses_factors_bitwise(self, monkeypatch):
        # flow_curve shares the factors across its segments: one factorization
        # per distinct step value, plus the startup's
        g = build_grid(0.0, 8.0, 200)
        op = assemble_generator(quadratic_potential(1.0), g)
        eigen = principal_eigenpair(op)
        mu = GridMeasure(g, np.exp(-((g.nodes - 1.5) ** 2) / 0.5))
        times = np.linspace(0.0, 3.0, 61)
        dt = default_dt(g, eigen.lambda0)
        calls = []
        factor = doob._cn_factors
        monkeypatch.setattr(doob, "_cn_factors", lambda *a: calls.append(a) or factor(*a))
        flow_curve(op, mu, times, dt, eigen=eigen)
        steps = {seg / max(1, math.ceil(seg / dt)) for seg in np.diff(times)}
        assert len(calls) == len(steps) + 1 < times.size

    def test_rejects_nonfinite_input(self, brownian, gaussian_measure):
        tilde = doob_generator(brownian.op, brownian.eigen)
        nu = gaussian_measure(brownian.grid, 0.2, 0.3)
        upper = tilde.off_upper.copy()
        upper[brownian.grid.n // 3] = np.inf
        with pytest.raises(FlowError, match="non-finite"):
            flow_curve(dataclasses.replace(tilde, off_upper=upper), nu, [0.1], 1e-2)
        nu.density[5] = np.nan
        with pytest.raises(FlowError):
            flow_curve(tilde, nu, [0.1], 1e-2)

    @pytest.fixture(
        scope="class",
        params=[(quadratic_potential(1.0), 8.0, 2.0), (shifted_power_potential(3.0), 2.5, 1.0)],
        ids=["ou", "shifted_power"],
    )
    def wide(self, request):
        # gamma spans many decades (down to 3e-28 on OU, 1e-18 for delta=3),
        # so an error in the stepper's symmetric scaling shows here; on the
        # Brownian grid above gamma = 1
        spec, hi, center = request.param
        g = build_grid(0.0, hi, 200)
        op = assemble_generator(spec, g)
        assert op.gamma_weights.min() < 1e-15 * op.gamma_weights.max()
        mu = GridMeasure(g, np.exp(-((g.nodes - center) ** 2) / 0.1))
        return op, principal_eigenpair(op), mu

    def test_wide_weight_shifted_run_matches_dense_scheme(self, wide):
        op, eigen, mu = wide
        state = flow_curve(op, mu, [0.6], 0.005, eigen=eigen)[-1]
        ref, ref_log = dense_cn(op.diag, op.off_upper, op.off_lower, mu.density, 0.6, 0.005,
                                shift=eigen.lambda0)
        assert np.max(np.abs(state.mu_t.density - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert abs(state.log_survival + eigen.lambda0 * 0.6 - ref_log) <= 1e-12

    def test_wide_weight_markovian_run_matches_dense_scheme(self, wide):
        op, eigen, mu = wide
        tilde = doob_generator(op, eigen)
        nu = tilt(eigen.eta, mu)
        state = flow_curve(tilde, nu, [0.6], 0.005)[-1]
        ref, ref_log = dense_cn(tilde.diag, tilde.off_upper, tilde.off_lower, nu.density, 0.6, 0.005)
        assert np.max(np.abs(state.mu_t.density - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert abs(state.log_survival - ref_log) <= 1e-12

    def test_rejects_singular_stepper(self):
        # 1 - (dt/2) * (2/dt) is exactly zero: the CN matrix has a zero pivot
        op = bands_operator(np.full(5, 4.0), np.zeros(4))
        with pytest.raises(FlowError, match="singular"):
            flow_curve(op, GridMeasure(op.grid, np.ones(5)), [0.5], 0.5, smooth_start=False)

    def test_rejects_indefinite_stepper(self):
        # diagonal 1 - 0.25 * (-2 + 5.5) = 0.125 > 0 and off-diagonal -0.25:
        # I - a(S + shift) has a negative eigenvalue and a negative second pivot
        op = bands_operator(np.full(5, -2.0), np.ones(4))
        with pytest.raises(FlowError, match="indefinite"):
            flow_curve(op, GridMeasure(op.grid, np.ones(5)), [0.5], 0.5,
                       eigen=EigenPair(lambda0=5.5, eta=np.ones(5)), smooth_start=False)

    def test_rejects_negative_density_and_nan_on_wide_weights(self, ou):
        # gamma spans ~28 decades on this grid: the stepper's variable
        # m / sqrt(gamma) is rescaled by up to 14 decades against the density
        # that the relative negativity test reads
        spike = np.zeros(ou.grid.n)
        spike[ou.grid.n // 4] = 1.0
        with pytest.raises(FlowError, match="negative density"):
            flow_curve(ou.op, GridMeasure(ou.grid, spike), [1.0], 0.5, smooth_start=False)
        mu = GridMeasure(ou.grid, np.exp(-((ou.grid.nodes - 2.0) ** 2)))
        mu.density[ou.grid.n // 2] = np.nan
        with pytest.raises(FlowError):
            flow_curve(ou.op, mu, [0.1], 1e-2, eigen=ou.eigen)


class TestDoobGenerator:
    def test_constant_vector_in_kernel(self, brownian):
        tilde = doob_generator(brownian.op, brownian.eigen)
        image = transformed_apply(tilde, np.ones(brownian.grid.n))
        assert np.max(np.abs(image)) <= 1e-10 * np.max(np.abs(tilde.diag))

    def test_drift_field_matches_log_eta_gradient(self, brownian):
        # first-order part of the transform: drift = (log eta)' = -a tan(a x)
        tilde = doob_generator(brownian.op, brownian.eigen)
        g = brownian.grid
        a = math.pi / 2.0
        drift = np.empty(g.n)
        drift[0] = g.h * tilde.off_upper[0]
        drift[1:-1] = g.h * (tilde.off_upper[1:] - tilde.off_lower[:-1])
        drift[-1] = -g.h * tilde.off_lower[-1]
        keep = np.abs(g.nodes) < 0.8
        exact = -a * np.tan(a * g.nodes[keep])
        assert np.max(np.abs(drift[keep] - exact)) < 5e-3

    def test_beta_symmetry(self, ou):
        tilde = doob_generator(ou.op, ou.eigen)
        lhs = tilde.gamma_weights[:-1] * tilde.off_upper
        rhs = tilde.gamma_weights[1:] * tilde.off_lower
        assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) < 1e-12

    def test_beta_invariance(self, brownian):
        tilde = doob_generator(brownian.op, brownian.eigen)
        beta = tilde.gamma_weights
        # column sums weighted by beta: beta L~ = 0
        resid = beta * tilde.diag
        resid[1:] += beta[:-1] * tilde.off_upper
        resid[:-1] += beta[1:] * tilde.off_lower
        scale = np.max(beta) * np.max(np.abs(tilde.diag))
        assert np.max(np.abs(resid)) <= 1e-10 * scale

    def test_is_a_conservative_tridiagonal_operator(self, ou):
        tilde = doob_generator(ou.op, ou.eigen)
        assert isinstance(tilde, TridiagonalOperator) and tilde.grid == ou.grid
        assert np.array_equal(tilde.gamma_weights, ou.eigen.eta**2 * ou.op.gamma_weights)
        assert tilde.boundary_weights == (0.0, 0.0)

    def test_rejects_nonpositive_eta(self, brownian):
        bad = type(brownian.eigen)(lambda0=1.0, eta=np.zeros(brownian.grid.n))
        with pytest.raises(ValueError):
            doob_generator(brownian.op, bad)


class TestEvolveTransformed:
    # flow_curve on the Doob transform, a conservative TridiagonalOperator
    def test_invariant_measure_is_fixed(self, brownian):
        tilde = doob_generator(brownian.op, brownian.eigen)
        beta = GridMeasure(tilde.grid, tilde.gamma_weights)
        for t in (0.1, 1.0):
            out = flow_curve(tilde, beta, [t], default_dt(brownian.grid, brownian.lambda0))[-1]
            assert tv_distance(out.mu_t, beta) <= 1e-8

    def test_time_zero_is_identity(self, brownian, gaussian_measure):
        tilde = doob_generator(brownian.op, brownian.eigen)
        nu = gaussian_measure(brownian.grid, 0.2, 0.3)
        state = flow_curve(tilde, nu, [0.0], 1e-2)[-1]
        np.testing.assert_allclose(state.mu_t.density, nu.density, rtol=1e-14)
        assert state.log_survival == 0.0

    def test_chi2_contraction_at_gap_rate(self, brownian, gaussian_measure):
        tilde = doob_generator(brownian.op, brownian.eigen)
        beta = GridMeasure(tilde.grid, tilde.gamma_weights)
        nu = tilt(brownian.eigen.eta, gaussian_measure(brownian.grid, 0.3, 0.35))
        dt = default_dt(brownian.grid, brownian.lambda0)
        chi0 = chi2_divergence(nu, beta)
        for t in (0.25, 0.5, 1.0):
            out = flow_curve(tilde, nu, [t], dt)[-1]
            bound = math.exp(-brownian.gap * t) * chi0 * (1.0 + 1e-6)
            assert chi2_divergence(out.mu_t, beta) <= bound

    def test_validation(self, brownian, gaussian_measure):
        tilde = doob_generator(brownian.op, brownian.eigen)
        nu = gaussian_measure(brownian.grid, 0.0, 0.3)
        with pytest.raises(ValueError):
            flow_curve(tilde, nu, [-1.0], 1e-2)
        with pytest.raises(ValueError):
            flow_curve(tilde, nu, [1.0], 0.0)
        with pytest.raises(ValueError):
            flow_curve(tilde, nu, [0.0], 0.0)

    def test_rejects_a_generator_that_loses_mass(self, brownian, gaussian_measure, monkeypatch):
        # the absorbed generator kills mass: it is no Markovian semigroup, and
        # checkpoint_residual rejects it in place of the transform
        monkeypatch.setattr(doob, "doob_generator", lambda op, eigen: op)
        nu = gaussian_measure(brownian.grid, 0.2, 0.3)
        dt = default_dt(brownian.grid, brownian.lambda0)
        with pytest.raises(FlowError, match="mass drifted"):
            checkpoint_residual(brownian.op, brownian.eigen, nu, 0.5, dt)

    def test_mass_conserved_before_normalization(self, brownian, gaussian_measure):
        tilde = doob_generator(brownian.op, brownian.eigen)
        nu = gaussian_measure(brownian.grid, 0.2, 0.3)
        state = flow_curve(tilde, nu, [1.0], default_dt(brownian.grid, brownian.lambda0))[-1]
        assert abs(math.expm1(state.log_survival)) <= 1e-10


class TestConditionedFlow:
    def test_qsd_is_stationary_with_exact_survival(self, brownian):
        alpha = qsd_from_eigen(brownian.op, brownian.eigen)
        dt = default_dt(brownian.grid, brownian.lambda0)
        for t in (0.5, 1.0, 2.0):
            state = flow_curve(brownian.op, alpha, [t], dt, eigen=brownian.eigen)[-1]
            assert tv_distance(state.mu_t, alpha) <= 1e-8
            exact = math.exp(-brownian.lambda0 * t)
            assert abs(state.survival_weight / exact - 1.0) <= 1e-6

    def test_time_zero_returns_initial(self, brownian, uniform_measure):
        mu = uniform_measure(brownian.grid)
        state = flow_curve(brownian.op, mu, [0.0], 1e-2)[-1]
        np.testing.assert_allclose(state.mu_t.density, mu.density)
        assert state.survival_weight == 1.0

    def test_matrix_exponential_oracle(self, uniform_measure):
        # n = 200 dense oracle: exp(t L^T) against Crank-Nicolson at t = 1
        g = build_grid(-1.0, 1.0, 200)
        op = assemble_generator(zero_potential(domain=(-1, 1)), g)
        mu = uniform_measure(g)
        dense = np.diag(op.diag)
        dense += np.diag(op.off_upper, 1)
        dense += np.diag(op.off_lower, -1)
        evolved = expm(dense.T) @ mu.density
        oracle = GridMeasure(g, np.clip(evolved, 0.0, None))
        state = flow_curve(op, mu, [1.0], 1e-3)[-1]
        assert tv_distance(state.mu_t, oracle) <= 1e-6

    def test_survival_rate_tail_slope(self, brownian, uniform_measure):
        # -log survival / t approaches lambda0; measured as the tail slope to
        # remove the initial-overlap prefactor
        mu = uniform_measure(brownian.grid)
        dt = default_dt(brownian.grid, brownian.lambda0)
        t1, t2 = 2.4 / brownian.lambda0, 3.0 / brownian.lambda0
        states = flow_curve(brownian.op, mu, [t1, t2], dt, eigen=brownian.eigen)
        slope = (states[0].log_survival - states[1].log_survival) / (t2 - t1)
        assert abs(slope / brownian.lambda0 - 1.0) <= 1e-3

    def test_semi_flow_property(self, brownian, gaussian_measure):
        # checkpointed restarts agree with the one-shot flow; composing two
        # flows (no re-smoothing on the second leg) agrees as well
        mu = gaussian_measure(brownian.grid, -0.2, 0.25)
        dt = 2e-3
        s, t = 0.4, 0.6
        oneshot = flow_curve(brownian.op, mu, [s + t], dt, eigen=brownian.eigen)[-1]
        curve = flow_curve(brownian.op, mu, [s, s + t], dt, eigen=brownian.eigen)
        assert tv_distance(curve[-1].mu_t, oneshot.mu_t) <= 1e-9
        middle = flow_curve(brownian.op, mu, [s], dt, eigen=brownian.eigen)[-1]
        composed = flow_curve(
            brownian.op, middle.mu_t, [t], dt, eigen=brownian.eigen, smooth_start=False
        )[-1]
        assert tv_distance(composed.mu_t, oneshot.mu_t) <= 1e-9

    def test_negative_density_rejection(self, brownian):
        # a spike evolved by raw Crank-Nicolson with a huge step oscillates;
        # the stepper rejects instead of returning signed densities
        g = brownian.grid
        spike = np.zeros(g.n)
        spike[g.n // 2] = 1.0
        mu = GridMeasure(g, spike)
        with pytest.raises(FlowError):
            flow_curve(brownian.op, mu, [1.0], 0.5, smooth_start=False)

    def test_times_validation(self, brownian, uniform_measure):
        mu = uniform_measure(brownian.grid)
        with pytest.raises(ValueError):
            flow_curve(brownian.op, mu, [0.5, 0.2], 1e-2)
        with pytest.raises(ValueError):
            flow_curve(brownian.op, mu, [-0.5], 1e-2)


class TestCheckpointIdentity:
    def test_zero_time(self, brownian, uniform_measure):
        mu = uniform_measure(brownian.grid)
        assert checkpoint_residual(brownian.op, brownian.eigen, mu, 0.0, 1e-2) <= 1e-12

    def test_brownian_matched_stepping(self, brownian, uniform_measure):
        mu = uniform_measure(brownian.grid)
        dt = default_dt(brownian.grid, brownian.lambda0)
        assert checkpoint_residual(brownian.op, brownian.eigen, mu, 0.5, dt) <= 1e-8

    def test_ou_from_qsd(self, ou):
        alpha = qsd_from_eigen(ou.op, ou.eigen)
        dt = default_dt(ou.grid, ou.lambda0)
        for t in (0.5, 2.0):
            assert checkpoint_residual(ou.op, ou.eigen, alpha, t, dt) <= 1e-8


class TestChi2DecayCurve:
    def test_qsd_initial_is_flat_zero(self, brownian):
        alpha = qsd_from_eigen(brownian.op, brownian.eigen)
        dt = default_dt(brownian.grid, brownian.lambda0)
        states = flow_curve(brownian.op, alpha, [0.0, 0.5, 1.0], dt, eigen=brownian.eigen)
        assert all(s.chi2_to_beta <= 1e-8 for s in states)

    def test_monotone_and_gap_rate(self, brownian, gaussian_measure):
        mu = gaussian_measure(brownian.grid, 0.3, 0.35)
        times = np.linspace(0.0, 2.0, 21)
        dt = default_dt(brownian.grid, brownian.lambda0)
        states = flow_curve(brownian.op, mu, times, dt, eigen=brownian.eigen)
        curve = np.array([(s.t, s.chi2_to_beta) for s in states])
        assert np.all(np.diff(curve[:, 1]) <= 1e-12)
        # log-slope over [0.5, 2] is at least the gap (up to fit tolerance)
        w = curve[:, 0] >= 0.5
        a = np.vstack([curve[w, 0], np.ones(w.sum())]).T
        slope, _ = np.linalg.lstsq(a, np.log(curve[w, 1]), rcond=None)[0]
        assert -slope >= brownian.gap - 0.01

    def test_survival_weight_in_unit_interval(self, brownian, gaussian_measure):
        mu = gaussian_measure(brownian.grid, 0.0, 0.4)
        states = flow_curve(
            brownian.op, mu, [0.0, 0.5, 1.5], default_dt(brownian.grid, brownian.lambda0),
            eigen=brownian.eigen,
        )
        for st in states:
            assert 0.0 < st.survival_weight <= 1.0
            assert st.log_survival <= 1e-15

    def test_sandwich_bound_with_explicit_constants(self, brownian, gaussian_measure):
        # once alpha(1/eta) chi2^2 < 0.9, the two-sided bound around the QSD
        # mean gives TV <= (a + b) chi2(eta*mu | beta) e^{-gap t}
        from qsdlab.analytics import BOUND_A, BOUND_B, alpha_psi2_over_eta
        from qsdlab.spectral import qsd_from_eigen

        g = brownian.grid
        mu = gaussian_measure(g, 0.3, 0.35)
        alpha = qsd_from_eigen(brownian.op, brownian.eigen)
        a_ratio = alpha_psi2_over_eta(np.ones(g.n), brownian.eigen, alpha)
        times = np.linspace(0.0, 2.0, 21)
        states = flow_curve(brownian.op, mu, times, default_dt(g, brownian.lambda0),
                            eigen=brownian.eigen)
        chi0 = states[0].chi2_to_beta
        for st in states:
            if a_ratio * st.chi2_to_beta**2 >= 0.9:
                continue
            bound = (BOUND_A + BOUND_B) * chi0 * math.exp(-brownian.gap * st.t)
            assert tv_distance(st.mu_t, alpha) <= bound


KRYLOV_CASES = {
    "brownian": (zero_potential(domain=(-1.0, 1.0)), -1.0, 1.0, 2.0),
    "ou": (quadratic_potential(1.0), 0.0, 8.0, 3.0),
    "delta3": (shifted_power_potential(3.0), 0.0, 2.5, 1.0),
}


def initial_density(law, g):
    if law == "uniform":
        return np.ones(g.n)
    if law == "spike":
        spike = np.zeros(g.n)
        spike[g.n // 3] = 1.0
        return spike
    center = 0.0 if g.x_min < 0.0 else 1.2
    return np.exp(-((g.nodes - center) ** 2) / (2.0 * 0.25**2))


def chi2_oracle(op, eigen, m0, times):
    """chi2(eta * phi_t(m0) | beta) from the eigendecomposition of S + lambda0.

    S = D^-1 M D is symmetric with eigenvector d * eta for lambda0, and
    beta / eta^2 is proportional to d^2, so the distance at t is the norm of
    exp(t (S + lambda0)) w0 off the top eigenvector over its component
    along it (w0 = m0 / d): each term keeps its relative accuracy, where a
    dense ``expm`` of M loses the tail that 1/beta weights.
    """
    d, off = doob._symmetric_bands(op.off_upper, op.off_lower)
    lam, q = np.linalg.eigh(np.diag(op.diag + eigen.lambda0) + np.diag(off, 1) + np.diag(off, -1))
    c = q.T @ (m0 / d)
    return np.array([np.linalg.norm(np.exp(t * lam[:-1]) * c[:-1]) / abs(c[-1]) for t in times])


class TestKrylovFlow:
    """flow_exponential: the shift-and-invert Krylov exponential."""

    @pytest.mark.parametrize("law", ["uniform", "spike", "gaussian"])
    @pytest.mark.parametrize("case", sorted(KRYLOV_CASES))
    def test_matches_matrix_exponential(self, case, law):
        spec, x_min, x_max, t_max = KRYLOV_CASES[case]
        g = build_grid(x_min, x_max, 200)
        op = assemble_generator(spec, g)
        eigen = principal_eigenpair(op)
        mu = GridMeasure(g, initial_density(law, g))
        # the measure-side generator, shifted by lambda0
        gen = np.diag(op.diag + eigen.lambda0) + np.diag(op.off_lower, 1) + np.diag(op.off_upper, -1)
        times = t_max * np.array([0.0, 0.005, 0.05, 0.3, 1.0])
        states = flow_exponential(op, mu, times, eigen=eigen)
        for t, state in zip(times, states):
            m = expm(t * gen) @ mu.density
            ref = GridMeasure(g, np.clip(m, 0.0, None)).density
            assert np.max(np.abs(state.mu_t.density - ref)) <= 1e-9 * np.max(ref)
            log_survival = math.log(m.sum() / mu.density.sum()) - eigen.lambda0 * t
            assert abs(state.log_survival - log_survival) <= 1e-9
        chi2 = [s.chi2_to_beta for s in states]
        np.testing.assert_allclose(chi2, chi2_oracle(op, eigen, mu.density, times), rtol=1e-5, atol=1e-12)
        assert states[0].log_survival == 0.0
        np.testing.assert_allclose(states[0].mu_t.density, mu.density, rtol=1e-14)

    @pytest.mark.parametrize("case", sorted(KRYLOV_CASES))
    def test_transformed_flow_matches_matrix_exponential(self, case):
        # the Doob transform is a TridiagonalOperator, so the Krylov flow takes it
        spec, x_min, x_max, _ = KRYLOV_CASES[case]
        g = build_grid(x_min, x_max, 200)
        op = assemble_generator(spec, g)
        eigen = principal_eigenpair(op)
        tilde = doob_generator(op, eigen)
        nu = tilt(eigen.eta, GridMeasure(g, initial_density("gaussian", g)))
        gen = np.diag(tilde.diag) + np.diag(tilde.off_lower, 1) + np.diag(tilde.off_upper, -1)
        times = [0.0, 0.25, 1.0]
        for t, state in zip(times, flow_exponential(tilde, nu, times)):
            ref = GridMeasure(g, np.clip(expm(t * gen) @ nu.density, 0.0, None))
            assert tv_distance(state.mu_t, ref) <= 1e-10
            assert abs(state.log_survival) <= 1e-10

    def test_chi2_late_in_the_decay(self):
        """Weighted by 1/beta, the chi-square distance of a uniform law under the
        shifted power potential reaches 2e-9; it keeps its relative accuracy."""
        g = build_grid(0.0, 2.5, 400)
        op = assemble_generator(shifted_power_potential(3.0), g)
        eigen = principal_eigenpair(op)
        mu = GridMeasure(g, np.ones(g.n))
        times = np.linspace(0.0, 2.0, 41)
        refs = chi2_oracle(op, eigen, mu.density, times)
        assert refs[-1] < 1e-8
        got = [s.chi2_to_beta for s in flow_exponential(op, mu, times, eigen=eigen)]
        np.testing.assert_allclose(got, refs, rtol=1e-5, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_chi2_late_in_the_decay_survives_an_ulp_in_eta(self, seed):
        """eta off by an ulp per node leaves a part of w_perp along the top
        eigenvector that never decays; the flow projects it out, so the late
        samples keep the accuracy of the exact eta."""
        g = build_grid(0.0, 2.5, 400)
        op = assemble_generator(shifted_power_potential(3.0), g)
        eigen = principal_eigenpair(op)
        k = np.random.default_rng(seed).integers(-1, 2, g.n)
        eigen = dataclasses.replace(eigen, eta=eigen.eta * (1.0 + k * np.finfo(float).eps))
        mu = GridMeasure(g, np.ones(g.n))
        times = np.linspace(0.0, 2.0, 41)
        refs = chi2_oracle(op, eigen, mu.density, times)
        got = [s.chi2_to_beta for s in flow_exponential(op, mu, times, eigen=eigen)]
        np.testing.assert_allclose(got, refs, rtol=1e-5, atol=1e-12)

    @pytest.mark.parametrize("case", ["ou", "delta3"])
    def test_uniform_law_on_a_fine_grid(self, case):
        spec, x_min, x_max, _ = KRYLOV_CASES[case]
        g = build_grid(x_min, x_max, 8000)
        op = assemble_generator(spec, g)
        eigen = principal_eigenpair(op, with_lambda1=False)
        states = flow_exponential(op, GridMeasure(g, np.ones(g.n)), np.linspace(0.0, 2.0, 41), eigen=eigen)
        assert all(np.isfinite(s.chi2_to_beta) and s.chi2_to_beta >= 0.0 for s in states)
        assert np.all(np.diff([s.log_survival for s in states]) <= 1e-12)

    def test_unshifted_flow_matches_matrix_exponential(self):
        g = build_grid(-1.0, 1.0, 200)
        op = assemble_generator(zero_potential(domain=(-1, 1)), g)
        mu = GridMeasure(g, initial_density("uniform", g))
        gen = np.diag(op.diag) + np.diag(op.off_lower, 1) + np.diag(op.off_upper, -1)
        state = flow_exponential(op, mu, [1.0])[-1]
        m = expm(gen) @ mu.density
        assert tv_distance(state.mu_t, GridMeasure(g, m)) <= 1e-10
        assert state.log_survival == pytest.approx(math.log(m.sum() / mu.density.sum()), abs=1e-10)
        assert state.chi2_to_beta is None

    def test_qsd_initial_law_stays_put(self, ou):
        alpha = qsd_from_eigen(ou.op, ou.eigen)
        states = flow_exponential(ou.op, alpha, [0.0, 0.5, 1.0], eigen=ou.eigen)
        for s in states:
            assert tv_distance(s.mu_t, alpha) <= 1e-10
            assert s.chi2_to_beta <= 1e-10
            assert s.log_survival == pytest.approx(-ou.lambda0 * s.t, abs=1e-10)

    def test_basis_cap_raises(self, ou, monkeypatch):
        monkeypatch.setattr(doob, "KRYLOV_MAX_DIM", 4)
        mu = GridMeasure(ou.grid, initial_density("uniform", ou.grid))
        with pytest.raises(FlowError, match="basis size 4"):
            flow_exponential(ou.op, mu, [0.0, 1.0, 2.0], eigen=ou.eigen)

    def test_basis_grows_past_one_chunk(self, ou, monkeypatch):
        monkeypatch.setattr(doob, "KRYLOV_CHUNK", 3)
        mu = GridMeasure(ou.grid, initial_density("gaussian", ou.grid))
        times = np.linspace(0.0, 3.0, 7)
        grown = flow_exponential(ou.op, mu, times, eigen=ou.eigen)
        monkeypatch.undo()
        for a, b in zip(grown, flow_exponential(ou.op, mu, times, eigen=ou.eigen)):
            assert np.array_equal(a.mu_t.density, b.mu_t.density)
            assert a.chi2_to_beta == b.chi2_to_beta

    def test_all_times_zero_and_validation(self, brownian, uniform_measure):
        mu = uniform_measure(brownian.grid)
        states = flow_exponential(brownian.op, mu, [0.0, 0.0], eigen=brownian.eigen)
        assert all(s.log_survival == 0.0 and s.survival_weight == 1.0 for s in states)
        with pytest.raises(ValueError, match="nondecreasing"):
            flow_exponential(brownian.op, mu, [1.0, 0.5])
