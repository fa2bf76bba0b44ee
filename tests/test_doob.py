import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.linalg.lapack import dpttrs

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
    _symmetric_bands,
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


def chi_eigenbasis(op, m0, times):
    """chi(t) from `eigh_tridiagonal` on the bands of S (`_symmetric_bands`):
    |(e^{(mu_k - mu_top) t} c_k)_{k != top}| / |c_top| with c = V^T (m0 / d).
    Each norm is scaled by its largest term, so a chi below 1e-154 keeps its
    digits where the squares of its terms would underflow."""
    from scipy.linalg import eigh_tridiagonal

    d, off = _symmetric_bands(op.off_upper, op.off_lower)
    mu, v = eigh_tridiagonal(op.diag, off)  # ascending: the top eigenvector is the last
    w0 = m0 / d
    c = v.T @ (w0 / np.max(w0))
    chi = []
    for t in times:
        terms = np.exp((mu[:-1] - mu[-1]) * t) * np.abs(c[:-1]) / abs(c[-1])
        top = terms.max()
        chi.append(top * np.linalg.norm(terms / top) if top > 0.0 else 0.0)
    return np.array(chi)


class TestKrylovFlow:
    """flow_exponential: the shift-and-invert Krylov exponential."""

    # small n, where the space is exhausted before the tolerance is met; n = 200 has the bare case-law id
    @pytest.mark.parametrize(("case", "law", "n"), [
        pytest.param(case, law, n, id=f"{case}-{law}" + (f"-n{n}" if n < 200 else ""))
        for case in sorted(KRYLOV_CASES) for law in ("uniform", "spike", "gaussian") for n in (200, 3, 4, 9)
    ])
    def test_matches_matrix_exponential(self, case, law, n):
        spec, x_min, x_max, t_max = KRYLOV_CASES[case]
        g = build_grid(x_min, x_max, n)
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
        eigenvector that never decays; the flow's basis is built orthogonal to
        it, so the late samples keep the accuracy of the exact eta."""
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

    # the 90 small cases of the chi scan, down to chi(2) = 1e-117 on three nodes
    @pytest.mark.parametrize(("t_max", "samples"), [(2.0, 2), (3.0, 31), (0.5, 5)])
    @pytest.mark.parametrize("law", ["uniform", "gaussian"])
    @pytest.mark.parametrize("n", [3, 4, 9, 25, 60])
    @pytest.mark.parametrize("case", sorted(KRYLOV_CASES))
    def test_chi_meets_the_tridiagonal_eigenbasis(self, case, n, law, t_max, samples):
        spec, x_min, x_max, _ = KRYLOV_CASES[case]
        g = build_grid(x_min, x_max, n)
        op = assemble_generator(spec, g)
        eigen = principal_eigenpair(op)
        m0 = initial_density(law, g)
        times = np.linspace(0.0, t_max, samples)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = flow_exponential(op, GridMeasure(g, m0), times, eigen=eigen)
        # worst case OU n = 60 uniform at t = 2, 1.2e-8, where the float64 reference limits
        np.testing.assert_allclose([s.chi2_to_beta for s in states], chi_eigenbasis(op, m0, times),
                                   rtol=5e-8, atol=0.0)

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

    @pytest.mark.parametrize("n", [400, 2000, 8000])
    @pytest.mark.parametrize("case", sorted(KRYLOV_CASES))
    def test_qsd_within_roundoff_of_a_gaussian(self, case, n):
        # w_perp(0) a few decades above the QSD's own roundoff: the chi run has
        # a start at the edge of the lock's floor and must still converge
        spec, x_min, x_max, t_max = KRYLOV_CASES[case]
        g = build_grid(x_min, x_max, n)
        op = assemble_generator(spec, g)
        eigen = principal_eigenpair(op, with_lambda1=False)
        alpha = qsd_from_eigen(op, eigen).density
        bump = initial_density("gaussian", g)
        bump /= bump.sum()
        times = np.linspace(0.0, t_max, 11)
        for delta in (1e-14, 1e-13, 1e-12):
            states = flow_exponential(op, GridMeasure(g, alpha + delta * bump), times, eigen=eigen)
            assert all(np.isfinite(s.chi2_to_beta) for s in states)

    @pytest.mark.parametrize("law", ["uniform", "gaussian"])
    @pytest.mark.parametrize("n", [3, 4, 9, 200])
    def test_a_locked_run_stays_orthogonal_to_the_lock(self, n, law):
        spec, x_min, x_max, t_max = KRYLOV_CASES["ou"]
        g = build_grid(x_min, x_max, n)
        op = assemble_generator(spec, g)
        eigen = principal_eigenpair(op)
        d, off = _symmetric_bands(op.off_upper, op.off_lower)
        psi = d * eigen.eta
        psi /= np.linalg.norm(psi)
        gamma = t_max / 10.0
        factors = doob._cn_factors(op.diag, off, gamma, eigen.lambda0)
        basis, coeffs = doob._krylov_run(
            initial_density(law, g) / d, t_max * np.array([0.05, 0.3, 1.0]), gamma,
            lambda v: dpttrs(*factors, v)[0],
            lambda v: tridiag_apply(op.diag, off, off, v) + eigen.lambda0 * v,
            doob.KRYLOV_CHI_TOL, lock=psi,
        )
        assert basis.shape[0] <= n - 1
        assert np.max(np.abs(basis @ psi)) <= 1e-13

    def test_basis_cap_raises(self, ou, monkeypatch):
        monkeypatch.setattr(doob, "KRYLOV_MAX_DIM", 4)
        mu = GridMeasure(ou.grid, initial_density("uniform", ou.grid))
        with pytest.raises(FlowError, match="basis size 4"):
            flow_exponential(ou.op, mu, [0.0, 1.0, 2.0], eigen=ou.eigen)

    def test_a_vast_time_raises_flow_error(self):
        spec, x_min, x_max, _ = KRYLOV_CASES["ou"]
        g = build_grid(x_min, x_max, 200)
        op = assemble_generator(spec, g)
        mu = GridMeasure(g, initial_density("uniform", g))
        with pytest.raises(FlowError, match="not converged: basis size"):
            flow_exponential(op, mu, [0.0, 1e200], eigen=principal_eigenpair(op))

    # one Krylov vector: B = (1/h_11 - 1)/gamma = 999, u(t) = exp(-999 t), and the
    # estimate is (h_21/gamma) residual |h_11^-1 u| t/|u| = 5e-10 t while u is not 0
    HESS_999 = np.array([[1e-3], [0.5]])

    def test_estimate_of_an_exponential_below_1e_154(self):
        # exp(-499.5) = 1e-217: the plain 2-norm of u underflows to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs, est = doob._krylov_coefficients(self.HESS_999, 1.0, np.array([0.0, 0.1, 0.5]), 1e-12)
        assert coeffs[-1, 0] < 1e-200
        assert est == pytest.approx(2.5e-10, rel=1e-12)

    def test_estimate_of_an_underflowed_exponential_is_not_met(self):
        # exp(-999) is exactly 0 at the last sample, and no error estimate can pass there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs, est = doob._krylov_coefficients(self.HESS_999, 1.0, np.array([0.0, 0.1, 1.0]), 1e-12)
        assert not est <= 1e-8

    def test_a_clear_failure_ends_the_march(self):
        # the estimate is 5e-11 at t = 0.1, above a stop of 1e-12: the march ends
        # after the second sample and returns its two rows
        coeffs, est = doob._krylov_coefficients(self.HESS_999, 1.0, np.array([0.0, 0.1, 0.2, 0.5]),
                                                1e-12, stop=1e-12)
        assert coeffs.shape == (2, 1)
        assert est == pytest.approx(5e-11, rel=1e-12)

    def test_a_nan_estimate_never_ends_the_march(self):
        # u(t) is exactly 0 from t = 1 on, so the estimate there is NaN: the
        # march runs to the end and the estimate fails every tolerance
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs, est = doob._krylov_coefficients(self.HESS_999, 1.0, np.array([0.0, 1.0, 1.5, 1.6]),
                                                    1e-12, stop=1e-12)
        assert coeffs.shape == (4, 1)
        assert math.isnan(est)

    def test_all_times_zero_and_validation(self, brownian, uniform_measure):
        mu = uniform_measure(brownian.grid)
        states = flow_exponential(brownian.op, mu, [0.0, 0.0], eigen=brownian.eigen)
        assert all(s.log_survival == 0.0 and s.survival_weight == 1.0 for s in states)
        with pytest.raises(ValueError, match="nondecreasing"):
            flow_exponential(brownian.op, mu, [1.0, 0.5])

    @pytest.mark.parametrize("times", [[0.0, 1.0, np.nan], [np.nan, 1.0], [0.0, np.inf], [-np.inf, 0.0]])
    @pytest.mark.parametrize("flow", ["curve", "exponential"])
    def test_non_finite_times_are_rejected(self, ou, flow, times):
        mu = GridMeasure(ou.grid, initial_density("uniform", ou.grid))
        with pytest.raises(ValueError, match="times must be finite"):
            if flow == "curve":
                flow_curve(ou.op, mu, times, 0.01, eigen=ou.eigen)
            else:
                flow_exponential(ou.op, mu, times, eigen=ou.eigen)


def full_march_coefficients(hess, gamma, times, residual, *_):
    """`doob._krylov_coefficients` before its march could end early: every
    sample marched and estimated, the gaps rounded at every check."""
    k = hess.shape[1]
    h_inv = np.linalg.inv(hess[:k])
    b = (h_inv - np.eye(k)) / gamma
    gaps = [float(f"{g:.12e}") for g in np.diff(times, prepend=0.0).tolist()]
    propagators = {g: expm(-g * b) for g in set(gaps) if g > 0.0}
    u = np.zeros(k)
    u[0] = 1.0
    coeffs = np.empty((times.size, k))
    for j, g in enumerate(gaps):
        if g > 0.0:
            u = propagators[g] @ u
        coeffs[j] = u
    with np.errstate(invalid="ignore"):
        us = coeffs / np.max(np.abs(coeffs), axis=1, keepdims=True)
    scale = hess[k, k - 1] / gamma * residual
    return coeffs, np.max(scale * np.abs(us @ h_inv[-1]) * times / np.linalg.norm(us, axis=1))


def density_loop_error(coeffs, basis, times):
    """The message of the first sample whose density fails, checked one sample at a time."""
    for t, c in zip(times, coeffs):
        m = c @ basis
        try:
            doob._check_density(m, float(m.sum()), f"at t={t:.6g}")
        except FlowError as exc:
            return str(exc)
    return None


class TestSampleBlocks:
    """The block path of flow_exponential and decay_curves, and the trimmed Krylov checks."""

    @pytest.mark.parametrize("rows", [1, 7, None])
    @pytest.mark.parametrize("samples", [5, 16, 17, 33, 61])
    @pytest.mark.parametrize("case", ["ou", "delta3"])
    def test_decay_curves_match_the_states(self, request, monkeypatch, case, samples, rows):
        from qsdlab.analytics import decay_curves
        from qsdlab.grid_measure import w1_distance

        p = request.getfixturevalue(case)
        if rows is not None:  # block edges inside the curve
            monkeypatch.setattr(doob, "BLOCK_BYTES", 8 * p.grid.n * rows)
        alpha = qsd_from_eigen(p.op, p.eigen)
        mu = GridMeasure(p.grid, initial_density("gaussian", p.grid))
        times = np.linspace(0.0, KRYLOV_CASES[case][3], samples)
        curves = decay_curves(p.op, p.eigen, mu, times)
        states = flow_exponential(p.op, mu, times, eigen=p.eigen)
        assert [s.t for s in states] == times.tolist()
        for name, distance in (("tv", tv_distance), ("w1", w1_distance)):
            np.testing.assert_allclose(curves[name], [distance(s.mu_t, alpha) for s in states],
                                       rtol=1e-12, atol=1e-15)
        for name, field in (("chi2", "chi2_to_beta"), ("survival_weight", "survival_weight"),
                            ("log_survival", "log_survival")):
            assert np.array_equal(curves[name], [getattr(s, field) for s in states])

    @pytest.mark.parametrize("samples", [(17, 30), (16, 20)], ids=["two-blocks", "one-block"])
    @pytest.mark.parametrize("first", ["negative", "underflow"])
    def test_first_failure_in_time_order_raises(self, ou, monkeypatch, first, samples):
        # two bad samples, in two blocks of 7 past the first or in one: a
        # negative density and a mass underflow; the earlier one names the
        # error, as in a per-sample loop
        from qsdlab.analytics import decay_curves

        times = np.linspace(0.0, 3.0, 41)
        bad = dict(zip(("negative", "underflow") if first == "negative" else ("underflow", "negative"), samples))
        run = doob._krylov_run
        seen = {}

        def spoiled_run(v0, later, *args, lock=None, **kwargs):
            basis, coeffs = run(v0, later, *args, lock=lock, **kwargs)
            if lock is not None:
                return basis, coeffs
            spike = np.zeros((1, v0.size))
            spike[0, v0.size // 2] = 1.0
            column = np.zeros((later.size, 1))
            column[bad["negative"] - 1] = -2.0 * v0.max()  # later[j - 1] is times[j]
            coeffs = np.hstack([coeffs, column])
            coeffs[bad["underflow"] - 1] *= 1e-300
            seen.update(basis=np.vstack([basis, spike]), coeffs=coeffs, later=later)
            return seen["basis"], coeffs

        monkeypatch.setattr(doob, "_krylov_run", spoiled_run)
        monkeypatch.setattr(doob, "BLOCK_BYTES", 8 * ou.grid.n * 7)
        mu = GridMeasure(ou.grid, initial_density("gaussian", ou.grid))
        for flow in (lambda: flow_exponential(ou.op, mu, times, eigen=ou.eigen),
                     lambda: decay_curves(ou.op, ou.eigen, mu, times)):
            with pytest.raises(FlowError) as caught:
                flow()
            expected = density_loop_error(seen["coeffs"], seen["basis"], seen["later"])
            assert str(caught.value) == expected
            if first == "negative":
                assert expected.startswith("negative density") and expected.endswith(f"at t={times[samples[0]]:.6g}")
            else:
                assert expected.startswith("total mass underflow")

    def test_trimmed_checks_keep_every_bit(self, monkeypatch):
        spec, x_min, x_max, t_max = KRYLOV_CASES["ou"]
        g = build_grid(x_min, x_max, 2000)
        op = assemble_generator(spec, g)
        eigen = principal_eigenpair(op, with_lambda1=False)
        d, off = _symmetric_bands(op.off_upper, op.off_lower)
        psi = d * eigen.eta
        psi /= np.linalg.norm(psi)
        later = np.linspace(0.0, t_max, 61)[1:]
        gamma = t_max / 10.0
        factors = doob._cn_factors(op.diag, off, gamma, eigen.lambda0)
        m0 = initial_density("gaussian", g)
        runs = {  # the chi-square run and the density run of flow_exponential
            "chi": (m0 / d, lambda v: dpttrs(*factors, v)[0],
                    lambda v: tridiag_apply(op.diag, off, off, v) + eigen.lambda0 * v,
                    doob.KRYLOV_CHI_TOL, psi),
            "m": (m0, lambda v: d * dpttrs(*factors, v / d)[0],
                  lambda v: tridiag_apply(op.diag, op.off_lower, op.off_upper, v) + eigen.lambda0 * v,
                  doob.KRYLOV_TOL, None),
        }

        def counted(coefficients):
            def wrapper(*args, **kwargs):
                coeffs, est = coefficients(*args, **kwargs)
                marched.append(coeffs.shape[0])
                return coeffs, est
            return wrapper

        trimmed = doob._krylov_coefficients
        for name, (v0, solve, apply, tol, lock) in runs.items():
            result = {}
            for version, coefficients in (("full", full_march_coefficients), ("trimmed", trimmed)):
                marched = []
                monkeypatch.setattr(doob, "_krylov_coefficients", counted(coefficients))
                basis, coeffs = doob._krylov_run(v0, later, gamma, solve, apply, tol, lock=lock)
                result[version] = basis, coeffs, marched
            (b_full, c_full, m_full), (b_trim, c_trim, m_trim) = result["full"], result["trimmed"]
            assert np.array_equal(b_full, b_trim) and np.array_equal(c_full, c_trim), name
            assert len(m_full) == len(m_trim) >= 2, name
            assert m_trim[-1] == later.size and sum(m_trim) < sum(m_full), name

    def test_the_chi_run_stops_at_the_square_root_tolerance(self, monkeypatch):
        # the set-up above through flow_exponential: the density run builds 35
        # vectors; the chi run, a quadrature held to sqrt(KRYLOV_CHI_TOL), 15,
        # where two Gram-Schmidt passes held to KRYLOV_CHI_TOL built 35
        spec, x_min, x_max, t_max = KRYLOV_CASES["ou"]
        g = build_grid(x_min, x_max, 2000)
        op = assemble_generator(spec, g)
        eigen = principal_eigenpair(op, with_lambda1=False)
        run, sizes = doob._krylov_run, {}

        def counted(v0, later, *args, lock=None):
            basis, coeffs = run(v0, later, *args, lock=lock)
            sizes["chi" if lock is not None else "m"] = basis.shape[0]
            return basis, coeffs

        monkeypatch.setattr(doob, "_krylov_run", counted)
        flow_exponential(op, GridMeasure(g, initial_density("gaussian", g)), np.linspace(0.0, t_max, 61),
                         eigen=eigen)
        assert sizes["chi"] <= 20 and sizes["m"] == 35

    def test_the_last_check_marches_every_sample(self, monkeypatch):
        # at the basis cap the error names the estimate of the full march
        # (1.656e+02 here; a march ended at the first clear failure reads 1.160)
        spec, x_min, x_max, t_max = KRYLOV_CASES["ou"]
        g = build_grid(x_min, x_max, 200)
        op = assemble_generator(spec, g)
        mu = GridMeasure(g, initial_density("uniform", g))
        monkeypatch.setattr(doob, "KRYLOV_MAX_DIM", 4)
        messages = []
        for coefficients in (full_march_coefficients, doob._krylov_coefficients):
            monkeypatch.setattr(doob, "_krylov_coefficients", coefficients)
            with pytest.raises(FlowError, match="basis size 4") as caught:
                flow_exponential(op, mu, np.linspace(0.0, t_max, 61), eigen=principal_eigenpair(op))
            messages.append(str(caught.value))
        assert messages[0] == messages[1]


class TestOneChiFormula:
    """Both flows take chi from one formula, and follow one mass-underflow rule."""

    @pytest.fixture(scope="class", params=sorted(KRYLOV_CASES))
    def problem(self, request):
        spec, x_min, x_max, t_max = KRYLOV_CASES[request.param]
        g = build_grid(x_min, x_max, 800)
        op = assemble_generator(spec, g)
        return op, principal_eigenpair(op), t_max

    @pytest.mark.parametrize("law", ["uniform", "gaussian"])
    def test_chi_matches_the_divergence_of_the_tilted_law(self, problem, law):
        # the old formula, chi2_divergence(tilt(eta, mu_t), beta), is the oracle
        op, eigen, t_max = problem
        mu = GridMeasure(op.grid, initial_density(law, op.grid))
        beta = GridMeasure(op.grid, eigen.eta**2 * op.gamma_weights)
        states = flow_curve(op, mu, np.linspace(0.0, t_max, 21), default_dt(op.grid, eigen.lambda0), eigen=eigen)
        ref = np.array([chi2_divergence(tilt(eigen.eta, s.mu_t), beta) for s in states])
        got = np.array([s.chi2_to_beta for s in states])
        assert np.all(np.abs(got - ref) <= 1e-10 * ref + 1e-14 * ref[0])
        chi0 = flow_exponential(op, mu, [0.0], eigen=eigen)[0].chi2_to_beta
        assert abs(chi0 - ref[0]) <= 1e-10 * ref[0]

    def test_chi_at_zero_is_finite_where_beta_underflows(self):
        # from the last node of delta = 6 on (0, 2), beta there is below the
        # divergence's absolute-continuity floor, which reads inf
        g = build_grid(0.0, 2.0, 400)
        op = assemble_generator(shifted_power_potential(6.0), g)
        eigen = principal_eigenpair(op)
        spike = np.zeros(g.n)
        spike[-1] = 1.0
        mu = GridMeasure(g, spike)
        chi0 = [flow(op, mu, [0.0], *args, eigen=eigen)[0].chi2_to_beta
                for flow, args in ((flow_exponential, ()), (flow_curve, (1e-5,)))]
        assert all(math.isfinite(c) for c in chi0)
        assert chi0[0] == chi0[1]
        from qsdlab.analytics import decay_curves
        chi = decay_curves(op, eigen, mu, [0.0, 0.1])["chi2"]
        assert math.isfinite(chi[0]) and chi[0] >= chi[1]

    @pytest.mark.parametrize("flow", ["curve", "exponential"])
    def test_an_unshifted_flow_whose_mass_underflows_raises(self, flow):
        # exp(-700) is below MASS_UNDERFLOW; without the eigenpair no shift keeps the mass O(1)
        g = build_grid(0.0, 8.0, 200)
        op = assemble_generator(quadratic_potential(1.0), g)
        mu = GridMeasure(g, np.exp(-((g.nodes - 1.5) ** 2)))
        with pytest.raises(FlowError, match="total mass underflow; restart the flow from the normalized state"):
            if flow == "curve":
                flow_curve(op, mu, [700.0], default_dt(g))
            else:
                flow_exponential(op, mu, [700.0])


@pytest.mark.parametrize("times, grid, message", [
    (np.zeros((2, 2)), None, "need a nonempty 1D array of times"),
    (np.array([]), None, "need a nonempty 1D array of times"),
    ([0.0, 1.0], build_grid(-1.0, 1.0, 30), "measure lives on a different grid"),
], ids=["two-dimensional", "empty", "other-grid"])
@pytest.mark.parametrize("flow", ["curve", "exponential"])
def test_sample_time_checks(flow, times, grid, message):
    op = assemble_generator(zero_potential(domain=(-1.0, 1.0)), build_grid(-1.0, 1.0, 20))
    g = op.grid if grid is None else grid
    mu = GridMeasure(g, np.ones(g.n))
    with pytest.raises(ValueError, match=message):
        if flow == "curve":
            flow_curve(op, mu, times, 0.01)
        else:
            flow_exponential(op, mu, times)
