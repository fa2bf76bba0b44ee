import dataclasses
import json
import math

import numpy as np
import pytest

from qsdlab import analytics
from qsdlab.analytics import (
    BOUND_A,
    BOUND_B,
    BurnIn,
    ReportConfig,
    alpha_psi2_over_eta,
    bound_constants,
    burn_in_time,
    closed_form,
    decay_report,
    fit_decay_rate,
    save_curves_csv,
    save_report_json,
)
from qsdlab.grid_measure import GridMeasure, ProductGridMeasure, build_grid, quadrature, w1_distance
from qsdlab.potential import shifted_power_potential
from qsdlab.spectral import (
    EigenPair,
    assemble_generator,
    principal_eigenpair,
    qsd_from_eigen,
    tridiag_apply,
)


class TestClosedForm:
    def test_brownian_constants(self):
        cf = closed_form("brownian_hypercube", N=1.0, n=500)
        assert cf.constants["kappa"] == pytest.approx((math.pi / 2.0) ** 2, rel=1e-14)
        assert cf.constants["gap"] == pytest.approx(3.0 * math.pi**2 / 8.0, rel=1e-14)
        assert cf.constants["alpha_inv_eta"] == pytest.approx(math.pi**2 / 8.0, rel=1e-14)
        assert cf.constants["prefactor_Cd"] is None

    def test_brownian_scaling_in_N(self):
        c1 = closed_form("brownian_hypercube", N=1.0, n=200).constants
        c2 = closed_form("brownian_hypercube", N=2.0, n=200).constants
        assert c1["gap"] / c2["gap"] == pytest.approx(4.0, rel=1e-14)
        assert c1["kappa"] / c2["kappa"] == pytest.approx(4.0, rel=1e-14)

    def test_brownian_eta_satisfies_eigen_relation(self):
        from qsdlab.spectral import assemble_generator

        cf = closed_form("brownian_hypercube", N=1.0, n=2000)
        op = assemble_generator(cf.spec, cf.grid)
        resid = tridiag_apply(op.diag, op.off_upper, op.off_lower, cf.eigen.eta) \
            + cf.constants["lambda0"] * cf.eigen.eta
        assert np.max(np.abs(resid)) / np.max(cf.eigen.eta) < 1e-5

    def test_ou_constants_and_normalization(self):
        cf = closed_form("ornstein_uhlenbeck", lam=1.0, n=4000)
        assert cf.constants["kappa"] == 2.0
        assert cf.constants["gap"] == 2.0
        # the stored eigenfunction is alpha-normalized: alpha(eta) = 1
        val = quadrature(cf.eigen.eta * cf.alpha.density, cf.grid)
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_ou_dimension_prefactor(self):
        cf = closed_form("ornstein_uhlenbeck", lam=1.0, d=3, n=100)
        expected = 3 * 2 / 4.0 * (math.pi / 2.0) ** 3
        assert cf.constants["prefactor_Cd"] == pytest.approx(expected, rel=1e-14)
        assert cf.constants["lambda0_total"] == 3.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            closed_form("brownian_hypercube", N=0.0)
        with pytest.raises(ValueError):
            closed_form("ornstein_uhlenbeck", lam=-1.0)
        with pytest.raises(ValueError):
            closed_form("unknown")


class TestBoundConstants:
    def test_a_and_b_values(self):
        assert BOUND_B == pytest.approx(1.0 / (1.0 - math.sqrt(0.9)), abs=1e-15)
        assert BOUND_A - BOUND_B == pytest.approx(1.0, abs=1e-15)
        assert BOUND_A == pytest.approx(20.486832980505138, abs=1e-12)
        assert BOUND_B == pytest.approx(19.486832980505138, abs=1e-12)

    def test_brownian_psi_one(self):
        cf = closed_form("brownian_hypercube", N=1.0, n=4000)
        bc = bound_constants(np.ones(cf.grid.n), cf.eigen, cf.alpha)
        assert abs(bc.alpha_psi2_over_eta - math.pi**2 / 8.0) < 1e-6
        assert bc.alpha_psi == pytest.approx(1.0, abs=1e-12)
        expected = (BOUND_A + BOUND_B) * math.sqrt(math.pi**2 / 8.0)
        assert bc.C_psi == pytest.approx(expected, rel=1e-6)

    def test_ou_distance_weight_is_finite(self):
        cf = closed_form("ornstein_uhlenbeck", lam=1.0, n=4000)
        psi = 1.0 + np.abs(cf.grid.nodes - 1.0)
        bc = bound_constants(psi, cf.eigen, cf.alpha)
        assert math.isfinite(bc.C_psi)
        assert bc.alpha_psi > 1.0

    def test_rejects_small_psi(self):
        cf = closed_form("brownian_hypercube", N=1.0, n=100)
        with pytest.raises(ValueError):
            bound_constants(np.full(cf.grid.n, 0.9), cf.eigen, cf.alpha)

    def test_flags_nonfinite_ratio(self):
        cf = closed_form("brownian_hypercube", N=1.0, n=100)
        eta = cf.eigen.eta.copy()
        eta[0] = 5e-324  # subnormal: the ratio overflows and must be flagged
        bad = EigenPair(lambda0=cf.eigen.lambda0, eta=eta)
        with pytest.raises(ValueError):
            alpha_psi2_over_eta(np.ones(cf.grid.n), bad, cf.alpha)


class TestLambda0LowerUsed:
    # a closed-form eigenpair has no Collatz-Wielandt bracket: lambda0 bounds itself
    def test_without_bracket(self):
        eigen = closed_form("brownian_hypercube", n=100).eigen
        assert eigen.lambda0_bracket is None
        assert analytics.lambda0_lower_used(eigen) == eigen.lambda0
        assert analytics.lambda0_lower_used(eigen, 1.0) == 1.0
        with pytest.raises(ValueError, match="exceeds the upper bound"):
            analytics.lambda0_lower_used(eigen, 1.01 * eigen.lambda0)


def cn_chi2_curve(b, mu, times):
    """alpha(1/eta) and the Crank-Nicolson chi-square curve of ``mu`` at ``default_dt``."""
    from qsdlab.doob import default_dt, flow_curve

    alpha = qsd_from_eigen(b.op, b.eigen)
    a_ratio = alpha_psi2_over_eta(np.ones(b.grid.n), b.eigen, alpha)
    states = flow_curve(b.op, mu, times, default_dt(b.grid, b.lambda0), eigen=b.eigen)
    return a_ratio, np.array([s.chi2_to_beta for s in states])


class TestBurnIn:
    def test_qsd_needs_no_burn_in(self, brownian):
        alpha = qsd_from_eigen(brownian.op, brownian.eigen)
        times = np.linspace(0.0, 1.0, 11)
        a_ratio, chi2 = cn_chi2_curve(brownian, alpha, times)
        burn = burn_in_time(a_ratio, times, chi2)
        assert burn.reached and burn.time == 0.0

    def test_point_like_mass_burns_in_after_smoothing(self, brownian):
        g = brownian.grid
        spike = np.zeros(g.n)
        spike[g.n // 3] = 1.0
        times = np.linspace(0.0, 3.0, 61)
        a_ratio, chi2 = cn_chi2_curve(brownian, GridMeasure(g, spike), times)
        burn = burn_in_time(a_ratio, times, chi2)
        assert burn.reached
        assert 0.0 < burn.time < 3.0

    def test_matches_threshold_crossing_of_chi2_curve(self, brownian, gaussian_measure):
        times = np.linspace(0.0, 2.0, 41)
        a_ratio, chi2 = cn_chi2_curve(brownian, gaussian_measure(brownian.grid, -0.6, 0.12), times)
        burn = burn_in_time(a_ratio, times, chi2)
        crossing = times[np.argmax(a_ratio * chi2**2 < 0.9)]
        assert burn.reached
        assert burn.time == pytest.approx(crossing, abs=1e-12)
        # a curve that never crosses: the last sampled time, not reached
        assert burn_in_time(a_ratio, times[:3], chi2[:3]) == BurnIn(time=times[2], reached=False)

    def test_report_takes_its_burn_in_from_its_chi2_curve(self, brownian_report):
        rep, _ = brownian_report
        burn = burn_in_time(rep.alpha_psi2_over_eta, rep.times, rep.chi2)
        assert (rep.burn_in_time, rep.burn_in_reached) == (burn.time, burn.reached)


class TestFitDecayRate:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 2.0, 21)
        fit = fit_decay_rate(t, 3.0 * np.exp(-2.0 * t), (0.0, 2.0))
        assert fit.rate == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_zero_value_in_window_rejected(self):
        t = np.linspace(0.0, 2.0, 21)
        v = np.exp(-t)
        v[10] = 0.0
        with pytest.raises(ValueError):
            fit_decay_rate(t, v, (0.0, 2.0))

    def test_needs_five_points(self):
        t = np.linspace(0.0, 2.0, 21)
        with pytest.raises(ValueError):
            fit_decay_rate(t, np.exp(-t), (0.0, 0.2))

    def test_brownian_tv_rate_dominates_gap(self, brownian, gaussian_measure):
        from qsdlab.doob import default_dt, flow_curve
        from qsdlab.grid_measure import tv_distance

        mu = gaussian_measure(brownian.grid, 0.3, 0.35)
        alpha = qsd_from_eigen(brownian.op, brownian.eigen)
        times = np.linspace(0.0, 2.0, 41)
        states = flow_curve(brownian.op, mu, times, default_dt(brownian.grid, brownian.lambda0),
                            eigen=brownian.eigen)
        tv = np.array([tv_distance(s.mu_t, alpha) for s in states])
        fit = fit_decay_rate(times, tv, (0.0, 2.0))
        assert fit.rate >= brownian.gap - 0.02


@pytest.fixture(scope="module")
def brownian_report():
    cf = closed_form("brownian_hypercube", N=1.0, n=1000)
    g = cf.grid
    mu = GridMeasure(g, np.exp(-((g.nodes - 0.3) ** 2) / (2 * 0.35**2)))
    return decay_report(ReportConfig(
        label="brownian", spec=cf.spec, grid=g, initial=mu,
        times=np.linspace(0.0, 2.0, 41), kappa=cf.constants["kappa"],
    )), cf


class TestDecayReport:
    def test_config_keeps_only_the_fields_callers_set(self):
        names = [f.name for f in dataclasses.fields(ReportConfig)]
        assert names == ["label", "spec", "grid", "initial", "times", "cdfi", "lambda0_lower", "kappa"]

    def test_rates_and_constants(self, brownian_report):
        rep, cf = brownian_report
        assert rep.gap == pytest.approx(cf.constants["gap"], rel=1e-5)
        assert abs(rep.fitted_rate_chi2 - rep.gap) <= 0.02
        assert rep.fitted_rate_tv >= rep.kappa
        assert rep.kappa <= rep.gap
        assert rep.burn_in_reached

    def test_bound_verification(self, brownian_report):
        rep, _ = brownian_report
        bound = rep.bound_constant * rep.chi2[0] * np.exp(-rep.kappa * rep.times)
        after = rep.times >= rep.burn_in_time
        assert np.all(rep.tv[after] <= bound[after] * (1.0 + 1e-3))

    def test_serialization_round_trip(self, tmp_path, brownian_report):
        rep, _ = brownian_report
        jpath = tmp_path / "report.json"
        cpath = tmp_path / "curves.csv"
        save_report_json(rep, jpath)
        save_curves_csv(rep, cpath)
        payload = json.loads(jpath.read_text())
        assert payload["label"] == "brownian"
        assert len(payload["times"]) == 41
        lines = cpath.read_text().splitlines()
        assert lines[0] == "t,tv,w1,chi2,survival_weight,log_survival"
        assert len(lines) == 42

    def test_fit_window_ignores_the_gaps_last_digits(self, monkeypatch):
        # samples lie on both ends of the default window [0.5/gap, 3/gap]:
        # a roundoff change in the gap must neither keep nor drop them
        cf = closed_form("brownian_hypercube", N=1.0, n=400)
        g = cf.grid
        eigen = principal_eigenpair(assemble_generator(cf.spec, g))
        times = np.linspace(0.0, 6.0 / (eigen.lambda1 - eigen.lambda0), 121)
        config = ReportConfig(label="brownian", spec=cf.spec, grid=g, times=times,
                              initial=GridMeasure(g, np.exp(-((g.nodes - 0.3) ** 2) / 0.245)))
        assemble = analytics._assemble_report
        seen = set()
        for rel in (-1e-11, 0.0, 1e-11):
            monkeypatch.setattr(analytics, "_assemble_report", lambda c, curves, burn, gap, **kw:
                                assemble(c, curves, burn, gap * (1.0 + rel), **kw))
            rep = decay_report(config)
            lo, hi = rep.fit_window
            held = int(np.count_nonzero((times >= lo) & (times <= hi)))
            seen.add((held, rep.fitted_rate_tv, rep.fitted_rate_w1, rep.fitted_rate_chi2))
        assert len(seen) == 1 and seen.pop()[0] == 51

    def test_cdfi_report_attaches_improved_rate(self):
        spec = shifted_power_potential(3.0)
        g = build_grid(0.0, 2.5, 1200)
        mu = GridMeasure(g, np.exp(-((g.nodes - 0.8) ** 2) / (2 * 0.25**2)))
        rep = decay_report(ReportConfig(
            label="cdfi", spec=spec, grid=g, initial=mu,
            times=np.linspace(0.0, 0.6, 41), cdfi=True, lambda0_lower=1.0,
        ))
        assert rep.kappa_tilde is not None
        assert rep.kappa_tilde >= 6.0
        assert rep.kappa_tilde <= rep.gap
        assert rep.fitted_rate_chi2 >= rep.kappa_tilde - 0.05

    @pytest.mark.parametrize("product", [False, True])
    def test_lambda0_lower_above_lambda0_raises(self, product):
        spec, g = shifted_power_potential(3.0), build_grid(0.0, 2.5, 400)
        mu = GridMeasure(g, np.exp(-((g.nodes - 0.8) ** 2) / (2 * 0.25**2)))
        config = ReportConfig(label="cdfi", spec=spec, grid=g, initial=mu,
                              times=np.linspace(0.0, 0.6, 5), cdfi=True, lambda0_lower=50.0)
        if product:
            config = dataclasses.replace(config, spec=[spec, spec], grid=[g, g], initial=ProductGridMeasure((mu, mu)))
        with pytest.raises(ValueError, match="lambda0_lower = 50 exceeds the upper bound 7.9589"):
            decay_report(config)

    def test_product_report(self):
        cf = closed_form("brownian_hypercube", N=1.0, n=800)
        g = cf.grid
        mu1 = GridMeasure(g, np.exp(-((g.nodes - 0.3) ** 2) / (2 * 0.3**2)))
        mu2 = GridMeasure(g, np.exp(-((g.nodes + 0.25) ** 2) / (2 * 0.3**2)))
        rep = decay_report(ReportConfig(
            label="brownian2d", spec=[cf.spec, cf.spec], grid=[g, g],
            initial=ProductGridMeasure((mu1, mu2)),
            times=np.linspace(0.0, 2.0, 31), kappa=cf.constants["kappa"],
        ))
        assert len(rep.marginals) == 2
        assert rep.lambda0 == rep.marginals[0].lambda0 + rep.marginals[1].lambda0
        np.testing.assert_allclose(
            rep.w1, rep.marginals[0].w1 + rep.marginals[1].w1, rtol=0, atol=1e-15
        )
        assert any("tensor eigenfunction" in note for note in rep.notes)

    def test_product_w1_additivity_matches_distance(self):
        # the report's summed W1 equals the product-measure distance
        g = build_grid(-1.0, 1.0, 200)
        rng = np.random.default_rng(3)
        a = ProductGridMeasure((
            GridMeasure(g, rng.uniform(0.1, 1.0, g.n)),
            GridMeasure(g, rng.uniform(0.1, 1.0, g.n)),
        ))
        b = ProductGridMeasure((
            GridMeasure(g, rng.uniform(0.1, 1.0, g.n)),
            GridMeasure(g, rng.uniform(0.1, 1.0, g.n)),
        ))
        total = w1_distance(a, b)
        parts = sum(w1_distance(x, y) for x, y in zip(a.factors, b.factors))
        assert total == parts

    def test_theorem_312_marginal_rates(self):
        # 2D product of processes coming down from infinity: the smaller
        # per-coordinate improved rate lower-bounds both fitted marginal rates
        spec_a = shifted_power_potential(3.0)
        spec_b = shifted_power_potential(2.5)
        ga = build_grid(0.0, 2.5, 1000)
        gb = build_grid(0.0, 3.0, 1200)
        mua = GridMeasure(ga, np.exp(-((ga.nodes - 0.8) ** 2) / (2 * 0.25**2)))
        mub = GridMeasure(gb, np.exp(-((gb.nodes - 1.0) ** 2) / (2 * 0.3**2)))
        rep = decay_report(ReportConfig(
            label="cdfi2d", spec=[spec_a, spec_b], grid=[ga, gb],
            initial=ProductGridMeasure((mua, mub)),
            times=np.linspace(0.0, 0.8, 41), cdfi=True, lambda0_lower=1.0,
        ))
        kt_min = min(m.kappa_tilde for m in rep.marginals)
        assert rep.kappa_tilde == kt_min
        for m in rep.marginals:
            assert m.fitted_rate_chi2 >= kt_min - 0.05
