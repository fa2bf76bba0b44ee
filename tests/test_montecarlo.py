import math
import os
import sys
import threading

import numpy as np
import pytest

from qsdlab.doob import default_dt, flow_curve
from qsdlab.grid_measure import ProductGridMeasure, build_grid, regrid, tv_distance
from qsdlab.montecarlo import (
    BRIDGE_REACH,
    ParticleEnsemble,
    SimConfig,
    _step_rng,
    conditioned_empirical,
    estimate_lambda0,
    sample_measure,
    save_positions_csv,
    save_survival_csv,
    simulate,
)
from qsdlab.potential import (
    evaluate,
    quadratic_potential,
    shifted_power_potential,
    zero_potential,
)


def brownian_config(**kw):
    base = dict(
        spec=zero_potential(domain=(-1.0, 1.0)),
        domain=(-1.0, 1.0),
        dt=1e-3,
        horizon=0.5,
        n_particles=20_000,
        seed=1234,
        resample=False,
    )
    base.update(kw)
    return SimConfig(**base)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            brownian_config(dt=0.0)
        with pytest.raises(ValueError):
            brownian_config(dt=1.0, horizon=0.5)
        with pytest.raises(ValueError):
            brownian_config(n_particles=50)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon must be finite"):
            brownian_config(horizon=horizon)

    @pytest.mark.parametrize("horizon, dt", [(1e300, 1e-10), (1.0, 5e-324)])
    def test_overflowing_step_count_rejected(self, horizon, dt):
        with pytest.raises(ValueError, match="step count horizon / dt must be finite"):
            brownian_config(horizon=horizon, dt=dt)

    def test_product_coordinates(self):
        cfg = SimConfig(
            spec=[zero_potential(domain=(-1, 1)), quadratic_potential(1.0)],
            domain=[(-1.0, 1.0), (0.0, math.inf)],
            dt=1e-3, horizon=0.1, n_particles=200, seed=1,
        )
        coords = cfg.coordinates()
        assert len(coords) == 2
        assert coords[1][1] == (0.0, math.inf)


class TestDeterminism:
    def test_repeated_runs_identical(self, uniform_measure):
        g = build_grid(-1.0, 1.0, 200)
        mu = uniform_measure(g)
        cfg = brownian_config(n_particles=5000, horizon=0.2)
        a = simulate(cfg, mu)
        b = simulate(cfg, mu)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.survival_curve, b.survival_curve)
        assert a.alive_count == b.alive_count


def reference_simulate(cfg, mu):
    """Plain loop of the documented scheme on a full-size array with an alive
    mask: step k draws one normal per survivor and coordinate, survivors in
    particle-index order, then one uniform per survivor within the bridge
    reach of an end, then resampling draws its donors."""
    coords = cfg.coordinates()
    d = len(coords)
    n = cfg.n_particles
    steps = int(round(cfg.horizon / cfg.dt))
    dt = cfg.horizon / steps
    sqdt = math.sqrt(dt)
    x = sample_measure(mu, n, _step_rng(cfg.seed, 0))
    alive = np.ones(n, dtype=bool)
    log_surv = 0.0
    history = [(0.0, 1.0, 0.0)]
    for k in range(1, steps + 1):
        rng = _step_rng(cfg.seed, k)
        idx = np.flatnonzero(alive)
        xi = rng.standard_normal((idx.size, d))
        xa = x[idx]
        drift = np.empty_like(xa)
        for j, (spec, _) in enumerate(coords):
            drift[:, j] = -0.5 * np.asarray(evaluate(spec, xa[:, j])[1])
        ya = xa + drift * dt + sqdt * xi
        x[idx] = ya
        # bridge exit: p = 1 - prod over finite ends of (1 - exp(-2 g+ / dt)),
        # g = (x - b)(y - b); only particles with g < BRIDGE_REACH dt draw
        near = np.zeros(idx.size, dtype=bool)
        stay = np.ones(idx.size)
        for j, (_, (lo, hi)) in enumerate(coords):
            for b in (lo, hi):
                if math.isfinite(b):
                    g = (xa[:, j] - b) * (ya[:, j] - b)
                    near |= g < BRIDGE_REACH * dt
                    stay *= 1.0 - np.exp(np.maximum(g, 0.0) * (-2.0 / dt))
        draw = np.flatnonzero(near)
        alive[idx[draw[rng.random(draw.size) < 1.0 - stay[draw]]]] = False
        n_alive = int(alive.sum())
        if n_alive == 0:
            history.append((k * dt, 0.0, -math.inf))
            break
        if cfg.resample:
            log_surv += math.log(n_alive / idx.size)
            dead = np.flatnonzero(~alive)
            if dead.size:
                x[dead] = x[rng.choice(np.flatnonzero(alive), size=dead.size)]
                alive[dead] = True
        else:
            log_surv = math.log(n_alive / n)
        history.append((k * dt, int(alive.sum()) / n, log_surv))
    return x[alive], np.array(history)


def _draw_layout_case(case, uniform_measure, gaussian_measure):
    """(config, initial law) of one draw-layout case."""
    unit = uniform_measure(build_grid(-1.0, 1.0, 100))
    ou_law = gaussian_measure(build_grid(0.0, 6.0, 100), 1.0, 0.5)
    power_law = uniform_measure(build_grid(0.0, 2.5, 100))
    power = shifted_power_potential(3.0)
    if case == "absorb-1d":
        return brownian_config(n_particles=300, horizon=0.3, seed=17), unit
    if case == "absorb-product":
        cfg = SimConfig(spec=[zero_potential(domain=(-1, 1)), quadratic_potential(1.0)],
                        domain=[(-1.0, 1.0), (0.0, math.inf)],
                        dt=1e-3, horizon=0.3, n_particles=300, seed=18)
        return cfg, ProductGridMeasure((unit, ou_law))
    if case == "resample":
        return brownian_config(n_particles=300, horizon=0.3, seed=19, resample=True), unit
    if case == "absorb-shifted-power":
        cfg = SimConfig(spec=power, domain=(0.0, 2.5), dt=1e-3, horizon=0.2,
                        n_particles=300, seed=20)
        return cfg, power_law
    if case == "resample-ou":
        cfg = SimConfig(spec=quadratic_potential(1.0), domain=(0.0, math.inf), dt=1e-2,
                        horizon=0.5, n_particles=300, seed=21, resample=True)
        return cfg, ou_law
    if case in ("absorb-3d", "resample-3d"):
        cfg = SimConfig(spec=[zero_potential(domain=(-1, 1)), quadratic_potential(1.0), power],
                        domain=[(-1.0, 1.0), (0.0, math.inf), (0.0, 2.5)], dt=1e-3,
                        horizon=0.1, n_particles=300, seed=22, resample=case == "resample-3d")
        return cfg, ProductGridMeasure((unit, ou_law, power_law))
    assert case == "all-absorbed"
    cfg = SimConfig(spec=zero_potential(domain=(-0.02, 0.02)), domain=(-0.02, 0.02),
                    dt=1e-3, horizon=1.0, n_particles=200, seed=3)
    return cfg, uniform_measure(build_grid(-0.02, 0.02, 50))


class TestDrawLayout:
    @pytest.mark.parametrize("case", ["absorb-1d", "absorb-product", "resample",
                                      "absorb-shifted-power", "resample-ou", "absorb-3d",
                                      "resample-3d", "all-absorbed"])
    def test_matches_reference_loop(self, case, uniform_measure, gaussian_measure):
        cfg, mu = _draw_layout_case(case, uniform_measure, gaussian_measure)
        ens = simulate(cfg, mu)
        positions, curve = reference_simulate(cfg, mu)
        d = len(cfg.coordinates())
        if case == "all-absorbed":
            assert ens.status == "all_absorbed" and ens.alive_count == 0
            assert ens.positions.shape == (0, d)
        else:
            assert ens.status == "ok"
            if cfg.resample:  # some particles were restarted from donors
                assert ens.log_survival_estimate < 0.0
            else:
                assert 0 < ens.alive_count < cfg.n_particles
        assert ens.alive_count == positions.shape[0]
        assert ens.positions.shape == positions.shape == (ens.alive_count, d)
        assert np.array_equal(ens.positions, positions)
        assert np.array_equal(ens.survival_curve, curve)

    def test_interval_outside_potential_domain_raises_before_stepping(
            self, uniform_measure, monkeypatch):
        import qsdlab.montecarlo as mc

        def no_step(*args):
            raise AssertionError("no step may be drawn")

        monkeypatch.setattr(mc, "_step_rng", no_step)
        g = build_grid(-1.0, 1.0, 100)
        for spec, domain in ((quadratic_potential(1.0), (-1.0, 1.0)),
                             (zero_potential(domain=(-1.0, 1.0)), (-1.0, 1.5)),
                             (shifted_power_potential(3.0), (-0.5, math.inf))):
            cfg = SimConfig(spec=spec, domain=domain, dt=1e-3, horizon=0.1,
                            n_particles=200, seed=1)
            with pytest.raises(ValueError, match="potential domain"):
                simulate(cfg, uniform_measure(g))
        product = SimConfig(spec=[zero_potential(), quadratic_potential(1.0)],
                            domain=[(-1.0, 1.0), (-1.0, 1.0)], dt=1e-3, horizon=0.1,
                            n_particles=200, seed=1)
        with pytest.raises(ValueError, match="potential domain"):
            simulate(product, ProductGridMeasure((uniform_measure(g), uniform_measure(g))))

    @pytest.mark.parametrize("branch", ["tail", "redraw", "resample", "all-absorbed"])
    def test_prefetch_branch_matches_reference_loop(self, branch, uniform_measure,
                                                    gaussian_measure, monkeypatch):
        import qsdlab.montecarlo as mc

        ahead, opened = [], []  # (step, rows drawn ahead); step of each opened stream
        draw_ahead, step_rng = mc._draw_ahead, mc._step_rng

        def counted_draw(seed, k, out):
            ahead.append((k, out.shape[0]))
            return draw_ahead(seed, k, out)

        def counted_rng(seed, k):
            opened.append(k)
            return step_rng(seed, k)

        monkeypatch.setattr(mc, "_draw_ahead", counted_draw)
        monkeypatch.setattr(mc, "_step_rng", counted_rng)
        if branch == "redraw":
            # a law packed against an end at coarse dt: step 1 kills most of
            # the ensemble, more than step 2's guess allows for
            cfg = brownian_config(domain=(0.0, 1.0), spec=zero_potential(domain=(0.0, 1.0)),
                                  dt=1e-2, horizon=0.2, n_particles=300, seed=23)
            mu = uniform_measure(build_grid(0.0, 1.0, 100), 0.0, 0.05)
        else:
            case = {"tail": "absorb-1d", "resample": "resample",
                    "all-absorbed": "all-absorbed"}[branch]
            cfg, mu = _draw_layout_case(case, uniform_measure, gaussian_measure)
        ens = simulate(cfg, mu)
        positions, curve = reference_simulate(cfg, mu)
        assert np.array_equal(ens.positions, positions)
        assert np.array_equal(ens.survival_curve, curve)

        n = cfg.n_particles
        steps = int(round(cfg.horizon / cfg.dt))
        drawn = [k for k, _ in ahead]
        # each step is drawn ahead at most once, by whichever thread, and every
        # step that ran was
        assert len(set(drawn)) == len(drawn) and set(range(1, len(curve))) <= set(drawn)
        redrawn = [k for k in set(opened) if opened.count(k) == 2]
        if branch == "resample":
            assert len(ahead) == steps and all(rows == n for _, rows in ahead)
            assert redrawn == []
            return
        # survivors at the start of step k, from the per-step survival curve
        alive = np.rint(ens.survival_curve[:, 1] * n).astype(int)
        assert opened.count(0) == 1
        if branch == "all-absorbed":
            # the run ends at the step that absorbs the last survivor; at most
            # AHEAD later steps were queued, and some of them drawn and never used
            assert ens.status == "all_absorbed" and len(curve) - 1 < steps
            assert max(drawn) <= len(curve) - 1 + mc.AHEAD
        else:
            assert len(ahead) == steps
        used = [(k, rows) for k, rows in ahead if k < len(curve)]
        tails = [k for k, rows in used if 0 < rows < alive[k - 1]]
        overshoots = sorted(k for k, rows in used if rows > alive[k - 1])
        assert overshoots == sorted(redrawn)
        if branch == "redraw":
            assert alive[1] < alive[0] / 2 and overshoots[:1] == [2]
        elif branch == "tail":
            assert overshoots == [] and len(tails) > 0


class TestHelperThread:
    """simulate draws later steps' normals on one helper thread, which it
    joins before it returns or raises."""

    @pytest.mark.parametrize("case", ["absorb-1d", "resample", "all-absorbed"])
    def test_no_thread_outlives_a_run(self, case, uniform_measure, gaussian_measure):
        cfg, mu = _draw_layout_case(case, uniform_measure, gaussian_measure)
        threads = threading.active_count()
        simulate(cfg, mu)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("resample", [False, True])
    def test_no_thread_outlives_an_exception_mid_run(self, resample, uniform_measure,
                                                     monkeypatch):
        import qsdlab.montecarlo as mc

        calls = []
        bridge_exits = mc._bridge_exits

        def fail_at_step_3(*args):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("exit test failed")
            return bridge_exits(*args)

        monkeypatch.setattr(mc, "_bridge_exits", fail_at_step_3)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="exit test failed"):
            simulate(brownian_config(n_particles=300, horizon=0.1, resample=resample),
                     uniform_measure(build_grid(-1.0, 1.0, 100)))
        assert len(calls) == 3
        assert threading.active_count() == threads

    @pytest.mark.parametrize("case", ["absorb-1d", "resample", "absorb-product",
                                      "all-absorbed"])
    def test_main_thread_steals_from_a_slow_helper(self, case, uniform_measure,
                                                   gaussian_measure, monkeypatch):
        # the main thread draws the queued steps the helper has not started,
        # and the result does not depend on which thread drew a block
        import time

        import qsdlab.montecarlo as mc

        main = threading.get_ident()
        on_main = []
        draw_ahead = mc._draw_ahead

        def slow_helper(seed, k, out):
            on_main.append(threading.get_ident() == main)
            if not on_main[-1]:
                time.sleep(0.002)
            return draw_ahead(seed, k, out)

        monkeypatch.setattr(mc, "_draw_ahead", slow_helper)
        cfg, mu = _draw_layout_case(case, uniform_measure, gaussian_measure)
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # the threads interleave finely around each hand-over
        try:
            ens = simulate(cfg, mu)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
        positions, curve = reference_simulate(cfg, mu)
        assert np.array_equal(ens.positions, positions)
        assert np.array_equal(ens.survival_curve, curve)
        assert any(on_main)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
    def test_both_threads_keep_the_callers_cpus(self, uniform_measure, gaussian_measure,
                                                monkeypatch):
        # neither thread is moved: the helper runs wherever the scheduler puts it
        import qsdlab.montecarlo as mc

        seen = []
        moves = []
        draw_ahead = mc._draw_ahead

        def recorded(seed, k, out):
            seen.append(os.sched_getaffinity(0))
            return draw_ahead(seed, k, out)

        monkeypatch.setattr(mc, "_draw_ahead", recorded)
        monkeypatch.setattr(os, "sched_setaffinity", lambda *args: moves.append(args))
        cfg, mu = _draw_layout_case("absorb-1d", uniform_measure, gaussian_measure)
        cpus = os.sched_getaffinity(0)
        simulate(cfg, mu)
        assert moves == []
        assert os.sched_getaffinity(0) == cpus
        assert len(seen) > 0 and all(s == cpus for s in seen)

    def test_public_functions_run_on_the_calling_thread(self, uniform_measure,
                                                        gaussian_measure, monkeypatch):
        # a tracer that wraps the public functions sees nested calls on one thread
        import importlib
        import inspect

        import qsdlab

        names = ("cli", "analytics", "spectral", "doob", "montecarlo", "potential",
                 "grid_measure")
        modules = [importlib.import_module(f"qsdlab.{name}") for name in names]
        idents = []

        def recorded(fn):
            def call(*args, **kwargs):
                idents.append(threading.get_ident())
                return fn(*args, **kwargs)
            return call

        for module in modules:
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn):
                    for ns in (qsdlab, *modules):
                        for attr, value in list(vars(ns).items()):
                            if value is fn:
                                monkeypatch.setattr(ns, attr, recorded(fn))
        for case in ("absorb-product", "resample-ou"):
            cfg, mu = _draw_layout_case(case, uniform_measure, gaussian_measure)
            qsdlab.montecarlo.simulate(cfg, mu)
        assert len(idents) > 2 and set(idents) == {threading.get_ident()}


class TestSurvival:
    def test_survivor_fraction_near_grid_oracle(self, uniform_measure):
        # the Brownian-bridge exit test leaves no step-end monitoring bias, so
        # survival sits within three standard errors of the binomial noise
        g = build_grid(-1.0, 1.0, 1000)
        op_spec = zero_potential(domain=(-1.0, 1.0))
        from qsdlab.spectral import assemble_generator, principal_eigenpair

        op = assemble_generator(op_spec, g)
        eig = principal_eigenpair(op)
        mu = uniform_measure(g)
        oracle = flow_curve(op, mu, [0.5], default_dt(g, eig.lambda0), eigen=eig)[-1]
        cfg = brownian_config(dt=1e-4, horizon=0.5, n_particles=5000, seed=42)
        ens = simulate(cfg, mu)
        frac = ens.alive_count / ens.initial_count
        se = math.sqrt(oracle.survival_weight * (1 - oracle.survival_weight) / cfg.n_particles)
        assert abs(frac - oracle.survival_weight) <= 3.0 * se

    def test_dt_refinement_stays_within_first_crossing_bound(self, uniform_measure):
        g = build_grid(-1.0, 1.0, 400)
        mu = uniform_measure(g)
        fracs = {}
        for dt in (4e-3, 2e-3):
            cfg = brownian_config(dt=dt, horizon=0.3, n_particles=20_000, seed=7)
            ens = simulate(cfg, mu)
            fracs[dt] = ens.alive_count / ens.initial_count
        assert abs(fracs[4e-3] - fracs[2e-3]) <= math.sqrt(4e-3)

    def test_all_absorbed_is_flagged(self, uniform_measure):
        g = build_grid(-0.02, 0.02, 50)
        mu = uniform_measure(g)
        cfg = SimConfig(
            spec=zero_potential(domain=(-0.02, 0.02)), domain=(-0.02, 0.02),
            dt=1e-3, horizon=1.0, n_particles=200, seed=3,
        )
        ens = simulate(cfg, mu)
        assert ens.status == "all_absorbed"
        assert ens.alive_count == 0
        with pytest.raises(ValueError):
            conditioned_empirical(ens, g)

    def test_resampling_keeps_population(self, uniform_measure):
        g = build_grid(-1.0, 1.0, 200)
        mu = uniform_measure(g)
        cfg = brownian_config(resample=True, horizon=0.5, n_particles=1000, seed=5)
        ens = simulate(cfg, mu)
        assert ens.alive_count == cfg.n_particles
        assert ens.log_survival_estimate < 0.0


def brownian_uniform_survival(t):
    """P(T > t) for Brownian motion on (-1, 1) started uniformly."""
    return sum(8.0 / (k * k * math.pi**2) * math.exp(-k * k * math.pi**2 * t / 8.0)
               for k in range(1, 200, 2))


def within_sd(frac, ref, n_particles, k=5.0):
    return abs(frac - ref) <= k * math.sqrt(ref * (1.0 - ref) / n_particles)


class TestBridgeExit:
    """At dt = 1e-2 step-end monitoring alone overstates survival by many
    standard errors; the bridge exit test leaves only the O(dt) Euler error."""

    def test_brownian_survival_matches_series(self, uniform_measure):
        mu = uniform_measure(build_grid(-1.0, 1.0, 2000))
        cfg = brownian_config(dt=1e-2, horizon=0.5, n_particles=100_000, seed=31)
        ens = simulate(cfg, mu)
        assert within_sd(ens.alive_count / cfg.n_particles, brownian_uniform_survival(0.5),
                         cfg.n_particles)

    def test_ou_survival_matches_grid_flow(self, gaussian_measure):
        from qsdlab.doob import flow_exponential
        from qsdlab.spectral import assemble_generator

        g = build_grid(0.0, 8.0, 2000)
        mu = gaussian_measure(g, 1.0, 0.5)
        ref = flow_exponential(assemble_generator(quadratic_potential(1.0), g), mu,
                               [0.0, 0.5])[-1].survival_weight
        cfg = SimConfig(spec=quadratic_potential(1.0), domain=(0.0, math.inf), dt=1e-2,
                        horizon=0.5, n_particles=100_000, seed=32)
        ens = simulate(cfg, mu)
        assert within_sd(ens.alive_count / cfg.n_particles, ref, cfg.n_particles)

    def test_fleming_viot_lambda0_within_one_percent(self, uniform_measure):
        mu = uniform_measure(build_grid(-1.0, 1.0, 2000))
        cfg = brownian_config(dt=1e-2, horizon=3.0, n_particles=100_000, seed=33,
                              resample=True)
        ens = simulate(cfg, mu)
        lam = estimate_lambda0(ens.survival_curve, window=(1.0, 3.0))
        assert abs(lam - math.pi**2 / 8.0) <= 1e-2 * math.pi**2 / 8.0

    def test_product_domain_survives_as_product_of_1d_runs(self, uniform_measure,
                                                           gaussian_measure):
        # coordinates are independent, so the product of the two 1D runs and
        # the product of their oracles both predict the 2D survival
        from qsdlab.doob import flow_exponential
        from qsdlab.spectral import assemble_generator

        box = uniform_measure(build_grid(-1.0, 1.0, 2000))
        g = build_grid(0.0, 8.0, 2000)
        ou_law = gaussian_measure(g, 1.0, 0.5)
        specs = [zero_potential(domain=(-1.0, 1.0)), quadratic_potential(1.0)]
        domains = [(-1.0, 1.0), (0.0, math.inf)]
        n = 100_000

        def survival(spec, domain, mu, seed):
            cfg = SimConfig(spec=spec, domain=domain, dt=1e-2, horizon=0.5,
                            n_particles=n, seed=seed)
            return simulate(cfg, mu).alive_count / n

        s2 = survival(specs, domains, ProductGridMeasure((box, ou_law)), 34)
        s_box = survival(specs[0], domains[0], box, 35)
        s_ou = survival(specs[1], domains[1], ou_law, 36)
        ref_ou = flow_exponential(assemble_generator(specs[1], g), ou_law,
                                  [0.0, 0.5])[-1].survival_weight
        ref = brownian_uniform_survival(0.5) * ref_ou
        sd = math.sqrt(ref * (1.0 - ref) / n)
        assert abs(s2 - s_box * s_ou) <= 5.0 * math.sqrt(2.0) * sd
        assert within_sd(s2, ref, n)


class TestEmpiricalLaw:
    def test_point_mass_histogram(self):
        g = build_grid(0.0, 1.0, 9)
        ens = ParticleEnsemble(
            positions=np.full((50, 1), g.nodes[4]),
            alive_count=50, t=1.0, initial_count=50,
            log_survival_estimate=0.0,
        )
        emp = conditioned_empirical(ens, g)
        assert emp.density[4] > 0.0
        assert np.count_nonzero(emp.density) == 1

    def test_cell_edge_goes_to_lower_cell(self):
        g = build_grid(0.0, 1.0, 9)
        edge = g.x_min + g.h * 2.5  # upper edge of the cell of node index 1
        ens = ParticleEnsemble(
            positions=np.array([[edge]]), alive_count=1, t=0.0,
            initial_count=1, log_survival_estimate=0.0,
        )
        emp = conditioned_empirical(ens, g)
        assert emp.density[1] > 0.0

    def test_brownian_law_against_grid_flow(self, uniform_measure):
        g = build_grid(-1.0, 1.0, 1000)
        from qsdlab.spectral import assemble_generator, principal_eigenpair

        op = assemble_generator(zero_potential(domain=(-1, 1)), g)
        eig = principal_eigenpair(op)
        mu = uniform_measure(g)
        oracle = flow_curve(op, mu, [0.5], default_dt(g, eig.lambda0), eigen=eig)[-1]
        cfg = brownian_config(dt=5e-4, horizon=0.5, n_particles=30_000, seed=11)
        ens = simulate(cfg, mu)
        coarse = build_grid(-1.0, 1.0, 6)
        tv = tv_distance(conditioned_empirical(ens, coarse), regrid(oracle.mu_t, coarse))
        assert tv <= 0.05

    def test_more_particles_reduce_error(self, uniform_measure):
        # Monte Carlo error scaling: quadrupling the particles roughly halves
        # the distance to the oracle on average over seeds
        g = build_grid(-1.0, 1.0, 500)
        from qsdlab.spectral import assemble_generator, principal_eigenpair

        op = assemble_generator(zero_potential(domain=(-1, 1)), g)
        eig = principal_eigenpair(op)
        mu = uniform_measure(g)
        oracle = flow_curve(op, mu, [0.25], default_dt(g, eig.lambda0), eigen=eig)[-1]
        coarse = build_grid(-1.0, 1.0, 8)
        proj = regrid(oracle.mu_t, coarse)

        def mean_tv(n_particles):
            vals = []
            for seed in range(6):
                cfg = brownian_config(dt=2e-3, horizon=0.25,
                                      n_particles=n_particles, seed=100 + seed)
                ens = simulate(cfg, mu)
                vals.append(tv_distance(conditioned_empirical(ens, coarse), proj))
            return np.mean(vals)

        small, large = mean_tv(1500), mean_tv(6000)
        assert large < small
        assert small / large > 1.4  # about 2 in expectation

    def test_product_marginals_match_independent_runs(self, uniform_measure):
        # coordinates of a product simulation are independent; marginals agree
        # with separate 1D simulations up to statistical error
        g = build_grid(-1.0, 1.0, 300)
        mu = uniform_measure(g)
        spec = zero_potential(domain=(-1.0, 1.0))
        from qsdlab.grid_measure import ProductGridMeasure

        cfg2 = SimConfig(spec=[spec, spec], domain=[(-1, 1), (-1, 1)],
                         dt=1e-3, horizon=0.3, n_particles=20_000, seed=21)
        ens2 = simulate(cfg2, ProductGridMeasure((mu, mu)))
        coarse = build_grid(-1.0, 1.0, 8)
        marg = conditioned_empirical(ens2, [coarse, coarse])

        cfg1 = SimConfig(spec=spec, domain=(-1, 1), dt=1e-3, horizon=0.3,
                         n_particles=20_000, seed=22)
        ens1 = simulate(cfg1, mu)
        ref = conditioned_empirical(ens1, coarse)
        for factor in marg.factors:
            assert tv_distance(factor, ref) <= 0.06


class TestLambda0Estimation:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 3.0, 31)
        curve = np.column_stack([t, np.exp(-2.0 * t)])
        assert estimate_lambda0(curve) == pytest.approx(2.0, abs=1e-12)

    def test_log_survival_column(self):
        t = np.linspace(0.0, 3.0, 31)
        curve = np.column_stack([t, np.ones_like(t), -1.5 * t])
        assert estimate_lambda0(curve) == pytest.approx(1.5, abs=1e-12)

    def test_zero_fractions_leave_the_fit(self):
        t = np.linspace(0.0, 3.0, 31)
        frac = np.exp(-2.0 * t)
        frac[-3:] = 0.0
        curve = np.column_stack([t, frac])
        assert estimate_lambda0(curve) == pytest.approx(2.0, abs=1e-12)

    def test_window_needs_enough_samples(self):
        t = np.linspace(0.0, 1.0, 6)
        curve = np.column_stack([t, np.exp(-t)])
        with pytest.raises(ValueError):
            estimate_lambda0(curve, window=(0.9, 1.0))

    def test_ou_simulation_recovers_rate(self, gaussian_measure):
        g = build_grid(0.0, 6.0, 600)
        mu = gaussian_measure(g, 1.0, 0.5)
        cfg = SimConfig(spec=quadratic_potential(1.0), domain=(0.0, math.inf),
                        dt=1e-3, horizon=3.0, n_particles=20_000, seed=99,
                        resample=True)
        ens = simulate(cfg, mu)
        lam = estimate_lambda0(ens.survival_curve, window=(1.0, 3.0))
        assert abs(lam - 1.0) <= 5e-2


class TestSampling:
    def test_samples_stay_inside_support(self, uniform_measure):
        g = build_grid(0.0, 1.0, 50)
        mu = uniform_measure(g, 0.25, 0.75)
        rng = np.random.default_rng(0)
        xs = sample_measure(mu, 5000, rng)
        assert xs.min() > 0.2 and xs.max() < 0.8

    def test_outputs_are_column_stacked(self, uniform_measure):
        from qsdlab.grid_measure import ProductGridMeasure

        g = build_grid(0.0, 1.0, 50)
        mu = ProductGridMeasure((uniform_measure(g), uniform_measure(g)))
        xs = sample_measure(mu, 100, np.random.default_rng(1))
        assert xs.shape == (100, 2)


class TestSerialization:
    def test_survival_and_positions_csv(self, tmp_path, uniform_measure):
        g = build_grid(-1.0, 1.0, 100)
        cfg = brownian_config(n_particles=500, horizon=0.1)
        ens = simulate(cfg, uniform_measure(g))
        spath = tmp_path / "survival.csv"
        ppath = tmp_path / "positions.csv"
        save_survival_csv(ens, spath)
        save_positions_csv(ens, ppath)
        slines = spath.read_text().splitlines()
        assert slines[0] == "t,alive_fraction,log_survival"
        plines = ppath.read_text().splitlines()
        assert plines[0] == "particle_id,x1"
        assert len(plines) == ens.alive_count + 1

    @pytest.mark.parametrize("positions", [
        np.array([[0.25], [-0.0], [1e-310], [-1.0 / 3.0]]),
        np.array([[0.5, -0.25], [1e-300, -0.0], [-1.0 / 3.0, 2.0**-60]]),
        np.empty((0, 1)),
        np.empty((0, 2)),
    ], ids=["d1", "d2", "empty-d1", "empty-d2"])
    def test_positions_bytes_match_per_value_join(self, tmp_path, positions):
        ens = ParticleEnsemble(positions=positions, alive_count=positions.shape[0], t=0.1,
                               initial_count=4, log_survival_estimate=0.0)
        save_positions_csv(ens, tmp_path / "p.csv")
        d = positions.shape[1]
        lines = ["particle_id," + ",".join(f"x{j + 1}" for j in range(d))]
        lines += [",".join(f"{v:.17g}" for v in (i, *row)) for i, row in enumerate(positions)]
        assert (tmp_path / "p.csv").read_text() == "\n".join(lines) + "\n"
