import math

import numpy as np
import pytest

from qsdlab.grid_measure import (
    GridMeasure,
    ProductGridMeasure,
    build_grid,
    chi2_divergence,
    extrapolated_boundary,
    load_measure_csv,
    quadrature,
    regrid,
    save_measure_csv,
    tilt,
    tv_distance,
    w1_distance,
)


def random_measure(grid, rng):
    return GridMeasure(grid, rng.uniform(0.05, 1.0, grid.n))


class TestBuildGrid:
    def test_small_grid_layout(self):
        g = build_grid(-1.0, 1.0, 3)
        assert g.h == 0.5
        np.testing.assert_allclose(g.nodes, [-0.5, 0.0, 0.5], atol=1e-15)

    def test_fine_grid_layout(self):
        g = build_grid(0.0, 8.0, 7999)
        assert g.n == 7999
        assert math.isclose(g.h, 0.001)
        assert math.isclose(g.nodes[0], 0.001)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            build_grid(1.0, 1.0, 10)

    def test_rejects_small_and_nonfinite(self):
        with pytest.raises(ValueError):
            build_grid(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            build_grid(0.0, math.inf, 10)


class TestQuadrature:
    def test_constant_with_zero_boundary_extension(self):
        g = build_grid(-1.0, 1.0, 1999)
        val = quadrature(np.ones(g.n), g)
        assert math.isclose(val, 2.0 - g.h, rel_tol=0, abs_tol=1e-14)

    def test_normalized_measure_has_unit_mass(self):
        g = build_grid(0.0, 3.0, 57)
        mu = GridMeasure(g, np.random.default_rng(0).uniform(0.1, 2.0, g.n))
        assert abs(quadrature(mu.density, g) - 1.0) <= 1e-12

    def test_cosine_integral(self):
        # int_{-1}^{1} cos(pi x / 2) dx = 4 / pi by the antiderivative
        g = build_grid(-1.0, 1.0, 3999)
        val = quadrature(np.cos(math.pi * g.nodes / 2.0), g)
        assert abs(val - 4.0 / math.pi) < 1e-6

    def test_length_mismatch(self):
        g = build_grid(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            quadrature(np.ones(9), g)

    def test_explicit_boundary_values(self):
        g = build_grid(0.0, 1.0, 99)
        vals = np.ones(g.n)
        exact = quadrature(vals, g, boundary=(1.0, 1.0))
        assert math.isclose(exact, 1.0, abs_tol=1e-14)
        left, right = extrapolated_boundary(vals)
        assert left == 1.0 and right == 1.0


class TestTilt:
    def test_identity_tilt(self):
        g = build_grid(0.0, 1.0, 20)
        mu = random_measure(g, np.random.default_rng(1))
        out = tilt(np.ones(g.n), mu)
        np.testing.assert_allclose(out.density, mu.density, rtol=1e-14)

    def test_composition_law(self):
        g = build_grid(0.0, 1.0, 30)
        rng = np.random.default_rng(2)
        mu = random_measure(g, rng)
        f = rng.uniform(0.1, 2.0, g.n)
        gfun = rng.uniform(0.1, 2.0, g.n)
        lhs = tilt(f, tilt(gfun, mu))
        rhs = tilt(f * gfun, mu)
        np.testing.assert_allclose(lhs.density, rhs.density, rtol=1e-12)

    def test_unit_mass(self):
        g = build_grid(0.0, 1.0, 25)
        rng = np.random.default_rng(3)
        mu = random_measure(g, rng)
        out = tilt(rng.uniform(0.0, 1.0, g.n), mu)
        assert abs(quadrature(out.density, g) - 1.0) <= 1e-12

    def test_brownian_qsd_from_tilting_the_flat_measure(self):
        # eta-tilt of the normalized flat measure gives the cosine QSD profile
        g = build_grid(-1.0, 1.0, 2000)
        flat = GridMeasure(g, np.ones(g.n))
        eta = (4.0 / math.pi) * np.cos(math.pi * g.nodes / 2.0)
        alpha = tilt(eta, flat)
        expected = (math.pi / 4.0) * np.cos(math.pi * g.nodes / 2.0)
        assert np.max(np.abs(alpha.density - expected)) < 1e-4

    def test_zero_mass_rejected(self):
        g = build_grid(0.0, 1.0, 10)
        mu = random_measure(g, np.random.default_rng(4))
        with pytest.raises(ValueError):
            tilt(np.zeros(g.n), mu)


class TestTotalVariation:
    def test_identical_measures(self):
        g = build_grid(0.0, 1.0, 12)
        mu = random_measure(g, np.random.default_rng(5))
        assert tv_distance(mu, mu) == 0.0

    def test_disjoint_supports_give_two(self):
        g = build_grid(0.0, 1.0, 40)
        left = np.where(g.nodes < 0.5, 1.0, 0.0)
        right = np.where(g.nodes > 0.5, 1.0, 0.0)
        val = tv_distance(GridMeasure(g, left), GridMeasure(g, right))
        assert math.isclose(val, 2.0, abs_tol=1e-12)

    def test_hand_summed_step_densities(self):
        g = build_grid(0.0, 1.0, 4)
        p = GridMeasure(g, np.array([1.875, 1.875, 0.625, 0.625]))
        q = GridMeasure(g, np.array([1.25, 1.25, 1.25, 1.25]))
        # h * sum |p - q| = 0.2 * 4 * 0.625
        assert math.isclose(tv_distance(p, q), 0.5, abs_tol=1e-14)

    def test_metric_properties_on_random_triples(self):
        g = build_grid(-2.0, 1.0, 31)
        rng = np.random.default_rng(6)
        for _ in range(25):
            a, b, c = (random_measure(g, rng) for _ in range(3))
            assert tv_distance(a, b) == pytest.approx(tv_distance(b, a), abs=1e-15)
            assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12
            assert tv_distance(a, b) >= 0.0

    def test_grid_mismatch(self):
        rng = np.random.default_rng(7)
        mu = random_measure(build_grid(0.0, 1.0, 10), rng)
        nu = random_measure(build_grid(0.0, 2.0, 10), rng)
        with pytest.raises(ValueError):
            tv_distance(mu, nu)


class TestWasserstein:
    def test_point_masses_cost_their_distance(self):
        g = build_grid(0.0, 1.0, 99)
        a, b = 20, 70
        da = np.zeros(g.n)
        da[a] = 1.0
        db = np.zeros(g.n)
        db[b] = 1.0
        val = w1_distance(GridMeasure(g, da), GridMeasure(g, db))
        assert abs(val - (g.nodes[b] - g.nodes[a])) <= g.h

    def test_shifted_uniforms(self):
        g = build_grid(0.0, 1.5, 1499)
        u1 = GridMeasure(g, (g.nodes <= 1.0).astype(float))
        u2 = GridMeasure(g, (g.nodes >= 0.5).astype(float))
        assert abs(w1_distance(u1, u2) - 0.5) <= 2 * g.h

    def test_product_additivity_is_exact(self):
        g1 = build_grid(0.0, 1.0, 64)
        g2 = build_grid(-1.0, 2.0, 48)
        rng = np.random.default_rng(12)
        mu = ProductGridMeasure((random_measure(g1, rng), random_measure(g2, rng)))
        nu = ProductGridMeasure((random_measure(g1, rng), random_measure(g2, rng)))
        total = w1_distance(mu, nu)
        parts = sum(w1_distance(a, b) for a, b in zip(mu.factors, nu.factors))
        assert total == pytest.approx(parts, abs=1e-15)

    def test_w1_bounded_by_half_width_times_tv(self):
        # on a grid inside [-N, N]: W1 <= N * TV in the sup_{|f|<=1} convention
        N = 1.5
        g = build_grid(-N, N, 41)
        rng = np.random.default_rng(13)
        for _ in range(20):
            mu, nu = random_measure(g, rng), random_measure(g, rng)
            assert w1_distance(mu, nu) <= N * tv_distance(mu, nu) * (1 + 1e-9) + 1e-12

    def test_shape_mismatch(self):
        g = build_grid(0.0, 1.0, 10)
        rng = np.random.default_rng(14)
        mu = random_measure(g, rng)
        prod = ProductGridMeasure((mu,))
        with pytest.raises(ValueError):
            w1_distance(mu, prod)


class TestChiSquare:
    def test_identical_measures(self):
        g = build_grid(0.0, 1.0, 16)
        mu = random_measure(g, np.random.default_rng(15))
        assert chi2_divergence(mu, mu) == 0.0

    def test_two_cell_hand_value(self):
        # masses (0.75, 0.25) against (0.5, 0.5) on equal cells: chi2^2 = 0.25
        g = build_grid(0.0, 1.0, 4)
        mu = GridMeasure(g, np.array([1.875, 1.875, 0.625, 0.625]))
        nu = GridMeasure(g, np.array([1.25, 1.25, 1.25, 1.25]))
        assert math.isclose(chi2_divergence(mu, nu), 0.5, abs_tol=1e-14)

    def test_support_escape_gives_infinity(self):
        g = build_grid(0.0, 1.0, 30)
        inner = np.where((g.nodes > 0.3) & (g.nodes < 0.7), 1.0, 0.0)
        full = np.ones(g.n)
        assert chi2_divergence(GridMeasure(g, full), GridMeasure(g, inner)) == math.inf
        assert chi2_divergence(GridMeasure(g, inner), GridMeasure(g, full)) < math.inf

    def test_square_matches_cell_sum_on_small_grids(self):
        rng = np.random.default_rng(16)
        for n in (4, 6, 8):
            g = build_grid(0.0, 1.0, n)
            mu, nu = random_measure(g, rng), random_measure(g, rng)
            brute = sum(
                g.h * q * (p / q - 1.0) ** 2
                for p, q in zip(mu.density, nu.density)
            )
            assert chi2_divergence(mu, nu) ** 2 == pytest.approx(brute, abs=1e-12)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        g = build_grid(-0.5, 2.5, 57)
        mu = random_measure(g, np.random.default_rng(19))
        path = tmp_path / "measure.csv"
        save_measure_csv(mu, path)
        again = load_measure_csv(path)
        assert again.grid == g
        np.testing.assert_allclose(again.density, mu.density, rtol=0, atol=1e-16)

    @pytest.mark.parametrize("lo, hi, n", [
        (-1.0, 1.0, 50), (-1.0, 1.0, 400), (-1.0, 1.0, 1000), (0.0, 8.0, 400), (0.0, 2.5, 200),
        (-2.0, 2.0, 50), (-2.0, 2.0, 400), (-2.0, 2.0, 1000), (0.0, 1.0, 400),
    ])
    def test_loaded_measure_lives_on_the_saved_grid(self, tmp_path, lo, hi, n):
        # the ends rebuilt from the nodes come out an ulp off on these grids;
        # the saved nodes come back exactly, and they identify the grid
        g = build_grid(lo, hi, n)
        mu = GridMeasure(g, np.exp(-((g.nodes - 0.3 * hi) ** 2)))
        path = tmp_path / "measure.csv"
        save_measure_csv(mu, path)
        again = load_measure_csv(path)
        assert again.grid == g and hash(again.grid) == hash(g)
        np.testing.assert_array_equal(again.grid.nodes, g.nodes)
        assert tv_distance(again, mu) <= 4 * np.finfo(float).eps  # renormalization roundoff

    def test_header_and_digits(self, tmp_path):
        g = build_grid(0.0, 1.0, 5)
        mu = GridMeasure(g, np.full(5, 1.0 / (5 * g.h)))
        path = tmp_path / "m.csv"
        save_measure_csv(mu, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,density"
        assert len(lines) == 6


class TestRegrid:
    def test_matches_exact_cell_masses(self):
        fine = build_grid(-1.0, 1.0, 2000)
        coarse = build_grid(-1.0, 1.0, 20)
        mu = GridMeasure(fine, np.cos(math.pi * fine.nodes / 2.0))
        projected = regrid(mu, coarse)
        edges = np.concatenate((
            [coarse.x_min], coarse.nodes[:-1] + 0.5 * coarse.h, [coarse.x_max],
        ))
        # cell masses of the normalized density (pi/4) cos(pi x / 2)
        cdf = 0.5 * (np.sin(math.pi * edges / 2.0) + 1.0)
        expected = np.diff(cdf) / coarse.h
        assert np.max(np.abs(projected.density - expected)) < 1e-4


def _unit_grid(n=5):
    return build_grid(0.0, 1.0, n)


def _unit_measure(n=5):
    return GridMeasure(_unit_grid(n), np.ones(n))


def _write_nodes(tmp_path, xs):
    path = tmp_path / "m.csv"
    path.write_text("x,density\n" + "".join(f"{x!r},1.0\n" for x in xs))
    return path


@pytest.mark.parametrize("call, error, message", [
    (lambda _: GridMeasure(_unit_grid(), np.ones(4)), ValueError, r"density has shape \(4,\), expected \(5,\)"),
    (lambda _: GridMeasure(_unit_grid(), [1.0, np.inf, 1.0, 1.0, 1.0]), ValueError,
     "density values must be finite"),
    (lambda _: GridMeasure(_unit_grid(), [1.0, -0.5, 1.0, 1.0, 1.0]), ValueError,
     "density values must be nonnegative"),
    (lambda _: ProductGridMeasure(()), ValueError, "product measure needs at least one factor"),
    (lambda _: ProductGridMeasure((_unit_measure(), np.ones(5))), TypeError,
     "all factors must be GridMeasure instances"),
    (lambda _: tilt(np.ones(4), _unit_measure()), ValueError, r"expected 5 values, got shape \(4,\)"),
    (lambda _: tilt([1.0, -1.0, 1.0, 1.0, 1.0], _unit_measure()), ValueError,
     "tilt function must be nonnegative"),
    (lambda _: w1_distance(ProductGridMeasure((_unit_measure(),)), _unit_measure()), ValueError,
     "cannot mix plain and product measures"),
    (lambda _: w1_distance(ProductGridMeasure((_unit_measure(),)),
                           ProductGridMeasure((_unit_measure(), _unit_measure()))), ValueError,
     "dimension mismatch: 1 vs 2"),
    (lambda tmp: load_measure_csv(_write_nodes(tmp, [0.25, 0.5])), ValueError,
     "measure CSV needs at least 3 rows"),
    (lambda tmp: load_measure_csv(_write_nodes(tmp, [0.1, 0.2, 0.4, 0.5])), ValueError,
     "nodes in CSV are not a uniform interior-node grid"),
], ids=["density-shape", "density-non-finite", "density-negative", "no-factor", "factor-type",
        "tilt-shape", "tilt-sign", "w1-mixed", "w1-dimensions", "csv-rows", "csv-nodes"])
def test_input_checks(tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path)
