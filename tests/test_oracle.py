"""Oracle layer tests: finite differences, grid mode search, quadrature."""

import math

import numpy as np
import pytest

from ncx2shape import (
    DomainError,
    Params,
    log_density,
    log_density_d1,
    log_density_d2,
)
from ncx2shape.oracle import GridSpec, adaptive_quadrature, finite_difference, grid_local_maxima


class TestGridSpec:
    def test_log_spacing(self):
        xs = GridSpec(0.1, 10.0, 3, "log").points_array()
        assert np.allclose(xs, [0.1, 1.0, 10.0])

    def test_linear_spacing(self):
        xs = GridSpec(1.0, 3.0, 3, "linear").points_array()
        assert np.allclose(xs, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("kwargs", [
        dict(x_min=0.0, x_max=1.0, points=10),
        dict(x_min=2.0, x_max=1.0, points=10),
        dict(x_min=0.1, x_max=1.0, points=2),
        dict(x_min=0.1, x_max=1.0, points=10, spacing="cubic"),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            GridSpec(**kwargs)


class TestFiniteDifference:
    def test_polynomial_first_derivative(self):
        got = finite_difference(lambda x: x * x, 3.0, 1, 1e-4)
        assert abs(got - 6.0) < 1e-7

    def test_polynomial_higher_orders(self):
        f = lambda x: x ** 3
        assert abs(finite_difference(f, 2.0, 2, 1e-4) - 12.0) < 1e-5
        assert abs(finite_difference(f, 2.0, 3, 1e-2) - 6.0) < 1e-6

    def test_log_density_cross_checks(self):
        p = Params(nu=1, lam=5)
        f = lambda x: log_density(p, x)
        d1 = finite_difference(f, 2.0, 1, 1e-6)
        assert abs(d1 - log_density_d1(p, 2.0)) <= 1e-6 * max(1.0, abs(d1))
        d2 = finite_difference(f, 2.0, 2, 1e-4)
        assert abs(d2 - log_density_d2(p, 2.0)) <= 1e-5 * max(1.0, abs(d2))

    def test_second_order_convergence(self):
        # halving h cuts the truncation error by about 4
        x = 1.2
        exact = math.cos(x)
        e1 = abs(finite_difference(math.sin, x, 1, 1e-3) - exact)
        e2 = abs(finite_difference(math.sin, x, 1, 5e-4) - exact)
        assert 3.0 < e1 / e2 < 5.0

    def test_window_guard(self):
        with pytest.raises(DomainError):
            finite_difference(math.log, 1e-7, 1, 1e-6)
        with pytest.raises(DomainError):
            finite_difference(math.log, 1.5e-6, 3, 1e-6)

    def test_validation(self):
        with pytest.raises(DomainError):
            finite_difference(math.sin, 1.0, 4, 1e-6)
        with pytest.raises(DomainError):
            finite_difference(math.sin, 1.0, 1, 0.0)


class TestGridLocalMaxima:
    GRID = GridSpec(1e-4, 30.0, 20000)

    def test_bimodal(self):
        found = grid_local_maxima(Params(nu=1, lam=5), self.GRID)
        assert found.boundary_maximum
        assert len(found.maxima) == 1
        x, dens = found.maxima[0]
        assert 2.0 < x < 3.0
        assert dens > 0.0

    def test_log_concave(self):
        found = grid_local_maxima(Params(nu=4, lam=5), self.GRID)
        assert not found.boundary_maximum
        assert len(found.maxima) == 1
        assert 6.0 < found.maxima[0][0] <= 7.0

    def test_decreasing(self):
        found = grid_local_maxima(Params(nu=1, lam=1), self.GRID)
        assert found.boundary_maximum
        assert found.maxima == ()


class TestAdaptiveQuadrature:
    def test_normalization(self):
        assert abs(adaptive_quadrature(Params(nu=1, lam=5), 0) - 1.0) < 1e-8

    def test_mean(self):
        assert abs(adaptive_quadrature(Params(nu=1, lam=5), 1) - 6.0) < 1e-6

    def test_singular_endpoint(self):
        assert abs(adaptive_quadrature(Params(nu=0.5, lam=0), 0) - 1.0) < 1e-8

    def test_moment_validation(self):
        with pytest.raises(DomainError):
            adaptive_quadrature(Params(nu=1, lam=1), 2)
