import numpy as np
import pytest

from qsdlab.grid_measure import GridMeasure, build_grid
from qsdlab.potential import quadratic_potential, shifted_power_potential, zero_potential
from qsdlab.spectral import assemble_generator, principal_eigenpair


class Problem:
    """Assembled operator with its eigen data, shared across tests."""

    def __init__(self, spec, grid):
        self.spec = spec
        self.grid = grid
        self.op = assemble_generator(spec, grid)
        self.eigen = principal_eigenpair(self.op)
        self.lambda0, self.lambda1 = self.eigen.lambda0, self.eigen.lambda1

    @property
    def gap(self):
        return self.lambda1 - self.lambda0


@pytest.fixture(scope="session")
def brownian():
    return Problem(zero_potential(domain=(-1.0, 1.0)), build_grid(-1.0, 1.0, 800))


@pytest.fixture(scope="session")
def ou():
    return Problem(quadratic_potential(1.0), build_grid(0.0, 8.0, 1600))


@pytest.fixture(scope="session")
def delta3():
    return Problem(shifted_power_potential(3.0), build_grid(0.0, 2.5, 1500))


@pytest.fixture()
def uniform_measure():
    def make(grid, lo=None, hi=None):
        lo = grid.x_min if lo is None else lo
        hi = grid.x_max if hi is None else hi
        return GridMeasure(grid, ((grid.nodes >= lo) & (grid.nodes <= hi)).astype(float))

    return make


@pytest.fixture()
def gaussian_measure():
    def make(grid, center, width):
        return GridMeasure(grid, np.exp(-((grid.nodes - center) ** 2) / (2.0 * width**2)))

    return make
