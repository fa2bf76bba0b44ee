"""Absorbed Brownian motion in [-N, N]: eigenpair against the closed form.

The principal eigenpair of the half Laplacian with absorbing endpoints is
known exactly: lambda0 = pi^2 / (8 N^2) with eigenfunction cos(pi x / 2N),
and the quasi-stationary density is (pi / 4N) cos(pi x / 2N).  This script
solves the discretized problem and prints the agreement.
"""

import math

import numpy as np

from qsdlab.analytics import closed_form
from qsdlab.grid_measure import build_grid
from qsdlab.potential import zero_potential
from qsdlab.spectral import (
    assemble_generator,
    eigen_residual,
    principal_eigenpair,
    qsd_from_eigen,
)

N = 1.0
n = 3999

grid = build_grid(-N, N, n)
spec = zero_potential(domain=(-N, N))
op = assemble_generator(spec, grid)

eigen = principal_eigenpair(op)
lam0, lam1 = eigen.lambda0, eigen.lambda1
alpha = qsd_from_eigen(op, eigen)

cf = closed_form("brownian_hypercube", N=N, n=n)
exact = cf.constants

print(f"grid: {n} interior nodes on [{-N}, {N}], h = {grid.h:.2e}")
print()
print(f"lambda0   computed {lam0:.10f}   exact {exact['lambda0']:.10f}   "
      f"rel err {abs(lam0 - exact['lambda0']) / exact['lambda0']:.2e}")
print(f"lambda1   computed {lam1:.10f}   exact {exact['lambda1']:.10f}")
gap = lam1 - lam0
print(f"gap       computed {gap:.10f}   exact {exact['gap']:.10f}   "
      f"rel err {abs(gap - exact['gap']) / exact['gap']:.2e}")
print(f"eigen-relation residual: {eigen_residual(op, eigen):.2e}")
print()

eta_exact = (4.0 / math.pi) * np.cos(math.pi * grid.nodes / (2.0 * N))
alpha_exact = (math.pi / (4.0 * N)) * np.cos(math.pi * grid.nodes / (2.0 * N))
print(f"sup |eta - (4/pi) cos(pi x / 2N)|        = {np.max(np.abs(eigen.eta - eta_exact)):.2e}")
print(f"sup |alpha - (pi/4N) cos(pi x / 2N)|     = {np.max(np.abs(alpha.density - alpha_exact)):.2e}")
print()
print("certified curvature rate kappa = (pi/2N)^2 =", f"{exact['kappa']:.6f}")
print("spectral gap (true asymptotic rate)        =", f"{gap:.6f}")
print("the curvature bound is valid but not sharp: kappa < gap")
