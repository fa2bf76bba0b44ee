"""Absorbed Ornstein-Uhlenbeck process on (0, inf): eigenpair and curvature.

With the quadratic potential V(x) = lam x^2 the process absorbed at 0 has the
explicit eigenfunction proportional to x with eigenvalue lam, and the
quasi-stationary density 2 lam x exp(-lam x^2).  The effective potential
W = V - 2 log(eta) has W'' = 2 lam + 2 / x^2, so the curvature constant
2 lam certifies the convergence rate (and here it equals the spectral gap).
"""

import math

import numpy as np

from qsdlab.grid_measure import build_grid
from qsdlab.potential import be_constant, effective_second_derivative, quadratic_potential
from qsdlab.spectral import assemble_generator, principal_eigenpair, qsd_from_eigen

lam = 1.0
grid = build_grid(0.0, 8.0, 7999)
spec = quadratic_potential(lam)
op = assemble_generator(spec, grid)

eigen = principal_eigenpair(op)
lam0, lam1 = eigen.lambda0, eigen.lambda1
alpha = qsd_from_eigen(op, eigen)

print(f"domain truncated at x_max = 8 (gamma tail below 1e-26); {grid.n} nodes")
print()
print(f"lambda0 = {lam0:.10f}   (exact: lam = {lam})")
print(f"lambda1 = {lam1:.10f}   (exact: 3 lam = {3 * lam})")
print(f"gap     = {lam1 - lam0:.10f}   (exact: 2 lam = {2 * lam})")
print()

c = 2.0 * math.sqrt(lam / math.pi)  # slope that makes alpha(eta) = 1
keep = (grid.nodes >= 0.1) & (grid.nodes <= 4.0)
rel = np.max(np.abs(eigen.eta[keep] / (c * grid.nodes[keep]) - 1.0))
print(f"eta is proportional to x: max rel deviation on [0.1, 4] = {rel:.2e}")

alpha_exact = 2.0 * lam * grid.nodes * np.exp(-lam * grid.nodes**2)
print(f"sup |alpha - 2 lam x exp(-lam x^2)| = {np.max(np.abs(alpha.density - alpha_exact)):.2e}")
print()

w2 = effective_second_derivative(spec, eigen, grid)
mid = (grid.nodes > 0.5) & (grid.nodes < 5.0)
w2_exact = 2.0 * lam + 2.0 / grid.nodes[mid] ** 2
print(f"W'' matches 2 lam + 2/x^2: max rel err (x in [0.5, 5]) = "
      f"{np.max(np.abs(w2[mid] - w2_exact) / w2_exact):.2e}")
print(f"curvature constant inf W'' = {be_constant(w2):.6f}  (certifies kappa = 2 lam = {2 * lam})")
print(f"here the certified rate equals the gap: 2 lam = {lam1 - lam0:.6f}")
