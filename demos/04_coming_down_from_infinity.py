"""Improved convergence rate for a process coming down from infinity.

For V(x) = (x+1)^3 on (0, inf) the absorbed diffusion comes down from
infinity.  The classical curvature bound gives inf V'' = 6; the improved rate
adds 8 lambda0 exp(-V) (and, with positive drift, a further square term) and
can use the comparison lower bound lambda0 >= 1 instead of the exact
eigenvalue.  The eigenfunction also satisfies a kernel identity in natural
scale, used here as an independent self-check of the computed eigenpair.
"""

import numpy as np

from qsdlab.analytics import ReportConfig, decay_report
from qsdlab.grid_measure import GridMeasure, build_grid
from qsdlab.potential import be_constant, cdfi_rate, evaluate, shifted_power_potential
from qsdlab.spectral import assemble_generator, integral_identity_residual, principal_eigenpair

spec = shifted_power_potential(3.0)
grid = build_grid(0.0, 2.5, 2000)
op = assemble_generator(spec, grid)
eigen = principal_eigenpair(op)
lam0, lam1 = eigen.lambda0, eigen.lambda1

print(f"V(x) = (x+1)^3 on (0, {grid.x_max}), {grid.n} nodes")
print(f"lambda0 = {lam0:.6f} (comparison lower bound: 1), gap = {lam1 - lam0:.6f}")
print()

vpp = np.asarray(evaluate(spec, grid.nodes)[2])
print(f"classical curvature rate  inf V''            = {be_constant(vpp):.4f}")
basic = cdfi_rate(spec, 1.0, grid)
refined, at = cdfi_rate(spec, 1.0, grid, use_drift_form=True, full_output=True)
print(f"improved rate (lambda0 lower bound 1), basic   = {basic:.4f}")
print(f"improved rate with the drift square term       = {refined:.4f} (minimizer x = {at:.3f})")
print()

res = integral_identity_residual(eigen, spec, grid)
print("kernel identity eta(x) = 2 lambda0 int (s(x)^s(y)) eta dgamma,")
print("with s the scale function int_0^x exp(V):")
print(f"  sup residual / ||eta||      = {res.kernel:.2e}")
print(f"  first-derivative identity   = {res.first_derivative:.2e}")
print(f"  divergence-form identity    = {res.second_derivative:.2e}")
print("residual under domain extension (truncation-tail dominated):")
for x_max in (1.0, 1.5, 2.0):
    g = build_grid(0.0, x_max, int(1000 * x_max))
    e = principal_eigenpair(assemble_generator(spec, g))
    r = integral_identity_residual(e, spec, g)
    print(f"  x_max = {x_max}: kernel residual = {r.kernel:.2e}")
print()

mu = GridMeasure(grid, np.exp(-((grid.nodes - 0.8) ** 2) / (2 * 0.25**2)))
report = decay_report(ReportConfig(
    label="cdfi", spec=spec, grid=grid, initial=mu,
    times=np.linspace(0.0, 0.6, 41), cdfi=True, lambda0_lower=1.0,
))
print(f"fitted chi2 decay rate = {report.fitted_rate_chi2:.4f}")
print(f"rate ordering: inf V'' = {report.kappa:.3f} <= kappa~ = {report.kappa_tilde:.3f} "
      f"<= gap = {report.gap:.3f} <= fitted {report.fitted_rate_chi2:.3f} (up to fit noise)")
