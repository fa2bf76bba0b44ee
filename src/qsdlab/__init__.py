"""Numerical laboratory for quasi-stationary distributions of absorbed diffusions."""

from .grid_measure import (
    Grid1D,
    GridMeasure,
    ProductGridMeasure,
    build_grid,
    chi2_divergence,
    entropy,
    quadrature,
    regrid,
    tilt,
    tv_distance,
    w1_distance,
    weighted_tv,
)
from .potential import (
    PotentialSpec,
    be_constant,
    cdfi_rate,
    effective_second_derivative,
    evaluate,
    quadratic_potential,
    shifted_power_potential,
    tabulated_potential,
    zero_potential,
)
from .spectral import (
    EigenPair,
    ProductEigenPair,
    TridiagonalOperator,
    assemble_generator,
    integral_identity_residual,
    principal_eigenpair,
    qsd_from_eigen,
    tensor_eigen,
)
from .doob import (
    FlowState,
    checkpoint_residual,
    doob_generator,
    flow_curve,
    flow_exponential,
)
from .montecarlo import (
    ParticleEnsemble,
    SimConfig,
    conditioned_empirical,
    estimate_lambda0,
    simulate,
)
from .analytics import (
    DecayReport,
    ReportConfig,
    bound_constants,
    burn_in_time,
    closed_form,
    decay_report,
    fit_decay_rate,
)

__version__ = "0.1.0"
