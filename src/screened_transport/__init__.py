"""Numerical laboratory for nonlocal active scalar transport with a screened
Riesz velocity.

The package provides: periodic grids and spectral field operations; three
independent evaluators of the screened Riesz transform (Fourier multiplier,
free-space principal-value quadrature, exact radial reduction); a
pseudo-spectral solver for the full equation and a method-of-characteristics
solver for its radial reduction; blow-up diagnostics built on a weighted
integral functional with an explicit Riccati rate; and numerical
certification of the transform's pointwise and bilinear lower bounds.
"""

__version__ = "0.1.0"

from .fields import (
    Grid,
    Params,
    RadialProfile,
    ScalarField,
    VectorField,
    bump_profile,
    evaluate_at,
    fractional_laplacian,
    gradient,
    load_field,
    make_grid,
    max_gradient,
    sample_radial,
    save_field,
    sobolev_norm,
)
from .transform import (
    LimitReport,
    conjugate_poisson,
    limit_report,
    radial_velocity,
    riesz,
    screened_riesz,
    screened_riesz_direct,
    screened_riesz_divergence,
)
from .blowup import (
    BlowupConfig,
    DiagnosticsSeries,
    blowup_functional,
    predict_blowup_time,
    riccati_check,
    riccati_rate,
    structural_checks,
)
from .radial import (
    RadialRunResult,
    RadialState,
    derivative_along_flow,
    radial_rhs,
    run_radial,
)
from .ndsolver import (
    NdRunResult,
    NdState,
    bkm_partial_integral,
    rhs,
    run_nd,
    step_rk4,
)
from .inequalities import (
    CertificateReport,
    TestFunctionFamily,
    certify_bilinear,
    certify_pointwise,
    young_split,
)
from .kernels import bilinear_constant, screening_weight
from .rk4 import Stop
from .config import ConfigError, ExperimentConfig, parse_config

__all__ = [name for name in dir() if not name.startswith("_")]
