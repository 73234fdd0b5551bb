"""Numerical lab for spectral concentration of smoothed projection differences.

The package measures how the eigenvalues of D_eps = psi_eps(H - lam) -
psi_eps(H0 - lam) pile up as the smoothing scale eps shrinks: counts and
traces grow like |log eps| with slopes given by the scattering data of the
pair (H0, H).  Modules: ``matrices`` (dense spectral plumbing), ``profiles``
(smoothed steps), ``density`` (the limiting density and its moments),
``hankel`` (the exactly solvable model kernel), ``models`` (rank-one
scattering model and the power-law control), ``experiments`` (sweeps and
studies), ``cli``/``report`` (driver and rendering).
"""

from .density import BandSet, band_count_slope, delta_m, mu, rhs_integral, sech_moment
from .experiments import (
    ConfigError,
    FitResult,
    ModelSpec,
    ResolutionGuardError,
    SweepConfig,
    SweepResult,
    count_window,
    default_config,
    negative_control_study,
    predicted_window_slope,
    run_sweep,
    slope_fit,
    symmetry_study,
    trace_formula_study,
    universality_study,
)
from .hankel import (
    QuadratureGrid,
    default_grid,
    default_laplace_grid,
    discretize_hankel,
    gauss_legendre_grid,
    geometric_panel_grid,
    hs_log_check,
    k_eps_kernel,
    k_eps_trace_exact,
    k_eps_trace_slopes,
    kernel_from_symbol,
    laplace_section,
)
from .matrices import (
    EigendecompositionError,
    RectMatrix,
    SelfAdjointMatrix,
    SpectralDifference,
    schatten_norm,
    sho_assemble,
    singular_values,
    trace_power,
)
from .models import (
    ExceptionalPointError,
    RankOneModel,
    ResolutionGuardWarning,
    ScatteringPoint,
    negative_control,
)
from .profiles import (
    CutoffProfile,
    ProfileKind,
    ScaledProfile,
    builtin_profile,
    builtin_profile_names,
    scale,
    zeta,
    zeta_eps,
)

__version__ = "0.1.0"
