"""modlab: a numerical laboratory for the p-modulus of curve families,
vector-valued L^p and Sobolev norms, the Sobolev-Reshetnyak comparison, and
the Radon-Nikodym dichotomy witness."""

from .errors import (
    DegenerateCurveError,
    DomainError,
    ModlabError,
    ScheduleError,
)
from .geometry import (
    CurveFamily,
    Grid,
    Polyline,
    ScalarField,
    cell_length_rows,
    cell_lengths,
    curve_integral,
    curve_integrals,
    cut,
    load_family,
    load_polyline_csv,
    restrict,
    save_family,
    save_polyline_csv,
)
from .modulus import (
    ModulusProblem,
    ModulusResult,
    analytic_parallel_segments,
    assemble_problem,
    chebyshev_modulus_bound,
    fuglede_schedule,
    solve_modulus,
)
from .report import Report, __version__
from .reshetnyak import (
    UpperBoundField,
    ac_bound_check,
    norm_equivalence_check,
    r_norm,
    upper_gradient_star,
)
from .rnp_lab import (
    dichotomy_report,
    lipschitz_certificate,
    noncauchy_gap,
    sin_family,
)
from .sobolev import (
    TestFunction,
    finite_diff_gradient,
    ftc_along_curve_check,
    gradient_length,
    w_norm,
    weak_derivative_check,
)
from .vectorvalues import (
    NormTag,
    VectorField,
    lp_norm,
    scalar_lp_norm,
    value_norm,
)
