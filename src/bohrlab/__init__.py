"""bohrlab: verified numerics for Bohr majorants of operator-valued
analytic and polyanalytic functions.

The layers, bottom up:

* opmat   dense complex matrices, spectral norm, adjoint, |A|
* series  truncated matrix power series with certified Bohr enclosures
* zoo     function families (Blaschke, Schur, convex, starlike, layered)
* radii   radius equations with bracketed bisection roots and caps
* harness randomized verification campaigns and report emission
* cli     the bohrlab command line tool
"""

from .opmat import (
    NumericalError,
    abs_op,
    adjoint,
    as_matrix,
    identity,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    op_norms,
)
from .series import (
    DEFAULT_DEGREE,
    Majorant,
    MatrixSeries,
    RInterval,
    add,
    bohr_sum,
    compose,
    constant_series,
    derivative,
    identity_series,
    integrate0,
    majorant,
    mul,
    pad_to,
    scalar_series,
    scale,
    series_from_json,
    series_to_json,
    truncate,
    with_coeff_bound,
    zero_series,
)
from .zoo import (
    BlaschkeSpec,
    CaratheodoryScalar,
    PolyanalyticFn,
    blaschke_series,
    bohr_sum_poly,
    build_polyanalytic,
    convex_model,
    eval_polyanalytic,
    gen_schur_matrix,
    haar_unitary,
    mobius_compose,
    mobius_extremal,
    mobius_transfer,
    polyanalytic_from_json,
    polyanalytic_to_json,
    random_blaschke_spec,
    starlike_from_q,
)
from .radii import (
    FAMILIES,
    FAMILY_TAGS,
    RadiusFamily,
    RootResult,
    convex_sub,
    general_sc,
    half_plane,
    lambda_bound,
    omega_gamma,
    radius_poly_eval,
    root_result_to_json,
    solve_radius,
    starlike_sub,
)
from .harness import (
    CampaignConfig,
    Report,
    SharpnessScan,
    TrialRecord,
    default_grid,
    emit_radius_table,
    run_polyanalytic,
    run_quasi_subordination,
    run_sharpness_scan,
    run_subordination,
    run_von_neumann,
)

__version__ = "0.1.0"
