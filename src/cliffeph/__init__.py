"""Symbolic Clifford algebra kernel and EPH plane geometry engine.

The package builds Moebius transformations with Clifford-number matrix
entries for the three planar metrics (elliptic, parabolic, hyperbolic),
samples subgroup orbits and their Cayley-transform images, and checks
the focal properties of the orbits numerically.
"""

from .symexpr import (
    Expr,
    Rational,
    Symbol,
    add,
    as_fraction_value,
    compile_ex,
    cos,
    cosh,
    diff,
    evalf,
    exp,
    is_rational,
    lsolve,
    mul,
    normal,
    pow_,
    rational,
    sin,
    sinh,
    sqrt,
    subs,
    symbol,
    symbols,
    to_str,
    ExprError,
    FreeSymbolError,
    NonLinearError,
    SingularSystemError,
)
from .cliffalg import (
    CliffordError,
    MetricMismatchError,
    MetricSpec,
    Multivector,
    NegativeNormSquareError,
    NonScalarSquareError,
    NotAVectorError,
    NotScalarError,
    ZeroNormError,
    clifford_bar,
    clifford_inverse,
    clifford_norm,
    clifford_prime,
    clifford_star,
    clifford_to_lst,
    clifford_unit,
    clifford_units,
    dirac_ONE,
    lst_to_clifford,
    norm_square,
    remove_dirac_ONE,
)
from .moebius import CMat2, clifford_moebius_map, mat_mul
from .curves import CurveRecord, FIELDS
from .ephgeom import (
    DEFAULT_TUNING,
    MetricKind,
    Subgroup,
    TransformType,
    TuningTables,
    build_families,
    cayley_matrices,
    curvature,
    metric_for,
    sample_arrows,
    sample_future_past,
    sample_orbits,
    sample_transverses,
    subgroup_exp,
    vector_fields,
    verify_k_orbit,
    verify_parabolic_vertices,
)
from .plotcli import JobConfig, cli_main, curve_filename, write_curves
