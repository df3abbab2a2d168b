"""Exact first-order neighbour calculus for finitely presented algebras.

Everything is computed exactly over Q, Z, or Z/m: polynomial normal forms,
the neighbour relation between algebra maps, universal simplex algebras,
affine combinations of mutually neighbouring maps, zero-anchored difference
matrices, and a self-checking verification suite.
"""

__version__ = "0.1.0"

from .arith import QQ, RingSpec, ZZ
from .errors import (
    ArityMismatch,
    CoefficientsNotAffine,
    CompositionMismatch,
    DegreeGuardExceeded,
    DomainMismatch,
    IllDefinedMap,
    InvalidArgument,
    InvalidExponent,
    InvalidVariableName,
    NbhdError,
    NonFieldCoefficients,
    NotInDtilde,
    NotInKernel,
    NotNeighbours,
    ParentMismatch,
    ParseError,
    ReexpansionFailed,
    RingMismatch,
    ShapeMismatch,
    UninterpretableValue,
    UnknownCheck,
    UnknownFormat,
    UnknownVariable,
    VariableOutOfRange,
    VarSetMismatch,
)
from .poly import (
    DEFAULT_ORDER,
    MonomialOrder,
    Polynomial,
    VarSet,
    format_poly,
    parse_poly,
    parse_poly_list,
)
from .ideal import (
    DEFAULT_DEGREE_CAP,
    GroebnerBasis,
    Ideal,
    buchberger,
    contains,
    reduce_full,
    s_polynomial,
)
from .algebra import (
    AlgebraElement,
    AlgebraMap,
    FpAlgebra,
    UniversalSimplex,
    adjoin_variables,
    classifying_map,
    compose,
    diagonal_ideal,
    free_algebra,
    identity_map,
    multi_diagonal_ideal,
    multiplication_map,
    neighbourhood_of_diagonal,
    pairing_map,
    tensor,
    tensor_power,
    universal_simplex,
)
from .neighbour import (
    CheckResult,
    CoefficientVector,
    SimplexMatrix,
    Witness,
    affine_combination,
    affine_combination_rows,
    affine_combinations,
    canonical_map,
    decompose_difference,
    extend_matrix,
    generic_coefficients,
    in_dtilde,
    is_neighbour,
    is_neighbour_product_form,
    is_simplex,
    is_square_zero_pair,
    maps_of_matrix,
    matrix_of_maps,
    pair_varset,
    rewrite_kernel_element,
    universal_dtilde,
    vectors_neighbour,
)
from .formats import (
    dump_algebra,
    dump_matrix,
    load_algebra,
    load_map,
    load_matrix,
    parse_algebra,
    parse_matrix,
)
from .verify import (
    SuiteConfig,
    VerificationReport,
    build_corpus,
    emit_report,
    fail_injection_flips,
    random_weil_algebra,
    run_suite,
    square_zero_full,
    squares_only,
)

__all__ = [name for name in dir() if not name.startswith("_")]
