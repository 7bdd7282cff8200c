"""Exact verification of root-system combinatorics, character identities and
polynomial Frobenius splittings for cotangent bundles of flag varieties."""

from .charalg import (
    Character,
    GoodFiltrationDecomposition,
    GradedCharacter,
    decompose_good_filtration,
    euler_char,
    exterior_power_char,
    g1_cohomology_char,
    graded_section_char,
    koszul_check,
    module_euler,
    sym_power_char,
    sym_power_graded,
    truncated_char,
    weyl_character,
    weyl_dimension,
)
from .errors import FlagsplitError, InputError, InvariantError, ResourceLimitError
from .fpoly import (
    PrimeField,
    SparsePolynomial,
    VariableIdeal,
    frobenius_trace,
    is_prime,
    is_splitting_function,
    load_poly,
    save_poly,
    splits_ideal_compatibly,
)
from .rootdata import (
    ParabolicSubset,
    ReductionTrace,
    Root,
    RootSystem,
    Weight,
    build_root_system,
    parabolic_subset,
    parse_system,
)
from .slnsplit import (
    ChartFunction,
    build_chart_function,
    build_mvk_component,
    build_parabolic_chart_function,
    canonical_check,
    compat_check,
    mvk_component,
    splitting_check,
)

__version__ = "0.1.0"
