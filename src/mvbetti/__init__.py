"""Exact de Rham Betti numbers of hyperplane arrangement complements.

The pipeline runs a relative Mayer-Vietoris spectral sequence on counting
data extracted from the intersection lattice, entirely in exact rational
arithmetic, and cross-checks the result against two independent
combinatorial oracles.  A generic page calculator for bounded double
complexes of rational vector spaces is included.
"""

__version__ = "0.1.0"

from .arrangement import (
    AFFINE,
    PROJECTIVE,
    Arrangement,
    EssentialReduction,
    Hyperplane,
    decone,
    essentialize,
    parse_arrangement,
)
from .betti import (
    BettiReport,
    MVPage,
    compute_betti,
    degeneration_check,
    first_page,
    graded_from_second_page,
    kunneth_shift,
    last_cohomology_dim,
    localized_flat_cohomology,
    punctured_space_cohomology,
    second_page,
)
from .errors import CapExceededError, ConsistencyError, ParseError, ValidationError
from .flats import (
    DEFAULT_CAP,
    Flat,
    FlatCounts,
    IntersectionPoset,
    build_intersection_poset,
    count_flats,
    flat_of_subset,
    is_general_position,
    mobius_betti,
    whitney_betti,
)
from .linalg import LinearSolution, QMatrix, Rational, hstack, kron, solve, vstack
from .spectral import (
    HORIZONTAL,
    VERTICAL,
    Complex,
    DoubleComplex,
    PageTable,
    cohomology_dims,
    pages,
    parse_double_complex,
    tensor_double_complex,
    total_complex,
    verify_convergence,
)
