"""Exact de Rham Betti numbers of hyperplane arrangement complements.

The pipeline runs a relative Mayer-Vietoris spectral sequence on counting
data extracted from the intersection lattice, whose flats are found by exact
fraction-free integer elimination, and cross-checks the result against two
combinatorial oracles read off one intersection-poset sweep.  A generic page
calculator for bounded double complexes of rational vector spaces is included.

The names below are the documented library API; everything else is
imported from its submodule.
"""

__version__ = "0.1.0"

from .arrangement import parse_arrangement
from .betti import compute_betti
from .errors import CapExceededError, ConsistencyError, ParseError, ValidationError
from .flats import (
    Flat,
    build_intersection_poset,
    count_flats,
    is_general_position,
    mobius_betti,
    whitney_betti,
)
from .linalg import QMatrix
from .spectral import (
    HORIZONTAL,
    VERTICAL,
    Complex,
    DoubleComplex,
    cohomology_dims,
    pages,
    parse_double_complex,
    tensor_double_complex,
    total_complex,
    verify_convergence,
)
