"""Named and random arrangements, and random complexes, for tests and experiments.

The named families with closed forms (Orlik and Terao, 1992) come as
arrangement text from `boolean_arrangement_text` and
`difference_arrangement_text`: Boolean, braid, Shi, Catalan, Linial, D_n and
B_n.  All random generators take an explicit `random.Random` so runs are
reproducible.  Random bounded complexes are built on integer rows so the
squared differential vanishes by construction: each map factors through the
left kernel of its predecessor.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .arrangement import AFFINE, PROJECTIVE, Arrangement, Hyperplane
from .flats import is_general_position
from .linalg import QMatrix, echelon_insert, integer_kernel_basis
from .spectral import Complex

# Fixed ranges of the generated values; tests/test_generate.py pins them by digest.
MAX_DEN = 3
PROJECTIVE_BOUND = 4
GENERAL_POSITION_BOUND = 30
# Draws `random_general_position_arrangement` makes before it gives up.
GENERAL_POSITION_TRIES = 100
MATRIX_BOUND = 2
START_RANGE = 2


def boolean_arrangement_text(n: int) -> str:
    """The coordinate hyperplanes x_i = 0: `difference_arrangement_text` with no differences."""
    return difference_arrangement_text(n, (), (), coordinates=True)


def difference_arrangement_text(n: int, signs, constants, coordinates: bool = False) -> str:
    """x_i + s x_j = c for i < j, s in `signs`, c in `constants`; x_i = 0 too if `coordinates`.

    Signs (-1,) give the braid (constants (0,)), Shi ((0, 1)) and Catalan
    ((-1, 0, 1)) arrangements, signs (-1, 1) with constant 0 the Coxeter
    arrangement D_n, and B_n with the coordinate hyperplanes added.
    """

    def unit(i):
        return ["1" if k == i else "0" for k in range(n)]

    lines = [f"affine {n}"]
    if coordinates:
        lines += [" ".join(unit(i)) + " 0" for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for s in signs:
                coeffs = unit(i)
                coeffs[j] = str(s)
                lines += [" ".join(coeffs) + f" {c}" for c in constants]
    return "\n".join(lines) + "\n"


def random_fraction(rng: Random, bound: int = 4) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, MAX_DEN))


def _random_normal(rng: Random, n: int, bound: int) -> list:
    while True:
        normal = [random_fraction(rng, bound) for _ in range(n)]
        if any(normal):
            return normal


def _distinct(r: int, draw) -> tuple:
    """The first r distinct hyperplanes of repeated `draw(distinct ones so far)` calls."""
    found = {}  # a dict keeps each key where it was first inserted
    while len(found) < r:
        found[draw(list(found))] = None
    return tuple(found)


def random_affine_arrangement(
    rng: Random,
    n: int,
    r: int,
    *,
    parallel: float = 0.25,
    central: float = 0.25,
    bound: int = 4,
) -> Arrangement:
    """Mix of parallel, central (through the origin) and generic hyperplanes."""

    def draw(hyperplanes):
        if hyperplanes and rng.random() < parallel:
            base = rng.choice(hyperplanes)
            return Hyperplane(base.normal, random_fraction(rng, bound))
        normal = _random_normal(rng, n, bound)
        constant = 0 if rng.random() < central else random_fraction(rng, bound)
        return Hyperplane(normal, constant)

    return Arrangement(n, _distinct(r, draw), AFFINE)


def random_projective_arrangement(rng: Random, n: int, r: int) -> Arrangement:
    def draw(_):
        return Hyperplane(_random_normal(rng, n + 1, PROJECTIVE_BOUND), 0)

    return Arrangement(n, _distinct(r, draw), PROJECTIVE)


def random_general_position_arrangement(rng: Random, n: int, r: int) -> Arrangement:
    """Random arrangement retried until verified to be in general position.

    Almost every draw is in general position, so running out of tries means
    that the check is at fault, and raises a RuntimeError.
    """
    for _ in range(GENERAL_POSITION_TRIES):
        arr = random_affine_arrangement(
            rng, n, r, parallel=0.0, central=0.0, bound=GENERAL_POSITION_BOUND
        )
        if is_general_position(arr):
            return arr
    raise RuntimeError(
        f"no arrangement of {r} hyperplanes in affine {n}-space passed "
        f"is_general_position in {GENERAL_POSITION_TRIES} tries"
    )


def _random_rows(rng: Random, rows: int, cols: int) -> list:
    return [[rng.randint(-MATRIX_BOUND, MATRIX_BOUND) for _ in range(cols)] for _ in range(rows)]


def random_complex(rng: Random, *, max_terms: int = 5, max_dim: int = 4) -> Complex:
    """Bounded complex with d o d = 0: each map factors over the previous left kernel.

    Each map is drawn as integer rows, and every later one is a draw times
    an integer basis of the previous map's left kernel (`integer_kernel_basis`
    of the `echelon_insert` rows of its columns), over that basis's scale.
    """
    length = rng.randint(1, max_terms)
    start = rng.randint(-START_RANGE, START_RANGE)
    dims = [rng.randint(1, max_dim) for _ in range(length)]
    degrees = list(range(start, start + length))
    diff = {}
    prev = None
    for k in range(length - 1):
        src, tgt = dims[k], dims[k + 1]
        scale = 1
        if prev is None:
            d = _random_rows(rng, tgt, src)
        else:
            # The rows of `left` span the left kernel of prev: left @ prev = 0.
            rows = pivots = ()
            for column in zip(*prev):
                step = echelon_insert(rows, pivots, column)
                if step is not None:
                    rows, pivots, _ = step
            scale, left = integer_kernel_basis(rows, pivots, len(prev))
            d = [
                [sum([x * w[j] for x, w in zip(row, left)]) for j in range(src)]
                for row in _random_rows(rng, tgt, len(left))
            ]
        diff[degrees[k]] = QMatrix.from_integers(tgt, src, [x for row in d for x in row], scale)
        prev = d
    return Complex(dict(zip(degrees, dims)), diff)
