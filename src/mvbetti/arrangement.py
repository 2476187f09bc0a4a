"""Affine and projective hyperplane arrangements over the rationals.

The `Hyperplane` constructor takes the rational coefficients of
a_1*x_1 + ... + a_n*x_n = c and stores the primitive integer row
(a_1, ..., a_n, c) (`linalg.primitive`: coprime `int`s, the first nonzero
normal coefficient positive), so every hyperplane is canonical and two are
equal iff their rows coincide.  Projective arrangements carry n+1
homogeneous coefficients and a zero constant.  Input fields are read by
`int`, and a `Fraction` is built only for a `p/q` field (`parse_rational`);
`equation_text` writes a row of rationals back out.

The two reductions applied before any Betti computation also live here, and
both are integer row operations: deconing (declaring one hyperplane of a
projective arrangement to be at infinity) restricts every other hyperplane
to the affine chart by `linalg.restrict_rows`, and essentialization
(splitting off the trivial affine factor so that the normals span the
ambient space) keeps the pivot columns of one `linalg.pivot_profile` fold
of the normals.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, ValidationError
from .linalg import integer_row, pivot_profile, primitive, restrict_rows

AFFINE = "affine"
PROJECTIVE = "projective"

# Largest ambient dimension `parse_arrangement` accepts, and the largest total
# dimension `spectral.parse_double_complex` accepts.  Every Betti vector has
# n + 1 entries (with no hyperplanes that vector is the whole answer), and a
# double complex's blocks are written out in full, every entry of every row,
# so input far beyond any real case would exhaust memory instead of failing fast.
MAX_DIMENSION = 1000

# The integer and rational fields of both input formats: optionally signed
# ASCII digits, and that or `integer/positive integer`.  Only a field that
# matches is read, by `int`, so neither what `int` alone also takes
# (underscores, non-ASCII digits) nor what `Fraction`'s string parser takes
# (decimals, and exponents, which it expands digit by digit: 1e10000000)
# gets through.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]*[1-9][0-9]*)?")


def _lines(text: str) -> list:
    """`text` split at each line feed, carriage return and line feed, or carriage return.

    Lines end as `open` reads text: the other breaks of `str.splitlines`
    (vertical tab, form feed, U+001C to U+001E, U+0085, U+2028, U+2029) end
    no line.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def content_lines(text: str):
    """(line number from 1, text) of each line with its `#` comment cut, stripped and not blank.

    Lines end as `_lines` ends them, so the other breaks of `str.splitlines`
    are whitespace inside a line.
    """
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def quoted(text: str) -> str:
    """`text` quoted for an error message: whole up to 40 characters, else its start and length."""
    return repr(text) if len(text) <= 40 else f"{text[:12]!r}... ({len(text)} characters)"


def _past_the_digit_limit(field: str, line: int, column: int | None) -> ParseError:
    """The error for a well-formed field with an integer longer than `int` reads from text.

    It names the digit count and the limit, and echoes only the field's start.
    """
    digits = max(len(part.lstrip("+-")) for part in field.split("/"))
    return ParseError(
        f"{field[:12]!r}... has an integer of {digits} digits, more than "
        f"{sys.get_int_max_str_digits()}, Python's limit for reading an integer from "
        "text (PYTHONINTMAXSTRDIGITS raises it)",
        line=line,
        column=column,
    )


def _read_field(pattern, field: str, message: str, line: int, column: int | None) -> int | Fraction:
    """The value of a field that matches `pattern`, read part by part with `int`.

    A field without `/` gives an `int`, and `p/q` the `Fraction` p/q in
    lowest terms.  A field that does not match gets a ParseError reading
    `message`; a matching one too long to read gets the digit-limit error.
    """
    if pattern.fullmatch(field):
        num, _, den = field.partition("/")
        try:
            return Fraction(int(num), int(den)) if den else int(num)
        except ValueError:  # more digits than `int` converts
            raise _past_the_digit_limit(field, line, column) from None
    raise ParseError(message, line=line, column=column)


def parse_integer(field: str, message: str, line: int, column: int | None = None) -> int:
    """The integer a field spells in ASCII digits, or a ParseError.

    The error reads `message` for a malformed field, and names the digit
    limit for a well-formed one too long to read.
    """
    return _read_field(_INTEGER, field, message, line, column)


def parse_rational(field: str, line: int, column: int | None = None) -> int | Fraction:
    """The rational a field spells, or a ParseError naming its line (and column).

    The field must match `_RATIONAL`, so its parts are read by `int`: an
    integer field gives an `int`, and `p/q` the `Fraction` p/q in lowest
    terms.  A well-formed field too long to read gets the digit-limit error.
    """
    return _read_field(_RATIONAL, field, f"bad rational {quoted(field)}", line, column)


def equation_text(row) -> str:
    """The equation `a_1*x1 + ... + a_n*xn = c` of a row (a_1, ..., a_n, c) of rationals.

    Zero terms are left out and unit coefficients written as a bare sign.
    """
    text = ""
    for i, a in enumerate(row[:-1], start=1):
        if a:
            term = f"x{i}" if abs(a) == 1 else f"{abs(a)}*x{i}"
            if text:
                text += f" {'-' if a < 0 else '+'} {term}"
            else:
                text = f"-{term}" if a < 0 else term
    return f"{text} = {row[-1]}"


@dataclass(frozen=True)
class Hyperplane:
    """The hyperplane a_1*x_1 + ... + a_n*x_n = c, canonical by construction.

    The constructor takes rational (`int` or `Fraction`) coefficients and
    stores the row scaled to integers and made `primitive`, so the scaled,
    sign-flipped and fractional rows (2, -4 | 6), (-1, 2 | -3) and
    (1/2, -1 | 3/2) all give `Hyperplane((1, -2), 3)`.  A zero normal raises
    a ValidationError.
    """

    normal: tuple
    constant: int

    def __post_init__(self):
        row = primitive(integer_row((*self.normal, self.constant)))
        if not any(row[:-1]):
            raise ValidationError("hyperplane has zero normal vector")
        object.__setattr__(self, "normal", row[:-1])
        object.__setattr__(self, "constant", row[-1])

    def equation_row(self) -> tuple:
        """Augmented row (a_1, ..., a_n, c)."""
        return (*self.normal, self.constant)

    def __str__(self):
        return equation_text(self.equation_row())


@dataclass(frozen=True)
class Arrangement:
    ambient_dim: int
    hyperplanes: tuple
    kind: str

    def __post_init__(self):
        if self.kind not in (AFFINE, PROJECTIVE):
            raise ValidationError(f"unknown arrangement kind {self.kind!r}")
        if self.ambient_dim < 1:
            raise ValidationError("ambient dimension must be positive")
        width = self.ambient_dim if self.kind == AFFINE else self.ambient_dim + 1
        seen = {}
        for idx, h in enumerate(self.hyperplanes):
            if len(h.normal) != width:
                raise ValidationError(
                    f"hyperplane {idx} has {len(h.normal)} coefficients, expected {width}"
                )
            if self.kind == PROJECTIVE and h.constant != 0:
                raise ValidationError(f"hyperplane {idx} has nonzero constant in projective input")
            if h in seen:
                raise ValidationError(f"duplicate hyperplane: {idx} repeats {seen[h]} ({h})")
            seen[h] = idx

    @property
    def r(self) -> int:
        return len(self.hyperplanes)


@dataclass(frozen=True)
class EssentialReduction:
    """Essential arrangement of rank s and the dimension it drops.

    With N the r x n normal matrix and J a set of s columns spanning its
    column space, N = N_J T for an s x n matrix T of rank s.  The surjection
    x -> Tx has fibres parallel to ker N, and the input hyperplane N_i x = c_i
    is the preimage of the essential hyperplane (N_J)_i y = c_i, so the input
    complement is the essential complement times an affine space of dimension
    `shift` = n - s.
    """

    essential: Arrangement
    shift: int


def parse_arrangement(text: str) -> Arrangement:
    """Parse the arrangement file format.

    First non-comment line: `affine n` or `projective n`.  Every following
    non-comment line lists one hyperplane as whitespace-separated rationals
    (`parse_rational`: integers or `p/q`, with no decimals or exponents):
    n+1 fields a_1 ... a_n c for affine input, n+1 homogeneous fields for
    projective input.  `#` starts a comment, blank lines are ignored
    (`content_lines`).  n
    (`parse_integer`: optionally signed ASCII digits) must lie between 1 and
    `MAX_DIMENSION`.
    """
    lines = content_lines(text)
    header = next(lines, None)
    if header is None:
        raise ParseError("empty input: no header line found", line=1)
    lineno, line = header
    fields = line.split()
    if len(fields) != 2 or fields[0] not in (AFFINE, PROJECTIVE):
        raise ParseError("expected header `affine n` or `projective n`", line=lineno)
    kind = fields[0]
    dim = parse_integer(fields[1], f"bad dimension {quoted(fields[1])}", lineno, 2)
    if dim < 1:
        raise ParseError("dimension must be positive", line=lineno, column=2)
    if dim > MAX_DIMENSION:
        raise ParseError(
            f"dimension {dim} exceeds the limit {MAX_DIMENSION}", line=lineno, column=2
        )
    first_line = {}
    for lineno, line in lines:
        fields = line.split()
        if len(fields) != dim + 1:
            raise ParseError(
                f"expected {dim + 1} coefficients, got {len(fields)}", line=lineno
            )
        coeffs = [parse_rational(f, lineno, col) for col, f in enumerate(fields, start=1)]
        try:
            h = Hyperplane(coeffs[:-1], coeffs[-1]) if kind == AFFINE else Hyperplane(coeffs, 0)
        except ValidationError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if h in first_line:
            raise ParseError(
                f"duplicate hyperplane (same as line {first_line[h]} after canonicalization)",
                line=lineno,
            )
        first_line[h] = lineno
    return Arrangement(dim, tuple(first_line), kind)


def decone(arr: Arrangement, infinity_index: int) -> Arrangement:
    """Affine arrangement whose complement equals the projective complement.

    The selected hyperplane a.X = 0 becomes the hyperplane at infinity and
    every other one is read in the affine chart a.X = 1: the homogeneous row
    (b, 0) restricted to (a, 1) (one `linalg.restrict_rows` call for all the
    rows), which is the integer form of the normal b - (b_j/a_j) a without
    column j and the constant -b_j/a_j.
    The eliminated homogeneous coordinate j is the largest-index one with a
    nonzero coefficient in a, which makes the construction deterministic;
    downstream Betti numbers do not depend on the choice.  A restricted
    normal is zero only if b is a multiple of a, which two distinct
    hyperplanes are not.
    """
    if arr.kind != PROJECTIVE:
        raise ValidationError("decone applies to projective arrangements")
    if not 0 <= infinity_index < arr.r:
        raise ValidationError(
            f"infinity index {infinity_index} out of range for {arr.r} hyperplanes"
        )
    n = arr.ambient_dim
    chart = arr.hyperplanes[infinity_index].normal + (1,)
    j_star = max(j for j in range(n + 1) if chart[j])
    others = (h.equation_row() for idx, h in enumerate(arr.hyperplanes) if idx != infinity_index)
    out = tuple(Hyperplane(row[:-1], row[-1]) for row in restrict_rows(others, chart, j_star))
    return Arrangement(n, out, AFFINE)


def _affine_chart(arr: Arrangement, infinity_index: int | None) -> Arrangement:
    """Projective input deconed (by default at its last hyperplane); affine input as is."""
    if arr.kind == PROJECTIVE:
        if not arr.r:
            raise ValidationError("projective input needs a hyperplane to put at infinity")
        return decone(arr, arr.r - 1 if infinity_index is None else infinity_index)
    if infinity_index is not None:
        raise ValidationError("infinity index only applies to projective input")
    return arr


def essentialize(arr: Arrangement) -> EssentialReduction:
    """Split off the trivial affine factor of an affine arrangement.

    One `linalg.pivot_profile` fold of the integer normals gives the rank s
    of the normal matrix N and its pivot columns J.  Those columns are a
    basis of the column space of N, so every hyperplane's row restricted to
    them and the constant defines the essential arrangement in affine
    s-space; see `EssentialReduction`.  A restricted
    normal is never zero, since N_i = (N_J)_i T, and two restricted
    hyperplanes coincide only if the inputs did.  An essential arrangement
    keeps every column and is returned as it is.
    """
    if arr.kind != AFFINE:
        raise ValidationError("essentialize applies to affine arrangements")
    normals = ([(j, x) for j, x in enumerate(h.normal) if x] for h in arr.hyperplanes)
    pivots = sorted(q for q in pivot_profile(normals, arr.ambient_dim) if q is not None)
    s = len(pivots)
    if s == 0:
        raise ValidationError("cannot essentialize an arrangement with no hyperplanes (rank 0)")
    if s == arr.ambient_dim:
        return EssentialReduction(arr, 0)
    out = tuple(Hyperplane([h.normal[j] for j in pivots], h.constant) for h in arr.hyperplanes)
    return EssentialReduction(Arrangement(s, out, AFFINE), arr.ambient_dim - s)
