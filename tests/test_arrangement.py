"""Parsing, the canonical hyperplane constructor, deconing and essentialization."""

from fractions import Fraction
from math import gcd, lcm
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvbetti import ParseError, ValidationError, count_flats, parse_arrangement
from mvbetti.arrangement import (
    _RATIONAL,
    AFFINE,
    MAX_DIMENSION,
    PROJECTIVE,
    Arrangement,
    Hyperplane,
    decone,
    essentialize,
    parse_rational,
)
from mvbetti.generate import (
    boolean_arrangement_text,
    random_affine_arrangement,
    random_general_position_arrangement,
    random_projective_arrangement,
)

from helpers import BRAID_A3, from_rows

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=8)


def test_parse_boolean():
    arr = parse_arrangement("affine 2\n1 0 0\n0 1 0\n")
    assert arr.kind == AFFINE
    assert arr.ambient_dim == 2
    assert arr.r == 2
    assert arr.hyperplanes[0].normal == (Fraction(1), Fraction(0))


def test_parse_canonicalizes_scaling():
    arr = parse_arrangement("affine 2\n2 4 6\n")
    h = arr.hyperplanes[0]
    assert h.normal == (Fraction(1), Fraction(2))
    assert h.constant == Fraction(3)


def test_parse_detects_duplicates():
    with pytest.raises(ParseError, match="duplicate"):
        parse_arrangement("affine 2\n1 0 0\n-1 0 0\n")


def test_parse_zero_normal():
    with pytest.raises(ParseError, match="zero normal"):
        parse_arrangement("affine 2\n0 0 5\n")


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_arrangement("affine 2\n# fine\n1 0 0\nbad 0 0\n")
    assert err.value.line == 4
    for header in ("affine 99999999999", f"projective {MAX_DIMENSION + 1}"):
        with pytest.raises(ParseError, match="exceeds the limit") as err:
            parse_arrangement(header + "\n")
        assert err.value.line == 1
    assert parse_arrangement(f"affine {MAX_DIMENSION}\n").ambient_dim == MAX_DIMENSION
    # Integers are ASCII digits only: no underscores, no other scripts' digits.
    for field in ("0_2", "1_0", "\u0662", "\u0661\u0660"):
        with pytest.raises(ParseError, match="bad dimension") as err:
            parse_arrangement(f"# header below\naffine {field}\n1 0 0\n")
        assert (err.value.line, err.value.column) == (2, 2)


def test_lines_end_only_at_line_feeds_and_carriage_returns():
    # `str.splitlines` would also break at the vertical tab, the form feed and U+001C.
    for space in ("\x0b", "\x0c"):
        with pytest.raises(ParseError, match="line 3, field 2: bad rational 'x'"):
            parse_arrangement(f"affine 2\n1 0 0{space}\n1 x 0\n")
    with pytest.raises(ParseError, match="line 2: expected 3 coefficients, got 6"):
        parse_arrangement("affine 2\n1 0 0\x1c1 1 0\n")
    lf = parse_arrangement("affine 2\n1 0 0\n0 1 0\n")
    for newline in ("\r\n", "\r"):
        assert parse_arrangement(f"affine 2{newline}1 0 0{newline}0 1 0{newline}") == lf
        with pytest.raises(ParseError, match="line 3, field 1: bad rational 'x'"):
            parse_arrangement(f"affine 2{newline}# comment{newline}x 0 0{newline}")


def test_parse_comments_blanks_fractions():
    arr = parse_arrangement("# leading comment\n\naffine 2\n1/2 -1/3 1 # trailing\n")
    assert arr.r == 1
    assert arr.hyperplanes[0].normal == (Fraction(3), Fraction(-2))
    assert arr.hyperplanes[0].constant == Fraction(6)


def test_parse_rejects_exponents_and_decimals():
    # Only integers and p/q are rationals; Fraction alone would expand the
    # exponent digit by digit.
    for field in ("1e10000000", "1.5"):
        with pytest.raises(ParseError, match="bad rational") as err:
            parse_arrangement(f"affine 2\n1 0 0\n1 {field} 2\n")
        assert (err.value.line, err.value.column) == (3, 2)


@given(st.from_regex(_RATIONAL, fullmatch=True))
def test_parse_rational_reads_every_field_the_grammar_accepts(field):
    # The fields are read by `int`; `Fraction`'s own string parser agrees on
    # every one, and an integer field stays an `int`.
    value = parse_rational(field, 1)
    assert value == Fraction(field)
    assert type(value) is (Fraction if "/" in field else int)


def test_parse_field_count():
    with pytest.raises(ParseError, match="expected 3 coefficients"):
        parse_arrangement("affine 2\n1 0\n")


def test_parse_projective():
    arr = parse_arrangement("projective 2\n1 0 0\n0 1 0\n0 0 1\n")
    assert arr.kind == PROJECTIVE
    assert arr.ambient_dim == 2
    assert all(h.constant == 0 for h in arr.hyperplanes)


def test_projective_constant_rejected():
    h = Hyperplane((1, 0, 0), 1)
    with pytest.raises(ValidationError, match="nonzero constant"):
        Arrangement(2, (h,), PROJECTIVE)


def test_constructor_canonicalizes_every_form_of_a_hyperplane():
    h = Hyperplane((1, -2), 3)
    assert (h.normal, h.constant) == ((1, -2), 3)
    for form in (
        Hyperplane((Fraction(2), Fraction(-4)), Fraction(6)),  # scaled
        Hyperplane((-1, 2), -3),  # sign-flipped
        Hyperplane((Fraction(1, 2), Fraction(-1)), Fraction(3, 2)),  # fractional
    ):
        assert form == h
        assert hash(form) == hash(h)
    assert Arrangement(2, (h,), AFFINE).hyperplanes == (h,)
    with pytest.raises(ValidationError, match="duplicate hyperplane: 1 repeats 0"):
        Arrangement(2, (h, Hyperplane((-2, 4), -6)), AFFINE)
    for normal in ((0, 0), (Fraction(0), Fraction(0)), ()):
        with pytest.raises(ValidationError, match="zero normal"):
            Hyperplane(normal, 1)


@given(st.lists(rationals, min_size=1, max_size=4), rationals, rationals)
@settings(max_examples=80, deadline=None)
def test_is_canonical_exactly_when_canonical_is_identity(normal, constant, scale):
    if all(x == 0 for x in normal):
        normal[0] = Fraction(1)
    scale = scale or Fraction(1)
    row = (*(scale * x for x in normal), scale * constant)
    h = Hyperplane(row[:-1], row[-1])
    # A row is canonical (integral, primitive, first nonzero normal entry
    # positive) exactly when the constructor stores it unchanged.
    is_canonical = (
        all(x.denominator == 1 for x in row)
        and gcd(*(int(x) for x in row)) == 1
        and next(x for x in row[:-1] if x) > 0
    )
    assert is_canonical == (h.equation_row() == row)
    # The stored row is canonical, so rebuilding from it is the identity.
    assert Hyperplane(h.normal, h.constant).equation_row() == h.equation_row()


@given(st.lists(rationals, min_size=1, max_size=5), rationals, rationals)
@settings(max_examples=80, deadline=None)
def test_canonicalization_idempotent_and_scale_invariant(normal, constant, scale):
    if all(x == 0 for x in normal):
        normal[0] = Fraction(1)
    h = Hyperplane(normal, constant)
    assert Hyperplane(h.normal, h.constant) == h
    if scale:
        # Any nonzero multiple, of either sign, is the same hyperplane.
        assert Hyperplane([scale * x for x in normal], scale * constant) == h
    row = h.equation_row()
    assert all(type(x) is int for x in row)
    assert gcd(*row) == 1
    assert next(x for x in h.normal if x) > 0


def test_rank_examples():
    # The rank of the normals is the dimension of the essential part.
    assert essentialize(parse_arrangement(boolean_arrangement_text(4))).essential.ambient_dim == 4
    assert essentialize(parse_arrangement(BRAID_A3)).essential.ambient_dim == 2
    assert essentialize(parse_arrangement("affine 3\n1 2 3 4\n")).essential.ambient_dim == 1


def test_essentialize_braid():
    red = essentialize(parse_arrangement(BRAID_A3))
    assert red.shift == 1
    assert red.essential.ambient_dim == 2
    assert red.essential.r == 3
    assert essentialize(red.essential).shift == 0


def test_essentialize_identity_on_essential():
    arr = parse_arrangement(boolean_arrangement_text(3))
    red = essentialize(arr)
    assert red.shift == 0
    assert red.essential == arr


def test_essentialize_single_hyperplane():
    red = essentialize(parse_arrangement("affine 3\n1 0 0 5\n"))
    assert red.shift == 2
    assert red.essential.ambient_dim == 1
    assert red.essential.hyperplanes[0].constant == 5


def test_essentialize_idempotent():
    red = essentialize(parse_arrangement(BRAID_A3))
    again = essentialize(red.essential)
    assert again.shift == 0
    assert again.essential == red.essential


def test_decone_simplex():
    simplex = parse_arrangement("projective 2\n1 0 0\n0 1 0\n0 0 1\n")
    affine = decone(simplex, 0)
    assert affine.kind == AFFINE
    assert affine.r == 2
    assert {str(h) for h in affine.hyperplanes} == {"x1 = 0", "x2 = 0"}


def test_decone_generic_lines_not_parallel():
    tri = parse_arrangement("projective 2\n1 0 0\n0 1 0\n1 1 1\n")
    affine = decone(tri, 2)
    assert affine.r == 2
    normals = from_rows([list(h.normal) for h in affine.hyperplanes])
    assert normals.rank() == 2


def test_decone_index_out_of_range():
    simplex = parse_arrangement("projective 2\n1 0 0\n0 1 0\n0 0 1\n")
    with pytest.raises(ValidationError, match="out of range"):
        decone(simplex, 3)


def test_decone_requires_projective():
    arr = parse_arrangement(boolean_arrangement_text(2))
    with pytest.raises(ValidationError):
        decone(arr, 0)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_essentialize_preserves_flat_counts(seed):
    # The complement is the essential one times affine `shift`-space, so every
    # subset cuts out a flat `shift` dimensions smaller, or is still empty.
    rng = Random(seed)
    arr = random_affine_arrangement(rng, rng.randint(1, 4), rng.randint(1, 5))
    red = essentialize(arr)
    assert essentialize(red.essential).shift == 0
    assert red.shift == arr.ambient_dim - red.essential.ambient_dim
    table, essential = count_flats(arr), count_flats(red.essential)
    lowered = {(size, dim - red.shift): c for (size, dim), c in table.counts.items()}
    assert lowered == essential.counts
    assert table.empty == essential.empty


def _all_int(arr) -> bool:
    return all(type(x) is int for h in arr.hyperplanes for x in h.equation_row())


def test_hyperplanes_hold_integers():
    h = Hyperplane([Fraction(1, 2), Fraction(-1, 3)], Fraction(1))
    assert (h.normal, h.constant) == ((3, -2), 6)
    assert all(type(x) is int for x in h.equation_row())
    assert str(h) == "3*x1 - 2*x2 = 6"


def test_integral_fractions_are_stored_as_integers():
    h = Hyperplane((Fraction(2), Fraction(0)), Fraction(4))
    assert all(type(x) is int for x in h.equation_row())
    assert h.equation_row() == (1, 0, 2)
    assert Arrangement(2, (h,), AFFINE).hyperplanes == (h,)


def _canonical_arrangements():
    """(path, arrangement) for every way the package builds an arrangement."""
    rng = Random(7)
    affine = parse_arrangement("affine 3\n1/2 -1/3 0 1\n1 1 0 0\n0 1 0 -2\n-2 -2 0 3\n")
    projective = parse_arrangement("projective 2\n1 0 0\n0 1 0\n2 3 5\n1 1 1\n-1 0 1\n")
    yield "parse affine", affine
    yield "parse projective", projective
    for k in range(projective.r):
        yield f"decone {k}", decone(projective, k)
    yield "essentialize", essentialize(affine).essential
    yield "random_affine_arrangement", random_affine_arrangement(rng, 3, 6)
    yield "random_projective_arrangement", random_projective_arrangement(rng, 2, 5)
    yield "random_general_position_arrangement", random_general_position_arrangement(rng, 2, 4)


def test_every_construction_path_stores_canonical_hyperplanes():
    paths = dict(_canonical_arrangements())
    assert paths["essentialize"].ambient_dim == 2  # a column was dropped
    for path, arr in paths.items():
        assert arr.r, path
        assert _all_int(arr), path
        for h in arr.hyperplanes:
            assert Hyperplane(h.normal, h.constant) == h, (path, h)


def _canonical_row(row) -> tuple:
    """Rationals scaled to coprime integers, the first nonzero entry positive."""
    scale = lcm(*(x.denominator for x in row))
    ints = [int(x * scale) for x in row]
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_decone_is_the_rational_chart(seed):
    # The chart a.X = 1 of the infinity hyperplane a, solved for the last
    # coordinate j with a_j != 0: b.X = 0 reads sum_{i != j} (b_i - t a_i) x_i = -t
    # with t = b_j / a_j, computed here in Fractions.
    rng = Random(seed)
    n = rng.randint(1, 4)
    arr = random_projective_arrangement(rng, n, rng.randint(1, 6))
    for k, infinity in enumerate(arr.hyperplanes):
        a = infinity.normal
        j = max(i for i in range(n + 1) if a[i])
        expected = []
        for h in arr.hyperplanes[:k] + arr.hyperplanes[k + 1:]:
            t = Fraction(h.normal[j], a[j])
            normal = [h.normal[i] - t * a[i] for i in range(n + 1) if i != j]
            expected.append(_canonical_row(normal + [-t]))
        affine = decone(arr, k)
        assert [h.equation_row() for h in affine.hyperplanes] == expected
        assert _all_int(affine)
