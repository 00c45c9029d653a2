import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksets.arrangement import (arrangement_make, complement,
                                   contained_count, corresponding_arrangement,
                                   emit_arrangement_text, flats_in_complement,
                                   hyperplane_flat, max_flat_dimension,
                                   normalize_form, parse_arrangement_text,
                                   touching_traces)
from blocksets.braid import braid_arrangement
from blocksets.errors import (BlocksetsError, CoefficientLoss,
                              DimensionMismatch, DuplicateForm, InvalidForm,
                              SpaceTooLarge)
from blocksets.geometry import (AFFINE, PROJECTIVE, Space, enumerate_flats,
                                flat_count, flat_size, span, space)
from blocksets.gf import field_make

from geometry_reference import form_value


def one_line(sp):
    row = [0] * (sp.n + 1)
    row[0] = 1
    return arrangement_make(sp, [tuple(row)])


def test_normalize_form_scales_leading_coefficient():
    sp = space(PROJECTIVE, 2, 3)
    assert normalize_form(sp, (2, 1, 0)) == (1, 2, 0)
    assert normalize_form(sp, (0, 2, 2)) == (0, 1, 1)


def test_normalize_form_affine_constant_scales_too():
    sp = space(AFFINE, 2, 3)
    assert normalize_form(sp, (2, 0, 1)) == (1, 0, 2)


def test_duplicate_after_scaling_rejected():
    sp = space(PROJECTIVE, 2, 3)
    with pytest.raises(DuplicateForm):
        arrangement_make(sp, [(1, 0, 0), (2, 0, 0)])


def test_zero_variable_part_rejected():
    with pytest.raises(InvalidForm):
        arrangement_make(space(PROJECTIVE, 2, 3), [(0, 0, 0)])
    with pytest.raises(InvalidForm):
        arrangement_make(space(AFFINE, 2, 3), [(0, 0, 1)])
    for bad in (3, -1, 1.0):
        with pytest.raises(InvalidForm, match="is not a GF\\(3\\) code"):
            normalize_form(space(PROJECTIVE, 2, 3), (1, bad, 0))


def test_complement_builds_no_point_table_and_keeps_the_guard():
    sp = Space(AFFINE, 3, field_make(3))
    assert len(complement(sp, braid_arrangement(sp)).members) == 6
    assert "points" not in vars(sp)
    big = Space(PROJECTIVE, 24, field_make(2))
    with pytest.raises(SpaceTooLarge, match="^PG\\(24,2\\) has 33554431 points, "
                       "beyond the enumeration guard 16777216$"):
        complement(big, arrangement_make(big, []))
    assert not {"points", "_index_tables"} & set(vars(big))


def test_complement_empty_arrangement_is_everything():
    sp = space(PROJECTIVE, 2, 3)
    comp = complement(sp, arrangement_make(sp, []))
    assert len(comp.members) == 13


def test_complement_one_line_pg23():
    sp = space(PROJECTIVE, 2, 3)
    comp = complement(sp, one_line(sp))
    assert len(comp.members) == 9


def test_complement_pg13_difference_form():
    # x0 - x1 = 0 kills only the point (1,1)
    sp = space(PROJECTIVE, 1, 3)
    fq = sp.field
    comp = complement(sp, arrangement_make(sp, [(1, fq.neg(1))]))
    assert len(comp.members) == 3
    assert sp.index_of((1, 1)) not in comp.members


def test_complement_plus_union_covers_space():
    sp = space(PROJECTIVE, 2, 4)
    arr = braid_arrangement(sp)
    comp = complement(sp, arr)
    union = {p for p in range(sp.npoints)
             if any(form_value(sp, f, p) == 0 for f in arr.forms)}
    assert len(comp.members) + len(union) == sp.npoints
    assert set(comp.members).isdisjoint(union)


# every field up to GF(9), GF(4), GF(8) and GF(9) among them, in spaces of
# at most about a thousand points
DRAWN_SPACES = [(kind, n, q) for kind in (PROJECTIVE, AFFINE)
                for n in (1, 2, 3, 4) for q in (2, 3, 4, 5, 7, 8, 9)
                if flat_size(kind, n, q) <= 1000]


@st.composite
def arrangements(draw):
    kind, n, q = draw(st.sampled_from(DRAWN_SPACES))
    sp = space(kind, n, q)
    row = st.lists(st.integers(0, q - 1), min_size=n + 1, max_size=n + 1)
    rows = draw(st.lists(row.filter(lambda r: any(r[:sp.ncoords])),
                         max_size=4))
    return sp, arrangement_make(sp, sorted({normalize_form(sp, r) for r in rows}))


@settings(deadline=None, max_examples=150)
@given(arrangements())
def test_complement_is_where_no_form_vanishes(case):
    sp, arr = case
    comp = complement(sp, arr)
    assert comp.members == tuple(
        p for p in range(sp.npoints)
        if all(form_value(sp, f, p) for f in arr.forms))
    for f in arr.forms:
        fl = hyperplane_flat(sp, f)
        assert fl.d == sp.n - 1
        assert fl.points == tuple(p for p in range(sp.npoints)
                                  if form_value(sp, f, p) == 0)
        assert fl.key() == span(sp, list(fl.points)).key()  # canonical


@settings(deadline=None, max_examples=50)
@given(st.sampled_from([2, 3, 4, 5]), st.data())
def test_scaling_a_form_leaves_complement_unchanged(q, data):
    sp = space(PROJECTIVE, 2, q)
    coeffs = data.draw(st.lists(st.integers(0, q - 1), min_size=3, max_size=3))
    if not any(coeffs):
        return
    lam = data.draw(st.integers(1, q - 1))
    scaled = tuple(sp.field.mul(lam, c) for c in coeffs)
    a = complement(sp, arrangement_make(sp, [tuple(coeffs)]))
    b = complement(sp, arrangement_make(sp, [scaled]))
    assert a.members == b.members


def test_adding_a_hyperplane_never_grows_the_complement():
    sp = space(PROJECTIVE, 2, 3)
    small = arrangement_make(sp, [(1, 0, 0)])
    big = arrangement_make(sp, [(1, 0, 0), (0, 1, 0)])
    ca, cb = complement(sp, small), complement(sp, big)
    assert set(cb.members) <= set(ca.members)
    for d in range(sp.n + 1):
        fa = {fl.key() for fl in flats_in_complement(ca, d)}
        fb = {fl.key() for fl in flats_in_complement(cb, d)}
        assert fb <= fa


def test_corresponding_identity():
    sp = space(PROJECTIVE, 2, 3)
    arr = one_line(sp)
    assert corresponding_arrangement(arr, 2) is arr


def test_corresponding_pads_upward():
    sp = space(PROJECTIVE, 2, 3)
    arr = braid_arrangement(sp)
    up = corresponding_arrangement(arr, 3)
    assert up.space.n == 3
    assert all(f[-1] == 0 for f in up.forms)
    assert [f[:3] for f in up.forms] == list(arr.forms)


def test_corresponding_round_trip():
    sp = space(AFFINE, 2, 3)
    arr = braid_arrangement(sp)
    back = corresponding_arrangement(corresponding_arrangement(arr, 4), 2)
    assert back.forms == arr.forms
    sp = space(PROJECTIVE, 2, 3)
    arr = braid_arrangement(sp)
    down = corresponding_arrangement(corresponding_arrangement(arr, 4), 2)
    assert (down.space, down.forms) == (sp, arr.forms)


def test_corresponding_coefficient_loss():
    sp = space(PROJECTIVE, 3, 3)
    fq = sp.field
    arr = arrangement_make(sp, [(1, 0, 0, fq.neg(1))])  # uses x3
    with pytest.raises(CoefficientLoss):
        corresponding_arrangement(arr, 2)
    ag = space(AFFINE, 3, 3)
    with pytest.raises(CoefficientLoss):  # uses x3
        corresponding_arrangement(arrangement_make(ag, [(0, 0, 1, 2)]), 2)
    with pytest.raises(DimensionMismatch, match="must be >= 1"):
        corresponding_arrangement(arr, 0)


def test_flats_in_complement_projective_dies_with_any_hyperplane():
    sp = space(PROJECTIVE, 2, 3)
    comp = complement(sp, one_line(sp))
    assert flats_in_complement(comp, 1) == []


def test_flats_in_complement_empty_arrangement_gives_all():
    sp = space(AFFINE, 2, 3)
    comp = complement(sp, arrangement_make(sp, []))
    assert ([fl.key() for fl in flats_in_complement(comp, 1)]
            == [fl.key() for fl in enumerate_flats(sp, 1)])


def test_braid_ag33_contains_two_lines():
    sp = space(AFFINE, 3, 3)
    comp = complement(sp, braid_arrangement(sp))
    assert len(comp.members) == 6
    assert len(flats_in_complement(comp, 1)) == 2


def test_touching_traces_pg23_minus_line():
    sp = space(PROJECTIVE, 2, 3)
    comp = complement(sp, one_line(sp))
    traces = touching_traces(comp, 1)
    assert len(traces) == 12
    assert all(len(tr) == 3 for tr in traces)


def test_touching_traces_d0_are_singletons():
    sp = space(PROJECTIVE, 2, 3)
    comp = complement(sp, one_line(sp))
    traces = touching_traces(comp, 0)
    assert sorted(tr[0] for tr in traces) == list(comp.members)
    assert all(len(tr) == 1 for tr in traces)


def test_touching_traces_empty_arrangement_are_full_flats():
    sp = space(AFFINE, 2, 3)
    comp = complement(sp, arrangement_make(sp, []))
    traces = touching_traces(comp, 1)
    assert sorted(tr for tr in traces) == sorted(
        fl.points for fl in enumerate_flats(sp, 1))


def test_touching_hyperplane_traces_match_classical_affine():
    # removing one hyperplane projectively leaves traces that are exactly
    # the classical affine hyperplanes: same count, same cardinality
    for n, q in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        sp = space(PROJECTIVE, n, q)
        comp = complement(sp, one_line(sp))
        traces = touching_traces(comp, n - 1)
        assert len(traces) == flat_count(AFFINE, n, n - 1, q)
        assert all(len(tr) == q ** (n - 1) for tr in traces)


def test_max_flat_dimension():
    sp = space(PROJECTIVE, 2, 3)
    assert max_flat_dimension(complement(sp, arrangement_make(sp, []))) == 2
    ag = space(AFFINE, 3, 3)
    assert max_flat_dimension(complement(ag, braid_arrangement(ag))) == 1
    pg25 = space(PROJECTIVE, 2, 5)
    assert max_flat_dimension(complement(pg25, braid_arrangement(pg25))) == 0


def test_max_flat_dimension_empty_complement_is_none():
    sp = space(AFFINE, 1, 2)
    arr = arrangement_make(sp, [(1, 0), (1, 1)])  # x=0 and x+1=0
    comp = complement(sp, arr)
    assert comp.members == ()
    assert max_flat_dimension(comp) is None


@settings(deadline=None, max_examples=60)
@given(arrangements())
def test_contained_count_and_max_dimension_match_the_listing(case):
    sp, arr = case
    comp = complement(sp, arr)
    sizes = [len(flats_in_complement(comp, d)) for d in range(sp.n + 1)]
    assert [contained_count(comp, d) for d in range(sp.n + 1)] == sizes
    inside = [d for d, size in enumerate(sizes) if size]
    assert max_flat_dimension(comp) == (inside[-1] if inside else None)


def test_arrangement_dimension_mismatch():
    sp2 = space(PROJECTIVE, 2, 3)
    sp3 = space(PROJECTIVE, 3, 3)
    arr = one_line(sp2)
    with pytest.raises(DimensionMismatch):
        complement(sp3, arr)


def test_text_round_trip():
    sp = space(AFFINE, 3, 3)
    arr = braid_arrangement(sp)
    text = emit_arrangement_text(arr)
    sp2, arr2 = parse_arrangement_text(text)
    assert sp2 == sp
    assert arr2.forms == arr.forms
    assert emit_arrangement_text(arr2) == text


def test_text_comments_and_aliases():
    text = "# braid in the plane\npg 2 3\n1 2 0\n\n0 1 2\n"
    sp, arr = parse_arrangement_text(text)
    assert sp.kind == PROJECTIVE and (sp.n, sp.q) == (2, 3)
    assert len(arr.forms) == 2


def test_text_bad_inputs():
    with pytest.raises(BlocksetsError):
        parse_arrangement_text("nonsense 2 3\n1 0 0\n")
    with pytest.raises(BlocksetsError):
        parse_arrangement_text("pg 2 3\n1 0\n")  # wrong coefficient count
    with pytest.raises(DuplicateForm):
        parse_arrangement_text("pg 2 3\n1 0 0\n2 0 0\n")
    for text, error in (("pg 2\n1 0 0\n", "line 1: header must be 'kind n q'"),
                        ("pg two 3\n", "line 1: n and q must be integers"),
                        ("pg 2 3\n1 0 x\n", "line 2: coefficients must be integers"),
                        ("# no header\n\n", "missing 'kind n q' header line")):
        with pytest.raises(InvalidForm) as exc:
            parse_arrangement_text(text)
        assert str(exc.value) == error
