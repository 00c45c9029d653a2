import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksets.arrangement import (arrangement_make, complement,
                                   corresponding_arrangement,
                                   emit_arrangement_text, flats_in_complement,
                                   max_flat_dimension, normalize_form,
                                   parse_arrangement_text, touching_traces)
from blocksets.braid import braid_arrangement
from blocksets.errors import (BlocksetsError, CoefficientLoss,
                              DimensionMismatch, DuplicateForm, InvalidForm)
from blocksets.geometry import (AFFINE, PROJECTIVE, enumerate_flats,
                                flat_count, space)


def one_line(sp):
    row = [0] * (sp.n + 1)
    row[0] = 1
    return arrangement_make(sp, [tuple(row)])


def test_normalize_form_scales_leading_coefficient():
    sp = space(PROJECTIVE, 2, 3)
    assert normalize_form(sp, (2, 1, 0)).coeffs == (1, 2, 0)
    assert normalize_form(sp, (0, 2, 2)).coeffs == (0, 1, 1)


def test_normalize_form_affine_constant_scales_too():
    sp = space(AFFINE, 2, 3)
    assert normalize_form(sp, (2, 0, 1)).coeffs == (1, 0, 2)


def test_duplicate_after_scaling_rejected():
    sp = space(PROJECTIVE, 2, 3)
    with pytest.raises(DuplicateForm):
        arrangement_make(sp, [(1, 0, 0), (2, 0, 0)])


def test_zero_variable_part_rejected():
    with pytest.raises(InvalidForm):
        arrangement_make(space(PROJECTIVE, 2, 3), [(0, 0, 0)])
    with pytest.raises(InvalidForm):
        arrangement_make(space(AFFINE, 2, 3), [(0, 0, 1)])


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
    union = set()
    for fl in enumerate_flats(sp, sp.n - 1):
        key = tuple(fl.rows)
        # match flats to arrangement forms by testing every point
        union.update(p for p in fl.points
                     if all_zero_on_some_form(sp, arr, p))
    union = {p for p in range(sp.npoints) if not all_nonzero(sp, arr, p)}
    assert len(comp.members) + len(union) == sp.npoints
    assert set(comp.members).isdisjoint(union)


def all_nonzero(sp, arr, p):
    from blocksets.arrangement import evaluate_form
    return all(evaluate_form(sp, f, p) != 0 for f in arr.forms)


def all_zero_on_some_form(sp, arr, p):
    return not all_nonzero(sp, arr, p)


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
    assert up.n == 3
    assert all(f.coeffs[-1] == 0 for f in up.forms)
    assert [f.coeffs[:3] for f in up.forms] == [f.coeffs for f in arr.forms]


def test_corresponding_round_trip():
    sp = space(AFFINE, 2, 3)
    arr = braid_arrangement(sp)
    back = corresponding_arrangement(corresponding_arrangement(arr, 4), 2)
    assert [f.coeffs for f in back.forms] == [f.coeffs for f in arr.forms]


def test_corresponding_coefficient_loss():
    sp = space(PROJECTIVE, 3, 3)
    fq = sp.field
    arr = arrangement_make(sp, [(1, 0, 0, fq.neg(1))])  # uses x3
    with pytest.raises(CoefficientLoss):
        corresponding_arrangement(arr, 2)


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
    assert [f.coeffs for f in arr2.forms] == [f.coeffs for f in arr.forms]
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
