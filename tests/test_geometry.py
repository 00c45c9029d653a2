from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksets import geometry
from blocksets.errors import DimensionOutOfRange, InternalError, SpaceTooLarge
from blocksets.geometry import (AFFINE, PROJECTIVE, enumerate_flats,
                                flat_count, flat_size, flats_within,
                                gaussian_binomial, in_flat, space, span)


def test_point_counts():
    assert space(PROJECTIVE, 2, 2).npoints == 7
    assert space(AFFINE, 2, 3).npoints == 9
    assert space(PROJECTIVE, 2, 3).npoints == 13


def test_projective_points_normalized_and_lex():
    sp = space(PROJECTIVE, 2, 3)
    pts = sp.points
    assert len(pts) == len(set(pts)) == 13
    for pt in pts:
        nz = [c for c in pt if c]
        assert nz and nz[0] == 1  # first nonzero pinned to 1
    assert pts == sorted(pts)


def test_affine_points_are_all_tuples_lex():
    sp = space(AFFINE, 2, 3)
    pts = sp.points
    assert pts == sorted(pts)
    assert len(pts) == 9
    assert pts[0] == (0, 0) and pts[-1] == (2, 2)


def test_flat_counts_frozen():
    assert len(enumerate_flats(space(PROJECTIVE, 2, 3), 1)) == 13
    assert len(enumerate_flats(space(AFFINE, 2, 3), 1)) == 12
    assert len(enumerate_flats(space(PROJECTIVE, 3, 2), 2)) == 15


@pytest.mark.parametrize("kind,n,q", [
    (PROJECTIVE, 2, 2), (PROJECTIVE, 2, 3), (PROJECTIVE, 2, 4),
    (PROJECTIVE, 3, 2), (PROJECTIVE, 3, 3),
    (AFFINE, 2, 2), (AFFINE, 2, 3), (AFFINE, 2, 4),
    (AFFINE, 3, 2), (AFFINE, 3, 3),
])
def test_flat_counts_match_closed_form(kind, n, q):
    sp = space(kind, n, q)
    for d in range(n + 1):
        want = flat_count(kind, n, d, q)
        if want > 10 ** 5:
            continue
        flats = enumerate_flats(sp, d)
        assert len(flats) == want
        for fl in flats:
            assert len(fl.points) == flat_size(kind, d, q)
        # canonical order, no duplicates
        keys = [fl.key() for fl in flats]
        assert len(set(keys)) == len(keys)


def test_gaussian_binomial_values():
    assert gaussian_binomial(3, 2, 3) == 13
    assert gaussian_binomial(5, 0, 7) == 1
    assert gaussian_binomial(4, 2, 2) == 35


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 8), st.integers(0, 8), st.sampled_from([2, 3, 4, 5]))
def test_gaussian_binomial_symmetry(m, k, q):
    if k > m:
        return
    assert gaussian_binomial(m, k, q) == gaussian_binomial(m, m - k, q)


def test_span_single_point():
    sp = space(PROJECTIVE, 2, 3)
    fl = span(sp, [5])
    assert fl.d == 0 and fl.points == (5,)


def test_span_two_projective_points_is_a_line():
    sp = space(PROJECTIVE, 2, 4)
    fl = span(sp, [0, 7])
    assert fl.d == 1 and len(fl.points) == 5  # q + 1


def test_span_three_collinear_affine_points():
    sp = space(AFFINE, 2, 3)
    line = enumerate_flats(sp, 1)[4]
    fl = span(sp, list(line.points))
    assert fl.d == 1
    assert fl.points == line.points
    assert fl.key() == line.key()


def test_span_reproduces_canonical_basis():
    for kind, n, q in [(PROJECTIVE, 2, 3), (AFFINE, 2, 3), (PROJECTIVE, 3, 2)]:
        sp = space(kind, n, q)
        for d in range(n + 1):
            for fl in enumerate_flats(sp, d):
                back = span(sp, list(fl.points))
                assert back.key() == fl.key()
                assert back.points == fl.points


@pytest.mark.parametrize("kind,n,q", [
    (PROJECTIVE, 2, 2), (PROJECTIVE, 2, 3), (AFFINE, 2, 3)])
def test_unique_line_through_point_pairs(kind, n, q):
    sp = space(kind, n, q)
    lines = enumerate_flats(sp, 1)
    for a, b in combinations(range(sp.npoints), 2):
        hits = [fl for fl in lines if a in fl.points and b in fl.points]
        assert len(hits) == 1
        assert hits[0].key() == span(sp, [a, b]).key()


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
def test_every_projective_line_meets_every_hyperplane(n, q):
    # load-bearing for the scope split: contained projective flats die as
    # soon as the arrangement is nonempty
    sp = space(PROJECTIVE, n, q)
    lines = enumerate_flats(sp, 1)
    hyps = enumerate_flats(sp, n - 1)
    for fl in lines:
        pts = set(fl.points)
        for h in hyps:
            assert pts & set(h.points)


def test_in_flat_agrees_with_point_list():
    sp = space(AFFINE, 2, 3)
    for fl in enumerate_flats(sp, 1):
        members = set(fl.points)
        for p in range(sp.npoints):
            assert in_flat(sp, fl, p) == (p in members)


def test_flats_within_subset():
    sp = space(PROJECTIVE, 2, 3)
    line = enumerate_flats(sp, 1)[0]
    inside = flats_within(sp, set(line.points), 1)
    assert [fl.key() for fl in inside] == [line.key()]
    assert flats_within(sp, set(line.points[:-1]), 1) == []


def test_flats_within_full_universe_matches_enumeration():
    sp = space(AFFINE, 2, 3)
    allpts = set(range(sp.npoints))
    assert ([fl.key() for fl in flats_within(sp, allpts, 1)]
            == [fl.key() for fl in enumerate_flats(sp, 1)])


@lru_cache(maxsize=None)
def _all_flats(kind, n, q, d):
    return enumerate_flats(space(kind, n, q), d)


def _check_flats_within(sp, members, d):
    want = [fl for fl in _all_flats(sp.kind, sp.n, sp.q, d)
            if set(fl.points) <= members]
    got = flats_within(sp, members, d)
    assert ([(fl.key(), fl.points) for fl in got]
            == [(fl.key(), fl.points) for fl in want])
    for fl in got:
        assert fl.points == tuple(p for p in range(sp.npoints) if in_flat(sp, fl, p))


_SMALL_SPACES = [(kind, n, q) for kind in (PROJECTIVE, AFFINE)
                 for n in (2, 3) for q in (2, 3, 4, 5)]


@st.composite
def _member_sets(draw):
    """A space and a member set: a sparse random set, or everything but a
    few points (which still holds many flats)."""
    kind, n, q = draw(st.sampled_from(_SMALL_SPACES))
    sp = space(kind, n, q)
    picked = draw(st.sets(st.integers(0, sp.npoints - 1), max_size=12))
    if draw(st.booleans()):
        return sp, set(picked)
    return sp, set(range(sp.npoints)) - picked


@settings(max_examples=60, deadline=None)
@given(_member_sets())
def test_flats_within_matches_filtered_enumeration(case):
    sp, members = case
    for d in range(sp.n + 1):
        _check_flats_within(sp, members, d)


def test_flat_count_mismatch_raises(monkeypatch):
    real = geometry.iter_flats

    def drop_one(sp, d):
        flats = real(sp, d)
        next(flats)
        return flats

    monkeypatch.setattr(geometry, "iter_flats", drop_one)
    with pytest.raises(InternalError):
        enumerate_flats(space(PROJECTIVE, 2, 3), 1)


def test_dimension_out_of_range():
    sp = space(PROJECTIVE, 2, 3)
    with pytest.raises(DimensionOutOfRange):
        enumerate_flats(sp, 3)
    with pytest.raises(DimensionOutOfRange):
        enumerate_flats(sp, -1)


def test_space_guard():
    sp = space(AFFINE, 9, 8)  # 8^9 points is past the enumeration guard
    with pytest.raises(SpaceTooLarge):
        sp.points


def test_space_rejects_bad_dimension():
    with pytest.raises((DimensionOutOfRange, ValueError)):
        space(PROJECTIVE, 0, 3)
