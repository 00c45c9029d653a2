from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksets import geometry
from blocksets.arrangement import arrangement_make, complement, normalize_form
from blocksets.errors import DimensionOutOfRange, InternalError, SpaceTooLarge
from blocksets.geometry import (AFFINE, PROJECTIVE, enumerate_flats,
                                flat_count, flat_size, flats_avoiding,
                                gaussian_binomial, space, span)

from geometry_reference import form_value, in_flat


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
    inside = flats_avoiding(sp, (), 1, line.points, line)
    assert [fl.key() for fl in inside] == [line.key()]
    # a line through the last point alone takes it out, and the line with it
    other = next(fl for fl in enumerate_flats(sp, 1)
                 if set(fl.points) & set(line.points) == {line.points[-1]})
    form = next(f for f in product(range(3), repeat=3)
                if any(f) and f[next(i for i in range(3) if f[i])] == 1
                and all(form_value(sp, f, p) == 0 for p in other.points))
    assert flats_avoiding(sp, (form,), 1, line.points[:-1], line) == []


def test_flats_within_full_universe_matches_enumeration():
    sp = space(AFFINE, 2, 3)
    allpts = range(sp.npoints)
    assert ([fl.key() for fl in flats_avoiding(sp, (), 1, allpts)]
            == [fl.key() for fl in enumerate_flats(sp, 1)])


@lru_cache(maxsize=None)
def _all_flats(kind, n, q, d):
    return enumerate_flats(space(kind, n, q), d)


def _check_flats_within(sp, forms, members, d, within=None):
    """flats_avoiding against the brute-force reference: every d-flat, in
    enumerate_flats order, kept when its points lie among the members."""
    mset = set(members)
    want = [fl for fl in _all_flats(sp.kind, sp.n, sp.q, d)
            if mset.issuperset(fl.points)]
    got = flats_avoiding(sp, forms, d, members, within)
    assert ([(fl.key(), fl.points) for fl in got]
            == [(fl.key(), fl.points) for fl in want])
    for fl in got:  # sorted, distinct, on the flat and as many as it has
        assert fl.points == tuple(sorted(set(fl.points)))
        assert len(fl.points) == flat_size(sp.kind, fl.d, sp.q)
        assert all(in_flat(sp, fl, p) for p in fl.points)


_AVOIDING_SPACES = [(kind, n, q) for kind in (PROJECTIVE, AFFINE)
                    for n in (1, 2, 3, 4) for q in (2, 3, 4, 5)]


@st.composite
def _arrangements(draw):
    """A space, up to four distinct normalized forms over it (independent,
    dependent or parallel as they fall) and the complement's points."""
    kind, n, q = draw(st.sampled_from(_AVOIDING_SPACES))
    sp = space(kind, n, q)
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n + 1,
                                  max_size=n + 1), max_size=4))
    forms = sorted({normalize_form(sp, r) for r in rows if any(r[:sp.ncoords])})
    return sp, forms, complement(sp, arrangement_make(sp, forms)).members


@settings(max_examples=60, deadline=None)
@given(_arrangements())
def test_flats_within_matches_filtered_enumeration(case):
    sp, forms, members = case
    for d in range(sp.n + 1):
        _check_flats_within(sp, forms, members, d)


@settings(max_examples=60, deadline=None)
@given(_arrangements(), st.data())
def test_flats_within_a_flat_match_filtered_enumeration(case, data):
    # inside a flat F, with the forms (F minus the arrangement, a contained
    # restriction) and without them (all of F, a touching one)
    sp, forms, members = case
    e = data.draw(st.integers(0, sp.n))
    flats = _all_flats(sp.kind, sp.n, sp.q, e)
    within = flats[data.draw(st.integers(0, len(flats) - 1))]
    mset = set(members)
    kept = [p for p in within.points if p in mset]
    for d in range(sp.n + 1):
        _check_flats_within(sp, forms, kept, d, within)
        _check_flats_within(sp, (), within.points, d, within)


def _reference_flats(sp, d):
    """Every d-flat from its canonical echelon basis (pivot columns, then
    free entries), its points listed one coefficient vector at a time, each
    looked up in point_index; sorted as enumerate_flats sorts."""
    q, add, mul = sp.q, sp.field.add_table, sp.field.mul_table
    affine = sp.kind == AFFINE
    k, m = (d, sp.n) if affine else (d + 1, sp.n + 1)
    out = []
    for pivots in combinations(range(m), k):
        free = [(r, c) for r in range(k) for c in range(m)
                if c > pivots[r] and c not in pivots]
        for vals in product(range(q), repeat=len(free)):
            rows = [[0] * m for _ in range(k)]
            for r, p in enumerate(pivots):
                rows[r][p] = 1
            for (r, c), v in zip(free, vals):
                rows[r][c] = v
            rows = tuple(tuple(r) for r in rows)
            nonpivot = [c for c in range(m) if c not in pivots]
            bases = [None]
            if affine:
                bases = []
                for bvals in product(range(q), repeat=len(nonpivot)):
                    base = [0] * m
                    for c, v in zip(nonpivot, bvals):
                        base[c] = v
                    bases.append(tuple(base))
            for base in bases:
                pts = set()
                for lams in product(range(q), repeat=k):
                    if not affine and next((x for x in lams if x), 0) != 1:
                        continue  # projective: first nonzero coefficient 1
                    v = base or (0,) * m
                    for lam, row in zip(lams, rows):
                        v = tuple(add[a][mul[lam][b]] for a, b in zip(v, row))
                    pts.add(sp.point_index[v])
                out.append((base, rows, tuple(sorted(pts))))
    out.sort(key=lambda f: (f[0] or (), f[1]))
    return out


@pytest.mark.parametrize("kind", [PROJECTIVE, AFFINE])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_enumerate_flats_matches_reference(kind, q):
    # every n <= 4 and d whose flats hold at most 20,000 point slots
    for n in range(1, 5):
        sp = space(kind, n, q)
        for d in range(n + 1):
            if flat_count(kind, n, d, q) * flat_size(kind, d, q) > 20000:
                continue
            got = [(fl.base, fl.rows, fl.points) for fl in enumerate_flats(sp, d)]
            assert got == _reference_flats(sp, d)


@pytest.mark.parametrize("n,q", [(2, 4), (2, 9), (3, 3), (3, 4), (4, 2)])
def test_flats_within_projective_hyperplane(n, q):
    # a hyperplane of PG(n,q) is a PG(n-1,q): its d-flats number
    # [n choose d+1]_q and are exactly the flats of PG(n,q) inside it
    sp = space(PROJECTIVE, n, q)
    hyps = _all_flats(PROJECTIVE, n, q, n - 1)
    for hyp in (hyps[0], hyps[-1]):
        for d in range(n + 1):
            _check_flats_within(sp, (), hyp.points, d, hyp)
            got = flats_avoiding(sp, (), d, hyp.points, hyp)
            assert len(got) == gaussian_binomial(n, d + 1, q)


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
