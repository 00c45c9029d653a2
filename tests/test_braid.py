import math
from itertools import combinations

import pytest

from blocksets import braid
from blocksets.blocking import build_instance, is_blocking, is_minimal
from blocksets.braid import (braid_arrangement, braid_existence, braid_lines,
                             braid_transversal, escape_parameter)
from blocksets.arrangement import complement, flats_in_complement
from blocksets.errors import DimensionMismatch, IdenticalPoints, NotInUniverse
from blocksets.geometry import AFFINE, PROJECTIVE, Space, space
from blocksets.gf import field_make

from braid_reference import distinct_coordinate_points, line_in_complement


def braid_complement(sp):
    return complement(sp, braid_arrangement(sp)).members


def test_braid_form_count_and_normalization():
    sp = space(AFFINE, 3, 3)
    arr = braid_arrangement(sp)
    assert len(arr.forms) == 3  # one per coordinate pair
    for f in arr.forms:
        lead = next(c for c in f if c)
        assert lead == 1


def test_affine_complement_is_injective_tuples():
    sp = space(AFFINE, 3, 3)
    members = braid_complement(sp)
    assert len(members) == 6
    assert members == distinct_coordinate_points(sp)


def test_projective_complement_matches_form_route():
    for n, q in [(1, 3), (2, 4), (2, 5), (3, 5)]:
        sp = space(PROJECTIVE, n, q)
        assert braid_complement(sp) == distinct_coordinate_points(sp)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_falling_factorial_complement_sizes(q, monkeypatch):
    for m in range(2, q + 1):
        got = len(braid_complement(Space(AFFINE, m, field_make(q))))
        assert got == math.perm(q, m)
    # the zero case m = q + 1 is decided without building the point table
    sp = Space(AFFINE, q + 1, field_make(q))
    monkeypatch.setattr(braid, "space", lambda kind, n, q: sp)
    assert braid_existence(AFFINE, q + 1, q).verdict == "empty"
    assert "points" not in vars(sp) and "_index_tables" not in vars(sp)


def test_line_in_complement_direction_test():
    sp = space(AFFINE, 3, 3)
    assert line_in_complement(sp, (0, 1, 2), (1, 2, 0))   # difference (2,2,2)
    assert not line_in_complement(sp, (0, 1, 2), (0, 2, 1))
    with pytest.raises(IdenticalPoints):
        line_in_complement(sp, (0, 1, 2), (0, 1, 2))
    with pytest.raises(DimensionMismatch):
        line_in_complement(space(PROJECTIVE, 2, 3), (0, 1, 2), (0, 2, 1))


def test_escape_parameter_frozen_example():
    sp = space(AFFINE, 3, 3)
    got = escape_parameter(sp, (1, 0, 2), (0, 1, 2))
    assert got == ((0, 1), 2, (2, 2, 2))


def test_escape_parameter_biconditional_q3():
    sp = space(AFFINE, 3, 3)
    members = braid_complement(sp)
    assert members == distinct_coordinate_points(sp)
    for x, y in combinations(members, 2):
        hit = escape_parameter(sp, x, y)
        assert (hit is None) == line_in_complement(sp, x, y)
        if hit is not None:
            (i, j), t0, P = hit
            assert P[i] == P[j]
            assert t0 not in (0, 1)


def test_escape_parameter_needs_complement_points():
    sp = space(AFFINE, 3, 3)
    with pytest.raises(NotInUniverse):
        escape_parameter(sp, (0, 0, 1), (1, 0, 2))
    with pytest.raises(NotInUniverse):
        escape_parameter(sp, (0, 1, 2), (0, 1, 1))
    with pytest.raises(IdenticalPoints):
        escape_parameter(sp, (0, 1, 2), (0, 1, 2))


def test_escape_parameter_checks_coordinate_tuples():
    sp = space(AFFINE, 3, 3)
    with pytest.raises(DimensionMismatch, match="expected 3 coordinates, got 2"):
        escape_parameter(sp, (0, 1), (0, 1, 2))
    with pytest.raises(ValueError, match="coordinate 3 is not a GF"):
        escape_parameter(sp, (3, 4, 5), (0, 1, 2))   # was an IndexError
    with pytest.raises(ValueError, match="coordinate -1 is not a GF"):
        escape_parameter(sp, (0, 1, 2), (-1, 0, 1))


def test_escape_parameter_affine_only():
    with pytest.raises(DimensionMismatch):
        escape_parameter(space(PROJECTIVE, 2, 3), (1, 0, 2), (0, 1, 2))
    with pytest.raises(DimensionMismatch, match="affine space"):
        escape_parameter(space(PROJECTIVE, 2, 3), (0, 1), (0, 1, 2))
    with pytest.raises(DimensionMismatch, match="lines are affine"):
        braid_lines(space(PROJECTIVE, 2, 3))


@pytest.mark.parametrize("q,count", [(3, 2), (4, 6), (5, 24)])
def test_contained_line_count(q, count):
    sp = space(AFFINE, q, q)
    lines = braid_lines(sp)
    assert len(lines) == count == math.factorial(q - 1)
    ones = (1,) * q
    fq = sp.field
    for fl in lines:
        pts = set(fl.points)
        for p in fl.points:
            shifted = tuple(fq.add(a, b) for a, b in zip(sp.points[p], ones))
            assert sp.index_of(shifted) in pts  # all-ones direction


@pytest.mark.parametrize("q", [3, 4, 5])
def test_lines_equal_contained_flat_enumeration(q):
    sp = space(AFFINE, q, q)
    comp = complement(sp, braid_arrangement(sp))
    assert ([fl.key() for fl in braid_lines(sp)]
            == [fl.key() for fl in flats_in_complement(comp, 1)])


@pytest.mark.parametrize("q", [3, 4, 5])
def test_lines_partition_the_complement(q):
    sp = space(AFFINE, q, q)
    members = braid_complement(sp)
    assert members == distinct_coordinate_points(sp)
    seen = {}
    for k, fl in enumerate(braid_lines(sp)):
        for p in fl.points:
            assert p not in seen  # pairwise disjoint
            seen[p] = k
    assert sorted(seen) == list(members)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_transversal_blocks_minimally(q):
    sp = space(AFFINE, q, q)
    inst = build_instance(sp, braid_arrangement(sp), q - 1, "contained")
    tv = braid_transversal(sp)
    assert len(tv) == math.factorial(q - 1)
    assert is_blocking(inst, tv)
    assert is_minimal(inst, tv)


def test_transversal_is_least_point_per_line():
    sp = space(AFFINE, 3, 3)
    lines = braid_lines(sp)
    assert braid_transversal(sp) == tuple(fl.points[0] for fl in lines)


# AG(m,q) for q <= 7 and 2 <= m <= min(5, q), where the contained lines at
# t = m - 1 are one nonempty parallel class.  AG(5,7) is left out: its
# instance build alone takes about 8 s.
TRANSVERSAL_GRID = [(m, q) for q in (2, 3, 4, 5, 7)
                    for m in range(2, min(5, q) + 1) if (m, q) != (5, 7)]


@pytest.mark.parametrize("m,q", TRANSVERSAL_GRID)
def test_existence_witness_is_the_transversal(m, q):
    sp = space(AFFINE, m, q)
    tv = braid_transversal(sp)
    for convention in ("plain", "minimal"):
        out = braid_existence(AFFINE, m, q, t=m - 1, convention=convention)
        assert out.verdict == "exists"
        assert (out.result.size, out.result.witness) == (len(tv), tv)


@pytest.mark.parametrize("m,q", TRANSVERSAL_GRID)
def test_existence_respects_cap_below_transversal(m, q):
    size = len(braid_transversal(space(AFFINE, m, q)))
    for convention in ("plain", "minimal"):
        out = braid_existence(AFFINE, m, q, t=m - 1, convention=convention,
                              size_cap=size - 1)
        assert out.verdict == "not-exists"


def test_projective_dichotomy_small():
    for q in (2, 3, 4):
        for n in range(1, q + 2):
            out = braid_existence(PROJECTIVE, n, q, t=1, scope="touching")
            if n > q - 1:
                assert out.verdict == "empty"
            else:
                assert out.verdict == "exists"
                assert is_blocking(out.instance, out.result.witness)


def test_affine_vacuous_at_level_one():
    out = braid_existence(AFFINE, 3, 3, t=1)
    assert out.verdict == "vacuous"
    assert out.vacuous_family
