"""The automorphism groups of mask instances and orbital branching.

Group orders are checked against the classical formulas, against sympy's
own Schreier-Sims and against a list of every collineation
(collineation_reference); every generator is mapped over the masks by
hand; orbital branching must find the optimum the plain search finds,
and the subset oracle's where the universe is small enough."""

import pickle
from math import prod

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from blocksets import blocking, solver, symmetry
from blocksets.arrangement import arrangement_make
from blocksets.blocking import build_instance
from blocksets.braid import braid_arrangement
from blocksets.errors import BlocksetsError, InternalError
from blocksets.geometry import AFFINE, PROJECTIVE, space
from blocksets.symmetry import _Frame, fixing_collineations
from collineation_reference import restricted_order


def _masks(kind, n, q, t=1, rows=(), scope="contained", nontrivial=False):
    """The universe size, the family and forbidden masks, and the seeds
    automorphisms builds the group from."""
    sp = space(kind, n, q)
    inst = build_instance(sp, arrangement_make(sp, list(rows)), t, scope)
    tmasks = solver._build_masks(inst.universe, inst.family)
    fmasks = solver._build_masks(inst.universe, inst.forbidden) if nontrivial else []
    return len(inst.universe), tmasks, fmasks, blocking._seeds(inst)


def _gl(n, q):
    return prod(q ** n - q ** i for i in range(n))


def _field_degree(q):
    return {2: 1, 3: 1, 4: 2, 5: 1}[q]


def _pgaml(n, q):
    """|PGammaL(n+1, q)|: the collineations of PG(n, q)."""
    return _field_degree(q) * _gl(n + 1, q) // (q - 1)


def _agaml(n, q):
    """|AGammaL(n, q)|: the collineations of AG(n, q)."""
    return _field_degree(q) * q ** n * _gl(n, q)


def _sympy_order(gens):
    return PermutationGroup([Permutation(list(g)) for g in gens]).order()


def _maps_onto(g, masks):
    """Direct check, independent of symmetry._preserves."""
    sets = {frozenset(b for b in range(len(g)) if m >> b & 1) for m in masks}
    return {frozenset(g[b] for b in s) for s in sets} == sets


@pytest.mark.parametrize("kind,n,q,order", [
    (PROJECTIVE, 2, 2, 168),
    (PROJECTIVE, 2, 3, 5616),
    (PROJECTIVE, 2, 4, 120960),
    (PROJECTIVE, 2, 5, 372000),
    (AFFINE, 2, 3, 432),
    (AFFINE, 3, 2, 1344),
    (PROJECTIVE, 3, 2, 20160),
])
def test_group_order_matches_formula_and_sympy(kind, n, q, order):
    # the hyperplanes of PG(n,q) or AG(n,q), n >= 2: the group is the full
    # collineation group (fundamental theorem of projective geometry)
    U, tmasks, fmasks, seeds = _masks(kind, n, q)
    formula = _pgaml(n, q) if kind == PROJECTIVE else _agaml(n, q)
    assert formula == order
    group = symmetry.automorphisms(seeds, tmasks, fmasks)
    assert group.order == order
    assert _sympy_order(group.gens) == order


@pytest.mark.parametrize("kind,n,q,t,rows,scope,nontrivial,order", [
    (PROJECTIVE, 2, 3, 1, (), "contained", True, 5616),
    # PGL(3,7) is transitive on line pairs and on non-concurrent line
    # triples, so the stabilizers have order 5630688 / (57*56/2) = 3528 and
    # 5630688 / (57*56*49/6) = 216
    (PROJECTIVE, 2, 7, 1, ((1, 0, 0), (0, 1, 0)), "touching", False, 3528),
    (PROJECTIVE, 2, 7, 1, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), "touching", True, 216),
    (AFFINE, 3, 3, 2, ((1, 0, 0, 0),), "touching", True, None),
])
def test_generators_preserve_family_and_forbidden(kind, n, q, t, rows, scope,
                                                  nontrivial, order):
    U, tmasks, fmasks, seeds = _masks(kind, n, q, t, rows, scope, nontrivial)
    group = symmetry.automorphisms(seeds, tmasks, fmasks)
    for g in group.gens:
        assert sorted(g) == list(range(U))
        assert _maps_onto(g, tmasks) and _maps_onto(g, fmasks)
    assert _sympy_order(group.gens) == group.order
    if order is not None:
        assert group.order == order


def _actual_gens(group, n):
    """The generators of a search state's group (H, v), as permutations of
    the positions: x -> v^-1(h(v(x)))."""
    H, v = group
    u = symmetry._inverse(v)
    return [tuple(u[h[v[x]]] for x in range(n)) for h in H.gens]


def test_branch_orbits_and_stabilizers_match_sympy():
    # walk down from a conjugate of the whole group of PG(2,4), each time
    # into the child of the first point that its group moves: the
    # children's groups are conjugates of cached stabilizers, and sympy
    # checks each kept child afresh.  The walk starts from a map that is
    # not the identity, so a child's map composed in the wrong order gives
    # a group that is not Stab_G(p)
    U, tmasks, _, seeds = _masks(PROJECTIVE, 2, 4)
    H = symmetry.automorphisms(seeds, tmasks, [])
    group = (H, tuple(range(U - 1, -1, -1)))
    pts = [3, 0, 7, 20, 11, 5]
    depth = 0
    while group is not None:
        G = PermutationGroup([Permutation(list(g)) for g in _actual_gens(group, U)])
        assert G.order() == group[0].order
        orbits, children = symmetry.branch(group, pts)
        seen = set()
        nxt = None
        for p, orbit, child in zip(pts, orbits, children):
            orb = frozenset(G.orbit(p))
            if orb in seen:
                assert orbit == 0
                continue
            seen.add(orb)
            assert orbit == sum(1 << x for x in orb)
            want = G.stabilizer(p).order()
            if child is None:
                assert want == 1
                continue
            cgens = _actual_gens(child, U)
            assert child[0].order == want == _sympy_order(cgens)
            # a subgroup of G that fixes p and has its order is Stab_G(p)
            assert all(g[p] == p and G.contains(Permutation(list(g)))
                       for g in cgens)
            if nxt is None and len(orb) > 1:
                nxt = child
        group = nxt
        depth += 1
    assert depth >= 3


def test_unpickled_group_gives_equal_stabilizers_and_maps():
    # PG(2,7) minus two lines, touching: the --workers payloads carry each
    # chain's base, strong generators and transversals, and a copy built
    # from them answers every stabilizer question as the original does
    U, tmasks, fmasks, seeds = _masks(PROJECTIVE, 2, 7, rows=[(1, 0, 0), (0, 1, 0)],
                                      scope="touching", nontrivial=True)
    group = symmetry.automorphisms(seeds, tmasks, fmasks)
    assert group.order == 3528
    stabs = [group.stabilizer(a)[0] for a in range(U)]
    assert sum(len(pickle.dumps(K)) for K in stabs) <= 90000
    copy = pickle.loads(pickle.dumps(group))
    assert copy.chain == group.chain
    for a in range(U):
        K, w = group.stabilizer(a)
        K2, w2 = copy.stabilizer(a)
        assert w2 == w
        assert (K2 is None) == (K is None)
        if K is not None:
            assert (K2.gens, K2.order, K2.chain) == (K.gens, K.order, K.chain)


def test_schreier_sims_base_starts_with_the_prefix():
    # each level keeps one map per orbit point: it fixes the earlier base
    # points and takes its point back to the level's base point
    U, tmasks, _, seeds = _masks(AFFINE, 2, 3)
    group = symmetry.automorphisms(seeds, tmasks, [])
    base, strong, trans = symmetry.schreier_sims(
        group.gens, U, group.order, prefix=(4, 2))
    assert base[:2] == [4, 2]
    assert prod(len(t) for t in trans) == group.order
    for i, t in enumerate(trans):
        assert base[i] in t
        for x, w in t.items():
            assert w[x] == base[i]
            assert all(w[b] == b for b in base[:i])


@pytest.mark.parametrize("kind,n,q,rows", [
    (PROJECTIVE, 2, 2, ()),
    (PROJECTIVE, 2, 4, ()),
    (PROJECTIVE, 3, 2, ()),
    (PROJECTIVE, 2, 5, ((1, 0, 0),)),
    (PROJECTIVE, 2, 7, ((1, 0, 0), (0, 1, 0))),
    (PROJECTIVE, 2, 7, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    (PROJECTIVE, 3, 3, ((1, 2, 0, 1), (0, 0, 1, 2))),
    (AFFINE, 2, 3, ()),
    (AFFINE, 2, 4, ((1, 3, 2),)),
    (AFFINE, 3, 2, ((1, 1, 0, 1),)),
    (AFFINE, 3, 3, ((1, 0, 0, 0), (0, 1, 0, 0))),
    (AFFINE, 2, 5, ((1, 2, 3), (0, 1, 4))),
    # dependent forms: the braid arrangement x1 = x2, x1 = x3, x2 = x3 of
    # AG(3,5), three lines of PG(2,7) through one point, and two parallel
    # planes of AG(3,3), dependent together with the plane at infinity
    (AFFINE, 3, 5, ((1, 4, 0, 0), (1, 0, 4, 0), (0, 1, 4, 0))),
    (PROJECTIVE, 2, 7, ((1, 0, 0), (0, 1, 0), (1, 1, 0))),
    (AFFINE, 3, 3, ((1, 0, 0, 0), (1, 0, 0, 1))),
])
def test_seed_order_formula_matches_sympy(kind, n, q, rows):
    # on the points of the projective closure the kernel acts faithfully,
    # so its closed form is its order there, which sympy's own checks
    sp = space(kind, n, q)
    closure = space(PROJECTIVE, n, q)
    gens, order = fixing_collineations(_Frame(arrangement_make(sp, list(rows)),
                                              closure.points))
    assert all(sorted(g) == list(range(closure.npoints)) for g in gens)
    assert _sympy_order(gens) == order


def test_empty_arrangement_seeds_are_the_linear_groups():
    # k = 0 in PG(n,q) gives |PGL(n+1,q)|, k = 1 (only the hyperplane at
    # infinity) in AG(n,q) gives |AGL(n,q)|
    for n, q in ((2, 3), (2, 4), (3, 3), (4, 2)):
        closure = space(PROJECTIVE, n, q).points
        arr = arrangement_make(space(PROJECTIVE, n, q), [])
        assert fixing_collineations(_Frame(arr, closure))[1] == _gl(n + 1, q) // (q - 1)
        arr = arrangement_make(space(AFFINE, n, q), [])
        assert fixing_collineations(_Frame(arr, closure))[1] == q ** n * _gl(n, q)


# The braid arrangements x_i = x_j of AG(4,4) and AG(5,5).  Their
# universes, the points with n distinct coordinates, lie in
# x1 + ... + xn = 0 (the elements of GF(q) sum to 0), so more than the
# identity fixes each of their points.
BRAID_AG44 = ((1, 1, 0, 0, 0), (1, 0, 1, 0, 0), (1, 0, 0, 1, 0),
              (0, 1, 1, 0, 0), (0, 1, 0, 1, 0), (0, 0, 1, 1, 0))
BRAID_AG55 = ((1, 4, 0, 0, 0, 0), (1, 0, 4, 0, 0, 0), (1, 0, 0, 4, 0, 0),
              (1, 0, 0, 0, 4, 0), (0, 1, 4, 0, 0, 0), (0, 1, 0, 4, 0, 0),
              (0, 1, 0, 0, 4, 0), (0, 0, 1, 4, 0, 0), (0, 0, 1, 0, 4, 0),
              (0, 0, 0, 1, 4, 0))


# Group orders of instances the search meets, computed without a search.
# PGL(3,7) is transitive on line pairs and on non-concurrent line triples,
# so the stabilizers have order 5630688 / (57*56/2) = 3528 and
# 5630688 / (57*56*49/6) = 216.  The collineations that fix three
# concurrent lines one by one fix every line through their common point,
# 7^2 * 6 = 294 of them, times the 3! orders of the lines: 1764.  The braid
# arrangement of AG(3,5) with the plane at infinity keeps 2,000
# collineations that fix each plane and S3 on the three braid planes.
# AG(2,8), AG(2,9) and PG(2,9) get their whole collineation groups, which
# need the field automorphisms: 3 * 8^2 * |GL(2,8)|, 2 * 9^2 * |GL(2,9)|
# and 2 * |PGL(3,9)|.  The braid universes lie in a hyperplane, so their
# orders fall short of the closed form: braid AG(4,4), touching, has
# 6,912, the order sympy finds for its generators, 1/16 of the 110,592
# collineations that permute the hyperplanes (16 of them fix every point
# of the universe); braid AG(5,5), touching, 120 points, has 1,200,000,
# the order a Schreier-Sims chain over all of PG(5,5) gives as well.
PINNED_ORDERS = [
    (PROJECTIVE, 2, 7, ((1, 0, 0), (0, 1, 0)), "touching", 3528),
    (PROJECTIVE, 2, 7, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), "touching", 216),
    (PROJECTIVE, 2, 7, ((1, 0, 0), (0, 1, 0), (1, 1, 0)), "touching", 1764),
    (AFFINE, 3, 5, ((1, 4, 0, 0), (1, 0, 4, 0), (0, 1, 4, 0)), "touching", 12000),
    (AFFINE, 2, 8, (), "contained", 677376),
    (AFFINE, 2, 9, (), "contained", 933120),
    (PROJECTIVE, 2, 9, (), "contained", 84913920),
    (AFFINE, 4, 4, BRAID_AG44, "touching", 6912),
    (AFFINE, 5, 5, BRAID_AG55, "touching", 1200000),
]


@pytest.mark.parametrize("kind,n,q,rows,scope,order", PINNED_ORDERS)
def test_group_orders_are_pinned(kind, n, q, rows, scope, order):
    U, tmasks, fmasks, seeds = _masks(kind, n, q, rows=rows, scope=scope,
                                      nontrivial=True)
    stats = {}
    group = symmetry.automorphisms(seeds, tmasks, fmasks, stats)
    assert group.order == stats["order"] == order
    assert stats["generators"] == len(group.gens) > 0


def test_wide_braid_order_is_pinned():
    # braid AG(4,7), touching: 840 points that only the identity fixes
    # one by one, so the order is the closed form, 6^2 * 7^4 * 4!: the
    # collineations that fix each hyperplane (two components, the braid
    # forms and the one at infinity), times S4 on the coordinates.  The
    # forbidden masks are left out, 112,484 of them under nontrivial
    sp = space(AFFINE, 4, 7)
    U, tmasks, _, seeds = _masks(AFFINE, 4, 7, rows=braid_arrangement(sp).forms,
                                 scope="touching")
    stats = {}
    group = symmetry.automorphisms(seeds, tmasks, (), stats)
    assert group.order == stats["order"] == 2074464 == 6 ** 2 * 7 ** 4 * 24
    assert U == 840


def _drawn(data, spaces, max_forms):
    """A drawn instance from one of the spaces (kind, n, q), with 0 to
    max_forms forms, as (inst, tmasks, fmasks, forbidden masks): fmasks are
    the forbidden masks in force under the drawn convention.  None when a
    form repeats or the family is empty."""
    kind, n, q = data.draw(st.sampled_from(spaces))
    nvars = n + 1 if kind == PROJECTIVE else n
    rows = data.draw(st.lists(
        st.lists(st.integers(0, q - 1), min_size=n + 1, max_size=n + 1)
        .filter(lambda r: any(r[:nvars])), min_size=0, max_size=max_forms))
    t = data.draw(st.integers(1, n))
    scope = data.draw(st.sampled_from(["contained", "touching"]))
    convention = data.draw(st.sampled_from(["plain", "minimal", "nontrivial"]))
    sp = space(kind, n, q)
    try:
        inst = build_instance(sp, arrangement_make(sp, rows), t, scope)
    except BlocksetsError:
        return None  # a repeated or degenerate hyperplane
    if not inst.family:
        return None
    tmasks = solver._build_masks(inst.universe, inst.family)
    forbidden = solver._build_masks(inst.universe, inst.forbidden)
    return inst, tmasks, forbidden if convention == "nontrivial" else [], forbidden


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.data())
def test_group_order_is_the_order_its_generators_span(data):
    drawn = _drawn(data, [(kind, n, q) for kind in (PROJECTIVE, AFFINE)
                          for n in (2, 3) for q in (2, 3, 4, 5)], 3)
    if drawn is None:
        return
    inst, tmasks, fmasks, _ = drawn
    stats = {}
    group = symmetry.automorphisms(blocking._seeds(inst), tmasks, fmasks, stats)
    if group is None:
        assert (stats["order"], stats["generators"]) == (1, 0)
        return
    assert _sympy_order(group.gens) == group.order == stats["order"]
    assert all(_maps_onto(g, tmasks) and _maps_onto(g, fmasks)
               for g in group.gens)


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.data())
def test_group_order_matches_the_collineation_reference(data):
    # every collineation of the closure that maps the hyperplanes, the one
    # at infinity included in AG, onto themselves, restricted to the
    # universe: the group is all of them, with no more or fewer
    drawn = _drawn(data, [(PROJECTIVE, 2, 2), (PROJECTIVE, 2, 3),
                          (PROJECTIVE, 2, 4), (AFFINE, 2, 2), (AFFINE, 2, 3),
                          (AFFINE, 2, 4), (PROJECTIVE, 3, 2)], 4)
    if drawn is None:
        return
    inst, tmasks, fmasks, forbidden = drawn
    group = symmetry.automorphisms(blocking._seeds(inst), tmasks, fmasks)
    order = group.order if group else 1
    assert order == restricted_order(inst.space, inst.arrangement.forms,
                                     inst.universe)
    for g in group.gens if group else ():
        assert _maps_onto(g, tmasks) and _maps_onto(g, forbidden)


def test_a_seed_that_is_no_automorphism_is_a_fault(monkeypatch):
    # swapping two points of PG(2,3) maps some line off the lines; the
    # swap stands in for the collineations of the empty arrangement
    U, tmasks, _, seeds = _masks(PROJECTIVE, 2, 3)
    swap = (1, 0) + tuple(range(2, U))
    monkeypatch.setattr(symmetry, "collineations",
                        lambda arr, points=None: ([swap], 2))
    with pytest.raises(InternalError):
        symmetry.automorphisms(seeds, tmasks, ())


def test_each_mask_set_is_checked_once_and_still_checked(monkeypatch):
    # at t = n - t the forbidden masks are the family's: the group is the
    # one of the family alone, and a swap that fails the family still
    # raises; a forbidden set that differs is checked on its own
    U, tmasks, fmasks, seeds = _masks(PROJECTIVE, 2, 3, nontrivial=True)
    assert fmasks == tmasks
    checked = []
    real = symmetry._preserves
    monkeypatch.setattr(symmetry, "_preserves", lambda g, mask_sets: (
        checked.append(len(mask_sets)) or real(g, mask_sets)))
    assert symmetry.automorphisms(seeds, tmasks, fmasks).order == _pgaml(2, 3)
    assert checked and set(checked) == {1}
    with pytest.raises(InternalError):  # the group moves the first line
        symmetry.automorphisms(seeds, tmasks, tmasks[:1])
    assert checked[-1] == 2
    swap = (1, 0) + tuple(range(2, U))
    monkeypatch.setattr(symmetry, "collineations",
                        lambda arr, points=None: ([swap], 2))
    with pytest.raises(InternalError):
        symmetry.automorphisms(seeds, tmasks, fmasks)


def test_a_hyperplane_universe_seed_that_is_no_automorphism_is_a_fault(monkeypatch):
    # the same on braid AG(4,4), touching, whose universe lies in a
    # hyperplane: a swap of its first two points, and a map that takes its
    # first point off the universe (an image of -1), each stand in for the
    # collineations of the arrangement
    U, tmasks, _, seeds = _masks(AFFINE, 4, 4, rows=BRAID_AG44, scope="touching")
    for g in ((1, 0) + tuple(range(2, U)), (-1,) + tuple(range(1, U))):
        monkeypatch.setattr(symmetry, "collineations",
                            lambda arr, points, g=g: ([g], 110592))
        with pytest.raises(InternalError):
            symmetry.automorphisms(seeds, tmasks, ())


@pytest.mark.parametrize("factor", [2, 3, 7])
def test_schreier_sims_completes_under_an_order_above_the_groups(factor):
    # the order is only an upper bound: AG(2,3)'s group, 432, still gets
    # its complete chain when handed a multiple of it
    U, tmasks, _, seeds = _masks(AFFINE, 2, 3)
    group = symmetry.automorphisms(seeds, tmasks, [])
    assert group.order == 432
    base, strong, trans = symmetry.schreier_sims(group.gens, U, factor * 432)
    assert prod(len(t) for t in trans) == 432


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_schreier_lemma_completes_the_chain(data):
    # with no walk elements first (quiet = 0) the chain is complete by the
    # test alone, and the walk only decides how soon: either way drawn
    # groups on up to 10 points, handed n! as the bound, get sympy's order
    n = data.draw(st.integers(2, 10))
    gens = data.draw(st.lists(st.permutations(range(n)).map(tuple),
                              min_size=1, max_size=3))
    gens = [g for g in gens if g != tuple(range(n))]
    if not gens:
        return
    prefix = data.draw(st.sampled_from([(), (0,)]))
    quiet = data.draw(st.sampled_from([0, symmetry._QUIET]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symmetry, "_QUIET", quiet)
        base, strong, trans = symmetry.schreier_sims(gens, n, prod(range(1, n + 1)),
                                                     prefix)
    assert base[:len(prefix)] == list(prefix)
    assert prod(len(t) for t in trans) == _sympy_order(gens)


def test_schreier_sims_finds_the_order_below_the_closed_form():
    # braid AG(4,4), touching: the closed form of the collineations that
    # permute its hyperplanes is 110,592, their action on the universe 6,912
    U, tmasks, _, (arr, universe) = _masks(AFFINE, 4, 4, rows=BRAID_AG44,
                                           scope="touching")
    sp = arr.space
    gens, bound = symmetry.collineations(arr, [sp.points[p] + (1,) for p in universe])
    assert bound == 110592
    ident = tuple(range(U))
    restricted = [g for g in gens if g != ident]
    base, strong, trans = symmetry.schreier_sims(restricted, U, bound)
    assert prod(len(t) for t in trans) == 6912 == _sympy_order(restricted)


# Universes past 16 points are searched under this cap (answers above it
# read as "none within the cap" on every route), so that no draw runs long.
CAP = 5


@st.composite
def _instances(draw):
    kind = draw(st.sampled_from([PROJECTIVE, AFFINE]))
    n = draw(st.integers(2, 3))
    q = draw(st.sampled_from([2, 3, 4, 5]))
    nvars = n + 1 if kind == PROJECTIVE else n
    rows = draw(st.lists(
        st.lists(st.integers(0, q - 1), min_size=n + 1, max_size=n + 1)
        .filter(lambda r: any(r[:nvars])),
        min_size=1, max_size=4))
    t = draw(st.integers(1, n))
    scope = draw(st.sampled_from(["contained", "touching"]))
    convention = draw(st.sampled_from(["plain", "minimal", "nontrivial"]))
    return kind, n, q, rows, t, scope, convention


@settings(deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_instances())
def test_orbital_search_reaches_the_plain_optimum(case):
    kind, n, q, rows, t, scope, convention = case
    sp = space(kind, n, q)
    try:
        arr = arrangement_make(sp, [tuple(r) for r in rows])
    except BlocksetsError:
        return  # a repeated or degenerate hyperplane
    inst = build_instance(sp, arr, t, scope)
    if not inst.family:
        return
    U = len(inst.universe)
    tmasks = solver._build_masks(inst.universe, inst.family)
    fmasks = []
    if convention == "nontrivial":
        fmasks = solver._build_masks(inst.universe, inst.forbidden)
    cover = solver._cover_masks(len(tmasks), tmasks, U)
    forb_at = [tuple(fi for fi, f in enumerate(fmasks) if f >> p & 1)
               for p in range(U)] if fmasks else None
    cap = U if U <= 16 else CAP
    group = symmetry.state_group(
        symmetry.automorphisms(blocking._seeds(inst), tmasks, fmasks))
    inst = (tmasks, cover, fmasks, forb_at, U)
    plain = solver._search(inst, [(0, 0, 0, 0, None, None, 0)],
                           cap + 1, None, False)
    orbital = solver._search(inst, [(0, 0, 0, 0, group, None, 0)],
                             cap + 1, None, False)
    assert orbital[0] == plain[0]
    assert orbital[2] <= plain[2] or group is None
    if orbital[1] is not None:
        found = orbital[1]
        cov = 0
        for p in solver._mask_bits(found):
            cov |= cover[p]
        assert cov == (1 << len(tmasks)) - 1
        assert not any(f & found == f for f in fmasks)
    if U <= solver.ORACLE_FULL_CAP:
        size, _w, _n = solver.oracle_masks(U, tmasks, fmasks, size_cap=cap)
        assert (size if size is not None else cap + 1) == orbital[0]


class _Recorder(list):
    """A search stack that keeps every state pushed onto it, and each
    pushed state with the state popped last, its parent."""

    def __init__(self, states):
        super().__init__(states)
        self.pushed = list(states)
        self.parent = None
        self.children = []

    def pop(self):
        self.parent = super().pop()
        return self.parent

    def append(self, state):
        self.pushed.append(state)
        self.children.append((self.parent, state))
        super().append(state)


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_instances())
def test_every_pushed_group_fixes_inc_and_maps_exc_onto_itself(case):
    # the invariant the orbit rule rests on: a state's group fixes each of
    # its included points and maps its excluded set onto itself
    kind, n, q, rows, t, scope, convention = case
    sp = space(kind, n, q)
    try:
        arr = arrangement_make(sp, [tuple(r) for r in rows])
    except BlocksetsError:
        return  # a repeated or degenerate hyperplane
    inst = build_instance(sp, arr, t, scope)
    if not inst.family:
        return
    U = len(inst.universe)
    tmasks = solver._build_masks(inst.universe, inst.family)
    fmasks = []
    if convention == "nontrivial":
        fmasks = solver._build_masks(inst.universe, inst.forbidden)
    cover = solver._cover_masks(len(tmasks), tmasks, U)
    forb_at = [tuple(fi for fi, f in enumerate(fmasks) if f >> p & 1)
               for p in range(U)] if fmasks else None
    group = symmetry.state_group(
        symmetry.automorphisms(blocking._seeds(inst), tmasks, fmasks))
    stack = _Recorder([(0, 0, 0, 0, group, None, 0)])
    solver._search((tmasks, cover, fmasks, forb_at, U), stack,
                   (U if U <= 16 else CAP) + 1, None, False)
    for inc, exc, _cov, _k, grp, _cnt, _pcov in stack.pushed:
        if grp is None:
            continue
        inc_pts = [x for x in range(U) if inc >> x & 1]
        exc_pts = [x for x in range(U) if exc >> x & 1]
        for g in _actual_gens(grp, U):
            assert all(g[x] == x for x in inc_pts)
            assert sorted(g[x] for x in exc_pts) == exc_pts


def test_group_nodes_branch_on_a_trace_of_fewest_orbits():
    # PG(2,7) minus two lines, group order 3528: a node at need >= 3 whose
    # group has two or more orbits among its undecided points branches on
    # its first uncovered trace whose undecided points meet the fewest of
    # them, then are fewest, so every child it pushes includes a point of
    # that trace; a need-2 node's children lie on every uncovered trace.
    # The group's orbit of x is H's orbit of v(x).  On at least one node the
    # first trace of fewest points meets more orbits.
    U, tmasks, _fmasks, seeds = _masks(PROJECTIVE, 2, 7, rows=((1, 0, 0), (0, 1, 0)),
                                       scope="touching")
    F = len(tmasks)
    cover = solver._cover_masks(F, tmasks, U)
    group = symmetry.automorphisms(seeds, tmasks, [])
    assert group.order == 3528
    stack = _Recorder([(0, 0, 0, 0, symmetry.state_group(group), None, 0)])
    size = solver.solve_masks(U, tmasks, [])[0]
    assert solver._search((tmasks, cover, [], None, U), stack, size + 1,
                          None, False)[0] == size
    checked = moved = 0
    for parent, child in stack.children:
        inc, exc, cov, _k, grp = parent[:5]
        if grp is None:
            continue
        H, v = grp
        und = ((1 << U) - 1) & ~(inc | exc)
        opts = [tmasks[ti] & und for ti in range(F) if not cov >> ti & 1]

        def orbits(m):
            return len({H.orbit_of[v[x]] for x in range(U) if m >> x & 1})

        if orbits(und) < 2:
            continue
        sel = min(opts, key=lambda m: (orbits(m), m.bit_count()))
        assert (child[0] ^ inc) & sel  # the child's point lies on sel
        checked += 1
        moved += sel != min(opts, key=int.bit_count)
    assert checked and moved


# A search cut at L units of work (nodes popped plus children closed at
# their parent) leaves its open subtrees on the stack; finishing each of
# them on its own must visit exactly the nodes the uncut run visits.  The
# incumbent is the optimum from the start, so no prune depends on the
# order in which the subtrees run.
RESUME_LIMITS = (1, 7, 50, 300)


def _check_resume(U, tmasks, fmasks, seeds, cap):
    cover = solver._cover_masks(len(tmasks), tmasks, U)
    forb_at = [tuple(fi for fi, f in enumerate(fmasks) if f >> p & 1)
               for p in range(U)] if fmasks else None
    inst = (tmasks, cover, fmasks, forb_at, U)
    orbital = symmetry.state_group(symmetry.automorphisms(seeds, tmasks, fmasks))
    opt = solver._search(inst, [(0, 0, 0, 0, None, None, 0)],
                         cap + 1, None, False)[0]
    for group in (None, orbital):
        whole = solver._search(inst, [(0, 0, 0, 0, group, None, 0)],
                               opt, None, False)
        assert whole[1] is None and whole[3] is None
        for limit in RESUME_LIMITS:
            stack = [(0, 0, 0, 0, group, None, 0)]
            cut = solver._search(inst, stack, opt, None, False, limit=limit)
            assert cut[3] == (solver.LIMIT if stack else None)
            # the limit is checked before each pop, and one pop adds itself
            # and at most one closed child per point
            work = cut[2] + cut[6]
            if stack:
                assert limit <= work <= limit + U
            else:
                assert (cut[2], cut[6]) == (whole[2], whole[6])
            rest = [solver._search(inst, [state], opt, None, False)
                    for state in stack]
            assert all(r[1] is None and r[3] is None for r in rest)
            assert cut[2] + sum(r[2] for r in rest) == whole[2]
            assert cut[4] + sum(r[4] for r in rest) == whole[4]
            assert cut[6] + sum(r[6] for r in rest) == whole[6]


@pytest.mark.parametrize("kind,n,q,rows,scope,nontrivial", [
    (PROJECTIVE, 2, 4, (), "contained", True),
    (AFFINE, 2, 4, (), "contained", False),
    (PROJECTIVE, 2, 5, ((1, 0, 0),), "touching", True),
    (AFFINE, 3, 3, ((1, 1, 0, 0),), "touching", False),
])
def test_resumed_search_visits_the_uncut_nodes(kind, n, q, rows, scope, nontrivial):
    U, tmasks, fmasks, seeds = _masks(kind, n, q, rows=rows, scope=scope,
                                      nontrivial=nontrivial)
    _check_resume(U, tmasks, fmasks, seeds, U)


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_instances())
def test_resumed_search_visits_the_uncut_nodes_on_drawn_instances(case):
    kind, n, q, rows, t, scope, convention = case
    sp = space(kind, n, q)
    try:
        arr = arrangement_make(sp, [tuple(r) for r in rows])
    except BlocksetsError:
        return  # a repeated or degenerate hyperplane
    inst = build_instance(sp, arr, t, scope)
    if not inst.family:
        return
    U = len(inst.universe)
    tmasks = solver._build_masks(inst.universe, inst.family)
    fmasks = []
    if convention == "nontrivial":
        fmasks = solver._build_masks(inst.universe, inst.forbidden)
    _check_resume(U, tmasks, fmasks, blocking._seeds(inst),
                  U if U <= 16 else CAP)
