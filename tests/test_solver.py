"""The solver's mask primitives, greedy incumbent and subset oracle, each
checked against a plain reference on drawn masks, and wide instances with
pinned node counts."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksets import solver
from blocksets.arrangement import arrangement_make
from blocksets.blocking import build_instance, min_blocking_set
from blocksets.geometry import AFFINE, PROJECTIVE, enumerate_flats, space


def peel_bits(mask):
    """Reference listing: peel the lowest set bit off until none is left."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def reference_cover(trace_masks, npoints):
    """Point p's cover mask by definition: bit ti is set when trace ti
    holds p."""
    return [sum(1 << ti for ti, m in enumerate(trace_masks) if m >> p & 1)
            for p in range(npoints)]


def reference_greedy(trace_masks, cover, forb_masks, forb_at, npoints):
    """The full-scan greedy: every step scores every point and adds the
    lowest one of largest gain that completes no forbidden trace; then one
    minimalization pass, highest point first."""
    full = (1 << len(trace_masks)) - 1
    inc = cov = 0
    while cov != full:
        best_gain, best_p = 0, None
        for p in range(npoints):
            if inc >> p & 1:
                continue
            if forb_at and any(f & (inc | 1 << p) == f
                               for f in (forb_masks[fi] for fi in forb_at[p])):
                continue
            gain = (cover[p] & ~cov).bit_count()
            if gain > best_gain:
                best_gain, best_p = gain, p
        if best_p is None:
            return None
        inc |= 1 << best_p
        cov |= cover[best_p]
    for p in reversed(peel_bits(inc)):
        trimmed = inc & ~(1 << p)
        if union_cover(cover, trimmed) == full:
            inc = trimmed
    return inc


def union_cover(cover, inc):
    c = 0
    for p in peel_bits(inc):
        c |= cover[p]
    return c


def masks_of_width(width):
    """Dense masks, and sparse ones built from a few set positions."""
    dense = st.integers(0, (1 << width) - 1)
    if not width:
        return dense
    sparse = st.sets(st.integers(0, width - 1), max_size=40).map(
        lambda bits: sum(1 << b for b in bits))
    return st.one_of(dense, sparse)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 9000).flatmap(masks_of_width))
def test_mask_bits_matches_peeling(mask):
    assert solver._mask_bits(mask) == peel_bits(mask)


def test_mask_bits_across_byte_boundaries():
    for width in range(0, 70):
        full = (1 << width) - 1
        assert solver._mask_bits(full) == list(range(width))
        assert solver._mask_bits(1 << width) == [width]
        assert solver._mask_bits(full ^ (1 << width // 2)) == peel_bits(
            full ^ (1 << width // 2))


@st.composite
def instances(draw, max_points=30, max_traces=40):
    """(npoints, trace_masks, forb_masks): nonzero masks over the points;
    the forbidden list may be empty."""
    npoints = draw(st.integers(1, max_points))
    mask = st.integers(1, (1 << npoints) - 1)
    traces = draw(st.lists(mask, min_size=1, max_size=max_traces, unique=True))
    forb = draw(st.lists(mask, max_size=8, unique=True))
    return npoints, traces, forb


@settings(max_examples=200, deadline=None)
@given(instances(max_points=90, max_traces=120))
def test_cover_masks_match_definition(inst):
    npoints, traces, _forb = inst
    assert solver._cover_masks(len(traces), traces, npoints) == \
        reference_cover(traces, npoints)
    assert solver._cover_masks(0, [], npoints) == [0] * npoints


@settings(max_examples=300, deadline=None)
@given(instances())
def test_lazy_greedy_matches_full_scan(inst):
    npoints, traces, forb = inst
    cover = reference_cover(traces, npoints)
    forb_at = [tuple(fi for fi, f in enumerate(forb) if f >> p & 1)
               for p in range(npoints)] if forb else None
    args = (traces, cover, forb, forb_at, npoints)
    assert solver._greedy_incumbent(*args) == reference_greedy(*args)


@st.composite
def uneven_instances(draw):
    """(U, trace_masks, forb_masks, size_cap) with U up to 16 and no
    geometry: a few hub points lie on many traces and the rest on few, so
    point degrees are uneven.  The forbidden list may be empty and the cap
    may be absent."""
    U = draw(st.integers(1, 16))
    point = st.integers(0, U - 1)
    hubs = sorted(draw(st.sets(point, max_size=3)))
    hub = st.sets(st.sampled_from(hubs)) if hubs else st.just(set())
    trace = st.tuples(st.sets(point, min_size=1, max_size=4), hub).map(
        lambda t: sum(1 << b for b in t[0] | t[1]))
    traces = draw(st.lists(trace, min_size=1, max_size=24))
    forb_mask = st.sets(point, min_size=1, max_size=3).map(
        lambda bits: sum(1 << b for b in bits))
    forb = draw(st.one_of(st.just([]), st.lists(forb_mask, max_size=6)))
    cap = draw(st.one_of(st.none(), st.integers(0, U)))
    return U, traces, forb, cap


@settings(max_examples=500, deadline=None)
@given(uneven_instances())
def test_search_matches_oracle_on_uneven_degrees(inst):
    """The counting bound sums the largest degrees, and a parent closes a
    child past that sum: both prune soundly only if each sum takes enough
    degrees, which uneven degrees expose."""
    U, traces, forb, cap = inst
    size, witness, _nodes = solver.solve_masks(U, traces, forb, size_cap=cap)
    want, want_witness, _checked = solver.oracle_masks(U, traces, forb,
                                                       size_cap=cap)
    assert (size, witness) == (want, want_witness)


class _Recorder(list):
    """A search stack that pairs every state pushed onto it with the state
    popped last, its parent."""

    def __init__(self, states):
        super().__init__(states)
        self.parent = None
        self.children = []

    def pop(self):
        self.parent = super().pop()
        return self.parent

    def append(self, state):
        self.children.append((self.parent, state))
        super().append(state)


def degrees(cover, state, U, rem):
    """The degrees of a state's undecided points over the traces in rem,
    largest first."""
    inc, exc = state[:2]
    und = ((1 << U) - 1) & ~(inc | exc)
    return sorted(((cover[p] & rem).bit_count() for p in peel_bits(und)),
                  reverse=True)


@settings(max_examples=300, deadline=None)
@given(uneven_instances(), st.integers(1, 8))
def test_root_pushes_exactly_the_children_that_can_open(inst, best0):
    """A looser test of which children open changes no answer, only the
    work: so pin it at the root, where every degree is a point's number of
    traces.  An open root branches on its lowest trace of fewest points, in
    order of falling degree, and pushes exactly the children whose
    uncovered traces, F minus the point's degree, fit the sum of its need -
    2 largest degrees (need = best0 here); the others close at the root,
    counted apart from the nodes."""
    U, traces, _forb, _cap = inst
    F = len(traces)
    cover = solver._cover_masks(F, traces, U)
    stack = [(0, 0, 0, 0, None)]
    out = solver._search((traces, cover, [], None, U), stack, best0, None,
                         False, limit=1)
    want = []
    branched = 0
    if not reference_node_closes(traces, cover, 0, 0, 0, best0, U):
        sel = min(range(F), key=lambda ti: (traces[ti].bit_count(), ti))
        pts = sorted(peel_bits(traces[sel]),
                     key=lambda p: (-cover[p].bit_count(), p))
        fit = sum(degrees(cover, (0, 0), U, (1 << F) - 1)[:best0 - 2])
        want = [p for p in pts if F - cover[p].bit_count() <= fit]
        branched = len(pts)
    assert [state[0] for state in reversed(stack)] == [1 << p for p in want]
    assert (out[2], out[6]) == (1, branched - len(want))


@settings(max_examples=300, deadline=None)
@given(uneven_instances())
def test_no_pushed_child_closes_on_its_parents_counting_bound(inst):
    """Every state the bound phase pushes has at most as many uncovered
    traces as its parent's need - 2 largest degrees sum to, so none closes
    as soon as it is popped; and the answers and witnesses stay the
    oracle's.  The search starts from the optimum (or the cap + 1), so need
    is best0 - k at every node."""
    U, traces, forb, cap = inst
    want = solver.oracle_masks(U, traces, forb, size_cap=cap)
    assert solver.solve_masks(U, traces, forb, size_cap=cap)[:2] == want[:2]
    F = len(traces)
    full = (1 << F) - 1
    cover = solver._cover_masks(F, traces, U)
    forb_at = [tuple(fi for fi, f in enumerate(forb) if f >> p & 1)
               for p in range(U)] if forb else None
    top = U if cap is None else min(cap, U)
    best0 = top + 1 if want[0] is None else want[0]
    stack = _Recorder([(0, 0, 0, 0, None)])
    out = solver._search((traces, cover, forb, forb_at, U), stack, best0,
                         None, False)
    assert out[1] is None
    for parent, child in stack.children:
        rem = full ^ parent[2]
        need = best0 - parent[3]
        assert (full ^ child[2]).bit_count() <= \
            sum(degrees(cover, parent, U, rem)[:need - 2])


@st.composite
def search_nodes(draw):
    """(U, trace_masks, inc, exc, k, best0): traces of at most four points,
    so packings of several traces occur, and one search state over them
    whose included and excluded points are drawn freely, so dead traces
    occur too.  Wide draws have more traces than points and take the
    jumps; narrow ones have at most as many traces as points, so no more
    uncovered traces than undecided points.  About half the draws have
    need = best0 - k in {0, 1, 2}, where the node is settled by whether one
    undecided point lies on every uncovered trace; the rest run the
    counting bound before the scan."""
    U = draw(st.integers(3, 12))
    point = st.integers(0, U - 1)
    trace = st.sets(point, min_size=1, max_size=4).map(
        lambda bits: sum(1 << b for b in bits))
    if draw(st.booleans()):
        most = min(3 * U, sum(comb(U, i) for i in range(1, 5)))
        traces = draw(st.lists(trace, min_size=U + 1, max_size=most, unique=True))
    else:
        traces = draw(st.lists(trace, min_size=1, max_size=U, unique=True))
    role = draw(st.lists(st.sampled_from("ixuuu"), min_size=U, max_size=U))
    inc = sum(1 << p for p, r in enumerate(role) if r == "i")
    exc = sum(1 << p for p, r in enumerate(role) if r == "x")
    k = draw(st.integers(0, U))
    need = draw(st.one_of(st.integers(0, 2), st.integers(1, U + 2)))
    return U, traces, inc, exc, k, k + need


def reference_node_closes(traces, cover, inc, exc, k, best0, U):
    """Whether a search node with these included and excluded points, k
    points counted and incumbent best0 pushes no child: it is a cover, an
    uncovered trace has no undecided point, a first-fit packing over every
    uncovered trace in index order gets to need = best0 - k disjoint
    traces, or need - 1 points cannot cover the uncovered traces even
    with the largest degrees."""
    cov = union_cover(cover, inc)
    rem = [ti for ti in range(len(traces)) if not cov >> ti & 1]
    if not rem:
        return True
    und = ((1 << U) - 1) & ~(inc | exc)
    if any(not traces[ti] & und for ti in rem):
        return True
    need = best0 - k
    acc = pack = 0
    for ti in rem:
        if not traces[ti] & und & acc:
            acc |= traces[ti] & und
            pack += 1
    if pack >= need:
        return True
    rem_mask = sum(1 << ti for ti in rem)
    degs = sorted(((cover[p] & rem_mask).bit_count() for p in peel_bits(und)),
                  reverse=True)
    return sum(degs[:need - 1]) < len(rem)


@settings(max_examples=1000, deadline=None)
@given(search_nodes())
def test_node_closes_exactly_on_the_stated_bounds(node):
    """One node, whichever test it runs first, closes on a dead trace, on
    the index-order first-fit packing or on the counting bound, and on
    nothing else: a node that the reference keeps open pushes children."""
    U, traces, inc, exc, k, best0 = node
    cover = solver._cover_masks(len(traces), traces, U)
    stack = [(inc, exc, union_cover(cover, inc), k, None)]
    solver._search((traces, cover, [], None, U), stack, best0, None, False,
                   limit=1)
    assert (stack == []) == reference_node_closes(traces, cover, inc, exc, k,
                                                  best0, U)


def plane_lines(kind, q):
    sp = space(kind, 2, q)
    return sp.npoints, [sum(1 << p for p in fl.points)
                        for fl in enumerate_flats(sp, 1)]


# the Fano plane (7 points, 7 lines) and AG(2,3) (9 points, 12 lines)
PLANES = [plane_lines(PROJECTIVE, 2), plane_lines(AFFINE, 3)]


def test_plane_nodes_close_exactly_on_the_stated_bounds():
    """The same closure on the lines of a small plane, with at most one
    line left out, at every need from 0 to U + 2: the root, and each node
    with one point included or excluded.  Any two Fano lines meet, so at
    the root with need 3 no packing closes the node and only the counting
    bound does (two largest degrees 3 + 3 < 7 lines); a draw of random
    traces seldom gives such a node."""
    for U, lines in PLANES:
        for drop in [None] + lines:
            traces = [m for m in lines if m != drop]
            cover = solver._cover_masks(len(traces), traces, U)
            states = [(0, 0)] + [(1 << p, 0) for p in range(U)] + \
                [(0, 1 << p) for p in range(U)]
            for inc, exc in states:
                k = inc.bit_count()
                for need in range(U + 3):
                    stack = [(inc, exc, union_cover(cover, inc), k, None)]
                    solver._search((traces, cover, [], None, U), stack,
                                   k + need, None, False, limit=1)
                    assert (stack == []) == reference_node_closes(
                        traces, cover, inc, exc, k, k + need, U)


# Wide Bose-Burton rows: the minimum blocking set of the (n-t)-flats of
# PG(n,q) is a t-flat.  Thousands of traces, few nodes: these pin the
# search's per-node work on wide instances (trace scan, bounds, branching
# order), which the narrow pinned rows of test_blocking.py barely test.
WIDE_PINNED = [
    # n, q, t, size, nodes
    (3, 5, 2, 31, 31),
    (3, 7, 2, 57, 57),
    (3, 9, 2, 91, 91),
    (4, 3, 2, 13, 863),
    (4, 3, 3, 40, 49),
]


@pytest.mark.parametrize("n,q,t,size,nodes", WIDE_PINNED,
                         ids=["pg%d-%d.t%d" % row[:3] for row in WIDE_PINNED])
def test_wide_bose_burton_node_counts_are_pinned(n, q, t, size, nodes):
    sp = space(PROJECTIVE, n, q)
    inst = build_instance(sp, arrangement_make(sp, []), t, "contained")
    res = min_blocking_set(inst)
    assert (res.verdict, res.size, res.nodes) == ("exists", size, nodes)
    assert size == (q ** (t + 1) - 1) // (q - 1)


# Affine rows whose witness phase takes a large share of the nodes, most
# of them on AG(4,3) closed by the need-2 test.  Their counts without
# orbital branching are too large to run, so they are pinned here and not
# beside PINNED_NODES in test_blocking.py.  The minimum is Jamison's
# n(q - 1) + 1.
WITNESS_PINNED = [
    # n, q, size, nodes, witness-phase nodes
    (3, 4, 10, 8818, 2679),
    (4, 3, 9, 21285, 17722),
]


@pytest.mark.parametrize("n,q,size,nodes,witness_nodes", WITNESS_PINNED,
                         ids=["ag%d-%d" % row[:2] for row in WITNESS_PINNED])
def test_witness_heavy_node_counts_are_pinned(n, q, size, nodes, witness_nodes):
    sp = space(AFFINE, n, q)
    res = min_blocking_set(build_instance(sp, arrangement_make(sp, []), 1,
                                          "contained"))
    assert (res.verdict, res.size, res.nodes, res.witness_nodes) == \
        ("exists", size, nodes, witness_nodes)
    assert size == n * (q - 1) + 1


def reference_oracle(universe_size, trace_masks, forb_masks, size_cap=None):
    """Every subset in turn, sizes ascending and each size in lexicographic
    order, each one's cover rebuilt from scratch; subsets_checked counts
    them up to and including the hit."""
    U = universe_size
    cap = U if size_cap is None else min(size_cap, U)
    cover = reference_cover(trace_masks, U)
    full = (1 << len(trace_masks)) - 1
    checked = 0
    for k in range(1, cap + 1):
        for combo in combinations(range(U), k):
            checked += 1
            cov = 0
            pm = 0
            for p in combo:
                cov |= cover[p]
                pm |= 1 << p
            if cov != full:
                continue
            if forb_masks and any(f & pm == f for f in forb_masks):
                continue
            return k, pm, checked
    return None, None, checked


@st.composite
def oracle_instances(draw):
    """(U, trace_masks, forb_masks, size_cap) with U from 0 to 14; traces
    may be empty or repeat, the forbidden list may be empty, and the cap
    may be absent."""
    U = draw(st.integers(0, 14))
    mask = st.integers(0, (1 << U) - 1)
    small = st.sets(st.integers(0, max(U - 1, 0)), max_size=4).map(
        lambda bits: sum(1 << b for b in bits) & ((1 << U) - 1))
    trace = st.one_of(mask, small)
    traces = draw(st.lists(trace, max_size=24))
    if traces and draw(st.booleans()):
        traces.append(draw(st.sampled_from(traces)))  # a duplicate
    forb = draw(st.one_of(st.just([]), st.lists(st.one_of(small, mask),
                                                max_size=10)))
    cap = draw(st.one_of(st.none(), st.integers(0, U + 1)))
    return U, traces, forb, cap


@settings(max_examples=600, deadline=None)
@given(oracle_instances())
def test_oracle_walk_matches_subset_loop(inst):
    U, traces, forb, cap = inst
    assert solver.oracle_masks(U, traces, forb, size_cap=cap) == \
        reference_oracle(U, traces, forb, size_cap=cap)


def test_oracle_walk_on_geometric_instances():
    """Whole planes, where every skip rule fires: PG(2,3) nontrivial (a
    hit after skipped subtrees), PG(2,2) nontrivial (no hit: every subset
    counted) and AG(2,3) under a cap below the minimum."""
    for kind, n, q, forb, cap in [(PROJECTIVE, 2, 3, True, None),
                                  (PROJECTIVE, 2, 2, True, None),
                                  (AFFINE, 2, 3, False, 3)]:
        sp = space(kind, n, q)
        inst = build_instance(sp, arrangement_make(sp, []), 1, "contained")
        pos = {p: i for i, p in enumerate(inst.universe)}
        tm = [sum(1 << pos[p] for p in tr) for tr in inst.family]
        fm = [sum(1 << pos[p] for p in tr) for tr in inst.forbidden] if forb else []
        U = len(inst.universe)
        assert solver.oracle_masks(U, tm, fm, size_cap=cap) == \
            reference_oracle(U, tm, fm, size_cap=cap)

