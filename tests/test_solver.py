"""The solver's mask primitives, greedy incumbent and subset oracle, each
checked against a plain reference on drawn masks, and wide instances with
pinned node counts."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
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


def reference_masks(universe, traces):
    """One mask per distinct trace, first occurrence first, each the OR of
    its points' bits."""
    pos = {p: i for i, p in enumerate(universe)}
    masks = []
    for tr in traces:
        m = 0
        for p in tr:
            m |= 1 << pos[p]
        if m not in masks:
            masks.append(m)
    return masks


@st.composite
def normalized_traces(draw):
    """(universe, traces): sorted traces of distinct universe points, some
    of them repeated; the universe is any increasing list of indices."""
    universe = sorted(draw(st.sets(st.integers(0, 300), min_size=1, max_size=40)))
    trace = st.sets(st.sampled_from(universe), max_size=12).map(
        lambda pts: tuple(sorted(pts)))
    distinct = draw(st.lists(trace, min_size=1, max_size=12))
    traces = draw(st.lists(st.sampled_from(distinct), max_size=30))
    return universe, traces


@settings(max_examples=200, deadline=None)
@example(((2, 5, 7, 11), [(5, 7), (2,), (5, 7), (2, 11), (2,), (7,)]))
@given(normalized_traces())
def test_build_masks_keep_the_first_of_equal_traces(drawn):
    universe, traces = drawn
    assert solver._build_masks(universe, traces) == \
        reference_masks(universe, traces)


def _pg34_lines():
    """(85, the masks of PG(3,4)'s 357 lines, []): neither count is a
    multiple of 8, and the traces outnumber the drawn ones."""
    sp = space(PROJECTIVE, 3, 4)
    lines = [fl.points for fl in enumerate_flats(sp, 1)]
    return sp.npoints, solver._build_masks(range(sp.npoints), lines), []


@settings(max_examples=200, deadline=None)
@example((11, [0b10000000001, 0b111, 0b11111111000, 0b1010], []))
@example((13, [1 << p | 1 << (12 - p) for p in range(9)], []))
@example(_pg34_lines())
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
# need 2: trace 0 has three points, trace 1 two, and point 0 covers both;
# the root branches on trace 0 and closes the children of 1 and 2 at it
@example((4, [0b0111, 0b1001], [], None), 2)
def test_root_pushes_exactly_the_children_that_can_open(inst, best0):
    """A looser test of which children open changes no answer, only the
    work: so pin it at the root, where every degree is a point's number of
    traces.  An open root at need = best0 >= 3 closes where reference_shut
    says, counting that trace's points as children closed at it.  Else it
    branches on its lowest trace at need 2, on its lowest trace of fewest
    points at need >= 3, p_0, p_1, ... in order of falling degree, and
    pushes exactly the children whose uncovered traces, F minus deg(p_i),
    fit the sum of the need - 2 largest degrees of the points other than
    p_0..p_i; the others close at the root, counted apart from the
    nodes."""
    U, traces, _forb, _cap = inst
    F = len(traces)
    cover = solver._cover_masks(F, traces, U)
    stack = [(0, 0, 0, 0, None, None, 0)]
    out = solver._search((traces, cover, [], None, U), stack, best0, None,
                         False, limit=1)
    want = []
    branched = 0
    shut = reference_shut(traces, cover, 0, 0, 0, best0, U)
    if shut is not None:
        branched = shut.bit_count()
    elif not reference_node_closes(traces, cover, 0, 0, 0, best0, U):
        sel = 0 if best0 == 2 else \
            min(range(F), key=lambda ti: (traces[ti].bit_count(), ti))
        pts = sorted(peel_bits(traces[sel]),
                     key=lambda p: (-cover[p].bit_count(), p))
        for i, p in enumerate(pts):
            tried = sum(1 << x for x in pts[:i + 1])
            fit = sum(degrees(cover, (tried, 0), U, (1 << F) - 1)[:best0 - 2])
            if F - cover[p].bit_count() <= fit:
                want.append(p)
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
    stack = _Recorder([(0, 0, 0, 0, None, None, 0)])
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
    """Whether one of the bounds closes a search node with these included
    and excluded points, k points counted and incumbent best0: it is a
    cover, an uncovered trace has no undecided point, a first-fit packing
    over every uncovered trace in index order gets to need = best0 - k
    disjoint traces, or need - 1 points cannot cover the uncovered traces
    even with the largest degrees."""
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


def reference_shut(traces, cover, inc, exc, k, best0, U):
    """The scan of a node at need = best0 - k >= 3 that is no cover and
    passes the counting bound, and that, with more uncovered traces than
    undecided points, has no dead trace and no packing of need traces (the
    jumps' tests).  With theta its number of uncovered traces less the
    need - 2 largest degrees, the scan closes the node at the first
    uncovered trace, in index order, that has no undecided point of degree
    >= theta, a dead trace among them, or that completes a first-fit
    packing of need traces.  Returns the undecided points whose children
    close at the node, as a mask: the trace's, or 0 for a packing; None
    where the scan is not run or leaves the node open."""
    need = best0 - k
    rem = ((1 << len(traces)) - 1) & ~union_cover(cover, inc)
    und = ((1 << U) - 1) & ~(inc | exc)
    deg = {p: (cover[p] & rem).bit_count() for p in peel_bits(und)}
    degs = sorted(deg.values(), reverse=True)
    if need < 3 or not rem or sum(degs[:need - 1]) < rem.bit_count():
        return None
    if rem.bit_count() > und.bit_count() and \
            reference_node_closes(traces, cover, inc, exc, k, best0, U):
        return None
    theta = rem.bit_count() - sum(degs[:need - 2])
    acc = pack = 0
    for ti in peel_bits(rem):
        opts = traces[ti] & und
        if all(deg[p] < theta for p in peel_bits(opts)):
            return opts
        if not opts & acc:
            acc |= opts
            pack += 1
            if pack >= need:
                return 0
    return None


def check_node(U, traces, inc, exc, k, best0):
    """Runs one node alone: it closes where reference_shut says, counting
    its children closed there, or else with no child counted on the bounds
    of reference_node_closes, and on nothing else; a node that passes them
    all pushes at least one child."""
    cover = solver._cover_masks(len(traces), traces, U)
    stack = [(inc, exc, union_cover(cover, inc), k, None, None, 0)]
    closed = solver._search((traces, cover, [], None, U), stack, best0, None,
                            False, limit=1)[6]
    shut = reference_shut(traces, cover, inc, exc, k, best0, U)
    if shut is not None:
        assert (stack, closed) == ([], shut.bit_count())
    elif reference_node_closes(traces, cover, inc, exc, k, best0, U):
        assert (stack, closed) == ([], 0)
    else:
        assert stack


@settings(max_examples=1000, deadline=None)
@given(search_nodes())
# open by every bound, but its one branching child closes at its parent:
# the stack is empty and the node did not close
@example((10, [4, 8, 24, 768, 256, 512], 227, 16, 0, 4))
# no wider than its undecided points, so no jumps: the scan closes the
# node on {1, 2}, whose points have degree 1 < theta = 2, before it reaches
# the dead trace {7}, and counts both children closed
@example((8, [0b110, 0b1001, 0b10001, 0b100001, 0b1001000, 0b1010000,
              0b10000000], 0, 0b10000000, 0, 4))
# theta = 2: the scan closes the node on {2}, of degree 1, before {0}, {1}
# and {0, 1} complete a packing of three traces
@example((4, [0b100, 0b1, 0b10, 0b11], 0, 0, 0, 3))
def test_node_closes_exactly_on_the_stated_bounds(node):
    """One node, whichever test it runs first, closes on the bounds of
    reference_node_closes or on its scan, and on nothing else."""
    check_node(*node)


@settings(max_examples=600, deadline=None)
@given(search_nodes())
# need 2: the node branches on its lowest trace {0, 1, 2}, not on {0, 3},
# and closes the children of 1 and 2 at itself
@example((4, [0b111, 0b1001], 0, 0, 0, 2))
# narrow, with theta = 2: {3}, of degree 1, comes before the dead trace {4},
# so the node closes on it and counts its one child closed
@example((5, [0b1000, 0b10000, 0b111, 0b110], 0, 0b10000, 0, 3))
def test_children_closed_at_their_parent_close_on_their_own(node):
    """The push rule is sound: each child a node closes unbuilt, run alone
    as a one-state stack, is no cover and pushes no child.  The closed
    children are those of the branching order that the node does not
    push, and the pushed ones come first.  The branching order is the
    undecided points, by falling degree, of the node's lowest trace at need
    2 and of its lowest trace of fewest undecided points at need >= 3.  A
    node that its scan closes pushes none and closes every child of the
    trace it closes on, each of which closes on its own even with no point
    excluded; a node that passes the scan pushes at least one.  And the
    search over the drawn traces finds the oracle's optimum."""
    U, traces, inc, exc, k, best0 = node
    assert solver.solve_masks(U, traces, [])[:2] == \
        solver.oracle_masks(U, traces, [])[:2]
    check_children(U, traces, inc, exc, k, best0)


def check_children(U, traces, inc, exc, k, best0):
    """Runs one node alone and checks the children it pushes and closes
    against the push rule and the scan, as stated in
    test_children_closed_at_their_parent_close_on_their_own."""
    F = len(traces)
    cover = solver._cover_masks(F, traces, U)
    cov = union_cover(cover, inc)
    inst = (traces, cover, [], None, U)
    stack = [(inc, exc, cov, k, None, None, 0)]
    out = solver._search(inst, stack, best0, None, False, limit=1)
    shut = reference_shut(traces, cover, inc, exc, k, best0, U)
    if shut is None and \
            reference_node_closes(traces, cover, inc, exc, k, best0, U):
        return
    rem = ((1 << F) - 1) ^ cov
    und = ((1 << U) - 1) & ~(inc | exc)
    if shut is not None:
        order = peel_bits(shut)
    else:
        if best0 - k == 2:
            sel = peel_bits(rem)[0]
        else:
            sel = min(peel_bits(rem),
                      key=lambda ti: ((traces[ti] & und).bit_count(), ti))
        order = sorted(peel_bits(traces[sel] & und),
                       key=lambda p: (-(cover[p] & rem).bit_count(), p))
    pushed = [state[0] ^ inc for state in reversed(stack)]
    assert pushed == [1 << p for p in order[:len(pushed)]]
    assert bool(pushed) == (shut is None)
    assert out[6] == len(order) - len(pushed)
    for i in range(len(pushed), len(order)):
        p = order[i]
        tried = 0 if shut is not None else sum(1 << x for x in order[:i])
        child = [(inc | 1 << p, exc | tried, cov | cover[p], k + 1, None,
                  None, 0)]
        got = solver._search(inst, child, best0, None, False, limit=1)
        assert (got[1], child) == (None, [])


@settings(max_examples=300, deadline=None)
@given(uneven_instances())
# the root at need 3: point 0 on three traces and point 1 on two cover all
# five, and deg(1) = 2 = theta, so the rule must test deg >= theta
@example((7, [0b101, 0b1001, 0b10001, 0b100010, 0b1000010], [], None))
def test_the_closure_rule_closes_no_node_with_a_better_cover(inst):
    """A point of degree below theta leaves its child more uncovered traces
    than the need - 2 largest degrees can cover, so a node whose trace has
    no other points has no cover of need - 1 undecided points.  For the
    root and every state the search pushes from the optimum, with m the
    fewest undecided points that cover its uncovered traces (the oracle's
    count, over the node's traces), the node at need = m + 1 has such a
    cover: it pushes a child and the rule does not fire.  At every need
    from 3 to m + 1, the rule fires where reference_shut says, closing the
    node with its trace's points counted as closed children.  And the
    answers stay the oracle's.  Testing deg > theta in place of deg >=
    theta fails this test."""
    U, traces, forb, cap = inst
    want = solver.oracle_masks(U, traces, forb, size_cap=cap)
    assert solver.solve_masks(U, traces, forb, size_cap=cap)[:2] == want[:2]
    F = len(traces)
    full = (1 << F) - 1
    cover = solver._cover_masks(F, traces, U)
    inst = (traces, cover, [], None, U)
    top = U if cap is None else min(cap, U)
    stack = _Recorder([(0, 0, 0, 0, None, None, 0)])
    solver._search(inst, stack, top + 1 if want[0] is None else want[0],
                   None, False)
    states = [(0, 0, 0, 0)] + [child[:4] for _parent, child in stack.children]
    for inc, exc, cov, k in states:
        und = ((1 << U) - 1) & ~(inc | exc)
        left = [traces[ti] & und for ti in peel_bits(full ^ cov)]
        m = solver.oracle_masks(U, left, [])[0]
        if m is None:
            continue  # a dead trace: no need opens the node
        for need in range(3, m + 2):
            alone = [(inc, exc, cov, k, None, None, 0)]
            closed = solver._search(inst, alone, k + need, None, False,
                                    limit=1)[6]
            shut = reference_shut(traces, cover, inc, exc, k, k + need, U)
            if need == m + 1:
                assert alone and shut is None
            elif shut is not None:
                assert (alone, closed) == ([], shut.bit_count())


def check_degrees(U, traces, best0):
    """Searches the traces from the root with incumbent best0 and checks
    every node that reads its packed degrees, seen through the solver's
    `compress`, which keeps the fields of the undecided points: the node is
    at need >= 3 and reads bit_count(cover[p] & rem) for each undecided
    point p, in order.  Returns the search's _Counters and the reads, each
    with the node's state and the field view."""
    cover = solver._cover_masks(len(traces), traces, U)
    counters = solver._Counters(traces, cover)
    stack = _Recorder([(0, 0, 0, 0, None, None, 0)])
    real = solver.compress
    reads = []

    def spy(data, flags):
        if not isinstance(data, range):  # _mask_bits' listing is no read
            reads.append((stack.parent, list(real(data, flags)), data))
        return real(data, flags)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "compress", spy)
        solver._search((traces, cover, [], None, U), stack, best0, None, False,
                       counters=counters)
    full = (1 << len(traces)) - 1
    for (inc, exc, cov, k, *_), degs, _view in reads:
        assert best0 - k >= 3
        rem = full ^ cov
        und = [p for p in range(U) if not (inc | exc) >> p & 1]
        assert degs == [(cover[p] & rem).bit_count() for p in und]
    return counters, reads


@settings(max_examples=300, deadline=None)
@given(uneven_instances())
def test_packed_degrees_are_the_uncovered_traces_through_each_point(inst):
    """The counters a node carries down and updates from the traces its
    point newly covers hold, at every node that reads them, the degrees a
    rebuild would count.  The search starts from the optimum (or the cap +
    1), so need is best0 - k at every node."""
    U, traces, _forb, cap = inst
    size = solver.oracle_masks(U, traces, [], size_cap=cap)[0]
    top = U if cap is None else min(cap, U)
    check_degrees(U, traces, top + 1 if size is None else size)


def test_packed_degrees_in_fields_wider_than_a_byte():
    """Point 0 lies on 284 traces, {0, a, a + d} for d = 1..8 over points
    1..40, so a field takes two bytes; the 3-subsets of points 1..7 need 5
    more points, so nodes below the optimum of 6 run the counting bound.
    A child that takes point 0 covers more traces than there are points
    and counts afresh; one that takes another point covers at most 31 and
    subtracts their indicators."""
    traces = [1 | 1 << a | 1 << a + d for d in range(1, 9) for a in range(1, 41 - d)]
    traces += [sum(1 << p for p in c) for c in combinations(range(1, 8), 3)]
    # the least optimum: 0, and 1..5, which leave only 6 and 7 of 1..7
    assert solver.solve_masks(41, traces, [])[:2] == (6, 0b111111)
    counters, reads = check_degrees(41, traces, 6)
    assert counters.width == 2 and len(counters) > 0  # indicators were built
    assert reads and all(view.itemsize == 2 for _s, _d, view in reads)
    assert max(max(degs) for _s, degs, _v in reads) >= 256


@pytest.mark.parametrize("extra", [
    # theta = 4 and each of 1, 2, 3 has degree 2: the root closes on
    # {1, 2, 3}, though child 6 of {2, 6}, its trace of fewest points, opens
    [0b1110, 1 << 2 | 1 << 6, 1 << 3 | 1 << 7, 1 << 1 | 1 << 8],
    # theta = 2 = deg(1), and {0, 1} covers all: the root branches
    [0b110, 0b1010],
])
def test_closure_rule_in_fields_wider_than_a_byte(extra):
    """Point 0 lies on 300 traces {0, a, b}, a and b in 6..40, so a field
    takes two bytes; the extra traces avoid it.  At need 3, theta is their
    number, and the root pushes and closes the children the push rule and
    the closure rule say."""
    hub = [1 | 1 << a | 1 << b for a, b in combinations(range(6, 41), 2)][:300]
    traces = hub + extra
    cover = solver._cover_masks(len(traces), traces, 41)
    assert solver._Counters(traces, cover).width == 2
    assert (reference_shut(traces, cover, 0, 0, 0, 3, 41) is not None) == \
        (len(extra) == 4)
    check_children(41, traces, 0, 0, 0, 3)


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
                    check_node(U, traces, inc, exc, k, k + need)


# Wide Bose-Burton rows: the minimum blocking set of the (n-t)-flats of
# PG(n,q) is a t-flat.  Thousands of traces, few nodes: these pin the
# search's per-node work on wide instances (trace scan, bounds, branching
# order), which the narrow pinned rows of test_blocking.py barely test.
WIDE_PINNED = [
    # n, q, t, size, nodes
    (3, 5, 2, 31, 31),
    (3, 7, 2, 57, 57),
    (3, 9, 2, 91, 91),
    (4, 3, 2, 13, 722),
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
    (3, 4, 10, 6048, 1731),
    (4, 3, 9, 14388, 12124),
]


@pytest.mark.parametrize("n,q,size,nodes,witness_nodes", WITNESS_PINNED,
                         ids=["ag%d-%d" % row[:2] for row in WITNESS_PINNED])
def test_witness_heavy_node_counts_are_pinned(n, q, size, nodes, witness_nodes):
    sp = space(AFFINE, n, q)
    res = min_blocking_set(build_instance(sp, arrangement_make(sp, []), 1,
                                          "contained"))
    assert (res.verdict, res.size, res.nodes, res.stats["witness_nodes"]) == \
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

