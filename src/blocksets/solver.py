"""Exact minimum hitting search over trace masks.

The engine works on bitmasks: universe positions are bits 0..U-1, every
trace is a point mask, and the family side carries one cover mask per point
(which traces that point hits).  Search is branch and bound on the trace
with the fewest undecided points: each branch includes one of its points
and excludes the points tried before it, so the subtrees partition the
solution space.  The lower bound is a greedy packing of pairwise-disjoint
uncovered traces, strengthened by a counting bound: r more points cover
at most the sum of the r largest degrees of undecided points, a degree
counting the uncovered traces through a point.  The packing gets sharper
as exclusions accumulate, which is what makes projective instances (where
any two traces meet) tractable.  A parent pushes only the children that
can open: child i's own counting bound allows it no more uncovered traces
than the sum of the need - 2 largest parent degrees of the points left
undecided once p_0..p_i, the points tried up to its own, are decided, so a
child whose point leaves more than that closes at its parent, unbuilt.
A node closes on a trace none of whose points can open a child.
A search that outgrows a probe also prunes by symmetry (orbital
branching, see symmetry.py): a node's group is the pointwise stabilizer of
its included points, each branch excludes the whole orbits of the points
tried before it, and a branch whose point lies in one of those orbits is
skipped.  The subtrees then cover every solution up to an automorphism,
and a node at need >= 3 whose group has two or more orbits among its
undecided points branches on the trace that meets the fewest.
The group comes from symmetry.automorphisms, out of the arrangement the
caller built the instance on (`solve_masks`' `seeds`, handed on
unopened); an instance with no arrangement gets none.  A node with no
group branches as if its group were trivial, each point its own orbit, so
one rule builds every child.

Each node runs its cheapest decisive test first.  With need = best - k,
a better cover adds at most need - 1 points, so a node that is not a cover
closes at need <= 1.  At need 2 a child opens exactly when its point
lies on every uncovered trace, hence on the lowest one, and the node
branches on that trace in one pass over its points.  At need >= 3, a node
with more uncovered traces than undecided points first finds its packing
by jumping: it packs the lowest uncovered trace, drops every trace through
one of that trace's undecided points (the union of their cover masks),
and packs the lowest trace left.  The scan packs a trace exactly when it
meets none of the points packed before it, so the jumps build the scan's
packing, trace for trace; and since packed point sets are disjoint they
touch each undecided point at most once, where the scan touches every
uncovered trace.  A dead trace or a packing of need traces closes the node
there.  Then the counting bound runs, from the degrees of the undecided
points, and only a node it leaves open scans its traces, closing at the
first one none of whose points can open a child or at the one that
completes a packing.  The degrees are
carried, not rebuilt: a state holds a packed counter (_Counters), one int
whose field x is point x's degree, and a node subtracts from its parent's
counter the indicators of the few traces its point newly covers, then
reads its undecided points' fields from the counter's bytes and sorts
them, all in C.  The scan costs time linear in the node's uncovered
traces: they are listed from the binary digits of one mask (_mask_bits),
and each point's cover mask is built once, before the search.  The
incumbent the search starts from is a lazy greedy cover that picks the
same points as a full rescan would.

The search runs on an explicit stack of open subtrees, and a run cut short
by a work limit (nodes popped plus children closed at their parent) leaves
the rest on it.  That is how `--workers` splits the work: the orbital
search runs a little work at a time until its stack holds workers * 8
states, and each state is one pool task.

Verdict sizes are exact.  Witnesses are pinned separately: after the
optimum s* is known, a prefix-by-prefix feasibility scan builds the
lexicographically least s*-subset that works, so the reported witness never
depends on exploration order, worker count, or the incumbent the bound
phase happened to find.
"""

import heapq
import struct
import sys
import time
from dataclasses import dataclass, field
from itertools import compress, repeat
from math import comb, inf

from .errors import SearchTimeout, UniverseTooLarge

ORACLE_FULL_CAP = 22
PARALLEL_MIN_UNIVERSE = 24  # below this the pool costs more than the search
DEADLINE = "deadline"  # _search stopped early: out of time
LIMIT = "limit"        # _search stopped early: work limit reached


@dataclass
class SearchResult:
    verdict: str          # exists | not-exists | vacuous | timeout
    size: int = None
    witness: tuple = None  # sorted point indices; () for vacuous
    nodes: int = 0
    elapsed: float = 0.0
    stats: dict = field(default_factory=dict)  # solve_masks' `stats`


# bin() digits as bytes 0 and 1, so that compress() keeps the set bits
_BIN_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
# per j < 8, byte j of each 8-byte word, big-endian
_BYTE_J = [slice(7 - j, None, 8) for j in range(8)]


# per threshold theta, built on first use: each byte value as the digit
# b"1" when it is >= theta, else b"0"
_AT_LEAST = {}


def _mask_bits(mask):
    """The set bit positions of a nonnegative mask, ascending.  The scan
    runs in C over the binary digits, so it costs time linear in the width
    of the mask; peeling the lowest bit off a wide int instead copies the
    int once per bit.  A sparse mask is cheaper to peel: a trace has few
    undecided points, and bin() would pay for every point of the
    universe."""
    flags = bin(mask)[:1:-1].encode().translate(_BIN_FLAGS)
    return list(compress(range(len(flags)), flags))


def _build_masks(universe, traces):
    # the sum is the OR only as a normalized trace holds each point once
    bit = {p: 1 << i for i, p in enumerate(universe)}.__getitem__
    return [*dict.fromkeys([sum(map(bit, tr)) for tr in traces])]


def _cover_masks(ntraces, trace_masks, npoints):
    """Per point, the mask of the traces through it.  Byte column k, an
    int with trace i in byte i, holds points 8k..8k+7; three block swaps
    transpose each 8-byte word as an 8x8 bit matrix, so that byte j of
    word g is point 8k+j's mask byte g."""
    width = (npoints + 7) >> 3
    rows = b"".join(m.to_bytes(width, "little") for m in reversed(trace_masks))
    size = (ntraces + 7) & -8
    ones = int.from_bytes(b"\0\0\0\0\0\0\0\1" * (size >> 3), "big")
    m1, m2, m3 = 0xAA00AA00AA00AA * ones, 0xCCCC0000CCCC * ones, 0xF0F0F0F0 * ones
    cover = []
    for k in range(width):
        x = int.from_bytes(rows[k::width], "big")
        t = (x ^ x >> 7) & m1
        x ^= t ^ t << 7
        t = (x ^ x >> 14) & m2
        x ^= t ^ t << 14
        t = (x ^ x >> 28) & m3
        x ^= t ^ t << 28
        col = x.to_bytes(size, "big")
        cover += map(int.from_bytes, map(col.__getitem__, _BYTE_J[:npoints - 8 * k]),
                     repeat("big"))
    return cover


class _Counters(dict):
    """Packed degree counters over one instance.  A counter is an int whose
    w-byte field x holds point x's degree, the number of traces of some set
    through x; w is the width of the narrowest native unsigned type (struct
    format `code`) that holds the largest degree at the root, over all
    traces.  The fields are laid out in native byte order, so a memoryview
    cast reads them back, and since no field ever drops below 0,
    subtracting counters subtracts field by field.  The dict maps a trace
    index to its indicator, the counter of that trace alone (1 in the field
    of each of its points), built on the trace's first use, and `root` is
    the counter of every trace; `size` is a counter's length in bytes."""

    def __init__(self, trace_masks, cover):
        super().__init__()
        self.trace_masks = trace_masks
        self.cover = cover
        degs = list(map(int.bit_count, cover))
        top = max(degs, default=0)
        self.code = next(c for c in "BHIL" if top < 1 << 8 * struct.calcsize(c))
        self.width = struct.calcsize(self.code)
        self.size = len(degs) * self.width
        self.root = self.pack(degs)

    def __missing__(self, ti):
        # _mask_bits' digits: byte x is 1 exactly when the trace holds x,
        # and it goes to the low byte of field x
        fields = bin(self.trace_masks[ti])[:1:-1].encode().translate(_BIN_FLAGS)
        w = self.width
        if w > 1:
            flags = fields
            low = 0 if sys.byteorder == "little" else w - 1
            fields = bytearray(self.size)
            fields[low:low + len(flags) * w:w] = flags
        ind = self[ti] = int.from_bytes(fields.ljust(self.size, b"\0"),
                                        sys.byteorder)
        return ind

    def count(self, rem):
        """The counter of the traces in `rem`, built from scratch."""
        return self.pack([(c & rem).bit_count() for c in self.cover])

    def pack(self, degs):
        return int.from_bytes(struct.pack("%d%s" % (len(degs), self.code), *degs),
                              sys.byteorder)


def _violates(inc, forb_idx, forb_masks):
    for fi in forb_idx:
        f = forb_masks[fi]
        if f & inc == f:
            return True
    return False


def _search(inst, stack, best0, deadline, first_only, limit=None,
            counters=None):
    """Core branch and bound, run on `stack`: a list of states (inc, exc,
    cov, k, group, cnt, pcov), taken from its end.  `inst` is (trace_masks,
    cover, forb_masks, forb_at, npoints), and `counters` the instance's
    _Counters, made here when not given (a caller that runs several
    searches passes one, so each indicator is built once).  Returns (best,
    best_inc, nodes, stop, skipped, group_s, closed); best is the smallest
    solution size < best0 reached from the states, or best0 if none
    (best_inc None in that case); stop is DEADLINE or LIMIT when the search
    ended early, else None.

    A state's cnt is the packed counter of the traces outside pcov, a
    subset of cov, or None for the counter of every trace (pcov 0: a root
    or a witness-scan state).  Only a node that runs the counting bound
    brings it up to date: it subtracts the indicators of the cov ^ pcov
    traces, or, when those outnumber the points, counts afresh, one bit
    count per point instead of one subtraction per trace.  Its children
    then hold the node's counter and its cov; a node that did not count
    (need 2) hands on its own pair, still valid below it.

    A popped state is checked and, unless settled or pruned, replaced by
    the children that can open, pushed in reverse, so they are visited in
    branching order.  `nodes` counts the popped states and `closed` the
    children closed at their parent (below); `limit` bounds their sum, the
    search's work, checked before each pop.  A search that stops on the
    limit or the deadline leaves every state it has not expanded on the
    stack.  Those are the open subtrees: together they hold everything not
    yet settled, up to symmetry, so running them, together or one by one,
    finishes the search.

    A state's `group` is None or a group G, in the form symmetry.branch
    takes, that fixes each included point and maps the excluded set onto
    itself; under orbital branching it is the pointwise stabilizer of the
    included points in the instance's automorphism group, and None stands
    for the trivial group, whose orbits are single points.  Child i
    includes the branching trace's point p_i and excludes the G-orbits of
    p_0..p_{i-1}, and a child whose point lies in one of them is skipped
    (`skipped` counts them).  Each kept child carries Stab_G(p_i), so the
    invariant holds below it, and once that is trivial its subtree does no
    group work (`group_s` seconds in all).  Where G has two or more orbits
    among the undecided points, a node at need >= 3 branches on the first
    trace that meets the fewest, then has the fewest points
    (symmetry.fewest_orbits).  No optimum is lost: a solution S of the
    node meets every uncovered trace, so some g in G puts some p_j in
    g(S); take the least such j.  Then g(S), a solution of the node of
    the same size, meets none of the orbits of p_0..p_{j-1}: if h(p_i) lay
    in it for some h in G and i < j, h^-1 g would put p_i in its image of
    S, against the choice of j.  So child j is kept and g(S) is a solution
    of it.  At need 2 every child that opens has its point on every
    uncovered trace, so no choice of trace changes the children.

    A node closes on a dead trace (an uncovered trace with no undecided
    point), on a first-fit packing, in index order, of need = best - k
    disjoint uncovered traces, on the counting bound, or on a trace none of
    whose points can open a child (below), and on nothing else; the order
    of the tests changes what a node costs and which children a closing
    node counts, not which nodes close.  At need <= 1 the first uncovered
    trace is dead or packs alone.  At need 2 a child opens exactly when its
    point lies on every uncovered trace (fit_i is 0, below), so on the
    lowest one, and the node branches on that trace: its undecided points,
    ascending, are the branching order, and those not on every trace close
    at the node.  The counting bound closes the node exactly when none is
    on every trace; where one is, no trace is dead, no two are disjoint,
    and any other trace would give the same children.  So a need-2 node
    makes one pass over the points of one trace.  At need >= 3 a wide node
    runs the jumps, then every node the counting bound, then the scan,
    which closes the node at the first uncovered trace none of whose
    undecided points may open a child (a dead trace has none), counting
    that trace's points as closed children, or at the trace that completes
    a packing, and else finds the trace to branch on.  A node that none of
    them closes branches: it pushes its children that can open, at least
    one, and closes the others at itself.

    Child i has nrem - deg(p_i) uncovered traces, need - 1 and no larger
    degrees than its parent, and its undecided points lie among the
    parent's less p_0..p_i (it includes p_i and excludes the earlier
    ones).  So its own counting bound closes it when that count is more
    than fit_i, the sum of the need - 2 largest parent degrees of und less
    p_0..p_i: 0 at need 2, where only a child that covers everything
    opens.  The points are branched on in order of falling degree, so
    nrem - deg(p_i) never falls as i grows, and fit_i never rises, since
    each step takes one more degree out of the same list.  The children
    that can open therefore come first, and the rest close at their
    parent: they are neither built nor pushed, take no part in the orbits,
    and only later siblings, which close too, would exclude them.  So the
    pushed children and their exclusions are those of the whole list.
    fit_i costs O(1) per child: as the points leave in falling order, one
    whose degree is at least the largest one left out of fit gives way to
    it, and once one is below, every later one is too.

    fit_i <= S, the need - 2 largest degrees, so a point of degree below
    theta = nrem - S opens no child (the closure rule): the points that may
    open one are those of degree >= theta, all of them when the smallest
    degree is.  And a node that the scan leaves open has a child that
    opens, p_0, the point of largest degree on the branching trace.  If
    deg(p_0) is at least degs[need - 2], the largest degree left out of S,
    then fit_0 = S - deg(p_0) + degs[need - 2], and the child's bound is
    the node's own counting bound, which passed.  Otherwise fit_0 = S, and
    deg(p_0) >= theta, since the scan did not close the node on that
    trace."""
    trace_masks, cover, forb_masks, forb_at, npoints = inst
    F = len(trace_masks)
    full = (1 << F) - 1
    points = (1 << npoints) - 1
    nodes = 0
    closed = 0
    skipped = 0
    group_s = 0.0
    node_cap = inf if limit is None else limit
    if any(state[4] is not None for state in stack):
        from .symmetry import branch, fewest_orbits
    if counters is None:
        counters = _Counters(trace_masks, cover)
    indicator = counters.__getitem__
    order = sys.byteorder
    at_least = _AT_LEAST
    best = best0
    best_inc = None
    bit_count = int.bit_count
    mask_bits = _mask_bits
    pop = stack.pop
    push = stack.append
    while stack:
        if nodes + closed >= node_cap:
            return best, best_inc, nodes, LIMIT, skipped, group_s, closed
        if deadline is not None and not nodes % 2048 and time.monotonic() > deadline:
            return best, best_inc, nodes, DEADLINE, skipped, group_s, closed
        inc, exc, cov, k, grp, cnt, pcov = pop()
        nodes += 1
        if cov == full:
            if k < best:
                best = k
                best_inc = inc
                if first_only:
                    break
            continue
        need = best - k  # a better cover adds at most need - 1 points
        if need <= 1:
            continue  # not a cover, and no point may be added
        rem = full ^ cov
        und = points ^ (inc | exc)  # undecided; nonnegative, so & stays cheap
        if need == 2:
            # one point more: a child opens exactly when its point lies on
            # every uncovered trace, so on the lowest one, which the node
            # branches on; with no such point the counting bound closes it
            opts = trace_masks[(rem & -rem).bit_length() - 1] & und
            tried = bit_count(opts)
            pts = []
            while opts:  # few points: peeled, not listed
                b = opts & -opts
                p = b.bit_length() - 1
                if cover[p] & rem == rem:
                    pts.append(p)
                opts ^= b
            if not pts:
                continue
            closed += tried - len(pts)
        else:
            nrem = bit_count(rem)
            if nrem > bit_count(und):
                # a wide node: the scan's first-fit packing, found by
                # jumping: the next packed trace is the lowest one through
                # none of the packed points, so each packed trace drops
                # every trace through its own points.  Packed point sets are disjoint, so this
                # touches each undecided point at most once, fewer than
                # the traces the scan would touch.
                free = rem
                pack = 0
                while free:
                    low = free & -free
                    opts = trace_masks[low.bit_length() - 1] & und
                    if not opts:
                        break  # a dead trace: free keeps it until it is lowest
                    pack += 1
                    if pack >= need:
                        break
                    hit = 0
                    while opts:
                        b = opts & -opts
                        hit |= cover[b.bit_length() - 1]
                        opts ^= b
                    free ^= free & hit
                if free:
                    continue  # dead trace or packing closes the node
            # counting bound: need - 1 points cover at most the need - 1
            # largest degrees, each counted in uncovered traces.  A point
            # on no uncovered trace only pads the list with a 0
            new = cov ^ pcov  # the traces covered since cnt was counted
            if bit_count(new) > npoints:
                # a rebuild counts each point once, an update each trace
                cnt = counters.count(rem)
            else:
                if cnt is None:
                    cnt = counters.root
                while new:  # few traces: peeled, not listed
                    b = new & -new
                    cnt -= indicator(b.bit_length() - 1)
                    new ^= b
            pcov = cov
            deg = cnt.to_bytes(counters.size, order)
            if counters.width > 1:
                deg = memoryview(deg).cast(counters.code)
            degs = sorted(compress(deg, bin(und)[:1:-1].encode().translate(_BIN_FLAGS)),
                          reverse=True)
            if sum(degs[:need - 1]) < nrem:
                continue
            # a child whose point has degree < theta keeps more uncovered
            # traces than fit, the need - 2 largest degrees, can cover; hi
            # holds the points that may open a child
            fit = sum(degs[:need - 2])
            theta = nrem - fit
            hi = points
            if degs[-1] < theta:
                if counters.width > 1:
                    hi = int(bytes(0x30 | (d >= theta) for d in reversed(deg)), 2)
                else:
                    table = at_least.get(theta)
                    if table is None:
                        table = at_least[theta] = bytes(0x30 | (v >= theta)
                                                        for v in range(256))
                    hi = int(deg.translate(table)[::-1], 2)
            # the scan closes the node at the first trace none of whose
            # points may open a child (a dead trace has none), counting its
            # points as closed children, or at the trace that completes a
            # packing of need traces; else the trace with the fewest
            # undecided points is the one to branch on, unless the node's
            # group picks one by its orbits
            pack = 0
            acc = 0
            sel_opts = 0
            sel_cnt = npoints + 1
            for ti in mask_bits(rem):
                opts = trace_masks[ti] & und
                if not opts & hi:
                    closed += bit_count(opts)
                    break
                if not opts & acc:
                    acc |= opts
                    pack += 1
                    if pack >= need:
                        break
                c = bit_count(opts)
                if c < sel_cnt:
                    sel_cnt = c
                    sel_opts = opts
            else:
                ti = None  # the scan ran through: the node branches
            if ti is not None:
                continue  # the scan closed the node at trace ti
            if grp is not None and sel_cnt > 1:
                t0 = time.perf_counter()
                sel_opts = fewest_orbits(grp, und, sel_opts,
                                         (trace_masks[ti] & und
                                          for ti in mask_bits(rem)))
                group_s += time.perf_counter() - t0
            # the branching points by falling degree, then index; child i
            # opens when nrem - deg(p_i) <= fit_i, degs[top] being the
            # largest degree left out of fit.  The first always opens
            branching = sorted(mask_bits(sel_opts), key=deg.__getitem__,
                               reverse=True)  # stable: ties stay ascending
            top = min(need - 2, len(degs))
            degs += [0] * len(branching)  # past the last point: nothing
            pts = []
            for p in branching:
                d = deg[p]
                if d >= degs[top]:
                    fit += degs[top] - d
                    top += 1
                if fit < nrem - d:
                    break
                pts.append(p)
            closed += len(branching) - len(pts)
        # child i excludes the orbits of children 0..i-1 under the node's
        # group; orbits[i] is 0 for a child whose point lies in one of them.
        # Walking backwards, excl drops each kept child's orbit just before
        # its child is pushed.
        if grp is None:
            orbits = [1 << p for p in pts]
            groups = [None] * len(pts)
        else:
            t0 = time.perf_counter()
            orbits, groups = branch(grp, pts)
            group_s += time.perf_counter() - t0
        excl = sum(orbits)  # disjoint masks
        for i in range(len(pts) - 1, -1, -1):
            orbit = orbits[i]
            if not orbit:
                skipped += 1
                continue
            excl ^= orbit
            p = pts[i]
            inc2 = inc | 1 << p
            if not (forb_at and _violates(inc2, forb_at[p], forb_masks)):
                push((inc2, exc | excl, cov | cover[p], k + 1, groups[i],
                      cnt, pcov))
    return best, best_inc, nodes, None, skipped, group_s, closed


def _greedy_incumbent(trace_masks, cover, forb_masks, forb_at, npoints):
    """Deterministic greedy cover + one minimalization pass; None when the
    forbidden constraints block the greedy path.

    Each step adds the lowest point of largest gain (newly covered traces)
    that keeps every forbidden trace incomplete.  The steps are lazy: a
    heap holds (-gain, p) with each gain as last scored, and gains only
    shrink as the cover grows, so a top entry whose score is still current
    is the step's point; a stale top is re-scored and pushed back.  A point
    whose addition completes a forbidden trace is dropped for good, since
    the included set only grows."""
    F = len(trace_masks)
    full = (1 << F) - 1
    inc = 0
    cov = 0
    heap = [(-c.bit_count(), p) for p, c in enumerate(cover) if c]
    heapq.heapify(heap)
    while cov != full:
        while heap:
            neg, p = heap[0]
            if forb_at and _violates(inc | 1 << p, forb_at[p], forb_masks):
                heapq.heappop(heap)
                continue
            gain = (cover[p] & ~cov).bit_count()
            if gain == -neg:
                break
            if gain:
                heapq.heapreplace(heap, (-gain, p))
            else:
                heapq.heappop(heap)
        else:
            return None
        heapq.heappop(heap)
        inc |= 1 << p
        cov |= cover[p]
    # minimalize, highest point first: drop a point when the points below
    # it and the kept points above it still cover everything
    pts = _mask_bits(inc)
    below = [0]
    for p in pts[:-1]:
        below.append(below[-1] | cover[p])
    above = 0
    for i in range(len(pts) - 1, -1, -1):
        p = pts[i]
        if below[i] | above == full:
            inc ^= 1 << p
        else:
            above |= cover[p]
    return inc


def _phase1_task(payload):
    inst, state, best0, budget = payload
    deadline = time.monotonic() + budget if budget is not None else None
    return _search(inst, [state], best0, deadline, False)


def solve_masks(universe_size, trace_masks, forb_masks, size_cap=None,
                time_budget=None, workers=1, stats=None, seeds=None):
    """Exact minimum over masks.  Returns (size or None, witness_mask or
    None, nodes).  witness_mask is the lexicographically least optimum
    (smallest bit indices first); None size means nothing <= cap.

    The bound phase first runs the plain search as a probe, its work (the
    nodes it pops and the children it closes at their parent) limited to
    the family's incidences, the points of the family traces; forbidden
    traces prune children but add no branches, so they add nothing to the
    limit.  Only a search that needs more than that pays for the
    automorphism group, and only when `seeds` is given: `stats` gets a
    "symmetry" record, and a nontrivial group restarts the search from the
    root with orbital branching, keeping the probe's incumbent.  `seeds`
    is handed to symmetry.automorphisms as it is: the solver neither
    builds nor reads it, and symmetry fills the record's group fields.  With no seeds, or a trivial group, the search
    goes on from the probe's own stack, so its nodes are the uncut plain
    search's.  The witness phase never uses the group.

    `stats` (a dict, made here when not given) also gets
    "closed_children", the children closed at their parent over the whole
    search, which `nodes` does not count, and "pool_tasks", the open
    subtrees handed to the pool under `workers` (0 when none).  Once an
    optimum is found it gets "witness_nodes", the witness phase's share of
    the nodes.  A SearchTimeout carries the dict as far as it got, in a
    SearchResult with verdict "timeout"."""
    start = time.monotonic()
    deadline = start + time_budget if time_budget is not None else None
    U = universe_size
    cap = U if size_cap is None else min(size_cap, U)
    F = len(trace_masks)
    cover = _cover_masks(F, trace_masks, U)
    forb_at = [_mask_bits(c) for c in _cover_masks(len(forb_masks), forb_masks, U)] \
        if forb_masks else None
    inst = (trace_masks, cover, forb_masks, forb_at, U)
    counters = _Counters(trace_masks, cover)
    nodes = 0
    if stats is None:
        stats = {}
    stats.update(closed_children=0, pool_tasks=0)
    sym = None

    def tally(result):
        """Counts a search's work; raises if it ran out of time."""
        nonlocal nodes
        b, found, n, stop, skipped, group_s, closed = result
        nodes += n
        stats["closed_children"] += closed
        if sym is not None:
            sym["skipped"] += skipped
            sym["seconds"] += group_s
        if stop == DEADLINE:
            raise SearchTimeout("search exceeded its time budget", SearchResult(
                "timeout", nodes=nodes, elapsed=time.monotonic() - start,
                stats=stats))
        return b, found

    # best stays cap + 1 with incumbent None until a cover within the cap is
    # known; from then on incumbent is a cover of size best
    best = cap + 1
    incumbent = _greedy_incumbent(*inst)
    if incumbent is not None and incumbent.bit_count() <= cap:
        best = incumbent.bit_count()
    else:
        incumbent = None

    def bound(result):
        """Tallies a bound-phase search and keeps a better incumbent."""
        nonlocal best, incumbent
        b, found = tally(result)
        if found is not None and b < best:
            best, incumbent = b, found

    incidences = sum(m.bit_count() for m in trace_masks)
    stack = [(0, 0, 0, 0, None, None, 0)]
    bound(_search(inst, stack, best, deadline, False, limit=incidences,
                  counters=counters))
    if stack and seeds is not None:
        # the probe left open subtrees: compute the group.  Imported here,
        # not at the top: only a search past the probe needs it, and every
        # process that imports the package would compile it
        from . import symmetry
        t0 = time.perf_counter()
        sym = stats["symmetry"] = {"probe_nodes": nodes, "skipped": 0}
        group = symmetry.automorphisms(seeds, trace_masks, forb_masks, sym)
        sym["seconds"] = time.perf_counter() - t0
        if group is not None:
            # restart with the group; a deadline that passed meanwhile
            # stops it at its first node
            stack = [(0, 0, 0, 0, symmetry.state_group(group), None, 0)]
    if workers > 1 and U >= PARALLEL_MIN_UNIVERSE:
        # the frontier: run a little work at a time until the open subtrees
        # are enough tasks for the pool, or none are left
        target = workers * 8
        while 0 < len(stack) < target:
            bound(_search(inst, stack, best, deadline, False, limit=target,
                          counters=counters))
        if len(stack) > 1:
            budget = None if deadline is None else max(deadline - time.monotonic(), 0.01)
            # the tasks go in the order the serial search would visit them
            payloads = [(inst, state, best, budget) for state in reversed(stack)]
            stats["pool_tasks"] = len(payloads)
            stack = []
            # imported here for the same reason: it loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for result in pool.map(_phase1_task, payloads, chunksize=1):
                    bound(result)
    # one serial search finishes what the stack still holds, if anything
    bound(_search(inst, stack, best, deadline, False, counters=counters))
    if best > cap:
        return None, None, nodes

    # Lexicographic refinement: fix witness elements smallest-first.  At
    # position pos, candidate p below the current witness's point keeps
    # witness[:pos], takes p and excludes every other point below p; the
    # search pops the lowest candidate first and stops at the first cover.
    bound_nodes = nodes
    witness = _mask_bits(incumbent)
    prefix_mask = 0  # witness[:pos], which every later witness starts with
    prefix_cov = 0
    for pos in range(best):
        lo = witness[pos - 1] + 1 if pos else 0
        stack = []
        for p in range(witness[pos] - 1, lo - 1, -1):
            pb = 1 << p
            inc0 = prefix_mask | pb
            if not (forb_at and _violates(inc0, forb_at[p], forb_masks)):
                stack.append((inc0, (pb - 1) ^ prefix_mask,
                              prefix_cov | cover[p], pos + 1, None, None, 0))
        if stack:  # no point below the witness's: nothing to search
            _b, found = tally(_search(inst, stack, best + 1, deadline, True,
                                      counters=counters))
            if found is not None:
                witness = _mask_bits(found)
        prefix_mask |= 1 << witness[pos]
        prefix_cov |= cover[witness[pos]]
    stats["witness_nodes"] = nodes - bound_nodes
    return best, prefix_mask, nodes


def check_oracle_universe(universe_size, size_cap):
    """Raises UniverseTooLarge where oracle_masks refuses: a universe past
    ORACLE_FULL_CAP points with no size cap to bound the subsets."""
    if size_cap is None and universe_size > ORACLE_FULL_CAP:
        raise UniverseTooLarge("full enumeration over %d points; cap is %d"
                               % (universe_size, ORACLE_FULL_CAP))


def oracle_masks(universe_size, trace_masks, forb_masks, size_cap=None,
                 time_budget=None):
    """Independent route: every subset in turn, sizes ascending and the
    subsets of one size in lexicographic order, so the first hit is both
    minimum and lexicographically least.  Returns (size or None,
    witness_mask or None, subsets_checked), where subsets_checked counts
    every subset up to and including the hit, as a loop over all of them
    would.  Raises SearchTimeout once `time_budget` seconds have passed.

    Each size is a depth-first walk over prefixes, in the order of the
    subsets they start.  A state (lo, r, cov, pm) is a prefix mask pm with
    cover cov that still needs r points, all of them >= lo.  Its subtree
    of comb(U - lo, r) subsets is skipped, and counted when it is popped,
    when one of three tests shows none of them is a hit: an uncovered
    trace has no point >= lo; more traces are uncovered than r times the
    largest cover among points >= lo; or pm holds a forbidden trace (only
    those whose highest point is pm's last point lo - 1 are new).  With one
    point left, only points on the lowest uncovered trace can complete the
    cover, and the walk tries them in order.  Beyond _cover_masks and
    _mask_bits the walk shares nothing with _search, so the two answers
    stay independent."""
    U = universe_size
    check_oracle_universe(U, size_cap)
    cap = U if size_cap is None else min(size_cap, U)
    start = time.monotonic()
    deadline = start + time_budget if time_budget is not None else None
    if 0 in forb_masks:  # the empty trace lies in every subset
        return None, None, sum(comb(U, k) for k in range(1, cap + 1))
    cover = _cover_masks(len(trace_masks), trace_masks, U)
    full = (1 << len(trace_masks)) - 1
    # onward[lo], most[lo]: the union of the covers of the points >= lo, and
    # the largest number of traces one of them covers
    onward = [0] * (U + 1)
    most = [0] * (U + 1)
    for p in range(U - 1, -1, -1):
        onward[p] = onward[p + 1] | cover[p]
        most[p] = max(most[p + 1], cover[p].bit_count())
    # per point, the forbidden traces whose highest point it is
    forb_top = [[] for _ in range(U)]
    for f in forb_masks:
        forb_top[f.bit_length() - 1].append(f)
    mask_bits = _mask_bits
    checked = 0
    pops = 0
    for k in range(1, cap + 1):
        stack = [(0, k, 0, 0)]
        pop = stack.pop
        push = stack.append
        while stack:
            if deadline is not None and not pops % 2048 and time.monotonic() > deadline:
                raise SearchTimeout("oracle exceeded its time budget", SearchResult(
                    "timeout", nodes=checked, elapsed=time.monotonic() - start))
            pops += 1
            lo, r, cov, pm = pop()
            left = full ^ cov
            if (left & ~onward[lo] or left.bit_count() > r * most[lo]
                    or lo and any(f & pm == f for f in forb_top[lo - 1])):
                checked += comb(U - lo, r)
                continue
            if r > 1:
                # children in reverse, so they pop in lexicographic order
                for p in range(U - r, lo - 1, -1):
                    push((p + 1, r - 1, cov | cover[p], pm | 1 << p))
                continue
            # the last point: it must lie on every uncovered trace
            if left:
                cand = trace_masks[(left & -left).bit_length() - 1] >> lo
            else:
                cand = (1 << U - lo) - 1
            for p in mask_bits(cand):
                p += lo
                if cov | cover[p] == full:
                    hit = pm | 1 << p
                    if not any(f & hit == f for f in forb_top[p]):
                        return k, hit, checked + p - lo + 1
            checked += U - lo
    return None, None, checked
