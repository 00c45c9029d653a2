"""Automorphisms of mask instances and the stabilizers the search needs.

An automorphism of a mask instance is a permutation of the universe
positions that maps the family masks onto the family masks and the
forbidden masks onto the forbidden masks; it maps solutions to solutions
of the same size.  The solver uses the group for orbital branching
(Ostrowski, Linderoth, Rossi & Smriglio, "Orbital branching", Math. Prog.
126, 2011; Margot, "Symmetry in integer linear programming", 2010).

`automorphisms` finds generators by individualization and refinement on the
point-trace incidence, the scheme of McKay's nauty without canonical
labelling, and keeps a permutation only after checking it against the
masks.  Any subgroup serves the search, so a generator search that runs
out of its refinement allowance or the deadline returns what it has.  A
refinement that is to match the first path stops at its first split that
differs.  The collineations that fix each hyperplane of the arrangement
(`fixing_collineations`, in closed form from the forms) seed the search:
a Schreier-Sims chain of theirs, based at the search's own base points,
hands each level the generators it would otherwise find one refinement at
a time.  The field automorphisms, and collineations that permute the
hyperplanes, are still found by refinement.  This module is the only one
that builds the seeds or fills the group's fields of the search's
symmetry record; the solver imports it only past its probe.

`schreier_sims` builds a stabilizer chain for a group of known order.
`branch` works at a search node whose group is the pointwise stabilizer of
its included points: children whose points share an orbit of the node's
group with an earlier sibling are skipped, each kept child excludes the
orbits of its earlier siblings, and it gets the stabilizer of its one new
point.  A `Group` builds one chain per orbit whose stabilizer is asked
for, and keeps it: the stabilizer of any other point of the orbit is a
conjugate, so a search state carries its group as a conjugate u H u^-1 of
a cached Group H, and a child's group costs two permutation products.

Permutations are tuples: g[x] is the image of position x.  `automorphisms`
returns a Group, a search state carries one as (H, u, v) (see
`state_group`), and None stands for the trivial group.
"""

import random
import time

from .errors import InternalError
from .geometry import AFFINE, rref
from .solver import _cover_masks, _mask_bits


def _mul(a, b):
    """a then b."""
    return tuple(map(b.__getitem__, a))


def _inverse(g):
    inv = [0] * len(g)
    for x, y in enumerate(g):
        inv[y] = x
    return tuple(inv)


def _mask_sets(*masks):
    """Each list of masks as its set, paired with the positions of each
    mask: what _preserves reads."""
    out = []
    for ms in masks:
        have = set(ms)
        out.append((have, [_mask_bits(m) for m in have]))
    return out


def _preserves(g, mask_sets):
    """g maps each set of masks onto itself."""
    bit = [1 << y for y in g]
    for have, positions in mask_sets:
        for pts in positions:
            if sum(map(bit.__getitem__, pts)) not in have:
                return False
    return True


class _Refiner:
    """Equitable refinement of ordered partitions of the points and the
    distinct traces of one instance, the traces coloured by the sides
    they are on (family, forbidden or both).

    A node is (pcells, pcell_of, tcells, tcell_of): cells are bitmasks in a
    fixed order, *_of gives each vertex's cell index.  Splitting keeps the
    fragment with the smallest count at the old index and appends the
    others in count order, so the partition and the recorded invariant
    depend only on the structure, never on the labels: two nodes related
    by an automorphism refine alike and record equal invariants."""

    def __init__(self, npoints, trace_masks, forb_masks):
        self.npoints = npoints
        fam, forb = set(trace_masks), set(forb_masks)
        colours = ([m for m in fam if m not in forb], list(fam & forb),
                   [m for m in forb if m not in fam])
        self.tmask = [m for c in colours for m in c]
        self.colours = [len(c) for c in colours]
        self.pcov = _cover_masks(len(self.tmask), self.tmask, npoints)
        self.refinements = 0

    def initial(self):
        """The root partition: all points in one cell, the traces in one
        cell per colour, refined."""
        U, nt = self.npoints, len(self.tmask)
        pcells = [(1 << U) - 1]
        pcell_of = [0] * U
        tcells = []
        tcell_of = [0] * nt
        lo = 0
        for size in self.colours:
            hi = lo + size
            if hi > lo:
                for ti in range(lo, hi):
                    tcell_of[ti] = len(tcells)
                tcells.append(((1 << hi) - 1) ^ ((1 << lo) - 1))
            lo = hi
        queue = [(0, 0)] + [(1, i) for i in range(len(tcells))]
        node = (pcells, pcell_of, tcells, tcell_of)
        return node, self._refine(node, queue)

    def individualize(self, node, ci, v, expect=None):
        """Child node with point v split off its cell ci, refined; returns
        (node, invariant), the invariant None once it leaves `expect`."""
        pcells, pcell_of, tcells, tcell_of = node
        pcells = pcells[:]
        pcell_of = pcell_of[:]
        rest = pcells[ci] & ~(1 << v)
        pcells[ci] = 1 << v
        new = len(pcells)
        pcells.append(rest)
        for p in _mask_bits(rest):
            pcell_of[p] = new
        child = (pcells, pcell_of, tcells[:], tcell_of[:])
        return child, self._refine(child, [(0, ci)], expect)

    def _refine(self, node, queue, expect=None):
        """Refines node in place and returns its invariant, the splits in
        the order made.  Given `expect`, the invariant of a node it is to
        match, it stops at the first split that differs, or one too many,
        and returns None: the invariants differ whatever the rest would
        be."""
        self.refinements += 1
        pcells, pcell_of, tcells, tcell_of = node
        sides = ((pcells, pcell_of), (tcells, tcell_of))
        vmask = (self.pcov, self.tmask)  # a vertex's neighbours
        pending = set(queue)
        invariant = []
        head = 0
        # once the points are discrete so is every leaf labelling; stopping
        # there is the same step for nodes an automorphism relates
        while head < len(queue) and len(pcells) < self.npoints:
            side, wi = queue[head]
            head += 1
            pending.discard((side, wi))
            # a cell on one side splits the cells of the other side by the
            # number of neighbours each vertex has in it
            W = sides[side][0][wi]
            nbr = vmask[1 - side]
            cells, cell_of = sides[1 - side]
            own = vmask[side]
            touched = 0
            m = W
            while m:
                b = m & -m
                touched |= own[b.bit_length() - 1]
                m ^= b
            counts = {}  # cell -> {neighbours in W: mask of its vertices}
            m = touched
            while m:
                b = m & -m
                m ^= b
                y = b.bit_length() - 1
                c = cell_of[y]
                cell = cells[c]
                if cell & (cell - 1):
                    k = (nbr[y] & W).bit_count()
                    byk = counts.get(c)
                    if byk is None:
                        counts[c] = {k: b}
                    else:
                        byk[k] = byk.get(k, 0) | b
            other = 1 - side
            for c in sorted(counts):
                frags = counts[c]
                cell = cells[c]
                zero = cell
                for fm in frags.values():
                    zero &= ~fm
                if zero:
                    frags[0] = zero
                if len(frags) == 1:
                    continue
                keys = sorted(frags)
                sizes = [frags[k].bit_count() for k in keys]
                split = (side, wi, c, tuple(zip(keys, sizes)))
                if expect is not None and (len(invariant) == len(expect) or
                                           expect[len(invariant)] != split):
                    return None
                invariant.append(split)
                idxs = [c]
                cells[c] = frags[keys[0]]
                for k in keys[1:]:
                    ni = len(cells)
                    fm = frags[k]
                    cells.append(fm)
                    while fm:
                        b = fm & -fm
                        cell_of[b.bit_length() - 1] = ni
                        fm ^= b
                    idxs.append(ni)
                if (other, c) in pending:
                    add = idxs[1:]
                else:
                    # the old cell was already a splitter: all fragments but
                    # one largest carry the same information
                    big = sizes.index(max(sizes))
                    add = idxs[:big] + idxs[big + 1:]
                for ni in add:
                    if (other, ni) not in pending:
                        pending.add((other, ni))
                        queue.append((other, ni))
        return tuple(invariant)


def _target(pcells):
    """Index of the first largest non-singleton point cell: in a geometry
    this puts the base points in general position, where refinement
    separates most."""
    best = None
    size = 1
    for i, m in enumerate(pcells):
        c = m.bit_count()
        if c > size:
            best, size = i, c
    return best


def _orbits(gens, n):
    """The orbits of the group spanned by gens on 0..n-1, as (orbit_of,
    orbit_pts): orbit_of[x] is the index of x's orbit, orbit_pts lists the
    points of each, and orbits are numbered by their least point."""
    orbit_of = [-1] * n
    orbit_pts = []
    for x in range(n):
        if orbit_of[x] < 0:
            o = len(orbit_pts)
            orbit_of[x] = o
            pts = [x]
            for y in pts:
                for g in gens:
                    z = g[y]
                    if orbit_of[z] < 0:
                        orbit_of[z] = o
                        pts.append(z)
            orbit_pts.append(pts)
    return orbit_of, orbit_pts


def automorphisms(npoints, trace_masks, forb_masks=(), deadline=None,
                  limit=None, seeds=None, stats=None):
    """The automorphism group of the instance as a Group, or None when it
    is trivial; every generator is checked against the masks.

    The first path individualizes the least point of the first largest
    non-singleton cell until the partition is discrete; its base points
    b_1..b_m are then treated deepest first.  At level i every point w of
    b_i's cell not yet in b_i's orbit under the generators found so far
    (all of which fix b_1..b_{i-1}) is tried: a depth-first search under w,
    pruned where the refinement invariants leave the first path's, looks
    for a discrete leaf whose labelling against the first leaf is an
    automorphism.  When every level is settled the generators are strong
    for that base and the orbit lengths multiply to the order.  A level
    that needs more than `limit` refinements, or the deadline, stops the
    search early; it then returns the generators of the levels already
    settled, which span the stabilizer of the base points above them,
    with its order found the same way.

    `seeds`, when given, is (arrangement, universe): the instance is built
    on the complement of the arrangement, with universe[x] the point at
    position x, so that every collineation fixing each of its hyperplanes
    (fixing_collineations) is an automorphism.  Those collineations permute
    the space's points and form a group of known order there.  A
    Schreier-Sims chain of theirs, over the space where the order is exact
    and with b_1..b_m first in its base, hands level i its strong
    generators that fix b_1..b_{i-1}, restricted to the positions, before
    any candidate is tried, so a candidate they already reach costs no
    refinement.  Each seed is checked against the masks first; one that
    fails is a fault in the program, not in the instance.  A search that
    settles every level finds the same group with or without seeds, in
    fewer refinements with them; one that would run out of its allowance
    may settle with them.

    `stats`, a dict when given, gets the seeds' order (`seed_order`, 1
    with none), the number of refinements, and the group's `order` and
    number of `generators` (1 and 0 when it is trivial)."""
    collineations = seeds and fixing_collineations(seeds[0])
    if stats is not None:
        stats["seed_order"] = collineations[1] if collineations else 1
    mask_sets = _mask_sets(trace_masks, forb_masks)
    ref = _Refiner(npoints, trace_masks, forb_masks)
    node, inv0 = ref.initial()
    path = [node]
    invs = [inv0]
    base = []
    while True:
        ci = _target(node[0])
        if ci is None:
            break
        v = (node[0][ci] & -node[0][ci]).bit_length() - 1
        base.append((ci, v))
        node, inv = ref.individualize(node, ci, v)
        path.append(node)
        invs.append(inv)
    m = len(base)
    gens = []
    strong = None
    if m and collineations:
        strong = _seed_strong(*collineations, seeds[1], mask_sets,
                              [b for _ci, b in base])
    orbit_of, orbit_pts = _orbits(gens, npoints)
    stop = None  # the refinement count at which the current level gives up

    def spent():
        return ((stop is not None and ref.refinements >= stop)
                or (deadline is not None and time.monotonic() > deadline))

    def done(gens, order):
        if stats is not None:
            stats.update(refinements=ref.refinements, order=order,
                         generators=len(gens) if order > 1 else 0)
        return Group(tuple(gens), order, npoints) if order > 1 else None

    first = [cell.bit_length() - 1 for cell in path[m][0]]

    def find(level, w):
        """A verified automorphism fixing b_1..b_level and mapping
        b_{level+1} to w, or None."""
        stack = [(level, path[level], w)]
        while stack and not spent():
            lv, node, v = stack.pop()
            child, inv = ref.individualize(node, base[lv][0], v, invs[lv + 1])
            if inv != invs[lv + 1] or len(child[0]) != len(path[lv + 1][0]):
                continue
            if lv + 1 < m:
                for v2 in reversed(_mask_bits(child[0][base[lv + 1][0]])):
                    stack.append((lv + 1, child, v2))
                continue
            g = [0] * npoints
            for x, cell in zip(first, child[0]):
                g[x] = cell.bit_length() - 1
            g = tuple(g)
            if _preserves(g, mask_sets):
                return g
        return None

    order = 1
    settled = 0  # gens[:settled] span the stabilizer of the base points above
    for level in reversed(range(m)):
        ci, b = base[level]
        if strong and strong[level]:
            gens += strong[level]
            orbit_of, orbit_pts = _orbits(gens, npoints)
        if limit is not None:
            stop = ref.refinements + limit
        failed = []
        for w in _mask_bits(path[level][0][ci]):
            ow = orbit_of[w]
            if ow == orbit_of[b] or any(orbit_of[f] == ow for f in failed):
                continue
            g = find(level, w)
            if g is not None:
                gens.append(g)
                orbit_of, orbit_pts = _orbits(gens, npoints)
            elif spent():
                # the levels below are settled: their group, of known order
                return done(gens[:settled], order)
            else:
                failed.append(w)
        # every candidate was settled, so this is b's full orbit under the
        # stabilizer of the base points above it
        order *= len(orbit_pts[orbit_of[b]])
        settled = len(gens)
    return done(gens, order)


def fixing_collineations(arr):
    """The collineations in PGL(n+1,q) that fix every hyperplane of arr, as
    (generators, order): each generator is a permutation of the space's
    point indices.  None when the forms are linearly dependent or the group
    is trivial.

    In AG(n,q) the point x is the projective point (x,1), and the hyperplane
    at infinity, form (0,...,0,1), joins the forms: the group then lies in
    AGL(n,q).  With the k forms independent, complete them to a basis of
    the dual space and read each point in the coordinates y it gives, the
    forms first.  A matrix fixes each y_i = 0, i < k, up to a scalar exactly
    when its row i is a multiple of e_i, so the group is generated by the
    diagonals, the transvections y_j += y_l with j >= k, and the
    permutations of the coordinates >= k; modulo scalars its order is
    (q-1)^(k-1) q^(k(m-k)) |GL(m-k,q)|, m = n+1.  Conjugating by those
    permutations and diagonals turns y_k += y_l into every such
    transvection, so one primitive diagonal per coordinate, y_k += y_l for
    each l != k, a transposition and a cycle of the coordinates >= k
    suffice.  The field automorphisms are left out."""
    sp = arr.space
    fq, q, m = sp.field, sp.q, sp.n + 1
    add, mul, inv = fq.add_table, fq.mul_table, fq.inv_table
    forms = list(arr.forms)
    if sp.kind == AFFINE:
        forms.append((0,) * sp.n + (1,))
    k = len(forms)
    pivots, _ = rref(forms, fq)
    if len(pivots) < k:
        return None
    # the unit rows off the pivot columns complete the forms to a basis
    basis = forms + [tuple(int(i == j) for i in range(m))
                     for j in range(m) if j not in pivots]

    def coords(x):
        out = []
        for row in basis:
            s = 0
            for a, b in zip(row, x):
                if a and b:
                    s = add[s][mul[a][b]]
            out.append(s)
        return out

    def scalar_class(y):
        lead = next(filter(None, y))
        return tuple(y) if lead == 1 else tuple(mul[inv[lead]][c] for c in y)

    ys = [coords(x + (1,) if sp.kind == AFFINE else x) for x in sp.points]
    index = {scalar_class(y): i for i, y in enumerate(ys)}
    w = fq.primitive

    def diagonal(i):  # y_i -> w y_i
        return lambda y: y[:i] + [mul[w][y[i]]] + y[i + 1:]

    def transvection(l):  # y_k -> y_k + y_l
        return lambda y: y[:k] + [add[y[k]][y[l]]] + y[k + 1:]

    def permutation(src):  # y_i -> y_src[i]
        return lambda y: [y[s] for s in src]

    moves = [diagonal(i) for i in range(m)] if w != 1 else []
    if k < m:
        moves += [transvection(l) for l in range(m) if l != k]
    if m - k > 1:  # a transposition and a cycle of the coordinates >= k
        ident = list(range(m))
        moves.append(permutation(ident[:k] + [k + 1, k] + ident[k + 2:]))
        if m - k > 2:
            moves.append(permutation(ident[:k] + [m - 1] + ident[k:m - 1]))
    gens = [tuple(index[scalar_class(move(y))] for y in ys) for move in moves]
    order = (q - 1) ** k * q ** (k * (m - k))
    for i in range(m - k):
        order *= q ** (m - k) - q ** i
    order //= q - 1
    if order == 1:
        return None
    return gens, order


def _seed_strong(sgens, sorder, universe, mask_sets, base):
    """Per level i of `base` (positions), the strong generators that the
    chain of the seeds `sgens`, a group of order `sorder` on the space's
    points, adds at level i, which fix base[:i], restricted to the
    positions, identities dropped.  Raises InternalError when a seed does
    not map the positions onto themselves or the masks onto the masks."""
    pos = {p: x for x, p in enumerate(universe)}
    ident = tuple(range(len(universe)))

    def restrict(g):
        return tuple(pos.get(g[p], -1) for p in universe)

    for g in sgens:
        r = restrict(g)
        if -1 in r or not _preserves(r, mask_sets):
            raise InternalError("a seed collineation is not an automorphism "
                                "of the instance")
    S = schreier_sims(sgens, len(sgens[0]), sorder,
                      [universe[b] for b in base])[1]
    strong = []
    for i in range(len(base)):
        below = set(S[i + 1]) if i + 1 < len(S) else set()
        level = []
        for g in S[i]:
            r = restrict(g)
            if g not in below and r != ident and r not in level:
                level.append(r)
        strong.append(level)
    return strong


def schreier_sims(gens, n, order, prefix=()):
    """Stabilizer chain of the group of the given order spanned by gens.
    Returns (base, strong, transversals, inverses): the base starts with
    `prefix`, strong[i] lists the strong generators fixing base[:i],
    transversals[i] maps each point x of base[i]'s orbit under them to an
    element taking base[i] to x, and inverses[i] maps x to its inverse.

    Group elements come from a product-replacement walk over the
    generators (Celler, Leedham-Green, Murray, Niemeyer & O'Brien, 1995)
    and are sifted through the chain; a residue becomes a strong generator.
    The orbit lengths multiply to the order exactly when the chain is
    complete, so the walk only decides how soon that happens, never the
    chain's groups or orbits.  The walk follows a fixed seed, so runs
    repeat."""
    ident = tuple(range(n))
    base = list(prefix)
    S = [[] for _ in base]
    T = [{b: ident} for b in base]
    Tinv = [{b: ident} for b in base]  # sifts, and serves Group.stabilizer
    size = 1
    rng = random.Random(0)
    state = list(gens) * (-(-10 // len(gens)))
    acc = ident
    pending = list(gens)  # the generators themselves are sifted first
    while size < order:
        if pending:
            h = pending.pop()
        else:
            i, j = rng.sample(range(len(state)), 2)
            state[i] = _mul(state[i], state[j])
            acc = _mul(acc, state[i])
            h = acc
        level = 0
        while level < len(base):
            u = Tinv[level].get(h[base[level]])
            if u is None:
                break
            h = _mul(h, u)
            level += 1
        if h == ident:
            continue
        if level == len(base):
            z = next(z for z in range(n) if h[z] != z)
            base.append(z)
            S.append([])
            T.append({z: ident})
            Tinv.append({z: ident})
        # h fixes base[:level], so it joins every strong set down to there
        for l in range(level + 1):
            S[l].append(h)
            t, tinv = T[l], Tinv[l]
            frontier = list(t)
            while frontier:
                nxt = []
                for x in frontier:
                    ux = t[x]
                    for s in S[l]:
                        y = s[x]
                        if y not in t:
                            t[y] = _mul(ux, s)
                            tinv[y] = _inverse(t[y])
                            nxt.append(y)
                frontier = nxt
        size = 1
        for t in T:
            size *= len(t)
    return base, S, T, Tinv


class Group:
    """A group of known order on the positions 0..n-1: its generators, its
    orbits, and for each orbit, once asked for, the stabilizer of one point
    of it with a transversal to the rest.

    A stabilizer comes from a Schreier-Sims chain whose base starts in the
    orbit; the stabilizer keeps the rest of that chain, so a later question
    about the orbit of its own first base point needs no new chain.  Every
    other point of an orbit has a conjugate stabilizer: if t takes the
    orbit's representative r to a, then Stab(a) = t Stab(r) t^-1, so one
    chain per orbit serves every point of it."""

    __slots__ = ("gens", "order", "n", "chain", "orbit_of", "orbit_pts",
                 "_stabs")

    def __init__(self, gens, order, n, chain=None):
        self.gens = gens
        self.order = order
        self.n = n
        self.chain = chain  # a complete schreier_sims chain, or None
        self.orbit_of, self.orbit_pts = _orbits(gens, n)
        self._stabs = {}

    def __reduce__(self):
        # a pool task builds the stabilizers it asks for, so its payload
        # need not carry the ones found before it was sent, nor the chain's
        # inverse transversals, which it rebuilds from the transversals
        chain = self.chain and self.chain[:3]
        return _unpickle_group, (self.gens, self.order, self.n, chain)

    def stabilizer(self, a):
        """(K, t, t^-1) with Stab(a) = t K t^-1: K is the stabilizer of the
        representative of a's orbit as a Group, or None when it is trivial,
        and t takes that representative to a."""
        o = self.orbit_of[a]
        entry = self._stabs.get(o)
        if entry is None:
            chain = self.chain
            if chain is None or self.orbit_of[chain[0][0]] != o:
                chain = schreier_sims(self.gens, self.n, self.order, (a,))
            base, S, T, Tinv = chain
            rest = self.order // len(T[0])
            K = None
            if rest > 1:
                K = Group(tuple(S[1]), rest, self.n,
                          (base[1:], S[1:], T[1:], Tinv[1:]))
            entry = self._stabs[o] = (K, T[0], Tinv[0])
        K, T0, Tinv0 = entry
        return K, T0[a], Tinv0[a]


def _unpickle_group(gens, order, n, chain):
    if chain is not None:
        base, S, T = chain
        Tinv = [{x: _inverse(t) for x, t in level.items()} for level in T]
        chain = base, S, T, Tinv
    return Group(gens, order, n, chain)


def state_group(group):
    """A Group, or None for the trivial group, in the form a search state
    carries it: (H, u, v) stands for u H u^-1 with v = u^-1, and here H is
    the group itself and u the identity."""
    if group is None:
        return None
    ident = tuple(range(group.n))
    return group, ident, ident


def branch(group, pts):
    """Orbital branching at a node with group G = u H u^-1, given as
    (H, u, v) with v = u^-1, whose included points G fixes and whose
    excluded points G maps onto themselves.

    Returns (orbits, children): orbits[j] is the mask of the G-orbit of
    pts[j], or 0 when an earlier pts[i] lies in that orbit; children[j] is
    Stab_G(pts[j]) in the same form, or None when trivial, for each j whose
    orbit is not 0."""
    H, u, v = group
    orbit_of = H.orbit_of
    seen = set()
    orbits = []
    children = []
    for p in pts:
        a = v[p]
        o = orbit_of[a]
        if o in seen:
            orbits.append(0)
            children.append(None)
            continue
        seen.add(o)
        members = H.orbit_pts[o]
        if len(members) == 1:  # G fixes p: the child keeps G
            orbits.append(1 << p)
            children.append(group)
            continue
        m = 0
        for x in members:
            m |= 1 << u[x]
        orbits.append(m)
        K, t, tinv = H.stabilizer(a)
        children.append(None if K is None else (K, _mul(t, u), _mul(v, tinv)))
    return orbits, children
