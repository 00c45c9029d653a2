"""Automorphisms of mask instances and the stabilizers the search needs.

An automorphism of a mask instance is a permutation of the universe
positions that maps the family masks onto the family masks and the
forbidden masks onto the forbidden masks; it maps solutions to solutions
of the same size.  The solver uses a group of them for orbital branching
(Ostrowski, Linderoth, Rossi & Smriglio, "Orbital branching", Math. Prog.
126, 2011; Margot, "Symmetry in integer linear programming", 2010).

The group comes from the geometry.  AG(n,q) is PG(n,q) minus the
hyperplane at infinity H, so an instance that build_instance made lives
on the complement of hyperplanes of PG(n,q), H added in AG, and the
collineations that permute them map its traces onto themselves.
`collineations` builds that set stabilizer in PGammaL(n+1,q) from the
forms: the kernel fixing each hyperplane in closed form, and one map per
permutation of them, with its field automorphism, that a collineation
realizes.  `automorphisms` computes its generators on the universe alone
and checks each against the masks; the group's closed-form order bounds
that of its action there, which a Schreier-Sims chain on the universe
gives exactly (a universe inside a hyperplane, as braid AG(4,4)'s, is
fixed pointwise by more than the identity).  Only this module
fills the group's fields of the search's symmetry record; the solver
imports it only past its probe.

`schreier_sims` builds a stabilizer chain for a group given an upper
bound on its order, and proves it complete.
`branch` works at a search node whose group is the pointwise stabilizer of
its included points: children whose points share an orbit of the node's
group with an earlier sibling are skipped, each kept child excludes the
orbits of its earlier siblings, and it gets the stabilizer of its one new
point.  A `Group` builds one chain per orbit whose stabilizer is asked
for, and keeps it: the stabilizer of any other point of the orbit is a
conjugate, so a search state carries its group as a cached Group H with
one map v, the conjugate v^-1 H v, and a child's group costs one
permutation product.  A chain's maps run the same way: each takes a
point back to its level's base point.

Permutations are tuples: g[x] is the image of position x.  `automorphisms`
returns a Group, a search state carries one as (H, v) (see
`state_group`), and None stands for the trivial group.
"""

import random
from functools import reduce
from math import prod

from .errors import InternalError
from .geometry import AFFINE, _reduce_by_rows, rref
from .solver import _mask_bits


def _mul(a, b):
    """a then b."""
    return tuple(map(b.__getitem__, a))


def _inverse(g):
    inv = [0] * len(g)
    for x, y in enumerate(g):
        inv[y] = x
    return tuple(inv)


def _preserves(g, mask_sets):
    """g maps each set of masks onto itself; mask_sets pairs each set with
    the positions of each of its masks."""
    bit = [1 << y for y in g]
    for have, positions in mask_sets:
        for pts in positions:
            if sum(map(bit.__getitem__, pts)) not in have:
                return False
    return True


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


def automorphisms(seeds, trace_masks, forb_masks=(), stats=None):
    """The collineations of the arrangement restricted to the positions,
    as a Group, or None when that is trivial.  `seeds` is (arrangement,
    universe), universe[x] being the point at position x.  The generators
    permute the universe alone, and a Schreier-Sims chain on it, whose
    base starts at position 0, gives the order of that action: the whole
    group's closed form bounds it, and is reached when only the identity
    fixes every point of the universe.  The Group keeps the chain.  A
    generator that fails the masks, or takes a point off the universe, is
    a fault in the program.  `stats`, a dict when given, gets the `order`
    and the number of `generators` (1 and 0 for the trivial group)."""
    arr, universe = seeds
    sp = arr.space
    pts = [sp.points[p] + (1,) for p in universe] if sp.kind == AFFINE \
        else [sp.points[p] for p in universe]
    gens, bound = collineations(arr, pts)
    mask_sets = [(set(ms), [_mask_bits(x) for x in set(ms)])
                 for ms in (trace_masks, forb_masks)]
    ident = tuple(range(len(pts)))
    restricted = []
    for g in gens:
        if -1 in g or not _preserves(g, mask_sets):
            raise InternalError("a collineation is not an automorphism of "
                                "the instance")
        if g != ident and g not in restricted:
            restricted.append(g)
    chain = schreier_sims(restricted, len(pts), bound, (0,)) if restricted else None
    order = prod(map(len, chain[2])) if chain else 1
    if stats is not None:
        stats.update(order=order, generators=len(restricted))
    return Group(tuple(restricted), order, len(pts), chain) if chain else None


def _combine(coefs, rows, fq):
    """The sum of c * row over the pairs, a list."""
    add, mul = fq.add_table, fq.mul_table
    acc = [0] * len(rows[0])
    for c, row in zip(coefs, rows):
        if c:
            mc = mul[c]
            acc = [add[x][mc[y]] for x, y in zip(acc, row)]
    return acc


def _normalized(v, fq):
    """A nonzero vector scaled to lead with 1, as a tuple."""
    f = fq.mul_table[fq.inv_table[next(filter(None, v))]]
    return tuple(f[c] for c in v)


def _inverse_rows(rows, fq):
    """The inverse of an invertible square matrix, as rows."""
    k = len(rows)
    _, red = rref([list(row) + [int(i == j) for j in range(k)]
                   for i, row in enumerate(rows)], fq)
    return [list(row[k:]) for row in red]


def _frobenius(fq):
    """Per s < e, q = p^e, the table of c -> c^(p^s)."""
    tables = [list(range(fq.q))]
    while len(tables) < fq.e:
        tables.append([reduce(lambda x, _: fq.mul_table[x][c], range(fq.p - 1), c)
                       for c in tables[-1]])
    return tables


def _independent(vectors, fq):
    """A maximal independent subset of the vectors, taken in order."""
    basis, spanned = [], ([], [])
    for v in vectors:
        if any(_reduce_by_rows(v, *spanned, fq)):
            basis.append(v)
            if len(basis) == len(v):
                break
            spanned = rref(basis, fq)
    return basis


class _Frame:
    """An arrangement's forms on the closure PG(n,q), H = (0,...,0,1) added
    in AG, and the points whose images it computes: `points`, vectors of
    the closure that the collineations permuting the forms map onto
    themselves, such as an instance's universe.  `rank` independent
    forms and unit rows make a basis of the dual space: `ys` are each
    point's values of it (`index` maps them back to positions), `coeffs`
    each form's coefficients over the basis forms.  comp[i] names basis
    form i's component in the forms' matroid, which fundamental circuits
    decide: a form's expansion joins its support."""

    def __init__(self, arr, points):
        sp = arr.space
        fq = self.field = sp.field
        m = self.m = sp.n + 1
        forms = list(arr.forms) + [(0,) * sp.n + (1,)] * (sp.kind == AFFINE)
        basis = _independent(forms, fq)
        r = self.rank = len(basis)
        pivots = rref(basis, fq)[0]
        rows = basis + [tuple(int(i == j) for i in range(m))
                        for j in range(m) if j not in pivots]
        inv = _inverse_rows(rows, fq)
        self.coeffs = [_combine(f, inv, fq)[:r] for f in forms]
        self.comp = list(range(r))
        for a in self.coeffs:
            joined = {self.comp[j] for j, c in enumerate(a) if c}
            self.comp = [min(joined) if c in joined else c for c in self.comp]
        columns = list(zip(*rows))
        self.ys = [_combine(x, columns, fq) for x in points]
        self.index = {tuple(f[c] for c in y): i for i, y in enumerate(self.ys)
                      for f in fq.mul_table[1:]}  # each point's every multiple
        self.frob = _frobenius(fq)

    def permutation(self, A, s=0):
        """The points under y -> A y^sigma, sigma the field automorphism
        c -> c^(p^s), as a permutation of their positions: -1 marks an
        image that is not one of them, which only a fault can give."""
        add, index = self.field.add_table, self.index
        # each column of A times each scalar
        scaled = [[[f[a] for a in col] for f in self.field.mul_table]
                  for col in zip(*A)]
        ys = self.ys if not s else ([self.frob[s][c] for c in y] for y in self.ys)
        images = []
        for y in ys:
            acc = None
            for col, c in zip(scaled, y):
                if c:
                    acc = col[c] if acc is None else [add[x][z] for x, z in zip(acc, col[c])]
            images.append(index.get(tuple(acc), -1))
        return tuple(images)


def fixing_collineations(frame):
    """The collineations in PGL(n+1,q) that fix every hyperplane of the
    frame's arrangement, with H added in AG, as (generators, order): each
    generator permutes the frame's points, as _Frame.permutation does.

    In _Frame's coordinates y (m = n+1), a matrix fixes every hyperplane
    when row i < rank r is a multiple of e_i, one per component (only a
    scalar fixes each form of a connected set), and its block on the
    coordinates >= r is invertible: (q-1)^(c-1) q^(r(m-r)) |GL(m-r,q)| of
    them modulo scalars, for c components.  The generators are a primitive
    diagonal per component and one at coordinate r, the transvections
    y_r += y_l for l < r and for l = r+1, and a transposition and a cycle
    of the coordinates >= r.  The two permutations span every permutation
    of those coordinates, which conjugate the diagonal at r into one at
    each of them, and the transvections into y_j += y_l for every j >= r
    and l < r, and into every y_j += y_k with j != k both >= r; the
    diagonals scale these into every elementary transvection.  The
    elementary transvections and the diagonals on the coordinates >= r
    span the GL(m-r,q) block and the q^(r(m-r)) transvections out of the
    first r coordinates, and the component diagonals the rest."""
    fq, m, r, comp = frame.field, frame.m, frame.rank, frame.comp
    q, w = fq.q, fq.primitive
    ident = list(range(m))

    def move(rows=(), src=ident):  # y_i -> y_src[i], then the given rows
        rows = dict(rows)
        return [rows.get(i) or [int(k == src[i]) for k in ident] for i in ident]

    def scaled(i):
        return i, [w if k == i else 0 for k in ident]

    moves = []
    if w != 1:
        moves += [move(scaled(i) for i in range(r) if comp[i] == c)
                  for c in sorted(set(comp))]
    if r < m:
        if w != 1:
            moves.append(move([scaled(r)]))
        moves += [move([(r, [int(k in (r, l)) for k in ident])])
                  for l in list(range(r)) + [r + 1] * (m - r > 1)]
    if m - r > 1:  # a transposition and a cycle of the coordinates >= r
        moves.append(move(src=ident[:r] + [r + 1, r] + ident[r + 2:]))
    if m - r > 2:
        moves.append(move(src=ident[:r] + [m - 1] + ident[r:m - 1]))
    order = (q - 1) ** len(set(comp)) * q ** (r * (m - r)) * \
        prod(q ** (m - r) - q ** i for i in range(m - r)) // (q - 1)
    return [frame.permutation(A) for A in moves], order


def _form_permutations(frame):
    """(moves, count): collineations realize `count` pairs (permutation of
    the forms, field automorphism), and the moves, each (A, s) as in
    _Frame.permutation, realize pairs that generate them all.  y -> A
    y^sigma maps the form of coefficients a to a^sigma A^-1.  A backtrack
    picks the image and scalar of each basis form in turn while every form
    whose expansion is filled maps onto a form, no two onto one.  The first
    basis form of a component takes the scalar 1, as the kernel scales
    each component by its own, so each pair comes out once."""
    fq, m, r, coeffs = frame.field, frame.m, frame.rank, frame.coeffs
    keys = {_normalized(a, fq): i for i, a in enumerate(coeffs)}
    due = [[] for _ in range(r)]  # the forms whose expansion ends at each
    for i, a in enumerate(coeffs):
        due[max(j for j, c in enumerate(a) if c)].append(i)
    first = {frame.comp.index(c) for c in frame.comp}
    images = [None] * r  # the scaled forms X maps the basis forms to
    target = [None] * len(coeffs)
    hit = set()

    def extend(d, frob, found):
        if d == r:
            found.append((tuple(target), [row[:] for row in images]))
            return
        for g, a in enumerate(coeffs):
            if g in hit:
                continue
            for lam in ((1,) if d in first else range(1, fq.q)):
                images[d] = [fq.mul_table[lam][c] for c in a]
                taken = []
                for f in due[d]:
                    img = _combine([frob[c] for c in coeffs[f]], images, fq)
                    t = keys.get(_normalized(img, fq)) if any(img) else None
                    if t is None or t in hit:
                        break
                    hit.add(t)
                    taken.append(t)
                    target[f] = t
                else:
                    extend(d + 1, frob, found)
                hit.difference_update(taken)

    moves = []
    pairs = []
    count = 0
    reached = {(tuple(range(len(coeffs))), 0)}  # the pairs generated so far
    for s, frob in enumerate(frame.frob):
        found = []
        extend(0, frob, found)
        count += len(found)
        for pi, X in found:
            if (pi, s) in reached:
                continue
            A = [row + [0] * (m - r) for row in _inverse_rows(X, fq)]
            moves.append((A + [[int(i == j) for j in range(m)]
                               for i in range(r, m)], s))
            pairs.append((pi, s))
            frontier = list(reached)
            for x, t in frontier:
                for g, u in pairs:
                    y = (tuple(g[i] for i in x), (t + u) % fq.e)
                    if y not in reached:
                        reached.add(y)
                        frontier.append(y)
    return moves, count


def collineations(arr, points):
    """The collineations of PG(n,q) that permute the hyperplanes of arr,
    with H added in AG, as (generators, order), each generator permuting
    the positions of `points` as _Frame.permutation does: vectors of the
    closure PG(n,q) that the group maps onto themselves.  The order is the
    whole group's, an upper bound on that of its action on the points."""
    frame = _Frame(arr, points)
    gens, order = fixing_collineations(frame)
    moves, count = _form_permutations(frame)
    return gens + [frame.permutation(A, s) for A, s in moves], order * count


# Walk elements that sift to the identity in a row before schreier_sims
# tests its chain by Schreier's lemma: it sets only how soon the test runs
_QUIET = 30


def schreier_sims(gens, n, order, prefix=()):
    """Stabilizer chain of the group spanned by gens, whose order is at
    most `order`.  Returns (base, strong, transversals): the base starts
    with `prefix`, strong[i] lists the strong generators fixing base[:i],
    and transversals[i] maps each point x of base[i]'s orbit under them to
    an element taking x back to base[i], which is what a sift multiplies
    by.  The orbit lengths multiply to the group's order.

    Group elements come from a product-replacement walk over the
    generators (Celler, Leedham-Green, Murray, Niemeyer & O'Brien, 1995)
    and are sifted through the chain; a residue becomes a strong generator.
    Each orbit it joins is already closed under the other strong
    generators, so it grows from the images of its points under the new
    one alone, and only the points that adds go through all of them.
    The orbit lengths never multiply past the group's order, so the chain
    is complete once their product is `order`.  Short of that, once _QUIET walk
    elements in a row sift to the identity, every Schreier generator is
    sifted, the bottom level first: t_x s t_s(x)^-1 for each point x of a
    level's orbit and each strong generator s of the level, t_x being the
    inverse of x's map.  By Schreier's lemma (Sims 1970; Seress,
    "Permutation Group Algorithms", 2003) the chain is complete when every
    one of them sifts to the identity; a residue joins the chain as a
    walk element does, and the walk goes on.  The walk and the test only
    decide how soon the chain is complete, and the walk follows a fixed
    seed, so runs repeat."""
    ident = tuple(range(n))
    base = list(prefix)
    S = [[] for _ in base]
    Sinv = [[] for _ in base]  # the inverses of S, which extend the orbits
    W = [{b: ident} for b in base]
    size = 1
    rng = random.Random(0)
    state = list(gens) * (-(-10 // len(gens)))
    acc = ident
    pending = list(gens)  # the generators themselves are sifted first
    quiet = 0  # walk elements in a row that sifted to the identity

    def sift(h):
        """h's residue, and the level where its sift stopped."""
        level = 0
        while level < len(base):
            w = W[level].get(h[base[level]])
            if w is None:
                break
            if w is not ident:  # h fixes base[level]
                h = _mul(h, w)
            level += 1
        return h, level

    def schreier_generators():
        for l in reversed(range(len(base))):
            w = W[l]
            for x, wx in w.items():
                tx = _inverse(wx)
                for s in S[l]:
                    yield _mul(_mul(tx, s), w[s[x]])

    while size < order:
        if pending or quiet < _QUIET:
            if pending:
                h = pending.pop()
            else:
                i, j = rng.sample(range(len(state)), 2)
                state[i] = _mul(state[i], state[j])
                acc = _mul(acc, state[i])
                h = acc
            h, level = sift(h)
            if h == ident:
                quiet += 1
                continue
        else:
            residue = next((r for r in map(sift, schreier_generators())
                            if r[0] != ident), None)
            if residue is None:
                break
            h, level = residue
        quiet = 0
        if level == len(base):
            z = next(z for z in range(n) if h[z] != z)
            base.append(z)
            S.append([])
            Sinv.append([])
            W.append({z: ident})
        # h fixes base[:level], so it joins every strong set down to there.
        # Only h can take an orbit point out of its orbit; the points it
        # adds go through every strong generator
        hinv = _inverse(h)
        for l in range(level + 1):
            S[l].append(h)
            Sinv[l].append(hinv)
            w = W[l]
            frontier = []
            for x, wx in list(w.items()):
                y = h[x]
                if y not in w:
                    w[y] = _mul(hinv, wx)
                    frontier.append(y)
            while frontier:
                nxt = []
                for x in frontier:
                    wx = w[x]
                    for s, s_inv in zip(S[l], Sinv[l]):
                        y = s[x]
                        if y not in w:
                            w[y] = _mul(s_inv, wx)
                            nxt.append(y)
                frontier = nxt
        size = 1
        for w in W:
            size *= len(w)
    return base, S, W


class Group:
    """A group of known order on the positions 0..n-1: its generators, its
    orbits, and for each orbit, once asked for, the stabilizer of one point
    of it with the maps taking each other point of it there.

    A stabilizer comes from a Schreier-Sims chain whose base starts in the
    orbit; the stabilizer keeps the rest of that chain, so a later question
    about the orbit of its own first base point needs no new chain.  Every
    other point of an orbit has a conjugate stabilizer: if w takes a to the
    orbit's representative r, then Stab(a) = w^-1 Stab(r) w, so one chain
    per orbit serves every point of it."""

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
        # need not carry the ones found before it was sent
        return Group, (self.gens, self.order, self.n, self.chain)

    def stabilizer(self, a):
        """(K, w): K is the stabilizer of the representative of a's orbit
        as a Group, or None when it is trivial, and w takes a to that
        representative, so Stab(a) is K conjugated by w."""
        o = self.orbit_of[a]
        entry = self._stabs.get(o)
        if entry is None:
            chain = self.chain
            if chain is None or self.orbit_of[chain[0][0]] != o:
                chain = schreier_sims(self.gens, self.n, self.order, (a,))
            base, S, W = chain
            rest = self.order // len(W[0])
            K = None
            if rest > 1:
                K = Group(tuple(S[1]), rest, self.n, (base[1:], S[1:], W[1:]))
            entry = self._stabs[o] = (K, W[0])
        K, W0 = entry
        return K, W0[a]


def state_group(group):
    """A Group, or None for the trivial group, in the form a search state
    carries it: (H, v) stands for the group of the maps x -> v^-1(h(v(x)))
    for h in H, and here H is the group itself and v the identity."""
    if group is None:
        return None
    return group, tuple(range(group.n))


def branch(group, pts):
    """Orbital branching at a node whose group G is given as (H, v), as in
    `state_group`, and fixes the node's included points and maps its
    excluded points onto themselves.

    Returns (orbits, children): orbits[j] is the mask of the G-orbit of
    pts[j], or 0 when an earlier pts[i] lies in that orbit; children[j] is
    Stab_G(pts[j]) in the same form, or None when trivial, for each j whose
    orbit is not 0.  v takes p to v(p), whose stabilizer in H is K
    conjugated by w, so the child's map is v then w."""
    H, v = group
    orbit_of = H.orbit_of
    u = None  # v^-1, which maps H's orbits back to G's
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
        if u is None:
            u = _inverse(v)
        m = 0
        for x in members:
            m |= 1 << u[x]
        orbits.append(m)
        K, w = H.stabilizer(a)
        children.append(None if K is None else (K, _mul(v, w)))
    return orbits, children
