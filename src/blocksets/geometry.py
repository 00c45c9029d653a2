"""Finite projective and affine spaces over GF(q).

Points are coordinate tuples of field codes.  A projective point is the
normalized representative of its scalar class (first nonzero coordinate
scaled to 1); an affine point is just a coordinate tuple.  The index of a
point is its position in the lexicographic enumeration of normalized
representatives, and everything downstream (complements, traces, witnesses)
speaks in these indices.

Flats carry a canonical basis so that equality is bit-for-bit:

* projective d-flat: the unique (d+1) x (n+1) reduced-row-echelon basis of
  its homogeneous span;
* affine d-flat: its lexicographically least member (which is exactly the
  coset representative with zeros in all pivot columns) plus the unique
  d x n reduced-row-echelon basis of its direction space.

Enumeration generates canonical echelon matrices directly instead of
deduplicating spans, so the count identities against Gaussian binomials are
structural rather than accidental.

A flat's points are listed by index arithmetic, never by building a
coordinate tuple and looking it up: the index is a weighted sum of the
coordinate codes (in PG(n,q) after an offset for the lead column), so the
points of x + span(rows) are a few list additions over one table row per
column (`_coset`, the only path that lists points).  The flats that miss
a set of hyperplanes are built from the hyperplanes' forms, as the cosets
of the subspaces of the directions every form vanishes on
(`flats_avoiding`).
"""

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product

from .errors import (DimensionMismatch, DimensionOutOfRange, InternalError,
                     SpaceTooLarge, TooLarge)
from .gf import FieldSpec, field_make

ENUM_GUARD = 2 ** 24

PROJECTIVE = "projective"
AFFINE = "affine"


def gaussian_binomial(m, k, q):
    """Number of k-dimensional linear subspaces of GF(q)^m, exact."""
    if k < 0 or k > m:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise InternalError("Gaussian binomial [%d choose %d]_%d is not integral"
                            % (m, k, q))
    return num // den


def flat_size(kind, d, q):
    """Number of points of a d-flat."""
    if kind == PROJECTIVE:
        return (q ** (d + 1) - 1) // (q - 1)
    return q ** d


def flat_count(kind, n, d, q):
    if kind == PROJECTIVE:
        return gaussian_binomial(n + 1, d + 1, q)
    return q ** (n - d) * gaussian_binomial(n, d, q)


@dataclass(eq=False)
class Space:
    """PG(n, q) or AG(n, q)."""

    kind: str
    n: int
    field: FieldSpec

    def __post_init__(self):
        if self.kind not in (PROJECTIVE, AFFINE):
            raise ValueError("kind must be %r or %r" % (PROJECTIVE, AFFINE))
        if self.n < 1:
            raise DimensionOutOfRange("space dimension must be >= 1, got %d" % self.n)

    @property
    def q(self):
        return self.field.q

    @property
    def ncoords(self):
        """Coordinates per point tuple."""
        return self.n + 1 if self.kind == PROJECTIVE else self.n

    @property
    def npoints(self):
        return flat_size(self.kind, self.n, self.q)

    def check_enumerable(self):
        """Raises SpaceTooLarge when the points are too many to list."""
        if self.npoints > ENUM_GUARD:
            raise SpaceTooLarge(
                "%s has %d points, beyond the enumeration guard %d"
                % (self, self.npoints, ENUM_GUARD))

    @cached_property
    def points(self):
        """All points, lexicographically ordered normalized tuples."""
        self.check_enumerable()
        if self.kind == AFFINE:
            pts = [t for t in product(range(self.q), repeat=self.n)]
        else:
            pts = []
            for lead in range(self.n, -1, -1):
                zeros = (0,) * lead
                for tail in product(range(self.q), repeat=self.n - lead):
                    pts.append(zeros + (1,) + tail)
        return pts

    @cached_property
    def point_index(self):
        return {pt: i for i, pt in enumerate(self.points)}

    @cached_property
    def _index_tables(self):
        """What `_coset` reads to list a flat's points by index arithmetic:
        the weight of each coordinate, for each (column k, code x) the row
        add[x][c] * weight[k] over the codes c, the correction that turns
        a projective lead column's weight into its block offset, and one
        int object per index so that equal indices in different flats are
        one object."""
        q, n, add = self.q, self.n, self.field.add_table
        if self.kind == AFFINE:
            weights = [q ** (n - 1 - k) for k in range(n)]
            lead_adj = None
        else:
            # a point with lead l is off[l] + sum over k > l of c_k q^(n-k),
            # off[l] = (q^(n-l) - 1)/(q - 1) points having a later lead
            weights = [q ** (n - k) for k in range(n + 1)]
            lead_adj = [(q ** (n - l) - 1) // (q - 1) - weights[l]
                        for l in range(n + 1)]
        rows = [[[add[x][c] * w for c in range(q)] for x in range(q)]
                for w in weights]
        return weights, rows, lead_adj, list(range(self.npoints))

    def normalize(self, coords):
        """Canonical representative of a coordinate tuple (identity for affine)."""
        coords = tuple(coords)
        if len(coords) != self.ncoords:
            raise DimensionMismatch(
                "expected %d coordinates, got %d" % (self.ncoords, len(coords)))
        for c in coords:
            if not isinstance(c, int) or not 0 <= c < self.q:
                raise ValueError("coordinate %r is not a GF(%d) code" % (c, self.q))
        if self.kind == AFFINE:
            return coords
        for c in coords:
            if c:
                if c == 1:
                    return coords
                f = self.field.inv(c)
                return tuple(self.field.mul(f, x) for x in coords)
        raise ValueError("the zero vector is not a projective point")

    def index_of(self, coords):
        return self.point_index[self.normalize(coords)]

    def __eq__(self, other):
        return (isinstance(other, Space) and self.kind == other.kind
                and self.n == other.n and self.q == other.q)

    def __hash__(self):
        return hash((self.kind, self.n, self.q))

    def __repr__(self):
        return "%s(%d,%d)" % ("PG" if self.kind == PROJECTIVE else "AG", self.n, self.q)


@lru_cache(maxsize=None)
def space(kind, n, q):
    """Cached Space constructor; reuses point tables across call sites."""
    return Space(kind, n, field_make(q))


# -- linear algebra over the field ---------------------------------------

def rref(rows, fq):
    """Reduced row echelon form.  Returns (pivot_cols, rows) with zero rows
    dropped; rows come back as tuples.  Subtracting g times the pivot row
    adds (-g) times it, one row of the multiplication table."""
    add, neg, mul = fq.add_table, fq.neg_table, fq.mul_table
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        lead = rows[r][c]
        if lead != 1:
            f = mul[fq.inv(lead)]
            rows[r] = [f[x] for x in rows[r]]
        prow = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                g = mul[neg[rows[i][c]]]
                rows[i] = [add[x][g[y]] for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots, [tuple(row) for row in rows[:r]]


def _vec_sub(u, v, fq):
    add, neg = fq.add_table, fq.neg_table
    return tuple(add[a][neg[b]] for a, b in zip(u, v))


def _reduce_by_rows(v, pivots, rows, fq):
    add, neg, mul = fq.add_table, fq.neg_table, fq.mul_table
    v = tuple(v)
    for p, row in zip(pivots, rows):
        c = v[p]
        if c:
            g = mul[neg[c]]
            v = tuple(add[x][g[y]] for x, y in zip(v, row))
    return v


@dataclass(frozen=True)
class Flat:
    """A d-flat in canonical form.  base is None for projective flats."""

    kind: str
    d: int
    base: tuple
    rows: tuple
    points: tuple

    def sort_key(self):
        return (self.base or (), self.rows)

    def key(self):
        return (self.base, self.rows)

    def __repr__(self):
        head = "Flat(d=%d" % self.d
        if self.base is not None:
            head += ", base=%s" % (self.base,)
        return head + ", rows=%s)" % (self.rows,)


# -- listing points by index arithmetic -------------------------------------
#
# A point's index is a weighted sum of its coordinate codes: in AG(n,q)
# sum c_k q^(n-1-k); in PG(n,q) off[lead] + sum over k > lead of c_k q^(n-k).
# The points of a flat are a first vector x plus a span V: in AG x is the
# base and V the span of all rows; in PG x is a row r and V the span of the
# rows after it, which lists the points whose lead is r's pivot.  x is zero
# in V's pivot columns, so each pivot column k adds lam * weight[k] and any
# other column k adds add[x_k][v_k] * weight[k], one table row per (k, x_k).
# V is kept column by column over its q^dim vectors in one fixed order:
# `sums` totals the pivot columns, `free` holds the codes of the other
# columns where V is not zero, and `zero` names the columns where it is.


def _zero_span(sp):
    """The span of no rows: the zero vector alone."""
    return [0], [], list(range(sp.ncoords))


def _coset(tables, x, vspan, lead=None):
    """Sorted indices of the points x + v over v in `vspan`; `lead` is x's
    pivot column in a projective space (None in an affine one)."""
    weights, rows, lead_adj, ints = tables
    sums, free, zero = vspan
    c = 0 if lead is None else lead_adj[lead]
    for k in zero:
        if x[k]:
            c += x[k] * weights[k]
    vals = map(c.__add__, sums)
    for k, col in free:
        vals = map(operator.add, vals, map(rows[k][x[k]].__getitem__, col))
    return sorted(map(ints.__getitem__, vals))


def _widen(sp, vspan, row, p):
    """span(row + V) from V, for an echelon row with pivot p that is zero
    in V's pivot columns; the new vectors are lam * row + v, lam outer."""
    q, add, mul = sp.q, sp.field.add_table, sp.field.mul_table
    weights = sp._index_tables[0]
    sums, free, zero = vspan
    size = len(sums)
    wp = weights[p]
    nsums = []
    for lam in range(q):
        nsums.extend(map((lam * wp).__add__, sums))
    nfree = []
    for k, col in free:
        r = row[k]
        if r:
            ncol = []
            for lam in range(q):
                ncol.extend(map(add[mul[lam][r]].__getitem__, col))
        else:
            ncol = col * q
        nfree.append((k, ncol))
    nzero = []
    for k in zero:
        if k == p:
            continue
        r = row[k]
        if r:
            ncol = []
            for lam in range(q):
                ncol.extend([mul[lam][r]] * size)
            nfree.append((k, ncol))
        else:
            nzero.append(k)
    return nsums, nfree, nzero


def _direction(sp, rows):
    """The span of canonical echelon `rows`, as `_coset` reads it."""
    vspan = _zero_span(sp)
    for row in reversed(rows):
        vspan = _widen(sp, vspan, row, row.index(1))
    return vspan


def _flat(sp, base, rows):
    """The flat with canonical echelon `rows`: projective when `base` is
    None, else the affine flat through `base`.

    Its points come from `_coset`, the one kernel that lists points.  An
    affine flat is one coset: base plus the span of its rows.  A projective
    flat is listed row by row, last row first: the points whose lead is
    row i's pivot are row i plus the span of the rows after it, and each
    row's points have larger indices than those of the rows after it, so
    the pieces come out in order."""
    tables = sp._index_tables
    if base is not None:
        return Flat(AFFINE, len(rows), tuple(base), tuple(rows),
                    tuple(_coset(tables, base, _direction(sp, rows))))
    vspan = _zero_span(sp)
    pivots = [row.index(1) for row in rows]
    pts = []
    for i in range(len(rows) - 1, -1, -1):
        pts += _coset(tables, rows[i], vspan, pivots[i])
        if i:
            vspan = _widen(sp, vspan, rows[i], pivots[i])
    return Flat(PROJECTIVE, len(rows) - 1, None, tuple(rows), tuple(pts))


def _canonical(sp, origin, vecs):
    """Canonical (base, rows) of the projective span of `vecs` (origin
    None) or of the affine flat origin + span(vecs)."""
    fq = sp.field
    pivots, rows = rref(vecs, fq) if vecs else ([], [])
    if origin is None:
        return None, tuple(rows)
    return _reduce_by_rows(origin, pivots, rows, fq), tuple(rows)


def span(sp, pts):
    """Smallest flat containing the given points (indices or coord tuples)."""
    coords = [sp.points[p] if isinstance(p, int) else sp.normalize(p) for p in pts]
    if not coords:
        raise DimensionOutOfRange("span of an empty point set is undefined")
    if sp.kind == PROJECTIVE:
        return _flat(sp, *_canonical(sp, None, coords))
    origin = coords[0]
    vecs = [_vec_sub(c, origin, sp.field) for c in coords[1:]]
    return _flat(sp, *_canonical(sp, origin, vecs))


def _fillings(sp, vec, cols):
    """The vector `vec` with every choice of codes in the columns `cols`,
    the last column varying fastest."""
    vec = list(vec)
    for vals in product(range(sp.q), repeat=len(cols)):
        for c, v in zip(cols, vals):
            vec[c] = v
        yield tuple(vec)


def _echelon_rows(sp, p, taken):
    """Every row with leading 1 in column p and zeros in the pivot columns
    `taken`."""
    m = sp.ncoords
    return _fillings(sp, [0] * p + [1] + [0] * (m - p - 1),
                     [c for c in range(p + 1, m) if c not in taken])


def iter_flats(sp, d):
    """Generate all d-flats by direct construction of canonical echelon
    bases, last row first, in no particular order (enumerate_flats sorts).
    The span of each choice of trailing rows is built once and shared by
    every first row (projective) or base (affine) that extends it; in a
    projective space the trailing rows' own points are shared too, since
    they have later leads and so smaller indices."""
    if d < 0 or d > sp.n:
        raise DimensionOutOfRange("d=%d outside 0..%d" % (d, sp.n))
    if sp.kind == PROJECTIVE:
        yield from _projective_flats(sp, d, d, sp.ncoords, (), _zero_span(sp), [])
    else:
        yield from _affine_flats(sp, d, d - 1, sp.ncoords, (), _zero_span(sp))


def _projective_flats(sp, d, i, bound, later, vspan, tail):
    """Flats whose rows after row i are `later`, spanning `vspan`, with
    points `tail`; row i takes a pivot below `bound`."""
    tables = sp._index_tables
    taken = [row.index(1) for row in later]
    for p in range(i, bound):
        for row in _echelon_rows(sp, p, taken):
            pts = tail + _coset(tables, row, vspan, p)
            rows = (row,) + later
            if i == 0:
                yield Flat(PROJECTIVE, d, None, rows, tuple(pts))
            else:
                yield from _projective_flats(sp, d, i - 1, p, rows,
                                             _widen(sp, vspan, row, p), pts)


def _affine_flats(sp, d, i, bound, later, vspan):
    """Affine flats whose rows after row i are `later`, spanning `vspan`;
    once every row is chosen, one flat per base."""
    taken = [row.index(1) for row in later]
    if i < 0:
        tables = sp._index_tables
        free = [c for c in range(sp.ncoords) if c not in taken]
        for base in _fillings(sp, [0] * sp.ncoords, free):
            yield Flat(AFFINE, d, base, later, tuple(_coset(tables, base, vspan)))
        return
    for p in range(i, bound):
        for row in _echelon_rows(sp, p, taken):
            yield from _affine_flats(sp, d, i - 1, p, (row,) + later,
                                     _widen(sp, vspan, row, p))


def check_flat_listing(sp, d, count):
    """Raises TooLarge when `count` d-flats of sp are too many to list."""
    if count > ENUM_GUARD:
        raise TooLarge("enumerating %d flats of dimension %d in %s exceeds the guard"
                       % (count, d, sp))


def listable_flat_count(sp, d):
    """The number of d-flats; raises TooLarge when they are too many to list."""
    expected = flat_count(sp.kind, sp.n, d, sp.q)
    check_flat_listing(sp, d, expected)
    return expected


def enumerate_flats(sp, d):
    """All d-flats sorted by canonical basis; length matches flat_count."""
    expected = listable_flat_count(sp, d)
    flats = sorted(iter_flats(sp, d), key=Flat.sort_key)
    if len(flats) != expected:
        raise InternalError("built %d flats of dimension %d in %s, expected %d"
                            % (len(flats), d, sp, expected))
    return flats


# -- flats that miss a set of hyperplanes ------------------------------------
#
# An affine flat x + V misses the hyperplane a.y + c = 0 exactly when
# a.v = 0 for every v in V and a.x + c != 0.  So the d-flats inside a flat
# F with the hyperplanes struck out are the cosets x + V over the
# d-subspaces V of W, the directions of F on which every form's variable
# part a vanishes, and the points x of F that lie on no hyperplane: such a
# coset lies wholly off the hyperplanes or wholly on one.


def _dot(u, v, fq):
    add, mul = fq.add_table, fq.mul_table
    acc = 0
    for a, b in zip(u, v):
        acc = add[acc][mul[a][b]]
    return acc


def _combine(coeffs, rows, fq):
    """The combination sum of coeffs[i] * rows[i]."""
    add, mul = fq.add_table, fq.mul_table
    acc = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            acc = [add[x][mul[c][y]] for x, y in zip(acc, row)]
    return tuple(acc)


def form_kernel(sp, forms, within=None):
    """Echelon basis of W: the directions of the affine flat `within`
    (every vector of GF(q)^n when None) on which the variable part of
    every form vanishes."""
    fq, m = sp.field, sp.ncoords
    if within is None:
        rows = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    else:
        rows = list(within.rows)
    # a vector lam . rows lies in W when lam solves (a . rows[j])_j . lam = 0
    pivots, eqs = rref([[_dot(form[:m], row, fq) for row in rows]
                        for form in forms], fq)
    kernel = []
    for f in range(len(rows)):
        if f not in pivots:
            lam = [0] * len(rows)
            lam[f] = 1
            for p, eq in zip(pivots, eqs):
                lam[p] = fq.neg(eq[f])
            kernel.append(_combine(lam, rows, fq))
    return rref(kernel, fq)[1]


def _subspaces(sp, basis, k):
    """Canonical echelon rows of every k-dimensional subspace of the span
    of the echelon `basis`: M * basis for each k x len(basis) reduced
    echelon matrix M, which is reduced echelon again, with its pivots in
    the basis's pivot columns."""
    w = len(basis)
    for piv in combinations(range(w), k):
        free = [(i, j) for i, p in enumerate(piv)
                for j in range(p + 1, w) if j not in piv]
        for vals in product(range(sp.q), repeat=len(free)):
            coef = [[0] * w for _ in piv]
            for i, p in enumerate(piv):
                coef[i][p] = 1
            for (i, j), v in zip(free, vals):
                coef[i][j] = v
            yield tuple(_combine(c, basis, sp.field) for c in coef)


def flats_avoiding(sp, forms, d, members, within=None):
    """The d-flats inside `within` (the whole space when None) that miss
    the zero set of every form, sorted by canonical basis.  `members` are
    the points of `within` on no form's zero set.

    In AG(n,q) they are the cosets x + V, V a d-subspace of
    `form_kernel(sp, forms, within)` and x a member; the canonical base of
    x + V is its one point that is zero in V's pivot columns, so each
    coset is built once, from that member.  In PG(n,q) every flat of
    dimension >= 1 meets every hyperplane: with a form the flats are the
    members' points, and with none they are the d-subflats of `within`.
    `members` come in index order."""
    if d < 0 or d > sp.n:
        raise DimensionOutOfRange("d=%d outside 0..%d" % (d, sp.n))
    if not members:
        return []
    if len(members) == sp.npoints:
        return enumerate_flats(sp, d)
    coords = sp.points
    if sp.kind == PROJECTIVE:
        if forms:
            return [_flat(sp, None, (coords[p],)) for p in members] if d == 0 else []
        return sorted((_flat(sp, None, rows)
                       for rows in _subspaces(sp, within.rows, d + 1)),
                      key=Flat.sort_key)
    tables = sp._index_tables
    zero = [frozenset(p for p in members if not coords[p][c]) for c in range(sp.n)]
    flats = []
    for rows in _subspaces(sp, form_kernel(sp, forms, within), d):
        pivots = [row.index(1) for row in rows]
        vspan = _direction(sp, rows)
        bases = (zero[pivots[0]].intersection(*[zero[c] for c in pivots[1:]])
                 if pivots else members)
        for p in bases:
            x = coords[p]
            flats.append(Flat(AFFINE, d, x, rows, tuple(_coset(tables, x, vspan))))
    return sorted(flats, key=Flat.sort_key)
