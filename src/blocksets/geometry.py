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
column (`_coset`, the only path that lists points).  The flats inside a
point set are grown by counting cosets (`FlatGrowth`).
"""

import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

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
    vspan = _zero_span(sp)
    pivots = [row.index(1) for row in rows]
    if base is not None:
        for row, p in zip(reversed(rows), reversed(pivots)):
            vspan = _widen(sp, vspan, row, p)
        return Flat(AFFINE, len(rows), tuple(base), tuple(rows),
                    tuple(_coset(tables, base, vspan)))
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


def listable_flat_count(sp, d):
    """The number of d-flats; raises TooLarge when they are too many to list."""
    expected = flat_count(sp.kind, sp.n, d, sp.q)
    if expected > ENUM_GUARD:
        raise TooLarge("enumerating %d flats of dimension %d in %s exceeds the guard"
                       % (expected, d, sp))
    return expected


def enumerate_flats(sp, d):
    """All d-flats sorted by canonical basis; length matches flat_count."""
    expected = listable_flat_count(sp, d)
    flats = sorted(iter_flats(sp, d), key=Flat.sort_key)
    if len(flats) != expected:
        raise InternalError("built %d flats of dimension %d in %s, expected %d"
                            % (len(flats), d, sp, expected))
    return flats


class FlatGrowth:
    """The flats lying inside a fixed set of point indices, grown one
    dimension at a time from the points up and kept, so that asking for
    several dimensions grows each level once.

    Level k+1 comes from every k-flat F by counting cosets.  Each member p
    above F's least point and off F names span(F + p) by a canonical id:
    p (in AG, p - base) reduced by F's echelon rows and scaled to lead 1.
    The span lies inside the set with least point min F exactly when its
    id is counted |span| - |F| times, and only those spans are built.
    Each (k+1)-flat inside the set contains a k-flat through its least
    point, so none is missed."""

    def __init__(self, sp, members):
        self.space = sp
        self.members = frozenset(members)
        self.order = sorted(self.members)
        self.levels = []

    def flats(self, d):
        """All d-flats inside the set, sorted by canonical basis."""
        sp = self.space
        if d < 0 or d > sp.n:
            raise DimensionOutOfRange("d=%d outside 0..%d" % (d, sp.n))
        if len(self.members) == sp.npoints:
            return enumerate_flats(sp, d)
        if not self.members:
            return []
        if not self.levels:
            self.levels.append(sorted((span(sp, [p]) for p in self.order),
                                      key=Flat.sort_key))
        while len(self.levels) <= d:
            self.levels.append(self._grow(self.levels[-1], len(self.levels)))
        return list(self.levels[d])

    def _grow(self, current, level):
        sp, order = self.space, self.order
        fq, coords = sp.field, sp.points
        add, neg, mul = fq.add_table, fq.neg_table, fq.mul_table
        scale = [None] + [mul[c] for c in fq.inv_table[1:]]
        extra = flat_size(sp.kind, level, sp.q) - flat_size(sp.kind, level - 1, sp.q)
        grown = {}
        for fl in current:
            # per echelon row: its pivot column and, per code c, the row times -c
            reducers = [(row.index(1), [tuple(map(mul[neg[c]].__getitem__, row))
                                        for c in range(sp.q)])
                        for row in fl.rows]
            shift = None if fl.base is None else [add[neg[b]] for b in fl.base]
            count = {}
            for p in order[bisect_right(order, fl.points[0]):]:
                v = coords[p]
                if shift is not None:  # affine: p - base
                    v = tuple(map(operator.getitem, shift, v))
                for col, minus in reducers:
                    if v[col]:
                        row = minus[v[col]]
                        v = tuple(map(operator.getitem, map(add.__getitem__, v), row))
                lead = next(filter(None, v), 0)
                if not lead:
                    continue  # p lies on fl
                if lead != 1:
                    v = tuple(map(scale[lead].__getitem__, v))
                count[v] = count.get(v, 0) + 1
            for v, c in count.items():
                if c == extra:
                    key = _canonical(sp, fl.base, fl.rows + (v,))
                    if key not in grown:
                        grown[key] = _flat(sp, *key)
        return sorted(grown.values(), key=Flat.sort_key)

