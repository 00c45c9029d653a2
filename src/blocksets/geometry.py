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
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product
from operator import getitem

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

    @cached_property
    def points(self):
        """All points, lexicographically ordered normalized tuples."""
        if self.npoints > ENUM_GUARD:
            raise SpaceTooLarge(
                "%s has %d points, beyond the enumeration guard %d"
                % (self, self.npoints, ENUM_GUARD))
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


def _flat(sp, base, rows):
    """The flat with canonical echelon `rows`: projective when `base` is
    None, else the affine flat through `base`.

    Points are built row by row, last row first.  `vecs` holds every
    combination of the rows after the current one (translated by `base`),
    so each row adds q-1 shifted copies of it.  A projective flat keeps the
    copies with coefficient 1 on the current row: the first nonzero
    coefficient is 1, and since the rows are in reduced echelon form that
    vector is already a normalized point.  A row to add is bound as the
    addition-table rows of its coordinates, so each coordinate of a new
    vector is one table read; this is the only path that lists a flat's
    points."""
    add, mul = sp.field.add_table, sp.field.mul_table
    index = sp.point_index
    vecs = [base if base is not None else (0,) * sp.ncoords]
    pts = []
    for i in range(len(rows) - 1, -1, -1):
        row = rows[i]
        arow = [add[x] for x in row]
        step = [tuple(map(getitem, arow, v)) for v in vecs]
        if base is None:
            pts.extend(index[v] for v in step)
            if i == 0:
                break
        for lam in range(2, sp.q):
            arow = [add[mul[lam][x]] for x in row]
            step.extend(tuple(map(getitem, arow, v)) for v in vecs)
        vecs.extend(step)
    if base is not None:
        pts = [index[v] for v in vecs]
    pts.sort()
    if base is None:
        return Flat(PROJECTIVE, len(rows) - 1, None, tuple(rows), tuple(pts))
    return Flat(AFFINE, len(rows), tuple(base), tuple(rows), tuple(pts))


def _flat_through(sp, origin, vecs):
    """Smallest flat containing the projective points `vecs` (origin None)
    or the affine points origin + span(vecs)."""
    fq = sp.field
    if origin is None:
        return _flat(sp, None, rref(vecs, fq)[1])
    pivots, rows = rref(vecs, fq) if vecs else ([], [])
    return _flat(sp, _reduce_by_rows(origin, pivots, rows, fq), rows)


def span(sp, pts):
    """Smallest flat containing the given points (indices or coord tuples)."""
    coords = [sp.points[p] if isinstance(p, int) else sp.normalize(p) for p in pts]
    if not coords:
        raise DimensionOutOfRange("span of an empty point set is undefined")
    if sp.kind == PROJECTIVE:
        return _flat_through(sp, None, coords)
    origin = coords[0]
    return _flat_through(sp, origin, [_vec_sub(c, origin, sp.field) for c in coords[1:]])


def _extend(sp, fl, p):
    """span(fl + {p}) from fl's canonical basis and the point index p."""
    coords = sp.points[p]
    if fl.base is None:
        return _flat_through(sp, None, fl.rows + (coords,))
    return _flat_through(sp, fl.base, fl.rows + (_vec_sub(coords, fl.base, sp.field),))


def in_flat(sp, flat, point):
    """Membership test from the canonical basis, no point list needed."""
    v = sp.points[point] if isinstance(point, int) else sp.normalize(point)
    if flat.kind == AFFINE:
        v = _vec_sub(v, flat.base, sp.field)
    pivots = [next(j for j, x in enumerate(row) if x) for row in flat.rows]
    return not any(_reduce_by_rows(v, pivots, flat.rows, sp.field))


def iter_flats(sp, d):
    """Generate all d-flats by direct construction of canonical echelon
    bases: pivot-column choice, then free entries in row-major order."""
    if d < 0 or d > sp.n:
        raise DimensionOutOfRange("d=%d outside 0..%d" % (d, sp.n))
    q = sp.q
    if sp.kind == PROJECTIVE:
        k = d + 1
        m = sp.ncoords
        for pivots in combinations(range(m), k):
            pivot_set = set(pivots)
            free = [(r, c) for r in range(k) for c in range(m)
                    if c > pivots[r] and c not in pivot_set]
            for vals in product(range(q), repeat=len(free)):
                rows = [[0] * m for _ in range(k)]
                for r in range(k):
                    rows[r][pivots[r]] = 1
                for (r, c), v in zip(free, vals):
                    rows[r][c] = v
                yield _flat(sp, None, [tuple(r) for r in rows])
    else:
        m = sp.n
        for pivots in combinations(range(m), d):
            pivot_set = set(pivots)
            free = [(r, c) for r in range(d) for c in range(m)
                    if c > pivots[r] and c not in pivot_set]
            nonpivot = [c for c in range(m) if c not in pivot_set]
            for vals in product(range(q), repeat=len(free)):
                rows = [[0] * m for _ in range(d)]
                for r in range(d):
                    rows[r][pivots[r]] = 1
                for (r, c), v in zip(free, vals):
                    rows[r][c] = v
                rows = [tuple(r) for r in rows]
                for bvals in product(range(q), repeat=len(nonpivot)):
                    base = [0] * m
                    for c, v in zip(nonpivot, bvals):
                        base[c] = v
                    yield _flat(sp, tuple(base), rows)


def enumerate_flats(sp, d):
    """All d-flats sorted by canonical basis; length matches flat_count."""
    expected = flat_count(sp.kind, sp.n, d, sp.q)
    if expected > ENUM_GUARD:
        raise TooLarge("enumerating %d flats of dimension %d in %s exceeds the guard"
                       % (expected, d, sp))
    flats = sorted(iter_flats(sp, d), key=Flat.sort_key)
    if len(flats) != expected:
        raise InternalError("built %d flats of dimension %d in %s, expected %d"
                            % (len(flats), d, sp, expected))
    return flats


class FlatGrowth:
    """The flats lying inside a fixed set of point indices, grown one
    dimension at a time from the points up and kept, so that asking for
    several dimensions grows each level once.

    Level k+1 comes from extending every k-flat F by each member p above
    F's least point.  Once span(F + p) is known, every other point of it
    would give the same extension, so they are all marked done for F and
    skipped; an extension is kept when all its points are members.  Each
    (k+1)-flat inside the set contains a k-flat through its least point,
    so none is missed."""

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
        sp, members, order = self.space, self.members, self.order
        need = flat_size(sp.kind, level, sp.q)
        grown = {}
        for fl in current:
            done = set(fl.points)
            for p in order[bisect_right(order, fl.points[0]):]:
                if p in done:
                    continue
                cand = _extend(sp, fl, p)
                done.update(cand.points)
                key = cand.key()
                if key not in grown and len(cand.points) == need \
                        and members.issuperset(cand.points):
                    grown[key] = cand
        return sorted(grown.values(), key=Flat.sort_key)


def flats_within(sp, members, d):
    """All d-flats whose point set lies inside `members` (a set of point
    indices), grown from lower-dimensional flats by spanning.  Avoids
    enumerating the whole flat population when `members` is small."""
    return FlatGrowth(sp, members).flats(d)
