"""The braid arrangement: one hyperplane x_i = x_j per coordinate pair.

Its complement, built like any other as the space minus the hyperplanes'
flats, is the set of points with pairwise distinct coordinates.  So it is
empty exactly when a point has more coordinates than the field has
elements, affine complements count falling factorials q(q-1)...(q-m+1),
and the contained lines all run in the all-ones direction and partition
the complement into (q-1)(q-2)...(q-m+1) parallel classes.  One point per
class (braid_transversal) is a minimum blocking set for the line family;
braid_existence still decides that shape, like every other, by the exact
search, whose lexicographically least minimum is that transversal.

escape_parameter is the constructive heart: for two complement points
whose joining line leaves the complement, it produces the parameter and
the point where the line lands on a hyperplane, pinned to the least
coordinate pair that can serve.
"""

from dataclasses import dataclass
from itertools import permutations

from .arrangement import Arrangement, arrangement_make
from .blocking import CONTAINED, PLAIN, build_instance, solve_instance
from .errors import (DimensionMismatch, IdenticalPoints, InternalError,
                     NotInUniverse, SearchTimeout)
from .geometry import AFFINE, span, space
from .solver import SearchResult


def braid_arrangement(sp):
    """x_i - x_j = 0 for every pair of coordinate positions i < j."""
    fq = sp.field
    neg1 = fq.neg(1)
    m = sp.ncoords
    rows = []
    for i in range(m):
        for j in range(i + 1, m):
            row = [0] * (sp.n + 1)
            row[i] = 1
            row[j] = neg1
            if sp.kind == AFFINE:
                row[-1] = 0  # constant slot stays empty
            rows.append(tuple(row))
    return arrangement_make(sp, rows)


def escape_parameter(sp, x, y):
    """Where the line through x and y leaves the complement.

    Returns ((i, j), t0, P): the least coordinate pair that separates the
    direction, the parameter with P = y + t0 (x - y), and the landing
    point, which satisfies P_i = P_j.  t0 is never 0 or 1 (the endpoints
    are complement points, else NotInUniverse is raised); both facts are
    checked on the constructed P rather than assumed.  Returns None when
    the line never leaves.  x and y are point indices or coordinate
    tuples; a tuple goes through sp.normalize, so a wrong length raises
    DimensionMismatch and a code outside the field ValueError.
    """
    if sp.kind != AFFINE:
        raise DimensionMismatch("escape parameters are defined in affine space")
    fq = sp.field
    xc = sp.points[x] if isinstance(x, int) else sp.normalize(x)
    yc = sp.points[y] if isinstance(y, int) else sp.normalize(y)
    if xc == yc:
        raise IdenticalPoints("need two distinct points")
    for c in (xc, yc):
        if len(set(c)) != len(c):
            raise NotInUniverse("point %r is not in the braid complement" % (c,))
    d = [fq.sub(a, b) for a, b in zip(xc, yc)]
    pair = None
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[i] != d[j]:
                pair = (i, j)
                break
        if pair:
            break
    if pair is None:
        return None  # direction is a multiple of all-ones, line contained
    i, j = pair
    t0 = fq.div(fq.sub(yc[j], yc[i]), fq.sub(d[i], d[j]))
    P = tuple(fq.add(yc[k], fq.mul(t0, d[k])) for k in range(len(d)))
    if P[i] != P[j] or t0 in (0, 1):
        raise InternalError("escape point %r (t0=%r) is not on x_%d = x_%d"
                            " away from both ends" % (P, t0, i, j))
    return (i, j), t0, P


def braid_lines(sp):
    """The lines contained in the affine braid complement: one through
    each tuple of distinct coordinates with first coordinate 0, all running
    in the all-ones direction.  Empty when m > q (no such tuples)."""
    if sp.kind != AFFINE:
        raise DimensionMismatch("contained braid lines are affine")
    fq = sp.field
    out = []
    for rest in permutations(range(1, sp.q), sp.ncoords - 1):
        pt = (0,) + rest
        fl = span(sp, [pt, tuple(fq.add(a, 1) for a in pt)])
        for p in fl.points:
            if len(set(sp.points[p])) != sp.ncoords:
                raise InternalError("braid line %r leaves the complement"
                                    % (fl.points,))
        out.append(fl)
    out.sort(key=lambda fl: fl.sort_key())
    return out


def braid_transversal(sp):
    """The least point of each contained line, sorted.  The lines are
    parallel, hence pairwise disjoint, so the result blocks the line family
    minimally: every chosen point keeps its own line as a private trace."""
    return tuple(sorted(fl.points[0] for fl in braid_lines(sp)))


@dataclass
class BraidOutcome:
    space: object
    arrangement: Arrangement
    t: int
    scope: str
    convention: str
    verdict: str            # exists | not-exists | vacuous | empty | timeout
    vacuous_family: bool
    universe_size: int
    result: SearchResult = None
    instance: object = None


def braid_existence(kind, n, q, t=1, scope=CONTAINED, convention=PLAIN,
                    size_cap=None, time_budget=None, workers=1):
    """Decide blocking-set existence for the braid complement.

    The complement is empty exactly when a point has more coordinates than
    the field has elements (m > q in AG(m,q), n + 1 > q in PG(n,q)): no
    such tuple keeps its coordinates distinct.  That case gets its own
    verdict before anything is built.  Every other shape goes to the exact
    search (solve_instance), which re-checks its witness before it
    returns.  Under the contained scope the family can come out empty;
    that is existence with the empty witness, flagged so callers can tell
    it apart from a substantive one.  A search past `time_budget` gives
    the verdict timeout, with the search so far as its result.
    """
    sp = space(kind, n, q)
    arr = braid_arrangement(sp)
    if sp.ncoords > q:
        return BraidOutcome(sp, arr, t, scope, convention, "empty",
                            False, 0)
    inst = build_instance(sp, arr, t, scope)
    try:
        res = solve_instance(inst, convention, size_cap=size_cap,
                             time_budget=time_budget, workers=workers)
    except SearchTimeout as exc:
        return BraidOutcome(sp, arr, t, scope, convention, "timeout", False,
                            len(inst.universe), exc.result, inst)
    return BraidOutcome(sp, arr, t, scope, convention, res.verdict,
                        res.verdict == "vacuous", len(inst.universe),
                        res, inst)
