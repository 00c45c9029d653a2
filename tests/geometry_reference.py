"""Reference helper for the geometry tests: flat membership from the
canonical basis alone, independent of how geometry lists a flat's points."""

from blocksets.geometry import AFFINE


def in_flat(sp, flat, point):
    """A point lies on a flat exactly when its vector (in AG, minus the
    base) reduces to zero against the flat's echelon rows."""
    fq = sp.field
    v = sp.points[point] if isinstance(point, int) else sp.normalize(point)
    if flat.kind == AFFINE:
        v = tuple(fq.sub(a, b) for a, b in zip(v, flat.base))
    for row in flat.rows:
        p = next(j for j, x in enumerate(row) if x)
        c = v[p]
        if c:
            v = tuple(fq.sub(x, fq.mul(c, y)) for x, y in zip(v, row))
    return not any(v)
