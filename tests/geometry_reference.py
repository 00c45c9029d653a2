"""Reference helpers for the geometry tests: flat membership from the
canonical basis alone, independent of how geometry lists a flat's points,
and the value of a hyperplane form at a point, independent of how
arrangement lists a hyperplane's points."""

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


def form_value(sp, form, point):
    """Value of a normalized form (a coefficient tuple, affine constant
    last) at a point (index or coordinate tuple), summed term by term with
    the field's own operations."""
    fq = sp.field
    coords = sp.points[point] if isinstance(point, int) else sp.normalize(point)
    acc = 0
    for c, x in zip(form, coords):
        acc = fq.add(acc, fq.mul(c, x))
    if sp.kind == AFFINE:
        acc = fq.add(acc, form[-1])
    return acc
