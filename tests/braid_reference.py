"""Reference helper for the braid tests: the contained-line test by its
defining property, independent of braid.escape_parameter."""

from blocksets.errors import DimensionMismatch, IdenticalPoints
from blocksets.geometry import AFFINE


def line_in_complement(sp, x, y):
    """A line through two complement points stays inside the complement
    exactly when their difference is a multiple of the all-ones vector."""
    fq = sp.field
    xc = sp.points[x] if isinstance(x, int) else tuple(x)
    yc = sp.points[y] if isinstance(y, int) else tuple(y)
    if sp.kind != AFFINE:
        raise DimensionMismatch("the contained-line test is affine")
    if xc == yc:
        raise IdenticalPoints("need two distinct points")
    d = [fq.sub(a, b) for a, b in zip(xc, yc)]
    return all(v == d[0] for v in d)
