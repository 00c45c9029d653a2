"""Reference helpers for the braid tests: the complement and the
contained-line test by their defining properties, independent of
arrangement.complement and braid.escape_parameter."""

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


def distinct_coordinate_points(sp):
    """Indices of the points whose coordinates are pairwise distinct."""
    return tuple(i for i, pt in enumerate(sp.points) if len(set(pt)) == len(pt))
