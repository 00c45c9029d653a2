"""Reference for the symmetry tests: the collineations of PG(n,q) that
map a set of hyperplanes onto itself, found by listing all of
PGammaL(n+1,q), independent of how symmetry builds its group."""

from functools import lru_cache

import numpy as np

from blocksets.geometry import AFFINE, PROJECTIVE, space


@lru_cache(maxsize=None)
def all_collineations(n, q):
    """Every collineation of PG(n,q), one row each, giving the image of
    every point index: x -> M x^sigma over every invertible M up to
    scalars and every field automorphism sigma."""
    sp = space(PROJECTIVE, n, q)
    fq = sp.field
    m = n + 1
    add = np.array(fq.add_table, dtype=np.int8)
    mul = np.array(fq.mul_table, dtype=np.int8)
    inv = np.array([0] + fq.inv_table[1:], dtype=np.int8)
    pts = np.array(sp.points, dtype=np.int8)
    weights = q ** np.arange(m - 1, -1, -1)
    lookup = np.full(q ** m, -1, dtype=np.int16)
    lookup[pts.astype(np.int64) @ weights] = np.arange(len(pts))
    flat = np.array(np.unravel_index(np.arange(q ** (m * m)), (q,) * (m * m)),
                    dtype=np.int8).T
    # one matrix per scalar class: its first nonzero entry is 1
    lead = flat[np.arange(len(flat)), (flat != 0).argmax(axis=1)]
    mats = flat[lead == 1].reshape(-1, m, m)
    pth = np.arange(q, dtype=np.int8)
    for _ in range(fq.p - 1):
        pth = mul[pth, np.arange(q)]
    rows = []
    power = np.arange(q, dtype=np.int8)  # c -> c^(p^s)
    for _ in range(fq.e):
        xs = power[pts]
        y = np.zeros((len(mats), len(pts), m), dtype=np.int8)
        for i in range(m):
            acc = np.zeros((len(mats), len(pts)), dtype=np.int8)
            for j in range(m):
                acc = add[acc, mul[mats[:, i, j][:, None], xs[None, :, j]]]
            y[:, :, i] = acc
        nonzero = y != 0
        keep = nonzero.any(axis=2).all(axis=1)  # no point goes to 0: M invertible
        y = y[keep]
        first = nonzero[keep].argmax(axis=2)
        scale = inv[np.take_along_axis(y, first[..., None], 2)]
        y = mul[scale, y]
        rows.append(lookup[y.astype(np.int64) @ weights])
        power = pth[power]
    return np.unique(np.concatenate(rows), axis=0)


def restricted_order(sp, forms, universe):
    """The number of distinct permutations of the universe (point indices
    of sp) that the collineations of the closure PG(n,q) mapping the
    hyperplanes of the forms, with (0,...,0,1) added in AG, onto
    themselves induce on it."""
    fq = sp.field
    closure = space(PROJECTIVE, sp.n, sp.q)
    forms = list(forms)
    if sp.kind == AFFINE:
        forms.append((0,) * sp.n + (1,))
        at = [closure.index_of(sp.points[p] + (1,)) for p in universe]
    else:
        at = list(universe)
    G = all_collineations(sp.n, sp.q)
    bits = 1 << np.arange(closure.npoints, dtype=np.int64)
    planes = []
    for f in forms:
        on = []
        for i, x in enumerate(closure.points):
            acc = 0
            for c, v in zip(f, x):
                acc = fq.add(acc, fq.mul(c, v))
            if acc == 0:
                on.append(i)
        planes.append(on)
    masks = [int(bits[on].sum()) for on in planes]
    keep = np.ones(len(G), dtype=bool)
    for on in planes:
        keep &= np.isin(bits[G[:, on]].sum(axis=1), masks)
    return len(np.unique(G[keep][:, at], axis=0))
