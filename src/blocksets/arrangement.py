"""Hyperplane arrangements and their complements.

A hyperplane form is a coefficient tuple over GF(q):

* projective, in PG(n,q): (c_0, ..., c_n) for c_0 x_0 + ... + c_n x_n = 0;
* affine, in AG(n,q): (a_1, ..., a_n, c) for a_1 x_1 + ... + a_n x_n + c = 0,
  constant last.

Forms are normalized so the first nonzero variable coefficient is 1, which
makes the solution set the identity of the form; the same hyperplane given
twice (up to scaling) is rejected.  The complement of an arrangement is the
space with each hyperplane's points struck out: a form's zero set is a
flat whose canonical basis is read off the form itself, so its points come
by index arithmetic, with no point table and no evaluation of the form.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import compress

from .errors import (CoefficientLoss, DimensionMismatch, DuplicateForm,
                     InvalidForm, TooLarge)
from .geometry import (AFFINE, ENUM_GUARD, PROJECTIVE, Space, _flat,
                       flat_count, flats_avoiding, form_kernel,
                       gaussian_binomial, iter_flats, space)


def normalize_form(sp, coeffs):
    """Scale a raw coefficient vector to first-nonzero-variable-coefficient 1."""
    coeffs = tuple(coeffs)
    if len(coeffs) != sp.n + 1:
        raise DimensionMismatch(
            "form needs %d coefficients in %s, got %d" % (sp.n + 1, sp, len(coeffs)))
    for c in coeffs:
        if not isinstance(c, int) or not 0 <= c < sp.q:
            raise InvalidForm("coefficient %r is not a GF(%d) code" % (c, sp.q))
    lead = next((c for c in coeffs[:sp.ncoords] if c), None)
    if lead is None:
        raise InvalidForm("all variable coefficients are zero")
    if lead != 1:
        f = sp.field.inv(lead)
        coeffs = tuple(sp.field.mul(f, c) for c in coeffs)
    return coeffs


@dataclass(frozen=True)
class Arrangement:
    """An ordered set of distinct normalized forms (coefficient tuples)
    over one space."""

    space: Space
    forms: tuple


def arrangement_make(sp, coeff_rows):
    """Build an arrangement from raw coefficient rows (normalizing each)."""
    forms = []
    seen = set()
    for row in coeff_rows:
        form = normalize_form(sp, row)
        if form in seen:
            raise DuplicateForm("hyperplane %s appears twice (after normalization)"
                                % (form,))
        seen.add(form)
        forms.append(form)
    return Arrangement(sp, tuple(forms))


def corresponding_arrangement(arr, k):
    """The same equations re-read in dimension k: zero-padded upward, or
    truncated downward when the dropped columns carry no coefficient."""
    kind, n = arr.space.kind, arr.space.n
    if k < 1:
        raise DimensionMismatch("target dimension %d must be >= 1" % k)
    if k == n:
        return arr
    rows = []
    for c in arr.forms:
        if kind == PROJECTIVE:
            if k > n:
                rows.append(c + (0,) * (k - n))
            else:
                if any(c[k + 1:]):
                    raise CoefficientLoss(
                        "form %s has a nonzero coefficient beyond position %d" % (c, k))
                rows.append(c[:k + 1])
        else:
            var, const = c[:-1], c[-1]
            if k > n:
                rows.append(var + (0,) * (k - n) + (const,))
            else:
                if any(var[k:]):
                    raise CoefficientLoss(
                        "form %s has a nonzero coefficient beyond position %d" % (c, k))
                rows.append(var[:k] + (const,))
    return arrangement_make(space(kind, k, arr.space.q), rows)


@dataclass(eq=False)
class ComplementSet:
    """Points of the space on no hyperplane of the arrangement."""

    space: Space
    arrangement: Arrangement
    members: tuple  # sorted point indices

    @cached_property
    def member_set(self):
        return frozenset(self.members)

    def __repr__(self):
        return "ComplementSet(%r, %d forms, %d points)" % (
            self.space, len(self.arrangement.forms), len(self.members))


def hyperplane_flat(sp, form):
    """The zero set of a normalized form, as a flat.  With l the last
    coordinate the form reads, every other coordinate k is a pivot with row
    e_k - (c_k/c_l) e_l, and in AG(n,q) the base is -(c/c_l) e_l, c the
    constant: the rows are in reduced echelon form and the base is zero in
    their pivot columns, so the basis is canonical as it stands."""
    fq, m = sp.field, sp.ncoords
    last = max(k for k in range(m) if form[k])
    f = fq.neg(fq.inv(form[last]))
    rows = []
    for k in range(m):
        if k != last:
            row = [0] * m
            row[k], row[last] = 1, fq.mul(f, form[k])
            rows.append(tuple(row))
    base = None
    if sp.kind == AFFINE:
        base = [0] * m
        base[last] = fq.mul(f, form[-1])
    return _flat(sp, base, rows)


def complement(sp, arr):
    """The space with each hyperplane's points struck out."""
    if arr.space != sp:
        raise DimensionMismatch("arrangement over %s applied to %s" % (arr.space, sp))
    sp.check_enumerable()
    alive = bytearray([1]) * sp.npoints
    for form in arr.forms:
        for p in hyperplane_flat(sp, form).points:
            alive[p] = 0
    return ComplementSet(sp, arr, tuple(compress(range(sp.npoints), alive)))


def flats_in_complement(comp, d):
    """All d-flats entirely inside the complement, canonically ordered."""
    return flats_avoiding(comp.space, comp.arrangement.forms, d, comp.members)


def contained_count(comp, d):
    """len(flats_in_complement(comp, d)), by formula.  In AG(n,q) each
    d-subspace V of W (the directions every form vanishes on, of
    dimension w) splits the complement into cosets of q^d points, so there
    are [w choose d]_q |complement| / q^d.  In PG(n,q) a hyperplane meets
    every flat of dimension >= 1, which leaves the complement's points."""
    sp = comp.space
    if len(comp.members) == sp.npoints:
        return flat_count(sp.kind, sp.n, d, sp.q)
    if sp.kind == PROJECTIVE:
        return len(comp.members) if d == 0 else 0
    w = len(form_kernel(sp, comp.arrangement.forms))
    return gaussian_binomial(w, d, sp.q) * len(comp.members) // sp.q ** d


def check_trace_enumeration(sp, d):
    """Raises TooLarge when the d-flats are too many to list their traces."""
    if flat_count(sp.kind, sp.n, d, sp.q) > ENUM_GUARD:
        raise TooLarge("trace enumeration at d=%d in %s exceeds the guard" % (d, sp))


def touching_traces(comp, d):
    """The trace of every d-flat meeting the complement, in canonical flat
    order; a trace is the sorted tuple of complement points on the flat.
    Equal traces from different flats are kept once per originating flat."""
    sp = comp.space
    check_trace_enumeration(sp, d)
    mem = comp.member_set
    out = []
    for fl in iter_flats(sp, d):
        trace = tuple(p for p in fl.points if p in mem)
        if trace:
            out.append((fl.sort_key(), trace))
    out.sort()
    return [trace for _, trace in out]


def touching_count(comp, d):
    """len(touching_traces(comp, d)), counted without listing a trace."""
    sp = comp.space
    check_trace_enumeration(sp, d)
    mem = comp.member_set
    return sum(1 for fl in iter_flats(sp, d) if not mem.isdisjoint(fl.points))


def max_flat_dimension(comp):
    """Largest d with a d-flat inside the complement; None when empty.
    Short of the whole space, that is 0 in PG(n,q) and dim W in AG(n,q)
    (see contained_count)."""
    sp = comp.space
    if not comp.members:
        return None
    if len(comp.members) == sp.npoints:
        return sp.n
    if sp.kind == PROJECTIVE:
        return 0
    return len(form_kernel(sp, comp.arrangement.forms))


# -- text format -----------------------------------------------------------
#
#   kind n q          (kind: projective | affine, aliases pg | ag)
#   c c c ...         one coefficient row per hyperplane, GF(q) codes
#
# '#' starts a comment, blank lines are skipped.

KIND_ALIASES = {"projective": PROJECTIVE, "pg": PROJECTIVE,
                "affine": AFFINE, "ag": AFFINE}


def parse_arrangement_text(text):
    """Parse the arrangement file format; returns (space, Arrangement)."""
    rows = []
    header = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 3:
                raise InvalidForm("line %d: header must be 'kind n q'" % lineno)
            kind = KIND_ALIASES.get(parts[0].lower())
            if kind is None:
                raise InvalidForm("line %d: unknown kind %r" % (lineno, parts[0]))
            try:
                n, q = int(parts[1]), int(parts[2])
            except ValueError:
                raise InvalidForm("line %d: n and q must be integers" % lineno)
            header = (kind, n, q)
            continue
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError:
            raise InvalidForm("line %d: coefficients must be integers" % lineno)
    if header is None:
        raise InvalidForm("missing 'kind n q' header line")
    sp = space(header[0], header[1], header[2])
    return sp, arrangement_make(sp, rows)


def emit_arrangement_text(arr):
    sp = arr.space
    lines = ["%s %d %d" % (sp.kind, sp.n, sp.q)]
    for form in arr.forms:
        lines.append(" ".join(str(c) for c in form))
    return "\n".join(lines) + "\n"
