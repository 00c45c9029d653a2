"""Hyperplane arrangements and their complements.

A hyperplane form is a coefficient tuple over GF(q):

* projective, in PG(n,q): (c_0, ..., c_n) for c_0 x_0 + ... + c_n x_n = 0;
* affine, in AG(n,q): (a_1, ..., a_n, c) for a_1 x_1 + ... + a_n x_n + c = 0,
  constant last.

Forms are normalized so the first nonzero variable coefficient is 1, which
makes the solution set the identity of the form; the same hyperplane given
twice (up to scaling) is rejected.  The complement of an arrangement is the
set of points on none of its hyperplanes.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import (CoefficientLoss, DimensionMismatch, DuplicateForm,
                     InvalidForm, TooLarge)
from .geometry import (AFFINE, ENUM_GUARD, PROJECTIVE, FlatGrowth, Space,
                       flat_count, iter_flats, space)


@dataclass(frozen=True)
class HyperplaneForm:
    kind: str
    coeffs: tuple

    def __repr__(self):
        return "HyperplaneForm(%s, %s)" % (self.kind, self.coeffs)


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
    return HyperplaneForm(sp.kind, coeffs)


def evaluate_form(sp, form, point):
    """Value of the form at a point (index or coordinate tuple)."""
    coords = sp.points[point] if isinstance(point, int) else sp.normalize(point)
    fq = sp.field
    acc = 0
    for c, x in zip(form.coeffs, coords):
        if c and x:
            acc = fq.add(acc, fq.mul(c, x))
    if sp.kind == AFFINE:
        acc = fq.add(acc, form.coeffs[-1])
    return acc


@dataclass(frozen=True)
class Arrangement:
    """An ordered set of distinct normalized hyperplane forms over one space."""

    kind: str
    n: int
    q: int
    forms: tuple

    @property
    def space(self):
        return space(self.kind, self.n, self.q)

    def __len__(self):
        return len(self.forms)

    def __repr__(self):
        return "Arrangement(%s, n=%d, q=%d, %d forms)" % (
            self.kind, self.n, self.q, len(self.forms))


def arrangement_make(sp, coeff_rows):
    """Build an arrangement from raw coefficient rows (normalizing each)."""
    forms = []
    seen = set()
    for row in coeff_rows:
        form = normalize_form(sp, row)
        if form.coeffs in seen:
            raise DuplicateForm("hyperplane %s appears twice (after normalization)"
                                % (form.coeffs,))
        seen.add(form.coeffs)
        forms.append(form)
    return Arrangement(sp.kind, sp.n, sp.q, tuple(forms))


def corresponding_arrangement(arr, k):
    """The same equations re-read in dimension k: zero-padded upward, or
    truncated downward when the dropped columns carry no coefficient."""
    n = arr.n
    if k < 1:
        raise DimensionMismatch("target dimension %d must be >= 1" % k)
    if k == n:
        return arr
    rows = []
    for form in arr.forms:
        c = form.coeffs
        if arr.kind == PROJECTIVE:
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
    return arrangement_make(space(arr.kind, k, arr.q), rows)


@dataclass(eq=False)
class ComplementSet:
    """Points of the space on no hyperplane of the arrangement."""

    space: Space
    arrangement: Arrangement
    members: tuple  # sorted point indices

    @cached_property
    def member_set(self):
        return frozenset(self.members)

    @cached_property
    def contained(self):
        """The flats inside the complement, grown once for all dimensions
        asked of this set."""
        return FlatGrowth(self.space, self.member_set)

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return "ComplementSet(%r, %d forms, %d points)" % (
            self.space, len(self.arrangement), len(self.members))


def complement(sp, arr):
    if (arr.kind, arr.n, arr.q) != (sp.kind, sp.n, sp.q):
        raise DimensionMismatch("arrangement over %s applied to %s" % (arr.space, sp))
    members = []
    forms = arr.forms
    for i in range(len(sp.points)):
        for form in forms:
            if evaluate_form(sp, form, i) == 0:
                break
        else:
            members.append(i)
    return ComplementSet(sp, arr, tuple(members))


def flats_in_complement(comp, d):
    """All d-flats entirely inside the complement, canonically ordered.
    Later calls on the same complement reuse the levels already grown."""
    sp = comp.space
    if sp.kind == PROJECTIVE and comp.arrangement.forms and 1 <= d <= sp.n:
        return []  # in PG(n,q) every flat of dimension >= 1 meets every hyperplane
    return comp.contained.flats(d)


def touching_traces(comp, d):
    """The trace of every d-flat meeting the complement, in canonical flat
    order; a trace is the sorted tuple of complement points on the flat.
    Equal traces from different flats are kept once per originating flat."""
    sp = comp.space
    if flat_count(sp.kind, sp.n, d, sp.q) > ENUM_GUARD:
        raise TooLarge("trace enumeration at d=%d in %s exceeds the guard" % (d, sp))
    mem = comp.member_set
    out = []
    for fl in iter_flats(sp, d):
        trace = tuple(p for p in fl.points if p in mem)
        if trace:
            out.append((fl.sort_key(), trace))
    out.sort()
    return [trace for _, trace in out]


def max_flat_dimension(comp):
    """Largest d with a d-flat inside the complement; None when empty."""
    if not comp.members:
        return None
    if len(comp.members) == comp.space.npoints:
        return comp.space.n
    # short of the whole space, no n-flat lies inside, so the loop returns
    for d in range(1, comp.space.n + 1):
        if not flats_in_complement(comp, d):
            return d - 1


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
    lines = ["%s %d %d" % (arr.kind, arr.n, arr.q)]
    for form in arr.forms:
        lines.append(" ".join(str(c) for c in form.coeffs))
    return "\n".join(lines) + "\n"
