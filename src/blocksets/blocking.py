"""Blocking-set instances over arrangement complements, and everything
that decides them.

An instance fixes a universe (the complement points, in canonical space
order), a family of traces that must all be hit, and a forbidden list of
traces that must not be fully swallowed when the nontrivial convention is
in force.  Two scopes build the family geometrically: "contained" takes
the flats lying entirely inside the complement, "touching" takes the trace
of every flat that meets it.  The blocked dimension is n - t throughout;
forbidden traces come from dimension t.  Only the nontrivial convention
and the checks of a given set read the forbidden list, so an instance
that build_instance made lists it on first read (BlockingInstance).

Decision routes are deliberately redundant: the branch-and-bound engine in
solver.py gives the fast exact answer, exhaustive_oracle re-derives it by
subset enumeration on small universes, and every witness returned by
the fast route is re-checked here before it leaves, by set operations on
the traces that share nothing with the solver's masks.
"""

import time
from dataclasses import dataclass
from functools import cached_property

from . import geometry, solver
from .arrangement import (Arrangement, arrangement_make,
                          check_trace_enumeration, complement,
                          contained_count, flats_in_complement,
                          touching_count, touching_traces)
from .errors import (DimensionOutOfRange, InternalError, NotBlocking,
                     NotInUniverse, SearchTimeout, SpaceTooLarge, TooLarge)
from .geometry import (Flat, check_flat_listing, flat_count, flats_avoiding,
                       listable_flat_count, span)
from .solver import ORACLE_FULL_CAP, SearchResult

CONTAINED = "contained"
TOUCHING = "touching"
SCOPES = (CONTAINED, TOUCHING)

PLAIN = "plain"
MINIMAL = "minimal"
NONTRIVIAL = "nontrivial"
CONVENTIONS = (PLAIN, MINIMAL, NONTRIVIAL)

SEARCH_UNIVERSE_CAP = 1 << 20  # bitmask width guard for the exact search


class BlockingInstance:
    """A hitting problem over a complement.

    universe and every trace are sorted tuples of point indices into the
    space's canonical enumeration, traces in canonical order of the flats
    they come from.  region is the point set a restriction lives in (None
    for the whole space): the traces are those of the flats inside it.  t
    is the level the instance was built at (restriction can push it to 0
    or below; blocked_dim stays the ambient n - t and is what the traces
    actually mean).

    complement is the Complement an instance was built on, which only
    build_instance gives.  With forbidden None, the t-level traces of the
    complement under the scope are listed on the first read of
    `forbidden`, with the same checks as a given list, and
    `forbidden_size` counts them until then.
    """

    def __init__(self, space, t, universe, family, forbidden=(),
                 arrangement=None, scope="custom", blocked_dim=None,
                 region=None, complement=None):
        npts = space.npoints
        for p in universe:
            if not isinstance(p, int) or not 0 <= p < npts:
                raise NotInUniverse("%r is not a point index of %r" % (p, space))
        self.space = space
        self.t = t
        self.universe = tuple(sorted(set(universe)))
        uset = frozenset(self.universe)
        self.universe_set = uset
        self.family = _sorted_traces(family, uset, "family")
        self.arrangement = arrangement
        self.scope = scope
        self.blocked_dim = space.n - t if blocked_dim is None else blocked_dim
        self.region = region
        self.complement = complement
        if forbidden is not None:
            self.forbidden = _sorted_traces(forbidden, uset, "forbidden")

    @cached_property
    def forbidden(self):
        return _sorted_traces(_traces(self.complement, self.t, self.scope),
                              self.universe_set, "forbidden")

    @property
    def forbidden_size(self):
        if "forbidden" in self.__dict__:
            return len(self.forbidden)
        return _trace_count(self.complement, self.t, self.scope)

    def __repr__(self):
        return ("BlockingInstance(%r, t=%d, scope=%s, |universe|=%d, "
                "|family|=%d, |forbidden|=%d)" % (
                    self.space, self.t, self.scope, len(self.universe),
                    len(self.family), self.forbidden_size))


def _sorted_traces(traces, uset, what):
    """The traces as sorted tuples of distinct points of uset, empty ones
    dropped (refused in the family).  The loop runs only where a trace
    repeats a point or fails a check, and raises where one fails."""
    traces = tuple(traces)
    try:
        out = tuple(filter(None, map(tuple, map(sorted, traces))))
        if (what != "family" or len(out) == len(traces)) and list(map(
                len, out)) == list(map(len, map(uset.intersection, out))):
            return out
    except TypeError:
        pass
    out = []
    for tr in traces:
        tr = tuple(sorted(set(tr)))
        if not tr and what == "family":
            raise ValueError("empty trace in family")
        if not uset.issuperset(tr):
            p = next(p for p in tr if p not in uset)
            raise NotInUniverse("%s trace point %r outside universe" % (what, p))
        if tr:
            out.append(tr)
    return tuple(out)


def _traces(comp, d, scope):
    """The traces of the d-flats under scope, in canonical flat order.  A
    level with too many flats to list raises TooLarge before any is
    listed; the contained flats are counted by formula for that, and only
    when the space has too many d-flats, which bound them."""
    if scope == CONTAINED:
        sp = comp.space
        if flat_count(sp.kind, sp.n, d, sp.q) > geometry.ENUM_GUARD:
            check_flat_listing(sp, d, contained_count(comp, d))
        return tuple(fl.points for fl in flats_in_complement(comp, d))
    return touching_traces(comp, d)


def _check_listable(comp, d, scope):
    """Raises TooLarge where _traces(comp, d, scope) would, as far as that
    is known without counting contained flats: under touching scope, or
    under contained scope when the complement is the whole space, once the
    space's d-flats are too many to list.  Contained scope short of the
    whole space checks nothing here; _traces counts those flats, and may
    refuse them, only when it lists them."""
    sp = comp.space
    if scope == TOUCHING:
        check_trace_enumeration(sp, d)
    elif len(comp.members) == sp.npoints:
        listable_flat_count(sp, d)  # the contained flats are all the flats


def _trace_count(comp, d, scope):
    """len(_traces(comp, d, scope)), without listing a trace."""
    sp = comp.space
    if len(comp.members) == sp.npoints:
        return flat_count(sp.kind, sp.n, d, sp.q)
    if scope == CONTAINED:
        return contained_count(comp, d)
    return touching_count(comp, d)


def build_instance(sp, arr, t, scope=CONTAINED):
    """Geometric constructor: universe = complement of arr in sp, family =
    traces of (n-t)-flats under the given scope, forbidden = traces of
    t-flats under the same scope.  At t = n - t the forbidden list is the
    family; otherwise it is listed on first read (_check_listable runs
    here, so a level it refuses raises TooLarge at once)."""
    if scope not in SCOPES:
        raise ValueError("scope must be one of %s" % (SCOPES,))
    if not 1 <= t <= sp.n:
        raise DimensionOutOfRange("level t=%d outside 1..%d" % (t, sp.n))
    comp = complement(sp, arr)
    d = sp.n - t
    inst = BlockingInstance(sp, t, comp.members, _traces(comp, d, scope), None,
                            arrangement=arr, scope=scope, blocked_dim=d,
                            complement=comp)
    if t == d:
        inst.forbidden = inst.family
    else:
        _check_listable(comp, t, scope)
    return inst


def _as_pointset(inst, candidate):
    """Candidate points as a set of indices; coordinate tuples are
    accepted and looked up."""
    pts = set()
    for p in candidate:
        if not isinstance(p, int):
            p = inst.space.index_of(p)
        if p not in inst.universe_set:
            raise NotInUniverse("point %r not in the instance universe" % (p,))
        pts.add(p)
    return pts


def is_blocking(inst, candidate):
    """Every family trace meets the candidate set."""
    return not any(map(_as_pointset(inst, candidate).isdisjoint, inst.family))


def is_nontrivial(inst, candidate):
    """No forbidden trace is entirely inside the candidate set."""
    return not any(map(_as_pointset(inst, candidate).issuperset, inst.forbidden))


def is_minimal(inst, candidate):
    """Every point owns a private trace, one that meets the set in that
    point alone."""
    pts = _as_pointset(inst, candidate)
    if not is_blocking(inst, pts):
        raise NotBlocking("candidate does not block, minimality undefined")
    owned = set()
    for hit in map(pts.intersection, inst.family):
        if len(hit) == 1:
            owned |= hit
    return owned == pts


def minimalize(inst, candidate):
    """Single descending pass; blocking is monotone, so the result is
    minimal and no revisit is needed."""
    pts = _as_pointset(inst, candidate)
    if not is_blocking(inst, pts):
        raise NotBlocking("cannot minimalize a non-blocking set")
    for p in sorted(pts, reverse=True):
        trimmed = pts - {p}
        if is_blocking(inst, trimmed):
            pts = trimmed
    return tuple(sorted(pts))


def _masks(inst, require_nontrivial):
    """Family masks, and the forbidden masks when they are in force."""
    tmasks = solver._build_masks(inst.universe, inst.family)
    fmasks = []
    if require_nontrivial and inst.forbidden:
        fmasks = solver._build_masks(inst.universe, inst.forbidden)
    return tmasks, fmasks


def _seeds(inst):
    """For an instance that keeps its complement (every one that
    build_instance made), (arrangement, universe), what
    symmetry.automorphisms builds the group from; None for any other
    instance, which is then searched without a group.  A collineation
    that permutes the hyperplanes, the hyperplane at infinity H included
    in AG, maps the complement onto itself and flats onto flats of the
    same dimension, so it maps the touching traces onto themselves.  It
    maps the contained traces onto themselves too, though in AG it may
    move H: the closure of a flat inside the complement meets every
    hyperplane of the arrangement and H in the same flat at infinity, so
    the flat is its closure minus all of them."""
    if inst.complement is None:
        return None
    return inst.arrangement, inst.universe


def min_blocking_set(inst, require_nontrivial=False, size_cap=None,
                     time_budget=None, workers=1):
    """Exact minimum blocking set.

    Verdicts: vacuous when the family is empty (the empty set blocks),
    exists with the lexicographically least minimum witness, not-exists
    when nothing within size_cap works (cap defaults to the whole
    universe).  Raises SearchTimeout past time_budget seconds.
    """
    start = time.monotonic()
    if len(inst.universe) > SEARCH_UNIVERSE_CAP:
        raise TooLarge("universe of %d points exceeds the search cap %d"
                       % (len(inst.universe), SEARCH_UNIVERSE_CAP))
    if not inst.family:
        # the stats of a search that ran no node
        return SearchResult("vacuous", 0, (), 0, time.monotonic() - start,
                            {"closed_children": 0, "pool_tasks": 0})
    tmasks, fmasks = _masks(inst, require_nontrivial)
    stats = {}
    try:
        size, wmask, nodes = solver.solve_masks(
            len(inst.universe), tmasks, fmasks,
            size_cap=size_cap, time_budget=time_budget, workers=workers,
            stats=stats, seeds=_seeds(inst))
    except SearchTimeout as exc:
        # timed from here, as a verdict is: the mask build counts too
        exc.result.elapsed = time.monotonic() - start
        raise
    elapsed = time.monotonic() - start
    if size is None:
        return SearchResult("not-exists", None, None, nodes, elapsed, stats)
    witness = tuple(inst.universe[b] for b in solver._mask_bits(wmask))
    if not is_blocking(inst, witness):
        raise InternalError("search witness %r does not block" % (witness,))
    if require_nontrivial and not is_nontrivial(inst, witness):
        raise InternalError("search witness %r swallows a forbidden trace"
                            % (witness,))
    return SearchResult("exists", size, witness, nodes, elapsed, stats)


def exhaustive_oracle(inst, require_nontrivial=False, size_cap=None,
                      time_budget=None):
    """Reference answer by subset enumeration, sizes ascending and subsets
    in index-lexicographic order (solver.oracle_masks: a walk that skips
    whole runs of subsets it can rule out, and counts them).  The result's
    `nodes` is the number of subsets up to and including the witness, or
    of all subsets up to the cap when none blocks.  Refuses universes
    above ORACLE_FULL_CAP points unless a size cap bounds the work, and
    raises SearchTimeout once `time_budget` seconds have passed."""
    start = time.monotonic()
    if not inst.family:
        return SearchResult("vacuous", 0, (), 0, time.monotonic() - start)
    tmasks, fmasks = _masks(inst, require_nontrivial)
    try:
        size, wmask, checked = solver.oracle_masks(
            len(inst.universe), tmasks, fmasks, size_cap=size_cap,
            time_budget=time_budget)
    except SearchTimeout as exc:
        exc.result.elapsed = time.monotonic() - start  # as min_blocking_set's
        raise
    elapsed = time.monotonic() - start
    if size is None:
        return SearchResult("not-exists", None, None, checked, elapsed)
    witness = tuple(inst.universe[b] for b in solver._mask_bits(wmask))
    return SearchResult("exists", size, witness, checked, elapsed)


def solve_instance(inst, convention=PLAIN, size_cap=None, time_budget=None,
                   workers=1):
    """Convention front: plain and minimal run the same search (a minimum
    blocking set has a private trace for each point, so it is already
    minimal); nontrivial adds the forbidden constraints."""
    if convention not in CONVENTIONS:
        raise ValueError("convention must be one of %s" % (CONVENTIONS,))
    res = min_blocking_set(inst, require_nontrivial=(convention == NONTRIVIAL),
                           size_cap=size_cap, time_budget=time_budget,
                           workers=workers)
    if convention == MINIMAL and res.verdict == "exists" \
            and not is_minimal(inst, res.witness):
        raise InternalError("minimum witness %r is not minimal" % (res.witness,))
    return res


def _geometric_forms(inst):
    """The forms an instance's flats are built from; an instance with no
    arrangement or scope rule has none to restrict by."""
    if inst.scope not in SCOPES or inst.arrangement is None:
        raise ValueError("instance has no geometric scope, cannot restrict")
    return inst.arrangement.forms


def _region_flat(sp, region):
    """The flat whose points are `region` (an intersection of flats), None
    for the whole space or for an empty region."""
    return span(sp, sorted(region)) if region else None


def induced_subinstance(inst, flat):
    """Sub-instance inside a flat: keep the universe points lying in the
    flat, and the traces of exactly those family/forbidden flats that lie
    inside both the flat and the instance's region, found by the
    instance's scope rule: contained flats miss the arrangement, touching
    ones need only lie in the region.  Blocked dimension is unchanged (the
    kept traces still come from ambient (n-t)-flats); the level is
    re-expressed relative to the flat and may drop to 0 or below, in which
    case the family side simply cannot be nonempty."""
    forms = _geometric_forms(inst)
    sp = inst.space
    region = frozenset(flat.points)
    within = flat
    if inst.region is not None:
        region &= inst.region
        within = _region_flat(sp, region)
    sub_universe = tuple(p for p in inst.universe if p in region)
    keep = frozenset(sub_universe)
    if inst.scope == CONTAINED:
        members = sub_universe
    else:
        forms, members = (), sorted(region)

    def traces(d):
        found = (tuple(p for p in fl.points if p in keep)
                 for fl in flats_avoiding(sp, forms, d, members, within))
        return tuple(tr for tr in found if tr)

    t_sub = inst.t - (sp.n - flat.d)
    return BlockingInstance(sp, t_sub, sub_universe, traces(inst.blocked_dim),
                            traces(sp.n - inst.blocked_dim),
                            arrangement=inst.arrangement, scope=inst.scope,
                            blocked_dim=inst.blocked_dim, region=region)


def guaranteed_existence_check(n, q, t=1):
    """Sufficient condition for existence at level t in dimension n: the
    field is at least 2^n.  One-way only; False decides nothing."""
    if not 1 <= t <= n:
        raise DimensionOutOfRange("level t=%d outside 1..%d" % (t, n))
    return q >= 2 ** n


@dataclass
class SubspaceCertificate:
    """A flat whose induced sub-instance provably has no blocking set;
    by restriction this rules out the ambient instance too."""
    flat: Flat
    sub: BlockingInstance
    result: SearchResult
    convention: str


def nonexistence_by_subspace(inst, convention=PLAIN):
    """Search for a nonexistence certificate among flats inside the
    universe, dimensions ascending from blocked_dim (and above t) to n.  A
    flat certifies when its universe is small enough for the oracle and
    the oracle says not-exists on its sub-instance.  A d-flat inside the
    universe keeps every one of its own (n-t)- and t-subflats, whole, so
    all d-flats inside give isomorphic sub-instances and the first one in
    canonical order stands for its dimension.  Returns None when nothing
    certifies (in particular whenever the ambient instance does have a
    blocking set)."""
    if convention not in CONVENTIONS:
        raise ValueError("convention must be one of %s" % (CONVENTIONS,))
    forms = _geometric_forms(inst)
    req = convention == NONTRIVIAL
    sp = inst.space
    within = None if inst.region is None else _region_flat(sp, inst.region)
    for d in range(max(inst.blocked_dim, inst.t + 1, 0), sp.n + 1):
        flats = flats_avoiding(sp, forms, d, inst.universe, within)
        # a larger flat holds a smaller one and has more points
        if not flats or len(flats[0].points) > ORACLE_FULL_CAP:
            return None
        sub = induced_subinstance(inst, flats[0])
        res = exhaustive_oracle(sub, require_nontrivial=req)
        if res.verdict == "not-exists":
            return SubspaceCertificate(flats[0], sub, res, convention)
    return None


@dataclass
class ScanRow:
    n: int
    verdict: str   # exists | not-exists | vacuous | timeout | skipped
    size: int = None
    note: str = ""


@dataclass
class ScanReport:
    kind: str
    q: int
    t: int
    scope: str
    convention: str
    rows: list
    threshold: int = None   # largest n with verdict exists
    monotone: bool = True   # no not-exists below an exists


def threshold_scan(kind, q, t=1, n_max=4, scope=CONTAINED, convention=PLAIN,
                   arrangement_builder=None, size_cap=None, time_budget=None,
                   workers=1):
    """Row per dimension from n = t (the first level where the instance is
    defined) up to n_max.  The builder, when given, maps a space to the
    arrangement for that row; rows whose space or flat enumeration blows
    the guards are reported as skipped rather than aborting the scan."""
    from .geometry import space as make_space
    rows = []
    for n in range(max(t, 1), n_max + 1):
        try:
            sp = make_space(kind, n, q)
            arr = arrangement_builder(sp) if arrangement_builder else \
                arrangement_make(sp, [])
            inst = build_instance(sp, arr, t, scope)
        except (TooLarge, SpaceTooLarge) as exc:
            rows.append(ScanRow(n, "skipped", None, str(exc)))
            continue
        try:
            res = solve_instance(inst, convention, size_cap=size_cap,
                                 time_budget=time_budget, workers=workers)
        except SearchTimeout:
            rows.append(ScanRow(n, "timeout"))
            continue
        rows.append(ScanRow(n, res.verdict, res.size))
    threshold = None
    seen_not = False
    monotone = True
    for row in rows:
        if row.verdict == "exists":
            threshold = row.n
            if seen_not:
                monotone = False
        elif row.verdict == "not-exists":
            seen_not = True
    return ScanReport(kind, q, t, scope, convention, rows, threshold, monotone)


@dataclass
class ClassificationResult:
    category: str            # blocking-arrangement | unblocking-arrangement | neutral
    baseline: SearchResult
    with_arrangement: SearchResult
    minimal: bool = None
    pool_minimal: bool = None


def _exists_like(res):
    # vacuous means the empty set blocks, which is existence with a flag
    return res.verdict in ("exists", "vacuous")


def classify_arrangement(sp, arr, t=1, scope=CONTAINED, convention=PLAIN,
                         check_minimal=True, pool=None, size_cap=None,
                         time_budget=None, workers=1):
    """Compare existence with and without the arrangement.  The
    arrangement is blocking when it kills existence the empty arrangement
    had, unblocking when it creates it, neutral otherwise.  Minimality
    drops one form at a time; a caller-supplied pool widens the check to
    arbitrary smaller arrangements."""
    empty = arrangement_make(sp, [])
    base_inst = build_instance(sp, empty, t, scope)
    base = solve_instance(base_inst, convention, size_cap=size_cap,
                          time_budget=time_budget, workers=workers)
    inst = build_instance(sp, arr, t, scope)
    res = solve_instance(inst, convention, size_cap=size_cap,
                         time_budget=time_budget, workers=workers)
    e0, e1 = _exists_like(base), _exists_like(res)
    if e0 and not e1:
        category = "blocking-arrangement"
    elif e1 and not e0:
        category = "unblocking-arrangement"
    else:
        category = "neutral"
    out = ClassificationResult(category, base, res)
    if category == "neutral" or not check_minimal:
        return out

    def same_category(sub_arr):
        sub_inst = build_instance(sp, sub_arr, t, scope)
        sub_res = solve_instance(sub_inst, convention, size_cap=size_cap,
                                 time_budget=time_budget, workers=workers)
        se = _exists_like(sub_res)
        if category == "blocking-arrangement":
            return e0 and not se
        return se and not e0

    minimal = True
    forms = list(arr.forms)
    for i in range(len(forms)):
        rest = forms[:i] + forms[i + 1:]
        sub_arr = Arrangement(arr.space, tuple(rest))
        if same_category(sub_arr):
            minimal = False
            break
    out.minimal = minimal
    if pool is not None:
        out.pool_minimal = True
        for cand in pool:
            if len(cand.forms) < len(arr.forms) and same_category(cand):
                out.pool_minimal = False
                break
    return out
