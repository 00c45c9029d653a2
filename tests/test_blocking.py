import concurrent.futures
import json
import random
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocksets import arrangement, blocking, geometry, solver, symmetry
from blocksets.arrangement import (arrangement_make, complement,
                                   flats_in_complement, normalize_form,
                                   touching_traces)
from blocksets.blocking import (BlockingInstance, build_instance,
                                classify_arrangement, exhaustive_oracle,
                                guaranteed_existence_check, induced_subinstance,
                                is_blocking, is_minimal, is_nontrivial,
                                min_blocking_set, minimalize,
                                nonexistence_by_subspace, solve_instance,
                                threshold_scan)
from blocksets.braid import braid_arrangement, braid_existence
from blocksets.cli import main
from blocksets.errors import (DimensionOutOfRange, InternalError, NotBlocking,
                              NotInUniverse, SearchTimeout, TooLarge,
                              UniverseTooLarge)
from blocksets.geometry import (AFFINE, PROJECTIVE, enumerate_flats,
                                flats_avoiding, flat_size, space, span)


def empty_instance(kind, n, q, t=1, scope="contained"):
    sp = space(kind, n, q)
    return build_instance(sp, arrangement_make(sp, []), t, scope)


def one_line_instance(n, q, t=1, scope="touching"):
    sp = space(PROJECTIVE, n, q)
    row = [0] * (n + 1)
    row[0] = 1
    return build_instance(sp, arrangement_make(sp, [tuple(row)]), t, scope)


# -- instance construction --------------------------------------------------

@pytest.mark.parametrize("kind,n,q,rows,t", [
    (AFFINE, 3, 5, [(1, 4, 0, 0), (1, 0, 4, 0), (0, 1, 4, 0)], 2),  # braid
    (PROJECTIVE, 3, 3, [(1, 0, 0, 0)], 1),
    (AFFINE, 3, 3, [(1, 0, 0, 0), (0, 1, 0, 0)], 2),
    (AFFINE, 3, 3, [(1, 0, 0, 0)], 1),  # family level above the forbidden one
])
def test_contained_instance_grows_each_level_once(monkeypatch, kind, n, q, rows, t):
    sp = space(kind, n, q)
    arr = arrangement_make(sp, rows)
    listed = []
    real = arrangement.flats_avoiding

    def counted(sp, forms, d, members, within=None):
        listed.append(d)
        return real(sp, forms, d, members, within)

    monkeypatch.setattr(arrangement, "flats_avoiding", counted)
    inst = build_instance(sp, arr, t, "contained")
    # the build lists the family's level only; the first read of the
    # forbidden list lists level t
    assert listed == [n - t]
    forbidden = inst.forbidden
    assert listed == [n - t, t]
    assert inst.forbidden is forbidden and listed == [n - t, t]  # listed once
    monkeypatch.undo()
    members = complement(sp, arr).member_set
    if kind == PROJECTIVE:
        # every flat of dimension >= 1 meets the removed hyperplane
        assert inst.family == forbidden == ()
    assert inst.family == tuple(fl.points for fl in enumerate_flats(sp, n - t)
                                if members.issuperset(fl.points))
    assert forbidden == tuple(fl.points for fl in enumerate_flats(sp, t)
                              if members.issuperset(fl.points))


def test_build_empty_arrangement_pg23():
    for scope in ("contained", "touching"):
        inst = empty_instance(PROJECTIVE, 2, 3, 1, scope)
        assert len(inst.universe) == 13
        assert len(inst.family) == 13
        assert all(len(tr) == 4 for tr in inst.family)


def test_build_braid_ag33():
    # lines are 1-flats, so in dimension 3 the level blocking them is t=2;
    # at t=1 the family asks for contained planes and comes out empty
    sp = space(AFFINE, 3, 3)
    inst = build_instance(sp, braid_arrangement(sp), 2, "contained")
    assert len(inst.universe) == 6
    assert len(inst.family) == 2
    assert all(len(tr) == 3 for tr in inst.family)
    assert build_instance(sp, braid_arrangement(sp), 1, "contained").family == ()


def test_build_one_line_touching():
    inst = one_line_instance(2, 3)
    assert len(inst.universe) == 9
    assert len(inst.family) == 12
    assert all(len(tr) == 3 for tr in inst.family)


def test_traces_live_in_universe_and_contained_traces_are_full_flats():
    for inst in (empty_instance(PROJECTIVE, 2, 3), one_line_instance(2, 3),
                 empty_instance(AFFINE, 2, 3)):
        uni = set(inst.universe)
        for tr in inst.family:
            assert tr and set(tr) <= uni
        if inst.scope == "contained":
            want = flat_size(inst.space.kind, inst.blocked_dim, inst.space.q)
            assert all(len(tr) == want for tr in inst.family)


def test_level_validation():
    sp = space(PROJECTIVE, 2, 3)
    arr = arrangement_make(sp, [])
    with pytest.raises(DimensionOutOfRange):
        build_instance(sp, arr, 0, "contained")
    with pytest.raises(DimensionOutOfRange):
        build_instance(sp, arr, 3, "contained")
    with pytest.raises(ValueError):
        build_instance(sp, arr, 1, "everywhere")


def test_instance_rejects_foreign_points():
    sp = space(PROJECTIVE, 2, 3)
    with pytest.raises(NotInUniverse):
        BlockingInstance(sp, 1, universe=(0, 1, 99), family=((0, 1),))


def test_instance_names_the_first_trace_point_outside_the_universe():
    sp = space(PROJECTIVE, 2, 3)
    uni = (0, 1, 2, 3)
    with pytest.raises(NotInUniverse, match="^family trace point 7 outside universe$"):
        BlockingInstance(sp, 1, universe=uni, family=((0, 1), (9, 0, 7)))
    with pytest.raises(NotInUniverse, match="^forbidden trace point 5 outside universe$"):
        BlockingInstance(sp, 1, universe=uni, family=((0,),), forbidden=((8, 1, 5),))
    with pytest.raises(ValueError, match="^empty trace in family$"):
        BlockingInstance(sp, 1, universe=uni, family=((0,), ()))


@pytest.mark.parametrize("family,forbidden,error,message", [
    (((0, 0), (), (9,)), (), ValueError, "empty trace in family"),
    (((3, 1, 1), (9, 2), ()), (), NotInUniverse,
     "family trace point 9 outside universe"),
    (((0,), (), ("a", 1)), (), ValueError, "empty trace in family"),
    (((0,), (2, 2)), ((), (1, 1), (6, 0, 4)), NotInUniverse,
     "forbidden trace point 4 outside universe"),
])
def test_instance_raises_on_the_first_trace_that_fails(family, forbidden,
                                                       error, message):
    # a later trace that fails another check, or that cannot be sorted,
    # does not change what the first failing one raises
    sp = space(PROJECTIVE, 2, 3)
    with pytest.raises(error) as info:
        BlockingInstance(sp, 1, (0, 1, 2, 3), family, forbidden)
    assert type(info.value) is error and str(info.value) == message


# -- the forbidden side, listed on first read --------------------------------

SMALL_SPACES = [(PROJECTIVE, 2, 2), (PROJECTIVE, 2, 3), (PROJECTIVE, 2, 4),
                (AFFINE, 2, 3), (AFFINE, 2, 4), (AFFINE, 3, 2), (AFFINE, 3, 3),
                (PROJECTIVE, 3, 2), (AFFINE, 4, 2)]


def _drawn_arrangements(sp, rng):
    """The empty arrangement, 1-3 drawn forms, and a pencil of hyperplanes
    that covers the space (x_1 = c for every c in AG; in PG the q + 1
    hyperplanes through x_0 = x_1 = 0), whose complement is empty."""
    out = [arrangement_make(sp, [])]
    for k in (1, 2, 3):
        forms = set()
        while len(forms) < k:
            row = [rng.randrange(sp.q) for _ in range(sp.n + 1)]
            if any(row[:sp.ncoords]):
                forms.add(normalize_form(sp, row))
        out.append(arrangement_make(sp, sorted(forms)))
    zero = [0] * (sp.n - 1)
    if sp.kind == AFFINE:
        pencil = [[1] + zero + [c] for c in range(sp.q)]
    else:
        pencil = [[1, c] + zero for c in range(sp.q)] + [[0, 1] + zero]
    out.append(arrangement_make(sp, pencil))
    return out


@pytest.mark.parametrize("kind,n,q", SMALL_SPACES)
def test_forbidden_size_counts_the_listed_traces(kind, n, q):
    sp = space(kind, n, q)
    for arr in _drawn_arrangements(sp, random.Random("%s:%d:%d" % (kind, n, q))):
        for t in range(1, n + 1):
            for scope in ("contained", "touching"):
                comp = complement(sp, arr)
                if scope == "contained":
                    want = tuple(fl.points for fl in flats_in_complement(comp, t))
                else:
                    want = tuple(touching_traces(comp, t))
                inst = build_instance(sp, arr, t, scope)
                assert inst.forbidden_size == len(want), (arr, t, scope)
                assert inst.forbidden == want, (arr, t, scope)
                assert inst.forbidden_size == len(inst.forbidden)


def _recorded_levels(monkeypatch):
    """The dimension of every touching_traces call and of every contained
    level listed, in order."""
    dims = []
    real_traces, real_flats = blocking.touching_traces, arrangement.flats_avoiding

    def traces(comp, d):
        dims.append(d)
        return real_traces(comp, d)

    def flats(sp, forms, d, members, within=None):
        dims.append(d)
        return real_flats(sp, forms, d, members, within)

    monkeypatch.setattr(blocking, "touching_traces", traces)
    monkeypatch.setattr(arrangement, "flats_avoiding", flats)
    return dims


# contained rows have t > n - t, so the family's levels stop below t
@pytest.mark.parametrize("kind,n,q,rows,t,scope", [
    (AFFINE, 3, 3, [(1, 0, 0, 0)], 2, "contained"),
    (AFFINE, 4, 2, [(1, 0, 0, 0, 0)], 3, "contained"),
    (AFFINE, 3, 3, [(1, 0, 0, 0)], 1, "touching"),
    (PROJECTIVE, 3, 2, [(1, 0, 0, 0)], 2, "touching"),
])
def test_plain_runs_never_enumerate_the_forbidden_level(monkeypatch, kind, n, q,
                                                        rows, t, scope):
    sp = space(kind, n, q)
    arr = arrangement_make(sp, rows)
    dims = _recorded_levels(monkeypatch)
    for convention in ("plain", "minimal"):
        solve_instance(build_instance(sp, arr, t, scope), convention)
        classify_arrangement(sp, arr, t, scope, convention)
    assert dims and all(d <= n - t for d in dims)
    solve_instance(build_instance(sp, arr, t, scope), "nontrivial")
    assert t in dims  # the nontrivial search does list them


def test_plain_braid_never_enumerates_the_forbidden_level(monkeypatch):
    dims = _recorded_levels(monkeypatch)
    assert braid_existence(AFFINE, 3, 5, t=2, scope="contained").verdict == "exists"
    assert braid_existence(AFFINE, 3, 3, t=1, scope="touching").verdict == "exists"
    assert dims == [1, 2]


def test_search_reports_forbidden_size_without_listing(monkeypatch, capsys, tmp_path):
    path = tmp_path / "ag3-3.minus-plane.txt"
    path.write_text("affine 3 3\n1 0 0 0\n")
    dims = _recorded_levels(monkeypatch)
    assert main(["--no-meta", "search", str(path), "--t", "1",
                 "--scope", "touching"]) == 0
    assert dims == [2]
    rep = json.loads(capsys.readouterr().out)
    sp = space(AFFINE, 3, 3)
    comp = complement(sp, arrangement_make(sp, [(1, 0, 0, 0)]))
    # the 117 lines of AG(3,3) less the 12 inside the removed plane
    assert rep["instance"]["forbidden_size"] == len(touching_traces(comp, 1)) == 105


def _recorded_walks(monkeypatch):
    """The dimension of every touching_count and touching_traces call, as
    ("count", d) and ("list", d), in order."""
    calls = []
    real_count, real_traces = blocking.touching_count, blocking.touching_traces

    def count(comp, d):
        calls.append(("count", d))
        return real_count(comp, d)

    def traces(comp, d):
        calls.append(("list", d))
        return real_traces(comp, d)

    monkeypatch.setattr(blocking, "touching_count", count)
    monkeypatch.setattr(blocking, "touching_traces", traces)
    return calls


@pytest.mark.parametrize("convention,walks", [
    ("nontrivial", [("list", 2), ("list", 1)]),
    ("plain", [("list", 2), ("count", 1)]),
])
def test_search_walks_the_forbidden_level_once(monkeypatch, capsys, tmp_path,
                                               convention, walks):
    # a nontrivial search lists the t-level and reads forbidden_size off the
    # list; a plain one only counts it
    path = tmp_path / "ag3-3.minus-plane.txt"
    path.write_text("affine 3 3\n1 0 0 0\n")
    calls = _recorded_walks(monkeypatch)
    assert main(["--no-meta", "search", str(path), "--t", "1",
                 "--scope", "touching", "--convention", convention]) == 0
    assert calls == walks
    assert json.loads(capsys.readouterr().out)["instance"]["forbidden_size"] == 105


def test_forbidden_side_refusal_keeps_type_and_message(monkeypatch, capsys):
    # PG(3,2) has 15 planes and 35 lines: a guard of 20 trips only the lines
    sp = space(PROJECTIVE, 3, 2)
    empty = arrangement_make(sp, [])
    monkeypatch.setattr(arrangement, "ENUM_GUARD", 20)
    msg = "trace enumeration at d=1 in PG(3,2) exceeds the guard"
    with pytest.raises(TooLarge, match="^%s$" % re.escape(msg)):
        build_instance(sp, empty, 1, "touching")
    assert main(["instance", "--space", "pg", "--n", "3", "--q", "2",
                 "--t", "1", "--scope", "touching"]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": msg, "type": "TooLarge"}
    last = threshold_scan(PROJECTIVE, 2, t=1, n_max=3, scope="touching").rows[-1]
    assert (last.n, last.verdict, last.note) == (3, "skipped", msg)
    # the contained flats of the whole space are all of its flats
    monkeypatch.setattr(geometry, "ENUM_GUARD", 20)
    msg = "enumerating 35 flats of dimension 1 in PG(3,2) exceeds the guard"
    with pytest.raises(TooLarge, match="^%s$" % re.escape(msg)):
        build_instance(sp, empty, 1, "contained")


def test_contained_levels_too_large_to_list_are_refused_first(monkeypatch,
                                                              capsys, tmp_path):
    # AG(6,7) minus x1 = 0, contained: 41,174,700 family 3-flats at t = 3
    # and 40,351,206 lines at t = 1, each past ENUM_GUARD (2^24).  Their
    # counts come by formula, so each level is refused before any of its
    # flats is listed, and only where it is read: the plain side of t = 1
    # lists its six hyperplanes and counts the lines
    path = tmp_path / "ag6-7.txt"
    path.write_text("affine 6 7\n1 0 0 0 0 0 0\n")
    listed = []
    real = arrangement.flats_avoiding

    def spy(sp, forms, d, members, within=None):
        listed.append(d)
        if d != 5:  # the listing itself would run for minutes
            raise AssertionError("the %d-flats were listed" % d)
        return real(sp, forms, d, members, within)

    monkeypatch.setattr(arrangement, "flats_avoiding", spy)

    def refused(*argv):
        assert main(list(argv)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "TooLarge"
        return err["error"]

    assert refused("instance", str(path), "--t", "3") == \
        "enumerating 41174700 flats of dimension 3 in AG(6,7) exceeds the guard"
    assert listed == []
    assert main(["instance", str(path), "--t", "1"]) == 0
    rep = json.loads(capsys.readouterr().out)["instance"]
    assert (rep["family_size"], rep["forbidden_size"]) == (6, 40351206)
    assert listed == [5]
    assert refused("search", str(path), "--t", "1", "--convention",
                   "nontrivial") == \
        "enumerating 40351206 flats of dimension 1 in AG(6,7) exceeds the guard"
    assert listed == [5, 5]


# -- predicates --------------------------------------------------------------

def test_is_blocking_basics():
    inst = empty_instance(PROJECTIVE, 2, 3)
    assert is_blocking(inst, inst.universe)
    assert not is_blocking(inst, ())


def test_is_blocking_braid_pair_by_coordinates():
    sp = space(AFFINE, 3, 3)
    inst = build_instance(sp, braid_arrangement(sp), 2, "contained")
    assert is_blocking(inst, [(0, 1, 2), (0, 2, 1)])


def test_is_blocking_vacuous_when_family_empty():
    sp = space(PROJECTIVE, 2, 5)
    inst = build_instance(sp, braid_arrangement(sp), 1, "contained")
    assert inst.family == ()
    assert is_blocking(inst, ())


def test_is_minimal_full_line():
    inst = empty_instance(PROJECTIVE, 2, 2)
    line = enumerate_flats(inst.space, 1)[0]
    assert is_blocking(inst, line.points)
    assert is_minimal(inst, line.points)
    assert not is_minimal(inst, inst.universe)


def test_is_minimal_requires_blocking():
    inst = empty_instance(PROJECTIVE, 2, 2)
    with pytest.raises(NotBlocking):
        is_minimal(inst, (0,))


def _meets(tr, pts):
    return [p for p in tr if p in pts]


@st.composite
def drawn_checks(draw):
    """(instance, candidate): a custom instance on points of PG(2,4) whose
    traces may repeat a point or a trace (the family may be empty, and the
    forbidden list may hold an empty trace), and a candidate subset of its
    universe, possibly empty."""
    sp = space(PROJECTIVE, 2, 4)
    universe = sorted(draw(st.sets(st.integers(0, sp.npoints - 1), min_size=1)))
    point = st.sampled_from(universe)
    family = draw(st.lists(st.lists(point, min_size=1, max_size=6), max_size=10))
    forbidden = draw(st.lists(st.lists(point, max_size=4), max_size=6))
    inst = BlockingInstance(sp, 1, universe, family, forbidden)
    assert inst.family == tuple(tuple(sorted(set(tr))) for tr in family)
    assert inst.forbidden == tuple(tuple(sorted(set(tr)))
                                   for tr in forbidden if tr)
    return inst, draw(st.sets(point))


_PG22 = space(PROJECTIVE, 2, 2)


@settings(max_examples=300, deadline=None)
@example((BlockingInstance(_PG22, 1, range(7), ()), set()))
@example((BlockingInstance(_PG22, 1, range(7), ((0, 1), (2,)), ((0,),)), set()))
@example((BlockingInstance(_PG22, 1, range(7), ((0, 1), (1, 2), (3,))),
          {1, 2, 3}))
@given(drawn_checks())
def test_witness_checks_match_their_loops(drawn):
    inst, pts = drawn
    blocks = all(_meets(tr, pts) for tr in inst.family)
    assert is_blocking(inst, pts) is blocks
    assert is_nontrivial(inst, pts) is all(
        len(_meets(tr, pts)) < len(tr) for tr in inst.forbidden)
    if not blocks:
        with pytest.raises(NotBlocking):
            is_minimal(inst, pts)
        return
    assert is_minimal(inst, pts) is all(
        any(_meets(tr, pts) == [p] for tr in inst.family) for p in pts)


def test_is_nontrivial():
    inst = empty_instance(PROJECTIVE, 2, 3)
    line = enumerate_flats(inst.space, 1)[0]
    assert not is_nontrivial(inst, line.points)
    assert is_nontrivial(inst, ())
    res = min_blocking_set(inst, require_nontrivial=True)
    assert is_nontrivial(inst, res.witness)


# -- exact search ------------------------------------------------------------

def test_min_pg22():
    inst = empty_instance(PROJECTIVE, 2, 2)
    res = min_blocking_set(inst)
    assert (res.verdict, res.size) == ("exists", 3)
    assert span(inst.space, list(res.witness)).d == 1  # a full line
    assert min_blocking_set(inst, require_nontrivial=True).verdict == "not-exists"


def test_min_pg23():
    inst = empty_instance(PROJECTIVE, 2, 3)
    assert min_blocking_set(inst).size == 4
    res = min_blocking_set(inst, require_nontrivial=True)
    assert res.size == 6
    assert is_nontrivial(inst, res.witness) and is_minimal(inst, res.witness)


def test_ag23_touching_nontrivial_has_none():
    inst = one_line_instance(2, 3)
    res = min_blocking_set(inst, require_nontrivial=True)
    assert res.verdict == "not-exists"


def test_vacuous_family():
    sp = space(PROJECTIVE, 2, 3)
    inst = build_instance(sp, braid_arrangement(sp), 1, "contained")
    res = min_blocking_set(inst)
    assert (res.verdict, res.size, res.witness) == ("vacuous", 0, ())


def test_size_cap_turns_exists_into_not_exists():
    inst = empty_instance(PROJECTIVE, 2, 3)
    assert min_blocking_set(inst, size_cap=3).verdict == "not-exists"
    assert min_blocking_set(inst, size_cap=4).size == 4


def test_search_timeout_is_distinct():
    inst = empty_instance(PROJECTIVE, 2, 7)
    with pytest.raises(SearchTimeout):
        min_blocking_set(inst, require_nontrivial=True, size_cap=14,
                         time_budget=1e-4)


@pytest.mark.parametrize("run", [min_blocking_set, exhaustive_oracle])
def test_a_timeout_is_timed_from_before_the_mask_build(monkeypatch, run):
    # a verdict's elapsed counts the mask build, and so does a timeout's
    real = blocking._masks

    def slow(*args):
        time.sleep(0.05)
        return real(*args)

    monkeypatch.setattr(blocking, "_masks", slow)
    inst = empty_instance(PROJECTIVE, 2, 7)
    with pytest.raises(SearchTimeout) as info:
        run(inst, require_nontrivial=True, size_cap=14, time_budget=1e-4)
    assert info.value.result.elapsed >= 0.05


def test_budget_covers_the_worker_frontier():
    inst = empty_instance(PROJECTIVE, 2, 7)
    with pytest.raises(SearchTimeout):
        min_blocking_set(inst, require_nontrivial=True, size_cap=14,
                         time_budget=1e-3, workers=2)


def test_frontier_pass_stops_at_the_deadline():
    # the --workers frontier is the orbital search run workers * 8 nodes at
    # a time; a past deadline stops it before it expands the root, which
    # stays on the stack as the one open subtree
    inst = empty_instance(PROJECTIVE, 2, 5)
    U = len(inst.universe)
    tmasks = solver._build_masks(inst.universe, inst.family)
    group = symmetry.state_group(
        symmetry.automorphisms(blocking._seeds(inst), tmasks, []))
    root = (0, 0, 0, 0, group, None, 0)
    stack = [root]
    result = solver._search(solver._Instance(tmasks, [], U), stack, U + 1,
                            time.monotonic() - 1.0, False, limit=16)
    assert result[3] == solver.DEADLINE
    assert (result[2], stack) == (0, [root])


def test_an_instance_with_no_arrangement_goes_on_from_the_probe():
    # the lines of PG(2,5) as a custom instance, which has no arrangement
    # and so no group: the search that outgrows its probe goes on from the
    # probe's stack, and visits exactly the nodes of the uncut plain search.
    # No 8 points block every line without swallowing one (the minimum is
    # 9), so the bound phase is the whole search
    inst = empty_instance(PROJECTIVE, 2, 5)
    custom = BlockingInstance(inst.space, 1, inst.universe, inst.family,
                              inst.forbidden)
    U = len(custom.universe)
    tmasks, fmasks = blocking._masks(custom, True)
    plain = solver._search(solver._Instance(tmasks, fmasks, U),
                           [(0, 0, 0, 0, None, None, 0)], 9, None, False)
    res = min_blocking_set(custom, require_nontrivial=True, size_cap=8)
    assert (res.verdict, res.stats.get("symmetry")) == ("not-exists", None)
    assert (res.nodes, res.stats["closed_children"]) == (plain[2], plain[6])
    # the probe's work, limited to the family's incidences, did not finish
    assert plain[2] + plain[6] > sum(m.bit_count() for m in tmasks)


def test_a_trivial_group_goes_on_from_the_probe():
    # PG(2,7) minus six lines has 22 points and a trivial group: the search
    # outgrows its probe (176 units of work, one per family incidence, in
    # 119 nodes), computes the group, and goes on from the probe's stack
    # instead of spending those nodes again from the root, so its bound
    # phase visits exactly the nodes of the uncut plain search
    sp = space(PROJECTIVE, 2, 7)
    arr = arrangement_make(sp, [(0, 0, 1), (0, 1, 0), (0, 1, 5), (1, 2, 2),
                                (1, 5, 2), (1, 6, 5)])
    inst = build_instance(sp, arr, 1, "touching")
    res = solve_instance(inst, "plain")
    assert (len(inst.universe), res.verdict, res.size) == (22, "exists", 11)
    sym = {k: res.stats["symmetry"][k]
           for k in ("order", "generators", "probe_nodes", "skipped")}
    assert sym == {"order": 1, "generators": 0, "probe_nodes": 119,
                   "skipped": 0}
    assert (res.nodes, res.stats["witness_nodes"]) == (271, 59)
    U = len(inst.universe)
    tmasks, _ = blocking._masks(inst, False)
    plain_inst = solver._Instance(tmasks, [], U)
    best0 = solver._greedy_incumbent(plain_inst).bit_count()
    plain = solver._search(plain_inst, [(0, 0, 0, 0, None, None, 0)],
                           best0, None, False)
    assert res.nodes - res.stats["witness_nodes"] == plain[2]


def test_the_probe_is_limited_by_the_family_incidences(monkeypatch):
    # PG(2,5) nontrivial: forbidden traces prune children but add no
    # branches, so the probe's limit is the family's incidences, 31 lines
    # of 6 points, whatever the 31 forbidden lines hold
    limits = []
    real = solver._search

    def spy(inst, stack, best0, deadline, first_only, limit=None):
        limits.append(limit)
        return real(inst, stack, best0, deadline, first_only, limit)

    monkeypatch.setattr(solver, "_search", spy)
    inst = empty_instance(PROJECTIVE, 2, 5)
    res = min_blocking_set(inst, require_nontrivial=True)
    assert (res.size, len(inst.forbidden)) == (9, 31)
    assert limits[0] == sum(len(tr) for tr in inst.family) == 31 * 6


class _InlinePool:
    """A ProcessPoolExecutor stand-in that runs each task in this process
    and keeps it."""

    tasks = []

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payloads, chunksize=1):
        payloads = list(payloads)
        _InlinePool.tasks.extend(payloads)
        return [fn(p) for p in payloads]


def test_pool_tasks_count_the_tasks_handed_out(monkeypatch):
    # PG(2,7) nontrivial under a cap of 14 reaches the --workers 2 pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "tasks", [])
    inst = empty_instance(PROJECTIVE, 2, 7)
    serial = min_blocking_set(inst, require_nontrivial=True, size_cap=14)
    pooled = min_blocking_set(inst, require_nontrivial=True, size_cap=14,
                              workers=2)
    assert serial.size == 12
    assert (pooled.size, pooled.witness) == (serial.size, serial.witness)
    assert serial.stats["pool_tasks"] == 0
    assert pooled.stats["pool_tasks"] == len(_InlinePool.tasks) > 0


def _no_pool(*args, **kwargs):
    raise AssertionError("a serial search started a process pool")


@pytest.mark.parametrize("q,workers,size", [(5, 1, 9), (4, 2, 7)])
def test_a_serial_search_starts_no_pool(monkeypatch, q, workers, size):
    # the lines of PG(2,q) as a custom instance outgrow their probe, which
    # leaves several open subtrees; with one worker, or on fewer than
    # PARALLEL_MIN_UNIVERSE points, one serial search finishes them
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    inst = empty_instance(PROJECTIVE, 2, q)
    custom = BlockingInstance(inst.space, 1, inst.universe, inst.family,
                              inst.forbidden)
    res = min_blocking_set(custom, require_nontrivial=True, workers=workers)
    assert (res.verdict, res.size) == ("exists", size)


def test_a_small_universe_starts_no_pool(monkeypatch):
    # 400 drawn traces of 5 to 8 of 23 points, below PARALLEL_MIN_UNIVERSE:
    # a --workers 2 frontier here would get to its 16 open subtrees and
    # start a pool, so only the universe's size keeps the search serial
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    rng = random.Random(20)
    traces = [sum(1 << p for p in rng.sample(range(23), rng.randint(5, 8)))
              for _ in range(400)]
    serial = solver.solve_masks(23, traces, [])
    assert solver.solve_masks(23, traces, [], workers=2) == serial
    assert serial[0] == 9


# Serial node counts pin the branching rule (trace selection, point order,
# exclusions, forbidden checks), the pruning order and the orbital
# branching: any drift in the engine or the group work changes them even
# when the answer stays the same.  Each row also keeps its count from
# before orbital branching, which names the row and bounds the new count.
PINNED_NODES = [
    # kind, n, q, nontrivial, size, nodes without symmetry, nodes
    (PROJECTIVE, 2, 5, True, 9, 20292, 135),
    (AFFINE, 3, 3, False, 7, 9597, 247),
    (PROJECTIVE, 3, 3, True, 6, 17855, 68),
    (PROJECTIVE, 4, 2, True, 5, 7465, 65),
    (AFFINE, 2, 5, False, 9, 6046, 184),
]


@pytest.mark.parametrize("kind,n,q,nontrivial,size,before,nodes", PINNED_NODES,
                         ids=["-".join(map(str, row[:6])) for row in PINNED_NODES])
def test_serial_node_counts_are_pinned(kind, n, q, nontrivial, size, before, nodes):
    res = min_blocking_set(empty_instance(kind, n, q), require_nontrivial=nontrivial)
    assert (res.size, res.nodes) == (size, nodes)
    assert nodes < before


# witnesses in PG(2,3), every point in the universe: a single point blocks
# no line; a whole line blocks but swallows the forbidden trace it is; a
# line and one more point blocks but is not minimal
RECHECKS = {"point": ("plain", "does not block"),
            "line": ("nontrivial", "swallows a forbidden trace"),
            "line+point": ("minimal", "is not minimal")}


@pytest.mark.parametrize("witness", sorted(RECHECKS))
def test_witness_recheck_raises_internal_error(monkeypatch, capsys, witness):
    convention, match = RECHECKS[witness]
    sp = space(PROJECTIVE, 2, 3)
    line = enumerate_flats(sp, 1)[0].points
    off = min(set(range(sp.npoints)) - set(line))
    pts = {"point": (0,), "line": line, "line+point": line + (off,)}[witness]
    mask = sum(1 << p for p in pts)
    monkeypatch.setattr(solver, "solve_masks",
                        lambda universe_size, *a, **kw: (len(pts), mask, 0))
    with pytest.raises(InternalError, match=match):
        solve_instance(empty_instance(PROJECTIVE, 2, 3), convention)
    assert main(["search", "--space", "pg", "--n", "2", "--q", "3", "--t",
                 "1", "--convention", convention]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "InternalError" and match in err["error"]


def test_universe_guard(monkeypatch):
    monkeypatch.setattr(blocking, "SEARCH_UNIVERSE_CAP", 8)
    inst = empty_instance(PROJECTIVE, 2, 3)
    with pytest.raises(TooLarge):
        min_blocking_set(inst)


def test_witness_is_lex_least_and_matches_oracle():
    for inst, req in [(empty_instance(PROJECTIVE, 2, 2), False),
                      (empty_instance(PROJECTIVE, 2, 3), False),
                      (empty_instance(PROJECTIVE, 2, 3), True),
                      (empty_instance(AFFINE, 2, 3), False),
                      (one_line_instance(2, 3), False)]:
        a = min_blocking_set(inst, require_nontrivial=req)
        b = exhaustive_oracle(inst, require_nontrivial=req)
        assert a.verdict == b.verdict
        assert a.size == b.size
        assert a.witness == b.witness  # both lex-least minimums


def test_solve_instance_conventions():
    inst = empty_instance(PROJECTIVE, 2, 3)
    plain = solve_instance(inst, "plain")
    minimal = solve_instance(inst, "minimal")
    nontriv = solve_instance(inst, "nontrivial")
    assert plain.size == minimal.size == 4
    assert is_minimal(inst, minimal.witness)
    assert nontriv.size == 6
    with pytest.raises(ValueError):
        solve_instance(inst, "fancy")
    with pytest.raises(ValueError):
        nonexistence_by_subspace(inst, "fancy")


def test_oracle_universe_cap():
    inst = empty_instance(PROJECTIVE, 2, 5)  # 31 points
    with pytest.raises(UniverseTooLarge):
        exhaustive_oracle(inst)
    capped = exhaustive_oracle(inst, size_cap=2)
    assert capped.verdict == "not-exists"


def test_oracle_vacuous():
    sp = space(PROJECTIVE, 2, 3)
    inst = build_instance(sp, braid_arrangement(sp), 1, "contained")
    res = exhaustive_oracle(inst)
    assert (res.verdict, res.witness) == ("vacuous", ())


def test_random_subfamilies_agree_with_oracle():
    rng = random.Random(7)
    lines = [fl.points for fl in enumerate_flats(space(PROJECTIVE, 2, 3), 1)]
    sp = space(PROJECTIVE, 2, 3)
    for _ in range(25):
        fam = tuple(sorted(rng.sample(lines, rng.randint(2, 8))))
        inst = BlockingInstance(sp, 1, universe=tuple(range(13)), family=fam)
        a = min_blocking_set(inst)
        b = exhaustive_oracle(inst)
        assert (a.verdict, a.size, a.witness) == (b.verdict, b.size, b.witness)
        # independent hitting check, no solver bookkeeping involved
        assert all(set(tr) & set(a.witness) for tr in fam)


# -- minimalization ----------------------------------------------------------

def test_minimalize_converges():
    inst = empty_instance(PROJECTIVE, 2, 3)
    got = minimalize(inst, inst.universe)
    assert is_blocking(inst, got) and is_minimal(inst, got)
    assert minimalize(inst, got) == got


def test_minimalize_needs_blocking_start():
    inst = empty_instance(PROJECTIVE, 2, 3)
    with pytest.raises(NotBlocking):
        minimalize(inst, (0, 1))


# -- restriction and join ----------------------------------------------------

def test_restriction_to_a_plane():
    inst = empty_instance(PROJECTIVE, 3, 2)
    res = min_blocking_set(inst)
    plane = enumerate_flats(inst.space, 2)[0]
    sub = induced_subinstance(inst, plane)
    part = set(res.witness) & set(plane.points)
    assert is_blocking(sub, part)
    assert set(sub.universe) <= set(plane.points)


def test_restriction_of_full_universe():
    inst = empty_instance(PROJECTIVE, 3, 2)
    plane = enumerate_flats(inst.space, 2)[3]
    sub = induced_subinstance(inst, plane)
    part = set(inst.universe) & set(plane.points)
    assert tuple(sorted(part)) == plane.points
    assert is_blocking(sub, part)


def test_induced_subinstance_filters_both_families():
    inst = empty_instance(PROJECTIVE, 3, 2, t=1)
    plane = enumerate_flats(inst.space, 2)[0]
    sub = induced_subinstance(inst, plane)
    pts = set(plane.points)
    assert set(sub.universe) == pts
    for tr in sub.family:
        assert set(tr) <= pts
    for tr in sub.forbidden:
        assert set(tr) <= pts


def _restricted_traces(inst, region):
    """The definition restriction stands for: the flats of the ambient
    instance under its scope rule, in canonical order, kept when they lie
    inside `region`; their traces on the universe."""
    sp, uni = inst.space, inst.universe_set

    def traces(d):
        out = []
        for fl in enumerate_flats(sp, d):
            pts = set(fl.points)
            if inst.scope == "contained" and not pts <= uni:
                continue
            if inst.scope == "touching" and not pts & uni:
                continue
            if pts <= region:
                out.append(tuple(p for p in fl.points if p in uni))
        return tuple(out)

    return traces(inst.blocked_dim), traces(sp.n - inst.blocked_dim)


@pytest.mark.parametrize("scope", ["contained", "touching"])
@pytest.mark.parametrize("kind,n,q,rows", [
    (PROJECTIVE, 3, 2, [(1, 0, 0, 0), (0, 1, 1, 0)]),
    (AFFINE, 3, 3, [(1, 2, 0, 0), (1, 0, 2, 0), (0, 1, 2, 0)]),  # braid
])
@pytest.mark.parametrize("t", [1, 2])
def test_induced_subinstance_matches_its_definition(kind, n, q, rows, t, scope):
    sp = space(kind, n, q)
    inst = build_instance(sp, arrangement_make(sp, rows), t, scope)
    for d in range(t + 1, n + 1):
        for fl in enumerate_flats(sp, d):
            sub = induced_subinstance(inst, fl)
            pts = set(fl.points)
            assert sub.universe == tuple(p for p in inst.universe if p in pts)
            assert (sub.family, sub.forbidden) == _restricted_traces(inst, pts)


def test_touching_restriction_of_a_restriction_keeps_flats_inside_both():
    sp = space(AFFINE, 3, 3)
    inst = build_instance(sp, braid_arrangement(sp), 1, "touching")
    first, *others = enumerate_flats(sp, 2)
    sub = induced_subinstance(inst, first)
    # a plane that leaves the first one, whose own traces differ from the
    # traces of the flats inside both
    inner = set(first.points)
    second = next(fl for fl in others
                  if _restricted_traces(inst, inner & set(fl.points))
                  != _restricted_traces(sub, set(fl.points)))
    both = inner & set(second.points)
    subsub = induced_subinstance(sub, second)
    assert subsub.region == both
    assert subsub.universe == tuple(p for p in inst.universe if p in both)
    assert (subsub.family, subsub.forbidden) == _restricted_traces(inst, both)


@pytest.mark.parametrize("kind,n,q,rows,scope,checked", [
    (AFFINE, 4, 2, [], "contained", 31),
    (AFFINE, 3, 2, [], "contained", 15),
    # no line of PG(3,2) misses a plane: no flat of dimension > t is inside
    (PROJECTIVE, 3, 2, [(1, 0, 0, 0)], "touching", 0),
])
def test_flats_inside_the_universe_of_one_dimension_agree(kind, n, q, rows,
                                                          scope, checked):
    # the reason nonexistence_by_subspace tests one flat per dimension
    sp = space(kind, n, q)
    inst = build_instance(sp, arrangement_make(sp, rows), 1, scope)
    seen = 0
    for d in range(max(inst.blocked_dim, inst.t + 1), n + 1):
        verdicts = []
        for fl in flats_avoiding(sp, inst.arrangement.forms, d, inst.universe):
            res = exhaustive_oracle(induced_subinstance(inst, fl),
                                    require_nontrivial=True)
            verdicts.append((res.verdict, res.size))
        assert verdicts == verdicts[:1] * len(verdicts)
        seen += len(verdicts)
    assert seen == checked


def test_join_one_point_of_the_removed_line():
    sp = space(PROJECTIVE, 2, 3)
    row = (1, 0, 0)
    inst = build_instance(sp, arrangement_make(sp, [row]), 1, "touching")
    c1 = min_blocking_set(inst).witness
    hpoints = [p for p in range(sp.npoints) if p not in inst.universe_set]
    union = set(c1) | set(hpoints[:1])
    assert is_blocking(empty_instance(PROJECTIVE, 2, 3), union)
    lines = enumerate_flats(sp, 1)
    assert all(set(fl.points) & set(union) for fl in lines)


def test_join_whole_space_degenerate():
    sp = space(PROJECTIVE, 2, 3)
    row = (1, 0, 0)
    inst = build_instance(sp, arrangement_make(sp, [row]), 1, "touching")
    hpoints = [p for p in range(sp.npoints) if p not in inst.universe_set]
    union = set(inst.universe) | set(hpoints)
    assert len(union) == 13
    assert is_blocking(empty_instance(PROJECTIVE, 2, 3), union)


def test_join_level_two():
    sp = space(PROJECTIVE, 3, 2)
    row = (1, 0, 0, 0)
    inst = build_instance(sp, arrangement_make(sp, [row]), 2, "touching")
    c1 = min_blocking_set(inst).witness
    hset = [p for p in range(sp.npoints) if p not in inst.universe_set]
    # at t=2 the hyperplane part must hit every line inside the hyperplane:
    # the whole removed plane does, and so does any one line of it
    full = empty_instance(PROJECTIVE, 3, 2, t=2)
    lines = [fl.points for fl in enumerate_flats(sp, 1) if set(fl.points) <= set(hset)]
    for c2 in [hset] + lines:
        union = set(c1) | set(c2)
        assert is_blocking(full, union)
        for fl in enumerate_flats(sp, 1):
            assert set(fl.points) & union


# -- existence helpers -------------------------------------------------------

def test_guaranteed_existence_check():
    assert guaranteed_existence_check(2, 4)
    assert not guaranteed_existence_check(2, 3)
    assert guaranteed_existence_check(3, 8)
    with pytest.raises(DimensionOutOfRange):
        guaranteed_existence_check(2, 4, t=3)


def test_guarantee_is_backed_by_search_where_desk_scale():
    inst = empty_instance(PROJECTIVE, 2, 4)
    assert guaranteed_existence_check(2, 4)
    assert min_blocking_set(inst).verdict == "exists"


def test_certificate_for_fano_nontrivial():
    inst = empty_instance(PROJECTIVE, 2, 2)
    cert = nonexistence_by_subspace(inst, convention="nontrivial")
    assert cert is not None
    assert cert.flat.d == 2
    assert cert.result.verdict == "not-exists"
    # the certificate is honest: the ambient search agrees
    assert min_blocking_set(inst, require_nontrivial=True).verdict == "not-exists"


def test_certificate_none_when_instance_exists():
    inst = empty_instance(PROJECTIVE, 2, 3)
    assert nonexistence_by_subspace(inst, convention="nontrivial") is None
    assert nonexistence_by_subspace(inst, convention="plain") is None


def test_certificate_refuses_a_custom_instance_before_listing_flats(monkeypatch):
    # a custom instance has no arrangement to build flats from: whether a
    # flat of its space fits the universe (PG(2,2), all of it) or not (the
    # 31 points of PG(2,5) pass the oracle's cap; four points of PG(2,3) in
    # general position hold no line), it is refused as restriction refuses it
    listed = []
    monkeypatch.setattr(blocking, "flats_avoiding",
                        lambda *args: listed.append(args))
    sp3 = space(PROJECTIVE, 2, 3)
    quad = (sp3.index_of((1, 0, 0)), sp3.index_of((0, 1, 0)),
            sp3.index_of((0, 0, 1)), sp3.index_of((1, 1, 1)))
    customs = [BlockingInstance(sp3, 1, quad, [quad])]
    for q in (2, 5):
        inst = empty_instance(PROJECTIVE, 2, q)
        customs.append(BlockingInstance(inst.space, 1, inst.universe, inst.family))
    for custom in customs:
        for convention in ("plain", "nontrivial"):
            with pytest.raises(ValueError, match="^instance has no geometric scope"):
                nonexistence_by_subspace(custom, convention)
        with pytest.raises(ValueError, match="^instance has no geometric scope"):
            induced_subinstance(custom, enumerate_flats(custom.space, 1)[0])
    assert listed == []


# -- scans and classification ------------------------------------------------

def test_scan_nontrivial_projective_q3():
    rep = threshold_scan(PROJECTIVE, 3, t=1, n_max=2, convention="nontrivial")
    got = {r.n: (r.verdict, r.size) for r in rep.rows}
    assert got[2] == ("exists", 6)
    assert rep.threshold == 2


def test_scan_plain_line_row():
    rep = threshold_scan(PROJECTIVE, 3, t=1, n_max=1, convention="plain")
    row = rep.rows[0]
    assert (row.n, row.verdict, row.size) == (1, "exists", 4)  # the whole line


def test_scan_one_hyperplane_touching_row():
    def single(sp):
        row = [0] * (sp.n + 1)
        row[0] = 1
        return arrangement_make(sp, [tuple(row)])
    rep = threshold_scan(PROJECTIVE, 3, t=1, n_max=2, scope="touching",
                         convention="nontrivial", arrangement_builder=single)
    got = {r.n: r.verdict for r in rep.rows}
    assert got[2] == "not-exists"


def test_scan_timeout_rows_are_marked():
    rep = threshold_scan(PROJECTIVE, 7, t=1, n_max=2, convention="nontrivial",
                         size_cap=14, time_budget=1e-4)
    assert any(r.verdict == "timeout" for r in rep.rows)


def test_classify_single_line_pg23():
    sp = space(PROJECTIVE, 2, 3)
    arr = arrangement_make(sp, [(1, 0, 0)])
    cls = classify_arrangement(sp, arr, t=1, scope="touching",
                               convention="nontrivial")
    assert cls.category == "blocking-arrangement"
    assert cls.minimal is True


def test_classify_empty_is_neutral():
    sp = space(PROJECTIVE, 2, 3)
    cls = classify_arrangement(sp, arrangement_make(sp, []), t=1,
                               scope="touching", convention="nontrivial",
                               check_minimal=False)
    assert cls.category == "neutral"


def test_classify_single_line_pg24_is_neutral():
    sp = space(PROJECTIVE, 2, 4)
    arr = arrangement_make(sp, [(1, 0, 0)])
    cls = classify_arrangement(sp, arr, t=1, scope="touching",
                               convention="nontrivial", check_minimal=False)
    assert cls.category == "neutral"
