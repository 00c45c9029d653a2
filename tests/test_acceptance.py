"""End-to-end checks, one per headline claim the package makes.

Each test is self-contained, prints one pass/fail line under pytest -v,
and asserts its own wall-clock budget so a regression in the search core
shows up here and not only as a slow CI run.
"""

import concurrent.futures
import json
import math
import random
import time
from itertools import combinations

import pytest

from blocksets.arrangement import (arrangement_make, complement,
                                   flats_in_complement)
from blocksets.blocking import (BlockingInstance, build_instance,
                                classify_arrangement, exhaustive_oracle,
                                induced_subinstance, is_blocking, is_minimal,
                                is_nontrivial, min_blocking_set, minimalize)
from blocksets.braid import (braid_arrangement, braid_existence,
                             braid_transversal, escape_parameter)
from blocksets.cli import main
from blocksets.geometry import AFFINE, PROJECTIVE, enumerate_flats, span, space

from braid_reference import distinct_coordinate_points, line_in_complement
from geometry_reference import form_value


def _parse_pt(s):
    return tuple(int(c) for c in s.split(","))


def test_contained_line_census_through_cli(capsys):
    start = time.monotonic()
    for q, expect in ((3, 2), (4, 6), (5, 24)):
        assert main(["braid", "--lines", "--q", str(q)]) == 0
        rep = json.loads(capsys.readouterr().out)
        lines = rep["lines"]
        assert len(lines) == expect
        sp = space(AFFINE, q, q)
        fq = sp.field
        for line in lines:
            pts = [_parse_pt(s) for s in line]
            idx = set(sp.index_of(p) for p in pts)
            for p in pts:
                shifted = tuple(fq.add(c, 1) for c in p)
                assert sp.index_of(shifted) in idx  # direction (1,...,1)
        comp = complement(sp, braid_arrangement(sp))
        enumerated = [[",".join(str(c) for c in sp.points[p]) for p in fl.points]
                      for fl in flats_in_complement(comp, 1)]
        assert lines == enumerated
    assert time.monotonic() - start < 5.0


def test_escape_parameter_biconditional_exhaustive():
    start = time.monotonic()
    bad = []
    for q in (3, 4):
        sp = space(AFFINE, q, q)
        fq = sp.field
        members = complement(sp, braid_arrangement(sp)).members
        assert members == distinct_coordinate_points(sp)
        members = [sp.points[i] for i in members]
        for x, y in combinations(members, 2):
            hit = escape_parameter(sp, x, y)
            contained = line_in_complement(sp, x, y)
            if (hit is None) != contained:
                bad.append((q, x, y))
                continue
            if hit is None:
                continue
            (i, j), t0, P = hit
            # documented parametrization: P = y + t0 (x - y)
            recomputed = tuple(fq.add(b, fq.mul(t0, fq.sub(a, b)))
                               for a, b in zip(x, y))
            if P != recomputed or P[i] != P[j] or t0 in (0, 1):
                bad.append((q, x, y))
    assert bad == []
    assert time.monotonic() - start < 10.0


def test_transversal_is_minimal_blocking():
    start = time.monotonic()
    for q in (3, 4, 5):
        sp = space(AFFINE, q, q)
        inst = build_instance(sp, braid_arrangement(sp), q - 1, "contained")
        tv = braid_transversal(sp)
        assert len(tv) == math.factorial(q - 1)
        assert is_blocking(inst, tv)
        assert is_minimal(inst, tv)
    assert time.monotonic() - start < 5.0


def test_projective_existence_dichotomy():
    start = time.monotonic()
    for q in (2, 3, 4, 5):
        for n in range(1, q + 2):
            out = braid_existence(PROJECTIVE, n, q, t=1, scope="touching")
            if n > q - 1:
                assert out.verdict == "empty"
                assert out.universe_size == 0
            else:
                assert out.verdict == "exists"
                assert out.universe_size > 0
                assert is_blocking(out.instance, out.result.witness)
    assert time.monotonic() - start < 60.0


def test_small_plane_minima_against_full_oracle():
    start = time.monotonic()
    sp = space(PROJECTIVE, 2, 3)
    inst = build_instance(sp, arrangement_make(sp, []), 1, "contained")
    res = min_blocking_set(inst, require_nontrivial=True)
    ora = exhaustive_oracle(inst, require_nontrivial=True)
    assert res.verdict == ora.verdict == "exists"
    assert res.size == ora.size == 6
    assert res.witness == ora.witness

    one_line = arrangement_make(sp, [(1, 0, 0)])
    ainst = build_instance(sp, one_line, 1, "touching")
    assert len(ainst.universe) == 9
    ares = min_blocking_set(ainst, require_nontrivial=True)
    aora = exhaustive_oracle(ainst, require_nontrivial=True)
    assert ares.verdict == aora.verdict == "not-exists"

    cls = classify_arrangement(sp, one_line, t=1, scope="touching",
                               convention="nontrivial")
    assert cls.category == "blocking-arrangement"
    assert cls.minimal is True
    assert len(one_line.forms) == 1
    assert time.monotonic() - start < 10.0


def test_minimum_equals_flat_of_level_dimension():
    start = time.monotonic()
    for n, q, t in ((2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 2, 2), (3, 3, 1)):
        sp = space(PROJECTIVE, n, q)
        inst = build_instance(sp, arrangement_make(sp, []), t, "contained")
        res = min_blocking_set(inst)
        expect = (q ** (t + 1) - 1) // (q - 1)
        assert res.size == expect
        fl = span(sp, res.witness)
        assert fl.d == t
        assert fl.points == res.witness  # the witness is exactly a t-flat
    assert time.monotonic() - start < 60.0


def test_larger_plane_minima():
    start = time.monotonic()
    sp4 = space(PROJECTIVE, 2, 4)
    inst4 = build_instance(sp4, arrangement_make(sp4, []), 1, "contained")
    res4 = min_blocking_set(inst4, require_nontrivial=True)
    assert (res4.verdict, res4.size) == ("exists", 7)
    ora4 = exhaustive_oracle(inst4, require_nontrivial=True, size_cap=7)
    assert (ora4.verdict, ora4.size) == ("exists", 7)
    wit = set(res4.witness)
    for tr in inst4.family:
        assert len(wit & set(tr)) in (1, 3)  # subplane intersection pattern

    sp5 = space(PROJECTIVE, 2, 5)
    inst5 = build_instance(sp5, arrangement_make(sp5, []), 1, "contained")
    res5 = min_blocking_set(inst5, require_nontrivial=True)
    assert (res5.verdict, res5.size) == ("exists", 9)

    sp7 = space(PROJECTIVE, 2, 7)
    inst7 = build_instance(sp7, arrangement_make(sp7, []), 1, "contained")
    res7 = min_blocking_set(inst7, require_nontrivial=True, size_cap=14)
    assert (res7.verdict, res7.size) == ("exists", 12)
    assert is_blocking(inst7, res7.witness)
    assert time.monotonic() - start < 300.0


# Blocking the hyperplanes of AG(n,q) takes n(q-1)+1 points (Jamison 1977;
# Brouwer & Schrijver 1978).  Without orbital branching these three ran
# past a minute (AG(3,4) took 704 s).
@pytest.mark.parametrize("n,q", [(2, 7), (3, 4), (4, 3)])
def test_affine_hyperplane_blocking_known_answers(n, q):
    start = time.monotonic()
    sp = space(AFFINE, n, q)
    inst = build_instance(sp, arrangement_make(sp, []), 1, "contained")
    res = min_blocking_set(inst, time_budget=30.0)
    assert (res.verdict, res.size) == ("exists", n * (q - 1) + 1)
    assert is_blocking(inst, res.witness) and is_minimal(inst, res.witness)
    assert res.stats["symmetry"]["skipped"] > 0
    assert time.monotonic() - start < 30.0


def test_pg28_nontrivial_minimum():
    # the smallest nontrivial blocking set of PG(2,8) has 13 points
    # (Hirschfeld, Projective Geometries over Finite Fields, 2nd ed., 1998);
    # without orbital branching the capped search timed out at 60 s
    start = time.monotonic()
    sp = space(PROJECTIVE, 2, 8)
    inst = build_instance(sp, arrangement_make(sp, []), 1, "contained")
    res = min_blocking_set(inst, require_nontrivial=True, size_cap=16,
                           time_budget=30.0)
    assert (res.verdict, res.size) == ("exists", 13)
    assert is_blocking(inst, res.witness) and is_nontrivial(inst, res.witness)
    assert time.monotonic() - start < 30.0


def test_pg29_nontrivial_minimum():
    # a nontrivial blocking set of PG(2,q) has at least q + sqrt(q) + 1
    # points, with equality exactly for a Baer subplane (Bruen, "Baer
    # subplanes and blocking sets", Bull. AMS 76, 1970): 13 for q = 9
    start = time.monotonic()
    sp = space(PROJECTIVE, 2, 9)
    inst = build_instance(sp, arrangement_make(sp, []), 1, "contained")
    res = min_blocking_set(inst, require_nontrivial=True, time_budget=30.0)
    assert (res.verdict, res.size) == ("exists", 13)
    assert is_blocking(inst, res.witness) and is_nontrivial(inst, res.witness)
    wit = set(res.witness)
    for tr in inst.family:
        assert len(wit & set(tr)) in (1, 4)  # Baer subplane pattern
    assert time.monotonic() - start < 30.0


def test_braid_ag35_touching_plain_minimum():
    # the lines of AG(3,5) that meet the braid complement (x1, x2, x3
    # pairwise distinct) need 12 points to block; the search takes about
    # 182,000 nodes, 823,575 without the orbit rule's exclusions
    start = time.monotonic()
    out = braid_existence(AFFINE, 3, 5, t=1, scope="touching",
                          time_budget=30.0)
    res = out.result
    assert (out.verdict, res.size) == ("exists", 12)
    assert is_blocking(out.instance, res.witness)
    assert time.monotonic() - start < 30.0


def _holds(inst, pts, nontrivial):
    """Re-check a witness from the raw traces, bypassing the predicates."""
    s = set(pts)
    if not s <= set(inst.universe):
        return False
    for tr in inst.family:
        if not any(p in s for p in tr):
            return False
    if nontrivial:
        for tr in inst.forbidden:
            if set(tr) <= s:
                return False
    return True


def test_randomized_instances_agree_with_oracle():
    start = time.monotonic()
    rng = random.Random(20260817)
    pool = [space(PROJECTIVE, 2, 2), space(PROJECTIVE, 2, 3),
            space(AFFINE, 2, 3), space(AFFINE, 3, 2),
            space(PROJECTIVE, 3, 2), space(AFFINE, 2, 4)]
    for case in range(200):
        sp = rng.choice(pool)
        t = rng.choice([1] if sp.n == 2 else [1, 2])
        base = build_instance(sp, arrangement_make(sp, []), t, "contained")
        k = rng.randint(1, len(base.family))
        family = tuple(sorted(rng.sample(base.family, k)))
        nontrivial = rng.random() < 0.3
        forbidden = base.forbidden if nontrivial else ()
        inst = BlockingInstance(sp, t, base.universe, family, forbidden)
        cap = rng.randint(2, 5) if rng.random() < 0.3 else None
        if nontrivial and cap is None and sp.npoints > 13:
            cap = 6  # keep the exhaustive side inside its budget
        res = min_blocking_set(inst, require_nontrivial=nontrivial,
                               size_cap=cap)
        ora = exhaustive_oracle(inst, require_nontrivial=nontrivial,
                                size_cap=cap)
        assert res.verdict == ora.verdict, (case, sp, t)
        assert res.size == ora.size, (case, sp, t)
        if res.witness is not None:
            assert _holds(inst, res.witness, nontrivial), (case, sp, t)
            assert _holds(inst, ora.witness, nontrivial), (case, sp, t)
    assert time.monotonic() - start < 120.0


def test_restriction_keeps_blocking_property():
    start = time.monotonic()
    rng = random.Random(1824)
    pool = [space(PROJECTIVE, 3, 2), space(AFFINE, 3, 2),
            space(PROJECTIVE, 3, 3), space(AFFINE, 3, 3),
            space(PROJECTIVE, 2, 3), space(PROJECTIVE, 2, 4)]
    failures = []
    for case in range(100):
        sp = rng.choice(pool)
        t = rng.choice([1, 2]) if sp.n == 3 else 1
        inst = build_instance(sp, arrangement_make(sp, []), t, "contained")
        order = list(inst.universe)
        rng.shuffle(order)
        cand = set()
        for p in order:
            cand.add(p)
            if is_blocking(inst, cand):
                break
        if rng.random() < 0.5:
            cand = set(minimalize(inst, cand))
        dims = [d for d in range(t + 1, sp.n + 1)]
        d = rng.choice(dims)
        flats = enumerate_flats(sp, d)
        fl = rng.choice(flats)
        assert is_blocking(inst, cand)
        try:
            sub = induced_subinstance(inst, fl)
            if not is_blocking(sub, cand & set(fl.points)):
                failures.append((case, sp, t, fl.key()))
        except AssertionError:
            failures.append((case, sp, t, fl.key()))
    assert failures == []
    assert time.monotonic() - start < 120.0


def test_join_across_a_hyperplane():
    start = time.monotonic()
    rng = random.Random(905)
    failures = []
    for case in range(100):
        n, q = rng.choice([(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
        sp = space(PROJECTIVE, n, q)
        t = 2 if (n == 3 and rng.random() < 0.3) else 1
        while True:
            row = tuple(rng.randrange(q) for _ in range(sp.ncoords))
            if any(row):
                break
        arr = arrangement_make(sp, [row])
        form = arr.forms[0]
        hset = set(i for i in range(sp.npoints)
                   if form_value(sp, form, i) == 0)
        inst = build_instance(sp, arr, t, "touching")
        order = list(inst.universe)
        rng.shuffle(order)
        c1 = set()
        for p in order:
            c1.add(p)
            if is_blocking(inst, c1):
                break
        if t == 1:
            k = rng.randint(1, 3)
            c2 = set(rng.sample(sorted(hset), min(k, len(hset))))
        else:
            lines = [fl for fl in enumerate_flats(sp, 1) if hset.issuperset(fl.points)]
            c2 = set(rng.choice(lines).points)
        try:
            full = build_instance(sp, arrangement_make(sp, []), t, "contained")
            if not is_blocking(full, c1 | c2):
                failures.append((case, n, q, t))
        except AssertionError:
            failures.append((case, n, q, t))
    assert failures == []
    assert time.monotonic() - start < 120.0


def test_worker_count_leaves_reports_unchanged(capsys, tmp_path, monkeypatch):
    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        """Counts the tasks the search hands the pool."""
        tasks = 0

        def map(self, fn, payloads, **kwargs):
            payloads = list(payloads)
            CountingPool.tasks += len(payloads)
            return super().map(fn, payloads, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    one_line = tmp_path / "one-line.txt"
    one_line.write_text("projective 2 3\n1 0 0\n")
    two_lines = tmp_path / "two-lines.txt"
    two_lines.write_text("projective 2 7\n1 0 0\n0 1 0\n")
    runs = [
        ("search", str(one_line), "--t", "1", "--scope", "touching",
         "--convention", "nontrivial"),
        ("search", "--space", "pg", "--n", "2", "--q", "3",
         "--t", "1", "--convention", "nontrivial"),
        ("search", "--space", "pg", "--n", "3", "--q", "2", "--t", "2"),
        ("search", "--space", "pg", "--n", "2", "--q", "4",
         "--t", "1", "--convention", "nontrivial"),
        ("search", "--space", "pg", "--n", "2", "--q", "5",
         "--t", "1", "--convention", "nontrivial"),
        ("search", "--space", "pg", "--n", "2", "--q", "7",
         "--t", "1", "--convention", "nontrivial", "--cap", "14"),
        ("search", str(two_lines), "--t", "1", "--scope", "touching"),
    ]
    handed = {}  # pool tasks at two workers, per run
    for argv in runs:
        outs = []
        for workers in ("1", "2", "8"):
            CountingPool.tasks = 0
            code = main(["--no-meta", *argv, "--workers", workers])
            assert code == 0
            outs.append(capsys.readouterr().out)
            if workers == "2":
                handed[argv] = CountingPool.tasks
        assert outs[0] == outs[1] == outs[2], argv
    # at two workers both PG(2,7) searches hand the pool tasks, so the
    # comparison covers reports whose bound phase ran in worker processes
    assert handed[runs[-2]] > 0 and handed[runs[-1]] > 0
