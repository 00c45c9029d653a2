"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

The MILP test confirms every class answer in the answer table with
scipy.optimize.milp (HiGHS), an exact solver independent of blocksets'
search; it is skipped when scipy is missing, since scipy is not a
dependency of the package.
"""

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import ANSWERS, make_cases  # noqa: E402

MODULES = run.load_modules()


def _bench(tmp_path, cases):
    return run.Bench("bound", 0, cases, str(tmp_path), MODULES)


def test_same_seed_same_inputs():
    for w in ("bound", "build", "small"):
        a, b = make_cases(w, 3), make_cases(w, 3)
        assert [(c.name, c.forms, c.argv("x")) for c in a] == \
            [(c.name, c.forms, c.argv("x")) for c in b]
    assert make_cases("bound", 3)[0].forms != make_cases("bound", 4)[0].forms


def test_every_answered_row_has_provenance():
    for w in ("bound", "build"):
        for c in make_cases(w, 0):
            assert c.name in ANSWERS and c.provenance and c.expect is not None


def test_planted_wrong_answer_counts_as_failure(tmp_path):
    cases = [c for c in make_cases("bound", 0)
             if c.name in ("ag2-5.empty.plain", "pg4-2.empty.nontrivial")]
    cases[0].expect = (cases[0].expect[0], cases[0].expect[1] + 1)
    bench = _bench(tmp_path, cases)
    bench.prepare()
    bench.run_passes(0, trace=False)
    assert bench.attempted == 2
    assert len(bench.failures) == 1
    assert "expected" in list(bench.failures.values())[0]


def test_pooled_reports_match_serial(tmp_path):
    cases = [c for c in make_cases("bound", 0)
             if c.name in ("ag2-5.empty.plain", "pg4-2.empty.nontrivial")]
    bench = _bench(tmp_path, cases)
    bench.prepare()
    bench.run_passes(0, trace=False)
    bench.pooled_reference()
    assert bench.attempted == 4
    assert not bench.failures


def test_bad_witness_is_caught(tmp_path):
    case = [c for c in make_cases("bound", 0) if c.name == "ag2-5.empty.plain"][0]
    bench = _bench(tmp_path, [case])
    bench.prepare()
    inst = bench.insts[0]
    sp = inst.space
    pts = [",".join(map(str, sp.points[p])) for p in inst.universe]
    assert "minimal" in bench.check_witness(case, inst, pts, len(pts))
    assert "block" in bench.check_witness(case, inst, pts[:3], 3)


def test_traced_counts_repeat(tmp_path):
    cases = [c for c in make_cases("small", 0)][:20]
    bench = _bench(tmp_path, cases)
    bench.prepare()
    bench.tracer = run.Tracer()
    bench.run_passes(0, trace=True)
    assert not bench.failures
    assert len(bench.pass_counts) == 2
    assert bench.pass_counts[0][1] == bench.pass_counts[1][1]


def test_stored_counts_are_keyed_by_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path / "out"))
    cases = [c for c in make_cases("small", 0)][:5]
    bench = _bench(tmp_path, cases)
    bench.prepare()
    bench.tracer = run.Tracer()
    bench.run_passes(0, trace=True)
    bench.counts_file_check(0)
    assert not bench.failures
    # a changed program may change the counts: it gets a record of its own
    bench.program = "0" * 16
    bench.counts_file_check(1)
    assert not bench.failures
    bench.counts_file_check(2)
    assert len(bench.failures) == 1


def test_proof_and_pool_probes(tmp_path):
    cases = [c for c in make_cases("bound", 0)
             if c.name in ("ag2-5.empty.plain", "pg4-2.empty.nontrivial")]
    bench = _bench(tmp_path, cases)
    bench.prepare()
    bench.run_passes(0, trace=False)
    spans, nodes = bench.probe_proof()
    assert len(spans) == 2 and nodes > 0
    serial_s, pool_s, serial_n, pool_n = bench.probe_pool()
    assert serial_n > 0 and pool_n > 0
    assert not bench.failures


def test_scale_uses_the_median_sample():
    speed = run.reference.Speedometer()
    nominal = run.reference.NOMINAL_S
    speed.samples = [(0.0, nominal), (0.1, nominal), (0.2, 50 * nominal)]
    assert speed.scale(0.0, 0.2) == 1.0


def test_instance_quantiles_do_not_move_with_pass_count():
    times = [0.1, 0.2, 0.3, 0.4, 0.5, 1.0, 2.0]
    three = {i: [t] * 3 for i, t in enumerate(times)}
    four = {i: [t] * 4 for i, t in enumerate(times)}
    assert run.instance_quantiles(three) == run.instance_quantiles(four)
    p50, p90 = run.instance_quantiles(three)
    assert p50 == 0.4 and 1.0 < p90 < 2.0


def test_refuses_to_run_without_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bound", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _milp_minimum(inst, nontrivial):
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    pos = {p: i for i, p in enumerate(inst.universe)}
    rows = [tr for tr in inst.family]
    lb = [1] * len(rows)
    ub = [np.inf] * len(rows)
    if nontrivial:
        rows += list(inst.forbidden)
        lb += [-np.inf] * len(inst.forbidden)
        ub += [len(tr) - 1 for tr in inst.forbidden]
    a = sparse.lil_matrix((len(rows), len(inst.universe)))
    for r, tr in enumerate(rows):
        for p in tr:
            a[r, pos[p]] = 1
    res = optimize.milp(
        np.ones(len(inst.universe)),
        constraints=[optimize.LinearConstraint(a.tocsr(), lb, ub)],
        integrality=np.ones(len(inst.universe)),
        bounds=optimize.Bounds(0, 1))
    assert res.status == 0, res.message
    return round(res.fun)


@pytest.mark.parametrize("seed", [0, 1])
def test_class_answers_by_milp(tmp_path, seed):
    """Each answered row's size, confirmed by an exact MILP; vacuous rows
    have an empty family.  PG(3,9) is left to Bose-Burton: its 820-point
    MILP is slow and the theorem fixes the answer."""
    pytest.importorskip("scipy.optimize")
    cases = make_cases("bound", seed) + make_cases("build", seed)
    bench = _bench(tmp_path, cases)
    for case in cases:
        if case.name == "pg3-9.empty.t2.plain":
            continue
        inst = bench.instance(case)
        verdict, size = case.expect
        if verdict == "vacuous":
            assert not inst.family, case.name
            continue
        assert _milp_minimum(inst, case.convention == "nontrivial") == size, case.name
