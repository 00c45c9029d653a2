#!/usr/bin/env python3
"""The blocksets benchmark.

    python3 bench/run.py --workload bound --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: it imports the package from
./src and from nowhere else, and exits with code 2, printing no result, when
that source is missing.  Workloads (workloads.py, BENCHMARK.json): bound,
build and small.  Each is a closed loop from this one process: a pass runs
every instance of the workload's list through in-process
`blocksets.cli.main([... "--no-meta" ...])`, the path scripts/ use, and
checks each report: exit code, verdict and size against the answer table or
the oracle, the witness re-checked with is_blocking, is_minimal and, under
the nontrivial convention, is_nontrivial, bytes equal to the first pass's,
and the whole call under the per-instance ceiling.  Passes repeat until the
next one would end past --seconds.  A failed check counts in `failed`; the
run goes on.  Under bound every instance then runs once more, untimed, at
--workers 2, and its report must match the serial one byte for byte.

--trace 0 prints the end-to-end metrics:
  wall_s       median seconds of one pass (instances and their checks)
  solve_s.p50  quantiles over the workload's instances of each instance's
  solve_s.p90  median seconds of the cli.main call over all passes; the
               sample count (instances x passes) is printed above the result
  setup_s      median, over fresh interpreters, of importing blocksets and
               building the field and point tables of the workload's spaces
  peak_rss_mb  peak resident memory of this process
Timed passes run on one CPU while a background thread samples the host's
speed, and every time is scaled to the nominal speed (reference.py): the
hosts this runs on drift by tens of percent within minutes.  The unscaled
times are printed and kept in result.json.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics: span totals per pass around calls into gf, geometry, arrangement,
blocking, solver, braid and cli (spans.py), counts recorded at the same
boundaries, probes of the table builds, of the optimality proof and (bound)
of the process pool, and the tracing overhead, traced minus untraced pass
seconds.  Times are scaled as above, except the pool probe, which needs both
CPUs and reports ratios.  A layer that a workload never calls reports 0.

Exact counts (nodes, traces, oracle subsets, proof nodes) must repeat
between traced passes, and between traced runs of the same inputs and the
same program source in one checkout.  The inputs, the seed, every metric with its quartiles and sample
count, the failures and the environment (nproc, Python, load average) go to
.bench_out/<workload>-seed<seed>-trace<t>/, so any run can be replayed.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import reference
from spans import Tracer
from workloads import CEILING_S, POOL_WORKERS, POOLED, WORKLOADS, make_cases

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPS = 9    # fresh interpreters timed for setup_s
PROBE_REPS = 3    # repetitions of the table probes under --trace 1

SETUP_CODE = r"""
import statistics, sys, time
sys.path.insert(0, sys.argv[2])
import reference
refs = [reference.measure()[1] for _ in range(5)]
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import blocksets
from blocksets.geometry import space
for spec in sys.argv[3:]:
    kind, n, q = spec.split(",")
    sp = space(kind, int(n), int(q))
    sp.points
    sp.point_index
setup = time.perf_counter() - t0
refs += [reference.measure()[1] for _ in range(5)]
print(repr(setup), repr(statistics.median(refs)))
"""


def program_digest():
    """Digest of the package's source, so stored counts are compared only
    between runs of the same program."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "blocksets")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read() + b"\0")
    return h.hexdigest()[:16]


def quartiles(values):
    """(q1, median, q3); a single value stands for all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def instance_quantiles(solve):
    """(p50, p90) over instances of each instance's median seconds.  Taking
    the quantile over a fixed list of per-instance medians keeps its rank
    from moving with the number of passes that fit into the run."""
    meds = [statistics.median(v) for v in solve.values()]
    if len(meds) < 2:
        return meds[0], meds[0]
    return (statistics.median(meds),
            statistics.quantiles(meds, n=10, method="inclusive")[8])


class Bench:
    """One run: the instance list, its inputs on disk, the timings, the
    failures and the traced counts."""

    def __init__(self, workload, seed, cases, outdir, modules):
        self.workload = workload
        self.cases = cases
        self.m = modules
        self.ceiling = CEILING_S
        self.failures = {}
        self.attempted = 0
        self.reports = {}
        self.records = []     # (pass_no, traced, case, start, cli end, end)
        self.speed = None     # reference.Speedometer of the passes
        self.pass_counts = []
        self.per_instance = {}   # case name -> median cli.main seconds
        self.tracer = None
        self.active = False   # spans only during traced passes
        os.makedirs(os.path.join(outdir, "inputs"), exist_ok=True)
        self.paths = []
        for i, case in enumerate(cases):
            path = os.path.join(outdir, "inputs", "%03d.txt" % i)
            with open(path, "w") as fh:
                fh.write(case.arrangement_text())
            self.paths.append(path)
        manifest = {
            "workload": workload, "seed": seed,
            "replay": "PYTHONPATH=src python3 -m blocksets ARGV",
            "cases": [{"name": c.name,
                       "argv": c.argv(os.path.relpath(p, ROOT)),
                       "expect": c.expect, "provenance": c.provenance}
                      for c, p in zip(cases, self.paths)]}
        with open(os.path.join(outdir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=1)
        self.digest = hashlib.sha256(json.dumps(
            [c.argv("-") + [c.arrangement_text()] for c in cases]
        ).encode()).hexdigest()[:16]
        self.program = program_digest()

    # -- set-up (untimed) --------------------------------------------------

    def spaces(self):
        return sorted(set(c.space for c in self.cases))

    def prepare(self):
        """Fill the table caches and build each instance the checks need."""
        geometry = self.m["geometry"]
        for kind, n, q in self.spaces():
            sp = geometry.space(kind, n, q)
            sp.points
            sp.point_index
        self.insts = {}
        for i, case in enumerate(self.cases):
            if case.expect is not None and case.expect[0] == "vacuous":
                continue  # the answer table decides; no witness to check
            self.insts[i] = self.instance(case)

    def instance(self, case):
        m = self.m
        kind, n, q = case.space
        sp = m["geometry"].space(kind, n, q)
        if case.command == "braid":
            arr = m["braid"].braid_arrangement(sp)
        else:
            arr = m["arrangement"].arrangement_make(sp, case.forms)
        return m["blocking"].build_instance(sp, arr, case.t, case.scope)

    def measure_setup(self):
        """Set-up seconds, each in a fresh interpreter: (scaled, raw)."""
        specs = ["%s,%d,%d" % s for s in self.spaces()]
        scaled, raw = [], []
        for _ in range(SETUP_REPS):
            out = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, SRC, HERE] + specs, cwd=ROOT,
                capture_output=True, text=True, timeout=120, check=True)
            setup, ref = map(float, out.stdout.split())
            scaled.append(setup * reference.NOMINAL_S / ref)
            raw.append(setup)
        return scaled, raw

    # -- one instance ------------------------------------------------------

    def fail(self, key, reason):
        self.failures[key] = reason

    def run_case(self, key, i, workers=1):
        """Run one instance through cli.main and check it; returns (start,
        end of cli.main, end of the checks, report text)."""
        case = self.cases[i]
        cli = self.m["cli"]
        argv = case.argv(self.paths[i], workers)
        tracer = self.tracer if self.active else None
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        text = ""
        t0 = perf_counter()
        t1 = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    tracer.case = key
                    with tracer.span("cli.main"):
                        rc = cli.main(argv)
            t1 = perf_counter()
            text = out.getvalue()
            problem = self.check(case, self.insts.get(i), rc, text, err.getvalue())
        except (Exception, SystemExit):
            t1 = t1 or perf_counter()
            problem = traceback.format_exc(limit=-3)
        total = perf_counter() - t0
        if problem is None and total > self.ceiling:
            problem = "took %.1f s, over the %.0f s ceiling" % (total, self.ceiling)
        if problem is None and workers == 1:
            first = self.reports.setdefault(i, text)
            if text != first:
                problem = "report differs from the first pass"
        if problem is not None:
            self.fail(key, "%s: %s" % (case.name, problem))
        return t0, t1, t0 + total, text

    def check(self, case, inst, rc, text, err):
        if rc != 0:
            return "exit code %d %s" % (rc, err.strip())
        rep = json.loads(text)
        res = rep.get("result")
        if res is None:
            return "no result block"
        verdict, size, witness = res["verdict"], res["size"], res["witness"]
        if case.command == "braid" and rep["verdict"] != verdict:
            return "braid verdict %s vs result %s" % (rep["verdict"], verdict)
        if case.expect is not None and (verdict, size) != tuple(case.expect):
            return "answer %s/%s, expected %s/%s" % ((verdict, size) + tuple(case.expect))
        if case.oracle:
            orc = rep.get("oracle") or {}
            if (rep.get("oracle_agrees") is not True
                    or (orc.get("verdict"), orc.get("size")) != (verdict, size)):
                return "oracle disagrees: %s" % (orc,)
        if verdict == "vacuous":
            return None if witness == [] else "vacuous with a witness"
        if verdict != "exists":
            return None
        span = (self.tracer.span("blocking.verify") if self.active
                else contextlib.nullcontext())
        with span:
            return self.check_witness(case, inst, witness, size)

    def check_witness(self, case, inst, witness, size):
        blocking = self.m["blocking"]
        sp = inst.space
        pts = [sp.index_of(tuple(int(x) for x in s.split(","))) for s in witness]
        if len(set(pts)) != size:
            return "witness has %d points, size says %d" % (len(set(pts)), size)
        if not blocking.is_blocking(inst, pts):
            return "witness does not block"
        if not blocking.is_minimal(inst, pts):
            return "witness is not minimal"
        if case.convention == "nontrivial" and not blocking.is_nontrivial(inst, pts):
            return "witness contains a forbidden trace"
        return None

    # -- passes ------------------------------------------------------------

    def run_pass(self, pass_no, traced):
        for i in range(len(self.cases)):
            t0, t1, t2, _ = self.run_case((pass_no, i), i)
            self.records.append((pass_no, traced, i, t0, t1, t2))
        if not traced:
            return
        per_case = {}
        for case, name, value in self.tracer.counts:
            if case is not None and case[0] == pass_no:
                per_case.setdefault(case[1], {})
                per_case[case[1]][name] = per_case[case[1]].get(name, 0) + value
        if self.pass_counts and per_case != self.pass_counts[0][1]:
            for i in range(len(self.cases)):
                if per_case.get(i) != self.pass_counts[0][1].get(i):
                    self.fail((pass_no, i), "%s: counts differ between passes"
                              % self.cases[i].name)
        self.pass_counts.append((pass_no, per_case))

    def run_passes(self, seconds, trace):
        """Passes until the next one would end past `seconds`; under trace,
        untraced and traced passes alternate, at least two of each."""
        start = perf_counter()
        pass_no = 0
        done = {False: 0, True: 0}
        while True:
            traced = trace and pass_no % 2 == 1
            t0 = perf_counter()
            if traced:
                self.active = True
                with self.tracer.installed(self.trace_modules(), self.trace_targets()):
                    self.run_pass(pass_no, True)
                self.active = False
                self.tracer.case = None
            else:
                self.run_pass(pass_no, False)
            pass_no += 1
            done[traced] += 1
            if trace and min(done.values()) < 2:
                continue
            if 2 * perf_counter() - start - t0 > seconds:
                break

    def timings(self, traced, scaled=True):
        """Seconds of each pass, and of each cli.main call by instance;
        scaled to the reference speed unless `scaled` is false."""
        walls, solve = {}, {}
        for pass_no, tr, i, t0, t1, t2 in self.records:
            if tr == traced:
                f = self.speed.scale(t0, t2) if scaled else 1.0
                walls[pass_no] = walls.get(pass_no, 0.0) + (t2 - t0) * f
                solve.setdefault(i, []).append((t1 - t0) * f)
        return list(walls.values()), solve

    def pooled_reference(self):
        """Reports at --workers 2 must be byte-identical to serial ones."""
        for i, case in enumerate(self.cases):
            text = self.run_case(("pooled", i), i, workers=POOL_WORKERS)[3]
            if text != self.reports.get(i):
                self.fail(("pooled", i), "%s: --workers %d report differs "
                          "from the serial one" % (case.name, POOL_WORKERS))

    # -- tracing -----------------------------------------------------------

    def trace_modules(self):
        return [self.m[k] for k in ("cli", "blocking", "braid", "arrangement", "solver")]

    def trace_targets(self):
        m = self.m

        def on_build(tr, args, inst):
            tr.count("arrangement.universe_pts", len(inst.universe))
            tr.count("arrangement.family_traces", len(inst.family))
            tr.count("arrangement.forbidden_traces", len(inst.forbidden))

        def on_solve(tr, args, out):
            tr.count("solver.nodes", out[2])
            tr.count("solver.forbidden_received", len(args[2]))

        def on_oracle(tr, args, res):
            tr.count("solver.oracle_subsets", res.nodes)

        return [
            (m["blocking"], "build_instance", Tracer.build_label, on_build),
            (m["arrangement"], "complement", "arrangement.complement", None),
            (m["arrangement"], "flats_in_complement", Tracer.trace_kind, None),
            (m["arrangement"], "touching_traces", Tracer.trace_kind, None),
            (m["solver"], "solve_masks", "solver.solve_masks", on_solve),
            (m["blocking"], "exhaustive_oracle", "blocking.oracle", on_oracle),
            (m["braid"], "braid_existence", "braid.existence", None),
            (m["braid"], "braid_lines", "braid.lines", None),
        ]

    def probe_tables(self):
        """First-time cost of the field tables and point tables, bypassing
        the package's caches: (start, end, field seconds, point seconds) of
        each repetition."""
        gf, geometry = self.m["gf"], self.m["geometry"]
        reps = []
        for _ in range(PROBE_REPS):
            start = perf_counter()
            tf = tp = 0.0
            for q in sorted(set(s[2] for s in self.spaces())):
                t0 = perf_counter()
                gf.field_make.__wrapped__(q)
                tf += perf_counter() - t0
            for kind, n, q in self.spaces():
                t0 = perf_counter()
                sp = geometry.Space(kind, n, gf.field_make(q))
                sp.points
                sp.point_index
                tp += perf_counter() - t0
            reps.append((start, perf_counter(), tf, tp))
        return reps

    def searched(self):
        """(index, case, size) of search instances with a nonempty answer."""
        out = []
        for i, case in enumerate(self.cases):
            if case.command != "search" or i not in self.reports:
                continue
            try:
                res = json.loads(self.reports[i])["result"]
            except (ValueError, KeyError):
                continue
            if res["verdict"] == "exists" and res["size"] >= 1:
                out.append((i, case, res["size"]))
        return out

    def probe(self, key, i, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.fail(key, "%s: %s" % (self.cases[i].name, traceback.format_exc(limit=-3)))
            return None

    def probe_proof(self):
        """The optimality proof alone: the search capped at s* - 1, through
        blocking.min_blocking_set.  Returns the (start, end) of each proof
        and the nodes of all."""
        blocking = self.m["blocking"]
        spans, nodes = [], 0
        for i, case, size in self.searched():
            def proof(i=i, case=case, size=size):
                t0 = perf_counter()
                res = blocking.min_blocking_set(
                    self.insts[i], case.convention == "nontrivial",
                    size_cap=size - 1, time_budget=self.ceiling)
                return res, (t0, perf_counter())
            out = self.probe(("proof", i), i, proof)
            if out is None:
                continue
            res, interval = out
            if res.verdict != "not-exists":
                self.fail(("proof", i), "%s: %s with size %s under the cap %d"
                          % (case.name, res.verdict, res.size, size - 1))
            nodes += res.nodes
            spans.append(interval)
        return spans, nodes

    def probe_pool(self):
        """Serial against --workers 2 on the same instances."""
        blocking = self.m["blocking"]
        serial_s = pool_s = 0.0
        serial_n = pool_n = 0
        for i, case, _size in self.searched():
            def both(i=i, case=case):
                nontrivial = case.convention == "nontrivial"
                t0 = perf_counter()
                a = blocking.min_blocking_set(self.insts[i], nontrivial,
                                              time_budget=self.ceiling)
                t1 = perf_counter()
                b = blocking.min_blocking_set(self.insts[i], nontrivial,
                                              time_budget=self.ceiling,
                                              workers=POOL_WORKERS)
                return a, b, t1 - t0, perf_counter() - t1
            out = self.probe(("pool", i), i, both)
            if out is None:
                continue
            a, b, ta, tb = out
            if (a.verdict, a.size, a.witness) != (b.verdict, b.size, b.witness):
                self.fail(("pool", i), "%s: serial and pooled answers differ"
                          % case.name)
            serial_s += ta
            pool_s += tb
            serial_n += a.nodes
            pool_n += b.nodes
        return serial_s, pool_s, serial_n, pool_n

    def counts_file_check(self, proof_nodes):
        """Exact counts must repeat across traced runs of the same inputs and
        the same program source."""
        first = self.pass_counts[0][1]
        record = {"cases": {str(i): v for i, v in sorted(first.items())},
                  "solver.proof_nodes": proof_nodes}
        path = os.path.join(OUT, "counts", "%s-%s-%s.json"
                            % (self.workload, self.digest, self.program))
        if os.path.exists(path):
            with open(path) as fh:
                old = json.load(fh)
            self.attempted += 1
            if old != record:
                self.fail(("counts-file", 0), "exact counts differ from an "
                          "earlier traced run of the same inputs and program "
                          "(%s)" % path)
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)


def end_to_end(bench, seconds):
    with reference.Speedometer() as bench.speed:
        bench.run_passes(seconds, trace=False)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if bench.workload in POOLED:
        bench.pooled_reference()
    setup, setup_raw = bench.measure_setup()
    walls, solve = bench.timings(False)
    walls_raw, solve_raw = bench.timings(False, scaled=False)
    p50, p90 = instance_quantiles(solve)
    p50_raw, p90_raw = instance_quantiles(solve_raw)
    bench.per_instance = {bench.cases[i].name: statistics.median(v)
                          for i, v in solve.items()}
    samples = {"wall_s": walls, "solve_s": [x for v in solve.values() for x in v],
               "setup_s": setup, "raw.wall_s": walls_raw,
               "raw.solve_s": [x for v in solve_raw.values() for x in v],
               "raw.setup_s": setup_raw,
               "reference_s": [d for _, d in bench.speed.samples]}
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "solve_s.p50": (p50, "s"),
        "solve_s.p90": (p90, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    unscaled = {
        "wall_s": statistics.median(walls_raw),
        "solve_s.p50": p50_raw,
        "solve_s.p90": p90_raw,
        "setup_s": statistics.median(setup_raw),
    }
    return metrics, samples, unscaled


def per_layer(bench, seconds):
    with reference.Speedometer() as bench.speed:
        bench.run_passes(seconds, trace=True)
        tables = bench.probe_tables()
        proofs, proof_nodes = bench.probe_proof()
    scale = bench.speed.scale
    field_s = statistics.median(tf * scale(a, b) for a, b, tf, _ in tables)
    points_s = statistics.median(tp * scale(a, b) for a, b, _, tp in tables)
    proof_s = sum((b - a) * scale(a, b) for a, b in proofs)
    # the pool needs both CPUs, so it runs unpinned; its metrics are ratios
    pool = bench.probe_pool() if bench.workload in POOLED else None
    tr = bench.tracer
    traced = [p for p, _ in bench.pass_counts]
    secs = []
    for p in traced:
        s, self_main = tr.totals(lambda c, p=p: c is not None and c[0] == p, scale)
        s["cli.overhead"] = self_main
        secs.append(s)
    counts = tr.count_totals(lambda c: c is not None and c[0] == traced[0])
    bench.counts_file_check(proof_nodes)

    def span(name):
        return statistics.median(s.get(name, 0.0) for s in secs)

    solve_s = span("solver.solve_masks")
    nodes = counts.get("solver.nodes", 0)
    built = counts.get("arrangement.forbidden_traces", 0)
    walls = bench.timings(False)[0]
    walls_traced = bench.timings(True)[0]
    wall_plain = statistics.median(walls)
    wall_traced = statistics.median(walls_traced)
    metrics = {
        "gf.field_make_s": (field_s, "s"),
        "geometry.points_s": (points_s, "s"),
        "arrangement.complement_s": (span("arrangement.complement"), "s"),
        "arrangement.family_traces_s": (span("arrangement.family_traces"), "s"),
        "arrangement.forbidden_traces_s": (span("arrangement.forbidden_traces"), "s"),
        "blocking.build_instance_s": (span("blocking.build_instance"), "s"),
        "arrangement.universe_pts": (counts.get("arrangement.universe_pts", 0), "count"),
        "arrangement.family_traces": (counts.get("arrangement.family_traces", 0), "count"),
        "arrangement.forbidden_traces": (built, "count"),
        "blocking.forbidden_used_ratio": (
            counts.get("solver.forbidden_received", 0) / built if built else 0.0,
            "ratio"),
        "solver.solve_masks_s": (solve_s, "s"),
        "solver.nodes": (nodes, "count"),
        "solver.nodes_per_s": (nodes / solve_s if solve_s else 0.0, "1/s"),
        "solver.proof_s": (proof_s, "s"),
        "solver.proof_nodes": (proof_nodes, "count"),
        "solver.oracle_subsets": (counts.get("solver.oracle_subsets", 0), "count"),
        "blocking.oracle_s": (span("blocking.oracle"), "s"),
        "cli.main_s": (span("cli.main"), "s"),
        "cli.overhead_s": (span("cli.overhead"), "s"),
        "blocking.verify_s": (span("blocking.verify"), "s"),
        "braid.existence_s": (span("braid.existence"), "s"),
        "braid.lines_s": (span("braid.lines"), "s"),
        "solver.pool_speedup": (pool[0] / pool[1] if pool and pool[1] else 0.0, "ratio"),
        "solver.parallel_nodes_ratio": (
            pool[2] / pool[3] if pool and pool[3] else 0.0, "ratio"),
        "trace.wall_s": (wall_traced, "s"),
        "trace.overhead_s": (wall_traced - wall_plain, "s"),
    }
    samples = {"wall_s": walls, "trace.wall_s": walls_traced}
    return metrics, samples, {}


def load_modules():
    """The package's modules, imported from ./src; None when that fails."""
    sys.path.insert(0, SRC)
    import blocksets
    from blocksets import arrangement, blocking, braid, cli, geometry, gf, solver
    if os.path.dirname(os.path.abspath(blocksets.__file__)) != os.path.join(SRC, "blocksets"):
        print("bench: blocksets imported from %s, not %s" % (blocksets.__file__, SRC),
              file=sys.stderr)
        return None
    return {"arrangement": arrangement, "blocking": blocking, "braid": braid,
            "cli": cli, "geometry": geometry, "gf": gf, "solver": solver}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "blocksets", "__init__.py")):
        print("bench: no blocksets source under %s" % SRC, file=sys.stderr)
        return 2
    modules = load_modules()
    if modules is None:
        return 2
    if args.workload not in WORKLOADS:
        print("bench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    outdir = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    bench = Bench(args.workload, args.seed, make_cases(args.workload, args.seed),
                  outdir, modules)
    bench.prepare()
    if args.trace:
        bench.tracer = Tracer()
        metrics, samples, unscaled = per_layer(bench, args.seconds)
    else:
        metrics, samples, unscaled = end_to_end(bench, args.seconds)

    failed = len(bench.failures)
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "platform": platform.platform(), "loadavg_before": load_before,
           "loadavg_after": os.getloadavg()}
    spread = {k: dict(zip(("q1", "median", "q3"), quartiles(v)), n=len(v))
              for k, v in samples.items() if v}
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "seconds": args.seconds, "inputs_digest": bench.digest,
               "program_digest": bench.program,
               "environment": env, "attempted": bench.attempted, "failed": failed,
               "fail_frac": failed / bench.attempted,
               "failures": {str(k): v for k, v in bench.failures.items()},
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
               "unscaled": unscaled, "samples": spread,
               "instance_median_s": bench.per_instance}
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    if bench.tracer is not None:
        with open(os.path.join(outdir, "spans.json"), "w") as fh:
            json.dump({"fields": ["name", "case", "parent", "start", "end"],
                       "spans": bench.tracer.spans}, fh)

    for reason in list(bench.failures.values())[:10]:
        print("FAILED %s" % reason.strip().splitlines()[-1])
    print("bench %s seed=%d trace=%d nproc=%s python=%s load=%.2f/%.2f "
          "fail_frac=%.4g (%d/%d)" % (
              args.workload, args.seed, args.trace, env["nproc"], env["python"],
              load_before[0], env["loadavg_after"][0], summary["fail_frac"],
              failed, bench.attempted))
    for k, s in spread.items():
        print("  %-14s median %.6g  q1 %.6g  q3 %.6g  n=%d"
              % (k, s["median"], s["q1"], s["q3"], s["n"]))
    for k, (v, u) in metrics.items():
        print("  %-32s %.6g %s%s" % (k, v, u, "   (unscaled %.6g)" % unscaled[k]
                                      if k in unscaled else ""))
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": summary["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
