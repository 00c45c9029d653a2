"""Exercises the command line surface in process via main(argv)."""

import ast
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import blocksets
from blocksets import cli, solver, symmetry
from blocksets.braid import braid_existence
from blocksets.cli import main
from blocksets.geometry import AFFINE


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    return json.loads(out)


def test_report_envelope(capsys):
    code, out, _ = run(capsys, "space", "pg", "2", "3")
    assert code == 0
    assert out.count("\n") == 1 and out.endswith("\n")
    rep = json.loads(out)
    assert rep["command"] == "space"
    assert "version" in rep and "generated" in rep
    assert rep["space"] == {"kind": "projective", "n": 2, "q": 3,
                            "points": 13, "modulus": "x"}
    assert rep["flat_counts"] == {"0": 13, "1": 13, "2": 1}
    assert out == json.dumps(rep, sort_keys=True, separators=(",", ":")) + "\n"


def test_no_meta_is_reproducible(capsys):
    argv = ("--no-meta", "search", "--space", "pg", "--n", "2", "--q", "3",
            "--t", "1", "--convention", "nontrivial")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    rep = json.loads(first)
    assert "generated" not in rep and "stats" not in rep
    assert rep["result"]["size"] == 6


def test_symmetry_stats_only_when_the_probe_does_not_settle(capsys):
    small = ("search", "--space", "pg", "--n", "2", "--q", "3", "--t", "1")
    rep = run_json(capsys, *small)
    assert set(rep["stats"]) == {"nodes", "closed_children", "pool_tasks",
                                 "elapsed", "witness_nodes"}
    big = ("search", "--space", "pg", "--n", "2", "--q", "5", "--t", "1",
           "--convention", "nontrivial")
    rep = run_json(capsys, *big)
    sym = rep["stats"]["symmetry"]
    assert set(sym) == {"order", "generators", "probe_nodes", "skipped", "seconds"}
    assert sym["order"] == 372000 and sym["skipped"] > 0
    # PG(2,5) with no hyperplane removed: its group is PGL(3,5), from the
    # geometry alone
    assert sym["generators"] > 0
    # the probe's work, its nodes and the children they close at their
    # parent, is limited to one unit per family incidence: 31 lines of 6
    # points, the forbidden lines adding nothing
    assert sym["probe_nodes"] == 71 < 31 * 6
    assert rep["stats"]["nodes"] > sym["probe_nodes"]
    assert "stats" not in run_json(capsys, "--no-meta", *big)
    braid = ("braid", "--kind", "ag", "--n", "3", "--q", "4", "--t", "1",
             "--scope", "touching")
    assert run_json(capsys, *braid)["stats"]["symmetry"]["skipped"] > 0
    assert "stats" not in run_json(capsys, "--no-meta", *braid)


def test_witness_phase_nodes_in_stats(capsys):
    """stats.witness_nodes is the witness phase's share of stats.nodes,
    stats.closed_children counts the children closed at their parent,
    which stats.nodes leaves out, and --no-meta drops them with the rest of
    stats.  AG(4,3) plain spends most of its nodes in the witness phase; a
    search that finds nothing within its cap has no witness phase."""
    argv = ("search", "--space", "ag", "--n", "4", "--q", "3", "--t", "1")
    stats = run_json(capsys, *argv)["stats"]
    assert (stats["witness_nodes"], stats["nodes"]) == (12124, 14388)
    assert (stats["closed_children"], stats["pool_tasks"]) == (10641, 0)
    assert "stats" not in run_json(capsys, "--no-meta", *argv)
    capped = run_json(capsys, "search", "--space", "pg", "--n", "2", "--q",
                      "3", "--t", "1", "--cap", "3")
    assert capped["result"]["verdict"] == "not-exists"
    assert "witness_nodes" not in capped["stats"]


def test_stats_keys_for_each_outcome(capsys, tmp_path):
    """The stats block's keys, and those of its nested records, for every
    outcome that reports stats.  Only a finished optimum has a witness
    phase, only a search past its probe a symmetry record, and a vacuous
    family runs no search, so its counts are 0."""
    base = {"nodes", "closed_children", "pool_tasks", "elapsed"}
    pg5 = ("--space", "pg", "--n", "2", "--q", "5", "--t", "1",
           "--convention", "nontrivial")
    line = tmp_path / "line.txt"
    line.write_text("projective 2 3\n1 0 0\n")
    cases = [
        # exists, without and with a group
        (("search", "--space", "pg", "--n", "2", "--q", "3", "--t", "1"),
         0, base | {"witness_nodes"}),
        (("search", *pg5), 0, base | {"witness_nodes", "symmetry"}),
        # not-exists under --cap
        (("search", *pg5, "--cap", "8"), 0, base | {"symmetry"}),
        # vacuous
        (("search", str(line), "--t", "1"), 0, base),
        # the search times out long after its group is computed
        (("search", "--space", "ag", "--n", "2", "--q", "9", "--t", "1",
          "--budget", "1"), 3, base | {"symmetry"}),
        # the search proves not-exists at once, and the oracle times out
        (("search", *pg5, "--cap", "8", "--oracle", "--budget", "0.5"),
         3, base | {"symmetry", "oracle"}),
        (("braid", "--kind", "ag", "--n", "3", "--q", "4", "--t", "1",
          "--scope", "touching"), 0, base | {"witness_nodes", "symmetry"}),
    ]
    for argv, want, keys in cases:
        code, out, _ = run(capsys, *argv)
        stats = json.loads(out)["stats"]
        assert (code, set(stats)) == (want, keys), argv
        if "symmetry" in keys:
            assert set(stats["symmetry"]) == {"order", "generators",
                                              "probe_nodes", "skipped",
                                              "seconds"}
        if "oracle" in keys:
            assert set(stats["oracle"]) == {"subsets", "elapsed"}
    vacuous = run_json(capsys, "search", str(line), "--t", "1")["stats"]
    assert (vacuous["nodes"], vacuous["closed_children"],
            vacuous["pool_tasks"]) == (0, 0, 0)


def test_search_pinned_minimum(capsys):
    rep = run_json(capsys, "search", "--space", "pg", "--n", "2", "--q", "3",
                   "--t", "1", "--convention", "nontrivial")
    assert rep["result"]["verdict"] == "exists"
    assert rep["result"]["size"] == 6
    assert len(rep["result"]["witness"]) == 6


def test_search_not_exists_is_exit_zero(capsys):
    code, out, _ = run(capsys, "search", "--space", "pg", "--n", "2",
                       "--q", "2", "--t", "1", "--convention", "nontrivial",
                       "--certificate")
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["verdict"] == "not-exists"
    assert rep["certificate"]["flat_dim"] == 2


def test_certificate_is_null_when_no_flat_inside_certifies(capsys, tmp_path):
    # PG(3,2) minus a plane, touching: the 8 points left hold no nontrivial
    # blocking set, but no plane lies inside them to certify it on, so the
    # walk up from the blocked dimension ends with no certificate
    src = tmp_path / "plane.txt"
    src.write_text("projective 3 2\n1 0 0 0\n")
    code, out, _ = run(capsys, "--no-meta", "search", str(src), "--t", "1",
                       "--scope", "touching", "--convention", "nontrivial",
                       "--certificate")
    assert code == 0 and '"certificate":null' in out
    assert json.loads(out)["result"]["verdict"] == "not-exists"


def test_certificate_counts_every_subset_of_the_fano_plane(capsys):
    # no nontrivial blocking set in PG(2,2): the oracle on the 7-point
    # certifying plane counts each of its 2^7 - 1 nonempty subsets
    rep = run_json(capsys, "--no-meta", "search", "--space", "pg", "--n", "2",
                   "--q", "2", "--t", "1", "--convention", "nontrivial",
                   "--certificate")
    assert rep["certificate"]["sub_universe"] == 7
    assert rep["certificate"]["subsets_checked"] == 127


def test_certificate_count_is_exact_when_subtrees_are_skipped(capsys, monkeypatch):
    # AG(3,2), lines blocked, no plane swallowed: none exists, and the
    # oracle's walk skips whole subtrees of the 8-point space yet still
    # counts all 2^8 - 1 subsets
    skipped = []

    def comb(n, k):
        skipped.append(math.comb(n, k))
        return skipped[-1]

    monkeypatch.setattr(solver, "comb", comb)
    rep = run_json(capsys, "--no-meta", "search", "--space", "ag", "--n", "3",
                   "--q", "2", "--t", "2", "--convention", "nontrivial",
                   "--certificate")
    assert rep["certificate"]["sub_universe"] == 8
    assert rep["certificate"]["subsets_checked"] == 255
    assert max(skipped) > 1


def test_search_oracle_crosscheck(capsys):
    rep = run_json(capsys, "search", "--space", "pg", "--n", "2", "--q", "3",
                   "--t", "1", "--oracle")
    assert rep["oracle_agrees"] is True
    assert rep["oracle"]["size"] == rep["result"]["size"] == 4


def test_timeout_exit_code(capsys):
    code, out, _ = run(capsys, "search", "--space", "pg", "--n", "2",
                       "--q", "7", "--t", "1", "--convention", "nontrivial",
                       "--cap", "14", "--budget", "0.0001")
    assert code == 3
    rep = json.loads(out)
    assert rep["result"]["verdict"] == "timeout"
    built = run_json(capsys, "instance", "--space", "pg", "--n", "2",
                     "--q", "7", "--t", "1")
    assert rep["instance"] == built["instance"]


def test_timeout_keeps_the_symmetry_record(capsys):
    # AG(2,9) plain outruns a 1 s budget long after its group is computed
    argv = ("search", "--space", "ag", "--n", "2", "--q", "9", "--t", "1",
            "--budget", "1")
    code, out, _ = run(capsys, *argv)
    assert code == 3
    stats = json.loads(out)["stats"]
    assert stats["symmetry"]["order"] == 933120
    assert stats["nodes"] >= stats["symmetry"]["probe_nodes"]
    code, out, _ = run(capsys, "--no-meta", *argv)
    assert code == 3 and "stats" not in json.loads(out)


def test_deadline_passing_during_the_group_computation(capsys, monkeypatch):
    # the group is computed within the budget but returned only after the
    # deadline: the search stops before its first orbital node, with the
    # probe's nodes and the symmetry record
    real = symmetry.automorphisms

    def late(seeds, trace_masks, forb_masks, stats):
        # the search's deadline, 1 s after it started, is past by then
        deadline = time.monotonic() + 1.0
        group = real(seeds, trace_masks, forb_masks, stats)
        while time.monotonic() <= deadline:
            time.sleep(0.01)
        return group

    monkeypatch.setattr(symmetry, "automorphisms", late)
    code, out, _ = run(capsys, "search", "--space", "pg", "--n", "2",
                       "--q", "5", "--t", "1", "--convention", "nontrivial",
                       "--budget", "1")
    assert code == 3
    rep = json.loads(out)
    assert rep["result"]["verdict"] == "timeout"
    stats = rep["stats"]
    assert stats["symmetry"]["order"] == 372000
    assert stats["nodes"] == stats["symmetry"]["probe_nodes"]


def test_braid_timeout_reports_the_search_so_far(capsys):
    argv = ("braid", "--kind", "ag", "--n", "3", "--q", "5",
            "--scope", "touching", "--budget", "0.05")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (3, "")
    rep = json.loads(out)
    timeout = {"verdict": "timeout", "size": None, "witness": None}
    assert (rep["verdict"], rep["result"]) == ("timeout", timeout)
    # q(q-1)(q-2) points with distinct coordinates, 3 braid planes
    assert (rep["universe_size"], rep["arrangement"]) == (60, {"count": 3})
    assert {"nodes", "closed_children"} <= set(rep["stats"])
    assert rep["stats"]["elapsed"] >= 0.05
    code, out, err = run(capsys, "--no-meta", *argv)
    assert (code, err) == (3, "")
    bare = json.loads(out)
    assert "stats" not in bare and "generated" not in bare
    assert bare["result"] == timeout


def test_search_vacuous_family(capsys, tmp_path):
    # every line of PG(2,3) meets the removed line, so none is contained
    src = tmp_path / "line.txt"
    src.write_text("projective 2 3\n1 0 0\n")
    rep = run_json(capsys, "--no-meta", "search", str(src), "--t", "1")
    assert rep["instance"]["family_size"] == 0
    assert rep["result"] == {"verdict": "vacuous", "vacuous_family": True,
                             "size": 0, "witness": []}


def test_oracle_answers_a_vacuous_family_past_its_universe_cap(capsys, tmp_path):
    # 25 points, past the oracle's 22, but no trace to hit: the oracle
    # answers at once, and the bad-input row on all of PG(2,5) still exits 2
    src = tmp_path / "line.txt"
    src.write_text("projective 2 5\n1 0 0\n")
    rep = run_json(capsys, "--no-meta", "search", str(src), "--t", "1",
                   "--oracle")
    assert rep["instance"]["universe_size"] == 25
    assert rep["oracle_agrees"] is True
    assert rep["oracle"] == {"verdict": "vacuous", "size": 0, "witness": []}


def test_oracle_refuses_a_large_universe_before_the_search(capsys, monkeypatch):
    # 31 points, no cap: the refusal needs only the universe size, so it
    # comes before the search and prints the oracle's own error
    def no_search(*args, **kw):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "solve_instance", no_search)
    code, out, err = run(capsys, "search", "--space", "pg", "--n", "2",
                         "--q", "5", "--t", "1", "--oracle")
    assert (code, out) == (2, "")
    assert err == ('{"error":"full enumeration over 31 points; cap is 22",'
                   '"type":"UniverseTooLarge"}\n')


def test_budget_reaches_the_oracle(capsys):
    # the search proves in well under a second that no nontrivial blocking
    # set of PG(2,7) fits in 11 points; the oracle would list every subset
    # of up to 11 of the 57 points, and stops at the rest of the budget
    start = time.monotonic()
    code, out, err = run(capsys, "search", "--space", "pg", "--n", "2",
                         "--q", "7", "--t", "1", "--convention", "nontrivial",
                         "--oracle", "--cap", "11", "--budget", "2")
    assert time.monotonic() - start < 6
    assert (code, err) == (3, "")
    rep = json.loads(out)
    assert rep["result"]["verdict"] == "not-exists"
    assert rep["oracle"] == {"verdict": "timeout", "size": None, "witness": None}
    assert "oracle_agrees" not in rep
    assert rep["stats"]["oracle"]["subsets"] > 0


@pytest.mark.parametrize("argv", [
    ("--space", "ag", "--n", "10", "--q", "2", "--t", "10"),
    ("--space", "pg", "--n", "9", "--q", "2", "--t", "9"),
    ("--space", "ag", "--n", "10", "--q", "2", "--t", "10", "--workers", "2"),
])
def test_deep_search_has_no_depth_limit(capsys, argv):
    # the only blocking set of the points is all 2^10 (or 2^10 - 1) of them,
    # so the search runs a chain that deep before it can answer
    rep = run_json(capsys, "--no-meta", "search", *argv,
                   "--convention", "nontrivial")
    assert rep["result"]["verdict"] == "not-exists"


def test_internal_check_failure_exits_four(capsys, monkeypatch):
    monkeypatch.setattr(solver, "solve_masks",
                        lambda universe_size, *a, **kw: (1, 1, 0))
    code, out, err = run(capsys, "search", "--space", "pg", "--n", "2",
                         "--q", "3", "--t", "1")
    assert code == 4
    assert out == ""
    assert json.loads(err)["type"] == "InternalError"


def test_bad_inputs_exit_two(capsys):
    cases = [
        ("space", "euclidean", "2", "3"),
        ("search", "--space", "pg", "--q", "3"),          # missing --n
        ("search",),                                       # no source at all
        ("search", "/nonexistent/arrangement.txt"),
        ("verify", "--space", "pg", "--n", "2", "--q", "3",
         "--set", "9,9,9"),
        ("verify", "--space", "pg", "--n", "2", "--q", "3",
         "--set", "0,0,0"),                                # the zero vector
        ("search", "--space", "pg", "--n", "2", "--q", "6"),
        # 31 points, past the oracle's cap without --cap
        ("search", "--space", "pg", "--n", "2", "--q", "5", "--t", "1",
         "--oracle"),
        ("scan", "--q", "3", "--nmax", "2", "--kind", "affine-classical",
         "--family", "braid"),
        ("braid", "--q", "3", "--escape", "0,0,1", "1,0,2"),  # off the complement
        ("scan", "--q", "3", "--nmax", "0"),               # no row to scan
        ("scan", "--q", "3", "--t", "2", "--nmax", "1"),
        ("space", "pg", "1", "521"),                       # past the field cap
    ]
    # search options that no search can honour, on every subcommand that
    # takes them
    for head in (("search", "--space", "pg", "--n", "2", "--q", "3"),
                 ("classify", "--space", "pg", "--n", "2", "--q", "3"),
                 ("braid", "--q", "3"),
                 ("scan", "--q", "3", "--nmax", "2")):
        for bad in (("--budget", "nan"), ("--budget", "-1"), ("--budget", "0"),
                    ("--budget", "inf"), ("--workers", "0"),
                    ("--workers", "-3"), ("--cap", "-1")):
            cases.append(head + bad)
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "error" in json.loads(err)


def test_input_checks_below_the_parser_exit_two(capsys, tmp_path):
    # checks the parser cannot make: a point off the universe (verify's
    # point lookup), a flat dimension past n (the contained flats' growth)
    # and a touching instance with more flats than the trace guard allows
    src = tmp_path / "line.txt"
    src.write_text("projective 2 3\n1 0 0\n")
    for argv, kind in (
            (("verify", str(src), "--t", "1", "--set", "0,1,0"),
             "NotInUniverse"),
            (("complement", "--space", "pg", "--n", "2", "--q", "3",
              "--flats", "3"), "DimensionOutOfRange"),
            (("instance", "--space", "ag", "--n", "9", "--q", "3", "--t", "8",
              "--scope", "touching"), "TooLarge")):
        code, out, err = run(capsys, *argv)
        assert (code, out, json.loads(err)["type"]) == (2, "", kind), argv


def test_search_options_only_where_a_handler_reads_them(capsys):
    parser = cli.build_parser()
    search_like = (["search"], ["classify"], ["braid", "--q", "3"],
                   ["scan", "--q", "3", "--nmax", "2"])
    for argv in search_like:
        args = parser.parse_args(argv)
        assert (args.t, args.scope, args.convention, args.cap, args.budget,
                args.workers) == (1, "contained", "plain", None, None, 1)
        args = parser.parse_args(argv + [
            "--t", "2", "--scope", "touching", "--convention", "nontrivial",
            "--cap", "3", "--budget", "1.5", "--workers", "2"])
        assert (args.t, args.scope, args.convention, args.cap, args.budget,
                args.workers) == (2, "touching", "nontrivial", 3, 1.5, 2)
    for argv in (["instance"], ["verify", "--set", "0,0,1"]):
        args = parser.parse_args(argv)
        assert (args.t, args.scope) == (1, "contained")
        assert not {"convention", "cap", "budget", "workers"} & set(vars(args))
    for argv in (("instance", "--space", "pg", "--n", "2", "--q", "3",
                  "--cap", "3"),
                 ("verify", "--space", "pg", "--n", "2", "--q", "3",
                  "--set", "0,0,1", "--workers", "2")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_shared_parser_carries_no_state_between_calls(capsys, monkeypatch,
                                                     tmp_path):
    """main() builds its parser once per process.  Each call must parse as
    a fresh parser would, whatever ran before it (usage errors included),
    and print what a fresh process prints."""
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap alike in both
    seen = []
    check = cli._check_search_opts

    def record(args):
        seen.append(dict(vars(args)))
        check(args)

    monkeypatch.setattr(cli, "_check_search_opts", record)
    pg23 = ("--space", "pg", "--n", "2", "--q", "3")
    search = ("--no-meta", "search") + pg23 + ("--t", "1")
    argvs = [
        ("--no-meta", "space", "pg", "2", "3", "--points"),
        ("space", "ag", "2", "3"),                  # --no-meta left out
        ("--no-meta", "arrangement") + pg23 + ("--emit",),
        ("--no-meta", "complement") + pg23 + ("--members", "--flats", "1"),
        ("--no-meta", "instance") + pg23 + ("--scope", "touching", "--traces"),
        search + ("--cap", "3"),
        search,                                     # --cap left out
        search,                                     # the same argv twice
        ("--no-meta", "search", "--cap"),           # usage error, exit 2
        search + ("--convention", "nontrivial", "--oracle"),
        ("--no-meta", "verify") + pg23 + ("--set", "0,0,1", "0,1,0", "1,0,0",
                                          "--minimalize"),
        ("--no-meta", "verify") + pg23 + ("--set", "0,0,1"),
        ("--no-meta", "nosuch"),                    # usage error, exit 2
        ("--no-meta", "scan", "--q", "3", "--nmax", "2", "--workers", "2"),
        ("--no-meta", "scan", "--q", "3", "--nmax", "2"),
        ("--no-meta", "braid", "--q", "3", "--escape", "1,0,2", "0,1,2"),
        ("--no-meta", "braid", "--q", "3", "--lines"),
        ("--no-meta", "classify") + pg23 + ("--pool",),
        ("--no-meta", "selftest"),
    ]
    commands = {a[1] if a[0] == "--no-meta" else a[0] for a in argvs}
    assert commands >= {"space", "arrangement", "complement", "instance",
                        "search", "verify", "scan", "braid", "classify",
                        "selftest"}
    results = {}
    for _ in range(2):
        for argv in argvs:
            try:
                want = vars(cli.build_parser().parse_args(list(argv)))
            except SystemExit as exc:
                want = exc.code
            capsys.readouterr()
            before = len(seen)
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
                assert code == want == 2 and len(seen) == before, argv
            else:
                assert seen[-1] == want, argv
            out = capsys.readouterr()
            results[argv] = (out.out, out.err, code)

    env = dict(os.environ,
               PYTHONPATH=str(Path(blocksets.__file__).resolve().parents[1]))
    for argv in (search + ("--cap", "3"), search, ("--no-meta", "search", "--cap"),
                 ("--no-meta", "braid", "--q", "3", "--escape", "1,0,2", "0,1,2"),
                 ("--no-meta", "scan", "--q", "3", "--nmax", "2")):
        proc = subprocess.run([sys.executable, "-m", "blocksets", *argv],
                              capture_output=True, text=True, env=env,
                              cwd=tmp_path)
        assert results[argv] == (proc.stdout, proc.stderr, proc.returncode), argv


def test_main_builds_its_parser_once(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_parser", None)
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    for _ in range(3):
        assert run(capsys, "space", "pg", "2", "3")[0] == 0
    assert builds == [1]


def test_verify_and_minimalize(capsys):
    rep = run_json(capsys, "verify", "--space", "pg", "--n", "2", "--q", "2",
                   "--t", "1", "--set", "0,0,1", "0,1,0", "0,1,1", "1,0,0",
                   "--minimalize")
    assert rep["blocking"] is True
    assert rep["minimal"] is False
    assert rep["nontrivial"] is False
    assert len(rep["minimalized"]) == 3


def test_arrangement_file_round_trip(capsys, tmp_path):
    src = tmp_path / "arr.txt"
    src.write_text("projective 2 3\n# removed line\n2 0 0\n0 1 2\n")
    rep = run_json(capsys, "arrangement", str(src), "--emit")
    assert rep["arrangement"]["forms"] == [[1, 0, 0], [0, 1, 2]]
    back = tmp_path / "back.txt"
    back.write_text(rep["text"])
    rep2 = run_json(capsys, "arrangement", str(back))
    assert rep2["arrangement"]["forms"] == rep["arrangement"]["forms"]


def test_arrangement_correspond(capsys, tmp_path):
    src = tmp_path / "arr.txt"
    src.write_text("projective 2 3\n1 0 0\n")
    rep = run_json(capsys, "arrangement", str(src), "--correspond", "3")
    assert rep["correspond"]["n"] == 3
    assert rep["correspond"]["forms"] == [[1, 0, 0, 0]]


def test_complement_counts_and_touching(capsys, tmp_path):
    src = tmp_path / "line.txt"
    src.write_text("projective 2 3\n1 0 0\n")
    rep = run_json(capsys, "complement", str(src), "--touching", "1",
                   "--max-dim")
    assert rep["complement_size"] == 9
    assert rep["touching_traces"] == {"d": 1, "count": 12,
                                      "trace_sizes": {"min": 3, "max": 3}}
    # every projective line meets the removed one, so none is contained
    assert rep["max_flat_dimension"] == 0


def test_instance_trace_listing(capsys):
    rep = run_json(capsys, "instance", "--space", "ag", "--n", "3", "--q", "3",
                   "--t", "1", "--traces")
    assert rep["instance"]["universe_size"] == 27
    assert rep["instance"]["family_size"] == 39  # 13 directions, 3 shifts
    assert all(len(tr) == 9 for tr in rep["family"])


def test_braid_line_listing(capsys):
    rep = run_json(capsys, "braid", "--lines", "--q", "3")
    assert rep["verdict"] == "vacuous"
    assert rep["lines"] == [["0,1,2", "1,2,0", "2,0,1"],
                            ["0,2,1", "1,0,2", "2,1,0"]]


def test_braid_escape_report(capsys):
    rep = run_json(capsys, "braid", "--q", "3",
                   "--escape", "1,0,2", "0,1,2")
    assert rep["escape"] == {"pair": [0, 1], "t0": 2, "point": "2,2,2"}
    assert rep["line_contained"] is False


def test_braid_escape_rejects_bad_points_as_verify_does(capsys):
    verify = ("verify", "--space", "ag", "--n", "3", "--q", "3", "--set")
    for bad, error, kind in (
            ("0,1", "expected 3 coordinates, got 2", "DimensionMismatch"),
            ("0,1,5", "coordinate 5 is not a GF(3) code", "ValueError"),
            ("0,1,2,0", "expected 3 coordinates, got 4", "DimensionMismatch"),
            ("a,b,c", "point 'a,b,c' is not a comma-separated coordinate "
                      "tuple", "ValueError")):
        for argv in (verify + (bad,),
                     ("braid", "--q", "3", "--escape", bad, "0,1,2"),
                     ("braid", "--q", "3", "--escape", "0,1,2", bad)):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert json.loads(err) == {"error": error, "type": kind}, argv
    # the affine-kind check still comes first
    code, _, err = run(capsys, "braid", "--kind", "pg", "--q", "3",
                       "--escape", "0,1", "0,1,2")
    assert code == 2
    assert "affine space" in json.loads(err)["error"]


def test_braid_transversal_search(capsys):
    rep = run_json(capsys, "braid", "--q", "4", "--t", "3", "--transversal")
    assert rep["verdict"] == "exists"
    assert rep["result"]["size"] == 6
    assert len(rep["transversal"]) == 6


def test_scan_affine_classical(capsys):
    rep = run_json(capsys, "scan", "--q", "3", "--t", "1", "--nmax", "2",
                   "--kind", "affine-classical", "--convention", "nontrivial")
    assert rep["scope"] == "touching"
    assert [r["verdict"] for r in rep["rows"]] == ["not-exists", "not-exists"]
    assert rep["threshold"] is None
    assert "note" in rep


def test_scan_braid_family_matches_braid_existence(capsys):
    rep = run_json(capsys, "--no-meta", "scan", "--family", "braid",
                   "--kind", "ag", "--q", "3", "--nmax", "3")
    assert [r["n"] for r in rep["rows"]] == [1, 2, 3]
    for row in rep["rows"]:
        out = braid_existence(AFFINE, row["n"], 3)
        assert row["verdict"] == out.verdict
        assert row["size"] == out.result.size


def test_scan_projective_threshold(capsys):
    rep = run_json(capsys, "scan", "--q", "3", "--t", "1", "--nmax", "2",
                   "--convention", "nontrivial")
    assert rep["threshold"] == 2
    assert rep["rows"][-1]["size"] == 6
    assert rep["guaranteed_from_field_size"] == {"1": True, "2": False}


def test_scan_reports_a_space_past_the_guard_as_skipped(capsys):
    code, out, _ = run(capsys, "--no-meta", "scan", "--q", "2", "--t", "24",
                       "--nmax", "24")
    assert code == 0
    assert out == (
        '{"command":"scan","convention":"plain","family":"empty",'
        '"guaranteed_from_field_size":{"24":false},"kind":"projective",'
        '"monotone":true,"q":2,"rows":[{"n":24,"note":"PG(24,2) has '
        '33554431 points, beyond the enumeration guard 16777216",'
        '"size":null,"verdict":"skipped"}],"scope":"contained","t":24,'
        '"threshold":null,"version":"%s"}\n' % blocksets.__version__)


def test_verify_reports_normalized_points(capsys):
    # (0,2,2) is the projective point (0,1,1) scaled by 2
    rep = run_json(capsys, "--no-meta", "verify", "--space", "pg", "--n", "2",
                   "--q", "3", "--set", "0,2,2", "1,0,0")
    assert rep["set"] == ["0,1,1", "1,0,0"]


def test_braid_escape_on_a_contained_line(capsys):
    # (1,2,0) - (0,1,2) is all-ones, so the line never leaves
    rep = run_json(capsys, "braid", "--q", "3", "--escape", "0,1,2", "1,2,0")
    assert rep["escape"] is None
    assert rep["line_contained"] is True


def test_scan_table_output(capsys):
    code, out, _ = run(capsys, "scan", "--q", "3", "--t", "1", "--nmax", "2",
                       "--convention", "nontrivial", "--table")
    assert code == 0
    assert out.startswith("scan kind=projective q=3")
    assert "threshold=2" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_classify_single_line(capsys, tmp_path):
    src = tmp_path / "line.txt"
    src.write_text("projective 2 3\n1 0 0\n")
    rep = run_json(capsys, "classify", str(src), "--t", "1",
                   "--scope", "touching", "--convention", "nontrivial")
    assert rep["category"] == "blocking-arrangement"
    assert rep["minimal"] is True


def test_classify_timeout_is_an_error_object(capsys, tmp_path):
    # classify reports no timeout verdict: its first search's SearchTimeout
    # reaches main, which prints it as an error object and exits 3
    src = tmp_path / "line.txt"
    src.write_text("projective 2 3\n1 0 0\n")
    code, out, err = run(capsys, "classify", str(src), "--t", "1",
                         "--scope", "touching", "--budget", "0.000001")
    assert (code, out) == (3, "")
    assert err == '{"error":"search exceeded its time budget",' \
        '"type":"SearchTimeout"}\n'


def test_classify_pool(capsys, tmp_path):
    files = {"empty": "projective 2 3\n", "one": "projective 2 3\n1 0 0\n",
             "two": "projective 2 3\n1 0 0\n0 1 0\n", "pg24": "projective 2 4\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)

    def classify(src, pool):
        return run(capsys, "--no-meta", "classify", str(tmp_path / src), "--t", "1",
                   "--scope", "touching", "--convention", "nontrivial",
                   "--pool", str(tmp_path / pool))

    # the empty arrangement keeps existence, so it cannot replace the line
    code, out, _ = classify("one", "empty")
    rep = json.loads(out)
    assert (code, rep["category"], rep["pool_minimal"]) == \
        (0, "blocking-arrangement", True)
    # one of the two lines already blocks existence on its own
    code, out, _ = classify("two", "one")
    rep = json.loads(out)
    assert (code, rep["category"], rep["pool_minimal"]) == \
        (0, "blocking-arrangement", False)
    code, _, err = classify("one", "pg24")
    assert code == 2 and "PG(2,4)" in err


def test_classify_unblocking_arrangement(capsys, tmp_path):
    # PG(2,2) has no nontrivial blocking set; removing a line leaves a
    # complement with no contained line, which the empty set blocks
    src = tmp_path / "fano-line.txt"
    src.write_text("projective 2 2\n0 0 1\n")
    rep = run_json(capsys, "--no-meta", "classify", str(src), "--t", "1",
                   "--scope", "contained", "--convention", "nontrivial")
    assert rep["category"] == "unblocking-arrangement"
    assert rep["baseline"]["verdict"] == "not-exists"
    assert rep["with_arrangement"]["verdict"] == "vacuous"


def test_selftest_green(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert all(c["ok"] for c in rep["checks"])


def test_selftest_reports_a_failed_check(capsys, monkeypatch):
    monkeypatch.setattr(cli, "gaussian_binomial", lambda n, k, q: 0)
    code, out, _ = run(capsys, "--no-meta", "selftest")
    assert code == 1
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["ok"]]
    assert failed == ["geometry-counts"]


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # silently stop checking; the package raises explicitly instead
    found = []
    for path in sorted(Path(blocksets.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []
