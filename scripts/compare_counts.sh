#!/bin/bash
# Compares the search node counts and group orders of this checkout's src/
# with those of a git revision's (default HEAD).  It unpacks REF's src/
# into a temporary directory with git archive, runs a fixed list of
# searches once under each PYTHONPATH, prints `stats.nodes`,
# `stats.symmetry.order` (1 when the search computed no group),
# `stats.closed_children`, `stats.symmetry.probe_nodes` (- with no group
# computed), `stats.elapsed` and `stats.symmetry.seconds` (0 with no
# group) per row for both, and compares each row's `result` block
# (verdict, size and witness) between them, with a verdict line of its
# own: every result equal, or the rows whose result differs.  It exits 1
# when a result, a node count or a group order differs, and ends, when a
# count differs, with a verdict line: either every differing row went down
# with its group order equal, or the rows whose nodes went up or whose
# order changed.  So a change that is to cut nodes and keep every report
# shows both in one run: "every result equal", then "all differing rows
# down".  The closed children and probe nodes are for reading only: a rule
# change that moves them shows how in the same run, but they decide
# nothing.  Nor do the times: one run each, unscaled, so they show a
# search or group change on the rows the benchmark does not run (AG(2,8),
# AG(4,3), braid AG(3,5)).  The rows are the seven `bound` rows of
# bench/workloads.py at seeds 1-4, and these:
# PG(2,7) and PG(2,9) nontrivial, PG(2,8) nontrivial with cap 16, AG(2,7),
# AG(2,8), AG(3,4) and AG(4,3) plain, and the braid arrangement of AG(3,5)
# and of AG(4,4) touching plain.  The braid AG(4,4) universe lies in a
# hyperplane, so its group order, from the Schreier-Sims chain on the
# universe, falls short of the closed form; on every other row only the
# identity fixes each point of the universe, and the chain reaches the
# closed form.  A change that is to keep every search as it was passes
# against its parent:
#
#   bash scripts/compare_counts.sh HEAD~1
#
# Expect about half a minute.  Not part of run_all.sh: it checks no
# answer, it only compares two versions.
set -euo pipefail
ref=${1:-HEAD}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

counts() {
    python3 - "$root/bench" "$tmp" "$1" <<'PY'
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from workloads import make_cases
from blocksets import cli

results = open(sys.argv[3], "w")
rows = []
for seed in range(1, 5):
    for case in make_cases("bound", seed):
        path = "%s/%s.%d.txt" % (sys.argv[2], case.name, seed)
        with open(path, "w") as f:
            f.write(case.arrangement_text())
        # --no-meta would drop the stats
        rows.append(("%s@%d" % (case.name, seed), case.argv(path)[1:]))
reach = ["pg 2 7 nontrivial", "pg 2 9 nontrivial", "pg 2 8 nontrivial --cap 16",
         "ag 2 7 plain", "ag 2 8 plain", "ag 3 4 plain", "ag 4 3 plain"]
for row in reach:
    kind, n, q, convention, *more = row.split()
    rows.append((row, ["search", "--space", kind, "--n", n, "--q", q, "--t", "1",
                       "--convention", convention] + more))
for n, q in (("3", "5"), ("4", "4")):
    rows.append(("braid ag %s %s touching plain" % (n, q),
                 ["braid", "--kind", "ag", "--n", n, "--q", q, "--scope", "touching"]))
for name, argv in rows:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    report = json.loads(out.getvalue())
    stats = report["stats"]
    results.write("%s\t%s\n" % (name, json.dumps(report["result"], sort_keys=True)))
    sym = stats.get("symmetry", {})
    print("%-50s nodes %9d  order %d  closed %9d  probe %6s  elapsed %.3f s"
          "  group %.3f s" % (name, stats["nodes"], sym.get("order", 1),
                              stats["closed_children"], sym.get("probe_nodes", "-"),
                              stats["elapsed"], sym.get("seconds", 0)))
PY
}

source "$root/scripts/unpack_ref.sh"
unpack_ref "$ref" "$tmp"
PYTHONPATH="$tmp/src" counts "$tmp/ref.results" > "$tmp/ref.txt"
PYTHONPATH="$root/src" counts "$tmp/tree.results" > "$tmp/tree.txt"
echo "== $ref"
cat "$tmp/ref.txt"
echo "== working tree"
cat "$tmp/tree.txt"
# a results line per row: its name, a tab and its result block as JSON
status=0
python3 - "$tmp/ref.results" "$tmp/tree.results" <<'PY' || status=1
import sys

ref, tree = (dict(line.rstrip("\n").split("\t") for line in open(path))
             for path in sys.argv[1:])
moved = [name for name in ref if tree[name] != ref[name]]
if moved:
    print("results: differ on %s" % ", ".join(moved))
    sys.exit(1)
print("results: every result equal (verdict, size and witness)")
PY
# the closed, probe, elapsed and group columns are left out of the
# comparison
if cmp -s <(sed 's/  closed .*//' "$tmp/ref.txt") \
          <(sed 's/  closed .*//' "$tmp/tree.txt"); then
    echo "all counts equal"
else
    echo "counts differ" >&2
    # the verdict: did every differing row go down, its group order kept?
    python3 - "$tmp/ref.txt" "$tmp/tree.txt" <<'PY'
import re, sys

def rows(path):
    out = {}
    for line in open(path):
        m = re.match(r"(.*?)\s+nodes\s+(\d+)\s+order (\d+)", line)
        out[m[1]] = (int(m[2]), int(m[3]))
    return out

ref, tree = rows(sys.argv[1]), rows(sys.argv[2])
up = [name for name in ref if tree[name][0] > ref[name][0]]
moved = [name for name in ref if tree[name][1] != ref[name][1]]
down = sum(tree[name][0] < ref[name][0] for name in ref)
if up or moved:
    print("verdict: nodes up on %s; group order changed on %s" % (
        ", ".join(up) or "no row", ", ".join(moved) or "no row"))
else:
    print("verdict: all differing rows down (%d), group orders equal" % down)
PY
    exit 1
fi
exit $status
