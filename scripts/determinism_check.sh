#!/bin/bash
# Reports with --no-meta must not depend on the worker count.  Compares
# byte-for-byte across --workers 1 and --workers 8 on the instances the
# other scripts search.  The q=7 pair dominates the runtime (a few seconds).
set -euo pipefail
BS="python3 -m blocksets"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

printf 'projective 2 3\n1 0 0\n' > "$tmp/one-line.txt"

pair() {
    $BS --no-meta search "$@" --workers 1 > "$tmp/w1.json"
    $BS --no-meta search "$@" --workers 8 > "$tmp/w8.json"
    cmp -s "$tmp/w1.json" "$tmp/w8.json" || {
        echo "FAIL: reports differ for: $*" >&2; exit 1; }
    echo "identical: $*"
}

pair "$tmp/one-line.txt" --t 1 --scope touching --convention nontrivial
pair --space pg --n 2 --q 3 --t 1 --convention nontrivial
pair --space pg --n 3 --q 2 --t 2
pair --space pg --n 2 --q 4 --t 1 --convention nontrivial
pair --space pg --n 2 --q 5 --t 1 --convention nontrivial
pair --space pg --n 2 --q 7 --t 1 --convention nontrivial --cap 14
echo "ok"
