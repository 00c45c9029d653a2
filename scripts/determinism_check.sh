#!/bin/bash
# Reports with --no-meta must not depend on the worker count.  Compares
# byte-for-byte across --workers 1, 2 and 8 on the instances the other
# scripts search, plus one whose --workers frontier runs under an
# arrangement and a nontrivial automorphism group (PG(2,7) minus two
# lines), and PG(2,9), whose pool tasks carry orbit-excluded sets and
# conjugated stabilizers over GF(9).  The q=7 and q=9 pairs dominate the
# runtime (a few seconds).
set -euo pipefail
BS="python3 -m blocksets"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

printf 'projective 2 3\n1 0 0\n' > "$tmp/one-line.txt"
printf 'projective 2 7\n0 0 1\n0 1 2\n' > "$tmp/pg2-7.two-lines.txt"

# --workers 2 hands pool tasks out on these rows; --workers 8 aims for 64
# open subtrees, which the frontier of some rows never reaches
pair() {
    $BS --no-meta search "$@" --workers 1 > "$tmp/w1.json"
    for w in 2 8; do
        $BS --no-meta search "$@" --workers $w > "$tmp/w$w.json"
        cmp -s "$tmp/w1.json" "$tmp/w$w.json" || {
            echo "FAIL: reports differ at --workers $w for: $*" >&2; exit 1; }
    done
    echo "identical: $*"
}

pair "$tmp/one-line.txt" --t 1 --scope touching --convention nontrivial
pair --space pg --n 2 --q 3 --t 1 --convention nontrivial
pair --space pg --n 3 --q 2 --t 2
pair --space pg --n 2 --q 4 --t 1 --convention nontrivial
pair --space pg --n 2 --q 5 --t 1 --convention nontrivial
pair --space pg --n 2 --q 7 --t 1 --convention nontrivial --cap 14
pair --space pg --n 2 --q 9 --t 1 --convention nontrivial
pair "$tmp/pg2-7.two-lines.txt" --t 1 --scope touching
echo "ok"
