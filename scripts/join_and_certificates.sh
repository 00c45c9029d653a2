#!/bin/bash
# Two composition facts, driven end to end through the CLI.
#
# Join: a blocking set of the one-hyperplane complement (touching scope)
# plus any point of the removed hyperplane blocks the full space at t=1.
# The pieces and their union are checked with `verify`; the coordinates
# below are the lexicographic minimum the search returns for q=3.  At t=2
# the hyperplane part must hit every line inside the hyperplane: in
# PG(3,2) minus a plane, the search's witness plus one line of the removed
# plane blocks every line of the space, and the witness alone does not.
#
# Restriction, in contrapositive form: when no blocking set exists, a
# subspace whose induced instance is itself unblockable certifies that.
# `search --certificate` surfaces the certifying flat.
set -euo pipefail
BS="python3 -m blocksets"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

printf 'projective 2 3\n1 0 0\n' > "$tmp/one-line.txt"

rep=$($BS --no-meta search "$tmp/one-line.txt" --t 1 --scope touching)
grep -q '"size":5' <<<"$rep" || { echo "FAIL: complement piece" >&2; exit 1; }

rep=$($BS --no-meta verify "$tmp/one-line.txt" --t 1 --scope touching \
      --set 1,0,0 1,0,1 1,0,2 1,1,0 1,2,0)
grep -q '"blocking":true' <<<"$rep" || { echo "FAIL: piece not blocking" >&2; exit 1; }
echo "touching piece of size 5 verified"

rep=$($BS --no-meta verify --space pg --n 2 --q 3 --t 1 \
      --set 0,0,1 1,0,0 1,0,1 1,0,2 1,1,0 1,2,0)
grep -q '"blocking":true' <<<"$rep" || { echo "FAIL: union not blocking" >&2; exit 1; }
echo "union with one hyperplane point blocks the whole plane"

printf 'projective 3 2\n1 0 0 0\n' > "$tmp/one-plane.txt"
rep=$($BS --no-meta search "$tmp/one-plane.txt" --t 2 --scope touching)
grep -q '"size":7' <<<"$rep" || { echo "FAIL: complement piece at t=2" >&2; exit 1; }
witness=$(python3 -c 'import json, sys
print(" ".join(json.load(sys.stdin)["result"]["witness"]))' <<<"$rep")
rep=$($BS --no-meta verify --space pg --n 3 --q 2 --t 2 --set $witness)
grep -q '"blocking":false' <<<"$rep" || { echo "FAIL: piece alone blocks" >&2; exit 1; }
rep=$($BS --no-meta verify --space pg --n 3 --q 2 --t 2 \
      --set $witness 0,0,0,1 0,0,1,0 0,0,1,1)
grep -q '"blocking":true' <<<"$rep" || { echo "FAIL: t=2 union not blocking" >&2; exit 1; }
echo "at t=2, union with one line of the removed plane blocks every line"

rep=$($BS --no-meta search --space pg --n 2 --q 2 --t 1 --convention nontrivial \
      --certificate)
grep -q '"verdict":"not-exists"' <<<"$rep" && grep -q '"flat_dim":2' <<<"$rep" || {
    echo "FAIL: certificate" >&2; exit 1; }
echo "nonexistence certified by an unblockable flat"
echo "ok"
