#!/bin/bash
# Prints one sha256 over the --no-meta reports of a fixed list of commands
# that enumerate many flats: contained and touching complements, instance
# traces in both scopes, the braid lines and a contained search.  Two
# versions of the package that build the same flats print the same digest,
# so comparing it across checkouts shows whether a change to flat
# construction altered any report:
#
#   PYTHONPATH=src bash scripts/report_digest.sh
#
# Not part of run_all.sh: it checks no answer, it only fingerprints them.
set -euo pipefail
BS="python3 -m blocksets --no-meta"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

printf 'projective 2 5\n1 0 0\n' > "$tmp/pg2-5.minus-line.txt"
printf 'affine 3 3\n1 0 0 0\n' > "$tmp/ag3-3.minus-plane.txt"
printf 'affine 3 3\n1 0 0 0\n0 1 0 0\n' > "$tmp/ag3-3.minus-2-planes.txt"
# braid arrangements x1 = x2, x1 = x3, x2 = x3 over GF(5) and GF(4)
printf 'affine 3 5\n1 4 0 0\n1 0 4 0\n0 1 4 0\n' > "$tmp/ag3-5.braid.txt"
printf 'affine 3 4\n1 1 0 0\n1 0 1 0\n0 1 1 0\n' > "$tmp/ag3-4.braid.txt"

{
    $BS complement --space pg --n 3 --q 3 --flats 1
    $BS complement "$tmp/ag3-3.minus-plane.txt" --flats 2 --max-dim
    $BS complement "$tmp/ag3-3.minus-2-planes.txt" --flats 1 --max-dim
    $BS complement "$tmp/ag3-5.braid.txt" --flats 1 --max-dim
    $BS complement "$tmp/ag3-4.braid.txt" --flats 1 --max-dim
    $BS complement "$tmp/pg2-5.minus-line.txt" --touching 1
    $BS complement "$tmp/ag3-3.minus-2-planes.txt" --touching 2
    $BS instance --space pg --n 2 --q 4 --t 1 --traces
    $BS instance "$tmp/ag3-3.minus-plane.txt" --t 1 --traces
    $BS instance "$tmp/ag3-3.minus-plane.txt" --t 2 --traces
    $BS instance "$tmp/ag3-3.minus-2-planes.txt" --t 2 --traces
    $BS instance "$tmp/ag3-5.braid.txt" --t 2 --traces
    $BS instance "$tmp/ag3-4.braid.txt" --t 2 --traces
    $BS instance "$tmp/pg2-5.minus-line.txt" --t 1 --scope touching --traces
    $BS instance "$tmp/ag3-3.minus-2-planes.txt" --t 1 --scope touching --traces
    $BS instance "$tmp/ag3-3.minus-2-planes.txt" --t 2 --scope touching --traces
    $BS braid --lines --q 4
    $BS braid --lines --q 5
    $BS search "$tmp/ag3-3.minus-plane.txt" --t 2
    $BS search "$tmp/ag3-5.braid.txt" --t 2 --convention nontrivial
    $BS search "$tmp/ag3-4.braid.txt" --t 2
} | sha256sum | cut -d' ' -f1
