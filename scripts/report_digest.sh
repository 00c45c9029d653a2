#!/bin/bash
# Prints eight sha256 digests over the --no-meta reports of fixed lists of
# commands.  The first list enumerates many flats: contained and touching
# complements, instance traces in both scopes, the braid lines, braid
# existence where the contained lines are one parallel class (AG(m,q) at
# t = m-1, capped and not), a contained search, and two wide contained
# instances whose flats are cosets of the forms' common direction: AG(4,5)
# minus the hyperplane x1 = 0 at t = 1 and the braid arrangement of
# AG(5,7) at t = 4.  The second runs over
# the extension fields GF(8) and GF(9), so every report in it goes through
# the field tables of a non-prime field: point lists, contained lines of
# braid complements, escape parameters (division and subtraction),
# arrangements re-read in another dimension, and a scan with a cap and
# two workers.  The third runs the solver on wide instances, thousands of
# traces or points:
# Bose-Burton minima in PG(3,q) and PG(4,3) (at t = 2, 863 nodes that
# each pack before they scan), AG(9,2) and AG(10,2) at
# the point level under the nontrivial convention, where the greedy walks
# every point before the whole space is forbidden, and the braid
# arrangement of AG(4,5) touching at t = 1 under the nontrivial
# convention, whose 12,174 forbidden traces are listed before their
# count is reported and turned into per-point tables (one node, no
# blocking set).  The fourth lists the
# flats of wide instances, so it fingerprints the point lists themselves:
# the traces of PG(3,4) and AG(4,3) at each level, of the braid
# complements of AG(4,5) and AG(3,7), and the planes of PG(3,8).  The
# fifth runs the subset oracle: the `search --oracle` rows of
# oracle_agreement.sh (nontrivial and capped among them), four
# `search --certificate` instances with no blocking set, whose reports
# carry the oracle's subset count, and the selftest.  Two of those certify
# at once, at d = n; AG(4,2) walks up from its 3-flats to the whole space,
# and PG(3,2) minus a plane (touching) walks up and finds no flat inside
# its universe, so its certificate is null.  The sixth lists complement
# members point by point: forms whose last coefficient is not 1 over
# GF(9), an affine constant, the braid complement over GF(8) and a
# projective plane minus a line.  The seventh runs orbital searches:
# searches that outgrow the probe, so they compute the automorphism group
# and branch on its orbits: PG(2,7) minus two lines (touching, plain) in
# two labellings, and braid AG(3,5) touching plain, whose dependent forms
# still get the whole set stabilizer of the braid planes and the plane at
# infinity.  The eighth checks candidate sets on PG(3,9) at t = 2,
# 7,462 line traces over 820 points: a plane (blocking, minimal, but it
# swallows a plane), the plane plus one point, minimalized back to the
# plane, and a line, which does not block.  Two versions of the package
# that build the same flats,
# compute the same field elements and search alike print the same
# digests, so comparing them across checkouts shows whether a change
# altered any report:
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
printf 'affine 4 5\n1 0 0 0 0\n' > "$tmp/ag4-5.minus-hyperplane.txt"
printf 'affine 3 3\n1 0 0 0\n0 1 0 0\n' > "$tmp/ag3-3.minus-2-planes.txt"
# braid arrangements x1 = x2, x1 = x3, x2 = x3 over GF(5) and GF(4)
printf 'affine 3 5\n1 4 0 0\n1 0 4 0\n0 1 4 0\n' > "$tmp/ag3-5.braid.txt"
printf 'affine 3 4\n1 1 0 0\n1 0 1 0\n0 1 1 0\n' > "$tmp/ag3-4.braid.txt"
printf 'affine 3 8\n1 1 0 0\n1 0 1 0\n0 1 1 0\n' > "$tmp/ag3-8.braid.txt"
# over GF(9), -1 is 2, so a wrong sign in the echelon reduction shows here
printf 'affine 3 9\n1 2 0 0\n1 0 2 0\n0 1 2 0\n' > "$tmp/ag3-9.braid.txt"
# forms over GF(9) with leading coefficients other than 1
printf 'projective 2 9\n3 5 1\n0 7 2\n' > "$tmp/pg2-9.two-lines.txt"
printf 'affine 3 9\n5 1 0 2\n0 4 0 3\n' > "$tmp/ag3-9.two-planes.txt"
# braid arrangements x_i = x_j over GF(5) in dimension 4 and over GF(7)
printf 'affine 4 5\n1 4 0 0 0\n1 0 4 0 0\n1 0 0 4 0\n0 1 4 0 0\n0 1 0 4 0\n0 0 1 4 0\n' \
    > "$tmp/ag4-5.braid.txt"
printf 'affine 3 7\n1 6 0 0\n1 0 6 0\n0 1 6 0\n' > "$tmp/ag3-7.braid.txt"
printf 'projective 3 2\n1 0 0 0\n' > "$tmp/pg3-2.minus-plane.txt"
printf 'projective 2 7\n1 0 0\n0 1 0\n' > "$tmp/pg2-7.two-lines.txt"
printf 'projective 2 7\n1 2 3\n0 1 5\n' > "$tmp/pg2-7.two-other-lines.txt"

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
    $BS braid --q 4 --t 3
    $BS braid --q 5 --t 4 --convention minimal --cap 3
    $BS braid --n 3 --q 7 --t 2
    $BS search "$tmp/ag3-3.minus-plane.txt" --t 2
    $BS search "$tmp/ag3-5.braid.txt" --t 2 --convention nontrivial
    $BS search "$tmp/ag3-4.braid.txt" --t 2
    $BS instance "$tmp/ag4-5.minus-hyperplane.txt" --t 1 --scope contained
    $BS braid --kind ag --n 5 --q 7 --t 4 --scope contained
} | sha256sum | sed 's/-$/flat-heavy commands/'

{
    $BS space pg 2 8 --points
    $BS space ag 2 9 --points
    $BS complement "$tmp/ag3-8.braid.txt" --flats 1 --max-dim
    $BS instance "$tmp/ag3-9.braid.txt" --t 2 --traces
    $BS braid --q 9 --n 3 --escape 0,1,2 1,2,0
    $BS braid --q 9 --n 3 --escape 3,4,5 6,8,7
    $BS braid --q 9 --n 3 --escape 1,5,7 2,3,8
    $BS braid --q 9 --escape 0,1,2,3,4,5,6,7,8 8,7,6,5,4,3,2,1,0
    $BS arrangement "$tmp/pg2-9.two-lines.txt" --correspond 3
    $BS arrangement "$tmp/ag3-9.two-planes.txt" --correspond 2
    $BS scan --q 4 --nmax 3 --cap 8 --workers 2
} | sha256sum | sed 's/-$/extension-field commands/'

{
    $BS search --space pg --n 3 --q 5 --t 2
    $BS search --space pg --n 3 --q 7 --t 2
    $BS search --space pg --n 3 --q 9 --t 2
    $BS search --space pg --n 4 --q 3 --t 2
    $BS search --space pg --n 4 --q 3 --t 3
    $BS search --space ag --n 9 --q 2 --t 9 --convention nontrivial
    $BS search --space ag --n 10 --q 2 --t 10 --convention nontrivial
    $BS search "$tmp/ag4-5.braid.txt" --t 1 --scope touching --convention nontrivial
} | sha256sum | sed 's/-$/wide-solver commands/'

{
    $BS instance --space pg --n 3 --q 4 --t 1 --traces
    $BS instance --space pg --n 3 --q 4 --t 2 --traces
    $BS instance --space ag --n 4 --q 3 --t 1 --traces
    $BS instance --space ag --n 4 --q 3 --t 2 --traces
    $BS instance --space ag --n 4 --q 3 --t 3 --traces
    $BS instance "$tmp/ag4-5.braid.txt" --t 3 --traces
    $BS instance "$tmp/ag3-7.braid.txt" --t 2 --traces
    $BS complement --space pg --n 3 --q 8 --flats 2
} | sha256sum | sed 's/-$/build-heavy commands/'

{
    for row in "--space pg --n 2 --q 2 --t 1" \
               "--space pg --n 2 --q 2 --t 1 --convention nontrivial" \
               "--space pg --n 2 --q 3 --t 1" \
               "--space pg --n 2 --q 3 --t 1 --convention minimal" \
               "--space pg --n 2 --q 3 --t 1 --convention nontrivial" \
               "--space ag --n 2 --q 3 --t 1" \
               "--space ag --n 2 --q 3 --t 1 --convention nontrivial" \
               "--space ag --n 3 --q 2 --t 1" \
               "--space ag --n 3 --q 2 --t 2" \
               "--space pg --n 3 --q 2 --t 1" \
               "--space pg --n 3 --q 2 --t 2" \
               "--space pg --n 3 --q 2 --t 2 --convention nontrivial" \
               "--space ag --n 2 --q 4 --t 1" \
               "--space ag --n 2 --q 4 --t 1 --convention nontrivial --cap 6"; do
        # shellcheck disable=SC2086  # each row is a list of options
        $BS search $row --oracle
    done
    $BS search --space pg --n 2 --q 2 --t 1 --convention nontrivial --certificate
    $BS search --space ag --n 3 --q 2 --t 2 --convention nontrivial --certificate
    $BS search --space ag --n 4 --q 2 --t 1 --convention nontrivial --certificate
    $BS search "$tmp/pg3-2.minus-plane.txt" --t 1 --scope touching \
        --convention nontrivial --certificate
    $BS selftest
} | sha256sum | sed 's/-$/oracle-heavy commands/'

{
    $BS complement "$tmp/pg2-9.two-lines.txt" --members
    $BS complement "$tmp/ag3-9.two-planes.txt" --members
    $BS complement "$tmp/ag3-8.braid.txt" --members
    $BS complement "$tmp/pg2-5.minus-line.txt" --members
} | sha256sum | sed 's/-$/complement-member commands/'

{
    $BS search "$tmp/pg2-7.two-lines.txt" --t 1 --scope touching
    $BS search "$tmp/pg2-7.two-other-lines.txt" --t 1 --scope touching
    $BS braid --kind ag --n 3 --q 5 --t 1 --scope touching
} | sha256sum | sed 's/-$/orbital-search commands/'

# the line x0 = x1 = 0 of PG(3,9) and the plane x0 = 0 through it
line="0,0,0,1"
for c in 0 1 2 3 4 5 6 7 8; do line+=" 0,0,1,$c"; done
plane=$line
for b in 0 1 2 3 4 5 6 7 8; do
    for c in 0 1 2 3 4 5 6 7 8; do plane+=" 0,1,$b,$c"; done
done
{
    # shellcheck disable=SC2086  # each set is a list of points
    $BS verify --space pg --n 3 --q 9 --t 2 --set $plane
    # shellcheck disable=SC2086
    $BS verify --space pg --n 3 --q 9 --t 2 --set $plane 1,0,0,0 --minimalize
    # shellcheck disable=SC2086
    $BS verify --space pg --n 3 --q 9 --t 2 --set $line
} | sha256sum | sed 's/-$/witness-check commands/'
