#!/bin/bash
# Nontrivial minima in the planes of order 4, 5, 7, 8, 9, 11.  Order 4 is
# cross-checked by capped enumeration; the order-7, order-8 and order-11
# searches are kept bounded with a cap of 2q.  Order 9 runs with no cap: its
# minimum 13 is a Baer subplane (Bruen 1970).  Order 11 takes about a
# minute and gives 18 = 3(p+1)/2 (Blokhuis 1994); the rest take a few
# seconds together.
set -euo pipefail
BS="python3 -m blocksets"

rep=$($BS --no-meta search --space pg --n 2 --q 4 --t 1 --convention nontrivial \
      --oracle --cap 7)
grep -q '"size":7' <<<"$rep" && grep -q '"oracle_agrees":true' <<<"$rep" || {
    echo "FAIL q=4" >&2; exit 1; }
echo "q=4: nontrivial minimum 7, capped oracle agrees"

rep=$($BS --no-meta search --space pg --n 2 --q 5 --t 1 --convention nontrivial)
grep -q '"size":9' <<<"$rep" || { echo "FAIL q=5" >&2; exit 1; }
echo "q=5: nontrivial minimum 9"

rep=$($BS --no-meta search --space pg --n 2 --q 7 --t 1 --convention nontrivial --cap 14)
grep -q '"size":12' <<<"$rep" || { echo "FAIL q=7" >&2; exit 1; }
echo "q=7: nontrivial minimum 12 under cap 14"

rep=$($BS --no-meta search --space pg --n 2 --q 8 --t 1 --convention nontrivial --cap 16)
grep -q '"size":13' <<<"$rep" || { echo "FAIL q=8" >&2; exit 1; }
echo "q=8: nontrivial minimum 13 under cap 16"

rep=$($BS --no-meta search --space pg --n 2 --q 9 --t 1 --convention nontrivial)
grep -q '"size":13' <<<"$rep" || { echo "FAIL q=9" >&2; exit 1; }
echo "q=9: nontrivial minimum 13"

rep=$($BS --no-meta search --space pg --n 2 --q 11 --t 1 --convention nontrivial --cap 22)
grep -q '"size":18' <<<"$rep" || { echo "FAIL q=11" >&2; exit 1; }
echo "q=11: nontrivial minimum 18 under cap 22"
echo "ok"
