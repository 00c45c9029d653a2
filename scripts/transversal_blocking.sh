#!/bin/bash
# One point per contained line is a minimal blocking set at the level that
# targets lines.  The exact search finds a minimum of that size, and under
# the minimal convention its witness is re-checked as blocking and minimal
# before the report says exists.
set -euo pipefail
BS="python3 -m blocksets"

for q in 3 4 5; do
    t=$((q - 1))
    want=$(python3 -c "import math; print(math.factorial($q - 1))")
    rep=$($BS --no-meta braid --q $q --t $t --convention minimal --transversal)
    grep -q '"verdict":"exists"' <<<"$rep" || { echo "FAIL q=$q: no witness" >&2; exit 1; }
    grep -q "\"size\":$want" <<<"$rep" || { echo "FAIL q=$q: size != $want" >&2; exit 1; }
    echo "q=$q: minimal blocking transversal of size $want"
done
echo "ok"
