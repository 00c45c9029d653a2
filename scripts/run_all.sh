#!/bin/bash
# Runs every reproduction script plus the built-in selftest.  Expect a few
# minutes.
set -euo pipefail
here=$(dirname "$0")

python3 -m blocksets selftest > /dev/null && echo "selftest: ok"

for s in braid_line_census escape_dichotomy transversal_blocking \
         projective_braid_threshold small_plane_minima flat_floor \
         larger_plane_minima oracle_agreement join_and_certificates \
         determinism_check; do
    echo "== $s"
    bash "$here/$s.sh"
done
echo "all reproduction scripts passed"
