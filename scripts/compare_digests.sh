#!/bin/bash
# Compares the report digests of this checkout's src/ with those of a git
# revision's (default HEAD).  It unpacks REF's src/ into a temporary
# directory with git archive, runs report_digest.sh once under each
# PYTHONPATH, prints both digest sets, and exits 1 when any digest differs.
# A change that is to leave every report as it was passes against its
# parent:
#
#   bash scripts/compare_digests.sh HEAD~1
#
# Not part of run_all.sh: it checks no answer, it only compares the
# fingerprints of two versions.
set -euo pipefail
ref=${1:-HEAD}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

source "$root/scripts/unpack_ref.sh"
unpack_ref "$ref" "$tmp"
PYTHONPATH="$tmp/src" bash "$root/scripts/report_digest.sh" > "$tmp/ref.txt"
PYTHONPATH="$root/src" bash "$root/scripts/report_digest.sh" > "$tmp/tree.txt"
echo "== $ref"
cat "$tmp/ref.txt"
echo "== working tree"
cat "$tmp/tree.txt"
if cmp -s "$tmp/ref.txt" "$tmp/tree.txt"; then
    echo "all digests equal"
else
    echo "digests differ" >&2
    exit 1
fi
