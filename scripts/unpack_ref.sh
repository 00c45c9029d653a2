# Sourced by the compare_* scripts, not run: `unpack_ref REF DIR` writes
# the src/ tree of git revision REF of this checkout under DIR, so that
# PYTHONPATH=DIR/src runs that version of the package.
unpack_ref() {
    git -C "$(dirname "${BASH_SOURCE[0]}")/.." archive "$1" src | tar -x -C "$2"
}
