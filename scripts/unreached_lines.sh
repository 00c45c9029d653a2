#!/bin/bash
# Prints every line of src/blocksets/ that the tier-1 tests never execute,
# as path:line: source, then a count of them among the executable lines.
# It uses the standard library only: pytest runs in this process under a
# sys.settrace (and threading.settrace) hook that records each line of
# the package as it runs.  The executable lines are those the compiler
# gives bytecode (each code object's co_lines()).  Lines that run only in
# a child process (`python -m blocksets` through subprocess, the workers
# of a real process pool) count as never executed here.
#
#   bash scripts/unreached_lines.sh [pytest args]
#
# The arguments go to pytest (default: the tier-1 options, every test).
# It exits with pytest's status.  Tracing makes the tests several times
# slower, so it is not part of run_all.sh.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
exec python3 - "$root/src/blocksets" "$@" <<'EOF'
import os
import sys
import threading

import pytest

pkg = os.path.realpath(sys.argv[1])
args = sys.argv[2:] or ["-q", "-p", "no:cacheprovider",
                        "--continue-on-collection-errors"]


def code_lines(code, out):
    """Adds the lines of `code` and of every code object nested in it."""
    out.update(line for _start, _end, line in code.co_lines() if line)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            code_lines(const, out)


executable = {}
for name in sorted(os.listdir(pkg)):
    if name.endswith(".py"):
        path = os.path.join(pkg, name)
        with open(path) as fh:
            source = fh.read()
        lines = set()
        code_lines(compile(source, path, "exec"), lines)
        executable[path] = (lines, source.splitlines())

ran = {path: set() for path in executable}
seen = {}   # per code object: (its lines not yet run, its file's lines run)
files = {}  # per co_filename: its lines run, None outside the package


def local(frame, event, _arg):
    if event == "line":
        todo, done = seen[frame.f_code]
        todo.discard(frame.f_lineno)
        done.add(frame.f_lineno)
        if not todo:  # every line of this code has run: stop reporting
            frame.f_trace_lines = False
    return local


def tracer(frame, event, _arg):
    code = frame.f_code
    entry = seen.get(code)
    if entry is None:
        name = code.co_filename
        if name not in files:
            files[name] = ran.get(os.path.realpath(name))
        if files[name] is None:
            return None
        entry = seen[code] = (
            {line for _s, _e, line in code.co_lines() if line}, files[name])
    todo, done = entry
    todo.discard(frame.f_lineno)
    done.add(frame.f_lineno)
    return local if todo else None


threading.settrace(tracer)
sys.settrace(tracer)
try:
    status = pytest.main(args)
finally:
    sys.settrace(None)
    threading.settrace(None)

total = missed = 0
for path in sorted(executable):
    lines, text = executable[path]
    rel = os.path.relpath(path, os.getcwd())
    for line in sorted(lines - ran[path]):
        print("%s:%d: %s" % (rel, line, text[line - 1].strip()))
    total += len(lines)
    missed += len(lines - ran[path])
print("%d of %d executable lines never executed" % (missed, total))
sys.exit(status)
EOF
