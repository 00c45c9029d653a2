"""In-memory spans around calls into blocksets' modules.

The program is not edited.  `Tracer.installed` swaps each traced public
function for a wrapper in every module namespace that holds it (the package
imports names directly, so `blocking.build_instance` is bound in `cli`,
`braid` and `blocking` alike) and restores the originals on exit.  A span
records its name, the instance it belongs to, its parent span and its start
and end; counts are recorded at the same boundaries.
"""

import contextlib
import functools
from time import perf_counter


class Tracer:
    """Spans and counts of one benchmark run, kept in memory."""

    def __init__(self):
        self.spans = []     # [name, case, parent, start, end]
        self.counts = []    # (case, name, value)
        self.case = None
        self._stack = []
        self._trace_calls = 0

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, self.case, self._stack[-1] if self._stack else None,
               perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[4] = perf_counter()
            self._stack.pop()

    def count(self, name, value):
        self.counts.append((self.case, name, value))

    def _wrap(self, name, fn, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(self) if callable(name) else name
            with self.span(label):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, args, out)
            return out
        return wrapper

    @contextlib.contextmanager
    def installed(self, modules, targets):
        """targets: (owner module, attribute, span name or callable giving
        it, on_result(tracer, args, result) or None)."""
        undo = []
        try:
            for owner, attr, name, on_result in targets:
                orig = getattr(owner, attr)
                wrapper = self._wrap(name, orig, on_result)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, orig))
            yield self
        finally:
            for mod, key, orig in reversed(undo):
                setattr(mod, key, orig)

    def build_label(self):
        self._trace_calls = 0
        return "blocking.build_instance"

    def trace_kind(self):
        """The first trace enumeration inside build_instance is the family
        (dimension n-t), the next the forbidden side (dimension t)."""
        self._trace_calls += 1
        if self._trace_calls == 1:
            return "arrangement.family_traces"
        return "arrangement.forbidden_traces"

    def totals(self, select, scale):
        """Seconds per span name, and cli.main self time, over the spans
        whose case satisfies `select`; each span's seconds are multiplied by
        scale(start, end)."""
        secs = {}
        dur = [0.0] * len(self.spans)
        child = [0.0] * len(self.spans)
        for i, (name, case, parent, start, end) in enumerate(self.spans):
            if not select(case):
                continue
            dur[i] = (end - start) * scale(start, end)
            secs[name] = secs.get(name, 0.0) + dur[i]
            if parent is not None:
                child[parent] += dur[i]
        self_main = sum(dur[i] - child[i] for i, s in enumerate(self.spans)
                        if s[0] == "cli.main")
        return secs, self_main

    def count_totals(self, select):
        out = {}
        for case, name, value in self.counts:
            if select(case):
                out[name] = out.get(name, 0) + value
        return out
