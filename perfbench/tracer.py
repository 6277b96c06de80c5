"""Spans and counters recorded from outside the program.

The tracer wraps public functions and methods of the burnside modules in the
benchmark process only.  A function is replaced under every module that
bound its name (`subgroup_classes` lives in permgroup, tom, census and the
package namespace), so no call path slips past.  Spans are kept in memory as
(name, start, end, parent) and turned into per-layer self times at the end
of each pass: a span's self time is its duration minus that of its children.
"""

import sys
import time
from collections import Counter
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.peaks = {}
        self._stack = []
        self._undo = []
        self.missing = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name):
        if not self.active:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, _clock(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = _clock()
        self._stack.pop()

    def timed(self, fn, name, count=None, on_result=None):
        """Wrapper recording a span per call.

        `name` and `count` are strings or functions of the call's arguments;
        `count` names a counter bumped once per call; `on_result(args,
        result)` records extra counters.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                tracer.counts[count(args) if callable(count) else count] += 1
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, key):
        """Wrapper that only counts calls; for hot functions such as Perm.__mul__."""
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def peak(self, key, value):
        if value > self.peaks.get(key, 0):
            self.peaks[key] = value

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.peaks.clear()
        self._stack.clear()

    # -- installing --------------------------------------------------------

    def patch_function(self, module_name, attr, make):
        """Replace module_name.attr in every burnside module bound to it."""
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "burnside":
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self._undo.append((mod, attr, original))

    def patch_method(self, module_name, cls_name, attr, make):
        cls = getattr(sys.modules.get(module_name), cls_name, None)
        original = cls.__dict__.get(attr) if cls is not None else None
        if original is None:
            self.missing.append(f"{module_name}.{cls_name}.{attr}")
            return
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reading -----------------------------------------------------------

    def self_times(self):
        """Self time per span name over the spans recorded since reset()."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out
