"""In-process tracer that wraps dcasim's public functions from outside.

A traced function is replaced by a wrapper in every ``dcasim`` module
namespace that binds it (for example ``dcasim.integrator.rhs_vector`` and
``dcasim.rhs.rhs_vector``), so the package's own call sites go through the
wrapper without any change to the package.

Every wrapped call pushes a frame on one stack.  On return its duration is
added to the parent frame's child time, and its self time is the duration
minus that child time.  Ordinary calls also record a span
``(name, start, end, parent)``; hot leaf calls (thousands per run) are only
aggregated into a call count and a total, which keeps the overhead to two
clock reads and a few list operations per call.
"""

from __future__ import annotations

import functools
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent span index]
        self.calls = {}      # name -> number of calls
        self.total = {}      # name -> summed duration (s)
        self.self_s = {}     # name -> summed self time (s)
        self._stack = []     # frames: [child time, enclosing span index]
        self._patched = []   # (module, attribute, original)

    def wrap(self, name, fn, hot=False, on_return=None):
        """Return a recording wrapper around ``fn``.

        ``on_return(args, result)`` runs after the clock stops, so work it
        does is charged to the caller's self time.
        """
        stack, spans = self._stack, self.spans
        calls, total, self_s = self.calls, self.total, self.self_s
        calls.setdefault(name, 0)
        total.setdefault(name, 0.0)
        self_s.setdefault(name, 0.0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if hot:
                span = parent
            else:
                span = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            frame = [0.0, span]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                if stack:
                    stack[-1][0] += d
                calls[name] += 1
                total[name] += d
                self_s[name] += d - frame[0]
                if not hot:
                    spans[span][1] = t0
                    spans[span][2] = t1
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def patch(self, fn, name, hot=False, on_return=None):
        """Rebind every ``dcasim`` module attribute that is ``fn``."""
        wrapper = self.wrap(name, fn, hot=hot, on_return=on_return)
        found = False
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "dcasim" or modname.startswith("dcasim.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{name}: no dcasim module binds {fn!r}")
        return wrapper

    def unpatch(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
