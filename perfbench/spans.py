"""Span recorder that wraps the library's functions from outside.

Each wrapped function is replaced at every module attribute that holds it
(the defining module, every module that imported it by name, and the package
namespace), so a call is recorded wherever the caller looks the name up.
Modules are fetched with ``importlib.import_module``: ``import
sparseproj.pade as m`` would bind the function ``pade`` that the package
re-exports under the same name.

A timed span records calls and self time: its duration less the durations of
the wrapped spans it encloses.  A counted span records calls only, and its
time stays in the self time of the span that called it.  It serves functions
whose metrics are counts, among them kernels called so often that timing
each call would add more than the call costs.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Recorder:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.values = defaultdict(int)
        self.stack = []          # [name, enclosed seconds] per open span
        self.recorder_s = 0.0    # measured bookkeeping time of timed spans
        self._patched = []
        self._last_exc = None

    # -- wrappers ------------------------------------------------------------

    def timed(self, name, fn, on_call=None, on_return=None, on_error=None):
        rec = self
        stack = self.stack

        def wrapper(*args, **kwargs):
            t0 = _clock()
            rec.calls[name] += 1
            if on_call is not None:
                on_call(rec, args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            result = done = None
            t1 = _clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            except BaseException as exc:
                # count an exception once, in the innermost span it left
                if exc is not rec._last_exc:
                    rec._last_exc = exc
                    rec.errors[(name, type(exc).__name__)] += 1
                    if on_error is not None:
                        on_error(rec, exc)
                raise
            finally:
                t2 = _clock()
                stack.pop()
                rec.self_s[name] += (t2 - t1) - frame[1]
                if done and on_return is not None:
                    on_return(rec, result)
                t3 = _clock()
                rec.recorder_s += (t1 - t0) + (t3 - t2)
                if stack:
                    stack[-1][1] += t3 - t0

        return wrapper

    def counted(self, name, fn, on_call=None):
        calls = self.calls
        rec = self

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if on_call is not None:
                on_call(rec, args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, specs):
        """Wrap each (module, attribute, kind, metric name, hooks) in ``specs``.

        A spec whose module or attribute no longer exists is skipped: its
        metrics then read 0, and the run still measures everything else.
        """
        holders = [m for k, m in sorted(sys.modules.items())
                   if (k == "sparseproj" or k.startswith("sparseproj.")) and m is not None]
        for module_name, attr, kind, name, hooks in specs:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            if kind == "timed":
                wrapper = self.timed(name, fn, **hooks)
            else:
                wrapper = self.counted(name, fn, **hooks)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, fn))

    def uninstall(self):
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched.clear()

    def open_names(self):
        return [frame[0] for frame in self.stack]


def calibrate_counted(rounds: int = 200_000) -> float:
    """Seconds one counted wrapper adds to a call, measured on a no-op."""
    def noop(*args, **kwargs):
        return None

    wrapped = Recorder().counted("noop", noop)
    best = None
    for _ in range(3):
        t0 = _clock()
        for _ in range(rounds):
            noop(1)
        t1 = _clock()
        for _ in range(rounds):
            wrapped(1)
        t2 = _clock()
        cost = max(0.0, ((t2 - t1) - (t1 - t0)) / rounds)
        best = cost if best is None else min(best, cost)
    return best
