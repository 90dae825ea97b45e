"""In-memory spans around the public calls the benchmark makes.

A traced run (``--trace 1``) wraps each public function of the layers
under test -- wherever a module of the repository holds a reference to
it -- so that nested calls are seen too: ``parse_program`` calls
``tokenize``, ``build_icfg`` calls ``validate_program``, every analysis
calls ``solve``.  Each wrapper records a span (name, start, end, parent)
and folds the counters the call already returns (token counts,
``SolverStats``, ``MatchResult``, graph sizes) into the tracer.  Spans
stay in memory until the run ends; :meth:`Tracer.self_times` then
subtracts every span's children from its duration.

Untraced runs never import this module's wrappers into the call path:
:func:`instrument` is only called for ``--trace 1``.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Optional

__all__ = ["Tracer", "instrument"]


class Tracer:
    """Span store plus counters (see module docstring)."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.active = True
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, count: Optional[Callable] = None) -> Callable:
        """``fn`` with a span named ``name``; ``count(tracer, result,
        args, kwargs)`` may rename the span by returning a string."""

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else -1
            with self._lock:
                idx = len(self.spans)
                self.spans.append([name, time.perf_counter(), 0.0, parent])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if count is not None:
                renamed = count(self, result, args, kwargs)
                if renamed:
                    self.spans[idx][0] = renamed
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return dict(out)


def _replace_everywhere(original, wrapper, prefixes) -> list:
    """Point every module-level reference to ``original`` at ``wrapper``."""
    undo = []
    for modname, module in list(sys.modules.items()):
        if module is None or not modname.startswith(prefixes):
            continue
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, wrapper)
                undo.append((module, attr, original))
    return undo


def instrument(tracer: Tracer, targets, prefixes=("repro",)) -> Callable[[], None]:
    """Wrap each ``(owner, attr, span name, count)`` target.

    ``owner`` is a module (every module whose name starts with one of
    ``prefixes`` and refers to the function is patched) or a class (its
    method is patched).  Returns a function that undoes everything.
    """
    undo = []
    for owner, attr, name, count in targets:
        original = getattr(owner, attr)
        wrapper = tracer.wrap(original, name, count)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            undo.append((owner, attr, original))
        else:
            undo += _replace_everywhere(original, wrapper, prefixes)

    def restore() -> None:
        for target, attr, value in reversed(undo):
            setattr(target, attr, value)

    return restore
