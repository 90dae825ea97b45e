"""Shared pieces of the workloads: the op ledger and small helpers."""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
import time
from typing import Callable

import numpy as np

__all__ = [
    "Ledger",
    "Workload",
    "calibrate",
    "speed_factor",
    "peak_rss_mb",
    "arrays_equal",
]

#: Iterations of the calibration loop, and its duration in ms on the
#: reference machine (the 2-vCPU container the README figures come
#: from, when no other tenant loads it).  Times are reported as
#: reference-machine ms: each wall time is scaled by how fast the
#: calibration loop ran right beside it.
CAL_ITERS = 20_000
CAL_REF_MS = 1.8


def _calibration_body(n: int) -> int:
    table = {}
    acc = 0
    for i in range(n):
        table[i & 255] = acc
        acc += i * i
    return acc


def calibrate() -> float:
    """Wall ms of one pass of the calibration loop."""
    t0 = time.perf_counter()
    _calibration_body(CAL_ITERS)
    return (time.perf_counter() - t0) * 1000.0


def speed_factor(samples) -> float:
    """Reference ms per measured ms, from calibration samples."""
    return CAL_REF_MS / statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def arrays_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.shape == b.shape
            and np.array_equal(a, b)
        )
    return a == b


class Ledger:
    """Counts and times the operations of one run.

    ``timed`` records one operation's latency; a check that fails turns
    into an error (``correct`` false) unless the operation is a known
    fault, which is counted in ``failed`` instead.
    """

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        #: Reference-machine seconds and wall seconds spent in the load.
        self.busy_s = 0.0
        self.wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _run(self, fn, args, kwargs, fresh_heap=True, scaled=True):
        """``(result, reference seconds, wall seconds)`` of one call,
        calibrated on both sides.  With ``fresh_heap`` the call starts
        from a collected heap, as a cold command would in a fresh
        process."""
        if fresh_heap:
            gc.collect()
        before = calibrate()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        after = calibrate()
        ref = wall * CAL_REF_MS * 2.0 / (before + after) if scaled else wall
        return result, ref, wall

    def timed(
        self,
        fn: Callable,
        *args,
        into: list | None = None,
        fresh_heap: bool = True,
        scaled: bool = True,
        **kwargs,
    ):
        """Run ``fn`` as one operation; returns its result.  Its latency
        (reference ms) goes to ``into`` (default: the ``op_ms`` samples).
        Pass ``fresh_heap=False`` for warm operations that continue the
        previous one's state, and ``scaled=False`` for operations that
        mostly wait on a wall-clock timer (their wall time is reported)."""
        self.attempted += 1
        result, ref, wall = self._run(fn, args, kwargs, fresh_heap, scaled)
        (self.latencies_ms if into is None else into).append(ref * 1000.0)
        self.busy_s += ref
        self.wall_s += wall
        return result

    def busy(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` as part of the load without counting it as an
        operation of its own (its time still counts against throughput)."""
        result, ref, wall = self._run(fn, args, kwargs)
        self.busy_s += ref
        self.wall_s += wall
        return result

    def check(self, ok: bool, message: str, known_fault: bool = False) -> bool:
        if not ok:
            if known_fault:
                self.failed += 1
            else:
                self.errors.append(message)
        return ok

    def metrics(self) -> dict:
        lat = self.latencies_ms
        return {
            "op_ms_p50": (statistics.median(lat), "ms"),
            "op_ms_p90": (statistics.quantiles(lat, n=10, method="inclusive")[8], "ms"),
            "ops_per_s": (self.attempted / self.busy_s, "1/s"),
        }


class Workload:
    """Interface every workload implements (see ``run.py``)."""

    def __init__(self, seed: int, ledger: Ledger, tracer=None) -> None:
        self.seed = seed
        self.ledger = ledger
        self.tracer = tracer

    def setup(self) -> dict:
        """Generate inputs and warm up; returns named set-up seconds."""
        return {}

    def round(self) -> None:
        """One whole round of operations."""
        raise NotImplementedError

    def run_window(self, seconds: float) -> None:
        """Whole rounds until the operations have run for ``seconds``
        of wall time (checks between operations do not count)."""
        start = self.ledger.wall_s
        while self.ledger.wall_s - start < seconds:
            self.round()

    def start_tracing(self) -> None:
        """Called between the untraced and the traced half of a traced run."""

    def finish(self) -> None:
        """Deferred output checks, after the timed window."""

    def end_to_end(self) -> dict:
        """``{name: (value, unit)}`` beyond the ledger's own metrics."""
        return {"peak_rss_mb": (peak_rss_mb(), "MB")}

    def layer_counters(self) -> dict:
        """Workload-level per-layer figures for a traced run."""
        return {}

    def close(self) -> None:
        """Stop anything the workload started."""

    def _checking(self):
        """Checks run untraced, so they never count as layer time."""
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()
