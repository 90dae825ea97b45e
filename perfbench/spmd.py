"""``spmd``: the interpreter with event recording, the overlap
transform, and deadlock verdicts.

Per round, every program runs with events on and off under
``linear:10:0.01``, goes through ``make_nonblocking`` and runs again
transformed; then the deadlock pack runs under a short watchdog.  Each
``run_spmd`` and each ``make_nonblocking`` call is one operation; the
latency samples are the runs of the programs (sorted by cost, the
8-rank ring holds the median and LU-1 the 90th percentile), while
transforms and deadlock verdicts are timed apart.
"""

from __future__ import annotations

import statistics

import checks
import corpus
from common import Workload

import repro.mpi as mpi
import repro.ir as ir
import repro.runtime as runtime
import repro.transforms as transforms
from repro.programs.registry import BENCHMARKS

LATENCY = "linear:10:0.01"
#: Watchdog for the deadlock pack.  Every rank of those programs blocks
#: within microseconds of starting, so the verdict sees all of them.
DEADLOCK_TIMEOUT_S = 0.2
#: Rank counts of the generated ring programs.
RING_RANKS = (2, 4, 8, 16, 32)
#: LU-1 and Sw-3 at the committed extents and rank counts of
#: benchmarks/bench_interp.py.
REGISTRY_RUNS = (
    ("LU-1", 2, {"u": 600, "rsd": 640, "flux": 400, "jac": 100,
                 "hbuf3": 40, "hbuf1": 40, "nfrct": 40}),
    ("Sw-3", 3, {"flux": 512, "face": 10, "phi": 8, "edge": 18,
                 "prbuf": 64, "leak": 6, "angles": 8}),
)
#: Runs whose transformed makespan is known to exceed the original's
#: (see CHANGES.md): counted as failed operations, not as errors.
KNOWN_MAKESPAN_FAULTS = {("Sw-3", 3)}


def _origin(proc: str) -> str:
    return proc.split("$", 1)[0]


def static_sites(program, clone_level: int) -> set:
    """(send site, recv site) pairs of the static COMM edges from main.

    Graph edges, not match pairs: a non-blocking receive's edge ends at
    its wait, which is where the runtime records the message arriving.
    """
    icfg, _ = mpi.build_mpi_icfg(program, "main", clone_level=clone_level)
    graph = icfg.graph
    out = set()
    for edge in graph.comm_edges:
        s, r = graph.node(edge.src), graph.node(edge.dst)
        out.add(((_origin(s.proc), s.loc.line), (_origin(r.proc), r.loc.line)))
    return out


class Spmd(Workload):
    def setup(self) -> dict:
        latency = runtime.LatencyModel.parse(LATENCY)
        self.runs = []
        for name, nprocs, sizes in REGISTRY_RUNS:
            spec = BENCHMARKS[name]
            merged = dict(spec.sizes)
            merged.update(sizes)
            program = spec.builder(**merged)
            self.runs.append({
                "label": (name, nprocs), "program": program, "root": spec.root,
                "nprocs": nprocs, "expected": None,
                "sites": static_sites(program, spec.clone_level),
            })
        for nprocs in RING_RANKS:
            prog = corpus.ring(self.seed, nprocs)
            program = ir.parse_program(prog.source)
            self.runs.append({
                "label": (prog.name, nprocs), "program": program, "root": None,
                "nprocs": nprocs, "expected": prog.expected_values,
                "sites": static_sites(program, 0),
            })
        for run in self.runs:
            run["on"] = runtime.RunConfig(
                nprocs=run["nprocs"], record_events=True, latency=latency
            )
            run["off"] = runtime.RunConfig(nprocs=run["nprocs"], latency=latency)
        self.deadlocks = [
            (prog, ir.parse_program(prog.source)) for prog in corpus.deadlock_pack(self.seed)
        ]
        self.verdict_ms: list[float] = []
        self.transform_ms: list[float] = []
        self.run_stats = {"runs": 0, "ranks": 0, "steps": 0, "messages": 0,
                          "collectives": 0, "blocked": 0.0, "capacity": 0.0}
        self.moved = 0
        self.transforms = 0
        self.makespan = 0.0
        return {}

    def round(self) -> None:
        led = self.ledger
        makespan = 0.0
        for run in self.runs:
            program, label = run["program"], run["label"]
            on = led.timed(runtime.run_spmd, program, run["on"])
            off = led.timed(runtime.run_spmd, program, run["off"])
            result = led.timed(
                transforms.make_nonblocking, program, root=run["root"], into=self.transform_ms
            )
            after = led.timed(runtime.run_spmd, result.program, run["on"])
            with self._checking():
                errors = checks.same_state(on, off, f"{label} events on/off")
                errors += checks.observed_pairs(on, run["sites"])
                errors += checks.same_state(on, after, f"{label} transformed")
                if run["expected"] is not None:
                    errors += checks.rank_values(on, run["expected"], ("a", "b", "c", "tot", "gsum"))
                for error in errors:
                    led.check(False, f"{label}: {error}")
                led.check(
                    not checks.makespan_not_worse(on.makespan, after.makespan, str(label)),
                    f"{label}: transformed makespan {after.makespan:g} > {on.makespan:g}",
                    known_fault=label in KNOWN_MAKESPAN_FAULTS,
                )
                self._count(on)
                self.moved += result.hoisted + result.sunk
                self.transforms += 1
                makespan += after.makespan
        self.makespan = makespan
        for prog, program in self.deadlocks:
            config = runtime.RunConfig(nprocs=prog.nprocs, timeout=DEADLOCK_TIMEOUT_S)
            # The verdict waits on the watchdog's wall clock: not scaled.
            error = led.timed(
                self._deadlock, program, config, into=self.verdict_ms, scaled=False
            )
            for message in checks.verdict(error, prog.expected_cycle):
                led.check(False, f"{prog.name}: {message}")

    @staticmethod
    def _deadlock(program, config):
        try:
            runtime.run_spmd(program, config)
        except runtime.DeadlockError as exc:
            return exc
        return RuntimeError("run finished without a deadlock")

    def _count(self, result) -> None:
        st = self.run_stats
        span = result.makespan
        st["runs"] += 1
        st["ranks"] += len(result.ranks)
        st["capacity"] += span * len(result.ranks)
        for rank in result.ranks:
            st["steps"] += sum(rank.step_counts.values())
            for ev in rank.events:
                if ev.kind == "send":
                    st["messages"] += 1
                elif ev.kind == "collective":
                    st["collectives"] += 1.0 / len(result.ranks)
                if ev.kind in ("recv", "collective"):
                    st["blocked"] += ev.t1 - ev.t0

    def layer_counters(self) -> dict:
        st = self.run_stats
        return {
            "runtime.steps": st["steps"] / st["runs"],
            "runtime.messages": st["messages"] / st["runs"],
            "runtime.collectives": st["collectives"] / st["runs"],
            "runtime.blocked_frac": st["blocked"] / st["capacity"],
            "runtime.verdict_ms": statistics.median(self.verdict_ms),
            "runtime.makespan_ticks": self.makespan,
            "transforms.moved": self.moved / self.transforms,
        }
