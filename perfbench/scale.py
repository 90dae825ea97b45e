"""``scale``: cold ``repro analyze`` over a generated SPMD corpus, plus
an edit stream re-solved incrementally.

One operation is one cold analyze: parse -> (validate inside the graph
build) -> MPI-ICFG (plain ICFG for the model-free entries, as the CLI
does) -> one registry entry with its default request -> render.  Every
operation analyses a program generated for it alone.  Each round also
runs :data:`EDITS` single-statement edits on one more program through
``IncrementalSolver`` (its defaults), each answered by a re-solve.
"""

from __future__ import annotations

import random
import statistics

import checks
import corpus
from common import Workload

import repro.analyses.activity as activity
import repro.analyses.registry as registry
import repro.cfg as cfg
import repro.dataflow as dataflow
import repro.dataflow.incremental as incremental
import repro.ir as ir
import repro.ir.builder as builder
import repro.mpi as mpi
from repro.analyses.mpi_model import MPI_BUFFER_QNAME, MpiModel
from repro.cfg.node import AssignNode

#: (family, size, clone level, registry entry) for the operations of a
#: round: each registry entry once, every family, clone levels 1-3,
#: ~1.2k-2.2k ICFG nodes.  Sizes are fixed so that rounds cost the same,
#: and chosen so that every kind of operation costs about the same
#: (~250 ms on the reference machine): the latency samples of a run are
#: one blend of all eight entries, and its median and 90th percentile
#: rest on that blend rather than on one kind, or on the gap between two.
ROUND = (
    ("halo", 50, 1, "vary"),
    ("farm", 45, 1, "taint"),
    ("tree", 40, 2, "useful"),
    ("tree", 35, 3, "reaching-constants"),
    ("halo", 65, 2, "liveness"),
    ("farm", 32, 2, "activity"),
    ("pipeline", 40, 3, "reaching-defs"),
    ("halo", 42, 3, "bitwidth"),
)
#: The program the edit stream runs on, and edits (pairs of
#: rewrite + restore) per round.
EDIT_PROGRAM = ("halo", 40, 2)
EDITS = 6


def analyze(prog: corpus.Program, entry):
    """One cold ``repro analyze``; returns (icfg, match, request, result, text)."""
    program = ir.parse_program(prog.source)
    if entry.supports_model:
        icfg, match = mpi.build_mpi_icfg(program, prog.root, clone_level=prog.clone_level)
    else:
        icfg = cfg.build_icfg(program, prog.root, clone_level=prog.clone_level)
        match = None
    req = registry.AnalyzeRequest(
        independents=tuple(prog.independents), dependents=tuple(prog.dependents)
    )
    result = registry.run_entry(entry, icfg, req)
    return icfg, match, req, result, entry.render_result(icfg, req, result)


def comm_lines(icfg, match) -> set:
    node = icfg.graph.node
    return {(node(p.src).loc.line, node(p.dst).loc.line) for p in match.pairs}


class Scale(Workload):
    def setup(self) -> dict:
        self.rounds = 0
        self.edit_ms: list[float] = []
        self.edit_visits = 0
        self.cold_visits = 0
        return {}

    def _program(self, family, size, depth, k):
        uid = f"s{self.seed}r{self.rounds}o{k}"
        return corpus.FAMILIES[family](self.seed, uid, size, depth)

    def round(self) -> None:
        led = self.ledger
        for k, (family, size, depth, name) in enumerate(ROUND):
            prog = self._program(family, size, depth, k)
            entry = registry.get(name)
            icfg, match, req, result, text = led.timed(analyze, prog, entry)
            with self._checking():
                self._check_op(prog, entry, icfg, match, result, text)
        self._edit_stream()
        self.rounds += 1

    def _check_op(self, prog, entry, icfg, match, result, text) -> None:
        led = self.ledger
        led.check(text.startswith(f"analysis  : {entry.name}"), f"{prog.name}: bad rendering")
        if match is not None:
            for error in checks.wired_pairs(
                comm_lines(icfg, match), prog.wired, prog.collective_groups
            ):
                led.check(False, f"{prog.name}: {error}")
        if entry.name == "activity":
            errors = checks.activity_is_intersection(
                result.active_qnames, result.vary, result.useful,
                list(icfg.graph.nodes), synthetic=(MPI_BUFFER_QNAME,),
            )
            plain = cfg.build_icfg(
                ir.parse_program(prog.source), prog.root, clone_level=prog.clone_level
            )
            arm = activity.activity_analysis(
                plain, prog.independents, prog.dependents, MpiModel.GLOBAL_BUFFER
            )
            errors += checks.subset(result.active_qnames, arm.active_qnames, prog.name)
            for error in errors:
                led.check(False, f"{prog.name}: {error}")

    def _edit_stream(self) -> None:
        led = self.ledger
        family, size, depth = EDIT_PROGRAM
        prog = self._program(family, size, depth, "edit")
        entry = registry.get("vary")
        req = registry.AnalyzeRequest(independents=tuple(prog.independents))
        with self._checking():
            icfg, _ = mpi.build_mpi_icfg(
                ir.parse_program(prog.source), prog.root, clone_level=prog.clone_level
            )
            graph = icfg.graph
            g_entry, g_exit = icfg.entry_exit(icfg.root)

            def factory():
                return entry.make_problem(icfg, req)

            solver = incremental.IncrementalSolver(graph, g_entry, g_exit, factory)
            solver.solve()
        by_line: dict[int, list] = {}
        for nid in sorted(graph.nodes):
            node = graph.node(nid)
            if isinstance(node, AssignNode):
                by_line.setdefault(node.loc.line, []).append(nid)
        lines = sorted(line for line in prog.edit_lines if line in by_line)
        rng = random.Random(f"edits:{self.seed}:{self.rounds}")
        # Stratified over the program so every round edits early, middle
        # and late statements alike.
        picks = [
            lines[min(len(lines) - 1, (i * len(lines)) // EDITS + rng.randrange(0, 2))]
            for i in range(EDITS)
        ]
        for i, line in enumerate(picks):
            node = graph.node(by_line[line][0])
            original = node.value
            for value in (builder.lit(float(i) + 0.5), original):

                def edit(node=node, value=value):
                    node.value = value
                    graph.touch_node(node.id)
                    return solver.solve()

                got = led.timed(edit, into=self.edit_ms, fresh_heap=False)
                with self._checking():
                    cold = dataflow.solve(graph, g_entry, g_exit, factory())
                self.edit_visits += got.stats.visits
                self.cold_visits += cold.stats.visits
                for error in checks.same_facts(got, cold, f"{prog.name} line {line}"):
                    led.check(False, error)

    def layer_counters(self) -> dict:
        return {
            "dataflow.edit_ms": statistics.median(self.edit_ms),
            "dataflow.edit_visits": self.edit_visits / len(self.edit_ms),
            "dataflow.edit_visit_ratio": self.edit_visits / max(1, self.cold_visits),
        }
