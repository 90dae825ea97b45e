"""Which public calls a traced run wraps, and the per-layer metrics it
reports.

Every span is named after the call it wraps; :data:`LAYER_TIMES` maps
span names to the per-layer time metrics (self time, so a nested call
is never counted twice).  Counters come from what the calls return.
Times and counts are per operation of the workload (``per op``);
ratios are over the whole traced window.
"""

from __future__ import annotations

import repro.analyses.activity
import repro.analyses.registry
import repro.cfg.icfg
import repro.dataflow.incremental
import repro.dataflow.solver
import repro.experiments.table1
import repro.ir.lexer
import repro.ir.parser
import repro.ir.validate
import repro.mpi.matching
import repro.mpi.mpiicfg
import repro.runtime.interpreter
import repro.transforms.nonblocking

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("ir.lex_ms", "ms"),
    ("ir.parse_ms", "ms"),
    ("ir.validate_ms", "ms"),
    ("ir.tokens", "count"),
    ("cfg.icfg_ms", "ms"),
    ("cfg.nodes", "count"),
    ("cfg.edges", "count"),
    ("mpi.match_ms", "ms"),
    ("mpi.candidates", "count"),
    ("mpi.comm_pairs", "count"),
    ("mpi.pair_yield", "ratio"),
    ("mpi.comm_edges_ms", "ms"),
    ("dataflow.solve_ms", "ms"),
    ("dataflow.visits", "count"),
    ("dataflow.transfers", "count"),
    ("dataflow.meets", "count"),
    ("dataflow.edit_ms", "ms"),
    ("dataflow.edit_visits", "count"),
    ("dataflow.edit_visit_ratio", "ratio"),
    ("analyses.run_ms", "ms"),
    ("analyses.render_ms", "ms"),
    ("experiments.table1_ms", "ms"),
    ("experiments.table1_render_ms", "ms"),
    ("transforms.nonblocking_ms", "ms"),
    ("transforms.moved", "count"),
    ("runtime.run_ms", "ms"),
    ("runtime.ms_per_rank", "ms"),
    ("runtime.steps", "count"),
    ("runtime.messages", "count"),
    ("runtime.collectives", "count"),
    ("runtime.blocked_frac", "ratio"),
    ("runtime.verdict_ms", "ms"),
    ("runtime.makespan_ticks", "ticks"),
    ("serving.hit_ms", "ms"),
    ("serving.cold_ms", "ms"),
    ("serving.queue_wait_ms", "ms"),
    ("serving.batch_size", "count"),
    ("serving.solve_ms", "ms"),
    ("serving.render_ms", "ms"),
    ("serving.http_ms", "ms"),
    ("serving.lru_hit_ratio", "ratio"),
    ("serving.coalesced_ratio", "ratio"),
    ("serving.worker_cache_hit_ratio", "ratio"),
    ("setup.import_s", "s"),
    ("setup.warm_s", "s"),
    ("trace.overhead_pct", "%"),
)

#: span name -> per-layer time metric (self time per operation).
LAYER_TIMES = {
    "tokenize": "ir.lex_ms",
    "parse_program": "ir.parse_ms",
    "validate_program": "ir.validate_ms",
    "build_icfg": "cfg.icfg_ms",
    "match_communication": "mpi.match_ms",
    "add_communication_edges": "mpi.comm_edges_ms",
    "build_mpi_icfg": "mpi.comm_edges_ms",
    "solve": "dataflow.solve_ms",
    "IncrementalSolver.cold": "dataflow.solve_ms",
    "activity_analysis": "analyses.run_ms",
    "run_entry": "analyses.run_ms",
    "render_result": "analyses.render_ms",
    "run_benchmark": "experiments.table1_ms",
    "render_table1": "experiments.table1_render_ms",
    "make_nonblocking": "transforms.nonblocking_ms",
    "run_spmd": "runtime.run_ms",
}


def _tokens(tr, result, args, kwargs):
    tr.counters["ir.tokens"] += len(result)


def _graph(tr, result, args, kwargs):
    graph = result.graph
    tr.counters["cfg.nodes"] += len(graph)
    tr.counters["cfg.edges"] += sum(1 for _ in graph.edges())
    tr.counters["cfg.builds"] += 1


def _match(tr, result, args, kwargs):
    tr.counters["mpi.candidates"] += result.candidates
    tr.counters["mpi.comm_pairs"] += len(result.pairs)


def _solved(tr, result, args, kwargs):
    st = result.stats
    tr.counters["dataflow.visits"] += st.visits
    tr.counters["dataflow.transfers"] += st.transfers
    tr.counters["dataflow.meets"] += st.meets


def _incremental(tr, result, args, kwargs):
    if args[0].last_mode == "cold":
        _solved(tr, result, args, kwargs)
        return "IncrementalSolver.cold"
    return "IncrementalSolver.edit"


def _ranks(tr, result, args, kwargs):
    config = args[1] if len(args) > 1 else kwargs.get("config")
    tr.counters["runtime.ranks"] += config.nprocs if config is not None else 2


def targets() -> list:
    """``(owner, attribute, span name, counter)`` for :func:`spans.instrument`."""
    return [
        (repro.ir.lexer, "tokenize", "tokenize", _tokens),
        (repro.ir.parser, "parse_program", "parse_program", None),
        (repro.ir.validate, "validate_program", "validate_program", None),
        (repro.cfg.icfg, "build_icfg", "build_icfg", _graph),
        (repro.mpi.matching, "match_communication", "match_communication", _match),
        (repro.mpi.mpiicfg, "add_communication_edges", "add_communication_edges", None),
        (repro.mpi.mpiicfg, "build_mpi_icfg", "build_mpi_icfg", None),
        (repro.dataflow.solver, "solve", "solve", _solved),
        (repro.dataflow.incremental.IncrementalSolver, "solve", "IncrementalSolver.edit",
         _incremental),
        (repro.analyses.activity, "activity_analysis", "activity_analysis", None),
        (repro.analyses.registry, "run_entry", "run_entry", None),
        (repro.analyses.registry.AnalysisEntry, "render_result", "render_result", None),
        (repro.experiments.table1, "run_benchmark", "run_benchmark", None),
        (repro.experiments.table1, "render_table1", "render_table1", None),
        (repro.transforms.nonblocking, "make_nonblocking", "make_nonblocking", None),
        (repro.runtime.interpreter, "run_spmd", "run_spmd", _ranks),
    ]


def compute(tracer, ops: int, extra: dict) -> tuple[dict, list]:
    """Per-layer metrics plus a printable table of every span name."""
    selfs = tracer.self_times()
    calls = tracer.calls()
    values = {name: 0.0 for name, _unit in PER_LAYER}
    for span, seconds in selfs.items():
        metric = LAYER_TIMES.get(span)
        if metric is not None:
            values[metric] += seconds * 1000.0 / ops
    c = tracer.counters
    builds = c.get("cfg.builds", 0)
    for name in ("cfg.nodes", "cfg.edges"):
        values[name] = c.get(name, 0.0) / builds if builds else 0.0
    for name in ("ir.tokens", "mpi.candidates", "mpi.comm_pairs",
                 "dataflow.visits", "dataflow.transfers", "dataflow.meets"):
        values[name] = c.get(name, 0.0) / ops
    if c.get("mpi.candidates"):
        values["mpi.pair_yield"] = c["mpi.comm_pairs"] / c["mpi.candidates"]
    if c.get("runtime.ranks"):
        values["runtime.ms_per_rank"] = selfs.get("run_spmd", 0.0) * 1000.0 / c["runtime.ranks"]
    values.update(extra)
    total = sum(selfs.values()) or 1.0
    table = [
        f"{span:28s} calls={calls[span]:7d} self_ms={1000.0 * s:11.1f} share={100.0 * s / total:5.1f}%"
        for span, s in sorted(selfs.items(), key=lambda kv: -kv[1])
    ]
    return values, table
