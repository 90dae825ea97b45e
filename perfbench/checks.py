"""Output checks.  Each returns a list of error strings (empty = pass).

The references come from outside the code under test: the published
Table 1 figures (``table1_published.json``), the corpus generator's own
statements (wired pairs, collective groups, numpy rank values, deadlock
cycles), and renderings the client computes itself.

``python3 perfbench/checks.py --rebuild-published`` rewrites
``table1_published.json`` from the paper transcription in
``repro.programs.registry``.
"""

from __future__ import annotations

import json
import pathlib
import sys

from common import arrays_equal

PUBLISHED = pathlib.Path(__file__).resolve().parent / "table1_published.json"

__all__ = [
    "load_published",
    "table1_exact",
    "table1_shape",
    "wired_pairs",
    "activity_is_intersection",
    "subset",
    "same_facts",
    "rank_values",
    "same_state",
    "observed_pairs",
    "makespan_not_worse",
    "verdict",
    "response",
]


def load_published() -> dict:
    return json.loads(PUBLISHED.read_text())


def table1_exact(name: str, measured: dict, published: dict) -> list:
    """Active and derivative bytes of both arms equal the paper's."""
    errors = []
    for key in ("icfg_active_bytes", "mpi_active_bytes", "icfg_deriv_bytes", "mpi_deriv_bytes"):
        if measured[key] != published[key]:
            errors.append(f"{name}: {key} {measured[key]} != published {published[key]}")
    return errors


#: (larger, smaller): the larger row's dependents contain the smaller's
#: with the same independents, so its active set cannot be smaller.
MONOTONE = (("Sw-5", "Sw-1"), ("Sw-5", "Sw-3"), ("Sw-6", "Sw-4"))


def table1_shape(rows: dict, noted: list) -> list:
    """Noted rows: MPI-ICFG bytes <= ICFG bytes; dependent-set
    monotonicity between Sweep3d rows on both arms."""
    errors = []
    for name in noted:
        r = rows[name]
        if r["mpi_active_bytes"] > r["icfg_active_bytes"]:
            errors.append(f"{name}: MPI-ICFG bytes exceed ICFG bytes")
    for big, small in MONOTONE:
        for arm in ("icfg_active_bytes", "mpi_active_bytes"):
            if rows[big][arm] < rows[small][arm]:
                errors.append(f"{big} {arm} below {small}'s")
    return errors


def wired_pairs(comm_lines: set, wired, groups) -> list:
    """``comm_lines`` holds (src line, dst line) of every COMM pair: it
    must contain each wired send->recv pair and every ordered pair of
    distinct lines inside a collective group."""
    errors = []
    for pair in wired:
        if tuple(pair) not in comm_lines:
            errors.append(f"wired pair {pair} has no COMM edge")
    for group in groups:
        for a in group:
            for b in group:
                if a != b and (a, b) not in comm_lines:
                    errors.append(f"collective lines {a}->{b} not matched")
                    break
    return errors


def activity_is_intersection(active: frozenset, vary, useful, node_ids, synthetic=()) -> list:
    """The active set equals the union over nodes of Vary ∩ Useful."""
    expect = set()
    for nid in node_ids:
        expect |= vary.in_fact(nid) & useful.in_fact(nid)
        expect |= vary.out_fact(nid) & useful.out_fact(nid)
    expect -= set(synthetic)
    if expect != set(active):
        diff = sorted(expect ^ set(active))[:4]
        return [f"active set is not Vary ∩ Useful (differs on {diff})"]
    return []


def subset(small, big, what: str) -> list:
    extra = sorted(set(small) - set(big))
    return [f"{what}: {extra[:4]} not in the larger set"] if extra else []


def same_facts(a, b, what: str) -> list:
    if a.before != b.before or a.after != b.after:
        return [f"{what}: incremental facts differ from a cold solve"]
    return []


def rank_values(result, expected: list, names) -> list:
    errors = []
    for r, want in enumerate(expected):
        got = result.ranks[r].values
        for name in names:
            if name not in got or not arrays_equal(got[name], want[name]):
                errors.append(f"rank {r}: {name} differs from the numpy reference")
    return errors


def _comparable(values: dict) -> dict:
    # The overlap transform adds request handles named req_ov*.
    return {k: v for k, v in values.items() if not k.startswith("req_ov")}


def same_state(a, b, what: str) -> list:
    for ra, rb in zip(a.ranks, b.ranks):
        va, vb = _comparable(ra.values), _comparable(rb.values)
        if set(va) != set(vb) or not all(arrays_equal(va[k], vb[k]) for k in va):
            return [f"{what}: final state of rank {ra.rank} differs"]
    return []


def observed_pairs(result, static_sites: set) -> list:
    """Every observed send->recv (proc, line) pair is a static COMM pair."""
    errors = []
    by_rank = [r.events for r in result.ranks]
    for events in by_rank:
        for ev in events:
            if ev.kind != "recv" or ev.matched is None:
                continue
            src_rank, src_seq = ev.matched
            send = by_rank[src_rank][src_seq]
            pair = ((send.proc, send.line), (ev.proc, ev.line))
            if pair not in static_sites:
                errors.append(f"observed message {pair} has no static COMM edge")
    return errors


def makespan_not_worse(before: float, after: float, what: str) -> list:
    if after > before:
        return [f"{what}: transformed makespan {after:g} > original {before:g}"]
    return []


#: How the runtime's verdict text starts, for each kind of deadlock.
VERDICT_KINDS = {True: "genuine deadlock", False: "lost or mismatched message"}


def verdict(exc, expected_cycle) -> list:
    """The wait-for verdict is of the expected kind (cyclic wait or lost
    message) and names the expected cycle (``None``: no cycle)."""
    graph = getattr(exc, "wait_for", None)
    if graph is None:
        return [f"no wait-for graph on {type(exc).__name__}: {exc}"]
    errors = []
    got = graph.cycle()
    if got != expected_cycle:
        errors.append(f"deadlock verdict cycle {got} != expected {expected_cycle}")
    kind = VERDICT_KINDS[expected_cycle is not None]
    if not graph.verdict().startswith(kind):
        errors.append(f"deadlock verdict {graph.verdict()[:40]!r}... is not {kind!r}")
    return errors


def response(status: int, body: str, expected: str, what: str) -> list:
    if status != 200:
        return [f"{what}: HTTP {status}"]
    if body != expected:
        return [f"{what}: response differs from the direct rendering"]
    return []


def rebuild_published() -> dict:
    from repro.programs.registry import BENCHMARKS

    rows = {}
    for name, spec in BENCHMARKS.items():
        p = spec.paper
        rows[name] = {
            "icfg_active_bytes": p.icfg_active_bytes,
            "mpi_active_bytes": p.mpi_active_bytes,
            "icfg_deriv_bytes": p.icfg_deriv_bytes,
            "mpi_deriv_bytes": p.mpi_deriv_bytes,
            "noted": bool(p.note),
        }
    return rows


if __name__ == "__main__":
    if sys.argv[1:] != ["--rebuild-published"]:
        print("usage: python3 perfbench/checks.py --rebuild-published", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(PUBLISHED.parent.parent / "src"))
    PUBLISHED.write_text(json.dumps(rebuild_published(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PUBLISHED}")
