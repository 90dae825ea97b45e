"""Seeded SPL corpus for the benchmark, with expectations stated apart
from any analysis.

Every generator returns a :class:`Program` record: the SPL source text
plus what the generator itself knows about the program it wrote --
which send->recv statement lines it wired together, which collective
call lines must form one group, the analysis seeds, and (for programs
that are executed) the final rank values computed with numpy or the
deadlock verdict.  None of these expectations is derived from the
repository's analyses or runtime; the checks in :mod:`checks` compare
the program's outputs against them.

Families:

* ``halo``     -- halo stencil, ring peers, a per-stage residual
                  all-reduce behind a wrapper chain of depth ``depth``
                  (clone level = depth);
* ``tree``     -- binary reduction trees over point-to-point messages
                  plus a broadcast of the result behind a wrapper chain;
* ``farm``     -- master-worker task farm with per-task tags and a
                  barrier per task;
* ``pipeline`` -- software pipeline, rank r receives from r-1 and sends
                  to r+1, with a parameter broadcast behind a wrapper
                  chain;
* ``ring``     -- executable ring exchange for the SPMD runtime, with
                  numpy reference values;
* ``deadlock`` -- small executable programs with a known wait-for
                  verdict (lost messages and collectives).

Run ``python3 perfbench/corpus.py --seed 1`` to print a summary of the
corpus one seed makes.
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "Program",
    "halo",
    "tree",
    "farm",
    "pipeline",
    "ring",
    "ring_reference",
    "deadlock_pack",
    "FAMILIES",
]


@dataclass
class Program:
    """One generated program and what its generator knows about it."""

    name: str
    family: str
    source: str
    root: str = "main"
    clone_level: int = 0
    independents: tuple = ()
    dependents: tuple = ()
    #: (send line, recv line) pairs the generator wired together.
    wired: list = field(default_factory=list)
    #: Groups of collective call lines that must match each other.
    collective_groups: list = field(default_factory=list)
    #: Assignment lines that the edit stream may rewrite.
    edit_lines: list = field(default_factory=list)
    #: Executable programs: rank count and expected final values.
    nprocs: int = 0
    expected_values: Optional[list] = None
    #: Deadlock programs: the expected cycle (list of ranks) or None for
    #: a lost message.
    expected_cycle: Optional[list] = None


class _Emitter:
    """Line-numbered SPL text builder."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def __call__(self, text: str) -> int:
        self.lines.append(text)
        return len(self.lines)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _real(rng: random.Random, lo: float, hi: float) -> str:
    """A four-decimal literal, so source text and value agree exactly."""
    return f"{rng.uniform(lo, hi):.4f}"


def _p2p_chain(out: _Emitter, prefix: str, depth: int, n: int) -> tuple:
    """Emit an exchange wrapper chain ``prefix1 .. prefix<depth>``.

    ``prefix1`` sends one buffer and receives another with the tag its
    caller passes; each outer level forwards its arguments, so giving
    every call site its own constant tag needs clone level ``depth``.
    Returns the (send line, recv line) pair inside ``prefix1``.
    """
    sig = f"real sb[{n}], real rb[{n}], int dest, int src, int tag"
    out(f"proc {prefix}1({sig}) {{")
    send = out("  call mpi_send(sb, dest, tag, comm_world);")
    recv = out("  call mpi_recv(rb, src, tag, comm_world);")
    out("}")
    for k in range(2, depth + 1):
        out(f"proc {prefix}{k}({sig}) {{")
        out(f"  call {prefix}{k - 1}(sb, rb, dest, src, tag);")
        out("}")
    return (send, recv)


def halo(seed: int, uid: str, stages: int, depth: int, n: int = 32, h: int = 4) -> Program:
    """Halo stencil over ``stages`` stage procedures (ring peers).

    Each stage exchanges its halo inline with its right neighbour and
    through the wrapper chain with its left one, then all-reduces a
    residual: ``stages`` all-reduce sites form one collective group.
    """
    rng = random.Random(f"halo:{seed}:{uid}")
    out = _Emitter()
    name = f"halo_{uid}"
    out(f"program {name};")
    out(f"global real g[{n}];")
    out("global real resid;")
    chain = _p2p_chain(out, "hx", depth, h)
    wired = [chain]
    group = []
    edit_lines = []
    base = rng.randrange(100, 900) * 10
    for k in range(stages):
        t1, t2 = base + 2 * k, base + 2 * k + 1
        c = _real(rng, 0.1, 0.4)
        out(f"proc stage{k}() {{")
        out(f"  real hl[{h}]; real hr[{h}]; real s; real t;")
        out("  int rank; int np; int i; int right; int left;")
        out("  rank = mpi_comm_rank();")
        out("  np = mpi_comm_size();")
        out("  right = mod(rank + 1, np);")
        out("  left = mod(rank + np - 1, np);")
        out(f"  for i = 0 to {h - 1} {{")
        out("    hl[i] = g[i];")
        out(f"    hr[i] = g[{n - h} + i];")
        out("  }")
        s1 = out(f"  call mpi_send(hr, right, {t1}, comm_world);")
        r1 = out(f"  call mpi_recv(hl, left, {t1}, comm_world);")
        wired.append((s1, r1))
        out(f"  call hx{depth}(hl, hr, left, right, {t2});")
        out(f"  for i = 1 to {n - 2} {{")
        edit_lines.append(out(f"    g[i] = {c} * g[i] + 0.5 * (g[i - 1] + g[i + 1]);"))
        out("  }")
        edit_lines.append(out(f"  g[0] = g[0] + {c} * hl[0];"))
        out(f"  s = g[{k % n}] * hr[0];")
        group.append(out("  call mpi_allreduce(s, t, sum, comm_world);"))
        out("  resid = resid + t;")
        out("}")
    out("proc main(real x, real out) {")
    out("  int i;")
    out(f"  for i = 0 to {n - 1} {{")
    edit_lines.append(out(f"    g[i] = x * {_real(rng, 0.5, 2.0)} + float(i);"))
    out("  }")
    out("  resid = 0.0;")
    for k in range(stages):
        out(f"  call stage{k}();")
    edit_lines.append(out("  out = resid;"))
    out("}")
    return Program(
        name=name, family="halo", source=out.text(), clone_level=depth,
        independents=("x",), dependents=("out",), wired=wired,
        collective_groups=[group], edit_lines=edit_lines,
    )


def tree(seed: int, uid: str, rounds: int, depth: int, levels: int = 3, n: int = 16) -> Program:
    """``rounds`` binary reduction trees of ``levels`` levels each.

    Each round reduces inline level by level, swaps a partial result
    with a partner through the wrapper chain, and broadcasts the
    result: ``rounds`` broadcast sites form one collective group.
    """
    rng = random.Random(f"tree:{seed}:{uid}")
    out = _Emitter()
    name = f"tree_{uid}"
    out(f"program {name};")
    out(f"global real v[{n}];")
    chain = _p2p_chain(out, "tx", depth, n)
    wired = [chain]
    group = []
    edit_lines = []
    base = rng.randrange(100, 900) * 10
    for r in range(rounds):
        out(f"proc round{r}(real acc) {{")
        out(f"  real w[{n}]; int rank; int i; int np;")
        out("  rank = mpi_comm_rank();")
        out("  np = mpi_comm_size();")
        for lvl in range(levels):
            m = 1 << lvl
            tag = base + r * (levels + 1) + lvl
            out(f"  if (mod(rank, {2 * m}) == {m}) {{")
            s = out(f"    call mpi_send(v, rank - {m}, {tag}, comm_world);")
            out(f"  }} else if (mod(rank, {2 * m}) == 0) {{")
            rv = out(f"    call mpi_recv(w, rank + {m}, {tag}, comm_world);")
            out(f"    for i = 0 to {n - 1} {{")
            edit_lines.append(out(f"      v[i] = v[i] + {_real(rng, 0.5, 1.0)} * w[i];"))
            out("    }")
            out("  }")
            wired.append((s, rv))
        tag = base + r * (levels + 1) + levels
        out(f"  call tx{depth}(v, w, mod(rank + 1, np), mod(rank + np - 1, np), {tag});")
        edit_lines.append(out("  acc = acc + v[0] + w[0];"))
        group.append(out("  call mpi_bcast(acc, 0, comm_world);"))
        out("}")
    out("proc main(real x, real out) {")
    out("  real acc; int i;")
    out(f"  for i = 0 to {n - 1} {{")
    edit_lines.append(out(f"    v[i] = x + {_real(rng, 0.1, 1.0)} * float(i);"))
    out("  }")
    out("  acc = 0.0;")
    for r in range(rounds):
        out(f"  call round{r}(acc);")
    edit_lines.append(out("  out = acc;"))
    out("}")
    return Program(
        name=name, family="tree", source=out.text(), clone_level=depth,
        independents=("x",), dependents=("out",), wired=wired,
        collective_groups=[group], edit_lines=edit_lines,
    )


def farm(seed: int, uid: str, tasks: int, depth: int, n: int = 16) -> Program:
    """Master-worker farm: rank 0 hands out ``tasks`` task kinds.

    Work goes out inline; results come back through the wrapper chain
    (the master's receive side).  A reduction closes every task:
    ``tasks`` reduce sites form one collective group.
    """
    rng = random.Random(f"farm:{seed}:{uid}")
    out = _Emitter()
    name = f"farm_{uid}"
    out(f"program {name};")
    out(f"global real work[{n}];")
    out("global real total;")
    chain = _p2p_chain(out, "fx", depth, n)
    wired = [chain]
    group = []
    edit_lines = []
    base = rng.randrange(100, 900) * 10
    for t in range(tasks):
        tw, tr = base + 2 * t, base + 2 * t + 1
        out(f"proc task{t}() {{")
        out(f"  real res[{n}]; int rank; int np; int w; int i;")
        out("  rank = mpi_comm_rank();")
        out("  np = mpi_comm_size();")
        out("  if (rank == 0) {")
        out("    for w = 1 to np - 1 {")
        sw = out(f"      call mpi_send(work, w, {tw}, comm_world);")
        out(f"      call fx{depth}(work, res, w, w, {tr});")
        out(f"      for i = 0 to {n - 1} {{")
        edit_lines.append(out("        total = total + res[i];"))
        out("      }")
        out("    }")
        out("  } else {")
        rr = out(f"    call mpi_recv(work, 0, {tw}, comm_world);")
        out(f"    for i = 0 to {n - 1} {{")
        edit_lines.append(out(f"      res[i] = {_real(rng, 0.5, 3.0)} * work[i] + float(rank);"))
        out("    }")
        out(f"    call fx{depth}(res, work, 0, 0, {tr});")
        out("  }")
        group.append(out("  call mpi_reduce(total, work[0], sum, 0, comm_world);"))
        out("}")
        wired.append((sw, rr))
    out("proc main(real x, real out) {")
    out("  int i;")
    out(f"  for i = 0 to {n - 1} {{")
    edit_lines.append(out(f"    work[i] = x * {_real(rng, 0.5, 2.0)};"))
    out("  }")
    out("  total = 0.0;")
    for t in range(tasks):
        out(f"  call task{t}();")
    edit_lines.append(out("  out = total;"))
    out("}")
    return Program(
        name=name, family="farm", source=out.text(), clone_level=depth,
        independents=("x",), dependents=("out",), wired=wired,
        collective_groups=[group], edit_lines=edit_lines,
    )


def pipeline(seed: int, uid: str, steps: int, depth: int, n: int = 16) -> Program:
    """Software pipeline of ``steps`` steps: r-1 -> r -> r+1.

    Each step receives its block inline, gets a broadcast parameter,
    and returns a checksum to its predecessor through the wrapper
    chain: ``steps`` broadcast sites form one collective group.
    """
    rng = random.Random(f"pipeline:{seed}:{uid}")
    out = _Emitter()
    name = f"pipeline_{uid}"
    out(f"program {name};")
    out(f"global real blk[{n}];")
    out("global real param;")
    chain = _p2p_chain(out, "px", depth, n)
    wired = [chain]
    group = []
    edit_lines = []
    base = rng.randrange(100, 900) * 10
    for k in range(steps):
        tag, back = base + 2 * k, base + 2 * k + 1
        out(f"proc step{k}() {{")
        out(f"  real ck[{n}]; int rank; int np; int i; real p;")
        out("  rank = mpi_comm_rank();")
        out("  np = mpi_comm_size();")
        out("  if (rank > 0) {")
        rv = out(f"    call mpi_recv(blk, rank - 1, {tag}, comm_world);")
        out("  }")
        out(f"  p = param * {_real(rng, 0.5, 1.5)};")
        group.append(out("  call mpi_bcast(p, 0, comm_world);"))
        out(f"  for i = 0 to {n - 1} {{")
        edit_lines.append(out("    blk[i] = blk[i] * p + 1.0;"))
        out("  }")
        out("  if (rank < np - 1) {")
        s = out(f"    call mpi_send(blk, rank + 1, {tag}, comm_world);")
        out("  }")
        out(f"  call px{depth}(blk, ck, mod(rank + np - 1, np), mod(rank + 1, np), {back});")
        out("}")
        wired.append((s, rv))
    out("proc main(real x, real out) {")
    out("  int i;")
    edit_lines.append(out("  param = x;"))
    out(f"  for i = 0 to {n - 1} {{")
    edit_lines.append(out(f"    blk[i] = {_real(rng, 0.1, 1.0)} * float(i);"))
    out("  }")
    for k in range(steps):
        out(f"  call step{k}();")
    edit_lines.append(out(f"  out = blk[{n - 1}];"))
    out("}")
    return Program(
        name=name, family="pipeline", source=out.text(), clone_level=depth,
        independents=("x",), dependents=("out",), wired=wired,
        collective_groups=[group], edit_lines=edit_lines,
    )


FAMILIES = {"halo": halo, "tree": tree, "farm": farm, "pipeline": pipeline}


# ---------------------------------------------------------------------------
# Executable programs (SPMD runtime).
# ---------------------------------------------------------------------------


def _ring_params(seed: int, nprocs: int) -> dict:
    rng = random.Random(f"ring:{seed}:{nprocs}")
    # The extent is fixed so that a run costs the same whatever the seed.
    return {
        "n": 48,
        "iters": 4,
        "c0": float(_real(rng, 0.5, 1.5)),
        "c1": float(_real(rng, 0.01, 0.1)),
        "w0": float(_real(rng, 0.3, 0.6)),
        "w1": float(_real(rng, 0.2, 0.4)),
        "tag": 10 + rng.randrange(0, 50),
    }


def ring(seed: int, nprocs: int) -> Program:
    """Ring exchange on ``nprocs`` ranks with numpy reference values."""
    p = _ring_params(seed, nprocs)
    n, iters = p["n"], p["iters"]
    out = _Emitter()
    name = f"ring_{nprocs}"
    out(f"program {name};")
    out("proc main() {")
    out(f"  real a[{n}]; real b[{n}]; real c[{n}]; real tot; real gsum;")
    out("  int rank; int np; int i; int it; int right; int left;")
    out("  rank = mpi_comm_rank();")
    out("  np = mpi_comm_size();")
    out("  right = mod(rank + 1, np);")
    out("  left = mod(rank + np - 1, np);")
    out(f"  for i = 0 to {n - 1} {{")
    out(f"    a[i] = {p['c0']!r} * float(rank + 1) + {p['c1']!r} * float(i);")
    out("    c[i] = float(i);")
    out("  }")
    out(f"  for it = 0 to {iters - 1} {{")
    s = out(f"    call mpi_send(a, right, {p['tag']}, comm_world);")
    r = out(f"    call mpi_recv(b, left, {p['tag']}, comm_world);")
    # Independent of the exchange: room for the overlap transform.
    out(f"    for i = 0 to {n - 1} {{")
    out("      c[i] = 0.5 * c[i] + 1.0;")
    out("    }")
    out(f"    for i = 0 to {n - 1} {{")
    out(f"      a[i] = {p['w0']!r} * a[i] + {p['w1']!r} * b[i] + c[i];")
    out("    }")
    out("  }")
    out("  tot = 0.0;")
    out(f"  for i = 0 to {n - 1} {{")
    out("    tot = tot + a[i];")
    out("  }")
    coll = out("  call mpi_allreduce(tot, gsum, sum, comm_world);")
    out("}")
    return Program(
        name=name, family="ring", source=out.text(), wired=[(s, r)],
        collective_groups=[[coll]], nprocs=nprocs,
        expected_values=ring_reference(seed, nprocs),
    )


def ring_reference(seed: int, nprocs: int) -> list:
    """Final per-rank values of :func:`ring`, computed with numpy."""
    p = _ring_params(seed, nprocs)
    n = p["n"]
    i = np.arange(n, dtype=np.float64)
    a = np.stack([p["c0"] * float(r + 1) + p["c1"] * i for r in range(nprocs)])
    b = np.zeros_like(a)
    c = i.copy()
    for _ in range(p["iters"]):
        b = np.roll(a, 1, axis=0)  # rank r receives from rank r-1
        c = 0.5 * c + 1.0
        a = p["w0"] * a + p["w1"] * b + c
    # SPL accumulates left to right; cumsum is sequential too.
    tot = [float(np.cumsum(np.concatenate(([0.0], a[r])))[-1]) for r in range(nprocs)]
    gsum = tot[0]
    for t in tot[1:]:
        gsum = gsum + t
    return [
        {"a": a[r].copy(), "b": b[r].copy(), "c": c.copy(), "tot": tot[r], "gsum": gsum}
        for r in range(nprocs)
    ]


#: Loop iterations of work per rank number before the receive of a
#: cyclic deadlock program (about 10 us each in the interpreter).
STAGGER_ITERS = 2000


def deadlock_pack(seed: int) -> list:
    """Deadlocking programs with known wait-for verdicts.

    Three lost messages or collectives (no cyclic wait) and two cyclic
    waits: a 2-rank mutual receive and a 3-rank receive ring.  In the
    cyclic ones rank r works for :data:`STAGGER_ITERS` * r loop
    iterations (~20 ms per step) before its receive, so the ranks'
    watchdogs expire one after another.  When they expire at the same
    moment the runtime's verdict is a race (see CHANGES.md), and an
    operation that fails now and then cannot be counted the same way in
    every run.
    """
    rng = random.Random(f"deadlock:{seed}")
    t1, t2 = rng.randrange(1, 50), rng.randrange(50, 99)
    progs = []

    out = _Emitter()
    out("program dl_tag;")
    out("proc main() {")
    out("  real x;")
    out("  x = 1.0;")
    out("  if (mpi_comm_rank() == 0) {")
    out(f"    call mpi_send(x, 1, {t1}, comm_world);")
    out("  } else {")
    out(f"    call mpi_recv(x, 0, {t2}, comm_world);")
    out("  }")
    out("}")
    progs.append(Program(name="dl_tag", family="deadlock", source=out.text(),
                         nprocs=2, expected_cycle=None))

    out = _Emitter()
    out("program dl_chain3;")
    out("proc main() {")
    out("  real x; int rank;")
    out("  x = 1.0;")
    out("  rank = mpi_comm_rank();")
    out("  if (rank < 2) {")
    out(f"    call mpi_recv(x, rank + 1, {t1}, comm_world);")
    out("  } else {")
    out(f"    call mpi_send(x, 1, {t2}, comm_world);")
    out("  }")
    out("}")
    progs.append(Program(name="dl_chain3", family="deadlock", source=out.text(),
                         nprocs=3, expected_cycle=None))

    out = _Emitter()
    out("program dl_barrier;")
    out("proc main() {")
    out("  real x;")
    out("  if (mpi_comm_rank() > 0) {")
    out("    call mpi_barrier(comm_world);")
    out("  }")
    out("}")
    progs.append(Program(name="dl_barrier", family="deadlock", source=out.text(),
                         nprocs=3, expected_cycle=None))

    for name, nprocs in (("dl_mutual", 2), ("dl_ring3", 3)):
        out = _Emitter()
        out(f"program {name};")
        out("proc main() {")
        out("  real x; int rank; int i;")
        out(f"  x = {_real(rng, 1.0, 2.0)};")
        out("  rank = mpi_comm_rank();")
        out(f"  for i = 1 to {STAGGER_ITERS} * rank {{")
        out("    x = x * 0.5 + 1.0;")
        out("  }")
        out(f"  call mpi_recv(x, mod(rank + 1, {nprocs}), {t1}, comm_world);")
        out(f"  call mpi_send(x, mod(rank + {nprocs - 1}, {nprocs}), {t1}, comm_world);")
        out("}")
        # Rank r waits on rank r+1: the cycle found from rank 0.
        cycle = list(range(nprocs)) + [0]
        progs.append(Program(name=name, family="deadlock", source=out.text(),
                             nprocs=nprocs, expected_cycle=cycle))
    return progs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Summarise one seed's corpus.")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for fam, gen in FAMILIES.items():
        prog = gen(args.seed, "demo", 8, 2)
        print(f"{fam:9s} lines={prog.source.count(chr(10)):5d} "
              f"wired={len(prog.wired):4d} groups={len(prog.collective_groups)}")
    for n in (2, 4, 8, 16, 32):
        prog = ring(args.seed, n)
        print(f"ring_{n:<4d} lines={prog.source.count(chr(10)):5d}")
    for prog in deadlock_pack(args.seed):
        print(f"{prog.name:9s} nprocs={prog.nprocs} cycle={prog.expected_cycle}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
