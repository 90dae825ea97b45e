"""``serve``: ``repro serve`` (inline workers) in its own process, driven
by this process in a closed loop over two keep-alive connections.

Every connection runs whole rounds of :data:`MIX`: repeats from a hot
catalogue that set-up has already served once (LRU hits), analyses of
novel inline sources (cold), demand queries at fresh nodes of the
named benchmarks, and Table 1 rows (one named, already served; one for
a novel source).  After the timed window every response is compared
byte for byte with a rendering this process computes itself.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import pathlib
import random
import statistics
import subprocess
import sys
import threading
import time

import checks
import corpus
from common import CAL_REF_MS, Workload, calibrate

import repro.analyses.registry as registry
import repro.cfg as cfg
import repro.experiments.table1 as table1
import repro.ir as ir
import repro.mpi as mpi
from repro.programs.registry import BENCHMARKS, BenchmarkSpec

CONNECTIONS = 2
#: Request kinds of one round (one session) on one connection: three
#: in four are answered from the LRU.
MIX = ("hot",) * 14 + ("table1",) + ("query",) * 2 + ("novel",) * 2 + ("table1-novel",)
ENTRIES = tuple(registry.names())
QUERY_ENTRIES = tuple(e.name for e in registry.REGISTRY.values() if e.make_problem)
#: (family, size, clone level) of the novel inline sources (~100-150 nodes).
NOVEL = (("halo", 3, 1), ("tree", 2, 2), ("farm", 3, 1), ("pipeline", 4, 2))
SEEDS = {"independents": ["x"], "dependents": ["out"]}


class Serve(Workload):
    def setup(self) -> dict:
        root = pathlib.Path(__file__).resolve().parent.parent
        self.work = root / ".perfbench_work"
        self.work.mkdir(exist_ok=True)
        self.access_log = self.work / f"access-{os.getpid()}.jsonl"
        if self.access_log.exists():
            self.access_log.unlink()
        rng = random.Random(f"serve:{self.seed}")
        benches = list(BENCHMARKS)
        # Both graph arms of every benchmark, and every entry on the two
        # benchmarks the spmd workload runs.  Fixed contents, seeded
        # order: the hits cost the same whatever the seed.
        pairs = [(b, e) for b in benches for e in ("vary", "liveness")]
        pairs += [(b, e) for b in ("LU-1", "Sw-3") for e in ENTRIES if (b, e) not in pairs]
        self.catalogue = [{"bench": b, "analysis": e} for b, e in pairs]
        rng.shuffle(self.catalogue)
        self.queries = self._query_plan(rng)
        self.records: list[dict] = []
        self.rounds_of = [0] * CONNECTIONS
        self.windows = 0
        self._query_next = 0
        self._lock = threading.Lock()

        t0 = time.perf_counter()
        self._start_server(access_log=False)
        return {"warm_s": time.perf_counter() - t0}

    def _start_server(self, access_log: bool) -> None:
        """Start ``repro serve`` and warm it: every catalogue entry and
        every named Table 1 row served once.  ``access_log`` adds
        ``--access-log``, the traced half's source of server timings."""
        root = self.work.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "0"]
        if access_log:
            cmd += ["--access-log", str(self.access_log)]
        self.stderr = open(self.work / f"server-{os.getpid()}.err", "a")
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.stderr, text=True
        )
        line = self.proc.stdout.readline()
        if not line.startswith("serving on http://"):
            raise RuntimeError(f"server did not start: {line!r}")
        hostport = line.split("http://", 1)[1].split()[0]
        self.host, port = hostport.rsplit(":", 1)
        self.port = int(port)
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            for body in self.catalogue:
                self._post(conn, "/v1/analyze", body, "warm")
            for bench in BENCHMARKS:
                self._post(conn, "/v1/table1", {"bench": bench}, "warm")
        finally:
            conn.close()

    def start_tracing(self) -> None:
        """The traced half runs against a fresh server that writes an
        access log; the untraced half's server wrote none, so
        ``trace.overhead_pct`` is the cost of that log."""
        self._stop_server()
        self._start_server(access_log=True)

    def _query_plan(self, rng) -> list:
        """Fresh (benchmark, entry, node) triples: benchmarks and entries
        in a fixed cycle, nodes in seeded order within each pair, so
        every window queries every pair alike."""
        cells = []
        for name, spec in BENCHMARKS.items():
            icfg = cfg.build_icfg(spec.program(), spec.root, clone_level=spec.clone_level)
            nodes = sorted(icfg.graph.nodes)
            for entry in QUERY_ENTRIES:
                order = list(nodes)
                rng.shuffle(order)
                cells.append([(name, entry, nid) for nid in order])
        depth = min(len(c) for c in cells)
        return [cell[i] for i in range(depth) for cell in cells]

    @staticmethod
    def _post(conn, path, body, rid):
        conn.request(
            "POST", path, body=json.dumps(body),
            headers={"Content-Type": "application/json", "X-Request-Id": rid},
        )
        resp = conn.getresponse()
        return resp.status, resp.read().decode("utf-8")

    def _request(self, kind: str, conn_id: int, k: int) -> tuple:
        rnd = self.rounds_of[conn_id]
        if kind == "hot":
            idx = (rnd * MIX.count("hot") + k + 7 * conn_id) % len(self.catalogue)
            return "/v1/analyze", dict(self.catalogue[idx])
        if kind == "query":
            with self._lock:
                bench, entry, nid = self.queries[self._query_next % len(self.queries)]
                self._query_next += 1
            return "/v1/analyze", {"bench": bench, "analysis": entry, "query": str(nid)}
        if kind == "table1":
            names = list(BENCHMARKS)
            return "/v1/table1", {"bench": names[(rnd + conn_id) % len(names)]}
        family, size, depth = NOVEL[(rnd + k + conn_id) % len(NOVEL)]
        uid = f"v{self.seed}c{conn_id}r{rnd}k{k}"
        prog = corpus.FAMILIES[family](self.seed, uid, size, depth)
        body = {"source": prog.source, "clone_level": depth, **SEEDS}
        if kind == "novel":
            body["analysis"] = ENTRIES[(rnd * 3 + k + conn_id) % len(ENTRIES)]
            return "/v1/analyze", body
        return "/v1/table1", body

    def run_window(self, seconds: float) -> None:
        """Both connections, whole rounds each, for ``seconds``.

        One operation's latency is one round of one connection (a
        session of ``len(MIX)`` requests): the latency of a single LRU
        hit depends on whether the other connection's miss holds the
        server's interpreter lock at that moment, so per-request
        medians move by half between identical runs, while a session
        sums both kinds.  Times are in reference ms.  The connections
        start each round together: at that barrier no request is in
        flight, so the calibration taken there has the CPU to itself,
        and each round is scaled by the calibrations on either side.
        """
        self.windows += 1
        first = len(self.records)
        deadline = time.perf_counter() + seconds
        errors: list = []
        sessions: list = []  # (round, raw ms)
        cals: list = []  # calibration ms at each barrier
        spans: list = []  # [start, end] of each round, between calibrations
        go = [True]

        def tick() -> None:
            if spans:
                spans[-1][1] = time.perf_counter()
            cals.append(statistics.median(calibrate() for _ in range(3)))
            go[0] = not errors and time.perf_counter() < deadline
            spans.append([time.perf_counter(), None])

        barrier = threading.Barrier(CONNECTIONS, action=tick)

        def client(conn_id: int) -> None:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
            n = 0
            try:
                while True:
                    barrier.wait()
                    if not go[0]:
                        break
                    rnd = len(cals) - 1
                    start = time.perf_counter()
                    for k, kind in enumerate(MIX):
                        path, body = self._request(kind, conn_id, k)
                        rid = f"w{self.windows}c{conn_id}-{n}"
                        n += 1
                        s = time.perf_counter()
                        status, text = self._post(conn, path, body, rid)
                        raw_ms = (time.perf_counter() - s) * 1000.0
                        with self._lock:
                            self.records.append({"rid": rid, "kind": kind, "path": path,
                                                 "body": body, "status": status, "text": text,
                                                 "raw_ms": raw_ms, "round": rnd})
                    with self._lock:
                        sessions.append((rnd, (time.perf_counter() - start) * 1000.0))
                    self.rounds_of[conn_id] += 1
            except threading.BrokenBarrierError:
                pass  # the other connection failed and reported it
            except Exception as exc:  # reported as a failed run below
                errors.append(f"connection {conn_id}: {type(exc).__name__}: {exc}")
                barrier.abort()
            finally:
                conn.close()

        threads = [threading.Thread(target=client, args=(i,)) for i in range(CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        led = self.ledger
        for error in errors:
            led.check(False, error)
        if go[0] and cals:
            # A connection failed mid-round: close that round with the
            # calibration that opened it.
            spans[-1][1] = time.perf_counter()
            cals.append(cals[-1])
        # Round r ran between calibrations r and r + 1.
        factors = [2.0 * CAL_REF_MS / (a + b) for a, b in zip(cals, cals[1:])]
        for rec in self.records[first:]:
            rec["ms"] = rec["raw_ms"] * factors[rec["round"]]
        led.attempted += len(self.records) - first
        led.latencies_ms += [ms * factors[rnd] for rnd, ms in sessions]
        for (t0, t1), factor in zip(spans, factors):
            led.wall_s += t1 - t0
            led.busy_s += (t1 - t0) * factor
        self._peak_rss_mb = _vm_hwm_mb(self.proc.pid)
        if self.tracer is not None:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
            try:
                conn.request("GET", "/v1/stats")
                self.stats = json.loads(conn.getresponse().read())
            finally:
                conn.close()

    def finish(self) -> None:
        self._stop_server()
        expected: dict = {}
        graphs: dict = {}
        for rec in self.records:
            key = (rec["path"], json.dumps(rec["body"], sort_keys=True))
            if key not in expected:
                expected[key] = self._expected(rec["path"], rec["body"], graphs)
            for error in checks.response(rec["status"], rec["text"], expected[key],
                                         f"{rec['kind']} {rec['rid']}"):
                self.ledger.check(False, error)

    def _graph(self, graphs, key, program, spec_root, clone_level, with_mpi):
        if key not in graphs:
            if with_mpi:
                graphs[key] = mpi.build_mpi_icfg(program, spec_root, clone_level=clone_level)
            else:
                graphs[key] = (cfg.build_icfg(program, spec_root, clone_level=clone_level), None)
        return graphs[key]

    def _expected(self, path: str, body: dict, graphs: dict) -> str:
        """The direct rendering of one request, computed here."""
        if "bench" in body:
            spec = BENCHMARKS[body["bench"]]
            program_key = body["bench"]
            make = spec.program
        else:
            program = ir.parse_program(body["source"])
            digest = hashlib.sha256(body["source"].encode("utf-8")).hexdigest()
            spec = BenchmarkSpec(
                name=f"src:{digest}", source_label="inline source",
                builder=lambda **_: program, root="main", clone_level=body["clone_level"],
                independents=tuple(SEEDS["independents"]), dependents=tuple(SEEDS["dependents"]),
            )
            program_key = digest
            make = spec.program
        if path == "/v1/table1":
            icfg, match = self._graph(graphs, (program_key, "mpi"), make(), spec.root,
                                      spec.clone_level, True)
            row = table1.run_benchmark(spec, icfg=icfg, match=match)
            return table1.render_table1([row], with_paper=spec.paper is not None)
        entry = registry.get(body["analysis"])
        arm = "mpi" if entry.supports_model else "plain"
        icfg, _ = self._graph(graphs, (program_key, arm), make(), spec.root,
                              spec.clone_level, arm == "mpi")
        req = registry.AnalyzeRequest(
            independents=tuple(spec.independents), dependents=tuple(spec.dependents),
            query=body.get("query"),
        )
        return entry.render_result(icfg, req, registry.run_entry(entry, icfg, req))

    def end_to_end(self) -> dict:
        return {"peak_rss_mb": (self._peak_rss_mb, "MB")}

    def layer_counters(self) -> dict:
        by_rid = {}
        if self.access_log.exists():
            for line in self.access_log.read_text().splitlines():
                rec = json.loads(line)
                by_rid[rec.get("request_id")] = rec
        queue, batch, solve, render, http_ms, worker_hits, worker_all = [], [], [], [], [], 0, 0
        for rec in self.records:
            srv = by_rid.get(rec["rid"])
            if srv is None:
                continue
            http_ms.append(rec["raw_ms"] - srv["total_ms"])
            t = srv.get("timings") or {}
            if "queue_wait_ms" in t:
                queue.append(t["queue_wait_ms"])
                batch.append(t["batch_size"])
            if "solve_ms" in t:
                solve.append(t["solve_ms"])
                render.append(t["render_ms"])
            if "worker_cache" in t:
                worker_all += 1
                worker_hits += t["worker_cache"] == "hit"
        lru, dedup = self.stats["lru"], self.stats["dedup"]

        def mean(xs):
            return statistics.fmean(xs) if xs else 0.0

        hits = [r["ms"] for r in self.records if r["kind"] in ("hot", "table1")]
        cold = [r["ms"] for r in self.records if r["kind"] not in ("hot", "table1")]
        return {
            "serving.hit_ms": statistics.median(hits),
            "serving.cold_ms": statistics.median(cold),
            "serving.queue_wait_ms": mean(queue),
            "serving.batch_size": mean(batch),
            "serving.solve_ms": mean(solve),
            "serving.render_ms": mean(render),
            "serving.http_ms": mean(http_ms),
            "serving.lru_hit_ratio": lru["hit_rate"],
            "serving.coalesced_ratio": dedup["dedup_ratio"],
            "serving.worker_cache_hit_ratio": worker_hits / worker_all if worker_all else 0.0,
        }

    def _stop_server(self) -> None:
        proc = getattr(self, "proc", None)
        if proc is None:
            return
        self.proc = None
        if proc.poll() is None:
            try:
                conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
                conn.request("POST", "/v1/shutdown", body="{}")
                conn.getresponse().read()
                conn.close()
            except OSError:
                pass
        try:
            proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        self.stderr.close()

    def close(self) -> None:
        self._stop_server()
        # Keep the server's stderr only when it has something to say.
        err = getattr(self, "stderr", None)
        if err is not None and os.path.getsize(err.name) == 0:
            os.unlink(err.name)
        log = getattr(self, "access_log", None)
        if log is not None and log.exists():
            log.unlink()


def _vm_hwm_mb(pid: int) -> float:
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")
