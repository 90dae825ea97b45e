"""The benchmark's own tests: every output check fails on a corrupted
output, and a short run of each workload completes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import corpus  # noqa: E402
import layers  # noqa: E402
import scale  # noqa: E402
import spmd  # noqa: E402

import repro.analyses.registry as registry  # noqa: E402
import repro.ir as ir  # noqa: E402
import repro.runtime as runtime  # noqa: E402


def test_dropped_comm_edge_is_caught():
    prog = corpus.halo(7, "t", 6, 2)
    icfg, match, _req, _res, _text = scale.analyze(prog, registry.get("vary"))
    lines = scale.comm_lines(icfg, match)
    assert checks.wired_pairs(lines, prog.wired, prog.collective_groups) == []
    for dropped in (tuple(prog.wired[1]), (prog.collective_groups[0][0], prog.collective_groups[0][1])):
        assert checks.wired_pairs(lines - {dropped}, prog.wired, prog.collective_groups)


def test_wrong_table1_byte_count_is_caught():
    published = checks.load_published()
    row = dict(published["LU-1"])
    assert checks.table1_exact("LU-1", row, published["LU-1"]) == []
    row["mpi_active_bytes"] += 1
    assert checks.table1_exact("LU-1", row, published["LU-1"])
    rows = {name: dict(r) for name, r in published.items()}
    noted = [n for n, r in published.items() if r["noted"]]
    rows["Sw-5"]["icfg_active_bytes"] = rows["Sw-1"]["icfg_active_bytes"] - 1
    assert checks.table1_shape(rows, noted)


def test_changed_rank_value_is_caught():
    prog = corpus.ring(3, 4)
    config = runtime.RunConfig(nprocs=4)
    result = runtime.run_spmd(ir.parse_program(prog.source), config)
    names = ("a", "b", "c", "tot", "gsum")
    assert checks.rank_values(result, prog.expected_values, names) == []
    result.ranks[2].values["a"] = result.ranks[2].values["a"].copy()
    result.ranks[2].values["a"][5] += 1e-9
    assert checks.rank_values(result, prog.expected_values, names)
    other = runtime.run_spmd(ir.parse_program(prog.source), config)
    assert checks.same_state(other, result, "corrupted")


def test_altered_response_byte_is_caught():
    text = "analysis  : vary\nfacts at exit (1):\n  main::x"
    assert checks.response(200, text, text, "r") == []
    assert checks.response(200, text[:-1] + "y", text, "r")
    assert checks.response(503, text, text, "r")


def test_wrong_verdict_is_caught():
    for prog in corpus.deadlock_pack(1):
        config = runtime.RunConfig(nprocs=prog.nprocs, timeout=spmd.DEADLOCK_TIMEOUT_S)
        with pytest.raises(runtime.DeadlockError) as info:
            runtime.run_spmd(ir.parse_program(prog.source), config)
        assert checks.verdict(info.value, prog.expected_cycle) == []
        if prog.expected_cycle is None:
            assert checks.verdict(info.value, [0, 1, 0])
        else:
            # Reported as a lost message, or as the cycle from rank 1.
            cycle = prog.expected_cycle
            assert checks.verdict(info.value, None)
            assert checks.verdict(info.value, cycle[1:] + cycle[1:2])
    assert checks.verdict(RuntimeError("finished"), None)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _u in layers.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} == {"paper", "scale", "spmd", "serve"}


@pytest.mark.parametrize("workload", ["paper", "scale", "spmd", "serve"])
def test_short_run_completes(workload):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload == "spmd":
        # One known fault per round: Sw-3 on 3 ranks (see CHANGES.md).
        per_round = 4 * (len(spmd.REGISTRY_RUNS) + len(spmd.RING_RANKS))
        per_round += len(corpus.deadlock_pack(11))
        assert result["failed"] * per_round == result["attempted"]
    else:
        assert result["failed"] == 0


def test_without_source_tree_exits_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
