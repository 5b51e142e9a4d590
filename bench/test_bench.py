"""Self-tests of the benchmark, on its small smoke-size commands.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

SPEC_PATH = os.path.join(run.ROOT, "BENCHMARK.json")
with open(SPEC_PATH) as _fh:
    SPEC = json.load(_fh)


def bench(workload: str, trace: int, root: str = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


def test_spec_workloads_match_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_end_to_end_metrics_emitted_with_units(workload):
    doc = result(bench(workload, 0))
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert all(v["value"] > 0 for v in doc["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_per_layer_metrics_emitted_with_units(workload):
    proc = bench(workload, 1)
    doc = result(proc)
    assert doc["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = doc["metrics"]
    assert {k: v["unit"] for k, v in got.items()} == want
    assert got["trace.hooks_missing"]["value"] == 0
    assert got["cli.csv_digest_match"]["value"] == 1.0
    assert abs(got["trace.self_sum_frac"]["value"] - 1.0) < 0.05
    sdp_used = workload in ("example1-sdp-small", "isotropic-d4-sdp")
    assert (got["sdp.solves"]["value"] > 0) == sdp_used
    assert (got["sdp.iterations"]["value"] > 0) == sdp_used
    assert (got["spin.xxx_hamiltonian.calls"]["value"] > 0) == (workload == "heisenberg-n8")


def test_solver_counts_repeat_exactly():
    counts = ("sdp.solves", "sdp.iterations", "sdp.iterations_max", "sdp.constraint_rows",
              "sdp.status.optimal", "sdp.stall_accepted", "measures.e_nm_ppt.calls")
    first, second = (result(bench("example1-sdp-small", 1))["metrics"] for _ in range(2))
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def _corrupt_last_field(line: str) -> str:
    head, _, last = line.rpartition(",")
    return f"{head},{float(last) + 1e-3!r}"


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_corrupted_or_missing_row_counts_as_failed(cls):
    wl = cls(7, smoke=True)
    os.makedirs(run.WORK, exist_ok=True)
    doc, text = run.run_child(wl.argv(), False, "selftest")
    assert doc["rc"] == 0
    wl.prepare(workloads.load_reference())
    assert wl.check(text) == 0
    lines = text.splitlines()
    data = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")][1:]
    corrupted = list(lines)
    corrupted[data[-1]] = _corrupt_last_field(lines[data[-1]])
    if cls is workloads.Heisenberg:  # chi columns are nan at beta = 0: corrupt the estimate
        head = lines[data[-1]].split(",")
        head[5] = repr(float(head[5]) + 1e-3)
        corrupted[data[-1]] = ",".join(head)
    assert wl.check("\n".join(corrupted) + "\n") == 1
    dropped = [ln for i, ln in enumerate(lines) if i != data[-1]]
    assert wl.check("\n".join(dropped) + "\n") == 1


def test_missing_hook_is_reported_not_fatal():
    sys.path.insert(0, run.SRC)
    import entwit.cli
    import entwit.measures

    original = entwit.measures.negativity
    t = tracer.Tracer()
    t.install(extra=(*tracer.EXTRA_HOOKS, "spin.renamed_away", "sdp.HermitianSdp.gone"))
    try:
        assert entwit.cli.negativity is not original
        assert entwit.cli.negativity is entwit.measures.negativity
        assert {"spin.renamed_away", "sdp.HermitianSdp.gone"} <= set(t.missing)
        assert t.metrics(1.0)["trace.hooks_missing"] == len(t.missing)
    finally:
        t.uninstall()
    assert entwit.cli.negativity is original


def test_self_times_split_overlapping_threads():
    # root [0, 10] on the main thread; two worker spans overlap on [2, 6]
    spans = [
        (1, 0, "cli.main", 1, 0.0, 10.0),
        (2, 1, "measures.negativity", 2, 1.0, 6.0),
        (3, 1, "measures.negativity", 3, 2.0, 8.0),
        (4, 3, "linalg.eig_hermitian", 3, 3.0, 4.0),
    ]
    st = tracer.self_times(spans)
    assert st == pytest.approx({1: 3.0, 2: 1.0 + 0.5 + 0.5 + 1.0, 3: 0.5 + 1.0 + 2.0, 4: 0.5})
    assert sum(st.values()) == pytest.approx(10.0)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("fig56-scatter", 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
