"""Tests of the benchmark itself: python3 -m pytest perfbench

They run tiny workloads end to end (a few seconds each) and inject the only
failures the benchmark ever sees: a model the stub answers 404 for.
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
from check import CheckError, check_records, check_report, read_run_file
from gen import generate
from tracing import self_times

TINY_STUB = replace(run.WORKLOADS["stub-model-swap"], name="tiny-stub", n_incidents=3,
                    n_models=2, parallelism=1)
TINY_OFFLINE = replace(run.WORKLOADS["offline-matrix"], name="tiny-offline", n_incidents=24)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_missing_model_failures_are_counted_exactly_and_not_retried(parallelism):
    workload = replace(TINY_STUB, parallelism=parallelism)
    s = run.run_workload(workload, seed=7, seconds=0, trace=True, missing_model=1, min_reps=2)
    per_rep = workload.n_incidents * 5 * workload.n_models
    assert s["attempted"] == 2 * per_rep
    assert s["failed"] == 2 * per_rep // 2
    layers = s["layers"]
    # One attempt per failed task: a 404 skips the retry backoff.
    assert layers["backend.http.attempts"] == layers["stub.requests"] + per_rep // 2


def test_traced_and_untraced_runs_report_the_metrics_benchmark_json_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    s = run.run_workload(TINY_OFFLINE, seed=3, seconds=0, trace=True, min_reps=2)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        line = run.result_line(s, trace=trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        got = [(name, m["unit"]) for name, m in line["metrics"].items()]
        assert got == [(m["name"], m["unit"]) for m in spec[section]]
    assert all(m["value"] > 0 for m in run.result_line(s, trace=False)["metrics"].values())
    layers = s["layers"]
    # 24 demo incidents x 5 techniques x 2 models, serially.
    assert layers["runner.serialize.calls"] == 240
    assert layers["runner.load_run_records.records"] == 240
    assert layers["runner.order.model_switches"] == 239
    assert layers["backend.truncate.cut"] == 0
    assert layers["taxonomy.parse.calls"] == layers["backend.complete.calls"]


def _stub_run(tmp_path: Path):
    """Records, report dir and inputs of one tiny stub run, kept on disk."""
    bench = run.Bench(TINY_STUB, seed=5)
    try:
        bench.rep(0, traced=False)  # a full rep must pass all checks
        d = bench.work / "keep"
        d.mkdir()
        args = ["run", "--backend", bench.stub.url, "--models", ",".join(bench.inputs.models),
                "--corpus", str(bench.inputs.corpus), "--out", str(d / "run.jsonl")]
        run.run_child(args, d / "r.json", d / "log", None)
        run.run_child(["report", str(d / "run.jsonl"), str(d / "report")], d / "q.json", d / "log2", None)
        shutil.copytree(d, tmp_path / "out")
    finally:
        bench.close()
        shutil.rmtree(bench.work, ignore_errors=True)
    return read_run_file(tmp_path / "out" / "run.jsonl"), tmp_path / "out" / "report", bench.inputs


def test_checks_reject_wrong_outputs(tmp_path):
    records, report_dir, inputs = _stub_run(tmp_path)
    check_records(records, inputs.models, inputs.incidents, inputs.answers)
    check_report(records, report_dir)

    wrong = copy.deepcopy(records)
    t = wrong[0]["trace"]
    t["final"] = next(c for c in ("CAT1", "CAT2") if c != t["final"])
    with pytest.raises(CheckError):
        check_records(wrong, inputs.models, inputs.incidents, inputs.answers)
    with pytest.raises(CheckError):
        check_records(records[1:], inputs.models, inputs.incidents, inputs.answers)
    with pytest.raises(CheckError):
        check_report(records[1:], report_dir)

    csv_path = report_dir / "metrics.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[3] = str(int(cells[3]) + 1)
    csv_path.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n", encoding="utf-8")
    with pytest.raises(CheckError):
        check_report(records, report_dir)


def test_generator_is_a_function_of_the_seed(tmp_path):
    made = []
    for name, seed in (("a", 4), ("b", 4), ("c", 5)):
        d = tmp_path / name
        d.mkdir()
        inputs = generate(d, seed, run.DEMO_CORPUS, 30, 3, {"service_ms": 1, "load_ms": 1},
                          {"ZSL": "z", "PHP": "p", "SHP": "s", "HTP": "h", "PRP": "r"})
        made.append((inputs.corpus.read_bytes(), inputs.schedule.read_bytes()))
    assert made[0] == made[1]
    assert made[0][0] != made[2][0] and made[0][1] != made[2][1]


def test_self_time_subtracts_direct_children_per_thread():
    names = ["outer", "inner", "leaf"]
    spans = [
        [0, 0.0, 10.0, None, 1],
        [1, 1.0, 5.0, None, 1],
        [2, 2.0, 3.0, None, 1],
        [1, 6.0, 7.0, None, 1],
        [0, 0.0, 4.0, None, 2],  # another thread: no nesting across threads
    ]
    got = self_times(spans, names)
    assert got == pytest.approx({"outer": 10.0 - 5.0 + 4.0, "inner": 3.0 + 1.0, "leaf": 1.0})


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "offline-matrix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
