"""The triagebench benchmark: end-to-end and per-layer numbers for three workloads.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

The program is imported from src/ next to this directory. Each
workload generates its inputs from --seed, then repeats a closed-loop run
of the whole incident x technique x model matrix through the public entry
points until --seconds have passed:

  1. `triagebench run` (scripted backend, or HTTP against stub.py),
  2. `triagebench report` on the run file,
  3. runner.execute(..., resume=True) on the same file, skipping every task,

each in a process of its own (child.py), and checks every output of every
repetition (check.py). A wrong output makes the benchmark exit 1 without
printing any numbers.

With --trace 0 the repetitions run untraced and the end-to-end metrics are
medians over them. With --trace 1 they alternate untraced and traced
(tracing.py); the per-layer metrics are medians over the traced ones,
trace.overhead_tasks_per_s is the untraced minus the traced tasks_per_s and
overhead_ms_per_call comes from the untraced ones. The last line of output
is one JSON object with the metrics. README.md defines each metric.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

from check import CheckError, check_records, check_report, read_run_file
from gen import TECHNIQUES, generate
from tracing import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEMO_CORPUS = SRC / "triagebench" / "data" / "demo_corpus.jsonl"
WORK = ROOT / ".perfbench"

CHILD_TIMEOUT_S = 150
BLOCK_RECORDS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_incidents: int
    n_models: int
    parallelism: int
    stub: dict | None = None  # the simulated server's delays, in ms
    calls: str = "best"  # how report and resume call times reduce: best or mean


# The stub's service time is about the harness's own cost per HTTP call, so
# harness overhead shows in stub-one-model. Its model load delay is several
# times that, so model order dominates stub-model-swap.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "offline-matrix",
            "scripted backend, serial, 2 models: all time is harness time "
            "(parser fallback, templates, serialization, run-file write and read)",
            n_incidents=1200, n_models=2, parallelism=1, calls="mean",
        ),
        Workload(
            "stub-one-model",
            "HTTP to a one-slot Ollama stub, one model, parallelism 1: the live "
            "path; request building and transcript resending",
            n_incidents=60, n_models=1, parallelism=1,
            stub={"service_ms": 2.5, "load_ms": 10.0},
        ),
        Workload(
            "stub-model-swap",
            "HTTP stub with 3 models and parallelism 2; a model load on every "
            "switch, so task order and the threaded path show",
            n_incidents=16, n_models=3, parallelism=2,
            stub={"service_ms": 2.5, "load_ms": 10.0},
        ),
    )
}

# (name, unit, how the samples of one benchmark run reduce to its value).
# A shared machine runs the same code at different speeds from one second
# to the next. Among many short samples of a run some fall in a quiet
# moment, so the per-block timings take the best block, and report and
# resume take the best call where a call lasts milliseconds ("calls" means
# the workload's choice). On offline-matrix a call lasts about a second and
# only a dozen or two fit in a run, each in a fast or a slow stretch. Their
# best, and their median too, jumps between the two modes with the share of
# slow stretches in the run; their mean follows that share smoothly, so
# there they take the mean call.
END_TO_END = (
    ("setup_s", "s", "median"),
    ("tasks_per_s", "1/s", "best"),
    ("task_gap_ms_p50", "ms", "best"),
    ("run_bytes_per_task", "B", "median"),
    ("report_s", "s", "calls"),
    ("resume_s", "s", "calls"),
    ("peak_rss_mb", "MB", "median"),
)
# Printed with the end-to-end metrics but too noisy to bound (see README):
# they go out with the per-layer metrics.
UNBOUNDED = (
    ("task_gap_ms_p99", "ms", "p99"),
    ("overhead_ms_per_call", "ms", "median"),
)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated q-quantile (0..1) of a nonempty list."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TRIAGE_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], result: Path, log: Path, spans: Path | None) -> tuple[dict, float]:
    """Run child.py to completion: (its result, launch time)."""
    cmd = [sys.executable, str(HERE / "child.py"), str(result)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    with log.open("w", encoding="utf-8") as out:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd + args, stdout=out, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or not result.exists():
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise CheckError(f"{' '.join(args[:2])} exited {code}:\n{tail}")
    return json.loads(result.read_text(encoding="utf-8")), launched


class Stub:
    """stub.py in its own process, for the length of one workload."""

    def __init__(self, schedule: Path, missing_model: str | None = None) -> None:
        cmd = [sys.executable, str(HERE / "stub.py"), str(schedule)]
        if missing_model:
            cmd += ["--missing-model", missing_model]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                                     text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            self.close()
            raise CheckError(f"stub did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def call(self, path: str, post: bool = False) -> dict:
        req = urllib.request.Request(self.url + path, data=b"{}" if post else None)
        with urllib.request.urlopen(req, timeout=10) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def layer_metrics(spans_files: dict[str, Path], import_ms: float, stub_stats: dict | None) -> dict:
    """Per-layer numbers of one traced repetition."""
    loaded = {k: json.loads(p.read_text(encoding="utf-8")) for k, p in spans_files.items()}
    durations: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    values: dict[str, list[float]] = {}
    for data in loaded.values():
        for idx, start, end, _task, _thread in data["spans"]:
            durations.setdefault(data["names"][idx], []).append((end - start) * 1000.0)
        for k, v in data["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in data["values"].items():
            values.setdefault(k, []).extend(v)
    run_self = self_times(loaded["run"]["spans"], loaded["run"]["names"])

    def busy(name: str) -> float:
        return math.fsum(durations.get(name, []))

    def calls(name: str) -> int:
        return len(durations.get(name, []))

    def pct(name: str, q: float, scale: float = 1.0) -> float:
        d = durations.get(name) or values.get(name)
        return percentile(d, q) * scale if d else 0.0

    def mean(name: str) -> float:
        v = values.get(name)
        return math.fsum(v) / len(v) if v else 0.0

    stub = stub_stats or {}
    return {
        "taxonomy.parse.calls": calls("taxonomy.parse"),
        "taxonomy.parse.busy_ms": busy("taxonomy.parse"),
        "taxonomy.parse.us_p50": pct("taxonomy.parse", 0.5, 1000.0),
        "taxonomy.parse.us_p99": pct("taxonomy.parse", 0.99, 1000.0),
        "taxonomy.parse.unparsed": counts.get("taxonomy.parse.unparsed", 0),
        "taxonomy.parse.fallback": counts.get("taxonomy.parse.fallback", 0),
        "techniques.render.calls": calls("techniques.render"),
        "techniques.render.busy_ms": busy("techniques.render"),
        "techniques.classify.self_ms": run_self.get("techniques.classify", 0.0) * 1000.0,
        "backend.truncate.calls": calls("backend.truncate"),
        "backend.truncate.busy_ms": busy("backend.truncate"),
        "backend.truncate.cut": counts.get("backend.truncate.cut", 0),
        "backend.complete.calls": calls("backend.complete"),
        "backend.complete.ms_p50": pct("backend.complete", 0.5),
        "backend.complete.ms_p99": pct("backend.complete", 0.99),
        "backend.server_ms_p50": pct("backend.server_ms", 0.5),
        "backend.http_overhead_ms_p50": pct("backend.http_overhead_ms", 0.5),
        "backend.http_overhead_ms_p99": pct("backend.http_overhead_ms", 0.99),
        "backend.http.attempts": counts.get("backend.http.attempts", 0),
        "backend.request_kb_mean": mean("backend.request_kb"),
        "backend.response_kb_mean": mean("backend.response_kb"),
        # Resume plans the same tasks again; count the run's order once.
        "runner.order.model_switches": loaded["run"]["counts"].get("runner.order.model_switches", 0),
        "runner.serialize.calls": calls("runner.serialize"),
        "runner.serialize.busy_ms": busy("runner.serialize"),
        "runner.serialize.bytes": counts.get("runner.serialize.bytes", 0),
        "runner.execute.self_ms": run_self.get("runner.execute", 0.0) * 1000.0,
        "runner.resume_scan.busy_ms": busy("runner.resume_scan"),
        "runner.load_run_records.busy_ms": busy("runner.load_run_records"),
        "runner.load_run_records.records": counts.get("runner.load_run_records.records", 0),
        "metrics.compute.busy_ms": busy("metrics.compute"),
        "metrics.render.busy_ms": busy("metrics.render"),
        "corpus.load.busy_ms": busy("corpus.load"),
        "demo.script.busy_ms": busy("demo.script"),
        "cli.import_ms": import_ms,
        "cli.progress.busy_ms": busy("cli.progress"),
        "stub.requests": stub.get("requests", 0),
        "stub.busy_ms": stub.get("busy_s", 0.0) * 1000.0,
        "stub.load_ms": stub.get("load_s", 0.0) * 1000.0,
        "stub.swaps": stub.get("swaps", 0),
        "stub.queue_wait_ms": stub.get("queue_wait_s", 0.0) * 1000.0,
    }


LAYER_UNITS = {
    "calls": "count", "unparsed": "count", "fallback": "count", "cut": "count",
    "attempts": "count", "model_switches": "count", "records": "count",
    "requests": "count", "swaps": "count", "bytes": "B",
}


def layer_unit(name: str) -> str:
    if name.startswith("trace."):
        return "1/s"
    last = name.rsplit(".", 1)[-1]
    if last in LAYER_UNITS:
        return LAYER_UNITS[last]
    if last.startswith("us_"):
        return "us"
    if "kb" in last:
        return "KB"
    return "ms"


class Bench:
    """One workload: its inputs, its stub and its repetitions."""

    def __init__(self, workload: Workload, seed: int, missing_model: int | None = None) -> None:
        self.w = workload
        self.work = WORK / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        prompts = system_prompts() if workload.stub is not None else None
        self.inputs = generate(self.work, seed, DEMO_CORPUS, workload.n_incidents,
                               workload.n_models, workload.stub, prompts)
        # Failure injection for the benchmark's own tests: the stub answers
        # 404 for the model at this index.
        self.missing_model = None if missing_model is None else self.inputs.models[missing_model]
        self.stub = Stub(self.inputs.schedule, self.missing_model) if workload.stub else None
        self.planned = len(self.inputs.models) * len(TECHNIQUES) * len(self.inputs.incidents)

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()

    def rep(self, i: int, traced: bool) -> dict:
        d = self.work / f"rep{i}"
        d.mkdir()
        run_file, report_dir = d / "run.jsonl", d / "report"
        spans = {k: d / f"spans_{k}.json" for k in ("run", "report", "resume")} if traced else {}
        if self.stub is not None:
            self.stub.call("/bench/reset", post=True)
        backend = self.stub.url if self.stub else "scripted"
        run_args = ["run", "--backend", backend,
                    "--models", ",".join(self.inputs.models),
                    "--techniques", ",".join(TECHNIQUES),
                    "--corpus", str(self.inputs.corpus), "--out", str(run_file),
                    "--parallelism", str(self.w.parallelism)]
        run, launched = run_child(run_args, d / "run_result.json", d / "run.log", spans.get("run"))
        stub_stats = self.stub.call("/bench/stats") if self.stub else None

        report, _ = run_child(["report", str(run_file), str(report_dir)],
                              d / "report_result.json", d / "report.log", spans.get("report"))
        plan = d / "plan.json"
        plan.write_text(json.dumps({"models": list(self.inputs.models), "techniques": list(TECHNIQUES),
                                    "corpus": str(self.inputs.corpus), "out": str(run_file)}))
        file_size = run_file.stat().st_size
        resume, _ = run_child(["resume", str(plan)], d / "resume_result.json",
                              d / "resume.log", spans.get("resume"))

        records = read_run_file(run_file)
        check_records(records, self.inputs.models, self.inputs.incidents,
                      self.inputs.answers, self.missing_model)
        check_report(records, report_dir)
        for planned, skipped, executed in resume["summaries"]:
            if (planned, skipped, executed) != (self.planned, self.planned, 0):
                raise CheckError(f"resume of a finished run did work: {resume['summaries']}")
        if run_file.stat().st_size != file_size:
            raise CheckError("resume of a finished run changed the run file")
        stamps = run["stamps"]
        if len(stamps) != self.planned:
            raise CheckError(f"{len(stamps)} records written for {self.planned} tasks")
        backend_calls = sum(r["trace"]["rounds_used"] for r in records)
        busy_s = 0.0
        if stub_stats is not None:
            busy_s = stub_stats["busy_s"]
            if stub_stats["requests"] != backend_calls:
                raise CheckError(f"stub served {stub_stats['requests']} requests, "
                                 f"records hold {backend_calls} rounds")

        gaps = [(b - a) * 1000.0 for a, b in zip(stamps, stamps[1:])]
        # Blocks of 100 consecutive records: short enough that some fall in
        # a quiet moment of a shared machine, long enough to hold a steady
        # mix of techniques.
        size = min(len(gaps), BLOCK_RECORDS)
        starts = range(0, len(gaps) - size + 1, size)
        execute_s = run["execute"][1] - run["execute"][0]
        out = {
            "setup_s": stamps[0] - launched,
            "rates": [size / (stamps[i + size] - stamps[i]) for i in starts],
            "block_p50s": [percentile(gaps[i:i + size], 0.5) for i in starts],
            "gaps": gaps,
            "overhead_ms_per_call": (execute_s - busy_s) * 1000.0 / backend_calls,
            "run_bytes_per_task": file_size / len(records),
            "report_times": report["times"],
            "resume_times": resume["times"],
            "peak_rss_mb": run["rss_kb"] / 1024.0,
            "records": len(records),
            "failed": sum(r.get("error") is not None for r in records),
        }
        if traced:
            out["layers"] = layer_metrics(spans, run["import_ms"], stub_stats)
        shutil.rmtree(d)
        return out


def system_prompts() -> dict[str, str]:
    """Technique -> system prompt, so the stub can tell techniques apart."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from triagebench.taxonomy import builtin_taxonomy
    from triagebench.techniques import TechniqueConfig, TechniqueId

    templates, taxonomy = TechniqueConfig().templates, builtin_taxonomy()
    return {t: templates.system(TechniqueId(t), taxonomy) for t in TECHNIQUES}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 missing_model: int | None = None, min_reps: int = 3) -> dict:
    """Repeat the workload for `seconds` (at least min_reps times, and with
    tracing at least one untraced and one traced repetition)."""
    bench = Bench(workload, seed, missing_model)
    reps: list[dict] = []
    try:
        deadline = time.monotonic() + seconds
        while len(reps) < min_reps or time.monotonic() < deadline:
            reps.append(bench.rep(len(reps), traced=trace and len(reps) % 2 == 1))
    finally:
        bench.close()
        shutil.rmtree(bench.work, ignore_errors=True)
    return summarize(workload, reps, trace)


def reduce(how: str, unit: str, values: list[float]) -> float:
    if how == "median":
        return statistics.median(values)
    if how == "mean":
        return statistics.fmean(values)
    if how == "p99":
        return percentile(values, 0.99)
    return max(values) if unit.startswith("1/") else min(values)  # best


def summarize(workload: Workload, reps: list[dict], trace: bool) -> dict:
    """End-to-end metrics over the untraced runs, per-layer over the traced."""
    plain = [r for r in reps if "layers" not in r]
    traced = [r for r in reps if "layers" in r]
    samples = {
        "tasks_per_s": [v for r in plain for v in r["rates"]],
        "task_gap_ms_p50": [v for r in plain for v in r["block_p50s"]],
        "task_gap_ms_p99": [g for r in plain for g in r["gaps"]],
        "report_s": [v for r in plain for v in r["report_times"]],
        "resume_s": [v for r in plain for v in r["resume_times"]],
    }
    for name in ("setup_s", "run_bytes_per_task", "peak_rss_mb", "overhead_ms_per_call"):
        samples[name] = [r[name] for r in plain]

    how = {name: workload.calls if h == "calls" else h for name, _, h in END_TO_END + UNBOUNDED}
    values = {name: reduce(how[name], unit, samples[name]) for name, unit, _ in END_TO_END + UNBOUNDED}
    attempted = sum(r["records"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    summary = {
        "workload": workload.name,
        "reps": len(plain),
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "how": how,
        "samples": samples,
    }
    if trace:
        names = traced[0]["layers"].keys()
        layers = {n: statistics.median(r["layers"][n] for r in traced) for n in names}
        layers["trace.overhead_tasks_per_s"] = values["tasks_per_s"] - max(
            v for r in traced for v in r["rates"])
        layers.update((name, values[name]) for name, _, _ in UNBOUNDED)
        summary["layers"] = layers
        summary["traced_reps"] = len(traced)
    return summary


def print_table(s: dict) -> None:
    print(f"== {s['workload']}: {s['reps']} untraced runs, failed {s['failed']}/{s['attempted']} "
          f"tasks = {100.0 * s['failed'] / s['attempted']:.3f} % (failed_pct)")
    for name, unit, how in END_TO_END + UNBOUNDED:
        v = s["samples"][name]
        bounded = "" if (name, unit, how) in END_TO_END else "  (not bounded)"
        print(f"  {name:20s} {s['values'][name]:12.4f} {unit:4s} {s['how'][name]:6s} of {len(v):6d} samples; "
              f"median {statistics.median(v):.4f}, p99 {percentile(v, 0.99):.4f}{bounded}")
    if "layers" in s:
        print(f"  per layer, median of {s['traced_reps']} traced runs "
              f"(the last three: of the untraced runs):")
        for name, value in s["layers"].items():
            print(f"    {name:36s} {value:14.4f} {layer_unit(name)}")


def result_line(s: dict, trace: bool) -> dict:
    if trace:
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in s["layers"].items()}
    else:
        metrics = {n: {"value": s["values"][n], "unit": u} for n, u, _ in END_TO_END}
    return {"correct": True, "attempted": s["attempted"], "failed": s["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not DEMO_CORPUS.is_file():
        print(f"error: {DEMO_CORPUS} is missing; perfbench/ must sit in a triagebench checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    try:
        for name in names:
            summaries.append(run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)))
            print_table(summaries[-1])
    except (CheckError, ValueError, KeyError) as exc:
        print(f"error: wrong output: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if len(summaries) == 1:
        print(json.dumps(result_line(summaries[0], bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
