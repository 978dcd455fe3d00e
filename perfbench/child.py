"""Runs the program in a process of its own and records what the benchmark needs.

    python3 perfbench/child.py RESULT.json [--spans SPANS.json] run ARGS...
    python3 perfbench/child.py RESULT.json [--spans SPANS.json] report RUN_FILE OUT_DIR
    python3 perfbench/child.py RESULT.json [--spans SPANS.json] resume PLAN.json

`run` is `triagebench run ARGS...` through triagebench.cli.main; RESULT.json
gets the monotonic time of every record the runner wrote and execute's start
and end. `report` is `triagebench report RUN_FILE --out-dir OUT_DIR`.
`resume` calls runner.execute(..., resume=True) on a finished run file,
which the CLI does not allow with the scripted backend.

A report or resume of a small run file takes milliseconds, so untraced
they repeat on the unchanged file for at least REPEAT_MIN_S and RESULT.json
gets the time of every call. With --spans every mode makes one call, traced
(see tracing.py), and the spans are written there at exit.

RESULT.json also gets the exit code, the import time of triagebench.cli and
the peak resident memory of this process.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

REPEAT_MIN_S = 3.0
REPEAT_MAX_CALLS = 100


class _RefusingBackend:
    """Resume must skip every task, so any call is a benchmark failure."""

    def complete(self, model, messages, params):
        raise RuntimeError("resume of a finished run file called the backend")


def _timed_calls(fn, once: bool) -> list[float]:
    times: list[float] = []
    while not times or (not once and len(times) < REPEAT_MAX_CALLS and sum(times) < REPEAT_MIN_S):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def _resume_plan(plan_path: Path):
    from triagebench import runner
    from triagebench.backend import GenerationParams, resolve_model
    from triagebench.corpus import load_corpus
    from triagebench.techniques import TechniqueConfig, TechniqueId

    spec = json.loads(plan_path.read_text(encoding="utf-8"))
    return runner.RunPlan(
        models=tuple(resolve_model(m) for m in spec["models"]),
        techniques=tuple(TechniqueId(t) for t in spec["techniques"]),
        corpus=load_corpus(spec["corpus"]),
        params=GenerationParams(),
        technique_config=TechniqueConfig(),
        seed=0,
        output_path=Path(spec["out"]),
    )


def peak_rss_kb() -> int:
    """High-water resident set of this process image.

    ru_maxrss also counts the parent's memory at fork time, so the large
    parent process would leak into it; VmHWM starts afresh at exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    result_path = Path(argv.pop(0))
    spans_path = None
    if argv[0] == "--spans":
        spans_path = Path(argv[1])
        del argv[:2]
    mode = argv.pop(0)

    start = time.perf_counter()
    import triagebench.cli as cli
    from triagebench import runner

    result: dict = {"import_ms": (time.perf_counter() - start) * 1000.0}

    tracer = None
    if spans_path is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(cli)

    try:
        if mode == "run":
            stamps: list[float] = []
            execute = cli.execute

            def stamped_execute(*args, on_record=None, **kwargs):
                def hook(record, completed, total):
                    stamps.append(time.monotonic())
                    if on_record is not None:
                        on_record(record, completed, total)

                result["execute"] = [time.monotonic()]
                try:
                    return execute(*args, on_record=hook, **kwargs)
                finally:
                    result["execute"].append(time.monotonic())

            cli.execute = stamped_execute
            code = cli.main(["run", *argv])
            result["stamps"] = stamps
        elif mode == "report":
            run_file, out_dir = argv
            codes = []
            times = _timed_calls(
                lambda: codes.append(cli.main(["report", run_file, "--out-dir", out_dir])),
                once=tracer is not None,
            )
            code = max(codes)
            result["times"] = times
        elif mode == "resume":
            plan = _resume_plan(Path(argv[0]))
            summaries = []
            times = _timed_calls(
                lambda: summaries.append(runner.execute(plan, _RefusingBackend(), resume=True)),
                once=tracer is not None,
            )
            code = 0
            result["times"] = times
            result["summaries"] = [[s.planned, s.skipped, s.executed] for s in summaries]
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if tracer is not None:
            tracer.write(spans_path)
    result["exit"] = code
    result["rss_kb"] = peak_rss_kb()
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
