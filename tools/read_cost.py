"""Per-line cost of reading a run file: decoding alone, and load_run_records.

Writes a scripted 2-model x 5-technique run over the demo corpus, repeated
REPEATS times under fresh incident ids, into a temporary directory. Each
pass then times decoding every line back to back with load_run_records on
the same file, so the machine's speed drift hits both alike. Decoding is
the reader's own decode (JSONDecoder().raw_decode of each line's text, the
lines already in memory); load_run_records adds reading the file, keying
and checking each line and building its row. Prints microseconds per line
(best and median over the passes) and the median over passes of the
load/decode ratio.

    PYTHONPATH=src python3 tools/read_cost.py
"""
from __future__ import annotations

import statistics
import tempfile
import time
from json import JSONDecoder
from pathlib import Path

from triagebench.backend import GenerationParams, ScriptedBackend, resolve_model
from triagebench.corpus import Corpus, IncidentRecord
from triagebench.demo import DEMO_TECHNIQUES, build_demo_script, load_demo_corpus
from triagebench.runner import RunPlan, execute, load_run_records
from triagebench.techniques import TechniqueConfig

PASSES = 15
REPEATS = 10  # 24 demo incidents x 10 x 5 techniques x 2 models: 2,400 lines
MODELS = ("demo", "demo-2")


def write_run(path: Path) -> None:
    demo = load_demo_corpus()
    corpus = Corpus(tuple(
        IncidentRecord(f"{rec.id}-{k}", rec.text, rec.ground_truth)
        for k in range(REPEATS)
        for rec in demo.records
    ))
    config = TechniqueConfig()
    plan = RunPlan(
        models=tuple(resolve_model(name) for name in MODELS),
        techniques=DEMO_TECHNIQUES,
        corpus=corpus,
        params=GenerationParams(),
        technique_config=config,
        seed=0,
        output_path=path,
    )
    execute(plan, ScriptedBackend(build_demo_script(corpus, plan.run_order(), config.max_rounds)))


def us_per_line(fn, n: int) -> float:
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) / n * 1e6


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="read-cost-") as tmp:
        path = Path(tmp) / "run.jsonl"
        write_run(path)
        with path.open("rb") as fh:  # lines end only at "\n", as the reader's do
            texts = [raw.decode("utf-8") for raw in fh]
        raw_decode = JSONDecoder().raw_decode
        n = len(load_run_records(path))
        assert n == len(texts), (n, len(texts))

        def decode() -> None:
            for text in texts:
                raw_decode(text)

        steps = {"decode": decode, "load_run_records": lambda: load_run_records(path)}
        times: dict[str, list[float]] = {label: [] for label in steps}
        for _ in range(PASSES):
            for label, fn in steps.items():
                times[label].append(us_per_line(fn, n))
    for label, ts in times.items():
        print(f"{label:16s} {n:5d} lines  us/line best {min(ts):.2f}"
              f"  median {statistics.median(ts):.2f}")
    ratios = [load / dec for dec, load in zip(times["decode"], times["load_run_records"])]
    print(f"load_run_records / decode, median of {PASSES} passes: "
          f"{statistics.median(ratios):.2f}")


if __name__ == "__main__":
    main()
