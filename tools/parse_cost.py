"""Per-reply cost of parse_category on the demo script's replies.

Splits the replies of the offline demo script into those with a
"FINAL: CATk" line and those with neither a contract line nor a CATk token
(the name fallback). Each pass parses both groups back to back, so the
machine's speed drift hits both alike; prints microseconds per reply (best
and median over the passes) and the median over passes of the
fallback/FINAL ratio.

    PYTHONPATH=src python3 tools/parse_cost.py
"""
from __future__ import annotations

import re
import statistics
import time

from triagebench.demo import (
    DEMO_MODEL_NAME,
    DEMO_TECHNIQUES,
    build_demo_script,
    load_demo_corpus,
)
from triagebench.taxonomy import builtin_taxonomy, parse_category
from triagebench.techniques import TechniqueConfig

PASSES = 21
REPS = 100

_FINAL = re.compile(r"FINAL\s*:", re.IGNORECASE)
_TOKEN = re.compile(r"\bCAT\d{1,2}\b", re.IGNORECASE)


def us_per_reply(replies: list[str]) -> float:
    taxonomy = builtin_taxonomy()
    start = time.perf_counter()
    for _ in range(REPS):
        for reply in replies:
            parse_category(reply, taxonomy)
    return (time.perf_counter() - start) / (REPS * len(replies)) * 1e6


def main() -> None:
    corpus = load_demo_corpus()
    # One model, every technique and incident; the order of the keys does
    # not matter here, only the set of replies.
    keys = [
        (DEMO_MODEL_NAME, t.value, rec.id)
        for t in DEMO_TECHNIQUES
        for rec in corpus.records
    ]
    script = build_demo_script(corpus, keys, TechniqueConfig().max_rounds)
    groups = {
        "FINAL": [r for r in script if _FINAL.search(r)],
        "fallback": [r for r in script if not _FINAL.search(r) and not _TOKEN.search(r)],
    }
    parse_category(script[0], builtin_taxonomy())  # build the taxonomy's caches
    times: dict[str, list[float]] = {label: [] for label in groups}
    for _ in range(PASSES):
        for label, replies in groups.items():
            times[label].append(us_per_reply(replies))
    for label, replies in groups.items():
        print(f"{label:8s} {len(replies):4d} replies  us/reply best {min(times[label]):.2f}"
              f"  median {statistics.median(times[label]):.2f}")
    ratios = [b / f for f, b in zip(times["FINAL"], times["fallback"])]
    print(f"fallback / FINAL, median of {PASSES} passes: {statistics.median(ratios):.2f}")


if __name__ == "__main__":
    main()
