"""Span tracing for the traced benchmark run, installed from outside the program.

Tracer.install replaces public functions of the triagebench modules with
wrappers that record a span (name, start, end, parent task, thread) per call
plus a few counters. Names are patched where the caller looks them up, e.g.
runner.classify rather than techniques.classify, because the modules import
each other's functions by name. Spans stay in memory until write().
"""
from __future__ import annotations

import functools
import json
import re
import threading
import time
from collections import Counter
from pathlib import Path

_CATEGORY_TOKEN_RE = re.compile(r"CAT\s?\d", re.IGNORECASE)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, str | None, int]] = []
        self.counts: Counter[str] = Counter()
        self.values: dict[str, list[float]] = {}
        self._local = threading.local()
        self._counts_lock = threading.Lock()

    def count(self, name: str, n: int | float = 1) -> None:
        with self._counts_lock:
            self.counts[name] += n

    def value(self, name: str, v: float) -> None:
        with self._counts_lock:
            self.values.setdefault(name, []).append(v)

    def wrap(self, name, fn, note=None, task_of=None):
        """fn wrapped in a span; note(result, args) runs outside the span.

        task_of(args) names the task the call starts; spans recorded inside
        it on the same thread carry that task as their parent.
        """
        spans, local, clock, ident = self.spans, self._local, time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if task_of is not None:
                local.task = task_of(args)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append((name, start, clock(), getattr(local, "task", None), ident()))
                if task_of is not None:
                    local.task = None
            if note is not None:
                note(result, args)
            return result

        return wrapper

    def install(self, cli) -> None:
        """Wrap the layers reachable from the triagebench.cli module."""
        from triagebench import backend, runner, techniques

        def on_parse(result, args):
            self.count("taxonomy.parse.unparsed", result.value == "UNPARSED")
            self.count("taxonomy.parse.fallback", not _CATEGORY_TOKEN_RE.search(args[0]))

        def on_truncate(result, args):
            before = args[0]
            self.count(
                "backend.truncate.cut",
                len(result) != len(before) or result[-1].content != before[-1].content,
            )

        def on_complete(result, args):
            tel = result.telemetry
            if tel.server_eval_duration_ms is not None:
                self.value("backend.server_ms", tel.server_eval_duration_ms)
                self.value("backend.http_overhead_ms", tel.latency_ms - tel.server_eval_duration_ms)

        def on_serialize(result, args):
            self.count("runner.serialize.bytes", len(result.encode("utf-8")) + 1)

        def on_task_keys(result, args):
            switches = sum(a[0] != b[0] for a, b in zip(result, result[1:]))
            with self._counts_lock:
                self.counts["runner.order.model_switches"] = switches

        def on_load(result, args):
            self.count("runner.load_run_records.records", len(result))

        def task_of(args):
            incident, technique, model = args[:3]
            return f"{model.name}|{technique.value}|{incident.id}"

        techniques.parse_category = self.wrap("taxonomy.parse", techniques.parse_category, on_parse)
        techniques.truncate_to_budget = self.wrap(
            "backend.truncate", techniques.truncate_to_budget, on_truncate
        )
        ts = techniques.TemplateSet
        ts.system = self.wrap("techniques.render", ts.system)
        ts.round = self.wrap("techniques.render", ts.round)
        for cls in (backend.ScriptedBackend, backend.OllamaBackend):
            cls.complete = self.wrap("backend.complete", cls.complete, on_complete)
        runner.classify = self.wrap("techniques.classify", runner.classify, task_of=task_of)
        runner.canonical_dumps = self.wrap("runner.serialize", runner.canonical_dumps, on_serialize)
        runner.resume_scan = self.wrap("runner.resume_scan", runner.resume_scan)
        runner.RunPlan.task_keys = self.wrap("runner.task_keys", runner.RunPlan.task_keys, on_task_keys)
        cli.execute = self.wrap("runner.execute", cli.execute)
        runner.execute = self.wrap("runner.execute", runner.execute)
        cli.load_run_records = self.wrap("runner.load_run_records", cli.load_run_records, on_load)
        cli.compute_metrics = self.wrap("metrics.compute", cli.compute_metrics)
        cli.render_report = self.wrap("metrics.render", cli.render_report)
        cli.load_corpus = self.wrap("corpus.load", cli.load_corpus)
        cli.build_demo_script = self.wrap("demo.script", cli.build_demo_script)
        cli._progress = self.wrap("cli.progress", cli._progress)
        cli.OllamaBackend = functools.partial(
            backend.OllamaBackend, session=counting_session(self)
        )

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        path.write_text(
            json.dumps(
                {
                    "names": names,
                    "spans": [[index[n], a, b, t, th] for n, a, b, t, th in self.spans],
                    "counts": dict(self.counts),
                    "values": self.values,
                }
            ),
            encoding="utf-8",
        )


def counting_session(tracer: Tracer):
    """A requests.Session that counts chat attempts and their payload bytes."""
    import requests

    class CountingSession(requests.Session):
        def send(self, request, **kwargs):
            chat = request.path_url.endswith("/api/chat")
            if chat:
                tracer.count("backend.http.attempts")
                tracer.value("backend.request_kb", len(request.body or b"") / 1024)
            response = super().send(request, **kwargs)
            if chat:
                tracer.value("backend.response_kb", len(response.content) / 1024)
            return response

    return CountingSession()


def self_times(spans: list, names: list[str]) -> dict[str, float]:
    """Total self time per span name: duration minus the time covered by
    its direct children (spans nested inside it on the same thread)."""
    out: dict[str, float] = {}
    by_thread: dict[int, list] = {}
    for s in spans:
        by_thread.setdefault(s[4], []).append(s)
    for group in by_thread.values():
        group.sort(key=lambda s: (s[1], -s[2]))
        stack: list[list] = []  # [name index, start, end, time in children]

        def close(entry: list) -> None:
            name = names[entry[0]]
            out[name] = out.get(name, 0.0) + (entry[2] - entry[1]) - entry[3]

        for name, start, end, _task, _thread in group:
            while stack and stack[-1][2] <= start:
                close(stack.pop())
            if stack:
                stack[-1][3] += end - start
            stack.append([name, start, end, 0.0])
        while stack:
            close(stack.pop())
    return out
