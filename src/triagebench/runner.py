"""Experiment-matrix execution: (incident × technique × model) with resume.

Tasks are ordered incident-outer, technique-middle, model-inner so a partial
run covers every technique early. Records are appended to the run file as
each task completes; one writer (the calling thread) owns the file, workers
only compute. A crash mid-write leaves at most one torn trailing line,
which resume cuts off. An interrupt or a failed write stops a parallel run
once the tasks already started finish; tasks still queued are never sent
to the backend. After an interrupt those tasks are written too, so resume
re-runs only what never finished; after a failed write nothing is.
resume_scan and load_run_records share one line reader, so every task that
resume skips is one that load_run_records returns or refuses by line. The
reader streams the file, so it is never held in memory whole.
load_run_records decodes with the cyclic garbage collector paused: records
hold no reference cycles, so reference counting frees them, and collector
passes over a growing set of records would cost a third of the load.
"""
from __future__ import annotations

import logging
import mmap
import os
from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from json import loads
from pathlib import Path
from typing import Callable, Iterator

from .backend import Backend, GenerationParams, ModelSpec
from .corpus import Corpus
from .taxonomy import CategoryCode, builtin_taxonomy
from .techniques import (
    ClassificationError,
    ClassificationTrace,
    TechniqueConfig,
    TechniqueId,
    classify,
)
from .util import canonical_dumps, enum_decoder, gc_paused

logger = logging.getLogger(__name__)

RUN_SCHEMA_VERSION = 1

TaskKey = tuple[str, str, str]  # (model name, technique, incident id)


_category = enum_decoder(CategoryCode)


class RunError(Exception):
    """Run-file or plan-level failure (not a single-task failure)."""


@dataclass(frozen=True)
class RunPlan:
    models: tuple[ModelSpec, ...]
    techniques: tuple[TechniqueId, ...]
    corpus: Corpus
    params: GenerationParams
    technique_config: TechniqueConfig
    seed: int
    output_path: Path
    parallelism: int = 1

    def __post_init__(self) -> None:
        if not self.models or not self.techniques or not len(self.corpus):
            raise RunError("plan needs at least one model, technique and incident")
        if self.parallelism < 1:
            raise RunError("parallelism must be >= 1")

    def task_keys(self) -> list[TaskKey]:
        return [
            (model.name, technique.value, incident.id)
            for incident in self.corpus.records
            for technique in self.techniques
            for model in self.models
        ]


@dataclass(frozen=True, slots=True)
class RunRecord:
    trace: ClassificationTrace
    ground_truth: CategoryCode
    error: str | None = None

    def __post_init__(self) -> None:
        if self.ground_truth is CategoryCode.UNPARSED:
            raise ValueError("ground_truth may not be UNPARSED")

    @property
    def key(self) -> TaskKey:
        return (self.trace.model, self.trace.technique.value, self.trace.incident_id)

    @property
    def correct(self) -> bool:
        """The final answer equals the expert label; a failed task's final
        is UNPARSED, which no label is."""
        return self.trace.final == self.ground_truth

    def to_dict(self) -> dict:
        d = {
            "schema_version": RUN_SCHEMA_VERSION,
            "trace": self.trace.to_dict(),
            "ground_truth": self.ground_truth.value,
            "correct": self.correct,
        }
        if self.error is not None:
            d["error"] = self.error
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        """Decode a record; a stored `correct` must be the one it implies."""
        record = cls(
            trace=ClassificationTrace.from_dict(d["trace"]),
            ground_truth=_category(d["ground_truth"]),
            error=d.get("error"),
        )
        if "error" in d and type(record.error) is not str:
            raise TypeError(f"error must be str, got {record.error!r}")
        if d["correct"] is not record.correct:
            raise ValueError(
                f"correct is {d['correct']!r}, but final {record.trace.final.value}"
                f" and ground_truth {record.ground_truth.value} give {record.correct}"
            )
        return record


def _line_key(raw: bytes) -> tuple[TaskKey, dict]:
    """The task key and decoded JSON of one run-file line. Raises ValueError
    (bad UTF-8 or JSON), KeyError or TypeError if it holds no task key."""
    d = loads(raw.decode("utf-8"))
    trace = d["trace"]
    key = (trace["model"], trace["technique"], trace["incident_id"])
    hash(key)  # TypeError if a key part is unhashable
    return key, d


def _read_run_file(path: Path) -> Iterator[tuple[int, TaskKey, dict]]:
    """(line number, task key, decoded line) for each line whose key decodes.

    The file is read as a stream of lines that end only at "\n", not at
    the U+2028, U+2029 or U+0085 that JSON strings hold raw. Other lines are
    skipped with a warning; a last line without "\n" is torn by a killed
    run. A complete line that is not UTF-8 raises RunError. A repeated key
    is yielded again, with a warning; callers keep the later line.
    """
    seen: set[TaskKey] = set()
    try:
        with path.open("rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if not raw.strip():
                    continue
                torn = not raw.endswith(b"\n")
                try:
                    key, d = _line_key(raw)
                except (ValueError, KeyError, TypeError) as exc:
                    if isinstance(exc, UnicodeDecodeError) and not torn:
                        raise RunError(
                            f"cannot read run file {path}: line {lineno}: {exc}"
                        )
                    logger.warning(
                        "%s:%d: %s", path.name, lineno,
                        "ignoring torn trailing line (crash artifact)"
                        if torn else "skipping malformed record line",
                    )
                    continue
                if key in seen:
                    logger.warning(
                        "%s:%d: duplicate record for %s; later line wins",
                        path.name, lineno, key,
                    )
                seen.add(key)
                yield lineno, key, d
    except OSError as exc:
        raise RunError(f"cannot read run file {path}: {exc}") from exc


def resume_scan(output_path: str | Path) -> set[TaskKey]:
    """Keys of the records already in the run file; empty if there is none."""
    path = Path(output_path)
    if not path.exists():
        return set()
    return {key for _, key, _ in _read_run_file(path)}


def load_run_records(path: str | Path) -> list[RunRecord]:
    """Read back a run file, resolving duplicate keys to the latest line.

    A line whose key decodes but whose record does not raises RunError:
    resume would skip that task, so dropping it would lose it for good.
    """
    path = Path(path)
    by_key: dict[TaskKey, RunRecord] = {}
    # Records hold no reference cycles; a collector pass would only walk them.
    with gc_paused():
        for lineno, key, d in _read_run_file(path):
            try:
                by_key[key] = RunRecord.from_dict(d)
            except (KeyError, TypeError, ValueError) as exc:
                raise RunError(
                    f"{path}:{lineno}: invalid record: {type(exc).__name__}: {exc}"
                ) from exc
    return list(by_key.values())


@dataclass(frozen=True)
class RunSummary:
    planned: int
    skipped: int
    executed: int
    failed: int

    def __str__(self) -> str:
        return (
            f"{self.executed} of {self.planned} tasks executed "
            f"({self.skipped} resumed, {self.failed} failed-as-recorded)"
        )


def execute(
    plan: RunPlan,
    backend: Backend,
    resume: bool = False,
    on_record: Callable[[RunRecord, int, int], None] | None = None,
) -> RunSummary:
    """Run the full plan, appending one RunRecord line per task.

    Every task is classified against the builtin taxonomy. A task whose
    backend calls keep failing is recorded as a failed record (final
    UNPARSED, error note) and the run continues; only run-file I/O failures
    abort. With resume=True, keys already present in the output file are
    skipped.
    """
    path = Path(plan.output_path)

    done: set[TaskKey] = set()
    if resume:
        done = resume_scan(path)
    elif path.exists() and path.stat().st_size > 0:
        raise RunError(
            f"output file {path} already exists; pass resume=True or use a fresh path"
        )

    incidents = {rec.id: rec for rec in plan.corpus.records}
    tasks = [key for key in plan.task_keys() if key not in done]
    models = {m.name: m for m in plan.models}
    total = len(plan.task_keys())

    def work(key: TaskKey) -> RunRecord:
        model_name, technique_value, incident_id = key
        incident = incidents[incident_id]
        try:
            trace = classify(
                incident,
                TechniqueId(technique_value),
                models[model_name],
                backend,
                builtin_taxonomy(),
                plan.params,
                plan.technique_config,
            )
            return RunRecord(trace, incident.ground_truth)
        except ClassificationError as exc:
            logger.warning("task %s failed: %s", key, exc)
            return RunRecord(exc.partial_trace, incident.ground_truth, str(exc))

    executed = failed = 0
    completed = len(done)
    path.parent.mkdir(parents=True, exist_ok=True)
    seal = False
    if path.exists() and path.stat().st_size > 0:
        with path.open("rb") as fh:
            with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
                start = mm.rfind(b"\n") + 1
                tail = mm[start:]
        # Seal an unterminated last line if resume counted its key as done;
        # else cut it off, as sealing a line cut inside a character would
        # leave a complete line that is not UTF-8.
        try:
            if tail:
                _line_key(tail)
                seal = True
        except (ValueError, KeyError, TypeError):
            os.truncate(path, start)
    with path.open("a", encoding="utf-8") as out:
        if seal:
            out.write("\n")

        def write(record: RunRecord) -> None:
            nonlocal executed, failed, completed
            out.write(canonical_dumps(record.to_dict()) + "\n")
            out.flush()
            executed += 1
            completed += 1
            if record.error is not None:
                failed += 1
            if on_record is not None:
                on_record(record, completed, total)

        if plan.parallelism == 1:
            # Serial path keeps record order identical to plan order.
            for key in tasks:
                write(work(key))
        else:
            pool = ThreadPoolExecutor(max_workers=plan.parallelism)
            unwritten: dict[Future, None] = {}
            try:
                unwritten = dict.fromkeys(pool.submit(work, key) for key in tasks)
                for future in as_completed(tuple(unwritten)):
                    del unwritten[future]
                    write(future.result())
            except KeyboardInterrupt:
                # Keep finished work: drop the queue, let running tasks end.
                pool.shutdown(cancel_futures=True)
                for future in unwritten:
                    if not future.cancelled() and future.exception() is None:
                        write(future.result())
                raise
            finally:
                # After any other exception, queued tasks are dropped, not
                # run and discarded, and nothing more is written.
                pool.shutdown(cancel_futures=True)

    summary = RunSummary(
        planned=total, skipped=len(done), executed=executed, failed=failed
    )
    logger.info("run complete: %s", summary)
    return summary
