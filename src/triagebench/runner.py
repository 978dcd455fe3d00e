"""Experiment-matrix execution: (incident × technique × model) with resume.

The plan enumerates tasks incident-outer, technique-middle, model-inner.
Every run, serial or threaded, sends them in RunPlan.run_order(): one
model's tasks after another, each model's in plan order, so a server that
holds one model at a time loads each once. This module alone decides that
order; the scripted reply queue is built from it.
Records are appended to the run file as each task completes; execute alone
makes, opens, cuts and writes the file, from the calling thread, and
workers only compute. A line is a record only once its "\n" is written:
each record goes out with its "\n" in one write, every reader skips a last
line without one, and resume cuts it off and runs its task again. An interrupt
or a failed write stops a parallel run once the tasks already started
finish; tasks still queued are never sent to the backend. After an
interrupt those tasks are written too, so resume re-runs only what never
finished; after a failed write nothing is. resume_scan and
load_run_records share one streaming line reader, so every task resume
skips is one that load_run_records reads or refuses by line; both refuse a
line of another schema version. load_run_records is the one record reader:
check_record applies every rule of a record to its decoded line and reduces
it to a RunRow, the few fields the metrics read, without building its
transcript. A resumed run counts only its plan's tasks, and refuses a file
stamped with another template set. A record grades its trace, which holds a
failed task's error, against the expert label.
"""
from __future__ import annotations

import logging
import mmap
import os
from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from json import loads
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Collection, Iterator, NamedTuple

from .backend import (
    Backend,
    BudgetTooSmallError,
    ChatMessage,
    GenerationParams,
    ModelSpec,
    Role,
    truncate_to_budget,
)
from .corpus import Corpus
from .taxonomy import CategoryCode, builtin_taxonomy
from .techniques import (
    TRACE_SCHEMA_VERSION,
    ClassificationTrace,
    TechniqueConfig,
    TechniqueId,
    check_trace,
    classify,
)
from .util import enum_decoder, utf8_encodable

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
        # A repeated model or technique would repeat every one of its tasks.
        for axis, names in (
            ("model", [m.name for m in self.models]),
            ("technique", [t.value for t in self.techniques]),
        ):
            if len(set(names)) < len(names):
                raise RunError(f"plan repeats a {axis}: {', '.join(names)}")
        # Every record stores its model's name, and a run file is UTF-8.
        for model in self.models:
            if not utf8_encodable(model.name):
                raise RunError(f"model name {model.name!r} is not UTF-8")
        # A budget that cannot hold a system prompt beside a cut user message
        # would fail every task of that technique, so refuse it up front.
        budget = self.params.input_token_budget
        user = ChatMessage(Role.USER, "x" * (4 * budget + 1))
        templates, taxonomy = self.technique_config.templates, builtin_taxonomy()
        for technique in self.techniques:
            system = ChatMessage(Role.SYSTEM, templates.system(technique, taxonomy))
            try:
                truncate_to_budget([system, user], budget)
            except BudgetTooSmallError:
                raise RunError(
                    f"input_token_budget {budget} is too small for the"
                    f" {technique.value} system prompt"
                ) from None

    def task_keys(self) -> list[TaskKey]:
        """Every task in plan order: incident, then technique, then model.

        This enumerates the plan; run_order() is the order a run sends it in.
        """
        techniques = [t.value for t in self.techniques]  # one read each
        return [
            (model.name, technique, incident.id)
            for incident in self.corpus.records
            for technique in techniques
            for model in self.models
        ]

    def run_order(self, done: Collection[TaskKey] = frozenset()) -> list[TaskKey]:
        """The tasks not in done, in the order every run sends them.

        Model by model in `models` order, so a server that holds one model
        at a time loads each once; each model's tasks go incident by
        incident, each incident's technique by technique. A serial run
        writes its records in this order.
        """
        techniques = [t.value for t in self.techniques]  # one read each
        return [
            key
            for model in self.models
            for incident in self.corpus.records
            for technique in techniques
            if (key := (model.name, technique, incident.id)) not in done
        ]


class RunRow(NamedTuple):
    """What the metrics read of one record: its task, grade and totals."""

    model: str
    technique: str
    incident_id: str
    group: str
    ground_truth: CategoryCode
    final: CategoryCode
    error: str | None
    total_latency_ms: float
    total_response_chars: int
    rounds_used: int

    @property
    def key(self) -> TaskKey:
        return (self.model, self.technique, self.incident_id)

    @property
    def correct(self) -> bool:
        """The final answer equals the expert label (never for a failed task)."""
        return self.final == self.ground_truth


@dataclass(frozen=True, slots=True)
class RunRecord:
    trace: ClassificationTrace
    ground_truth: CategoryCode

    def __post_init__(self) -> None:
        _check_truth(self.ground_truth)

    @property
    def error(self) -> str | None:
        """Why the task failed, or None if it did not."""
        return self.trace.error

    @property
    def key(self) -> TaskKey:
        return (self.trace.model, self.trace.technique.value, self.trace.incident_id)

    @property
    def correct(self) -> bool:
        """The final answer equals the expert label (never for a failed task)."""
        return self.trace.final == self.ground_truth

    def row(self) -> RunRow:
        t = self.trace
        return RunRow(
            t.model, t.technique.value, t.incident_id, t.model_group.value,
            self.ground_truth, t.final, t.error,
            t.total_latency_ms, t.total_response_chars, t.rounds_used,
        )

    def to_json(self) -> str:
        """The record as one run-file line, without its "\n": the canonical
        JSON of to_dict(), its keys laid out here in sorted order as
        ClassificationTrace.to_json lays out the trace's. A failed task's
        error is written here, beside the trace."""
        error = self.trace.error
        error = "" if error is None else f'"error":{encode_basestring(error)},'
        return (
            f'{{"correct":{"true" if self.correct else "false"},'
            f'{error}"ground_truth":"{self.ground_truth._value_}",'
            f'"schema_version":{RUN_SCHEMA_VERSION},"trace":{self.trace.to_json()}}}'
        )

    def to_dict(self) -> dict:
        """The record as stored in a run file, as plain JSON types."""
        return loads(self.to_json())


# execute serializes every record through this module global, which the
# benchmark's tracer (perfbench/tracing.py) wraps to time the layer; it
# returns the line as a str.
canonical_dumps = RunRecord.to_json


def _check_truth(ground_truth: CategoryCode) -> None:
    if ground_truth is CategoryCode.UNPARSED:
        raise ValueError("ground_truth may not be UNPARSED")


def check_record(d: dict) -> tuple[RunRow, str]:
    """The row of a stored record and its template_hash, checked without
    building the record.

    The record and its trace must carry this version's schema versions,
    the trace must pass check_trace, the ground truth must be a category,
    and a stored `correct` must be the one final and ground truth imply.
    """
    _check_versions(d)
    error = d.get("error")
    (model, technique, incident_id, group, final, total_latency_ms,
     total_response_chars, rounds_used, template_hash) = check_trace(d["trace"], error)
    ground_truth = _category(d["ground_truth"])
    _check_truth(ground_truth)
    correct = final is ground_truth
    if d["correct"] is not correct:
        raise ValueError(
            f"correct is {d['correct']!r}, but final {final.value}"
            f" and ground_truth {ground_truth.value} give {correct}"
        )
    row = RunRow(
        model, technique._value_, incident_id, group._value_, ground_truth, final,
        error, total_latency_ms, total_response_chars, rounds_used,
    )
    return row, template_hash


def _check_versions(d: dict) -> None:
    """A record and its trace must carry the schema versions written here."""
    for name, found, version in (
        ("schema_version", d.get("schema_version"), RUN_SCHEMA_VERSION),
        ("trace schema_version", d["trace"].get("schema_version"),
         TRACE_SCHEMA_VERSION),
    ):
        if type(found) is not int or found != version:
            raise ValueError(f"{name} is {found!r}, but this version reads {version}")


def _invalid(path: Path, lineno: int, exc: Exception) -> RunError:
    return RunError(f"{path}:{lineno}: invalid record: {type(exc).__name__}: {exc}")


def _read_run_file(path: Path) -> Iterator[tuple[int, TaskKey, dict]]:
    """(line number, task key, decoded line) for each line whose key decodes.

    A line is a record only once its "\n" is written: the file is read as a
    stream of lines that end only at "\n", not at the U+2028, U+2029 or
    U+0085 that JSON strings hold raw, and a last line without "\n", torn
    by a killed run, is skipped with a warning before it is decoded. Other
    lines that do not decode, nested too deep included, or have no task key
    are skipped with a warning; a line that is not UTF-8 raises RunError. A
    repeated key is yielded again, with a warning; callers keep the later
    line.
    """
    seen: set[TaskKey] = set()
    try:
        with path.open("rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if not raw.strip():
                    continue
                if not raw.endswith(b"\n"):
                    logger.warning(
                        "%s:%d: ignoring torn trailing line (crash artifact)",
                        path.name, lineno,
                    )
                    continue
                try:
                    d = loads(raw.decode("utf-8"))
                    trace = d["trace"]
                    key = (trace["model"], trace["technique"], trace["incident_id"])
                    hash(key)  # TypeError if a key part is unhashable
                except UnicodeDecodeError as exc:
                    raise RunError(f"cannot read run file {path}: line {lineno}: {exc}")
                except (ValueError, KeyError, TypeError, RecursionError):
                    logger.warning(
                        "%s:%d: skipping malformed record line", path.name, lineno
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


def resume_scan(
    output_path: str | Path, *, template_hash: str | None = None
) -> set[TaskKey]:
    """Keys of the records already in the run file; empty if there is none.

    A line of another schema version raises RunError, as load_run_records
    refuses it. Given the plan's template_hash, so does a line stamped with
    another one: resuming would mix two template sets in one file.
    """
    path = Path(output_path)
    if not path.exists():
        return set()
    done: set[TaskKey] = set()
    for lineno, key, d in _read_run_file(path):
        try:
            _check_versions(d)
        except ValueError as exc:
            raise _invalid(path, lineno, exc) from exc
        found = d["trace"].get("template_hash")
        if template_hash is not None and found != template_hash:
            raise RunError(
                f"{path}:{lineno}: template_hash {found} differs from the"
                f" plan's {template_hash}; resume would mix template sets"
            )
        done.add(key)
    return done


def load_run_records(path: str | Path) -> list[RunRow]:
    """The row of each task in a run file; the later line of a repeated key
    wins, in first-seen key order. Each line is checked straight into its
    row: no transcript is built.

    A line whose key decodes but that check_record refuses raises RunError:
    resume would skip that task, so dropping it would lose it for good. So
    does a record stamped with another template set than the first record's,
    as its results would be averaged with results of other prompts.
    """
    path = Path(path)
    rows: dict[TaskKey, RunRow] = {}
    first: tuple[int, str] | None = None  # line and template_hash of the first
    for lineno, key, d in _read_run_file(path):
        try:
            row, template_hash = check_record(d)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise _invalid(path, lineno, exc) from exc
        if first is None:
            first = (lineno, template_hash)
        elif template_hash != first[1]:
            raise RunError(
                f"{path}:{lineno}: template_hash {template_hash} differs from"
                f" line {first[0]}'s {first[1]}; the run mixes template sets"
            )
        rows[key] = row
    return list(rows.values())


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
    skipped, and a line stamped with another template set is refused before
    any task.
    """
    path = Path(plan.output_path)

    done: set[TaskKey] = set()
    if resume:
        done = resume_scan(
            path, template_hash=plan.technique_config.templates.template_hash
        )
    elif path.exists() and path.stat().st_size > 0:
        raise RunError(
            f"output file {path} already exists; pass resume=True or use a fresh path"
        )

    incidents = {rec.id: rec for rec in plan.corpus.records}
    tasks = plan.run_order(done)
    models = {m.name: m for m in plan.models}
    techniques = {t.value: t for t in plan.techniques}  # no Enum call per task
    taxonomy, params, config = builtin_taxonomy(), plan.params, plan.technique_config
    total = len(plan.task_keys())

    def work(key: TaskKey) -> RunRecord:
        model_name, technique_value, incident_id = key
        incident = incidents[incident_id]
        trace = classify(
            incident,
            techniques[technique_value],
            models[model_name],
            backend,
            taxonomy,
            params,
            config,
        )
        if trace.error is not None:
            logger.warning("task %s failed: %s", key, trace.error)
        return RunRecord(trace, incident.ground_truth)

    executed = failed = 0
    skipped = completed = total - len(tasks)  # done may hold other plans' keys
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("ab") as out:
        # A line is a record only once its "\n" is written: resume_scan
        # skipped a last line without one, so cut it off and run its task again.
        size = os.fstat(out.fileno()).st_size  # 0 for a pipe or a device
        if size:
            with path.open("rb") as fh:
                with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
                    start = mm.rfind(b"\n") + 1
            if start < size:
                out.truncate(start)

        def write(record: RunRecord) -> None:
            nonlocal executed, failed, completed
            # Encode, then add the newline to the bytes: adding it to the
            # str first would copy a widened (UCS-2) string once more.
            out.write(canonical_dumps(record).encode("utf-8") + b"\n")
            out.flush()
            executed += 1
            completed += 1
            if record.error is not None:
                failed += 1
            if on_record is not None:
                on_record(record, completed, total)

        if plan.parallelism == 1:
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
        planned=total, skipped=skipped, executed=executed, failed=failed
    )
    logger.info("run complete: %s", summary)
    return summary
