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
finished; after a failed write nothing is.

Run files are schema version 2. The first record written to a file also
carries the run header (RunHeader): the plan's fingerprint and every
technique's system prompt, which each record's system message refers to
instead of holding it. A file that holds no record yet, or only a torn
line, gets the header with its next record. load_run_records is the one
record reader: one loop (_checked_rows) reads each line, decodes it with
one JSONDecoder's raw_decode (json.loads takes a line whose object does
not end right before its "\n"), keys it and checks it. check_record
applies every rule of a record to its decoded line and reduces it to a
RunRow, the few fields the metrics read, without building its transcript;
a PHP or PRP record must have the turns a run of the header's max_rounds
gives. resume_scan reads the file through the same loop, so resume and
report refuse the same lines, by file:line; it also refuses a header
other than the plan's, naming the fields that differ, and a version-1
file, which load_run_records still reads. A resumed run counts only its
plan's tasks. A record grades its trace, which holds a failed task's
error, against the expert label.
"""
from __future__ import annotations

import logging
import mmap
import os
from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from json import JSONDecoder, loads
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Collection, NamedTuple

from . import util
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
    ClassificationTrace,
    TechniqueConfig,
    TechniqueId,
    check_trace,
    classify,
)
from .util import enum_decoder, sha256_hex, typed, utf8_encodable

logger = logging.getLogger(__name__)

RUN_SCHEMA_VERSION = 2

TaskKey = tuple[str, str, str]  # (model name, technique, incident id)


_category = enum_decoder(CategoryCode)
_CATEGORIES = {m.value: m for m in CategoryCode}
_UNPARSED = CategoryCode.UNPARSED


class RunError(Exception):
    """Run-file or plan-level failure (not a single-task failure)."""


@dataclass(frozen=True)
class RunHeader:
    """What every record of a run file shares, stored once, on its first line.

    Every field but prompts is the run's fingerprint: the generation params
    that reach the server (num_ctx is their sum of two), max_rounds, the
    template set's hash, the hash of the taxonomy's prompt block (all the
    prompts and the parser read of it) and the corpus digest. prompts holds
    the system prompt of every technique in the template set.
    """

    temperature: float
    max_output_tokens: int
    input_token_budget: int
    seed: int
    max_rounds: int
    template_hash: str
    taxonomy_hash: str
    corpus_digest: str
    prompts: dict[str, str]  # technique -> its system prompt

    def to_json(self) -> str:
        """The header as the first line's "run" value, in canonical JSON."""
        return util.canonical_dumps(asdict(self))

    @classmethod
    def from_dict(cls, d: object) -> RunHeader:
        """A stored header, each field of its type and a nonempty prompt for
        every technique."""
        if type(d) is not dict:
            raise TypeError(f"run must be dict, got {d!r}")
        header = cls(**{
            f.name: typed(d, f.name, *_HEADER_TYPES[f.name]) for f in fields(cls)
        })
        prompts = header.prompts
        if sorted(prompts) != sorted(t.value for t in TechniqueId) or not all(
            type(p) is str and p for p in prompts.values()
        ):
            raise ValueError("run prompts must map each technique to its prompt")
        return header

    def differences(self, other: RunHeader) -> list[str]:
        """Each field whose value differs from other's, with both values."""
        return [
            f.name if f.name == "prompts" else f"{f.name} {mine!r} (plan: {theirs!r})"
            for f in fields(self)
            if (mine := getattr(self, f.name)) != (theirs := getattr(other, f.name))
        ]


_HEADER_TYPES = {
    "temperature": (int, float), "max_output_tokens": (int,),
    "input_token_budget": (int,), "seed": (int,), "max_rounds": (int,),
    "template_hash": (str,), "taxonomy_hash": (str,), "corpus_digest": (str,),
    "prompts": (dict,),
}


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
        for technique in self.techniques:
            system = ChatMessage(Role.SYSTEM, self.header.prompts[technique.value])
            try:
                truncate_to_budget([system, user], budget)
            except BudgetTooSmallError:
                raise RunError(
                    f"input_token_budget {budget} is too small for the"
                    f" {technique.value} system prompt"
                ) from None

    @cached_property
    def header(self) -> RunHeader:
        """The run header of this plan's run file."""
        params, config, taxonomy = self.params, self.technique_config, builtin_taxonomy()
        templates = config.templates
        return RunHeader(
            params.temperature, params.max_output_tokens, params.input_token_budget,
            params.seed, config.max_rounds, templates.template_hash,
            sha256_hex(taxonomy.prompt_block), self.corpus.digest(),
            {t.value: templates.system(t, taxonomy) for t in TechniqueId},
        )

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

    def to_json(self, header: RunHeader, carry: bool = False) -> str:
        """The record as one line of the run file of header, without its
        "\\n": the canonical JSON of to_dict(), its keys laid out here in
        sorted order as ClassificationTrace.to_json lays out the trace's,
        whose system message refers to the header's prompt of its technique.
        The first record of a file carries the header (carry). A failed
        task's error is written here, beside the trace."""
        t = self.trace
        error = t.error
        error = "" if error is None else f'"error":{encode_basestring(error)},'
        run = f'"run":{header.to_json()},' if carry else ""
        return (
            f'{{"correct":{"true" if self.correct else "false"},'
            f'{error}"ground_truth":"{self.ground_truth._value_}",{run}'
            f'"schema_version":{RUN_SCHEMA_VERSION},'
            f'"trace":{t.to_json(header.prompts[t.technique._value_])}}}'
        )

    def to_dict(self, header: RunHeader, carry: bool = False) -> dict:
        """The record as stored in a run file, as plain JSON types."""
        return loads(self.to_json(header, carry))


# execute serializes every record through this module global, which the
# benchmark's tracer (perfbench/tracing.py) wraps to time the layer; it
# returns the line as a str.
canonical_dumps = RunRecord.to_json


def _check_truth(ground_truth: CategoryCode) -> None:
    if ground_truth is CategoryCode.UNPARSED:
        raise ValueError("ground_truth may not be UNPARSED")


def check_record(d: dict, header: RunHeader | None) -> tuple[RunRow, str]:
    """The row of a stored record and its template hash, checked without
    building the record.

    header is the run header of the record's file, or None for a version-1
    file, whose records each hold their prompts and template_hash. The
    record must carry its file's schema version and, past the first line,
    no header; the trace must pass check_trace, which holds a PHP or PRP
    trace to the turns a run of the header's max_rounds gives; the ground
    truth must be a category; and a stored `correct` must be the one final
    and ground truth imply.
    """
    v1 = header is None
    _check_version(d.get("schema_version"), 1 if v1 else RUN_SCHEMA_VERSION)
    if v1:
        _check_version(d["trace"].get("schema_version"), 1, "trace schema_version")
    elif "run" in d:
        raise ValueError("a run header on a record after the first")
    error = d.get("error")
    (model, technique, incident_id, group, final, total_latency_ms,
     total_response_chars, rounds_used) = check_trace(
        d["trace"], error, v1, None if v1 else header.max_rounds
    )
    truth = d["ground_truth"]
    ground_truth = (
        _CATEGORIES[truth] if type(truth) is str and truth in _CATEGORIES
        else _category(truth)
    )
    if ground_truth is _UNPARSED:
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
    return row, d["trace"]["template_hash"] if v1 else header.template_hash


def _check_version(found: object, version: int, name: str = "schema_version") -> None:
    if type(found) is not int or found != version:
        raise ValueError(f"{name} is {found!r}, but this file is version {version}")


def _header_of(d: dict) -> RunHeader | None:
    """The run header that the first record of a file carries, taken out of
    d; None if the record is of version 1, which has none."""
    found = d.get("schema_version")
    if type(found) is int and found == 1:
        return None
    if type(found) is not int or found != RUN_SCHEMA_VERSION:
        raise ValueError(
            f"schema_version is {found!r}, but this version reads 1 and"
            f" {RUN_SCHEMA_VERSION}"
        )
    if "run" not in d:
        raise ValueError("the first record carries no run header")
    return RunHeader.from_dict(d.pop("run"))


def _invalid(path: Path, lineno: int, exc: Exception) -> RunError:
    return RunError(f"{path}:{lineno}: invalid record: {type(exc).__name__}: {exc}")


# The one decoder of run-file lines. Its raw_decode skips the two scans for
# whitespace that loads makes around the object.
_raw_decode = JSONDecoder().raw_decode


def _checked_rows(
    path: Path,
) -> tuple[tuple[int, RunHeader | None, str] | None, dict[TaskKey, RunRow]]:
    """The first record's line number, its file's header (None for a
    version-1 file) and template hash, or None if the file holds no record;
    and the row of each task, the later line of a repeated key winning, in
    first-seen key order. One loop reads, decodes, keys and checks each line.

    A line is a record only once its "\n" is written: the file is read as a
    stream of lines that end only at "\n", not at the U+2028, U+2029 or
    U+0085 that JSON strings hold raw, and a last line without "\n", torn
    by a killed run, is skipped with a warning before it is decoded. Other
    lines that do not decode, nested too deep included, or have no task key
    are skipped with a warning; a line that is not UTF-8 raises RunError. A
    repeated key is checked again, with a warning.

    A line whose key decodes but that check_record refuses raises RunError
    naming it: resume would skip that task, so dropping it would lose it
    for good. So does a version-1 record stamped with another template set
    than the first record's, as its results would be averaged with results
    of other prompts.
    """
    rows: dict[TaskKey, RunRow] = {}
    first: tuple[int, RunHeader | None, str] | None = None  # line, header, hash
    try:
        with path.open("rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if raw.isspace():
                    continue
                if not raw.endswith(b"\n"):
                    logger.warning(
                        "%s:%d: ignoring torn trailing line (crash artifact)",
                        path.name, lineno,
                    )
                    continue
                try:
                    text = raw.decode("utf-8")
                    # A line whose JSON value does not start at its first
                    # character and end right before its "\n" (whitespace
                    # around it, "\r\n", extra data, no value) goes to
                    # loads, so every line is read or skipped as loads has it.
                    try:
                        d, end = _raw_decode(text)
                    except ValueError:
                        end = 0
                    if end != len(text) - 1:
                        d = loads(text)
                    trace = d["trace"]
                    key = (trace["model"], trace["technique"], trace["incident_id"])
                    repeated = key in rows  # TypeError if a key part is unhashable
                except UnicodeDecodeError as exc:
                    raise RunError(f"cannot read run file {path}: line {lineno}: {exc}")
                except (ValueError, KeyError, TypeError, RecursionError):
                    logger.warning(
                        "%s:%d: skipping malformed record line", path.name, lineno
                    )
                    continue
                if repeated:
                    logger.warning(
                        "%s:%d: duplicate record for %s; later line wins",
                        path.name, lineno, key,
                    )
                try:
                    header = _header_of(d) if first is None else first[1]
                    row, template_hash = check_record(d, header)
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise _invalid(path, lineno, exc) from exc
                if first is None:
                    first = (lineno, header, template_hash)
                elif template_hash != first[2]:
                    raise RunError(
                        f"{path}:{lineno}: template_hash {template_hash} differs from"
                        f" line {first[0]}'s {first[2]}; the run mixes template sets"
                    )
                rows[key] = row
    except OSError as exc:
        raise RunError(f"cannot read run file {path}: {exc}") from exc
    return first, rows


def resume_scan(
    output_path: str | Path, header: RunHeader | None = None
) -> set[TaskKey]:
    """Keys of the records already in the run file; empty if there is none.

    The file is read with load_run_records' checks, so a line that the
    report refuses is refused here too, by file:line. A version-1 file is
    read-only, so it raises RunError. Given the plan's header, so does a
    file whose header differs, naming the fields that differ: resuming
    would mix records made with other settings, prompts or corpora.
    """
    path = Path(output_path)
    if not path.exists():
        return set()
    first, rows = _checked_rows(path)
    if first is not None:
        lineno, found, _ = first
        if found is None:
            raise RunError(
                f"{path}:{lineno}: schema_version 1 is read-only: report reads"
                f" it, but resume appends only to a version {RUN_SCHEMA_VERSION} file"
            )
        differences = [] if header is None else found.differences(header)
        if differences:
            raise RunError(
                f"{path}:{lineno}: the run header differs from the plan's in"
                f" {', '.join(differences)}; resume would mix runs"
            )
    return set(rows)


def load_run_records(path: str | Path) -> list[RunRow]:
    """The row of each task in a run file of version 2 or 1; the later line
    of a repeated key wins, in first-seen key order. Each line is checked
    straight into its row: no transcript is built. A line that
    check_record refuses raises RunError naming it.
    """
    return list(_checked_rows(Path(path))[1].values())


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
    skipped, and a file that resume_scan refuses is refused before any
    task. The first record written to a file that holds none carries the
    plan's run header.
    """
    path = Path(plan.output_path)
    header = plan.header

    done: set[TaskKey] = set()
    if resume:
        done = resume_scan(path, header)
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

        # done holds the key of every record in the file, so it is empty
        # when the file holds none: only blank, malformed or torn lines.
        carry = not done

        def write(record: RunRecord) -> None:
            nonlocal executed, failed, completed, carry
            # Encode, then add the newline to the bytes: adding it to the
            # str first would copy it once more.
            out.write(canonical_dumps(record, header, carry).encode("utf-8") + b"\n")
            out.flush()
            carry = False
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
