"""Shared builders for tests: synthetic traces, records, run files and a
backend wrapper that records calls."""
from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Sequence

from triagebench.backend import (
    Backend,
    ChatMessage,
    Completion,
    GenerationParams,
    ModelGroup,
    ModelSpec,
    Telemetry,
)
from triagebench.runner import RunRecord, TaskKey, load_run_records
from triagebench.taxonomy import Category, CategoryCode, Taxonomy, builtin_taxonomy
from triagebench.techniques import (
    FIXED_ROUNDS,
    ClassificationTrace,
    TechniqueId,
    TraceTurn,
    default_templates,
)
from triagebench.util import canonical_dumps

from oracles import keyed_lines

CODES = list(CategoryCode.taxonomy_codes())


class RecordingBackend:
    """Keeps every call as (model name, messages, params) in .calls, then
    hands it to the wrapped backend."""

    def __init__(self, inner: Backend) -> None:
        self.inner = inner
        self.calls: list[tuple[str, tuple[ChatMessage, ...], GenerationParams]] = []

    def complete(
        self,
        model: ModelSpec,
        messages: Sequence[ChatMessage],
        params: GenerationParams,
    ) -> Completion:
        self.calls.append((model.name, tuple(messages), params))
        return self.inner.complete(model, messages, params)


def renamed(names: list[str]) -> Taxonomy:
    """The builtin table with the 12 names replaced, in code order."""
    return Taxonomy(
        categories=tuple(
            Category(c.code, name, c.description, c.priority)
            for c, name in zip(builtin_taxonomy().categories, names)
        )
    )


def make_trace(
    incident_id: str = "inc-x",
    model: str = "model-a",
    group: ModelGroup = ModelGroup.G1,
    technique: TechniqueId = TechniqueId.ZSL,
    final: CategoryCode = CategoryCode.CAT1,
    rounds_used: int | None = None,
    latency_ms: float = 0.0,
    response_chars: int = 0,
) -> ClassificationTrace:
    """Trace of a task that did not fail, enough for grading and metrics.

    It has rounds_used turns: by default a fixed technique's FIXED_ROUNDS,
    else 1. Answers alternate between final and another code, ending on
    final, so PHP and PRP never agree before their last turn. The first
    turn carries all the latency and reply characters.
    """
    if rounds_used is None:
        rounds_used = FIXED_ROUNDS.get(technique, 1)
    other = CategoryCode.CAT2 if final is CategoryCode.CAT1 else CategoryCode.CAT1
    answers = [final if (rounds_used - k) % 2 else other for k in range(rounds_used)]
    first = Telemetry(latency_ms, response_chars)
    telemetry = [first] + [Telemetry(0.0, 0)] * rounds_used
    turns = tuple(
        TraceTurn((), Completion(answer.value, tm), answer)
        for answer, tm in zip(answers, telemetry)
    )
    return ClassificationTrace(
        incident_id=incident_id,
        model=model,
        model_group=group,
        technique=technique,
        turns=turns,
        template_hash=default_templates().template_hash,
    )


def make_record(
    truth: CategoryCode = CategoryCode.CAT1,
    final: CategoryCode = CategoryCode.CAT1,
    **trace_kwargs,
) -> RunRecord:
    return RunRecord(trace=make_trace(final=final, **trace_kwargs), ground_truth=truth)


def random_records(
    rng: random.Random,
    n: int,
    models: tuple[tuple[str, ModelGroup], ...] = (
        ("model-a", ModelGroup.G1),
        ("model-b", ModelGroup.G1),
        ("model-c", ModelGroup.G2),
    ),
) -> list[RunRecord]:
    """Records with unique task keys and varied outcomes and telemetry."""
    techniques = list(TechniqueId)
    records = []
    for i in range(n):
        model, group = models[rng.randrange(len(models))]
        truth = CODES[rng.randrange(len(CODES))]
        final = (
            CategoryCode.UNPARSED
            if rng.random() < 0.08
            else CODES[rng.randrange(len(CODES))]
        )
        technique = techniques[rng.randrange(len(techniques))]
        rounds = rng.randint(1, 3)
        records.append(
            make_record(
                truth=truth,
                final=final,
                incident_id=f"inc-{i:04d}",
                model=model,
                group=group,
                technique=technique,
                rounds_used=None if technique in FIXED_ROUNDS else rounds,
                latency_ms=rng.uniform(0.0, 5000.0),
                response_chars=rng.randint(0, 4000),
            )
        )
    return records


def write_run_file(path: Path, records) -> Path:
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(canonical_dumps(record.to_dict()) + "\n")
    return path


def stored_lines(path: Path) -> dict[TaskKey, dict]:
    """keyed_lines of a file that load_run_records accepts. A line is the
    canonical JSON of RunRecord.to_dict(), so this is each task's whole
    record as stored."""
    load_run_records(path)
    return keyed_lines(path)


def corrupt_lines_2_and_3(path: Path) -> Path:
    """Rewrite a run file of 3+ records so that lines 2 and 3 keep their task
    key but no longer decode as records: line 2's final is CAT99, line 3's
    first sent message has role "bogus"."""
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    rows[1]["trace"]["final"] = "CAT99"
    rows[2]["trace"]["turns"][0]["sent"][0]["role"] = "bogus"
    path.write_text("".join(canonical_dumps(d) + "\n" for d in rows), encoding="utf-8")
    return path
