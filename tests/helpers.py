"""Shared builders for tests: synthetic traces, records, run files, the run
header of a default plan and a backend wrapper that records calls."""
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
    resolve_model,
)
from triagebench.corpus import Corpus, IncidentRecord
from triagebench.runner import RunHeader, RunPlan, RunRecord, TaskKey, load_run_records
from triagebench.taxonomy import Category, CategoryCode, Taxonomy, builtin_taxonomy
from triagebench.techniques import (
    FIXED_ROUNDS,
    ClassificationTrace,
    TechniqueConfig,
    TechniqueId,
    TraceTurn,
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


# HEADER's max_rounds: the turns of a PHP or PRP trace are those a run of it gives.
MAX_ROUNDS = TechniqueConfig().max_rounds


def make_trace(
    incident_id: str = "inc-x",
    model: str = "model-a",
    group: ModelGroup = ModelGroup.G1,
    technique: TechniqueId = TechniqueId.ZSL,
    final: CategoryCode = CategoryCode.CAT1,
    rounds_used: int | None = None,
    latency_ms: float = 0.0,
    response_chars: int = 0,
    error: str | None = None,
) -> ClassificationTrace:
    """Trace of a task as a run of MAX_ROUNDS gives it, enough for grading
    and metrics; failed with error unless that is None.

    It has rounds_used turns: by default a fixed technique's FIXED_ROUNDS,
    else MAX_ROUNDS. Answers alternate between final and another code,
    ending on final, so PHP and PRP never agree, except that a PHP or PRP
    trace of fewer turns without an error ends on final twice: it stopped
    because two answers agreed. The first turn carries all the latency and
    reply characters. Turns no such run gives raise ValueError.
    """
    if rounds_used is None:
        rounds_used = FIXED_ROUNDS.get(technique, MAX_ROUNDS)
    other = CategoryCode.CAT2 if final is CategoryCode.CAT1 else CategoryCode.CAT1
    answers = [final if (rounds_used - k) % 2 else other for k in range(rounds_used)]
    if technique not in FIXED_ROUNDS:
        # Only two agreeing answers stop PHP and PRP early, and a failed
        # request is one round more than the turns kept.
        stops_early = error is None and rounds_used < MAX_ROUNDS
        if (
            rounds_used > MAX_ROUNDS
            or (error is not None and rounds_used == MAX_ROUNDS)
            or (stops_early and (rounds_used < 2 or final is CategoryCode.UNPARSED))
        ):
            raise ValueError(
                f"no run gives {rounds_used} {technique.value} turns ending on"
                f" {final.value} with error {error!r}"
            )
        if stops_early:
            answers = answers[1:] + [final]
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
        error=error,
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
    """Records with unique task keys and varied outcomes and telemetry, each
    one a run of MAX_ROUNDS gives."""
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
        # PHP and PRP stop at turn 2 only on two agreeing answers, which an
        # UNPARSED final is not.
        rounds = 3 if final is CategoryCode.UNPARSED else rng.randint(2, 3)
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


def plan_header(corpus: Corpus | None = None, **params) -> RunHeader:
    """The run header of a plan with the default settings but params, over
    corpus (by default one record)."""
    if corpus is None:
        corpus = Corpus((IncidentRecord("inc-x", "report", CategoryCode.CAT1),))
    return RunPlan(
        models=(resolve_model("model-a"),),
        techniques=(TechniqueId.ZSL,),
        corpus=corpus,
        params=GenerationParams(**params),
        technique_config=TechniqueConfig(),
        seed=0,
        output_path=Path("unused"),
    ).header


HEADER = plan_header()


def record_lines(records, header: RunHeader = HEADER) -> list[str]:
    """The lines of a run file of header that holds records, without their
    "\n"s: the first carries the header."""
    return [record.to_json(header, n == 0) for n, record in enumerate(records)]


def write_run_file(path: Path, records, header: RunHeader = HEADER) -> Path:
    path.write_text(
        "".join(line + "\n" for line in record_lines(records, header)), encoding="utf-8"
    )
    return path


def stored_lines(path: Path) -> dict[TaskKey, dict]:
    """keyed_lines of a file that load_run_records accepts, without the run
    header that the first carries. A line is RunRecord.to_json(), so this
    is each task's whole record as stored."""
    load_run_records(path)
    lines = keyed_lines(path)
    for d in lines.values():
        d.pop("run", None)
    return lines


def corrupt_lines_2_and_3(path: Path) -> Path:
    """Rewrite a run file of 3+ records so that lines 2 and 3 keep their task
    key but no longer decode as records: line 2's final is CAT99, line 3's
    first sent message has role "bogus"."""
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    rows[1]["trace"]["final"] = "CAT99"
    rows[2]["trace"]["turns"][0]["sent"][0]["role"] = "bogus"
    path.write_text("".join(canonical_dumps(d) + "\n" for d in rows), encoding="utf-8")
    return path
