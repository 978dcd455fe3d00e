"""The five prompt-engineering techniques, run by one round loop in classify.

The techniques differ only in how many rounds they run and which template
fields each round gets. FIXED_ROUNDS gives ZSL 1 round, SHP 2 and HTP 3.
PHP and PRP run up to max_rounds and stop early once the last two answers
agree and are not UNPARSED. Round 1 gets only the incident. Later PHP rounds
get all previous answers as hints, PRP rounds the last answer to verify,
and SHP's round 2 gets the model's own round-1 reply as indicator hints;
HTP's three rounds (propose two candidates, test both, keep the survivor)
differ only in their wording. Every run produces a full ClassificationTrace:
each turn's outgoing message delta, the completion, the parsed answer, and
summed telemetry.

The full conversation is resent each round (the chat endpoint is stateless)
after passing through truncate_to_budget. Prompt text lives in external
template files; the set's hash is recorded on every trace so a run pins the
exact wording it used.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .backend import (
    Backend,
    BackendError,
    ChatMessage,
    Completion,
    GenerationParams,
    ModelGroup,
    ModelSpec,
    Role,
    Telemetry,
    truncate_to_budget,
)
from .corpus import IncidentRecord
from .taxonomy import ANSWER_CONTRACT, CategoryCode, Taxonomy, parse_category
from .util import enum_decoder, sha256_hex

if TYPE_CHECKING:
    from importlib.abc import Traversable

TRACE_SCHEMA_VERSION = 1


class TechniqueId(str, Enum):
    ZSL = "ZSL"
    PHP = "PHP"
    SHP = "SHP"
    HTP = "HTP"
    PRP = "PRP"

    @classmethod
    def parse(cls, value: str) -> "TechniqueId":
        try:
            return cls(value.strip().upper())
        except ValueError:
            valid = ", ".join(t.value for t in cls)
            raise ValueError(f"unknown technique {value!r}; valid: {valid}") from None


# Rounds per technique. PHP and PRP are absent: they run up to
# TechniqueConfig.max_rounds and stop early once two answers agree.
FIXED_ROUNDS = {TechniqueId.ZSL: 1, TechniqueId.SHP: 2, TechniqueId.HTP: 3}


class TemplateError(ValueError):
    """Missing or malformed prompt template files."""


# Canonical numerals only, so each round number names exactly one file.
_ROUND_FILE_RE = re.compile(r"^round(0|[1-9][0-9]*)\.txt$")


def _check_fields(name: str, text: str, *fields: str) -> None:
    """Format a template once with its fields; a failure names the file."""
    try:
        text.format(**dict.fromkeys(fields, ""))
    except (KeyError, IndexError, ValueError, AttributeError) as exc:
        raise TemplateError(f"bad template {name}: {type(exc).__name__}: {exc}") from None


class TemplateSet:
    """Prompt templates loaded from templates/<technique>/{system.txt,roundN.txt}.

    Rounds past the highest numbered file reuse the last one (PHP and PRP
    send the same hint wording every extra round). The hash covers every
    file's path and content. Each technique's table of round files is built
    once at construction, where each system and round file is formatted
    once, so a bad template fails before any task. Each system prompt is
    rendered once per technique and taxonomy prompt block, then returned as
    the same string.
    """

    def __init__(self, files: dict[str, str]) -> None:
        self._files = dict(files)
        self.template_hash = sha256_hex(
            "".join(f"{name}\n{files[name]}\n" for name in sorted(files))
        )
        # technique -> (sorted round numbers, their texts in the same order)
        self._rounds: dict[TechniqueId, tuple[tuple[int, ...], tuple[str, ...]]] = {}
        for tech in TechniqueId:
            prefix = f"{tech.value.lower()}/"
            system = f"{prefix}system.txt"
            if system not in files:
                raise TemplateError(f"missing template {system}")
            _check_fields(system, files[system], "taxonomy", "contract")
            rounds = sorted(
                (int(m.group(1)), text)
                for name, text in files.items()
                if name.startswith(prefix)
                and (m := _ROUND_FILE_RE.match(name[len(prefix):]))
            )
            if not rounds:
                raise TemplateError(f"no round templates for {tech.value}")
            for n, text in rounds:
                name = f"{prefix}round{n}.txt"
                _check_fields(name, text, "incident", "hints", "previous_answers")
            indexes, texts = zip(*rounds)
            self._rounds[tech] = (indexes, texts)
        self._systems: dict[tuple[TechniqueId, str], str] = {}

    def files(self) -> dict[str, str]:
        """Copy of the raw file map, e.g. for building modified sets."""
        return dict(self._files)

    def system(self, tech: TechniqueId, taxonomy: Taxonomy) -> str:
        # The prompt block is the taxonomy's only input to the prompt, and a
        # cached string whose hash is cached too; hashing the Taxonomy would
        # walk all its categories on every call.
        block = taxonomy.prompt_block
        key = (tech, block)
        text = self._systems.get(key)
        if text is None:
            text = self._files[f"{tech.value.lower()}/system.txt"].format(
                taxonomy=block, contract=ANSWER_CONTRACT
            ).rstrip("\n")
            self._systems[key] = text
        return text

    def round(
        self,
        tech: TechniqueId,
        round_no: int,
        *,
        incident: str,
        hints: str = "",
        previous_answers: str = "",
    ) -> str:
        indexes, texts = self._rounds[tech]
        # The highest file numbered <= round_no, else the lowest file.
        text = texts[max(bisect_right(indexes, round_no) - 1, 0)]
        return text.format(
            incident=incident, hints=hints, previous_answers=previous_answers
        ).rstrip("\n")


def load_templates(directory: str | Path | Traversable) -> TemplateSet:
    """The set under directory/<technique>/, a path or package resource."""
    if isinstance(directory, str):
        directory = Path(directory)
    files: dict[str, str] = {}
    for tech in TechniqueId:
        sub = directory / tech.value.lower()
        if not sub.is_dir():
            raise TemplateError(f"missing template directory {sub}")
        for entry in sub.iterdir():
            if entry.name.endswith(".txt"):
                files[f"{tech.value.lower()}/{entry.name}"] = entry.read_text(
                    encoding="utf-8"
                )
    return TemplateSet(files)


@lru_cache(maxsize=1)
def default_templates() -> TemplateSet:
    """The template set shipped as package data."""
    return load_templates(resources.files(__package__) / "templates")


@dataclass(frozen=True)
class TechniqueConfig:
    max_rounds: int = 3
    templates: TemplateSet = field(default_factory=default_templates)

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass(frozen=True, slots=True)
class TraceTurn:
    sent: tuple[ChatMessage, ...]  # messages newly sent this round, as truncated
    completion: Completion
    parsed: CategoryCode


@dataclass(frozen=True, slots=True)
class TraceTotals:
    total_latency_ms: float
    total_response_chars: int


# Decoders of the enum fields of a stored trace.
_role = enum_decoder(Role)
_category = enum_decoder(CategoryCode)
_group = enum_decoder(ModelGroup)
_technique = enum_decoder(TechniqueId)


def _typed(d: dict, key: str, *types: type) -> Any:
    """d[key], if its exact type is one of types (so a bool is no int)."""
    value = d[key]
    if type(value) not in types:
        names = " or ".join(t.__name__ for t in types)
        raise TypeError(f"{key} must be {names}, got {value!r}")
    return value


@dataclass(frozen=True, slots=True)
class ClassificationTrace:
    incident_id: str
    model: str
    model_group: ModelGroup
    technique: TechniqueId
    turns: tuple[TraceTurn, ...]
    final: CategoryCode
    rounds_used: int
    converged: bool
    telemetry_totals: TraceTotals
    template_hash: str

    def to_dict(self) -> dict:
        """The trace as stored in a run file; from_dict reads it back."""
        totals = self.telemetry_totals
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "incident_id": self.incident_id,
            "model": self.model,
            "model_group": self.model_group.value,
            "technique": self.technique.value,
            "turns": [
                {
                    "sent": [m.to_dict() for m in t.sent],
                    "completion": {
                        "text": t.completion.text,
                        "telemetry": {
                            "latency_ms": tm.latency_ms,
                            "response_chars": tm.response_chars,
                            "prompt_tokens": tm.prompt_tokens,
                            "output_tokens": tm.output_tokens,
                            "server_eval_duration_ms": tm.server_eval_duration_ms,
                        },
                    },
                    "parsed": t.parsed.value,
                }
                for t in self.turns
                for tm in (t.completion.telemetry,)
            ],
            "final": self.final.value,
            "rounds_used": self.rounds_used,
            "converged": self.converged,
            "telemetry_totals": {
                "total_latency_ms": totals.total_latency_ms,
                "total_response_chars": totals.total_response_chars,
            },
            "template_hash": self.template_hash,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ClassificationTrace":
        turns = tuple(
            TraceTurn(
                sent=tuple(
                    ChatMessage(_role(m["role"]), m["content"]) for m in t["sent"]
                ),
                completion=Completion(
                    text=t["completion"]["text"],
                    telemetry=Telemetry(
                        latency_ms=tm["latency_ms"],
                        response_chars=tm["response_chars"],
                        prompt_tokens=tm.get("prompt_tokens"),
                        output_tokens=tm.get("output_tokens"),
                        server_eval_duration_ms=tm.get("server_eval_duration_ms"),
                    ),
                ),
                parsed=_category(t["parsed"]),
            )
            for t in d["turns"]
            for tm in (t["completion"]["telemetry"],)
        )
        totals = d["telemetry_totals"]
        return cls(
            incident_id=_typed(d, "incident_id", str),
            model=_typed(d, "model", str),
            model_group=_group(d["model_group"]),
            technique=_technique(d["technique"]),
            turns=turns,
            final=_category(d["final"]),
            rounds_used=_typed(d, "rounds_used", int),
            converged=_typed(d, "converged", bool),
            telemetry_totals=TraceTotals(
                total_latency_ms=_typed(totals, "total_latency_ms", int, float),
                total_response_chars=_typed(totals, "total_response_chars", int),
            ),
            template_hash=_typed(d, "template_hash", str),
        )


class ClassificationError(Exception):
    """Backend failure during classification; carries the partial trace."""

    def __init__(self, message: str, partial_trace: ClassificationTrace) -> None:
        super().__init__(message)
        self.partial_trace = partial_trace


def _round_fields(technique: TechniqueId, turns: list[TraceTurn]) -> dict[str, str]:
    """Template fields for the next round, from the turns so far."""
    if not turns:
        return {}
    if technique is TechniqueId.PHP:
        return {"previous_answers": ", ".join(t.parsed.value for t in turns)}
    if technique is TechniqueId.PRP:
        return {"previous_answers": turns[-1].parsed.value}
    if technique is TechniqueId.SHP:
        return {"hints": turns[-1].completion.text}
    return {}


def classify(
    incident: IncidentRecord,
    technique: TechniqueId,
    model: ModelSpec,
    backend: Backend,
    taxonomy: Taxonomy,
    params: GenerationParams,
    config: TechniqueConfig,
) -> ClassificationTrace:
    """Run one incident through one technique and return the full trace.

    Deterministic given a scripted backend. Backend failures raise
    ClassificationError with the partial trace attached.
    """
    templates = config.templates
    system = ChatMessage(Role.SYSTEM, templates.system(technique, taxonomy))
    iterative = technique not in FIXED_ROUNDS
    rounds = FIXED_ROUNDS.get(technique, config.max_rounds)
    history: list[ChatMessage] = []
    turns: list[TraceTurn] = []
    agreed = False

    def trace(final: CategoryCode, converged: bool) -> ClassificationTrace:
        return ClassificationTrace(
            incident_id=incident.id,
            model=model.name,
            model_group=model.group,
            technique=technique,
            turns=tuple(turns),
            final=final,
            rounds_used=len(turns),
            converged=converged,
            telemetry_totals=TraceTotals(
                total_latency_ms=sum(t.completion.telemetry.latency_ms for t in turns),
                total_response_chars=sum(
                    t.completion.telemetry.response_chars for t in turns
                ),
            ),
            template_hash=templates.template_hash,
        )

    try:
        for round_no in range(1, rounds + 1):
            if iterative and agreed:
                break
            user = ChatMessage(
                Role.USER,
                templates.round(
                    technique,
                    round_no,
                    incident=incident.text,
                    **_round_fields(technique, turns),
                ),
            )
            outgoing = truncate_to_budget(
                [system, *history, user], params.input_token_budget
            )
            completion = backend.complete(model, outgoing, params)
            parsed = parse_category(completion.text, taxonomy)
            # A turn records what it added to the transcript: all of it in
            # round 1, then only the new user message.
            sent = tuple(outgoing if not history else outgoing[-1:])
            turns.append(TraceTurn(sent=sent, completion=completion, parsed=parsed))
            history += (outgoing[-1], ChatMessage(Role.ASSISTANT, completion.text))
            agreed = (
                len(turns) >= 2
                and parsed == turns[-2].parsed
                and parsed is not CategoryCode.UNPARSED
            )
    except BackendError as exc:
        partial = trace(CategoryCode.UNPARSED, converged=False)
        raise ClassificationError(str(exc), partial_trace=partial) from exc
    return trace(turns[-1].parsed, converged=agreed or not iterative)
