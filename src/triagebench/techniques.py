"""The five prompt-engineering strategies as explicit multi-turn state machines.

ZSL asks once. PHP re-asks with all previous answers as hints until two
consecutive answers agree. SHP first has the model extract its own indicator
hints, then classifies from them. HTP proposes two candidate categories,
tests both, then keeps the survivor. PRP asks the model to verify its
previous answer until it confirms. Every engine produces a full
ClassificationTrace: each turn's outgoing message delta, the completion, the
parsed answer, and summed telemetry.

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
from .taxonomy import (
    ANSWER_CONTRACT,
    CategoryCode,
    Taxonomy,
    parse_category,
    render_prompt_block,
)
from .util import sha256_hex

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


# Fixed round structure: ZSL always 1 turn, SHP always 2, HTP always 3;
# PHP and PRP iterate up to max_rounds.
FIXED_ROUNDS = {TechniqueId.ZSL: 1, TechniqueId.SHP: 2, TechniqueId.HTP: 3}


class TemplateError(ValueError):
    """Missing or malformed prompt template files."""


# Canonical numerals only, so each round number names exactly one file.
_ROUND_FILE_RE = re.compile(r"^round(0|[1-9][0-9]*)\.txt$")


class TemplateSet:
    """Prompt templates loaded from templates/<technique>/{system.txt,roundN.txt}.

    Rounds past the highest numbered file reuse the last one (PHP and PRP
    send the same hint wording every extra round). The hash covers every
    file's path and content. Each technique's table of round files is built
    once at construction, and each (technique, taxonomy) system prompt is
    rendered once and then returned as the same string.
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
            if f"{prefix}system.txt" not in files:
                raise TemplateError(f"missing template {prefix}system.txt")
            rounds = sorted(
                (int(m.group(1)), text)
                for name, text in files.items()
                if name.startswith(prefix)
                and (m := _ROUND_FILE_RE.match(name[len(prefix):]))
            )
            if not rounds:
                raise TemplateError(f"no round templates for {tech.value}")
            indexes, texts = zip(*rounds)
            self._rounds[tech] = (indexes, texts)
        self._systems: dict[tuple[TechniqueId, Taxonomy], str] = {}

    def files(self) -> dict[str, str]:
        """Copy of the raw file map, e.g. for building modified sets."""
        return dict(self._files)

    def system(self, tech: TechniqueId, taxonomy: Taxonomy) -> str:
        key = (tech, taxonomy)
        text = self._systems.get(key)
        if text is None:
            text = self._files[f"{tech.value.lower()}/system.txt"].format(
                taxonomy=render_prompt_block(taxonomy), contract=ANSWER_CONTRACT
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


def load_templates(directory: str | Path) -> TemplateSet:
    directory = Path(directory)
    files: dict[str, str] = {}
    for tech in TechniqueId:
        sub = directory / tech.value.lower()
        if not sub.is_dir():
            raise TemplateError(f"missing template directory {sub}")
        for p in sorted(sub.iterdir()):
            if p.suffix == ".txt":
                files[f"{tech.value.lower()}/{p.name}"] = p.read_text(encoding="utf-8")
    return TemplateSet(files)


@lru_cache(maxsize=1)
def default_templates() -> TemplateSet:
    """The template set shipped as package data."""
    root = resources.files(__package__) / "templates"
    files: dict[str, str] = {}
    for tech in TechniqueId:
        sub = root / tech.value.lower()
        for entry in sub.iterdir():
            if entry.name.endswith(".txt"):
                files[f"{tech.value.lower()}/{entry.name}"] = entry.read_text(
                    encoding="utf-8"
                )
    return TemplateSet(files)


@dataclass(frozen=True)
class TechniqueConfig:
    max_rounds: int = 3
    convergence_window: int = 2
    templates: TemplateSet = field(default_factory=default_templates)

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.convergence_window != 2:
            raise ValueError("convergence window is fixed at 2 consecutive answers")


@dataclass(frozen=True)
class TraceTurn:
    sent: tuple[ChatMessage, ...]  # messages newly sent this round, as truncated
    completion: Completion
    parsed: CategoryCode

    def to_dict(self) -> dict:
        return {
            "sent": [m.to_dict() for m in self.sent],
            "completion": self.completion.to_dict(),
            "parsed": self.parsed.value,
        }


@dataclass(frozen=True)
class TraceTotals:
    total_latency_ms: float
    total_response_chars: int

    def to_dict(self) -> dict:
        return {
            "total_latency_ms": self.total_latency_ms,
            "total_response_chars": self.total_response_chars,
        }


@dataclass(frozen=True)
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
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "incident_id": self.incident_id,
            "model": self.model,
            "model_group": self.model_group.value,
            "technique": self.technique.value,
            "turns": [t.to_dict() for t in self.turns],
            "final": self.final.value,
            "rounds_used": self.rounds_used,
            "converged": self.converged,
            "telemetry_totals": self.telemetry_totals.to_dict(),
            "template_hash": self.template_hash,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ClassificationTrace":
        turns = tuple(
            TraceTurn(
                sent=tuple(
                    ChatMessage(Role(m["role"]), m["content"]) for m in t["sent"]
                ),
                completion=Completion(
                    text=t["completion"]["text"],
                    telemetry=Telemetry(
                        latency_ms=t["completion"]["telemetry"]["latency_ms"],
                        response_chars=t["completion"]["telemetry"]["response_chars"],
                        prompt_tokens=t["completion"]["telemetry"].get("prompt_tokens"),
                        output_tokens=t["completion"]["telemetry"].get("output_tokens"),
                        server_eval_duration_ms=t["completion"]["telemetry"].get(
                            "server_eval_duration_ms"
                        ),
                    ),
                ),
                parsed=CategoryCode(t["parsed"]),
            )
            for t in d["turns"]
        )
        return cls(
            incident_id=d["incident_id"],
            model=d["model"],
            model_group=ModelGroup(d["model_group"]),
            technique=TechniqueId(d["technique"]),
            turns=turns,
            final=CategoryCode(d["final"]),
            rounds_used=d["rounds_used"],
            converged=d["converged"],
            telemetry_totals=TraceTotals(
                total_latency_ms=d["telemetry_totals"]["total_latency_ms"],
                total_response_chars=d["telemetry_totals"]["total_response_chars"],
            ),
            template_hash=d["template_hash"],
        )


class ClassificationError(Exception):
    """Backend failure during classification; carries the partial trace."""

    def __init__(self, message: str, partial_trace: ClassificationTrace) -> None:
        super().__init__(message)
        self.partial_trace = partial_trace


class _Session:
    """One classification conversation: history, turns, telemetry."""

    def __init__(
        self,
        incident: IncidentRecord,
        technique: TechniqueId,
        model: ModelSpec,
        backend: Backend,
        taxonomy: Taxonomy,
        params: GenerationParams,
        config: TechniqueConfig,
    ) -> None:
        self.incident = incident
        self.technique = technique
        self.model = model
        self.backend = backend
        self.taxonomy = taxonomy
        self.params = params
        self.config = config
        self.system = ChatMessage(
            Role.SYSTEM, config.templates.system(technique, taxonomy)
        )
        self.history: list[ChatMessage] = []
        self.turns: list[TraceTurn] = []
        self.parsed: list[CategoryCode] = []

    def ask(self, round_no: int, **ctx: str) -> CategoryCode:
        user = ChatMessage(
            Role.USER,
            self.config.templates.round(
                self.technique, round_no, incident=self.incident.text, **ctx
            ),
        )
        outgoing = truncate_to_budget(
            [self.system, *self.history, user], self.params.input_token_budget
        )
        completion = self.backend.complete(self.model, outgoing, self.params)
        parsed = parse_category(completion.text, self.taxonomy)
        delta = outgoing if not self.history else outgoing[-1:]
        self.turns.append(
            TraceTurn(sent=tuple(delta), completion=completion, parsed=parsed)
        )
        self.parsed.append(parsed)
        self.history.extend([outgoing[-1], ChatMessage(Role.ASSISTANT, completion.text)])
        return parsed

    def last_reply(self) -> str:
        return self.turns[-1].completion.text

    def converged_pair(self) -> bool:
        return (
            len(self.parsed) >= 2
            and self.parsed[-1] == self.parsed[-2]
            and self.parsed[-1] is not CategoryCode.UNPARSED
        )

    def build_trace(self, final: CategoryCode, converged: bool) -> ClassificationTrace:
        totals = TraceTotals(
            total_latency_ms=sum(
                t.completion.telemetry.latency_ms for t in self.turns
            ),
            total_response_chars=sum(
                t.completion.telemetry.response_chars for t in self.turns
            ),
        )
        return ClassificationTrace(
            incident_id=self.incident.id,
            model=self.model.name,
            model_group=self.model.group,
            technique=self.technique,
            turns=tuple(self.turns),
            final=final,
            rounds_used=len(self.turns),
            converged=converged,
            telemetry_totals=totals,
            template_hash=self.config.templates.template_hash,
        )


def _answers_listing(parsed: list[CategoryCode]) -> str:
    return ", ".join(p.value for p in parsed)


def run_zsl(s: _Session) -> tuple[CategoryCode, bool]:
    final = s.ask(1)
    return final, True


def run_php(s: _Session) -> tuple[CategoryCode, bool]:
    s.ask(1)
    for r in range(2, s.config.max_rounds + 1):
        if s.converged_pair():
            break
        s.ask(r, previous_answers=_answers_listing(s.parsed))
    return s.parsed[-1], s.converged_pair()


def run_shp(s: _Session) -> tuple[CategoryCode, bool]:
    s.ask(1)
    final = s.ask(2, hints=s.last_reply())
    return final, True


def run_htp(s: _Session) -> tuple[CategoryCode, bool]:
    s.ask(1)
    s.ask(2)
    final = s.ask(3)
    return final, True


def run_prp(s: _Session) -> tuple[CategoryCode, bool]:
    s.ask(1)
    for r in range(2, s.config.max_rounds + 1):
        if s.converged_pair():
            break
        s.ask(r, previous_answers=s.parsed[-1].value)
    return s.parsed[-1], s.converged_pair()


_ENGINES = {
    TechniqueId.ZSL: run_zsl,
    TechniqueId.PHP: run_php,
    TechniqueId.SHP: run_shp,
    TechniqueId.HTP: run_htp,
    TechniqueId.PRP: run_prp,
}


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
    session = _Session(incident, technique, model, backend, taxonomy, params, config)
    try:
        final, converged = _ENGINES[technique](session)
    except BackendError as exc:
        partial = session.build_trace(CategoryCode.UNPARSED, converged=False)
        raise ClassificationError(str(exc), partial_trace=partial) from exc
    return session.build_trace(final, converged)
