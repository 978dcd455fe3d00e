"""The five prompt-engineering techniques, run by one round loop in classify.

The techniques differ only in how many rounds they run and which template
fields each round gets. FIXED_ROUNDS gives ZSL 1 round, SHP 2 and HTP 3.
PHP and PRP run up to max_rounds and stop early once the last two answers
agree and are not UNPARSED. Round 1 gets only the incident. Later PHP rounds
get all previous answers as hints, PRP rounds the last answer to verify,
and SHP's round 2 gets the model's own round-1 reply as indicator hints;
HTP's three rounds (propose two candidates, test both, keep the survivor)
differ only in their wording. Every run produces a full ClassificationTrace:
each turn's outgoing message delta, the completion and the parsed answer.
A backend failure ends the task; its trace keeps the turns and the error,
works out its final (the last answer, UNPARSED after an error), rounds,
convergence and totals from them, and refuses turns no run can give.

The full conversation is resent each round (the chat endpoint is stateless)
after passing through truncate_to_budget. Prompt text lives in external
template files; the set's hash is recorded on every trace so a run pins the
exact wording it used.
"""
from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from importlib import resources
from json.encoder import encode_basestring
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from .backend import (
    Backend,
    BackendError,
    ChatMessage,
    Completion,
    GenerationParams,
    ModelGroup,
    ModelSpec,
    Role,
    check_content,
    truncate_to_budget,
)
from .corpus import IncidentRecord
from .taxonomy import ANSWER_CONTRACT, CategoryCode, Taxonomy, parse_category
from .util import enum_decoder, json_scalar, sha256_hex

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


def _check_fields(
    name: str, text: str, filled: tuple[str, ...], empty: tuple[str, ...] = ()
) -> None:
    """Format a template once, the filled fields with text and the empty ones
    with none; a failure, or a message that renders empty, names the file."""
    try:
        rendered = text.format(**dict.fromkeys(filled, "x"), **dict.fromkeys(empty, ""))
    except (KeyError, IndexError, ValueError, AttributeError) as exc:
        raise TemplateError(f"bad template {name}: {type(exc).__name__}: {exc}") from None
    if not rendered.rstrip("\n"):
        raise TemplateError(f"bad template {name}: renders an empty message")


class TemplateSet:
    """Prompt templates loaded from templates/<technique>/{system.txt,roundN.txt}.

    Rounds past the highest numbered file reuse the last one (PHP and PRP
    send the same hint wording every extra round). The hash covers every
    file's path and content. Each technique's table of round files is built
    once at construction, where each system and round file is formatted
    once, so a bad template, or one that renders an empty message, fails
    before any task. Each system prompt is rendered once per technique and
    taxonomy prompt block, then returned as the same string.
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
            _check_fields(system, files[system], ("taxonomy", "contract"))
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
                _check_fields(name, text, ("incident",), ("hints", "previous_answers"))
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


def _agreed(answers: Sequence[CategoryCode]) -> bool:
    """The last two answers are equal and not UNPARSED: PHP and PRP stop."""
    return (
        len(answers) >= 2
        and answers[-1] is answers[-2] is not CategoryCode.UNPARSED
    )


def _summary(
    technique: TechniqueId, answers: Sequence[CategoryCode], error: str | None
) -> tuple[CategoryCode, bool]:
    """(final, converged) of a task whose turns gave answers, failed with
    error unless that is None; refuses turns no run can give.

    The final answer is the last one, or UNPARSED after an error. A fixed
    technique converged when it did not fail; PHP and PRP when _agreed.
    """
    failed = error is not None
    if failed and type(error) is not str:
        raise TypeError(f"error must be str, got {error!r}")
    if not failed and not answers:
        raise ValueError("a record without an error needs a turn")
    # The turns a run can give: a fixed technique's rounds, fewer if it
    # failed; PHP and PRP stop once two answers agree, so fail only before.
    fixed = FIXED_ROUNDS.get(technique)
    if fixed is not None:
        if (len(answers) >= fixed) if failed else (len(answers) != fixed):
            raise ValueError(
                f"turns is {len(answers)}, but {technique.value} runs"
                f" {fixed} without an error and fewer with one"
            )
    else:
        for n in range(2, len(answers) + 1):
            if _agreed(answers[:n]) and (failed or n < len(answers)):
                rest = "records an error" if failed else f"goes on to turn {n + 1}"
                raise ValueError(
                    f"turns {n - 1} and {n} agree, but {technique.value} {rest}"
                )
    final = CategoryCode.UNPARSED if failed else answers[-1]
    return final, (not failed if fixed else _agreed(answers))


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
    """One task's turns, and the error that ended it early, if any."""

    incident_id: str
    model: str
    model_group: ModelGroup
    technique: TechniqueId
    turns: tuple[TraceTurn, ...]
    template_hash: str
    error: str | None = None
    # Worked out from the turns and error (_summary), the totals with sum().
    final: CategoryCode = field(init=False)
    rounds_used: int = field(init=False)
    converged: bool = field(init=False)
    total_latency_ms: float = field(init=False)
    total_response_chars: int = field(init=False)

    def __post_init__(self) -> None:
        turns = self.turns
        final, converged = _summary(
            self.technique, [turn.parsed for turn in turns], self.error
        )
        setattr_ = object.__setattr__
        setattr_(self, "final", final)
        setattr_(self, "rounds_used", len(turns))
        setattr_(self, "converged", converged)
        setattr_(self, "total_latency_ms",
                 sum([t.completion.telemetry.latency_ms for t in turns]))
        setattr_(self, "total_response_chars",
                 sum([t.completion.telemetry.response_chars for t in turns]))

    def to_json(self) -> str:
        """The trace as stored in a run file, in canonical JSON; check_trace
        checks it back. The error is not part of it: RunRecord writes it.

        The keys are laid out here in sorted order, the strings escaped with
        encode_basestring and the other scalars written with json_scalar, so
        the text is canonical_dumps of to_dict() without building the dict.
        Enum fields are read through _value_ (the value property costs about
        five times as much) and written unescaped, as no value of theirs
        needs escaping.
        """
        esc, num = encode_basestring, json_scalar
        turns = []
        for t in self.turns:
            c = t.completion
            tm = c.telemetry
            sent = ",".join([
                _system_json(m.content) if m.role is _SYSTEM
                else '{"content":' + esc(m.content) + ',"role":"' + m.role._value_ + '"}'
                for m in t.sent
            ])
            turns.append(
                f'{{"completion":{{"telemetry":{{"latency_ms":{num(tm.latency_ms)},'
                f'"output_tokens":{num(tm.output_tokens)},'
                f'"prompt_tokens":{num(tm.prompt_tokens)},'
                f'"response_chars":{num(tm.response_chars)},'
                f'"server_eval_duration_ms":{num(tm.server_eval_duration_ms)}}},'
                f'"text":{esc(c.text)}}},"parsed":"{t.parsed._value_}","sent":[{sent}]}}'
            )
        return (
            f'{{"converged":{"true" if self.converged else "false"},'
            f'"final":"{self.final._value_}","incident_id":{esc(self.incident_id)},'
            f'"model":{esc(self.model)},"model_group":"{self.model_group._value_}",'
            f'"rounds_used":{self.rounds_used},"schema_version":{TRACE_SCHEMA_VERSION},'
            f'"technique":"{self.technique._value_}",'
            f'"telemetry_totals":{{"total_latency_ms":{num(self.total_latency_ms)},'
            f'"total_response_chars":{num(self.total_response_chars)}}},'
            f'"template_hash":{esc(self.template_hash)},"turns":[{",".join(turns)}]}}'
        )

    def to_dict(self) -> dict:
        """The trace as stored in a run file, as plain JSON types."""
        return json.loads(self.to_json())


@lru_cache(maxsize=64)
def _system_json(content: str) -> str:
    """A system message as to_json writes it. Every task of a technique
    sends one system prompt, the same str each time (TemplateSet.system),
    so it is escaped once and its hash, the cache key, is computed once."""
    return f'{{"content":{encode_basestring(content)},"role":"system"}}'


# Telemetry a server may leave out: null or missing, else a number.
_OPTIONAL_TELEMETRY = ("prompt_tokens", "output_tokens", "server_eval_duration_ms")


def check_trace(
    d: dict, error: str | None = None
) -> tuple[str, TechniqueId, str, ModelGroup, CategoryCode, float, int, int, str]:
    """Every rule a stored trace must meet, checked without building it.

    In order: each turn's sent messages (role, str content, nonempty for
    system and user), its completion text, telemetry and parsed answer;
    the identity fields; the error and the turn shape (_summary); then the
    stored final, rounds, convergence and totals must be what the turns
    and error give. Returns (model, technique, incident_id, model_group,
    final, total_latency_ms, total_response_chars, rounds_used,
    template_hash), the totals summed over the turns as the trace sums them.
    """
    answers: list[CategoryCode] = []
    latencies: list[float] = []
    chars: list[int] = []
    for t in d["turns"]:
        completion = t["completion"]
        tm = completion["telemetry"]
        for m in t["sent"]:
            check_content(_role(m["role"]), _typed(m, "content", str))
        _typed(completion, "text", str)
        latencies.append(_typed(tm, "latency_ms", int, float))
        chars.append(_typed(tm, "response_chars", int))
        for key in _OPTIONAL_TELEMETRY:
            if tm.get(key) is not None:
                _typed(tm, key, int, float)
        answers.append(_category(t["parsed"]))
    incident_id = _typed(d, "incident_id", str)
    model = _typed(d, "model", str)
    group = _group(d["model_group"])
    technique = _technique(d["technique"])
    template_hash = _typed(d, "template_hash", str)
    final, converged = _summary(technique, answers, error)
    rounds_used = len(answers)
    total_latency_ms, total_response_chars = sum(latencies), sum(chars)
    if _category(d["final"]) is not final:
        raise ValueError(
            f"final is {d['final']}, but its turns and error give {final.value}"
        )
    totals = d["telemetry_totals"]
    for key, value, given in (
        ("rounds_used", _typed(d, "rounds_used", int), rounds_used),
        ("converged", _typed(d, "converged", bool), converged),
        ("total_latency_ms", _typed(totals, "total_latency_ms", int, float),
         total_latency_ms),
        ("total_response_chars", _typed(totals, "total_response_chars", int),
         total_response_chars),
    ):
        # sum() rounds differently from Python 3.12 on, so a latency total
        # written by another version may differ in its last digit.
        if key == "total_latency_ms" and math.isclose(value, given):
            continue
        if value != given:
            raise ValueError(f"{key} is {value!r}, but the turns give {given!r}")
    return (
        model, technique, incident_id, group, final,
        total_latency_ms, total_response_chars, rounds_used, template_hash,
    )


def _round_fields(technique: TechniqueId, turns: list[TraceTurn]) -> tuple[str, str]:
    """(hints, previous_answers) for the round after these turns."""
    if technique is TechniqueId.PHP:
        return "", ", ".join([t.parsed._value_ for t in turns])
    if technique is TechniqueId.PRP:
        return "", turns[-1].parsed._value_
    if technique is TechniqueId.SHP:
        return turns[-1].completion.text, ""
    return "", ""


# Read once: an Enum member lookup on its class costs a property call.
_SYSTEM, _USER, _ASSISTANT = Role.SYSTEM, Role.USER, Role.ASSISTANT


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

    Deterministic given a scripted backend. A backend failure ends the task:
    the trace keeps the turns finished before it and the error's text.
    Each round renders its user message, truncates the transcript, asks the
    backend and parses the reply; round 1 gets no hints or previous answers,
    and every later round gets _round_fields of the turns so far. Turns and
    the trace are built positionally, in field order.
    """
    templates = config.templates
    system = ChatMessage(Role.SYSTEM, templates.system(technique, taxonomy))
    rounds = FIXED_ROUNDS.get(technique)
    iterative = rounds is None
    if iterative:
        rounds = config.max_rounds
    budget = params.input_token_budget
    hints = previous_answers = ""
    history: list[ChatMessage] = []
    turns: list[TraceTurn] = []
    answers: list[CategoryCode] = []  # each turn's parsed, for _agreed
    error = None

    try:
        for round_no in range(1, rounds + 1):
            if turns:
                if iterative and _agreed(answers):
                    break
                hints, previous_answers = _round_fields(technique, turns)
            user = ChatMessage(
                _USER,
                templates.round(
                    technique, round_no, incident.text, hints, previous_answers
                ),
            )
            outgoing = truncate_to_budget([system, *history, user], budget)
            completion = backend.complete(model, outgoing, params)
            parsed = parse_category(completion.text, taxonomy)
            # A turn records what it added to the transcript: all of it in
            # round 1, then only the new user message.
            sent = tuple(outgoing) if not history else (outgoing[-1],)
            turns.append(TraceTurn(sent, completion, parsed))
            answers.append(parsed)
            history += (outgoing[-1], ChatMessage(_ASSISTANT, completion.text))
    except BackendError as exc:
        error = str(exc)
    return ClassificationTrace(
        incident.id, model.name, model.group, technique, tuple(turns),
        templates.template_hash, error,
    )
