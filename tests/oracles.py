"""Independent references: every metric and every task's row from a run
file, the reply parser, classify, and the stored forms of a record.

The metric reference deliberately shares no code with the package: plain
loops over the raw JSON lines, Decimal for the percentage and fsum for the
means (the documented output contracts), and nearest-rank percentiles found
by counting. Used to cross-check compute_metrics exactly. The parser
reference is the straightforward cascade that compiles one pattern per
category name on every call. The classify reference is the engine code it
replaced: a session object and one function per technique, over the
package's own data types, templates, truncation and parser. The record
references are dict trees: record_dict is the version-2 line that
RunRecord.to_json must write, record_dict_v1 the version-1 line the
writer wrote before the run header, and v1_from_v2 rebuilds the second
from the first and its file's header.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import asdict
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from triagebench.backend import (
    Backend,
    BackendError,
    ChatMessage,
    GenerationParams,
    ModelSpec,
    Role,
    truncate_to_budget,
)
from triagebench.corpus import IncidentRecord
from triagebench.runner import RUN_SCHEMA_VERSION, RunHeader, RunRecord
from triagebench.taxonomy import CategoryCode, Taxonomy, parse_category
from triagebench.techniques import (
    ClassificationTrace,
    TechniqueConfig,
    TechniqueId,
    TraceTurn,
)

TAXONOMY_CODES = [f"CAT{k}" for k in range(1, 13)]


def _message(m: ChatMessage, prompt: str | None) -> dict:
    if m.role is Role.SYSTEM and m.content == prompt:
        return {"role": "system"}
    return {"role": m.role.value, "content": m.content}


def trace_dict(trace: ClassificationTrace, prompt: str | None = None) -> dict:
    """The trace as a version-2 run file stores it, as a tree of plain JSON
    types: a system message that sends prompt is stored without content."""
    return {
        "incident_id": trace.incident_id,
        "model": trace.model,
        "model_group": trace.model_group.value,
        "technique": trace.technique.value,
        "turns": [
            {
                "sent": [_message(m, prompt) for m in t.sent],
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
            for t in trace.turns
            for tm in (t.completion.telemetry,)
        ],
        "final": trace.final.value,
        "rounds_used": trace.rounds_used,
        "telemetry_totals": {
            "total_latency_ms": trace.total_latency_ms,
            "total_response_chars": trace.total_response_chars,
        },
    }


def record_dict(record: RunRecord, header: RunHeader, carry: bool = False) -> dict:
    """The record as a version-2 run file of header stores it: its trace,
    its grade, for a failed task the error beside the trace and, on the
    first line (carry), the header with every field."""
    d = {
        "schema_version": RUN_SCHEMA_VERSION,
        "trace": trace_dict(record.trace, header.prompts[record.trace.technique.value]),
        "ground_truth": record.ground_truth.value,
        "correct": record.correct,
    }
    if record.error is not None:
        d["error"] = record.error
    if carry:
        d["run"] = asdict(header)
    return d


def record_dict_v1(record: RunRecord, template_hash: str) -> dict:
    """The record as a version-1 run file stored it: every message with its
    content, and schema versions, template_hash and converged in the trace."""
    trace = trace_dict(record.trace)
    trace.update(
        schema_version=1, template_hash=template_hash, converged=record.trace.converged
    )
    d = {
        "schema_version": 1,
        "trace": trace,
        "ground_truth": record.ground_truth.value,
        "correct": record.correct,
    }
    if record.error is not None:
        d["error"] = record.error
    return d


def v1_from_v2(line: dict, header: dict) -> dict:
    """A version-2 line rebuilt as the version-1 line of the same record,
    from the header of its file: each system message without content gets
    its technique's prompt back, and the trace its schema version, the
    template hash and converged, worked out from its turns and error."""
    d = json.loads(json.dumps(line))
    d.pop("run", None)
    trace = d["trace"]
    prompt = header["prompts"][trace["technique"]]
    for turn in trace["turns"]:
        for m in turn["sent"]:
            if m["role"] == "system" and "content" not in m:
                m["content"] = prompt
    answers = [turn["parsed"] for turn in trace["turns"]]
    if trace["technique"] in ("PHP", "PRP"):
        converged = (
            "error" not in d and len(answers) >= 2
            and answers[-1] == answers[-2] != "UNPARSED"
        )
    else:
        converged = "error" not in d
    trace.update(
        schema_version=1, template_hash=header["template_hash"], converged=converged
    )
    d["schema_version"] = 1
    return d


def oracle_percent(numerator: int, denominator: int) -> float:
    frac = Decimal(numerator) * 100 / Decimal(denominator)
    return float(frac.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def keyed_lines(path: Path) -> dict[tuple, dict]:
    """Each task's decoded line, the later line of a repeated key winning,
    in first-seen key order. A last line without its "\n", a line that is
    not JSON and a line without a hashable task key are skipped."""
    lines: dict[tuple, dict] = {}
    for raw in path.read_bytes().split(b"\n")[:-1]:
        try:
            d = json.loads(raw)
            t = d["trace"]
            key = (t["model"], t["technique"], t["incident_id"])
            hash(key)
        except (ValueError, KeyError, TypeError, RecursionError):
            continue
        lines[key] = d
    return lines


def oracle_warnings(path: Path) -> list[tuple[int, str]]:
    """(line number, text) of each warning a reading of the run file gives,
    in line order: a last line without its "\n" is torn, a line that
    json.loads cannot read into a hashable task key is malformed, and a key
    of an earlier line is a duplicate. A blank line gives none."""
    warnings: list[tuple[int, str]] = []
    seen: set[tuple] = set()
    raws = path.read_bytes().split(b"\n")
    for lineno, raw in enumerate(raws, start=1):
        where = f"{path.name}:{lineno}"
        if not raw.strip():
            continue
        if lineno == len(raws):
            warnings.append((lineno, f"{where}: ignoring torn trailing line (crash artifact)"))
            continue
        try:
            t = json.loads(raw.decode("utf-8"))["trace"]
            key = (t["model"], t["technique"], t["incident_id"])
            hash(key)
        except (ValueError, KeyError, TypeError, RecursionError):
            warnings.append((lineno, f"{where}: skipping malformed record line"))
            continue
        if key in seen:
            warnings.append((lineno, f"{where}: duplicate record for {key}; later line wins"))
        seen.add(key)
    return warnings


def oracle_rows(path: Path) -> list[tuple]:
    """The ten RunRow fields of each task of keyed_lines, read with plain
    dict access, the totals summed from the turns in turn order."""
    rows = []
    for (model, technique, incident_id), d in keyed_lines(path).items():
        t = d["trace"]
        telemetry = [turn["completion"]["telemetry"] for turn in t["turns"]]
        rows.append((
            model,
            technique,
            incident_id,
            t["model_group"],
            CategoryCode(d["ground_truth"]),
            CategoryCode(t["final"]),
            d.get("error"),
            sum([tm["latency_ms"] for tm in telemetry]),
            sum([tm["response_chars"] for tm in telemetry]),
            t["rounds_used"],
        ))
    return rows


def _cell(rows: list[dict]) -> dict:
    n_correct = sum(1 for d in rows if d["correct"])
    n_unparsed = sum(1 for d in rows if d["trace"]["final"] == "UNPARSED")
    return {
        "n_total": len(rows),
        "n_correct": n_correct,
        "n_unparsed": n_unparsed,
        "accuracy_percent": oracle_percent(n_correct, len(rows)),
        "unparsed_percent": oracle_percent(n_unparsed, len(rows)),
    }


def oracle_metrics(path: Path) -> dict:
    rows = list(keyed_lines(path).values())

    def group_by(keyfunc) -> dict:
        out: dict[str, list[dict]] = {}
        for d in rows:
            out.setdefault(keyfunc(d), []).append(d)
        return {key: _cell(members) for key, members in sorted(out.items())}

    confusion = {
        (true, pred): 0
        for true in TAXONOMY_CODES
        for pred in TAXONOMY_CODES + ["UNPARSED"]
    }
    for d in rows:
        confusion[(d["ground_truth"], d["trace"]["final"])] += 1

    efficiency = {}
    for key in sorted({(d["trace"]["model"], d["trace"]["technique"]) for d in rows}):
        members = [
            d
            for d in rows
            if (d["trace"]["model"], d["trace"]["technique"]) == key
        ]
        efficiency["|".join(key)] = {
            "n_records": len(members),
            "mean_latency_ms": math.fsum(
                d["trace"]["telemetry_totals"]["total_latency_ms"] for d in members
            )
            / len(members),
            "mean_response_chars": math.fsum(
                float(d["trace"]["telemetry_totals"]["total_response_chars"])
                for d in members
            )
            / len(members),
            "total_turns": sum(d["trace"]["rounds_used"] for d in members),
            "latency_percentiles": tuple(
                _nearest_rank_by_count(
                    [d["trace"]["telemetry_totals"]["total_latency_ms"] for d in members], q
                )
                for q in (50, 95)
            ),
        }

    return {
        "by_technique": group_by(lambda d: d["trace"]["technique"]),
        "by_model_technique": group_by(
            lambda d: f'{d["trace"]["model"]}|{d["trace"]["technique"]}'
        ),
        "by_group_technique": group_by(
            lambda d: f'{d["trace"]["model_group"]}|{d["trace"]["technique"]}'
        ),
        "by_model": group_by(lambda d: d["trace"]["model"]),
        "confusion": confusion,
        "efficiency": efficiency,
        "n_records": len(rows),
    }


def _nearest_rank_by_count(values: list[float], q: int) -> float:
    """The smallest value that at least q % of the values do not exceed,
    found by counting, for each value, the values at or below it."""
    return min(v for v in values if 100 * sum(w <= v for w in values) >= q * len(values))


def assert_report_matches_oracle(report, path: Path) -> None:
    """Exact comparison of a MetricsReport against the brute-force result."""
    expected = oracle_metrics(path)
    assert report.n_records == expected["n_records"]

    for scope_name in (
        "by_technique",
        "by_model_technique",
        "by_group_technique",
        "by_model",
    ):
        cells = {c.scope_key: c for c in getattr(report, scope_name)}
        want = expected[scope_name]
        assert sorted(cells) == sorted(want), scope_name
        for key, cell in cells.items():
            for field in (
                "n_total",
                "n_correct",
                "n_unparsed",
                "accuracy_percent",
                "unparsed_percent",
            ):
                assert getattr(cell, field) == want[key][field], (
                    scope_name, key, field,
                )

    for i, true in enumerate(TAXONOMY_CODES):
        for j, pred in enumerate(TAXONOMY_CODES + ["UNPARSED"]):
            assert report.confusion[i][j] == expected["confusion"][(true, pred)], (
                true, pred,
            )

    eff = {f"{e.model}|{e.technique}": e for e in report.efficiency}
    assert sorted(eff) == sorted(expected["efficiency"])
    for key, cell in eff.items():
        want = expected["efficiency"][key]
        assert cell.n_records == want["n_records"], key
        assert cell.mean_latency_ms == want["mean_latency_ms"], key
        assert cell.mean_response_chars == want["mean_response_chars"], key
        assert cell.total_turns == want["total_turns"], key
        assert report.latency_percentiles[key] == want["latency_percentiles"], key


_FINAL_RE = re.compile(r"FINAL\s*:\s*\[?CAT\s?(\d{1,2})\]?", re.IGNORECASE)
_TOKEN_RE = re.compile(r"\bCAT(\d{1,2})\b", re.IGNORECASE)


def _last_valid(matches: list[re.Match]) -> str | None:
    for m in reversed(matches):
        k = int(m.group(1))
        if 1 <= k <= 12:
            return f"CAT{k}"
    return None


def _name_pattern(name: str) -> re.Pattern:
    parts = [re.escape(p) for p in name.split()]
    return re.compile(r"(?<!\w)" + r"\s+".join(parts) + r"(?!\w)", re.IGNORECASE)


def oracle_parse_category(reply: str, names: list[str]) -> str:
    """The parser cascade over the 12 category names in code order; returns
    "CAT1".."CAT12" or "UNPARSED"."""
    if not reply:
        return "UNPARSED"

    code = _last_valid(list(_FINAL_RE.finditer(reply)))
    if code is not None:
        return code

    code = _last_valid(list(_TOKEN_RE.finditer(reply)))
    if code is not None:
        return code

    best: tuple[int, int, str] | None = None
    for code, name in zip(TAXONOMY_CODES, names):
        for m in _name_pattern(name).finditer(reply):
            key = (m.end(), m.end() - m.start(), code)
            if best is None or key[:2] > best[:2]:
                best = key
    if best is not None:
        return best[2]

    return "UNPARSED"


# The technique engines in their earlier form, kept unchanged as the
# reference for classify's single round loop.


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

    def build_trace(
        self, final: CategoryCode, converged: bool, error: str | None = None
    ) -> ClassificationTrace:
        """The trace, after checking that the final, rounds, convergence and
        totals it works out equal the ones this engine counted."""
        trace = ClassificationTrace(
            incident_id=self.incident.id,
            model=self.model.name,
            model_group=self.model.group,
            technique=self.technique,
            turns=tuple(self.turns),
            error=error,
        )
        telemetry = [t.completion.telemetry for t in self.turns]
        assert (
            trace.final,
            trace.rounds_used,
            trace.converged,
            trace.total_latency_ms,
            trace.total_response_chars,
        ) == (
            final,
            len(self.parsed),
            converged,
            sum(tm.latency_ms for tm in telemetry),
            sum(tm.response_chars for tm in telemetry),
        )
        return trace


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


def oracle_classify(
    incident: IncidentRecord,
    technique: TechniqueId,
    model: ModelSpec,
    backend: Backend,
    taxonomy: Taxonomy,
    params: GenerationParams,
    config: TechniqueConfig,
) -> ClassificationTrace:
    """classify as one engine function per technique over a _Session; a
    backend failure ends the trace with its error."""
    session = _Session(incident, technique, model, backend, taxonomy, params, config)
    try:
        final, converged = _ENGINES[technique](session)
    except BackendError as exc:
        return session.build_trace(CategoryCode.UNPARSED, False, error=str(exc))
    return session.build_trace(final, converged)
