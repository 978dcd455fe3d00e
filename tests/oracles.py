"""Independent references: every metric and every task's row from a run
file, the reply parser, and classify.

The metric reference deliberately shares no code with the package: plain
loops over the raw JSON lines, Decimal for the percentage and fsum for the
means (the documented output contracts). Used to cross-check
compute_metrics exactly. The parser reference is the straightforward
cascade that compiles one pattern per category name on every call. The
classify reference is the engine code it replaced: a session object and one
function per technique, over the package's own data types, templates,
truncation and parser.
"""
from __future__ import annotations

import json
import math
import re
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
from triagebench.taxonomy import CategoryCode, Taxonomy, parse_category
from triagebench.techniques import (
    ClassificationTrace,
    TechniqueConfig,
    TechniqueId,
    TraceTurn,
)

TAXONOMY_CODES = [f"CAT{k}" for k in range(1, 13)]


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
            template_hash=self.config.templates.template_hash,
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
