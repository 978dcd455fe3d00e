"""Offline end-to-end demo: bundled corpus, scripted replies, golden metrics.

The demo replays a deterministic reply script through the real engines, so
it exercises prompting, parsing, running, grading and reporting without any
model server. The resulting metrics summary is compared byte-for-byte with
a committed golden file; template or corpus edits change the embedded
hashes and make the comparison fail loudly.

Scripted outcomes are spread so the report is interesting: per technique a
fixed number of the 24 incidents is answered correctly (PHP 18, SHP 16,
PRP 15, ZSL 14, HTP 8, with two HTP finals left unparseable). Which
incidents are correct, and every wrong answer, derive from stable hashes,
so the script is identical on every machine. The script is built from the
run plan's own RunPlan.run_order() and max_rounds, so it follows the
runner's task order and the engine's round count rather than copies of them.
"""
from __future__ import annotations

import difflib
import tempfile
from importlib import resources
from pathlib import Path
from typing import Sequence

from .backend import GenerationParams, ScriptedBackend, resolve_model
from .corpus import Corpus, IncidentRecord, load_corpus
from .metrics import MetricsReport, compute_metrics
from .runner import RunPlan, TaskKey, execute, load_run_records
from .taxonomy import CategoryCode
from .techniques import TechniqueConfig, TechniqueId
from .util import canonical_dumps, sha256_hex, stable_hash_int

DEMO_SCHEMA_VERSION = 1
DEMO_MODEL_NAME = "demo"

DEMO_TECHNIQUES = tuple(TechniqueId)

# Of 24 incidents per technique. HTP additionally leaves 2 finals unparsed.
_TARGET_CORRECT = {
    TechniqueId.ZSL: 14,
    TechniqueId.PHP: 18,
    TechniqueId.SHP: 16,
    TechniqueId.HTP: 8,
    TechniqueId.PRP: 15,
}
_HTP_UNPARSED = 2

# Read once: the script build asks for a wrong answer thousands of times.
_CODES = CategoryCode.taxonomy_codes()

_INDICATOR_PHRASES = (
    "unusual timing of events",
    "an unexpected outbound connection",
    "credential prompts reported by staff",
    "an automated platform alert",
    "entries preserved in audit logs",
    "a user-submitted report",
)


class DemoError(Exception):
    """Internal inconsistency between the reply script and the engines."""


def _corpus_resource():
    return resources.files("triagebench").joinpath("data/demo_corpus.jsonl")


def load_demo_corpus() -> Corpus:
    with resources.as_file(_corpus_resource()) as path:
        return load_corpus(path)


def golden_path():
    return resources.files("triagebench").joinpath("data/golden_demo_metrics.json")


def _tech_hash(technique: TechniqueId, incident_id: str) -> int:
    return stable_hash_int(f"demo:{technique.value}:{incident_id}")


def _plan_outcomes(
    technique: TechniqueId, hashes: dict[str, int]
) -> tuple[frozenset[str], frozenset[str]]:
    """(ids answered correctly, ids left unparsed) for one technique, given
    each corpus id's _tech_hash for it."""
    ranked = sorted(hashes, key=lambda i: (hashes[i], i))
    correct = frozenset(ranked[: _TARGET_CORRECT[technique]])
    unparsed: frozenset[str] = frozenset()
    if technique is TechniqueId.HTP:
        wrong = [i for i in ranked if i not in correct]
        unparsed = frozenset(wrong[:_HTP_UNPARSED])
    return correct, unparsed


def _wrong_answer(truth: CategoryCode, h: int) -> CategoryCode:
    shift = 1 + h % (len(_CODES) - 1)
    return _CODES[(_CODES.index(truth) + shift) % len(_CODES)]


def _others(pred: CategoryCode, h: int) -> tuple[CategoryCode, CategoryCode]:
    """Two categories differing from pred and from each other, hash-picked."""
    pool = [c for c in _CODES if c is not pred]
    first = pool[(h >> 4) % len(pool)]
    second = pool[(h >> 8) % len(pool)]
    if second is first:
        second = pool[((h >> 8) + 1) % len(pool)]
    return first, second


def _final_line(code: CategoryCode) -> str:
    return f"FINAL: {code.value}"


def _zsl_replies(pred: CategoryCode, h: int) -> list[str]:
    lead = (
        "The report fits one category clearly."
        if h % 2 == 0
        else "Weighing the details, a single label applies."
    )
    return [f"{lead}\n{_final_line(pred)}"]


def _iterative_replies(
    pred: CategoryCode, h: int, max_rounds: int, verify: bool
) -> list[str]:
    """Reply sequence for the two self-correcting techniques.

    Three shapes: settle immediately (2 rounds, converged), change once then
    hold (3 rounds, converged), or keep changing (3 rounds, not converged).
    The engine asks until two answers agree or max_rounds is reached, so
    above 3 rounds "keep changing" holds once more in round 4, and below 3
    each shape keeps only its first max_rounds replies.
    """
    first, second = _others(pred, h)
    hold = (
        "On review the answer stands."
        if verify
        else "The earlier answer still fits best."
    )
    move = (
        "On review the earlier answer was wrong."
        if verify
        else "The hint changes the picture."
    )
    shape = h % 3
    if shape == 0:
        replies = [
            f"Initial read of the report.\n{_final_line(pred)}",
            f"{hold}\n{_final_line(pred)}",
        ]
    elif shape == 1:
        replies = [
            f"Initial read of the report.\n{_final_line(first)}",
            f"{move}\n{_final_line(pred)}",
            f"{hold}\n{_final_line(pred)}",
        ]
    else:
        replies = [
            f"Initial read of the report.\n{_final_line(first)}",
            f"{move}\n{_final_line(second)}",
            f"{move}\n{_final_line(pred)}",
        ]
        if max_rounds > 3:
            replies.append(f"{hold}\n{_final_line(pred)}")
    return replies[:max_rounds]


def _shp_replies(pred: CategoryCode, h: int) -> list[str]:
    start = h % len(_INDICATOR_PHRASES)
    picks = [
        _INDICATOR_PHRASES[(start + j) % len(_INDICATOR_PHRASES)] for j in range(3)
    ]
    indicators = "Indicators:\n" + "\n".join(f"- {p}" for p in picks)
    return [
        indicators,
        f"Given the extracted indicators, the classification follows.\n"
        f"{_final_line(pred)}",
    ]


def _htp_replies(pred: CategoryCode, unparsed: bool) -> list[str]:
    replies = [
        "Two candidate readings of the report were formed for testing.",
        "Tested both readings against the decisive details; one survives.",
    ]
    if unparsed:
        replies.append(
            "The two readings remain equally supported and the tie cannot be "
            "broken with the available evidence."
        )
    else:
        replies.append(f"The surviving hypothesis decides it.\n{_final_line(pred)}")
    return replies


def _reply_block(
    technique: TechniqueId,
    incident: IncidentRecord,
    h: int,
    outcomes: tuple[frozenset[str], frozenset[str]],
    max_rounds: int,
) -> list[str]:
    """The replies one model gives for one (technique, incident) task whose
    _tech_hash is h."""
    correct_ids, unparsed_ids = outcomes
    pred = (
        incident.ground_truth
        if incident.id in correct_ids
        else _wrong_answer(incident.ground_truth, h)
    )
    if technique is TechniqueId.ZSL:
        return _zsl_replies(pred, h)
    if technique is TechniqueId.PHP:
        return _iterative_replies(pred, h, max_rounds, verify=False)
    if technique is TechniqueId.SHP:
        return _shp_replies(pred, h)
    if technique is TechniqueId.HTP:
        return _htp_replies(pred, incident.id in unparsed_ids)
    return _iterative_replies(pred, h, max_rounds, verify=True)


def build_demo_script(
    corpus: Corpus, task_keys: Sequence[TaskKey], max_rounds: int
) -> list[str]:
    """Reply queue for a serial run of exactly these task keys, in their order.

    Pass the plan's own RunPlan.run_order(), the order the runner sends
    its tasks in, and its TechniqueConfig.max_rounds, the most replies a
    PHP or PRP task asks for, so the script follows both: a serial run
    uses up every reply. Every model gets the same block
    for a (technique, incident) pair, and outcomes are ranked per technique
    over all corpus ids, so each model keeps the fixed counts for any model
    order or subset of techniques. The backend still answers in call
    order, so replay only works with parallelism 1. Blocks are built one
    technique at a time, for every corpus id: each (technique, incident)
    hash is computed once, ranks the outcomes and picks the block, and only
    one technique's hashes are held at a time.
    """
    incidents = {rec.id: rec for rec in corpus.records}
    blocks: dict[tuple[str, str], list[str]] = {}
    for value in {technique for _, technique, _ in task_keys}:
        technique = TechniqueId(value)
        hashes = {i: _tech_hash(technique, i) for i in incidents}
        outcomes = _plan_outcomes(technique, hashes)
        for incident_id, h in hashes.items():
            blocks[value, incident_id] = _reply_block(
                technique, incidents[incident_id], h, outcomes, max_rounds
            )

    script: list[str] = []
    for _, value, incident_id in task_keys:
        script.extend(blocks[value, incident_id])
    return script


def run_demo(run_path: Path | None = None) -> tuple[MetricsReport, bytes]:
    """Execute the scripted demo and return (report, summary bytes).

    The summary embeds the template hash and the corpus digest, so the
    golden comparison covers prompts and data as well as metric values.
    """
    corpus = load_demo_corpus()
    config = TechniqueConfig()

    def _run(path: Path) -> MetricsReport:
        plan = RunPlan(
            models=(resolve_model(DEMO_MODEL_NAME),),
            techniques=DEMO_TECHNIQUES,
            corpus=corpus,
            params=GenerationParams(),
            technique_config=config,
            seed=0,
            output_path=path,
            parallelism=1,
        )
        backend = ScriptedBackend(
            build_demo_script(corpus, plan.run_order(), config.max_rounds)
        )
        execute(plan, backend)
        if backend.remaining() != 0:
            raise DemoError(
                f"{backend.remaining()} scripted replies left over; the "
                f"script no longer matches the engines"
            )
        rows = load_run_records(path)
        failures = [r for r in rows if r.error is not None]
        if failures:
            raise DemoError(f"{len(failures)} demo tasks failed: {failures[0].error}")
        return compute_metrics(rows)

    if run_path is not None:
        report = _run(Path(run_path))
    else:
        with tempfile.TemporaryDirectory(prefix="triagebench-demo-") as tmp:
            report = _run(Path(tmp) / "demo_run.jsonl")

    summary = {
        "schema_version": DEMO_SCHEMA_VERSION,
        "template_hash": config.templates.template_hash,
        "corpus_sha256": sha256_hex(_corpus_resource().read_bytes()),
        "metrics": report.to_dict(),
    }
    return report, (canonical_dumps(summary) + "\n").encode("utf-8")


def diff_against_golden(summary: bytes) -> str | None:
    """None when the summary matches the committed golden file byte for byte,
    else a unified diff of the two JSON documents."""
    golden = golden_path().read_bytes()
    if golden == summary:
        return None
    diff = difflib.unified_diff(
        golden.decode("utf-8", errors="replace").splitlines(keepends=True),
        summary.decode("utf-8", errors="replace").splitlines(keepends=True),
        fromfile="golden_demo_metrics.json",
        tofile="this run",
    )
    return "".join(diff) or "files differ in whitespace or encoding only"
