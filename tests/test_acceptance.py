"""Acceptance gates: one test per hard guarantee, each with a wall-clock bound.

Every test here states a property the package must keep: taxonomy content,
parser totality, anonymizer guarantees, technique state machines, metric
equivalence against an independent recount, presentation rounding, the
golden demo bytes, and crash-resume. The live-server smoke test is marked
`live` and skips itself when no server is reachable.
"""
import os
import random
import threading
import time

import pytest

from triagebench.anonymizer import anonymize, audit
from triagebench.backend import (
    DEFAULT_BASE_URL,
    Completion,
    GenerationParams,
    OllamaBackend,
    ScriptedBackend,
    Telemetry,
    resolve_model,
)
from triagebench.corpus import Corpus, IncidentRecord
from triagebench.demo import diff_against_golden, load_demo_corpus, run_demo
from triagebench.metrics import (
    compare_to_reference,
    compute_metrics,
    render_csv,
    render_report,
)
from triagebench.runner import RunPlan, execute, load_run_records, resume_scan
from triagebench.taxonomy import CategoryCode, builtin_taxonomy, parse_category
from triagebench.techniques import TechniqueConfig, TechniqueId, classify
from triagebench.util import canonical_dumps

from helpers import make_record, random_records, write_run_file
from oracles import assert_report_matches_oracle


class Stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


# Frozen expectation for the builtin category registry. A code change that
# drifts from this table is a correctness bug, not a test to update.
EXPECTED_CATEGORIES = (
    ("CAT1", "Account Compromise",
     "Unauthorized access to user or administrator accounts.", 5),
    ("CAT2", "Malware",
     "Infection by malicious code compromising devices or data.", 5),
    ("CAT3", "Denial-of-Service Attack (DoS/DDoS)",
     "Making systems or networks unavailable.", 4),
    ("CAT4", "Data Exfiltration or Leakage",
     "Unauthorized access, copying, or disclosure of sensitive data.", 5),
    ("CAT5", "Vulnerability Exploitation",
     "Use of known or unknown flaws to compromise assets.", 5),
    ("CAT6", "Insider Abuse",
     "Intentional or negligent actions by internal users.", 5),
    ("CAT7", "Social Engineering",
     "Deceiving people to obtain access or information.", 3),
    ("CAT8", "Physical or Infrastructure Incident",
     "Physical breach impacting computational assets.", 4),
    ("CAT9", "Unauthorized Modification",
     "Unauthorized changes to systems, data, or configurations.", 3),
    ("CAT10", "Misuse of Resources",
     "Unauthorized use of systems for other purposes.", 2),
    ("CAT11", "Vendor/Third-Party Problem",
     "Incident originating from a third-party security failure.", 4),
    ("CAT12", "Intrusion Attempt",
     "Hostile attempts to break in not yet confirmed as successful.", 3),
)


def test_taxonomy_matches_committed_table():
    with Stopwatch() as sw:
        taxonomy = builtin_taxonomy()
        actual = tuple(
            (c.code.value, c.name, c.description, c.priority)
            for c in taxonomy.categories
        )
        assert actual == EXPECTED_CATEGORIES
    assert sw.elapsed < 1.0


_ADVERSARIAL_FRAGMENTS = (
    "FINAL:", "CAT", "CAT99", "CAT0", "CAT13", "category", "[CAT",
    "]", "FINAL : CAT 5", "final", "Malwareish", "xCAT3", "CAT7x",
    "  ", "\n", "----", "FINAL CAT", "catalogue CAT", "(CAT)",
)


def test_parser_recovers_codes_and_names_and_never_raises():
    with Stopwatch() as sw:
        for code, name, _, _ in EXPECTED_CATEGORIES:
            want = CategoryCode(code)
            assert parse_category(f"Reasoning first.\nFINAL: {code}") is want
            assert parse_category(f"On reflection {code} fits best here.") is want
            assert parse_category(f"This reads as a {name} case.") is want

        rng = random.Random(2024)
        for _ in range(200):
            text = " ".join(
                rng.choice(_ADVERSARIAL_FRAGMENTS)
                for _ in range(rng.randint(0, 12))
            )
            assert parse_category(text) in CategoryCode
    assert sw.elapsed < 1.0


_DOC_WORDS = (
    "alert", "triage", "server", "login", "patch", "queue",
    "ticket", "shift", "review", "deploy", "escalated", "closed",
)


def _random_document(rng):
    parts = []
    for _ in range(rng.randint(5, 40)):
        roll = rng.random()
        if roll < 0.15:
            parts.append(
                f"{rng.randint(1, 223)}.{rng.randint(0, 255)}"
                f".{rng.randint(0, 255)}.{rng.randint(1, 254)}"
            )
        elif roll < 0.30:
            parts.append(f"user{rng.randint(1, 99)}@mail{rng.randint(1, 9)}.example.com")
        elif roll < 0.45:
            parts.append(f"srv-{rng.randint(1, 50)}.corp.example")
        else:
            parts.append(rng.choice(_DOC_WORDS))
    return " ".join(parts)


def test_anonymizer_idempotent_and_leaves_no_findings():
    with Stopwatch() as sw:
        rng = random.Random(77)
        for _ in range(1000):
            doc = _random_document(rng)
            once, _ = anonymize(doc)
            assert audit(once) == []
            twice, _ = anonymize(once)
            assert twice == once
    assert sw.elapsed < 5.0


def test_technique_round_bounds_convergence_and_determinism():
    incident = IncidentRecord(
        id="acc-1",
        text="Files were encrypted overnight and a ransom note appeared.",
        ground_truth=CategoryCode.CAT2,
    )
    model = resolve_model("demo")

    def run(technique, script, max_rounds=3):
        return classify(
            incident,
            technique,
            model,
            ScriptedBackend(list(script)),
            builtin_taxonomy(),
            GenerationParams(),
            TechniqueConfig(max_rounds=max_rounds),
        )

    with Stopwatch() as sw:
        zsl = run(TechniqueId.ZSL, ["FINAL: CAT6"])
        assert (zsl.rounds_used, zsl.converged, zsl.final) == (
            1, True, CategoryCode.CAT6
        )

        shp = run(TechniqueId.SHP, ["indicator list", "FINAL: CAT2"])
        assert (shp.rounds_used, shp.final) == (2, CategoryCode.CAT2)

        htp = run(TechniqueId.HTP, ["hypotheses", "tests", "FINAL: CAT4"])
        assert (htp.rounds_used, htp.final) == (3, CategoryCode.CAT4)

        php = run(
            TechniqueId.PHP,
            ["FINAL: CAT2", "FINAL: CAT5", "FINAL: CAT5"],
            max_rounds=4,
        )
        assert (php.rounds_used, php.converged, php.final) == (
            3, True, CategoryCode.CAT5
        )

        capped = run(
            TechniqueId.PHP, ["FINAL: CAT1", "FINAL: CAT2", "FINAL: CAT3"]
        )
        assert (capped.rounds_used, capped.converged, capped.final) == (
            3, False, CategoryCode.CAT3
        )

        prp = run(TechniqueId.PRP, ["FINAL: CAT4", "FINAL: CAT4"])
        assert (prp.rounds_used, prp.converged) == (2, True)
        prp_capped = run(
            TechniqueId.PRP, ["FINAL: CAT1", "FINAL: CAT2", "FINAL: CAT3"]
        )
        assert (prp_capped.rounds_used, prp_capped.converged) == (3, False)

        scripts = {
            TechniqueId.ZSL: ["FINAL: CAT6"],
            TechniqueId.SHP: ["indicator list", "FINAL: CAT2"],
            TechniqueId.HTP: ["hypotheses", "tests", "FINAL: CAT4"],
            TechniqueId.PHP: ["FINAL: CAT5", "FINAL: CAT5"],
            TechniqueId.PRP: ["FINAL: CAT4", "FINAL: CAT4"],
        }
        for technique, script in scripts.items():
            first = canonical_dumps(run(technique, script).to_dict())
            second = canonical_dumps(run(technique, script).to_dict())
            assert first == second
    assert sw.elapsed < 2.0


def test_metrics_equal_independent_recount(tmp_path):
    with Stopwatch() as sw:
        for seed in range(50):
            rng = random.Random(seed)
            records = random_records(rng, rng.randint(1, 1000))
            path = write_run_file(tmp_path / "run.jsonl", records)
            report = compute_metrics(load_run_records(path))
            assert_report_matches_oracle(report, path)
    assert sw.elapsed < 10.0


def test_csv_accuracy_rounding_pin():
    rows = [
        make_record(
            truth=CategoryCode.CAT1,
            final=CategoryCode.CAT1 if i < 148 else CategoryCode.CAT2,
            incident_id=f"pin-{i:04d}",
            technique=TechniqueId.PHP,
        ).row()
        for i in range(240)
    ]
    report = compute_metrics(rows)
    assert report.by_technique[0].accuracy_percent == 61.7
    row = next(
        line for line in render_csv(report).splitlines()
        if line.startswith("technique,PHP,")
    )
    assert row.split(",")[4] == "61.7"


def test_demo_reproduces_golden_bytes():
    with Stopwatch() as sw:
        report, summary = run_demo()
        assert report.n_records == 120
        assert diff_against_golden(summary) is None
    assert sw.elapsed < 10.0


class _KillableBackend:
    """Deterministic replies; raises KeyboardInterrupt after a call budget."""

    def __init__(self, crash_after=None):
        self.crash_after = crash_after
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, model, messages, params):
        with self._lock:
            self.calls += 1
            if self.crash_after is not None and self.calls > self.crash_after:
                raise KeyboardInterrupt
        return Completion(
            text="FINAL: CAT3",
            telemetry=Telemetry(latency_ms=1.0, response_chars=11),
        )


def test_interrupted_run_resumes_to_exact_product(tmp_path):
    corpus = Corpus(
        records=tuple(
            IncidentRecord(
                id=f"r{n}", text=f"incident {n}",
                ground_truth=CategoryCode.from_number(n)
            )
            for n in range(1, 7)
        )
    )
    plan = RunPlan(
        models=(resolve_model("m-a"), resolve_model("m-b")),
        techniques=(TechniqueId.ZSL,),
        corpus=corpus,
        params=GenerationParams(),
        technique_config=TechniqueConfig(),
        seed=0,
        output_path=tmp_path / "run.jsonl",
        parallelism=1,
    )
    with Stopwatch() as sw:
        with pytest.raises(KeyboardInterrupt):
            execute(plan, _KillableBackend(crash_after=7))
        interrupted = resume_scan(plan.output_path)
        assert 0 < len(interrupted) < 12

        summary = execute(plan, _KillableBackend(), resume=True)
        assert summary.planned == 12
        assert summary.executed == 12 - len(interrupted)

        keys = [r.key for r in load_run_records(plan.output_path)]
        assert len(keys) == len(set(keys)) == 12
        assert set(keys) == set(plan.task_keys())
    assert sw.elapsed < 5.0


@pytest.mark.live
def test_live_zero_shot_smoke(tmp_path):
    url = os.environ.get("TRIAGE_BACKEND_URL", DEFAULT_BASE_URL)
    backend = OllamaBackend(url)
    if not backend.is_reachable():
        pytest.skip(f"no inference server reachable at {url}")

    model = resolve_model(os.environ.get("TRIAGE_LIVE_MODEL", "llama3.1:8b"))
    plan = RunPlan(
        models=(model,),
        techniques=(TechniqueId.ZSL,),
        corpus=load_demo_corpus(),
        params=GenerationParams(),
        technique_config=TechniqueConfig(),
        seed=0,
        output_path=tmp_path / "live.jsonl",
        parallelism=1,
    )
    execute(plan, backend)
    rows = load_run_records(plan.output_path)
    assert len(rows) == 24
    if all(r.error is not None for r in rows):
        pytest.skip(f"model {model.name!r} not usable on the live server")

    parsed = sum(1 for r in rows if r.final is not CategoryCode.UNPARSED)
    assert parsed / len(rows) >= 0.9

    report = compute_metrics(rows)
    written = render_report(
        report, tmp_path / "report", comparison=compare_to_reference(report)
    )
    assert (tmp_path / "report" / "metrics.md").exists()
    assert len(written) == 3
