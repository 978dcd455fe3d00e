"""Output checks for one benchmark repetition, independent of the program.

Everything here reads the raw files (run file, report artifacts) with the
standard library only and recounts from scratch; nothing is imported from
triagebench, so a bug in its aggregation cannot hide itself.
"""
from __future__ import annotations

import csv
import json
import math
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from gen import GROUP, TECHNIQUES

# The scripted demo backend answers this many incidents correctly per
# technique and model, whatever the corpus size; HTP leaves 2 unparsed.
SCRIPTED_CORRECT = {"ZSL": 14, "PHP": 18, "SHP": 16, "HTP": 8, "PRP": 15}
SCRIPTED_UNPARSED = {"HTP": 2}


class CheckError(Exception):
    """The program produced a wrong output."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_run_file(path: Path) -> list[dict]:
    """The run file's records without their transcripts, which no check
    reads beyond their length and which would hold hundreds of MB."""
    records = []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            d = json.loads(line)
            t = d["trace"]
            _require(len(t.pop("turns")) == t["rounds_used"], f"{_key(d)}: turns != rounds_used")
            records.append(d)
    return records


def _key(d: dict) -> str:
    t = d["trace"]
    return f"{t['model']}|{t['technique']}|{t['incident_id']}"


def check_records(
    records: list[dict],
    models: tuple[str, ...],
    incidents: dict[str, str],
    answers: dict[str, list[str]],
    missing_model: str | None = None,
) -> None:
    """One record per planned task, each graded right and with the intended
    final: the stub's scheduled answer, or, for the scripted backend, the
    demo script's per-technique correct and unparsed counts."""
    planned = {f"{m}|{t}|{i}" for m in models for t in TECHNIQUES for i in incidents}
    keys = [_key(d) for d in records]
    _require(len(keys) == len(planned), f"{len(keys)} records for {len(planned)} tasks")
    _require(set(keys) == planned, "run file keys differ from the planned tasks")

    tally: dict[tuple[str, str], list[int]] = {}
    for d, key in zip(records, keys):
        t = d["trace"]
        truth = incidents[t["incident_id"]]
        final = t["final"]
        _require(d["ground_truth"] == truth, f"{key}: ground truth {d['ground_truth']}")
        _require(t["model_group"] == GROUP[t["model"]], f"{key}: group {t['model_group']}")
        _require(d["correct"] == (final == truth), f"{key}: graded {d['correct']}")
        if t["model"] == missing_model:
            _require(d.get("error") is not None and final == "UNPARSED",
                     f"{key}: task on a missing model was not recorded as failed")
            continue
        _require(d.get("error") is None, f"{key}: failed: {d.get('error')}")
        if answers:
            per_round = answers[key]
            _require(final == per_round[-1], f"{key}: final {final}, stub said {per_round[-1]}")
            if t["technique"] in ("PHP", "PRP"):
                rounds = 2 if per_round[0] == per_round[-1] else 3
            else:
                rounds = {"ZSL": 1, "SHP": 2, "HTP": 3}[t["technique"]]
            _require(t["rounds_used"] == rounds, f"{key}: {t['rounds_used']} rounds, expected {rounds}")
        else:
            cell = tally.setdefault((t["model"], t["technique"]), [0, 0])
            cell[0] += d["correct"]
            cell[1] += final == "UNPARSED"

    for (model, tech), (n_correct, n_unparsed) in tally.items():
        want = (SCRIPTED_CORRECT[tech], SCRIPTED_UNPARSED.get(tech, 0))
        _require((n_correct, n_unparsed) == want,
                 f"{model}|{tech}: {n_correct} correct, {n_unparsed} unparsed; expected {want}")


def _percent(numerator: int, denominator: int) -> str:
    frac = Decimal(numerator) * 100 / Decimal(denominator)
    return str(frac.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def recount(records: list[dict]) -> dict[tuple[str, str], dict]:
    """metrics.csv rows recomputed from the raw records, keyed by scope."""
    scopes: dict[tuple[str, str], list[dict]] = {}
    for d in records:
        t = d["trace"]
        for scope in (
            ("technique", t["technique"]),
            ("model_technique", f"{t['model']}|{t['technique']}"),
            ("group_technique", f"{t['model_group']}|{t['technique']}"),
            ("model", t["model"]),
        ):
            scopes.setdefault(scope, []).append(d)
    out = {}
    for scope, rows in scopes.items():
        n = len(rows)
        n_correct = sum(d["correct"] for d in rows)
        row = {
            "n_total": str(n),
            "n_correct": str(n_correct),
            "accuracy_percent": _percent(n_correct, n),
            "unparsed_percent": _percent(sum(d["trace"]["final"] == "UNPARSED" for d in rows), n),
            "mean_latency_ms": "",
            "mean_response_chars": "",
        }
        if scope[0] == "model_technique":
            totals = [d["trace"]["telemetry_totals"] for d in rows]
            row["mean_latency_ms"] = f"{math.fsum(x['total_latency_ms'] for x in totals) / n:.3f}"
            row["mean_response_chars"] = (
                f"{math.fsum(float(x['total_response_chars']) for x in totals) / n:.1f}"
            )
        out[scope] = row
    return out


def check_report(records: list[dict], report_dir: Path) -> None:
    """The report's CSV, plot JSON and Markdown agree with the recount."""
    expected = recount(records)
    with (report_dir / "metrics.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    got = {(r.pop("scope_type"), r.pop("scope_key")): r for r in rows}
    _require(len(got) == len(rows), "metrics.csv repeats a scope")
    _require(got.keys() == expected.keys(), "metrics.csv scopes differ from the recount")
    for scope, row in expected.items():
        _require(got[scope] == row, f"metrics.csv {scope}: {got[scope]} != recount {row}")

    plot = json.loads((report_dir / "plot_data.json").read_text(encoding="utf-8"))
    for section, scope_type in (("by_technique", "technique"),
                                ("by_model_technique", "model_technique")):
        keys = {k for s, k in expected if s == scope_type}
        _require(set(plot[section]) == keys, f"plot_data {section} scopes differ")
        for key in keys:
            row = expected[(scope_type, key)]
            n, n_correct = int(row["n_total"]), int(row["n_correct"])
            want = {"correct_percent": float(_percent(n_correct, n)),
                    "incorrect_percent": float(_percent(n - n_correct, n))}
            _require(plot[section][key] == want, f"plot_data {section} {key}")

    markdown = (report_dir / "metrics.md").read_text(encoding="utf-8")
    _require(f"Records: {len(records)}\n" in markdown, "metrics.md record count")
