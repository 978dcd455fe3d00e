"""Evaluation outputs computed from the rows of run records.

Accuracy is reported per technique, per model × technique, per group ×
technique and per model, with a 12 × 13 confusion matrix (true category ×
predicted category + UNPARSED) and per model × technique efficiency
aggregates, whose p50 and p95 task latencies only metrics.md shows.
Percentages round half-up to one decimal via exact Decimal arithmetic;
means use math.fsum so results do not depend on record order.

UNPARSED finals count as incorrect, matching the binary correct/incorrect
presentation, and are additionally surfaced as an unparsed_percent column.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, replace
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Iterable, Sequence

from .backend import ModelGroup
from .runner import RunRow
from .taxonomy import CategoryCode

METRICS_SCHEMA_VERSION = 1

SCOPE_TECHNIQUE = "technique"
SCOPE_MODEL_TECHNIQUE = "model_technique"
SCOPE_GROUP_TECHNIQUE = "group_technique"
SCOPE_MODEL = "model"

REPORT_FORMATS = ("csv", "md", "plot-json")


class MetricsError(ValueError):
    """Unusable input for metric computation or rendering."""


def round1_percent(numerator: int, denominator: int) -> float:
    """100 * numerator / denominator, half-up to one decimal, exactly."""
    if denominator <= 0:
        raise MetricsError("denominator must be positive")
    frac = Decimal(numerator) * 100 / Decimal(denominator)
    return float(frac.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def nearest_rank(values: Sequence[float], q: int) -> float:
    """The q-th percentile by nearest rank: the smallest of the values that
    at least q % of them do not exceed."""
    ordered = sorted(values)
    return ordered[-(-q * len(ordered) // 100) - 1]


def mean(values: Sequence[float]) -> float:
    """Order-independent arithmetic mean (correctly rounded sum, then divide)."""
    if not values:
        raise MetricsError("mean of empty sequence")
    return math.fsum(values) / len(values)


@dataclass(frozen=True)
class AccuracyCell:
    scope_type: str
    scope_key: str
    n_total: int
    n_correct: int
    n_unparsed: int

    @property
    def accuracy_percent(self) -> float:
        return round1_percent(self.n_correct, self.n_total)

    @property
    def incorrect_percent(self) -> float:
        return round1_percent(self.n_total - self.n_correct, self.n_total)

    @property
    def unparsed_percent(self) -> float:
        return round1_percent(self.n_unparsed, self.n_total)

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "accuracy_percent": self.accuracy_percent,
            "unparsed_percent": self.unparsed_percent,
        }


@dataclass(frozen=True)
class EfficiencyCell:
    model: str
    technique: str
    n_records: int
    mean_latency_ms: float
    mean_response_chars: float
    total_turns: int


@dataclass(frozen=True)
class MetricsReport:
    by_technique: tuple[AccuracyCell, ...]
    by_model_technique: tuple[AccuracyCell, ...]
    by_group_technique: tuple[AccuracyCell, ...]
    by_model: tuple[AccuracyCell, ...]
    confusion: tuple[tuple[int, ...], ...]  # 12 true rows x 13 predicted cols
    efficiency: tuple[EfficiencyCell, ...]
    n_records: int
    # "model|technique" -> (p50, p95) of its tasks' total_latency_ms; in
    # metrics.md only, so the CSV, plot data and golden summary keep theirs.
    latency_percentiles: dict[str, tuple[float, float]]

    def to_dict(self) -> dict:
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "n_records": self.n_records,
            "by_technique": [c.to_dict() for c in self.by_technique],
            "by_model_technique": [c.to_dict() for c in self.by_model_technique],
            "by_group_technique": [c.to_dict() for c in self.by_group_technique],
            "by_model": [c.to_dict() for c in self.by_model],
            "confusion": [list(row) for row in self.confusion],
            "efficiency": [asdict(e) for e in self.efficiency],
        }


def _accuracy_cells(
    scope_type: str, grouped: dict[str, list[RunRow]]
) -> tuple[AccuracyCell, ...]:
    cells = []
    for key in sorted(grouped):
        rows = grouped[key]
        cells.append(
            AccuracyCell(
                scope_type=scope_type,
                scope_key=key,
                n_total=len(rows),
                n_correct=sum(1 for r in rows if r.correct),
                n_unparsed=sum(1 for r in rows if r.final is CategoryCode.UNPARSED),
            )
        )
    return tuple(cells)


def compute_metrics(rows: Sequence[RunRow]) -> MetricsReport:
    """Aggregate the rows of run records (RunRecord.row) into the full
    metrics report.

    Pure function of its inputs; scopes with no records are simply absent,
    never zero-filled.
    """
    if not rows:
        raise MetricsError("no records to compute metrics from")

    by_technique: dict[str, list[RunRow]] = {}
    by_model_technique: dict[str, list[RunRow]] = {}
    by_group_technique: dict[str, list[RunRow]] = {}
    by_model: dict[str, list[RunRow]] = {}

    codes = CategoryCode.taxonomy_codes()
    row_index = {code: i for i, code in enumerate(codes)}
    col_index = dict(row_index)
    col_index[CategoryCode.UNPARSED] = len(codes)
    confusion = [[0] * (len(codes) + 1) for _ in codes]

    for row in rows:
        model, technique, group = row.model, row.technique, row.group
        by_technique.setdefault(technique, []).append(row)
        by_model_technique.setdefault(f"{model}|{technique}", []).append(row)
        by_group_technique.setdefault(f"{group}|{technique}", []).append(row)
        by_model.setdefault(model, []).append(row)
        confusion[row_index[row.ground_truth]][col_index[row.final]] += 1

    efficiency = []
    latency_percentiles = {}
    for key in sorted(by_model_technique):
        members = by_model_technique[key]
        model, technique = key.rsplit("|", 1)
        latencies = [r.total_latency_ms for r in members]
        latency_percentiles[key] = (
            nearest_rank(latencies, 50), nearest_rank(latencies, 95)
        )
        efficiency.append(
            EfficiencyCell(
                model=model,
                technique=technique,
                n_records=len(members),
                mean_latency_ms=mean(latencies),
                mean_response_chars=mean(
                    [float(r.total_response_chars) for r in members]
                ),
                total_turns=sum(r.rounds_used for r in members),
            )
        )

    return MetricsReport(
        by_technique=_accuracy_cells(SCOPE_TECHNIQUE, by_technique),
        by_model_technique=_accuracy_cells(SCOPE_MODEL_TECHNIQUE, by_model_technique),
        by_group_technique=_accuracy_cells(SCOPE_GROUP_TECHNIQUE, by_group_technique),
        by_model=_accuracy_cells(SCOPE_MODEL, by_model),
        confusion=tuple(tuple(row) for row in confusion),
        efficiency=tuple(efficiency),
        n_records=len(rows),
        latency_percentiles=latency_percentiles,
    )


# Published Group 1 / Group 2 accuracy figures used as informational
# reference points; bands are (low, high) with low == high for exact values.
@dataclass(frozen=True)
class ReferenceEntry:
    group: ModelGroup
    technique: str
    low: float
    high: float
    display: str
    measured: float | None = None  # this run's accuracy; None without data

    @property
    def delta(self) -> float | None:
        """Signed distance to the reference value or band; 0 inside a band."""
        if self.measured is None:
            return None
        if self.measured < self.low:
            return round(self.measured - self.low, 1)
        if self.measured > self.high:
            return round(self.measured - self.high, 1)
        return 0.0


PAPER_REFERENCE: tuple[ReferenceEntry, ...] = (
    ReferenceEntry(ModelGroup.G1, "PHP", 61.7, 61.7, "61.7"),
    ReferenceEntry(ModelGroup.G1, "PRP", 59.0, 60.0, "59-60"),
    ReferenceEntry(ModelGroup.G1, "SHP", 59.0, 60.0, "59-60"),
    ReferenceEntry(ModelGroup.G1, "ZSL", 56.8, 56.8, "56.8"),
    ReferenceEntry(ModelGroup.G1, "HTP", 35.2, 35.2, "35.2"),
    ReferenceEntry(ModelGroup.G2, "PHP", 52.0, 54.0, "~53"),
    ReferenceEntry(ModelGroup.G2, "SHP", 52.0, 54.0, "~53"),
    ReferenceEntry(ModelGroup.G2, "PRP", 49.0, 51.0, "49-51"),
    ReferenceEntry(ModelGroup.G2, "ZSL", 49.0, 51.0, "49-51"),
    ReferenceEntry(ModelGroup.G2, "HTP", 18.9, 18.9, "18.9"),
)


def compare_to_reference(report: MetricsReport) -> tuple[ReferenceEntry, ...]:
    """The published figures, each with this run's group accuracy filled in.
    Purely informational, never a pass/fail gate."""
    measured = {c.scope_key: c.accuracy_percent for c in report.by_group_technique}
    return tuple(
        replace(entry, measured=measured.get(f"{entry.group.value}|{entry.technique}"))
        for entry in PAPER_REFERENCE
    )


def _table(header: Sequence[str], rows: Iterable[Sequence[object]]) -> list[str]:
    """Markdown table lines: header, rule, rows. A "|" in a cell is escaped
    as "\\|", so a model name cannot add a column."""

    def line(cells: Sequence[object]) -> str:
        return "| " + " | ".join(str(c).replace("|", "\\|") for c in cells) + " |"

    return [line(header), line(["---"] * len(header)), *map(line, rows)]


CSV_COLUMNS = (
    "scope_type",
    "scope_key",
    "n_total",
    "n_correct",
    "accuracy_percent",
    "unparsed_percent",
    "mean_latency_ms",
    "mean_response_chars",
)


def render_csv(report: MetricsReport) -> str:
    """One row per accuracy cell; efficiency means filled where defined."""
    efficiency = {f"{e.model}|{e.technique}": e for e in report.efficiency}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for cell in (
        report.by_technique
        + report.by_model_technique
        + report.by_group_technique
        + report.by_model
    ):
        eff = (
            efficiency.get(cell.scope_key)
            if cell.scope_type == SCOPE_MODEL_TECHNIQUE
            else None
        )
        writer.writerow(
            [
                cell.scope_type,
                cell.scope_key,
                cell.n_total,
                cell.n_correct,
                f"{cell.accuracy_percent:.1f}",
                f"{cell.unparsed_percent:.1f}",
                f"{eff.mean_latency_ms:.3f}" if eff else "",
                f"{eff.mean_response_chars:.1f}" if eff else "",
            ]
        )
    return buf.getvalue()


def render_markdown(
    report: MetricsReport, comparison: Sequence[ReferenceEntry] | None = None
) -> str:
    def accuracy(cell: AccuracyCell) -> list[object]:
        # A technique key has no "|"; model and group keys split on the last.
        key = cell.scope_key.rsplit("|", 1)
        return [*key, cell.n_total, cell.n_correct, f"{cell.accuracy_percent:.1f}"]

    def with_unparsed(cell: AccuracyCell) -> list[object]:
        return [*accuracy(cell), f"{cell.unparsed_percent:.1f}"]

    codes = [c.value for c in CategoryCode.taxonomy_codes()]
    sections = [
        (
            "Accuracy by technique",
            ["Technique", "n", "Correct", "Accuracy %", "Unparsed %"],
            [with_unparsed(c) for c in report.by_technique],
        ),
        (
            "Accuracy by model and technique",
            ["Model", "Technique", "n", "Correct", "Accuracy %", "Unparsed %"],
            [with_unparsed(c) for c in report.by_model_technique],
        ),
        (
            "Accuracy by model group and technique",
            ["Group", "Technique", "n", "Correct", "Accuracy %"],
            [accuracy(c) for c in report.by_group_technique],
        ),
        (
            "Confusion matrix (true rows, predicted columns)",
            ["true\\pred", *codes, "UNPARSED"],
            [[code, *row] for code, row in zip(codes, report.confusion)],
        ),
        (
            "Efficiency by model and technique",
            ["Model", "Technique", "n", "Mean latency ms", "p50 latency ms",
             "p95 latency ms", "Mean reply chars", "Turns"],
            [
                [
                    e.model,
                    e.technique,
                    e.n_records,
                    f"{e.mean_latency_ms:.3f}",
                    f"{p50:.3f}",
                    f"{p95:.3f}",
                    f"{e.mean_response_chars:.1f}",
                    e.total_turns,
                ]
                for e in report.efficiency
                for p50, p95 in [report.latency_percentiles[f"{e.model}|{e.technique}"]]
            ],
        ),
    ]
    if comparison is not None:
        sections.append(
            (
                "Comparison with published reference figures",
                ["Group", "Technique", "Reference", "This run", "Delta"],
                [
                    [e.group.value, e.technique, e.display]
                    + (
                        ["no data", "no data"]
                        if e.measured is None
                        else [f"{e.measured:.1f}", f"{e.delta:+.1f}"]
                    )
                    for e in comparison
                ],
            )
        )

    lines = ["# Classification metrics", "", f"Records: {report.n_records}", ""]
    for title, header, rows in sections:
        lines += [f"## {title}", "", *_table(header, rows), ""]
    return "\n".join(lines)


def render_plot_data(report: MetricsReport) -> dict:
    """Plot-ready correct/incorrect pairs (each sums to 100.0 within rounding)."""

    def pair(cell: AccuracyCell) -> dict:
        return {
            "correct_percent": cell.accuracy_percent,
            "incorrect_percent": cell.incorrect_percent,
        }

    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        "by_technique": {c.scope_key: pair(c) for c in report.by_technique},
        "by_model_technique": {
            c.scope_key: pair(c) for c in report.by_model_technique
        },
    }


def render_report(
    report: MetricsReport,
    out_dir: str | Path,
    formats: Iterable[str] = REPORT_FORMATS,
    comparison: Sequence[ReferenceEntry] | None = None,
) -> list[Path]:
    """Write the requested artifacts to out_dir, in turn, each through
    util.write_whole with the umask's mode.

    Each artifact is replaced whole or not at all. If one cannot be
    written, the ones written before it are the new ones and the others
    keep their old content.
    """
    from .util import canonical_dumps, write_whole

    out_dir = Path(out_dir)
    wanted = list(formats)
    unknown = [f for f in wanted if f not in REPORT_FORMATS]
    if unknown:
        raise MetricsError(f"unknown report format(s): {', '.join(unknown)}")

    contents: dict[str, str] = {}
    if "csv" in wanted:
        contents["metrics.csv"] = render_csv(report)
    if "md" in wanted:
        contents["metrics.md"] = render_markdown(report, comparison)
    if "plot-json" in wanted:
        contents["plot_data.json"] = canonical_dumps(render_plot_data(report)) + "\n"

    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in contents.items():
        write_whole(out_dir / name, text, 0o666)
    return [out_dir / name for name in contents]
