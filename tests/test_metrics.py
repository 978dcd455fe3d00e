import csv
import io
import random
import re

import pytest

from triagebench.backend import ModelGroup
from triagebench.metrics import (
    CSV_COLUMNS,
    MetricsError,
    compare_to_reference,
    compute_metrics,
    mean,
    render_csv,
    render_markdown,
    render_plot_data,
    render_report,
    round1_percent,
)
from triagebench.runner import load_run_records
from triagebench.taxonomy import CategoryCode
from triagebench.techniques import TechniqueId

from helpers import make_record, random_records, write_run_file
from oracles import assert_report_matches_oracle


class TestRounding:
    def test_known_quotients(self):
        assert round1_percent(148, 240) == 61.7
        assert round1_percent(1, 3) == 33.3
        assert round1_percent(2, 3) == 66.7
        assert round1_percent(0, 7) == 0.0
        assert round1_percent(7, 7) == 100.0

    def test_half_up_not_bankers(self):
        # 147/240 is exactly 61.25%; half-up gives .3, half-even would give .2.
        assert round1_percent(147, 240) == 61.3
        assert round1_percent(3, 2400) == 0.1  # 0.125% rounds down
        assert round1_percent(9, 2400) == 0.4  # 0.375% rounds up

    def test_bad_denominator(self):
        with pytest.raises(MetricsError):
            round1_percent(1, 0)

    def test_mean_is_order_independent(self):
        values = [1e16, 1.0, -1e16, 3.0]
        rng = random.Random(5)
        baseline = mean(values)
        for _ in range(20):
            rng.shuffle(values)
            assert mean(values) == baseline

    def test_mean_empty_rejected(self):
        with pytest.raises(MetricsError):
            mean([])


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_run_files(self, seed, tmp_path):
        rng = random.Random(seed)
        records = random_records(rng, rng.randint(1, 300))
        path = write_run_file(tmp_path / "run.jsonl", records)
        report = compute_metrics(load_run_records(path))
        assert_report_matches_oracle(report, path)

    def test_permutation_invariance(self):
        rng = random.Random(99)
        rows = [r.row() for r in random_records(rng, 200)]
        baseline = compute_metrics(rows).to_dict()
        for _ in range(5):
            rng.shuffle(rows)
            assert compute_metrics(rows).to_dict() == baseline

    def test_empty_records_rejected(self):
        with pytest.raises(MetricsError):
            compute_metrics([])


def single_scope_rows(n_correct, n_total, group=ModelGroup.G1,
                      technique=TechniqueId.PHP, model="m-pin"):
    rows = []
    for i in range(n_total):
        final = CategoryCode.CAT1 if i < n_correct else CategoryCode.CAT2
        record = make_record(
            truth=CategoryCode.CAT1,
            final=final,
            incident_id=f"pin-{i:04d}",
            model=model,
            group=group,
            technique=technique,
        )
        rows.append(record.row())
    return rows


class TestAggregation:
    def test_group_cell_pin_148_of_240(self):
        report = compute_metrics(single_scope_rows(148, 240))
        (cell,) = report.by_group_technique
        assert cell.scope_key == "G1|PHP"
        assert (cell.n_total, cell.n_correct) == (240, 148)
        assert cell.accuracy_percent == 61.7
        row = next(
            line for line in render_csv(report).splitlines()
            if line.startswith("group_technique,G1|PHP")
        )
        assert ",61.7," in row

    def test_confusion_diagonal_is_correct_count(self):
        rng = random.Random(31)
        rows = [r.row() for r in random_records(rng, 400)]
        report = compute_metrics(rows)
        diagonal = sum(report.confusion[i][i] for i in range(12))
        assert diagonal == sum(1 for r in rows if r.correct)
        assert sum(sum(row) for row in report.confusion) == len(rows)

    def test_confusion_unparsed_column(self):
        rng = random.Random(32)
        rows = [r.row() for r in random_records(rng, 400)]
        report = compute_metrics(rows)
        unparsed = sum(row[12] for row in report.confusion)
        assert unparsed == sum(1 for r in rows if r.final is CategoryCode.UNPARSED)

    def test_model_name_with_pipe(self):
        # Technique ids never contain "|", so the last one splits the key.
        rows = [
            make_record(
                model="ns|m", technique=TechniqueId.ZSL, incident_id=f"i{k}"
            ).row()
            for k in range(2)
        ]
        report = compute_metrics(rows)
        assert [(c.model, c.technique) for c in report.efficiency] == [("ns|m", "ZSL")]
        assert [c.scope_key for c in report.by_model_technique] == ["ns|m|ZSL"]
        text = render_markdown(report, compare_to_reference(report))
        assert "| ns\\|m | ZSL | 2 | 2 |" in text
        tables = [b.splitlines() for b in text.split("\n\n") if b.startswith("|")]
        assert len(tables) == 6
        for rows in tables:
            # Every row has as many cells as the header, split on unescaped "|".
            assert len({len(re.split(r"(?<!\\)\|", row)) for row in rows}) == 1

    def test_empty_scopes_absent_not_zero(self):
        report = compute_metrics(single_scope_rows(3, 4))
        assert [c.scope_key for c in report.by_technique] == ["PHP"]
        assert [c.scope_key for c in report.by_model] == ["m-pin"]


class TestReferenceComparison:
    def test_exact_match_inside_point_band(self):
        report = compute_metrics(single_scope_rows(148, 240))
        rows = compare_to_reference(report)
        php = next(r for r in rows if (r.group, r.technique) == ("G1", "PHP"))
        assert php.measured == 61.7
        assert php.delta == 0.0

    def test_delta_signed_outside_band(self):
        below = compute_metrics(
            single_scope_rows(50, 100, technique=TechniqueId.ZSL)
        )
        row = next(
            r for r in compare_to_reference(below)
            if (r.group, r.technique) == ("G1", "ZSL")
        )
        assert row.delta == -6.8  # 50.0 against 56.8

        above = compute_metrics(
            single_scope_rows(7, 12, group=ModelGroup.G2,
                                 technique=TechniqueId.ZSL)
        )
        row = next(
            r for r in compare_to_reference(above)
            if (r.group, r.technique) == ("G2", "ZSL")
        )
        assert row.delta == 7.3  # 58.3 against the 49-51 band edge

    def test_inside_interval_band_is_zero(self):
        report = compute_metrics(
            single_scope_rows(53, 100, group=ModelGroup.G2)
        )
        row = next(
            r for r in compare_to_reference(report)
            if (r.group, r.technique) == ("G2", "PHP")
        )
        assert row.delta == 0.0

    def test_missing_scopes_render_no_data(self):
        report = compute_metrics(single_scope_rows(1, 2))
        rows = compare_to_reference(report)
        text = render_markdown(report, rows)
        assert text.count("no data") == 2 * 9  # every row except G1|PHP
        assert "| G1 | PHP | 61.7 | 50.0 | -11.7 |" in text


class TestRenderers:
    def test_csv_shape(self):
        rng = random.Random(7)
        report = compute_metrics([r.row() for r in random_records(rng, 120)])
        parsed = list(csv.reader(io.StringIO(render_csv(report))))
        assert parsed[0] == list(CSV_COLUMNS)
        for row in parsed[1:]:
            assert len(row) == len(CSV_COLUMNS)
            if row[0] == "model_technique":
                assert row[6] != "" and row[7] != ""
            else:
                assert row[6] == "" and row[7] == ""

    def test_plot_data_pairs_only(self):
        rng = random.Random(8)
        report = compute_metrics([r.row() for r in random_records(rng, 150)])
        data = render_plot_data(report)
        assert set(data) == {"schema_version", "by_technique", "by_model_technique"}
        for section in ("by_technique", "by_model_technique"):
            for pair in data[section].values():
                assert set(pair) == {"correct_percent", "incorrect_percent"}
                assert abs(pair["correct_percent"] + pair["incorrect_percent"] - 100.0) < 0.11

    def test_latency_percentiles_by_nearest_rank_in_markdown_only(self):
        latencies = [float(ms) for ms in (7, 1, 20, 4, 13, 2, 9, 16, 3, 11,
                                          5, 18, 6, 15, 10, 8, 12, 19, 14, 17)]
        rows = [
            make_record(incident_id=f"i{n}", model="m", latency_ms=ms).row()
            for n, ms in enumerate(latencies)
        ]
        report = compute_metrics(rows)
        # 50 % of 20 tasks take at most the 10th smallest, 95 % the 19th.
        assert report.latency_percentiles == {"m|ZSL": (10.0, 19.0)}
        assert "| m | ZSL | 20 | 10.500 | 10.000 | 19.000 | 0.0 | 20 |" in (
            render_markdown(report)
        )
        assert "latency_percentiles" not in report.to_dict()
        assert "10.000" not in render_csv(report)

    def test_markdown_sections(self):
        rng = random.Random(9)
        report = compute_metrics([r.row() for r in random_records(rng, 60)])
        text = render_markdown(report)
        assert "true\\pred" in text
        assert "| UNPARSED |" in text or "UNPARSED" in text
        assert "Efficiency" in text
        comparison = compare_to_reference(report)
        with_cmp = render_markdown(report, comparison)
        assert "Reference" in with_cmp


class TestRenderReport:
    def test_writes_requested_formats(self, tmp_path):
        report = compute_metrics(single_scope_rows(3, 4))
        written = render_report(report, tmp_path, formats=("csv", "plot-json"))
        assert sorted(p.name for p in written) == ["metrics.csv", "plot_data.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "metrics.csv",
            "plot_data.json",
        ]  # no stray staging files left behind

    def test_unknown_format_writes_nothing(self, tmp_path):
        report = compute_metrics(single_scope_rows(3, 4))
        out = tmp_path / "reports"
        with pytest.raises(MetricsError, match="svg"):
            render_report(report, out, formats=("csv", "svg"))
        assert not out.exists()

    def test_unwritable_destination_leaves_nothing(self, tmp_path):
        report = compute_metrics(single_scope_rows(3, 4))
        blocker = tmp_path / "occupied"
        blocker.write_text("a plain file, not a directory", encoding="utf-8")
        with pytest.raises(OSError):
            render_report(report, blocker)
        assert blocker.read_text(encoding="utf-8").startswith("a plain file")
