import json

import pytest

from triagebench.corpus import (
    CSV_HEADER,
    Corpus,
    CorpusError,
    IncidentRecord,
    load_corpus,
    save_corpus,
    validate_corpus,
)
from triagebench.taxonomy import CategoryCode


def rec(i: str, code: CategoryCode = CategoryCode.CAT1, text: str = "an incident",
        **kw) -> IncidentRecord:
    return IncidentRecord(id=i, text=text, ground_truth=code, **kw)


class TestIncidentRecord:
    def test_rejects_empty_fields(self):
        with pytest.raises(CorpusError):
            IncidentRecord(id="", text="x", ground_truth=CategoryCode.CAT1)
        with pytest.raises(CorpusError):
            IncidentRecord(id="a", text="", ground_truth=CategoryCode.CAT1)

    def test_rejects_unparsed_label(self):
        with pytest.raises(CorpusError):
            IncidentRecord(id="a", text="x", ground_truth=CategoryCode.UNPARSED)

    def test_to_dict_omits_unset_optionals(self):
        assert "source" not in rec("a").to_dict()
        assert rec("a", source="siem").to_dict()["source"] == "siem"


class TestCorpus:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(CorpusError, match="duplicate"):
            Corpus(records=(rec("a"), rec("a")))


class TestRoundTrip:
    def test_jsonl_round_trip(self, tmp_path):
        original = Corpus(
            records=(
                rec("a", CategoryCode.CAT3, "line one\nline two"),
                rec("b", CategoryCode.CAT7, "unicode: naïve café — ok",
                    source="ticket", language="en"),
            )
        )
        path = tmp_path / "c.jsonl"
        save_corpus(original, path)
        loaded = load_corpus(path)
        assert loaded.records == original.records

    def test_csv_load(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "id,text,ground_truth,source,language\n"
            'x1,"multi\nline report",CAT5,desk,en\n',
            encoding="utf-8",
        )
        loaded = load_corpus(path)
        assert loaded.records[0].id == "x1"
        assert loaded.records[0].text == "multi\nline report"
        assert loaded.records[0].ground_truth is CategoryCode.CAT5

    def test_csv_after_save_round_trips_as_jsonl(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            ",".join(CSV_HEADER) + "\nx1,report text,CAT2,desk,en\n",
            encoding="utf-8",
        )
        first = load_corpus(path)
        out = tmp_path / "c.jsonl"
        save_corpus(first, out)
        assert load_corpus(out).records == first.records

    @pytest.mark.parametrize("name, body", [
        ("c.csv", ",".join(CSV_HEADER) + "\nx1,report text,CAT2,,\n"),
        ("c.jsonl", '{"id":"x1","text":"report text","ground_truth":"CAT2"}\n'),
    ], ids=["csv", "jsonl"])
    def test_byte_order_mark_skipped(self, tmp_path, name, body):
        # Excel's "CSV UTF-8" export starts the file with a BOM.
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
        (record,) = load_corpus(path).records
        assert record == rec("x1", CategoryCode.CAT2, "report text")

    def test_upper_case_csv_suffix_loads_as_csv(self, tmp_path):
        path = tmp_path / "C.CSV"
        path.write_text(",".join(CSV_HEADER) + "\nx1,report text,CAT2,,\n",
                        encoding="utf-8")
        assert [r.id for r in load_corpus(path).records] == ["x1"]


class TestLoadErrors:
    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a"}\n{oops\n', encoding="utf-8")
        with pytest.raises(CorpusError, match="bad.jsonl:"):
            load_corpus(path)

    def test_unknown_code_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id":"a","text":"x","ground_truth":"CAT99"}\n', encoding="utf-8"
        )
        with pytest.raises(CorpusError, match="bad.jsonl:1"):
            load_corpus(path)

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id":"a","text":"x"}\n', encoding="utf-8")
        with pytest.raises(CorpusError, match="bad.jsonl:1"):
            load_corpus(path)

    def test_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id":"a","text":"x","ground_truth":"CAT1"}\n'
            '{"id":"a","text":"y","ground_truth":"CAT2"}\n',
            encoding="utf-8",
        )
        with pytest.raises(CorpusError, match="bad.jsonl:2"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"id": True}, "'id' must be a string or an integer"),
            ({"id": 1.5}, "'id' must be a string or an integer"),
            ({"text": ["a", "b"]}, "'text' must be a string"),
            ({"text": 0}, "'text' must be a string"),
            ({"source": 5}, "'source' must be a string"),
            ({"language": False}, "'language' must be a string"),
            ({"id": "a\ud800"}, "'id' holds a lone surrogate"),
            ({"text": "x \udfff"}, "'text' holds a lone surrogate"),
            ({"source": "\ud83d"}, "'source' holds a lone surrogate"),
            ({"language": "e\udc80n"}, "'language' holds a lone surrogate"),
        ],
        ids=["id-bool", "id-float", "text-list", "text-zero", "source-int",
             "language-bool", "id-surrogate", "text-surrogate", "source-surrogate",
             "language-surrogate"],
    )
    def test_wrongly_typed_field_names_line(self, tmp_path, fields, message):
        path = tmp_path / "bad.jsonl"
        row = {"id": "a", "text": "x", "ground_truth": "CAT1", **fields}
        path.write_text(
            '{"id":"ok","text":"y","ground_truth":"CAT2"}\n' + json.dumps(row) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(CorpusError, match=f"bad.jsonl:2: field {message}"):
            load_corpus(path)

    def test_integer_id_kept_as_its_string(self, tmp_path):
        path = tmp_path / "ids.jsonl"
        path.write_text(
            '{"id":7,"text":"x","ground_truth":"CAT1","source":null}\n'
            '{"id":0,"text":"y","ground_truth":"CAT2"}\n',
            encoding="utf-8",
        )
        seven, zero = load_corpus(path).records
        assert (seven.id, seven.source) == ("7", None)
        assert zero.id == "0"

    def test_csv_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(CSV_HEADER) + "\na,x,CAT1,,\na,y,CAT2,,\n", encoding="utf-8"
        )
        with pytest.raises(CorpusError, match="bad.csv:3: duplicate record id 'a'"):
            load_corpus(path)

    @pytest.mark.parametrize("rows, where", [
        ('x1,"multi\nline",CAT5,,\nx2,text,CAT99,,\n', "ml.csv:4"),
        ('x1,"multi\nline",CAT99,,\nx2,text,CAT5,,\n', "ml.csv:2"),
    ], ids=["after-multiline", "in-multiline"])
    def test_csv_error_names_physical_start_line(self, tmp_path, rows, where):
        path = tmp_path / "ml.csv"
        path.write_text(",".join(CSV_HEADER) + "\n" + rows, encoding="utf-8")
        with pytest.raises(CorpusError, match=f"^{where}: unknown ground_truth"):
            load_corpus(path)

    @pytest.mark.parametrize("name", ["bad.jsonl", "bad.csv"])
    def test_non_utf8_names_file(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"\xff" + ",".join(CSV_HEADER).encode() + b"\n")
        with pytest.raises(CorpusError, match=f"{name}: not UTF-8"):
            load_corpus(path)

    def test_wrong_csv_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,body,label\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="header"):
            load_corpus(path)


class TestValidateCorpus:
    def test_clean_corpus_ok(self, demo_corpus):
        report = validate_corpus(demo_corpus)
        assert report.ok
        assert report.n_records == 24

    def test_residual_ip_flagged(self):
        corpus = Corpus(records=(rec("a", text="probe from 10.0.0.8 seen"),))
        report = validate_corpus(corpus)
        assert not report.ok
        assert report.findings[0].record_id == "a"
        assert report.findings[0].kind == "IPV4"
        assert "10.0.0.8" in report.findings[0].detail

    def test_whitespace_text_flagged(self):
        corpus = Corpus(records=(rec("a", text="   \n  "),))
        kinds = [f.kind for f in validate_corpus(corpus).findings]
        assert "EMPTY_TEXT" in kinds

    def test_report_text_mentions_counts(self):
        # The address matches EMAIL and its domain matches HOSTNAME; audit
        # reports overlaps, so one leaked address means two findings.
        corpus = Corpus(records=(rec("a", text="mail admin@example.com now"),))
        text = validate_corpus(corpus).to_text()
        assert "2 finding(s)" in text
        assert "EMAIL" in text
