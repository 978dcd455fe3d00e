import hashlib
import json
import random

import pytest

from triagebench.corpus import (
    CSV_HEADER,
    Corpus,
    CorpusError,
    IncidentRecord,
    balanced_sample,
    load_corpus,
    save_corpus,
    validate_corpus,
)
from triagebench.taxonomy import CategoryCode

CODES = list(CategoryCode.taxonomy_codes())


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

    def test_by_category_prefills_all_twelve(self):
        buckets = Corpus(records=(rec("a"),)).by_category()
        assert set(buckets) == set(CODES)
        assert len(buckets[CategoryCode.CAT1]) == 1
        assert buckets[CategoryCode.CAT12] == []


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
        ],
        ids=["id-bool", "id-float", "text-list", "text-zero", "source-int",
             "language-bool"],
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


def _oracle_hash(key: str) -> int:
    # Recomputed from the documented algorithm, not from the package helper.
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


def _oracle_sample_ids(corpus: Corpus, per_category: int, seed: int) -> list[str]:
    chosen: list[IncidentRecord] = []
    for code in CODES:
        bucket = [r for r in corpus.records if r.ground_truth is code]
        bucket.sort(key=lambda r: _oracle_hash(f"{seed}:{code.value}:{r.id}"))
        chosen.extend(bucket[:per_category])
    chosen.sort(key=lambda r: _oracle_hash(f"{seed}:order:{r.id}"))
    return [r.id for r in chosen]


def uneven_corpus(rng: random.Random, low: int = 2, high: int = 6) -> Corpus:
    records = []
    n = 0
    for code in CODES:
        for _ in range(rng.randint(low, high)):
            records.append(rec(f"r{n:03d}", code, f"report {n}"))
            n += 1
    return Corpus(records=tuple(records))


class TestBalancedSample:
    def test_matches_independent_oracle(self):
        rng = random.Random(7)
        for seed in (0, 1, 42, 2026):
            corpus = uneven_corpus(rng)
            sample = balanced_sample(corpus, 2, seed)
            assert [r.id for r in sample.records] == _oracle_sample_ids(
                corpus, 2, seed
            )

    def test_exactly_per_category(self):
        corpus = uneven_corpus(random.Random(3))
        sample = balanced_sample(corpus, 2, seed=5)
        assert len(sample) == 24
        assert all(len(v) == 2 for v in sample.by_category().values())

    def test_deterministic_and_seed_sensitive(self):
        corpus = uneven_corpus(random.Random(9))
        a = balanced_sample(corpus, 2, seed=1)
        b = balanced_sample(corpus, 2, seed=1)
        c = balanced_sample(corpus, 2, seed=2)
        assert a.records == b.records
        assert a.records != c.records

    def test_subset_of_input(self):
        corpus = uneven_corpus(random.Random(11))
        sample = balanced_sample(corpus, 2, seed=0)
        ids = {r.id for r in corpus.records}
        assert all(r.id in ids for r in sample.records)

    def test_deficiency_error_names_categories(self):
        records = tuple(
            rec(f"r{i}", code) for i, code in enumerate(CODES[:11])
        )  # CAT12 absent entirely
        with pytest.raises(CorpusError) as err:
            balanced_sample(Corpus(records=records), 2, seed=0)
        message = str(err.value)
        assert "CAT12: 0" in message
        assert "CAT1: 1" in message


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
