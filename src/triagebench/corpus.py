"""Labeled incident corpora: JSONL/CSV loading, saving and validation.

JSONL is the canonical on-disk form (one UTF-8 object per line with keys
id, text, ground_truth and optional source, language); CSV is accepted with
that exact header. A .csv suffix picks CSV, any other suffix JSONL; both
may start with a byte-order mark.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Iterator

from .anonymizer import audit
from .taxonomy import CategoryCode
from .util import canonical_dumps, utf8_encodable, write_whole


class CorpusError(ValueError):
    """Malformed corpus file or a corpus invariant violation."""


CSV_HEADER = ("id", "text", "ground_truth", "source", "language")


@dataclass(frozen=True)
class IncidentRecord:
    id: str
    text: str
    ground_truth: CategoryCode
    source: str | None = None
    language: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise CorpusError("record id must be nonempty")
        if not self.text:
            raise CorpusError(f"record {self.id!r}: text must be nonempty")
        if self.ground_truth is CategoryCode.UNPARSED:
            raise CorpusError(f"record {self.id!r}: ground_truth may not be UNPARSED")

    def to_dict(self) -> dict:
        d = {"id": self.id, "text": self.text,
             "ground_truth": self.ground_truth.value}
        if self.source is not None:
            d["source"] = self.source
        if self.language is not None:
            d["language"] = self.language
        return d


@dataclass(frozen=True)
class Corpus:
    records: tuple[IncidentRecord, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for rec in self.records:
            if rec.id in seen:
                raise CorpusError(f"duplicate record id {rec.id!r}")
            seen.add(rec.id)

    def __len__(self) -> int:
        return len(self.records)

    def digest(self) -> str:
        """SHA-256 of what a task reads of each record: its id, text and
        ground truth, in id order, so the order of the file does not count.

        One string is joined and hashed; each id and text is JSON-escaped,
        so no two corpora join to the same string.
        """
        esc = encode_basestring
        joined = "".join(sorted([
            f"{esc(r.id)}{esc(r.text)}{r.ground_truth._value_}\n" for r in self.records
        ]))
        # surrogatepass: a corpus built in code may hold a lone surrogate.
        return hashlib.sha256(joined.encode("utf-8", "surrogatepass")).hexdigest()


def _record_from_mapping(row: dict, where: str) -> IncidentRecord:
    for key in ("id", "text", "ground_truth"):
        # Not a falsy test: an integer id 0 is an id, and text 0 a wrong type.
        if row.get(key) in (None, ""):
            raise CorpusError(f"{where}: missing or empty field {key!r}")
    code_raw = row["ground_truth"]
    try:
        code = CategoryCode(code_raw)
    except ValueError:
        raise CorpusError(f"{where}: unknown ground_truth code {code_raw!r}") from None
    if code is CategoryCode.UNPARSED:
        raise CorpusError(f"{where}: ground_truth may not be UNPARSED")
    # A JSONL id may be an integer; it is kept as its decimal string.
    if type(row["id"]) not in (str, int):
        raise CorpusError(f"{where}: field 'id' must be a string or an integer")
    for key in ("text", "source", "language"):
        if row.get(key) is not None and type(row[key]) is not str:
            raise CorpusError(f"{where}: field {key!r} must be a string")
    for key in ("id", "text", "source", "language"):
        if type(row.get(key)) is str and not utf8_encodable(row[key]):
            raise CorpusError(f"{where}: field {key!r} holds a lone surrogate")
    return IncidentRecord(
        id=str(row["id"]),
        text=row["text"],
        ground_truth=code,
        source=row.get("source") or None,
        language=row.get("language") or None,
    )


def _jsonl_rows(fh: Iterable[str], name: str) -> Iterator[tuple[str, dict]]:
    for lineno, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        where = f"{name}:{lineno}"
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{where}: invalid JSON ({exc.msg})") from exc
        if not isinstance(row, dict):
            raise CorpusError(f"{where}: expected an object")
        yield where, row


def _csv_rows(fh: Iterable[str], name: str) -> Iterator[tuple[str, dict]]:
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        raise CorpusError(f"{name}: empty CSV file")
    if tuple(header) != CSV_HEADER:
        raise CorpusError(f"{name}: CSV header must be {','.join(CSV_HEADER)}")
    # A quoted field may span lines: name a record by the line it starts on.
    end = reader.line_num
    for row in reader:
        start, end = end + 1, reader.line_num
        if not row:
            continue
        where = f"{name}:{start}"
        if len(row) != len(CSV_HEADER):
            raise CorpusError(f"{where}: expected {len(CSV_HEADER)} columns")
        yield where, dict(zip(CSV_HEADER, row))


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus from CSV (a .csv suffix, any case) or else JSONL.

    Order-preserving. A leading UTF-8 byte-order mark is skipped. Malformed
    rows, duplicate ids, unknown codes and non-UTF-8 bytes raise CorpusError
    naming the file, and the line where there is one.
    """
    path = Path(path)
    rows = _csv_rows if path.suffix.lower() == ".csv" else _jsonl_rows
    records: list[IncidentRecord] = []
    seen: set[str] = set()
    # newline="" keeps the line breaks inside quoted CSV fields; JSONL lines
    # split on the same breaks in either mode.
    with path.open(encoding="utf-8-sig", newline="") as fh:
        try:
            for where, row in rows(fh, path.name):
                rec = _record_from_mapping(row, where)
                if rec.id in seen:
                    raise CorpusError(f"{where}: duplicate record id {rec.id!r}")
                seen.add(rec.id)
                records.append(rec)
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path.name}: not UTF-8 text ({exc.reason})") from None
    return Corpus(records=tuple(records))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the canonical JSONL form through util.write_whole, so a failed
    write leaves the old file whole; load_corpus of the result round-trips."""
    text = "".join(canonical_dumps(rec.to_dict()) + "\n" for rec in corpus.records)
    write_whole(Path(path), text, 0o666)


@dataclass(frozen=True)
class ValidationFinding:
    record_id: str
    kind: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[ValidationFinding, ...]
    n_records: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_text(self) -> str:
        lines = [f"validated {self.n_records} records: "
                 f"{len(self.findings)} finding(s)"]
        for f in self.findings:
            lines.append(f"  {f.record_id}: {f.kind} {f.detail}")
        return "\n".join(lines)


def validate_corpus(corpus: Corpus) -> ValidationReport:
    """Audit every record for residual PII and blank text.

    Findings are report entries, never exceptions; the corpus is untouched.
    """
    findings: list[ValidationFinding] = []
    for rec in corpus.records:
        # A record refuses empty text but accepts text that is all whitespace.
        if not rec.text.strip():
            findings.append(ValidationFinding(rec.id, "EMPTY_TEXT", "blank text"))
        for f in audit(rec.text):
            findings.append(
                ValidationFinding(
                    rec.id, f.kind.value,
                    f"{f.value!r} at {f.span[0]}..{f.span[1]}",
                )
            )
    return ValidationReport(findings=tuple(findings), n_records=len(corpus))
