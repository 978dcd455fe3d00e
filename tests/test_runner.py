import json
import tempfile
import threading
import time
from dataclasses import replace
from functools import cache, partial
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from triagebench.backend import (
    BackendUnavailableError,
    ChatMessage,
    Completion,
    GenerationParams,
    ModelGroup,
    Role,
    ScriptedBackend,
    Telemetry,
    resolve_model,
)
from triagebench.corpus import Corpus, IncidentRecord
from triagebench.runner import (
    RunError,
    RunPlan,
    RunRecord,
    check_record,
    execute,
    load_run_records,
    resume_scan,
)
from triagebench.taxonomy import CategoryCode, builtin_taxonomy
from triagebench.techniques import (
    FIXED_ROUNDS,
    ClassificationTrace,
    TechniqueConfig,
    TechniqueId,
    TemplateSet,
    TraceTurn,
    default_templates,
)
from triagebench.util import canonical_dumps

from helpers import (
    CODES,
    corrupt_lines_2_and_3,
    make_record,
    make_trace,
    stored_lines,
    write_run_file,
)
from oracles import oracle_rows, record_dict

CORPUS = Corpus(
    records=tuple(
        IncidentRecord(
            id=f"i{n}", text=f"report {n}", ground_truth=CategoryCode.from_number(n)
        )
        for n in (1, 2, 3)
    )
)


# JSON strings hold these raw; str.splitlines would break a line at each.
SEPARATED = Corpus(
    records=tuple(
        IncidentRecord(
            id=f"s{n}", text=f"report {n}{sep}Grüße, ä",
            ground_truth=CategoryCode.from_number(n),
        )
        for n, sep in enumerate(("\u2028", "\u2029", "\u0085"), start=1)
    )
)


def _tweaked_templates() -> TemplateSet:
    """The bundled templates with one round file changed, so another hash."""
    files = dict(default_templates().files())
    files["zsl/round1.txt"] += " tweaked"
    return TemplateSet(files)


TWEAKED = _tweaked_templates()


class ConstantBackend:
    """Thread-safe backend answering every prompt the same way.

    Tracks peak concurrent calls and can be told to crash hard after a
    number of completions (simulating a killed process) or to always fail
    (simulating an unreachable server).
    """

    def __init__(self, reply="FINAL: CAT1", crash_after=None, always_fail=False):
        self.reply = reply
        self.crash_after = crash_after
        self.always_fail = always_fail
        self.calls = 0
        self.in_flight = 0
        self.peak_in_flight = 0
        self._lock = threading.Lock()

    def complete(self, model, messages, params):
        with self._lock:
            self.calls += 1
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
            calls = self.calls
        try:
            if self.always_fail:
                raise BackendUnavailableError("synthetic outage")
            if self.crash_after is not None and calls > self.crash_after:
                raise KeyboardInterrupt  # hard stop, not a backend condition
            return Completion(
                text=self.reply,
                telemetry=Telemetry(latency_ms=1.0, response_chars=len(self.reply)),
            )
        finally:
            with self._lock:
                self.in_flight -= 1


def plan_for(tmp_path, models=("m-a",), techniques=(TechniqueId.ZSL,),
             parallelism=1, corpus=CORPUS, budget=GenerationParams.input_token_budget):
    return RunPlan(
        models=tuple(resolve_model(m) for m in models),
        techniques=techniques,
        corpus=corpus,
        params=GenerationParams(input_token_budget=budget),
        technique_config=TechniqueConfig(),
        seed=0,
        output_path=tmp_path / "run.jsonl",
        parallelism=parallelism,
    )


class TestRunPlan:
    def test_task_order_incident_outer_model_inner(self, tmp_path):
        plan = plan_for(
            tmp_path,
            models=("m-a", "m-b"),
            techniques=(TechniqueId.ZSL, TechniqueId.PHP),
        )
        keys = plan.task_keys()
        assert keys[:4] == [
            ("m-a", "ZSL", "i1"),
            ("m-b", "ZSL", "i1"),
            ("m-a", "PHP", "i1"),
            ("m-b", "PHP", "i1"),
        ]
        assert keys[4][2] == "i2"
        assert len(keys) == 12

    def test_run_order_model_by_model_in_plan_order(self, tmp_path):
        plan = plan_for(tmp_path, models=("m-b", "m-a"),
                        techniques=(TechniqueId.ZSL, TechniqueId.PHP))
        keys = plan.task_keys()
        order = plan.run_order()
        assert order == [k for k in keys if k[0] == "m-b"] + [
            k for k in keys if k[0] == "m-a"
        ]
        assert plan.run_order(done=set(keys[:5])) == [
            k for k in order if k not in keys[:5]
        ]

    @given(
        models=st.lists(
            st.sampled_from(["m-a", "m-b", "m-c", "m-d"]),
            min_size=1, max_size=4, unique=True,
        ),
        techniques=st.lists(
            st.sampled_from(list(TechniqueId)), min_size=1, max_size=5, unique=True
        ),
        n_incidents=st.integers(1, 4),
        data=st.data(),
    )
    def test_run_order_is_plan_order_stably_sorted_by_model(
        self, models, techniques, n_incidents, data
    ):
        corpus = Corpus(records=tuple(
            IncidentRecord(id=f"i{n}", text=f"report {n}",
                           ground_truth=CategoryCode.from_number(n))
            for n in range(1, n_incidents + 1)
        ))
        plan = plan_for(Path("unused"), models=tuple(models),
                        techniques=tuple(techniques), corpus=corpus)
        keys = plan.task_keys()
        done = data.draw(st.sets(st.sampled_from(keys)))
        rank = {name: i for i, name in enumerate(models)}
        expected = sorted(
            (k for k in keys if k not in done), key=lambda k: rank[k[0]]
        )
        assert plan.run_order(done) == expected

    def test_rejects_empty_axes(self, tmp_path):
        with pytest.raises(RunError):
            plan_for(tmp_path, models=())
        with pytest.raises(RunError):
            plan_for(tmp_path, techniques=())

    def test_rejects_bad_parallelism(self, tmp_path):
        with pytest.raises(RunError):
            plan_for(tmp_path, parallelism=0)

    def test_rejects_a_budget_too_small_for_a_system_prompt(self, tmp_path):
        # A task would fail at its first request: the prompt and a cut user
        # message do not fit. PRP's system prompt is the longest.
        techniques = (TechniqueId.ZSL, TechniqueId.PRP)
        with pytest.raises(RunError, match="input_token_budget 366 is too small"
                                           " for the PRP system prompt"):
            plan_for(tmp_path, techniques=techniques, budget=366)
        plan = plan_for(tmp_path, techniques=techniques, budget=367)
        assert execute(plan, ConstantBackend()).failed == 0

    def test_rejects_repeated_model_or_technique(self, tmp_path):
        with pytest.raises(RunError, match="repeats a model"):
            plan_for(tmp_path, models=("m-a", "m-a"))
        with pytest.raises(RunError, match="repeats a technique"):
            plan_for(tmp_path, techniques=(TechniqueId.ZSL, TechniqueId.ZSL))

    def test_rejects_a_model_name_that_is_not_utf8(self, tmp_path):
        # What Python makes of the argv bytes b"m\xff"; no record could hold it.
        with pytest.raises(RunError, match=r"model name 'm\\udcff' is not UTF-8"):
            plan_for(tmp_path, models=("m-a", "m\udcff"))


class TestGrade:
    def test_correct_iff_final_equals_truth(self):
        trace = make_trace(final=CategoryCode.CAT2)
        assert RunRecord(trace, CategoryCode.CAT2).correct is True
        assert RunRecord(trace, CategoryCode.CAT3).correct is False

    def test_unparsed_final_always_incorrect(self):
        trace = make_trace(final=CategoryCode.UNPARSED)
        assert RunRecord(trace, CategoryCode.CAT1).correct is False

    def test_unparsed_truth_rejected(self):
        with pytest.raises(ValueError, match="ground_truth may not be UNPARSED"):
            RunRecord(make_trace(), CategoryCode.UNPARSED)

    def test_correct_is_computed_and_stored_value_must_agree(self):
        record = RunRecord(make_trace(final=CategoryCode.CAT2), CategoryCode.CAT3)
        assert record.correct is False
        assert replace(record, ground_truth=CategoryCode.CAT2).correct is True
        d = record.to_dict()
        assert d["correct"] is False
        assert check_record(d) == (record.row(), record.trace.template_hash)
        for stored in (True, 0, "no", None):
            with pytest.raises(ValueError, match="correct is"):
                check_record({**d, "correct": stored})

    def test_final_is_the_last_answer_or_unparsed_on_error(self):
        trace = make_trace(
            technique=TechniqueId.PHP, final=CategoryCode.CAT2, rounds_used=2
        )
        assert trace.final is CategoryCode.CAT2
        failed = replace(trace, error="down")
        assert failed.final is CategoryCode.UNPARSED
        assert RunRecord(failed, CategoryCode.CAT2).correct is False
        d = RunRecord(trace, CategoryCode.CAT3).to_dict()
        d["trace"]["final"] = "CAT3"
        with pytest.raises(ValueError, match="final is CAT3, but .* give CAT2"):
            check_record(d)
        d["trace"]["final"], d["error"] = "CAT2", "down"
        with pytest.raises(ValueError, match="final is CAT2, but .* give UNPARSED"):
            check_record(d)
        with pytest.raises(ValueError, match="needs a turn"):
            make_trace(rounds_used=0)

    def test_error_is_the_traces_and_written_beside_it(self):
        failed = replace(make_trace(technique=TechniqueId.PRP, rounds_used=1),
                         error="down")
        record = RunRecord(failed, CategoryCode.CAT1)
        assert record.error == "down"
        d = record.to_dict()
        assert (d["error"], "error" in d["trace"]) == ("down", False)
        assert check_record(d) == (record.row(), record.trace.template_hash)
        with pytest.raises(TypeError, match="error must be str"):
            check_record({**d, "error": 7})

    @pytest.mark.parametrize(
        "technique, answers, error, refusal",
        [
            ("ZSL", "1 1 1", None, "turns is 3, but ZSL runs 1"),
            ("ZSL", "1", "down", "turns is 1, but ZSL runs 1"),
            ("SHP", "2", None, "turns is 1, but SHP runs 2"),
            ("HTP", "1 2 3 4", None, "turns is 4, but HTP runs 3"),
            ("PHP", "1 1 1", None, "turns 1 and 2 agree, but PHP goes on to turn 3"),
            ("PRP", "2 1 1 3", None, "turns 2 and 3 agree, but PRP goes on to turn 4"),
            ("PHP", "4 4", "down", "turns 1 and 2 agree, but PHP records an error"),
            ("ZSL", "", "down", None),
            ("SHP", "1 1", None, None),
            ("HTP", "1 2", "down", None),
            ("PHP", "1", None, None),
            ("PHP", "1 2 2", None, None),
            ("PRP", "0 0 0", None, None),
            ("PRP", "1 2 3", "down", None),
            ("PHP", "0 0", "down", None),
        ],
    )
    def test_turns_are_ones_a_run_can_give(self, technique, answers, error, refusal):
        # A fixed technique runs its rounds, fewer if it fails; PHP and PRP
        # stop once two answers agree ("0" is UNPARSED, which never agrees).
        # The trace itself refuses any other turns.
        codes = [CategoryCode.UNPARSED if k == "0" else CategoryCode(f"CAT{k}")
                 for k in answers.split()]
        build = partial(
            ClassificationTrace, incident_id="i", model="m",
            model_group=ModelGroup.G1, technique=TechniqueId(technique),
            turns=tuple(TraceTurn((), Completion(c.value, Telemetry(0.0, 0)), c)
                        for c in codes),
            template_hash="h", error=error,
        )
        if refusal is None:
            assert build().final is (CategoryCode.UNPARSED if error else codes[-1])
        else:
            with pytest.raises(ValueError, match=refusal):
                build()


class TestExecuteSerial:
    def test_full_product_in_run_order(self, tmp_path):
        plan = plan_for(tmp_path, models=("m-a", "m-b"),
                        techniques=(TechniqueId.ZSL, TechniqueId.SHP))
        summary = execute(plan, ConstantBackend())
        assert (summary.planned, summary.executed, summary.failed) == (12, 12, 0)
        records = load_run_records(plan.output_path)
        assert [r.key for r in records] == plan.run_order()

    def test_progress_callback_counts_up(self, tmp_path):
        seen = []
        plan = plan_for(tmp_path)
        execute(plan, ConstantBackend(),
                on_record=lambda r, done, total: seen.append((done, total)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_grading_against_ground_truth(self, tmp_path):
        plan = plan_for(tmp_path)
        execute(plan, ConstantBackend(reply="FINAL: CAT1"))
        by_id = {r.incident_id: r for r in load_run_records(plan.output_path)}
        assert by_id["i1"].correct is True  # truth CAT1
        assert by_id["i2"].correct is False

    def test_refuses_existing_output_without_resume(self, tmp_path):
        plan = plan_for(tmp_path)
        execute(plan, ConstantBackend())
        with pytest.raises(RunError, match="resume"):
            execute(plan, ConstantBackend())

    def test_failed_tasks_recorded_and_run_continues(self, tmp_path):
        plan = plan_for(tmp_path)
        summary = execute(plan, ConstantBackend(always_fail=True))
        assert summary.failed == 3
        rows = load_run_records(plan.output_path)
        assert len(rows) == 3
        assert all(r.error is not None for r in rows)
        assert all(r.correct is False for r in rows)
        assert all(r.final is CategoryCode.UNPARSED for r in rows)


    def test_interrupt_propagates_and_writes_nothing_for_its_task(self, tmp_path):
        plan = plan_for(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            execute(plan, ConstantBackend(crash_after=1))
        rows = load_run_records(plan.output_path)
        assert [(r.incident_id, r.error) for r in rows] == [("i1", None)]


class TestResume:
    @pytest.mark.parametrize("where, version", [
        ("record", 2), ("trace", 7), ("record", None), ("trace", None),
        ("record", True), ("trace", 1.0),
    ])
    def test_other_or_missing_schema_version_refused_by_line(
        self, tmp_path, where, version
    ):
        records = [make_record(incident_id=f"i{n}") for n in (1, 2, 3)]
        path = write_run_file(tmp_path / "run.jsonl", records)
        rows = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
        d = rows[1] if where == "record" else rows[1]["trace"]
        if version is None:
            del d["schema_version"]
        else:
            d["schema_version"] = version
        path.write_text("".join(canonical_dumps(r) + "\n" for r in rows), "utf-8")
        refusal = "run\\.jsonl:2: invalid record: ValueError: .*schema_version is"
        for read in (resume_scan, load_run_records):
            with pytest.raises(RunError, match=refusal):
                read(path)

    def test_kill_and_resume_yields_exact_product(self, tmp_path):
        plan = plan_for(tmp_path, models=("m-a", "m-b"),
                        techniques=(TechniqueId.ZSL, TechniqueId.SHP))
        with pytest.raises(KeyboardInterrupt):
            execute(plan, ConstantBackend(crash_after=5))
        done_before = resume_scan(plan.output_path)
        assert 0 < len(done_before) < 12

        # A torn trailing line is what a mid-write kill leaves behind.
        with plan.output_path.open("a", encoding="utf-8") as fh:
            fh.write('{"trace": {"model": "m-a", "tech')

        summary = execute(plan, ConstantBackend(), resume=True)
        assert summary.planned == 12
        assert summary.skipped == len(done_before)
        assert summary.executed == 12 - len(done_before)

        records = load_run_records(plan.output_path)
        keys = [r.key for r in records]
        assert len(keys) == len(set(keys)) == 12
        assert set(keys) == set(plan.task_keys())

    def test_resume_on_complete_run_is_noop(self, tmp_path):
        plan = plan_for(tmp_path)
        execute(plan, ConstantBackend())
        summary = execute(plan, ConstantBackend(), resume=True)
        assert summary.executed == 0
        assert summary.skipped == 3
        assert len(load_run_records(plan.output_path)) == 3

    def test_resume_counts_only_the_plan_tasks(self, tmp_path):
        wide = plan_for(tmp_path, models=("m-a", "m-b"))
        execute(wide, ConstantBackend())
        narrow = plan_for(tmp_path, techniques=(TechniqueId.ZSL, TechniqueId.SHP))
        seen = []
        summary = execute(narrow, ConstantBackend(), resume=True,
                          on_record=lambda r, done, total: seen.append((done, total)))
        assert (summary.planned, summary.skipped, summary.executed) == (6, 3, 3)
        assert seen == [(4, 6), (5, 6), (6, 6)]

    def test_line_separators_in_text_keep_every_record(self, tmp_path):
        plan = plan_for(tmp_path, corpus=SEPARATED)
        execute(plan, ConstantBackend())
        assert len(load_run_records(plan.output_path)) == 3
        summary = execute(plan, ConstantBackend(), resume=True)
        assert (summary.skipped, summary.executed) == (3, 0)
        assert len(plan.output_path.read_bytes().split(b"\n")) == 4

    def test_resume_scan_missing_file_empty(self, tmp_path):
        assert resume_scan(tmp_path / "nope.jsonl") == set()

    def test_resume_scan_ignores_torn_tail(self, tmp_path):
        plan = plan_for(tmp_path)
        execute(plan, ConstantBackend())
        with plan.output_path.open("a", encoding="utf-8") as fh:
            fh.write('{"half": ')
        assert len(resume_scan(plan.output_path)) == 3

    def test_keyed_invalid_record_refused_naming_its_line(self, tmp_path):
        plan = plan_for(tmp_path)
        execute(plan, ConstantBackend())
        corrupt_lines_2_and_3(plan.output_path)
        # Resume skips all three tasks, so the report must not drop two.
        assert len(resume_scan(plan.output_path)) == 3
        with pytest.raises(RunError, match=r"run\.jsonl:2: invalid record: ValueError"):
            load_run_records(plan.output_path)

    @pytest.mark.parametrize("kind", ["non-utf8", "directory"])
    def test_resume_on_unreadable_run_file_raises_run_error(self, tmp_path, kind):
        plan = plan_for(tmp_path)
        if kind == "directory":
            plan.output_path.mkdir()
        else:
            plan.output_path.write_bytes(b'{"trace": "\xff"}\n')
        with pytest.raises(RunError, match="cannot read run file"):
            execute(plan, ConstantBackend(), resume=True)

    def test_resume_with_other_templates_refused_before_any_task(self, tmp_path):
        plan = plan_for(tmp_path)
        execute(plan, ConstantBackend())
        before = plan.output_path.read_bytes()
        tweaked = replace(plan, technique_config=TechniqueConfig(templates=TWEAKED))
        backend = ConstantBackend()
        ours, theirs = TWEAKED.template_hash, default_templates().template_hash
        refusal = f"run\\.jsonl:1: template_hash {theirs} differs from the plan's {ours}"
        with pytest.raises(RunError, match=refusal):
            execute(tweaked, backend, resume=True)
        assert backend.calls == 0
        assert plan.output_path.read_bytes() == before


@cache
def _finished_run(parallelism: int) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        plan = _cut_plan(Path(tmp), parallelism)
        execute(plan, ConstantBackend())
        return plan.output_path.read_bytes()


def _cut_plan(directory: Path, parallelism: int) -> RunPlan:
    return plan_for(directory, models=("m-a", "m-b"), parallelism=parallelism,
                    techniques=(TechniqueId.ZSL, TechniqueId.SHP), corpus=SEPARATED)


def _cut_offsets(parallelism: int) -> st.SearchStrategy[int]:
    """Any offset, one inside a multi-byte character, or one just before a
    line's "\n", which leaves a last line that is complete JSON."""
    full = _finished_run(parallelism)
    inside = [i for i, b in enumerate(full) if 0x80 <= b < 0xC0]
    newlines = [i for i, b in enumerate(full) if b == 0x0A]
    return (
        st.integers(0, len(full)) | st.sampled_from(inside) | st.sampled_from(newlines)
    )


@pytest.mark.parametrize("parallelism", [1, 2])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_resume_from_any_cut_matches_uninterrupted_run(parallelism, data):
    """A run killed at any byte resumes to the run that was never killed:
    byte for byte when serial, record for record when parallel."""
    full = _finished_run(parallelism)
    offset = data.draw(_cut_offsets(parallelism), label="offset")
    with tempfile.TemporaryDirectory() as tmp:
        plan = _cut_plan(Path(tmp), parallelism)
        plan.output_path.write_bytes(full[:offset])
        assert {r.key for r in load_run_records(plan.output_path)} <= set(plan.task_keys())
        summary = execute(plan, ConstantBackend(), resume=True)
        # Only the lines whose "\n" was written count as done.
        assert summary.skipped == full[:offset].count(b"\n")
        if parallelism == 1:
            assert plan.output_path.read_bytes() == full
        else:
            full_path = Path(tmp) / "full.jsonl"
            full_path.write_bytes(full)
            assert stored_lines(plan.output_path) == stored_lines(full_path)


# Telemetry numbers as a server may report them, NaN and infinities included.
_maybe_float = st.none() | st.integers(-(2**63), 2**63) | st.floats()


class DrawnBackend:
    """Answers call n with replies[n % len(replies)]: a Completion, or a
    BackendUnavailableError message to raise."""

    def __init__(self, replies: list) -> None:
        self.replies = replies
        self.calls = 0

    def complete(self, model, messages, params):
        reply = self.replies[self.calls % len(self.replies)]
        self.calls += 1
        if isinstance(reply, str):
            raise BackendUnavailableError(reply)
        return reply


_completions = st.builds(
    Completion,
    text=st.text(),
    telemetry=st.builds(
        Telemetry,
        latency_ms=st.integers(0, 10**6) | st.floats(),
        response_chars=st.integers(0, 10**6),
        prompt_tokens=st.none() | st.integers(0, 10**6),
        output_tokens=st.none() | st.integers(0, 10**6),
        server_eval_duration_ms=_maybe_float,
    ),
)


def _plain(value) -> bool:
    """Only JSON's own types: no Enum member, not even a str one."""
    if type(value) is dict:
        return all(type(k) is str and _plain(v) for k, v in value.items())
    if type(value) is list:
        return all(_plain(v) for v in value)
    return type(value) in (str, int, float, bool, type(None))


@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(st.text(min_size=1), min_size=1, max_size=2),
    replies=st.lists(_completions | st.text(), min_size=1, max_size=4),
)
def test_written_line_is_canonical_json_of_plain_types(texts, replies):
    """Each line execute writes is json.dumps's canonical form of itself,
    and every to_dict() holds plain JSON types only."""
    corpus = Corpus(
        records=tuple(
            IncidentRecord(id=f"i{n}-ü", text=text, ground_truth=CODES[n])
            for n, text in enumerate(texts)
        )
    )
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        plan = plan_for(Path(tmp), models=("modèle",), corpus=corpus,
                        techniques=(TechniqueId.ZSL, TechniqueId.PRP))
        execute(plan, DrawnBackend(replies), on_record=lambda r, *_: records.append(r))
        lines = plan.output_path.read_bytes().decode("utf-8").split("\n")
    assert lines.pop() == "" and len(lines) == len(records)
    for line, record in zip(lines, records):
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":"), ensure_ascii=False
        )
        d = record.to_dict()
        assert _plain(d)
        assert canonical_dumps(d) == line
        assert record.to_json() == line == canonical_dumps(record_dict(record))


# Characters a JSON writer must escape or must write raw, astral ones too.
_tricky_char = st.sampled_from(
    ['"', "\\", *map(chr, range(0x20)), "\x7f", "\x85", "\u2028", "\u2029",
     "\u2014", "\U0001f512", "\U0010ffff"]
)
_tricky_text = st.text(_tricky_char | st.characters(), max_size=12)
_tricky_nonempty = st.text(_tricky_char | st.characters(), min_size=1, max_size=12)
# Every scalar kind a telemetry value may hold, with the floats whose repr
# is hard: the smallest and a huge one, a negative zero, NaN and infinities.
_tricky_number = (
    st.sampled_from([True, False, 0, -7, 10**30, -0.0, 5e-324, 1e308,
                     float("nan"), float("inf"), float("-inf")])
    | st.integers()
    | st.floats()
)


@st.composite
def _drawn_records(draw) -> RunRecord:
    """A record of any technique, failed or not, with 0 to 4 turns of
    tricky strings and numbers."""
    technique = draw(st.sampled_from(list(TechniqueId)))
    error = draw(st.none() | _tricky_text)
    fixed = FIXED_ROUNDS.get(technique)
    if fixed is None:
        n = draw(st.integers(0 if error is not None else 1, 4))
    else:
        n = fixed if error is None else draw(st.integers(0, fixed - 1))
    system = _tricky_nonempty | st.just(
        default_templates().system(technique, builtin_taxonomy())
    )
    message = st.builds(ChatMessage, st.just(Role.USER), _tricky_nonempty) | st.builds(
        ChatMessage, st.just(Role.SYSTEM), system
    ) | st.builds(ChatMessage, st.just(Role.ASSISTANT), _tricky_text)
    turns = tuple(
        TraceTurn(
            tuple(draw(st.lists(message, max_size=3))),
            Completion(
                draw(_tricky_text),
                Telemetry(
                    draw(_tricky_number),
                    draw(_tricky_number),
                    draw(st.none() | _tricky_number),
                    draw(st.none() | _tricky_number),
                    draw(st.none() | _tricky_number),
                ),
            ),
            draw(st.sampled_from(list(CategoryCode))),
        )
        for _ in range(n)
    )
    try:
        trace = ClassificationTrace(
            draw(_tricky_text), draw(_tricky_text),
            draw(st.sampled_from(list(ModelGroup))), technique, turns,
            draw(_tricky_text), error,
        )
    except ValueError:  # two PHP or PRP answers agreed before the last turn
        assume(False)
    return RunRecord(trace, draw(st.sampled_from(CODES)))


@settings(max_examples=300, deadline=None)
@given(record=_drawn_records())
def test_to_json_is_canonical_json_of_the_reference_dict(record):
    assert record.to_json() == canonical_dumps(record_dict(record))


def test_a_telemetry_value_json_cannot_write_fails_before_any_write(tmp_path):
    plan = plan_for(tmp_path, techniques=(TechniqueId.ZSL,))
    reply = Completion("FINAL: CAT1", Telemetry(1.0, 11, prompt_tokens="5"))
    with pytest.raises(TypeError, match="str is not JSON serializable"):
        execute(plan, DrawnBackend([reply]))
    assert plan.output_path.read_bytes() == b""


class TestLoadRunRecords:
    def test_duplicate_key_later_line_wins(self, tmp_path):
        early = make_record(truth=CategoryCode.CAT1, final=CategoryCode.CAT2,
                            incident_id="dup", model="m", technique=TechniqueId.ZSL)
        late = make_record(truth=CategoryCode.CAT1, final=CategoryCode.CAT1,
                           incident_id="dup", model="m", technique=TechniqueId.ZSL)
        path = tmp_path / "run.jsonl"
        path.write_text(
            canonical_dumps(early.to_dict()) + "\n"
            + canonical_dumps(late.to_dict()) + "\n",
            encoding="utf-8",
        )
        assert load_run_records(path) == [late.row()]

    def test_row_holds_what_the_metrics_read(self):
        record = make_record(
            truth=CategoryCode.CAT3, final=CategoryCode.CAT3, incident_id="i9",
            model="m", group=ModelGroup.G2, technique=TechniqueId.PHP,
            rounds_used=3, latency_ms=12.5, response_chars=40,
        )
        t = record.trace
        failed = RunRecord(replace(t, error="down"), CategoryCode.CAT3)
        for r in (record, failed):
            row = r.row()
            assert row == (
                "m", "PHP", "i9", "G2", CategoryCode.CAT3, r.trace.final,
                r.trace.error, 12.5, 40, 3,
            )
            assert (row.key, row.correct) == (r.key, r.correct)
        assert failed.row().correct is False

    def test_missing_file_raises_run_error(self, tmp_path):
        with pytest.raises(RunError, match="cannot read run file"):
            load_run_records(tmp_path / "nope.jsonl")

    def test_mixed_template_sets_refused_naming_the_first_line_that_differs(
        self, tmp_path
    ):
        ours = [make_record(incident_id="i1"), make_record(incident_id="i2")]
        theirs = make_record(incident_id="i3")
        theirs = replace(
            theirs, trace=replace(theirs.trace, template_hash=TWEAKED.template_hash)
        )
        path = write_run_file(tmp_path / "run.jsonl", [*ours, theirs])
        refusal = (
            f"run\\.jsonl:3: template_hash {TWEAKED.template_hash} differs from"
            f" line 1's {ours[0].trace.template_hash}"
        )
        with pytest.raises(RunError, match=refusal):
            load_run_records(path)


_KEYS = [
    (model, technique, incident)
    for model in ("m-a", "m-b")
    for technique in (TechniqueId.ZSL, TechniqueId.PHP)
    for incident in ("i1", "i2")
]
# Lines without a task key: both readers skip them.
_UNKEYED = [
    "not json", "{", "[1, 2]", "null", '"text"', "7", '{"trace": 5}',
    '{"trace": {"model": "m-a", "technique": "ZSL"}}',
    '{"trace": {"model": ["m-a"], "technique": "ZSL", "incident_id": "i1"}}',
    '{"trace": ' + "[" * 100_000 + "]" * 100_000 + "}",  # too deep to decode
]


def _break_final(d):
    d["trace"]["final"] = "CAT99"


def _break_group(d):
    d["trace"]["model_group"] = "G9"


def _break_truth(d):
    del d["ground_truth"]


def _break_totals(d):
    d["trace"]["telemetry_totals"] = []


def _break_turns(d):
    d["trace"]["turns"] = [{"sent": [{"role": "bogus", "content": "x"}]}]


def _break_rounds(d):
    d["trace"]["rounds_used"] += 1


def _break_version(d):
    d["schema_version"] = 2


def _break_trace_version(d):
    del d["trace"]["schema_version"]


def _first_turn(d):
    return d["trace"]["turns"][0]


def _break_text(d):
    _first_turn(d)["completion"]["text"] = 5


def _break_content(d):
    _first_turn(d)["sent"] = [{"role": "user", "content": 5}]


def _break_content_list(d):
    _first_turn(d)["sent"] = [{"role": "user", "content": ["x"]}]


def _break_assistant_null(d):
    _first_turn(d)["sent"] = [{"role": "assistant", "content": None}]


def _break_latency(d):
    _first_turn(d)["completion"]["telemetry"]["latency_ms"] = False


def _break_chars(d):
    telemetry = _first_turn(d)["completion"]["telemetry"]
    telemetry["response_chars"] = float(telemetry["response_chars"])


def _break_tokens(d):
    _first_turn(d)["completion"]["telemetry"]["prompt_tokens"] = "many"


# Edits that keep the task key but stop the line decoding as a record.
_BREAKS = [
    _break_final, _break_group, _break_truth, _break_totals, _break_turns,
    _break_rounds, _break_version, _break_trace_version, _break_text,
    _break_content, _break_content_list, _break_assistant_null, _break_latency,
    _break_chars, _break_tokens,
]

_line = st.one_of(
    st.tuples(st.just("record"), st.sampled_from(_KEYS), st.sampled_from(CODES)),
    st.tuples(st.just("blank"), st.sampled_from(["", "  ", "\t"])),
    st.tuples(st.just("unkeyed"), st.sampled_from(_UNKEYED)),
    st.tuples(st.just("invalid"), st.sampled_from(_KEYS), st.sampled_from(_BREAKS)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_line, max_size=12), st.none() | st.floats(0.0, 0.99))
def test_load_run_records_refuses_or_agrees_with_resume_scan(lines, torn_at):
    """Every task that resume skips is counted by the report, or the report
    refuses the file and names the first line it cannot count."""
    texts, last_valid, first_invalid = [], {}, None
    for lineno, (kind, *args) in enumerate(lines, start=1):
        if kind == "record":
            (model, technique, incident), final = args
            record = make_record(
                final=final, latency_ms=float(lineno),
                model=model, technique=technique, incident_id=incident,
            )
            last_valid[record.key] = record
            texts.append(canonical_dumps(record.to_dict()))
        elif kind == "invalid":
            (model, technique, incident), brk = args
            d = make_record(
                model=model, technique=technique, incident_id=incident
            ).to_dict()
            brk(d)
            first_invalid = first_invalid or lineno
            texts.append(canonical_dumps(d))
        else:
            texts.append(args[0])
    text = "".join(t + "\n" for t in texts)
    if torn_at is not None:
        whole = canonical_dumps(make_record(incident_id="torn").to_dict())
        text += whole[: int(len(whole) * torn_at)]

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.jsonl"
        path.write_text(text, encoding="utf-8")
        if first_invalid is not None:
            refusal = f"run\\.jsonl:{first_invalid}: invalid record"
            with pytest.raises(RunError, match=refusal):
                load_run_records(path)
            return
        rows = load_run_records(path)
        records = stored_lines(path)
        keys = resume_scan(path)
    assert keys == {r.key for r in rows} == set(records) == set(last_valid)
    for r in rows:
        assert r == last_valid[r.key].row()
        assert records[r.key] == last_valid[r.key].to_dict()


def _spoken_record(incident_id, technique, answers, error=None):
    """A record whose turns send messages and carry every telemetry key."""
    turns = tuple(
        TraceTurn(
            sent,
            Completion(f"FINAL: {answer.value}", Telemetry(1.5 + n, 11, 40, 3, 9.25)),
            answer,
        )
        for n, answer in enumerate(answers)
        for sent in (
            (ChatMessage(Role.SYSTEM, "sys"), ChatMessage(Role.USER, "u"))
            if n == 0 else (ChatMessage(Role.USER, "again"),),
        )
    )
    trace = ClassificationTrace(
        incident_id, "m-a", ModelGroup.G1, technique, turns,
        default_templates().template_hash, error,
    )
    return RunRecord(trace, CategoryCode.CAT2)


# Lines 1 and 4 share a key, so the later line wins; line 2 is a failed task.
_LINES = (
    _spoken_record("i1", TechniqueId.PHP, [CategoryCode.CAT2, CategoryCode.CAT2]),
    _spoken_record("i2", TechniqueId.PRP, [CategoryCode.CAT3], error="down"),
    make_record(model="m-a", technique=TechniqueId.HTP, incident_id="i3"),
    _spoken_record("i1", TechniqueId.PHP, [CategoryCode.CAT4, CategoryCode.CAT4]),
)


def _node_paths(node, prefix=()):
    """The path (dict keys and list indexes) of every value inside node."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, value in items:
        yield prefix + (key,)
        yield from _node_paths(value, prefix + (key,))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["CAT2", "CAT4", "UNPARSED", "G2", "PHP", "user", "system"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_load_run_records_refuses_the_mutated_line_or_gives_the_oracle_rows(data):
    """One value replaced, or one key or item deleted, anywhere in one line:
    load_run_records refuses, naming that line, or gives the rows that a
    plain reading of the file gives, the later line of a repeated key
    winning."""
    lines = [r.to_dict() for r in _LINES]
    index = data.draw(st.integers(0, len(lines) - 1), label="line")
    d = lines[index]
    *parents, last = data.draw(st.sampled_from(list(_node_paths(d))), label="path")
    for part in parents:
        d = d[part]
    if data.draw(st.booleans(), label="delete"):
        del d[last]
    else:
        d[last] = data.draw(_JSON, label="value")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.jsonl"
        path.write_text("".join(canonical_dumps(x) + "\n" for x in lines), "utf-8")
        try:
            rows = load_run_records(path)
        except RunError as exc:
            # A changed template_hash on line 1 is refused at line 2, naming it.
            lineno = index + 1
            assert str(exc).startswith(f"{path}:{lineno}: ") or (
                f" line {lineno}'s " in str(exc)
            )
            return
        assert rows == oracle_rows(path)


def test_load_run_records_builds_no_transcript_object(tmp_path, monkeypatch):
    plan = plan_for(tmp_path, models=("m-a", "m-b"), techniques=tuple(TechniqueId))
    # Too few replies for the 30 tasks, so the last ones fail.
    replies = ["FINAL: CAT1", "FINAL: CAT2", "FINAL: CAT2", "maybe CAT3"] * 12
    records: list[RunRecord] = []
    execute(plan, ScriptedBackend(replies),
            on_record=lambda record, *_: records.append(record))
    path = plan.output_path
    with path.open("a", encoding="utf-8") as fh:
        fh.write(path.read_text(encoding="utf-8").splitlines()[0] + "\n")
    want = [r.row() for r in records]
    assert len(want) == 30
    assert any(row.error is not None for row in want)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")

    for cls in (ChatMessage, TraceTurn, Completion, Telemetry, ClassificationTrace):
        monkeypatch.setattr(cls, "__init__", refuse)
    assert load_run_records(path) == want
    with pytest.raises(AssertionError, match="built a"):
        Telemetry(0.0, 0)


class TestParallel:
    def test_same_records_as_serial_any_order(self, tmp_path):
        serial_plan = plan_for(tmp_path, models=("m-a", "m-b"),
                               techniques=(TechniqueId.ZSL, TechniqueId.SHP))
        execute(serial_plan, ConstantBackend())
        serial_keys = {r.key for r in load_run_records(serial_plan.output_path)}

        par_dir = tmp_path / "par"
        par_dir.mkdir()
        par_plan = plan_for(par_dir, models=("m-a", "m-b"),
                            techniques=(TechniqueId.ZSL, TechniqueId.SHP),
                            parallelism=4)
        backend = ConstantBackend()
        summary = execute(par_plan, backend)
        assert summary.executed == 12
        par_records = load_run_records(par_plan.output_path)
        assert {r.key for r in par_records} == serial_keys
        assert backend.peak_in_flight <= 4

    def test_every_line_parses_under_concurrency(self, tmp_path):
        plan = plan_for(
            tmp_path,
            models=("m-a", "m-b", "m-c"),
            techniques=(TechniqueId.ZSL, TechniqueId.HTP),
            parallelism=8,
        )
        execute(plan, ConstantBackend())
        lines = plan.output_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 18
        records = load_run_records(plan.output_path)
        assert len(records) == 18

    @pytest.mark.parametrize("parallelism", [1, 2, 4])
    def test_one_slot_server_loads_each_model_once(self, tmp_path, parallelism):
        class OneSlotBackend(ConstantBackend):
            """Serves one call at a time and counts model loads, the first
            included, as a server that holds one model would make them."""

            def __init__(self):
                super().__init__()
                self.slot = threading.Lock()
                self.loaded = None
                self.swaps = 0

            def complete(self, model, messages, params):
                with self.slot:
                    self.swaps += model.name != self.loaded
                    self.loaded = model.name
                    time.sleep(0.0005)
                    return super().complete(model, messages, params)

        corpus = Corpus(
            records=tuple(
                IncidentRecord(
                    id=f"i{n}", text=f"report {n}",
                    ground_truth=CategoryCode.from_number(n % 12 + 1),
                )
                for n in range(12)
            )
        )
        models = ("m-a", "m-b", "m-c")
        techniques = tuple(TechniqueId)
        serial = plan_for(tmp_path, models=models, techniques=techniques,
                          corpus=corpus)
        execute(serial, ConstantBackend())

        par_dir = tmp_path / "par"
        par_dir.mkdir()
        plan = plan_for(par_dir, models=models, techniques=techniques,
                        corpus=corpus, parallelism=parallelism)
        backend = OneSlotBackend()
        execute(plan, backend)
        # At each model boundary the other workers may still run a task of
        # the old model, and each of its up to 3 rounds can load the old
        # model and then the new one again. A serial run loads each once.
        if parallelism == 1:
            assert backend.swaps == len(models)
        else:
            assert backend.swaps <= 1 + 6 * (len(models) - 1) * (parallelism - 1)

        assert stored_lines(plan.output_path) == stored_lines(serial.output_path)

    @pytest.mark.parametrize("parallelism", [2, 4])
    def test_failed_write_cancels_queued_tasks(self, tmp_path, parallelism):
        class SlowBackend(ConstantBackend):
            def complete(self, model, messages, params):
                time.sleep(0.02)
                return super().complete(model, messages, params)

        class WriteFailed(Exception):
            pass

        def fail_at_third(record, completed, total):
            if completed == 3:
                raise WriteFailed

        corpus = Corpus(
            records=tuple(
                IncidentRecord(
                    id=f"i{n}", text=f"report {n}",
                    ground_truth=CategoryCode.from_number(n % 12 + 1),
                )
                for n in range(100)
            )
        )
        plan = plan_for(tmp_path, corpus=corpus, parallelism=parallelism)
        backend = SlowBackend()
        with pytest.raises(WriteFailed):
            execute(plan, backend, on_record=fail_at_third)
        lines = plan.output_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert backend.calls <= 3 + 2 * parallelism

    @pytest.mark.parametrize("parallelism", [2, 4])
    def test_interrupt_keeps_every_finished_task(self, tmp_path, parallelism):
        class SlowBackend(ConstantBackend):
            def complete(self, model, messages, params):
                time.sleep(0.02)
                return super().complete(model, messages, params)

        def interrupt_at_third(record, completed, total):
            if completed == 3:
                raise KeyboardInterrupt

        corpus = Corpus(
            records=tuple(
                IncidentRecord(
                    id=f"i{n}", text=f"report {n}",
                    ground_truth=CategoryCode.from_number(n % 12 + 1),
                )
                for n in range(100)
            )
        )
        plan = plan_for(tmp_path, corpus=corpus, parallelism=parallelism)
        backend = SlowBackend()
        with pytest.raises(KeyboardInterrupt):
            execute(plan, backend, on_record=interrupt_at_third)
        kept = len(plan.output_path.read_bytes().splitlines())
        assert kept == backend.calls >= 3

        rest = ConstantBackend()
        summary = execute(plan, rest, resume=True)
        assert rest.calls == summary.executed == 100 - kept
        assert len(load_run_records(plan.output_path)) == 100


class TestScriptedIntegration:
    def test_scripted_backend_drives_full_plan(self, tmp_path):
        plan = plan_for(tmp_path, techniques=(TechniqueId.SHP,))
        script = ["indicators", "FINAL: CAT1"] * 3
        summary = execute(plan, ScriptedBackend(script))
        assert summary.executed == 3
        assert {r.rounds_used for r in load_run_records(plan.output_path)} == {2}
