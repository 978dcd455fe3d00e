import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triagebench.backend import (
    BackendUnavailableError,
    ChatMessage,
    Completion,
    GenerationParams,
    Role,
    ScriptedBackend,
    Telemetry,
    estimate_tokens,
    resolve_model,
)
from triagebench.corpus import IncidentRecord
from triagebench.taxonomy import (
    ANSWER_CONTRACT,
    CategoryCode,
    Taxonomy,
    builtin_taxonomy,
)
from triagebench.techniques import (
    FIXED_ROUNDS,
    ClassificationTrace,
    TechniqueConfig,
    TechniqueId,
    TemplateError,
    TemplateSet,
    check_trace,
    classify,
    default_templates,
    load_templates,
)
from triagebench.util import canonical_dumps

from helpers import RecordingBackend, renamed
from oracles import oracle_classify

MODEL = resolve_model("demo")
INCIDENT = IncidentRecord(
    id="t-001",
    text="A ransom note appeared after files were encrypted overnight.",
    ground_truth=CategoryCode.CAT2,
)


def checked(trace):
    """What check_trace gives back for the stored form of trace."""
    return (
        trace.model, trace.technique, trace.incident_id, trace.model_group,
        trace.final, trace.total_latency_ms, trace.total_response_chars,
        trace.rounds_used,
    )


def run(technique, script, max_rounds=3, budget=8192):
    backend = RecordingBackend(ScriptedBackend(script))
    trace = classify(
        INCIDENT,
        technique,
        MODEL,
        backend,
        builtin_taxonomy(),
        GenerationParams(input_token_budget=budget),
        TechniqueConfig(max_rounds=max_rounds),
    )
    return trace, backend


def outgoing_texts(backend):
    return ["\n".join(m.content for m in sent) for _, sent, _ in backend.calls]


class TestTechniqueId:
    def test_parse_tolerates_case_and_space(self):
        assert TechniqueId.parse(" zsl ") is TechniqueId.ZSL

    def test_parse_error_lists_valid(self):
        with pytest.raises(ValueError, match="ZSL, PHP, SHP, HTP, PRP"):
            TechniqueId.parse("COT")


class TestTemplates:
    def test_default_set_loads_and_hashes(self):
        templates = default_templates()
        assert len(templates.template_hash) == 64
        assert templates.template_hash == default_templates().template_hash

    def test_directory_copy_loads_as_default_set(self, tmp_path):
        # default_templates walks the package resource with the same code.
        for name, text in default_templates().files().items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text, encoding="utf-8")
        (tmp_path / "zsl" / "notes.md").write_text("ignored", encoding="utf-8")
        for directory in (tmp_path, str(tmp_path)):
            loaded = load_templates(directory)
            assert loaded.files() == default_templates().files()
            assert loaded.template_hash == default_templates().template_hash

    def test_missing_technique_directory(self, tmp_path):
        with pytest.raises(TemplateError, match="missing template directory"):
            load_templates(tmp_path)

    def test_system_renders_taxonomy_and_contract_once(self, taxonomy):
        templates = default_templates()
        block = taxonomy.prompt_block
        for tech in TechniqueId:
            text = templates.system(tech, taxonomy)
            assert text.count(block) == 1, tech
            assert text.count(ANSWER_CONTRACT) == 1, tech

    def test_round_templates_take_incident(self):
        templates = default_templates()
        for tech in TechniqueId:
            text = templates.round(tech, 1, incident="INCIDENT-BODY")
            assert "INCIDENT-BODY" in text, tech

    def test_rounds_past_highest_reuse_last(self):
        templates = default_templates()
        fifth = templates.round(
            TechniqueId.PHP, 5, incident="x", previous_answers="CAT1"
        )
        second = templates.round(
            TechniqueId.PHP, 2, incident="x", previous_answers="CAT1"
        )
        assert fifth == second

    def test_missing_system_rejected(self):
        files = dict(default_templates().files())
        del files["zsl/system.txt"]
        with pytest.raises(TemplateError, match="zsl/system.txt"):
            TemplateSet(files)

    def test_missing_rounds_rejected(self):
        files = dict(default_templates().files())
        del files["zsl/round1.txt"]
        with pytest.raises(TemplateError, match="ZSL"):
            TemplateSet(files)

    @pytest.mark.parametrize(
        "name, text, error",
        [
            ("htp/round2.txt", 'Answer as {"category": "CATk"}.', "KeyError"),
            ("php/round3.txt", "Stray } brace {incident}", "ValueError"),
            ("prp/system.txt", "{taxonomy}\n{contract}\n{incident}", "KeyError"),
            ("zsl/round1.txt", "{incident.body}", "AttributeError"),
            # Round 1 gets no hints, so this round sends an empty message.
            ("zsl/round1.txt", "{hints}\n", "renders an empty message"),
            ("zsl/system.txt", "", "renders an empty message"),
        ],
    )
    def test_bad_field_or_brace_rejected_at_load(self, name, text, error):
        files = dict(default_templates().files())
        files[name] = text
        with pytest.raises(TemplateError, match=f"bad template {name}: {error}"):
            TemplateSet(files)

    def test_hash_changes_with_content(self):
        files = dict(default_templates().files())
        files["zsl/round1.txt"] += " tweaked"
        assert TemplateSet(files).template_hash != default_templates().template_hash

    def test_system_equals_uncached_render(self, taxonomy):
        templates = default_templates()
        files = templates.files()
        override = renamed([f"Renamed {c.name}" for c in taxonomy.categories])
        for tech in TechniqueId:
            rendered = {}
            for tx in (taxonomy, override):
                want = files[f"{tech.value.lower()}/system.txt"].format(
                    taxonomy=tx.prompt_block, contract=ANSWER_CONTRACT
                ).rstrip("\n")
                assert templates.system(tech, tx) == want, tech
                assert templates.system(tech, tx) is templates.system(tech, tx)
                rendered[tx] = want
            assert rendered[taxonomy] != rendered[override], tech

    def test_system_cache_keyed_by_taxonomy_value(self, taxonomy):
        # Short-lived taxonomies may reuse one another's id(); each must
        # still get a prompt with its own names.
        templates = TemplateSet(default_templates().files())
        for k in range(20):
            tx = renamed([f"Variant{k} {c.name}" for c in taxonomy.categories])
            text = templates.system(TechniqueId.ZSL, tx)
            assert f"Variant{k} Malware" in text
        equal = renamed([f"Variant3 {c.name}" for c in taxonomy.categories])
        assert "Variant3 Malware" in templates.system(TechniqueId.ZSL, equal)
        # Priorities are not in the prompt, so they do not split the cache.
        reprioritized = Taxonomy(
            tuple(
                dataclasses.replace(c, priority=c.priority % 5 + 1)
                for c in taxonomy.categories
            )
        )
        assert reprioritized != taxonomy
        assert templates.system(TechniqueId.ZSL, reprioritized) is templates.system(
            TechniqueId.ZSL, taxonomy
        )

    @pytest.mark.parametrize("numbers", [(1, 2), (1, 3), (2, 5), (1, 2, 3)])
    def test_round_picks_highest_file_not_above_round(self, numbers):
        files = dict(default_templates().files())
        for name in [n for n in files if n.startswith("php/round")]:
            del files[name]
        for n in numbers:
            files[f"php/round{n}.txt"] = f"wording {n} {{incident}}"
        templates = TemplateSet(files)
        for round_no in range(0, max(numbers) + 4):
            eligible = [n for n in numbers if n <= round_no]
            chosen = eligible[-1] if eligible else numbers[0]
            assert templates.round(
                TechniqueId.PHP, round_no, incident="x"
            ) == f"wording {chosen} x", round_no

    @pytest.mark.parametrize("tech", list(TechniqueId))
    def test_missing_all_round_files_rejected(self, tech):
        files = {
            name: text
            for name, text in default_templates().files().items()
            if not name.startswith(f"{tech.value.lower()}/round")
        }
        with pytest.raises(TemplateError, match=f"no round templates for {tech.value}"):
            TemplateSet(files)

    def test_round_file_needs_canonical_number(self):
        files = dict(default_templates().files())
        files["zsl/round01.txt"] = files.pop("zsl/round1.txt")
        with pytest.raises(TemplateError, match="ZSL"):
            TemplateSet(files)

    def test_later_edits_to_file_map_ignored(self):
        files = dict(default_templates().files())
        templates = TemplateSet(files)
        before = templates.round(TechniqueId.ZSL, 1, incident="x")
        files["zsl/round1.txt"] = "changed {incident}"
        assert templates.round(TechniqueId.ZSL, 1, incident="x") == before
        assert templates.files()["zsl/round1.txt"] != "changed {incident}"


class TestZsl:
    def test_single_round(self):
        trace, backend = run(TechniqueId.ZSL, ["Clearly malware.\nFINAL: CAT2"])
        assert trace.rounds_used == FIXED_ROUNDS[TechniqueId.ZSL] == 1
        assert trace.final is CategoryCode.CAT2
        assert trace.converged is True
        assert len(backend.calls) == 1

    def test_unparsed_reply(self):
        trace, _ = run(TechniqueId.ZSL, ["I refuse to answer."])
        assert trace.final is CategoryCode.UNPARSED

    def test_incident_text_sent(self):
        trace, backend = run(TechniqueId.ZSL, ["FINAL: CAT2"])
        assert INCIDENT.text in outgoing_texts(backend)[0]
        assert backend.calls == [
            (MODEL.name, trace.turns[0].sent, GenerationParams(input_token_budget=8192))
        ]


class TestPhp:
    def test_converges_after_two_equal(self):
        trace, backend = run(
            TechniqueId.PHP, ["FINAL: CAT2", "FINAL: CAT2"], max_rounds=3
        )
        assert trace.rounds_used == 2
        assert trace.converged is True
        assert trace.final is CategoryCode.CAT2
        assert len(backend.calls) == 2

    def test_change_then_settle(self):
        trace, _ = run(
            TechniqueId.PHP,
            ["FINAL: CAT2", "FINAL: CAT5", "FINAL: CAT5"],
            max_rounds=4,
        )
        assert trace.rounds_used == 3
        assert trace.converged is True
        assert trace.final is CategoryCode.CAT5

    def test_cap_without_convergence(self):
        trace, _ = run(
            TechniqueId.PHP,
            ["FINAL: CAT1", "FINAL: CAT2", "FINAL: CAT3"],
            max_rounds=3,
        )
        assert trace.rounds_used == 3
        assert trace.converged is False
        assert trace.final is CategoryCode.CAT3

    def test_unparsed_pair_does_not_converge(self):
        trace, _ = run(
            TechniqueId.PHP, ["mumble", "mumble", "FINAL: CAT4"], max_rounds=3
        )
        assert trace.rounds_used == 3
        assert trace.final is CategoryCode.CAT4
        assert trace.converged is False

    def test_hint_lists_all_previous_answers(self):
        _, backend = run(
            TechniqueId.PHP,
            ["FINAL: CAT2", "FINAL: CAT5", "FINAL: CAT5"],
            max_rounds=4,
        )
        texts = outgoing_texts(backend)
        assert "CAT2" in texts[1]
        assert "CAT2, CAT5" in texts[2]

    def test_max_rounds_one_stops_after_first(self):
        trace, backend = run(TechniqueId.PHP, ["FINAL: CAT7"], max_rounds=1)
        assert trace.rounds_used == 1
        assert trace.final is CategoryCode.CAT7
        assert trace.converged is False
        assert len(backend.calls) == 1


class TestShp:
    SCRIPT = [
        "Indicators:\n- encrypted files\n- ransom note",
        "Given those indicators.\nFINAL: CAT2",
    ]

    def test_exactly_two_rounds(self):
        trace, backend = run(TechniqueId.SHP, self.SCRIPT)
        assert trace.rounds_used == FIXED_ROUNDS[TechniqueId.SHP] == 2
        assert trace.final is CategoryCode.CAT2
        assert trace.converged is True
        assert len(backend.calls) == 2

    def test_own_hints_fed_back(self):
        _, backend = run(TechniqueId.SHP, self.SCRIPT)
        assert "- encrypted files" in outgoing_texts(backend)[1]

    def test_final_comes_from_second_round(self):
        trace, _ = run(
            TechniqueId.SHP, ["mentions CAT9 stuff", "FINAL: CAT2"]
        )
        assert trace.final is CategoryCode.CAT2


class TestHtp:
    SCRIPT = [
        "Hypothesis A and hypothesis B drafted.",
        "Tested both against the report.",
        "Survivor stands.\nFINAL: CAT2",
    ]

    def test_exactly_three_rounds(self):
        trace, backend = run(TechniqueId.HTP, self.SCRIPT)
        assert trace.rounds_used == FIXED_ROUNDS[TechniqueId.HTP] == 3
        assert trace.final is CategoryCode.CAT2
        assert len(backend.calls) == 3

    def test_final_from_last_round_only(self):
        trace, _ = run(
            TechniqueId.HTP,
            ["maybe CAT5", "still CAT5", "changed mind.\nFINAL: CAT8"],
        )
        assert trace.final is CategoryCode.CAT8

    def test_unparsed_final(self):
        trace, _ = run(
            TechniqueId.HTP, ["h", "t", "cannot decide between the two"]
        )
        assert trace.final is CategoryCode.UNPARSED


class TestPrp:
    def test_confirm_stops_iteration(self):
        trace, backend = run(
            TechniqueId.PRP, ["FINAL: CAT3", "FINAL: CAT3"], max_rounds=3
        )
        assert trace.rounds_used == 2
        assert trace.converged is True
        assert len(backend.calls) == 2

    def test_rectify_then_confirm(self):
        trace, _ = run(
            TechniqueId.PRP,
            ["FINAL: CAT3", "FINAL: CAT9", "FINAL: CAT9"],
            max_rounds=3,
        )
        assert trace.final is CategoryCode.CAT9
        assert trace.converged is True

    def test_cap_behavior(self):
        trace, _ = run(
            TechniqueId.PRP,
            ["FINAL: CAT3", "FINAL: CAT9", "FINAL: CAT12"],
            max_rounds=3,
        )
        assert trace.rounds_used == 3
        assert trace.converged is False
        assert trace.final is CategoryCode.CAT12

    def test_verify_prompt_carries_last_answer_only(self):
        _, backend = run(
            TechniqueId.PRP,
            ["FINAL: CAT3", "FINAL: CAT9", "FINAL: CAT9"],
            max_rounds=3,
        )
        # Round 3 verifies CAT9; CAT3 lives only in the transcript history,
        # never in the fresh verify instruction.
        verify_msg = backend.calls[2][1][-1].content
        assert "CAT9" in verify_msg
        assert "CAT3" not in verify_msg


class TestPromptHygiene:
    @pytest.mark.parametrize(
        "technique,script",
        [
            (TechniqueId.ZSL, ["FINAL: CAT1"]),
            (TechniqueId.PHP, ["FINAL: CAT1", "FINAL: CAT2", "FINAL: CAT3"]),
            (TechniqueId.SHP, ["indicators here", "FINAL: CAT1"]),
            (TechniqueId.HTP, ["a", "b", "FINAL: CAT1"]),
            (TechniqueId.PRP, ["FINAL: CAT1", "FINAL: CAT2", "FINAL: CAT3"]),
        ],
    )
    def test_taxonomy_and_contract_once_per_round(self, technique, script, taxonomy):
        _, backend = run(technique, script)
        block = taxonomy.prompt_block
        for text in outgoing_texts(backend):
            assert text.count(block) == 1
            assert text.count(ANSWER_CONTRACT) == 1

    def test_hygiene_survives_truncation(self, taxonomy):
        system_tokens = estimate_tokens(
            [
                ChatMessage(
                    Role.SYSTEM, default_templates().system(TechniqueId.PHP, taxonomy)
                )
            ]
        )
        budget = system_tokens + 60  # forces history drops on later rounds
        _, backend = run(
            TechniqueId.PHP,
            ["FINAL: CAT1", "FINAL: CAT2", "FINAL: CAT3"],
            budget=budget,
        )
        block = taxonomy.prompt_block
        for _, sent, _ in backend.calls:
            assert sent[0].role is Role.SYSTEM
            text = "\n".join(m.content for m in sent)
            assert text.count(block) == 1
            assert text.count(ANSWER_CONTRACT) == 1


class TestTraces:
    def test_first_turn_sends_full_transcript_then_deltas(self):
        trace, _ = run(TechniqueId.HTP, ["a", "b", "FINAL: CAT2"])
        assert [m.role for m in trace.turns[0].sent] == [Role.SYSTEM, Role.USER]
        assert [m.role for m in trace.turns[1].sent] == [Role.USER]
        assert [m.role for m in trace.turns[2].sent] == [Role.USER]

    def test_totals_sum_response_chars(self):
        script = ["aaaa", "bbbbbb", "FINAL: CAT2"]
        trace, _ = run(TechniqueId.HTP, script)
        assert trace.total_response_chars == sum(len(s) for s in script)
        assert trace.total_latency_ms == 0.0

    def test_summary_is_worked_out_not_passed(self):
        trace, _ = run(TechniqueId.PRP, ["FINAL: CAT2", "FINAL: CAT2"])
        fields = {f.name: f.init for f in dataclasses.fields(trace)}
        for name in ("final", "rounds_used", "converged", "total_latency_ms",
                     "total_response_chars"):
            assert fields[name] is False
        kwargs = {k: getattr(trace, k) for k, init in fields.items() if init}
        with pytest.raises(TypeError):
            ClassificationTrace(**kwargs, rounds_used=2)
        assert ClassificationTrace(**kwargs) == trace

    def test_latency_total_read_back_from_any_summation_order(self):
        trace, _ = run(TechniqueId.HTP, ["a", "b", "FINAL: CAT2"])
        turns = tuple(
            dataclasses.replace(
                t, completion=Completion(t.completion.text, Telemetry(ms, 1))
            )
            for t, ms in zip(trace.turns, (0.1, 0.2, 0.3))
        )
        trace = dataclasses.replace(trace, turns=turns)
        assert trace.total_latency_ms == sum([0.1, 0.2, 0.3])
        # A plain running total gives the first, sum() from Python 3.12 on
        # (compensated) the second; a file holding either one loads.
        for total in (0.1 + 0.2 + 0.3, 0.6):
            d = trace.to_dict()
            d["telemetry_totals"]["total_latency_ms"] = total
            assert check_trace(d) == checked(trace)
        d["telemetry_totals"]["total_latency_ms"] = 0.7
        with pytest.raises(ValueError, match="total_latency_ms is 0.7, but"):
            check_trace(d)

    def test_system_prompt_stored_as_a_reference_to_the_header(self):
        trace, _ = run(TechniqueId.ZSL, ["FINAL: CAT2"])
        prompt = default_templates().system(TechniqueId.ZSL, builtin_taxonomy())
        d = trace.to_dict(prompt)
        assert d["turns"][0]["sent"][0] == {"role": "system"}
        assert check_trace(d) == checked(trace)
        # Another prompt is stored whole; a version-1 trace holds every one.
        assert trace.to_dict("other")["turns"][0]["sent"][0] == {
            "role": "system", "content": prompt,
        }
        with pytest.raises(KeyError, match="content"):
            check_trace(d, v1=True)

    def test_model_group_recorded(self):
        trace, _ = run(TechniqueId.ZSL, ["FINAL: CAT2"])
        assert trace.model_group.value == "G2"

    def test_model_group_required_on_load(self):
        d = run(TechniqueId.ZSL, ["FINAL: CAT2"])[0].to_dict()
        with pytest.raises(ValueError):
            check_trace({**d, "model_group": None})
        del d["model_group"]
        with pytest.raises(KeyError):
            check_trace(d)

    def test_stored_turn_holds_every_telemetry_key(self):
        class ServerBackend:
            def complete(self, model, messages, params):
                return Completion(
                    text="FINAL: CAT1",
                    telemetry=Telemetry(
                        latency_ms=12.5, response_chars=11, prompt_tokens=40,
                        output_tokens=3, server_eval_duration_ms=9.25,
                    ),
                )

        trace = classify(
            INCIDENT, TechniqueId.PHP, MODEL, ServerBackend(), builtin_taxonomy(),
            GenerationParams(), TechniqueConfig(),
        )
        d = trace.to_dict()
        assert check_trace(d) == checked(trace)
        assert d["turns"][1] == {
            "sent": [{"role": "user", "content": trace.turns[1].sent[0].content}],
            "completion": {
                "text": "FINAL: CAT1",
                "telemetry": {
                    "latency_ms": 12.5,
                    "response_chars": 11,
                    "prompt_tokens": 40,
                    "output_tokens": 3,
                    "server_eval_duration_ms": 9.25,
                },
            },
            "parsed": "CAT1",
        }
        assert d["telemetry_totals"] == {
            "total_latency_ms": 25.0, "total_response_chars": 22,
        }

    def test_repeated_runs_byte_identical(self):
        script = ["FINAL: CAT2", "FINAL: CAT5", "FINAL: CAT5"]
        first, _ = run(TechniqueId.PHP, script, max_rounds=4)
        second, _ = run(TechniqueId.PHP, script, max_rounds=4)
        assert canonical_dumps(first.to_dict()) == canonical_dumps(second.to_dict())


class TestFailedClassification:
    @pytest.mark.parametrize("technique", list(TechniqueId))
    @pytest.mark.parametrize("fail_at", [1, 2, 3])
    def test_failure_returns_the_finished_turns_and_the_error(self, technique, fail_at):
        # Replies that never agree, so PHP and PRP always ask again.
        backend = _FailingBackend(["FINAL: CAT1", "FINAL: CAT2"], fail_at)
        trace = classify(
            INCIDENT, technique, MODEL, backend, builtin_taxonomy(),
            GenerationParams(), TechniqueConfig(),
        )
        asked = min(fail_at, FIXED_ROUNDS.get(technique, 3))
        assert len(backend.calls) == asked
        if asked < fail_at:
            assert trace.error is None
            return
        assert trace.error == f"down at call {fail_at}"
        assert [t.parsed.value for t in trace.turns] == ["CAT1", "CAT2"][: fail_at - 1]
        assert trace.rounds_used == fail_at - 1
        assert trace.final is CategoryCode.UNPARSED
        assert trace.converged is False

    def test_interrupt_propagates(self):
        class Interrupted:
            def complete(self, model, messages, params):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            classify(
                INCIDENT, TechniqueId.PHP, MODEL, Interrupted(), builtin_taxonomy(),
                GenerationParams(), TechniqueConfig(),
            )

    def test_error_is_read_back_beside_the_trace(self):
        class DownBackend:
            def complete(self, model, messages, params):
                raise BackendUnavailableError("down")

        trace = classify(
            INCIDENT, TechniqueId.ZSL, MODEL, DownBackend(), builtin_taxonomy(),
            GenerationParams(), TechniqueConfig(),
        )
        assert (trace.turns, trace.error, trace.final) == ((), "down", CategoryCode.UNPARSED)
        d = trace.to_dict()
        assert "error" not in d
        assert check_trace(d, "down") == checked(trace)
        with pytest.raises(ValueError, match="needs a turn"):
            check_trace(d)


class _FailingBackend:
    """Replies from a list and raises at call fail_at (1-based, or never);
    records every outgoing message list."""

    def __init__(self, replies, fail_at):
        self.replies = replies
        self.fail_at = fail_at
        self.calls = []

    def complete(self, model, messages, params):
        self.calls.append(tuple(messages))
        if len(self.calls) == self.fail_at:
            raise BackendUnavailableError(f"down at call {self.fail_at}")
        reply = self.replies[len(self.calls) - 1]
        return Completion(
            text=reply,
            telemetry=Telemetry(
                latency_ms=float(len(self.calls)), response_chars=len(reply)
            ),
        )


# Few codes, so consecutive answers often repeat.
_CODE = st.sampled_from(["CAT2", "CAT5", "CAT12"])
_REPLY = st.one_of(
    _CODE.map(lambda c: f"Reasoning.\nFINAL: {c}"),
    _CODE.map(lambda c: f"probably {c}"),
    st.sampled_from([c.name for c in builtin_taxonomy().categories]).map(
        lambda name: f"Looks like {name} to me."
    ),
    st.sampled_from(["", "I cannot tell.", "FINAL: CAT99"]),
)


@pytest.mark.parametrize("max_rounds", range(1, 6))
@pytest.mark.parametrize("technique", list(TechniqueId))
@settings(max_examples=40, deadline=None)
@given(
    replies=st.lists(_REPLY, min_size=5, max_size=5),
    fail_at=st.none() | st.integers(1, 5),
    slack=st.sampled_from([None, 60, 25]),
)
def test_classify_matches_engine_oracle(technique, max_rounds, replies, fail_at, slack):
    system = ChatMessage(
        Role.SYSTEM, default_templates().system(technique, builtin_taxonomy())
    )
    # 60 tokens past the system prompt drops history on later rounds; 25
    # also cuts the newest user message.
    budget = 8192 if slack is None else estimate_tokens([system]) + slack
    outcomes = []
    for fn in (classify, oracle_classify):
        backend = _FailingBackend(replies, fail_at)
        trace = fn(
            INCIDENT,
            technique,
            MODEL,
            backend,
            builtin_taxonomy(),
            GenerationParams(input_token_budget=budget),
            TechniqueConfig(max_rounds=max_rounds),
        )
        # Its stored summary is the one its turns and error give on reading back.
        assert check_trace(trace.to_dict(), trace.error) == checked(trace)
        outcomes.append(((trace.error, trace.to_dict()), backend.calls))
    (got, got_calls), (want, want_calls) = outcomes
    assert got == want
    assert got_calls == want_calls
