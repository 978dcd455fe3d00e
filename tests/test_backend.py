import json
import threading

import pytest

from triagebench.backend import (
    DEFAULT_BASE_URL,
    RETRY_BACKOFF_S,
    TRUNCATION_MARKER,
    BackendUnavailableError,
    BudgetTooSmallError,
    ChatMessage,
    GenerationParams,
    ModelGroup,
    ModelSpec,
    OllamaBackend,
    ProtocolError,
    Role,
    ScriptExhaustedError,
    ScriptedBackend,
    UnknownModelError,
    builtin_model_registry,
    estimate_tokens,
    registry_group,
    resolve_model,
    truncate_to_budget,
)


def msg(role: Role, content: str) -> ChatMessage:
    return ChatMessage(role, content)


class TestChatMessage:
    def test_empty_system_or_user_rejected(self):
        for role in (Role.SYSTEM, Role.USER):
            with pytest.raises(ValueError):
                ChatMessage(role, "")

    def test_empty_assistant_allowed(self):
        # Models may legitimately return an empty completion.
        assert ChatMessage(Role.ASSISTANT, "").content == ""


class TestEstimateTokens:
    def test_chars_over_four_rounded_up(self):
        assert estimate_tokens([msg(Role.USER, "a" * 8)]) == 2
        assert estimate_tokens([msg(Role.USER, "a" * 9)]) == 3
        assert estimate_tokens([msg(Role.USER, "a")]) == 1

    def test_sums_messages(self):
        messages = [msg(Role.SYSTEM, "a" * 4), msg(Role.USER, "b" * 4)]
        assert estimate_tokens(messages) == 2


class TestTruncateToBudget:
    def test_fit_returns_equal_fresh_list(self):
        messages = [msg(Role.SYSTEM, "sys"), msg(Role.USER, "hello")]
        out = truncate_to_budget(messages, 100)
        assert out == messages
        assert out is not messages

    def test_drops_oldest_nonsystem_first(self):
        messages = [
            msg(Role.SYSTEM, "s" * 40),
            msg(Role.USER, "oldest " + "x" * 100),
            msg(Role.ASSISTANT, "reply " + "y" * 100),
            msg(Role.USER, "newest question"),
        ]
        out = truncate_to_budget(messages, 30)
        assert out[0].role is Role.SYSTEM
        assert out[-1].content == "newest question"
        assert all("oldest" not in m.content for m in out)

    def test_never_drops_system_or_last(self):
        messages = [
            msg(Role.SYSTEM, "s" * 40),
            msg(Role.USER, "a" * 200),
            msg(Role.USER, "the question"),
        ]
        out = truncate_to_budget(messages, 20)
        assert [m.role for m in out] == [Role.SYSTEM, Role.USER]
        assert out[-1].content.startswith("the question"[:1])

    def test_tail_truncates_last_with_marker(self):
        messages = [msg(Role.SYSTEM, "s" * 8), msg(Role.USER, "u" * 400)]
        out = truncate_to_budget(messages, 20)
        assert out[-1].content.endswith(TRUNCATION_MARKER)
        assert len(out[-1].content) < 400
        assert estimate_tokens(out) <= 20

    def test_budget_too_small_raises(self):
        messages = [msg(Role.SYSTEM, "s" * 400), msg(Role.USER, "question")]
        with pytest.raises(BudgetTooSmallError):
            truncate_to_budget(messages, 10)

    def test_oversized_system_only_raises(self):
        with pytest.raises(BudgetTooSmallError):
            truncate_to_budget([msg(Role.SYSTEM, "s" * 400)], 10)

    def test_input_not_mutated(self):
        messages = [msg(Role.SYSTEM, "s"), msg(Role.USER, "u" * 400)]
        snapshot = list(messages)
        truncate_to_budget(messages, 20)
        assert messages == snapshot


def ok_body(
    content: str = "FINAL: CAT1",
    prompt_eval_count: int = 42,
    eval_count: int = 7,
    total_duration: int = 1_500_000_000,
) -> str:
    return json.dumps(
        {
            "message": {"role": "assistant", "content": content},
            "prompt_eval_count": prompt_eval_count,
            "eval_count": eval_count,
            "total_duration": total_duration,
        }
    )


MODEL = resolve_model("demo")
PARAMS = GenerationParams(seed=11)
MESSAGES = [msg(Role.SYSTEM, "be terse"), msg(Role.USER, "classify this")]


class TestOllamaBackend:
    def test_request_shape_and_reply_mapping(self, stub_server):
        url, handler = stub_server
        handler.responses.append((200, ok_body()))
        backend = OllamaBackend(url)

        completion = backend.complete(MODEL, MESSAGES, PARAMS)

        sent = handler.requests_seen[0]
        assert sent["model"] == "demo"
        assert sent["stream"] is False
        assert sent["messages"] == [
            {"role": "system", "content": "be terse"},
            {"role": "user", "content": "classify this"},
        ]
        assert sent["options"] == {
            "temperature": 0.0,
            "num_predict": 1024,
            "seed": 11,
        }
        assert completion.text == "FINAL: CAT1"
        assert completion.telemetry.prompt_tokens == 42
        assert completion.telemetry.output_tokens == 7
        assert completion.telemetry.server_eval_duration_ms == 1500.0
        assert completion.telemetry.response_chars == len("FINAL: CAT1")
        assert completion.telemetry.latency_ms >= 0.0

    def test_seed_omitted_when_unset(self, stub_server):
        url, handler = stub_server
        handler.responses.append((200, ok_body()))
        OllamaBackend(url).complete(MODEL, MESSAGES, GenerationParams())
        assert "seed" not in handler.requests_seen[0]["options"]

    def test_404_is_unknown_model(self, stub_server):
        url, handler = stub_server
        handler.responses.append((404, "model not found"))
        with pytest.raises(UnknownModelError, match="demo"):
            OllamaBackend(url).complete(MODEL, MESSAGES, PARAMS)

    def test_malformed_json_is_protocol_error_with_excerpt(self, stub_server):
        url, handler = stub_server
        handler.responses.append((200, "<html>not json</html>"))
        with pytest.raises(ProtocolError, match="not json"):
            OllamaBackend(url).complete(MODEL, MESSAGES, PARAMS)

    def test_missing_content_is_protocol_error(self, stub_server):
        url, handler = stub_server
        handler.responses.append((200, json.dumps({"message": {}})))
        with pytest.raises(ProtocolError):
            OllamaBackend(url).complete(MODEL, MESSAGES, PARAMS)

    def test_5xx_retried_then_succeeds(self, stub_server):
        url, handler = stub_server
        handler.responses.extend([(500, "busy"), (200, ok_body("recovered"))])
        sleeps: list[float] = []
        backend = OllamaBackend(url, sleep=sleeps.append)
        completion = backend.complete(MODEL, MESSAGES, PARAMS)
        assert completion.text == "recovered"
        assert sleeps == [1.0]

    def test_unreachable_after_backoff_schedule(self):
        sleeps: list[float] = []
        backend = OllamaBackend("http://127.0.0.1:9", sleep=sleeps.append)
        with pytest.raises(BackendUnavailableError, match="3 attempts"):
            backend.complete(MODEL, MESSAGES, PARAMS)
        assert sleeps == list(RETRY_BACKOFF_S)

    def test_is_reachable(self, stub_server):
        url, _ = stub_server
        assert OllamaBackend(url).is_reachable()
        assert not OllamaBackend("http://127.0.0.1:9").is_reachable(timeout=0.2)

    def test_default_base_url(self):
        assert OllamaBackend().base_url == DEFAULT_BASE_URL

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            OllamaBackend(retries=-1)
        assert OllamaBackend(retries=0).retries == 0


class TestScriptedBackend:
    def test_replays_in_order_with_zero_latency(self):
        backend = ScriptedBackend(["one", "two"])
        first = backend.complete(MODEL, MESSAGES, PARAMS)
        second = backend.complete(MODEL, MESSAGES, PARAMS)
        assert (first.text, second.text) == ("one", "two")
        assert first.telemetry.latency_ms == 0.0
        assert backend.remaining() == 0

    def test_exhaustion_raises(self):
        backend = ScriptedBackend(["only"])
        backend.complete(MODEL, MESSAGES, PARAMS)
        with pytest.raises(ScriptExhaustedError):
            backend.complete(MODEL, MESSAGES, PARAMS)

    def test_thread_safe_consumption(self):
        n = 64
        backend = ScriptedBackend([f"r{i}" for i in range(n)])
        seen: list[str] = []
        lock = threading.Lock()

        def worker():
            c = backend.complete(MODEL, MESSAGES, PARAMS)
            with lock:
                seen.append(c.text)

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(seen) == sorted(f"r{i}" for i in range(n))
        assert backend.remaining() == 0


class TestModelRegistry:
    def test_twenty_two_models_split_evenly(self):
        registry = builtin_model_registry()
        assert len(registry) == 22
        by_group = {g: [m for m in registry if m.group is g] for g in ModelGroup}
        assert len(by_group[ModelGroup.G1]) == 11
        assert len(by_group[ModelGroup.G2]) == 11

    def test_known_rows(self):
        registry = {m.name: m for m in builtin_model_registry()}
        assert registry["Qwen3 8B"].group is ModelGroup.G2
        assert registry["GPT-OSS 20B"].group is ModelGroup.G1

    def test_resolve_exact_name(self):
        spec = resolve_model("Llama 3.3 70B")
        assert spec.group is ModelGroup.G1
        assert spec.name == "Llama 3.3 70B"

    def test_resolve_lenient_spelling_preserves_served_name(self):
        spec = resolve_model("qwen3:8b")
        assert spec.group is ModelGroup.G2
        assert spec.name == "qwen3:8b"  # run files key on the served name

    @pytest.mark.parametrize(
        "tag",
        [
            "llama3.3:70b-instruct-q4_K_M",
            "qwen2.5:32b-instruct",
            "gemma3:27b-it-qat",
            "deepseek-r1:70b-llama-distill-q4_K_M",
            "mistral-small:24b-instruct-2501-q4_K_M",
        ],
    )
    def test_variant_suffix_resolves_to_its_group(self, tag):
        assert resolve_model(tag) == ModelSpec(tag, ModelGroup.G1)
        assert registry_group(tag) is ModelGroup.G1

    @pytest.mark.parametrize(
        "tag, group",
        [
            ("qwen3:8b-q8_0", ModelGroup.G2),
            ("qwen2.5:7b", ModelGroup.G2),
            ("llama3.3", None),
        ],
    )
    def test_registry_group_of_g2_and_unknown_names(self, tag, group):
        assert registry_group(tag) is group
        assert resolve_model(tag).group is ModelGroup.G2

    def test_resolve_unknown_defaults_to_g2(self):
        spec = resolve_model("mystery-model-99b")
        assert spec.group is ModelGroup.G2
        assert spec.name == "mystery-model-99b"
