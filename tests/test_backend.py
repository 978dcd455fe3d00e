import json
import re
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

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
    _GROUP_BY_NORMALIZED,
    estimate_tokens,
    registry_group,
    resolve_model,
    truncate_to_budget,
)
from triagebench.corpus import Corpus, IncidentRecord
from triagebench.runner import RunPlan, execute
from triagebench.taxonomy import CategoryCode
from triagebench.techniques import TechniqueConfig, TechniqueId


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
        # The context window holds the input budget and the output limit.
        assert sent["options"] == {
            "temperature": 0.0,
            "num_predict": 1024,
            "num_ctx": 8192 + 1024,
            "seed": 11,
        }
        assert completion.text == "FINAL: CAT1"
        assert completion.telemetry.prompt_tokens == 42
        assert completion.telemetry.output_tokens == 7
        assert completion.telemetry.server_eval_duration_ms == 1500.0
        assert completion.telemetry.response_chars == len("FINAL: CAT1")
        assert completion.telemetry.latency_ms >= 0.0

    def test_default_params_send_the_default_seed(self, stub_server):
        url, handler = stub_server
        handler.responses.append((200, ok_body()))
        OllamaBackend(url).complete(MODEL, MESSAGES, GenerationParams())
        assert handler.requests_seen[0]["options"]["seed"] == 0

    def test_context_window_holds_the_budget_and_the_output_limit(self, stub_server):
        url, handler = stub_server
        handler.responses.append((200, ok_body()))
        params = GenerationParams(input_token_budget=4096, max_output_tokens=512)
        OllamaBackend(url).complete(MODEL, MESSAGES, params)
        options = handler.requests_seen[0]["options"]
        assert (options["num_ctx"], options["num_predict"]) == (4096 + 512, 512)

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

    @pytest.mark.parametrize("content", [None, 3, ["FINAL: CAT1"]], ids=str)
    def test_content_that_is_not_a_string_is_protocol_error(self, stub_server, content):
        url, handler = stub_server
        handler.responses.append((200, json.dumps({"message": {"content": content}})))
        with pytest.raises(ProtocolError, match="malformed server reply.*content"):
            OllamaBackend(url).complete(MODEL, MESSAGES, PARAMS)

    def test_counters_that_are_not_numbers_are_dropped(self, stub_server):
        url, handler = stub_server
        body = {"message": {"content": "FINAL: CAT1"}, "prompt_eval_count": "12",
                "eval_count": True, "total_duration": [1]}
        handler.responses.append((200, json.dumps(body)))
        telemetry = OllamaBackend(url).complete(MODEL, MESSAGES, PARAMS).telemetry
        assert telemetry.prompt_tokens is None
        assert telemetry.output_tokens is None
        assert telemetry.server_eval_duration_ms is None

    def test_reply_nested_too_deep_is_protocol_error(self, stub_server):
        url, handler = stub_server
        handler.responses.append((200, "[" * 100_000 + "]" * 100_000))
        with pytest.raises(ProtocolError, match=r"malformed server reply: '\[\[\["):
            OllamaBackend(url).complete(MODEL, MESSAGES, PARAMS)

    @pytest.mark.parametrize(
        "counter, field",
        [("prompt_eval_count", "prompt_tokens"), ("eval_count", "output_tokens"),
         ("total_duration", "server_eval_duration_ms")],
    )
    def test_counter_too_large_for_a_float_is_dropped(self, stub_server, counter, field):
        url, handler = stub_server
        body = json.loads(ok_body())
        body[counter] = 10**400
        handler.responses.append((200, json.dumps(body)))
        telemetry = OllamaBackend(url).complete(MODEL, MESSAGES, PARAMS).telemetry
        want = {"prompt_tokens": 42, "output_tokens": 7,
                "server_eval_duration_ms": 1500.0, field: None}
        assert {key: getattr(telemetry, key) for key in want} == want

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

    @pytest.mark.parametrize(
        "url", ["localhost:11434", "ftp://127.0.0.1:9", "http://", "http://h:port"]
    )
    def test_malformed_url_rejected_when_built(self, url):
        with pytest.raises(ValueError):
            OllamaBackend(url)


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 with Content-Length, so connections stay open between
    requests; each chat request gets ok_body()."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # headers and body go out as two writes

    def _reply(self, body: bytes) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        self.server.paths.append(self.path)
        self._reply(b"{}")

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.paths.append(self.path)
        self.server.posts.append((self.headers["Content-Type"], body))
        self._reply(ok_body().encode())

    def finish(self):
        super().finish()
        self.server.finished.release()

    def log_message(self, *args):
        pass


class _CountingServer(ThreadingHTTPServer):
    """Keeps every connection it accepts, and the path and body of every
    request."""

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _KeepAliveHandler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}"
        self.connections: list[socket.socket] = []
        self.paths: list[str] = []
        self.posts: list[tuple[str, bytes]] = []
        self.finished = threading.Semaphore(0)  # one release per closed handler

    def get_request(self):
        conn, addr = super().get_request()
        self.connections.append(conn)
        return conn, addr


@pytest.fixture()
def keepalive_server():
    server = _CountingServer()
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        for conn in server.connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture()
def ollama():
    """Builds OllamaBackends like the class does, and closes them at teardown."""
    built: list[OllamaBackend] = []

    def build(*args, **kwargs) -> OllamaBackend:
        built.append(OllamaBackend(*args, **kwargs))
        return built[-1]

    yield build
    for backend in built:
        backend.close()


def _matrix_plan(tmp_path, parallelism: int) -> RunPlan:
    corpus = Corpus(
        records=tuple(
            IncidentRecord(id=f"i{n}", text=f"report {n}",
                           ground_truth=CategoryCode.from_number(n))
            for n in range(1, 9)
        )
    )
    return RunPlan(
        models=(MODEL,),
        techniques=tuple(TechniqueId),
        corpus=corpus,
        params=PARAMS,
        technique_config=TechniqueConfig(),
        seed=0,
        output_path=tmp_path / f"run-{parallelism}.jsonl",
        parallelism=parallelism,
    )


class TestKeepAliveTransport:
    def test_one_connection_for_many_calls(self, keepalive_server, ollama):
        backend = ollama(keepalive_server.url)
        assert backend.is_reachable()
        for _ in range(20):
            assert backend.complete(MODEL, MESSAGES, PARAMS).text == "FINAL: CAT1"
        assert len(keepalive_server.connections) == 1
        assert keepalive_server.paths == ["/api/tags"] + ["/api/chat"] * 20

    def test_one_connection_per_worker(self, keepalive_server, tmp_path, ollama):
        lines = []
        for parallelism, max_connections in ((1, 1), (2, 2)):
            opened = len(keepalive_server.connections)
            plan = _matrix_plan(tmp_path, parallelism)
            summary = execute(plan, ollama(keepalive_server.url))
            assert summary.executed == 40 and summary.failed == 0
            assert len(keepalive_server.connections) - opened <= max_connections
            text = plan.output_path.read_text(encoding="utf-8")
            lines.append(sorted(re.sub(r'latency_ms":[^,}]+', "", text).splitlines()))
        assert lines[0] == lines[1]

    def test_dropped_idle_connection_resent_once_without_sleep(
        self, keepalive_server, ollama
    ):
        sleeps: list[float] = []
        backend = ollama(keepalive_server.url, sleep=sleeps.append)
        backend.complete(MODEL, MESSAGES, PARAMS)
        [conn] = keepalive_server.connections
        conn.shutdown(socket.SHUT_RDWR)
        assert keepalive_server.finished.acquire(timeout=5)

        assert backend.complete(MODEL, MESSAGES, PARAMS).text == "FINAL: CAT1"
        assert sleeps == []
        assert len(keepalive_server.posts) == 2
        assert len(keepalive_server.connections) == 2

    def test_connection_closing_server_still_served(self, stub_server):
        url, handler = stub_server
        handler.responses.extend([(200, ok_body(f"FINAL: CAT{n}")) for n in (1, 2, 3)])
        backend = OllamaBackend(url)
        texts = [backend.complete(MODEL, MESSAGES, PARAMS).text for _ in range(3)]
        assert texts == ["FINAL: CAT1", "FINAL: CAT2", "FINAL: CAT3"]

    def test_path_prefix_kept(self, keepalive_server, ollama):
        backend = ollama(keepalive_server.url + "/ollama/")
        assert backend.is_reachable()
        backend.complete(MODEL, MESSAGES, PARAMS)
        assert keepalive_server.paths == ["/ollama/api/tags", "/ollama/api/chat"]

    def test_request_body_is_compact_json(self, keepalive_server, ollama):
        ollama(keepalive_server.url).complete(MODEL, MESSAGES, PARAMS)
        payload = {
            "model": "demo",
            "messages": [m.to_dict() for m in MESSAGES],
            "stream": False,
            "options": {
                "temperature": 0.0, "num_predict": 1024, "num_ctx": 9216, "seed": 11,
            },
        }
        assert keepalive_server.posts == [
            ("application/json", json.dumps(payload, allow_nan=False).encode())
        ]

    def test_close_closes_the_connection_of_every_thread(self, keepalive_server, tmp_path):
        backend = OllamaBackend(keepalive_server.url)
        # Worker threads that have ended, and this thread.
        execute(_matrix_plan(tmp_path, 2), backend)
        backend.complete(MODEL, MESSAGES, PARAMS)
        opened = len(keepalive_server.connections)
        assert opened >= 2
        backend.close()
        for _ in range(opened):
            assert keepalive_server.finished.acquire(timeout=5)

        # A closed backend reconnects when used again; close() closes it again.
        assert backend.complete(MODEL, MESSAGES, PARAMS).text == "FINAL: CAT1"
        assert len(keepalive_server.connections) == opened + 1
        backend.close()
        assert keepalive_server.finished.acquire(timeout=5)

    def test_close_closes_a_session_that_has_close(self):
        class Session:
            closed = 0

            def close(self):
                self.closed += 1

        session = Session()
        OllamaBackend(session=session).close()
        assert session.closed == 1
        OllamaBackend(session=object()).close()  # nothing to close

    @pytest.mark.parametrize("hang_up", [False, True], ids=["silent", "hang-up"])
    def test_fresh_connection_failure_is_an_attempt(self, hang_up):
        # A server that never answers (each attempt times out) or that
        # closes every connection at once: no attempt is resent.
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.05)
        accepted: list[socket.socket] = []
        stop = threading.Event()

        def accept():
            while not stop.is_set():
                try:
                    conn = listener.accept()[0]
                except TimeoutError:
                    continue
                accepted.append(conn)
                if hang_up:
                    conn.close()

        thread = threading.Thread(target=accept, daemon=True)
        thread.start()
        sleeps: list[float] = []
        backend = OllamaBackend(
            f"http://127.0.0.1:{listener.getsockname()[1]}", sleep=sleeps.append
        )
        try:
            with pytest.raises(BackendUnavailableError, match="3 attempts"):
                backend.complete(MODEL, MESSAGES, GenerationParams(request_timeout=0.2))
        finally:
            stop.set()
            thread.join(timeout=5)
            for conn in [listener, *accepted]:
                conn.close()
        assert not thread.is_alive()
        assert sleeps == list(RETRY_BACKOFF_S)
        assert len(accepted) == backend.retries + 1


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


# The 22 evaluated models, 11 per group, as the paper names them.
PAPER_MODELS = {
    ModelGroup.G1: (
        "Cogito 70B", "DeepSeek R1 70B", "Falcon3 10B", "Gemma 2 27B",
        "Gemma 3 27B", "GPT-OSS 20B", "Llama 3.3 70B", "Mistral Small 24B",
        "Phi-4 14B", "Qwen2.5 32B", "Qwen3 32B",
    ),
    ModelGroup.G2: (
        "Qwen3 8B", "Qwen2.5 7B", "Cogito 8B", "DeepSeek R1 8B", "Falcon3 7B",
        "Gemma 2 9B", "Gemma 3 12B", "Granite3.2 8B", "Llama 3.1 8B",
        "Mistral 7B", "Foundation-Sec 8B",
    ),
}


class TestModelRegistry:
    def test_twenty_two_models_split_evenly(self):
        assert {g: len(set(names)) for g, names in PAPER_MODELS.items()} == {
            ModelGroup.G1: 11, ModelGroup.G2: 11,
        }
        for group, names in PAPER_MODELS.items():
            assert [registry_group(n) for n in names] == [group] * 11
        # No name beyond the 22, and no two that read as the same model.
        assert len(_GROUP_BY_NORMALIZED) == 22

    def test_known_rows(self):
        assert registry_group("Qwen3 8B") is ModelGroup.G2
        assert registry_group("GPT-OSS 20B") is ModelGroup.G1

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
