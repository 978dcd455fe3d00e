"""Chat-completion backends: a live Ollama-compatible client and a scripted one.

The live client speaks POST /api/chat with stream=false and maps the reply's
message.content plus server counters into a Completion. It talks HTTP/1.1
through the standard library's http.client, over one keep-alive connection
per worker thread, and imports http.client only when built, so offline
commands (demo, report, validate, anonymize, scripted runs) never load it.
The scripted backend replays a fixed list of replies for deterministic tests
and the offline demo; it only replies and records nothing of what it was
sent. Token budgeting uses the chars/4 heuristic so the harness never
depends on a model's tokenizer.
"""
from __future__ import annotations

import functools
import json
import re
import threading
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Callable, Protocol, Sequence

DEFAULT_BASE_URL = "http://127.0.0.1:11434"
TRUNCATION_MARKER = "[TRUNCATED]"

# requests' body for json=: the same bytes as json.dumps(obj, allow_nan=False).
_encode_json = json.JSONEncoder(allow_nan=False).encode

# Transient-failure policy for local servers that drop requests during model
# load: 2 retries after the first attempt, 1s then 4s.
RETRY_BACKOFF_S = (1.0, 4.0)


class BackendError(Exception):
    """Base class for backend failures."""


class BackendUnavailableError(BackendError):
    """Server unreachable or timing out after all retries."""


class UnknownModelError(BackendError):
    """The server does not know the requested model name."""


class ProtocolError(BackendError):
    """The server answered, but not with the expected JSON shape."""


class ScriptExhaustedError(BackendError):
    """A scripted backend was asked for more replies than it holds."""


class BudgetTooSmallError(BackendError):
    """Input budget cannot hold even the system prompt plus marker."""


class Role(str, Enum):
    SYSTEM = "system"
    USER = "user"
    ASSISTANT = "assistant"


@dataclass(frozen=True, slots=True)
class ChatMessage:
    role: Role
    content: str

    def __post_init__(self) -> None:
        if self.role in (Role.SYSTEM, Role.USER) and not self.content:
            raise ValueError(f"{self.role.value} message content must be nonempty")

    def to_dict(self) -> dict:
        return {"role": self.role.value, "content": self.content}


@dataclass(frozen=True)
class GenerationParams:
    temperature: float = 0.0
    max_output_tokens: int = 1024
    input_token_budget: int = 8192
    seed: int | None = None
    request_timeout: float = 120.0

    def __post_init__(self) -> None:
        # Written so that NaN fails too.
        if not self.temperature >= 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.max_output_tokens < 1 or self.input_token_budget < 1:
            raise ValueError("token limits must be positive")
        if not self.request_timeout > 0:
            raise ValueError(
                f"request_timeout must be > 0, got {self.request_timeout}"
            )


class ModelGroup(str, Enum):
    G1 = "G1"
    G2 = "G2"


@dataclass(frozen=True)
class ModelSpec:
    name: str
    group: ModelGroup


@dataclass(frozen=True, slots=True)
class Telemetry:
    latency_ms: float
    response_chars: int
    prompt_tokens: int | None = None
    output_tokens: int | None = None
    server_eval_duration_ms: float | None = None


@dataclass(frozen=True, slots=True)
class Completion:
    text: str
    telemetry: Telemetry


class Backend(Protocol):
    def complete(
        self,
        model: ModelSpec,
        messages: Sequence[ChatMessage],
        params: GenerationParams,
    ) -> Completion: ...


def estimate_tokens(messages: Sequence[ChatMessage]) -> int:
    """chars/4 heuristic, rounded up per message."""
    return sum((len(m.content) + 3) // 4 for m in messages)


def truncate_to_budget(
    messages: Sequence[ChatMessage], budget_tokens: int
) -> list[ChatMessage]:
    """Fit a transcript into the input token budget.

    Oldest non-system turns are dropped whole first; the system prompt and
    the latest turn are never dropped. If that is not enough, the latest
    turn's content is tail-truncated and marked. Input is never mutated.
    """
    if budget_tokens <= 0:
        raise ValueError("budget_tokens must be positive")
    out = list(messages)
    if estimate_tokens(out) <= budget_tokens:
        return out

    while estimate_tokens(out) > budget_tokens:
        droppable = next(
            (i for i, m in enumerate(out[:-1]) if m.role is not Role.SYSTEM),
            None,
        )
        if droppable is None:
            break
        del out[droppable]

    if estimate_tokens(out) <= budget_tokens:
        return out

    last = out[-1]
    if last.role is Role.SYSTEM:
        raise BudgetTooSmallError(
            f"budget of {budget_tokens} tokens cannot hold the system prompt"
        )
    kept_tokens = estimate_tokens(out[:-1])
    keep_chars = (budget_tokens - kept_tokens) * 4 - len(TRUNCATION_MARKER)
    if keep_chars < 0:
        raise BudgetTooSmallError(
            f"budget of {budget_tokens} tokens cannot hold the system prompt "
            f"plus the truncation marker"
        )
    out[-1] = replace(last, content=last.content[:keep_chars] + TRUNCATION_MARKER)
    return out


class _Session(Protocol):
    """What OllamaBackend calls on its transport: the shape of requests.Session."""

    def get(self, url: str, *, timeout: float) -> Any: ...

    def post(self, url: str, *, json: Any, timeout: float) -> Any: ...


@dataclass(frozen=True)
class _Reply:
    """The part of a requests.Response that OllamaBackend reads."""

    status_code: int
    text: str

    def json(self) -> Any:
        return json.loads(self.text)


class _HTTPClient:
    """A stdlib HTTP/1.1 client with one keep-alive connection per thread.

    Built for one base URL (http or https, with an optional path prefix); it
    answers get and post like a requests.Session. A reused connection that
    the server dropped while it sat idle is reopened and the request sent
    once more; any other failure is raised to the caller. close() closes the
    connections of every thread, including threads that have ended.
    """

    def __init__(self, base_url: str) -> None:
        import http.client
        from urllib.parse import urlsplit

        parts = urlsplit(base_url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(
                f"backend URL {base_url!r} is not http(s)://host[:port][/path]"
            )
        self._connect = functools.partial(
            http.client.HTTPSConnection if parts.scheme == "https"
            else http.client.HTTPConnection,
            parts.hostname,
            parts.port,  # raises ValueError on a bad port
        )
        self._base_url = base_url.rstrip("/")
        self._prefix = parts.path.rstrip("/")
        self._local = threading.local()
        self._lock = threading.Lock()
        self._conns: list[http.client.HTTPConnection] = []

    def close(self) -> None:
        with self._lock:
            for conn in self._conns:
                conn.close()

    def get(self, url: str, *, timeout: float) -> _Reply:
        return self._request("GET", url, None, timeout)

    def post(self, url: str, *, json: Any, timeout: float) -> _Reply:
        body = _encode_json(json).encode("utf-8")
        return self._request("POST", url, body, timeout)

    def _request(
        self, method: str, url: str, body: bytes | None, timeout: float
    ) -> _Reply:
        import http.client

        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connect()
            with self._lock:
                self._conns.append(conn)
        path = self._prefix + url[len(self._base_url):]
        idle = conn.sock is not None
        try:
            return self._exchange(conn, method, path, body, timeout)
        except (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError):
            if not idle:
                raise
        # The server closed the kept-alive connection; the closed connection
        # opens a fresh socket on its next request.
        return self._exchange(conn, method, path, body, timeout)

    @staticmethod
    def _exchange(
        conn, method: str, path: str, body: bytes | None, timeout: float
    ) -> _Reply:
        conn.timeout = timeout
        if conn.sock is not None:
            conn.sock.settimeout(timeout)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
        except BaseException:
            conn.close()
            raise
        return _Reply(resp.status, data.decode("utf-8", "replace"))


def _measure(value: Any) -> int | float | None:
    """A server counter if it is a number, else None."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    return None


class OllamaBackend:
    """Live client for an Ollama-compatible /api/chat endpoint.

    Shareable across worker threads: each thread keeps one keep-alive
    connection of its own. Transient failures (connection errors, timeouts,
    5xx) are retried with the fixed backoff schedule before surfacing
    BackendUnavailableError. A base URL that is not http(s)://host[...]
    raises ValueError when the backend is built.

    close() closes the connections of every thread. A backend used after
    close() opens them again; close it again when done.

    session replaces the stdlib transport with any object that has
    requests.Session's get and post; it exists for the benchmark's tracer
    (perfbench/tracing.py), which counts HTTP attempts through it. close()
    closes it too, if it has a close method.
    """

    def __init__(
        self,
        base_url: str = DEFAULT_BASE_URL,
        retries: int = len(RETRY_BACKOFF_S),
        session: _Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.base_url = base_url.rstrip("/")
        self.retries = retries
        self._session = session or _HTTPClient(base_url)
        self._sleep = sleep

    def close(self) -> None:
        """Close the connections of every thread, or the session given."""
        close = getattr(self._session, "close", None)
        if close is not None:
            close()

    def is_reachable(self, timeout: float = 5.0) -> bool:
        import http.client

        try:
            self._session.get(f"{self.base_url}/api/tags", timeout=timeout)
            return True
        except (OSError, http.client.HTTPException):
            return False

    def complete(
        self,
        model: ModelSpec,
        messages: Sequence[ChatMessage],
        params: GenerationParams,
    ) -> Completion:
        import http.client

        if not messages:
            raise ValueError("messages must be nonempty")
        options: dict = {
            "temperature": params.temperature,
            "num_predict": params.max_output_tokens,
        }
        if params.seed is not None:
            options["seed"] = params.seed
        payload = {
            "model": model.name,
            "messages": [m.to_dict() for m in messages],
            "stream": False,
            "options": options,
        }

        last_exc: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                self._sleep(RETRY_BACKOFF_S[min(attempt - 1, len(RETRY_BACKOFF_S) - 1)])
            start = time.monotonic()
            try:
                resp = self._session.post(
                    f"{self.base_url}/api/chat",
                    json=payload,
                    timeout=params.request_timeout,
                )
            except (OSError, http.client.HTTPException) as exc:
                last_exc = exc
                continue
            latency_ms = (time.monotonic() - start) * 1000.0

            if resp.status_code == 404:
                raise UnknownModelError(
                    f"server has no model named {model.name!r}"
                )
            if resp.status_code >= 500:
                last_exc = ProtocolError(
                    f"server error {resp.status_code}: {resp.text[:200]}"
                )
                continue
            if resp.status_code != 200:
                raise ProtocolError(
                    f"unexpected status {resp.status_code}: {resp.text[:200]}"
                )

            try:
                body = resp.json()
                text = body["message"]["content"]
            except (ValueError, KeyError, TypeError):
                text = None
            if not isinstance(text, str):
                raise ProtocolError(f"malformed server reply: {resp.text[:200]!r}")

            total_ns = _measure(body.get("total_duration"))
            telemetry = Telemetry(
                latency_ms=latency_ms,
                response_chars=len(text),
                prompt_tokens=_measure(body.get("prompt_eval_count")),
                output_tokens=_measure(body.get("eval_count")),
                server_eval_duration_ms=None if total_ns is None else total_ns / 1e6,
            )
            return Completion(text=text, telemetry=telemetry)

        raise BackendUnavailableError(
            f"backend at {self.base_url} unavailable after "
            f"{self.retries + 1} attempts: {last_exc}"
        )


class ScriptedBackend:
    """Replays a fixed reply queue in call order; telemetry latency is exactly 0.

    It only replies: the messages sent are not kept. Exhausting the script
    is an error, signalling a test or demo-script bug rather than a model
    condition.
    """

    def __init__(self, script: Sequence[str]) -> None:
        self._script = list(script)
        self._pos = 0
        self._lock = threading.Lock()

    def remaining(self) -> int:
        with self._lock:
            return len(self._script) - self._pos

    def complete(
        self,
        model: ModelSpec,
        messages: Sequence[ChatMessage],
        params: GenerationParams,
    ) -> Completion:
        if not messages:
            raise ValueError("messages must be nonempty")
        with self._lock:
            if self._pos >= len(self._script):
                raise ScriptExhaustedError(
                    f"script exhausted after {len(self._script)} replies"
                )
            reply = self._script[self._pos]
            self._pos += 1
        return Completion(
            text=reply,
            telemetry=Telemetry(latency_ms=0.0, response_chars=len(reply)),
        )


_REGISTRY_NAMES = {
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

_REGISTRY = tuple(
    ModelSpec(name, group)
    for group, names in _REGISTRY_NAMES.items()
    for name in names
)


# An Ollama tag's variant suffix after its size ("70b-instruct-q4_K_M")
# names a quantization or fine-tune of the same model.
_VARIANT_RE = re.compile(r"(:[0-9.]+b)-.*", re.IGNORECASE)


def _normalize_name(name: str) -> str:
    return "".join(ch for ch in name.lower() if ch.isalnum())


_GROUP_BY_NORMALIZED = {_normalize_name(m.name): m.group for m in _REGISTRY}


def builtin_model_registry() -> tuple[ModelSpec, ...]:
    """All 22 evaluated models, 11 per group."""
    return _REGISTRY


def registry_group(name: str) -> ModelGroup | None:
    """The group of a model name, leniently matched ("qwen3:8b-q8_0" is
    "Qwen3 8B"), or None if the registry does not know it."""
    return _GROUP_BY_NORMALIZED.get(_normalize_name(_VARIANT_RE.sub(r"\1", name)))


def resolve_model(name: str) -> ModelSpec:
    """The spec for a model identifier, grouped by the registry.

    The user-supplied name is preserved so run files key on what was
    actually served. Unrecognized names are placed in G2.
    """
    return ModelSpec(name, registry_group(name) or ModelGroup.G2)
