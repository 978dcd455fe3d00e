"""Stdlib stub of an Ollama server's /api/tags and /api/chat (stream:false).

Run as its own process:

    python3 perfbench/stub.py SCHEDULE.json [--missing-model NAME]

It prints "port N" once listening on 127.0.0.1 and serves until killed.

The simulated server has one execution slot and one resident model. A
request that names another model than the resident one first pays the
schedule's load delay (reported as load_duration); every request then
holds the slot for the service time. Each reply is a function of the
schedule and of (model, technique, incident, round), all recovered from
the request, so concurrent clients get the same answers as a serial one.

Two benchmark-only endpoints: GET /bench/stats returns the counters and
POST /bench/reset zeroes them and unloads the model.
"""
from __future__ import annotations

import hashlib
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_INCIDENT_RE = re.compile(r"\[(inc-[0-9a-f]+-\d+)\]")


class Slot:
    """The single execution slot, its resident model and its counters."""

    def __init__(self, load_s: float, service_s: float) -> None:
        self.load_s = load_s
        self.service_s = service_s
        self.lock = threading.Lock()
        self.stats_lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock, self.stats_lock:
            self.resident: str | None = None
            self.stats = {"requests": 0, "busy_s": 0.0, "load_s": 0.0,
                          "swaps": 0, "queue_wait_s": 0.0}

    def run(self, model: str) -> tuple[float, float, float]:
        """Occupy the slot for one request: (load, service, total) seconds."""
        queued = time.perf_counter()
        with self.lock:
            start = time.perf_counter()
            swapped = self.resident != model
            if swapped:
                time.sleep(self.load_s)
                self.resident = model
            loaded = time.perf_counter()
            time.sleep(self.service_s)
            end = time.perf_counter()
        with self.stats_lock:
            s = self.stats
            s["requests"] += 1
            s["busy_s"] += end - start
            s["load_s"] += loaded - start if swapped else 0.0
            s["swaps"] += swapped
            s["queue_wait_s"] += start - queued
        return (loaded - start if swapped else 0.0), end - loaded, end - start


def reply_text(answer: str, technique: str, round_no: int) -> str:
    return (
        f"{technique} round {round_no}: the reported activity, affected assets "
        f"and observed impact were weighed against each category definition, "
        f"and one category fits best.\nFINAL: {answer}"
    )


def make_handler(schedule: dict, slot: Slot, missing_model: str | None):
    techniques = schedule["techniques"]
    answers = schedule["answers"]

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Without this, delayed ACKs add tens of ms to every small reply.
        disable_nagle_algorithm = True

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

        def _send(self, status: int, body: dict) -> None:
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path == "/api/tags":
                models = sorted({k.split("|", 1)[0] for k in answers})
                self._send(200, {"models": [{"name": m, "model": m} for m in models]})
            elif self.path == "/bench/stats":
                with slot.stats_lock:
                    self._send(200, dict(slot.stats))
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/bench/reset":
                slot.reset()
                self._send(200, {})
                return
            if self.path != "/api/chat":
                self._send(404, {"error": "not found"})
                return
            req = json.loads(body)
            model = req["model"]
            if model == missing_model:
                self._send(404, {"error": f"model '{model}' not found"})
                return
            messages = req["messages"]
            digest = hashlib.sha256(messages[0]["content"].encode("utf-8")).hexdigest()[:16]
            technique = techniques[digest]
            users = [m["content"] for m in messages if m["role"] == "user"]
            incident = _INCIDENT_RE.search(users[0]).group(1)
            per_round = answers[f"{model}|{technique}|{incident}"]
            round_no = len(users)
            text = reply_text(per_round[min(round_no, len(per_round)) - 1], technique, round_no)

            load_s, service_s, total_s = slot.run(model)
            prompt_chars = sum(len(m["content"]) for m in messages)
            prompt_share = prompt_chars / (prompt_chars + len(text))
            self._send(200, {
                "model": model,
                "created_at": "1970-01-01T00:00:00Z",
                "message": {"role": "assistant", "content": text},
                "done": True,
                "done_reason": "stop",
                "total_duration": int(total_s * 1e9),
                "load_duration": int(load_s * 1e9),
                "prompt_eval_count": prompt_chars // 4,
                "prompt_eval_duration": int(service_s * prompt_share * 1e9),
                "eval_count": len(text) // 4,
                "eval_duration": int(service_s * (1 - prompt_share) * 1e9),
            })

    return Handler


def main(argv: list[str]) -> int:
    schedule = json.loads(open(argv[0], encoding="utf-8").read())
    missing = argv[2] if len(argv) > 2 and argv[1] == "--missing-model" else None
    slot = Slot(schedule["load_ms"] / 1000.0, schedule["service_ms"] / 1000.0)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(schedule, slot, missing))
    server.daemon_threads = True
    print(f"port {server.server_address[1]}", flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
