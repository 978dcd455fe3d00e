import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

pytest.register_assert_rewrite("helpers", "oracles")

from triagebench.demo import load_demo_corpus
from triagebench.taxonomy import builtin_taxonomy


@pytest.fixture(scope="session")
def taxonomy():
    return builtin_taxonomy()


@pytest.fixture(scope="session")
def demo_corpus():
    return load_demo_corpus()


class _StubHandler(BaseHTTPRequestHandler):
    """Serves queued (status, body) pairs and records request payloads, and
    the path of every request, GETs included."""

    responses: list[tuple[int, str]] = []
    requests_seen: list[dict] = []
    paths_seen: list[str] = []

    def do_GET(self):  # /api/tags reachability probe
        type(self).paths_seen.append(self.path)
        self.send_response(200)
        self.end_headers()
        self.wfile.write(b"{}")

    def do_POST(self):
        type(self).paths_seen.append(self.path)
        length = int(self.headers["Content-Length"])
        type(self).requests_seen.append(json.loads(self.rfile.read(length)))
        status, body = (
            type(self).responses.pop(0) if type(self).responses else (200, "{}")
        )
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body.encode("utf-8"))

    def log_message(self, *args):  # keep test output quiet
        pass


@pytest.fixture()
def stub_server():
    class Handler(_StubHandler):
        responses = []
        requests_seen = []
        paths_seen = []

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    # shutdown() waits for serve_forever's next poll; 0.05 s, not 0.5 s.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", Handler
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
