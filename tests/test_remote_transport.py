"""Loopback HTTP round-trips for the remote embedding and LLM providers."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from aiblob.embeddings import RemoteEmbedder
from aiblob.errors import ProviderError
from aiblob.llm import RemoteChatProvider
from aiblob.util import post_json
from conftest import INT_LIMIT, OVERLONG, needs_int_limit


@pytest.fixture()
def http_server():
    requests = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length))
            requests.append((self.path, dict(self.headers), payload))
            if self.path == "/embed":
                body = json.dumps({"embeddings": [
                    [float(len(t)), 1.0, 2.0, 3.0] for t in payload["texts"]
                ]})
            elif self.path == "/chat":
                body = json.dumps({"choices": [{"message": {
                    "content": json.dumps({"themes": ["risposta dal server"]})
                }}]})
            elif self.path == "/overlong":
                body = '{"n": %s}' % OVERLONG
            else:
                self.send_response(404)
                self.end_headers()
                return
            body = body.encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    # A short poll interval, so that shutdown() does not wait up to 0.5 s.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", requests
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


def test_remote_embedder_round_trip(http_server):
    base, requests = http_server
    provider = RemoteEmbedder(f"{base}/embed", "modello-x", api_key="chiave-embed")
    vectors = provider.embed(["ciao", "arrivederci"], input_type="search_query")
    assert len(vectors) == 2
    for vec in vectors:
        assert abs(float(np.linalg.norm(vec.astype(np.float64))) - 1.0) <= 1e-5
    path, headers, payload = requests[0]
    assert path == "/embed"
    assert headers["Authorization"] == "Bearer chiave-embed"
    assert payload == {"model": "modello-x", "texts": ["ciao", "arrivederci"],
                       "input_type": "search_query"}


def test_remote_chat_round_trip(http_server):
    base, requests = http_server
    provider = RemoteChatProvider(f"{base}/chat", "modello-y", api_key="chiave-llm")
    response = provider.complete("themes", {"title": "Il calcio", "count": 1})
    assert response == {"themes": ["risposta dal server"]}
    path, headers, payload = requests[0]
    assert headers["Authorization"] == "Bearer chiave-llm"
    assert payload["model"] == "modello-y"
    assert payload["messages"][1]["content"] == json.dumps(
        {"title": "Il calcio", "count": 1}, ensure_ascii=False)


def test_http_error_becomes_provider_error(http_server):
    base, _ = http_server
    provider = RemoteEmbedder(f"{base}/inesistente", "m", api_key="k")
    with pytest.raises(ProviderError, match="404"):
        provider.embed(["ciao"])


def test_unreachable_endpoint(tmp_path):
    provider = RemoteEmbedder("http://127.0.0.1:1/embed", "m", api_key="k", timeout=0.5)
    with pytest.raises(ProviderError, match="unreachable"):
        provider.embed(["ciao"])


@needs_int_limit
def test_reply_with_an_integer_past_the_int_limit(http_server):
    base, _ = http_server
    with pytest.raises(ProviderError, match=f"^endpoint reply: invalid JSON: an integer of "
                                            f"more than {INT_LIMIT} digits$"):
        post_json(f"{base}/overlong", {}, {}, 5.0)
