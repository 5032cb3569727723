"""Loopback HTTP round-trips for the remote embedding and LLM providers, and the
one HTTP boundary (util.post_json): every transport fault is a retried
ProviderError, a malformed endpoint URL is a ConfigError before any call, and
offline commands never load the HTTP client (nor numpy, until they use it)."""

import functools
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import numpy as np
import pytest

from aiblob import cli
from aiblob.cli import main
from aiblob.embeddings import RemoteEmbedder, embed_batch
from aiblob.errors import ConfigError, ProviderError
from aiblob.llm import Candidate, RemoteChatProvider
from aiblob.montage import RenderSettings, build_edl, save_edl
from aiblob.narrative import SECTION_ORDER, NarrativePlan
from aiblob.util import check_url, post_json
from conftest import INT_LIMIT, OVERLONG, needs_int_limit, run_python


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
    provider = RemoteEmbedder("http://127.0.0.1:1/embed", "m", api_key="k")
    provider.timeout = 0.5
    with pytest.raises(ProviderError, match="unreachable"):
        provider.embed(["ciao"])


@needs_int_limit
def test_reply_with_an_integer_past_the_int_limit(http_server):
    base, _ = http_server
    with pytest.raises(ProviderError, match=f"^endpoint reply: invalid JSON: an integer of "
                                            f"more than {INT_LIMIT} digits$"):
        post_json(f"{base}/overlong", {}, None, 5.0)


# -- transport faults --------------------------------------------------------

# A read timeout for the stalled server, in seconds.
STALL_TIMEOUT = 0.2


@pytest.fixture()
def fault_server():
    """A loopback server whose replies fail in transport: /short promises 100
    bytes and sends 7, /bad-status sends a line that is no HTTP status line, and
    /stall sends its headers and 7 bytes, then nothing until the test ends."""
    requests = []
    release = threading.Event()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            requests.append(self.path)
            if self.path == "/bad-status":
                self.wfile.write(b"garbage\r\n\r\n")
                return
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b'{"embed')
            self.wfile.flush()
            if self.path == "/stall":
                release.wait(timeout=10)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", requests
    finally:
        release.set()
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


FAULTS = {"/short": "IncompleteRead", "/bad-status": "BadStatusLine", "/stall": "TimeoutError"}


@pytest.mark.parametrize("path", FAULTS)
def test_transport_fault_is_a_provider_error(fault_server, path):
    base, _ = fault_server
    with pytest.raises(ProviderError, match=f"^endpoint reply failed: {FAULTS[path]}\\("):
        post_json(f"{base}{path}", {}, None, STALL_TIMEOUT)


@pytest.mark.parametrize("path", FAULTS)
def test_transport_fault_uses_every_retry(fault_server, path):
    base, requests = fault_server
    provider = RemoteEmbedder(f"{base}{path}", "m", api_key="k")
    provider.timeout = STALL_TIMEOUT
    with pytest.raises(ProviderError, match=r"^embedding for texts\[0:1\] failed after 3 "
                                            f"attempts: endpoint reply failed: {FAULTS[path]}"):
        embed_batch(["ciao"], provider, retries=2, backoff=())
    assert requests == [path] * 3


@pytest.mark.parametrize("key", ["riga\nnuova", "chiave\x00", "chiavé", "\udcff"])
def test_key_no_header_can_carry_is_a_config_error(key):
    # Refused before any request, so the unreachable port is never dialled.
    with pytest.raises(ConfigError, match="^the API key must be printable ASCII$"):
        post_json("http://127.0.0.1:1/embed", {}, key, 0.5)


# -- endpoint URLs -----------------------------------------------------------

BAD_URLS = ["nonsense", "http://127.0.0.1:abc/x", "", "ftp://127.0.0.1/x", "file:///etc/passwd",
            "http:///x", "http://127.0.0.1:65536/x", "http://[::1/x", "http://u:p@127.0.0.1/x",
            "http://127.0.0.1/a b", "http://127.0.0.1/\n", "http://127.0.0.1/è",
            "http://a..test/x", f"http://{'a' * 64}.test/x"]


@pytest.mark.parametrize("url", BAD_URLS)
@pytest.mark.parametrize("provider,what", [(RemoteEmbedder, "remote embedder"),
                                           (RemoteChatProvider, "remote LLM provider")])
def test_malformed_base_url_is_a_config_error_naming_it(provider, what, url):
    def transport(*args):
        raise AssertionError("no call may be made")

    with pytest.raises(ConfigError) as caught:
        provider(url, "m", api_key="k", transport=transport)
    assert str(caught.value).startswith(f"{what}: base URL {url!r} must be http or https")
    assert "\n" not in str(caught.value)


@pytest.mark.parametrize("url", ["http://127.0.0.1:8080/embed", "https://example.test",
                                 "HTTP://example.test/v1?x=1", "http://[::1]:8080/x",
                                 "http://example.test:/x"])
def test_well_formed_base_url_is_accepted(url):
    check_url(url, "remote embedder")


# -- the commands ----------------------------------------------------------

@pytest.fixture()
def small_store(tmp_path, corpus_file):
    store = tmp_path / "store"
    assert main(["index", "--corpus", str(corpus_file), "--store", str(store),
                 "--embedder", "deterministic:8"]) == 0
    return store


def remote_config(tmp_path, **providers):
    path = tmp_path / "remote.json"
    path.write_text(json.dumps({"providers": {"embedder": "deterministic:8", "retries": 1,
                                              **providers}}), encoding="utf-8")
    return path


def fails_with_one_error_line(capsys, argv):
    capsys.readouterr()  # drop earlier output
    assert main(list(map(str, argv))) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    return err


def index_argv(tmp_path, corpus_file, url):
    return ["index", "--corpus", corpus_file, "--store", tmp_path / "remote-store",
            "--embedder", "remote",
            "--config", remote_config(tmp_path, embed_base_url=url, embed_model="m")]


def compose_argv(tmp_path, store, url):
    return ["compose", "--store", store, "--title", "Il calcio", "--out", tmp_path / "ep",
            "--llm", "remote",
            "--config", remote_config(tmp_path, llm_base_url=url, llm_model="m")]


@pytest.mark.parametrize("path", FAULTS)
def test_index_against_a_faulty_endpoint(fault_server, tmp_path, corpus_file, capsys,
                                         monkeypatch, path):
    base, requests = fault_server
    monkeypatch.setattr(RemoteEmbedder, "timeout", STALL_TIMEOUT)
    monkeypatch.setattr(cli, "embed_batch", functools.partial(embed_batch, backoff=()))
    err = fails_with_one_error_line(capsys, index_argv(tmp_path, corpus_file, f"{base}{path}"))
    assert f"failed after 4 attempts: endpoint reply failed: {FAULTS[path]}(" in err
    assert requests == [path] * 4
    assert not (tmp_path / "remote-store").exists()


@pytest.mark.parametrize("path", FAULTS)
def test_compose_against_a_faulty_endpoint(fault_server, tmp_path, small_store, capsys,
                                           monkeypatch, path):
    base, requests = fault_server
    monkeypatch.setattr(RemoteChatProvider, "timeout", STALL_TIMEOUT)
    err = fails_with_one_error_line(capsys, compose_argv(tmp_path, small_store, f"{base}{path}"))
    assert err.startswith("error: theme generation failed after 2 attempts: "
                          f"endpoint reply failed: {FAULTS[path]}(")
    assert requests == [path] * 2


@pytest.mark.parametrize("url", ["nonsense", "http://127.0.0.1:abc/x"])
def test_index_with_a_malformed_url(tmp_path, corpus_file, capsys, url):
    err = fails_with_one_error_line(capsys, index_argv(tmp_path, corpus_file, url))
    assert err.startswith(f"error: remote embedder: base URL {url!r} must be http or https")


@pytest.mark.parametrize("url", ["nonsense", "http://127.0.0.1:abc/x"])
def test_compose_with_a_malformed_url(tmp_path, small_store, capsys, url):
    err = fails_with_one_error_line(capsys, compose_argv(tmp_path, small_store, url))
    assert err.startswith(f"error: remote LLM provider: base URL {url!r} must be http or https")
    assert not (tmp_path / "ep").exists()


# -- offline commands never load the HTTP client, nor numpy until they use it --

# A child process that prints, after its exit code, which of these modules are
# loaded once it has imported aiblob.cli, and once it has run the command in
# its argv.
LOADED = (
    "import sys\n"
    "def loaded():\n"
    "    return [m for m in ('urllib.request', 'http.client', 'numpy') if m in sys.modules]\n"
    "import aiblob.cli\n"
    "after_import = loaded()\n"
    "try:\n"
    "    code = aiblob.cli.main(sys.argv[1:])\n"
    "except SystemExit as exit:\n"
    "    code = exit.code\n"
    "print(f'{code} {after_import} {loaded()}', file=sys.stderr)\n"
)


def test_offline_commands_leave_the_http_client_unloaded(tmp_path):
    edl = tmp_path / "edl.json"
    plan = NarrativePlan("T", {name: [name] for name in SECTION_ORDER})
    candidates = [Candidate(name, "v1", name, 10.0, 12.0, 0) for name in SECTION_ORDER]
    save_edl(build_edl(plan, candidates, RenderSettings(), lambda video_id: "media/v1.mp4"),
             str(edl))
    result = run_python("-c", LOADED, "render", "--edl", edl, "--out", tmp_path / "ep.mp4",
                        "--dry-run")
    assert result.stderr == "0 [] []\n"
    assert result.stdout.startswith("ffmpeg ")


def test_help_leaves_numpy_unloaded():
    result = run_python("-c", LOADED, "--help")
    assert result.stderr == "0 [] []\n"
    assert result.stdout.startswith("usage: aiblob ")


def test_stats_loads_numpy_on_first_use(small_store):
    result = run_python("-c", LOADED, "stats", "--store", small_store)
    assert result.stderr == "0 [] ['numpy']\n"
