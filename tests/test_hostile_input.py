"""Hostile input at every loader boundary and at every command.

Each loader gets arbitrary bytes, and valid documents with one value replaced
by arbitrary JSON (NaN, huge integers, an integer past the interpreter's
int-to-string limit and nested containers included), or one key deleted or
renamed. It must either return an object that the next stage can use or raise
AiblobError; any other exception fails the property. Each command, run on a
tiny valid workspace with one JSON file mutated so, with the store's
vectors.bin truncated, changed in its header or holding a NaN, or with one
argument replaced, must exit 0, or exit 1 with one `error:` line.
"""

import contextlib
import copy
import hashlib
import io
import json
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aiblob.cli import main
from aiblob.config import load_config
from aiblob.embeddings import MAX_DETERMINISTIC_DIM, RemoteEmbedder
from aiblob.errors import AiblobError, ProviderError
from aiblob.ingest import (Sentence, corpus_lines, export_corpus, load_corpus, parse_transcript,
                           segment_sentences)
from aiblob.llm import OPS, Candidate, ScriptedProvider, _score_entries
from aiblob.montage import RenderSettings, build_edl, load_edl, render
from aiblob.narrative import SECTION_ORDER, NarrativePlan, load_plan
from aiblob.store import VectorRecord, VectorStore
from aiblob.util import is_int, is_utf8
from conftest import forge_digest

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class _Overlong(int):
    """The integer of OVERLONG_DIGITS nines: one digit past the int-to-string
    limit, or 4,301 digits where the limit is off. json.dumps cannot write it
    under the limit, so dumps writes its digits into the text; its repr is
    short, as no decoder under the limit can hand such an int to a message."""

    def __repr__(self):
        return f"<an integer of {OVERLONG_DIGITS} digits>"


OVERLONG_DIGITS = max(getattr(sys, "get_int_max_str_digits", lambda: 0)(), 4300) + 1
OVERLONG = _Overlong(10 ** OVERLONG_DIGITS - 1)

# Values that sit on the edges of the loaders' checks, drawn as often as the rest.
# "\udc80" is a lone surrogate: a JSON escape decodes to it, and UTF-8 cannot
# encode it, so a loader that lets it through leaves a string no writer can write.
EDGE_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, 2**64, 1e4, -1, 0, 2.5,
                               True, None, "", "x", "{nope}", "\udc80", [], [1], {}, OVERLONG])
JSON_VALUES = EDGE_VALUES | st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                  max_size=3),
    max_leaves=6,
)

ARBITRARY_BYTES = st.binary(max_size=64) | st.sampled_from(
    [b"\xff\xfe{}", b'{"format": "\xe9"}\n', b"\xef\xbb\xbf{}", b"[" * 50])


def _paths(obj, prefix=()):
    yield prefix
    children = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in children:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, valid):
    """``valid`` with the value at one path replaced by arbitrary JSON, or its key
    deleted or renamed."""
    doc = copy.deepcopy(valid)
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(JSON_VALUES)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    change = draw(st.sampled_from(["replace", "delete", "rename"])) \
        if isinstance(parent, dict) else "replace"
    if change == "delete":
        del parent[path[-1]]
    elif change == "rename":
        parent[path[-1] + draw(st.text(min_size=1, max_size=3))] = parent.pop(path[-1])
    else:
        parent[path[-1]] = value
    return doc


# What dumps writes in place of OVERLONG before it swaps in the digits.
_PLACEHOLDER = "\x00over-long integer\x00"


def _placeheld(obj):
    if isinstance(obj, dict):
        return {key: _placeheld(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return list(map(_placeheld, obj))
    return _PLACEHOLDER if isinstance(obj, _Overlong) else obj


def dumps(obj) -> bytes:
    """UTF-8 JSON, with \\u escapes only where a lone surrogate needs one, and
    OVERLONG written as its digits."""
    obj = _placeheld(obj)
    try:
        data = json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        data = json.dumps(obj).encode("utf-8")
    return data.replace(json.dumps(_PLACEHOLDER).encode(), b"9" * OVERLONG_DIGITS)


def lines_of(doc) -> bytes:
    """JSON-lines bytes, one line per element of a (possibly mutated) line list."""
    items = doc if isinstance(doc, list) else [doc]
    return b"".join(dumps(item) + b"\n" for item in items)


def loaded(load):
    """load()'s result, or None when it raised AiblobError."""
    try:
        return load()
    except AiblobError:
        return None


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


def put(path, data: bytes):
    """Write data to a new file at path (truncating an old one can wait on a disk flush)."""
    path.unlink(missing_ok=True)
    path.write_bytes(data)
    return path


# -- transcripts ---------------------------------------------------------

TRANSCRIPT = {
    "video_id": "v1", "title": "t", "source_uri": "media/v1.mp4", "language": "it",
    "words": [{"w": "Ciao.", "s": 0.0, "e": 0.5}, {"w": "Come", "s": 0.6, "e": 0.9},
              {"w": "stai?", "s": 1.0, "e": 1.4}],
}


@FUZZ
@given(st.one_of(ARBITRARY_BYTES, mutated(TRANSCRIPT).map(dumps)))
def test_parse_transcript(data):
    doc = loaded(lambda: parse_transcript(data))
    if doc is not None:
        assert all(0 <= start <= end < math.inf for start, end in zip(doc.starts, doc.ends))
        segment_sentences(doc)


# -- corpus --------------------------------------------------------------

CORPUS = [
    {"format": "aiblob-corpus", "version": 1},
    {"sentence_id": "a1", "video_id": "v1", "ordinal": 0, "text": "Ciao.",
     "start_s": 0.0, "end_s": 0.5},
    {"sentence_id": "b2", "video_id": "v1", "ordinal": 1, "text": "Come stai?",
     "start_s": 0.6, "end_s": 1.4},
]


@FUZZ
@given(st.one_of(ARBITRARY_BYTES, mutated(CORPUS).map(lines_of)))
def test_load_corpus(workdir, data):
    path = put(workdir / "corpus.jsonl", data)
    corpus = loaded(lambda: load_corpus(str(path)))
    columns = list(vars(corpus).values()) if corpus is not None else [[]]
    assert len(set(map(len, columns))) == 1
    if corpus is not None:
        # The times are float64 arrays; their values are checked as Python floats.
        assert str(corpus.starts.dtype) == str(corpus.ends.dtype) == "float64"
        columns = [column.tolist() if hasattr(column, "tolist") else column
                   for column in columns]
    for s in map(Sentence, *columns):
        assert isinstance(s.sentence_id, str) and isinstance(s.video_id, str)
        assert isinstance(s.text, str) and is_int(s.ordinal)
        assert is_utf8(s.sentence_id + s.video_id + s.text)
        assert type(s.start_s) is float and math.isfinite(s.start_s)
        assert type(s.end_s) is float and math.isfinite(s.end_s)


# -- store ---------------------------------------------------------------

META = [
    {"format": "aiblob-store", "version": 2, "dim": 2, "embedder": None, "videos": 2},
    {"sentence_id": "a1", "video_id": "v1", "text": "Ciao.", "start_s": 0.0, "end_s": 0.5},
    {"sentence_id": "b2", "video_id": "v2", "text": "Come stai?", "start_s": 0.6,
     "end_s": 1.4},
]
# vectors.bin without its digest, and whole, its digest matching META.
VECTORS_BODY = b"AIBV" + struct.pack("<IIQ", 2, 2, 2) + np.array(
    [[0.6, 0.8], [1.0, 0.0]], dtype="<f4").tobytes()
VECTORS = VECTORS_BODY + hashlib.sha256(lines_of(META)).digest()


@FUZZ
@given(st.one_of(ARBITRARY_BYTES, mutated(META).map(lines_of)),
       st.one_of(st.just(VECTORS), ARBITRARY_BYTES,
                 st.binary(min_size=1, max_size=4).map(
                     lambda b: VECTORS_BODY[:-len(b)] + b + VECTORS[-32:])),
       st.booleans())
def test_vector_store_load(workdir, meta, vectors, forge):
    """Unforged, a store that loads is what save wrote, so top_k and save never
    raise on it. With ``forge``, vectors.bin ends with the digest of the drawn
    meta.jsonl, which load then reads row by row as top_k ranks the rows."""
    if forge and len(vectors) >= 32:
        vectors = vectors[:-32] + hashlib.sha256(meta).digest()
    directory = workdir / "store"
    directory.mkdir(exist_ok=True)
    put(directory / "meta.jsonl", meta)
    put(directory / "vectors.bin", vectors)
    store = loaded(lambda: VectorStore.load(str(directory)))
    if store is not None and store.count:
        query = np.zeros(store.dim)
        query[0] = 1.0
        if forge:
            hits = loaded(lambda: store.top_k(query, store.count))
        else:
            hits = store.top_k(query, store.count)
        if hits is not None:
            assert len({h.sentence_id for h in hits}) == store.count
            store.save(str(workdir / "saved"))


# A version 2 store, whose meta.jsonl is checked by a digest at the end of
# vectors.bin. Each mutated meta.jsonl is given a recomputed (forged) digest, so
# the load takes the digest-checked path and decodes a row only when it is used.
META_V2 = [
    {"format": "aiblob-store", "version": 2, "dim": 2, "embedder": "deterministic:2",
     "videos": 2},
    *({"sentence_id": f"s{i}", "video_id": f"v{i % 2}", "text": f"frase {i}",
       "start_s": 2.0 * i, "end_s": 2.0 * i + 1.5} for i in range(4)),
]
VECTORS_V2 = b"AIBV" + struct.pack("<IIQ", 2, 2, 4) + np.array(
    [[0.6, 0.8], [1.0, 0.0], [0.0, 1.0], [0.8, -0.6]], dtype="<f4").tobytes()
FORGED_CONFIG = {"pipeline": {"k_per_query": 4, "themes": 1, "phrases_per_theme": 1},
                 "providers": {"embedder": "deterministic:2"},
                 "media": {"uri_template": "media/{video_id}.mp4"}}
FORGED_REPLAY = [
    {"op": "themes", "response": {"themes": ["a"]}},
    {"op": "queries", "response": {"queries": [{"theme_index": 0, "text": "q"}]}},
    {"op": "score", "response": {"scores": [{"id": f"s{i}", "irony": 9, "relevance": 9}
                                            for i in range(4)]}},
]


def forged_store(directory, meta: bytes):
    directory.mkdir(exist_ok=True)
    put(directory / "meta.jsonl", meta)
    put(directory / "vectors.bin", VECTORS_V2 + hashlib.sha256(meta).digest())
    return directory


def cli(argv) -> tuple[int, str]:
    """``aiblob`` in this process: its exit code and standard error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(map(str, argv)))
    return code, err.getvalue()


def compose_and_stats(workdir, directory) -> list[tuple[int, str]]:
    put(workdir / "forged-config.json", dumps(FORGED_CONFIG))
    put(workdir / "forged-replay.jsonl", lines_of(FORGED_REPLAY))
    return [cli(["compose", "--store", directory, "--title", "T", "--out", workdir / "forged-ep",
                 "--config", workdir / "forged-config.json",
                 "--llm", f"scripted:{workdir / 'forged-replay.jsonl'}"]),
            cli(["stats", "--store", directory])]


def test_forged_store_fixture_composes(workdir):
    directory = forged_store(workdir / "forged", lines_of(META_V2))
    assert VectorStore.load(str(directory)).embedder == "deterministic:2"
    assert compose_and_stats(workdir, directory) == [(0, ""), (0, "")]


@FUZZ
@given(mutated(META_V2).map(lines_of))
def test_vector_store_with_a_forged_digest(workdir, meta):
    directory = forged_store(workdir / "forged", meta)
    store = loaded(lambda: VectorStore.load(str(directory)))
    if store is not None and store.count:
        query = np.zeros(store.dim)
        query[0] = 1.0
        hits = loaded(lambda: store.top_k(query, store.count))
        assert hits is None or len({h.sentence_id for h in hits}) == store.count
        loaded(lambda: store.save(str(workdir / "forged-saved")))
    for code, err in compose_and_stats(workdir, directory):
        # One line: a message may hold a character that str.splitlines splits at.
        assert code == 0 or (code == 1 and err.startswith("error:")
                             and err.count("\n") == 1), err


# -- plan ----------------------------------------------------------------

PLAN = {
    "format": "aiblob-plan", "version": 1, "episode_title": "T",
    "sections": {"introduction": ["a"], "build_up": ["b", "c"], "climax": ["d"],
                 "conclusion": ["e"]},
    "scores": {sid: {"irony": 5, "relevance": 7} for sid in "abcde"},
}


@FUZZ
@given(st.one_of(ARBITRARY_BYTES, mutated(PLAN).map(dumps)))
def test_load_plan(workdir, data):
    path = put(workdir / "plan.json", data)
    result = loaded(lambda: load_plan(str(path)))
    if result is not None:
        plan, scored = result
        assert tuple(plan.sections) == SECTION_ORDER
        for sid in plan.all_ids():
            assert is_int(scored[sid].irony) and is_int(scored[sid].relevance)


# -- EDL -----------------------------------------------------------------

def _clip(sid, start):
    return {"source_uri": f"media/{sid}.mp4", "in_s": start, "out_s": start + 2.0,
            "fade_in_s": 0.04, "fade_out_s": 0.04, "sentence_id": sid, "text": sid}


EDL = {
    "format": "aiblob-edl", "version": 1, "episode_title": "T",
    "loudness": {"integrated_lufs": -16.0, "true_peak_dbtp": -1.5},
    "compression": {"ratio": 3.0, "threshold_db": -18.0},
    "intro": {**_clip("intro", 0.0), "sentence_id": None},
    "sections": {name: [_clip(name[:2], 10.0 * i)] for i, name in enumerate(SECTION_ORDER)},
}


@FUZZ
@given(st.one_of(ARBITRARY_BYTES, mutated(EDL).map(dumps)))
def test_load_edl_then_dry_run(workdir, data):
    path = put(workdir / "edl.json", data)
    edl = loaded(lambda: load_edl(str(path)))
    if edl is not None:
        assert tuple(edl.sections) == SECTION_ORDER
        loaded(lambda: render(edl, str(workdir / "out.mp4"), RenderSettings(), dry_run=True))


# -- config --------------------------------------------------------------

CONFIG = {
    "pipeline": {"k_per_query": 10, "irony_threshold": 7, "relevance_threshold": 7,
                 "climax_quota": 0.2, "introduction_quota": 0.15, "conclusion_quota": 0.15,
                 "themes": 5, "phrases_per_theme": 4, "video_cap": None,
                 "ordering": "deterministic", "min_retained": 4},
    "render": {"pre_roll_s": 0.15, "post_roll_s": 0.25, "fade_s": 0.04,
               "integrated_lufs": -16.0, "true_peak_dbtp": -1.5, "compression_ratio": 3.0,
               "compression_threshold_db": -18.0, "renderer_path": "ffmpeg",
               "intro_max_s": 30.0},
    "providers": {"embedder": "deterministic:64", "llm": None, "llm_base_url": None,
                  "llm_model": None, "embed_base_url": None, "embed_model": None,
                  "score_batch_size": 20, "retries": 3},
    "media": {"uri_template": "media/{video_id}.mp4", "intro_uri": None},
}


@FUZZ
@given(st.one_of(ARBITRARY_BYTES, mutated(CONFIG).map(dumps)))
def test_load_config_then_build_and_dry_run(workdir, data):
    path = put(workdir / "config.json", data)
    config = loaded(lambda: load_config(str(path)))
    if config is not None:
        plan = NarrativePlan("T", {name: [name] for name in SECTION_ORDER})
        candidates = [Candidate(name, "v1", name, 10.0, 12.0, 0) for name in SECTION_ORDER]
        loaded(lambda: render(
            build_edl(plan, candidates, config.render, config.media.source_uri_for,
                      intro_source=config.media.intro_uri),
            str(workdir / "out.mp4"), config.render, dry_run=True))


# -- replay files and provider replies ---------------------------------------

REPLAY = [
    {"op": "themes", "response": {"themes": ["a", "b"]}},
    {"op": "queries", "response": {"queries": [{"theme_index": 0, "text": "q"}]}},
    {"op": "score", "response": {"scores": [{"id": "a1", "irony": 7, "relevance": 5}]}},
    {"op": "order", "response": {"order": ["a1", "b2"]}},
]


@FUZZ
@given(st.one_of(ARBITRARY_BYTES, mutated(REPLAY).map(lines_of)))
def test_scripted_provider(workdir, data):
    path = put(workdir / "replay.jsonl", data)
    provider = loaded(lambda: ScriptedProvider(str(path)))
    if provider is not None:
        for op in OPS:
            reply = loaded(lambda: provider.complete(op, {}))
            assert reply is None or isinstance(reply, dict)


SCORES = {"scores": [{"id": "a1", "irony": 7, "relevance": 5, "rationale": "r"},
                     {"id": "b2", "irony": 2.5, "relevance": 11}]}


@FUZZ
@given(mutated(SCORES))
def test_score_entries(response):
    try:
        entries = _score_entries(response)
    except ProviderError:
        return
    for sid, (irony, relevance, rationale) in entries.items():
        assert isinstance(sid, str) and isinstance(rationale, str) and is_utf8(rationale)
        assert 1 <= irony <= 10 and 1 <= relevance <= 10


EMBEDDINGS = {"embeddings": [[0.6, 0.8], [3, -4]]}
REPLY_ROWS = st.lists(st.lists(st.floats() | JSON_VALUES, min_size=1, max_size=3) | JSON_VALUES,
                      min_size=2, max_size=2)


@FUZZ
@given(st.one_of(mutated(EMBEDDINGS), REPLY_ROWS.map(lambda rows: {"embeddings": rows})))
def test_remote_embedder(reply):
    provider = RemoteEmbedder("https://example.test/embed", "m", api_key="k",
                              transport=lambda url, payload, api_key, timeout: reply)
    matrix = loaded(lambda: provider.embed(["a", "b"]))
    if matrix is not None:
        assert matrix.dtype == np.float32 and matrix.shape == (2, provider.dim)
        norms = np.linalg.norm(matrix.astype(np.float64), axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-5)


# -- every command -------------------------------------------------------

# A tiny valid workspace: each JSON file (a list of lines for a JSON-lines one)
# and the commands that read it. The store is the forged-digest fixture's, with
# its real digest.
ARTIFACTS = {
    "transcripts/v1.json": (TRANSCRIPT, ("ingest",)),
    "corpus.jsonl": (CORPUS, ("index",)),
    "config.json": (FORGED_CONFIG, ("index", "compose", "render")),
    "store/meta.jsonl": (META_V2, ("compose", "stats")),
    "replay.jsonl": (FORGED_REPLAY, ("compose",)),
    "edl.json": (EDL, ("render",)),
}


def serialized(name, doc) -> bytes:
    return lines_of(doc) if name.endswith(".jsonl") else dumps(doc)


def command_argv(w, command):
    return {
        "ingest": ["ingest", "--transcripts", w / "transcripts", "--out", w / "out.jsonl"],
        "index": ["index", "--corpus", w / "corpus.jsonl", "--store", w / "out-store",
                  "--embedder", "deterministic:2", "--config", w / "config.json"],
        "compose": ["compose", "--store", w / "store", "--title", "T", "--config",
                    w / "config.json", "--out", w / "ep", "--llm", f"scripted:{w / 'replay.jsonl'}"],
        "render": ["render", "--edl", w / "edl.json", "--out", w / "ep.mp4", "--dry-run",
                   "--config", w / "config.json"],
        "stats": ["stats", "--store", w / "store"],
    }[command]


def write_workspace(w):
    for name, (doc, _) in ARTIFACTS.items():
        (w / name).parent.mkdir(exist_ok=True)
        put(w / name, serialized(name, doc))
    forged_store(w / "store", serialized("meta.jsonl", META_V2))


@pytest.fixture(scope="module")
def command_workspace(tmp_path_factory):
    w = tmp_path_factory.mktemp("workspace")
    write_workspace(w)
    return w


def test_every_command_passes_on_the_valid_workspace(command_workspace):
    commands = sorted({command for _, readers in ARTIFACTS.values() for command in readers})
    assert [cli(command_argv(command_workspace, command))
            for command in commands] == [(0, "")] * 5


# The bytes of the workspace store's vectors.bin, its digest matching META_V2.
STORE_VECTORS = VECTORS_V2 + hashlib.sha256(lines_of(META_V2)).digest()


def _with_nan(value: int) -> bytes:
    data = bytearray(STORE_VECTORS)
    data[20 + 4 * value:24 + 4 * value] = struct.pack("<f", math.nan)
    return bytes(data)


def _with_header_byte(offset: int, change: int) -> bytes:
    data = bytearray(STORE_VECTORS)
    data[offset] ^= change
    return bytes(data)


VECTORS_BIN = st.one_of(
    st.integers(0, len(STORE_VECTORS) - 1).map(lambda size: STORE_VECTORS[:size]),
    st.builds(_with_header_byte, st.integers(0, 19), st.integers(1, 255)),
    st.builds(_with_nan, st.integers(0, 7)),
)

# Argument values a command is run with: embedder dims from a bounded range,
# plus the first one past MAX_DETERMINISTIC_DIM, which is refused before any row
# is allocated; --min-chars values; titles, a lone surrogate among them.
EMBEDDER_DIMS = st.integers(-2, 64) | st.just(MAX_DETERMINISTIC_DIM + 1)
ARGUMENTS = {
    ("index", "--embedder"): EMBEDDER_DIMS.map("deterministic:{}".format),
    ("ingest", "--min-chars"): (st.integers(-2, 40) | st.just(10**30)).map(str),
    ("compose", "--title"): st.sampled_from(["\udc80", "Il calcio \udc80", "", " "])
                            | st.text(max_size=4),
}


@st.composite
def command_cases(draw):
    """A command and one change to what it reads: one artifact mutated (the
    store's meta.jsonl without a forged digest, so that load refuses it as not
    matching vectors.bin, or with one, so that its rows are decoded when top_k
    ranks them), vectors.bin's bytes truncated, with a header byte changed or
    with a NaN value, or one argument replaced."""
    kind = draw(st.sampled_from(["artifact", "vectors.bin", "argument"]))
    if kind == "artifact":
        name, command = draw(st.sampled_from([(name, command)
                                              for name, (_, readers) in ARTIFACTS.items()
                                              for command in readers]))
        return command, kind, name, draw(mutated(ARTIFACTS[name][0])), draw(st.booleans())
    if kind == "vectors.bin":
        return draw(st.sampled_from(["compose", "stats"])), kind, draw(VECTORS_BIN)
    command, flag = draw(st.sampled_from(list(ARGUMENTS)))
    return command, kind, flag, draw(ARGUMENTS[command, flag])


@settings(FUZZ, max_examples=200)
@given(command_cases())
def test_every_command_on_a_mutated_artifact(command_workspace, case):
    command, kind, *change = case
    w = command_workspace
    write_workspace(w)
    argv = command_argv(w, command)
    if kind == "artifact":
        name, doc, forge = change
        put(w / name, serialized(name, doc))
        if forge and name == "store/meta.jsonl":
            forge_digest(w / "store")
    elif kind == "vectors.bin":
        put(w / "store" / "vectors.bin", change[0])
    else:
        flag, value = change
        if flag in argv:
            del argv[argv.index(flag):argv.index(flag) + 2]
        argv.append(f"{flag}={value}")  # so that a value may start with "-"
    code, err = cli(argv)
    # One line: a message may hold a character that str.splitlines splits at.
    assert code == 0 or (code == 1 and err.startswith("error:") and err.count("\n") == 1), err


# -- ids in error messages -----------------------------------------------

# A JSON escape can put a line break in an id; an error naming the id shows it
# by repr, so the message stays on one line.
LINE_BREAKING_IDS = ["a\nb", "a\x85b"]


def _record(sentence_id, vector=(0.6, 0.8)):
    return VectorRecord(sentence_id, np.array(vector, np.float32), "v", "t", 0.0, 1.0)


def _saved_store(directory, records):
    store = VectorStore(2)
    store.insert_batch(records)
    store.save(str(directory))
    return directory


def _duplicate_in_corpus(directory, sid):
    path = str(directory / "corpus.jsonl")
    export_corpus([corpus_lines([Sentence(sid, "v", i, "t", 0.0, 1.0) for i in range(2)])],
                  path)
    load_corpus(path)


def _duplicate_at_insert(directory, sid):
    VectorStore(2).insert_batch([_record(sid), _record(sid)])


def _duplicate_at_lazy_decode(directory, sid):
    directory = _saved_store(directory, [_record(sid), _record("b")])
    meta = directory / "meta.jsonl"
    meta.write_text(meta.read_text(encoding="utf-8").replace('"b"', json.dumps(sid)),
                    encoding="utf-8")
    forge_digest(directory)
    VectorStore.load(str(directory)).top_k(np.array([0.6, 0.8]), 2)


def _nan_at_insert(directory, sid):
    VectorStore(2).insert_batch([_record(sid, (math.nan, 1.0))])


def _nan_at_load(directory, sid):
    directory = _saved_store(directory, [_record(sid)])
    vectors = directory / "vectors.bin"
    data = bytearray(vectors.read_bytes())
    data[20:24] = struct.pack("<f", math.nan)
    vectors.write_bytes(bytes(data))
    VectorStore.load(str(directory))


@pytest.mark.parametrize("sid", LINE_BREAKING_IDS)
@pytest.mark.parametrize("site,message", [
    (_duplicate_in_corpus, "corpus.jsonl:3: duplicate sentence_id {}"),
    (_duplicate_at_insert, "duplicate sentence_id {}"),
    (_duplicate_at_lazy_decode, "meta.jsonl:3: duplicate sentence_id {}"),
    (_nan_at_insert, "record {}: vector has NaN/Inf"),
    (_nan_at_load, "record {}: vector has NaN/Inf"),
])
def test_an_id_that_breaks_lines_is_quoted(tmp_path, site, message, sid):
    with pytest.raises(AiblobError) as caught:
        site(tmp_path, sid)
    assert str(caught.value).endswith(message.format(repr(sid)))
    assert len(str(caught.value).splitlines()) == 1
