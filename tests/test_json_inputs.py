"""The one JSON decoder, util.parse_json, and every file and reply read through it."""

import ast
import json
import pathlib

import numpy as np
import pytest

import aiblob
from aiblob.config import load_config
from aiblob.errors import ParseError, ProviderError, StoreError
from aiblob.ingest import export_corpus, load_corpus, parse_transcript
from aiblob.llm import RemoteChatProvider, ScriptedProvider
from aiblob.montage import load_edl
from aiblob.narrative import load_plan
from aiblob.store import VectorRecord, VectorStore
from aiblob.util import parse_json
from conftest import INT_LIMIT, OVERLONG, fixture_sentences, forge_digest, needs_int_limit


class TestParseJson:
    def test_decodes_str_and_utf8_bytes(self):
        assert parse_json('{"a": [1, 2.5, null]}', "f") == {"a": [1, 2.5, None]}
        assert parse_json('{"è": "\\u00e8"}'.encode("utf-8"), "f") == {"è": "è"}

    @pytest.mark.parametrize("data,message", [
        (b'{"a": "\xff"}', r"f\.json: not valid UTF-8 \(invalid start byte at byte 7\)"),
        ('{"a": 1,\n "b": }', r"f\.json: invalid JSON: Expecting value at line 2, column 7"),
        ("\ufeff{}", r"f\.json: invalid JSON: Unexpected UTF-8 BOM .* at line 1, column 1"),
        ("[" * 100_000, r"f\.json: invalid JSON: nested too deeply"),
    ], ids=["not UTF-8", "bad JSON", "BOM", "too deep"])
    def test_each_fault_raises_the_callers_error_naming_the_place(self, data, message):
        with pytest.raises(StoreError, match=f"^{message}$"):
            parse_json(data, "f.json", StoreError)

    @needs_int_limit
    def test_an_integer_past_the_int_limit(self):
        assert parse_json(OVERLONG[1:], "f") == 10 ** INT_LIMIT - 1
        with pytest.raises(ProviderError, match=rf"^f: invalid JSON: an integer of more than "
                                                rf"{INT_LIMIT} digits$"):
            parse_json(f'{{"n": {OVERLONG}}}', "f", ProviderError)


def test_json_is_decoded_only_in_util():
    """No module but util calls json.loads (or json.load): util.parse_json is the
    one decoder of every file and reply."""
    package = pathlib.Path(aiblob.__file__).parent
    callers = sorted(
        f"{path.name}:{node.lineno}" for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("loads", "load")
        and isinstance(node.value, ast.Name) and node.value.id == "json"
        and path.name != "util.py")
    assert callers == []


def put_overlong(path, old: str, new: str) -> None:
    """Replace the first ``old`` in the file at ``path`` by ``new``, in which
    "OVERLONG" stands for the digits of OVERLONG."""
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new.replace("OVERLONG", OVERLONG), 1), encoding="utf-8")


def store_with_an_overlong_row(directory):
    store = VectorStore(2)
    store.insert_batch([VectorRecord(f"s{i}", np.array([0.6, 0.8], np.float32), f"v{i % 2}",
                                     f"frase {i}", 2.0 * i, 2.0 * i + 1.5) for i in range(4)])
    store.save(str(directory))
    # Row 2, on line 4 of meta.jsonl, gets the over-long start.
    put_overlong(directory / "meta.jsonl", '"start_s":4.0,', '"start_s":OVERLONG,')
    return directory


@needs_int_limit
class TestOverlongIntegerAtEverySite:
    """An integer one digit past the int-to-string limit raises each decoding
    site's AiblobError, naming the file, and the line of a JSON-lines file."""

    MESSAGE = f"invalid JSON: an integer of more than {INT_LIMIT} digits$"

    def test_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"pipeline": {"k_per_query": %s}}' % OVERLONG, encoding="utf-8")
        with pytest.raises(ParseError, match=rf"config\.json: {self.MESSAGE}"):
            load_config(str(path))

    @pytest.mark.parametrize("load,name,doc", [
        (load_plan, "plan.json", '{"format": "aiblob-plan", "version": 1, "episode_title": "T",'
                                 ' "sections": {}, "scores": {"a": {"irony": OVERLONG}}}'),
        (load_edl, "edl.json", '{"format": "aiblob-edl", "version": 1, "episode_title": "T",'
                               ' "loudness": {"integrated_lufs": OVERLONG}}'),
    ])
    def test_plan_and_edl(self, tmp_path, load, name, doc):
        path = tmp_path / name
        path.write_text(doc.replace("OVERLONG", OVERLONG), encoding="utf-8")
        with pytest.raises(ParseError, match=rf"{name}: {self.MESSAGE}"):
            load(str(path))

    def test_corpus_row_in_a_decoded_block(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        export_corpus(fixture_sentences(n_videos=1, per_video=6), str(path))
        put_overlong(path, '"ordinal":2,', '"ordinal":OVERLONG,')
        with pytest.raises(ParseError, match=rf"corpus\.jsonl:4: {self.MESSAGE}"):
            load_corpus(str(path))

    def test_store_header(self, tmp_path):
        directory = store_with_an_overlong_row(tmp_path / "store")
        put_overlong(directory / "meta.jsonl", '"videos":2}', '"videos":OVERLONG}')
        with pytest.raises(ParseError, match=rf"meta\.jsonl:1: {self.MESSAGE}"):
            VectorStore.load(str(directory))

    def test_store_whose_metadata_changed_is_refused(self, tmp_path):
        # Its digest no longer matches, so no row is decoded.
        directory = store_with_an_overlong_row(tmp_path / "store")
        with pytest.raises(StoreError, match=r"vectors\.bin: digest does not match \S*meta\.jsonl"):
            VectorStore.load(str(directory))

    def test_store_with_a_forged_digest_at_top_k(self, tmp_path):
        directory = store_with_an_overlong_row(tmp_path / "store")
        forge_digest(directory)
        store = VectorStore.load(str(directory))
        with pytest.raises(ParseError, match=rf"meta\.jsonl:4: {self.MESSAGE}"):
            store.top_k(np.array([0.6, 0.8]), 4)

    def test_transcript(self):
        data = json.dumps({"video_id": "v", "title": "t", "source_uri": "u", "language": "it",
                           "words": [{"w": "Ciao.", "s": 0.0, "e": 1.0}]})
        with pytest.raises(ParseError, match=f"^transcript: {self.MESSAGE}"):
            parse_transcript(data.replace('"e": 1.0', f'"e": {OVERLONG}').encode("utf-8"))

    def test_replay_file(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        path.write_text('{"op": "themes", "response": {"themes": ["a"]}}\n'
                        '{"op": "score", "response": {"n": %s}}\n' % OVERLONG, encoding="utf-8")
        with pytest.raises(ParseError, match=rf"replay\.jsonl:2: {self.MESSAGE}"):
            ScriptedProvider(str(path))

    def test_chat_reply_content(self):
        content = '{"themes": ["a"], "n": %s}' % OVERLONG
        provider = RemoteChatProvider("https://example.test/chat", "m", api_key="k", transport=(
            lambda url, body, api_key, timeout: {"choices": [{"message": {"content": content}}]}))
        with pytest.raises(ProviderError, match=f"^LLM returned free text: {self.MESSAGE}"):
            provider.complete("themes", {})
