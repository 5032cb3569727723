"""Shared helpers: the atomic writers, the record builder and the provider retry loop."""

import os
import stat

import pytest

from aiblob.errors import ConfigError, ParseError, ProviderError, StoreError
from aiblob.ingest import Sentence
from aiblob.montage import RenderSettings
from aiblob.store import VectorRecord
from aiblob.util import check_keys, from_json, retry, write_json, write_jsonl


def test_write_jsonl_bytes(tmp_path):
    path = tmp_path / "out.jsonl"
    write_jsonl(str(path), {"format": "f", "version": 1}, ({"i": i, "t": "è"} for i in range(2)))
    assert path.read_bytes() == (
        '{"format":"f","version":1}\n{"i":0,"t":"è"}\n{"i":1,"t":"è"}\n'.encode("utf-8"))


def test_failure_mid_stream_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.jsonl"
    path.write_text("old\n", encoding="utf-8")

    def rows():
        yield {"i": 0}
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError):
        write_jsonl(str(path), {"format": "f"}, rows())
    assert path.read_text(encoding="utf-8") == "old\n"
    assert os.listdir(tmp_path) == ["out.jsonl"]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_file_mode_follows_the_umask(tmp_path, umask, mode):
    path = tmp_path / "out.jsonl"
    old = os.umask(umask)
    try:
        write_jsonl(str(path), {"format": "f"}, [])
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode


def test_retry_sleeps_the_backoff_and_names_what_failed():
    delays = []
    attempts = []

    def call():
        attempts.append(len(attempts))
        raise ProviderError(f"down {len(attempts)}")

    with pytest.raises(ProviderError, match=r"^embedding for texts\[0:4\] failed after 5 "
                                            r"attempts: down 5$"):
        retry(call, 5, "embedding for texts[0:4]", (0.5, 2.0, 8.0), sleep=delays.append)
    assert attempts == [0, 1, 2, 3, 4]
    assert delays == [0.5, 2.0, 8.0, 8.0]


SENTENCE = {"sentence_id": "s1", "video_id": "v1", "ordinal": 0, "text": "Ciao.",
            "start_s": 1, "end_s": 2.5}


def test_from_json_builds_the_record_and_makes_int_times_floats():
    sentence = from_json(Sentence, SENTENCE, ParseError, "c.jsonl:2")
    assert sentence == Sentence("s1", "v1", 0, "Ciao.", 1.0, 2.5)
    assert type(sentence.start_s) is float


@pytest.mark.parametrize("data,message", [
    ([SENTENCE], "c.jsonl:2: expected a JSON object, got list"),
    ({**SENTENCE, "b": 1, "a": 2}, "c.jsonl:2: unknown key(s): a, b"),
    ({k: v for k, v in SENTENCE.items() if k not in ("text", "ordinal")},
     "c.jsonl:2: missing key(s): ordinal, text"),
    ({**SENTENCE, "ordinal": 1.0}, "c.jsonl:2: ordinal must be an integer, got 1.0"),
    ({**SENTENCE, "end_s": False}, "c.jsonl:2: end_s must be a finite number, got False"),
], ids=["non-object", "unknown-keys", "missing-keys", "float-ordinal", "bool-time"])
def test_from_json_rejects_with_the_callers_error_and_place(data, message):
    with pytest.raises(ParseError) as caught:
        from_json(Sentence, data, ParseError, "c.jsonl:2")
    assert str(caught.value) == message


def test_from_json_takes_given_fields_and_skips_unlisted_kinds():
    row = {key: SENTENCE[key] for key in ("sentence_id", "video_id", "text", "start_s", "end_s")}
    record = from_json(VectorRecord, row, StoreError, "meta.jsonl:2", vector="not checked")
    assert record.vector == "not checked" and record.start_s == 1.0
    with pytest.raises(StoreError, match=r"meta.jsonl:2: unknown key\(s\): vector"):
        from_json(VectorRecord, {**row, "vector": []}, StoreError, "meta.jsonl:2", vector=None)


def test_from_json_prefixes_the_place_to_an_error_raised_while_building():
    with pytest.raises(ConfigError) as caught:  # the class the record raised, not ``error``
        from_json(RenderSettings, {"fade_s": -1}, ParseError, "c.json: config section 'render'")
    assert str(caught.value) == \
        "c.json: config section 'render': fade_s must be at least 0, got -1.0"


@pytest.mark.parametrize("data,message", [
    ({"a": 1, "b": 2}, None),
    ({"a": 1}, None),
    ({"b": 2}, "f.json: missing key(s): a"),
    ({"a": 1, "c": 3, "d": 4}, "f.json: unknown key(s): c, d"),
    ("ab", "f.json: expected a JSON object, got str"),
])
def test_check_keys(data, message):
    if message is None:
        check_keys(data, ("a", "b"), ParseError, "f.json", optional={"b"})
        return
    with pytest.raises(ParseError) as caught:
        check_keys(data, ("a", "b"), ParseError, "f.json", optional={"b"})
    assert str(caught.value) == message


def test_write_json_bytes(tmp_path):
    path = tmp_path / "doc.json"
    write_json(str(path), {"b": "perché", "a": [1, None]})
    assert path.read_bytes() == \
        '{\n  "b": "perché",\n  "a": [\n    1,\n    null\n  ]\n}\n'.encode("utf-8")
