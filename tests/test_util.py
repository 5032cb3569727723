"""Shared helpers: the one atomic writer and those that call it, the column
writer, the record builder, the provider retry loop and the numpy handle."""

import os
import stat

import numpy
import pytest

from aiblob.errors import ConfigError, ParseError, ProviderError, StoreError
from aiblob.ingest import Sentence
from aiblob.montage import RenderSettings
from aiblob.store import VectorRecord
from aiblob.util import (_WRITE_BLOCK_LINES, atomic_files, atomic_write_bytes, check_keys,
                         from_json, np, record_columns, retry, write_columns, write_json)


def sentence_columns(*sentences):
    return record_columns(Sentence, sentences)


def test_write_columns_bytes(tmp_path):
    path = tmp_path / "out.jsonl"
    write_columns(str(path), {"format": "f", "version": 1}, Sentence,
                  sentence_columns(Sentence("s0", "v", 0, "è \"x\",", 1.0, 2.5),
                                   Sentence("s1", "v", 1, "\n\u2028", -0.0, 1e16)))
    assert path.read_bytes() == (
        '{"format":"f","version":1}\n'
        '{"sentence_id":"s0","video_id":"v","ordinal":0,"text":"è \\"x\\",",'
        '"start_s":1.0,"end_s":2.5}\n'
        '{"sentence_id":"s1","video_id":"v","ordinal":1,"text":"\\n\u2028",'
        '"start_s":-0.0,"end_s":1e+16}\n'.encode("utf-8"))


def test_empty_columns_write_the_header_line_alone(tmp_path):
    path = tmp_path / "out.jsonl"
    write_columns(str(path), {"format": "f", "version": 1}, Sentence, sentence_columns())
    assert path.read_bytes() == b'{"format":"f","version":1}\n'


class _Unencodable(dict):
    """A JSON object whose encoding raises ``error``."""

    def __init__(self, error: BaseException):
        super().__init__(a=1)
        self.error = error

    def items(self):
        raise self.error


class _SentenceIds(list):
    """An id column whose slice past its first whole block raises ``error``,
    if given."""

    def __init__(self, rows: int, error: BaseException | None):
        super().__init__(f"s{i}" for i in range(rows))
        self.error = error

    def __getitem__(self, index):
        if self.error is not None and isinstance(index, slice) and index.start:
            raise self.error
        return super().__getitem__(index)


def _columns_writer(path: str, error: BaseException | None) -> None:
    rows = _WRITE_BLOCK_LINES + 1
    columns = [_SentenceIds(rows, error), ["v"] * rows, range(rows), ["t"] * rows,
               [0.0] * rows, [1.0] * rows]
    write_columns(path, {"format": "f"}, Sentence, columns)


def _json_writer(path: str, error: BaseException | None) -> None:
    write_json(path, {"a": 1} if error is None else _Unencodable(error))


def _bytes_writer(path: str, error: BaseException | None) -> None:
    def parts():
        yield b"x" * 4096
        if error is not None:
            raise error
        yield b"\n"

    atomic_write_bytes(path, parts())


# Each writer of the program's files, called with the error that one of its
# parts raises (None for a good write): the column source, the object being
# encoded, or the parts' generator.
WRITERS = [pytest.param(_columns_writer, id="write_columns"),
           pytest.param(_json_writer, id="write_json"),
           pytest.param(_bytes_writer, id="atomic_write_bytes")]


@pytest.mark.parametrize("failure", ["part-error", "part-interrupt", "replace-interrupt"])
@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("old", ["old\n", None], ids=["old-file", "no-file"])
def test_failure_mid_stream_keeps_the_old_file(tmp_path, monkeypatch, old, writer, failure):
    """An error or a KeyboardInterrupt raised by a part, or by the rename of
    the written temporary file, leaves the file as it was, or no file, and no
    temporary file."""
    path = tmp_path / "out.jsonl"
    if old is not None:
        path.write_text(old, encoding="utf-8")
    error = {"part-error": RuntimeError("part failed"),
             "part-interrupt": KeyboardInterrupt()}.get(failure)
    renamed = []
    if failure == "replace-interrupt":
        def interrupted(src, dst):
            renamed.append(os.path.exists(src))
            raise KeyboardInterrupt

        monkeypatch.setattr("aiblob.util.os.replace", interrupted)
    with pytest.raises(RuntimeError if failure == "part-error" else KeyboardInterrupt):
        writer(str(path), error)
    assert renamed == ([True] if failure == "replace-interrupt" else [])
    assert os.listdir(tmp_path) == ([] if old is None else ["out.jsonl"])
    if old is not None:
        assert path.read_text(encoding="utf-8") == old


@pytest.mark.parametrize("writer", WRITERS)
def test_a_taken_temporary_name_is_left_to_its_writer(tmp_path, monkeypatch, writer):
    """A temporary name that is already taken raises FileExistsError, and the
    file that holds it stays as it was."""
    monkeypatch.setattr("aiblob.util.os.urandom", bytes)
    taken = tmp_path / f".tmp-{bytes(6).hex()}-out.jsonl"
    taken.write_bytes(b"another writer's\n")
    with pytest.raises(FileExistsError):
        writer(str(tmp_path / "out.jsonl"), None)
    assert os.listdir(tmp_path) == [taken.name]
    assert taken.read_bytes() == b"another writer's\n"


@pytest.mark.parametrize("writer", WRITERS)
def test_a_failed_write_removes_the_directories_it_made(tmp_path, writer):
    (tmp_path / "a").mkdir()
    with pytest.raises(RuntimeError):
        writer(str(tmp_path / "a" / "b" / "c" / "out.jsonl"), RuntimeError("part failed"))
    assert os.listdir(tmp_path) == ["a"] and os.listdir(tmp_path / "a") == []


@pytest.mark.parametrize("made", ["directories", "temporary-file"])
def test_an_interrupt_just_after_a_make_leaves_nothing(tmp_path, monkeypatch, made):
    """An interrupt landing after a directory or a temporary file is made, but
    before the call that made it returns, still finds it removed."""
    def interrupted(make):
        def making(*args, **kwargs):
            result = make(*args, **kwargs)
            if result is not None:
                result.close()
            raise KeyboardInterrupt
        return making
    if made == "directories":
        monkeypatch.setattr("aiblob.util.os.makedirs", interrupted(os.makedirs))
    else:
        monkeypatch.setattr("aiblob.util.open", interrupted(open), raising=False)
    with pytest.raises(KeyboardInterrupt):
        atomic_write_bytes(str(tmp_path / "a" / "b" / "out"), [b"x"])
    assert os.listdir(tmp_path) == []


def test_every_file_is_written_before_the_first_rename(tmp_path, monkeypatch):
    renames = []
    replace = os.replace

    def renaming(src, dst):
        written = sorted(path.read_bytes() for path in tmp_path.glob(".tmp-*"))
        renames.append((os.path.basename(dst), written))
        replace(src, dst)
    monkeypatch.setattr("aiblob.util.os.replace", renaming)
    with atomic_files([str(tmp_path / "a"), str(tmp_path / "b")]) as (a, b):
        b.write(b"second")
        a.write(b"first")
    assert renames == [("a", [b"first", b"second"]), ("b", [b"second"])]
    assert sorted(os.listdir(tmp_path)) == ["a", "b"]


@pytest.mark.parametrize("short", [0, 3, _WRITE_BLOCK_LINES, _WRITE_BLOCK_LINES + 1])
@pytest.mark.parametrize("column", [0, 4])
def test_columns_of_unequal_length_raise(tmp_path, short, column):
    """No column may end early, in the first block or at a block boundary."""
    path = tmp_path / "out.jsonl"
    rows = _WRITE_BLOCK_LINES + 2
    columns = [[f"s{i}" for i in range(rows)], ["v"] * rows, list(range(rows)), ["t"] * rows,
               [0.0] * rows, [1.0] * rows]
    columns[column] = columns[column][:short]
    with pytest.raises(ValueError, match="columns of unequal length"):
        write_columns(str(path), {"format": "f"}, Sentence, columns)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("count", [5, 7])
def test_wrong_number_of_columns_raises(tmp_path, count):
    with pytest.raises(ValueError):
        write_columns(str(tmp_path / "out.jsonl"), {"format": "f"}, Sentence, [[]] * count)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_file_mode_follows_the_umask(tmp_path, umask, mode, writer):
    path = tmp_path / "out.jsonl"
    old = os.umask(umask)
    try:
        writer(str(path), None)
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
    ({"a": 1, "c\nd": 3, "e\x85": 4, "f g": 5}, "f.json: unknown key(s): 'c\\nd', 'e\\x85', f g"),
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


def test_numpy_handle_reads_numpy_and_caches_each_name():
    handle = type(np)()
    assert "ndarray" not in vars(handle)
    assert handle.ndarray is numpy.ndarray
    # A name read once is the handle's own attribute: its next read skips __getattr__.
    assert vars(handle)["ndarray"] is numpy.ndarray
    assert np.float64 is numpy.float64


def test_numpy_handle_refuses_an_unknown_name_as_the_module_does():
    with pytest.raises(AttributeError, match="no_such_name"):
        np.no_such_name
    assert "no_such_name" not in vars(np)
