"""The column readers of corpus and store metadata files against the per-row
readers of oracle_records.py: equal columns for valid files, and the same
error class and message for files with faults at random rows, for a store
read row by row as top_k ranks the rows (its digest forged to match). The
column writer against the per-row writer: the same bytes for every record
file. The block scanner of JsonLines, with blocks and chunks of a few bytes,
against the whole-file line reader: the same lines, numbers and errors."""

import dataclasses
import hashlib
import json
import math
import struct
import sys
from unittest import mock

import numpy as np
import pytest
from conftest import exact, store_columns
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracle_records import (oracle_lines, oracle_load_corpus, oracle_store_rows,
                            oracle_write_jsonl)

from aiblob import util
from aiblob.errors import AiblobError, ParseError
from aiblob.ingest import Sentence, load_corpus
from aiblob.llm import Candidate, QueryPhrase, ScoredSentence
from aiblob.store import VectorRecord, VectorStore
from aiblob.util import RecordFile, dumps_line, record_columns, write_columns

CHECKED = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow,
                                                        HealthCheck.function_scoped_fixture])
VALID_EXAMPLES = settings(CHECKED, max_examples=80)
FAULTY_EXAMPLES = settings(CHECKED, max_examples=20)

TEXTS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8) | st.sampled_from(
    ["", "a},{b", '"},\n{"', "\\", "[1,\n2]", " ", "ciao, come stai?"])
VALUES = {
    "str": TEXTS,
    "int": st.integers() | st.just(10**30),
    # Ints stand in float fields too, up to the largest float itself.
    "float": st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**6, 10**6)
    | st.just(int(sys.float_info.max)),
}
BAD_VALUES = {
    "str": st.sampled_from([None, 5, 1.5, True, [], {}, ["a"]]),
    "int": st.sampled_from([2.7, 1.0, True, False, None, "1", [1], {"n": 1}]),
    "float": st.sampled_from([True, False, None, "1.5", math.nan, math.inf, -math.inf, 10**400,
                              -10**400, int(sys.float_info.max) + 1, [1.0], {}]),
}
NOT_OBJECTS = st.sampled_from(['[1, 2]', '"row"', "5", "null", "{", "}", "{}", "not json",
                               '[{"sentence_id": "x"}]', "{,}"])
ENCODERS = [dumps_line, json.dumps, lambda row: json.dumps(row, ensure_ascii=False, indent=None,
                                                           separators=(" ,", " : "))]

# Field kinds in file key order.
CORPUS_FIELDS = [("sentence_id", "str"), ("video_id", "str"), ("ordinal", "int"),
                 ("text", "str"), ("start_s", "float"), ("end_s", "float")]
META_FIELDS = [("sentence_id", "str"), ("video_id", "str"), ("text", "str"),
               ("start_s", "float"), ("end_s", "float")]

ROW_FAULTS = ["kind", "missing key", "extra key", "renamed key", "not an object", "duplicate id",
              "lone surrogate"]
# Written as JSON escapes: UTF-8 cannot encode a lone surrogate.
SURROGATES = st.sampled_from(["\ud800", "\udbff", "\udc80", "\udfff"])
# Lines whose ",\n"-joined text decodes with as many rows as lines, though a
# per-line reader rejects them: one row split across two lines, and one line
# holding two rows.
MERGE_FAULTS = ["string across lines", "array across lines", "object across lines"]


def _split(line: str, marker: str, cut: int) -> list[str]:
    """``line`` cut in two around the character ``cut`` places into ``marker``
    (that character, a ",", is dropped: joining with "," would restore it)."""
    at = line.index(marker) + cut
    assert line[at] == ","
    return [line[:at], line[at + 1:]]


@st.composite
def record_files(draw, fields, faults=()):
    """The lines after the header of a record file with ``fields``, holding
    ``faults`` and up to two more drawn at random, each at its own row."""
    count = draw(st.integers(4 if faults else 0, 7))
    ids = draw(st.lists(TEXTS, min_size=count, max_size=count, unique=True))
    rows = [{name: ids[r] if name == "sentence_id" else draw(VALUES[kind])
             for name, kind in fields} for r in range(count)]
    faults = list(faults)
    if faults:
        faults += draw(st.lists(st.sampled_from(ROW_FAULTS + MERGE_FAULTS), max_size=2))
    merge = next((fault for fault in faults if fault in MERGE_FAULTS), None)
    targets = draw(st.permutations(range(count)))
    split_row = targets[-1] if merge else None
    not_objects = {}
    escaped = set()
    for fault, r in zip((f for f in faults if f in ROW_FAULTS), targets[:-1]):
        row = rows[r]
        name, kind = draw(st.sampled_from(fields))
        if fault == "lone surrogate":
            name = draw(st.sampled_from([n for n, k in fields if k == "str"]))
            cut = draw(st.integers(0, len(row[name])))
            row[name] = row[name][:cut] + draw(SURROGATES) + row[name][cut:]
            escaped.add(r)
        elif fault == "kind":
            row[name] = draw(BAD_VALUES[kind])
        elif fault == "missing key":
            del row[name]
        elif fault == "extra key":
            row[draw(st.sampled_from(["speaker", "vector", "Text"]))] = draw(VALUES[kind])
        elif fault == "renamed key":
            row[name + draw(st.sampled_from(["_", "s", " "]))] = row.pop(name)
        elif fault == "not an object":
            not_objects[r] = draw(NOT_OBJECTS)
        else:
            row["sentence_id"] = ids[draw(st.sampled_from([i for i in range(count) if i != r]))]

    lines = []
    halves = ()
    for r, row in enumerate(rows):
        if r in not_objects:
            lines.append(not_objects[r])
            continue
        if r == split_row:
            halves = (len(lines), len(lines) + 1)
            if merge == "string across lines":
                row["text"] = "a},{b"
                lines += _split(dumps_line(row), "a},{b", 2)
            elif merge == "array across lines":
                row["end_s"] = [1.5, 2.5]
                lines += _split(dumps_line(row), "[1.5,2.5]", 4)
            else:
                lines += _split(dumps_line(row), ',"video_id":', 0)
            continue
        if draw(st.integers(0, 9)) == 0:
            row = {key: row[key] for key in draw(st.permutations(list(row)))}
        line = json.dumps(row) if r in escaped else draw(st.sampled_from(ENCODERS))(row)
        if draw(st.integers(0, 19)) == 0:
            line = draw(st.sampled_from([" ", "\t"])) + line
        lines.append(line)
        if draw(st.integers(0, 19)) == 0:
            lines.append("")
    if merge:
        # One line holding two rows puts the line count back.
        whole = [i for i, line in enumerate(lines) if line and i not in halves]
        a, b = sorted(draw(st.lists(st.sampled_from(whole), min_size=2, max_size=2, unique=True)))
        lines[a] += draw(st.sampled_from([",", ", "])) + lines.pop(b)
    return lines


def write_lines(path, header: dict, lines: list[str]) -> None:
    path.unlink(missing_ok=True)
    path.write_text("\n".join([dumps_line(header), *lines, ""]), encoding="utf-8")


def outcome(read):
    """("ok", value) or the error class and message of an AiblobError."""
    try:
        return "ok", read()
    except AiblobError as exc:
        return type(exc).__name__, str(exc)


def as_read(columns, fields) -> str:
    """The per-row reader's ``columns`` of ``fields`` as the column reader gives
    them, a float column as a float64 array, compared exactly (exact)."""
    return exact(np.array(values, np.float64) if kind == "float" else values
                 for values, (_, kind) in zip(columns, fields))


def oracle_corpus_columns(path) -> str:
    """The per-row reader's corpus columns but the ordinal, which Corpus does
    not keep."""
    sentences = oracle_load_corpus(str(path))
    fields = [field for field in CORPUS_FIELDS if field[0] != "ordinal"]
    return as_read(([getattr(s, name) for s in sentences] for name, _ in fields), fields)


def oracle_store_columns(path) -> str:
    rows = oracle_store_rows(str(path))
    return as_read(([row[c] for row in rows] for c in range(len(META_FIELDS))), META_FIELDS)


def read_corpus_pair(path):
    """The column reader's and the per-row reader's outcomes for one corpus file;
    the exact reprs of the columns tell an int from a float, and a float64 array
    from a list."""
    got = outcome(lambda: exact(vars(load_corpus(str(path))).values()))
    want = outcome(lambda: oracle_corpus_columns(path))
    return got, want


def read_lazy_store(directory, lines):
    """The outcome of a store whose meta.jsonl holds ``lines``, with a digest that
    matches it: loaded, then every row decoded by one top_k. Its vectors.bin holds
    as many equal unit rows as meta.jsonl has non-empty lines, so only the
    metadata can fail, and top_k decodes every row at once, in row order."""
    count = sum(1 for line in lines if line)
    meta = directory / "meta.jsonl"
    write_lines(meta, {"format": "aiblob-store", "version": 2, "dim": 2, "embedder": None,
                       "videos": min(count, 1)}, lines)
    (directory / "vectors.bin").write_bytes(
        b"AIBV" + struct.pack("<IIQ", 2, 2, count) + struct.pack("<ff", 0.6, 0.8) * count
        + hashlib.sha256(meta.read_bytes()).digest())

    def read():
        store = VectorStore.load(str(directory))
        assert len(store.top_k([0.6, 0.8], max(count, 1))) == count
        return exact(store_columns(store))
    return outcome(read)


def oracle_store(directory):
    """The per-row reader's outcome for the meta.jsonl read_lazy_store wrote."""
    return outcome(lambda: oracle_store_columns(directory / "meta.jsonl"))


CORPUS_HEADER = {"format": "aiblob-corpus", "version": 1}


class TestValidFiles:
    @VALID_EXAMPLES
    @given(lines=record_files(CORPUS_FIELDS))
    def test_corpus_columns_equal(self, tmp_path, lines):
        write_lines(tmp_path / "corpus.jsonl", CORPUS_HEADER, lines)
        got, want = read_corpus_pair(tmp_path / "corpus.jsonl")
        assert want[0] == "ok"
        assert got == want

    @VALID_EXAMPLES
    @given(lines=record_files(META_FIELDS))
    def test_store_columns_equal(self, tmp_path, lines):
        got = read_lazy_store(tmp_path, lines)
        want = oracle_store(tmp_path)
        assert want[0] == "ok"
        assert got == want

    def test_keys_in_another_order_load_equal(self, tmp_path):
        rows = [{"end_s": 2.0, "start_s": 1, "text": "ciao", "video_id": "v", "sentence_id": s}
                for s in ("a", "b")]
        lines = list(map(dumps_line, rows))
        got = read_lazy_store(tmp_path, lines)
        want = oracle_store(tmp_path)
        assert got == want == ("ok", repr((["a", "b"], ["v", "v"], ["ciao", "ciao"],
                                           ("float64", [1.0, 1.0]), ("float64", [2.0, 2.0]))))


@pytest.mark.parametrize("fault", ROW_FAULTS + MERGE_FAULTS)
class TestFaultyFiles:
    @FAULTY_EXAMPLES
    @given(data=st.data())
    def test_corpus_error_equal(self, tmp_path, fault, data):
        lines = data.draw(record_files(CORPUS_FIELDS, [fault]))
        write_lines(tmp_path / "corpus.jsonl", CORPUS_HEADER, lines)
        got, want = read_corpus_pair(tmp_path / "corpus.jsonl")
        assert got == want

    @FAULTY_EXAMPLES
    @given(data=st.data())
    def test_store_error_equal(self, tmp_path, fault, data):
        lines = data.draw(record_files(META_FIELDS, [fault]))
        assert read_lazy_store(tmp_path, lines) == oracle_store(tmp_path)


@pytest.mark.parametrize("merge", MERGE_FAULTS)
def test_line_merges_decode_to_as_many_rows_as_lines(merge):
    """The merge faults are the ones a ",\\n" join alone does not catch: their
    joined text decodes, and the row count matches the line count."""
    rows = [{name: f"{name}{r}" if kind == "str" else r for name, kind in META_FIELDS}
            for r in range(4)]
    lines = [dumps_line(row) for row in rows]
    if merge == "string across lines":
        rows[1]["text"] = "a},{b"
        lines[1:2] = _split(dumps_line(rows[1]), "a},{b", 2)
        separator = ","  # the string crosses a line only when joined with ","
    elif merge == "array across lines":
        rows[1]["end_s"] = [1.5, 2.5]
        lines[1:2] = _split(dumps_line(rows[1]), "[1.5,2.5]", 4)
        separator = ",\n"
    else:
        lines[1:2] = _split(dumps_line(rows[1]), ',"video_id":', 0)
        separator = ",\n"
    lines[3:5] = [lines[3] + "," + lines[4]]
    decoded = json.loads("[" + separator.join(lines) + "]")
    assert len(decoded) == len(lines)
    assert all(isinstance(row, dict) for row in decoded)


# Strings and floats that a JSON encoder must get exactly right: quotes,
# backslashes, a value that splitting on '","' would cut, control characters,
# line separators, non-BMP characters; -0.0, the smallest subnormal, the first
# float repr writes with an exponent, and the largest float.
WRITTEN = {
    "str": st.text(st.characters(blacklist_categories=("Cs",)), max_size=8) | st.sampled_from(
        ['"', "\\", 'x",', 'x","b', '""', "", "\x00\x1f\x7f", "\u2028\u2029", "\U0001f600"]),
    "int": st.integers() | st.just(10**30),
    "float": st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e16, sys.float_info.max]),
}
RECORD_CLASSES = [Sentence, VectorRecord, QueryPhrase, Candidate, ScoredSentence]


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
@settings(CHECKED, max_examples=60)
@given(data=st.data())
def test_column_writer_matches_the_per_row_writer(tmp_path, cls, data):
    """write_columns writes the bytes of one dumps_line per row dict, block size
    aside, and RecordFile.columns reads the same columns back."""
    fields = [(f.name, f.type) for f in dataclasses.fields(cls) if f.type in WRITTEN]
    rows = [{name: data.draw(WRITTEN[kind]) for name, kind in fields}
            for _ in range(data.draw(st.integers(0, 9)))]
    unwritten = {"vector": None} if cls is VectorRecord else {}
    records = [cls(**row, **unwritten) for row in rows]
    header = {"format": "aiblob-records", "version": 1}
    new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
    with mock.patch.object(util, "_WRITE_BLOCK_LINES", data.draw(st.integers(1, 4))):
        write_columns(str(new), header, cls, record_columns(cls, records))
    oracle_write_jsonl(str(old), header, rows)
    assert new.read_bytes() == old.read_bytes()
    columns = RecordFile(str(new), "aiblob-records", (1,), ParseError).columns(cls)
    assert exact(columns) == as_read(([row[name] for row in rows] for name, _ in fields), fields)


# Values of a float field that a float64 array column must write exactly as a
# list of the same floats does: -0.0, the smallest subnormal, the first float
# repr writes with an exponent, a power of ten past 2**53, the largest float;
# and ints, which a float field holds as their nearest float (2**53 + 1 is the
# first int that rounds).
ARRAY_FLOATS = WRITTEN["float"] | st.sampled_from([1e22, 2**53 + 1, 3, -7, 0]) \
    | st.integers(-2**62, 2**62)


@pytest.mark.parametrize("cls", [Sentence, VectorRecord, Candidate], ids=lambda cls: cls.__name__)
@settings(CHECKED, max_examples=60)
@given(data=st.data())
def test_float_array_columns_write_the_bytes_of_float_lists(tmp_path, cls, data):
    """A float column given as a float64 array writes what the list of its
    values as Python floats writes, and reads back as that array."""
    fields = [(f.name, f.type) for f in dataclasses.fields(cls) if f.type in WRITTEN]
    count = data.draw(st.integers(0, 9))
    columns = [data.draw(st.lists(ARRAY_FLOATS if kind == "float" else WRITTEN[kind],
                                  min_size=count, max_size=count)) for _, kind in fields]
    floats = [list(map(float, values)) if kind == "float" else values
              for values, (_, kind) in zip(columns, fields)]
    arrays = [np.array(values, np.float64) if kind == "float" else values
              for values, (_, kind) in zip(columns, fields)]
    header = {"format": "aiblob-records", "version": 1}
    listed, arrayed = tmp_path / "lists.jsonl", tmp_path / "arrays.jsonl"
    with mock.patch.object(util, "_WRITE_BLOCK_LINES", data.draw(st.integers(1, 4))):
        write_columns(str(listed), header, cls, floats)
        write_columns(str(arrayed), header, cls, arrays)
    assert arrayed.read_bytes() == listed.read_bytes()
    read = RecordFile(str(arrayed), "aiblob-records", (1,), ParseError).columns(cls)
    assert exact(read) == exact(arrays)


# Pieces of JSON-lines files for the block scanner: line ends, a lone "\r",
# multi-byte UTF-8, and bytes that are not UTF-8 (a stray continuation byte, a
# lead byte cut short, a byte UTF-8 never uses).
UTF8_PIECES = [b"\n", b"\r\n", b"\r", b"{", b"}", b"a", b'"', b" ", b"\xc3\xa9",
               b"\xe2\x82\xac", b"\xf0\x9f\x8e\xac"]
PIECES = UTF8_PIECES + [b"\xff", b"\xc3", b"\x80"]


def small_blocks(chunk: int, chunks_per_block: int, lines_per_block: int):
    """JsonLines read in blocks of chunks_per_block chunks of ``chunk`` bytes,
    and RecordFile.columns decoding lines_per_block lines at a time."""
    return mock.patch.multiple(util, _CHUNK_BYTES=chunk,
                               _SCAN_BLOCK_BYTES=chunk * chunks_per_block,
                               _READ_BLOCK_LINES=lines_per_block)


def scanned(path, indices=None):
    """The outcome of reading back lines ``indices`` (every line by default) of
    ``path`` through JsonLines: (lineno, text) for each, or the error."""
    def read():
        lines = util.JsonLines(str(path), ParseError)
        chosen = np.arange(len(lines._starts)) if indices is None else np.array(indices, np.intp)
        return [(lines.lineno(index), text) for index, text in lines._lines(chosen)]
    return outcome(read)


def whole_file(path):
    return outcome(lambda: list(oracle_lines(str(path), ParseError)))


@settings(CHECKED, max_examples=300)
@given(pieces=st.lists(st.sampled_from(PIECES), max_size=40), chunk=st.integers(1, 5),
       chunks_per_block=st.integers(1, 3), lines_per_block=st.integers(1, 3))
def test_block_scanner_matches_the_whole_file_reader(tmp_path, pieces, chunk, chunks_per_block,
                                                     lines_per_block):
    """Lines split across blocks and chunks, "\r\n" split between two blocks,
    blank lines at block edges, no final newline, an empty file, and bytes
    that are not UTF-8 across a block edge (named by the same line and byte)."""
    path = tmp_path / "lines.jsonl"
    path.write_bytes(b"".join(pieces))
    with small_blocks(chunk, chunks_per_block, lines_per_block):
        assert scanned(path) == whole_file(path)


SPLIT_FILES = [
    b'{"a":"\xc3\xa9"}\r\n\r\n\n{"b":"x\ry"}\r\n\n{"c":1}',
    b'\n\r\n{"a":1}\r\r\n{"b":"\xe2\x82\xac"}\n\n',
    b'{"a":"ok"}\r\n{"b":"\xe2\x82"}\r\n{"c":"\xff"}\n',
]


@pytest.mark.parametrize("content", SPLIT_FILES, ids=["crlf", "blank-first", "bad-utf8"])
def test_a_line_split_at_every_offset(tmp_path, content):
    """Every block size, so each line and each "\r\n" is split at every offset."""
    path = tmp_path / "lines.jsonl"
    path.write_bytes(content)
    want = whole_file(path)
    for size in range(1, len(content) + 2):
        for chunk in sorted({1, size}):
            with small_blocks(chunk, size // chunk, 2):
                assert scanned(path) == want, (size, chunk)


@settings(CHECKED, max_examples=150)
@given(data=st.data(), chunk=st.integers(1, 7), lines_per_block=st.integers(1, 4))
def test_lines_read_back_in_any_order(tmp_path, data, chunk, lines_per_block):
    """Any lines, repeated and in any order, read back as the whole-file reader
    reads them, each block of them reading the runs of chunks it touches."""
    path = tmp_path / "lines.jsonl"
    path.write_bytes(b"".join(data.draw(st.lists(st.sampled_from(UTF8_PIECES), max_size=60))))
    kind, want = whole_file(path)
    indices = data.draw(st.lists(st.integers(0, max(len(want) - 1, 0)),
                                 max_size=12 if want else 0))
    with small_blocks(chunk, 2, lines_per_block):
        assert scanned(path, indices) == (kind, [want[i] for i in indices])


@settings(CHECKED, max_examples=60)
@given(data=st.data(), chunk=st.integers(1, 9), lines_per_block=st.integers(1, 3))
def test_store_columns_in_small_blocks_equal(tmp_path, data, chunk, lines_per_block):
    """The column reader over blocks of a few lines and chunks of a few bytes,
    for valid and faulty store metadata alike."""
    faults = data.draw(st.lists(st.sampled_from(ROW_FAULTS + MERGE_FAULTS), max_size=1))
    lines = data.draw(record_files(META_FIELDS, faults))
    with small_blocks(chunk, 3, lines_per_block):
        assert read_lazy_store(tmp_path, lines) == oracle_store(tmp_path)


def test_a_read_of_every_line_reads_each_chunk_once(tmp_path):
    """A columns call over lines in file order reads each chunk it touches
    once, though its blocks of lines share chunks at their edges."""
    path = tmp_path / "corpus.jsonl"
    rows = [{"sentence_id": f"s{i}", "video_id": "v", "ordinal": i, "text": "ciao " * (i % 7),
             "start_s": i, "end_s": i + 0.5} for i in range(40)]
    oracle_write_jsonl(str(path), CORPUS_HEADER, rows)
    read = []
    chunks = util.JsonLines._chunks

    def counted(self, first, last):
        read.extend(range(first, last + 1))
        return chunks(self, first, last)
    with small_blocks(16, 2, 3), mock.patch.object(util.JsonLines, "_chunks", counted):
        records = RecordFile(str(path), "aiblob-corpus", (1,), ParseError)
        read.clear()
        ids = records.columns(Sentence)[0]
    assert ids == [row["sentence_id"] for row in rows]
    assert sorted(read) == sorted(set(read))
    first = int(records._starts[1]) // 16
    assert set(read) == set(range(first, (path.stat().st_size - 1) // 16 + 1))
