"""Transcript ingestion: parse word-timestamped transcript files and cut them
into timestamped sentences with stable content-hash identifiers.

A transcript file is a UTF-8 JSON object:

    {"video_id": str, "title": str, "source_uri": str, "language": str,
     "words": [{"w": str, "s": float, "e": float}, ...]}

The title, source_uri and language must be strings, but a parsed transcript
keeps only its video_id and its words, as three columns: texts, start times
and end times. Each column is checked in one pass for the whole transcript
(texts by one split of their join and one test that UTF-8 encodes it, time
types by set, time values by one numpy pass); only a transcript that fails is
walked word by word, so every error names the first faulty word exactly as a
per-word check would. Strings holding a lone surrogate, which a JSON \\u escape
can put there and UTF-8 cannot encode, are refused.

The sentence splitter is rule-based and language-light: it breaks after any
word ending in terminal punctuation, keeps a small Italian abbreviation stop
list, merges fragments shorter than ``min_chars`` forward, and never drops or
duplicates a word. The corpus file is line-delimited JSON with a header line,
so identical transcript bytes always produce byte-identical corpus output.
segment_file parses and segments one transcript file into its corpus lines,
the unit of work that `aiblob ingest` hands to its worker processes, and
export_corpus writes the lines of many files as one corpus.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, NoReturn, Sequence

from .errors import ParseError, ValidationError
from .util import (RecordFile, atomic_write_bytes, dumps_line, float_column, format_lines,
                   is_finite_number, is_utf8, np, parse_json, record_columns)

CORPUS_FORMAT = "aiblob-corpus"
CORPUS_VERSION = 1
DEFAULT_MIN_CHARS = 12

# Words ending with one of these split a sentence...
_TERMINALS = (".", "!", "?", "…")
# ...unless the word (lowercased, punctuation stripped) is a known abbreviation.
_ABBREVIATIONS = {"sig", "dott", "prof", "ecc", "on", "avv", "ing"}

_STRIP_EDGES = re.compile(r"^\W+|\W+$", re.UNICODE)


@dataclass
class TranscriptDocument:
    """A single video's word-timestamped transcript, held as three word columns:
    ``words[i]`` is spoken from ``starts[i]`` to ``ends[i]`` seconds."""

    video_id: str
    words: list[str]
    starts: list[float]
    ends: list[float]


@dataclass
class Sentence:
    """A timestamped sentence; the atomic unit of retrieval and editing.

    ``sentence_id`` is the first 128 bits of SHA-256 over
    ``"{video_id}\\x1f{ordinal}\\x1f{text}"`` rendered as lowercase hex, so
    identical inputs always yield identical ids.
    """

    sentence_id: str
    video_id: str
    ordinal: int
    text: str
    start_s: float
    end_s: float


def sentence_id_for(video_id: str, ordinal: int, text: str) -> str:
    payload = f"{video_id}\x1f{ordinal}\x1f{text}".encode("utf-8")
    return hashlib.sha256(payload).digest()[:16].hex()


def parse_transcript(data: bytes) -> TranscriptDocument:
    """Parse raw transcript file bytes into a validated TranscriptDocument.

    Raises ParseError for structural problems (with line/field context) and
    ValidationError for value problems (naming the offending word index).
    """
    obj = parse_json(data, "transcript")
    if not isinstance(obj, dict):
        raise ParseError("transcript root must be a JSON object")

    for field in ("video_id", "title", "source_uri", "language"):
        value = obj.get(field)
        if not isinstance(value, str):
            raise ParseError(f"transcript field '{field}' must be a string")
        if not is_utf8(value):
            raise ParseError(f"transcript field '{field}' must be a string without lone "
                             f"surrogates, got {value!r}")
    if not obj["video_id"]:
        raise ValidationError("transcript field 'video_id' must be non-empty")

    raw_words = obj.get("words")
    if not isinstance(raw_words, list):
        raise ParseError("transcript field 'words' must be a list")

    # One pass per column for the whole transcript; only a transcript that
    # fails it is walked word by word, to name its first fault.
    try:
        words = [entry["w"] for entry in raw_words]
        starts = [entry["s"] for entry in raw_words]
        ends = [entry["e"] for entry in raw_words]
        # float_column turns ints into floats in the lists, as float() makes them.
        start_array = float_column(starts)
        end_array = float_column(ends)
        # Splitting on whitespace gives the words back only if none is empty
        # and none holds whitespace (str.split and str.isspace share one set);
        # the join encodes only if no word holds a lone surrogate.
        joined = " ".join(words)
        ok = (start_array is not None and end_array is not None
              and joined.split() == words and is_utf8(joined)
              and ((start_array >= 0) & (end_array >= start_array)).all()
              and (start_array[1:] >= start_array[:-1]).all())
    except (TypeError, KeyError):
        ok = False
    if not ok:
        _raise_word_fault(raw_words)

    return TranscriptDocument(obj["video_id"], words, starts, ends)


def _raise_word_fault(raw_words: list) -> NoReturn:
    """Raise the error for the first faulty word of ``raw_words``, checking each
    word's rules in order. Only called once the column check has failed."""
    previous_start = None
    for i, entry in enumerate(raw_words):
        if not isinstance(entry, dict):
            raise ParseError(f"words[{i}] must be an object")
        text = entry.get("w")
        if not isinstance(text, str) or not text:
            raise ParseError(f"words[{i}].w must be a non-empty string")
        if not is_utf8(text):
            raise ParseError(f"words[{i}].w must be a string without lone surrogates, got {text!r}")
        if any(ch.isspace() for ch in text):
            raise ValidationError(f"words[{i}].w contains internal whitespace: {text!r}")
        start = entry.get("s")
        end = entry.get("e")
        if not is_finite_number(start):
            raise ParseError(f"words[{i}].s must be a finite number")
        if not is_finite_number(end):
            raise ParseError(f"words[{i}].e must be a finite number")
        start = float(start)
        end = float(end)
        if start < 0:
            raise ValidationError(f"words[{i}].s is negative ({start})")
        if end < start:
            raise ValidationError(f"words[{i}] ends at {end} before it starts at {start}")
        if previous_start is not None and start < previous_start:
            raise ValidationError(
                f"non-monotone word start time at index {i}: {start} < {previous_start}"
            )
        previous_start = start
    raise AssertionError("the column check rejected a transcript the word check accepts")


def _is_boundary(word_text: str) -> bool:
    if not word_text.endswith(_TERMINALS):
        return False
    stripped = _STRIP_EDGES.sub("", word_text.lower())
    return stripped not in _ABBREVIATIONS


def segment_sentences(doc: TranscriptDocument, min_chars: int = DEFAULT_MIN_CHARS) -> list[Sentence]:
    """Cut a transcript into sentences.

    Splits after any word ending in '.', '!', '?' or '…' (abbreviations
    excepted); trailing words without terminal punctuation form a final
    sentence; fragments shorter than ``min_chars`` merge into the following
    sentence (or the preceding one, if last). Sentence text is the
    space-joined word text, so segmentation is lossless.
    """
    if min_chars < 1:
        raise ValidationError(f"min_chars must be positive, got {min_chars}")
    words = doc.words
    if not words:
        return []

    # Fragment ends: after each boundary word, and after the last word.
    cuts = [stop for stop, boundary in enumerate(map(_is_boundary, words), 1) if boundary]
    if not cuts or cuts[-1] != len(words):
        cuts.append(len(words))
    # " ".join(words[a:b]) is offsets[b] - offsets[a] - 1 characters long.
    offsets = [0, *accumulate(len(word) + 1 for word in words)]

    # Merge short fragments forward; a short final fragment merges into its
    # predecessor instead.
    spans: list[tuple[int, int]] = []
    first = 0
    for stop in cuts:
        if offsets[stop] - offsets[first] - 1 >= min_chars or stop == cuts[-1]:
            spans.append((first, stop))
            first = stop
    if len(spans) >= 2 and offsets[spans[-1][1]] - offsets[spans[-1][0]] - 1 < min_chars:
        spans[-2:] = [(spans[-2][0], spans[-1][1])]

    sentences: list[Sentence] = []
    for ordinal, (first, stop) in enumerate(spans):
        text = " ".join(words[first:stop])
        sentences.append(
            Sentence(
                sentence_id=sentence_id_for(doc.video_id, ordinal, text),
                video_id=doc.video_id,
                ordinal=ordinal,
                text=text,
                start_s=doc.starts[first],
                end_s=doc.ends[stop - 1],
            )
        )
    return sentences


def segment_file(path: str,
                 min_chars: int) -> tuple[str, int, bytes] | ParseError | ValidationError | OSError:
    """Read, parse and segment the transcript file at ``path``, for ``aiblob
    ingest``: its video_id, sentence count and corpus lines (corpus_lines), or
    the ParseError, ValidationError or OSError it raised, returned for the
    caller to raise in file order. A parse or validation error's message starts
    with ``path``; an OSError names it already."""
    try:
        with open(path, "rb") as handle:
            doc = parse_transcript(handle.read())
    except (ParseError, ValidationError) as exc:
        return type(exc)(f"{path}: {exc}")
    except OSError as exc:
        return exc
    return (doc.video_id, *corpus_lines(segment_sentences(doc, min_chars)))


def corpus_lines(sentences: Sequence[Sentence]) -> tuple[int, bytes]:
    """The number of ``sentences`` and their corpus record lines, encoded as
    UTF-8: the bytes export_corpus writes for them (util.format_lines)."""
    text = "".join(format_lines(Sentence, record_columns(Sentence, sentences)))
    return len(sentences), text.encode("utf-8")


def export_corpus(files: Iterable[tuple[int, bytes]], path: str) -> int:
    """Atomically write a corpus file: the header line, then the record lines
    of each file's ``(count, lines)`` pair as corpus_lines makes it, in order.
    Each pair is written as it is taken, so the pairs are never all held at
    once, and an error that ``files`` raises leaves ``path`` as it was.

    Returns the number of records written. Output is byte-deterministic.
    """
    count = 0

    def parts() -> Iterator[bytes]:
        nonlocal count
        header = dumps_line({"format": CORPUS_FORMAT, "version": CORPUS_VERSION}) + "\n"
        yield header.encode("utf-8")
        for records, lines in files:
            count += records
            yield lines

    atomic_write_bytes(path, parts())
    return count


@dataclass
class Corpus:
    """A corpus file's sentences as columns, one per Sentence field: sentence
    ``i`` is ``Sentence(sentence_ids[i], video_ids[i], ordinals[i], texts[i],
    starts[i], ends[i])``. The times are float64 arrays, the other columns
    lists, and equal video ids are one str object, so each value is held once."""

    sentence_ids: list[str]
    video_ids: list[str]
    ordinals: list[int]
    texts: list[str]
    starts: np.ndarray
    ends: np.ndarray


def load_corpus(path: str) -> Corpus:
    """Read a corpus file back as columns, checking header, fields and unique ids.

    One check covers the whole file (util.RecordFile.columns); only a file that
    fails it is walked row by row, so a bad record raises ParseError and a
    repeated id ValidationError, each naming the line of the first fault.
    """
    records = RecordFile(path, CORPUS_FORMAT, (CORPUS_VERSION,), ParseError)
    return Corpus(*records.columns(Sentence, "corpus record", unique="sentence_id",
                                   shared="video_id"))
