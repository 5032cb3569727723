"""Transcript ingestion: parse word-timestamped transcript files and cut them
into timestamped sentences with stable content-hash identifiers.

A transcript file is a UTF-8 JSON object:

    {"video_id": str, "title": str, "source_uri": str, "language": str,
     "words": [{"w": str, "s": float, "e": float}, ...]}

The sentence splitter is rule-based and language-light: it breaks after any
word ending in terminal punctuation, keeps a small Italian abbreviation stop
list, merges fragments shorter than ``min_chars`` forward, and never drops or
duplicates a word. The corpus file is line-delimited JSON with a header line,
so identical transcript bytes always produce byte-identical corpus output.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass

from .errors import ParseError, ValidationError
from .util import parse_json_line, read_jsonl, write_jsonl

CORPUS_FORMAT = "aiblob-corpus"
CORPUS_VERSION = 1
DEFAULT_MIN_CHARS = 12

# Words ending with one of these split a sentence...
_TERMINALS = (".", "!", "?", "…")
# ...unless the word (lowercased, punctuation stripped) is a known abbreviation.
_ABBREVIATIONS = {"sig", "dott", "prof", "ecc", "on", "avv", "ing"}

_STRIP_EDGES = re.compile(r"^\W+|\W+$", re.UNICODE)


@dataclass
class WordToken:
    """One recognized word with its start/end time in seconds."""

    text: str
    start_s: float
    end_s: float


@dataclass
class TranscriptDocument:
    """A single video's word-timestamped transcript."""

    video_id: str
    title: str
    source_uri: str
    language: str
    words: list[WordToken]


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
    try:
        obj = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"transcript is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid transcript JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(obj, dict):
        raise ParseError("transcript root must be a JSON object")

    for field in ("video_id", "title", "source_uri", "language"):
        value = obj.get(field)
        if not isinstance(value, str):
            raise ParseError(f"transcript field '{field}' must be a string")
    if not obj["video_id"]:
        raise ValidationError("transcript field 'video_id' must be non-empty")

    raw_words = obj.get("words")
    if not isinstance(raw_words, list):
        raise ParseError("transcript field 'words' must be a list")

    words: list[WordToken] = []
    previous_start = None
    for i, entry in enumerate(raw_words):
        if not isinstance(entry, dict):
            raise ParseError(f"words[{i}] must be an object")
        text = entry.get("w")
        if not isinstance(text, str) or not text:
            raise ParseError(f"words[{i}].w must be a non-empty string")
        if any(ch.isspace() for ch in text):
            raise ValidationError(f"words[{i}].w contains internal whitespace: {text!r}")
        start = entry.get("s")
        end = entry.get("e")
        if not isinstance(start, (int, float)) or isinstance(start, bool):
            raise ParseError(f"words[{i}].s must be a number")
        if not isinstance(end, (int, float)) or isinstance(end, bool):
            raise ParseError(f"words[{i}].e must be a number")
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
        words.append(WordToken(text=text, start_s=start, end_s=end))

    return TranscriptDocument(
        video_id=obj["video_id"],
        title=obj["title"],
        source_uri=obj["source_uri"],
        language=obj["language"],
        words=words,
    )


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
    if not doc.words:
        return []

    # First pass: split on terminal punctuation.
    fragments: list[list[WordToken]] = []
    current: list[WordToken] = []
    for word in doc.words:
        current.append(word)
        if _is_boundary(word.text):
            fragments.append(current)
            current = []
    if current:
        fragments.append(current)

    # Second pass: merge short fragments forward; a short final fragment
    # merges into its predecessor instead.
    merged: list[list[WordToken]] = []
    i = 0
    while i < len(fragments):
        group = list(fragments[i])
        while len(_text_of(group)) < min_chars and i + 1 < len(fragments):
            i += 1
            group.extend(fragments[i])
        merged.append(group)
        i += 1
    if len(merged) >= 2 and len(_text_of(merged[-1])) < min_chars:
        tail = merged.pop()
        merged[-1].extend(tail)

    sentences: list[Sentence] = []
    for ordinal, group in enumerate(merged):
        text = _text_of(group)
        sentences.append(
            Sentence(
                sentence_id=sentence_id_for(doc.video_id, ordinal, text),
                video_id=doc.video_id,
                ordinal=ordinal,
                text=text,
                start_s=group[0].start_s,
                end_s=group[-1].end_s,
            )
        )
    return sentences


def _text_of(words: list[WordToken]) -> str:
    return " ".join(w.text for w in words)


def export_corpus(sentences: list[Sentence], path: str) -> int:
    """Write sentences as a corpus file (header line + one JSON line each).

    Returns the number of records written. Output is byte-deterministic.
    """
    # A corpus line is one Sentence's fields, in declaration order.
    write_jsonl(path, {"format": CORPUS_FORMAT, "version": CORPUS_VERSION}, map(vars, sentences))
    return len(sentences)


def load_corpus(path: str) -> list[Sentence]:
    """Read a corpus file back into Sentence records, validating ids and header."""
    _header, lines = read_jsonl(path, CORPUS_FORMAT, CORPUS_VERSION)
    sentences: list[Sentence] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines, start=2):
        rec = parse_json_line(line, path, lineno)
        try:
            sentence = Sentence(
                sentence_id=rec["sentence_id"],
                video_id=rec["video_id"],
                ordinal=int(rec["ordinal"]),
                text=rec["text"],
                start_s=float(rec["start_s"]),
                end_s=float(rec["end_s"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}:{lineno}: bad corpus record: {exc}") from exc
        if sentence.sentence_id in seen:
            raise ValidationError(
                f"{path}:{lineno}: duplicate sentence_id {sentence.sentence_id}"
            )
        seen.add(sentence.sentence_id)
        sentences.append(sentence)
    return sentences
