"""Per-word reference for transcript parsing and sentence segmentation.

This is the object-per-word design the package used before it moved to word
columns: every word is checked by its own rules in order and becomes one
``WordToken``, and segmentation builds word lists and re-joins their text on
every merge step. The differential tests in ``test_ingest.py`` hold the
columnar code to the same sentences, and to the same error class and message
for every faulty transcript.
"""

import json
import re
import sys
from dataclasses import dataclass

from aiblob.errors import ParseError, ValidationError
from aiblob.ingest import Sentence, sentence_id_for

_TERMINALS = (".", "!", "?", "…")
_ABBREVIATIONS = {"sig", "dott", "prof", "ecc", "on", "avv", "ing"}
_STRIP_EDGES = re.compile(r"^\W+|\W+$", re.UNICODE)


@dataclass
class WordToken:
    text: str
    start_s: float
    end_s: float


@dataclass
class OracleDocument:
    video_id: str
    words: list


def _is_finite_number(value):
    is_number = (isinstance(value, int) and not isinstance(value, bool)) or isinstance(value, float)
    return is_number and abs(value) <= sys.float_info.max


def _encodable(text):
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def oracle_parse_transcript(data: bytes) -> OracleDocument:
    try:
        obj = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"transcript: not valid UTF-8 ({exc.reason} at byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"transcript: invalid JSON: {exc.msg} at line {exc.lineno}, "
                         f"column {exc.colno}") from exc
    except RecursionError as exc:
        raise ParseError("transcript: invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # an integer past the int-to-string limit
        raise ParseError(f"transcript: invalid JSON: an integer of more than "
                         f"{sys.get_int_max_str_digits()} digits") from exc
    if not isinstance(obj, dict):
        raise ParseError("transcript root must be a JSON object")

    for field in ("video_id", "title", "source_uri", "language"):
        value = obj.get(field)
        if not isinstance(value, str):
            raise ParseError(f"transcript field '{field}' must be a string")
        if not _encodable(value):
            raise ParseError(f"transcript field '{field}' must be a string without lone "
                             f"surrogates, got {value!r}")
    if not obj["video_id"]:
        raise ValidationError("transcript field 'video_id' must be non-empty")

    raw_words = obj.get("words")
    if not isinstance(raw_words, list):
        raise ParseError("transcript field 'words' must be a list")

    words = []
    previous_start = None
    for i, entry in enumerate(raw_words):
        if not isinstance(entry, dict):
            raise ParseError(f"words[{i}] must be an object")
        text = entry.get("w")
        if not isinstance(text, str) or not text:
            raise ParseError(f"words[{i}].w must be a non-empty string")
        if not _encodable(text):
            raise ParseError(f"words[{i}].w must be a string without lone surrogates, got {text!r}")
        if any(ch.isspace() for ch in text):
            raise ValidationError(f"words[{i}].w contains internal whitespace: {text!r}")
        start = entry.get("s")
        end = entry.get("e")
        if not _is_finite_number(start):
            raise ParseError(f"words[{i}].s must be a finite number")
        if not _is_finite_number(end):
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
        words.append(WordToken(text=text, start_s=start, end_s=end))
    return OracleDocument(video_id=obj["video_id"], words=words)


def _is_boundary(word_text):
    if not word_text.endswith(_TERMINALS):
        return False
    stripped = _STRIP_EDGES.sub("", word_text.lower())
    return stripped not in _ABBREVIATIONS


def _text_of(words):
    return " ".join(w.text for w in words)


def oracle_segment_sentences(doc: OracleDocument, min_chars: int) -> list:
    if not doc.words:
        return []

    fragments = []
    current = []
    for word in doc.words:
        current.append(word)
        if _is_boundary(word.text):
            fragments.append(current)
            current = []
    if current:
        fragments.append(current)

    merged = []
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

    sentences = []
    for ordinal, group in enumerate(merged):
        text = _text_of(group)
        sentences.append(Sentence(
            sentence_id=sentence_id_for(doc.video_id, ordinal, text),
            video_id=doc.video_id,
            ordinal=ordinal,
            text=text,
            start_s=group[0].start_s,
            end_s=group[-1].end_s,
        ))
    return sentences
