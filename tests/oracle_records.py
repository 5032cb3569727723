"""Per-row reference for reading corpus and store metadata files, and for
writing every JSON-lines record file.

This is the object-per-row design the package used before it read and wrote
JSON-lines record files as columns. Reading, the file is split at "\n" (a
"\r" before it dropped), blank lines are skipped, and every other line is
decoded on its own, named by its line in the file, by ``parse_json_line`` and
checked by ``from_json`` into one record; ids are checked one at a time.
Writing, every row is one dict serialized by ``dumps_line``. The differential tests in ``test_records.py`` hold the column
readers to the same values, and to the same error class and message for every
faulty file, and the column writer to the same bytes.
"""

import operator
from typing import Any, Iterable, Iterator

from aiblob.errors import AiblobError, ParseError, StoreError, ValidationError
from aiblob.ingest import CORPUS_FORMAT, CORPUS_VERSION, Sentence
from aiblob.store import META_KEYS, STORE_FORMAT, STORE_VERSION, VectorRecord
from aiblob.util import check_header, dumps_line, from_json, parse_json_line

_meta_values = operator.attrgetter(*META_KEYS)


def _shown(sentence_id: str) -> str:
    """An id as an error message shows it: quoted by repr unless printable."""
    return sentence_id if sentence_id.isprintable() else repr(sentence_id)


def oracle_lines(path: str, error: type[AiblobError]) -> Iterator[tuple[int, str]]:
    """(lineno, text) for each non-blank line of a JSON-lines file, read whole,
    each line decoded from UTF-8 only when it is reached."""
    with open(path, "rb") as handle:
        raw = handle.read()
    offset = 0
    numbered = []
    for lineno, line in enumerate(raw.split(b"\n"), start=1):
        if line.removesuffix(b"\r"):
            numbered.append((lineno, offset, line.removesuffix(b"\r")))
        offset += len(line) + 1
    for lineno, offset, line in numbered:
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"{path}:{lineno}: not valid UTF-8 "
                        f"({exc.reason} at byte {offset + exc.start})") from exc
        yield lineno, text


def _numbered_lines(path: str, fmt: str, versions, error: type[AiblobError]) -> Iterator[tuple]:
    """The header, checked, then (lineno, line) for each record line of a
    JSON-lines file (oracle_lines)."""
    lines = oracle_lines(path, error)
    first = next(lines, None)
    if first is None:
        raise error(f"{path}: empty {fmt.removeprefix('aiblob-')} file (missing header)")
    header = parse_json_line(first[1], path, first[0])
    check_header(header, path, fmt, versions, error)
    yield header
    yield from lines


def oracle_load_corpus(path: str) -> list[Sentence]:
    """Read a corpus file back into Sentence records, checking header, fields and unique ids."""
    lines = _numbered_lines(path, CORPUS_FORMAT, (CORPUS_VERSION,), ParseError)
    next(lines)  # the header
    sentences: list[Sentence] = []
    seen: set[str] = set()
    for lineno, line in lines:
        sentence = from_json(Sentence, parse_json_line(line, path, lineno), ParseError,
                             f"{path}:{lineno}: bad corpus record")
        if sentence.sentence_id in seen:
            raise ValidationError(
                f"{path}:{lineno}: duplicate sentence_id {_shown(sentence.sentence_id)}"
            )
        seen.add(sentence.sentence_id)
        sentences.append(sentence)
    return sentences


def oracle_store_rows(meta_path: str) -> list[tuple]:
    """The META_KEYS values of each row of a store's meta.jsonl, checked record by
    record, then id by id in row order, as the store checks the rows it decodes:
    a repeat is named by its line."""
    meta_rows = _numbered_lines(meta_path, STORE_FORMAT, (STORE_VERSION,), StoreError)
    next(meta_rows)  # the header
    rows = []
    for lineno, line in meta_rows:
        rec = from_json(VectorRecord, parse_json_line(line, meta_path, lineno), StoreError,
                        f"{meta_path}:{lineno}: bad record", vector=None)
        rows.append((lineno, _meta_values(rec)))
    seen: set[str] = set()
    for lineno, row in rows:
        if row[0] in seen:
            raise ValidationError(f"{meta_path}:{lineno}: duplicate sentence_id {_shown(row[0])}")
        seen.add(row[0])
    return [row for _, row in rows]


def oracle_write_jsonl(path: str, header: dict[str, Any], rows: Iterable[dict[str, Any]]) -> None:
    """Write a header line, then one JSON line per row, streamed."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(dumps_line(header) + "\n")
        for row in rows:
            handle.write(dumps_line(row) + "\n")
