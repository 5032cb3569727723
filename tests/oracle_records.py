"""Per-row reference for reading corpus and store metadata files, and for
writing every JSON-lines record file.

This is the object-per-row design the package used before it read and wrote
JSON-lines record files as columns. Reading, every line is decoded on its own
by ``parse_json_line`` and checked by ``from_json`` into one record, and ids
are checked one at a time. Writing, every row is one dict serialized by
``dumps_line``. The differential tests in ``test_records.py`` hold the column
readers to the same values, and to the same error class and message for every
faulty file, and the column writer to the same bytes.
"""

import operator
from typing import Any, Iterable

from aiblob.errors import ParseError, StoreError, ValidationError
from aiblob.ingest import CORPUS_FORMAT, CORPUS_VERSION, Sentence
from aiblob.store import META_KEYS, STORE_FORMAT, STORE_VERSIONS, VectorRecord
from aiblob.util import _atomic_open, dumps_line, from_json, parse_json_line, read_jsonl

_meta_values = operator.attrgetter(*META_KEYS)


def _shown(sentence_id: str) -> str:
    """An id as an error message shows it: quoted by repr unless printable."""
    return sentence_id if sentence_id.isprintable() else repr(sentence_id)


def oracle_load_corpus(path: str) -> list[Sentence]:
    """Read a corpus file back into Sentence records, checking header, fields and unique ids."""
    _header, lines = read_jsonl(path, CORPUS_FORMAT, (CORPUS_VERSION,))
    sentences: list[Sentence] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines, start=2):
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
    record, then id by id as the store's insert checks them."""
    _header, meta_rows = read_jsonl(meta_path, STORE_FORMAT, STORE_VERSIONS, StoreError)
    rows = []
    for lineno, line in enumerate(meta_rows, start=2):
        rec = from_json(VectorRecord, parse_json_line(line, meta_path, lineno), StoreError,
                        f"{meta_path}:{lineno}: bad record", vector=None)
        rows.append(_meta_values(rec))
    seen: set[str] = set()
    for row in rows:
        if row[0] in seen:
            raise ValidationError(f"duplicate sentence_id {_shown(row[0])}")
        seen.add(row[0])
    return rows


def oracle_write_jsonl(path: str, header: dict[str, Any], rows: Iterable[dict[str, Any]]) -> None:
    """Atomically write a header line, then one JSON line per row, streamed."""
    with _atomic_open(path, binary=False) as handle:
        handle.write(dumps_line(header) + "\n")
        for row in rows:
            handle.write(dumps_line(row) + "\n")
