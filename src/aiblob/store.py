"""Persistent sentence-level vector store with exact top-k cosine retrieval.

Retrieval is exact (a few hundred thousand sentences is tractable exactly, and
exactness keeps results reproducible). Scores are computed in float64, one
matrix-vector product per query, with ties broken by sentence_id ascending.
Excluded ids score -inf; ids the store does not hold are ignored. Only the
rows scoring at least the m-th best score are ranked, m = k at first: that
floor keeps every tie with the m-th score, so the ranked rows are a prefix of
the full order. When the video cap leaves fewer than k hits among them, m
grows fourfold and the selection is redone.

In memory, rows are columns in row order: one C-contiguous little-endian
float32 matrix (exactly the vectors.bin body, and a zero-copy view of it after
load) beside plain lists of ids, video ids, texts, start and end times, and an
id -> row dict. The float64 copy of the matrix is built on the first query and
dropped by the next insert. Records are built on demand for the rows a caller
asks for.

On-disk layout (bit-exact):
    meta.jsonl   header {"format":"aiblob-store","version":1,"dim":D}, then one
                 record object per line; line order defines row order.
    vectors.bin  magic "AIBV" | u32 LE version=1 | u32 LE dim | u64 LE count |
                 count*dim float32 LE values in meta.jsonl row order.
"""

from __future__ import annotations

import operator
import os
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, StoreError, ValidationError
from .util import (atomic_write_bytes, check_field_types, from_json, is_int, parse_json_line,
                   read_jsonl, write_jsonl)

STORE_FORMAT = "aiblob-store"
STORE_VERSION = 1
VECTORS_MAGIC = b"AIBV"
META_FILE = "meta.jsonl"
VECTORS_FILE = "vectors.bin"
# Metadata fields, in meta.jsonl key order; VectorRecord has the same names.
META_KEYS = ("sentence_id", "video_id", "text", "start_s", "end_s")
_meta_values = operator.attrgetter(*META_KEYS)


@dataclass
class VectorRecord:
    """One stored sentence: id, unit vector, and clip metadata."""

    sentence_id: str
    vector: np.ndarray
    video_id: str
    text: str
    start_s: float
    end_s: float


@dataclass
class RetrievalHit:
    sentence_id: str
    score: float
    record: VectorRecord


class VectorStore:
    """In-memory store over (sentence_id, vector, metadata) rows.

    Safe for many concurrent readers or a single writer; don't save while an
    insert is in flight. Queries are deterministic regardless of parallelism.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ConfigError(f"store dim must be positive, got {dim}")
        self.dim = dim
        self._matrix = np.empty((0, dim), dtype="<f4")
        self._rows: dict[str, int] = {}
        self._ids: list[str] = []
        self._video_ids: list[str] = []
        self._texts: list[str] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        # The float64 matrix, built by the first top_k after a change.
        self._scoring: np.ndarray | None = None

    def _columns(self) -> tuple[list, ...]:
        """The metadata columns, in META_KEYS order."""
        return (self._ids, self._video_ids, self._texts, self._starts, self._ends)

    @property
    def count(self) -> int:
        return len(self._ids)

    def video_ids(self) -> set[str]:
        return set(self._video_ids)

    def get(self, sentence_id: str) -> VectorRecord:
        try:
            return self._record(self._rows[sentence_id])
        except KeyError:
            raise StoreError(f"unknown sentence_id {sentence_id}") from None

    def _record(self, row: int) -> VectorRecord:
        return VectorRecord(self._ids[row], self._matrix[row], self._video_ids[row],
                            self._texts[row], self._starts[row], self._ends[row])

    def insert_batch(self, records: Sequence[VectorRecord]) -> int:
        """Insert records atomically: any invalid record rejects the whole batch."""
        batch = np.empty((len(records), self.dim), dtype="<f4")
        rows = []
        for i, rec in enumerate(records):
            arr = np.asarray(rec.vector, dtype=np.float32)
            if arr.shape != (self.dim,):
                got = arr.shape[0] if arr.ndim == 1 else arr.shape
                raise ConfigError(
                    f"record {rec.sentence_id}: vector dim {got} does not match store dim {self.dim}"
                )
            batch[i] = arr
            check_field_types(rec, ValidationError, f"record {rec.sentence_id}")
            rows.append(_meta_values(rec))
        self._append(batch, rows)
        return len(records)

    def _append(self, matrix: np.ndarray, rows: list[tuple]) -> None:
        """Append rows of META_KEYS values; nothing changes unless every row passes."""
        ids = [values[0] for values in rows]
        finite = np.isfinite(matrix).all(axis=1)
        if not finite.all():
            raise ValidationError(f"record {ids[int(np.argmin(finite))]}: vector has NaN/Inf")
        new_rows: dict[str, int] = {}
        for row, sentence_id in enumerate(ids, start=self.count):
            if sentence_id in self._rows or sentence_id in new_rows:
                raise ValidationError(f"duplicate sentence_id {sentence_id}")
            new_rows[sentence_id] = row
        self._matrix = np.concatenate((self._matrix, matrix)) if self.count else matrix
        self._rows.update(new_rows)
        for column, values in zip(self._columns(), zip(*rows)):
            column.extend(values)
        self._scoring = None

    def top_k(
        self,
        query: np.ndarray,
        k: int,
        exclude: set[str] | frozenset[str] = frozenset(),
        video_cap: int | None = None,
    ) -> list[RetrievalHit]:
        """Exact top-k by cosine, skipping excluded ids.

        Ties break by sentence_id ascending. With video_cap set, at most that
        many hits may share a video_id, enforced in score order.
        """
        if not is_int(k) or k < 1:
            raise ValidationError(f"k must be a positive int, got {k!r}")
        q = np.asarray(query, dtype=np.float64)
        if q.ndim != 1 or q.shape[0] != self.dim:
            got = q.shape[0] if q.ndim == 1 else q.shape
            raise ConfigError(f"query dim {got} does not match store dim {self.dim}")
        if not np.isfinite(q).all():
            raise ValidationError("query vector has NaN/Inf")
        if not self._ids:
            return []

        # Scores in float64 so ranking is insensitive to accumulation order.
        if self._scoring is None:
            self._scoring = self._matrix.astype(np.float64)
        scores = np.clip(self._scoring @ q, -1.0, 1.0)
        # A finite query can still overflow against a stored row; NaN never ranks.
        if np.isnan(scores).any():
            raise ValidationError("query vector overflows against the stored vectors (NaN scores)")
        scores[[row for row in map(self._rows.get, exclude) if row is not None]] = -np.inf

        # Rank only the rows scoring at least the m-th best score. Keeping every
        # tie with it makes them a prefix of the full (score desc, id asc)
        # order, so their walk is exact. While the cap leaves fewer than k hits,
        # m grows until every row that is not excluded has been ranked.
        n = len(scores)
        m = k
        while True:
            m = min(m, n)
            floor = np.partition(scores, n - m)[n - m]
            hits = self._walk(np.flatnonzero(scores >= floor), scores, k, video_cap)
            if len(hits) == k or m == n or floor == -np.inf:
                return hits
            m *= 4

    def _walk(self, rows: np.ndarray, scores: np.ndarray, k: int,
              video_cap: int | None) -> list[RetrievalHit]:
        """The first k of `rows` by (score desc, id asc), stopping at excluded rows."""
        rows = rows.tolist()
        ranked = sorted(zip((-scores[rows]).tolist(), [self._ids[row] for row in rows], rows))
        hits: list[RetrievalHit] = []
        per_video: dict[str, int] = {}
        for negated, sentence_id, row in ranked:
            if negated == np.inf:
                break
            if video_cap is not None:
                video_id = self._video_ids[row]
                used = per_video.get(video_id, 0)
                if used >= video_cap:
                    continue
                per_video[video_id] = used + 1
            hits.append(RetrievalHit(sentence_id, -negated, self._record(row)))
            if len(hits) == k:
                break
        return hits

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, directory: str) -> dict:
        """Write meta.jsonl + vectors.bin; returns a manifest of what was written."""
        os.makedirs(directory, exist_ok=True)
        meta_path = os.path.join(directory, META_FILE)
        vectors_path = os.path.join(directory, VECTORS_FILE)
        write_jsonl(meta_path, {"format": STORE_FORMAT, "version": STORE_VERSION, "dim": self.dim},
                    (dict(zip(META_KEYS, row)) for row in zip(*self._columns())))
        header = VECTORS_MAGIC + struct.pack("<IIQ", STORE_VERSION, self.dim, self.count)
        atomic_write_bytes(vectors_path, header, self._matrix)
        return {
            "dim": self.dim,
            "count": self.count,
            "meta_path": meta_path,
            "vectors_path": vectors_path,
        }

    @classmethod
    def load(cls, directory: str) -> "VectorStore":
        meta_path = os.path.join(directory, META_FILE)
        vectors_path = os.path.join(directory, VECTORS_FILE)
        for path in (meta_path, vectors_path):
            if not os.path.exists(path):
                raise StoreError(f"missing store file: {path}")

        header, meta_rows = read_jsonl(meta_path, STORE_FORMAT, STORE_VERSION, StoreError)
        dim = header.get("dim")
        if not is_int(dim) or dim < 1:
            raise StoreError(f"{meta_path}: bad dim {dim!r}")

        with open(vectors_path, "rb") as handle:
            blob = handle.read()
        if len(blob) < 20:
            raise StoreError(f"{vectors_path}: truncated header")
        magic, version, bin_dim, bin_count = struct.unpack("<4sIIQ", blob[:20])
        if magic != VECTORS_MAGIC:
            raise StoreError(f"{vectors_path}: bad magic {magic!r}")
        if version != STORE_VERSION:
            raise StoreError(f"{vectors_path}: unsupported version {version}")
        if bin_dim != dim:
            raise StoreError(f"{vectors_path}: dim {bin_dim} does not match metadata dim {dim}")
        if bin_count != len(meta_rows):
            raise StoreError(
                f"{vectors_path}: count {bin_count} does not match {len(meta_rows)} metadata rows"
            )
        expected_bytes = 20 + bin_count * dim * 4
        if len(blob) != expected_bytes:
            raise StoreError(
                f"{vectors_path}: expected {expected_bytes} bytes, found {len(blob)}"
            )
        matrix = np.frombuffer(blob, "<f4", offset=20).reshape(bin_count, dim)

        rows = []
        for lineno, line in enumerate(meta_rows, start=2):
            rec = from_json(VectorRecord, parse_json_line(line, meta_path, lineno), StoreError,
                            f"{meta_path}:{lineno}: bad record", vector=None)
            rows.append(_meta_values(rec))
        store = cls(dim)
        store._append(matrix, rows)
        return store

