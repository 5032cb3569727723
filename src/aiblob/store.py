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

Loading and saving build no per-row object either. meta.jsonl is read as
columns (util.read_columns: a few large decodes and one check for the whole
file, and a per-row walk only to name a fault), the vectors.bin body becomes
the matrix as is, and one dict of the ids gives the id -> row map. Saving
writes the columns as they are (util.write_columns: each value encoded once,
blocks of lines set from one line template) and the matrix as the
vectors.bin body. An insert takes a matrix with its columns the same way, or
a list of VectorRecord, which is turned into columns first.

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
from typing import NoReturn, Sequence

import numpy as np

from .errors import ConfigError, StoreError, ValidationError
from .util import atomic_write_bytes, check_field_types, is_int, read_columns, write_columns

STORE_FORMAT = "aiblob-store"
STORE_VERSION = 1
VECTORS_MAGIC = b"AIBV"
META_FILE = "meta.jsonl"
VECTORS_FILE = "vectors.bin"
# Metadata fields, in meta.jsonl key order; VectorRecord has the same names.
META_KEYS = ("sentence_id", "video_id", "text", "start_s", "end_s")


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

    def insert_batch(self, batch: Sequence[VectorRecord] | np.ndarray,
                     columns: Sequence[list] | None = None) -> int:
        """Insert rows atomically: any invalid row rejects the whole batch.

        ``batch`` is a list of VectorRecord, or an (n, dim) float32 matrix whose
        row i is the vector of the i-th entry of ``columns``: one list per
        META_KEYS field, of values already checked (as load_corpus returns them).
        The store keeps that matrix; it must not be changed afterwards.
        """
        if columns is None:
            matrix, columns = self._record_columns(batch)
        else:
            matrix = np.asarray(batch, dtype="<f4")
            if matrix.ndim != 2 or matrix.shape[1] != self.dim:
                raise ConfigError(
                    f"vectors of shape {matrix.shape} do not match store dim {self.dim}")
            if len(columns) != len(META_KEYS) or any(len(column) != len(matrix)
                                                     for column in columns):
                raise ValidationError(f"{len(matrix)} vectors need {len(META_KEYS)} metadata "
                                      f"columns of {len(matrix)} values")
        self._append(matrix, columns)
        return len(matrix)

    def _record_columns(self, records: Sequence[VectorRecord]) -> tuple[np.ndarray, list[list]]:
        """The vector matrix and the META_KEYS columns of ``records``, checking each
        record's vector shape and field types in order."""
        matrix = np.empty((len(records), self.dim), dtype="<f4")
        for i, rec in enumerate(records):
            arr = np.asarray(rec.vector, dtype=np.float32)
            if arr.shape != (self.dim,):
                got = arr.shape[0] if arr.ndim == 1 else arr.shape
                raise ConfigError(
                    f"record {rec.sentence_id}: vector dim {got} does not match store dim {self.dim}"
                )
            matrix[i] = arr
            check_field_types(rec, ValidationError, f"record {rec.sentence_id}")
        return matrix, [list(map(operator.attrgetter(key), records)) for key in META_KEYS]

    def _append(self, matrix: np.ndarray, columns: Sequence[list]) -> None:
        """Append the rows of ``matrix`` with their META_KEYS ``columns``; nothing
        changes unless every row passes."""
        ids = columns[0]
        finite = np.isfinite(matrix).all(axis=1)
        if not finite.all():
            raise ValidationError(f"record {ids[int(np.argmin(finite))]}: vector has NaN/Inf")
        new_rows = dict(zip(ids, range(self.count, self.count + len(ids))))
        if len(new_rows) != len(ids) or not self._rows.keys().isdisjoint(new_rows):
            self._raise_duplicate(ids)
        self._matrix = np.concatenate((self._matrix, matrix)) if self.count else matrix
        if self._rows:
            self._rows.update(new_rows)
        else:
            # A first insert keeps the new map: copying it would briefly hold two.
            self._rows = new_rows
        for column, values in zip(self._columns(), columns):
            column.extend(values)
        self._scoring = None

    def _raise_duplicate(self, ids: Sequence[str]) -> NoReturn:
        """Raise for the first of ``ids`` that is stored or repeats an earlier one.
        Only called once the one-dict test has found a repeat."""
        seen: set[str] = set()
        for sentence_id in ids:
            if sentence_id in self._rows or sentence_id in seen:
                raise ValidationError(f"duplicate sentence_id {sentence_id}")
            seen.add(sentence_id)
        raise AssertionError("the id test found a repeat the id walk does not")

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
        meta_header = {"format": STORE_FORMAT, "version": STORE_VERSION, "dim": self.dim}
        write_columns(meta_path, meta_header, VectorRecord, self._columns())
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

        header, columns = read_columns(meta_path, STORE_FORMAT, STORE_VERSION, VectorRecord,
                                       StoreError)
        dim = header.get("dim")
        if not is_int(dim) or dim < 1:
            raise StoreError(f"{meta_path}: bad dim {dim!r}")
        count = len(columns[0])

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
        if bin_count != count:
            raise StoreError(
                f"{vectors_path}: count {bin_count} does not match {count} metadata rows"
            )
        expected_bytes = 20 + bin_count * dim * 4
        if len(blob) != expected_bytes:
            raise StoreError(
                f"{vectors_path}: expected {expected_bytes} bytes, found {len(blob)}"
            )
        store = cls(dim)
        store._append(np.frombuffer(blob, "<f4", offset=20).reshape(bin_count, dim), columns)
        return store
