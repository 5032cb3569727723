"""Persistent sentence-level vector store with exact top-k cosine retrieval.

A store has two lives. It is built by one insert, then saved or queried (index
inserts a corpus and saves it), or it is loaded, then queried (compose and
stats). An insert into a store that holds rows, or into any loaded store, is
refused. Either life allows any number of concurrent readers.

Retrieval is exact (a few hundred thousand sentences is tractable exactly, and
exactness keeps results reproducible). A row's score is
clip((row.astype(float64) * query).sum(), -1, 1), each row summed alone, so
equal vectors score equally wherever they sit; ties break by sentence_id
ascending. Excluded ids are never scored; ids the store does not hold are
ignored.

A float32 screen, within a bound B of every row's score (_bound), picks the
rows worth scoring. retrieve() runs an episode's queries in order, each
excluding every hit of the queries before it; it screens each chunk of
SCREEN_CHUNK queries through one float32 matrix product over blocks of rows,
each block at most SCREEN_BLOCK_BYTES of screen, the rows excluded so far
masked. For the chunk's i-th query it keeps every row screening above T - 2B,
with T the running (k * (i + 1))-th best screen: the chunk's earlier queries
exclude at most k * i more ids, so at least k rows that screen at T or above
remain. top_k takes such a screened query, or a vector screened as a chunk of
one. The pool rows whose ids are excluded (only the chunk's earlier hits,
decoded rows all) are dropped; with t the m-th best screen of the rest, m = k
at first, only the band of rows screening above t - 2B is scored: every other
row scores below t - B, so the band rows scoring at least t - B are a prefix of
the full (score desc, id asc) order, ties included. When the video cap leaves
fewer than k hits among them, m grows fourfold and the selection is redone.
While at least m of the pool rows not excluded screen at T or above, t >= T
and the band lies within the pool. When they do not (the chunk's earlier hits
took more of the pool than its depth allows, or the cap grew m), top_k screens
the query again alone, at depth m, against the exclusion it was given.

In memory, rows are columns in row order: one C-contiguous little-endian
float32 matrix (exactly the vectors.bin body, read into an array of its own at
load) beside lists of ids, video ids and texts, float64 arrays of start and
end times, the number of distinct video ids, and the largest row norm, found
as insert and load check that every vector is finite. The insert takes a
matrix with its columns, or a list of VectorRecord, turned into columns
first. It keeps the matrix and the columns it is given (index gives
load_corpus's, so each value is held once) and refuses a repeated id with a
set that it drops; the id -> row dict is built, whole, when an exclusion first
needs it. A hit carries its row's metadata, its times as Python floats, not
the vector.

Saving writes the columns (util.write_columns), then the matrix as the
vectors.bin body, then a SHA-256 of all meta.jsonl bytes: vectors.bin is
renamed into place last, and its digest commits the pair. Loading reads each
file once: meta.jsonl through util.RecordFile, the one reader of JSON-lines
record files, then the vectors.bin header, size, digest and values. A digest
that does not match meta.jsonl (the two files are not one save, say an index
killed between its renames) is refused. So meta.jsonl is what save wrote:
load keeps the RecordFile, and a row is decoded, with its record check, when
top_k first ranks it (its id is None until then, and the id -> row dict holds
decoded rows only). An excluded id not yet decoded, and a save, decode every
row first. Only a meta.jsonl forged together with its digest can hold a
faulty row that load passes; its fault is raised, naming the line, when the
row is first used.

On-disk layout (bit-exact), version 2, the only version read:
    meta.jsonl   header {"format":"aiblob-store","version":2,"dim":D,
                 "embedder":E,"videos":V} (E the canonical spec of the
                 embedder the store was indexed with, e.g. "deterministic:64"
                 or "remote:<model>", or null; V the number of distinct video
                 ids),
                 then one record object per line, each line ended by "\n";
                 line order defines row order.
    vectors.bin  magic "AIBV" | u32 LE version=2 | u32 LE dim | u64 LE count |
                 count*dim float32 LE values in meta.jsonl row order |
                 32-byte SHA-256 of all meta.jsonl bytes, header line included.
"""

from __future__ import annotations

import hashlib
import math
import operator
import os
import struct
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, NamedTuple, NoReturn, Sequence

from .errors import ConfigError, StoreError, ValidationError
from .util import (RecordFile, atomic_write_bytes, check_field_types, is_int, is_utf8, np, shown,
                   write_columns)

STORE_FORMAT = "aiblob-store"
STORE_VERSION = 2
VECTORS_MAGIC = b"AIBV"
VECTORS_HEADER = struct.Struct("<4sIIQ")
DIGEST_SIZE = 32
META_FILE = "meta.jsonl"
VECTORS_FILE = "vectors.bin"
# Metadata fields, in meta.jsonl key order; VectorRecord has the same names.
META_KEYS = ("sentence_id", "video_id", "text", "start_s", "end_s")
# The most queries retrieve screens in one GEMM, and the most bytes of float32
# screen one block of rows makes.
SCREEN_CHUNK = 32
SCREEN_BLOCK_BYTES = 1 << 20
# The largest finite float32.
_FLOAT32_MAX = (2 - 2.0 ** -23) * 2.0 ** 127


@dataclass
class VectorRecord:
    """One stored sentence: id, unit vector, and clip metadata."""

    sentence_id: str
    vector: np.ndarray
    video_id: str
    text: str
    start_s: float
    end_s: float


class Hit(NamedTuple):
    """One top_k result: a row's metadata and its score."""

    sentence_id: str
    score: float
    video_id: str
    text: str
    start_s: float
    end_s: float


class Screened(NamedTuple):
    """One query's screen: every row not excluded that screens above
    floor - 2 * bound, ascending, with its screen; ``floor`` is the depth-th
    best screen, or -inf when fewer rows remain."""

    query: np.ndarray
    bound: float
    floor: float
    rows: np.ndarray
    screens: np.ndarray


class VectorStore:
    """In-memory store over (sentence_id, vector, metadata) rows.

    Built by one insert_batch, then saved or queried; or loaded, then queried.
    Either way any number of readers may query it at once, and queries are
    deterministic regardless of parallelism.
    """

    def __init__(self, dim: int, embedder: str | None = None):
        if dim < 1:
            raise ConfigError(f"store dim must be positive, got {dim}")
        self.dim = dim
        # The spec of the embedder that made the vectors, when known.
        self.embedder = embedder
        self._matrix = np.empty((0, dim), dtype="<f4")
        # The id -> row map, None until _id_rows builds it.
        self._rows: dict[str, int] | None = None
        self._ids: list[str] = []
        self._video_ids: list[str] = []
        self._texts: list[str] = []
        self._starts = np.empty(0)
        self._ends = np.empty(0)
        # The largest row norm (_max_norm), and the number of distinct video ids.
        self._norm = 0.0
        self._videos = 0
        # A loaded store's meta.jsonl, which its undecoded rows (None in _ids)
        # are read from; None marks a store that was not loaded.
        self._meta: RecordFile | None = None

    def _columns(self) -> tuple:
        """The metadata columns, in META_KEYS order."""
        return (self._ids, self._video_ids, self._texts, self._starts, self._ends)

    @property
    def count(self) -> int:
        return len(self._ids)

    @property
    def video_count(self) -> int:
        """The number of distinct video ids."""
        return self._videos

    def insert_batch(self, batch: Sequence[VectorRecord] | np.ndarray,
                     columns: Sequence[list] | None = None) -> int:
        """Fill an empty store with rows, atomically: any invalid row rejects
        the whole batch. The one insert a store takes; a store that holds rows,
        or any loaded store, refuses it before reading the batch.

        ``batch`` is a list of VectorRecord, or an (n, dim) float32 matrix whose
        row i is the vector of the i-th entry of ``columns``: one list per
        META_KEYS field (or a float64 array for a time), of values already
        checked (as load_corpus returns them). The store keeps that matrix and
        those columns; they must not be changed afterwards.
        """
        if self.count or self._meta is not None:
            raise ValidationError("a store takes one insert, into a store that is empty "
                                  "and was not loaded")
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
                    f"record {shown(rec.sentence_id)}: vector dim {got} does not match store dim "
                    f"{self.dim}")
            matrix[i] = arr
            check_field_types(rec, ValidationError, f"record {shown(rec.sentence_id)}")
        return matrix, [list(map(operator.attrgetter(key), records)) for key in META_KEYS]

    def _append(self, matrix: np.ndarray, columns: Sequence) -> None:
        """Take the rows of ``matrix`` with their META_KEYS ``columns`` as they
        are, and count their distinct video ids; nothing changes unless every
        row passes. A repeated id is refused with a set that is then dropped:
        the id map waits for its first use (_id_rows)."""
        ids = columns[0]
        norm, faulty = _max_norm(matrix)
        if faulty is not None:
            raise ValidationError(f"record {shown(ids[faulty])}: vector has NaN/Inf")
        if len(set(ids)) != len(ids):
            self._raise_duplicate(ids)
        # A map an exclusion built while the store was empty is stale.
        self._rows = None
        self._matrix = matrix
        self._ids, self._video_ids, self._texts = columns[:3]
        self._starts, self._ends = (np.asarray(values, np.float64) for values in columns[3:])
        self._videos = len(set(self._video_ids))
        self._norm = norm

    def _id_rows(self) -> dict[str, int]:
        """The id -> row map: of a loaded store, of its decoded rows; of an
        inserted one, of every row, built whole on its first use, so that a
        reader finds it complete."""
        rows = self._rows
        if rows is None:
            rows = self._rows = dict(zip(self._ids, range(self.count)))
        return rows

    def _raise_duplicate(self, ids: Sequence[str]) -> NoReturn:
        """Raise for the first of ``ids`` that repeats an earlier one. Only called
        once a set test has found a repeat."""
        seen: set[str] = set()
        for sentence_id in ids:
            if sentence_id in seen:
                raise ValidationError(f"duplicate sentence_id {shown(sentence_id)}")
            seen.add(sentence_id)
        raise AssertionError("the id test found a repeat the id walk does not")

    def _decode(self, rows: Iterable[int]) -> None:
        """Decode those of ``rows`` that load left undecoded."""
        meta = self._meta
        if meta is None:
            return
        rows = [row for row in rows if self._ids[row] is None]
        if not rows:
            return
        ids, video_ids, texts, starts, ends = meta.columns(VectorRecord, rows=rows,
                                                           shared="video_id")
        self._starts[rows], self._ends[rows] = starts, ends
        for i, row in enumerate(rows):
            if self._rows.setdefault(ids[i], row) != row:
                raise ValidationError(
                    f"{meta.path}:{meta.lineno(row + 1)}: duplicate sentence_id {shown(ids[i])}")
            self._video_ids[row], self._texts[row] = video_ids[i], texts[i]
            # The id last: a reader that finds it set finds the whole row.
            self._ids[row] = ids[i]

    def retrieve(self, queries: Sequence[np.ndarray], k: int,
                 video_cap: int | None = None) -> Iterator[list[Hit]]:
        """Yield the top_k hits of each of ``queries`` in order, each query
        excluding every hit of the queries before it.

        Each chunk of SCREEN_CHUNK queries is screened in one pass, against
        the rows excluded before the chunk; its i-th query then excludes at
        most k * i more, which its screen holds rows enough for.
        """
        if not is_int(k) or k < 1:
            raise ValidationError(f"k must be a positive int, got {k!r}")
        exclude: set[str] = set()
        for start in range(0, len(queries), SCREEN_CHUNK):
            chunk = [self._query(query) for query in queries[start:start + SCREEN_CHUNK]]
            for screened in self._screen(chunk, k, self._held_rows(exclude)):
                hits = self.top_k(screened, k, exclude=exclude, video_cap=video_cap)
                exclude.update(hit.sentence_id for hit in hits)
                yield hits

    def _query(self, query: np.ndarray) -> np.ndarray:
        """``query`` as a float64 vector, checked against the store dim."""
        q = np.asarray(query, dtype=np.float64)
        if q.ndim != 1 or q.shape[0] != self.dim:
            got = q.shape[0] if q.ndim == 1 else q.shape
            raise ConfigError(f"query dim {got} does not match store dim {self.dim}")
        if not np.isfinite(q).all():
            raise ValidationError("query vector has NaN/Inf")
        return q

    def _screen(self, queries: list[np.ndarray], k: int, excluded: np.ndarray) -> list[Screened]:
        """One float32 GEMM of ``queries`` over blocks of rows, the ``excluded``
        rows (ascending) masked, keeping for the i-th query every row that
        screens above T - 2B, with T its running (k * (i + 1))-th best screen."""
        bounds = [self._bound(q) for q in queries]
        # A query the float32 screen cannot hold screens 0 on every row.
        matrix = np.array([q if bound < math.inf else np.zeros(self.dim)
                           for q, bound in zip(queries, bounds)], dtype=np.float32).T
        depths = [k * (i + 1) for i in range(len(queries))]
        floors = [-math.inf] * len(queries)
        pools = [(np.empty(0, np.intp), np.empty(0))] * len(queries)
        step = max(1, SCREEN_BLOCK_BYTES // (4 * len(queries)))
        for start in range(0, self.count, step):
            block = self._matrix[start:start + step] @ matrix
            lo, hi = np.searchsorted(excluded, (start, start + step))
            block[excluded[lo:hi] - start] = -np.inf
            for i, (depth, bound) in enumerate(zip(depths, bounds)):
                column = block[:, i]
                # A first block of depth rows or more sets T itself, so that
                # only the rows near its top are gathered.
                if floors[i] == -math.inf and len(column) >= depth:
                    floors[i] = float(np.partition(column, len(column) - depth)[-depth])
                new = np.flatnonzero(column > _at_most(floors[i] - 2 * bound))
                if not len(new):
                    continue
                rows = np.concatenate((pools[i][0], new + start))
                screens = np.concatenate((pools[i][1], column[new].astype(np.float64)))
                if len(rows) >= depth:
                    floors[i] = np.partition(screens, len(rows) - depth)[-depth]
                    # Held in float64, screens compare with T - 2B exactly.
                    kept = screens > floors[i] - 2 * bound
                    rows, screens = rows[kept], screens[kept]
                pools[i] = rows, screens
        return [Screened(q, bound, floor, rows, screens)
                for q, bound, floor, (rows, screens) in zip(queries, bounds, floors, pools)]

    def _held_rows(self, ids: Collection[str]) -> np.ndarray:
        """The rows, ascending, of those of ``ids`` that the store holds."""
        if not ids:
            return np.empty(0, np.intp)
        rows = list(map(self._id_rows().get, ids))
        # After a load only decoded ids are in the map, and while it misses a
        # row an id that is not may name an undecoded row.
        if None in rows and len(self._rows) < self.count:
            self._decode(range(self.count))
            rows = list(map(self._rows.get, ids))
        return np.sort(np.array([row for row in rows if row is not None], dtype=np.intp))

    def top_k(
        self,
        query: np.ndarray | Screened,
        k: int,
        exclude: set[str] | frozenset[str] = frozenset(),
        video_cap: int | None = None,
    ) -> list[Hit]:
        """Exact top-k by cosine, skipping excluded ids.

        ``query`` is a vector, or one query's screen that retrieve made, with
        the exclusion retrieve gives it.
        Ties break by sentence_id ascending. With video_cap set, at most that
        many hits may share a video_id, enforced in score order.
        """
        if not is_int(k) or k < 1:
            raise ValidationError(f"k must be a positive int, got {k!r}")
        screened = query if isinstance(query, Screened) else \
            self._screen([self._query(query)], k, self._held_rows(exclude))[0]
        # While the cap leaves fewer than k hits, m grows until every row that
        # is not excluded has been ranked. An excluded row is never scored.
        m = k
        while True:
            band = self._band(screened, m, exclude)
            if band is None:
                screened = self._screen([screened.query], m, self._held_rows(exclude))[0]
                band = self._band(screened, m, exclude)
            rows, floor = band
            scores = np.clip((self._matrix[rows].astype(np.float64) * screened.query).sum(axis=1),
                             -1.0, 1.0)
            # A finite query can still overflow against a stored row; NaN never ranks.
            if np.isnan(scores).any():
                raise ValidationError(
                    "query vector overflows against the stored vectors (NaN scores)")
            ranked = scores >= floor - screened.bound
            hits = self._walk(rows[ranked], scores[ranked], k, video_cap)
            if len(hits) == k or floor == -np.inf:
                return hits
            m *= 4

    def _band(self, screened: Screened, m: int,
              exclude: set[str] | frozenset[str]) -> tuple[np.ndarray, float] | None:
        """The band rows of the m-th best screen t among the rows not in
        ``exclude``, and t (-inf when fewer rows remain); None when the screen
        cannot prove that it holds them all."""
        rows, screens = screened.rows, screened.screens
        # Every id excluded since the screen is a decoded hit of retrieve, so
        # an undecoded row (id None) is never excluded.
        if exclude:
            kept = np.array([self._ids[row] not in exclude for row in rows.tolist()], dtype=bool)
            rows, screens = rows[kept], screens[kept]
        # Every row screening at least the screen's floor is held, so m of
        # them put t at or above it, and the band within what was kept.
        floor = screened.floor
        if floor == -np.inf and m >= len(rows):
            pass
        elif np.count_nonzero(screens >= floor) >= m:
            floor = np.partition(screens, len(rows) - m)[len(rows) - m]
        else:
            return None
        return rows[screens > floor - 2 * screened.bound], floor

    def _bound(self, q: np.ndarray) -> float:
        """A bound, rounded up, on |screen - score| for every row; inf, so that
        the band is every row, when the float32 screen cannot hold ``q``.

        The screen rounds q, then d products summed in any order (a BLAS may
        split the sum): (d + 2) * 2**-24 of reach = max row norm * |q|, plus
        2**-149 per product or q entry lost to underflow. The 1% rounding up
        covers the score's float64 error and that of B and t - B. The clip
        moves a score by at most how far reach exceeds 1.
        """
        d = self.dim
        size = math.hypot(*q.tolist())
        reach = self._norm * size
        if not (size < 2.0 ** 127 and reach < 2.0 ** 127):
            return math.inf
        error = (d + 2) * 2.0 ** -24 * reach + (d + math.sqrt(d) * self._norm) * 2.0 ** -149
        return 1.01 * error + max(reach - 1.0, 0.0)

    def _walk(self, rows: np.ndarray, scores: np.ndarray, k: int,
              video_cap: int | None) -> list[Hit]:
        """The first k of ``rows``, scored ``scores``, by (score desc, id asc)."""
        rows = rows.tolist()
        self._decode(rows)
        ranked = sorted(zip((-scores).tolist(), [self._ids[row] for row in rows], rows))
        hits: list[Hit] = []
        per_video: dict[str, int] = {}
        for negated, sentence_id, row in ranked:
            video_id = self._video_ids[row]
            if video_cap is not None:
                used = per_video.get(video_id, 0)
                if used >= video_cap:
                    continue
                per_video[video_id] = used + 1
            hits.append(Hit(sentence_id, -negated, video_id, self._texts[row],
                            float(self._starts[row]), float(self._ends[row])))
            if len(hits) == k:
                break
        return hits

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, directory: str) -> None:
        """Write meta.jsonl, then vectors.bin, whose digest commits the pair."""
        self._decode(range(self.count))
        os.makedirs(directory, exist_ok=True)
        meta_path = os.path.join(directory, META_FILE)
        vectors_path = os.path.join(directory, VECTORS_FILE)
        meta_header = {"format": STORE_FORMAT, "version": STORE_VERSION, "dim": self.dim,
                       "embedder": self.embedder, "videos": self.video_count}
        digest = hashlib.sha256()
        write_columns(meta_path, meta_header, VectorRecord, self._columns(), digest)
        header = VECTORS_HEADER.pack(VECTORS_MAGIC, STORE_VERSION, self.dim, self.count)
        atomic_write_bytes(vectors_path, (header, self._matrix, digest.digest()))

    @classmethod
    def load(cls, directory: str) -> "VectorStore":
        meta_path = os.path.join(directory, META_FILE)
        vectors_path = os.path.join(directory, VECTORS_FILE)
        for path in (meta_path, vectors_path):
            if not os.path.exists(path):
                raise StoreError(f"missing store file: {path}")

        meta = RecordFile(meta_path, STORE_FORMAT, (STORE_VERSION,), StoreError)
        header, count = meta.header, meta.count
        dim = header.get("dim")
        if not is_int(dim) or dim < 1:
            raise StoreError(f"{meta_path}: bad dim {dim!r}")
        embedder = header.get("embedder")
        if embedder is not None and not (isinstance(embedder, str) and is_utf8(embedder)):
            raise StoreError(f"{meta_path}: bad embedder {embedder!r}")
        with open(vectors_path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            head = handle.read(VECTORS_HEADER.size)
            if len(head) != VECTORS_HEADER.size:
                raise StoreError(f"{vectors_path}: truncated header")
            magic, version, bin_dim, bin_count = VECTORS_HEADER.unpack(head)
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
            expected_bytes = VECTORS_HEADER.size + bin_count * dim * 4 + DIGEST_SIZE
            if size != expected_bytes:
                raise StoreError(f"{vectors_path}: expected {expected_bytes} bytes, found {size}")
            # The digest is the save's commit record: meta.jsonl is then exactly
            # what save wrote with these vectors, and its rows decode when used.
            handle.seek(size - DIGEST_SIZE)
            if handle.read() != hashlib.sha256(meta.raw).digest():
                raise StoreError(f"{vectors_path}: digest does not match {meta_path}, so the two "
                                 f"files are not one save; re-run aiblob index")
            # Read into an array of its own, the matrix is aligned as numpy
            # aligns its allocations, which the float32 screen reads faster.
            handle.seek(VECTORS_HEADER.size)
            matrix = np.fromfile(handle, "<f4", bin_count * dim).reshape(bin_count, dim)
        store = cls(dim, embedder)
        store._adopt(matrix, meta, header.get("videos"))
        return store

    def _adopt(self, matrix: np.ndarray, meta: RecordFile, videos) -> None:
        """Take the rows of a load, undecoded, after checking the vectors and
        the header's video count."""
        count = len(matrix)
        if not is_int(videos) or not min(count, 1) <= videos <= count:
            raise StoreError(f"{meta.path}: bad videos {videos!r}")
        self._matrix = matrix
        self._meta = meta
        self._videos = videos
        self._rows = {}
        for column in self._columns()[:3]:
            column.extend([None] * count)
        self._starts, self._ends = np.zeros(count), np.zeros(count)
        self._norm, faulty = _max_norm(matrix)
        if faulty is not None:
            self._decode([faulty])
            raise ValidationError(f"record {shown(self._ids[faulty])}: vector has NaN/Inf")


def _at_most(value: float) -> np.float32:
    """The largest float32 at most ``value``: a float32 screen compared with it
    passes every row that it passes compared with ``value``, and maybe more."""
    if not value >= -_FLOAT32_MAX:
        return np.float32(-np.inf)
    near = np.float32(value)
    return near if float(near) <= value else np.nextafter(near, np.float32(-np.inf))


def _max_norm(matrix: np.ndarray) -> tuple[float, int | None]:
    """A bound on the row norms of a float32 ``matrix`` and None, or NaN and the
    first row holding NaN/Inf. The squares' float32 sum errs by at most d * 2**-24
    of it plus 2**-149 per square; it is not finite for a row holding NaN/Inf or
    one of entries beyond about 1.8e19, and then the bound is inf."""
    d = matrix.shape[1]
    squares = np.einsum("ij,ij->i", matrix, matrix)
    over = np.flatnonzero(~np.isfinite(squares))
    finite = np.isfinite(matrix[over]).all(axis=1)
    if not finite.all():
        return math.nan, int(over[np.argmin(finite)])
    top = float(squares.max(initial=0.0))
    return math.sqrt((top + d * 2.0 ** -149) * (1 + d * 2.0 ** -23)), None
