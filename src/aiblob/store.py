"""Persistent sentence-level vector store with exact top-k cosine retrieval.

A store has two lives. It is built by one insert, then saved or queried, or it
is loaded, then queried (compose and stats). An insert into a store that holds
rows, or into any loaded store, is refused. Either life allows any number of
concurrent readers. index builds no store in memory: it streams a corpus into
the store writer (write_store), which save feeds a store's rows.

Retrieval is exact (a few hundred thousand sentences is tractable exactly, and
exactness keeps results reproducible). A row's score is
clip((row.astype(float64) * query).sum(), -1, 1), each row summed alone, so
equal vectors score equally wherever they sit; ties break by sentence_id
ascending. Excluded ids are never scored; ids the store does not hold are
ignored.

A float32 screen, within a bound B of every row's score (_bound), picks the
rows worth scoring. retrieve() runs an episode's queries in order, each
excluding every hit of the queries before it; it screens each chunk of
SCREEN_CHUNK queries through one float32 matrix product over blocks of rows
(each block of vectors at most SCREEN_BLOCK_BYTES, screened into blocks of at
most SCREEN_BLOCK_BYTES of screen), the rows excluded so far masked. For the
chunk's i-th query it keeps every row screening above T - 2B, with T the
(k * (i + 1))-th best screen: the chunk's earlier queries exclude at most
k * i more ids, so at least k rows that screen at T or above remain. Those
pools hold every row the chunk's queries can rank (bar a video cap's growth):
a loaded store decodes in one pass, in row order, their bands with nothing
excluded and every pool row that shares a chunk of meta.jsonl with another
(_chunk_rows), so each chunk is read once per chunk of queries. top_k takes a
screened query, or a vector screened as a chunk of one. The pool rows whose
ids are excluded (only the chunk's earlier hits, decoded rows all) are
dropped; with t the m-th best screen of the rest, m = k at first, only the
band of rows screening above t - 2B is scored, from its rows' vectors
(_vectors_of): every other row scores below t - B, so the band rows scoring
at least t - B are a prefix of the full (score desc, id asc) order, ties
included. When the video cap leaves fewer than k hits among them, m grows
fourfold and the selection is redone. While at least m of the pool rows not
excluded screen at T or above, t >= T and the band lies within the pool. When
they do not (the chunk's earlier hits took more of the pool than its depth
allows, or the cap grew m), top_k screens the query again alone, at depth m,
against the exclusion it was given.

In memory, rows are columns in row order: lists of ids, video ids and texts
and float64 arrays of start and end times, beside the vectors, the number of
distinct video ids, and the largest row norm, found as insert and load check
that every vector is finite. An inserted store's vectors are one C-contiguous
little-endian float32 matrix; a loaded store holds no matrix, and reads its
vectors back from vectors.bin when it uses them (_row_blocks, _vectors_of).
The insert takes a matrix with its columns, or a list of VectorRecord, turned
into columns first. It keeps the matrix and the columns it is given, so each
value is held once, and checks them as the store writer checks each block it
writes (RowCheck): a repeated id is refused through one int64 array of the
ids' hashes, sorted, the ids walked only when two hashes are equal. An id ->
row dict maps the rows the store has used: each row top_k ranks, and every
row once an exclusion names an id the dict lacks. A hit carries its row's
metadata, its times as Python floats, not the vector.

A store is written by one writer (write_store), fed its rows a block at a
time, in row order: index feeds it a corpus a block at a time, and save feeds
it the store's own rows, a block of vectors (_row_blocks) at a time. Each
block is checked (RowCheck: its vectors finite, its ids' hashes kept for the
caller to look for a repeat); its meta.jsonl record lines (util.format_lines)
go to an unnamed temporary file, and its vectors to vectors.bin's temporary
file, whose header holds the count given before the first row. meta.jsonl's
header holds the number of distinct video ids, known only after the last
block, so then meta.jsonl's temporary file gets the header and a copy of the
record lines, a SHA-256 of all its bytes taken as they are copied, and that
digest ends vectors.bin. Both files are complete before either is renamed
into place (util.atomic_files, the one writer of every output file),
vectors.bin last, whose digest commits the pair: an error or an interrupt
leaves the directory as it was, with no temporary file, and makes no
directory.

Loading reads each file once, in one pass of 1 MiB blocks into one reused
buffer, taking a CRC-32 of each 4 KiB chunk (util.CheckedFile). meta.jsonl
goes through util.RecordFile, the one reader of JSON-lines record files,
whose pass also feeds the SHA-256 and finds the line ends. Then the
vectors.bin header and size are checked, its pass finds the largest row norm
and the first row holding NaN/Inf (_max_norm) a block at a time, and its
digest is read back. A digest that does not match meta.jsonl (the two files
are not one save, say an index killed between its renames) is refused. So
meta.jsonl is what save wrote: no row is decoded at load (its id is None
until it is first mapped). What load keeps of each file is its open
descriptor and its chunks' CRC-32s, and of meta.jsonl the rows' line
offsets: not the bytes of either. A row of meta.jsonl is read back by
os.pread when it is first mapped, and decoded with its record check; the
vectors are read back by os.pread each time a query is screened (into a
buffer each screen makes for itself, so that readers share none), and the
band rows' vectors each time top_k scores them. A save decodes every row
first. Only a meta.jsonl forged together with its digest can hold a faulty
row that load passes; its fault is raised, naming the line, when the row is
first used.

A loaded store answers from bytes of meta.jsonl and vectors.bin identical to
those its load read, or raises StoreError naming the file: every chunk read
back must match its CRC-32, so a file rewritten or truncated in place is
refused, not read, while a store replaced by rename (as index saves) is still
read through the kept descriptors. A file truncated under an mmap would kill
the process with SIGBUS, so none is made.

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
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Collection, Iterable, Iterator, NamedTuple, Sequence

from .errors import ConfigError, StoreError, ValidationError
from .util import (CheckedFile, RecordFile, atomic_files, check_field_types, dumps_line,
                   format_lines, is_int, is_utf8, np, record_columns, shown)

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
# screen one block of rows makes, and of float32 vectors it reads.
SCREEN_CHUNK = 32
SCREEN_BLOCK_BYTES = 1 << 20
# The largest finite float32.
_FLOAT32_MAX = (2 - 2.0 ** -23) * 2.0 ** 127
# Ids hashed per np.fromiter call by RowCheck, so that no array of a whole
# block's hashes is made beside the array that keeps them.
_HASH_SLICE = 1 << 12
# Bytes of meta.jsonl record lines copied per read by the store writer.
_COPY_BYTES = 1 << 20


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
    """Store over (sentence_id, vector, metadata) rows.

    Built by one insert_batch, then saved or queried; or loaded, then queried,
    its files read back as it uses them.
    Either way any number of readers may query it at once, and queries are
    deterministic regardless of parallelism.
    """

    def __init__(self, dim: int, embedder: str | None = None):
        if dim < 1:
            raise ConfigError(f"store dim must be positive, got {dim}")
        self.dim = dim
        # The spec of the embedder that made the vectors, when known.
        self.embedder = embedder
        # The vectors: the matrix of an inserted store, or a loaded store's
        # vectors.bin, read back a block of rows at a time (_row_blocks).
        self._matrix = np.empty((0, dim), dtype="<f4")
        self._vectors: CheckedFile | None = None
        # The id -> row map of the rows the store has used (_decode).
        self._rows: dict[str, int] = {}
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
        ids = columns[0]
        check = RowCheck(len(matrix))
        check.add(matrix, ids, columns[1])
        if check.repeated():
            # The first id that repeats an earlier one; ids of equal hash may differ.
            seen: set[str] = set()
            for sentence_id in ids:
                if sentence_id in seen:
                    raise ValidationError(f"duplicate sentence_id {shown(sentence_id)}")
                seen.add(sentence_id)
        self._matrix = matrix
        self._ids, self._video_ids, self._texts = columns[:3]
        self._starts, self._ends = (np.asarray(values, np.float64) for values in columns[3:])
        self._videos = len(check.video_ids)
        self._norm = check.norm
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
        return matrix, record_columns(VectorRecord, records)

    def _decode(self, rows: Iterable[int]) -> None:
        """Map ``rows`` by their ids; in a loaded store, decode first those of
        them that load left undecoded."""
        meta = self._meta
        if meta is None:
            self._rows.update((self._ids[row], row) for row in rows)
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
            screens = self._screen(chunk, k, self._held_rows(exclude))
            if self._meta is not None:
                self._decode(self._chunk_rows(screens, k))
            for screened in screens:
                hits = self.top_k(screened, k, exclude=exclude, video_cap=video_cap)
                exclude.update(hit.sentence_id for hit in hits)
                yield hits

    def _chunk_rows(self, screens: list[Screened], k: int) -> list[int]:
        """The rows, ascending, that a loaded store decodes in one pass before
        a chunk's top_k calls. A query ranks rows of its pool only (bar a video
        cap's growth): the band it ranks with nothing excluded, and more of the
        pool as earlier hits are excluded. So these are the bands, and every
        pool row that shares a chunk of meta.jsonl with another: a pool row
        alone in its chunks is read, if ever, by the one top_k that first ranks
        it. Each chunk is then read once per chunk of queries, and a sparse
        pool costs no read of rows that no query ranks."""
        pools = _distinct(np.concatenate([screened.rows for screened in screens]))
        first, last = self._meta.chunks_of(pools + 1)
        # How many pool rows touch each chunk.
        touched = np.bincount(np.concatenate((first, last[last != first])))
        shared = pools[(touched[first] > 1) | (touched[last] > 1)]
        return _distinct(np.concatenate(
            [shared] + [self._band(screened, k, frozenset())[0] for screened in screens])).tolist()

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
        screens above T - 2B, with T its (k * (i + 1))-th best screen.

        A pool is cut to the rows above T - 2B, T the depth-th best screen it
        holds, once it holds twice its depth, and once at the end: a row below
        an earlier cut's T - 2B is below the last one's, so the pools are those
        that a cut after every block would leave."""
        bounds = [self._bound(q) for q in queries]
        # A query the float32 screen cannot hold screens 0 on every row.
        matrix = np.array([q if bound < math.inf else np.zeros(self.dim)
                           for q, bound in zip(queries, bounds)], dtype=np.float32).T
        depths = [k * (i + 1) for i in range(len(queries))]
        floors = [-math.inf] * len(queries)
        # Each query's T - 2B as a float32 that a screen must exceed (_at_most).
        limits = np.full(len(queries), -np.inf, np.float32)
        # Each pool's pieces of rows and screens, and the rows they hold.
        pools = [[(np.empty(0, np.intp), np.empty(0))] for _ in queries]
        held = [0] * len(queries)

        def cut(i: int) -> None:
            rows, screens = (np.concatenate(column) for column in zip(*pools[i]))
            if len(rows) >= depths[i]:
                floors[i] = np.partition(screens, len(rows) - depths[i])[-depths[i]]
                limits[i] = _at_most(floors[i] - 2 * bounds[i])
                # Held in float64, screens compare with T - 2B exactly.
                kept = screens > floors[i] - 2 * bounds[i]
                rows, screens = rows[kept], screens[kept]
            pools[i], held[i] = [(rows, screens)], len(rows)

        # Each block of vectors read (_row_blocks) is screened into a block of
        # as many whole reads as SCREEN_BLOCK_BYTES of screen holds, at least
        # one, which is then searched.
        step = self._read_rows * max(1, SCREEN_BLOCK_BYTES // (4 * len(queries) * self._read_rows))
        screen = np.empty((min(step, self.count), len(queries)), np.float32)
        for at, vectors in self._row_blocks():
            start, end = at - at % step, at + len(vectors)
            np.matmul(vectors, matrix, out=screen[at - start:end - start])
            if end - start < step and end < self.count:
                continue
            block = screen[:end - start]
            lo, hi = np.searchsorted(excluded, (start, end))
            block[excluded[lo:hi] - start] = -np.inf
            # A first block of depth rows or more sets T itself, so that only
            # the rows near its top are gathered.
            for i, depth in enumerate(depths):
                if floors[i] == -math.inf and len(block) >= depth:
                    floors[i] = float(np.partition(block[:, i], len(block) - depth)[-depth])
                    limits[i] = _at_most(floors[i] - 2 * bounds[i])
            # Each query's rows above its limit, ascending, query by query.
            rows, columns = np.divmod(np.flatnonzero(block > limits), len(queries))
            order = np.argsort(columns, kind="stable")
            rows, columns = rows[order], columns[order]
            screens = block[rows, columns].astype(np.float64)
            rows += start
            edges = np.searchsorted(columns, np.arange(len(queries) + 1)).tolist()
            for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
                if hi > lo:
                    pools[i].append((rows[lo:hi], screens[lo:hi]))
                    held[i] += hi - lo
                    if held[i] >= 2 * depths[i]:
                        cut(i)
        for i in range(len(queries)):
            cut(i)
        return [Screened(q, bound, floor, *pool[0])
                for q, bound, floor, pool in zip(queries, bounds, floors, pools)]

    @property
    def _read_rows(self) -> int:
        """The rows of a block of vectors: SCREEN_BLOCK_BYTES of them, or one."""
        return max(1, SCREEN_BLOCK_BYTES // (4 * self.dim))

    def _row_blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """The first row and the float32 vectors of each block of _read_rows
        rows, in row order, one block for an empty store: slices of an inserted
        store's matrix, or a loaded store's vectors.bin read back, checked,
        into one buffer this call makes (CheckedFile.read)."""
        step = self._read_rows
        if self._vectors is None:
            for start in range(0, max(self.count, 1), step):
                yield start, self._matrix[start:start + step]
            return
        size = 4 * self.dim
        buffer = np.empty(CheckedFile.room(min(step, self.count) * size), np.uint8)
        for start in range(0, max(self.count, 1), step):
            stop = min(start + step, self.count)
            data = self._vectors.read(VECTORS_HEADER.size + start * size,
                                      VECTORS_HEADER.size + stop * size, buffer)
            yield start, data.view("<f4").reshape(stop - start, self.dim)

    def _vectors_of(self, rows: np.ndarray) -> np.ndarray:
        """The float32 vectors of ``rows``: gathered from an inserted store's
        matrix, or read back, checked, from a loaded store's vectors.bin, one
        pread for each run of chunks that they touch (CheckedFile.runs)."""
        if self._vectors is None:
            return self._matrix[rows]
        size = 4 * self.dim
        starts = VECTORS_HEADER.size + rows * size
        # A row's last byte is the one before the next row's first.
        runs, _ = self._vectors.runs(starts, starts + size - 1)
        data = b"".join(map(runs.take, starts.tolist(), (starts + size).tolist()))
        return np.frombuffer(data, "<f4").reshape(len(rows), self.dim)

    def _held_rows(self, ids: Collection[str]) -> np.ndarray:
        """The rows, ascending, of those of ``ids`` that the store holds."""
        rows = list(map(self._rows.get, ids))
        # While the map misses a row, an id that it lacks may name that row.
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
            scores = np.clip((self._vectors_of(rows).astype(np.float64) * screened.query)
                             .sum(axis=1), -1.0, 1.0)
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
        """Write the store into ``directory`` (write_store), fed a block of rows
        at a time."""
        # An inserted store holds every row's columns, and maps none to save.
        if self._meta is not None:
            self._decode(range(self.count))
        columns = self._columns()
        with write_store(directory, self.count, self.embedder) as writer:
            for start, vectors in self._row_blocks():
                writer.add(vectors, [column[start:start + len(vectors)] for column in columns])

    @classmethod
    def load(cls, directory: str) -> "VectorStore":
        meta_path = os.path.join(directory, META_FILE)
        vectors_path = os.path.join(directory, VECTORS_FILE)
        for path in (meta_path, vectors_path):
            if not os.path.exists(path):
                raise StoreError(f"missing store file: {path}")

        digest = hashlib.sha256()
        meta = RecordFile(meta_path, STORE_FORMAT, (STORE_VERSION,), StoreError, digest)
        header, count = meta.header, meta.count
        dim = header.get("dim")
        if not is_int(dim) or dim < 1:
            raise StoreError(f"{meta_path}: bad dim {dim!r}")
        embedder = header.get("embedder")
        if embedder is not None and not (isinstance(embedder, str) and is_utf8(embedder)):
            raise StoreError(f"{meta_path}: bad embedder {embedder!r}")
        vectors = CheckedFile(vectors_path, StoreError)
        head = vectors.head(VECTORS_HEADER.size)
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
                f"{vectors_path}: count {bin_count} does not match {count} metadata rows")
        body = VECTORS_HEADER.size + count * dim * 4
        if vectors.size != body + DIGEST_SIZE:
            raise StoreError(
                f"{vectors_path}: expected {body + DIGEST_SIZE} bytes, found {vectors.size}")
        # The one pass: the largest row norm and the first row holding NaN/Inf,
        # found a block at a time, and the CRC-32s (CheckedFile.scan); no
        # block outlives the next read, so the matrix is never held.
        norm, faulty, done = 0.0, None, 0
        for rows in _whole_rows(vectors.scan(), VECTORS_HEADER.size, body, 4 * dim):
            matrix = rows.view("<f4").reshape(-1, dim)
            block_norm, bad = _max_norm(matrix)
            if faulty is None and bad is not None:
                faulty = done + bad
            norm = max(norm, block_norm)
            done += len(matrix)
        # The digest is the save's commit record: meta.jsonl is then exactly
        # what save wrote with these vectors, and its rows decode when used.
        if vectors.read(body, body + DIGEST_SIZE).tobytes() != digest.digest():
            raise StoreError(f"{vectors_path}: digest does not match {meta_path}, so the two "
                             f"files are not one save; re-run aiblob index")
        videos = header.get("videos")
        if not is_int(videos) or not min(count, 1) <= videos <= count:
            raise StoreError(f"{meta_path}: bad videos {videos!r}")
        # The rows stay undecoded (None) until they are first mapped.
        store = cls(dim, embedder)
        store._matrix, store._vectors, store._meta, store._videos = None, vectors, meta, videos
        for column in store._columns()[:3]:
            column.extend([None] * count)
        store._starts, store._ends = np.zeros(count), np.zeros(count)
        store._norm = norm
        if faulty is not None:
            store._decode([faulty])
            raise ValidationError(f"record {shown(store._ids[faulty])}: vector has NaN/Inf")
        return store


class RowCheck:
    """The one check of a store's rows, fed in blocks in row order (add): each
    block's vectors must be finite (_max_norm), and each id's hash goes into one
    int64 array made for ``count`` rows, 8 bytes an id where a set of the ids
    would take over 50, so that only two equal hashes call for a walk of the
    ids (repeated). It keeps the largest row norm and the distinct video ids."""

    def __init__(self, count: int):
        self.norm = 0.0
        self.video_ids: set[str] = set()
        self._hashes = np.empty(count, np.int64)
        self._rows = 0

    def add(self, matrix: np.ndarray, ids: Sequence[str], video_ids: Iterable[str]) -> None:
        """Check the next ``len(ids)`` rows: ``matrix`` holds their vectors."""
        norm, faulty = _max_norm(matrix)
        if faulty is not None:
            raise ValidationError(f"record {shown(ids[faulty])}: vector has NaN/Inf")
        for lo in range(0, len(ids), _HASH_SLICE):
            part = ids[lo:lo + _HASH_SLICE]
            at = self._rows + lo
            self._hashes[at:at + len(part)] = np.fromiter(map(hash, part), np.int64, len(part))
        self._rows += len(ids)
        self.norm = max(self.norm, norm)
        self.video_ids.update(video_ids)

    def repeated(self) -> bool:
        """Whether two ids of the rows checked so far may be equal: two of their
        hashes are. Sorts the hashes in place."""
        hashes = self._hashes[:self._rows]
        hashes.sort()
        return bool((hashes[1:] == hashes[:-1]).any())


class StoreWriter:
    """What write_store yields: the writer of one store's rows, fed a block at
    a time (add), and checked as they are written (``check``)."""

    def __init__(self, vectors: IO[bytes], body: IO[bytes], count: int):
        self.check = RowCheck(count)
        self.dim: int | None = None
        self._count = count
        self._vectors, self._body = vectors, body

    def add(self, matrix: np.ndarray, columns: Sequence[Sequence]) -> None:
        """Write the next rows, checked (RowCheck.add): ``matrix`` is an (n, dim)
        float32 matrix whose row i is the vector of the i-th entry of
        ``columns``, one per META_KEYS field, of values already checked, as
        insert_batch takes them. The first block's width is the store's dim."""
        if self.dim is None:
            self.dim = matrix.shape[1]
            self._vectors.write(VECTORS_HEADER.pack(VECTORS_MAGIC, STORE_VERSION, self.dim,
                                                    self._count))
        self.check.add(matrix, columns[0], columns[1])
        for lines in format_lines(VectorRecord, columns):
            self._body.write(lines)
        self._vectors.write(np.ascontiguousarray(matrix, "<f4"))

    def _finish(self, meta: IO[bytes], embedder: str | None) -> None:
        """Write meta.jsonl, hashing it, and end vectors.bin with its digest."""
        header = {"format": STORE_FORMAT, "version": STORE_VERSION, "dim": self.dim,
                  "embedder": embedder, "videos": len(self.check.video_ids)}
        head = (dumps_line(header) + "\n").encode("utf-8")
        digest = hashlib.sha256(head)
        meta.write(head)
        self._body.seek(0)
        buffer = bytearray(_COPY_BYTES)
        view = memoryview(buffer)
        while got := self._body.readinto(buffer):
            digest.update(view[:got])
            meta.write(view[:got])
        self._vectors.write(digest.digest())


@contextmanager
def write_store(directory: str, count: int, embedder: str | None) -> Iterator[StoreWriter]:
    """The one writer of a store of ``count`` rows in ``directory``, indexed
    with the embedder of spec ``embedder``: yield a StoreWriter, which the
    caller feeds every row (StoreWriter.add), having refused a repeated id
    (StoreWriter.check.repeated). When the block ends, meta.jsonl and
    vectors.bin are completed, then renamed into place, vectors.bin last
    (util.atomic_files); an error or an interrupt in the block leaves
    ``directory`` as it was."""
    import tempfile  # here, so that the commands that write no store never import it

    paths = [os.path.join(directory, name) for name in (META_FILE, VECTORS_FILE)]
    with atomic_files(paths) as (meta, vectors), tempfile.TemporaryFile(dir=directory) as body:
        writer = StoreWriter(vectors, body, count)
        yield writer
        writer._finish(meta, embedder)


def _at_most(value: float) -> np.float32:
    """The largest float32 at most ``value``: a float32 screen compared with it
    passes every row that it passes compared with ``value``, and maybe more."""
    if not value >= -_FLOAT32_MAX:
        return np.float32(-np.inf)
    near = np.float32(value)
    return near if float(near) <= value else np.nextafter(near, np.float32(-np.inf))


def _distinct(rows: np.ndarray) -> np.ndarray:
    """``rows`` ascending, each once: np.unique would import numpy.ma."""
    rows = np.sort(rows)
    first = np.ones(len(rows), bool)
    first[1:] = rows[1:] != rows[:-1]
    return rows[first]


def _whole_rows(blocks: Iterable[np.ndarray], start: int, end: int,
                size: int) -> Iterator[np.ndarray]:
    """Bytes ``start`` to ``end`` of a file read from its start as ``blocks``,
    in whole rows of ``size`` bytes: each block's run of whole rows as a view
    of it, and a row that a block's end cuts as a copy."""
    offset, cut = 0, b""
    for block in blocks:
        rows = block[min(max(start - offset, 0), len(block)):max(end - offset, 0)]
        offset += len(block)
        if cut:
            taken = size - len(cut)
            cut += rows[:taken].tobytes()
            rows = rows[taken:]
            if len(cut) < size:
                continue
            yield np.frombuffer(cut, np.uint8)
        whole = len(rows) - len(rows) % size
        if whole:
            yield rows[:whole]
        cut = rows[whole:].tobytes()


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
