"""Small shared helpers: numpy imported on first use (np), the one writer of
every output file (atomic_files, and atomic_write_bytes for one file:
temporary files renamed over the outputs once all are written, so an error or
an interrupt leaves neither a partial file nor a temporary one), the one JSON
decoder (parse_json) for every file and reply, canonical JSON lines, files
read once in blocks, keeping a file descriptor and a CRC-32 per chunk, not
the bytes, and read back by os.pread (so the package is POSIX-only), each
chunk checked (CheckedFile), JSON-lines files among them, split by one line
rule into lines whose offsets are kept, record files written and read as
columns, value and record checks, provider retries, the one HTTP client
(post_json) and its URL rule."""

from __future__ import annotations

import array
import bisect
import contextlib
import dataclasses
import functools
import json
import math
import operator
import os
import sys
import time
import weakref
import zlib
from itertools import chain
from json.encoder import encode_basestring
from typing import (Any, Callable, Collection, Container, Iterable, Iterator, NamedTuple,
                    Sequence)

from .errors import AiblobError, ConfigError, ParseError, ProviderError, ValidationError


class _Numpy:
    """numpy, imported the first time one of its names is used, so commands that
    never touch an array (render, --help) never load it. Each name is cached on
    the handle, and its next lookup is a plain attribute read. The import is a
    real ``import`` statement: a thread that uses numpy first while another
    thread imports it waits on the import lock for the whole module."""

    def __getattr__(self, name: str) -> Any:
        import numpy
        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np: Any = _Numpy()

# Attempts after the first, for embedding chunks and LLM calls alike.
DEFAULT_RETRIES = 3


# Serialize one object as a compact, key-order-preserving JSON line. The program
# encodes only record files' header lines with it; it is also the reference for
# their record lines, which format_lines writes as exactly this encoding of each
# row's dict. One encoder, built once: json.dumps with non-default options
# builds one per call.
dumps_line: Callable[[dict[str, Any]], str] = json.JSONEncoder(
    ensure_ascii=False, separators=(",", ":")).encode


@contextlib.contextmanager
def atomic_files(paths: Sequence[str]) -> Iterator[list]:
    """The one way the program creates output files: yield a binary file open
    for writing for each of ``paths``, a temporary file beside it, made with
    its directory if need be, with the mode open() gives a new file under the
    umask. When the block ends, the files are closed and renamed over
    ``paths``, in order, so each is complete before any is renamed.

    An error or an interrupt before the renames leaves every path as it was,
    no temporary file, and no directory made for them (one is removed only
    while it is empty); a temporary name that another writer already holds
    raises FileExistsError, and that file is left to it."""
    made: list[str] = []  # directories made, outermost first
    tmps: list[str] = []
    handles = []
    try:
        for path in paths:
            directory = os.path.dirname(os.path.abspath(path))
            missing = []
            parent = directory
            while not os.path.exists(parent):
                missing.append(parent)
                parent = os.path.dirname(parent)
            # Each name is kept before it is made, so that an interrupt
            # landing just after a make still finds it.
            made.extend(reversed(missing))
            os.makedirs(directory, exist_ok=True)
            tmp = os.path.join(directory, f".tmp-{os.urandom(6).hex()}-{os.path.basename(path)}")
            tmps.append(tmp)
            handles.append(open(tmp, "xb"))
        yield handles
        for handle in handles:
            handle.close()
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException as exc:
        for handle in handles:
            handle.close()
        # A FileExistsError naming a temporary file is its create's own: that
        # file is another writer's.
        taken = exc.filename if isinstance(exc, FileExistsError) else None
        for tmp in tmps:
            if tmp != taken and os.path.exists(tmp):
                os.unlink(tmp)
        for directory in reversed(made):
            try:
                os.rmdir(directory)
            except FileNotFoundError:  # not made yet
                pass
            except OSError:  # not empty: it, and each directory around it, is kept
                break
        raise


def atomic_write_bytes(path: str, parts: Iterable) -> None:
    """Write the concatenation of bytes-like parts (C-contiguous arrays too) to
    ``path`` through atomic_files. Each part is written as it is taken from
    ``parts``, so a generator's parts are never all held at once."""
    with atomic_files([path]) as (handle,):
        for part in parts:
            handle.write(part)


def parse_json(data: str | bytes, where: str, error: type[AiblobError] = ParseError) -> Any:
    """Decode one JSON document, a str or bytes of strict UTF-8. Every fault
    raises ``error`` with a message starting with ``where``: bytes not UTF-8,
    invalid JSON (naming its line and column), nesting too deep, or an integer
    past the interpreter's int-to-string limit (sys.get_int_max_str_digits)."""
    try:
        return json.loads(data if isinstance(data, str) else data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise error(f"{where}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{where}: invalid JSON: {exc.msg} at line {exc.lineno}, "
                    f"column {exc.colno}") from exc
    except RecursionError as exc:
        raise error(f"{where}: invalid JSON: nested too deeply") from exc
    except ValueError as exc:
        # The decoder's one other ValueError: int() refusing an over-long integer.
        raise error(f"{where}: invalid JSON: an integer of more than "
                    f"{sys.get_int_max_str_digits()} digits") from exc


def load_json(path: str) -> Any:
    """Decode a whole JSON file (parse_json); faults raise ParseError."""
    with open(path, "rb") as handle:
        return parse_json(handle.read(), path)


def write_json(path: str, obj: Any) -> None:
    """Atomically write one JSON document, indented, keys in insertion order."""
    text = json.dumps(obj, ensure_ascii=False, indent=2) + "\n"
    atomic_write_bytes(path, [text.encode("utf-8")])


def parse_json_line(line: str, path: str, lineno: int) -> dict:
    """Decode one JSON-lines record (parse_json), which must be an object."""
    obj = parse_json(line, f"{path}:{lineno}")
    if not isinstance(obj, dict):
        raise ParseError(f"{path}:{lineno}: expected a JSON object")
    return obj


def check_header(header: Any, path: str, fmt: str, versions: Container[int],
                 error: type[AiblobError]) -> None:
    """Raise ``error`` unless a decoded header (a record file's first line, or a
    whole JSON file) is an object naming format ``fmt`` and one of ``versions``."""
    if not isinstance(header, dict):
        raise error(f"{path}: expected a JSON object, got {type(header).__name__}")
    if header.get("format") != fmt:
        raise error(f"{path}: not an {fmt} file (format={header.get('format')!r})")
    if header.get("version") not in versions:
        raise error(f"{path}: unsupported {fmt.removeprefix('aiblob-')} version "
                    f"{header.get('version')!r}")


# Lines decoded per json.loads call by RecordFile.columns: the decoded rows of
# one block at a time are alive, and the memory they free is reused by the next
# block's, so the rows leave no holes among the column values they outlive. The
# last block's rows are freed into the allocator's arenas, which keep them: on
# the 212,696-line dataset corpus, `aiblob index` peaked about 7 MB lower at
# 2,048 lines than at 8,192, in the same load time.
_READ_BLOCK_LINES = 2048

# Bytes read per block by the one pass of a CheckedFile over its file, into
# one buffer reused for every block; a multiple of _CHUNK_BYTES.
_SCAN_BLOCK_BYTES = 1 << 20

# Bytes of file behind each CRC-32 that a CheckedFile keeps, and the unit in
# which it reads bytes back: one page, so a row read back costs about a
# microsecond of checksum.
_CHUNK_BYTES = 1 << 12

# The alignment of what CheckedFile.read returns: a cache line, which the
# float32 screen reads faster than rows only 4-byte aligned.
_ALIGN_BYTES = 64


class _Runs(NamedTuple):
    """Runs of a file's bytes read back by CheckedFile.runs: ``runs[i]``
    starts at byte ``offsets[i]`` of the file."""

    offsets: list[int]
    runs: list[bytes]

    def take(self, start: int, end: int) -> bytes:
        """Bytes ``start`` to ``end`` of the file, within one run."""
        i = bisect.bisect_right(self.offsets, start) - 1
        base = self.offsets[i]
        return self.runs[i][start - base:end - base]


class CheckedFile:
    """A file read once in blocks (scan), whose bytes are read back by
    os.pread when they are used, each chunk checked against the CRC-32 that
    the scan took of it.

    The scan reads _SCAN_BLOCK_BYTES at a time into one buffer, updates
    ``digest`` (a hashlib object) with each block and takes a CRC-32 of each
    _CHUNK_BYTES of it. What is kept is the file's size (``size``, in bytes:
    as opened, then as scanned), the CRC-32s and a file descriptor, closed
    when the object is collected.
    Bytes are read back by os.pread (POSIX), which moves no shared file
    position, so any number of threads may read at once; each chunk read back
    must match its CRC-32, so the bytes read back are those the scan read, or
    ``error`` is raised naming the file as changed. A file replaced by rename
    is still read through the kept descriptor; no mmap is made, as a file
    truncated under one kills the process with SIGBUS.
    """

    def __init__(self, path: str, error: type[AiblobError]):
        self.path = path
        self.error = error
        self._fd = os.open(path, os.O_RDONLY)
        self._close = weakref.finalize(self, os.close, self._fd)
        self.size = os.fstat(self._fd).st_size
        self._crcs = array.array("I")

    def scan(self, digest=None) -> Iterator[np.ndarray]:
        """Read the file once, from its start: yield each block as a uint8
        array, a view of the one buffer that is valid until the next block is
        read, having updated ``digest`` with it and taken its chunks' CRC-32s."""
        buffer = np.empty(_SCAN_BLOCK_BYTES, np.uint8)
        size = 0
        while True:
            got = 0  # a block is whole unless the file ends in it
            while got < len(buffer):
                read = os.preadv(self._fd, [buffer[got:]], size + got)
                if not read:
                    break
                got += read
            block = buffer[:got]
            if digest is not None:
                digest.update(block)
            self._crcs.extend(self._crc32s(block))
            size += got
            self.size = size
            if got:
                yield block
            if got < len(buffer):
                return

    def head(self, length: int) -> bytes:
        """The file's first ``length`` bytes, fewer if it is shorter, read
        unchecked: a header to check before the scan."""
        return os.pread(self._fd, length, 0)

    @staticmethod
    def _crc32s(data) -> list[int]:
        """The CRC-32 of each _CHUNK_BYTES of ``data``."""
        view = memoryview(data)
        return [zlib.crc32(view[i:i + _CHUNK_BYTES]) for i in range(0, len(view), _CHUNK_BYTES)]

    def _chunks(self, first: int, last: int, into: np.ndarray | None = None):
        """Chunks ``first`` to ``last`` of the file, read back by one pread, as
        bytes or into ``into`` (a uint8 array at least as long, of which the
        part read is returned), or ``error`` unless each matches its CRC-32."""
        start = first * _CHUNK_BYTES
        length = min((last + 1) * _CHUNK_BYTES, self.size) - start
        if into is None:
            data = os.pread(self._fd, length, start)
        else:
            data = into[:os.preadv(self._fd, [into[:length]], start)]
        if self._crc32s(data) != self._crcs[first:last + 1].tolist():
            raise self.error(f"{self.path}: changed since it was read; load it again")
        return data

    def runs(self, starts: np.ndarray, ends: np.ndarray,
             held: tuple[int, bytes] = (-1, b"")) -> tuple[_Runs, tuple[int, bytes]]:
        """The runs of chunks that hold bytes ``starts[i]`` to ``ends[i]`` of
        the file, with the byte at ``ends[i]`` while there is one, each run
        read by one pread (_chunks), and the index and bytes of the last chunk
        read. A run that starts at the chunk ``held`` holds (such a pair from
        an earlier call) takes its bytes from it."""
        runs = _Runs([], [])
        if not len(starts):
            return runs, held
        # The first and last chunk of each span, sorted apart: the union of
        # the spans' chunks has a gap before the j-th first chunk exactly when
        # the j smallest last chunks all end before it. Chunks that touch or
        # follow each other are one run.
        first = np.sort(starts // _CHUNK_BYTES)
        last = np.sort(np.minimum(ends, self.size - 1) // _CHUNK_BYTES)
        gaps = first[1:] > last[:-1] + 1
        for lo_chunk, hi_chunk in zip([int(first[0])] + first[1:][gaps].tolist(),
                                      last[:-1][gaps].tolist() + [int(last[-1])]):
            if lo_chunk != held[0]:
                data = self._chunks(lo_chunk, hi_chunk)
            elif hi_chunk > lo_chunk:
                data = held[1] + self._chunks(lo_chunk + 1, hi_chunk)
            else:
                data = held[1]
            runs.offsets.append(lo_chunk * _CHUNK_BYTES)
            runs.runs.append(data)
            held = hi_chunk, data[(hi_chunk - lo_chunk) * _CHUNK_BYTES:]
        return runs, held

    @staticmethod
    def room(length: int) -> int:
        """The bytes of buffer that read needs for ``length`` bytes of file."""
        return length + 2 * _CHUNK_BYTES + _ALIGN_BYTES

    def read(self, start: int, end: int, buffer: np.ndarray | None = None) -> np.ndarray:
        """Bytes ``start`` to ``end`` of the file, read back by one pread of the
        chunks that hold them (_chunks) into ``buffer``, a uint8 array of at
        least room(end - start) bytes (made if None): a view of it, placed so
        that its first byte is _ALIGN_BYTES-aligned."""
        if buffer is None:
            buffer = np.empty(self.room(end - start), np.uint8)
        first, last = start // _CHUNK_BYTES, max(end - 1, start) // _CHUNK_BYTES
        head = start - first * _CHUNK_BYTES
        shift = -(buffer.ctypes.data + head) % _ALIGN_BYTES
        return self._chunks(first, last, buffer[shift:])[head:head + end - start]


class JsonLines(CheckedFile):
    """A JSON-lines file, read once in blocks (CheckedFile.scan), whose lines
    are read back, checked, when they are used.

    Lines end at "\n", and a "\r" just before a line's end is not part of it,
    so "\r\n" reads as "\n" and a lone "\r" is no line break; blank lines
    are skipped. Errors name a line by its number in the file (lineno); bytes
    that are not UTF-8 raise ``error`` when their line is decoded. Beside what
    a CheckedFile keeps, the scan finds each block's line ends, and the span
    of each line is kept.
    """

    def __init__(self, path: str, error: type[AiblobError], digest=None):
        super().__init__(path, error)
        try:
            self._scan(digest)
        except BaseException:
            self._close()
            raise

    def _scan(self, digest) -> None:
        """Read the file once (scan), finding its lines' spans."""
        newlines, returns = [], []
        size = last = 0  # bytes read, and the last of them
        for data in self.scan(digest):
            at = np.flatnonzero(data == ord("\n"))
            # Whether the byte before each "\n" is a "\r", the previous block's
            # last byte for a "\n" that starts this one.
            before = data[at - 1]
            if len(at) and at[0] == 0:
                before[0] = last
            newlines.append(at + size)
            returns.append(before == ord("\r"))
            size += len(data)
            last = int(data[-1])
        ends = np.concatenate(newlines) if newlines else np.empty(0, np.intp)
        cut = np.concatenate(returns) if returns else np.empty(0, bool)
        if size and last != ord("\n"):
            ends = np.append(ends, size)
            cut = np.append(cut, last == ord("\r"))
        starts = np.zeros_like(ends)
        starts[1:] = ends[:-1] + 1
        ends -= cut
        filled = ends > starts
        # Each kept line's number in the file, when a blank line was skipped.
        self._linenos = None
        if not filled.all():
            self._linenos = np.flatnonzero(filled) + 1
            starts, ends = starts[filled], ends[filled]
        self._starts, self._ends = starts, ends

    def chunks_of(self, lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The first and the last chunk that reading back each of line
        indices ``lines`` touches, the byte after the line included (runs)."""
        return (self._starts[lines] // _CHUNK_BYTES,
                np.minimum(self._ends[lines], self.size - 1) // _CHUNK_BYTES)

    def lineno(self, index: int) -> int:
        """The number in the file (from 1) of line index ``index``."""
        return index + 1 if self._linenos is None else int(self._linenos[index])

    def _text(self, index: int, line: bytes) -> str:
        """The bytes ``line`` of line index ``index``, decoded."""
        try:
            return line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"{self.path}:{self.lineno(index)}: not valid UTF-8 "
                             f"({exc.reason} at byte {int(self._starts[index]) + exc.start})"
                             ) from exc

    def _blocks(self, lines: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray,
                                                          _Runs]]:
        """Line indices ``lines``, _READ_BLOCK_LINES at a time, each block with
        its lines' starts and ends and the runs of chunks that hold them with
        the "\n" after each (runs). A chunk that ends one block's reads and
        starts the next block's is read once, so lines in file order read each
        chunk they touch once."""
        held = (-1, b"")
        for lo in range(0, len(lines), _READ_BLOCK_LINES):
            block = lines[lo:lo + _READ_BLOCK_LINES]
            starts, ends = self._starts[block], self._ends[block]
            runs, held = self.runs(starts, ends, held)
            yield block, starts, ends, runs

    def _lines(self, lines: np.ndarray) -> Iterator[tuple[int, str]]:
        """Each of line indices ``lines`` and its text, in order."""
        for block, starts, ends, runs in self._blocks(lines):
            for index, start, end in zip(block.tolist(), starts.tolist(), ends.tolist()):
                yield index, self._text(index, runs.take(start, end))

    def objects(self) -> Iterator[tuple[int, dict]]:
        """Each line's number in the file and its JSON object (parse_json_line)."""
        for index, text in self._lines(np.arange(len(self._starts))):
            lineno = self.lineno(index)
            yield lineno, parse_json_line(text, self.path, lineno)


class RecordFile(JsonLines):
    """A JSON-lines record file (JsonLines) whose first line, decoded and checked
    (check_header), is ``header``; record ``r`` is line index r + 1."""

    def __init__(self, path: str, fmt: str, versions: Container[int],
                 error: type[AiblobError], digest=None):
        super().__init__(path, error, digest)
        if not len(self._starts):
            raise error(f"{path}: empty {fmt.removeprefix('aiblob-')} file (missing header)")
        self.count = len(self._starts) - 1
        _, text = next(self._lines(np.zeros(1, np.intp)))
        self.header = parse_json_line(text, path, self.lineno(0))
        check_header(self.header, path, fmt, versions, error)

    def columns(self, cls, what: str = "record", rows: Sequence[int] | None = None,
                shared: str | None = None, seen: set | None = None) -> tuple:
        """The columns of records ``rows`` (every record by default), in that
        order: one per field of dataclass ``cls`` annotated with a kind of
        _FIELD_KINDS, in field order, a float64 array for a float field and a
        list for any other. Each record is an object with those fields as keys;
        ``cls``'s other fields have no key. Ints in float fields become floats.
        With ``seen`` set (a set, of ids read before), the values of the first
        field, the id, must be distinct and absent from ``seen``, to which
        they are then added. With ``shared`` set, equal values of that field (a
        field of few distinct values, such as a video id) are one object, found
        through a dict that lives for this call.

        One check covers all the rows. Blocks of lines are each joined with
        ",\\n" and decoded by one ``json.loads``, and the rows pass only if all
        of these hold:

        - every line starts with "{" and ends with "}", each block is UTF-8 and
          decodes to as many rows as it has lines;
        - every row is a dict whose keys are the fields, in order;
        - each column holds only its field's type (ints, within the float range,
          may stand in a float column; bools never pass), float columns are
          finite, and no string holds a lone surrogate;
        - with ``seen``, the id column holds no repeat, nor a value in ``seen``.

        Rows of scalars are what make the join exact: a newline ends no JSON
        string, so no string crosses a line, and with no object nested in a row,
        the "}" that ends a line can only close a row, so no row crosses a line
        either. Each line is then exactly one row, decoded as it would be alone.

        When the check fails, the rows are walked one by one with
        parse_json_line and from_json, so the first fault in row order raises
        what a per-row reader raises: ``error`` for a line that is not UTF-8,
        ParseError for one that is not a JSON object, ``error`` with message
        "{path}:{lineno}: bad {what}: ..." for a bad record, ValidationError
        "{path}:{lineno}: duplicate {id field} {value}" for a repeat (of an id
        of an earlier row or in ``seen``). Rows without
        a fault (keys in another order, say) load from that walk.
        """
        lines = np.arange(1, self.count + 1) if rows is None else np.asarray(rows, np.intp) + 1
        columns = self._decode(cls, lines, shared, seen)
        if columns is None:
            columns = self._walk(cls, lines, what, shared, seen)
        return columns

    def _decode(self, cls, lines: np.ndarray, shared: str | None,
                seen: set | None) -> tuple | None:
        """The columns of line indices ``lines``, or None unless they pass the
        check of columns; with ``seen``, a repeated id gives None too. Each
        block's values are checked, and a float column's turned into its
        array, before the next block is decoded."""
        rules = _field_rules(cls)
        names = [name for name, *_ in rules]
        # Each column is made at its full length and filled a block at a time:
        # a list grown by extend reallocates its item array in steps whose
        # freed copies stay on the heap below glibc's sliding mmap threshold,
        # which raised the dataset `aiblob index` peak by about 3.5 MB.
        columns = tuple(np.empty(len(lines)) if kind is float else [None] * len(lines)
                        for _, kind, *_ in rules)
        interned: dict = {}
        lo = 0
        for block, starts, ends, runs in self._blocks(lines):
            # Lines that follow each other in the file are sliced as one run, in
            # which each "\n" is one line's end: slicing line by line took a
            # fifth more CPU time over the 212,696-line dataset corpus.
            breaks = np.flatnonzero(starts[1:] != ends[:-1] + 1) + 1
            text = b"\n".join(map(runs.take, starts[np.append(0, breaks)].tolist(),
                                   ends[np.append(breaks, len(block)) - 1].tolist()))
            # Every line must start with "{" and end with "}": in the joined
            # text, line i ends just before at[i], a "\n" or the text's end.
            lengths = ends - starts
            at = np.cumsum(lengths + 1) - 1
            data = np.frombuffer(text, np.uint8)
            if not ((data[at - lengths] == ord("{")).all() and (data[at - 1] == ord("}")).all()):
                return None
            del data
            try:
                text = "[" + text.replace(b"\n", b",\n").decode("utf-8") + "]"
                rows = json.loads(text)
            except (ValueError, RecursionError):
                return None
            # A string can hold a lone surrogate only through a \ud or \uD escape
            # (a decoded block is strict UTF-8). A one-character search is a
            # memchr, ten times faster than one for "\ud", and most blocks hold
            # no "\".
            escaped = "\\" in text and ("\\ud" in text or "\\uD" in text)
            del text
            if len(rows) != len(block) or not all(
                    type(row) is dict and list(row) == names for row in rows):
                return None
            for column, (name, kind, *_) in zip(columns, rules):
                values = list(map(operator.itemgetter(name), rows))
                if kind is float:
                    values = float_column(values)
                    if values is None:
                        return None
                    column[lo:lo + len(values)] = values
                elif not set(map(type, values)) <= {kind}:
                    return None
                elif kind is str and escaped and not is_utf8("".join(values)):
                    return None
                else:
                    column[lo:lo + len(values)] = (
                        map(interned.setdefault, values, values) if name == shared else values)
            lo += len(block)
        if seen is not None:
            distinct = set(columns[0])
            if len(distinct) != len(lines) or not distinct.isdisjoint(seen):
                return None
            seen |= distinct
        return columns

    def _walk(self, cls, lines: np.ndarray, what: str, shared: str | None,
              seen: set | None) -> tuple:
        """The per-row reader of columns: the columns of line indices ``lines``,
        or the error for the first faulty one."""
        rules = _field_rules(cls)
        names = [name for name, *_ in rules]
        given = {field.name: None for field in dataclasses.fields(cls) if field.name not in names}
        records = []
        for index, text in self._lines(lines):
            lineno = self.lineno(index)
            where = f"{self.path}:{lineno}"
            record = from_json(cls, parse_json_line(text, self.path, lineno),
                               self.error, f"{where}: bad {what}", **given)
            if seen is not None:
                value = getattr(record, names[0])
                if value in seen:
                    raise ValidationError(f"{where}: duplicate {names[0]} {shown(value)}")
                seen.add(value)
            records.append(record)
        interned: dict = {}
        columns = ([getattr(record, name) for record in records] for name in names)
        return tuple(np.array(values, np.float64) if kind is float
                     else list(map(interned.setdefault, values, values)) if name == shared
                     else values for values, (name, kind, *_) in zip(columns, rules))


def float_column(values: list) -> np.ndarray | None:
    """``values`` as float64, turning its ints into floats in place, or None
    unless every value is an int or a float (not a bool), every int is within
    the finite float range, and every value is finite."""
    kinds = set(map(type, values))
    if not kinds <= {int, float}:
        return None
    if int in kinds:
        # An int just past the largest float rounds down to it instead of
        # overflowing, so ints are range-checked exactly before conversion.
        if not -sys.float_info.max <= min(values) <= max(values) <= sys.float_info.max:
            return None
        values[:] = map(float, values)
    array = np.array(values, np.float64)
    return array if np.isfinite(array).all() else None


# Lines formatted and written per write by write_columns. Measured on a
# 212,696-row store save, 1,024 kept the peak RSS of `aiblob index` at the
# per-row writer's, where 8,192 raised it by about 6 MB for no measured speed.
_WRITE_BLOCK_LINES = 1024

# How write_columns encodes a value of each field kind: as dumps_line does
# (ensure_ascii=False strings, and repr for numbers).
_ENCODERS = {str: encode_basestring, int: int.__repr__, float: float.__repr__}


def write_columns(path: str, header: dict[str, Any], cls, columns: Sequence[Sequence]) -> None:
    """Atomically write a JSON-lines record file from columns, the inverse of
    RecordFile.columns: the header line, then the UTF-8 blocks of record lines
    of format_lines(cls, columns), through atomic_write_bytes.
    """
    head = (dumps_line(header) + "\n").encode("utf-8")
    atomic_write_bytes(path, chain([head], format_lines(cls, columns)))


def format_lines(cls, columns: Sequence[Sequence]) -> Iterator[bytes]:
    """The record lines of ``columns``, one object per row keyed by the fields
    of dataclass ``cls`` that RecordFile.columns reads, in field order, as
    UTF-8 blocks of up to _WRITE_BLOCK_LINES whole lines each.

    ``columns`` holds one sequence per such field, in that order, as
    RecordFile.columns returns them: a list (or a range), each value of its
    field's type (finite for a float), or for a float field a float64 array,
    whose values are written as the Python floats of its ``tolist``. Each
    column is sliced a block at a time. Each row's line is exactly
    ``dumps_line`` of the row's dict and a newline: values are encoded by the
    json module's own encoders and set between the fixed pieces of one line
    template, a block of lines at a time. A wrong number of columns, or
    columns of unequal length, raise ValueError.
    """
    rules = _field_rules(cls)
    encoders = [_ENCODERS[kind] for _, kind, *_ in rules]
    # '{"a":', ',"b":', ... '}\n': piece i goes before value i, the last after them.
    pieces = [("," if i else "{") + encode_basestring(name) + ":"
              for i, (name, *_) in enumerate(rules)] + ["}\n"]
    width = len(pieces) + len(rules)
    columns = [column for _, column in zip(rules, columns, strict=True)]
    rows = len(columns[0])
    if any(len(column) != rows for column in columns):
        raise ValueError("columns of unequal length")
    for start in range(0, rows, _WRITE_BLOCK_LINES):
        count = min(rows - start, _WRITE_BLOCK_LINES)
        parts: list[str] = [""] * (width * count)
        for i, piece in enumerate(pieces):
            parts[2 * i::width] = [piece] * count
        for i, (encode, column) in enumerate(zip(encoders, columns)):
            values = column[start:start + _WRITE_BLOCK_LINES]
            parts[2 * i + 1::width] = map(encode, values.tolist() if hasattr(values, "tolist")
                                          else values)
        yield "".join(parts).encode("utf-8")


def record_columns(cls, records: Sequence) -> list[list]:
    """The columns of ``records``, instances of dataclass ``cls``, as
    write_columns takes them: one list of attribute values per field."""
    return [list(map(operator.attrgetter(name), records)) for name, *_ in _field_rules(cls)]


def is_utf8(text: str) -> bool:
    """Whether UTF-8 can encode str ``text``: it holds no lone surrogate, which a
    JSON \\u escape or a surrogate-escaped command-line argument can put there."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")  # several times faster than a regular expression scan
    except UnicodeEncodeError:
        return False
    return True


def shown(value: Any) -> str:
    """``value`` (an id or a key) as an error message shows it: a printable string
    as it is, anything else by repr, so that a line break or another unprintable
    character cannot split the message over two lines."""
    return value if isinstance(value, str) and value.isprintable() else repr(value)


def is_int(value: Any) -> bool:
    """A real int: bools and integral floats do not count."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value: Any) -> bool:
    """An int or float (not a bool) within the finite float range; NaN fails."""
    return (is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


_FIELD_KINDS = {
    "int": (int, is_int, "an integer"),
    "float": (float, is_finite_number, "a finite number"),
    "str": (str, lambda value: isinstance(value, str), "a string"),
}


def bounded(default: Any = dataclasses.MISSING, lo: float = -math.inf, hi: float = math.inf):
    """A dataclass field, with ``default`` if given, whose value check_field_types
    holds to [lo, hi] after its type check (null passes in a ``| None`` field)."""
    wording = f"at least {lo:g}" if hi == math.inf else f"in [{lo:g}, {hi:g}]"
    return dataclasses.field(default=default, metadata={"bound": (lo, hi, wording)})


@functools.cache
def _field_rules(cls) -> tuple[tuple, ...]:
    """(name, type, check, wanted, nullable, bound) for each field of dataclass
    ``cls`` annotated with a kind of _FIELD_KINDS, optionally ``| None``; bound is
    (lo, hi, wording) for a ``bounded`` field, else None."""
    rules = []
    for field in dataclasses.fields(cls):
        kind, _, optional = field.type.partition(" | ")
        if kind in _FIELD_KINDS:
            rules.append((field.name, *_FIELD_KINDS[kind], optional == "None",
                          field.metadata.get("bound")))
    return tuple(rules)


def check_field_types(obj, error: type[AiblobError] = ConfigError, where: str = "") -> None:
    """Raise ``error`` unless every field of dataclass ``obj`` annotated ``int``,
    ``float`` or ``str`` holds a real int, a finite non-bool number or a str
    without lone surrogates (is_utf8), within its bound if it is a ``bounded``
    field; ``| None`` also allows null.
    Ints in float fields become floats. Fields with other annotations are not
    checked. Messages start with ``where``.

    Reads the annotations as strings, so the defining module needs
    ``from __future__ import annotations``.
    """
    for name, kind, check, wanted, nullable, bound in _field_rules(type(obj)):
        value = getattr(obj, name)
        # The common case, tested without a call: the exact type, and for a float
        # a finite value (NaN and infinities give NaN here).
        if type(value) is not kind or (kind is float and value - value != 0.0):
            if value is None and nullable:
                continue
            if not check(value):
                null = " or null" if nullable else ""
                prefix = f"{where}: " if where else ""
                raise error(f"{prefix}{name} must be {wanted}{null}, got {value!r}")
            if kind is float:
                value = float(value)
                setattr(obj, name, value)
        if bound is not None and not bound[0] <= value <= bound[1]:
            prefix = f"{where}: " if where else ""
            raise error(f"{prefix}{name} must be {bound[2]}, got {value!r}")
        if kind is str and not is_utf8(value):
            prefix = f"{where}: " if where else ""
            raise error(f"{prefix}{name} must be a string without lone surrogates, got {value!r}")


def check_keys(data: Any, names: Collection[str], error: type[AiblobError], where: str,
               optional: Collection[str] = ()) -> None:
    """Raise ``error``, with a message starting with ``where``, unless ``data`` is a
    JSON object whose keys are ``names``; those also in ``optional`` may be missing."""
    if not isinstance(data, dict):
        raise error(f"{where}: expected a JSON object, got {type(data).__name__}")
    unknown = sorted(data.keys() - set(names))
    if unknown:
        raise error(f"{where}: unknown key(s): {', '.join(map(shown, unknown))}")
    missing = [name for name in names if name not in data and name not in optional]
    if missing:
        raise error(f"{where}: missing key(s): {', '.join(missing)}")


def from_json(cls, data: Any, error: type[AiblobError], where: str, **given):
    """Build dataclass ``cls`` from a decoded JSON object and the ``given`` fields
    the file does not hold, then check its field types (check_field_types).

    A non-object, an unknown or a missing key without a default raises ``error``
    (check_keys); an AiblobError raised while building ``cls`` is raised again as
    the same class. Every message starts with ``where``.
    """
    try:
        obj = cls(**data, **given)
    except TypeError:
        # A non-object, an unknown or a missing key fails construction; only then are keys read.
        fields = [field for field in dataclasses.fields(cls) if field.name not in given]
        check_keys(data, [field.name for field in fields], error, where, optional={
            field.name for field in fields if field.default is not dataclasses.MISSING
            or field.default_factory is not dataclasses.MISSING})
        raise
    except AiblobError as exc:
        raise type(exc)(f"{where}: {exc}") from exc
    check_field_types(obj, error, where)
    return obj


def retry(call: Callable[[], Any], attempts: int, what: str, backoff: Sequence[float] = (),
          sleep: Callable[[float], None] = time.sleep) -> Any:
    """Return ``call()`` from the first of ``attempts`` tries that does not raise
    ProviderError, sleeping ``backoff[i-1]`` (the last delay repeating) before try i.
    When every try fails, raise a ProviderError naming ``what``."""
    last: ProviderError | None = None
    for attempt in range(attempts):
        if attempt and backoff:
            sleep(backoff[min(attempt, len(backoff)) - 1])
        try:
            return call()
        except ProviderError as exc:
            last = exc
    raise ProviderError(f"{what} failed after {attempts} attempts: {last}")


def round_half_away(x: float) -> int:
    """Round to the nearest integer, halves away from zero (2.5 -> 3, -2.5 -> -3)."""
    if x >= 0:
        return int(math.floor(x + 0.5))
    return int(math.ceil(x - 0.5))


def check_url(url: str | None, what: str) -> None:
    """Raise ConfigError naming ``url`` unless post_json can send to it: http or
    https, a host with no empty or over-long label, no user info, a port (if any)
    in 0..65535, printable ASCII."""
    from urllib.parse import urlsplit

    try:
        parts = urlsplit(url or "")
        parts.port  # a ValueError unless the port, if any, is a number in 0..65535
        (parts.hostname or "").encode("idna")  # UnicodeError: a label the lookup refuses
    except ValueError:  # those two, or an unbalanced "[" around the host
        parts = None
    if (parts is None or parts.scheme not in ("http", "https") or not parts.hostname
            or "@" in parts.netloc or not (url.isascii() and url.isprintable()) or " " in url):
        raise ConfigError(f"{what}: base URL {url!r} must be http or https, with a host, "
                          f"no user info and a numeric port if any, in printable ASCII")


def post_json(url: str, payload: dict, api_key: str | None, timeout: float) -> Any:
    """POST ``payload`` as JSON, with ``api_key`` (if any) as a Bearer token, and
    return the decoded reply (parse_json). Any transport fault, timeouts included,
    raises ProviderError; a key that no header can carry raises ConfigError."""
    import http.client
    import urllib.error
    import urllib.request

    headers = {"Content-Type": "application/json"}
    if api_key:
        if not (api_key.isascii() and api_key.isprintable()):
            raise ConfigError("the API key must be printable ASCII")
        headers["Authorization"] = f"Bearer {api_key}"
    request = urllib.request.Request(url, json.dumps(payload).encode("utf-8"), headers,
                                     method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            body = response.read()
    except urllib.error.HTTPError as exc:
        raise ProviderError(f"endpoint returned HTTP {exc.code}") from exc
    except urllib.error.URLError as exc:
        raise ProviderError(f"endpoint unreachable: {exc.reason}") from exc
    except (OSError, http.client.HTTPException) as exc:
        # repr: a bad status line holds its own line break.
        raise ProviderError(f"endpoint reply failed: {exc!r}") from exc
    return parse_json(body, "endpoint reply", ProviderError)
