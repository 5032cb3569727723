"""Small shared helpers: atomic file writes, UTF-8 and JSON file reading,
canonical JSON lines, JSON-lines record files read as columns, value and
record checks, provider retries, HTTP POST."""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import operator
import os
import sys
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from typing import IO, Any, Callable, Collection, Iterable, Iterator, Sequence

import numpy as np

from .errors import AiblobError, ConfigError, ParseError, ProviderError, ValidationError

# Attempts after the first, for embedding chunks and LLM calls alike.
DEFAULT_RETRIES = 3


# Serialize one record as a compact, key-order-preserving JSON line. One encoder
# for every line: json.dumps with non-default options builds one per call.
dumps_line: Callable[[dict[str, Any]], str] = json.JSONEncoder(
    ensure_ascii=False, separators=(",", ":")).encode


@contextmanager
def _atomic_open(path: str, binary: bool) -> Iterator[IO]:
    """Open a temp file beside path, renamed over it only if the block completes,
    so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(6).hex()}-{os.path.basename(path)}")
    # Mode 0o666 under the process umask: the mode open() would give a new file.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with (os.fdopen(fd, "wb") if binary
              else os.fdopen(fd, "w", encoding="utf-8", newline="\n")) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    with _atomic_open(path, binary=False) as handle:
        handle.write(text)


def atomic_write_bytes(path: str, *parts) -> None:
    """Atomically write the concatenation of bytes-like parts (C-contiguous arrays too)."""
    with _atomic_open(path, binary=True) as handle:
        for part in parts:
            handle.write(part)


def write_jsonl(path: str, header: dict[str, Any], rows: Iterable[dict[str, Any]]) -> None:
    """Atomically write a header line, then one JSON line per row, streamed."""
    with _atomic_open(path, binary=False) as handle:
        handle.write(dumps_line(header) + "\n")
        for row in rows:
            handle.write(dumps_line(row) + "\n")


def read_text(path: str) -> str:
    """A UTF-8 text file's contents (universal newlines); invalid bytes raise ParseError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from exc


def load_json(path: str) -> Any:
    """Decode a whole UTF-8 JSON file."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: invalid JSON: nested too deeply") from exc


def write_json(path: str, obj: Any) -> None:
    """Atomically write one JSON document, indented, keys in insertion order."""
    atomic_write_text(path, json.dumps(obj, ensure_ascii=False, indent=2) + "\n")


def parse_json_line(line: str, path: str, lineno: int) -> dict:
    """Decode one JSON-lines record, which must be an object."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}:{lineno}: invalid JSON: nested too deeply") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}:{lineno}: expected a JSON object")
    return obj


def read_jsonl(path: str, fmt: str, version: int,
               error: type[AiblobError] = ParseError) -> tuple[dict, list[str]]:
    """Check the {"format", "version"} header line of a JSON-lines file, raising
    ``error``; returns the header and the non-empty lines after it."""
    lines = [line for line in read_text(path).split("\n") if line]
    kind = fmt.removeprefix("aiblob-")
    if not lines:
        raise error(f"{path}: empty {kind} file (missing header)")
    header = parse_json_line(lines[0], path, 1)
    if header.get("format") != fmt:
        raise error(f"{path}: not a {kind} file (format={header.get('format')!r})")
    if header.get("version") != version:
        raise error(f"{path}: unsupported {kind} version {header.get('version')!r}")
    return header, lines[1:]


# Lines decoded per json.loads call by read_columns: the decoded rows of one
# block at a time are alive, and the memory they free is reused by the next
# block's, so the rows leave no holes among the column values they outlive.
_BLOCK_LINES = 8192


def read_columns(path: str, fmt: str, version: int, cls, error: type[AiblobError],
                 what: str = "record", unique: str | None = None) -> tuple[dict, tuple[list, ...]]:
    """Read a JSON-lines record file as columns: read_jsonl's header, then one
    list per field of dataclass ``cls`` annotated with a kind of _FIELD_KINDS, in
    field order. Each line holds one record object with those fields as keys;
    ``cls``'s other fields have no key. Ints in float fields become floats. With
    ``unique`` set, the values of that field must be distinct.

    One check covers the whole file. Blocks of lines are each joined with ",\\n"
    and decoded by one ``json.loads``, and the rows pass only if all of these hold:

    - every line starts with "{" and ends with "}", and each block decodes to as
      many rows as it has lines;
    - every row is a dict whose keys are the fields, in order;
    - each column holds only its field's type (ints, within the float range,
      may stand in a float column; bools never pass), and float columns are finite;
    - the ``unique`` column holds no repeat.

    Rows of scalars are what make the join exact: a newline ends no JSON string,
    so no string crosses a line, and with no object nested in a row, the "}"
    that ends a line can only close a row, so no row crosses a line either.
    Each line is then exactly one row, decoded as it would be on its own.

    When the check fails, the file is read again and walked row by row with
    parse_json_line and from_json, so the first fault in line order raises what
    a per-row reader raises: ParseError for a line that is not a JSON object,
    ``error`` with message "{path}:{lineno}: bad {what}: ..." for a bad record,
    ValidationError "{path}:{lineno}: duplicate {unique} {value}" for a repeat.
    A file without a fault (keys in another order, say) loads from that walk.
    """
    header, lines = read_jsonl(path, fmt, version, error)
    columns = _decode_columns(cls, lines, unique)
    if columns is None:
        header, lines = read_jsonl(path, fmt, version, error)
        columns = _walk_rows(lines, path, cls, error, what, unique)
    return header, columns


def _decode_columns(cls, lines: list[str], unique: str | None) -> tuple[list, ...] | None:
    """The columns of ``lines``, emptying that list as they are decoded, or None
    unless they pass read_columns' check; a repeat of ``unique`` gives None too."""
    rules = _field_rules(cls)
    names = [name for name, *_ in rules]
    columns = tuple([] for _ in rules)
    while lines:
        count = min(len(lines), _BLOCK_LINES)
        text = "[" + ",\n".join(lines[:count]) + "]"
        del lines[:count]
        if not (text[1] == "{" and text[-2] == "}" and text.count("},\n{") == count - 1):
            return None
        try:
            rows = json.loads(text)
        except (json.JSONDecodeError, RecursionError):
            return None
        del text
        if len(rows) != count or not all(type(row) is dict and list(row) == names
                                         for row in rows):
            return None
        for column, name in zip(columns, names):
            column.extend(map(operator.itemgetter(name), rows))
    for column, (name, kind, *_) in zip(columns, rules):
        if kind is float:
            if float_column(column) is None:
                return None
        elif not set(map(type, column)) <= {kind}:
            return None
        if name == unique and len(set(column)) != len(column):
            return None
    return columns


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


def _walk_rows(lines: list[str], path: str, cls, error: type[AiblobError], what: str,
               unique: str | None) -> tuple[list, ...]:
    """read_columns' per-row reader: the columns of ``lines`` (the lines after the
    header), or the error for the first faulty line."""
    names = [name for name, *_ in _field_rules(cls)]
    given = {field.name: None for field in dataclasses.fields(cls) if field.name not in names}
    records = []
    seen: set = set()
    for lineno, line in enumerate(lines, start=2):
        record = from_json(cls, parse_json_line(line, path, lineno), error,
                           f"{path}:{lineno}: bad {what}", **given)
        if unique is not None:
            value = getattr(record, unique)
            if value in seen:
                raise ValidationError(f"{path}:{lineno}: duplicate {unique} {value}")
            seen.add(value)
        records.append(record)
    return tuple([getattr(record, name) for record in records] for name in names)


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
    ``float`` or ``str`` holds a real int, a finite non-bool number or a str,
    within its bound if it is a ``bounded`` field; ``| None`` also allows null.
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


def check_keys(data: Any, names: Collection[str], error: type[AiblobError], where: str,
               optional: Collection[str] = ()) -> None:
    """Raise ``error``, with a message starting with ``where``, unless ``data`` is a
    JSON object whose keys are ``names``; those also in ``optional`` may be missing."""
    if not isinstance(data, dict):
        raise error(f"{where}: expected a JSON object, got {type(data).__name__}")
    unknown = sorted(data.keys() - set(names))
    if unknown:
        raise error(f"{where}: unknown key(s): {', '.join(unknown)}")
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


def post_json(url: str, payload: dict, headers: dict, timeout: float) -> dict:
    """POST a JSON payload and return the decoded JSON response.

    Transport and decoding failures raise ProviderError.
    """
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=body, method="POST")
    request.add_header("Content-Type", "application/json")
    for name, value in headers.items():
        request.add_header(name, value)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        raise ProviderError(f"endpoint returned HTTP {exc.code}") from exc
    except urllib.error.URLError as exc:
        raise ProviderError(f"endpoint unreachable: {exc.reason}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ProviderError(f"endpoint returned invalid JSON: {exc}") from exc
