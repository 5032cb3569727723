"""Small shared helpers: atomic file writes, canonical JSON lines, value checks,
HTTP POST."""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import urllib.error
import urllib.request
from contextlib import contextmanager
from typing import IO, Any, Iterable, Iterator

from .errors import AiblobError, ParseError, ProviderError


def dumps_line(obj: dict[str, Any]) -> str:
    """Serialize one record as a compact, key-order-preserving JSON line."""
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


@contextmanager
def _atomic_open(path: str, binary: bool) -> Iterator[IO]:
    """Open a temp file beside path, renamed over it only if the block completes,
    so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
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


def parse_json_line(line: str, path: str, lineno: int) -> dict:
    """Decode one JSON-lines record, which must be an object."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}:{lineno}: expected a JSON object")
    return obj


def read_jsonl(path: str, fmt: str, version: int,
               error: type[AiblobError] = ParseError) -> tuple[dict, list[str]]:
    """Check the {"format", "version"} header line of a JSON-lines file, raising
    ``error``; returns the header and the non-empty lines after it."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle.read().split("\n") if line]
    kind = fmt.removeprefix("aiblob-")
    if not lines:
        raise error(f"{path}: empty {kind} file (missing header)")
    header = parse_json_line(lines[0], path, 1)
    if header.get("format") != fmt:
        raise error(f"{path}: not a {kind} file (format={header.get('format')!r})")
    if header.get("version") != version:
        raise error(f"{path}: unsupported {kind} version {header.get('version')!r}")
    return header, lines[1:]


def is_int(value: Any) -> bool:
    """A real int: bools and integral floats do not count."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value: Any) -> bool:
    """An int or float (not a bool) within the finite float range; NaN fails."""
    return (is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


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
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProviderError(f"endpoint returned invalid JSON: {exc}") from exc
