"""Embedding providers: a remote HTTP provider and a bit-exact offline embedder.

A provider's embed(texts) returns one (len(texts), dim) float32 matrix of
L2-normalized rows, so cosine similarity reduces to a dot product. The
deterministic embedder seeds a splitmix64 stream with the FNV-1a hash of the
text, which makes it byte-stable across runs and platforms; it exists so the
whole pipeline can run offline.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ProviderError, ValidationError
from .util import DEFAULT_RETRIES, is_finite_number, post_json, retry

EMBED_API_KEY_ENV = "AIBLOB_EMBED_API_KEY"

DOCUMENT_INPUT = "search_document"
QUERY_INPUT = "search_query"

DEFAULT_BACKOFF = (0.5, 2.0, 8.0)

# Far above any real embedding width; a larger dim is refused before a row of
# that width is ever allocated.
MAX_DETERMINISTIC_DIM = 65536


def fnv1a_64(data: Sequence[bytes]) -> np.ndarray:
    """64-bit FNV-1a of each byte string, in uint64 arithmetic (it wraps mod 2**64).

    The strings are rows of a zero-padded byte grid sorted longest first, so
    the step for byte column j updates only the prefix of rows longer than j.
    """
    lengths = np.fromiter(map(len, data), dtype=np.int64, count=len(data))
    width = int(lengths.max(initial=0))
    order = np.argsort(-lengths, kind="stable")
    padded = b"".join(data[i].ljust(width, b"\0") for i in order.tolist())
    grid = np.frombuffer(padded, dtype=np.uint8).reshape(len(data), width)
    rows = np.searchsorted(-lengths[order], -np.arange(width), side="left")
    h = np.full(len(data), np.uint64(14695981039346656037))
    for col, n in enumerate(rows.tolist()):
        h[:n] = (h[:n] ^ grid[:n, col]) * np.uint64(1099511628211)
    return h[np.argsort(order)]


class DeterministicEmbedder:
    """Offline provider of hash-seeded pseudo-embeddings; input_type is ignored.

    Row i is a pure function of (texts[i], dim), bit-identical everywhere: the
    FNV-1a hash of the UTF-8 text seeds a splitmix64 stream, each 64-bit output
    z maps to (z >> 11) * 2**-53 * 2 - 1 in [-1, 1), and the row is divided in
    float64 by its L2 norm (squares summed in index order), then rounded to float32.
    """

    def __init__(self, dim: int):
        if not 2 <= dim <= MAX_DETERMINISTIC_DIM:
            raise ConfigError(f"deterministic embedder needs 2 <= dim <= "
                              f"{MAX_DETERMINISTIC_DIM}, got {dim}")
        self.dim = dim
        self.batch_size = 1024

    def embed(self, texts: Sequence[str], input_type: str = DOCUMENT_INPUT) -> np.ndarray:
        seeds = fnv1a_64([text.encode("utf-8") for text in texts])
        # The splitmix64 state before output j is seed + (j + 1) * gamma, so all
        # of a row's outputs are mixed at once; blocks of 64 rows bound memory.
        steps = np.arange(1, self.dim + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        out = np.empty((len(texts), self.dim), dtype=np.float32)
        for lo in range(0, len(texts), 64):
            z = seeds[lo:lo + 64, None] + steps
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            raw = ((z ^ (z >> np.uint64(31))) >> np.uint64(11)) * 2.0**-53 * 2.0 - 1.0
            # cumsum adds the squares left to right, as the scalar rule does.
            norm = np.sqrt(np.cumsum(raw * raw, axis=1)[:, -1:])
            out[lo:lo + 64] = raw / norm
        return out


def deterministic_embed(text: str, dim: int) -> np.ndarray:
    """One DeterministicEmbedder row: the float32 unit vector of (text, dim)."""
    return DeterministicEmbedder(dim).embed([text])[0]


class RemoteEmbedder:
    """HTTP embedding provider.

    Request:  {"model": str, "texts": [str], "input_type": str}
    Response: {"embeddings": [[float, ...], ...]}

    One call per embed(); batching and retries live in embed_batch. Responses
    are normalized on receipt. The credential comes from AIBLOB_EMBED_API_KEY
    unless passed explicitly.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: str | None = None,
        batch_size: int = 96,
        timeout: float = 60.0,
        transport: Callable[[str, dict, dict, float], dict] | None = None,
    ):
        if not base_url:
            raise ConfigError("remote embedder needs a base URL")
        self.base_url = base_url
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(EMBED_API_KEY_ENV)
        self.batch_size = batch_size
        self.timeout = timeout
        self.dim: int | None = None
        self._transport = transport or post_json

    def embed(self, texts: Sequence[str], input_type: str = DOCUMENT_INPUT) -> np.ndarray:
        payload = {"model": self.model, "texts": list(texts), "input_type": input_type}
        headers = {}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        response = self._transport(self.base_url, payload, headers, self.timeout)
        rows = response.get("embeddings") if isinstance(response, dict) else None
        if not isinstance(rows, list) or len(rows) != len(texts):
            got = len(rows) if isinstance(rows, list) else "none"
            raise ProviderError(f"embedding response has {got} rows for {len(texts)} texts")
        width = len(rows[0]) if rows and isinstance(rows[0], list) else 0
        for i, row in enumerate(rows):
            if not (isinstance(row, list) and len(row) == width > 0
                    and all(map(is_finite_number, row))):
                raise ProviderError(f"embedding row {i} is not a non-empty list of finite "
                                    f"numbers as long as row 0")
        matrix = np.array(rows, dtype=np.float64).reshape(len(rows), width)
        squared = np.einsum("ij,ij->i", matrix, matrix)
        # Below the normal float64 range a squared norm is too coarse to normalize by.
        usable = (squared >= np.finfo(np.float64).tiny) & (squared < np.inf)
        if not usable.all():
            i = int(np.argmin(usable))
            raise ProviderError(f"embedding row {i} cannot be normalized: its squared norm "
                                f"is {squared[i]}")
        if self.dim is None and rows:
            self.dim = width
        matrix /= np.sqrt(squared)[:, None]
        return matrix.astype(np.float32)


def embed_batch(
    texts: Sequence[str],
    provider,
    input_type: str = DOCUMENT_INPUT,
    retries: int = DEFAULT_RETRIES,
    backoff: Sequence[float] = DEFAULT_BACKOFF,
    sleep: Callable[[float], None] = time.sleep,
) -> np.ndarray:
    """Embed texts in provider-sized chunks into one (len(texts), dim) float32 matrix.

    Rows keep the input order. Transport failures are retried per chunk with
    the given backoff; once retries are exhausted a ProviderError identifies
    the failed sub-range. A chunk whose dimension differs from the provider's
    (or the first chunk's) is a ConfigError; a row that is not a finite unit
    vector is a ValidationError naming its text.
    """
    for i, text in enumerate(texts):
        if not isinstance(text, str) or not text:
            raise ValidationError(f"texts[{i}] must be a non-empty string")
    dim = getattr(provider, "dim", None)
    if not texts:
        return np.empty((0, dim or 0), dtype=np.float32)

    chunk_size = max(1, int(getattr(provider, "batch_size", 96)))
    out: np.ndarray | None = None
    for lo in range(0, len(texts), chunk_size):
        hi = min(lo + chunk_size, len(texts))
        chunk = list(texts[lo:hi])
        matrix = np.asarray(retry(lambda: provider.embed(chunk, input_type), retries + 1,
                                  f"embedding for texts[{lo}:{hi}]", backoff, sleep),
                            dtype=np.float32)
        if matrix.ndim != 2 or len(matrix) != len(chunk):
            raise ProviderError(f"provider returned an array of shape {matrix.shape} "
                                f"for the {len(chunk)} texts[{lo}:{hi}]")
        if out is None:
            out = np.empty((len(texts), dim or matrix.shape[1]), dtype=np.float32)
        if matrix.shape[1] != out.shape[1]:
            raise ConfigError(f"dimension mismatch at texts[{lo}:{hi}]: "
                              f"got {matrix.shape[1]}, expected {out.shape[1]}")
        norm = np.sqrt(np.square(matrix).sum(axis=1, dtype=np.float64))
        off = ~(np.abs(norm - 1.0) <= 1e-5)  # NaN and Inf norms fail "<=", so count as off
        if off.any():
            i = int(np.argmax(off))
            raise ValidationError(f"vector for texts[{lo + i}] is not a finite unit vector "
                                  f"(norm={norm[i]})")
        out[lo:hi] = matrix
    return out


def make_embedder(spec: str, base_url: str | None = None, model: str | None = None):
    """Build a provider from a selection string: "remote" or "deterministic:<dim>"."""
    if spec == "remote":
        if not base_url or not model:
            raise ConfigError("remote embedder needs base_url and model configured")
        return RemoteEmbedder(base_url, model)
    if spec.startswith("deterministic:"):
        try:
            dim = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad embedder spec {spec!r}: dim must be an integer") from exc
        return DeterministicEmbedder(dim)
    raise ConfigError(f"unknown embedder spec {spec!r} (use 'remote' or 'deterministic:<dim>')")
