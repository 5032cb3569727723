"""Embedding providers: a remote HTTP provider and a bit-exact offline embedder.

Vectors are float32 numpy arrays, always L2-normalized so cosine similarity
reduces to a dot product. The deterministic embedder seeds a splitmix64
stream with the FNV-1a hash of the text, which makes it byte-stable across
runs and platforms; it exists so the whole pipeline can run offline.
"""

from __future__ import annotations

import math
import os
import time
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ProviderError, ValidationError
from .util import DEFAULT_RETRIES, post_json, retry

EMBED_API_KEY_ENV = "AIBLOB_EMBED_API_KEY"

DOCUMENT_INPUT = "search_document"
QUERY_INPUT = "search_query"

DEFAULT_BACKOFF = (0.5, 2.0, 8.0)

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def deterministic_embed(text: str, dim: int) -> np.ndarray:
    """Hash-seeded pseudo-embedding: FNV-1a seed, splitmix64 stream, unit norm.

    Each 64-bit output z maps to (z >> 11) * 2**-53 * 2 - 1 in [-1, 1).
    Pure function of (text, dim); bit-identical everywhere.
    """
    if dim < 2:
        raise ValidationError(f"deterministic embedder needs dim >= 2, got {dim}")
    state = fnv1a_64(text.encode("utf-8"))
    raw: list[float] = []
    for _ in range(dim):
        state, z = _splitmix64(state)
        raw.append((z >> 11) * 2.0**-53 * 2.0 - 1.0)
    norm = math.sqrt(sum(v * v for v in raw))
    return np.array([v / norm for v in raw], dtype=np.float32)


def normalize(vector: Sequence[float] | np.ndarray) -> np.ndarray:
    """Scale a raw vector to unit L2 norm (float32). Zero or non-finite input errors."""
    arr = np.asarray(vector, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("normalize expects a non-empty 1-D vector")
    if not np.isfinite(arr).all():
        raise ValidationError("vector has NaN or Inf components")
    norm = float(np.sqrt(np.dot(arr, arr)))
    if norm == 0.0:
        raise ValidationError("cannot normalize a zero vector")
    return (arr / norm).astype(np.float32)


class DeterministicEmbedder:
    """Offline provider producing deterministic_embed vectors; input_type is ignored."""

    def __init__(self, dim: int):
        if dim < 2:
            raise ConfigError(f"deterministic embedder needs dim >= 2, got {dim}")
        self.dim = dim
        self.batch_size = 1024

    def embed(self, texts: Sequence[str], input_type: str = DOCUMENT_INPUT) -> list[np.ndarray]:
        return [deterministic_embed(text, self.dim) for text in texts]


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

    def embed(self, texts: Sequence[str], input_type: str = DOCUMENT_INPUT) -> list[np.ndarray]:
        payload = {"model": self.model, "texts": list(texts), "input_type": input_type}
        headers = {}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        response = self._transport(self.base_url, payload, headers, self.timeout)
        rows = response.get("embeddings") if isinstance(response, dict) else None
        if not isinstance(rows, list) or len(rows) != len(texts):
            got = len(rows) if isinstance(rows, list) else "none"
            raise ProviderError(f"embedding response has {got} rows for {len(texts)} texts")
        vectors = []
        for i, row in enumerate(rows):
            try:
                vectors.append(normalize(row))
            except ValidationError as exc:
                raise ProviderError(f"embedding row {i} is unusable: {exc}") from exc
        if self.dim is None and vectors:
            self.dim = int(vectors[0].shape[0])
        return vectors


def embed_batch(
    texts: Sequence[str],
    provider,
    input_type: str = DOCUMENT_INPUT,
    retries: int = DEFAULT_RETRIES,
    backoff: Sequence[float] = DEFAULT_BACKOFF,
    sleep: Callable[[float], None] = time.sleep,
) -> list[np.ndarray]:
    """Embed texts in provider-sized chunks, preserving input order.

    Transport failures are retried per chunk with the given backoff; once
    retries are exhausted a ProviderError identifies the failed sub-range.
    A dimension mismatch anywhere in the batch is a ConfigError.
    """
    for i, text in enumerate(texts):
        if not isinstance(text, str) or not text:
            raise ValidationError(f"texts[{i}] must be a non-empty string")
    if not texts:
        return []

    chunk_size = max(1, int(getattr(provider, "batch_size", 96)))
    expected_dim = getattr(provider, "dim", None)
    out: list[np.ndarray] = []
    for lo in range(0, len(texts), chunk_size):
        hi = min(lo + chunk_size, len(texts))
        chunk = list(texts[lo:hi])
        vectors = retry(lambda: provider.embed(chunk, input_type), retries + 1,
                        f"embedding for texts[{lo}:{hi}]", backoff, sleep)
        if len(vectors) != len(chunk):
            raise ProviderError(
                f"provider returned {len(vectors)} vectors for texts[{lo}:{hi}]"
            )
        for offset, vec in enumerate(vectors):
            arr = np.asarray(vec, dtype=np.float32)
            if arr.ndim != 1:
                raise ValidationError(f"vector for texts[{lo + offset}] is not 1-D")
            if expected_dim is None:
                expected_dim = int(arr.shape[0])
            elif int(arr.shape[0]) != expected_dim:
                raise ConfigError(
                    f"dimension mismatch at texts[{lo + offset}]: "
                    f"got {arr.shape[0]}, expected {expected_dim}"
                )
            if not np.isfinite(arr).all():
                raise ValidationError(f"vector for texts[{lo + offset}] has NaN/Inf")
            norm = float(np.linalg.norm(arr.astype(np.float64)))
            if abs(norm - 1.0) > 1e-5:
                raise ValidationError(
                    f"vector for texts[{lo + offset}] is not unit-normalized (norm={norm})"
                )
            out.append(arr)
    return out


def make_embedder(spec: str, base_url: str | None = None, model: str | None = None,
                  api_key: str | None = None):
    """Build a provider from a selection string: "remote" or "deterministic:<dim>"."""
    if spec == "remote":
        if not base_url or not model:
            raise ConfigError("remote embedder needs base_url and model configured")
        return RemoteEmbedder(base_url, model, api_key=api_key)
    if spec.startswith("deterministic:"):
        try:
            dim = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad embedder spec {spec!r}: dim must be an integer") from exc
        return DeterministicEmbedder(dim)
    raise ConfigError(f"unknown embedder spec {spec!r} (use 'remote' or 'deterministic:<dim>')")
