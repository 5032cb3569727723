"""Deterministic embedder, remote replies, and batch embedding contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aiblob.embeddings import (
    MAX_DETERMINISTIC_DIM,
    DeterministicEmbedder,
    RemoteEmbedder,
    deterministic_embed,
    embed_batch,
    fnv1a_64,
    make_embedder,
)
from aiblob.errors import ConfigError, ProviderError, ValidationError

from oracle_embedding import reference_embed, reference_fnv1a64

# Computed with tests/oracle_embedding.py (independent implementation of the
# FNV-1a + splitmix64 scheme) and frozen here.
CIAO_DIM8 = [
    -0.007558831479400396,
    0.39815446734428406,
    0.46843355894088745,
    -0.3896350860595703,
    0.3401012122631073,
    0.09192269295454025,
    -0.4028688967227936,
    -0.4286588728427887,
]
ADDIO_DIM8 = [
    0.2943570017814636,
    0.34648582339286804,
    0.0493793822824955,
    -0.0246779415756464,
    -0.32028090953826904,
    -0.5522500276565552,
    0.3798538148403168,
    0.4882676601409912,
]

# Lists mixing empty, short, long and non-ASCII texts, so rows of one batch differ
# in byte length.
MIXED_TEXT = (st.sampled_from(["", "a", "ciao", "perché sì… 😀", "x" * 300])
              | st.text(max_size=80))


class TestFnv1a:
    def test_empty_string_is_offset_basis(self):
        assert fnv1a_64([b""]).tolist() == [14695981039346656037]

    def test_matches_reference(self):
        batch = [b"", b"ciao", bytes(range(256))]
        hashes = fnv1a_64(batch)
        assert hashes.dtype == np.uint64
        assert hashes.tolist() == [reference_fnv1a64(data) for data in batch]


class TestDeterministicEmbed:
    def test_frozen_values_ciao(self):
        vec = deterministic_embed("ciao", 8)
        assert vec.dtype == np.float32
        assert vec.tolist() == CIAO_DIM8

    def test_frozen_values_addio(self):
        assert deterministic_embed("addio", 8).tolist() == ADDIO_DIM8

    def test_pure_function(self):
        a = deterministic_embed("ciao", 8)
        b = deterministic_embed("ciao", 8)
        assert a.tobytes() == b.tobytes()

    def test_distinct_texts_distinct_vectors(self):
        assert not np.array_equal(deterministic_embed("ciao", 8),
                                  deterministic_embed("addio", 8))

    def test_dim_below_two_rejected(self):
        for dim in (1, MAX_DETERMINISTIC_DIM + 1):  # the embedder's own rule, on both ends
            with pytest.raises(ConfigError, match=f"got {dim}$"):
                deterministic_embed("ciao", dim)

    @given(st.text(max_size=50), st.integers(min_value=2, max_value=96))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_implementation(self, text, dim):
        mine = deterministic_embed(text, dim)
        theirs = np.array(reference_embed(text, dim), dtype=np.float32)
        assert np.array_equal(mine, theirs)
        assert abs(float(np.linalg.norm(mine.astype(np.float64))) - 1.0) <= 1e-5

    # Long lists cross the embedder's 64-row blocks.
    @given(st.lists(MIXED_TEXT, max_size=12) | st.lists(MIXED_TEXT, min_size=40, max_size=140),
           st.integers(min_value=2, max_value=96))
    @settings(max_examples=60, deadline=None)
    def test_batch_rows_match_reference_bit_for_bit(self, texts, dim):
        matrix = DeterministicEmbedder(dim).embed(texts)
        assert matrix.dtype == np.float32 and matrix.shape == (len(texts), dim)
        want = np.array([reference_embed(t, dim) for t in texts], dtype=np.float32)
        assert matrix.tobytes() == want.reshape(len(texts), dim).tobytes()


class FlakyProvider:
    """Fails the first `failures` calls, then delegates to a deterministic embedder."""

    def __init__(self, dim, failures):
        self.dim = dim
        self.batch_size = 4
        self.failures = failures
        self.calls = 0
        self._inner = DeterministicEmbedder(dim)

    def embed(self, texts, input_type="search_document"):
        self.calls += 1
        if self.calls <= self.failures:
            raise ProviderError("synthetic transport failure")
        return self._inner.embed(texts, input_type)


class TestEmbedBatch:
    def test_empty_batch(self):
        out = embed_batch([], DeterministicEmbedder(8))
        assert out.dtype == np.float32 and out.shape == (0, 8)

    @given(st.lists(MIXED_TEXT.filter(bool), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_rows_across_chunks_match_reference_bit_for_bit(self, texts):
        provider = DeterministicEmbedder(16)
        provider.batch_size = 3
        out = embed_batch(texts, provider)
        want = np.array([reference_embed(t, 16) for t in texts], dtype=np.float32)
        assert out.shape == (len(texts), 16) and out.tobytes() == want.tobytes()

    def test_identical_texts_identical_vectors(self):
        out = embed_batch(["ciao", "ciao"], DeterministicEmbedder(8))
        assert out[0].tobytes() == out[1].tobytes()

    def test_order_preserved_across_chunks(self):
        provider = DeterministicEmbedder(8)
        provider.batch_size = 3
        texts = [f"frase {i}" for i in range(10)]
        out = embed_batch(texts, provider)
        assert len(out) == 10
        for text, vec in zip(texts, out):
            assert np.array_equal(vec, deterministic_embed(text, 8))

    def test_retry_then_success(self):
        provider = FlakyProvider(8, failures=2)
        out = embed_batch(["a", "b"], provider, retries=3, backoff=())
        assert len(out) == 2
        assert provider.calls == 3

    def test_failure_reports_subrange(self):
        provider = FlakyProvider(8, failures=99)
        with pytest.raises(ProviderError, match=r"texts\[0:2\]"):
            embed_batch(["a", "b"], provider, retries=1, backoff=())

    def test_failed_later_chunk_names_its_range(self):
        class SecondChunkFails(DeterministicEmbedder):
            def __init__(self):
                super().__init__(8)
                self.batch_size = 2
                self.calls = 0

            def embed(self, texts, input_type="search_document"):
                self.calls += 1
                if self.calls > 1:
                    raise ProviderError("boom")
                return super().embed(texts, input_type)

        with pytest.raises(ProviderError, match=r"texts\[2:3\]"):
            embed_batch(["a", "b", "c"], SecondChunkFails(), retries=0, backoff=())

    def test_dim_mismatch_is_config_error(self):
        class MixedDims:
            batch_size = 1
            dim = None

            def embed(self, texts, input_type="search_document"):
                dim = 8 if texts[0] == "a" else 16
                return [deterministic_embed(texts[0], dim)]

        with pytest.raises(ConfigError, match="dimension mismatch"):
            embed_batch(["a", "b"], MixedDims())

    def test_empty_text_rejected(self):
        with pytest.raises(ValidationError):
            embed_batch(["ciao", ""], DeterministicEmbedder(8))

    def test_non_unit_vector_rejected(self):
        class Unnormalized:
            batch_size = 4
            dim = 2

            def embed(self, texts, input_type="search_document"):
                return [np.array([3.0, 4.0], dtype=np.float32) for _ in texts]

        with pytest.raises(ValidationError, match="unit"):
            embed_batch(["ciao"], Unnormalized())

    def test_nan_row_names_its_text(self):
        class LateNaN:
            batch_size = 2
            dim = 2

            def embed(self, texts, input_type="search_document"):
                rows = np.tile(np.float32([0.6, 0.8]), (len(texts), 1))
                if texts[-1] == "c":
                    rows[-1, 1] = np.nan
                return rows

        with pytest.raises(ValidationError, match=r"texts\[2\] is not a finite unit"):
            embed_batch(["a", "b", "c"], LateNaN())

    def test_short_reply_names_the_range(self):
        class Short:
            batch_size = 2
            dim = 8

            def embed(self, texts, input_type="search_document"):
                return DeterministicEmbedder(8).embed(texts[:1])

        with pytest.raises(ProviderError, match=r"texts\[0:2\]"):
            embed_batch(["a", "b"], Short())


class TestRemoteEmbedder:
    def make_transport(self, log, dim=4):
        def transport(url, payload, headers, timeout):
            log.append((url, payload, headers))
            return {"embeddings": [[hash((t, i)) % 7 + 1 for i in range(dim)]
                                   for t in payload["texts"]]}
        return transport

    def replying(self, rows):
        return RemoteEmbedder("https://example.test/embed", "m", api_key="k",
                              transport=lambda url, payload, headers, timeout:
                              {"embeddings": rows})

    def test_request_shape_and_normalization(self):
        log = []
        provider = RemoteEmbedder("https://example.test/embed", "modello-1",
                                  api_key="chiave", transport=self.make_transport(log))
        out = provider.embed(["ciao", "addio"], input_type="search_query")
        assert len(out) == 2
        for vec in out:
            assert abs(float(np.linalg.norm(vec.astype(np.float64))) - 1.0) <= 1e-5
        url, payload, headers = log[0]
        assert payload == {"model": "modello-1", "texts": ["ciao", "addio"],
                           "input_type": "search_query"}
        assert headers["Authorization"] == "Bearer chiave"
        assert provider.dim == 4

    def test_row_count_mismatch(self):
        def transport(url, payload, headers, timeout):
            return {"embeddings": [[1.0, 0.0]]}
        provider = RemoteEmbedder("https://example.test/embed", "m", api_key="k",
                                  transport=transport)
        with pytest.raises(ProviderError, match="1 rows for 2 texts"):
            provider.embed(["a", "b"])

    @pytest.mark.parametrize("rows", [
        [[1.0, 0.0], [1.0, "x"]],
        [[1.0, 0.0], [{}, 1.0]],
        [[1.0, 0.0], [10**400, 1.0]],
        [[1.0, 0.0], [True, 1.0]],
        [[1.0, 0.0], ["1", "0"]],
        [[1.0, 0.0], [1.0]],
        [[1.0, 0.0], [1.0, 0.0, 0.0]],
        [[1.0, 0.0], 5],
        [[1.0, 0.0], "10"],
        [[1.0, 0.0], [[1.0, 0.0]]],
        [[1.0, 0.0], [1.0, float("nan")]],
        [[1.0, 0.0], [float("inf"), 0.0]],
        [[1.0, 0.0], []],
        [[1.0, 0.0], [0.0, 0.0]],
        [[1.0, 0.0], [1e-160, 0.0]],
        [[1.0, 0.0], [1e300, 1e300]],
    ], ids=["string", "object", "huge-int", "bool", "digit-strings", "short", "long",
            "number", "string-row", "nested", "nan", "infinity", "empty", "zero",
            "norm-underflow", "norm-overflow"])
    def test_unusable_row_is_a_provider_error_naming_it(self, rows):
        with pytest.raises(ProviderError, match="embedding row 1 "):
            self.replying(rows).embed(["a", "b"])

    def test_reply_is_one_unit_row_matrix(self):
        out = self.replying([[3, 4], [0.0, -2.5]]).embed(["a", "b"])
        assert out.dtype == np.float32 and out.shape == (2, 2)
        assert out.tolist() == [[pytest.approx(0.6), pytest.approx(0.8)], [0.0, -1.0]]

    def test_api_key_from_environment(self, monkeypatch):
        monkeypatch.setenv("AIBLOB_EMBED_API_KEY", "da-ambiente")
        log = []
        provider = RemoteEmbedder("https://example.test/embed", "m",
                                  transport=self.make_transport(log))
        provider.embed(["ciao"])
        assert log[0][2]["Authorization"] == "Bearer da-ambiente"


class TestMakeEmbedder:
    def test_deterministic_spec(self):
        provider = make_embedder("deterministic:16")
        assert isinstance(provider, DeterministicEmbedder)
        assert provider.dim == 16

    def test_remote_requires_endpoint(self):
        with pytest.raises(ConfigError):
            make_embedder("remote")

    def test_remote_spec(self):
        provider = make_embedder("remote", base_url="https://example.test", model="m")
        assert isinstance(provider, RemoteEmbedder)

    def test_unknown_spec(self):
        with pytest.raises(ConfigError):
            make_embedder("chroma")

    def test_bad_dim(self):
        with pytest.raises(ConfigError):
            make_embedder("deterministic:molto")
