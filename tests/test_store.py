"""Exact retrieval, tie-breaking, exclusion, and binary persistence."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aiblob.embeddings import deterministic_embed
from aiblob.errors import ConfigError, StoreError, ValidationError
from aiblob.store import VectorRecord, VectorStore, cosine


def brute_force_top_k(records, query, k, exclude=frozenset(), video_cap=None):
    """Oracle: python-level dot products, full sort, sequential filtering."""
    scored = []
    for rec in records:
        total = 0.0
        for a, b in zip(rec.vector.astype(np.float64), np.asarray(query, dtype=np.float64)):
            total += float(a) * float(b)
        scored.append((min(1.0, max(-1.0, total)), rec))
    scored.sort(key=lambda pair: (-pair[0], pair[1].sentence_id))
    hits = []
    per_video = {}
    for score, rec in scored:
        if rec.sentence_id in exclude:
            continue
        if video_cap is not None:
            if per_video.get(rec.video_id, 0) >= video_cap:
                continue
            per_video[rec.video_id] = per_video.get(rec.video_id, 0) + 1
        hits.append((rec.sentence_id, score))
        if len(hits) == k:
            break
    return hits


def make_records(n, dim, prefix="s", video_every=3):
    records = []
    for i in range(n):
        records.append(VectorRecord(
            sentence_id=f"{prefix}{i:04d}",
            vector=deterministic_embed(f"frase numero {i}", dim),
            video_id=f"vid{i % video_every:03d}",
            text=f"frase numero {i}",
            start_s=float(i),
            end_s=float(i) + 1.5,
        ))
    return records


def filled_store(n, dim, **kwargs):
    store = VectorStore(dim)
    store.insert_batch(make_records(n, dim, **kwargs))
    return store


class TestCosine:
    def test_identical(self):
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_computed(self):
        assert cosine(np.array([0.6, 0.8]), np.array([0.8, 0.6])) == pytest.approx(0.96)

    def test_dim_mismatch(self):
        with pytest.raises(ConfigError):
            cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


class TestInsert:
    def test_count(self):
        store = VectorStore(8)
        assert store.insert_batch(make_records(3, 8)) == 3
        assert store.count == 3

    def test_duplicate_id_rejects_batch_atomically(self):
        store = filled_store(3, 8)
        bad = make_records(2, 8, prefix="t")
        bad[1] = VectorRecord("s0001", bad[1].vector, "v", "t", 0.0, 1.0)
        with pytest.raises(ValidationError, match="s0001"):
            store.insert_batch(bad)
        assert store.count == 3  # nothing from the failed batch landed

    def test_duplicate_within_batch_rejected(self):
        store = VectorStore(8)
        recs = make_records(2, 8)
        recs[1] = VectorRecord(recs[0].sentence_id, recs[1].vector, "v", "t", 0.0, 1.0)
        with pytest.raises(ValidationError, match="duplicate"):
            store.insert_batch(recs)
        assert store.count == 0

    def test_dim_mismatch(self):
        store = VectorStore(16)
        with pytest.raises(ConfigError, match="dim"):
            store.insert_batch(make_records(1, 8))


class TestTopK:
    def test_empty_store(self):
        assert VectorStore(8).top_k(deterministic_embed("q", 8), 5) == []

    def test_matches_brute_force_on_five_records(self):
        store = filled_store(5, 8)
        query = deterministic_embed("una domanda", 8)
        hits = store.top_k(query, 2)
        expected = brute_force_top_k(make_records(5, 8), query, 2)
        assert [(h.sentence_id, h.score) for h in hits] == pytest.approx(expected)

    def test_exclude_everything(self):
        store = filled_store(5, 8)
        everything = {f"s{i:04d}" for i in range(5)}
        assert store.top_k(deterministic_embed("q", 8), 3, exclude=everything) == []

    def test_k_larger_than_store(self):
        store = filled_store(2, 8)
        assert len(store.top_k(deterministic_embed("q", 8), 10)) == 2

    def test_scores_non_increasing(self):
        store = filled_store(50, 8)
        hits = store.top_k(deterministic_embed("q", 8), 50)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_tie_break_by_id_ascending(self):
        vec = deterministic_embed("stessa frase", 8)
        store = VectorStore(8)
        store.insert_batch([
            VectorRecord("bbb", vec, "v1", "stessa frase", 0.0, 1.0),
            VectorRecord("aaa", vec, "v2", "stessa frase", 0.0, 1.0),
        ])
        hits = store.top_k(vec, 2)
        assert [h.sentence_id for h in hits] == ["aaa", "bbb"]

    def test_video_cap(self):
        store = filled_store(9, 8, video_every=3)  # 3 videos x 3 sentences
        query = deterministic_embed("q", 8)
        hits = store.top_k(query, 9, video_cap=1)
        videos = [h.record.video_id for h in hits]
        assert len(hits) == 3
        assert len(set(videos)) == 3
        expected = brute_force_top_k(make_records(9, 8, video_every=3), query, 9, video_cap=1)
        assert [h.sentence_id for h in hits] == [sid for sid, _ in expected]

    @pytest.mark.parametrize("k", [2.5, 3.0, True])
    def test_non_int_k_rejected(self, k):
        store = filled_store(50, 8)
        with pytest.raises(ValidationError, match="k must"):
            store.top_k(deterministic_embed("q", 8), k)

    def test_insert_after_query_is_seen_by_next_query(self):
        store = filled_store(20, 8)
        query = deterministic_embed("una domanda nuova", 8)
        assert store.top_k(query, 1)[0].sentence_id != "zzz"
        store.insert_batch([VectorRecord("zzz", query, "v9", "nuova", 0.0, 1.0)])
        hits = store.top_k(query, 21)
        assert hits[0].sentence_id == "zzz" and hits[0].score == pytest.approx(1.0)
        assert len(hits) == 21

    def test_query_dim_mismatch(self):
        store = filled_store(3, 8)
        with pytest.raises(ConfigError):
            store.top_k(deterministic_embed("q", 16), 1)

    @given(
        n=st.integers(min_value=1, max_value=60),
        k=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=10_000),
        exclude_mod=st.integers(min_value=2, max_value=5),
        video_cap=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    )
    @settings(max_examples=60, deadline=None)
    def test_exactness_property(self, n, k, seed, exclude_mod, video_cap):
        records = make_records(n, 8)
        store = VectorStore(8)
        store.insert_batch(records)
        query = deterministic_embed(f"query {seed}", 8)
        exclude = {r.sentence_id for i, r in enumerate(records) if i % exclude_mod == 0}
        hits = store.top_k(query, k, exclude=exclude, video_cap=video_cap)
        expected = brute_force_top_k(records, query, k, exclude=exclude, video_cap=video_cap)
        assert [h.sentence_id for h in hits] == [sid for sid, _ in expected]
        for hit, (_, score) in zip(hits, expected):
            assert hit.score == pytest.approx(score, abs=1e-9)
            assert hit.sentence_id not in exclude

    def test_exactness_at_two_thousand_records(self):
        records = make_records(2000, 16)
        store = VectorStore(16)
        store.insert_batch(records)
        for seed in range(3):
            query = deterministic_embed(f"interrogazione {seed}", 16)
            exclude = {r.sentence_id for r in records[seed::7]}
            hits = store.top_k(query, 25, exclude=exclude)
            expected = brute_force_top_k(records, query, 25, exclude=exclude)
            assert [h.sentence_id for h in hits] == [sid for sid, _ in expected]


class TestPersistence:
    def test_round_trip_answers_queries_identically(self, tmp_path):
        store = filled_store(100, 8)
        manifest = store.save(str(tmp_path / "store"))
        assert manifest["count"] == 100
        loaded = VectorStore.load(str(tmp_path / "store"))
        assert loaded.count == 100
        for seed in range(20):
            query = deterministic_embed(f"query {seed}", 8)
            before = [(h.sentence_id, h.score) for h in store.top_k(query, 10)]
            after = [(h.sentence_id, h.score) for h in loaded.top_k(query, 10)]
            assert before == after

    def test_metadata_survives(self, tmp_path):
        store = filled_store(5, 8)
        store.save(str(tmp_path / "store"))
        loaded = VectorStore.load(str(tmp_path / "store"))
        original = store.get("s0002")
        restored = loaded.get("s0002")
        assert (restored.video_id, restored.text, restored.start_s, restored.end_s) == (
            original.video_id, original.text, original.start_s, original.end_s)
        assert np.array_equal(restored.vector, original.vector)

    def test_load_from_empty_directory(self, tmp_path):
        with pytest.raises(StoreError, match="missing"):
            VectorStore.load(str(tmp_path))

    def test_wrong_magic(self, tmp_path):
        store = filled_store(3, 8)
        store.save(str(tmp_path / "store"))
        path = tmp_path / "store" / "vectors.bin"
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="magic"):
            VectorStore.load(str(tmp_path / "store"))

    def test_count_mismatch(self, tmp_path):
        store = filled_store(3, 8)
        store.save(str(tmp_path / "store"))
        path = tmp_path / "store" / "vectors.bin"
        data = bytearray(path.read_bytes())
        data[12:20] = struct.pack("<Q", 99)
        path.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="count"):
            VectorStore.load(str(tmp_path / "store"))

    def test_dim_mismatch_between_files(self, tmp_path):
        store = filled_store(3, 8)
        store.save(str(tmp_path / "store"))
        path = tmp_path / "store" / "vectors.bin"
        data = bytearray(path.read_bytes())
        data[8:12] = struct.pack("<I", 4)
        path.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="dim"):
            VectorStore.load(str(tmp_path / "store"))

    def test_truncated_body(self, tmp_path):
        store = filled_store(3, 8)
        store.save(str(tmp_path / "store"))
        path = tmp_path / "store" / "vectors.bin"
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(StoreError, match="bytes"):
            VectorStore.load(str(tmp_path / "store"))

    def test_empty_store_round_trip(self, tmp_path):
        VectorStore(8).save(str(tmp_path / "store"))
        loaded = VectorStore.load(str(tmp_path / "store"))
        assert loaded.count == 0
        assert loaded.dim == 8

    @pytest.mark.parametrize("field,value", [
        ("video_id", ["v", 1]),
        ("sentence_id", 7),
        ("text", None),  # a missing key reads as None too
        ("start_s", "1.5"),
        ("end_s", True),
        ("end_s", float("nan")),
    ])
    def test_bad_metadata_type_rejected(self, tmp_path, field, value):
        filled_store(3, 8).save(str(tmp_path / "store"))
        meta = tmp_path / "store" / "meta.jsonl"
        lines = meta.read_text(encoding="utf-8").split("\n")
        row = json.loads(lines[2])
        row[field] = value
        lines[2] = json.dumps(row)
        meta.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(StoreError, match="meta.jsonl:3: bad record"):
            VectorStore.load(str(tmp_path / "store"))

    def test_nan_in_vectors_rejected_on_load(self, tmp_path):
        filled_store(3, 8).save(str(tmp_path / "store"))
        path = tmp_path / "store" / "vectors.bin"
        data = bytearray(path.read_bytes())
        data[20 + 4 * 8 * 2 + 12:20 + 4 * 8 * 2 + 16] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(data))
        with pytest.raises(ValidationError, match="s0002.*NaN"):
            VectorStore.load(str(tmp_path / "store"))

    def test_duplicate_id_rejected_on_load(self, tmp_path):
        filled_store(3, 8).save(str(tmp_path / "store"))
        meta = tmp_path / "store" / "meta.jsonl"
        lines = meta.read_text(encoding="utf-8").split("\n")
        lines[3] = lines[3].replace('"s0002"', '"s0000"')
        meta.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ValidationError, match="duplicate sentence_id s0000"):
            VectorStore.load(str(tmp_path / "store"))
