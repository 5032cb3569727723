"""Exact retrieval, tie-breaking, exclusion, and binary persistence."""

import gc
import json
import os
import random
import re
import shutil
import struct
import sys
import tempfile
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aiblob.embeddings import deterministic_embed
from aiblob.errors import AiblobError, ConfigError, StoreError, ValidationError
from aiblob import store as store_module
from aiblob import util
from aiblob.store import META_KEYS, VectorRecord, VectorStore
from aiblob.util import RecordFile, float_column
from conftest import exact, fail_renaming_vectors, forge_digest, run_python, store_columns

# What load says of a meta.jsonl that its vectors.bin digest does not match.
MISMATCH = (r"vectors\.bin: digest does not match \S*meta\.jsonl, so the two files are not "
            r"one save; re-run aiblob index$")


def brute_force_top_k(records, query, k, exclude=frozenset(), video_cap=None, scores=None):
    """Oracle: python-level dot products (or the given scores), full sort, sequential filtering."""
    scored = []
    for i, rec in enumerate(records):
        if scores is not None:
            scored.append((float(scores[i]), rec))
            continue
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


def row_scores(records, query):
    """The scores top_k ranks by: each row's float64 dot with the query, summed
    alone, then clipped to [-1, 1]."""
    query = np.asarray(query, dtype=np.float64)
    return [min(1.0, max(-1.0, float((rec.vector.astype(np.float64) * query).sum())))
            for rec in records]


def assert_exact(records, query, k, exclude=frozenset(), video_cap=None):
    """Assert that top_k over ``records`` equals the exhaustive walk over
    row_scores, bit for bit; return its hits."""
    store = VectorStore(len(records[0].vector))
    store.insert_batch(records)
    hits = [(h.sentence_id, h.score) for h in store.top_k(query, k, exclude=exclude,
                                                               video_cap=video_cap)]
    scores = row_scores(records, query)
    assert hits == brute_force_top_k(records, query, k, exclude, video_cap, scores=scores)
    return hits


def make_records(n, dim, prefix="s", video_every=3, distinct=None):
    """n records over video_every videos; with `distinct`, only that many vectors."""
    records = []
    for i in range(n):
        records.append(VectorRecord(
            sentence_id=f"{prefix}{i:04d}",
            vector=deterministic_embed(f"frase numero {i % distinct if distinct else i}", dim),
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


class TestInsert:
    def test_count(self):
        store = VectorStore(8)
        assert store.insert_batch(make_records(3, 8)) == 3
        assert store.count == 3

    def test_duplicate_within_batch_rejected(self):
        store = VectorStore(8)
        recs = make_records(2, 8)
        recs[1] = VectorRecord(recs[0].sentence_id, recs[1].vector, "v", "t", 0.0, 1.0)
        with pytest.raises(ValidationError, match="duplicate"):
            store.insert_batch(recs)
        assert store.count == 0

    @pytest.mark.parametrize("field,value", [
        ("video_id", None), ("text", 5), ("start_s", True), ("end_s", float("nan")),
    ])
    def test_bad_metadata_type_rejects_batch(self, field, value):
        store = VectorStore(8)
        bad = make_records(2, 8, prefix="t")
        setattr(bad[1], field, value)
        with pytest.raises(ValidationError, match=f"record t0001: {field} must be"):
            store.insert_batch(bad)
        assert store.count == 0

    def test_integer_times_are_stored_as_floats(self, tmp_path):
        store = VectorStore(8)
        record = make_records(1, 8)[0]
        record.start_s, record.end_s = 2, 3
        store.insert_batch([record])
        (got,) = store.top_k(record.vector, 1)
        assert (got.start_s, got.end_s) == (2.0, 3.0) and type(got.start_s) is float
        store.save(str(tmp_path / "store"))
        row = (tmp_path / "store" / "meta.jsonl").read_text(encoding="utf-8").split("\n")[1]
        assert row.endswith('"start_s":2.0,"end_s":3.0}')

    @pytest.mark.parametrize("dim", [0, -1])
    def test_non_positive_dim_rejected(self, dim):
        with pytest.raises(ConfigError, match=f"store dim must be positive, got {dim}"):
            VectorStore(dim)

    def test_dim_mismatch(self):
        store = VectorStore(16)
        with pytest.raises(ConfigError, match="dim"):
            store.insert_batch(make_records(1, 8))

    def test_a_store_takes_one_insert(self, tmp_path):
        # A store that holds rows, or that was loaded, with rows or without,
        # refuses a further insert in either form before reading it, and
        # answers as before.
        filled_store(30, 8, video_every=4).save(str(tmp_path / "rows"))
        VectorStore(8).save(str(tmp_path / "empty"))
        query = deterministic_embed("domanda", 8)
        extra = make_records(2, 8, prefix="t")
        for store in (filled_store(30, 8, video_every=4), VectorStore.load(str(tmp_path / "rows")),
                      VectorStore.load(str(tmp_path / "empty"))):
            before = (store.count, store.video_count, store.top_k(query, 5, exclude={"s0001"}))
            for batch in ((extra,), columns_of(extra)):
                with pytest.raises(ValidationError, match="^a store takes one insert, into a "
                                                          "store that is empty and was not "
                                                          "loaded$"):
                    store.insert_batch(*batch)
                assert (store.count, store.video_count,
                        store.top_k(query, 5, exclude={"s0001"})) == before

    def test_a_query_of_the_empty_store_leaves_the_insert_exact(self):
        # An exclusion of the empty store maps no id; the insert's rows are
        # then excluded as any others.
        store = VectorStore(8)
        query = deterministic_embed("domanda", 8)
        assert store.top_k(query, 3, exclude={"s0000"}) == []
        records = make_records(20, 8)
        store.insert_batch(records)
        exclude = {hit.sentence_id for hit in store.top_k(query, 2)}
        assert [(h.sentence_id, h.score) for h in store.top_k(query, 3, exclude=exclude)] == \
            brute_force_top_k(records, query, 3, exclude, scores=row_scores(records, query))


def columns_of(records):
    """The matrix and the META_KEYS columns of ``records``."""
    return (np.stack([r.vector for r in records]),
            [[getattr(r, key) for r in records] for key in META_KEYS])


class TestInsertColumns:
    def test_same_rows_as_records(self, tmp_path):
        records = make_records(6, 8)
        store = VectorStore(8)
        assert store.insert_batch(*columns_of(records)) == 6
        hits = {hit.sentence_id: hit for hit in store.top_k(deterministic_embed("q", 8), 6)}
        for rec in records:
            got = hits[rec.sentence_id]
            assert (got.video_id, got.text, got.start_s, got.end_s) == (
                rec.video_id, rec.text, rec.start_s, rec.end_s)
        # The vectors, through the saved bytes: the rows in order, as the records hold them.
        store.save(str(tmp_path / "columns"))
        body = (tmp_path / "columns" / "vectors.bin").read_bytes()[20:20 + 6 * 8 * 4]
        assert body == np.stack([rec.vector for rec in records]).astype("<f4").tobytes()
        filled_store(6, 8).save(str(tmp_path / "records"))
        for name in ("meta.jsonl", "vectors.bin"):
            assert ((tmp_path / "columns" / name).read_bytes()
                    == (tmp_path / "records" / name).read_bytes())

    def test_first_repeated_id_named_and_batch_rejected(self):
        # The id named is the first whose repeat the batch reaches.
        store = VectorStore(8)
        matrix, columns = columns_of(make_records(4, 8, prefix="t"))
        for ids, named in ((["t0000", "t0000", "t0001", "t0001"], "t0000"),
                           (["t0000", "t0001", "t0001", "t0000"], "t0001")):
            columns[0] = ids
            with pytest.raises(ValidationError, match=f"^duplicate sentence_id {named}$"):
                store.insert_batch(matrix, columns)
        assert store.count == 0

    def test_ids_of_equal_hash_are_not_a_repeat(self):
        # The insert walks the ids when two hashes are equal, and finds that
        # the ids differ.
        class Colliding(str):
            def __hash__(self):
                return 7

        store = VectorStore(8)
        matrix, columns = columns_of(make_records(3, 8, prefix="t"))
        columns[0] = [Colliding(sentence_id) for sentence_id in columns[0]]
        assert store.insert_batch(matrix, columns) == 3
        columns[0][2] = Colliding("t0000")
        with pytest.raises(ValidationError, match="^duplicate sentence_id t0000$"):
            VectorStore(8).insert_batch(matrix, columns)

    def test_wrong_matrix_width(self):
        matrix, columns = columns_of(make_records(2, 8))
        with pytest.raises(ConfigError, match="store dim 16"):
            VectorStore(16).insert_batch(matrix, columns)

    def test_column_of_another_length(self):
        matrix, columns = columns_of(make_records(2, 8))
        columns[2].pop()
        store = VectorStore(8)
        with pytest.raises(ValidationError, match="columns of 2 values"):
            store.insert_batch(matrix, columns)
        assert store.count == 0


class TestInsertThroughTheWriter:
    """An insert writes its rows through the store writer into a temporary
    directory, opens them there as load does, and removes the directory: the
    store reads its rows back through the descriptors it keeps."""

    @pytest.mark.parametrize("form", ["records", "columns"])
    @pytest.mark.parametrize("fault,message", [
        (None, None),
        ("repeated id", "^duplicate sentence_id t0000$"),
        ("NaN row", "^record t0001: vector has NaN/Inf$"),
        ("wrong width", {"records": "^record t0000: vector dim 8 does not match store dim 16$",
                         "columns": r"^vectors of shape \(3, 8\) do not match store dim 16$"}),
    ])
    def test_an_insert_leaves_no_file_behind(self, tmp_path, monkeypatch, form, fault, message):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        records = make_records(3, 8, prefix="t")
        dim = 16 if fault == "wrong width" else 8
        if fault == "repeated id":
            records[2].sentence_id = "t0000"
        if fault == "NaN row":
            records[1].vector = np.array(records[1].vector)
            records[1].vector[5] = np.nan
        batch = (records,) if form == "records" else columns_of(records)
        store = VectorStore(dim)
        if fault is None:
            assert store.insert_batch(*batch) == 3
            query = deterministic_embed("domanda", 8)
            assert [(h.sentence_id, h.score) for h in store.top_k(query, 2)] == \
                brute_force_top_k(records, query, 2, scores=row_scores(records, query))
        else:
            error = ConfigError if fault == "wrong width" else ValidationError
            with pytest.raises(error, match=message[form] if isinstance(message, dict)
                               else message):
                store.insert_batch(*batch)
            # The refused store is as it was: empty, and open to an insert.
            assert store.count == 0
            assert store.insert_batch(make_records(3, dim)) == 3
        assert list(tmp_path.iterdir()) == []

    def test_the_store_closes_its_files_when_collected(self):
        store = filled_store(30, 8)
        store.top_k(deterministic_embed("domanda", 8), 5)
        descriptors = store._meta._fd, store._vectors._fd
        for descriptor in descriptors:
            # Each file is held only by its descriptor: its name is gone.
            assert os.fstat(descriptor).st_nlink == 0
        del store
        gc.collect()
        for descriptor in descriptors:
            with pytest.raises(OSError):
                os.fstat(descriptor)


def inserted(records):
    """A store made by one insert of ``records``' matrix and columns, the times
    as float64 arrays, as load_corpus returns them."""
    matrix, columns = columns_of(records)
    columns[3:] = [np.array(values, np.float64) for values in columns[3:]]
    store = VectorStore(matrix.shape[1])
    store.insert_batch(matrix, columns)
    return store


class TestIdMapOnFirstUse:
    """The insert maps no id to its row; a query maps the rows it ranks, and an
    exclusion of an id the map lacks maps every row."""

    RECORDS = make_records(300, 8, video_every=7)
    QUERIES = [deterministic_embed(f"domanda {i}", 8) for i in range(12)]

    def assert_mapped(self, store, ids):
        """The map holds exactly ``ids``, each at its row."""
        assert sorted(store._rows) == sorted(ids)
        for sentence_id, row in store._rows.items():
            assert self.RECORDS[row].sentence_id == sentence_id

    def test_exclusion_is_exact(self):
        store = inserted(self.RECORDS)
        assert store._rows == {}
        excluded: set[str] = set()
        ranked: set[str] = set()
        for query in self.QUERIES:
            hits = store.top_k(query, 10, exclude=excluded, video_cap=2)
            scores = row_scores(self.RECORDS, query)
            assert [(h.sentence_id, h.score) for h in hits] == brute_force_top_k(
                self.RECORDS, query, 10, excluded, 2, scores=scores)
            excluded.update(hit.sentence_id for hit in hits)
            ranked.update(store._rows)
            # Every hit was ranked, and so mapped; the band is not every row.
            assert excluded <= ranked and len(ranked) < len(self.RECORDS)
        self.assert_mapped(store, ranked)

    def test_an_id_the_map_lacks_maps_every_row(self):
        store = inserted(self.RECORDS)
        query = self.QUERIES[0]
        excluded = {self.RECORDS[5].sentence_id, "no such id"}
        hits = store.top_k(query, 10, exclude=excluded, video_cap=2)
        assert [(h.sentence_id, h.score) for h in hits] == brute_force_top_k(
            self.RECORDS, query, 10, excluded, 2, scores=row_scores(self.RECORDS, query))
        self.assert_mapped(store, [rec.sentence_id for rec in self.RECORDS])

    def test_save_of_an_inserted_store_round_trips(self, tmp_path):
        store = inserted(self.RECORDS)
        store.save(str(tmp_path / "store"))
        hits = VectorStore.load(str(tmp_path / "store")).top_k(self.QUERIES[0], 10)
        assert hits == store.top_k(self.QUERIES[0], 10)

    def test_video_count(self):
        assert inserted(self.RECORDS).video_count == 7

    def test_hit_times_are_python_floats(self):
        # numpy 2 shows an np.float64 as "np.float64(...)", which a repr of a
        # hit, or a writer that takes it for a float, would carry.
        for hit in inserted(self.RECORDS).top_k(self.QUERIES[0], 10):
            assert type(hit.start_s) is float and type(hit.end_s) is float

    def test_concurrent_readers_answer_as_one_reader(self):
        # Eight threads share each fresh store, so several may map its rows
        # at once, and each exclusion after the first query reads the map.
        expected = answers_with_exclusion(inserted(self.RECORDS), self.QUERIES)
        assert_eight_readers(lambda: inserted(self.RECORDS),
                             lambda store, i: answers_with_exclusion(store, self.QUERIES),
                             expected)


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
        videos = [h.video_id for h in hits]
        assert len(hits) == 3
        assert len(set(videos)) == 3
        expected = brute_force_top_k(make_records(9, 8, video_every=3), query, 9, video_cap=1)
        assert [h.sentence_id for h in hits] == [sid for sid, _ in expected]

    @pytest.mark.parametrize("k", [2.5, 3.0, True])
    def test_non_int_k_rejected(self, k):
        store = filled_store(50, 8)
        with pytest.raises(ValidationError, match="k must"):
            store.top_k(deterministic_embed("q", 8), k)

    def test_query_dim_mismatch(self):
        store = filled_store(3, 8)
        with pytest.raises(ConfigError):
            store.top_k(deterministic_embed("q", 16), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        store = filled_store(20, 8)
        query = deterministic_embed("q", 8).astype(np.float64)
        query[0] = bad
        with pytest.raises(ValidationError, match="NaN/Inf"):
            store.top_k(query, 5)

    def test_overflowing_query_never_returns_nan_scores(self):
        # Products of 1e330 overflow; whether a row sums to NaN or to +-inf
        # depends on the BLAS kernel, so either outcome below may hold. A NaN
        # row is never ranked, so it must not pass silently as a missing hit.
        store = VectorStore(4)
        store.insert_batch([VectorRecord(f"s{i}", np.full(4, 1e30, np.float32), "v", "t", 0.0, 1.0)
                            for i in range(4)])
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                hits = store.top_k(np.array([1e300, -1e300, 1e300, -1e300]), 4)
        except ValidationError as exc:
            assert "NaN" in str(exc)
        else:
            assert len(hits) == 4 and not any(np.isnan(hit.score) for hit in hits)

    @given(
        n=st.integers(min_value=1, max_value=300),
        k=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
        distinct=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
        excluded_pct=st.integers(min_value=0, max_value=90),
        videos=st.integers(min_value=1, max_value=5),
        video_cap=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
    )
    @settings(max_examples=150, deadline=None)
    def test_exactness_property(self, n, k, seed, distinct, excluded_pct, videos, video_cap):
        records = make_records(n, 8, video_every=videos, distinct=distinct)
        query = deterministic_embed(f"query {seed}", 8)
        excluded = random.Random(seed).sample(records, n * excluded_pct // 100)
        exclude = {r.sentence_id for r in excluded} | {"not-in-store"}
        # The exhaustive walk over the row-independent float64 scores must agree
        # bit for bit, equal vectors included. The python-level dot products
        # sum in another order and can differ from them in the last place, so
        # ids are compared with the loop oracle only through their scores.
        hits = assert_exact(records, query, k, exclude, video_cap)
        expected = brute_force_top_k(records, query, k, exclude=exclude, video_cap=video_cap)
        assert [score for _, score in hits] == pytest.approx([score for _, score in expected],
                                                              abs=1e-12)

    @given(
        n=st.integers(min_value=1, max_value=299).filter(lambda n: n % 4),
        k=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
        distinct=st.integers(min_value=1, max_value=4),
        excluded_pct=st.integers(min_value=0, max_value=90),
        video_cap=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
    )
    @settings(max_examples=30, deadline=None)
    def test_exactness_on_duplicate_heavy_wide_stores(self, n, k, seed, distinct, excluded_pct,
                                                      video_cap):
        # At dim 384, with few distinct vectors and a size that is not a
        # multiple of 4: the order among equal vectors is the id order.
        records = make_records(n, 384, video_every=5, distinct=distinct)
        excluded = random.Random(seed).sample(records, n * excluded_pct // 100)
        assert_exact(records, deterministic_embed(f"query {seed}", 384), k,
                     {r.sentence_id for r in excluded}, video_cap)

    def test_equal_vectors_tie_by_id_wherever_they_sit(self):
        # Rows 1, 3 and 5 hold one vector: a product over the whole matrix
        # scored row 5 apart from rows 1 and 3 in the last place.
        store = filled_store(6, 8, video_every=1, distinct=2)
        hits = store.top_k(deterministic_embed("query 134", 8), 3)
        assert [h.sentence_id for h in hits] == ["s0001", "s0003", "s0005"]
        assert len({h.score for h in hits}) == 1

    @pytest.mark.parametrize("dim", [8, 13, 64, 384])
    def test_one_vector_scores_the_same_wherever_it_sits(self, dim):
        # numpy does not promise that a row's sum is independent of the rows
        # gathered with it; the documented tie-break needs it to be.
        vector = deterministic_embed("la stessa frase", dim)
        query = deterministic_embed("una domanda", dim)
        single = VectorStore(dim)
        single.insert_batch([VectorRecord("a", vector, "v", "t", 0.0, 1.0)])
        (alone,) = single.top_k(query, 1)
        for n in range(1, 42, 2):
            records = make_records(n, dim, video_every=4)
            for rec in records[::3]:
                rec.vector = vector
            store = VectorStore(dim)
            store.insert_batch(records)
            copies = {rec.sentence_id for rec in records[::3]}
            for k in (1, len(copies), n):
                scores = {h.score for h in store.top_k(query, k) if h.sentence_id in copies}
                assert scores <= {alone.score}

    @given(
        n=st.integers(min_value=1, max_value=200),
        dim=st.sampled_from([8, 64]),
        spread=st.integers(min_value=-9, max_value=-5),
        scales=st.sampled_from([(1.0, 1.0), (1.0, 1e-40), (1e3, 1e-3)]),
        k=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=10_000),
        video_cap=st.one_of(st.none(), st.integers(min_value=1, max_value=2)),
    )
    @settings(max_examples=40, deadline=None)
    def test_near_ties_within_the_bound(self, n, dim, spread, scales, k, seed, video_cap):
        # Rows 10**spread apart around one vector: their scores differ by less
        # than the screen's error, so only the float64 scores order them. A
        # query scaled into float32's subnormal range has a screen that is
        # mostly underflow; long rows and a short query make the same scores
        # with a larger screen error.
        row_scale, query_scale = scales
        rng = np.random.default_rng(seed)
        base = deterministic_embed(f"vicino {seed}", dim).astype(np.float64)
        records = make_records(n, dim, video_every=4)
        for rec in records:
            rec.vector = ((base + 10.0 ** spread * rng.standard_normal(dim))
                          * row_scale).astype(np.float32)
        query = (base + 10.0 ** spread * rng.standard_normal(dim)) * query_scale
        excluded = random.Random(seed).sample(records, n // 3)
        assert_exact(records, query, k, {r.sentence_id for r in excluded}, video_cap)

    def test_every_score_clipped(self):
        # A query three times as long as the rows, which all lie near it: every
        # row screens near 3 and scores 1, so only the ids order them.
        base = deterministic_embed("vicino", 16)
        records = make_records(23, 16)
        for i, rec in enumerate(records):
            rec.vector = (base + 1e-3 * deterministic_embed(f"rumore {i}", 16)).astype(np.float32)
        for k in (1, 5, 23):
            hits = assert_exact(records, 3.0 * base.astype(np.float64), k)
            assert hits == [(f"s{i:04d}", 1.0) for i in range(k)]

    @pytest.mark.parametrize("row_scale,query_scale", [
        (1.0, 1e39),  # a finite query beyond the float32 range: the band is every row
        (1.0, 3.0),  # a query that is not unit length: the clip saturates
        (None, 1.0),  # rows that are not unit length
        (None, 1e-3),
        (1.0, 1e-40),  # a query in float32's subnormal range
    ])
    def test_band_edges(self, row_scale, query_scale):
        rng = np.random.default_rng(3)
        records = make_records(203, 16, video_every=5, distinct=60)
        for rec in records:
            scale = 10.0 ** rng.uniform(-3, 3) if row_scale is None else row_scale
            rec.vector = (rec.vector * scale).astype(np.float32)
        query = deterministic_embed("domanda", 16).astype(np.float64) * query_scale
        exclude = {rec.sentence_id for rec in records[::7]}
        for k in (1, 10, 203):
            for cap in (None, 1):
                assert_exact(records, query, k, exclude, cap)

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


class TestRetrieve:
    """An episode's queries screened a chunk at a time, each ranked by top_k
    excluding every hit of the queries before it."""

    def test_equal_vectors_across_block_edges_tie_by_id(self, monkeypatch):
        # Three rows per block for a chunk of two queries; the copies sit on
        # both sides of the block edges at rows 3, 6 and 9, and their ids run
        # against row order.
        monkeypatch.setattr(store_module, "SCREEN_BLOCK_BYTES", 3 * 4 * 2)
        records = make_records(12, 8, video_every=1)
        same = deterministic_embed("la stessa frase", 8)
        for i, rec in enumerate(records):
            rec.sentence_id = f"s{11 - i:04d}"
            if i in (2, 3, 5, 6, 8, 9):
                rec.vector = same
        store = VectorStore(8)
        store.insert_batch(records)
        first, second = store.retrieve([same, same], 2)
        hits = first + second
        assert [hit.sentence_id for hit in hits] == ["s0002", "s0003", "s0005", "s0006"]
        assert hits == store.top_k(same, 4)
        assert len({hit.score for hit in hits}) == 1

    def test_a_query_beyond_float32_inside_a_chunk_ranks_every_row(self, monkeypatch):
        # Chunks of two: the large query opens the second chunk, screened
        # against the first chunk's hits.
        monkeypatch.setattr(store_module, "SCREEN_CHUNK", 2)
        records = make_records(203, 16, video_every=5, distinct=60)
        store = VectorStore(16)
        store.insert_batch(records)
        small = deterministic_embed("domanda", 16)
        large = small.astype(np.float64) * 1e39
        queries = [small, deterministic_embed("altra", 16), large, small]
        screen, pools = store._screen, []

        def spy(chunk, k, excluded):
            screened = screen(chunk, k, excluded)
            if len(chunk) == 2:
                pools.extend(s.rows.tolist() for s in screened)
            return screened
        monkeypatch.setattr(store, "_screen", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hits = list(store.retrieve(queries, 10))
        earlier = {hit.sentence_id for hit in hits[0] + hits[1]}
        assert pools[2] == [row for row, rec in enumerate(records)
                            if rec.sentence_id not in earlier]
        scores = row_scores(records, large)
        assert ([(hit.sentence_id, hit.score) for hit in hits[2]]
                == brute_force_top_k(records, large, 10, earlier, scores=scores))
        excluded: set[str] = set()
        for query, found in zip(queries, hits):
            assert found == store.top_k(query, 10, exclude=excluded)
            excluded.update(hit.sentence_id for hit in found)

    @pytest.mark.parametrize("k", [0, -1, 1.0, True])
    def test_non_int_k_rejected(self, k):
        with pytest.raises(ValidationError, match="k must be a positive int"):
            list(filled_store(5, 8).retrieve([deterministic_embed("q", 8)], k))

    def test_query_dim_checked(self):
        with pytest.raises(ConfigError, match="query dim 16 does not match store dim 8"):
            list(filled_store(5, 8).retrieve([deterministic_embed("q", 8),
                                              deterministic_embed("q", 16)], 3))


class TestVectorsReadBack:
    """A loaded store holds no matrix: each screen reads vectors.bin back a
    block at a time, and top_k reads back the rows it scores, each chunk
    checked against its CRC-32."""

    @given(
        n=st.integers(min_value=0, max_value=90),
        dim=st.sampled_from([3, 8]),
        chunk=st.sampled_from(["one byte", "five bytes", "one row", "a row less one",
                               "a row and three", "three rows and one"]),
        chunks_per_block=st.integers(min_value=1, max_value=3),
        block=st.sampled_from(["one row", "a row and five", "three rows less one"]),
        n_queries=st.integers(min_value=1, max_value=5),
        k=st.integers(min_value=1, max_value=12),
        video_cap=st.one_of(st.none(), st.integers(min_value=1, max_value=2)),
        distinct=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_any_block_size_answers_as_the_store_in_memory(self, n, dim, chunk, chunks_per_block,
                                                           block, n_queries, k, video_cap,
                                                           distinct, seed):
        row = 4 * dim
        chunk_bytes = {"one byte": 1, "five bytes": 5, "one row": row, "a row less one": row - 1,
                       "a row and three": row + 3, "three rows and one": 3 * row + 1}[chunk]
        block_bytes = {"one row": row, "a row and five": row + 5,
                       "three rows less one": 3 * row - 1}[block]
        records = make_records(n, dim, video_every=5, distinct=distinct)
        in_memory = VectorStore(dim)
        in_memory.insert_batch(records)
        queries = [deterministic_embed(f"query {seed} {j % 3}", dim) for j in range(n_queries)]
        with tempfile.TemporaryDirectory() as directory:
            in_memory.save(directory)
            with mock.patch.multiple(util, _CHUNK_BYTES=chunk_bytes,
                                     _SCAN_BLOCK_BYTES=chunk_bytes * chunks_per_block), \
                    mock.patch.object(store_module, "SCREEN_BLOCK_BYTES", block_bytes):
                loaded = VectorStore.load(directory)
                # The bound on the row norms, found block by block, holds.
                assert loaded._norm >= max((float(np.linalg.norm(rec.vector.astype(np.float64)))
                                            for rec in records), default=0.0)
                episode = list(loaded.retrieve(queries, k, video_cap=video_cap))
                alone = [loaded.top_k(query, k, video_cap=video_cap) for query in queries]
        # Hits, float scores included, equal those of the store in memory, and
        # each score is its row's float64 dot with the query, summed alone.
        assert episode == list(in_memory.retrieve(queries, k, video_cap=video_cap))
        assert alone == [in_memory.top_k(query, k, video_cap=video_cap) for query in queries]
        for query, hits in zip(queries, alone):
            scores = row_scores(records, query)
            assert [hit.score for hit in hits] == [scores[int(hit.sentence_id[1:])]
                                                   for hit in hits]

    @pytest.mark.parametrize("chunk", [1, 5, 31, 32, 35])
    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_a_nan_in_a_row_cut_by_a_scan_block_is_found(self, tmp_path, chunk, row):
        # Rows of 32 bytes read in blocks of two chunks, so that a block's end
        # cuts rows at every offset.
        directory = TestDigestCheckedLoad.saved(tmp_path, n=3)
        set_nan(directory, row, 8)
        with mock.patch.multiple(util, _CHUNK_BYTES=chunk, _SCAN_BLOCK_BYTES=2 * chunk):
            with pytest.raises(ValidationError, match=f"record s000{row}: vector has NaN/Inf"):
                VectorStore.load(str(directory))

    @pytest.mark.parametrize("rows,dim,queries,k", [
        # SCREEN_CHUNK distinct queries, whose pools share every chunk: the
        # rows their top_k calls rank decode in one pass over meta.jsonl, in
        # row order, before the first hits.
        (2000, 64, [f"domanda {i}" for i in range(store_module.SCREEN_CHUNK)], 5),
        # Four copies of one query over a larger store, whose pools are
        # sparse: the bands decode before the first hits, and each later
        # query reads the pool rows it ranks, alone in their chunks.
        (10_000, 8, ["domanda"] * 4, 3),
    ], ids=["dense pools", "sparse pools"])
    def test_an_episode_reads_each_meta_chunk_once(self, tmp_path, monkeypatch, rows, dim,
                                                   queries, k):
        # Where one top_k at a time read a chunk again for each query that
        # ranked a row of it.
        directory = tmp_path / "store"
        filled_store(rows, dim, video_every=50).save(str(directory))
        store = VectorStore.load(str(directory))
        vectors = [deterministic_embed(query, dim) for query in queries]
        reads = []
        pread = os.pread

        def counted(fd, length, offset):
            if fd == store._meta._fd:
                reads.append((offset, length))
            return pread(fd, length, offset)
        monkeypatch.setattr(os, "pread", counted)
        episode = store.retrieve(vectors, k)
        found = [next(episode)]
        first = len(reads)
        found.extend(episode)
        monkeypatch.undo()
        assert found == list(filled_store(rows, dim, video_every=50).retrieve(vectors, k))
        assert (len(reads) == first) == (len(set(queries)) > 1)
        chunks = [chunk for offset, length in reads
                  for chunk in range(offset // util._CHUNK_BYTES,
                                     (offset + length - 1) // util._CHUNK_BYTES + 1)]
        assert len(chunks) == len(set(chunks))

    def test_a_load_holds_no_matrix(self, tmp_path):
        store = VectorStore.load(str(TestDigestCheckedLoad.saved(tmp_path)))
        # No array of the store is as large as its 300 vectors of 8 floats.
        assert all(value.nbytes < 300 * 8 * 4 for value in vars(store).values()
                   if isinstance(value, np.ndarray))
        assert store._vectors.size == 20 + 300 * 8 * 4 + 32


class TestPersistence:
    def test_round_trip_answers_queries_identically(self, tmp_path):
        store = filled_store(100, 8)
        store.save(str(tmp_path / "store"))
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
        query = make_records(5, 8)[2].vector
        original = store.top_k(query, 1)[0]
        restored = loaded.top_k(query, 1)[0]
        assert restored.sentence_id == original.sentence_id == "s0002"
        assert (restored.video_id, restored.text, restored.start_s, restored.end_s) == (
            original.video_id, original.text, original.start_s, original.end_s)
        # The vectors, through the bytes the loaded store saves.
        loaded.save(str(tmp_path / "again"))
        assert ((tmp_path / "again" / "vectors.bin").read_bytes()
                == (tmp_path / "store" / "vectors.bin").read_bytes())

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

    @pytest.mark.parametrize("size", [0, 4, 19])
    def test_truncated_header(self, tmp_path, size):
        filled_store(3, 8).save(str(tmp_path / "store"))
        path = tmp_path / "store" / "vectors.bin"
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(StoreError, match=r"vectors\.bin: truncated header$"):
            VectorStore.load(str(tmp_path / "store"))

    @pytest.mark.parametrize("version", [0, 1, 3, 2**32 - 1])
    def test_unsupported_version(self, tmp_path, version):
        filled_store(3, 8).save(str(tmp_path / "store"))
        path = tmp_path / "store" / "vectors.bin"
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", version)
        path.write_bytes(bytes(data))
        with pytest.raises(StoreError, match=rf"vectors\.bin: unsupported version {version}$"):
            VectorStore.load(str(tmp_path / "store"))

    def test_version_1_store_is_refused(self, tmp_path):
        # Version 1: a header without the embedder and the video count, and no
        # digest after the vectors, so it cannot tell a swapped pair from one save.
        directory = tmp_path / "store"
        filled_store(3, 8).save(str(directory))
        meta = directory / "meta.jsonl"
        rows = meta.read_bytes().split(b"\n", 1)[1]
        meta.write_bytes(b'{"format":"aiblob-store","version":1,"dim":8}\n' + rows)
        vectors = directory / "vectors.bin"
        blob = vectors.read_bytes()
        vectors.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:-32])
        with pytest.raises(StoreError, match=r"meta\.jsonl: unsupported store version 1$"):
            VectorStore.load(str(directory))

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
        assert_row_fault(tmp_path / "store", StoreError, "meta.jsonl:3: bad record")

    @pytest.mark.parametrize("key", ["speaker", "vector"])
    def test_unknown_metadata_key_rejected(self, tmp_path, key):
        filled_store(3, 8).save(str(tmp_path / "store"))
        meta = tmp_path / "store" / "meta.jsonl"
        lines = meta.read_text(encoding="utf-8").split("\n")
        lines[2] = json.dumps({**json.loads(lines[2]), key: [0.0]})
        meta.write_text("\n".join(lines), encoding="utf-8")
        assert_row_fault(tmp_path / "store", StoreError,
                         rf"meta\.jsonl:3: bad record: unknown key\(s\): {key}$")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_nan_in_vectors_rejected_on_load(self, tmp_path, value):
        filled_store(3, 8).save(str(tmp_path / "store"))
        path = tmp_path / "store" / "vectors.bin"
        data = bytearray(path.read_bytes())
        data[20 + 4 * 8 * 2 + 12:20 + 4 * 8 * 2 + 16] = struct.pack("<f", value)
        path.write_bytes(bytes(data))
        with pytest.raises(ValidationError, match="s0002.*NaN"):
            VectorStore.load(str(tmp_path / "store"))

    def test_largest_finite_vectors_load(self, tmp_path):
        # The load's finiteness check sums squares: finite rows never overflow it.
        records = make_records(3, 8)
        records[1].vector = np.full(8, np.finfo(np.float32).max, np.float32)
        store = VectorStore(8)
        store.insert_batch(records)
        store.save(str(tmp_path / "store"))
        query = deterministic_embed("q", 8)
        loaded = VectorStore.load(str(tmp_path / "store"))
        assert loaded.top_k(query, 3) == store.top_k(query, 3)
        assert_exact(records, query, 3)

    def test_duplicate_id_rejected(self, tmp_path):
        filled_store(3, 8).save(str(tmp_path / "store"))
        meta = tmp_path / "store" / "meta.jsonl"
        lines = meta.read_text(encoding="utf-8").split("\n")
        lines[3] = lines[3].replace('"s0002"', '"s0000"')
        meta.write_text("\n".join(lines), encoding="utf-8")
        assert_row_fault(tmp_path / "store", ValidationError,
                         "meta.jsonl:4: duplicate sentence_id s0000$")


def assert_row_fault(directory, error, message, query=deterministic_embed("q", 8), k=3):
    """A meta.jsonl changed after its save is refused at load, since the
    vectors.bin digest no longer matches it. With that digest forged to match,
    the store loads, and ``error`` with ``message`` is raised when top_k first
    ranks the faulty row."""
    with pytest.raises(StoreError, match=MISMATCH):
        VectorStore.load(str(directory))
    forge_digest(directory)
    store = VectorStore.load(str(directory))
    with pytest.raises(error, match=message):
        store.top_k(query, k)


def edit_line(directory, lineno, edit):
    """Replace line ``lineno`` (1-based) of meta.jsonl by ``edit`` of its decoded row."""
    meta = directory / "meta.jsonl"
    lines = meta.read_text(encoding="utf-8").split("\n")
    lines[lineno - 1] = json.dumps(edit(json.loads(lines[lineno - 1])))
    meta.write_text("\n".join(lines), encoding="utf-8")


def set_nan(directory, row, dim):
    vectors = directory / "vectors.bin"
    data = bytearray(vectors.read_bytes())
    data[20 + 4 * dim * row:20 + 4 * dim * row + 4] = struct.pack("<f", float("nan"))
    vectors.write_bytes(bytes(data))


def set_bytes(directory, lineno, edit):
    """Replace line ``lineno`` (1-based) of meta.jsonl by ``edit`` of its bytes."""
    meta = directory / "meta.jsonl"
    lines = meta.read_bytes().split(b"\n")
    lines[lineno - 1] = edit(lines[lineno - 1])
    meta.write_bytes(b"\n".join(lines))


def outcome(call):
    try:
        return "ok", call()
    except AiblobError as exc:
        return type(exc).__name__, str(exc)


def assert_eight_readers(make_store, answer, expected):
    """Four times over, eight threads each ``answer(store, i)`` from one fresh
    ``make_store()``, with a switch interval of 1 us; each must give ``expected``."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            store = make_store()
            results: list = [None] * 8

            def read(i):
                results[i] = outcome(lambda: answer(store, i))
            threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert results == [("ok", expected)] * 8
    finally:
        sys.setswitchinterval(interval)


# Changes to a saved 3-row dim-8 store, each with the message a load gives: a
# changed meta.jsonl no longer matches the vectors.bin digest.
FAULTS = {
    "bad type": (lambda d: edit_line(d, 3, lambda row: {**row, "start_s": "1.5"}), MISMATCH),
    "unknown key": (lambda d: edit_line(d, 3, lambda row: {**row, "speaker": "x"}), MISMATCH),
    "duplicate id": (lambda d: edit_line(d, 4, lambda row: {**row, "sentence_id": "s0000"}),
                     MISMATCH),
    "NaN": (lambda d: set_nan(d, 2, 8), "record s0002: vector has NaN/Inf"),
    "blank line": (lambda d: set_bytes(d, 3, lambda line: b""),
                   "count 3 does not match 2 metadata rows"),
}
# What the meta.jsonl faults raise once the digest is forged to match them,
# when top_k first ranks the changed row.
FORGED = {
    "bad type": "meta.jsonl:3: bad record: start_s must be a finite number, got '1.5'",
    "unknown key": r"meta.jsonl:3: bad record: unknown key\(s\): speaker",
    "duplicate id": "meta.jsonl:4: duplicate sentence_id s0000",
}


def answers_with_exclusion(store, queries):
    """top_k over queries in turn, each excluding every earlier hit, with a video cap."""
    excluded: set[str] = set()
    found = []
    for query in queries:
        hits = store.top_k(query, 10, exclude=excluded, video_cap=2)
        excluded.update(hit.sentence_id for hit in hits)
        found.append(hits)
    return found


# Eight threads wait on a barrier, then each makes the process's first numpy
# call, with a switch interval of 1 us. Prints whether numpy was loaded before,
# then each thread's ["ok", answer] or [exception name, message] as JSON; a
# thread still running after 60 s leaves its answer None. The child defines its
# own answers_with_exclusion, because this module imports numpy.
FIRST_USE = (
    "import json, sys, threading\n"
    "from aiblob.store import VectorStore\n"
    "from aiblob.util import float_column\n"
    "directory, queries = sys.argv[1], json.loads(sys.argv[2])\n"
    "def answers_with_exclusion(store, queries):\n"
    "    excluded, found = set(), []\n"
    "    for query in queries:\n"
    "        hits = store.top_k(query, 10, exclude=excluded, video_cap=2)\n"
    "        excluded.update(hit.sentence_id for hit in hits)\n"
    "        found.append(hits)\n"
    "    return found\n"
    "numpy_before = 'numpy' in sys.modules\n"
    "barrier = threading.Barrier(8)\n"
    "results = [None] * 8\n"
    "def run(i):\n"
    "    barrier.wait()\n"
    "    try:\n"
    "        if i % 2:\n"
    "            answer = float_column([query[0] for query in queries]).tolist()\n"
    "        else:\n"
    "            answer = answers_with_exclusion(VectorStore.load(directory), queries)\n"
    "        results[i] = ['ok', answer]\n"
    "    except Exception as exc:\n"
    "        results[i] = [type(exc).__name__, str(exc)]\n"
    "sys.setswitchinterval(1e-6)\n"
    "threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(8)]\n"
    "for thread in threads:\n"
    "    thread.start()\n"
    "for thread in threads:\n"
    "    thread.join(timeout=60)\n"
    "print(json.dumps([numpy_before, results]))\n"
)


class TestDigestCheckedLoad:
    QUERIES = [deterministic_embed(f"domanda {i}", 8) for i in range(12)]

    @staticmethod
    def saved(tmp_path, name="store", n=300):
        directory = tmp_path / name
        filled_store(n, 8, video_every=7).save(str(directory))
        return directory

    @pytest.mark.parametrize("fault", FAULTS)
    def test_a_changed_store_is_refused_at_load(self, tmp_path, fault):
        change, message = FAULTS[fault]
        directory = self.saved(tmp_path, n=3)
        change(directory)
        with pytest.raises(AiblobError, match=message):
            VectorStore.load(str(directory))

    def test_a_swapped_pair_is_refused(self, tmp_path):
        # Two saves of the same shape, one's meta.jsonl beside the other's
        # vectors: counts and dim agree, so only the digest tells them apart.
        first = self.saved(tmp_path, "first", n=3)
        second = tmp_path / "second"
        filled_store(3, 8, prefix="t", video_every=2).save(str(second))
        (first / "meta.jsonl").write_bytes((second / "meta.jsonl").read_bytes())
        with pytest.raises(StoreError, match=MISMATCH):
            VectorStore.load(str(first))
        assert VectorStore.load(str(second)).count == 3

    @pytest.mark.parametrize("n,message", [(300, MISMATCH),
                                           (301, "count 300 does not match 301 metadata rows")])
    def test_an_interrupted_save_is_refused_and_a_complete_one_loads(self, tmp_path, monkeypatch,
                                                                     n, message):
        # A save that dies after renaming meta.jsonl, before vectors.bin, over
        # a directory that holds an earlier save.
        directory = self.saved(tmp_path)
        store = filled_store(n, 8, prefix="t", video_every=5)

        with monkeypatch.context() as patch:
            patch.setattr("aiblob.util.os.replace", fail_renaming_vectors(os.replace))
            with pytest.raises(OSError):
                store.save(str(directory))
        with pytest.raises(StoreError, match=message):
            VectorStore.load(str(directory))
        store.save(str(directory))
        loaded = VectorStore.load(str(directory))
        for query in self.QUERIES:
            assert loaded.top_k(query, 10, video_cap=2) == store.top_k(query, 10, video_cap=2)

    @pytest.mark.parametrize("extra", [set(), {"not-in-store"}])
    def test_excluding_an_undecoded_id_gives_the_in_memory_result(self, tmp_path, extra):
        directory = self.saved(tmp_path)
        in_memory = filled_store(300, 8, video_every=7)
        for query in self.QUERIES[:4]:
            # A fresh load has decoded no row, so the best rows are not decoded.
            exclude = {hit.sentence_id for hit in in_memory.top_k(query, 3)} | extra
            lazy = VectorStore.load(str(directory))
            assert (lazy.top_k(query, 10, exclude=exclude)
                    == in_memory.top_k(query, 10, exclude=exclude))

    def test_a_second_ranking_of_decoded_rows_reads_no_metadata(self, tmp_path, monkeypatch):
        store = VectorStore.load(str(self.saved(tmp_path)))
        first = store.top_k(self.QUERIES[0], 10)
        columns = RecordFile.columns
        calls = []

        def counted(self, *args, **kwargs):
            calls.append(args)
            return columns(self, *args, **kwargs)
        monkeypatch.setattr(RecordFile, "columns", counted)
        assert store.top_k(self.QUERIES[0], 10) == first
        assert calls == []

    def test_concurrent_readers_answer_as_the_in_memory_store(self, tmp_path):
        # Eight threads share each fresh lazy load, so they decode rows into
        # it concurrently; from its sixth query on, one thread also excludes an
        # id the store lacks, which decodes every row amid the others' queries.
        directory = self.saved(tmp_path)

        def answers(store, unknown=False):
            excluded: set[str] = set()
            found = []
            for i, query in enumerate(self.QUERIES):
                if unknown and i == 5:
                    excluded.add("not-in-store")
                hits = store.top_k(query, 10, exclude=excluded, video_cap=2)
                excluded.update(hit.sentence_id for hit in hits)
                found.append(hits)
            return found

        expected = answers(filled_store(300, 8, video_every=7))
        assert_eight_readers(lambda: VectorStore.load(str(directory)),
                             lambda store, i: answers(store, unknown=i == 0), expected)

    def test_concurrent_retrieve_readers_answer_as_the_in_memory_store(self, tmp_path,
                                                                       monkeypatch):
        # Chunks of five queries and blocks of 17 rows (of eight floats, which
        # bound a block as its five screens do not): each thread's pools meet
        # rows that the others are decoding, and every exclusion filter reads
        # the decoded ids.
        monkeypatch.setattr(store_module, "SCREEN_CHUNK", 5)
        monkeypatch.setattr(store_module, "SCREEN_BLOCK_BYTES", 17 * 4 * 8)
        directory = self.saved(tmp_path)
        expected = list(filled_store(300, 8, video_every=7).retrieve(self.QUERIES, 10,
                                                                     video_cap=2))
        assert expected == answers_with_exclusion(filled_store(300, 8, video_every=7),
                                                  self.QUERIES)
        assert_eight_readers(lambda: VectorStore.load(str(directory)),
                             lambda store, i: list(store.retrieve(self.QUERIES, 10, video_cap=2)),
                             expected)

    def test_first_use_of_numpy_from_many_threads(self, tmp_path):
        # In a child process that has not imported numpy, eight threads make
        # the program's first numpy call at once: half load the store and
        # query it, half build a float column.
        directory = self.saved(tmp_path)
        queries = [query.tolist() for query in self.QUERIES]
        result = run_python("-c", FIRST_USE, directory, json.dumps(queries))
        assert result.returncode == 0, result.stderr
        numpy_before, results = json.loads(result.stdout)
        assert numpy_before is False
        expected = json.loads(json.dumps([
            ["ok", answers_with_exclusion(VectorStore.load(str(directory)), queries)],
            ["ok", float_column([query[0] for query in queries]).tolist()],
        ]))
        assert results == expected * 4

    @pytest.mark.parametrize("block_rows", [None, 7])
    @pytest.mark.parametrize("queries", [0, 3])
    def test_save_of_a_loaded_store_is_byte_identical(self, tmp_path, monkeypatch, queries,
                                                      block_rows):
        # With blocks of 7 rows, the save feeds the writer 8 blocks.
        if block_rows is not None:
            monkeypatch.setattr(store_module, "SCREEN_BLOCK_BYTES", block_rows * 4 * 8)
        directory = tmp_path / "store"
        store = VectorStore(8, embedder="deterministic:8")
        store.insert_batch(make_records(50, 8))
        store.save(str(directory))
        loaded = VectorStore.load(str(directory))
        for query in self.QUERIES[:queries]:
            loaded.top_k(query, 5)
        loaded.save(str(tmp_path / "again"))
        for name in ("meta.jsonl", "vectors.bin"):
            assert (tmp_path / "again" / name).read_bytes() == (directory / name).read_bytes()

    def test_embedder_and_video_count_are_recorded(self, tmp_path):
        store = VectorStore(8, embedder="deterministic:8")
        store.insert_batch(make_records(20, 8, video_every=6))
        store.save(str(tmp_path / "store"))
        header = json.loads((tmp_path / "store" / "meta.jsonl").read_text().split("\n")[0])
        assert header == {"format": "aiblob-store", "version": 2, "dim": 8,
                          "embedder": "deterministic:8", "videos": 6}
        loaded = VectorStore.load(str(tmp_path / "store"))
        assert (loaded.embedder, loaded.video_count, loaded.count) == ("deterministic:8", 6, 20)
        # A store made without an embedder spec records null.
        store = VectorStore(8)
        store.insert_batch(make_records(20, 8, video_every=6))
        store.save(str(tmp_path / "plain"))
        loaded = VectorStore.load(str(tmp_path / "plain"))
        assert (loaded.embedder, loaded.video_count, loaded.count) == (None, 6, 20)

    @pytest.mark.parametrize("fault", ["bad type", "unknown key"])
    def test_forged_digest_row_fault_raised_when_the_row_is_ranked(self, tmp_path, fault):
        directory = self.saved(tmp_path, n=3)
        FAULTS[fault][0](directory)
        forge_digest(directory)
        store = VectorStore.load(str(directory))
        with pytest.raises(StoreError, match=FORGED[fault]):
            store.top_k(self.QUERIES[0], 3)

    def test_forged_digest_duplicate_id_raised_when_both_rows_are_ranked(self, tmp_path):
        directory = self.saved(tmp_path, n=3)
        FAULTS["duplicate id"][0](directory)
        forge_digest(directory)
        store = VectorStore.load(str(directory))
        with pytest.raises(ValidationError, match=FORGED["duplicate id"]):
            store.top_k(self.QUERIES[0], 3)

    @pytest.mark.parametrize("fault", FORGED)
    def test_save_of_a_forged_store_raises_and_leaves_the_target_as_it_was(self, tmp_path,
                                                                            fault):
        directory = self.saved(tmp_path, n=3)
        FAULTS[fault][0](directory)
        forge_digest(directory)
        store = VectorStore.load(str(directory))
        target = self.saved(tmp_path, name="target", n=5)
        before = {path.name: path.read_bytes() for path in target.iterdir()}
        error = ValidationError if fault == "duplicate id" else StoreError
        for into in (target, tmp_path / "new"):
            with pytest.raises(error, match=FORGED[fault]):
                store.save(str(into))
        # No file is renamed into place, and no temporary file is left.
        assert {path.name: path.read_bytes() for path in target.iterdir()} == before
        assert not (tmp_path / "new").exists()

    def test_forged_digest_bad_utf8_raised_as_store_error(self, tmp_path):
        directory = self.saved(tmp_path, n=3)
        meta = directory / "meta.jsonl"
        meta.write_bytes(meta.read_bytes().replace(b"frase numero 1", b"frase \xff numero 1"))
        forge_digest(directory)
        store = VectorStore.load(str(directory))
        with pytest.raises(StoreError, match=r"meta.jsonl:3: not valid UTF-8"):
            store.top_k(self.QUERIES[0], 3)

    def test_changed_store_bad_utf8_raised_as_store_error(self, tmp_path):
        # Refused at load; forged, named by its line and its file offset.
        directory = self.saved(tmp_path, n=3)
        set_bytes(directory, 3, lambda line: line.replace(b"numero", b"\xff numero"))
        at = (directory / "meta.jsonl").read_bytes().index(b"\xff")
        assert_row_fault(directory, StoreError, rf"meta.jsonl:3: not valid UTF-8 \(invalid start "
                                                rf"byte at byte {at}\)$")

    def test_forged_digest_blank_line_is_not_a_row(self, tmp_path):
        directory = self.saved(tmp_path, n=3)
        FAULTS["blank line"][0](directory)
        forge_digest(directory)
        with pytest.raises(StoreError, match=FAULTS["blank line"][1]):
            VectorStore.load(str(directory))

    def test_crlf_line_ends_load_as_lf(self, tmp_path):
        # lf loads from a copy: a store loaded from the directory would refuse
        # to answer once its meta.jsonl is rewritten in place.
        directory = self.saved(tmp_path)
        lf = VectorStore.load(str(shutil.copytree(directory, tmp_path / "lf")))
        meta = directory / "meta.jsonl"
        meta.write_bytes(meta.read_bytes().replace(b"\n", b"\r\n"))
        with pytest.raises(StoreError, match=MISMATCH):
            VectorStore.load(str(directory))
        forge_digest(directory)
        crlf = VectorStore.load(str(directory))
        for query in self.QUERIES:
            assert crlf.top_k(query, 10, video_cap=2) == lf.top_k(query, 10, video_cap=2)
        lf.top_k(self.QUERIES[0], 300)
        crlf.top_k(self.QUERIES[0], 300)
        assert exact(store_columns(crlf)) == exact(store_columns(lf))
        assert crlf.video_count == lf.video_count == 7

    @pytest.mark.parametrize("key,value", [("videos", 4), ("videos", -1), ("videos", "3"),
                                           ("embedder", 64), ("embedder", "\udc80"), ("dim", 4)])
    def test_forged_digest_header_fault_raised_at_load(self, tmp_path, key, value):
        directory = self.saved(tmp_path, n=3)
        edit_line(directory, 1, lambda header: {**header, key: value})
        forge_digest(directory)
        with pytest.raises(StoreError, match=f"bad {key}|dim 8 does not match metadata dim"):
            VectorStore.load(str(directory))


# A child, started in development mode with warnings as errors, that loads the
# store in argv[1], truncates its file argv[3] (meta.jsonl by default) in place
# to argv[2] bytes, then ranks every row: it prints the error's class and
# message, and exits 0, where a store read through an mmap would die of SIGBUS.
TRUNCATED = (
    "import os, sys\n"
    "from aiblob.store import VectorStore\n"
    "directory, size = sys.argv[1], int(sys.argv[2])\n"
    "name = sys.argv[3] if len(sys.argv) > 3 else 'meta.jsonl'\n"
    "store = VectorStore.load(directory)\n"
    "os.truncate(os.path.join(directory, name), size)\n"
    "try:\n"
    "    store.top_k([1.0] * 8, store.count)\n"
    "except Exception as exc:\n"
    "    print(type(exc).__name__, exc)\n"
)


class TestChangedAfterLoad:
    """A loaded store answers from bytes of meta.jsonl and vectors.bin
    identical to those its load read, or raises StoreError naming the file:
    never from a changed file. Each row of meta.jsonl is read back when a query
    first ranks it; every vector, each time a query is screened."""

    QUERIES = TestDigestCheckedLoad.QUERIES

    @staticmethod
    def changed(meta) -> str:
        return rf"^{re.escape(str(meta))}: changed since it was read; load it again$"

    @pytest.mark.parametrize("edit", [
        lambda data: data.replace(b"frase numero 7", b"frase numero X"),
        lambda data: data.replace(b"frase numero 7", b"frase numero 77"),
        lambda data: data[:len(data) // 2],
        lambda data: b"",
    ], ids=["same size", "size changed", "truncated", "emptied"])
    def test_an_edit_in_place_after_load_is_refused(self, tmp_path, edit):
        directory = TestDigestCheckedLoad.saved(tmp_path)
        store = VectorStore.load(str(directory))
        first = store.top_k(self.QUERIES[0], 10)
        meta = directory / "meta.jsonl"
        inode = meta.stat().st_ino
        meta.write_bytes(edit(meta.read_bytes()))
        assert meta.stat().st_ino == inode
        # Rows decoded before the edit still answer; ranking every row reads
        # the others back.
        assert store.top_k(self.QUERIES[0], 10) == first
        with pytest.raises(StoreError, match=self.changed(meta)):
            store.top_k(self.QUERIES[1], 300)

    def test_a_truncation_after_load_raises_and_does_not_crash(self, tmp_path):
        directory = TestDigestCheckedLoad.saved(tmp_path)
        for size in (0, 1000):
            filled_store(300, 8, video_every=7).save(str(directory))
            result = run_python("-X", "dev", "-W", "error", "-c", TRUNCATED, directory, size)
            assert (result.returncode, result.stderr) == (0, "")
            assert re.fullmatch("StoreError " + self.changed(directory / "meta.jsonl")[1:-1],
                                result.stdout.strip())

    def test_a_store_replaced_by_rename_answers_from_its_own_rows(self, tmp_path):
        directory = TestDigestCheckedLoad.saved(tmp_path)
        store = VectorStore.load(str(directory))
        # A save renames new files over the old ones, as aiblob index does.
        filled_store(300, 8, prefix="t", video_every=5).save(str(directory))
        assert VectorStore.load(str(directory)).top_k(self.QUERIES[0], 1)[0].sentence_id[0] == "t"
        in_memory = filled_store(300, 8, video_every=7)
        assert answers_with_exclusion(store, self.QUERIES) == answers_with_exclusion(
            in_memory, self.QUERIES)
        # Ranking every row decodes every row, in each store.
        for each in (store, in_memory):
            each.top_k(self.QUERIES[0], 300)
        assert exact(store_columns(store)) == exact(store_columns(in_memory))

    def test_the_store_closes_its_meta_file_when_collected(self, tmp_path):
        store = VectorStore.load(str(TestDigestCheckedLoad.saved(tmp_path)))
        descriptor = store._meta._fd
        os.fstat(descriptor)
        del store
        gc.collect()
        with pytest.raises(OSError):
            os.fstat(descriptor)

    @pytest.mark.parametrize("edit", [
        # Row 7 is the best hit of its own vector; it becomes the vector of row 8.
        lambda data: data[:20 + 32 * 7] + data[20 + 32 * 8:20 + 32 * 9] + data[20 + 32 * 8:],
        lambda data: data[:20 + 32 * 7] + data[20 + 32 * 7 + 4:],
        lambda data: data[:len(data) // 2],
        lambda data: b"",
    ], ids=["same size", "size changed", "truncated", "emptied"])
    def test_an_edit_of_vectors_in_place_after_load_is_refused(self, tmp_path, edit):
        directory = TestDigestCheckedLoad.saved(tmp_path)
        store = VectorStore.load(str(directory))
        own = deterministic_embed("frase numero 7", 8)
        assert store.top_k(own, 1)[0].sentence_id == "s0007"
        vectors = directory / "vectors.bin"
        inode = vectors.stat().st_ino
        vectors.write_bytes(edit(vectors.read_bytes()))
        assert vectors.stat().st_ino == inode
        # Every query screens every row, so each reads the vectors back.
        with pytest.raises(StoreError, match=self.changed(vectors)):
            store.top_k(own, 1)
        with pytest.raises(StoreError, match=self.changed(vectors)):
            list(store.retrieve(self.QUERIES, 10))

    def test_a_truncation_of_vectors_after_load_raises_and_does_not_crash(self, tmp_path):
        directory = TestDigestCheckedLoad.saved(tmp_path)
        for size in (0, 1000):
            filled_store(300, 8, video_every=7).save(str(directory))
            result = run_python("-X", "dev", "-W", "error", "-c", TRUNCATED, directory, size,
                                "vectors.bin")
            assert (result.returncode, result.stderr) == (0, "")
            assert re.fullmatch("StoreError " + self.changed(directory / "vectors.bin")[1:-1],
                                result.stdout.strip())

    def test_vectors_replaced_by_rename_answer_from_their_own_rows(self, tmp_path):
        directory = TestDigestCheckedLoad.saved(tmp_path)
        store = VectorStore.load(str(directory))
        other = TestDigestCheckedLoad.saved(tmp_path, "other")
        (other / "vectors.bin").write_bytes((other / "vectors.bin").read_bytes()[::-1])
        os.replace(other / "vectors.bin", directory / "vectors.bin")
        in_memory = filled_store(300, 8, video_every=7)
        assert answers_with_exclusion(store, self.QUERIES) == answers_with_exclusion(
            in_memory, self.QUERIES)
        assert list(store.retrieve(self.QUERIES, 10)) == list(in_memory.retrieve(self.QUERIES, 10))

    def test_the_store_closes_its_vectors_file_when_collected(self, tmp_path):
        store = VectorStore.load(str(TestDigestCheckedLoad.saved(tmp_path)))
        store.top_k(self.QUERIES[0], 10)
        descriptors = store._meta._fd, store._vectors._fd
        for descriptor in descriptors:
            os.fstat(descriptor)
        del store
        gc.collect()
        for descriptor in descriptors:
            with pytest.raises(OSError):
                os.fstat(descriptor)
