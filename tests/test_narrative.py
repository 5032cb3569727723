"""Retrieval exclusion, filtering, segmentation, ordering, plan files."""

import json
import math
import random
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aiblob.config import load_config
from aiblob.errors import ConfigError, ParseError, PlanError, ValidationError
from aiblob.llm import Candidate, Orchestrator, QueryPhrase, ScoredSentence
from aiblob.narrative import (
    NarrativePlan,
    PipelineConfig,
    SECTION_ORDER,
    contrast_interleave,
    filter_retained,
    load_plan,
    order_sections,
    retrieve_candidates,
    save_plan,
    section_quotas,
    segment_narrative,
)
from aiblob import store as store_module
from aiblob.store import SCREEN_BLOCK_BYTES, SCREEN_CHUNK, VectorRecord, VectorStore

from oracle_narrative import oracle_segment
from test_llm import QueueProvider


def scored(rows):
    return [ScoredSentence(sid, irony, relevance) for sid, irony, relevance in rows]


def plan_sets(plan):
    return {name: set(ids) for name, ids in plan.sections.items()}


SPEC_EXAMPLE = [
    ("s1", 9, 5), ("s2", 8, 8), ("s3", 3, 9), ("s4", 2, 8),
    ("s5", 5, 5), ("s6", 6, 4), ("s7", 4, 6), ("s8", 7, 7),
]


class TestRetrieveCandidates:
    def angle_vector(self, degrees):
        rad = math.radians(degrees)
        return np.array([math.cos(rad), math.sin(rad)], dtype=np.float32)

    def build_store(self):
        angles = {"r1": 0.0, "r2": 8.0, "r3": 90.0, "r4": 180.0, "r5": 270.0}
        store = VectorStore(2)
        store.insert_batch([
            VectorRecord(name, self.angle_vector(a), f"vid-{name}", f"testo {name}", 0.0, 1.0)
            for name, a in sorted(angles.items())
        ])
        return store

    class MapEmbedder:
        """Maps query text to a fixed unit vector; lets tests position queries."""

        def __init__(self, mapping, dim=2):
            self.mapping = mapping
            self.dim = dim
            self.batch_size = 64

        def embed(self, texts, input_type="search_query"):
            return np.array([self.mapping[t] for t in texts], dtype=np.float32)

    def test_second_query_excludes_first_pick(self):
        # Both queries point at r1; the second must get the next-nearest (r2),
        # matching a hand-run brute-force scan on this 5-record store.
        store = self.build_store()
        embedder = self.MapEmbedder({
            "query a": self.angle_vector(2.0),
            "query b": self.angle_vector(3.0),
        })
        config = PipelineConfig(k_per_query=1)
        result = retrieve_candidates(
            [QueryPhrase(0, "query a"), QueryPhrase(0, "query b")],
            store, embedder, config)
        assert result == [Candidate("r1", "vid-r1", "testo r1", 0.0, 1.0, 0),
                          Candidate("r2", "vid-r2", "testo r2", 0.0, 1.0, 1)]

    def test_empty_store(self):
        store = VectorStore(2)
        embedder = self.MapEmbedder({"q": self.angle_vector(0.0)})
        result = retrieve_candidates([QueryPhrase(0, "q")], store, embedder,
                                     PipelineConfig())
        assert result == []

    def test_store_exhaustion(self):
        store = VectorStore(2)
        store.insert_batch([
            VectorRecord("r1", self.angle_vector(0.0), "v1", "t1", 0.0, 1.0),
            VectorRecord("r2", self.angle_vector(10.0), "v2", "t2", 0.0, 1.0),
        ])
        embedder = self.MapEmbedder({"q": self.angle_vector(0.0)})
        result = retrieve_candidates([QueryPhrase(0, "q")], store, embedder,
                                     PipelineConfig(k_per_query=3))
        assert len(result) == 2

    def test_no_queries_rejected(self):
        with pytest.raises(ValidationError):
            retrieve_candidates([], VectorStore(2), None, PipelineConfig())

    def test_ids_unique_across_output(self):
        store = self.build_store()
        embedder = self.MapEmbedder({
            f"q{i}": self.angle_vector(i * 17.0) for i in range(6)
        })
        result = retrieve_candidates(
            [QueryPhrase(0, f"q{i}") for i in range(6)],
            store, embedder, PipelineConfig(k_per_query=2))
        ids = [c.sentence_id for c in result]
        assert len(ids) == len(set(ids))

    @given(
        n_records=st.integers(min_value=0, max_value=40),
        n_queries=st.integers(min_value=1, max_value=8),
        k=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=50, deadline=None)
    def test_dedup_property_on_random_stores(self, n_records, n_queries, k, seed):
        from aiblob.embeddings import DeterministicEmbedder, deterministic_embed

        store = VectorStore(8)
        store.insert_batch([
            VectorRecord(f"r{seed}-{i:03d}", deterministic_embed(f"doc {seed} {i}", 8),
                         f"vid{i % 5}", f"doc {seed} {i}", 0.0, 1.0)
            for i in range(n_records)
        ])
        queries = [QueryPhrase(0, f"query {seed} {j}") for j in range(n_queries)]
        result = retrieve_candidates(queries, store, DeterministicEmbedder(8),
                                     PipelineConfig(k_per_query=k))
        ids = [c.sentence_id for c in result]
        assert len(ids) == len(set(ids))
        # Each query contributes at most k hits, in query order.
        query_indexes = [c.source_query_index for c in result]
        assert query_indexes == sorted(query_indexes)
        for qi in set(query_indexes):
            assert query_indexes.count(qi) <= k
        assert len(ids) == min(n_records, len(ids))


class TestChunkedScreen:
    """retrieve_candidates screens each chunk of queries once; its hits must be
    those of one plain top_k per query with the exclusion growing, from the
    store as inserted and from its save loaded again, whose rows decode as
    they are ranked."""

    @given(
        n=st.integers(min_value=0, max_value=120),
        dim=st.sampled_from([8, 64]),
        n_queries=st.sampled_from([1, 5, SCREEN_CHUNK - 1, SCREEN_CHUNK, SCREEN_CHUNK + 3]),
        k=st.integers(min_value=1, max_value=8),
        video_cap=st.one_of(st.none(), st.integers(min_value=1, max_value=2)),
        distinct=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
        spread=st.one_of(st.none(), st.integers(min_value=-9, max_value=-5)),
        repeats=st.integers(min_value=1, max_value=4),
        block_rows=st.one_of(st.none(), st.integers(min_value=1, max_value=7)),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_a_loop_of_plain_top_k(self, n, dim, n_queries, k, video_cap, distinct,
                                          spread, repeats, block_rows, seed):
        # Duplicate vectors (distinct), rows within the screen's error of one
        # vector (spread) and repeated queries (repeats) make ties, near-ties
        # and exclusions that reach into a later query's best rows.
        from aiblob.embeddings import deterministic_embed

        rng = np.random.default_rng(seed)
        base = deterministic_embed(f"vicino {seed}", dim).astype(np.float64)
        records = []
        for i in range(n):
            if spread is None:
                vector = deterministic_embed(f"doc {i % distinct if distinct else i}", dim)
            else:
                vector = (base + 10.0 ** spread * rng.standard_normal(dim)).astype(np.float32)
            records.append(VectorRecord(f"r{i:03d}", vector, f"vid{i % 4}", f"doc {i}", 0.0, 1.0))
        store = VectorStore(dim)
        store.insert_batch(records)
        vectors = np.array([deterministic_embed(f"query {seed} {j // repeats}", dim)
                            if spread is None else
                            (base + 10.0 ** spread * rng.standard_normal(dim)).astype(np.float32)
                            for j in range(n_queries)])

        expected = []
        excluded: set[str] = set()
        for j, vector in enumerate(vectors):
            for hit in store.top_k(vector, k, exclude=excluded, video_cap=video_cap):
                expected.append(Candidate(hit.sentence_id, hit.video_id, hit.text, hit.start_s,
                                          hit.end_s, j))
                excluded.add(hit.sentence_id)

        embedder = TestRetrieveCandidates.MapEmbedder(
            {str(j): vector for j, vector in enumerate(vectors)}, dim)
        block = SCREEN_BLOCK_BYTES if block_rows is None else block_rows * 4 * SCREEN_CHUNK
        with mock.patch.object(store_module, "SCREEN_BLOCK_BYTES", block), \
                tempfile.TemporaryDirectory() as directory:
            store.save(directory)
            for searched in (store, VectorStore.load(directory)):
                result = retrieve_candidates([QueryPhrase(0, str(j)) for j in range(n_queries)],
                                             searched, embedder,
                                             PipelineConfig(k_per_query=k, video_cap=video_cap))
                assert result == expected


class TestFilterRetained:
    def test_or_rule(self):
        rows = scored([("a", 8, 3), ("b", 5, 9), ("c", 6, 6)])
        kept = filter_retained(rows, 7, 7)
        assert [s.sentence_id for s in kept] == ["a", "b"]

    def test_empty(self):
        assert filter_retained([], 7, 7) == []

    def test_exhaustive_pairs(self):
        for ti, tr in [(7, 7), (1, 1), (10, 10), (5, 8)]:
            for irony in range(1, 11):
                for relevance in range(1, 11):
                    kept = filter_retained(scored([("x", irony, relevance)]), ti, tr)
                    assert bool(kept) == (irony >= ti or relevance >= tr)


class TestSegmentNarrative:
    def test_spec_example(self):
        plan = segment_narrative(scored(SPEC_EXAMPLE), PipelineConfig(), "Titolo")
        assert plan_sets(plan) == {
            "climax": {"s1", "s2"},
            "introduction": {"s3"},
            "conclusion": {"s5"},
            "build_up": {"s4", "s6", "s7", "s8"},
        }
        assert plan.episode_title == "Titolo"

    def test_four_members_one_per_section(self):
        plan = segment_narrative(scored([("a", 9, 1), ("b", 1, 9), ("c", 5, 5), ("d", 4, 4)]),
                                 PipelineConfig())
        assert all(len(ids) == 1 for ids in plan.sections.values())

    def test_three_members_rejected(self):
        with pytest.raises(PlanError, match="thresholds"):
            segment_narrative(scored([("a", 9, 1), ("b", 1, 9), ("c", 5, 5)]),
                              PipelineConfig())

    def test_quota_arithmetic(self):
        for n in range(4, 300):
            quotas = section_quotas(n, PipelineConfig())
            assert sum(quotas.values()) == n
            assert all(q >= 1 for q in quotas.values())

    def test_matches_oracle_on_thousand_random_sets(self):
        rng = random.Random(7)
        config = PipelineConfig()
        for _ in range(1000):
            n = rng.randint(4, 10)
            rows = [(f"s{i:02d}", rng.randint(1, 10), rng.randint(1, 10)) for i in range(n)]
            plan = segment_narrative(scored(rows), config)
            assert plan_sets(plan) == oracle_segment(rows)

    @given(st.lists(st.tuples(st.integers(1, 10), st.integers(1, 10)),
                    min_size=4, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_partition_and_climax_dominance(self, score_pairs):
        rows = [(f"s{i:03d}", irony, rel) for i, (irony, rel) in enumerate(score_pairs)]
        plan = segment_narrative(scored(rows), PipelineConfig())
        sets = plan_sets(plan)
        everything = [sid for ids in plan.sections.values() for sid in ids]
        # Disjoint sections whose union is the retained set.
        assert len(everything) == len(set(everything)) == len(rows)
        assert set(everything) == {sid for sid, _, _ in rows}
        # Every section non-empty for n >= 4.
        assert all(sets[name] for name in SECTION_ORDER)
        # Climax irony dominance.
        by_id = {sid: irony for sid, irony, _ in rows}
        min_climax = min(by_id[sid] for sid in sets["climax"])
        outside = [by_id[sid] for name in SECTION_ORDER if name != "climax"
                   for sid in sets[name]]
        assert min_climax >= max(outside)

    def test_duplicate_ids_rejected(self):
        rows = scored([("a", 9, 1), ("a", 1, 9), ("c", 5, 5), ("d", 4, 4)])
        with pytest.raises(ValidationError, match="duplicate"):
            segment_narrative(rows, PipelineConfig())

    def test_unsatisfiable_quotas_raise(self):
        config = PipelineConfig(climax_quota=0.32, introduction_quota=0.33,
                                conclusion_quota=0.33)
        rows = scored([(f"s{i}", 5, 5) for i in range(5)])
        with pytest.raises(PlanError, match="build-up"):
            segment_narrative(rows, config)


class TestContrastInterleave:
    def test_hand_applied_rule(self):
        members = scored([("a", 2, 1), ("b", 4, 1), ("c", 6, 1), ("d", 9, 1)])
        assert [s.irony for s in contrast_interleave(members)] == [9, 2, 6, 4]

    def test_singleton(self):
        members = scored([("solo", 5, 5)])
        assert contrast_interleave(members) == members

    def test_two_members(self):
        members = scored([("a", 3, 1), ("b", 8, 1)])
        assert [s.irony for s in contrast_interleave(members)] == [8, 3]

    @given(st.lists(st.tuples(st.integers(1, 10), st.integers(1, 10)),
                    min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_is_permutation(self, pairs):
        members = scored([(f"s{i:03d}", a, b) for i, (a, b) in enumerate(pairs)])
        result = contrast_interleave(members)
        assert sorted(s.sentence_id for s in result) == sorted(s.sentence_id for s in members)


class TestOrderSections:
    def make_plan(self, sections):
        return NarrativePlan("Titolo", {name: list(ids) for name, ids in sections.items()})

    def test_build_up_monotone_escalation(self):
        rows = scored([("a", 7, 1), ("b", 2, 1), ("c", 4, 1), ("d", 6, 1)])
        plan = self.make_plan({"introduction": [], "build_up": [s.sentence_id for s in rows],
                               "climax": [], "conclusion": []})
        ordered = order_sections(plan, {s.sentence_id: s for s in rows}, PipelineConfig())
        by_id = {s.sentence_id: s.irony for s in rows}
        assert [by_id[sid] for sid in ordered.sections["build_up"]] == [2, 4, 6, 7]

    def test_climax_from_spec_example(self):
        rows = scored(SPEC_EXAMPLE)
        by_id = {s.sentence_id: s for s in rows}
        plan = segment_narrative(rows, PipelineConfig())
        ordered = order_sections(plan, by_id, PipelineConfig())
        assert ordered.sections["climax"] == ["s1", "s2"]

    def test_introduction_by_relevance_desc(self):
        rows = scored([("a", 2, 9), ("b", 1, 7), ("c", 3, 9)])
        plan = self.make_plan({"introduction": ["a", "b", "c"], "build_up": [],
                               "climax": [], "conclusion": []})
        ordered = order_sections(plan, {s.sentence_id: s for s in rows}, PipelineConfig())
        assert ordered.sections["introduction"] == ["a", "c", "b"]

    def test_conclusion_deescalates(self):
        rows = scored([("a", 3, 5), ("b", 7, 5), ("c", 5, 5)])
        plan = self.make_plan({"introduction": [], "build_up": [], "climax": [],
                               "conclusion": ["a", "b", "c"]})
        ordered = order_sections(plan, {s.sentence_id: s for s in rows}, PipelineConfig())
        assert ordered.sections["conclusion"] == ["b", "c", "a"]

    def test_singletons_unchanged(self):
        rows = scored([("a", 1, 1), ("b", 2, 2), ("c", 3, 3), ("d", 4, 4)])
        plan = self.make_plan({"introduction": ["a"], "build_up": ["b"],
                               "climax": ["c"], "conclusion": ["d"]})
        ordered = order_sections(plan, {s.sentence_id: s for s in rows}, PipelineConfig())
        assert ordered.sections == plan.sections

    def test_llm_strategy_uses_provider(self):
        rows = scored([("a", 1, 1), ("b", 9, 9)])
        plan = self.make_plan({"introduction": [], "build_up": [], "climax": ["a", "b"],
                               "conclusion": []})
        provider = QueueProvider(order=[{"order": ["a", "b"]}])
        orch = Orchestrator(provider)
        config = PipelineConfig(ordering="llm")
        ordered = order_sections(plan, {s.sentence_id: s for s in rows}, config,
                                 orchestrator=orch, texts={"a": "uno", "b": "due"})
        assert ordered.sections["climax"] == ["a", "b"]
        assert provider.calls[0][1]["section"] == "climax"

    @pytest.mark.parametrize("replies", [[], [{"order": ["a", "a"]}, {"order": ["a"]}]],
                             ids=["no-reply", "unusable-reply"])
    def test_llm_strategy_falls_back_deterministically(self, replies):
        rows = scored([("a", 1, 1), ("b", 9, 9), ("c", 5, 5)])
        plan = self.make_plan({"introduction": [], "build_up": [], "climax": ["a", "b", "c"],
                               "conclusion": []})
        provider = QueueProvider(order=replies)
        orch = Orchestrator(provider, retries=1)
        ordered = order_sections(plan, {s.sentence_id: s for s in rows},
                                 PipelineConfig(ordering="llm"), orchestrator=orch)
        assert ordered.sections["climax"] == ["b", "a", "c"]  # contrast rule
        assert len(provider.calls) == 2
        assert orch.warnings == ["ordering fallback for section 'climax': no valid permutation"]

    # An empty or one-member section has one order and is never sent.
    def test_llm_strategy_asks_only_for_sections_of_two_or_more(self):
        rows = scored([("a", 1, 1), ("b", 9, 9), ("c", 2, 2), ("d", 8, 8), ("e", 5, 5)])
        plan = self.make_plan({"introduction": ["e"], "build_up": ["a", "b"],
                               "climax": ["c", "d"], "conclusion": []})
        provider = QueueProvider(order=[{"order": ["b", "a"]}, {"order": ["d", "c"]}])
        orch = Orchestrator(provider)
        ordered = order_sections(plan, {s.sentence_id: s for s in rows},
                                 PipelineConfig(ordering="llm"), orchestrator=orch)
        assert [payload["section"] for _, payload in provider.calls] == ["build_up", "climax"]
        assert ordered.sections == {"introduction": ["e"], "build_up": ["b", "a"],
                                    "climax": ["d", "c"], "conclusion": []}
        assert orch.warnings == []

    # A plan that segment_narrative built holds only scored ids, so each
    # ordered section is a permutation of the segmented one.
    @given(st.lists(st.tuples(st.integers(1, 10), st.integers(1, 10)),
                    min_size=4, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_segmented_plan_orders_into_the_same_sections(self, pairs):
        rows = scored([(f"s{i:03d}", a, b) for i, (a, b) in enumerate(pairs)])
        plan = segment_narrative(rows, PipelineConfig())
        ordered = order_sections(plan, {s.sentence_id: s for s in rows}, PipelineConfig())
        assert list(ordered.sections) == list(SECTION_ORDER)
        for name in SECTION_ORDER:
            assert sorted(ordered.sections[name]) == sorted(plan.sections[name]), name

    def test_llm_strategy_without_orchestrator(self):
        plan = self.make_plan({"introduction": [], "build_up": [], "climax": ["a"],
                               "conclusion": []})
        with pytest.raises(ConfigError):
            order_sections(plan, {"a": ScoredSentence("a", 5, 5)},
                           PipelineConfig(ordering="llm"))


class TestPipelineConfig:
    def test_defaults_valid(self):
        config = PipelineConfig()
        assert config.k_per_query == 10
        assert config.irony_threshold == config.relevance_threshold == 7
        assert (config.climax_quota, config.introduction_quota,
                config.conclusion_quota) == (0.20, 0.15, 0.15)

    def test_bad_threshold(self):
        with pytest.raises(ConfigError):
            PipelineConfig(irony_threshold=11)

    def test_quota_sum_must_stay_below_one(self):
        with pytest.raises(ConfigError):
            PipelineConfig(climax_quota=0.5, introduction_quota=0.3, conclusion_quota=0.3)

    def test_bad_ordering(self):
        with pytest.raises(ConfigError):
            PipelineConfig(ordering="casuale")

    @pytest.mark.parametrize("name,value", [("climax_quota", 0), ("climax_quota", 1.0),
                                            ("introduction_quota", -0.1),
                                            ("conclusion_quota", 1.5)])
    def test_quota_outside_the_open_unit_interval(self, tmp_path, name, value):
        message = rf"^{name} must be in \(0, 1\), got {float(value)}$"
        with pytest.raises(ConfigError, match=message):
            PipelineConfig(**{name: value})
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"pipeline": {name: value}}), encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"config section 'pipeline': {name} must be in"):
            load_config(str(path))


class TestPlanFile:
    def test_round_trip(self, tmp_path):
        rows = scored(SPEC_EXAMPLE)
        by_id = {s.sentence_id: s for s in rows}
        plan = order_sections(segment_narrative(rows, PipelineConfig(), "Titolo"),
                              by_id, PipelineConfig())
        path = tmp_path / "plan.json"
        save_plan(plan, by_id, str(path))
        loaded, loaded_scores = load_plan(str(path))
        assert loaded.sections == plan.sections
        assert loaded.episode_title == "Titolo"
        for sid in plan.all_ids():
            assert (loaded_scores[sid].irony, loaded_scores[sid].relevance) == \
                (by_id[sid].irony, by_id[sid].relevance)

    @pytest.mark.parametrize("text,message", [
        ('{"format": "altro", "version": 1}', "not an aiblob-plan file (format='altro')"),
        ('{"format": "aiblob-plan", "version": 2}', "unsupported plan version 2"),
        ('[{"format": "aiblob-plan", "version": 1}]', "expected a JSON object, got list"),
        ('"aiblob-plan"', "expected a JSON object, got str"),
    ], ids=["wrong-format", "wrong-version", "array", "string"])
    def test_header_enforced(self, tmp_path, text, message):
        path = tmp_path / "plan.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as caught:
            load_plan(str(path))
        assert str(caught.value) == f"{path}: {message}"

    def test_overlapping_sections_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            '{"format": "aiblob-plan", "version": 1, "episode_title": "X",'
            ' "sections": {"introduction": ["a"], "build_up": ["a"],'
            ' "climax": ["b"], "conclusion": ["c"]},'
            ' "scores": {"a": {"irony": 5, "relevance": 5},'
            ' "b": {"irony": 5, "relevance": 5}, "c": {"irony": 5, "relevance": 5}}}',
            encoding="utf-8")
        with pytest.raises(ValidationError, match="disjoint"):
            load_plan(str(path))

    @pytest.mark.parametrize("irony", ["x", 2.5, True, None])
    def test_non_integer_score_rejected(self, tmp_path, irony):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "format": "aiblob-plan", "version": 1, "episode_title": "X",
            "sections": {"introduction": ["a"], "build_up": ["b"],
                         "climax": ["c"], "conclusion": ["d"]},
            "scores": {sid: {"irony": irony if sid == "c" else 5, "relevance": 5}
                       for sid in "abcd"},
        }), encoding="utf-8")
        with pytest.raises(ParseError, match=r"scores of c: irony must be an integer"):
            load_plan(str(path))

    @pytest.mark.parametrize("change,message", [
        (lambda p: p["scores"].update(c={"ironia": 9}), "scores of c: unknown key(s): ironia"),
        (lambda p: p["scores"].update(c={"irony": 9}), "scores of c: missing key(s): relevance"),
        (lambda p: p["sections"].update(climaxx=p["sections"].pop("climax")),
         "sections: unknown key(s): climaxx"),
        (lambda p: p["sections"].update(build_up=["b", 5]),
         "sections.build_up[1]: must be a sentence id string, got 5"),
        (lambda p: p["sections"].update(build_up=["b", "\udc80"]),
         "sections.build_up[1]: must be a sentence id string without lone surrogates, "
         "got '\\udc80'"),
        (lambda p: p["sections"].update(climax="c"), "sections: climax must be a list, got str"),
        (lambda p: p.pop("episode_title"), "missing key(s): episode_title"),
        (lambda p: p.pop("scores"), "missing key(s): scores"),
        (lambda p: p.update(scores=["a"]), "scores must be an object, got list"),
        (lambda p: p.update(notes="x"), "unknown key(s): notes"),
        (lambda p: p["scores"].update(e={"irony": 5, "relevance": 5}),
         "scores of e: the id is in no section"),
    ], ids=["renamed-score-key", "missing-score-key", "renamed-section", "non-string-id",
            "lone-surrogate-id",
            "non-list-section", "missing-title", "missing-scores", "non-object-scores",
            "unknown-key",
            "score-of-no-plan-id"])
    def test_renamed_missing_or_unknown_key_rejected(self, tmp_path, change, message):
        payload = {
            "format": "aiblob-plan", "version": 1, "episode_title": "X",
            "sections": {"introduction": ["a"], "build_up": ["b"],
                         "climax": ["c"], "conclusion": ["d"]},
            "scores": {sid: {"irony": 5, "relevance": 5} for sid in "abcd"},
        }
        change(payload)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ParseError) as caught:
            load_plan(str(path))
        assert str(caught.value) == f"{path}: {message}"

    @pytest.mark.parametrize("title", [None, 5, ["X"]])
    def test_non_string_title_rejected(self, tmp_path, title):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "format": "aiblob-plan", "version": 1, "episode_title": title,
            "sections": {"introduction": ["a"], "build_up": ["b"],
                         "climax": ["c"], "conclusion": ["d"]},
            "scores": {sid: {"irony": 5, "relevance": 5} for sid in "abcd"},
        }), encoding="utf-8")
        with pytest.raises(ParseError, match="episode_title must be a string"):
            load_plan(str(path))

    def test_missing_scores_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            '{"format": "aiblob-plan", "version": 1, "episode_title": "X",'
            ' "sections": {"introduction": ["a"], "build_up": ["b"],'
            ' "climax": ["c"], "conclusion": ["d"]}, "scores": {}}',
            encoding="utf-8")
        with pytest.raises(ValidationError, match="missing scores"):
            load_plan(str(path))
