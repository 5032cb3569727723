"""Provider validation: themes, queries, scoring, ordering, and replay."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aiblob.errors import ParseError, ProviderError, ValidationError
from aiblob.llm import (
    Orchestrator,
    QueryPhrase,
    RemoteChatProvider,
    ScoredSentence,
    ScriptedProvider,
    ThemeIdea,
    clamp_score,
    make_llm_provider,
)
from aiblob.util import dumps_line


class QueueProvider:
    """In-memory scripted provider: pops canned (response | exception) per op."""

    def __init__(self, **queues):
        self.queues = {op: list(items) for op, items in queues.items()}
        self.calls = []

    def complete(self, op, payload):
        self.calls.append((op, payload))
        queue = self.queues.get(op, [])
        if not queue:
            raise ProviderError(f"exhausted {op}")
        item = queue.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def write_replay(path, entries):
    path.write_text("\n".join(dumps_line(e) for e in entries) + "\n", encoding="utf-8")


class TestScriptedProvider:
    def test_per_op_queues_in_order(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        write_replay(path, [
            {"op": "themes", "response": {"themes": ["a"]}},
            {"op": "score", "response": {"scores": []}},
            {"op": "themes", "response": {"themes": ["b"]}},
        ])
        provider = ScriptedProvider(str(path))
        assert provider.complete("themes", {}) == {"themes": ["a"]}
        assert provider.complete("score", {}) == {"scores": []}
        assert provider.complete("themes", {}) == {"themes": ["b"]}

    def test_exhaustion_raises(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        write_replay(path, [{"op": "themes", "response": {"themes": ["a"]}}])
        provider = ScriptedProvider(str(path))
        provider.complete("themes", {})
        with pytest.raises(ProviderError, match="exhausted"):
            provider.complete("themes", {})

    def test_unknown_op_in_file(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        path.write_text('{"op": "inventato", "response": {}}\n', encoding="utf-8")
        with pytest.raises(ParseError, match="inventato"):
            ScriptedProvider(str(path))

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        path.write_text('{"op": "themes", "response": {}}\nnot json\n', encoding="utf-8")
        with pytest.raises(ParseError, match=":2"):
            ScriptedProvider(str(path))


class TestGenerateThemes:
    def test_passthrough_five(self):
        provider = QueueProvider(themes=[{"themes": ["a", "b", "c", "d", "e"]}])
        orch = Orchestrator(provider)
        themes = orch.generate_themes("Il calcio", 5)
        assert themes == [ThemeIdea(i, t) for i, t in enumerate(["a", "b", "c", "d", "e"])]
        assert orch.warnings == []

    def test_duplicates_then_shortfall_warning(self):
        provider = QueueProvider(themes=[{"themes": ["A", "A", "B"]}])
        orch = Orchestrator(provider, retries=3)
        themes = orch.generate_themes("Il calcio", 3)
        assert [t.description for t in themes] == ["A", "B"]
        assert len(provider.calls) == 4  # retried to fill, provider kept failing
        assert any("shortfall" in w for w in orch.warnings)

    def test_retry_merges_new_themes(self):
        provider = QueueProvider(themes=[{"themes": ["A", "A"]}, {"themes": ["B", "C"]}])
        orch = Orchestrator(provider)
        themes = orch.generate_themes("Il calcio", 3)
        assert [t.description for t in themes] == ["A", "B", "C"]
        assert orch.warnings == []

    def test_malformed_every_attempt_raises(self):
        provider = QueueProvider(themes=[{"sbagliato": 1}] * 4)
        orch = Orchestrator(provider, retries=3)
        with pytest.raises(ProviderError, match="4 attempts"):
            orch.generate_themes("Il calcio", 3)

    def test_overdelivery_capped(self):
        provider = QueueProvider(themes=[{"themes": [f"t{i}" for i in range(9)]}])
        themes = Orchestrator(provider).generate_themes("Il calcio", 5)
        assert len(themes) == 5

    def test_empty_title_rejected(self):
        with pytest.raises(ValidationError):
            Orchestrator(QueueProvider()).generate_themes("", 5)


class TestGenerateQueries:
    def themes(self, n=2):
        return [ThemeIdea(i, f"tema {i}") for i in range(n)]

    def test_grouped_by_theme_then_provider_order(self):
        response = {"queries": [
            {"theme_index": 0, "text": "q0a"}, {"theme_index": 1, "text": "q1a"},
            {"theme_index": 0, "text": "q0b"}, {"theme_index": 1, "text": "q1b"},
            {"theme_index": 0, "text": "q0c"}, {"theme_index": 1, "text": "q1c"},
        ]}
        orch = Orchestrator(QueueProvider(queries=[response]))
        phrases = orch.generate_queries(self.themes(), 3)
        assert [p.theme_index for p in phrases] == [0, 0, 0, 1, 1, 1]
        assert [p.text for p in phrases] == ["q0a", "q0b", "q0c", "q1a", "q1b", "q1c"]

    def test_cross_theme_duplicate_dropped_with_warning(self):
        response = {"queries": [
            {"theme_index": 0, "text": "Stessa Frase"},
            {"theme_index": 1, "text": "stessa frase"},
        ]}
        orch = Orchestrator(QueueProvider(queries=[response]))
        phrases = orch.generate_queries(self.themes(), 1)
        assert phrases == [QueryPhrase(0, "Stessa Frase")]
        assert any("duplicate" in w for w in orch.warnings)
        assert any("shortfall" in w for w in orch.warnings)

    def test_empty_themes_is_precondition_error(self):
        with pytest.raises(ValidationError):
            Orchestrator(QueueProvider()).generate_queries([], 3)

    def test_out_of_range_theme_index_dropped(self):
        response = {"queries": [
            {"theme_index": 7, "text": "fuori"},
            {"theme_index": 0, "text": "dentro"},
        ]}
        orch = Orchestrator(QueueProvider(queries=[response]))
        phrases = orch.generate_queries(self.themes(), 1)
        assert phrases == [QueryPhrase(0, "dentro")]
        assert any("invalid" in w for w in orch.warnings)

    def test_per_theme_cap(self):
        response = {"queries": [{"theme_index": 0, "text": f"q{i}"} for i in range(5)]}
        phrases = Orchestrator(QueueProvider(queries=[response])).generate_queries(
            self.themes(1), 2)
        assert [p.text for p in phrases] == ["q0", "q1"]

    def test_transport_retry(self):
        provider = QueueProvider(queries=[
            ProviderError("giù"),
            {"queries": [{"theme_index": 0, "text": "ok"}]},
        ])
        phrases = Orchestrator(provider).generate_queries(self.themes(1), 1)
        assert [p.text for p in phrases] == ["ok"]


class TestClampScore:
    def test_examples(self):
        assert clamp_score(12.7) == 10
        assert clamp_score(7.5) == 8
        assert clamp_score(6.4) == 6
        assert clamp_score(0.2) == 1
        assert clamp_score(-3) == 1
        assert clamp_score(10) == 10

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_always_in_range(self, value):
        assert 1 <= clamp_score(value) <= 10


class TestScoreBatch:
    def themes(self):
        return [ThemeIdea(0, "tema")]

    def test_passthrough(self):
        response = {"scores": [{"id": "s1", "irony": 8, "relevance": 3, "rationale": "ok"}]}
        orch = Orchestrator(QueueProvider(score=[response]))
        out = orch.score_batch([("s1", "testo")], "Titolo", self.themes())
        assert out == [ScoredSentence("s1", 8, 3, "ok", 0)]

    def test_clamping_and_rounding(self):
        response = {"scores": [
            {"id": "s1", "irony": 12.7, "relevance": 0.2},
            {"id": "s2", "irony": 7.5, "relevance": -4},
        ]}
        orch = Orchestrator(QueueProvider(score=[response]))
        out = orch.score_batch([("s1", "a"), ("s2", "b")], "T", self.themes())
        assert (out[0].irony, out[0].relevance) == (10, 1)
        assert (out[1].irony, out[1].relevance) == (8, 1)

    def test_missing_id_reask_then_default(self):
        responses = [
            {"scores": [{"id": "s1", "irony": 5, "relevance": 5}]},  # omits s2
            {"scores": []},                                          # re-ask also omits
        ]
        provider = QueueProvider(score=responses)
        orch = Orchestrator(provider)
        out = orch.score_batch([("s1", "a"), ("s2", "b")], "T", self.themes())
        assert out[1] == ScoredSentence("s2", 1, 1, "", 0)
        assert any("s2" in w for w in orch.warnings)
        # second call only asked for the missing subset
        assert [e["id"] for e in provider.calls[1][1]["sentences"]] == ["s2"]

    def test_missing_id_recovered_by_reask(self):
        responses = [
            {"scores": [{"id": "s1", "irony": 5, "relevance": 5}]},
            {"scores": [{"id": "s2", "irony": 9, "relevance": 2}]},
        ]
        orch = Orchestrator(QueueProvider(score=responses))
        out = orch.score_batch([("s1", "a"), ("s2", "b")], "T", self.themes())
        assert out[1] == ScoredSentence("s2", 9, 2, "", 0)
        assert orch.warnings == []

    def test_non_finite_scores_count_as_missing(self):
        responses = [
            {"scores": [
                {"id": "s1", "irony": float("nan"), "relevance": 5},
                {"id": "s2", "irony": 5, "relevance": float("inf")},
                {"id": "s3", "irony": 10 ** 400, "relevance": 5},
                {"id": "s4", "irony": 6, "relevance": 6},
            ]},
            {"scores": [
                {"id": "s1", "irony": 9, "relevance": 2},
                {"id": "s2", "irony": float("-inf"), "relevance": 2},
            ]},
        ]
        provider = QueueProvider(score=responses)
        orch = Orchestrator(provider)
        out = orch.score_batch([(f"s{i}", "t") for i in range(1, 5)], "T", self.themes())
        assert [(s.irony, s.relevance) for s in out] == [(9, 2), (1, 1), (1, 1), (6, 6)]
        assert [e["id"] for e in provider.calls[1][1]["sentences"]] == ["s1", "s2", "s3"]
        assert sum("defaulted" in w for w in orch.warnings) == 2

    def test_batch_failure_names_range(self):
        orch = Orchestrator(QueueProvider(score=[]), retries=1)
        with pytest.raises(ProviderError, match=r"sentences\[0:2\]"):
            orch.score_batch([("s1", "a"), ("s2", "b")], "T", self.themes())

    def test_batched_calls_and_order(self):
        items = [(f"s{i}", f"testo {i}") for i in range(5)]
        responses = []
        for lo in range(0, 5, 2):
            responses.append({"scores": [
                {"id": sid, "irony": 3, "relevance": 4} for sid, _ in items[lo:lo + 2]
            ]})
        provider = QueueProvider(score=responses)
        orch = Orchestrator(provider)
        out = orch.score_batch(items, "T", self.themes(), batch_size=2,
                               query_indexes=[0, 0, 1, 1, 2])
        assert [s.sentence_id for s in out] == [sid for sid, _ in items]
        assert [s.source_query_index for s in out] == [0, 0, 1, 1, 2]
        assert len(provider.calls) == 3

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            Orchestrator(QueueProvider()).score_batch([], "T", self.themes())

    @given(
        n=st.integers(min_value=1, max_value=30),
        batch_size=st.integers(min_value=1, max_value=7),
        omit_mod=st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_completeness_property(self, n, batch_size, omit_mod):
        """Output length always equals input length, even with omissions."""
        items = [(f"s{i}", f"testo {i}") for i in range(n)]

        class Omitting:
            def complete(self, op, payload):
                scores = [
                    {"id": entry["id"], "irony": 5, "relevance": 5}
                    for j, entry in enumerate(payload["sentences"])
                    if j % omit_mod != 0
                ]
                return {"scores": scores}

        orch = Orchestrator(Omitting())
        out = orch.score_batch(items, "T", self.themes(), batch_size=batch_size)
        assert [s.sentence_id for s in out] == [sid for sid, _ in items]


class TestOrderSection:
    def members(self, ids):
        return [ScoredSentence(sid, 5, 5) for sid in ids]

    def fallback(self, members):
        return sorted(m.sentence_id for m in members)

    def test_valid_permutation_passthrough(self):
        provider = QueueProvider(order=[{"order": ["s3", "s1", "s2"]}])
        orch = Orchestrator(provider)
        result = orch.order_section("climax", self.members(["s1", "s2", "s3"]),
                                    {}, self.fallback)
        assert result == ["s3", "s1", "s2"]
        assert orch.warnings == []

    def test_duplicate_ids_fall_back(self):
        provider = QueueProvider(order=[{"order": ["s1", "s1", "s2"]}] * 4)
        orch = Orchestrator(provider, retries=3)
        result = orch.order_section("climax", self.members(["s1", "s2", "s3"]),
                                    {}, self.fallback)
        assert result == ["s1", "s2", "s3"]
        assert any("fallback" in w for w in orch.warnings)

    def test_singleton_skips_provider(self):
        provider = QueueProvider()  # any call would raise
        result = Orchestrator(provider).order_section(
            "conclusion", self.members(["solo"]), {}, self.fallback)
        assert result == ["solo"]
        assert provider.calls == []

    def test_provider_errors_fall_back(self):
        orch = Orchestrator(QueueProvider(order=[]), retries=2)
        result = orch.order_section("build_up", self.members(["s2", "s1"]),
                                    {}, self.fallback)
        assert result == ["s1", "s2"]
        assert any("fallback" in w for w in orch.warnings)

    def test_payload_carries_texts_and_scores(self):
        provider = QueueProvider(order=[{"order": ["s1", "s2"]}])
        orch = Orchestrator(provider)
        orch.order_section("climax", self.members(["s1", "s2"]),
                           {"s1": "primo", "s2": "secondo"}, self.fallback)
        sentences = provider.calls[0][1]["sentences"]
        assert sentences[0] == {"id": "s1", "text": "primo", "irony": 5, "relevance": 5}

    @given(
        n=st.integers(min_value=1, max_value=8),
        reply=st.lists(st.text(alphabet="sx0123456789", max_size=4), max_size=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_result_is_always_a_true_permutation(self, n, reply):
        """Whatever the provider answers, the output permutes the input ids."""
        ids = [f"s{i}" for i in range(n)]
        provider = QueueProvider(order=[{"order": reply}] * 4)
        orch = Orchestrator(provider, retries=3)
        result = orch.order_section("climax", self.members(ids), {}, self.fallback)
        assert sorted(result) == sorted(ids)


class TestRemoteChatProvider:
    def test_parses_json_content(self):
        def transport(url, body, headers, timeout):
            assert body["model"] == "modello"
            assert body["messages"][1]["content"] == json.dumps({"title": "T", "count": 2})
            return {"choices": [{"message": {"content": '{"themes": ["a", "b"]}'}}]}

        provider = RemoteChatProvider("https://example.test/chat", "modello",
                                      api_key="k", transport=transport)
        assert provider.complete("themes", {"title": "T", "count": 2}) == {"themes": ["a", "b"]}

    def test_free_text_is_malformed(self):
        def transport(url, body, headers, timeout):
            return {"choices": [{"message": {"content": "ecco i temi: a, b"}}]}

        provider = RemoteChatProvider("https://example.test/chat", "m",
                                      api_key="k", transport=transport)
        with pytest.raises(ProviderError, match="free text"):
            provider.complete("themes", {})

    def test_missing_choices(self):
        provider = RemoteChatProvider("https://example.test/chat", "m", api_key="k",
                                      transport=lambda *a: {"choices": []})
        with pytest.raises(ProviderError, match="content"):
            provider.complete("themes", {})

    def test_api_key_from_environment(self, monkeypatch):
        monkeypatch.setenv("AIBLOB_LLM_API_KEY", "segreta")
        seen = {}

        def transport(url, body, headers, timeout):
            seen.update(headers)
            return {"choices": [{"message": {"content": "{}"}}]}

        RemoteChatProvider("https://example.test/chat", "m",
                           transport=transport).complete("themes", {})
        assert seen["Authorization"] == "Bearer segreta"


class TestMakeLlmProvider:
    def test_scripted(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        write_replay(path, [{"op": "themes", "response": {"themes": ["a"]}}])
        provider = make_llm_provider(f"scripted:{path}")
        assert isinstance(provider, ScriptedProvider)

    def test_remote_requires_endpoint(self):
        with pytest.raises(ValidationError):
            make_llm_provider("remote")

    def test_unknown(self):
        with pytest.raises(ValidationError):
            make_llm_provider("telepatia")
