"""End-to-end command-line behavior on the synthetic fixture corpus."""

import dataclasses
import json
import os
import re

import pytest

from aiblob.cli import build_parser, main
from aiblob.errors import ParseError, StoreError
from aiblob import embeddings
from aiblob.embeddings import DeterministicEmbedder, deterministic_embed, make_embedder
from aiblob.ingest import corpus_lines, export_corpus
from aiblob.llm import Candidate
from aiblob.narrative import PipelineConfig
from aiblob.store import VectorStore
from conftest import (INT_LIMIT, OVERLONG, build_replay_file, fixture_sentences, forge_digest,
                      needs_int_limit, run_python, write_fixture_transcripts)


@pytest.fixture()
def workspace(tmp_path):
    """Transcripts, corpus, store, config, and replay file, all built offline."""
    transcripts = tmp_path / "transcripts"
    write_fixture_transcripts(transcripts)
    corpus = tmp_path / "corpus.jsonl"
    store_dir = tmp_path / "store"
    assert main(["ingest", "--transcripts", str(transcripts), "--out", str(corpus)]) == 0
    assert main(["index", "--corpus", str(corpus), "--store", str(store_dir),
                 "--embedder", "deterministic:32"]) == 0

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "pipeline": {"k_per_query": 10},
        "providers": {"embedder": "deterministic:32"},
        "media": {"uri_template": "media/{video_id}.mp4"},
    }), encoding="utf-8")

    replay = tmp_path / "replay.jsonl"
    store = VectorStore.load(str(store_dir))
    build_replay_file(replay, store, make_embedder("deterministic:32"),
                      PipelineConfig(), "Il calcio")
    return tmp_path


def run_cli(*argv):
    """``aiblob`` in a child process, with no logging set up: its exit code and stderr."""
    result = run_python("-m", "aiblob.cli", *argv)
    return result.returncode, result.stderr


class TestIngest:
    def test_corpus_bytes_deterministic(self, tmp_path, capsys):
        transcripts = tmp_path / "transcripts"
        write_fixture_transcripts(transcripts, n_videos=3, per_video=5)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["ingest", "--transcripts", str(transcripts), "--out", str(a)]) == 0
        assert main(["ingest", "--transcripts", str(transcripts), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "3 videos" in capsys.readouterr().out

    def test_missing_directory_fails(self, tmp_path, capsys):
        assert main(["ingest", "--transcripts", str(tmp_path / "niente"),
                     "--out", str(tmp_path / "c.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_duplicate_video_id_fails(self, tmp_path, capsys):
        transcripts = tmp_path / "transcripts"
        transcripts.mkdir()
        doc = {"video_id": "dup", "title": "t", "source_uri": "u", "language": "it",
               "words": [{"w": "Ciao.", "s": 0.0, "e": 0.5}]}
        (transcripts / "a.json").write_text(json.dumps(doc), encoding="utf-8")
        (transcripts / "b.json").write_text(json.dumps(doc), encoding="utf-8")
        assert main(["ingest", "--transcripts", str(transcripts),
                     "--out", str(tmp_path / "c.jsonl")]) == 1
        assert "dup" in capsys.readouterr().err

    def test_bad_transcript_error_names_its_file(self, tmp_path, capsys):
        transcripts = tmp_path / "transcripts"
        write_fixture_transcripts(transcripts, n_videos=3, per_video=5)
        bad = transcripts / "vid001.json"
        doc = json.loads(bad.read_text(encoding="utf-8"))
        doc["words"][0]["s"] = "x"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["ingest", "--transcripts", str(transcripts), "--out", str(tmp_path / "c.jsonl")]
        args = build_parser().parse_args(argv)
        with pytest.raises(ParseError, match=re.escape(f"{bad}: words[0].s must be a finite")):
            args.func(args)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")

    def test_directory_without_transcripts_fails(self, tmp_path, capsys):
        (tmp_path / "transcripts").mkdir()
        (tmp_path / "transcripts" / "note.txt").write_text("{}", encoding="utf-8")
        assert main(["ingest", "--transcripts", str(tmp_path / "transcripts"),
                     "--out", str(tmp_path / "c.jsonl")]) == 1
        assert capsys.readouterr().err == (
            f"error: no .json transcript files found in {tmp_path / 'transcripts'}\n")
        assert not (tmp_path / "c.jsonl").exists()

    def test_min_chars_below_one_fails(self, tmp_path, capsys):
        # Checked before any transcript is read: the one here is not valid.
        transcripts = tmp_path / "transcripts"
        transcripts.mkdir()
        (transcripts / "bad.json").write_text("{", encoding="utf-8")
        assert main(["ingest", "--transcripts", str(transcripts), "--out",
                     str(tmp_path / "c.jsonl"), "--min-chars", "0"]) == 1
        assert capsys.readouterr().err == "error: --min-chars must be at least 1, got 0\n"
        assert not (tmp_path / "c.jsonl").exists()

    def test_out_that_is_a_directory_fails_before_any_transcript_is_read(self, tmp_path,
                                                                          capsys):
        # The transcripts directory does not exist: reading it would fail otherwise.
        out = tmp_path / "taken"
        out.mkdir()
        assert main(["ingest", "--transcripts", str(tmp_path / "niente"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --out {out} is a directory\n"

    def test_out_under_a_file_fails_before_any_transcript_is_read(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.touch()
        out = taken / "c.jsonl"
        assert main(["ingest", "--transcripts", str(tmp_path / "niente"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --out {out}: {taken} is not a directory\n"


class TestIndex:
    @staticmethod
    def index_into(tmp_path, store):
        """index into ``store`` from a corpus that does not exist, which fails
        when read: an error about ``store`` comes before that read."""
        return main(["index", "--corpus", str(tmp_path / "niente.jsonl"), "--store", str(store),
                     "--embedder", "deterministic:8"])

    def test_store_that_is_a_file_fails_before_the_corpus_is_read(self, tmp_path, capsys):
        store = tmp_path / "taken"
        store.touch()
        assert self.index_into(tmp_path, store) == 1
        assert capsys.readouterr().err == f"error: --store {store} is not a directory\n"

    def test_store_under_a_file_fails_before_the_corpus_is_read(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.touch()
        store = taken / "sub" / "store"
        assert self.index_into(tmp_path, store) == 1
        assert capsys.readouterr().err == f"error: --store {store}: {taken} is not a directory\n"

    def test_existing_store_directory_is_written_over(self, workspace, capsys):
        assert main(["index", "--corpus", str(workspace / "corpus.jsonl"),
                     "--store", str(workspace / "store"), "--embedder", "deterministic:32"]) == 0
        assert VectorStore.load(str(workspace / "store")).count == 200

    def test_corpus_without_sentences_fails(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        export_corpus([], str(corpus))
        assert main(["index", "--corpus", str(corpus), "--store", str(tmp_path / "store"),
                     "--embedder", "deterministic:8"]) == 1
        assert capsys.readouterr().err == (
            f"error: {corpus} holds no sentences; nothing to index\n")
        assert not (tmp_path / "store").exists()


class TestStats:
    def test_counts(self, workspace, capsys):
        assert main(["stats", "--store", str(workspace / "store")]) == 0
        out = capsys.readouterr().out
        assert "videos: 10" in out
        assert "dim: 32" in out
        sentences = int(out.split("sentences: ")[1].split("\n")[0])
        assert sentences > 100

    def test_bad_metadata_row_fails_cleanly(self, workspace, capsys):
        meta = workspace / "store" / "meta.jsonl"
        lines = meta.read_text(encoding="utf-8").split("\n")
        row = json.loads(lines[1])
        row["video_id"] = ["vid000"]
        lines[1] = json.dumps(row)
        meta.write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()  # drop fixture output
        assert main(["stats", "--store", str(workspace / "store")]) == 1
        assert capsys.readouterr().err == (
            f"error: {workspace / 'store' / 'vectors.bin'}: digest does not match {meta}, so the "
            "two files are not one save; re-run aiblob index\n")

    def test_missing_store(self, tmp_path, capsys):
        assert main(["stats", "--store", str(tmp_path / "vuoto")]) == 1
        assert "missing" in capsys.readouterr().err

    def test_version_1_store_is_refused(self, workspace, capsys):
        # Version 1 has no digest, so it cannot tell a swapped pair from one
        # save; index rebuilds the store.
        meta = workspace / "store" / "meta.jsonl"
        rows = meta.read_bytes().split(b"\n", 1)[1]
        meta.write_bytes(b'{"format":"aiblob-store","version":1,"dim":32}\n' + rows)
        capsys.readouterr()  # drop fixture output
        assert main(["stats", "--store", str(workspace / "store")]) == 1
        assert capsys.readouterr().err == f"error: {meta}: unsupported store version 1\n"
        assert main(["index", "--corpus", str(workspace / "corpus.jsonl"), "--store",
                     str(workspace / "store"), "--embedder", "deterministic:32"]) == 0
        assert main(["stats", "--store", str(workspace / "store")]) == 0


class TestStoreIsOneSave:
    """A store is one save. An index killed between its two renames leaves the
    new meta.jsonl beside the old vectors.bin, and a meta.jsonl copied from
    another store of the same shape pairs two saves too; the counts and the dim
    agree, but the digest does not. load, stats and compose each refuse such a
    pair with one error line, and a complete index mends it."""

    @pytest.fixture(params=["interrupted index", "swapped meta.jsonl"])
    def broken(self, request, workspace, monkeypatch, capsys):
        # The fixture corpus with other texts in as many rows.
        corpus = workspace / "corpus2.jsonl"
        corpus.write_text((workspace / "corpus.jsonl").read_text(encoding="utf-8")
                          .replace("calcio", "pallone"), encoding="utf-8")
        index = ["index", "--corpus", str(corpus), "--embedder", "deterministic:32", "--store"]
        store = workspace / "store"
        capsys.readouterr()  # drop fixture output
        if request.param == "interrupted index":
            def fail(*args):
                raise OSError("No space left on device")
            with monkeypatch.context() as patch:
                patch.setattr("aiblob.store.atomic_write_bytes", fail)
                assert main([*index, str(store)]) == 1
            assert capsys.readouterr().err == "error: No space left on device\n"
        else:
            assert main([*index, str(workspace / "store2")]) == 0
            (store / "meta.jsonl").write_bytes((workspace / "store2" / "meta.jsonl").read_bytes())
        capsys.readouterr()
        return workspace, index

    @staticmethod
    def refusal(workspace):
        store = workspace / "store"
        return (f"error: {store / 'vectors.bin'}: digest does not match {store / 'meta.jsonl'}, "
                "so the two files are not one save; re-run aiblob index\n")

    def test_load_refuses_the_pair(self, broken):
        workspace, _ = broken
        with pytest.raises(StoreError) as caught:
            VectorStore.load(str(workspace / "store"))
        assert f"error: {caught.value}\n" == self.refusal(workspace)

    def test_stats_refuses_the_pair(self, broken, capsys):
        workspace, _ = broken
        assert main(["stats", "--store", str(workspace / "store")]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", self.refusal(workspace))

    def test_compose_refuses_the_pair_and_writes_no_plan(self, broken, capsys):
        workspace, _ = broken
        code, out = TestCompose().compose(workspace)
        assert code == 1
        assert capsys.readouterr().err == self.refusal(workspace)
        assert not (out / "plan.json").exists()

    def test_a_complete_index_into_the_directory_loads(self, broken, capsys):
        workspace, index = broken
        assert main([*index, str(workspace / "store")]) == 0
        assert VectorStore.load(str(workspace / "store")).count == 200
        capsys.readouterr()
        assert main(["stats", "--store", str(workspace / "store")]) == 0
        assert capsys.readouterr().out == "videos: 10\nsentences: 200\ndim: 32\n"


def forge_bad_rows(store):
    """Give every row of a store a start_s of the wrong type, with a digest that
    matches the changed meta.jsonl."""
    meta = store / "meta.jsonl"
    header, *rows = meta.read_text(encoding="utf-8").split("\n")[:-1]
    rows = [json.dumps({**json.loads(row), "start_s": "1.5"}) for row in rows]
    meta.write_text("\n".join([header, *rows, ""]), encoding="utf-8")
    forge_digest(store)


class TestCompose:
    def compose(self, workspace, out_name="episode"):
        out = workspace / out_name
        code = main([
            "compose",
            "--store", str(workspace / "store"),
            "--title", "Il calcio",
            "--config", str(workspace / "config.json"),
            "--out", str(out),
            "--llm", f"scripted:{workspace / 'replay.jsonl'}",
        ])
        return code, out

    def test_artifacts_written(self, workspace, capsys):
        code, out = self.compose(workspace)
        assert code == 0
        for name in ("queries.jsonl", "candidates.jsonl", "scores.jsonl",
                     "plan.json", "edl.json"):
            assert (out / name).exists(), name
        assert "composed episode" in capsys.readouterr().out

        # Each record file's header line, byte for byte: key order, the compact
        # separators and the theme strings as the provider gave them.
        headers = {
            "queries.jsonl": '{"format":"aiblob-queries","version":1,"episode_title":"Il calcio",'
                             '"themes":["il trionfo annunciato che nessuno ricorda",'
                             '"esperti che spiegano l\'ovvio con solennità",'
                             '"promesse eterne con scadenza settimanale",'
                             '"applausi registrati per emozioni vere",'
                             '"il futuro radioso rimandato a data da destinarsi"]}',
            "candidates.jsonl": '{"format":"aiblob-candidates","version":1}',
            "scores.jsonl": '{"format":"aiblob-scores","version":1}',
        }
        for name, header in headers.items():
            assert (out / name).read_text(encoding="utf-8").split("\n", 1)[0] == header, name
        queries = (out / "queries.jsonl").read_text().strip().split("\n")
        assert len(queries) == 1 + 20  # header + 5 themes x 4 phrases

        plan = json.loads((out / "plan.json").read_text())
        assert plan["format"] == "aiblob-plan"
        assert set(plan["sections"]) == {"introduction", "build_up", "climax", "conclusion"}
        assert all(plan["sections"][s] for s in plan["sections"])

        edl = json.loads((out / "edl.json").read_text())
        assert edl["format"] == "aiblob-edl"
        clip = edl["sections"]["introduction"][0]
        assert clip["source_uri"].startswith("media/vid")
        assert edl["loudness"] == {"integrated_lufs": -16.0, "true_peak_dbtp": -1.5}

    def test_scores_file_matches_candidates(self, workspace):
        code, out = self.compose(workspace)
        assert code == 0
        candidates = [json.loads(line) for line in
                      (out / "candidates.jsonl").read_text().strip().split("\n")[1:]]
        scores = [json.loads(line) for line in
                  (out / "scores.jsonl").read_text().strip().split("\n")[1:]]
        assert len(candidates) == len(scores)
        keys = [field.name for field in dataclasses.fields(Candidate)]
        assert all(list(row) == keys for row in candidates)
        assert [c["sentence_id"] for c in candidates] == [s["sentence_id"] for s in scores]
        assert ([c["source_query_index"] for c in candidates]
                == [s["source_query_index"] for s in scores])
        # Candidates come in query order, found by more than one query.
        query_indexes = [c["source_query_index"] for c in candidates]
        assert query_indexes == sorted(query_indexes) and len(set(query_indexes)) > 1

    def test_retries_beyond_the_bound_fail_at_once(self, workspace, capsys):
        # Unbounded, this many retries against an empty replay file would never end.
        config = workspace / "retries-config.json"
        config.write_text(json.dumps({"providers": {"retries": 1000000000000}}),
                          encoding="utf-8")
        replay = workspace / "empty.jsonl"
        replay.write_text("", encoding="utf-8")
        code = main([
            "compose", "--store", str(workspace / "store"), "--title", "Il calcio",
            "--config", str(config), "--out", str(workspace / "episode"),
            "--llm", f"scripted:{replay}",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {config}: config section 'providers': "
                                "retries must be in [0, 100], got 1000000000000\n")

    def test_each_warning_printed_once(self, workspace):
        # The replay scripts one query where the config asks for two.
        replay = workspace / "one-query.jsonl"
        build_replay_file(replay, VectorStore.load(str(workspace / "store")),
                          make_embedder("deterministic:32"),
                          PipelineConfig(themes=1, phrases_per_theme=1), "Il calcio")
        config = workspace / "two-queries.json"
        config.write_text(json.dumps({"pipeline": {"themes": 1, "phrases_per_theme": 2},
                                      "providers": {"embedder": "deterministic:32"}}),
                          encoding="utf-8")
        code, err = run_cli("compose", "--store", workspace / "store", "--title", "Il calcio",
                            "--config", config, "--out", workspace / "episode",
                            "--llm", f"scripted:{replay}")
        assert code == 0
        assert err == "warning: query shortfall: got 1 of 2\n"

    def test_template_that_indexes_the_video_id_refused_at_load(self, tmp_path):
        # Half the rows have an empty video_id, which "{video_id[0]}" cannot index.
        sentences = fixture_sentences(n_videos=1, per_video=20)
        half = len(sentences) // 2
        sentences[:half] = [dataclasses.replace(s, video_id="") for s in sentences[:half]]
        corpus, store = tmp_path / "corpus.jsonl", tmp_path / "store"
        export_corpus([corpus_lines(sentences)], str(corpus))
        assert main(["index", "--corpus", str(corpus), "--store", str(store),
                     "--embedder", "deterministic:32"]) == 0
        replay = tmp_path / "replay.jsonl"
        build_replay_file(replay, VectorStore.load(str(store)), make_embedder("deterministic:32"),
                          PipelineConfig(), "Il calcio")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "providers": {"embedder": "deterministic:32"},
            "media": {"uri_template": "media/{video_id[0]}/{video_id}.mp4"}}), encoding="utf-8")
        code, err = run_cli("compose", "--store", store, "--title", "Il calcio",
                            "--config", config, "--out", tmp_path / "episode",
                            "--llm", f"scripted:{replay}")
        assert code == 1
        assert err.startswith(f"error: {config}: config section 'media': uri_template ")
        assert err.count("\n") == 1

    # build_edl indexes the candidates by every planned id, and the EDL keeps
    # the plan's sections and order.
    def test_every_planned_id_is_a_candidate_and_a_clip(self, workspace):
        code, out = self.compose(workspace)
        assert code == 0
        candidate_ids = {json.loads(line)["sentence_id"] for line in
                         (out / "candidates.jsonl").read_text().strip().split("\n")[1:]}
        plan = json.loads((out / "plan.json").read_text())["sections"]
        edl = json.loads((out / "edl.json").read_text())["sections"]
        assert {sid for ids in plan.values() for sid in ids} <= candidate_ids
        assert {name: [clip["sentence_id"] for clip in clips]
                for name, clips in edl.items()} == plan

    # Compose stops before scoring when retrieval finds nothing, so the
    # scorer never gets an empty list.
    def test_empty_store_fails_before_scoring(self, workspace, capsys):
        VectorStore(32).save(str(workspace / "vuoto"))
        out = workspace / "episode"
        code = main([
            "compose", "--store", str(workspace / "vuoto"), "--title", "Il calcio",
            "--config", str(workspace / "config.json"), "--out", str(out),
            "--llm", f"scripted:{workspace / 'replay.jsonl'}",
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: retrieval returned no candidates; is the store empty?\n")
        assert (out / "candidates.jsonl").read_text() == (
            '{"format":"aiblob-candidates","version":1}\n')
        assert not (out / "scores.jsonl").exists()
        assert not (out / "plan.json").exists()

    def test_failure_mid_stage_leaves_no_partial_artifacts(self, workspace, capsys):
        # Replay with themes+queries but no score responses: scoring fails.
        replay = workspace / "troncato.jsonl"
        lines = (workspace / "replay.jsonl").read_text().strip().split("\n")
        replay.write_text("\n".join(line for line in lines
                                    if json.loads(line)["op"] != "score") + "\n",
                          encoding="utf-8")
        out = workspace / "fallito"
        code = main([
            "compose", "--store", str(workspace / "store"), "--title", "Il calcio",
            "--config", str(workspace / "config.json"), "--out", str(out),
            "--llm", f"scripted:{replay}",
        ])
        assert code == 1
        assert (out / "queries.jsonl").exists()
        assert (out / "candidates.jsonl").exists()
        assert not (out / "scores.jsonl").exists()
        assert not (out / "plan.json").exists()
        assert not (out / "edl.json").exists()
        assert not [n for n in os.listdir(out) if n.startswith(".tmp-")]
        assert "exhausted" in capsys.readouterr().err

    def test_a_failed_compose_leaves_no_file_of_an_earlier_run(self, workspace, capsys):
        code, out = self.compose(workspace)
        assert code == 0
        (out / "appunti.txt").write_text("not compose's", encoding="utf-8")
        replay = workspace / "troncato.jsonl"
        lines = (workspace / "replay.jsonl").read_text().strip().split("\n")
        replay.write_text("\n".join(line for line in lines
                                    if json.loads(line)["op"] != "score") + "\n",
                          encoding="utf-8")
        code = main([
            "compose", "--store", str(workspace / "store"), "--title", "La politica",
            "--config", str(workspace / "config.json"), "--out", str(out),
            "--llm", f"scripted:{replay}",
        ])
        assert code == 1
        assert sorted(os.listdir(out)) == ["appunti.txt", "candidates.jsonl", "queries.jsonl"]
        header = json.loads((out / "queries.jsonl").read_text(encoding="utf-8").split("\n")[0])
        assert header["episode_title"] == "La politica"
        assert (out / "appunti.txt").read_text(encoding="utf-8") == "not compose's"
        assert "exhausted" in capsys.readouterr().err

    def test_an_artifact_that_cannot_be_removed_fails_the_command(self, workspace, capsys):
        out = workspace / "episode"
        (out / "plan.json").mkdir(parents=True)
        code, _ = self.compose(workspace)
        assert code == 1
        assert sorted(os.listdir(out)) == ["plan.json"]
        assert "plan.json" in capsys.readouterr().err

    def test_fades_longer_than_a_clip_refused_with_no_edl_written(self, workspace, capsys):
        config = json.loads((workspace / "config.json").read_text())
        config["render"] = {"fade_s": 1.5}
        (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
        code, out = self.compose(workspace)
        assert code == 1
        assert not (out / "edl.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: EDL failed validation: ")
        assert "fades exceed duration (1.5+1.5 > " in err

    def test_store_of_another_embedder_refused(self, workspace, capsys):
        # A remote embedder is configured but never called: the store, indexed
        # with deterministic:32, is refused first.
        config = workspace / "remote-config.json"
        config.write_text(json.dumps({"providers": {
            "embedder": "remote", "embed_base_url": "http://127.0.0.1:9/embed",
            "embed_model": "m"}}), encoding="utf-8")
        capsys.readouterr()  # drop fixture output
        assert main(["compose", "--store", str(workspace / "store"), "--title", "Il calcio",
                     "--config", str(config), "--out", str(workspace / "episode"),
                     "--llm", f"scripted:{workspace / 'replay.jsonl'}"]) == 1
        assert capsys.readouterr().err == (
            f"error: {workspace / 'store'} was indexed with embedder 'deterministic:32', "
            "but the config names 'remote:m'\n")
        assert not (workspace / "episode").exists()

    def test_store_without_an_embedder_skips_the_embedder_check(self, workspace, capsys,
                                                                 monkeypatch):
        # A remote model that makes the same vectors as deterministic:32:
        # refused by a store that records deterministic:32, and composed as
        # before from one saved without a spec.
        def reply(url, payload, api_key, timeout):
            return {"embeddings": [deterministic_embed(text, 32).tolist()
                                   for text in payload["texts"]]}
        monkeypatch.setattr(embeddings, "post_json", reply)
        config = workspace / "config.json"
        config.write_text(json.dumps({"providers": {
            "embedder": "remote", "embed_base_url": "http://127.0.0.1:9/embed",
            "embed_model": "m"}}), encoding="utf-8")
        code, _ = self.compose(workspace)
        assert code == 1 and "indexed with embedder 'deterministic:32'" in capsys.readouterr().err
        store = VectorStore.load(str(workspace / "store"))
        store.embedder = None
        store.save(str(workspace / "store"))
        code, out = self.compose(workspace)
        assert code == 0 and (out / "edl.json").exists()

    def test_a_spec_as_typed_is_recorded_as_the_embedder_spells_it(self, workspace, capsys):
        # "6_4" parses as the dim 64: the store records "deterministic:64",
        # which a config naming "deterministic:64" matches.
        store = workspace / "store-64"
        assert main(["index", "--corpus", str(workspace / "corpus.jsonl"), "--store", str(store),
                     "--embedder", "deterministic:6_4"]) == 0
        header = json.loads((store / "meta.jsonl").read_text(encoding="utf-8").split("\n")[0])
        assert header["embedder"] == "deterministic:64"
        replay = workspace / "replay-64.jsonl"
        build_replay_file(replay, VectorStore.load(str(store)), make_embedder("deterministic:64"),
                          PipelineConfig(), "Il calcio")
        config = workspace / "config-64.json"
        config.write_text(json.dumps({"providers": {"embedder": "deterministic:64"}}),
                          encoding="utf-8")
        capsys.readouterr()
        assert main(["compose", "--store", str(store), "--title", "Il calcio",
                     "--config", str(config), "--out", str(workspace / "episode-64"),
                     "--llm", f"scripted:{replay}"]) == 0
        assert capsys.readouterr().err == ""
        assert (workspace / "episode-64" / "edl.json").exists()

    def test_store_of_another_remote_model_refused(self, workspace, capsys, monkeypatch):
        # Two remote models of the same dim: the store records the one that
        # indexed it, and a compose configured with the other is refused.
        def reply(url, payload, api_key, timeout):
            return {"embeddings": [deterministic_embed(text, 32).tolist()
                                   for text in payload["texts"]]}
        monkeypatch.setattr(embeddings, "post_json", reply)
        configs = {}
        for model in ("modello-a", "modello-b"):
            configs[model] = workspace / f"{model}.json"
            configs[model].write_text(json.dumps({
                "pipeline": {"k_per_query": 10},
                "providers": {"embedder": "remote", "embed_base_url": "http://127.0.0.1:9/embed",
                              "embed_model": model},
                "media": {"uri_template": "media/{video_id}.mp4"}}), encoding="utf-8")
        store = workspace / "remote-store"
        assert main(["index", "--corpus", str(workspace / "corpus.jsonl"), "--store", str(store),
                     "--embedder", "remote", "--config", str(configs["modello-a"])]) == 0
        assert VectorStore.load(str(store)).embedder == "remote:modello-a"
        capsys.readouterr()
        for model, code in (("modello-b", 1), ("modello-a", 0)):
            assert main(["compose", "--store", str(store), "--title", "Il calcio",
                         "--config", str(configs[model]), "--out", str(workspace / model),
                         "--llm", f"scripted:{workspace / 'replay.jsonl'}"]) == code
        assert capsys.readouterr().err == (
            f"error: {store} was indexed with embedder 'remote:modello-a', "
            "but the config names 'remote:modello-b'\n")
        assert not (workspace / "modello-b").exists()
        assert (workspace / "modello-a" / "edl.json").exists()

    def test_forged_digest_bad_row_fails_cleanly(self, workspace, capsys):
        forge_bad_rows(workspace / "store")
        capsys.readouterr()  # drop fixture output
        code, out = self.compose(workspace)
        assert code == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: .*meta\.jsonl:\d+: bad record: start_s must be a finite "
                            r"number, got '1\.5'\n", err)
        assert not (out / "candidates.jsonl").exists()
        # stats reads no row.
        assert main(["stats", "--store", str(workspace / "store")]) == 0
        assert "videos: 10" in capsys.readouterr().out

    @staticmethod
    def compose_into(tmp_path, out):
        """compose into ``out`` from a store, config and replay file that do not
        exist, which fail when read: an error about ``out`` comes before them."""
        return main(["compose", "--store", str(tmp_path / "niente"), "--title", "T",
                     "--config", str(tmp_path / "niente.json"), "--out", str(out),
                     "--llm", f"scripted:{tmp_path / 'niente.jsonl'}"])

    def test_out_that_is_a_file_fails_before_the_store_is_loaded(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.touch()
        assert self.compose_into(tmp_path, out) == 1
        assert capsys.readouterr().err == f"error: --out {out} is not a directory\n"

    def test_out_under_a_file_fails_before_the_store_is_loaded(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.touch()
        out = taken / "sub"
        assert self.compose_into(tmp_path, out) == 1
        assert capsys.readouterr().err == f"error: --out {out}: {taken} is not a directory\n"

    def test_missing_llm_spec(self, workspace, capsys):
        code = main([
            "compose", "--store", str(workspace / "store"), "--title", "T",
            "--config", str(workspace / "config.json"),
            "--out", str(workspace / "x"),
        ])
        assert code == 1
        assert "no LLM provider" in capsys.readouterr().err

    def test_llm_spec_from_config_file(self, workspace):
        config = json.loads((workspace / "config.json").read_text())
        config["providers"]["llm"] = f"scripted:{workspace / 'replay.jsonl'}"
        (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
        out = workspace / "da-config"
        code = main([
            "compose", "--store", str(workspace / "store"), "--title", "Il calcio",
            "--config", str(workspace / "config.json"), "--out", str(out),
        ])
        assert code == 0
        assert (out / "edl.json").exists()

    def test_intro_flag_overrides_config(self, workspace):
        config = json.loads((workspace / "config.json").read_text())
        config["media"]["intro_uri"] = "media/sigla-config.mp4"
        (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
        out = workspace / "precedenza"
        code = main([
            "compose", "--store", str(workspace / "store"), "--title", "Il calcio",
            "--config", str(workspace / "config.json"), "--out", str(out),
            "--llm", f"scripted:{workspace / 'replay.jsonl'}",
            "--intro", "media/sigla-flag.mp4",
        ])
        assert code == 0
        edl = json.loads((out / "edl.json").read_text())
        assert edl["intro"]["source_uri"] == "media/sigla-flag.mp4"

    def test_intro_flag_adds_intro_clip(self, workspace):
        out = workspace / "con-sigla"
        code = main([
            "compose", "--store", str(workspace / "store"), "--title", "Il calcio",
            "--config", str(workspace / "config.json"), "--out", str(out),
            "--llm", f"scripted:{workspace / 'replay.jsonl'}",
            "--intro", "media/sigla.mp4",
        ])
        assert code == 0
        edl = json.loads((out / "edl.json").read_text())
        assert edl["intro"]["source_uri"] == "media/sigla.mp4"
        assert edl["intro"]["sentence_id"] is None


class TestRender:
    def test_dry_run_prints_plan_without_renderer(self, workspace, capsys):
        code, out = TestCompose().compose(workspace)
        assert code == 0
        capsys.readouterr()  # drop compose output
        assert main(["render", "--edl", str(out / "edl.json"),
                     "--out", str(workspace / "episodio.mp4"), "--dry-run"]) == 0
        plan_text = capsys.readouterr().out
        lines = plan_text.strip().split("\n")
        assert all(line.startswith("ffmpeg") for line in lines)
        assert "loudnorm" in lines[-1]

    def test_dry_run_deterministic(self, workspace, capsys):
        code, out = TestCompose().compose(workspace)
        assert code == 0
        capsys.readouterr()  # drop compose output
        argv = ["render", "--edl", str(out / "edl.json"),
                "--out", str(workspace / "episodio.mp4"), "--dry-run"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("threshold", [None, "loud", 10000])
    def test_dry_run_on_bad_edl_fails_cleanly(self, workspace, capsys, threshold):
        code, out = TestCompose().compose(workspace)
        assert code == 0
        edl = json.loads((out / "edl.json").read_text(encoding="utf-8"))
        if threshold is None:
            del edl["compression"]["threshold_db"]
        else:
            edl["compression"]["threshold_db"] = threshold
        (out / "edl.json").write_text(json.dumps(edl), encoding="utf-8")
        capsys.readouterr()  # drop compose output
        assert main(["render", "--edl", str(out / "edl.json"),
                     "--out", str(workspace / "episodio.mp4"), "--dry-run"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "threshold_db" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("field", ["source_uri", "text"])
    @pytest.mark.parametrize("value", [None, 5])
    def test_dry_run_on_clip_of_wrong_type_fails_cleanly(self, workspace, capsys, field, value):
        code, out = TestCompose().compose(workspace)
        assert code == 0
        edl = json.loads((out / "edl.json").read_text(encoding="utf-8"))
        edl["sections"]["climax"][0][field] = value
        (out / "edl.json").write_text(json.dumps(edl), encoding="utf-8")
        capsys.readouterr()  # drop compose output
        assert main(["render", "--edl", str(out / "edl.json"),
                     "--out", str(workspace / "episodio.mp4"), "--dry-run"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and f"{field} must be a string" in captured.err

    def test_config_range_error_names_the_file_and_section(self, workspace, capsys):
        code, out = TestCompose().compose(workspace)
        assert code == 0
        config = workspace / "render-config.json"
        config.write_text(json.dumps({"render": {"fade_s": "x"}}), encoding="utf-8")
        capsys.readouterr()  # drop compose output
        assert main(["render", "--edl", str(out / "edl.json"),
                     "--out", str(workspace / "episodio.mp4"), "--dry-run",
                     "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {config}: config section 'render': "
                                "fade_s must be a finite number, got 'x'\n")

    def test_real_run_without_renderer_fails(self, workspace, capsys):
        code, out = TestCompose().compose(workspace)
        assert code == 0
        config = workspace / "render-config.json"
        config.write_text(json.dumps({"render": {"renderer_path": "renderer-inesistente"}}),
                          encoding="utf-8")
        assert main(["render", "--edl", str(out / "edl.json"),
                     "--out", str(workspace / "episodio.mp4"),
                     "--config", str(config)]) == 1
        assert "not found" in capsys.readouterr().err


class TestHugeEmbedderDim:
    """A deterministic embedder too wide to allocate is refused before any text is
    embedded; embed itself is replaced, so no test here can allocate a row."""

    SPEC = "deterministic:100000000000"
    ERROR = "error: deterministic embedder needs 2 <= dim <= 65536, got 100000000000\n"

    @staticmethod
    def refuse_to_embed(monkeypatch):
        def embed(self, texts, input_type=None):
            raise AssertionError("embed was called")
        monkeypatch.setattr(DeterministicEmbedder, "embed", embed)

    def test_index_fails_cleanly(self, workspace, capsys, monkeypatch):
        self.refuse_to_embed(monkeypatch)
        capsys.readouterr()  # drop fixture output
        assert main(["index", "--corpus", str(workspace / "corpus.jsonl"),
                     "--store", str(workspace / "store2"), "--embedder", self.SPEC]) == 1
        assert capsys.readouterr().err == self.ERROR
        assert not (workspace / "store2").exists()

    def test_compose_fails_cleanly(self, workspace, capsys, monkeypatch):
        self.refuse_to_embed(monkeypatch)
        config = workspace / "huge-dim-config.json"
        config.write_text(json.dumps({"providers": {"embedder": self.SPEC}}), encoding="utf-8")
        capsys.readouterr()  # drop fixture output
        assert main(["compose", "--store", str(workspace / "store"), "--title", "Il calcio",
                     "--config", str(config), "--out", str(workspace / "ep"),
                     "--llm", f"scripted:{workspace / 'replay.jsonl'}"]) == 1
        assert capsys.readouterr().err == self.ERROR
        assert not (workspace / "ep").exists()


class TestNonUtf8Input:
    COMMANDS = {
        "ingest": lambda w: ["ingest", "--transcripts", str(w / "transcripts"),
                             "--out", str(w / "corpus2.jsonl")],
        "index": lambda w: ["index", "--corpus", str(w / "corpus.jsonl"), "--store",
                            str(w / "store2"), "--embedder", "deterministic:32",
                            "--config", str(w / "config.json")],
        "compose": lambda w: ["compose", "--store", str(w / "store"), "--title", "Il calcio",
                              "--config", str(w / "config.json"), "--out", str(w / "ep"),
                              "--llm", f"scripted:{w / 'replay.jsonl'}"],
        "render": lambda w: ["render", "--edl", str(w / "edl.json"), "--out",
                             str(w / "e.mp4"), "--dry-run", "--config", str(w / "config.json")],
        "stats": lambda w: ["stats", "--store", str(w / "store")],
    }

    @pytest.mark.parametrize("command,name", [
        ("ingest", "transcripts/vid999.json"), ("index", "corpus.jsonl"),
        ("index", "config.json"), ("compose", "config.json"), ("compose", "store/meta.jsonl"),
        ("compose", "replay.jsonl"), ("render", "config.json"), ("render", "edl.json"),
        ("stats", "store/meta.jsonl"),
    ])
    def test_fails_cleanly(self, workspace, capsys, command, name):
        (workspace / name).write_bytes(b'{"format": "aiblob-\xe9"}\n')
        capsys.readouterr()  # drop fixture output
        assert main(self.COMMANDS[command](workspace)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "UTF-8" in err
        assert "Traceback" not in err


class TestDeeplyNestedInput:
    """JSON nested past the decoder's recursion limit is a clean parse error."""

    @pytest.mark.parametrize("command,name", [
        ("ingest", "transcripts/vid999.json"), ("index", "corpus.jsonl"),
        ("index", "config.json"), ("compose", "store/meta.jsonl"),
        ("compose", "replay.jsonl"), ("render", "edl.json"),
    ])
    def test_fails_cleanly(self, workspace, capsys, command, name):
        (workspace / name).write_bytes(b"[" * 100_000)
        capsys.readouterr()  # drop fixture output
        assert main(TestNonUtf8Input.COMMANDS[command](workspace)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nested too deeply" in err
        assert "Traceback" not in err


@needs_int_limit
class TestOverlongInteger:
    """An integer one digit past the int-to-string limit, in any JSON file a
    command reads, is a clean parse error: exit 1 and one `error:` line."""

    @pytest.mark.parametrize("command,name,forged", [
        ("ingest", "transcripts/vid999.json", False), ("index", "corpus.jsonl", False),
        ("index", "config.json", False), ("compose", "config.json", False),
        ("compose", "store/meta.jsonl", False), ("compose", "store/meta.jsonl", True),
        ("compose", "replay.jsonl", False), ("render", "config.json", False),
        ("render", "edl.json", False), ("stats", "store/meta.jsonl", False),
    ])
    def test_fails_cleanly(self, workspace, capsys, command, name, forged):
        path = workspace / name
        if path.suffix == ".jsonl":
            # In every row: the rows of a record file are decoded in blocks, and
            # those of a store with a forged digest when top_k ranks them.
            header, *rows = path.read_text(encoding="utf-8").split("\n")
            path.write_text("\n".join([header] + [f'{{"n":{OVERLONG},{row[1:]}' if row else row
                                                   for row in rows]), encoding="utf-8")
        else:
            path.write_text('{"format": %s}' % OVERLONG, encoding="utf-8")
        if forged:
            forge_digest(workspace / "store")
        capsys.readouterr()  # drop fixture output
        assert main(TestNonUtf8Input.COMMANDS[command](workspace)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        if name == "store/meta.jsonl" and not forged:
            # The changed meta.jsonl no longer matches its digest.
            assert err.endswith(f"digest does not match {path}, so the two files are not one "
                                "save; re-run aiblob index\n")
        else:
            assert err.endswith(f"invalid JSON: an integer of more than {INT_LIMIT} digits\n")


class TestLoneSurrogate:
    """A lone surrogate, which a JSON \\u escape or a surrogate-escaped argument
    puts in a string and UTF-8 cannot encode, is refused where it is read: exit
    code 1, one error line and no output file."""

    @staticmethod
    def fails_cleanly(capsys, argv, message):
        capsys.readouterr()  # drop fixture output
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert message in err

    def test_ingest_word(self, tmp_path, capsys):
        transcripts = tmp_path / "transcripts"
        transcripts.mkdir()
        doc = {"video_id": "v1", "title": "t", "source_uri": "u", "language": "it",
               "words": [{"w": "Ciao.", "s": 0.0, "e": 0.5}, {"w": "ciao\ud800.", "s": 0.6,
                                                               "e": 1.0}]}
        (transcripts / "v1.json").write_text(json.dumps(doc), encoding="utf-8")
        self.fails_cleanly(
            capsys, ["ingest", "--transcripts", str(transcripts), "--out", str(tmp_path / "c")],
            r"v1.json: words[1].w must be a string without lone surrogates, got 'ciao\ud800.'")
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("field", ["text", "sentence_id"])
    def test_index_corpus_row(self, workspace, capsys, field):
        corpus = workspace / "corpus.jsonl"
        header, first, *rest = corpus.read_text(encoding="utf-8").split("\n")
        first = json.dumps({**json.loads(first), field: "\udc80"})
        corpus.write_text("\n".join([header, first, *rest]), encoding="utf-8")
        self.fails_cleanly(
            capsys, ["index", "--corpus", str(corpus), "--store", str(workspace / "store2"),
                     "--embedder", "deterministic:32"],
            f"corpus.jsonl:2: bad corpus record: {field} must be a string without lone "
            r"surrogates, got '\udc80'")
        assert not (workspace / "store2").exists()

    @pytest.mark.parametrize("flag,message", [
        ("--title", "episode title must be a string without lone surrogates"),
        ("--intro", "--intro must be a string without lone surrogates"),
    ])
    def test_compose_argument(self, workspace, capsys, flag, message):
        # "\udcff" is how Python decodes the byte 0xff in a command-line argument.
        argv = ["compose", "--store", str(workspace / "store"), "--title", "Il calcio",
                "--config", str(workspace / "config.json"), "--out", str(workspace / "ep"),
                "--llm", f"scripted:{workspace / 'replay.jsonl'}", flag, "media/\udcff"]
        self.fails_cleanly(capsys, argv, message)
        assert not (workspace / "ep" / "edl.json").exists()


class TestUsage:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["scomponi"])
        assert excinfo.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", "--store", "x", "--inventato"])
        assert excinfo.value.code == 2

    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
