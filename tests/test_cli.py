"""End-to-end command-line behavior on the synthetic fixture corpus."""

import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

import aiblob
from aiblob.cli import build_parser, main
from aiblob.errors import ParseError
from aiblob.embeddings import DeterministicEmbedder, make_embedder
from aiblob.ingest import export_corpus
from aiblob.llm import Candidate
from aiblob.narrative import PipelineConfig
from aiblob.store import VectorStore
from conftest import build_replay_file, fixture_sentences, write_fixture_transcripts


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
    src = os.path.dirname(os.path.dirname(aiblob.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run([sys.executable, "-m", "aiblob.cli", *map(str, argv)],
                            capture_output=True, text=True, env=env, timeout=300)
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
        assert main(["stats", "--store", str(workspace / "store")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "meta.jsonl:2" in err and "Traceback" not in err

    def test_missing_store(self, tmp_path, capsys):
        assert main(["stats", "--store", str(tmp_path / "vuoto")]) == 1
        assert "missing" in capsys.readouterr().err


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

        queries = (out / "queries.jsonl").read_text().strip().split("\n")
        assert json.loads(queries[0])["format"] == "aiblob-queries"
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
        export_corpus(sentences, str(corpus))
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
