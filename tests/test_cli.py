"""End-to-end command-line behavior on the synthetic fixture corpus."""

import json
import os

import pytest

from aiblob.cli import main
from aiblob.embeddings import make_embedder
from aiblob.narrative import PipelineConfig
from aiblob.store import VectorStore
from conftest import build_replay_file, write_fixture_transcripts


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
        candidates = (out / "candidates.jsonl").read_text().strip().split("\n")[1:]
        scores = (out / "scores.jsonl").read_text().strip().split("\n")[1:]
        assert len(candidates) == len(scores)
        cand_ids = [json.loads(line)["sentence_id"] for line in candidates]
        score_ids = [json.loads(line)["sentence_id"] for line in scores]
        assert cand_ids == score_ids

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

    @pytest.mark.parametrize("threshold", [None, "loud"])
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
