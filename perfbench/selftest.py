"""Self-tests of the benchmark harness at a tiny scale.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

They check that the generator is a pure function of its seed and predicts
ingest exactly, that the oracle's embeddings and retrieval agree with the
program's, that a scripted episode passes every output check, and the
self-time arithmetic of the trace.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from archive import generate_archive  # noqa: E402
from oracle import Oracle, embed_texts, make_episode, script_episode  # noqa: E402
from run import PACE_REFERENCE_S, calibrated  # noqa: E402
from traced import derive_metrics, self_times  # noqa: E402


def _tree_digest(directory: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode())
        digest.update(Path(directory, name).read_bytes())
    return digest.hexdigest()


def test_generator_is_deterministic_and_predicts_ingest():
    from aiblob.ingest import parse_transcript, segment_sentences

    with tempfile.TemporaryDirectory() as tmp:
        a = generate_archive(os.path.join(tmp, "a"), 5, 12, 700)
        b = generate_archive(os.path.join(tmp, "b"), 5, 12, 700)
        c = generate_archive(os.path.join(tmp, "c"), 6, 12, 700)
        assert a == b
        assert _tree_digest(os.path.join(tmp, "a")) == _tree_digest(os.path.join(tmp, "b"))
        assert _tree_digest(os.path.join(tmp, "a")) != _tree_digest(os.path.join(tmp, "c"))
        got = []
        merged = 0
        for name in sorted(os.listdir(os.path.join(tmp, "a"))):
            doc = parse_transcript(Path(tmp, "a", name).read_bytes())
            sentences = segment_sentences(doc)
            merged += sum(s.text[0].isupper() for s in sentences)
            got.extend((s.sentence_id, s.text, s.start_s, s.end_s) for s in sentences)
    assert len({s.video_id for s in a}) == 12 and len(a) == 700
    assert got == [(s.sentence_id, s.text, s.start_s, s.end_s) for s in a]
    assert merged > 0, "no short fragment was merged"
    assert len({s.text for s in a}) > 0.95 * len(a)


def test_embeddings_match_the_program_bit_for_bit():
    from aiblob.embeddings import deterministic_embed

    texts = ["Buonasera.", "à è ì ò ù …", "x" * 257, "ab", "la stessa frase, ripetuta."]
    for dim in (2, 64, 384):
        want = np.stack([deterministic_embed(t, dim) for t in texts])
        assert embed_texts(texts, dim).tobytes() == want.tobytes()


def test_oracle_agrees_with_top_k():
    from aiblob.store import VectorRecord, VectorStore

    with tempfile.TemporaryDirectory() as tmp:
        expected = generate_archive(tmp, 9, 30, 900)
    oracle = Oracle(expected, 16)
    store = VectorStore(16)
    store.insert_batch([VectorRecord(s.sentence_id, row.astype(np.float32), s.video_id, s.text,
                                     s.start_s, s.end_s)
                        for s, row in zip(expected, oracle.matrix)])
    queries = [f"domanda numero {i}" for i in range(25)]
    for k, cap in ((7, None), (12, 2), (29, 1)):
        want = oracle.retrieve(queries, k, cap)
        got, excluded = [], set()
        for qi, q in enumerate(embed_texts(queries, 16)):
            for hit in store.top_k(q, k, exclude=excluded, video_cap=cap):
                got.append((hit.sentence_id, qi))
                excluded.add(hit.sentence_id)
        assert got == want
        assert len(want) > 20 * k  # a cap of 1 can exhaust short videos


def test_scripted_episode_passes_every_check():
    from aiblob.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        expected = generate_archive(str(root / "archive"), 3, 12, 600)
        spec = make_episode(3, "selftest", 5, 4, 10, 2, "llm", 5)
        script = script_episode(spec, Oracle(expected, 32))
        assert script.reasks > 0 and script.defaulted > 0
        (root / "replay.jsonl").write_text("\n".join(script.replay_lines) + "\n")
        (root / "config.json").write_text(json.dumps(spec.config(32)))
        assert main(["ingest", "--transcripts", str(root / "archive"),
                     "--out", str(root / "corpus.jsonl")]) == 0
        assert main(["index", "--corpus", str(root / "corpus.jsonl"), "--store",
                     str(root / "store"), "--embedder", "deterministic:32"]) == 0
        for out in ("e0", "e1"):
            assert main(["compose", "--store", str(root / "store"), "--title", spec.title,
                         "--config", str(root / "config.json"), "--out", str(root / out),
                         "--llm", f"scripted:{root / 'replay.jsonl'}"]) == 0
        assert checks.check_corpus(str(root / "corpus.jsonl"), expected) == []
        assert checks.check_store_rows(str(root / "store"), expected, 32, [0, 5, 599]) == []
        assert checks.check_candidates(str(root / "e0" / "candidates.jsonl"), script) == []
        assert checks.check_plan(str(root / "e0" / "plan.json"), script) == []
        with open(root / "render.stdout", "w", encoding="utf-8") as handle:
            with contextlib.redirect_stdout(handle):
                assert main(["render", "--edl", str(root / "e0" / "edl.json"), "--out",
                             str(root / "e0" / "montage.mp4"), "--dry-run"]) == 0
        assert checks.check_edl(str(root / "e0" / "edl.json"), str(root / "e0" / "plan.json"),
                                str(root / "render.stdout")) == []
        assert checks.check_same_files(str(root / "e0"), str(root / "e1"),
                                       ["plan.json", "edl.json"]) == []
        # A wrong expectation is caught.
        script.candidates = script.candidates[1:]
        assert checks.check_candidates(str(root / "e0" / "candidates.jsonl"), script) != []


def _span(name, start, end, parent, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent, "attrs": attrs}


def test_self_time_arithmetic():
    spans = [
        _span("cli.command", 0.0, 10.0, None),
        _span("a", 1.0, 3.0, 0),
        _span("b", 4.0, 8.0, 0),
        _span("c", 5.0, 6.0, 2),
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0]

    commands = {c: [_span("cli.import", 0.0, 0.5, None), _span("cli.command", 1.0, 2.0, None)]
                for c in ("ingest", "index", "render")}
    commands["compose"] = [
        _span("cli.command", 0.0, 9.0, None),
        _span("narrative.retrieve_candidates", 1.0, 5.0, 0, candidates=4),
        _span("embeddings.embed_batch", 1.5, 2.0, 1, texts=2),
        _span("store.top_k", 2.0, 3.0, 1, rows=10, excluded=0, hits=2),
        _span("store.top_k", 3.0, 3.5, 1, rows=10, excluded=2, hits=2),
        _span("llm.score_batch", 5.0, 8.0, 0, batches=1, warnings=1, defaulted=1),
        _span("llm.provider", 5.5, 6.0, 5, op="score"),
        _span("llm.provider", 6.5, 6.75, 5, op="score"),
    ]
    m = derive_metrics(commands, 0.25)
    assert m["narrative.retrieve_candidates_self_s"] == 2.0
    assert m["llm.orchestration_s"] == 2.25
    assert m["llm.provider_s"] == 0.75
    assert m["llm.reask_calls"] == 1
    assert m["store.top_k_first_ms"] == 1000.0 and m["store.top_k_ms"] == 500.0
    assert m["store.rows_scored_per_hit"] == 5.0 and m["store.excluded_at_last_query"] == 2
    assert m["cli.self_s"] == 3 * 1.0 + (9.0 - 4.0 - 3.0)
    assert m["cli.import_s"] == 1.5
    assert m["trace.overhead_s"] == 0.25


def test_spawn_times_the_command_and_paces_the_machine():
    with tempfile.TemporaryDirectory() as tmp:
        result = Path(tmp, "result.json")
        subprocess.run([sys.executable, "-I", str(HERE / "spawn.py"), str(result), sys.executable,
                        "-c", "import sys, time; time.sleep(0.3); sys.exit(3)"], check=True)
        child = json.loads(result.read_text())
    assert child["code"] == 3
    assert 0.3 <= child["wall_s"] < 2.0
    assert 0 < child["pace_s"] < 0.1 and child["rss_mb"] > 0
    assert calibrated(2.0, PACE_REFERENCE_S) == 2.0
    assert calibrated(2.0, 2 * PACE_REFERENCE_S) == 1.0


if __name__ == "__main__":
    failed = 0
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            try:
                test()
                print(f"PASS {name}")
            except Exception as exc:  # report every failing test, then exit nonzero
                failed += 1
                print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failed else 0)
