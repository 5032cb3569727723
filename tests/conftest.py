"""Shared fixtures: synthetic transcripts and scripted replay files.

Everything here is seeded and deterministic so the end-to-end tests can
assert byte-identical artifacts across runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import aiblob
from aiblob.embeddings import make_embedder
from aiblob.ingest import corpus_lines, export_corpus, parse_transcript, segment_sentences
from aiblob.llm import QueryPhrase
from aiblob.narrative import PipelineConfig, retrieve_candidates
from aiblob.store import VectorRecord, VectorStore
from aiblob.util import dumps_line

# The interpreter's int-to-string limit (0 where it has none), and the digits of
# an integer one past it, which every JSON decoder must refuse cleanly.
INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
OVERLONG = "9" * (INT_LIMIT + 1)
needs_int_limit = pytest.mark.skipif(not INT_LIMIT, reason="the interpreter has no int limit")

VOCABULARY = [
    "governo", "calcio", "televisione", "ministro", "spettacolo", "pubblico",
    "domani", "sempre", "nazionale", "problema", "soluzione", "grande",
    "piccolo", "storia", "momento", "parole", "verità", "futuro", "passato",
    "denaro", "lavoro", "famiglia", "paese", "mondo", "gioco", "premio",
]

THEME_TEXTS = [
    "il trionfo annunciato che nessuno ricorda",
    "esperti che spiegano l'ovvio con solennità",
    "promesse eterne con scadenza settimanale",
    "applausi registrati per emozioni vere",
    "il futuro radioso rimandato a data da destinarsi",
]

QUERY_TEXTS = [
    "vinceremo sicuramente",
    "non ci sono problemi",
    "il pubblico a casa",
    "una grande vittoria",
    "andrà tutto bene",
    "ce lo chiede il paese",
    "i numeri parlano chiaro",
    "nessuno poteva prevederlo",
    "la situazione è sotto controllo",
    "un successo senza precedenti",
    "torneremo dopo la pubblicità",
    "lo dicono le statistiche",
    "un momento storico",
    "il rilancio definitivo",
    "parole semplici e chiare",
    "la gente non dimentica",
    "questa volta è diverso",
    "massima trasparenza",
    "una svolta epocale",
    "il meglio deve ancora venire",
]


def make_transcript(video_id: str, n_sentences: int, seed: int) -> dict:
    rng = random.Random(seed)
    words = []
    t = rng.randint(0, 5) * 1.0
    for _ in range(n_sentences):
        length = rng.randint(3, 7)
        for j in range(length):
            text = rng.choice(VOCABULARY)
            if j == length - 1:
                text += rng.choice(".!?")
            duration = rng.randint(20, 50) / 100.0
            words.append({"w": text, "s": round(t, 2), "e": round(t + duration, 2)})
            t = round(t + duration + rng.randint(5, 30) / 100.0, 2)
    return {
        "video_id": video_id,
        "title": f"Programma {video_id}",
        "source_uri": f"media/{video_id}.mp4",
        "language": "it",
        "words": words,
    }


def write_fixture_transcripts(directory, n_videos: int = 10, per_video: int = 20) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(n_videos):
        doc = make_transcript(f"vid{i:03d}", per_video, seed=1000 + i)
        (directory / f"vid{i:03d}.json").write_text(
            json.dumps(doc, ensure_ascii=False), encoding="utf-8"
        )


def fixture_sentences(n_videos: int = 10, per_video: int = 20):
    sentences = []
    for i in range(n_videos):
        raw = json.dumps(make_transcript(f"vid{i:03d}", per_video, seed=1000 + i))
        doc = parse_transcript(raw.encode("utf-8"))
        sentences.extend(segment_sentences(doc))
    return sentences


def pseudo_score(sentence_id: str) -> tuple[int, int]:
    """Deterministic fake irony/relevance derived from the id's leading bytes."""
    irony = 1 + int(sentence_id[:2], 16) % 10
    relevance = 1 + int(sentence_id[2:4], 16) % 10
    return irony, relevance


def build_replay_file(path, store: VectorStore, embedder, config: PipelineConfig,
                      title: str, score_batch_size: int = 20) -> None:
    """Script every provider call a deterministic compose run will make."""
    themes = THEME_TEXTS[: config.themes]
    queries = []
    for ti in range(len(themes)):
        for qi in range(config.phrases_per_theme):
            queries.append({"theme_index": ti, "text": QUERY_TEXTS[(ti * config.phrases_per_theme + qi) % len(QUERY_TEXTS)]})

    phrase_objs = [QueryPhrase(q["theme_index"], q["text"]) for q in queries]
    candidates = retrieve_candidates(phrase_objs, store, embedder, config)

    lines = [
        dumps_line({"op": "themes", "response": {"themes": themes}}),
        dumps_line({"op": "queries", "response": {"queries": queries}}),
    ]
    ids = [c.sentence_id for c in candidates]
    for lo in range(0, len(ids), score_batch_size):
        batch = ids[lo:lo + score_batch_size]
        scores = []
        for sid in batch:
            irony, relevance = pseudo_score(sid)
            scores.append({"id": sid, "irony": irony, "relevance": relevance, "rationale": ""})
        lines.append(dumps_line({"op": "score", "response": {"scores": scores}}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_python(*argv):
    """``python *argv`` in a child process that imports aiblob from this source tree."""
    src = os.path.dirname(os.path.dirname(aiblob.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, argv)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)


def exact(columns) -> str:
    """The repr of ``columns`` with each array (anything with ``tolist``) shown as
    its dtype and its values as Python numbers: equal strings mean equal values,
    with -0.0 told from 0.0 and an int from a float."""
    return repr(tuple((str(column.dtype), column.tolist()) if hasattr(column, "tolist")
                      else column for column in columns))


def forge_digest(directory):
    """Make vectors.bin's digest match meta.jsonl as it is now."""
    vectors = directory / "vectors.bin"
    digest = hashlib.sha256((directory / "meta.jsonl").read_bytes()).digest()
    vectors.write_bytes(vectors.read_bytes()[:-32] + digest)


@pytest.fixture(scope="session")
def fixture_store() -> VectorStore:
    """A dim-32 store over the 10-video synthetic corpus."""
    sentences = fixture_sentences()
    embedder = make_embedder("deterministic:32")
    vectors = embedder.embed([s.text for s in sentences])
    store = VectorStore(32)
    store.insert_batch([
        VectorRecord(s.sentence_id, v, s.video_id, s.text, s.start_s, s.end_s)
        for s, v in zip(sentences, vectors)
    ])
    return store


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    export_corpus([corpus_lines(fixture_sentences())], str(path))
    return path
