"""What `index` keeps per row, counted by tracemalloc: the bytes that Python
objects and numpy arrays ask for, which repeat exactly from run to run, where
a process's RSS does not."""

import gc
import tracemalloc

import pytest

from aiblob.embeddings import DeterministicEmbedder
from aiblob.ingest import Sentence, corpus_lines, export_corpus, load_corpus, sentence_id_for
from aiblob.store import VectorStore

VIDEOS = 100
PER_VIDEO = 200
ROWS = VIDEOS * PER_VIDEO


def traced(call):
    """``call()``'s result and the bytes it leaves allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    """A corpus of 20,000 sentences of about 48 characters, 200 from each of
    100 videos, their times growing through each video."""
    sentences = []
    for v in range(VIDEOS):
        video_id = f"video{v:04d}"
        for ordinal in range(PER_VIDEO):
            text = f"Frase {ordinal:03d} del video {v:04d}, detta in studio."
            start = ordinal * 3.75 + v / 7
            sentences.append(Sentence(sentence_id_for(video_id, ordinal, text), video_id,
                                      ordinal, text, start, start + 2.5))
    path = tmp_path_factory.mktemp("memory") / "corpus.jsonl"
    export_corpus([corpus_lines(sentences)], str(path))
    load_corpus(str(path))  # the one-time costs: lazy imports, cached field rules
    return path


def test_load_corpus_keeps_each_value_once(corpus_path):
    corpus, kept = traced(lambda: load_corpus(str(corpus_path)))
    assert len(corpus.sentence_ids) == ROWS
    # Per row: an id and a text object, a slot in each of four lists, and two
    # float64 values. The ordinals are small cached ints; the video ids are 100
    # objects in all.
    assert kept / ROWS <= 280
    assert len({id(video_id) for video_id in corpus.video_ids}) == VIDEOS


def test_first_insert_keeps_the_matrix_and_columns_it_is_given(corpus_path):
    corpus = load_corpus(str(corpus_path))
    matrix = DeterministicEmbedder(8).embed(corpus.texts)
    store = VectorStore(8)
    columns = (corpus.sentence_ids, corpus.video_ids, corpus.texts, corpus.starts, corpus.ends)
    _, kept = traced(lambda: store.insert_batch(matrix, columns))
    # Neither the matrix nor a column is copied, and no id -> row map is built.
    assert kept <= 16 * ROWS
    assert store.count == ROWS
