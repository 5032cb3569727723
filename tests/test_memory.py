"""What `index` keeps per row, and holds at its peak, counted by tracemalloc:
the bytes that Python objects and numpy arrays ask for, which repeat exactly
from run to run, where a process's RSS does not."""

import gc
import tracemalloc

import pytest

from aiblob import cli
from aiblob.embeddings import DeterministicEmbedder
from aiblob.ingest import Sentence, corpus_lines, export_corpus, load_corpus, sentence_id_for
from aiblob.store import VectorStore

VIDEOS = 100
PER_VIDEO = 200
ROWS = VIDEOS * PER_VIDEO


def traced(call, peak: bool = False):
    """``call()``'s result and the bytes it leaves allocated, or with ``peak``
    the most bytes it held at once."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        gc.collect()
        current, top = tracemalloc.get_traced_memory()
        return result, (top if peak else current) - before
    finally:
        tracemalloc.stop()


def write_corpus(path, videos):
    """A corpus of sentences of about 48 characters, PER_VIDEO from each of
    ``videos`` videos, their times growing through each video."""
    sentences = []
    for v in range(videos):
        video_id = f"video{v:04d}"
        for ordinal in range(PER_VIDEO):
            text = f"Frase {ordinal:03d} del video {v:04d}, detta in studio."
            start = ordinal * 3.75 + v / 7
            sentences.append(Sentence(sentence_id_for(video_id, ordinal, text), video_id,
                                      ordinal, text, start, start + 2.5))
    export_corpus([corpus_lines(sentences)], str(path))
    return path


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    """A corpus of 20,000 sentences, 200 from each of 100 videos."""
    path = write_corpus(tmp_path_factory.mktemp("memory") / "corpus.jsonl", VIDEOS)
    load_corpus(str(path))  # the one-time costs: lazy imports, cached field rules
    return path


def test_load_corpus_keeps_each_value_once(corpus_path):
    corpus, kept = traced(lambda: load_corpus(str(corpus_path)))
    assert len(corpus.sentence_ids) == ROWS
    # Per row: an id and a text object, a slot in each of three lists, and two
    # float64 values. The video ids are 100 objects in all.
    assert kept / ROWS <= 272
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


def test_first_insert_checks_its_ids_in_little_memory(corpus_path):
    corpus = load_corpus(str(corpus_path))
    matrix = DeterministicEmbedder(8).embed(corpus.texts)
    store = VectorStore(8)
    columns = (corpus.sentence_ids, corpus.video_ids, corpus.texts, corpus.starts, corpus.ends)
    _, peak = traced(lambda: store.insert_batch(matrix, columns), peak=True)
    # An int64 hash per id, sorted in place, and the vector norms; a set of the
    # ids would take over 50 bytes an id.
    assert peak <= 16 * ROWS


def index_peak(corpus, store, block_bytes: int) -> int:
    """The most bytes `aiblob index` of ``corpus`` into ``store`` held at once,
    streaming blocks of ``block_bytes``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "INDEX_BLOCK_BYTES", block_bytes)
        code, peak = traced(lambda: cli.main(["index", "--corpus", str(corpus), "--store",
                                              str(store), "--embedder", "deterministic:8"]),
                            peak=True)
    assert code == 0
    return peak


def test_index_holds_a_block_not_the_corpus(corpus_path, tmp_path):
    twice = write_corpus(tmp_path / "corpus.jsonl", 2 * VIDEOS)
    block = 1 << 18  # 1,024 rows of about 220 bytes, a batch of the embedder
    index_peak(corpus_path, tmp_path / "warm", block)  # the one-time costs again
    peak = index_peak(corpus_path, tmp_path / "store", block)
    # Twice the rows hold twice the line spans (16 bytes a row) and id hashes
    # (8 bytes a row), and blocks no larger...
    assert index_peak(twice, tmp_path / "store2", block) - peak <= 32 * ROWS
    # ...and far below the 272 bytes a row of the corpus's columns.
    assert peak <= 272 * ROWS / 2
    # Blocks four times as large hold more.
    assert index_peak(corpus_path, tmp_path / "store3", 4 * block) >= 1.5 * peak


def compose_peak(directory, query) -> int:
    """The most bytes that loading the store in ``directory`` and one retrieve
    of ``query`` held at once."""
    return traced(lambda: list(VectorStore.load(str(directory)).retrieve([query], 10)),
                  peak=True)[1]


def test_a_loaded_store_reads_its_vectors_in_blocks_not_the_matrix(corpus_path, tmp_path):
    twice = write_corpus(tmp_path / "corpus.jsonl", 2 * VIDEOS)
    stores = []
    for corpus, name in ((corpus_path, "store"), (twice, "store2")):
        assert cli.main(["index", "--corpus", str(corpus), "--store", str(tmp_path / name),
                         "--embedder", "deterministic:64"]) == 0
        stores.append(tmp_path / name)
    query = DeterministicEmbedder(64).embed(["Frase 007 del video 0042"])[0]
    compose_peak(stores[0], query)  # the one-time costs
    peak = compose_peak(stores[0], query)
    # Twice the rows hold twice the line spans (16 bytes a row), the undecoded
    # columns (40 bytes a row) and the CRC-32s, and blocks no larger...
    assert compose_peak(stores[1], query) - peak <= 96 * ROWS
    # ...and far below the 256 bytes a row of the float32 matrix.
    assert peak <= 256 * ROWS / 2
