"""What `index`, a store load and a save keep per row, and what `index` and
`compose` hold at their peaks, counted by tracemalloc:
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


@pytest.fixture(scope="module")
def stores(corpus_path, tmp_path_factory):
    """Stores of dim 64 indexed from the 20,000-row corpus and from one of
    twice its rows: at dim 64 a 1 MiB block of vectors holds 4,096 rows, so
    neither store fits in one."""
    directory = tmp_path_factory.mktemp("stores")
    twice = write_corpus(directory / "corpus.jsonl", 2 * VIDEOS)
    paths = []
    for corpus, name in ((corpus_path, "store"), (twice, "store2")):
        assert cli.main(["index", "--corpus", str(corpus), "--store", str(directory / name),
                         "--embedder", "deterministic:64"]) == 0
        paths.append(directory / name)
    return paths


def test_a_loaded_store_reads_its_vectors_in_blocks_not_the_matrix(stores):
    query = DeterministicEmbedder(64).embed(["Frase 007 del video 0042"])[0]
    compose_peak(stores[0], query)  # the one-time costs
    peak = compose_peak(stores[0], query)
    # Twice the rows hold twice the line spans (16 bytes a row) and the
    # CRC-32s, and blocks no larger...
    assert compose_peak(stores[1], query) - peak <= 96 * ROWS
    # ...and far below the 256 bytes a row of the float32 matrix.
    assert peak <= 256 * ROWS / 2


def test_a_load_keeps_no_column_of_its_rows(stores):
    def kept(directory) -> int:
        return traced(lambda: VectorStore.load(str(directory)))[1]

    kept(stores[0])  # the one-time costs
    # Twice the rows keep twice the line spans (16 bytes a row) and the
    # CRC-32s, and nothing for a row that no query has used.
    assert kept(stores[1]) - kept(stores[0]) <= 24 * ROWS


def test_a_save_of_a_loaded_store_keeps_none_of_its_rows(stores, tmp_path):
    VectorStore.load(str(stores[0])).save(str(tmp_path / "warm"))  # the one-time costs
    store = VectorStore.load(str(stores[0]))
    _, kept = traced(lambda: store.save(str(tmp_path / "again")))
    # The writer is fed a block at a time, and no row is decoded into the store.
    assert kept < ROWS
    for name in ("meta.jsonl", "vectors.bin"):
        assert (tmp_path / "again" / name).read_bytes() == (stores[0] / name).read_bytes()
