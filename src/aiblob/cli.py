"""Command-line pipeline: ingest -> index -> compose -> render, plus stats.

Every stage writes its artifacts atomically, so an interrupted run never
leaves a partial file behind, and a compose with deterministic providers is
byte-reproducible from (corpus, config, replay file).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from contextlib import closing
from itertools import repeat
from typing import Iterator

from .config import AppConfig, load_config
from .embeddings import DOCUMENT_INPUT, embed_batch, make_embedder
from .errors import AiblobError, ConfigError, ParseError, PlanError, ValidationError
from .ingest import DEFAULT_MIN_CHARS, export_corpus, open_corpus, read_corpus, segment_file
from .llm import Candidate, Orchestrator, QueryPhrase, ScoredSentence, make_llm_provider
from .montage import build_edl, load_edl, render, save_edl
from .narrative import (
    filter_retained,
    order_sections,
    retrieve_candidates,
    save_plan,
    segment_narrative,
)
from .store import VectorStore, write_store
from .util import RecordFile, is_utf8, record_columns, write_columns

QUERIES_FILE = "queries.jsonl"
CANDIDATES_FILE = "candidates.jsonl"
SCORES_FILE = "scores.jsonl"
PLAN_FILE = "plan.json"
EDL_FILE = "edl.json"
# Every file compose writes into its workspace, in the order it writes them.
COMPOSE_FILES = (QUERIES_FILE, CANDIDATES_FILE, SCORES_FILE, PLAN_FILE, EDL_FILE)

# Transcript bytes, in all, below which ingest runs in this process. On a 2-vCPU
# host two workers saved about 0.04 s per MB of transcripts and took about
# 0.03 s to start (0.12 s of CPU: the pool's import, the forks and numpy's import
# in each worker), so below this floor they would save under a tenth of a
# second, or cost time; a 1.4 MB archive ingests in about 0.3 s in process.
INGEST_PARALLEL_BYTES = 4 << 20
# Transcript files an ingest worker is sent at a time.
INGEST_CHUNK_FILES = 4
# Bytes of corpus lines and float32 vectors per block of rows that index
# streams into the store (_block_rows): a block's columns, vectors and record
# lines are what index holds beyond its imports. On the 212,696-row dataset
# corpus at dim 64 (blocks of 1,024 rows, one embedder batch), index peaked at
# 43.9 MB of RSS, against 45.8 MB with 1 MiB blocks and 53 MB with 4 MiB ones,
# in CPU times within one another's quartiles (1.56 s and 1.47 s, medians of
# 12, 1.57 s when the whole corpus was held), while 128 KiB blocks peaked no
# lower and took an eighth more CPU.
INDEX_BLOCK_BYTES = 1 << 19
# The signals that interrupt a command (main).
INTERRUPTS = (signal.SIGINT, signal.SIGTERM)


def _check_output(path: str, flag: str, directory: bool) -> None:
    """Raise ValidationError naming ``flag`` and ``path`` unless a command can
    make its output there, a directory if ``directory`` else a file: nothing of
    the other kind stands at ``path``, and its nearest existing ancestor is a
    directory. Checked before the work, so that a bad path fails at once."""
    if os.path.exists(path) and os.path.isdir(path) != directory:
        raise ValidationError(f"{flag} {path} is {'not ' if directory else ''}a directory")
    parent = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise ValidationError(f"{flag} {path}: {parent} is not a directory")


def cmd_ingest(args) -> int:
    """Cut every ``*.json`` transcript of ``--transcripts`` into sentences and
    write them, files in name order, as the corpus ``--out``.

    Each file is read, parsed and segmented by ingest.segment_file, in worker
    processes forked from this one, one per CPU it may run on, given
    INGEST_CHUNK_FILES files at a time; below INGEST_PARALLEL_BYTES of
    transcripts in all, or with one CPU, in this process. Either way the
    results are taken in name order, so the corpus is the same bytes, and the
    first faulty file or repeated video_id in name order is the error
    reported. A worker that dies ends the command with an AiblobError. A
    worker ignores SIGINT, so an interrupt (main) reaches this process alone,
    which waits for the files in flight and cancels the rest. No worker
    outlives the command, and a failed or interrupted ingest leaves no corpus.
    """
    _check_output(args.out, "--out", directory=False)
    if args.min_chars < 1:
        raise ValidationError(f"--min-chars must be at least 1, got {args.min_chars}")
    names = sorted(n for n in os.listdir(args.transcripts) if n.endswith(".json"))
    if not names:
        raise ValidationError(f"no .json transcript files found in {args.transcripts}")
    paths = [os.path.join(args.transcripts, name) for name in names]
    videos: set[str] = set()

    def checked(results) -> Iterator[tuple[int, bytes]]:
        for path, result in zip(paths, results):
            if isinstance(result, Exception):
                raise result
            video_id, count, lines = result
            if video_id in videos:
                raise ValidationError(f"{path}: duplicate video_id {video_id!r} in corpus")
            videos.add(video_id)
            yield count, lines

    # No worker starts before export_corpus has opened its temporary file.
    with closing(_segmented(paths, args.min_chars)) as results:
        count = export_corpus(checked(results), args.out)
    print(f"wrote {count} sentences from {len(videos)} videos to {args.out}")
    return 0


def _segmented(paths: list[str], min_chars: int) -> Iterator:
    """The results of ingest.segment_file for each of ``paths``, in order: from
    a pool of worker processes, one per CPU this process may run on and per
    chunk of files, started on the first result and shut down, every worker
    reaped, when the generator ends or is closed; or from this process if that
    is one (or os.sched_getaffinity is missing) or the files hold under
    INGEST_PARALLEL_BYTES in all. A worker that dies raises AiblobError."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, -(-len(paths) // INGEST_CHUNK_FILES))
    if workers < 2 or sum(map(_file_size, paths)) < INGEST_PARALLEL_BYTES:
        yield from map(segment_file, paths, repeat(min_chars))
        return
    # Imported here, so that index, compose and render never pay for the pool.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # Forked, not spawned, so no worker starts an interpreter and imports aiblob
    # again; safe because this process has one thread and no numpy loaded here.
    # Each worker imports numpy on first use. The forks (in the first submit)
    # hold the interrupts back, so none reaches a worker before _worker_signals
    # runs.
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_worker_signals)
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, INTERRUPTS)
    try:
        # One future per chunk, never cancelled here: only shutdown cancels them,
        # in the pool's manager thread. Before Python 3.12, a cancel from this
        # thread (pool.map's, when its results are dropped) that races the
        # manager failing the futures of a dead worker kills the manager, which
        # then reaps no worker.
        chunks = [pool.submit(_segment_chunk, paths[i:i + INGEST_CHUNK_FILES], min_chars)
                  for i in range(0, len(paths), INGEST_CHUNK_FILES)]
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        chunks.reverse()
        while chunks:  # popped, so a chunk's results are freed once taken
            yield from chunks.pop().result()
    except BrokenProcessPool as exc:
        raise AiblobError(f"an ingest worker process died: {exc}") from exc
    finally:
        # Interrupts are held back while the pool shuts down and raised once
        # every worker is reaped, so none cuts the shutdown short, not even one
        # held since a submit failed. One already caught and raised by the
        # block itself still leaves the shutdown to the inner finally.
        try:
            signal.pthread_sigmask(signal.SIG_BLOCK, INTERRUPTS)
        finally:
            pool.shutdown(cancel_futures=True)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _segment_chunk(paths: list[str], min_chars: int) -> list:
    """ingest.segment_file's result for each of ``paths``, in a worker."""
    return list(map(segment_file, paths, repeat(min_chars)))


def _worker_signals() -> None:
    """Leave an interrupt to the parent: a worker ignores SIGINT, which Ctrl-C
    sends the whole process group, and dies of SIGTERM, as the pool's own
    cleanup expects."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, INTERRUPTS)


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0  # its read fails in turn, and is reported in name order


def cmd_index(args) -> int:
    """Embed the sentences of the corpus ``--corpus`` into a store at ``--store``.

    The corpus is read once for its line spans (ingest.open_corpus), then
    streamed into the store writer (store.write_store) a block of rows at a
    time: each block about INDEX_BLOCK_BYTES of corpus lines and vectors, or one
    provider batch while the embedder's width is unknown (a remote one's, before
    its first reply). A block's records are checked (ingest.read_corpus), then
    its texts, each of which must be non-empty, are embedded (embed_batch), and
    its rows written and checked (vectors finite, ids hashed). A repeated id is
    looked for once the last block is in, and named by a walk of the ids.

    So the corpus faults reported are those of the rows read so far: on any
    fault, the first bad record or repeated id in row order before it comes
    first, as load_corpus would name it, and a fault in a later block is not
    reached. A failed or interrupted index leaves the store at ``--store`` as it
    was, no temporary file, and no directory it made.
    """
    _check_output(args.store, "--store", directory=True)
    config = load_config(args.config)
    records = open_corpus(args.corpus)
    if not records.count:
        raise ValidationError(f"{args.corpus} holds no sentences; nothing to index")
    embedder = make_embedder(
        args.embedder,
        base_url=config.providers.embed_base_url,
        model=config.providers.embed_model,
    )
    read = rows = 0  # the rows read before a fault, and the rows of a block
    with write_store(args.store, records.count, embedder.spec) as store:
        try:
            lo = 0
            while lo < records.count:
                rows = _block_rows(records, embedder)
                read = hi = min(lo + rows, records.count)
                corpus = read_corpus(records, range(lo, hi))
                if "" in corpus.texts:
                    read = lo + corpus.texts.index("")
                    raise ParseError(f"{records.path}:{records.lineno(read + 1)}: bad corpus "
                                     "record: text must be a non-empty string")
                vectors = embed_batch(corpus.texts, embedder, DOCUMENT_INPUT, start=lo)
                store.add(vectors, (corpus.sentence_ids, corpus.video_ids, corpus.texts,
                                    corpus.starts, corpus.ends))
                lo = hi
        except AiblobError:
            _raise_first_fault(records, read, rows)
            raise
        if store.repeated():
            _raise_first_fault(records, records.count, rows)
    print(f"indexed {records.count} sentences (dim {store.dim}) into {args.store}")
    return 0


def _block_rows(records: RecordFile, embedder) -> int:
    """Corpus rows per block of index: whole provider batches, at least one, of
    at most INDEX_BLOCK_BYTES of rows, each a mean corpus line and a float32
    vector; one batch while the embedder's width is unknown (a remote one's,
    before its first reply). So the provider is called as often as for one
    embed_batch of the whole corpus."""
    batch = embedder.batch_size
    if embedder.dim is None:
        return batch
    row = records.size // (records.count + 1) + 4 * embedder.dim
    return max(batch, INDEX_BLOCK_BYTES // row // batch * batch)


def _raise_first_fault(records: RecordFile, stop: int, step: int) -> None:
    """Raise the first fault of corpus rows [0, stop) in row order, if there is
    one: a bad record or an id that repeats an earlier one, as load_corpus names
    it. The rows are read ``step`` at a time, and only their ids are kept."""
    seen: set[str] = set()
    for lo in range(0, stop, step):
        read_corpus(records, range(lo, min(lo + step, stop)), seen)


def cmd_compose(args) -> int:
    _check_output(args.out, "--out", directory=True)
    if args.intro is not None and not is_utf8(args.intro):
        raise ValidationError(
            f"--intro must be a string without lone surrogates, got {args.intro!r}")
    config: AppConfig = load_config(args.config)
    store = VectorStore.load(args.store)
    embedder = make_embedder(
        config.providers.embedder,
        base_url=config.providers.embed_base_url,
        model=config.providers.embed_model,
    )
    # A store saved without an embedder spec records null, and is not checked.
    if store.embedder is not None and store.embedder != embedder.spec:
        raise ConfigError(f"{args.store} was indexed with embedder {store.embedder!r}, "
                          f"but the config names {embedder.spec!r}")
    llm_spec = args.llm or config.providers.llm
    if not llm_spec:
        raise ConfigError("no LLM provider: pass --llm or set providers.llm in the config")
    provider = make_llm_provider(
        llm_spec,
        base_url=config.providers.llm_base_url,
        model=config.providers.llm_model,
    )
    orch = Orchestrator(provider, retries=config.providers.retries)
    pipeline = config.pipeline
    os.makedirs(args.out, exist_ok=True)
    # The workspace is one run: no file of an earlier run outlives this one.
    for name in COMPOSE_FILES:
        try:
            os.remove(os.path.join(args.out, name))
        except FileNotFoundError:
            pass

    # The warnings explain a failed run too, so they come before its error line.
    try:
        themes = orch.generate_themes(args.title, pipeline.themes)
        queries = orch.generate_queries(themes, pipeline.phrases_per_theme,
                                        episode_title=args.title)
        write_columns(os.path.join(args.out, QUERIES_FILE),
                      {"format": "aiblob-queries", "version": 1, "episode_title": args.title,
                       "themes": themes},
                      QueryPhrase, record_columns(QueryPhrase, queries))

        candidates = retrieve_candidates(queries, store, embedder, pipeline)
        write_columns(os.path.join(args.out, CANDIDATES_FILE),
                      {"format": "aiblob-candidates", "version": 1}, Candidate,
                      record_columns(Candidate, candidates))
        if not candidates:
            raise PlanError("retrieval returned no candidates; is the store empty?")

        scored = orch.score_batch(candidates, args.title, themes,
                                  batch_size=config.providers.score_batch_size)
        write_columns(os.path.join(args.out, SCORES_FILE),
                      {"format": "aiblob-scores", "version": 1}, ScoredSentence,
                      record_columns(ScoredSentence, scored))

        retained = filter_retained(scored, pipeline.irony_threshold, pipeline.relevance_threshold)
        plan = segment_narrative(retained, pipeline, episode_title=args.title)
        scored_by_id = {s.sentence_id: s for s in scored}
        texts_by_id = {c.sentence_id: c.text for c in candidates}
        plan = order_sections(plan, scored_by_id, pipeline, orchestrator=orch, texts=texts_by_id)
        save_plan(plan, scored_by_id, os.path.join(args.out, PLAN_FILE))

        intro = args.intro or config.media.intro_uri
        edl = build_edl(plan, candidates, config.render, config.media.source_uri_for,
                        intro_source=intro)
        save_edl(edl, os.path.join(args.out, EDL_FILE))
    finally:
        for warning in orch.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    sizes = ", ".join(f"{name}={len(plan.sections[name])}" for name in plan.sections)
    print(f"composed episode {args.title!r}: {len(retained)} retained ({sizes}) -> {args.out}")
    return 0


def cmd_render(args) -> int:
    config = load_config(args.config)
    edl = load_edl(args.edl)
    result = render(edl, args.out, config.render, dry_run=args.dry_run)
    if args.dry_run:
        sys.stdout.write(result)
    else:
        print(f"rendered {result}")
    return 0


def cmd_stats(args) -> int:
    store = VectorStore.load(args.store)
    print(f"videos: {store.video_count}")
    print(f"sentences: {store.count}")
    print(f"dim: {store.dim}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aiblob",
        description="Build satirical archive montages from word-timestamped transcripts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse transcript files into a sentence corpus")
    p.add_argument("--transcripts", required=True, help="directory of transcript .json files")
    p.add_argument("--out", required=True, help="corpus output file")
    p.add_argument("--min-chars", type=int, default=DEFAULT_MIN_CHARS,
                   help="merge sentences shorter than this many characters")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("index", help="embed a corpus into a vector store")
    p.add_argument("--corpus", required=True)
    p.add_argument("--store", required=True, help="store output directory")
    p.add_argument("--embedder", required=True, help="'remote' or 'deterministic:<dim>'")
    p.add_argument("--config", default=None, help="config file (remote endpoint settings)")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("compose", help="plan an episode: queries, retrieval, scoring, EDL")
    p.add_argument("--store", required=True)
    p.add_argument("--title", required=True, help="episode title / central theme")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True, help="episode workspace directory")
    p.add_argument("--llm", default=None, help="'remote' or 'scripted:<file>'")
    p.add_argument("--intro", default=None, help="media uri for the opening sequence")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("render", help="render an EDL to video (or print the command plan)")
    p.add_argument("--edl", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("stats", help="report store counts")
    p.add_argument("--store", required=True)
    p.set_defaults(func=cmd_stats)

    return parser


def _terminate(signum: int, frame) -> None:
    raise KeyboardInterrupt(signum)


def main(argv=None) -> int:
    """Run one command. SIGTERM raises in the command as SIGINT does, so that
    its temporary files and worker processes are cleaned up as for an error;
    an interrupt ends with one error line and exit code 128 + the signal
    number."""
    terminate = signal.signal(signal.SIGTERM, _terminate)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (AiblobError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt as exc:
        signum = exc.args[0] if exc.args else signal.SIGINT
        print(f"error: interrupted by {signal.Signals(signum).name}", file=sys.stderr)
        return 128 + signum
    finally:
        signal.signal(signal.SIGTERM, terminate)


def run() -> None:
    """The console script and ``python -m aiblob.cli``: ``main``, with stdout
    writing a path argument that is not valid UTF-8 as the bytes it was given
    (an in-process caller of ``main`` keeps its own stdout)."""
    sys.stdout.reconfigure(errors="surrogateescape")
    raise SystemExit(main())


if __name__ == "__main__":
    run()
