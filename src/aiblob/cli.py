"""Command-line pipeline: ingest -> index -> compose -> render, plus stats.

Every stage writes its artifacts atomically, so an interrupted run never
leaves a partial file behind, and a compose with deterministic providers is
byte-reproducible from (corpus, config, replay file).
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import AppConfig, load_config
from .embeddings import DOCUMENT_INPUT, embed_batch, make_embedder
from .errors import AiblobError, PlanError, ValidationError
from .ingest import DEFAULT_MIN_CHARS, load_corpus, export_corpus, parse_transcript, segment_sentences
from .llm import Orchestrator, make_llm_provider
from .montage import ClipSource, build_edl, load_edl, render, save_edl
from .narrative import (
    filter_retained,
    order_sections,
    retrieve_candidates,
    save_plan,
    segment_narrative,
)
from .store import VectorRecord, VectorStore
from .util import write_jsonl

QUERIES_FILE = "queries.jsonl"
CANDIDATES_FILE = "candidates.jsonl"
SCORES_FILE = "scores.jsonl"
PLAN_FILE = "plan.json"
EDL_FILE = "edl.json"


def cmd_ingest(args) -> int:
    names = sorted(n for n in os.listdir(args.transcripts) if n.endswith(".json"))
    if not names:
        raise ValidationError(f"no .json transcript files found in {args.transcripts}")
    sentences = []
    seen_videos: set[str] = set()
    for name in names:
        path = os.path.join(args.transcripts, name)
        with open(path, "rb") as handle:
            doc = parse_transcript(handle.read())
        if doc.video_id in seen_videos:
            raise ValidationError(f"{path}: duplicate video_id {doc.video_id!r} in corpus")
        seen_videos.add(doc.video_id)
        sentences.extend(segment_sentences(doc, min_chars=args.min_chars))
    count = export_corpus(sentences, args.out)
    print(f"wrote {count} sentences from {len(seen_videos)} videos to {args.out}")
    return 0


def cmd_index(args) -> int:
    config = load_config(args.config)
    corpus = load_corpus(args.corpus)
    if not corpus:
        raise ValidationError(f"{args.corpus} holds no sentences; nothing to index")
    embedder = make_embedder(
        args.embedder,
        base_url=config.providers.embed_base_url,
        model=config.providers.embed_model,
    )
    vectors = embed_batch([s.text for s in corpus], embedder, input_type=DOCUMENT_INPUT)
    store = VectorStore(int(vectors[0].shape[0]))
    store.insert_batch([
        VectorRecord(s.sentence_id, vec, s.video_id, s.text, s.start_s, s.end_s)
        for s, vec in zip(corpus, vectors)
    ])
    store.save(args.store)
    print(f"indexed {store.count} sentences (dim {store.dim}) into {args.store}")
    return 0


def _write_queries(path: str, title: str, themes, queries) -> None:
    write_jsonl(
        path,
        {"format": "aiblob-queries", "version": 1, "episode_title": title,
         "themes": [t.description for t in themes]},
        map(vars, queries),  # a line is one QueryPhrase's fields, in declaration order
    )


def _write_candidates(path: str, candidates) -> None:
    write_jsonl(path, {"format": "aiblob-candidates", "version": 1}, (
        {
            "sentence_id": record.sentence_id,
            "video_id": record.video_id,
            "text": record.text,
            "start_s": record.start_s,
            "end_s": record.end_s,
            "source_query_index": query_index,
        }
        for record, query_index in candidates
    ))


def _write_scores(path: str, scored) -> None:
    # A line is one ScoredSentence's fields, in declaration order.
    write_jsonl(path, {"format": "aiblob-scores", "version": 1}, map(vars, scored))


def cmd_compose(args) -> int:
    config: AppConfig = load_config(args.config)
    store = VectorStore.load(args.store)
    embedder = make_embedder(
        config.providers.embedder,
        base_url=config.providers.embed_base_url,
        model=config.providers.embed_model,
    )
    llm_spec = args.llm or config.providers.llm
    if not llm_spec:
        raise ValidationError("no LLM provider: pass --llm or set providers.llm in the config")
    provider = make_llm_provider(
        llm_spec,
        base_url=config.providers.llm_base_url,
        model=config.providers.llm_model,
    )
    orch = Orchestrator(provider, retries=config.providers.retries)
    pipeline = config.pipeline
    os.makedirs(args.out, exist_ok=True)

    themes = orch.generate_themes(args.title, pipeline.themes)
    queries = orch.generate_queries(themes, pipeline.phrases_per_theme, episode_title=args.title)
    _write_queries(os.path.join(args.out, QUERIES_FILE), args.title, themes, queries)

    candidates = retrieve_candidates(queries, store, embedder, pipeline)
    _write_candidates(os.path.join(args.out, CANDIDATES_FILE), candidates)
    if not candidates:
        raise PlanError("retrieval returned no candidates; is the store empty?")

    scored = orch.score_batch(
        [(record.sentence_id, record.text) for record, _ in candidates],
        args.title,
        themes,
        batch_size=config.providers.score_batch_size,
        query_indexes=[qi for _, qi in candidates],
    )
    _write_scores(os.path.join(args.out, SCORES_FILE), scored)

    retained = filter_retained(scored, pipeline.irony_threshold, pipeline.relevance_threshold)
    plan = segment_narrative(retained, pipeline, episode_title=args.title)
    scored_by_id = {s.sentence_id: s for s in scored}
    texts_by_id = {record.sentence_id: record.text for record, _ in candidates}
    plan = order_sections(plan, scored_by_id, pipeline, orchestrator=orch, texts=texts_by_id)
    save_plan(plan, scored_by_id, os.path.join(args.out, PLAN_FILE))

    sources = {
        record.sentence_id: ClipSource(
            source_uri=config.media.source_uri_for(record.video_id),
            text=record.text,
            start_s=record.start_s,
            end_s=record.end_s,
        )
        for record, _ in candidates
    }
    intro = args.intro or config.media.intro_uri
    edl = build_edl(plan, sources, config.render, intro_source=intro)
    save_edl(edl, os.path.join(args.out, EDL_FILE))

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
    print(f"videos: {len(store.video_ids())}")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AiblobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
