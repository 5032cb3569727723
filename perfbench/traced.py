"""Traced runs: spans around each layer's public functions, and the per-layer
metrics derived from them.

As a script it runs one aiblob command in this process with every wrapped
function recording a span (name, start, end, parent, attributes), then
writes the spans to a JSON file:

    python3 perfbench/traced.py SPANS.json ingest --transcripts t --out c.jsonl

The wrappers only time and count; the command runs through
`aiblob.cli.main` with the same argv as an untraced run, so its outputs must
be byte-identical.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


class Recorder:
    """In-memory spans; the open spans form a stack, so parents are implicit."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        self.spans.append({"name": name, "start": time.perf_counter() - T0, "end": None,
                           "parent": self._stack[-1] if self._stack else None, "attrs": {}})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter() - T0
        self._stack.pop()


def _dir_bytes(directory) -> int:
    return sum(os.path.getsize(os.path.join(directory, name))
               for name in ("meta.jsonl", "vectors.bin")
               if os.path.exists(os.path.join(directory, name)))


def _score_batches(a, _result) -> dict:
    return {"batches": math.ceil(len(a["sentences"]) / a["batch_size"]),
            "warnings": len(a["self"].warnings),
            "defaulted": sum(w.startswith("no score returned") for w in a["self"].warnings)}


def _warnings(a, _result) -> dict:
    return {"warnings": len(a["self"].warnings)}


# (module, owner within the module or None, attribute, span name, attributes
# read from the bound arguments and the result after the call).
WRAPPED = [
    ("aiblob.ingest", None, "parse_transcript", "ingest.parse_transcript",
     lambda a, r: {"words": len(r.words)}),
    ("aiblob.ingest", None, "segment_sentences", "ingest.segment_sentences", None),
    ("aiblob.ingest", None, "export_corpus", "ingest.export_corpus", lambda a, r: {"sentences": r}),
    ("aiblob.ingest", None, "load_corpus", "ingest.load_corpus", None),
    ("aiblob.embeddings", None, "embed_batch", "embeddings.embed_batch",
     lambda a, r: {"texts": len(a["texts"])}),
    ("aiblob.embeddings", "DeterministicEmbedder", "embed", "embeddings.provider", None),
    ("aiblob.store", "VectorStore", "insert_batch", "store.insert_batch", None),
    ("aiblob.store", "VectorStore", "save", "store.save",
     lambda a, r: {"bytes": _dir_bytes(a["directory"])}),
    ("aiblob.store", "VectorStore", "load", "store.load",
     lambda a, r: {"bytes": _dir_bytes(a["directory"])}),
    ("aiblob.store", "VectorStore", "top_k", "store.top_k",
     lambda a, r: {"rows": a["self"].count, "excluded": len(a["exclude"]), "hits": len(r)}),
    ("aiblob.llm", "ScriptedProvider", "__init__", "llm.replay_load", None),
    ("aiblob.llm", "ScriptedProvider", "complete", "llm.provider", lambda a, r: {"op": a["op"]}),
    ("aiblob.llm", "Orchestrator", "generate_themes", "llm.generate_themes", _warnings),
    ("aiblob.llm", "Orchestrator", "generate_queries", "llm.generate_queries", _warnings),
    ("aiblob.llm", "Orchestrator", "score_batch", "llm.score_batch", _score_batches),
    ("aiblob.llm", "Orchestrator", "order_section", "llm.order_section", _warnings),
    ("aiblob.narrative", None, "retrieve_candidates", "narrative.retrieve_candidates",
     lambda a, r: {"candidates": len(r)}),
    ("aiblob.narrative", None, "filter_retained", "narrative.filter_retained",
     lambda a, r: {"scored": len(a["scored"]), "retained": len(r)}),
    ("aiblob.narrative", None, "segment_narrative", "narrative.segment_narrative", None),
    ("aiblob.narrative", None, "order_sections", "narrative.order_sections", None),
    ("aiblob.narrative", None, "save_plan", "narrative.save_plan", None),
    ("aiblob.montage", None, "build_edl", "montage.build_edl",
     lambda a, r: {"clips": len(r.all_clips())}),
    ("aiblob.montage", None, "save_edl", "montage.save_edl", None),
    ("aiblob.montage", None, "load_edl", "montage.load_edl", None),
    ("aiblob.montage", None, "build_render_plan", "montage.build_render_plan", None),
    ("aiblob.config", None, "load_config", "config.load_config", None),
    ("aiblob.cli", None, "cmd_ingest", "cli.command", None),
    ("aiblob.cli", None, "cmd_index", "cli.command", None),
    ("aiblob.cli", None, "cmd_compose", "cli.command", None),
    ("aiblob.cli", None, "cmd_render", "cli.command", None),
]


def _wrap(recorder: Recorder, fn, name: str, attrs):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if attrs is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            recorder.spans[index]["attrs"] = attrs(bound.arguments, result)
        return result

    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every entry of WRAPPED, rebinding names other aiblob modules imported."""
    for module_name, owner_name, attr, name, attrs in WRAPPED:
        module = sys.modules[module_name]
        if owner_name is not None:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(_wrap(recorder, raw.__func__, name, attrs)))
            else:
                setattr(owner, attr, _wrap(recorder, raw, name, attrs))
            continue
        original = getattr(module, attr)
        wrapped = _wrap(recorder, original, name, attrs)
        for other_name, other in list(sys.modules.items()):
            if other_name.startswith("aiblob") and getattr(other, attr, None) is original:
                setattr(other, attr, wrapped)


def main(argv: list[str]) -> int:
    spans_path, command = argv[0], argv[1:]
    recorder = Recorder()
    index = recorder.open("cli.import")
    import aiblob.cli  # noqa: F401  (imports every layer)
    recorder.close(index)
    install(recorder)
    code = sys.modules["aiblob.cli"].main(command)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"argv": command, "exit": code, "spans": recorder.spans}, handle)
    return code


# ----------------------------------------------------------------------
# Per-layer metrics from the spans of one build and one episode
# ----------------------------------------------------------------------

# name, unit, better, how it is read from the spans.
PER_LAYER = [
    ("ingest.parse_transcript_s", "s", "lower", "total time of parse_transcript (ingest)"),
    ("ingest.segment_sentences_s", "s", "lower", "total time of segment_sentences (ingest)"),
    ("ingest.export_corpus_s", "s", "lower", "total time of export_corpus (ingest)"),
    ("ingest.load_corpus_s", "s", "lower", "total time of load_corpus (index)"),
    ("ingest.words", "count", "higher", "words parsed (ingest)"),
    ("ingest.sentences", "count", "higher", "sentences exported (ingest)"),
    ("embeddings.embed_batch_s", "s", "lower", "total time of embed_batch (index and compose)"),
    ("embeddings.us_per_text", "us", "lower", "embed_batch time per text embedded"),
    ("embeddings.texts", "count", "lower", "texts passed to embed_batch"),
    ("embeddings.provider_calls", "count", "lower", "calls to the embedding provider"),
    ("store.insert_batch_s", "s", "lower", "total time of insert_batch (index)"),
    ("store.save_s", "s", "lower", "total time of save (index)"),
    ("store.bytes_written", "B", "lower", "meta.jsonl + vectors.bin bytes after save"),
    ("store.load_s", "s", "lower", "total time of load (compose)"),
    ("store.bytes_read", "B", "lower", "meta.jsonl + vectors.bin bytes loaded (compose)"),
    ("store.top_k_calls", "count", "lower", "top_k calls (compose)"),
    ("store.top_k_first_ms", "ms", "lower", "the first top_k call, which builds caches"),
    ("store.top_k_ms", "ms", "lower", "median top_k call after the first"),
    ("store.top_k_p90_ms", "ms", "lower", "90th percentile top_k call after the first"),
    ("store.rows_scored_per_hit", "count", "lower", "store rows scanned per hit returned"),
    ("store.excluded_at_last_query", "count", "higher", "excluded ids passed to the last top_k"),
    ("llm.replay_load_s", "s", "lower", "total time reading the replay file"),
    ("llm.provider_calls", "count", "lower", "provider calls (compose)"),
    ("llm.provider_s", "s", "lower", "total provider time (compose)"),
    ("llm.orchestration_s", "s", "lower", "self time of Orchestrator methods (provider excluded)"),
    ("llm.reask_calls", "count", "lower", "score calls beyond one per batch"),
    ("llm.defaulted_scores", "count", "lower", "scores defaulted to 1/1"),
    ("llm.warnings", "count", "lower", "orchestrator warnings"),
    ("narrative.retrieve_candidates_self_s", "s", "lower",
     "self time of retrieve_candidates (embedding and top_k excluded)"),
    ("narrative.candidates", "count", "higher", "candidates retrieved"),
    ("narrative.retained_ratio", "ratio", "higher", "retained / scored"),
    ("narrative.segment_narrative_s", "s", "lower", "total time of segment_narrative"),
    ("narrative.order_sections_s", "s", "lower", "self time of order_sections (LLM excluded)"),
    ("narrative.save_plan_s", "s", "lower", "total time of save_plan"),
    ("montage.build_edl_s", "s", "lower", "total time of build_edl (compose)"),
    ("montage.save_edl_s", "s", "lower", "total time of save_edl (compose)"),
    ("montage.load_edl_s", "s", "lower", "total time of load_edl (render)"),
    ("montage.build_render_plan_s", "s", "lower", "total time of build_render_plan (render)"),
    ("montage.clips", "count", "higher", "clips in the EDL"),
    ("config.load_config_s", "s", "lower", "total time of load_config (all commands)"),
    ("cli.import_s", "s", "lower", "importing aiblob.cli (all commands)"),
    ("cli.self_s", "s", "lower", "self time of the cmd_* functions, JSON-lines writers included"),
    ("trace.overhead_s", "s", "lower", "traced minus untraced paced time of the same commands"),
]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def derive_metrics(commands: dict[str, list[dict]], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of each command of one build and one episode."""

    def spans(command: str, name: str) -> list[dict]:
        return [s for s in commands[command] if s["name"] == name]

    def total(command: str, name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans(command, name))

    def own(command: str, names: tuple[str, ...]) -> float:
        mine = self_times(commands[command])
        return sum(t for s, t in zip(commands[command], mine) if s["name"] in names)

    def attr(command: str, name: str, key: str) -> list:
        return [s["attrs"][key] for s in spans(command, name)]

    everywhere = list(commands)
    embed_s = sum(total(c, "embeddings.embed_batch") for c in everywhere)
    texts = sum(sum(attr(c, "embeddings.embed_batch", "texts")) for c in everywhere)
    top_k = spans("compose", "store.top_k")
    later_ms = [(s["end"] - s["start"]) * 1e3 for s in top_k[1:]] or [0.0]
    scored = attr("compose", "narrative.filter_retained", "scored")
    compose = commands["compose"]
    score_calls = sum(1 for s in compose if s["name"] == "llm.provider"
                      and s["attrs"]["op"] == "score"
                      and compose[s["parent"]]["name"] == "llm.score_batch")
    orchestrator = ("llm.generate_themes", "llm.generate_queries", "llm.score_batch",
                    "llm.order_section")
    warnings = [s["attrs"]["warnings"] for s in compose if s["name"] in orchestrator]
    return {
        "ingest.parse_transcript_s": total("ingest", "ingest.parse_transcript"),
        "ingest.segment_sentences_s": total("ingest", "ingest.segment_sentences"),
        "ingest.export_corpus_s": total("ingest", "ingest.export_corpus"),
        "ingest.load_corpus_s": total("index", "ingest.load_corpus"),
        "ingest.words": sum(attr("ingest", "ingest.parse_transcript", "words")),
        "ingest.sentences": sum(attr("ingest", "ingest.export_corpus", "sentences")),
        "embeddings.embed_batch_s": embed_s,
        "embeddings.us_per_text": embed_s / max(texts, 1) * 1e6,
        "embeddings.texts": texts,
        "embeddings.provider_calls": sum(len(spans(c, "embeddings.provider")) for c in everywhere),
        "store.insert_batch_s": total("index", "store.insert_batch"),
        "store.save_s": total("index", "store.save"),
        "store.bytes_written": sum(attr("index", "store.save", "bytes")),
        "store.load_s": total("compose", "store.load"),
        "store.bytes_read": sum(attr("compose", "store.load", "bytes")),
        "store.top_k_calls": len(top_k),
        "store.top_k_first_ms": (top_k[0]["end"] - top_k[0]["start"]) * 1e3 if top_k else 0.0,
        "store.top_k_ms": statistics.median(later_ms),
        "store.top_k_p90_ms": nearest_rank(later_ms, 90),
        "store.rows_scored_per_hit": (sum(s["attrs"]["rows"] for s in top_k)
                                      / max(1, sum(s["attrs"]["hits"] for s in top_k))),
        "store.excluded_at_last_query": top_k[-1]["attrs"]["excluded"] if top_k else 0,
        "llm.replay_load_s": total("compose", "llm.replay_load"),
        "llm.provider_calls": len(spans("compose", "llm.provider")),
        "llm.provider_s": total("compose", "llm.provider"),
        "llm.orchestration_s": own("compose", orchestrator),
        "llm.reask_calls": score_calls - sum(attr("compose", "llm.score_batch", "batches")),
        "llm.defaulted_scores": max(attr("compose", "llm.score_batch", "defaulted"), default=0),
        "llm.warnings": max(warnings, default=0),
        "narrative.retrieve_candidates_self_s": own("compose", ("narrative.retrieve_candidates",)),
        "narrative.candidates": sum(attr("compose", "narrative.retrieve_candidates", "candidates")),
        "narrative.retained_ratio": (sum(attr("compose", "narrative.filter_retained", "retained"))
                                     / max(1, sum(scored))),
        "narrative.segment_narrative_s": total("compose", "narrative.segment_narrative"),
        "narrative.order_sections_s": own("compose", ("narrative.order_sections",)),
        "narrative.save_plan_s": total("compose", "narrative.save_plan"),
        "montage.build_edl_s": total("compose", "montage.build_edl"),
        "montage.save_edl_s": total("compose", "montage.save_edl"),
        "montage.load_edl_s": total("render", "montage.load_edl"),
        "montage.build_render_plan_s": total("render", "montage.build_render_plan"),
        "montage.clips": sum(attr("compose", "montage.build_edl", "clips")),
        "config.load_config_s": sum(total(c, "config.load_config") for c in everywhere),
        "cli.import_s": sum(total(c, "cli.import") for c in everywhere),
        "cli.self_s": sum(own(c, ("cli.command",)) for c in everywhere),
        "trace.overhead_s": overhead_s,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
