"""Narrative planning over scored archive sentences.

Pure, deterministic algorithms: retrieval with cross-query exclusion, OR-rule
threshold filtering, quota-based assignment of retained sentences into the
four montage sections, and in-section ordering. Identical inputs always give
identical plans; the only nondeterministic path is the optional LLM ordering
strategy, and even that falls back deterministically.

Section semantics:

* climax holds the highest-irony sentences;
* introduction favors thematically relevant but less ironic material
  (highest relevance-minus-irony margin);
* conclusion picks sentences closest to the remainder's median irony and
  relevance (moderated, balanced closers);
* build_up is everything else, later ordered by rising irony.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from .embeddings import QUERY_INPUT, embed_batch
from .errors import ConfigError, ParseError, PlanError, ValidationError
from .llm import SCORE_MAX, SCORE_MIN, Candidate, QueryPhrase, ScoredSentence
from .store import VectorStore
from .util import (bounded, check_field_types, check_keys, from_json, load_json, round_half_away,
                   write_json)

PLAN_FORMAT = "aiblob-plan"
PLAN_VERSION = 1
# The top-level keys of a plan file, as save_plan writes them.
PLAN_KEYS = ("format", "version", "episode_title", "sections", "scores")

SECTION_ORDER = ("introduction", "build_up", "climax", "conclusion")


def read_sections(raw: Any, path: str, read_item: Callable[[Any, str], Any]) -> dict[str, list]:
    """The sections object of a plan or EDL file, in SECTION_ORDER: exactly those
    keys, each a list whose items ``read_item(item, where)`` reads; else ParseError."""
    where = f"{path}: sections"
    check_keys(raw, SECTION_ORDER, ParseError, where)
    sections = {}
    for name in SECTION_ORDER:
        items = raw[name]
        if not isinstance(items, list):
            raise ParseError(f"{where}: {name} must be a list, got {type(items).__name__}")
        sections[name] = [read_item(item, f"{where}.{name}[{i}]") for i, item in enumerate(items)]
    return sections

ORDERING_STRATEGIES = ("deterministic", "llm")


@dataclass
class PipelineConfig:
    """Tunable knobs for one episode; defaults suit a 1-10 scoring scale."""

    k_per_query: int = bounded(10, lo=1)
    irony_threshold: int = bounded(7, lo=SCORE_MIN, hi=SCORE_MAX)
    relevance_threshold: int = bounded(7, lo=SCORE_MIN, hi=SCORE_MAX)
    climax_quota: float = 0.20
    introduction_quota: float = 0.15
    conclusion_quota: float = 0.15
    themes: int = bounded(5, lo=1)
    phrases_per_theme: int = bounded(4, lo=1)
    video_cap: int | None = bounded(None, lo=1)
    ordering: str = "deterministic"
    min_retained: int = bounded(4, lo=4)

    def __post_init__(self):
        check_field_types(self)
        quotas = (self.climax_quota, self.introduction_quota, self.conclusion_quota)
        for name, value in zip(("climax_quota", "introduction_quota", "conclusion_quota"), quotas):
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must be in (0, 1), got {value}")
        if sum(quotas) >= 1.0:
            raise ConfigError(f"section quotas must sum below 1, got {sum(quotas)}")
        if self.ordering not in ORDERING_STRATEGIES:
            raise ConfigError(f"ordering must be one of {ORDERING_STRATEGIES}, got {self.ordering!r}")


@dataclass
class PlanScore:
    """One entry of a plan file's scores object, keyed there by sentence id."""

    irony: int = bounded(lo=SCORE_MIN, hi=SCORE_MAX)
    relevance: int = bounded(lo=SCORE_MIN, hi=SCORE_MAX)


@dataclass
class NarrativePlan:
    """Ordered assignment of sentence ids to the four montage sections."""

    episode_title: str
    sections: dict[str, list[str]] = field(default_factory=dict)

    def all_ids(self) -> list[str]:
        return [sid for name in SECTION_ORDER for sid in self.sections.get(name, [])]


def retrieve_candidates(
    queries: Sequence[QueryPhrase],
    store: VectorStore,
    embedder,
    config: PipelineConfig,
) -> list[Candidate]:
    """Run every query against the store, excluding earlier queries' picks.

    Queries are processed in order; each top_k call excludes the union of all
    previously selected ids, so no sentence appears twice in the result. The
    result is the concatenation of per-query hits, tagged with the query index.
    """
    if not queries:
        raise ValidationError("retrieve_candidates requires at least one query")
    vectors = embed_batch([q.text for q in queries], embedder, input_type=QUERY_INPUT)
    selected: list[Candidate] = []
    excluded: set[str] = set()
    for query_index, vector in enumerate(vectors):
        hits = store.top_k(vector, config.k_per_query, exclude=excluded,
                           video_cap=config.video_cap)
        for hit in hits:
            record = hit.record
            selected.append(Candidate(record.sentence_id, record.video_id, record.text,
                                      record.start_s, record.end_s, query_index))
            excluded.add(hit.sentence_id)
    return selected


def filter_retained(
    scored: Sequence[ScoredSentence],
    irony_threshold: int,
    relevance_threshold: int,
) -> list[ScoredSentence]:
    """Keep sentences whose irony OR relevance meets its threshold, in order."""
    return [
        s for s in scored
        if s.irony >= irony_threshold or s.relevance >= relevance_threshold
    ]


def section_quotas(n: int, config: PipelineConfig) -> dict[str, int]:
    """Head counts per section for n retained sentences (each at least 1)."""
    n_climax = max(1, round_half_away(config.climax_quota * n))
    n_intro = max(1, round_half_away(config.introduction_quota * n))
    n_conclusion = max(1, round_half_away(config.conclusion_quota * n))
    n_build = n - n_climax - n_intro - n_conclusion
    if n_build < 1:
        raise PlanError(
            f"section quotas leave no build-up sentences for n={n} "
            f"(climax={n_climax}, introduction={n_intro}, conclusion={n_conclusion})"
        )
    return {
        "introduction": n_intro,
        "build_up": n_build,
        "climax": n_climax,
        "conclusion": n_conclusion,
    }


def segment_narrative(
    retained: Sequence[ScoredSentence],
    config: PipelineConfig,
    episode_title: str = "",
) -> NarrativePlan:
    """Partition retained sentences into the four sections (not yet ordered).

    Selection pipeline:
      1. climax: top quota by (irony desc, relevance desc, id asc);
      2. introduction: from the remainder, top quota by relevance-minus-irony
         desc, ties (relevance desc, id asc);
      3. conclusion: from the new remainder, the quota closest to that
         remainder's lower-median irony and relevance (L1 distance asc,
         ties id asc);
      4. build_up: everything left.
    """
    n = len(retained)
    if n < config.min_retained:
        raise PlanError(
            f"only {n} sentences retained, need at least {config.min_retained}; "
            f"consider lowering the irony/relevance thresholds "
            f"({config.irony_threshold}/{config.relevance_threshold})"
        )
    ids = [s.sentence_id for s in retained]
    if len(set(ids)) != len(ids):
        raise ValidationError("retained sentences contain duplicate ids")

    quotas = section_quotas(n, config)
    pool = list(retained)

    climax = _take_top(pool, quotas["climax"],
                       key=lambda s: (-s.irony, -s.relevance, s.sentence_id))
    introduction = _take_top(pool, quotas["introduction"],
                             key=lambda s: (-(s.relevance - s.irony), -s.relevance, s.sentence_id))
    median_irony = statistics.median_low([s.irony for s in pool])
    median_relevance = statistics.median_low([s.relevance for s in pool])
    conclusion = _take_top(
        pool, quotas["conclusion"],
        key=lambda s: (abs(s.irony - median_irony) + abs(s.relevance - median_relevance),
                       s.sentence_id),
    )
    build_up = pool  # whatever remains, still in retained order

    return NarrativePlan(
        episode_title=episode_title,
        sections={
            "introduction": [s.sentence_id for s in introduction],
            "build_up": [s.sentence_id for s in build_up],
            "climax": [s.sentence_id for s in climax],
            "conclusion": [s.sentence_id for s in conclusion],
        },
    )


def _take_top(pool: list[ScoredSentence], n: int, key) -> list[ScoredSentence]:
    chosen = sorted(pool, key=key)[:n]
    chosen_ids = {s.sentence_id for s in chosen}
    pool[:] = [s for s in pool if s.sentence_id not in chosen_ids]
    return chosen


def contrast_interleave(members: Sequence[ScoredSentence]) -> list[ScoredSentence]:
    """Alternate the extremes: max, min, next-max, next-min... of the score order.

    Members are sorted ascending by (irony, relevance, id) first, so the
    output starts from the most ironic sentence and ping-pongs to the least.
    """
    if not members:
        raise ValidationError("contrast_interleave requires a non-empty section")
    ordered = sorted(members, key=lambda s: (s.irony, s.relevance, s.sentence_id))
    out: list[ScoredSentence] = []
    lo, hi = 0, len(ordered) - 1
    take_high = True
    while lo <= hi:
        if take_high:
            out.append(ordered[hi])
            hi -= 1
        else:
            out.append(ordered[lo])
            lo += 1
        take_high = not take_high
    return out


def _order_introduction(members: Sequence[ScoredSentence]) -> list[str]:
    return [s.sentence_id for s in
            sorted(members, key=lambda s: (-s.relevance, s.irony, s.sentence_id))]


def _order_build_up(members: Sequence[ScoredSentence]) -> list[str]:
    return [s.sentence_id for s in
            sorted(members, key=lambda s: (s.irony, s.relevance, s.sentence_id))]


def _order_climax(members: Sequence[ScoredSentence]) -> list[str]:
    return [s.sentence_id for s in contrast_interleave(members)]


def _order_conclusion(members: Sequence[ScoredSentence]) -> list[str]:
    return [s.sentence_id for s in
            sorted(members, key=lambda s: (-s.irony, -s.relevance, s.sentence_id))]


DETERMINISTIC_SECTION_RULES: dict[str, Callable[[Sequence[ScoredSentence]], list[str]]] = {
    "introduction": _order_introduction,  # strongest thematic anchor first
    "build_up": _order_build_up,          # monotone irony escalation
    "climax": _order_climax,              # maximum contrast between neighbors
    "conclusion": _order_conclusion,      # de-escalation toward closure
}


def order_sections(
    plan: NarrativePlan,
    scored: Mapping[str, ScoredSentence],
    config: PipelineConfig,
    orchestrator=None,
    texts: Mapping[str, str] | None = None,
) -> NarrativePlan:
    """Order each section, deterministically or via the LLM with fallback."""
    texts = texts or {}
    ordered_sections: dict[str, list[str]] = {}
    for name in SECTION_ORDER:
        ids = plan.sections.get(name, [])
        if not ids:
            ordered_sections[name] = []
            continue
        try:
            members = [scored[sid] for sid in ids]
        except KeyError as exc:
            raise PlanError(f"section {name!r} references unscored sentence {exc}") from exc
        rule = DETERMINISTIC_SECTION_RULES[name]
        if config.ordering == "llm":
            if orchestrator is None:
                raise ConfigError("llm ordering strategy requires an orchestrator")
            ordered_sections[name] = orchestrator.order_section(name, members, texts, rule)
        else:
            ordered_sections[name] = rule(members)
    return NarrativePlan(plan.episode_title, ordered_sections)


# ----------------------------------------------------------------------
# Plan file I/O
# ----------------------------------------------------------------------

def save_plan(plan: NarrativePlan, scored: Mapping[str, ScoredSentence], path: str) -> None:
    """Write the plan file; scores are included per id, sorted for stable bytes."""
    write_json(path, {
        "format": PLAN_FORMAT,
        "version": PLAN_VERSION,
        "episode_title": plan.episode_title,
        "sections": {name: list(plan.sections.get(name, [])) for name in SECTION_ORDER},
        "scores": {
            sid: vars(PlanScore(scored[sid].irony, scored[sid].relevance))
            for sid in sorted(plan.all_ids())
        },
    })


def _read_id(item: Any, where: str) -> str:
    if not isinstance(item, str):
        raise ParseError(f"{where}: must be a sentence id string, got {item!r}")
    return item


def load_plan(path: str) -> tuple[NarrativePlan, dict[str, ScoredSentence]]:
    payload = load_json(path)
    if not isinstance(payload, dict) or payload.get("format") != PLAN_FORMAT:
        raise ParseError(f"{path}: not a plan file")
    if payload.get("version") != PLAN_VERSION:
        raise ParseError(f"{path}: unsupported plan version {payload.get('version')!r}")
    check_keys(payload, PLAN_KEYS, ParseError, path)
    sections = read_sections(payload["sections"], path, _read_id)
    plan = NarrativePlan(payload["episode_title"], sections)
    check_field_types(plan, ParseError, path)
    ids = plan.all_ids()
    repeated = sorted(sid for sid, count in Counter(ids).items() if count > 1)
    if repeated:
        raise ValidationError(f"{path}: sections are not disjoint (e.g. {repeated[:3]})")

    scores = payload["scores"]
    if not isinstance(scores, dict):
        raise ParseError(f"{path}: scores must be an object, got {type(scores).__name__}")
    stray = sorted(scores.keys() - set(ids))
    if stray:
        raise ParseError(f"{path}: scores of {stray[0]}: the id is in no section")
    scored: dict[str, ScoredSentence] = {}
    for sid, entry in scores.items():
        score = from_json(PlanScore, entry, ParseError, f"{path}: scores of {sid}")
        scored[sid] = ScoredSentence(sid, score.irony, score.relevance)
    missing = [sid for sid in ids if sid not in scored]
    if missing:
        raise ValidationError(f"{path}: missing scores for {missing[:3]}")
    return plan, scored
