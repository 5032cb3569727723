"""The benchmark's own reference for what `aiblob compose` must produce.

Nothing here uses the program's code. Embeddings are recomputed with a
vectorized copy of the documented `deterministic:<dim>` rule (FNV-1a seed,
splitmix64 stream, unit norm); retrieval is a brute-force float64 scan with
the documented rules (score descending, ties by sentence id ascending,
earlier picks excluded, optional per-video cap); scores come from a seeded
hash; and section membership follows the documented OR filter and quota
rules. From that the scripter writes a replay file holding every provider
reply the episode needs, and the checks compare the program's outputs with
the expectations recorded here.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass

import numpy as np

from archive import ExpectedSentence, make_vocabulary

SECTION_ORDER = ("introduction", "build_up", "climax", "conclusion")
SCORE_BATCH = 20
THRESHOLD = 7
QUOTAS = {"climax": 0.20, "introduction": 0.15, "conclusion": 0.15}

_FNV_OFFSET = np.uint64(14695981039346656037)
_FNV_PRIME = np.uint64(1099511628211)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def fnv1a_rows(texts: list[str]) -> np.ndarray:
    """64-bit FNV-1a of each text's UTF-8 bytes, one vectorized pass per byte column."""
    encoded = [t.encode("utf-8") for t in texts]
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    order = np.argsort(-lengths, kind="stable")
    longest = int(lengths.max()) if len(encoded) else 0
    grid = np.zeros((len(encoded), longest), dtype=np.uint8)
    for row, i in enumerate(order.tolist()):
        grid[row, :lengths[i]] = np.frombuffer(encoded[i], dtype=np.uint8)
    sorted_lengths = lengths[order]
    h = np.full(len(encoded), _FNV_OFFSET, dtype=np.uint64)
    for col in range(longest):
        active = int(np.searchsorted(-sorted_lengths, -col, side="left"))
        h[:active] = (h[:active] ^ grid[:active, col].astype(np.uint64)) * _FNV_PRIME
    out = np.empty_like(h)
    out[order] = h
    return out


def embed_texts(texts: list[str], dim: int, chunk: int = 16384) -> np.ndarray:
    """float32 (len(texts), dim) matrix of `deterministic:<dim>` embeddings.

    The norm is a left-to-right sum of squares (`cumsum`), as a scalar loop
    computes it, so the float32 output is bit-identical to the scalar rule.
    """
    out = np.empty((len(texts), dim), dtype=np.float32)
    for lo in range(0, len(texts), chunk):
        state = fnv1a_rows(texts[lo:lo + chunk])
        raw = np.empty((len(state), dim), dtype=np.float64)
        for j in range(dim):
            state = state + _GOLDEN
            z = (state ^ (state >> np.uint64(30))) * _MIX1
            z = (z ^ (z >> np.uint64(27))) * _MIX2
            z = z ^ (z >> np.uint64(31))
            raw[:, j] = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53 * 2.0 - 1.0
        norm = np.sqrt(np.cumsum(raw * raw, axis=1)[:, -1])
        out[lo:lo + len(state)] = (raw / norm[:, None]).astype(np.float32)
    return out


def round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


@dataclass
class EpisodeSpec:
    """One `compose` invocation: its title, provider script shape and knobs."""

    name: str
    title: str
    themes: list[str]
    queries: list[tuple[int, str]]
    k: int
    video_cap: int | None
    ordering: str
    drop_every: int  # every n-th id of a score batch is left out of the first reply; 0: none
    salt: str

    def config(self, dim: int) -> dict:
        return {
            "pipeline": {
                "k_per_query": self.k,
                "irony_threshold": THRESHOLD,
                "relevance_threshold": THRESHOLD,
                **{f"{name}_quota": share for name, share in QUOTAS.items()},
                "themes": len(self.themes),
                "phrases_per_theme": len(self.queries) // len(self.themes),
                "video_cap": self.video_cap,
                "ordering": self.ordering,
                "min_retained": 4,
            },
            "providers": {"embedder": f"deterministic:{dim}", "score_batch_size": SCORE_BATCH,
                          "retries": 3},
            "media": {"uri_template": "media/{video_id}.mp4", "intro_uri": None},
        }


def make_episode(seed: int, name: str, n_themes: int, per_theme: int, k: int,
                 video_cap: int | None, ordering: str, drop_every: int) -> EpisodeSpec:
    rng = np.random.default_rng([seed, n_themes, per_theme, k])
    words = make_vocabulary(rng, 3000)

    def phrase(lo: int, hi: int) -> str:
        picks = rng.integers(0, len(words), size=int(rng.integers(lo, hi)))
        return " ".join(words[int(i)] for i in picks)

    themes: list[str] = []
    while len(themes) < n_themes:
        text = phrase(4, 9)
        if text not in themes:
            themes.append(text)
    queries: list[tuple[int, str]] = []
    seen: set[str] = set()
    for ti in range(n_themes):
        taken = 0
        while taken < per_theme:
            text = phrase(2, 6)
            if text.casefold() not in seen:
                seen.add(text.casefold())
                queries.append((ti, text))
                taken += 1
    return EpisodeSpec(name, phrase(2, 5).capitalize(), themes, queries, k, video_cap,
                       ordering, drop_every, salt=f"{seed}:{name}")


@dataclass
class Expected:
    """What one episode must produce, and the replay file that drives it."""

    candidates: list[tuple[str, int]]
    scores: dict[str, tuple[int, int]]
    retained: list[str]
    sections: dict[str, list[str]]
    ordered: bool  # sections hold the exact order (scripted LLM ordering)
    replay_lines: list[str]
    reasks: int
    defaulted: int


class Oracle:
    """Brute-force float64 retrieval over the expected corpus."""

    def __init__(self, sentences: list[ExpectedSentence], dim: int):
        self.dim = dim
        self.ids = [s.sentence_id for s in sentences]
        self.videos = [s.video_id for s in sentences]
        self.matrix = embed_texts([s.text for s in sentences], dim).astype(np.float64)
        self.id_rank = np.empty(len(self.ids), dtype=np.int64)
        self.id_rank[np.argsort(np.array(self.ids))] = np.arange(len(self.ids))

    def retrieve(self, query_texts: list[str], k: int,
                 video_cap: int | None) -> list[tuple[str, int]]:
        """Every query's top k, in query order, excluding ids picked by earlier queries."""
        vectors = embed_texts(query_texts, self.dim).astype(np.float64)
        picked: list[tuple[str, int]] = []
        excluded: set[int] = set()
        for qi, q in enumerate(vectors):
            scores = np.clip(self.matrix @ q, -1.0, 1.0)
            # Rank only the rows scoring at least the m-th best score (ties
            # included), which hold the answer unless the video cap skips
            # too many of them; then rank every row.
            m = min(len(scores), k + len(excluded) + (k * 4 if video_cap else 0))
            floor = np.partition(scores, len(scores) - m)[len(scores) - m]
            rows = np.flatnonzero(scores >= floor)
            hits = self._top(rows, scores, k, excluded, video_cap)
            if len(hits) < k and len(rows) < len(scores):
                hits = self._top(np.arange(len(scores)), scores, k, excluded, video_cap)
            picked.extend((self.ids[row], qi) for row in hits)
            excluded.update(hits)
        return picked

    def _top(self, rows: np.ndarray, scores: np.ndarray, k: int, excluded: set[int],
             video_cap: int | None) -> list[int]:
        """The first k of `rows` by (score desc, id asc), skipping excluded and capped rows."""
        hits: list[int] = []
        per_video: dict[str, int] = {}
        for row in rows[np.lexsort((self.id_rank[rows], -scores[rows]))].tolist():
            if row in excluded:
                continue
            if video_cap is not None:
                used = per_video.get(self.videos[row], 0)
                if used >= video_cap:
                    continue
                per_video[self.videos[row]] = used + 1
            hits.append(row)
            if len(hits) == k:
                break
        return hits


def pseudo_scores(salt: str, sentence_id: str) -> tuple[int, int]:
    digest = hashlib.sha256(f"{salt}\x1f{sentence_id}".encode("utf-8")).digest()
    return 1 + digest[0] % 10, 1 + digest[1] % 10


def quotas(n: int) -> dict[str, int]:
    sizes = {name: max(1, round_half_away(share * n)) for name, share in QUOTAS.items()}
    return {"introduction": sizes["introduction"],
            "build_up": n - sum(sizes.values()),
            "climax": sizes["climax"],
            "conclusion": sizes["conclusion"]}


def sections_for(retained: list[str], scores: dict[str, tuple[int, int]]) -> dict[str, list[str]]:
    """Section membership by the documented quota rules (members in selection order)."""
    q = quotas(len(retained))
    pool = list(retained)

    def take(n: int, key) -> list[str]:
        chosen = sorted(pool, key=key)[:n]
        taken = set(chosen)
        pool[:] = [sid for sid in pool if sid not in taken]
        return chosen

    climax = take(q["climax"], lambda s: (-scores[s][0], -scores[s][1], s))
    intro = take(q["introduction"], lambda s: (-(scores[s][1] - scores[s][0]), -scores[s][1], s))
    mid_i = statistics.median_low([scores[s][0] for s in pool])
    mid_r = statistics.median_low([scores[s][1] for s in pool])
    conclusion = take(q["conclusion"],
                      lambda s: (abs(scores[s][0] - mid_i) + abs(scores[s][1] - mid_r), s))
    return {"introduction": intro, "build_up": pool, "climax": climax, "conclusion": conclusion}


def script_episode(spec: EpisodeSpec, oracle: Oracle) -> Expected:
    """Expected outputs of `spec` against the oracle's corpus, with its replay script."""
    candidates = oracle.retrieve([text for _, text in spec.queries], spec.k, spec.video_cap)
    lines = [
        {"op": "themes", "response": {"themes": spec.themes}},
        {"op": "queries", "response": {"queries": [
            {"theme_index": ti, "text": text} for ti, text in spec.queries]}},
    ]
    scores: dict[str, tuple[int, int]] = {}
    reasks = defaulted = 0
    ids = [sid for sid, _ in candidates]
    for batch_no, lo in enumerate(range(0, len(ids), SCORE_BATCH)):
        batch = ids[lo:lo + SCORE_BATCH]
        dropped = [sid for j, sid in enumerate(batch)
                   if spec.drop_every and j % spec.drop_every == spec.drop_every - 1]
        answered = [sid for sid in batch if sid not in dropped]
        lines.append({"op": "score", "response": {"scores": [
            _score_entry(spec.salt, sid) for sid in answered]}})
        if dropped:
            reasks += 1
            # Every tenth re-ask still leaves one id out, which the program
            # must default to 1/1.
            still_missing = dropped[:1] if batch_no % 10 == 9 else []
            lines.append({"op": "score", "response": {"scores": [
                _score_entry(spec.salt, sid) for sid in dropped if sid not in still_missing]}})
            for sid in still_missing:
                scores[sid] = (1, 1)
                defaulted += 1
        for sid in batch:
            scores.setdefault(sid, pseudo_scores(spec.salt, sid))
    retained = [sid for sid in ids if scores[sid][0] >= THRESHOLD or scores[sid][1] >= THRESHOLD]
    sections = sections_for(retained, scores)
    ordered = spec.ordering == "llm"
    if ordered:
        rng = np.random.default_rng(list(spec.salt.encode()))
        for name in SECTION_ORDER:
            members = sections[name]
            if len(members) >= 2:
                members = [members[i] for i in rng.permutation(len(members)).tolist()]
                lines.append({"op": "order", "response": {"order": members}})
                sections[name] = members
    return Expected(
        candidates=candidates,
        scores=scores,
        retained=retained,
        sections=sections,
        ordered=ordered,
        replay_lines=[json.dumps(line, ensure_ascii=False) for line in lines],
        reasks=reasks,
        defaulted=defaulted,
    )


def _score_entry(salt: str, sid: str) -> dict:
    irony, relevance = pseudo_scores(salt, sid)
    return {"id": sid, "irony": irony, "relevance": relevance, "rationale": ""}
