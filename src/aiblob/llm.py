"""LLM orchestration: theme ideation, query phrasing, dual scoring, ordering.

Every generative step goes through a provider implementing
``complete(op, payload) -> dict``. Two providers ship here:

* RemoteChatProvider — a chat-completions style HTTPS endpoint whose reply
  content must be a machine-parseable JSON object (free text is malformed).
* ScriptedProvider — replays canned responses from a line-delimited file,
  one FIFO queue per op type, for fully offline and deterministic runs.

The orchestrator validates everything a model returns: themes and queries are
deduplicated, scores rounded and clamped, orderings checked to be true
permutations with a deterministic fallback. A misbehaving model can therefore
degrade an episode (with warnings) but never corrupt or abort it mid-plan.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .errors import ParseError, ProviderError, ValidationError
from .util import (DEFAULT_RETRIES, is_finite_number, parse_json_line, post_json, read_text,
                   retry, round_half_away)

LLM_API_KEY_ENV = "AIBLOB_LLM_API_KEY"

OPS = ("themes", "queries", "score", "order")

SCORE_MIN = 1
SCORE_MAX = 10

DEFAULT_SCORE_BATCH = 20

# Prompt wording is versioned here but is not part of the provider contract;
# only the JSON response schemas are.
PROMPTS = {
    "themes": (
        "You help edit satirical montages from television archives. The user "
        "message is a JSON payload with an episode title and a count. Propose "
        "that many distinct thematic angles on the title, preferring sideways, "
        "absurd or self-contradictory readings over literal ones. Reply with "
        'JSON only: {"themes": ["..."]}.'
    ),
    "queries": (
        "You help edit satirical montages from television archives. The user "
        "message is a JSON payload with an episode title, a list of themes and "
        "per_theme. For each theme write per_theme short search phrases in the "
        "language of the archive, phrased the way people actually speak on "
        'television. Reply with JSON only: {"queries": [{"theme_index": 0, '
        '"text": "..."}]}.'
    ),
    "score": (
        "You rate archive sentences for a satirical montage. The user message "
        "is a JSON payload with an episode title, themes and sentences. For "
        "each sentence give an integer irony score 1-10 (how sharply it lands "
        "as absurd, double-edged or self-undermining once cut from its "
        "original context) and an integer relevance score 1-10 (how strongly "
        "it connects to the title and themes, directly or sideways). Reply "
        'with JSON only: {"scores": [{"id": "...", "irony": 7, "relevance": 5, '
        '"rationale": "..."}]}.'
    ),
    "order": (
        "You sequence one section of a satirical montage. The user message is "
        "a JSON payload with the section name and its sentences with scores. "
        "Return the ids reordered so neighboring sentences clash in tone and "
        "meaning as much as possible while serving the section's narrative "
        'role. Reply with JSON only: {"order": ["id", ...]} containing every '
        "input id exactly once."
    ),
}


@dataclass
class ThemeIdea:
    index: int
    description: str


@dataclass
class QueryPhrase:
    theme_index: int
    text: str


@dataclass
class Candidate:
    """A retrieved sentence with the index of the query that found it; its
    fields, in declaration order, are one line of candidates.jsonl."""

    sentence_id: str
    video_id: str
    text: str
    start_s: float
    end_s: float
    source_query_index: int


@dataclass
class ScoredSentence:
    sentence_id: str
    irony: int
    relevance: int
    rationale: str = ""
    source_query_index: int = 0


class ScriptedProvider:
    """Replay provider reading line-delimited {"op": str, "response": {...}} records.

    Responses are consumed in file order per op type; asking for more than the
    file holds raises ProviderError. Note that a score re-ask consumes an extra
    "score" response, so replay files must script every call the run makes.
    """

    def __init__(self, path: str):
        self.path = path
        self._queues: dict[str, deque] = {op: deque() for op in OPS}
        for lineno, line in enumerate(read_text(path).split("\n"), start=1):
            line = line.strip()
            if not line:
                continue
            entry = parse_json_line(line, path, lineno)
            if "op" not in entry or "response" not in entry:
                raise ParseError(f"{path}:{lineno}: expected {{'op','response'}} object")
            op = entry["op"]
            if not isinstance(op, str) or op not in self._queues:
                raise ParseError(f"{path}:{lineno}: unknown op {op!r}")
            if not isinstance(entry["response"], dict):
                raise ParseError(f"{path}:{lineno}: response must be an object")
            self._queues[op].append(entry["response"])

    def complete(self, op: str, payload: dict) -> dict:
        if op not in self._queues:
            raise ProviderError(f"unknown op {op!r}")
        queue = self._queues[op]
        if not queue:
            raise ProviderError(f"scripted responses exhausted for op {op!r} ({self.path})")
        return queue.popleft()


class RemoteChatProvider:
    """Chat-completions style provider; reply content must be a JSON object."""

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: str | None = None,
        timeout: float = 120.0,
        transport: Callable[[str, dict, dict, float], dict] | None = None,
    ):
        if not base_url:
            raise ValidationError("remote LLM provider needs a base URL")
        self.base_url = base_url
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(LLM_API_KEY_ENV)
        self.timeout = timeout
        self._transport = transport or post_json

    def complete(self, op: str, payload: dict) -> dict:
        if op not in PROMPTS:
            raise ProviderError(f"unknown op {op!r}")
        body = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": PROMPTS[op]},
                {"role": "user", "content": json.dumps(payload, ensure_ascii=False)},
            ],
            "response_format": {"type": "json_object"},
        }
        headers = {}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        response = self._transport(self.base_url, body, headers, self.timeout)
        try:
            content = response["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"LLM response missing message content: {exc}") from exc
        try:
            parsed = json.loads(content)
        except (json.JSONDecodeError, TypeError, RecursionError) as exc:
            raise ProviderError("LLM returned free text instead of a JSON object") from exc
        if not isinstance(parsed, dict):
            raise ProviderError("LLM reply content is not a JSON object")
        return parsed


def make_llm_provider(spec: str, base_url: str | None = None, model: str | None = None):
    """Build a provider from a selection string: "remote" or "scripted:<file>"."""
    if spec == "remote":
        if not base_url or not model:
            raise ValidationError("remote LLM provider needs base_url and model configured")
        return RemoteChatProvider(base_url, model)
    if spec.startswith("scripted:"):
        return ScriptedProvider(spec.split(":", 1)[1])
    raise ValidationError(f"unknown LLM provider spec {spec!r} (use 'remote' or 'scripted:<file>')")


def clamp_score(value: float) -> int:
    """Round half away from zero, then clamp into the 1-10 scale."""
    return max(SCORE_MIN, min(SCORE_MAX, round_half_away(float(value))))


class Orchestrator:
    """Runs the generative steps against one provider, collecting warnings.

    Warnings record every degradation (shortfalls, defaulted scores, ordering
    fallbacks) so a pipeline run can surface them without aborting.
    """

    def __init__(self, provider, retries: int = DEFAULT_RETRIES):
        self.provider = provider
        self.retries = retries
        self.warnings: list[str] = []

    # -- themes ---------------------------------------------------------

    def generate_themes(self, title: str, count: int) -> list[ThemeIdea]:
        """Ask for exactly ``count`` unique theme descriptions, retrying shortfalls.

        After retries are exhausted, whatever was collected is returned with a
        shortfall warning; if every attempt failed outright, raises.
        """
        if not title:
            raise ValidationError("episode title must be non-empty")
        if count < 1:
            raise ValidationError(f"theme count must be positive, got {count}")
        collected: dict[str, None] = {}  # insertion-ordered set
        well_formed = False

        def collect(response: dict) -> None:
            nonlocal well_formed
            items = _string_list(response, "themes")
            well_formed = True
            for item in items:
                text = item.strip()
                if text:
                    collected[text] = None
            if len(collected) < count:
                raise ProviderError(f"got {len(collected)} of {count} themes")

        try:
            self._ask("themes", {"title": title, "count": count}, collect, "theme generation")
        except ProviderError:
            if not well_formed:
                raise
            self.warnings.append(f"theme shortfall: got {len(collected)} of {count} for {title!r}")
        return [ThemeIdea(i, text) for i, text in enumerate(list(collected)[:count])]

    # -- queries --------------------------------------------------------

    def generate_queries(self, themes: Sequence[ThemeIdea], per_theme: int,
                         episode_title: str = "") -> list[QueryPhrase]:
        """Collect up to len(themes) * per_theme unique query phrases.

        Duplicates (case-folded) and invalid entries are dropped with warnings;
        output is grouped by theme index, provider order within each theme.
        """
        if not themes:
            raise ValidationError("generate_queries requires a non-empty theme list")
        if per_theme < 1:
            raise ValidationError(f"per_theme must be positive, got {per_theme}")
        payload = {
            "episode_title": episode_title,
            "themes": [t.description for t in themes],
            "per_theme": per_theme,
        }
        entries = self._ask("queries", payload, _query_entries, "queries")

        phrases: list[QueryPhrase] = []
        seen: set[str] = set()
        taken_per_theme: dict[int, int] = {}
        duplicates = 0
        invalid = 0
        for entry in entries:
            idx = entry.get("theme_index")
            text = entry.get("text")
            if not isinstance(idx, int) or isinstance(idx, bool) or not isinstance(text, str):
                invalid += 1
                continue
            if idx < 0 or idx >= len(themes):
                invalid += 1
                continue
            text = text.strip()
            if not text:
                invalid += 1
                continue
            key = text.casefold()
            if key in seen:
                duplicates += 1
                continue
            if taken_per_theme.get(idx, 0) >= per_theme:
                continue
            seen.add(key)
            taken_per_theme[idx] = taken_per_theme.get(idx, 0) + 1
            phrases.append(QueryPhrase(idx, text))
        phrases.sort(key=lambda p: p.theme_index)  # stable: provider order kept per theme

        if invalid:
            self.warnings.append(f"dropped {invalid} invalid query entries")
        if duplicates:
            self.warnings.append(f"dropped {duplicates} duplicate query phrases")
        expected = len(themes) * per_theme
        if len(phrases) < expected:
            self.warnings.append(f"query shortfall: got {len(phrases)} of {expected}")
        return phrases

    # -- scoring --------------------------------------------------------

    def score_batch(
        self,
        sentences: Sequence[Candidate],
        episode_title: str,
        themes: Sequence[ThemeIdea],
        batch_size: int = DEFAULT_SCORE_BATCH,
    ) -> list[ScoredSentence]:
        """Score every candidate, one result per input in order, each keeping its
        candidate's source_query_index.

        An id missing from a batch response is re-asked once as a subset; if it
        is still missing it defaults to irony=1/relevance=1 with a warning. A
        batch whose provider calls all fail raises, naming the input range.
        """
        if not sentences:
            raise ValidationError("score_batch requires at least one sentence")
        if batch_size < 1:
            raise ValidationError(f"batch_size must be positive, got {batch_size}")

        theme_texts = [t.description for t in themes]

        def payload(batch: Sequence[Candidate]) -> dict:
            return {"episode_title": episode_title, "themes": theme_texts,
                    "sentences": [{"id": c.sentence_id, "text": c.text} for c in batch]}

        results: list[ScoredSentence] = []
        for lo in range(0, len(sentences), batch_size):
            hi = min(lo + batch_size, len(sentences))
            batch = sentences[lo:hi]
            scored = self._ask("score", payload(batch), _score_entries,
                               f"scoring of sentences[{lo}:{hi}]")

            missing = [c for c in batch if c.sentence_id not in scored]
            if missing:
                try:
                    extra = _score_entries(self.provider.complete("score", payload(missing)))
                except ProviderError:
                    extra = {}
                wanted = {c.sentence_id for c in missing}
                for sid, value in extra.items():
                    if sid in wanted and sid not in scored:
                        scored[sid] = value

            for candidate in batch:
                sid = candidate.sentence_id
                if sid in scored:
                    irony, relevance, rationale = scored[sid]
                else:
                    irony, relevance, rationale = SCORE_MIN, SCORE_MIN, ""
                    self.warnings.append(f"no score returned for {sid}; defaulted to 1/1")
                results.append(ScoredSentence(sid, irony, relevance, rationale,
                                              candidate.source_query_index))
        return results

    # -- ordering -------------------------------------------------------

    def order_section(
        self,
        section_name: str,
        members: Sequence[ScoredSentence],
        texts: Mapping[str, str],
        fallback: Callable[[Sequence[ScoredSentence]], list[str]],
    ) -> list[str]:
        """Ask the provider to order a section; any invalid answer falls back.

        The result is always a true permutation of the member ids. Ordering
        never raises past this method: after retries, the deterministic
        fallback is used and a warning recorded.
        """
        if not members:
            raise ValidationError("order_section requires a non-empty section")
        member_ids = [m.sentence_id for m in members]
        if len(members) == 1:
            return list(member_ids)
        payload = {
            "section": section_name,
            "sentences": [
                {
                    "id": m.sentence_id,
                    "text": texts.get(m.sentence_id, ""),
                    "irony": m.irony,
                    "relevance": m.relevance,
                }
                for m in members
            ],
        }
        expected = set(member_ids)

        def permutation(response: dict) -> list[str]:
            order = response.get("order") if isinstance(response, dict) else None
            if not (
                isinstance(order, list)
                and len(order) == len(member_ids)
                and all(isinstance(x, str) for x in order)
                and set(order) == expected
            ):
                raise ProviderError("reply is not a permutation of the section's ids")
            return list(order)

        try:
            return self._ask("order", payload, permutation, f"ordering of {section_name!r}")
        except ProviderError:
            self.warnings.append(
                f"ordering fallback for section {section_name!r}: no valid permutation")
            return fallback(members)

    # -- internals ------------------------------------------------------

    def _ask(self, op: str, payload: dict, parse, what: str):
        """``parse(reply)`` for the first of retries + 1 calls whose reply it accepts."""
        return retry(lambda: parse(self.provider.complete(op, payload)), self.retries + 1, what)


def _string_list(response: dict, key: str) -> list[str]:
    items = response.get(key) if isinstance(response, dict) else None
    if not isinstance(items, list) or not all(isinstance(x, str) for x in items):
        raise ProviderError(f"malformed response: {key!r} must be a list of strings")
    return items


def _query_entries(response: dict) -> list[dict]:
    entries = response.get("queries") if isinstance(response, dict) else None
    if not isinstance(entries, list) or not all(isinstance(x, dict) for x in entries):
        raise ProviderError("malformed response: 'queries' must be a list of objects")
    return entries


def _score_entries(response: dict) -> dict[str, tuple[int, int, str]]:
    entries = response.get("scores") if isinstance(response, dict) else None
    if not isinstance(entries, list):
        raise ProviderError("malformed response: 'scores' must be a list")
    out: dict[str, tuple[int, int, str]] = {}
    for entry in entries:
        if not isinstance(entry, dict):
            continue
        sid = entry.get("id")
        irony = entry.get("irony")
        relevance = entry.get("relevance")
        if not isinstance(sid, str) or sid in out:
            continue
        if not is_finite_number(irony) or not is_finite_number(relevance):
            continue  # counts as missing: re-asked, then defaulted
        rationale = entry.get("rationale")
        if not isinstance(rationale, str):
            rationale = ""
        out[sid] = (clamp_score(irony), clamp_score(relevance), rationale)
    return out

