"""Seeded synthetic transcript archive.

Writes one transcript JSON file per video and returns, alongside, the exact
sentences `aiblob ingest` must cut from them: ids, texts and time spans. The
generator plans segmentation itself, so the sentence count after ingest is
exactly the requested one:

* every planned sentence has at least four words of three or more letters
  (at least 16 characters, above the default 12-character merge limit) and
  ends in terminal punctuation;
* about 3% of sentences are preceded by a one-word fragment ("Ecco.") that is
  shorter than the merge limit, so ingest merges it forward into the next
  sentence and the merge path of `segment_sentences` runs;
* about 1% of sentences are catchphrases repeated across videos, which gives
  exact score ties that only the sentence-id tie-break can order;
* the rest are drawn from a pseudo-word vocabulary of thousands of words, so
  texts are almost all distinct and rankings are not tie-heavy.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

# Lower-cased words that `segment_sentences` treats as abbreviations: a
# sentence ending in one of them would not split.
ABBREVIATIONS = {"sig", "dott", "prof", "ecc", "on", "avv", "ing"}
TERMINALS = (".", ".", ".", "!", "?", "…")
SYLLABLES = (
    "ba be bi bo bu ca ce ci co cu da de di do du fa fe fi fo fu ga ge gi go "
    "la le li lo lu ma me mi mo mu na ne ni no nu pa pe pi po pu ra re ri ro "
    "ru sa se si so su ta te ti to tu va ve vi vo vu za ze zi zo zu chi che "
    "gli gno sca sco stra tri pre pro"
).split()
ACCENTED = ("à", "è", "ì", "ò", "ù")
SHORT_PREFIX_SHARE = 0.03
CATCHPHRASE_SHARE = 0.01
MIN_WORDS, MAX_WORDS = 4, 10
WORD_ENTRY = '{"w":"%s","s":%s,"e":%s},'


@dataclass(slots=True)
class ExpectedSentence:
    sentence_id: str
    video_id: str
    ordinal: int
    text: str
    start_s: float
    end_s: float


def sentence_id_for(video_id: str, ordinal: int, text: str) -> str:
    """The sentence id rule documented for the corpus format."""
    payload = f"{video_id}\x1f{ordinal}\x1f{text}".encode("utf-8")
    return hashlib.sha256(payload).digest()[:16].hex()


def make_vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    """`size` distinct pseudo-words of three or more letters, a few with accents."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        n = int(rng.integers(1, 5))
        word = "".join(SYLLABLES[int(i)] for i in rng.integers(0, len(SYLLABLES), size=n))
        if rng.random() < 0.05:
            word += ACCENTED[int(rng.integers(0, len(ACCENTED)))]
        if len(word) < 3 or word in seen or word in ABBREVIATIONS:
            continue
        seen.add(word)
        words.append(word)
    return words


def split_counts(rng: np.random.Generator, total: int, parts: int) -> list[int]:
    """`parts` positive counts that vary by about 3x and sum to `total` exactly."""
    weights = rng.uniform(0.5, 1.5, size=parts)
    raw = weights / weights.sum() * total
    counts = np.maximum(1, np.floor(raw).astype(np.int64))
    shortfall = total - int(counts.sum())
    order = np.argsort(-(raw - np.floor(raw)), kind="stable")
    for i in range(abs(shortfall)):
        j = order[i % parts]
        counts[j] += 1 if shortfall > 0 else -1
    if int(counts.sum()) != total or counts.min() < 1:
        raise ValueError(f"cannot split {total} sentences over {parts} videos")
    return [int(c) for c in counts]


def generate_archive(directory: str, seed: int, n_videos: int, n_sentences: int,
                     vocab_size: int = 6000) -> list[ExpectedSentence]:
    """Write `n_videos` transcript files into `directory`; return the expected corpus.

    The returned sentences are in corpus order: videos by file name, then
    sentence ordinal, as `aiblob ingest` exports them.
    """
    rng = np.random.default_rng(seed)
    vocab = make_vocabulary(rng, vocab_size)
    short_words = [w for w in vocab if len(w) <= 8]
    catchphrases = [
        [vocab[int(i)] for i in rng.integers(0, len(vocab), size=int(rng.integers(MIN_WORDS, 8)))]
        for _ in range(40)
    ]
    counts = split_counts(rng, n_sentences, n_videos)
    os.makedirs(directory, exist_ok=True)
    expected: list[ExpectedSentence] = []
    # repr of the nearest double to each centisecond count, which json parses
    # back to the same value; grown as later videos run longer.
    labels: list[str] = []
    for v, count in enumerate(counts):
        video_id = f"v{v:05d}"
        sentence_words = _video_sentences(rng, count, vocab, short_words, catchphrases)
        # Word timing in centiseconds: each word lasts `duration`, then a gap;
        # each sentence ends with a pause.
        per_sentence = np.fromiter(map(len, sentence_words), dtype=np.int64, count=count)
        duration = rng.integers(15, 60, size=int(per_sentence.sum()))
        step = duration + rng.integers(3, 30, size=len(duration))
        last_word = np.cumsum(per_sentence) - 1
        step[last_word] += rng.integers(20, 100, size=count)
        start = np.concatenate(([0], np.cumsum(step)[:-1])) + int(rng.integers(0, 500))
        end = start + duration
        start_list, end_list = start.tolist(), end.tolist()
        labels.extend(repr(cs / 100) for cs in range(len(labels), end_list[-1] + 1))
        first = 0
        words_flat: list[str] = []
        for ordinal, words in enumerate(sentence_words):
            text = " ".join(words)
            last = first + len(words) - 1
            expected.append(ExpectedSentence(
                sentence_id_for(video_id, ordinal, text), video_id, ordinal, text,
                start_list[first] / 100, end_list[last] / 100,
            ))
            words_flat.extend(words)
            first = last + 1
        fields: list[str] = [""] * (3 * len(words_flat))
        fields[0::3] = words_flat
        fields[1::3] = map(labels.__getitem__, start_list)
        fields[2::3] = map(labels.__getitem__, end_list)
        entries = (WORD_ENTRY * len(words_flat))[:-1] % tuple(fields)
        with open(os.path.join(directory, f"{video_id}.json"), "w", encoding="utf-8") as handle:
            handle.write(f'{{"video_id":"{video_id}","title":"Archivio {video_id}",'
                         f'"source_uri":"media/{video_id}.mp4","language":"it","words":['
                         + entries + "]}")
    return expected


def _video_sentences(rng: np.random.Generator, count: int, vocab: list[str],
                     short_words: list[str], catchphrases: list[list[str]]) -> list[list[str]]:
    """The words of one video's sentences, punctuation included."""
    n_words = rng.integers(MIN_WORDS, MAX_WORDS + 1, size=count).tolist()
    kind = rng.random(count).tolist()
    pick = rng.integers(0, len(vocab), size=(count, MAX_WORDS + 1)).tolist()
    commas = (rng.random((count, MAX_WORDS)) < 0.04).tolist()
    punct = rng.integers(0, len(TERMINALS), size=count).tolist()
    catch = rng.integers(0, len(catchphrases), size=count).tolist()
    sentences: list[list[str]] = []
    for i in range(count):
        row, n = pick[i], n_words[i]
        if kind[i] < CATCHPHRASE_SHARE:
            words = list(catchphrases[catch[i]])
        else:
            words = [vocab[w] + ("," if comma else "") for w, comma in zip(row[:n - 1], commas[i])]
            words.append(vocab[row[n - 1]])
        words[-1] += TERMINALS[punct[i]]
        if kind[i] > 1.0 - SHORT_PREFIX_SHARE:
            words.insert(0, short_words[row[MAX_WORDS] % len(short_words)].capitalize() + ".")
        sentences.append(words)
    return sentences
