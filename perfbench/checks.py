"""Output checks. Each returns a list of problems; an empty list is a pass.

The expectations come from the benchmark's own generator and oracle; the
program is consulted only where the check is about the program's own
contract (`validate_edl`, `deterministic_embed`).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np

from aiblob.embeddings import deterministic_embed
from aiblob.montage import load_edl, validate_edl
from aiblob.narrative import load_plan

from archive import ExpectedSentence
from oracle import SECTION_ORDER, THRESHOLD, Expected, quotas

VECTORS_HEADER = struct.Struct("<4sIIQ")


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_stats(stdout_path: str, videos: int, sentences: int, dim: int) -> list[str]:
    want = [f"videos: {videos}", f"sentences: {sentences}", f"dim: {dim}"]
    with open(stdout_path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    return [f"stats: expected {line!r}, got {lines}" for line in want if line not in lines]


def check_corpus(path: str, expected: list[ExpectedSentence]) -> list[str]:
    """Corpus rows carry exactly the expected ids, in order (ids hash the text)."""
    with open(path, "r", encoding="utf-8") as handle:
        next(handle)
        got = [json.loads(line)["sentence_id"] for line in handle if line.strip()]
    if got != [s.sentence_id for s in expected]:
        same = sum(a == b.sentence_id for a, b in zip(got, expected))
        return [f"corpus: {len(got)} rows, {same} of {len(expected)} expected ids in place"]
    return []


def check_store_rows(store: str, expected: list[ExpectedSentence], dim: int,
                     rows: list[int]) -> list[str]:
    """Sampled rows of the store hold the right id and the exact embedding bits."""
    problems: list[str] = []
    with open(os.path.join(store, "meta.jsonl"), "r", encoding="utf-8") as handle:
        meta = handle.read().split("\n")
    width = dim * 4
    with open(os.path.join(store, "vectors.bin"), "rb") as handle:
        magic, _version, got_dim, count = VECTORS_HEADER.unpack(handle.read(VECTORS_HEADER.size))
        if magic != b"AIBV" or got_dim != dim or count != len(expected):
            return [f"store: header {magic!r} dim={got_dim} count={count}"]
        for row in rows:
            record = json.loads(meta[row + 1])
            if record.get("sentence_id") != expected[row].sentence_id:
                problems.append(f"store row {row}: id {record.get('sentence_id')}")
            handle.seek(VECTORS_HEADER.size + row * width)
            want = deterministic_embed(expected[row].text, dim).astype("<f4").tobytes()
            if handle.read(width) != want:
                problems.append(f"store row {row}: vector differs from deterministic_embed")
    return problems


def check_candidates(path: str, expected: Expected) -> list[str]:
    with open(path, "r", encoding="utf-8") as handle:
        next(handle)
        rows = [json.loads(line) for line in handle if line.strip()]
    got = [(r["sentence_id"], r["source_query_index"]) for r in rows]
    if got != expected.candidates:
        first = next((i for i, (a, b) in enumerate(zip(got, expected.candidates)) if a != b),
                     min(len(got), len(expected.candidates)))
        return [f"candidates: {len(got)} rows vs oracle {len(expected.candidates)}, "
                f"first difference at row {first}"]
    return []


def check_plan(path: str, expected: Expected) -> list[str]:
    """Sections hold the retained ids, in quota sizes, above the OR thresholds."""
    with open(path, "r", encoding="utf-8") as handle:
        plan = json.load(handle)
    sections = plan.get("sections", {})
    if tuple(sections) != SECTION_ORDER:
        return [f"plan: sections {tuple(sections)}"]
    problems: list[str] = []
    want_sizes = quotas(len(expected.retained))
    for name in SECTION_ORDER:
        ids = sections[name]
        if len(ids) != want_sizes[name]:
            problems.append(f"plan: {name} has {len(ids)} ids, quota {want_sizes[name]}")
        want = expected.sections[name]
        same = ids == want if expected.ordered else sorted(ids) == sorted(want)
        if not same:
            problems.append(f"plan: {name} differs from the oracle's section")
        for sid in ids:
            irony, relevance = expected.scores.get(sid, (0, 0))
            if irony < THRESHOLD and relevance < THRESHOLD:
                problems.append(f"plan: {sid} is below both thresholds")
            if plan["scores"].get(sid) != {"irony": irony, "relevance": relevance}:
                problems.append(f"plan: scores of {sid} differ from the script")
    return problems


def check_edl(edl_path: str, plan_path: str, render_stdout_path: str) -> list[str]:
    """`validate_edl` against the plan, and a dry-run render of one command per
    clip plus one concat and one mastering pass."""
    edl = load_edl(edl_path)
    plan, _ = load_plan(plan_path)
    problems = [f"edl: {v}" for v in validate_edl(edl, plan)]
    with open(render_stdout_path, "r", encoding="utf-8") as handle:
        commands = [line for line in handle.read().split("\n") if line]
    clips = len(edl.all_clips())
    if len(commands) != clips + 2:
        problems.append(f"render: {len(commands)} commands for {clips} clips")
    return problems


def check_same_file(a: str, b: str) -> list[str]:
    return [] if file_digest(a) == file_digest(b) else [f"{a} and {b} differ"]


def check_same_files(a_dir: str, b_dir: str, names: list[str]) -> list[str]:
    return [problem for name in names
            for problem in check_same_file(os.path.join(a_dir, name), os.path.join(b_dir, name))]


def sample_rows(n_rows: int, count: int, seed: int) -> list[int]:
    rng = np.random.default_rng([seed, n_rows])
    return sorted({0, n_rows - 1, *rng.integers(0, n_rows, size=count).tolist()})
