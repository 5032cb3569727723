"""aiblob benchmark: archive build and episodes, timed end to end and per layer.

    python3 perfbench/run.py --workload dataset --seed 1 --seconds 8 --trace 0

Run from anywhere inside a source checkout; the program is taken from
`src/` next to this directory and driven as child processes
(`python -m aiblob.cli`) with the offline doubles: the `deterministic:<dim>`
embedder and a `scripted:` replay file. One client, one command at a time
(a closed loop, no concurrency). Inputs are made from `--seed` only, under
`.perfbench-work/` in the checkout, which is removed afterwards.

`--trace 0` times the real CLI and prints every end-to-end metric, each time
scaled to a reference machine pace measured while the command runs;
`--trace 1` runs one build and one episode untraced and again through
`perfbench/traced.py`, checks that both give byte-identical outputs, and
prints every per-layer metric. Every output is checked against the
benchmark's own oracle; the last stdout line is one JSON result object, and
the exit code is 0 only if every command and check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from archive import ExpectedSentence, generate_archive
from oracle import EpisodeSpec, Expected, Oracle, make_episode, script_episode
from spawn import PACE_BRACKET, pace_probe
from traced import PER_LAYER, derive_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
TRACE_FILE = ROOT / ".perfbench-trace.json"
TRACED = HERE / "traced.py"
SPAWN = HERE / "spawn.py"
# `pace_probe`'s median time on the reference machine: every reported time is
# a wall time scaled to that pace (see `calibrated`).
PACE_REFERENCE_S = 0.0005


@dataclass(frozen=True)
class Workload:
    videos: int
    sentences: int
    dim: int
    ingests: int          # ingest repeats per timed run, each into a fresh corpus
    indexes: int          # index repeats per timed run, each into a fresh store
    setups: int           # set-up repeats per timed run (setup_s is their median)
    min_episodes: int     # compose + render repeats: at least this many, and for --seconds
    renders: int          # dry-run renders of each episode's EDL
    themes: int
    per_theme: int
    k: int
    video_cap: int | None
    ordering: str
    drop_every: int


# Why these two: `dataset` is the paper's archive size, where the build
# (transcript parsing, 212k embeddings, store insert and save) and, per
# episode, store load and full-scan top_k over 212k rows dominate, while the
# LLM, narrative and montage layers see only ~200 candidates. `wide` is a
# small store at dim 384 where load is cheap and an episode of 4,000
# candidates is bounded by exclusion (up to 80% of the store) and the video
# cap, then carries ~2,500 retained sentences through scoring with re-asks,
# LLM ordering, the JSON-lines writers and EDL/render plans.
WORKLOADS = {
    "dataset": Workload(videos=1547, sentences=212696, dim=64, ingests=1, indexes=1, setups=2,
                        min_episodes=2, renders=6, themes=5, per_theme=4, k=10, video_cap=None,
                        ordering="deterministic", drop_every=0),
    "wide": Workload(videos=50, sentences=5000, dim=384, ingests=4, indexes=4, setups=3,
                     min_episodes=6, renders=2, themes=20, per_theme=10, k=20, video_cap=3,
                     ordering="llm", drop_every=8),
}

END_TO_END = [
    ("setup_s", "s"), ("ingest_s", "s"), ("index_s", "s"), ("build_sentences_per_s", "1/s"),
    ("index_peak_rss_mb", "MB"), ("store_bytes_per_sentence", "B"), ("compose_s", "s"),
    ("compose_peak_rss_mb", "MB"), ("render_plan_s", "s"),
]
EPISODE_FILES = ["queries.jsonl", "candidates.jsonl", "scores.jsonl", "plan.json", "edl.json"]


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    code: int
    pace_s: float

    @property
    def time_s(self) -> float:
        return calibrated(self.wall_s, self.pace_s)


def calibrated(wall_s: float, pace_s: float) -> float:
    """A wall time scaled from the pace measured around it to the reference pace.

    On a shared host the same code runs up to half again as slow from one
    minute to the next, and whole runs shift with it. `pace_probe`, timed
    while the command runs, slows down alike, so this ratio stays put while
    the program does not change; the probe runs no program code, so a faster
    or slower program moves it in full.
    """
    return wall_s * PACE_REFERENCE_S / pace_s


class Runner:
    """Runs CLI commands as children and tallies commands and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.paces: list[float] = []
        # One BLAS thread: numpy's threads otherwise spin on the few shared
        # cores next to the command and time the scheduler, not the program.
        # A fixed hash seed gives every child the same dict and set layouts.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def cli(self, args: list[str], cwd: Path, log: str, spans: Path | None = None) -> Child:
        """Run one aiblob command to completion, timed by `spawn.py`."""
        if spans is None:
            command = [sys.executable, "-m", "aiblob.cli", *args]
        else:
            command = [sys.executable, str(TRACED), str(spans), *args]
        result = cwd / f"{log}.spawn.json"
        with open(cwd / f"{log}.stdout", "wb") as out, open(cwd / f"{log}.stderr", "wb") as err:
            subprocess.run([sys.executable, "-I", str(SPAWN), str(result), *command],
                           cwd=cwd, env=self.env, stdout=out, stderr=err, check=True)
        child = Child(**json.loads(result.read_text()))
        self.paces.append(child.pace_s)
        self.attempted += 1
        if child.code != 0:
            self.failed += 1
            print(f"FAIL command {' '.join(args)} exited {child.code}: "
                  f"{(cwd / f'{log}.stderr').read_text(errors='replace').strip()[-500:]}")
        return child

    def check(self, name: str, check, *args) -> None:
        """Run one output check; an exception (say, a missing file) fails it too."""
        self.attempted += 1
        try:
            problems = check(*args)
        except (OSError, ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            print(f"FAIL check {name}: " + "; ".join(problems[:5]))


@dataclass
class Inputs:
    expected: list[ExpectedSentence]
    spec: EpisodeSpec
    script: Expected
    setup_s: float


def set_up(w: Workload, seed: int) -> Inputs:
    """Write the archive, replay file and config into WORK; compute the expectations."""
    start = time.perf_counter()
    shutil.rmtree(WORK / "archive", ignore_errors=True)
    expected = generate_archive(str(WORK / "archive"), seed, w.videos, w.sentences)
    spec = make_episode(seed, "episode", w.themes, w.per_theme, w.k, w.video_cap,
                        w.ordering, w.drop_every)
    script = script_episode(spec, Oracle(expected, w.dim))
    (WORK / "replay.jsonl").write_text("\n".join(script.replay_lines) + "\n", encoding="utf-8")
    (WORK / "config.json").write_text(json.dumps(spec.config(w.dim), indent=2), encoding="utf-8")
    return Inputs(expected, spec, script, time.perf_counter() - start)


def ingest_args(i: int) -> list[str]:
    return ["ingest", "--transcripts", "../archive", "--out", f"corpus{i}.jsonl"]


def index_args(w: Workload, i: int) -> list[str]:
    return ["index", "--corpus", "corpus0.jsonl", "--store", f"store{i}",
            "--embedder", f"deterministic:{w.dim}", "--config", "../config.json"]


def episode_args(spec: EpisodeSpec, e: int) -> tuple[list[str], list[str]]:
    out = f"episode{e}"
    compose = ["compose", "--store", "store0", "--title", spec.title, "--config", "../config.json",
               "--out", out, "--llm", "scripted:../replay.jsonl"]
    render = ["render", "--edl", f"{out}/edl.json", "--out", f"{out}/montage.mp4", "--dry-run",
              "--config", "../config.json"]
    return compose, render


def check_build(runner: Runner, w: Workload, inputs: Inputs, cwd: Path, seed: int) -> None:
    import checks  # imports the program, so only after main() has put src/ on the path

    runner.check("corpus ids", checks.check_corpus, cwd / "corpus0.jsonl", inputs.expected)
    runner.check("store rows", checks.check_store_rows, cwd / "store0", inputs.expected, w.dim,
                  checks.sample_rows(w.sentences, 48, seed))


def check_episode(runner: Runner, inputs: Inputs, cwd: Path) -> None:
    import checks

    out = cwd / "episode0"
    runner.check("candidates vs oracle", checks.check_candidates, out / "candidates.jsonl",
                  inputs.script)
    runner.check("plan sections", checks.check_plan, out / "plan.json", inputs.script)
    runner.check("edl and render plan", checks.check_edl, out / "edl.json", out / "plan.json",
                  cwd / "episode0-render0.stdout")


def timed_run(runner: Runner, w: Workload, seed: int, seconds: float) -> dict[str, float]:
    import checks

    setup_times = []
    for _ in range(w.setups):
        probes = [pace_probe() for _ in range(PACE_BRACKET)]
        inputs = set_up(w, seed)
        probes.extend(pace_probe() for _ in range(PACE_BRACKET))
        setup_times.append(calibrated(inputs.setup_s, statistics.median(probes)))
    cwd = WORK / "run"
    cwd.mkdir()
    samples: dict[str, list[float]] = {k: [] for k in
                                       ("ingest", "index", "index_rss", "compose", "compose_rss",
                                        "render")}
    def ingest(i: int) -> None:
        samples["ingest"].append(runner.cli(ingest_args(i), cwd, f"ingest{i}").time_s)

    def index(i: int) -> None:
        child = runner.cli(index_args(w, i), cwd, f"index{i}")
        samples["index"].append(child.time_s)
        samples["index_rss"].append(child.rss_mb)

    # The first ingest and index build the store the episodes read. The
    # repeats alternate and run one after each episode, so every metric's
    # samples spread over the whole run and a change in machine speed during
    # it falls on all of them alike.
    ingest(0)
    index(0)
    repeats = [(ingest, i) for i in range(1, w.ingests)]
    for n, i in enumerate(range(1, w.indexes)):
        repeats.insert(2 * n + 1, (index, i))
    e = 0
    start = time.perf_counter()
    while e < w.min_episodes or repeats or time.perf_counter() - start < seconds:
        compose, render = episode_args(inputs.spec, e)
        child = runner.cli(compose, cwd, f"episode{e}-compose")
        samples["compose"].append(child.time_s)
        samples["compose_rss"].append(child.rss_mb)
        for r in range(w.renders):
            samples["render"].append(runner.cli(render, cwd, f"episode{e}-render{r}").time_s)
        e += 1
        if repeats:
            step, i = repeats.pop(0)
            step(i)

    check_build(runner, w, inputs, cwd, seed)
    for i in range(1, w.ingests):
        runner.check(f"corpus {i} repeats corpus 0", checks.check_same_file,
                      cwd / "corpus0.jsonl", cwd / f"corpus{i}.jsonl")
    for i in range(1, w.indexes):
        runner.check(f"store {i} repeats store 0", checks.check_same_files,
                      cwd / "store0", cwd / f"store{i}", ["meta.jsonl", "vectors.bin"])
    check_episode(runner, inputs, cwd)
    for i in range(1, e):
        runner.check(f"episode {i} repeats episode 0", checks.check_same_files,
                      cwd / "episode0", cwd / f"episode{i}", ["plan.json", "edl.json"])

    store_bytes = sum((cwd / "store0" / name).stat().st_size
                      for name in ("meta.jsonl", "vectors.bin"))
    # A command's time on a shared host is bimodal: samples fall in a fast
    # or a slow band as neighbours come and go every few seconds. The median
    # of such samples jumps between the bands, so a run reports each timing
    # as its mean (total time over commands), which moves only with the share
    # of slow samples; peak RSS, which repeats, as the median.
    med = {k: statistics.median(v) for k, v in samples.items()}
    mean = {k: statistics.fmean(v) for k, v in samples.items()}
    report_samples({"setup_s": setup_times, "ingest_s": samples["ingest"],
                    "index_s": samples["index"], "compose_s": samples["compose"],
                    "render_plan_s": samples["render"]})
    print(f"  pace: median probe {1e3 * statistics.median(runner.paces):.4f} ms over "
          f"{len(runner.paces)} commands; times are scaled to {1e3 * PACE_REFERENCE_S:g} ms")
    return {
        "setup_s": statistics.median(setup_times),
        "ingest_s": mean["ingest"],
        "index_s": mean["index"],
        "build_sentences_per_s": w.sentences / (mean["ingest"] + mean["index"]),
        "index_peak_rss_mb": med["index_rss"],
        "store_bytes_per_sentence": store_bytes / w.sentences,
        "compose_s": mean["compose"],
        "compose_peak_rss_mb": med["compose_rss"],
        "render_plan_s": mean["render"],
    }


def report_samples(samples: dict[str, list[float]]) -> None:
    """Mean, median, sample count and the highest percentile with ten samples beyond it."""
    for name, values in samples.items():
        n = len(values)
        line = (f"  {name}: mean {statistics.fmean(values):.4f} s, "
                f"median {statistics.median(values):.4f} s over n={n} "
                f"[{' '.join(f'{v:.3f}' for v in values)}]")
        if n >= 20:
            p = math.floor(100 * (1 - 10 / n))
            ordered = sorted(values)
            line += f", p{p} {ordered[math.ceil(p / 100 * n) - 1]:.4f} s"
        else:
            line += " (n < 20: no tail percentile has ten samples beyond it)"
        print(line)


def traced_run(runner: Runner, w: Workload, seed: int) -> dict[str, float]:
    """One build and one episode untraced, then traced; outputs must match byte for byte."""
    import checks

    inputs = set_up(w, seed)
    walls = {"plain": 0.0, "traced": 0.0}
    for mode in walls:
        (WORK / mode).mkdir()
    compose, render = episode_args(inputs.spec, 0)
    steps = {"ingest": ("ingest", ingest_args(0)), "index": ("index", index_args(w, 0)),
             "compose": ("compose", compose), "render": ("episode0-render0", render)}
    # Each command runs untraced, then traced, so drift in machine speed
    # falls on both sides of trace.overhead_s alike.
    for log, args in steps.values():
        for mode in walls:
            cwd = WORK / mode
            spans = cwd / f"{log}.spans.json" if mode == "traced" else None
            walls[mode] += runner.cli(args, cwd, log, spans).time_s

    plain, traced = WORK / "plain", WORK / "traced"
    runner.cli(["stats", "--store", "store0"], plain, "stats")
    runner.check("stats counts", checks.check_stats, plain / "stats.stdout", w.videos,
                  w.sentences, w.dim)
    check_build(runner, w, inputs, plain, seed)
    check_episode(runner, inputs, plain)
    runner.check("traced outputs equal untraced", checks.check_same_files, plain, traced,
                  ["corpus0.jsonl", "store0/meta.jsonl", "store0/vectors.bin", "compose.stdout",
                   "episode0-render0.stdout"] + [f"episode0/{n}" for n in EPISODE_FILES])
    commands = {}
    for command, (log, _) in steps.items():
        path = traced / f"{log}.spans.json"
        commands[command] = json.loads(path.read_text())["spans"] if path.exists() else []
    if not all(commands.values()):
        runner.check("spans recorded", lambda: ["a traced command wrote no spans"])
        return {}
    metrics = derive_metrics(commands, walls["traced"] - walls["plain"])
    TRACE_FILE.write_text(json.dumps({"workload": w, "seed": seed, "walls_s": walls,
                                      "spans": commands, "metrics": metrics}, default=vars))
    return metrics


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="least time spent on episodes in a timed run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "aiblob" / "cli.py").is_file():
        print(f"error: no aiblob source at {SRC}; run from a full source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    runner = Runner()
    try:
        # Compile and import the program once so no timed command pays for it.
        warm = runner.cli(["--help"], WORK, "warmup")
        if warm.code != 0:
            return 1
        if args.trace:
            units = {name: unit for name, unit, _, _ in PER_LAYER}
            metrics = traced_run(runner, w, args.seed)
        else:
            units = dict(END_TO_END)
            metrics = timed_run(runner, w, args.seed, args.seconds)
    except OSError as exc:
        print(f"FAIL: {exc}")
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if not metrics:
        return 1
    ratio = runner.failed / runner.attempted
    print(f"workload {args.workload} seed {args.seed}: {runner.attempted} commands and checks, "
          f"{runner.failed} failed (failed_ratio {ratio:g})")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
