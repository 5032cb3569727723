"""An interrupted `aiblob ingest` ends with one error line and exit code 128 +
the signal number, and leaves no process, no temporary file and no partial
corpus: Ctrl-C (SIGINT to the process group), SIGTERM to the command alone
and SIGTERM to the process group, on the worker-process path and in process.
An `aiblob index` interrupted mid-stream ends the same way, and leaves the
store at --store as it was, or no directory there.

Each run is a fresh interpreter in a process group of its own. Its
segment_file (index's embed_batch, from the second block on) first writes a
ready file, then holds its transcript (block) until the test has sent the
signal, so the signal always lands mid-run, while a worker holds a file and
the corpus's temporary file is open (while the store's temporary files are).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from aiblob.ingest import corpus_lines, export_corpus
from conftest import fixture_sentences, python_env, write_fixture_transcripts

# Ingest with the size floor set to the first argument (0 forks the pool) and
# one file per task. The last output line tells how main returned, and whether
# any child process is left, running or unreaped. Ctrl-C raises
# KeyboardInterrupt, as in a foreground terminal, even when the test run was
# started with SIGINT ignored (a background job of a non-interactive shell),
# which the command would otherwise inherit.
HELD_INGEST = """
import json, os, signal, sys, time
signal.signal(signal.SIGINT, signal.default_int_handler)
from aiblob import cli
floor, gate, *argv = sys.argv[1:]
cli.INGEST_PARALLEL_BYTES = int(floor)
cli.INGEST_CHUNK_FILES = 1
segment = cli.segment_file

def held(path, min_chars):
    os.mkdir(os.path.join(gate, f"ready-{os.getpid()}"))  # no file object for a signal to leak
    while not os.path.exists(os.path.join(gate, "go")):
        time.sleep(0.002)
    return segment(path, min_chars)

cli.segment_file = held
code = cli.main(argv)
try:
    os.waitpid(-1, os.WNOHANG)
    children = True
except ChildProcessError:
    children = False
print(json.dumps({"code": code, "children": children}))
"""

# A resource never closed, and a fork from a process with threads (Python
# 3.12+), fail the run.
WARNINGS_AS_ERRORS = ("-W", "error::ResourceWarning",
                      "-W", "error:This process:DeprecationWarning")
POOL = pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                          reason="ingest forks workers only where it may run on two CPUs or more")
# Runs of each case on the worker-process path.
REPEATS = 10


def ctrl_c(pid: int) -> None:
    """What Ctrl-C in a terminal does: SIGINT to the whole process group."""
    os.killpg(pid, signal.SIGINT)


def terminate(pid: int) -> None:
    """SIGTERM to the command alone, as a process manager sends it."""
    os.kill(pid, signal.SIGTERM)


def terminate_group(pid: int) -> None:
    """SIGTERM to the whole process group, as a service manager's stop sends it:
    the workers die of it while the command handles its own."""
    os.killpg(pid, signal.SIGTERM)


def mid_run(gate, pid: int) -> bool:
    """A worker, or the command in process, holds a transcript."""
    return any(name.startswith("ready-") for name in os.listdir(gate))


def children_file(pid: int) -> str:
    return f"/proc/{pid}/task/{pid}/children"


def forking(gate, pid: int) -> bool:
    """The command has forked a worker, which may not have set its signal
    handlers yet."""
    with open(children_file(pid), encoding="ascii") as handle:
        return bool(handle.read().split())


def interrupted_ingest(tmp_path, floor: int, when, send, run: int) -> tuple[dict, str, list]:
    """The report and the stderr of one held ingest that ``send(pid)``
    interrupts as soon as ``when(gate, pid)`` holds, and what the output
    directory holds afterwards."""
    transcripts = tmp_path / "transcripts"
    if not transcripts.exists():
        write_fixture_transcripts(transcripts, n_videos=6, per_video=3)
    gate, out = tmp_path / f"gate{run}", tmp_path / f"out{run}"
    gate.mkdir()
    out.mkdir()
    (out / "corpus.jsonl").write_bytes(b"an earlier corpus\n")
    dev = ("-X", "dev") if sys.flags.dev_mode else ()
    proc = subprocess.Popen(
        [sys.executable, *dev, *WARNINGS_AS_ERRORS, "-c", HELD_INGEST, str(floor), str(gate),
         "ingest", "--transcripts", str(transcripts), "--out", str(out / "corpus.jsonl")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=python_env(),
        start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not when(gate, proc.pid):
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline, f"{when.__name__} never held"
        send(proc.pid)
        (gate / "go").touch()
        stdout, stderr = proc.communicate(timeout=60)
        # The command's process group is empty: no worker outlived it.
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    assert stdout, stderr
    return json.loads(stdout.splitlines()[-1]), stderr, sorted(os.listdir(out))


@pytest.mark.parametrize("floor,repeats,when,send,signum", [
    pytest.param(0, REPEATS, mid_run, ctrl_c, signal.SIGINT, id="pool-ctrl-c", marks=POOL),
    pytest.param(0, REPEATS, mid_run, terminate, signal.SIGTERM, id="pool-sigterm", marks=POOL),
    pytest.param(0, REPEATS, mid_run, terminate_group, signal.SIGTERM, id="pool-sigterm-group",
                 marks=POOL),
    # Interrupts are held back while the workers are forked: one that lands
    # in a worker before it ignores SIGINT would end that worker.
    pytest.param(0, REPEATS, forking, ctrl_c, signal.SIGINT, id="pool-ctrl-c-at-fork",
                 marks=[POOL, pytest.mark.skipif(not os.path.exists(children_file(os.getpid())),
                                                 reason="needs /proc/<pid>/task/<tid>/children")]),
    pytest.param(1 << 40, 2, mid_run, ctrl_c, signal.SIGINT, id="in-process-ctrl-c"),
    pytest.param(1 << 40, 2, mid_run, terminate, signal.SIGTERM, id="in-process-sigterm")])
def test_an_interrupted_ingest_ends_cleanly(tmp_path, floor, repeats, when, send, signum):
    for run in range(repeats):
        report, stderr, left = interrupted_ingest(tmp_path, floor, when, send, run)
        assert report == {"code": 128 + signum, "children": False}, (run, stderr)
        assert stderr == f"error: interrupted by {signal.Signals(signum).name}\n", run
        # No temporary file, and the earlier corpus as it was.
        assert left == ["corpus.jsonl"], run
        assert (tmp_path / f"out{run}" / "corpus.jsonl").read_bytes() == b"an earlier corpus\n"


# Index the corpus in blocks of 50 rows; the second block's embed_batch holds
# its texts until the test has sent the signal.
HELD_INDEX = """
import json, os, signal, sys, time
signal.signal(signal.SIGINT, signal.default_int_handler)
from aiblob import cli
gate, *argv = sys.argv[1:]
cli.INDEX_BLOCK_BYTES = 1
make, embed = cli.make_embedder, cli.embed_batch

def small(*args, **kwargs):
    embedder = make(*args, **kwargs)
    embedder.batch_size = 50
    return embedder

def held(texts, provider, input_type, start):
    if start:
        os.mkdir(os.path.join(gate, "ready"))  # no file object for a signal to leak
        while not os.path.exists(os.path.join(gate, "go")):
            time.sleep(0.002)
    return embed(texts, provider, input_type, start=start)

cli.make_embedder, cli.embed_batch = small, held
print(json.dumps({"code": cli.main(argv)}))
"""

EARLIER_STORE = {"meta.jsonl": b"an earlier meta.jsonl\n", "vectors.bin": b"an earlier vectors.bin"}


@pytest.mark.parametrize("send,signum", [(ctrl_c, signal.SIGINT), (terminate, signal.SIGTERM)])
@pytest.mark.parametrize("earlier", [True, False], ids=["over-a-store", "new-directory"])
def test_an_index_interrupted_mid_stream_ends_cleanly(tmp_path, send, signum, earlier):
    corpus = tmp_path / "corpus.jsonl"
    export_corpus([corpus_lines(fixture_sentences())], str(corpus))
    gate, out = tmp_path / "gate", tmp_path / "out"
    gate.mkdir()
    out.mkdir()
    store = out / "store" if earlier else out / "new" / "store"
    if earlier:
        store.mkdir()
        for name, data in EARLIER_STORE.items():
            (store / name).write_bytes(data)
    dev = ("-X", "dev") if sys.flags.dev_mode else ()
    proc = subprocess.Popen(
        [sys.executable, *dev, *WARNINGS_AS_ERRORS, "-c", HELD_INDEX, str(gate), "index",
         "--corpus", str(corpus), "--store", str(store), "--embedder", "deterministic:8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=python_env(),
        start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not (gate / "ready").exists():
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline, "the second block was never embedded"
        send(proc.pid)
        (gate / "go").touch()
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    assert json.loads(stdout.splitlines()[-1]) == {"code": 128 + signum}, stderr
    assert stderr == f"error: interrupted by {signal.Signals(signum).name}\n"
    # The earlier store as it was and no temporary file, or nothing at all.
    if earlier:
        assert {path.name: path.read_bytes() for path in store.iterdir()} == EARLIER_STORE
        assert os.listdir(out) == ["store"]
    else:
        assert os.listdir(out) == []
