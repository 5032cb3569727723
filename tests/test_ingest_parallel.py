"""`aiblob ingest` on its worker-process path: the same corpus bytes and the
same first error as the in-process path, and no process or file left behind.

Each parallel run is a fresh interpreter that sets the size floor
(cli.INGEST_PARALLEL_BYTES) to 0, so the workers are forked from a process with
one thread and no numpy loaded, as in a real run; forking this test process,
which may hold BLAS threads, is what Python 3.12+ warns about. The warning is
an error in that interpreter, and so is a ResourceWarning.
"""

import json
import os
import random
import sys

import pytest

from aiblob.cli import main
from conftest import VOCABULARY, make_transcript, run_python, write_fixture_transcripts

pytestmark = pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="ingest forks workers only where it may run on two CPUs or more")

# Ingest with a floor of 0, `chunk` files per task, and segment_file ending
# its process (os._exit) on the file named `die_at`, if any. The last line of its output tells how the command ended, if
# the pool ran, and whether any child process is left, running or unreaped.
PARALLEL_INGEST = """
import json, multiprocessing, os, sys
from aiblob import cli
chunk, die_at, *argv = sys.argv[1:]
cli.INGEST_PARALLEL_BYTES = 0
cli.INGEST_CHUNK_FILES = int(chunk)
segment = cli.segment_file

def dying(path, min_chars):
    if os.path.basename(path) == die_at:
        os._exit(3)
    return segment(path, min_chars)

cli.segment_file = dying
code = cli.main(argv)
try:
    os.waitpid(-1, os.WNOHANG)
    children = True
except ChildProcessError:
    children = False
print(json.dumps({"code": code, "pooled": "concurrent.futures" in sys.modules,
                  "active": len(multiprocessing.active_children()), "children": children}))
"""

# Warnings that fail the parallel run: a resource never closed, and a fork
# from a process with threads (Python 3.12+).
WARNINGS_AS_ERRORS = ("-W", "error::ResourceWarning",
                      "-W", "error:This process:DeprecationWarning")


def parallel_ingest(transcripts, out, chunk: int, die_at: str = "") -> tuple[dict, str]:
    """The last output line's report and the stderr of a parallel ingest."""
    dev = ("-X", "dev") if sys.flags.dev_mode else ()
    result = run_python(*dev, *WARNINGS_AS_ERRORS, "-c", PARALLEL_INGEST, chunk, die_at,
                        "ingest", "--transcripts", transcripts, "--out", out)
    report = json.loads(result.stdout.splitlines()[-1])
    # Every worker ran in the pool and every one was reaped.
    assert report["pooled"] and report["active"] == 0 and not report["children"], report
    return report, result.stderr


def in_process_ingest(transcripts, out, capsys) -> tuple[int, str]:
    """Exit code and stderr of an ingest in this process (below the floor)."""
    capsys.readouterr()
    code = main(["ingest", "--transcripts", str(transcripts), "--out", str(out)])
    return code, capsys.readouterr().err


def write_generated_transcripts(directory, count: int = 23) -> None:
    """``count`` transcripts of 0 to 40 sentences, some with non-ASCII words,
    written in a shuffled order under names that do not sort as written."""
    directory.mkdir()
    rng = random.Random(7)
    order = list(range(count))
    rng.shuffle(order)
    for i in order:
        doc = make_transcript(f"gen{i}", rng.randint(0, 40), seed=i)
        for word in doc["words"][::5]:
            word["w"] = rng.choice(VOCABULARY) + "…"
        (directory / f"t{i}.json").write_text(json.dumps(doc, ensure_ascii=i % 2 == 0),
                                              encoding="utf-8")


@pytest.mark.parametrize("chunk", [1, 2, 7])
@pytest.mark.parametrize("archive", ["fixture", "generated"])
def test_corpus_bytes_equal_the_in_process_corpus(tmp_path, capsys, archive, chunk):
    transcripts = tmp_path / "transcripts"
    if archive == "fixture":
        write_fixture_transcripts(transcripts)
    else:
        write_generated_transcripts(transcripts)
    assert in_process_ingest(transcripts, tmp_path / "serial.jsonl", capsys) == (0, "")
    report, err = parallel_ingest(transcripts, tmp_path / "parallel.jsonl", chunk)
    assert (report["code"], err) == (0, "")
    assert (tmp_path / "parallel.jsonl").read_bytes() == (tmp_path / "serial.jsonl").read_bytes()


def write_faulty_transcripts(directory, bad: int, duplicate: int) -> None:
    """Ten fixture transcripts, vid000 to vid009, where vid{bad} is not a
    transcript and vid{duplicate} repeats vid000's video_id."""
    write_fixture_transcripts(directory, n_videos=10, per_video=3)
    (directory / f"vid{bad:03d}.json").write_text('{"video_id": "x", ', encoding="utf-8")
    copy = json.loads((directory / "vid000.json").read_text(encoding="utf-8"))
    (directory / f"vid{duplicate:03d}.json").write_text(json.dumps(copy), encoding="utf-8")


@pytest.mark.parametrize("bad,duplicate", [(2, 7), (7, 2)],
                         ids=["bad-file-first", "duplicate-first"])
def test_the_first_fault_in_name_order_is_reported(tmp_path, capsys, bad, duplicate):
    """The two faults lie in different chunks of two files; whichever comes
    first in name order is reported, word for word as the in-process path
    reports it, and neither path leaves a corpus or a temporary file."""
    transcripts = tmp_path / "transcripts"
    write_faulty_transcripts(transcripts, bad, duplicate)
    out = tmp_path / "out"
    out.mkdir()
    code, serial_err = in_process_ingest(transcripts, out / "corpus.jsonl", capsys)
    first = transcripts / f"vid{min(bad, duplicate):03d}.json"
    if bad < duplicate:
        expected = (f"error: {first}: transcript: invalid JSON: Expecting property name "
                    "enclosed in double quotes at line 1, column 19\n")
    else:
        expected = f"error: {first}: duplicate video_id 'vid000' in corpus\n"
    assert (code, serial_err) == (1, expected)
    report, err = parallel_ingest(transcripts, out / "corpus.jsonl", chunk=2)
    assert (report["code"], err) == (1, expected)
    assert os.listdir(out) == []


def test_a_failed_ingest_keeps_the_corpus_it_would_replace(tmp_path):
    transcripts = tmp_path / "transcripts"
    write_faulty_transcripts(transcripts, bad=9, duplicate=8)
    out = tmp_path / "corpus.jsonl"
    out.write_bytes(b"an earlier corpus\n")
    report, err = parallel_ingest(transcripts, out, chunk=1)
    assert report["code"] == 1 and err.startswith("error: ")
    assert sorted(os.listdir(tmp_path)) == ["corpus.jsonl", "transcripts"]
    assert out.read_bytes() == b"an earlier corpus\n"


@pytest.mark.parametrize("die_at", ["vid000.json", "vid005.json"])
def test_a_dead_worker_ends_ingest_with_one_error_line(tmp_path, die_at):
    transcripts = tmp_path / "transcripts"
    write_fixture_transcripts(transcripts, n_videos=10, per_video=3)
    out = tmp_path / "out"
    out.mkdir()
    report, err = parallel_ingest(transcripts, out / "corpus.jsonl", chunk=2, die_at=die_at)
    assert report["code"] == 1
    assert err.startswith("error: an ingest worker process died: ") and err.count("\n") == 1, err
    assert os.listdir(out) == []


def test_a_small_archive_is_ingested_without_the_pool(tmp_path):
    """Below the size floor no pool is imported, and so none is started."""
    transcripts = tmp_path / "transcripts"
    write_fixture_transcripts(transcripts)
    result = run_python("-c", "import sys; from aiblob import cli; code = cli.main(sys.argv[1:]);"
                        " print('concurrent.futures' in sys.modules); sys.exit(code)",
                        "ingest", "--transcripts", transcripts, "--out", tmp_path / "c.jsonl")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"
