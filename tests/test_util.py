"""Shared helpers: the atomic writers and the provider retry loop."""

import os
import stat

import pytest

from aiblob.errors import ProviderError
from aiblob.util import retry, write_jsonl


def test_write_jsonl_bytes(tmp_path):
    path = tmp_path / "out.jsonl"
    write_jsonl(str(path), {"format": "f", "version": 1}, ({"i": i, "t": "è"} for i in range(2)))
    assert path.read_bytes() == (
        '{"format":"f","version":1}\n{"i":0,"t":"è"}\n{"i":1,"t":"è"}\n'.encode("utf-8"))


def test_failure_mid_stream_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.jsonl"
    path.write_text("old\n", encoding="utf-8")

    def rows():
        yield {"i": 0}
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError):
        write_jsonl(str(path), {"format": "f"}, rows())
    assert path.read_text(encoding="utf-8") == "old\n"
    assert os.listdir(tmp_path) == ["out.jsonl"]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_file_mode_follows_the_umask(tmp_path, umask, mode):
    path = tmp_path / "out.jsonl"
    old = os.umask(umask)
    try:
        write_jsonl(str(path), {"format": "f"}, [])
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode


def test_retry_sleeps_the_backoff_and_names_what_failed():
    delays = []
    attempts = []

    def call():
        attempts.append(len(attempts))
        raise ProviderError(f"down {len(attempts)}")

    with pytest.raises(ProviderError, match=r"^embedding for texts\[0:4\] failed after 5 "
                                            r"attempts: down 5$"):
        retry(call, 5, "embedding for texts[0:4]", (0.5, 2.0, 8.0), sleep=delays.append)
    assert attempts == [0, 1, 2, 3, 4]
    assert delays == [0.5, 2.0, 8.0, 8.0]
