"""The shared atomic JSON-lines writer."""

import os

import pytest

from aiblob.util import write_jsonl


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
