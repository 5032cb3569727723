"""The benchmark harness's own self-tests, run as its README says.

They check, at a tiny scale, that the harness's oracle agrees with the
program's embeddings and retrieval and that a scripted episode passes every
output check, so a change to the store, the embedder or the CLI that breaks
the benchmark fails here too. perfbench/ is run, never changed.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    result = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
