"""The benchmark's recorded outputs, reproduced in process.

`perfbench/run.py` refuses a run whose job stdout differs from the SHA-256
recorded in `perfbench/workloads.DIGESTS`. This test runs the same command
lines through `cli.main` and compares the digests, so a change to any of
those outputs shows here first. It reads `perfbench/` and writes nothing
there: the newton_wide entries go to a temporary directory.
"""

import hashlib
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from normfilt import cli

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ there
import workloads  # noqa: E402
sys.dont_write_bytecode = write_bytecode


def stdout_digest(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("workload", ["corpus", "poly_deep", "semigroup_deep"])
def test_fixed_jobs_match_their_digests(workload, monkeypatch):
    monkeypatch.chdir(ROOT)  # job paths are relative to the repository root
    jobs = workloads.jobs_for(workload, workloads.DEFAULT_SEED, ROOT)
    assert [stdout_digest(job.args) for job in jobs] == [job.digest for job in jobs]


def test_newton_wide_tables_match_their_digests(tmp_path):
    got, want = [], []
    for k, text in enumerate(workloads.newton_wide_texts(workloads.DEFAULT_SEED)):
        path = tmp_path / f"newton_wide_{k}.nfilt"
        path.write_text(text)
        got.append(stdout_digest(["table", str(path), "--nmax", "2"]))
        want.append(workloads.DIGESTS[f"newton_wide_table_{k}"])
    assert got == want
