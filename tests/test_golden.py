"""Byte-for-byte guard on the bundled corpus report in every output format.

The files under tests/golden/ are the output of `normfilt corpus --format F`.
The corpus is analysed once per module through the CLI (json), and the csv
and md renderings are produced from that same payload. To refresh after an
intended output change, rerun the three CLI commands into tests/golden/.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from normfilt import cli, reports

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("json", "csv", "md")


@pytest.fixture(scope="module")
def rendered():
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["corpus", "--format", "json"])
    assert code == 0
    text = out.getvalue()
    payload = json.loads(text)
    return {"json": text, **{fmt: reports.render(payload, fmt) for fmt in FORMATS[1:]}}


@pytest.mark.parametrize("fmt", FORMATS)
def test_corpus_output_matches_golden(rendered, fmt):
    golden = (GOLDEN / f"corpus.{fmt}").read_bytes()
    assert rendered[fmt].encode("utf-8") == golden
