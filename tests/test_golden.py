"""Byte-for-byte guard on the CLI reports in every output format.

The files under tests/golden/ are the output of `normfilt corpus --format F`
and of `normfilt C FILE --format F` for C in table, coeffs and sally on two
bundled entries, one per ring class, at the default horizon, plus the json
`check` report of two tampered runs (TAMPERED), which exit 1. The corpus is
analysed once per module through the CLI (json), and the csv and md
renderings are produced from that same payload. To refresh after an
intended output change, rerun the CLI commands into tests/golden/.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from normfilt import cli, reports

GOLDEN = Path(__file__).parent / "golden"
CORPUS = Path(cli.__file__).parent / "corpus"
FORMATS = ("json", "csv", "md")
ENTRIES = ("poly3_cubes_diag", "sg_4_5_11_uv")
COMMANDS = ("table", "coeffs", "sally")
# golden file stem -> (entry, extra check arguments): a tampered table at a
# high horizon refutes the J-good closed form and reads g_s from the tampered
# entry; at the default horizon the tamper breaks the fits instead
TAMPERED = {
    "sg_4_5_11_uv.check.nmax12-tamper0": ("sg_4_5_11_uv", ["--nmax", "12", "--tamper-normal", "0"]),
    "poly3_maximal.check.tamper2": ("poly3_maximal", ["--tamper-normal", "2"]),
}


def run_cli(argv, expected_code=0) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    assert code == expected_code
    return out.getvalue()


@pytest.fixture(scope="module")
def rendered():
    text = run_cli(["corpus", "--format", "json"])
    payload = json.loads(text)
    return {"json": text, **{fmt: reports.render(payload, fmt) for fmt in FORMATS[1:]}}


@pytest.mark.parametrize("fmt", FORMATS)
def test_corpus_output_matches_golden(rendered, fmt):
    golden = (GOLDEN / f"corpus.{fmt}").read_bytes()
    assert rendered[fmt].encode("utf-8") == golden


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("entry", ENTRIES)
def test_entry_output_matches_golden(entry, command, fmt):
    text = run_cli([command, str(CORPUS / f"{entry}.nfilt"), "--format", fmt])
    assert text.encode("utf-8") == (GOLDEN / f"{entry}.{command}.{fmt}").read_bytes()


@pytest.mark.parametrize("stem", TAMPERED)
def test_tampered_check_matches_golden(stem):
    entry, extra = TAMPERED[stem]
    text = run_cli(["check", str(CORPUS / f"{entry}.nfilt"), *extra], expected_code=1)
    assert text.encode("utf-8") == (GOLDEN / f"{stem}.json").read_bytes()
