"""Byte-for-byte guard on the CLI reports in every output format.

The files under tests/golden/ are the output of `normfilt corpus --format F`
and of `normfilt C FILE --format F` for C in table, coeffs and sally on two
bundled entries, one per ring class, at the default horizon, plus the json
`check` report of three tampered runs (TAMPERED), which exit 1, and the json
`table --nmax 2` of the three seed-1 ideals of `test_newton.newton_wide_gens`,
whose Newton polyhedra have many facets, and the json reports of two runs at a
high horizon (DEEP): `table --nmax 10` of the pure squares in four variables,
whose entry text is written inline, and `check --nmax 12` of
poly3_cubes_diag. The corpus is analysed once per module through the CLI
(json), and the csv and md renderings are produced from that same payload.
The entry reports, one tampered check, the json corpus report and the two
high-horizon runs are also produced by fresh interpreters without a bytecode
cache, the way the console script and the benchmark run. To refresh after an
intended output change, rerun the CLI commands into tests/golden/. The json
writer of `reports.render` is also compared with `json.dumps` on generated
payloads.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normfilt import cli, reports
from test_newton import newton_wide_gens

GOLDEN = Path(__file__).parent / "golden"
CORPUS = Path(cli.__file__).parent / "corpus"
FORMATS = ("json", "csv", "md")
ENTRIES = ("poly3_cubes_diag", "sg_4_5_11_uv")
COMMANDS = ("table", "coeffs", "sally")
# golden file stem -> (entry, extra check arguments): a tampered table at a
# high horizon refutes the J-good closed form, while the fits and g_s read the
# counted column; on poly3_maximal the tamper makes a printed Sally length
# negative, and the Sally checkers still verify off the ideal's fit. On
# poly3_cubes at a high horizon table_coherence refutes at the tampered degree
# and almost_minimal_rn2 verifies: it sums no e3 identity, whose summands past
# rn would compare the tampered entry with lambda(R/J·F_j)
TAMPERED = {
    "sg_4_5_11_uv.check.nmax12-tamper0": ("sg_4_5_11_uv", ["--nmax", "12", "--tamper-normal", "0"]),
    "poly3_maximal.check.tamper2": ("poly3_maximal", ["--tamper-normal", "2"]),
    "poly3_cubes.check.nmax12-tamper2": ("poly3_cubes", ["--nmax", "12", "--tamper-normal", "2"]),
}

SQUARES4 = "name squares4\nring polynomial vars=x,y,z,w\nideal x^2 y^2 z^2 w^2\nreduction auto\n"
# golden file stem -> argv of a high-horizon run; squares4.nfilt holds SQUARES4
# and is written to the working directory of the run
DEEP = {
    "squares4.table.nmax10": ["table", "squares4.nfilt", "--nmax", "10"],
    "poly3_cubes_diag.check.nmax12": ["check", str(CORPUS / "poly3_cubes_diag.nfilt"), "--nmax", "12"],
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


def newton_wide_text(name, gens) -> str:
    """An entry file for the 4-variable ideal generated by the exponent vectors gens."""
    tokens = ["*".join(v if e == 1 else f"{v}^{e}" for v, e in zip("xyzw", g) if e) for g in gens]
    return f"name {name}\nring polynomial vars=x,y,z,w\nideal {' '.join(tokens)}\n"


@pytest.mark.parametrize("k", range(3))
def test_newton_wide_table_matches_golden(tmp_path, k):
    name = f"newton_wide_seed1_{k}"
    path = tmp_path / f"{name}.nfilt"
    path.write_text(newton_wide_text(name, newton_wide_gens(1)[k]))
    text = run_cli(["table", str(path), "--nmax", "2", "--format", "json"])
    assert text.encode("utf-8") == (GOLDEN / f"{name}.table.json").read_bytes()


@pytest.mark.parametrize("stem", DEEP)
def test_high_horizon_output_matches_golden(monkeypatch, tmp_path, stem):
    (tmp_path / "squares4.nfilt").write_text(SQUARES4)
    monkeypatch.chdir(tmp_path)
    assert run_cli(DEEP[stem]).encode("utf-8") == (GOLDEN / f"{stem}.json").read_bytes()


def fresh_cases():
    """(golden file name, argv, exit code) of each fresh-interpreter run."""
    for entry in ENTRIES:
        for command in COMMANDS:
            for fmt in FORMATS:
                argv = [command, str(CORPUS / f"{entry}.nfilt"), "--format", fmt]
                yield f"{entry}.{command}.{fmt}", argv, 0
    entry, extra = TAMPERED["poly3_maximal.check.tamper2"]
    yield "poly3_maximal.check.tamper2.json", ["check", str(CORPUS / f"{entry}.nfilt"), *extra], 1
    yield "corpus.json", ["corpus", "--format", "json"], 0
    for stem, argv in DEEP.items():
        yield f"{stem}.json", argv, 0


FRESH = list(fresh_cases())


@pytest.mark.parametrize("name, argv, code", FRESH, ids=[name for name, _, _ in FRESH])
def test_fresh_process_output_matches_golden(tmp_path, name, argv, code):
    src = Path(cli.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    (tmp_path / "squares4.nfilt").write_text(SQUARES4)
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from normfilt.cli import main; sys.exit(main())", *argv],
        env=env, capture_output=True, cwd=tmp_path,
    )
    assert (run.returncode, run.stderr) == (code, b"")
    assert run.stdout == (GOLDEN / name).read_bytes()


# strings that json escapes: quote, backslash, control characters, DEL, and
# characters past ASCII, in and past the BMP (written as surrogate pairs)
TEXTS = st.text(st.sampled_from('"\\\x00\x08\t\n\x0c\r\x1f\x7f\x80é\u2028\ufffe') | st.characters())
PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers(-(2 ** 80), 2 ** 80) | TEXTS,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(TEXTS, inner),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(PAYLOADS)
@example({"a": [], "b": {}, "c": (), "d": [[]], "e": "\U0001f600\ud800", "f": [True, False, None]})
def test_json_rendering_is_that_of_json_dumps(payload):
    assert reports.render(payload, "json") == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("payload", [
    {"e": 1.5},
    {"e": [0, {"f": 2.0}]},
    {"e": {1, 2}},
    {1: "one"},
    {"e": {("k",): 1}},
    {"e": object()},
], ids=["float", "nested-float", "set", "int-key", "tuple-key", "object"])
def test_json_rendering_rejects_what_a_payload_does_not_hold(payload):
    with pytest.raises(TypeError):
        reports.render(payload, "json")
