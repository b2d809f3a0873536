"""Input-format parsing, canonical formatting, and the command-line interface."""

import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import normfilt
from normfilt import analysis, cli, errors, filtration, inputs, monomial, theorems
from normfilt.backends import format_monomial

CORPUS = resources.files("normfilt") / "corpus"
NEGATIVE = CORPUS / "negative"
BENCH_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


def corpus_path(name):
    return str(CORPUS / f"{name}.nfilt")


# --- parsing -------------------------------------------------------------------


def test_parse_monomial_tokens():
    names = ("x", "y", "z")
    assert inputs.parse_monomial("x^2*y", names, 1, "") == (2, 1, 0)
    assert inputs.parse_monomial("z", names, 1, "") == (0, 0, 1)
    assert inputs.parse_monomial("x*x*y^3", names, 1, "") == (2, 3, 0)
    assert inputs.parse_monomial("1", names, 1, "") == (0, 0, 0)
    assert format_monomial(names, (2, 1, 0)) == "x^2*y"
    assert format_monomial(names, (0, 0, 0)) == "1"


@pytest.mark.parametrize(
    "name",
    [
        "poly2_x2_xy_y3", "poly2_x2_y2", "poly3_cubes", "poly3_cubes_diag",
        "poly3_maximal", "poly3_maximal_square", "sg_4_5_11", "sg_4_5_11_uv",
    ],
)
def test_corpus_round_trip(name):
    text = (CORPUS / f"{name}.nfilt").read_text()
    parsed = inputs.parse_input(text)
    assert parsed.name == name


def test_parse_semigroup_entry():
    entry = inputs.parse_input(
        "ring semigroup gens=4,5,11 adjoin=U,V\nideal maximal\nreduction t^4 U V\n"
    )
    ring = entry.backend
    assert ring.kind == "semigroup" and ring.names == ("U", "V")
    assert ring.sg.gens == (4, 5, 11)
    assert entry.ideal == ring.maximal()
    # tokens parse into kernel axis order: the S-axis t comes last
    assert entry.reduction.gens == ((0, 0, 4), (0, 1, 0), (1, 0, 0))
    assert entry.name is None and entry.nmax is None and entry.checks is None


def test_elements_print_t_first_without_exponent_one():
    entry = inputs.parse_input("ring semigroup gens=1 adjoin=U\nideal t U^2\n")
    ring = entry.backend
    assert ring.axes == ("U", "t") and ring.shown == ("t", "U")
    assert [ring.element_str(g) for g in entry.ideal.gens] == ["t", "U^2"]
    assert ring.element_str((2, 1)) == "t*U^2"
    ring = inputs.parse_input("ring semigroup gens=4,5,11 adjoin=U,V\nideal maximal\n").backend
    assert ring.element_str((1, 0, 4)) == "t^4*U" and ring.element_str((0, 0, 0)) == "1"


def test_parse_polynomial_defaults():
    entry = inputs.parse_input("ring polynomial dim=3\nideal x^2 y^2 z^2\n")
    assert entry.backend.kind == "polynomial"
    assert entry.backend.names == ("x", "y", "z")
    assert entry.reduction == "auto"
    assert entry.ideal.gens == ((0, 0, 2), (0, 2, 0), (2, 0, 0))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("ring polynomial vars=x,y\nideal x^2 w\n", "unknown variable"),
        ("ring polynomial vars=x,y\nideal x^0 y\n", "positive integer"),
        ("ring polynomial vars=x,y\nidea x\n", "unknown directive"),
        ("ring polynomial vars=x,y\nring polynomial vars=x,y\nideal x\n", "duplicate"),
        ("ideal x^2\nring polynomial vars=x,y\n", "after the ring"),
        ("ring polynomial vars=x,y\n", "ideal"),
        ("ideal-free text\n", "unknown directive"),
        ("ring polynomial vars=x,y\nideal x y\nnmax zero\n", "nmax"),
        ("ring polynomial vars=x,y\nideal x y\nchecks \n", "check"),
        ("ring polynomial vars=x,y\nideal 1 y\n", "unit"),
        ("ring semigroup gens=4,5,11\nideal t^3\n", "not in the semigroup"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(errors.InputError) as info:
        entry = inputs.parse_input(text)
        inputs.build_entry(entry)
    assert fragment in str(info.value)


def test_parse_error_positions():
    with pytest.raises(errors.InputError) as info:
        inputs.parse_input("ring polynomial vars=x,y\nideal x^2 q^3\n")
    assert info.value.line == 2
    assert info.value.column == 11
    assert str(info.value).startswith("line 2, col 11:")


@pytest.mark.parametrize("text, column", [
    ("ring polynomial vars=x,y\nideal x^2 d\n", 11),  # not the d of "ideal"
    ("ring polynomial vars=x,y\nideal x y\nchecks socle_formula,s\n", 22),
])
def test_token_columns_skip_the_directive(text, column):
    with pytest.raises(errors.InputError) as info:
        inputs.parse_input(text)
    assert info.value.column == column


def test_build_entry_rejects_unknown_check():
    parsed = inputs.parse_input("ring polynomial vars=x,y\nideal x y\n")
    with pytest.raises(errors.InputError, match="unknown check"):
        inputs.build_entry(parsed, checks=("no_such_check",))


def test_dimension_limit_is_not_an_input_error():
    with pytest.raises(errors.UnsupportedDimension):
        inputs.parse_input("ring polynomial dim=5\nideal maximal\n")


@pytest.mark.parametrize("text, line, column, fragment", [
    ("name g\n# gcd 2\nring semigroup gens=4,6\nideal maximal\n", 3, 1,
     "greatest common divisor 1"),
    ("\n  ring semigroup gens=0,5\nideal maximal\n", 2, 3, "must be positive integers"),
    ("ring semigroup gens=4,5,11\nnmax 5\nideal t^3\n", 3, 1,
     "valuation 3 is not in the semigroup"),
    ("ring polynomial vars=x,y\nideal x y\nchecks socle_formula, bogus\n", 3, 23,
     "unknown check ids: bogus"),
])
def test_build_errors_report_their_directive(text, line, column, fragment):
    # the ring and its ideals are built at their own lines, not relabelled line 1
    with pytest.raises(errors.InputError) as info:
        inputs.parse_input(text)
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value).startswith(f"line {line}, col {column}: ")
    assert fragment in str(info.value)


@pytest.mark.parametrize("ring, code", [
    ("ring polynomial dim=0", 2),
    ("ring polynomial dim=5", 3),
    ("ring polynomial vars=a,b,c,d,e", 3),
])
def test_dimension_exit_codes(tmp_path, capsys, ring, code):
    f = tmp_path / "dim.nfilt"
    f.write_text(f"{ring}\nideal maximal\n")
    error = errors.UnsupportedDimension if code == 3 else errors.InputError
    with pytest.raises(error):
        inputs.parse_input(f.read_text())
    assert cli.main(["table", str(f)]) == code
    assert ("precondition" if code == 3 else "input") in capsys.readouterr().err


def _entry_files():
    corpus = sorted((p for p in CORPUS.iterdir() if p.name.endswith(".nfilt")), key=lambda p: p.name)
    return corpus + sorted(BENCH_INPUTS.glob("*.nfilt"))


@pytest.mark.parametrize("path", _entry_files(), ids=lambda p: p.name)
def test_parse_and_build_calls_of_the_benchmark(path):
    """The setup probe builds each entry with its file stem as default name,
    the self-test with none; the name line wins over both."""
    text, stem = path.read_text(), path.name.removesuffix(".nfilt")
    (name,) = [ln.split()[1] for ln in text.splitlines() if ln.startswith("name ")]
    unnamed = "\n".join(ln for ln in text.splitlines() if not ln.startswith("name "))
    for source, with_stem, without in ((text, name, name), (unnamed, stem, "entry")):
        assert inputs.build_entry(inputs.parse_input(source), default_name=stem).name == with_stem
        assert inputs.build_entry(inputs.parse_input(source)).name == without
    parsed = inputs.parse_input(text)
    entry = inputs.build_entry(parsed, default_name=stem)
    assert (entry.nmax, entry.checks, entry.tamper_normal) == (parsed.nmax, parsed.checks, None)
    assert entry.backend is parsed.backend and entry.ideal is parsed.ideal
    over = inputs.build_entry(parsed, default_name=stem, nmax=3, checks=["socle_formula"])
    assert (over.nmax, over.checks) == (3, ("socle_formula",))
    assert parsed.name == name and parsed.nmax == entry.nmax  # the parsed entry is kept


# --- CLI -----------------------------------------------------------------------


def test_cli_table_json(capsys):
    assert cli.main(["table", corpus_path("sg_4_5_11"), "--nmax", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "normfilt.table/1"
    assert payload["columns"] == ["n", "normal", "adic", "jgood", "sally"]
    cols = list(zip(*payload["rows"]))
    assert list(cols[0]) == list(range(7))
    assert list(cols[1]) == [1, 3, 7, 11, 15, 19, 23]
    assert list(cols[2]) == [1, 4, 7, 11, 15, 19, 23]
    assert list(cols[3]) == [1, 5, 9, 13, 17, 21, 25]
    assert list(cols[4]) == [0, 2, 2, 2, 2, 2, 2]


def test_cli_output_deterministic(capsys):
    cli.main(["coeffs", corpus_path("sg_4_5_11_uv")])
    first = capsys.readouterr().out
    cli.main(["coeffs", corpus_path("sg_4_5_11_uv")])
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert payload["schema"] == "normfilt.coeffs/1"
    assert payload["normal"]["e"] == [4, 5, 2, 0]
    assert payload["adic"]["e"] == [4, 5, 3, 1]
    assert payload["rn"] == 2
    assert payload["valabrega_valla"]["certified_cm"] is True


def test_cli_formats(capsys):
    assert cli.main(["table", corpus_path("poly2_x2_y2"), "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    assert csv_out.splitlines()[0] == "n,normal,adic,jgood,sally"
    assert cli.main(["table", corpus_path("poly2_x2_y2"), "--format", "md"]) == 0
    md_out = capsys.readouterr().out
    assert md_out.count("|") > 10 and "λ" in md_out


def test_cli_sally(capsys):
    assert cli.main(["sally", corpus_path("poly3_cubes")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "normfilt.sally/1"
    assert payload["values"][:5] == [0, 1, 3, 6, 10]
    assert payload["s"] == [1, 1, 0]


def test_cli_check_verdicts(capsys):
    assert cli.main(["check", corpus_path("poly3_maximal")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "normfilt.check/1"
    assert payload["summary"]["verified"] == 15
    assert payload["summary"]["abstained"] == 1


def test_cli_checks_subset(capsys):
    assert cli.main(
        ["check", corpus_path("poly3_maximal"), "--checks", "socle_formula,e2_lower_bound"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [v["check"] for v in payload["verdicts"]] == ["socle_formula", "e2_lower_bound"]


def test_cli_exit_refuted(capsys):
    code = cli.main(["check", corpus_path("sg_4_5_11"), "--tamper-normal", "2"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    refuted = [v for v in payload["verdicts"] if v["conclusion"] == "refuted-with-witness"]
    assert refuted and refuted[0]["witnesses"]


def test_cli_exit_input_error(capsys):
    assert cli.main(["table", str(NEGATIVE / "gcd_bad.nfilt")]) == 2
    assert "input error" in capsys.readouterr().err


def test_cli_exit_precondition(capsys):
    assert cli.main(["table", str(NEGATIVE / "not_mprimary.nfilt")]) == 3
    assert "precondition error" in capsys.readouterr().err


def test_cli_exit_horizon(capsys):
    assert cli.main(["coeffs", corpus_path("poly3_cubes"), "--nmax", "3"]) == 4
    assert "horizon error" in capsys.readouterr().err


def test_cli_missing_file(capsys):
    assert cli.main(["table", "/nonexistent/file.nfilt"]) == 2
    capsys.readouterr()


def test_cli_tamper_out_of_range(capsys):
    assert cli.main(["check", corpus_path("sg_4_5_11"), "--tamper-normal", "99"]) == 2
    assert "outside the table range" in capsys.readouterr().err


def test_cli_unknown_check_id(capsys):
    assert cli.main(["check", corpus_path("sg_4_5_11"), "--checks", "bogus"]) == 2
    capsys.readouterr()


def test_cli_unsupported_dimension(tmp_path, capsys):
    f = tmp_path / "big.nfilt"
    f.write_text("ring polynomial dim=5\nideal maximal\n")
    assert cli.main(["table", str(f)]) == 3
    capsys.readouterr()


def test_window_line_is_an_unknown_directive(tmp_path, capsys):
    # the fit window is always dim + 2; entries cannot set it
    f = tmp_path / "window.nfilt"
    f.write_text("ring polynomial vars=x,y\nideal x^2 y^2\nwindow 3\n")
    assert cli.main(["table", str(f)]) == 2
    err = capsys.readouterr().err
    assert "line 3, col 1: unknown directive 'window'" in err
    assert "window" not in err.split("expected one of")[1]


def test_cli_sally_needs_reduction(capsys):
    assert cli.main(["sally", corpus_path("poly2_x2_xy_y3")]) == 3
    capsys.readouterr()


def test_cli_corpus_default(capsys):
    assert cli.main(["corpus"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "normfilt.corpus/1"
    assert len(payload["entries"]) == 8
    assert payload["summary"]["verified"] == 83
    assert payload["summary"]["abstained"] == 45
    assert "refuted-with-witness" not in payload["summary"]


def test_cli_corpus_explicit_dir(tmp_path, capsys):
    for name in ("poly2_x2_y2", "sg_4_5_11"):
        shutil.copy(corpus_path(name), tmp_path / f"{name}.nfilt")
    assert cli.main(["corpus", str(tmp_path), "--nmax", "7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [e["entry"] for e in payload["entries"]] == ["poly2_x2_y2", "sg_4_5_11"]


def test_cli_corpus_missing_dir(capsys):
    assert cli.main(["corpus", "/nonexistent/dir"]) == 2
    capsys.readouterr()


def test_cli_corpus_reports_failing_entries(tmp_path, capsys):
    # one bad file used to sink the run: exit 2 and nothing on stdout
    shutil.copy(corpus_path("poly3_cubes"), tmp_path / "poly3_cubes.nfilt")
    for name in ("gcd_bad", "not_mprimary"):
        shutil.copy(NEGATIVE / f"{name}.nfilt", tmp_path / f"{name}.nfilt")
    assert cli.main(["corpus", str(tmp_path)]) == 3
    payload = json.loads(capsys.readouterr().out)
    entries = {e["file"]: e for e in payload["entries"]}
    assert entries["gcd_bad.nfilt"]["exit_code"] == 2
    assert "greatest common divisor" in entries["gcd_bad.nfilt"]["error"]
    assert entries["not_mprimary.nfilt"]["exit_code"] == 3
    assert "not primary" in entries["not_mprimary.nfilt"]["error"]
    assert entries["poly3_cubes.nfilt"]["entry"] == "poly3_cubes"
    assert payload["summary"] == entries["poly3_cubes.nfilt"]["summary"]
    for fmt in ("md", "csv"):
        assert cli.main(["corpus", str(tmp_path), "--format", fmt]) == 3
        out = capsys.readouterr().out
        assert "error (exit code 2): " in out and "error (exit code 3): " in out
        assert "poly3_cubes,socle_formula,verified" in out or "## poly3_cubes" in out


NON_ASCII_DIGITS = [  # str.isdigit accepts ² and ¹, which int() rejects
    ("ring polynomial vars=x,y\nideal x y\nnmax ²\n", 3, 6),
    ("ring polynomial vars=x,y\nideal x^² y\n", 2, 7),
    ("ring semigroup gens=4,5,1¹\nideal maximal\n", 1, 21),
    ("ring polynomial dim=²\nideal maximal\n", 1, 21),
    ("ring semigroup gens=4,5 adjoin=²\nideal maximal\n", 1, 32),
]


@pytest.mark.parametrize("text, line, column", NON_ASCII_DIGITS,
                         ids=["nmax", "exponent", "gens", "dim", "adjoin"])
def test_cli_non_ascii_digits_are_input_errors(tmp_path, capsys, text, line, column):
    f = tmp_path / "digits.nfilt"
    f.write_text(text)
    assert cli.main(["table", str(f)]) == 2
    assert f"input error: line {line}, col {column}: " in capsys.readouterr().err


def test_cli_corpus_survives_non_ascii_digits(tmp_path, capsys):
    shutil.copy(corpus_path("poly2_x2_y2"), tmp_path / "poly2_x2_y2.nfilt")
    (tmp_path / "digits.nfilt").write_text(NON_ASCII_DIGITS[0][0])
    assert cli.main(["corpus", str(tmp_path)]) == 2
    entries = {e["file"]: e for e in json.loads(capsys.readouterr().out)["entries"]}
    assert entries["digits.nfilt"]["exit_code"] == 2
    assert entries["digits.nfilt"]["error"].startswith("line 3, col 6: nmax")
    assert entries["poly2_x2_y2.nfilt"]["summary"]["verified"] > 0


def test_repeated_check_id_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "twice.nfilt"
    f.write_text("ring polynomial vars=x,y\nideal x^2 y^2\nchecks socle_formula, socle_formula\n")
    with pytest.raises(errors.InputError) as info:
        inputs.parse_input(f.read_text())
    assert (info.value.line, info.value.column) == (3, 23)  # the repeat, not the first
    assert "duplicate check id 'socle_formula'" in str(info.value)
    assert cli.main(["check", str(f)]) == 2
    assert cli.main(["check", corpus_path("poly2_x2_y2"), "--checks",
                     "socle_formula,e2_lower_bound,socle_formula"]) == 2
    assert capsys.readouterr().err.endswith("duplicate check id 'socle_formula'\n")


@pytest.mark.parametrize("nmax", ["0", "-1"])
def test_cli_nonpositive_horizon_is_an_input_error(capsys, nmax):
    # corpus used to skip the horizon check and crash with an IndexError
    assert cli.main(["corpus", "--nmax", nmax]) == 2
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert len(entries) == 8
    for e in entries:
        assert e["exit_code"] == 2 and "nmax must be a positive integer" in e["error"]
    assert cli.main(["check", corpus_path("poly3_cubes"), "--nmax", nmax]) == 2
    assert "nmax must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["poly3_cubes", "sg_4_5_11"])
def test_cli_closure_intersection_without_a_degree_is_inconclusive(capsys, name):
    # degrees run over 1..min(4, nmax - 1), an empty range at nmax 1
    assert cli.main(["check", corpus_path(name), "--nmax", "1",
                     "--checks", "closure_intersection"]) == 0
    (verdict,) = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdict["conclusion"] == "inconclusive-horizon"
    assert "nmax = 1" in verdict["detail"]


def _fresh(code) -> str:
    """stdout of code run in a fresh interpreter on this source tree, without a
    bytecode cache, as the benchmark runs it."""
    src = os.path.dirname(os.path.dirname(normfilt.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def _loaded(code, names) -> str:
    """Which of names are in sys.modules after code runs in a fresh interpreter."""
    return _fresh(f"import sys\n{code}\nprint(sorted({names!r} & set(sys.modules)))").splitlines()[-1]


def test_cli_import_leaves_out_unused_modules():
    # every process compiles what it imports; pytest and hypothesis have loaded
    # every module into this process, so look from fresh ones
    unused = {"fractions", "normfilt.linalg", "dataclasses", "inspect", "csv"}
    assert _loaded("import normfilt.cli, normfilt.inputs", unused) == "[]"
    # a json table loads no checker, no verdict record, no renderer and no argparse
    unused |= {"argparse", "normfilt.theorems", "normfilt.verdicts", "normfilt.renderers"}
    table = f"from normfilt.cli import main\nmain(['table', {corpus_path('sg_4_5_11_uv')!r}])"
    assert _loaded(table, unused) == "[]"
    assert _loaded("from normfilt.cli import main\nmain(['table', '--help'])", unused) == "[]"


def test_parsing_an_entry_loads_no_analysis():
    path = corpus_path("sg_4_5_11_uv")  # no checks line: only that loads the checkers
    code = ("from pathlib import Path\nfrom normfilt import inputs\n"
            f"inputs.build_entry(inputs.parse_input(Path({path!r}).read_text()), default_name='e')")
    analysis_modules = {f"normfilt.{m}" for m in
                        ("filtration", "analysis", "theorems", "verdicts", "reports")}
    assert _loaded(code, analysis_modules) == "[]"


def test_package_names_load_on_first_access():
    out = _fresh(
        "import sys, normfilt\n"
        "print(sorted(m for m in sys.modules if m.startswith('normfilt.')))\n"
        "from normfilt import *\n"
        "from normfilt import theorems\n"
        "print(theorems.analyze is analyze and theorems.CHECKS is CHECKS)\n"
        "try:\n    normfilt.no_such_name\nexcept AttributeError as exc:\n    print(exc)\n"
    )
    assert out.splitlines() == ["[]", "True", "module 'normfilt' has no attribute 'no_such_name'"]


def _forbid(monkeypatch, *names):
    def fail(*args, **kwargs):
        raise AssertionError("computed although the command does not read it")

    for name in names:
        monkeypatch.setattr(analysis, name, fail)


def test_cli_table_computes_no_fit_reduction_number_or_vv(monkeypatch, capsys):
    _forbid(monkeypatch, "valabrega_valla", "reduction_number", "fit_coefficients")
    assert cli.main(["table", corpus_path("poly3_cubes")]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][2] == [2, 165, 270, 168, 3]


@pytest.mark.parametrize("name, row", [
    ("poly3_cubes", [2, 165, 270, 168, 3]),  # reduction found
    ("poly2_x2_xy_y3", [2, 27, 27]),  # no reduction
])
def test_cli_table_computes_no_multiplicity(monkeypatch, capsys, name, row):
    def fail(*args, **kwargs):
        raise AssertionError("table reads no multiplicity")

    monkeypatch.setattr(monomial, "multiplicity", fail)
    assert cli.main(["table", corpus_path(name)]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][2] == row


@pytest.mark.parametrize("reduction, message", [
    ("x^4 y^4 z^4", "the given ideal is not a reduction: multiplicity 64 != 27"),
    ("x^2 y^3 z^3", "the given reduction ideal is not contained in the input ideal"),
])
def test_cli_given_reduction_errors(tmp_path, capsys, reduction, message):
    f = tmp_path / "given.nfilt"
    f.write_text(f"ring polynomial vars=x,y,z\nideal x^3 y^3 z^3\nreduction {reduction}\n")
    for command in ("table", "check"):
        assert cli.main([command, str(f)]) == 3
        assert message in capsys.readouterr().err


def test_cli_socle_check_skips_valabrega_valla(monkeypatch, capsys):
    _forbid(monkeypatch, "valabrega_valla")
    assert cli.main(["check", corpus_path("poly3_cubes"), "--checks", "socle_formula"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert [(v["check"], v["conclusion"]) for v in verdicts] == [("socle_formula", "verified")]


def test_cli_semigroup_of_naturals_has_type_one(tmp_path, capsys):
    # k[[t]][U] is regular: type 1, so the socle formula holds
    f = tmp_path / "naturals.nfilt"
    f.write_text("ring semigroup gens=1 adjoin=U\nideal t^2 U^2\n")
    assert cli.main(["check", str(f)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["numbers"]["type"] == 1
    socle = next(v for v in payload["verdicts"] if v["check"] == "socle_formula")
    assert socle["conclusion"] == "verified"


def test_semigroup_of_naturals_takes_the_polynomial_shortcuts(tmp_path, monkeypatch, capsys):
    # k[[t]][U] and k[U,t] are one regular ring: the same numbers, and the
    # normal column of the semigroup ring is counted, not built from closures
    numbers = []
    for ring in ("semigroup gens=1 adjoin=U", "polynomial vars=U,t"):
        f = tmp_path / "naturals.nfilt"
        f.write_text(f"ring {ring}\nideal t^4 U^2 t^2*U\nnmax 9\n")
        for command in ("table", "coeffs"):
            assert cli.main([command, str(f)]) == 0
            payload = json.loads(capsys.readouterr().out)
            for key in ("ring", "type_source", "ideal", "reduction"):  # how they print
                payload.pop(key, None)
            numbers.append(payload)
    assert numbers[:2] == numbers[2:]
    assert numbers[1]["rn"] == 1 and numbers[1]["reduction_source"] == "auto"
    entry = inputs.parse_input("ring semigroup gens=1 adjoin=U\nideal t^4 U^2 t^2*U\n")
    a = analysis.Analysis(inputs.build_entry(entry))

    def fail(*args, **kwargs):
        raise AssertionError("the normal column of S = N builds no closure power")

    monkeypatch.setattr(filtration, "closure_power", fail)
    monkeypatch.setattr(monomial, "closure_power", fail)
    assert a.normal_values[:4] == (6, 20, 42, 72)
    assert a.normal_filt.product_from == 2


def test_cli_default_horizon_fits_dimension_four(tmp_path, capsys):
    f = tmp_path / "maximal4.nfilt"
    f.write_text("ring polynomial dim=4\nideal maximal\n")
    assert cli.main(["coeffs", str(f)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nmax"] == 10
    assert payload["normal"]["e"] == [1, 0, 0, 0, 0]


def test_cli_tamper_range_follows_default_horizon(tmp_path, capsys):
    f = tmp_path / "squares4.nfilt"
    f.write_text("ring polynomial dim=4\nideal x^2 y^2 z^2 w^2\n")
    assert cli.main(["check", str(f), "--tamper-normal", "10"]) == 1
    capsys.readouterr()
    assert cli.main(["check", str(f), "--tamper-normal", "11"]) == 2
    assert "outside the table range 0..10" in capsys.readouterr().err


def _conclusions(payload):
    return {v["check"]: v["conclusion"] for v in payload["verdicts"]}


@pytest.mark.parametrize("dim4, index", [(False, 2), (True, 10)])
def test_cli_tamper_with_vanishing_sally_module_refutes(tmp_path, capsys, dim4, index):
    # the tampered normal colength exceeds the J-good one, so Sally lengths go negative
    path = corpus_path("poly3_maximal")
    if dim4:
        path = tmp_path / "maximal4.nfilt"
        path.write_text("ring polynomial dim=4\nideal maximal\n")
    assert cli.main(["check", str(path), "--tamper-normal", str(index)]) == 1
    conclusions = _conclusions(json.loads(capsys.readouterr().out))
    assert conclusions["table_coherence"] == "refuted-with-witness"
    assert conclusions["length_bound_decomposition"] == "refuted-with-witness"


def test_cli_horizon_misses_are_not_abstentions(tmp_path, capsys):
    f = tmp_path / "maximal4.nfilt"
    f.write_text("ring polynomial dim=4\nideal maximal\n")
    assert cli.main(["check", str(f), "--nmax", "8"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    short = [v for v in verdicts if v["conclusion"] == "inconclusive-horizon"]
    assert len(short) == 12  # table_coherence and the 11 checkers gated on a fit
    assert not [v for v in verdicts if v["conclusion"] == "abstained"]
    sandwich = next(v for v in short if v["check"] == "e1_type_sandwich")
    assert sandwich["detail"].count("normal coefficients unavailable") == 1


# --- command lines -------------------------------------------------------------

FILE = corpus_path("sg_4_5_11")


def test_cli_options_take_attached_values(capsys):
    assert cli.main(["table", FILE, "--nmax", "3", "--format", "md"]) == 0
    spaced = capsys.readouterr().out
    assert cli.main(["table", "--nmax=3", "--format=md", FILE]) == 0
    assert capsys.readouterr().out == spaced


def test_cli_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["normfilt", "table", FILE, "--nmax", "2"])
    assert cli.main() == 0
    assert json.loads(capsys.readouterr().out)["nmax"] == 2


MALFORMED = {
    "unknown command": ["tables", FILE],
    "no command": [],
    "option of another command": ["table", FILE, "--checks", "x"],
    "abbreviated option": ["table", FILE, "--nm", "3"],
    "missing path": ["check"],
    "two paths": ["table", FILE, FILE],
    "two directories": ["corpus", "a", "b"],
    "unknown format": ["table", FILE, "--format", "pdf"],
    "nmax not an integer": ["table", FILE, "--nmax", "x"],
    "tamper index missing": ["check", FILE, "--tamper-normal"],
    "empty check list": ["check", FILE, "--checks="],
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED)
def test_cli_malformed_command_lines_are_input_errors(capsys, argv):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("normfilt: input error: ")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["table", "-h"], ["sally", FILE, "--help"]])
def test_cli_help_prints_the_synopsis(capsys, argv):
    assert cli.main(argv) == 0
    assert capsys.readouterr() == (cli.SYNOPSIS, "")


def test_readme_synopsis_is_the_help_text():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert f"```sh\n{cli.SYNOPSIS}```" in readme


@pytest.mark.parametrize("command", ["check", "corpus"])
def test_cli_check_help_describes_every_check(capsys, command):
    assert cli.main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(cli.SYNOPSIS)
    for check, (_, description) in theorems.CHECKS.items():
        assert f"  {check}: {description}\n" in out


@pytest.mark.parametrize("line, column", [
    ("nmax ²", 6), ("nmax 0", 6), ("nmax 3 4", 8), ("nmax 3 3", 8), ("nmax", 1),
])
def test_nmax_errors_point_at_the_value(tmp_path, capsys, line, column):
    (tmp_path / "bad.nfilt").write_text(f"ring polynomial vars=x,y\nideal x y\n{line}\n")
    message = f"line 3, col {column}: nmax needs one positive integer"
    assert cli.main(["table", str(tmp_path / "bad.nfilt")]) == 2
    assert capsys.readouterr().err == f"normfilt: input error: {message}\n"
    assert cli.main(["corpus", str(tmp_path)]) == 2
    (entry,) = json.loads(capsys.readouterr().out)["entries"]
    assert entry["error"] == message
