"""Input-format parsing, canonical formatting, and the command-line interface."""

import json
import os
import shutil
import subprocess
import sys
from functools import cached_property
from importlib import resources
from pathlib import Path

import pytest

import normfilt
from normfilt import analysis, cli, errors, filtration, inputs, monomial, theorems
from normfilt.inputs import format_monomial

CORPUS = resources.files("normfilt") / "corpus"
NEGATIVE = CORPUS / "negative"
BENCH_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
# (U^3, t^6, U·t^2) in k[[t^2,t^3]][U]: no pure-power reduction and S != N, so
# its normal fit is the one that still reads a verification window
SG_2_3_U = str(Path(__file__).resolve().parent / "sg_2_3_u.nfilt")


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
    assert payload["normal"]["basis"] == "proved" and payload["normal"]["h"] == [1, 1, 2, 0, 0]


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
    assert cli.main(["coeffs", SG_2_3_U, "--nmax", "3"]) == 4
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
def test_cli_closure_intersection_at_nmax_1_holds_for_every_n(capsys, name):
    # the equality is proved for every n (`Analysis.basis`), so at nmax 1, where
    # the low degrees 1..min(4, nmax - 1) of the detail are none, it says so
    for nmax, detail in (("1", "holds for every n"), ("2", "verified for n = 1..1")):
        assert cli.main(["check", corpus_path(name), "--nmax", nmax,
                         "--checks", "closure_intersection"]) == 0
        (verdict,) = json.loads(capsys.readouterr().out)["verdicts"]
        assert verdict["conclusion"] == "verified"
        assert verdict["detail"] == "closure(I^(n+1)) ∩ J^n = J^n·closure(I) " + detail


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


def _package_modules(code) -> str:
    """The sorted modules of the package in sys.modules after code runs in a
    fresh interpreter."""
    found = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'normfilt'))"
    return _fresh(f"import sys\n{code}\n{found}").splitlines()[-1]


def test_cli_import_leaves_out_unused_modules():
    # every process compiles what it imports; pytest and hypothesis have loaded
    # every module into this process, so look from fresh ones
    unused = {"fractions", "normfilt.linalg", "dataclasses", "inspect", "csv"}
    assert _loaded("import normfilt.cli, normfilt.inputs", unused) == "[]"
    # a json table loads no checker, no verdict record, no renderer, no
    # argparse, no filtration and no json: its columns are counted and its
    # json is written by reports.render
    unused |= {"argparse", "normfilt.theorems", "normfilt.renderers",
               "normfilt.filtration", "json", "json.decoder"}
    table = f"from normfilt.cli import main\nmain(['table', {corpus_path('sg_4_5_11_uv')!r}])"
    assert _loaded(table, unused) == "[]"
    assert _loaded("from normfilt.cli import main\nmain(['table', '--help'])", unused) == "[]"
    # each command loads exactly these modules of the package, so a module
    # added to its path fails here: a json table 8 of the 11, and the
    # checkers of check and corpus read h and the fits of the filtration module
    loads = {"normfilt", "normfilt.cli", "normfilt.inputs", "normfilt.monomial",
             "normfilt.newton", "normfilt.errors", "normfilt.analysis", "normfilt.reports"}
    assert _package_modules(table) == str(sorted(loads))
    loads |= {"normfilt.filtration", "normfilt.theorems"}
    check = f"from normfilt.cli import main\nmain(['check', {corpus_path('poly3_cubes')!r}])"
    assert _package_modules(check) == str(sorted(loads))
    assert _package_modules("from normfilt.cli import main\nmain(['corpus'])") == str(sorted(loads))


def test_parsing_an_entry_loads_no_analysis():
    path = corpus_path("sg_4_5_11_uv")  # no checks line: only that loads the checkers
    code = ("from pathlib import Path\nfrom normfilt import inputs\n"
            f"inputs.build_entry(inputs.parse_input(Path({path!r}).read_text()), default_name='e')")
    analysis_modules = {f"normfilt.{m}" for m in
                        ("filtration", "analysis", "theorems", "reports")}
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

    for name in names:  # h and basis are Analysis properties, fit_coefficients a function
        owner = next(o for o in (analysis.Analysis, filtration) if hasattr(o, name))
        lazy = isinstance(vars(owner).get(name), (property, cached_property))
        monkeypatch.setattr(owner, name, property(fail) if lazy else fail)


def test_cli_table_computes_no_fit_reduction_number_or_vv(monkeypatch, capsys):
    # rn and the normal fit are read off h
    _forbid(monkeypatch, "basis", "h", "fit_coefficients")
    assert cli.main(["table", corpus_path("poly3_cubes")]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][2] == [2, 165, 270, 168, 3]


@pytest.mark.parametrize("name, row, calls", [
    ("poly3_cubes", [2, 165, 270, 168, 3], 1),  # reduction found: its J-good column reads e0
    ("poly2_x2_xy_y3", [2, 27, 27], 0),  # no reduction, no J-good column
])
def test_cli_table_computes_only_the_input_multiplicity(monkeypatch, capsys, name, row, calls):
    # lambda(R/J) is read as e0 of the input ideal, whose hull the normal column
    # builds anyway: one multiplicity, in place of the colength of J
    hulls, real = [], monomial.multiplicity

    def count(hull):
        hulls.append(hull)
        return real(hull)

    monkeypatch.setattr(monomial, "multiplicity", count)
    assert cli.main(["table", corpus_path(name)]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][2] == row
    assert len(hulls) == calls


@pytest.mark.parametrize("name", ["poly3_cubes", "sg_4_5_11_uv"])
def test_cli_intersection_and_socle_checks_build_no_product_or_maximal_ideal(monkeypatch, capsys, name):
    # closure_intersection reads the Valabrega-Valla proof and builds nothing,
    # and the socle is counted without m or (J^n : m): the only products are
    # J^2 = J^1·J and J^3 = J^2·J, each with the laid J as its second factor
    seen, built = [], []

    def times_j(x, y):
        if y.gens != seen[0].reduction.gens:
            raise AssertionError("built although the checker only counts")
        built.append(monomial.multiply(x, y))
        return built[-1]

    monkeypatch.setattr(cli, "analyze", lambda entry: seen.append(analysis.analyze(entry)) or seen[-1])
    monkeypatch.setattr(analysis, "multiply", times_j)
    assert cli.main(["check", corpus_path(name), "--checks", "closure_intersection,socle_formula"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert [(v["check"], v["conclusion"]) for v in verdicts] == [
        ("closure_intersection", "verified"), ("socle_formula", "verified")]
    assert len(built) == 2


def test_cli_almost_minimal_check_builds_no_product(monkeypatch, capsys):
    # its e3 identity, whose summands past rn = 2 are all 0, is not summed,
    # and its intersection sum is read off h: no J·closure(I^j) is built
    calls = _count_calls(monkeypatch)
    path = corpus_path("poly3_cubes")
    assert cli.main(["check", path, "--nmax", "12", "--checks", "almost_minimal_rn2"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert [(v["check"], v["conclusion"]) for v in verdicts] == [("almost_minimal_rn2", "verified")]
    assert calls == []


@pytest.mark.parametrize("name", ["poly3_maximal", "sg_4_5_11_uv"])
def test_cli_low_type_check_builds_no_product(monkeypatch, capsys, name):
    # lambda(m^2/Jm) = e0 + d - 1 - mu(m): theorems names no kernel function
    # (test_layering), and neither lambda(R/Jm) nor lambda(R/m^2) is counted
    def fail(*args, **kwargs):
        raise AssertionError("counted although the checker reads e0 and mu(m)")

    for module in (monomial, analysis):
        monkeypatch.setattr(module, "colength", fail)
    assert cli.main(["check", corpus_path(name), "--checks", "low_type_cm"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert [(v["check"], v["conclusion"]) for v in verdicts] == [("low_type_cm", "verified")]


def _count_calls(monkeypatch, real=monomial.multiply) -> list:
    """Record each call of the kernel function real, by default
    monomial.multiply, under every name a module of the package binds it to."""
    calls = []

    def count(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("normfilt."):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, count)
    return calls


# products built per command; 74, 48, 16 and 14 when e3_vanishing_cm built its
# own chain J^(n-1)·closure(I^2) and J^k lived in a second filtration, 61
# and 41 on the first two when e3_nonnegative built J^n for every n < nmax,
# 54, 34, 27 and 20 on the first two and the last two when low_type_cm
# scanned the reduction number of G(m) from nmax instead of from e - 1, and
# 36 and 18 on the first two when table_coherence fitted the adic column,
# whose running product built I^2..I^(nmax+1), and 24, 10, 17 and 4 on the
# first two and the last two when low_type_cm built m^2..m^e and J·m^n to
# test G(m), which it now reads off the semigroup, and 16, 9 and 9 on the
# semigroup entry when the checkers that read VV scanned it there, building J·F_0,
# and 15, 8 and 8 there when its rn was scanned from nmax down, not from B - 1,
# B = rn_bound(J), with every term a closure power; 7, 8, 3, 2, 3 and 2 while
# rn was scanned on J·F_n products and the checkers compared ideals built from
# J: now the only products are J^2 and J^3 of socle_formula, and rn is deg h
PRODUCTS = [
    ("sg_4_5_11_uv", ["--nmax", "12"], 2),
    ("poly3_maximal", [], 2),
    ("sg_4_5_11_uv", ["--checks", "e3_vanishing_cm"], 0),
    ("poly3_maximal", ["--checks", "e3_vanishing_cm"], 0),
    ("sg_4_5_11_uv", ["--checks", "low_type_cm"], 0),
    ("poly3_maximal", ["--checks", "low_type_cm"], 0),
]
# intersections built per command: none, as the package has no intersection
# (the oracle's `intersect` lives in tests/oracles.py); a loop that compares
# J^n ∩ F_(n+2) past rn - 2 raised the first two to 22 and 12 when
# e3_nonnegative did, the first is 10 when low_type_cm intersected m^n with J,
# the semigroup entry's are 6 and 2 when its VV scan intersected F_1 and F_2
# with J, and the first two were 4 while closure_intersection compared
# J^n ∩ F_(n+1) with J^n·F_1
INTERSECTIONS = [
    ("sg_4_5_11_uv", ["--nmax", "12"], 0),
    ("poly3_maximal", [], 0),
    ("sg_4_5_11_uv", ["--checks", "e3_vanishing_cm"], 0),
    ("poly3_maximal", ["--checks", "e3_vanishing_cm"], 0),
]


@pytest.mark.parametrize("name, args, count", PRODUCTS)
def test_cli_check_builds_the_pinned_products(monkeypatch, capsys, name, args, count):
    calls = _count_calls(monkeypatch)
    assert cli.main(["check", corpus_path(name), *args]) == 0
    capsys.readouterr()
    assert len(calls) == count


@pytest.mark.parametrize("name, args, count", INTERSECTIONS)
def test_cli_check_builds_the_pinned_intersections(monkeypatch, capsys, name, args, count):
    from oracles import intersect  # the kernel's intersection, now a test oracle

    assert not any(hasattr(m, "intersect") for k, m in sys.modules.items()
                   if k.startswith("normfilt."))
    calls = _count_calls(monkeypatch, intersect)
    assert cli.main(["check", corpus_path(name), *args]) == 0
    capsys.readouterr()
    assert len(calls) == count


@pytest.mark.parametrize("name", ["sg_4_5_11_uv", "poly3_maximal"])
def test_e3_vanishing_check_builds_no_product_beyond_rn_and_vv(monkeypatch, name):
    # its chain holds as rn = deg h <= 2, which e3_bar = 0 forces: nothing is built
    a = analysis.analyze(inputs.build_entry(inputs.parse_input(Path(corpus_path(name)).read_text())))
    assert a.basis == "proved" and a.rn is not None
    calls = _count_calls(monkeypatch)
    assert theorems.CHECKS["e3_vanishing_cm"][0](a).conclusion == "verified"
    assert calls == []


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
    # the one Valabrega-Valla test left in the package is that of G(m)
    _forbid(monkeypatch, "tangent_cone_failure")
    assert cli.main(["check", corpus_path("poly3_cubes"), "--checks", "socle_formula"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert [(v["check"], v["conclusion"]) for v in verdicts] == [("socle_formula", "verified")]


@pytest.mark.parametrize("command", ["check", "coeffs"])
def test_cli_runs_no_vv_scan_where_s_is_n(monkeypatch, capsys, tmp_path, command):
    # the normal G is proved Cohen-Macaulay wherever there is a pure-power
    # reduction, and on S = N (see `Analysis.basis`): no corpus entry of either
    # ring class, and no entry of k[[t]][U,V], reads a column, h or rn for it,
    # and `coeffs` prints the proved basis, with h, on every one of them
    naturals = tmp_path / "naturals.nfilt"
    naturals.write_text("ring semigroup gens=1 adjoin=U,V\nideal t^2 U^2 V^2 t*U\n")
    paths = sorted(str(path) for path in CORPUS.iterdir() if path.suffix == ".nfilt")
    assert len(paths) == 8
    real = analysis.Analysis.basis.fget

    def basis(a):
        with monkeypatch.context() as m:
            _forbid(m, "normal_values", "h", "rn", "socle_lengths")
            return real(a)

    monkeypatch.setattr(analysis.Analysis, "basis", property(basis))
    for path in [*paths, str(naturals)]:
        assert cli.main([command, path]) == 0, path
        payload = json.loads(capsys.readouterr().out)
        if command == "coeffs":
            assert payload["normal"]["basis"] == "proved", path
            assert sum(payload["normal"]["h"]) == payload["e0"], path


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

    counted, real = [], monomial.closure_count

    def count(hull, k, gaps):
        counted.append(k)
        return real(hull, k, gaps)

    monkeypatch.setattr(monomial, "closure_count", count)
    assert a.normal_values[:4] == (6, 20, 42, 72)
    assert len(a.h) == 2  # B = d - 1 on S = N
    assert sorted(counted) == [1, 2]  # H(k) for k <= d, the rest from the polynomial


@pytest.mark.parametrize("name", ["poly2_x2_y2", "poly3_cubes", "poly3_cubes_diag", "poly3_maximal",
                                  "poly3_maximal_square", "sg_4_5_11", "sg_4_5_11_uv"])
def test_table_and_sally_build_no_closure_power(monkeypatch, capsys, name):
    # the normal column and lambda(R/closure(I)) of the J-good column are
    # counted on every ring, and the package has no closure power to build:
    # sally multiplies nothing, and table only the adic column's I^2..I^(nmax+1)
    assert not any(hasattr(m, "closure_power") for k, m in sys.modules.items()
                   if k.startswith("normfilt."))
    calls = _count_calls(monkeypatch)
    assert cli.main(["sally", corpus_path(name)]) == 0
    capsys.readouterr()
    assert calls == []
    assert cli.main(["table", corpus_path(name)]) == 0
    assert len(calls) == json.loads(capsys.readouterr().out)["nmax"]


# a 4-variable entry with 16 generators and no monomial reduction, read at --nmax 2
NEWTON_WIDE_STYLE = ("ring polynomial vars=x,y,z,w\nideal x^4 y^4 z^4 w^4 x^2*y x^2*w x*y^2 x*y*z"
                     " x*z^2 x*z*w x*w^2 y^2*z y^2*w y*z^2 y*z*w z^2*w\n")


@pytest.mark.parametrize("name", ["poly2_x2_xy_y3", "poly2_x2_y2", "poly3_cubes", "poly3_cubes_diag",
                                  "poly3_maximal", "poly3_maximal_square", "sg_4_5_11",
                                  "sg_4_5_11_uv", "newton_wide_style"])
def test_table_and_sally_build_no_filtration(monkeypatch, capsys, tmp_path, name):
    # both columns are counted and the J-good one is a closed form, so no
    # ideal is built from J: only socle_formula builds its powers
    argv = [corpus_path(name)]
    if name == "newton_wide_style":
        path = tmp_path / "newton_wide_style.nfilt"
        path.write_text(NEWTON_WIDE_STYLE)
        argv = [str(path), "--nmax", "2"]
    outputs = []
    for command in ("table", "sally"):
        outputs.append((cli.main([command, *argv]), capsys.readouterr().out))

    _forbid(monkeypatch, "socle_lengths")
    for command, (code, out) in zip(("table", "sally"), outputs):
        assert cli.main([command, *argv]) == code
        assert capsys.readouterr().out == out


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


CORPUS_NAMES = ("poly2_x2_xy_y3", "poly2_x2_y2", "poly3_cubes", "poly3_cubes_diag",
                "poly3_maximal", "poly3_maximal_square", "sg_4_5_11", "sg_4_5_11_uv")


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_cli_every_tamper_index_is_refuted(capsys, name):
    # table_coherence compares the printed normal column with the counted one,
    # which no tamper reaches, also where the tamper breaks every fit
    assert cli.main(["table", corpus_path(name)]) == 0
    nmax = json.loads(capsys.readouterr().out)["nmax"]
    for index in range(nmax + 1):
        assert cli.main(["check", corpus_path(name), "--tamper-normal", str(index)]) == 1
        [coherence] = [v for v in json.loads(capsys.readouterr().out)["verdicts"]
                       if v["check"] == "table_coherence"]
        assert coherence["conclusion"] == "refuted-with-witness"
        assert coherence["witnesses"][0]["degree"] == index


# the checkers that refute, with their hits, over every tamper index of the
# corpus at the default horizon (68 runs) and over --nmax 12 --tamper-normal 0..4
# on poly3_cubes and poly3_cubes_diag (10 runs); no other checker refutes there.
# Each reads the printed column: the normal entries, or the Sally column, which
# is the J-good closed form less the printed entry. The fits read h off the
# counted column, so no tamper breaks them: e1_equality_equivalence refuted 4
# while the fits read the printed column and a tamper among the fitted entries
# made it, and e1_type_sandwich and low_type_cm, which read the Sally entry 1,
# inconclusive-horizon, and its other 22 hits are the rn <= 1 entries
# poly2_x2_y2, poly3_maximal and poly3_maximal_square, whose Sally column
# vanishes but for the tampered entry. almost_minimal_rn2 refuted 6 of the
# latter while it summed its e3 identity past rn, where only the tampered
# entry moved a summand
REFUTING = {"table_coherence": 78, "length_bound_decomposition": 61, "series_identity": 9,
            "e1_equality_equivalence": 26, "e1_type_sandwich": 1, "low_type_cm": 1}


def test_cli_tamper_ledger_pins_the_refuting_checkers(capsys):
    runs = []
    for name in CORPUS_NAMES:
        assert cli.main(["table", corpus_path(name)]) == 0
        nmax = json.loads(capsys.readouterr().out)["nmax"]
        runs += [[corpus_path(name), "--tamper-normal", str(i)] for i in range(nmax + 1)]
    for name in ("poly3_cubes", "poly3_cubes_diag"):
        runs += [[corpus_path(name), "--nmax", "12", "--tamper-normal", str(i)] for i in range(5)]
    hits = {}
    for args in runs:
        assert cli.main(["check", *args]) == 1
        for v in json.loads(capsys.readouterr().out)["verdicts"]:
            if v["conclusion"] == "refuted-with-witness":
                hits[v["check"]] = hits.get(v["check"], 0) + 1
    assert len(runs) == 78
    assert hits == REFUTING


@pytest.mark.parametrize("name", [n for n in CORPUS_NAMES if n != "poly2_x2_xy_y3"])
def test_cli_tamper_never_reads_as_a_horizon_miss(capsys, name):
    # with a reduction the fits read h off the counted column, which no tamper
    # reaches: a tampered entry is refuted or not, never short of horizon
    assert cli.main(["table", corpus_path(name)]) == 0
    nmax = json.loads(capsys.readouterr().out)["nmax"]
    for index in range(nmax + 1):
        assert cli.main(["check", corpus_path(name), "--tamper-normal", str(index)]) == 1
        conclusions = {v["conclusion"] for v in json.loads(capsys.readouterr().out)["verdicts"]}
        assert "inconclusive-horizon" not in conclusions, index


def test_cli_coeffs_fits_with_one_entry_fewer(capsys):
    # on the one normal path that still fits through a window, e0 is known, so
    # a fit reads d entries plus the window, all that --nmax 5 holds
    assert cli.main(["coeffs", SG_2_3_U, "--nmax", "5"]) == 0
    normal = json.loads(capsys.readouterr().out)["normal"]
    assert normal == {"e": [12, 6, 1], "g_s": 1, "stable_from": 0, "basis": "window", "h": None}
    assert cli.main(["coeffs", SG_2_3_U, "--nmax", "4"]) == 4


def test_cli_coeffs_reads_the_fit_off_h_at_the_default_horizon(capsys):
    # with a reduction the normal fit is read off h, from the B + 1 = 11 counted
    # entries of k[[t^31,t^37,t^41]], past the 7 printed: no --nmax is needed
    assert cli.main(["coeffs", str(BENCH_INPUTS / "sg_31_37_41.nfilt")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nmax"] == 6 and payload["rn"] == 10
    assert (payload["normal"]["e"], payload["normal"]["stable_from"]) == ([31, 162], 9)


def _forbid_adic(monkeypatch):
    def fail(self):
        raise AssertionError("the adic column was read")

    monkeypatch.setattr(analysis.Analysis, "adic_values", property(fail))


def test_cli_table_coherence_of_s3_verifies_without_the_adic_column(tmp_path, capsys, monkeypatch):
    # (x^6, y^6, z^6, w^6, x*y*z*w^3): its normal fit needs d + window = 10 of
    # the 11 entries, and the adic column is not read
    _forbid_adic(monkeypatch)
    f = tmp_path / "s3.nfilt"
    f.write_text("ring polynomial vars=x,y,z,w\nideal x^6 y^6 z^6 w^6 x*y*z*w^3\n")
    assert cli.main(["check", str(f), "--checks", "table_coherence"]) == 0
    [verdict] = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdict["conclusion"] == "verified"


def test_cli_check_reads_no_adic_value(capsys, monkeypatch):
    # the paper's statements are about the normal filtration alone: `check`
    # of the corpus and of the benchmark's three check jobs never computes
    # the adic column, which `table` and `coeffs` still print
    _forbid_adic(monkeypatch)
    runs = [[corpus_path(name)] for name in CORPUS_NAMES] + [
        [corpus_path("poly3_cubes_diag"), "--nmax", "12"],
        [corpus_path("sg_4_5_11_uv"), "--nmax", "12"],
        [str(BENCH_INPUTS / "sg_31_37_41.nfilt"), "--nmax", "20"],
    ]
    for args in runs:
        assert cli.main(["check", *args]) == 0, args
        assert json.loads(capsys.readouterr().out)["verdicts"]


def test_cli_horizon_misses_are_not_abstentions(tmp_path, capsys):
    # on the one normal path that still fits through a window, a checker short
    # only of that fit reads inconclusive-horizon and one that also misses a
    # hypothesis abstains; a detail two gates share is given once, on the same
    # ideal with V^3 adjoined (d = 3, where e3_zero reads the fit too)
    assert cli.main(["check", SG_2_3_U, "--nmax", "4"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    short = [v["check"] for v in verdicts if v["conclusion"] == "inconclusive-horizon"]
    assert short == ["table_coherence"]
    assert all("no certified reduction" in v["detail"] or "needs dimension" in v["detail"]
               for v in verdicts if v["conclusion"] == "abstained")
    f = tmp_path / "sg_2_3_uv.nfilt"
    f.write_text("ring semigroup gens=2,3 adjoin=U,V\nideal U^3 V^3 t^6 U*t^2\n")
    assert cli.main(["check", str(f), "--nmax", "6"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    short = [v["check"] for v in verdicts if v["conclusion"] == "inconclusive-horizon"]
    assert short == ["table_coherence", "e3_nonnegative"]
    sandwich = next(v for v in verdicts if v["check"] == "e1_type_sandwich")
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
