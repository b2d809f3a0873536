"""The differential sweep of tests/diffsweep.py, on a handful of its lines."""

import shutil

import diffsweep

SRC = diffsweep.REPO / "src"
LINES = [
    ["table", "corpus/poly2_x2_y2.nfilt", "--format", "csv"],
    ["check", "corpus/sg_4_5_11.nfilt", "--tamper-normal", "0"],
    ["coeffs", "negative/gcd_bad.nfilt", "--format", "json"],
    ["sally", "random/random_0.nfilt", "--format", "md"],
    ["corpus", "negative", "--format", "md"],
]


def test_sweep_of_the_working_tree_against_itself(tmp_path):
    lines = diffsweep.command_lines(diffsweep.write_inputs(tmp_path, seed=1, random_count=1))
    assert all(argv in lines for argv in LINES)
    assert diffsweep.sweep(SRC, SRC, LINES, tmp_path) == (len(LINES), [])


def test_sweep_reports_a_changed_output(tmp_path):
    diffsweep.write_inputs(tmp_path, seed=1, random_count=1)
    changed = tmp_path / "changed"
    shutil.copytree(SRC / "normfilt", changed / "normfilt")
    with open(changed / "normfilt" / "cli.py", "a") as f:
        f.write("print('changed')\n")
    same, diffs = diffsweep.sweep(SRC, changed, LINES[:1], tmp_path)
    assert same == 0
    [(argv, base, head)] = diffs
    assert argv == LINES[0] and head[0] == b"changed\n" + base[0]


def test_expected_differences_pass_and_others_fail(tmp_path, monkeypatch, capsys):
    # main runs on seven lines whose outputs the changed tree alters; listing
    # one of them leaves six to fail the sweep, each printed as a command line
    # (the detail of the first five only), and the report itself, used as the
    # list, passes
    lines = LINES + [["table", "corpus/poly2_x2_y2.nfilt", "--format", "json"],
                     ["check", "corpus/sg_4_5_11.nfilt", "--nmax", "3"]]
    changed = tmp_path / "changed"
    shutil.copytree(SRC / "normfilt", changed / "normfilt")
    with open(changed / "normfilt" / "cli.py", "a") as f:
        f.write("print('changed')\n")
    monkeypatch.setattr(diffsweep, "REPO", tmp_path)
    monkeypatch.setattr(diffsweep, "command_lines", lambda paths: lines)
    monkeypatch.setattr(diffsweep, "write_inputs", lambda root, seed, count: [])
    monkeypatch.setattr(diffsweep, "extract", lambda rev, dest: SRC)
    (tmp_path / "src").symlink_to(changed)
    expect = tmp_path / "expect.txt"
    expect.write_text("# may change\nnormfilt " + " ".join(lines[0]) + "\n\n")
    assert diffsweep.read_expected(expect) == {tuple(lines[0])}
    assert diffsweep.main(["BASE", "--expect-diff", str(expect)]) == 1
    out = capsys.readouterr().out
    assert "# 7 lines: 0 identical, 7 differing" in out
    assert "# 1 of 1 lines listed by --expect-diff differ; 6 other lines differ" in out
    printed = [text for text in out.splitlines() if not text.startswith("#")]
    assert printed == ["normfilt " + " ".join(line) for line in lines[1:]]
    assert sum(text.startswith("#   base: ") for text in out.splitlines()) == 5
    expect.write_text(out)
    assert diffsweep.read_expected(expect) == {tuple(line) for line in lines[1:]}
    assert diffsweep.main(["BASE", "--expect-diff", str(expect)]) == 1  # lines[0] is not listed
    expect.write_text(out + "normfilt " + " ".join(lines[0]) + "\n")
    assert diffsweep.main(["BASE", "--expect-diff", str(expect)]) == 0
    expect.write_text("table corpus/missing.nfilt\n")
    assert diffsweep.main(["BASE", "--expect-diff", str(expect)]) == 2
