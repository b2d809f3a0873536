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
    # main runs on three lines whose outputs the changed tree alters; listing
    # two of them leaves the third to fail the sweep, listing all three passes
    lines = LINES[:3]
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
    expect.write_text("# may change\nnormfilt " + " ".join(lines[0]) + "\n\n" + " ".join(lines[1]) + "\n")
    assert diffsweep.read_expected(expect) == {tuple(lines[0]), tuple(lines[1])}
    assert diffsweep.main(["BASE", "--expect-diff", str(expect)]) == 1
    out = capsys.readouterr().out
    assert "3 lines: 0 identical, 3 differing" in out
    assert "2 of 2 lines listed by --expect-diff differ; 1 other lines differ" in out
    assert "normfilt " + " ".join(lines[2]) in out and "normfilt " + " ".join(lines[0]) not in out
    expect.write_text("\n".join(" ".join(line) for line in lines) + "\n")
    assert diffsweep.main(["BASE", "--expect-diff", str(expect)]) == 0
    expect.write_text("table corpus/missing.nfilt\n")
    assert diffsweep.main(["BASE", "--expect-diff", str(expect)]) == 2
