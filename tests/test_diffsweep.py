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
