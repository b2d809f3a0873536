"""Differential sweep of the command line between a base revision and the working tree.

    python tests/diffsweep.py BASE_REV [--expect-diff FILE]

Extracts `src/` of BASE_REV with `git archive` into a temporary directory
(the repository itself is only read), builds a seeded list of command lines
and runs every line in a fresh interpreter without a bytecode cache, once
against BASE_REV's `src/` and once against the working tree's. The lines run
`table`, `coeffs`, `sally` and `check` in json, csv and md, `table` and
`sally` at `--nmax 12` (counted normal columns to k = 13), `coeffs` and
`sally` at `--nmax 3` (the normal fit, read off the h-vector with a
reduction or on S = N, needs no horizon; the windowed fits, of the adic
column and of the normal column of S != N without a reduction, have too
few entries there past dimension 1, so their horizon error, whose entry
count the window decides), `check` at `--nmax 3` and `--nmax 12`, `check
--tamper-normal 0..4` at the default horizon and at `--nmax 12`, on the
bundled corpus, its negative entries, the benchmark inputs, two fixed
entries (I = (t^3, t^4, U, V) of k[[t^3,t^4,t^5]][U,V], whose closure is
the maximal ideal m though I is not m, and I = (U^3, t^6, U·t^2) of
k[[t^2,t^3]][U] (`tests/sg_2_3_u.nfilt`), which has no pure-power
reduction, so its normal fit reads a window) and 30 random entries of seed
1 (polynomial rings in 1 to 4 variables, semigroup rings, S = N among them,
with 0 to 2 adjoined variables), plus `corpus` over both corpus
directories in every format.
Fixed 4-variable entries with many halfspaces run fewer lines: the
benchmark's newton_wide family (x_i^4 plus 12 of the 16 cubics with
exponents <= 2, from `perfbench/workloads.py`) at seeds 1 to 3 under
`table --nmax 2` and `coeffs`, the stress shape (x^8, y^8, z^8, w^8,
xyzw) under `table --nmax 4`, and (x^6, y^6, z^6, w^6, xyzw^3), which has
a monomial reduction, and sg7 = (t^14, U^4, V^4, W^4) in
k[[t^7,t^9,t^11]][U,V,W] (`tests/sg7.nfilt`), whose reduction number is its
proved bound 5, each under `check` at the default horizon: 1259 lines, two
at a time.
Both sides read the same input files from one scratch directory through
relative paths.

Prints the number of identical and differing (stdout, stderr, exit code)
triples, every differing command line, and the base and head triples of the
first 5; exits 1 when any triple differs. With --expect-diff, FILE lists the
command lines that may differ, one per line as the report prints them (the
leading `normfilt` is optional; blank lines and lines starting with # are
skipped): only a difference on another line exits 1, and a listed line that
the sweep does not run exits 2. Every line of the report but the differing
command lines starts with #, so the report is itself such a FILE.
"""

from __future__ import annotations

import argparse
import io
import os
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))
write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ there
from workloads import newton_wide_texts  # noqa: E402
sys.dont_write_bytecode = write_bytecode
COMMANDS = ("table", "coeffs", "sally", "check")
FORMATS = ("json", "csv", "md")
SEMIGROUPS = ((1,), (2, 3), (3, 5), (3, 4, 5), (4, 5, 11), (5, 7))
MAIN = "import sys; from normfilt.cli import main; sys.exit(main())"
SEED, RANDOM_ENTRIES, JOBS = 1, 30, 2
# closure(I) = m with I != m: low_type_cm must test the powers of m, not of I;
# and S != N with no pure-power reduction: the normal fit still reads a window
FIXED = (("fixed/sg_3_4_5_uv_t3_t4.nfilt",
          "name sg_3_4_5_uv_t3_t4\nring semigroup gens=3,4,5 adjoin=U,V\nideal t^3 t^4 U V\n"),
         ("fixed/sg_2_3_u.nfilt", (REPO / "tests" / "sg_2_3_u.nfilt").read_text()))
# many halfspaces in 4 variables, where the row walk of the normal column prunes most
WIDE_SEEDS = (1, 2, 3)
STRESS = ("wide/stress_x8_xyzw.nfilt",
          "name stress_x8_xyzw\nring polynomial vars=x,y,z,w\nideal x^8 y^8 z^8 w^8 x*y*z*w\n")
# four variables on a large box with a monomial reduction: the heaviest `check` of the sweep
HEAVY = ("wide/s3_x6_xyzw3.nfilt",
         "name s3_x6_xyzw3\nring polynomial vars=x,y,z,w\nideal x^6 y^6 z^6 w^6 x*y*z*w^3\n")
# S != N in four variables with rn at its bound B = 5: `check` builds terms up to degree B only
SG7 = ("wide/sg7.nfilt", (REPO / "tests" / "sg7.nfilt").read_text())


def _monomial(names, exps) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e)


def _members(sg, upto: int) -> list[int]:
    """The positive elements of the semigroup generated by sg, up to upto."""
    reach = [True] + [False] * upto
    for s in range(1, upto + 1):
        reach[s] = any(s >= g and reach[s - g] for g in sg)
    return [s for s in range(1, upto + 1) if reach[s]]


def random_entry(rng: random.Random, k: int) -> str:
    """Entry text of a polynomial ring in 1..4 variables or a semigroup ring
    with 0..2 adjoined variables: one pure power per axis (rarely one
    missing) and up to three more generators."""
    if rng.random() < 0.5:
        d = rng.randint(1, 4)
        names = ("x", "y", "z", "w")[:d]
        ring = f"polynomial vars={','.join(names)}"
        top = 2 if d == 4 else 3
        pure = [rng.randint(1, top) for _ in range(d)]
        values = [range(top + 1)] * d
    else:
        sg = rng.choice(SEMIGROUPS)
        free = rng.randint(0, 2)
        names = ("U", "V")[:free] + ("t",)
        ring = f"semigroup gens={','.join(map(str, sg))}" + (f" adjoin={','.join(names[:-1])}" if free else "")
        members = _members(sg, 12)
        pure = [rng.randint(1, 3) for _ in range(free)] + [rng.choice(members[:4])]
        values = [range(4)] * free + [[0] + members]
    gens = [tuple(p * (j == i) for j in range(len(pure))) for i, p in enumerate(pure)]
    if rng.random() < 0.05:
        gens.pop(rng.randrange(len(gens)))
    for _ in range(rng.randint(0, 3)):
        g = tuple(rng.choice(list(v)) for v in values)
        if any(g):
            gens.append(g)
    return f"name random_{k}\nring {ring}\nideal {' '.join(_monomial(names, g) for g in gens)}\n"


def write_inputs(root: Path, seed: int, random_count: int) -> list[str]:
    """Copy the bundled and benchmark entries under root, write the fixed and
    random ones, and return every entry path relative to root."""
    sources = {
        "corpus": REPO / "src" / "normfilt" / "corpus",
        "negative": REPO / "src" / "normfilt" / "corpus" / "negative",
        "perfbench": REPO / "perfbench" / "inputs",
    }
    paths = []
    for sub, src in sources.items():
        (root / sub).mkdir()
        for f in sorted(src.glob("*.nfilt")):
            shutil.copy(f, root / sub / f.name)
            paths.append(f"{sub}/{f.name}")
    (root / "fixed").mkdir()
    for path, text in FIXED:
        (root / path).write_text(text)
        paths.append(path)
    (root / "wide").mkdir()
    for wide_seed in WIDE_SEEDS:
        for k, text in enumerate(newton_wide_texts(wide_seed)):
            (root / "wide" / f"newton_wide_seed{wide_seed}_{k}.nfilt").write_text(text)
            paths.append(f"wide/newton_wide_seed{wide_seed}_{k}.nfilt")
    for path, text in (STRESS, HEAVY, SG7):
        (root / path).write_text(text)
        paths.append(path)
    (root / "random").mkdir()
    rng = random.Random(seed)
    for k in range(random_count):
        (root / "random" / f"random_{k}.nfilt").write_text(random_entry(rng, k))
        paths.append(f"random/random_{k}.nfilt")
    return paths


def command_lines(paths) -> list[list[str]]:
    """The argv of every line of the sweep."""
    lines = []
    for path in paths:
        if path.startswith("wide/"):
            lines += {STRESS[0]: [["table", path, "--nmax", "4"]], HEAVY[0]: [["check", path]],
                      SG7[0]: [["check", path]]}.get(
                path, [["table", path, "--nmax", "2"], ["coeffs", path]])
            continue
        lines += [[c, path, "--format", f] for c in COMMANDS for f in FORMATS]
        lines += [[c, path, "--nmax", "12"] for c in ("table", "sally")]
        lines += [[c, path, "--nmax", "3"] for c in ("coeffs", "sally")]
        lines += [["check", path, "--nmax", n] for n in ("3", "12")]
        for extra in ([], ["--nmax", "12"]):
            lines += [["check", path, *extra, "--tamper-normal", str(i)] for i in range(5)]
    lines += [["corpus", d, "--format", f] for d in ("corpus", "negative") for f in FORMATS]
    return lines


def run_line(src: Path, argv, cwd: Path) -> tuple[bytes, bytes, int]:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, "-c", MAIN, *argv], env=env, cwd=cwd, capture_output=True)
    return run.stdout, run.stderr, run.returncode


def sweep(base_src: Path, head_src: Path, lines, cwd: Path):
    """(number of identical triples, [(argv, base triple, head triple)] of the differing ones)."""
    def both(argv):
        return argv, run_line(base_src, argv, cwd), run_line(head_src, argv, cwd)

    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(both, lines))
    diffs = [r for r in results if r[1] != r[2]]
    return len(results) - len(diffs), diffs


def extract(rev: str, dest: Path) -> Path:
    """src/ of rev under dest, read with git archive; returns its path."""
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def _show(label, triple) -> str:
    out, err, code = triple
    return f"#   {label}: exit {code}, stdout {out[:200]!r}, stderr {err[:200]!r}"


def read_expected(path: Path) -> set[tuple[str, ...]]:
    """The argv of each command line listed in an --expect-diff file."""
    out = set()
    for text in path.read_text().splitlines():
        words = text.split()
        if words and not words[0].startswith("#"):
            out.add(tuple(words[1:] if words[0] == "normfilt" else words))
    return out


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="diffsweep.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("base_rev")
    parser.add_argument("--expect-diff", type=Path, metavar="FILE",
                        help="command lines that may differ, one per line")
    args = parser.parse_args(argv)
    expected = read_expected(args.expect_diff) if args.expect_diff else set()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "inputs").mkdir()
        lines = command_lines(write_inputs(tmp / "inputs", SEED, RANDOM_ENTRIES))
        unknown = expected - {tuple(line) for line in lines}
        if unknown:
            print(f"--expect-diff lists {len(unknown)} lines the sweep does not run, first: "
                  "normfilt " + " ".join(min(unknown)), file=sys.stderr)
            return 2
        base_src = extract(args.base_rev, tmp / "base")
        same, diffs = sweep(base_src, REPO / "src", lines, tmp / "inputs")
    print(f"# {len(lines)} lines: {same} identical, {len(diffs)} differing "
          "(stdout, stderr, exit code)")
    surprises = [d for d in diffs if tuple(d[0]) not in expected]
    if expected:
        print(f"# {len(diffs) - len(surprises)} of {len(expected)} lines listed by --expect-diff "
              f"differ; {len(surprises)} other lines differ")
    for argv, _, _ in surprises:
        print("normfilt " + " ".join(argv))
    for argv, base, head in surprises[:5]:
        print("# normfilt " + " ".join(argv))
        print(_show("base", base))
        print(_show("head", head))
    return 1 if surprises else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
