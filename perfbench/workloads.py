"""Workload definitions, the newton_wide input generator and the output checks.

A workload is a list of jobs; a job is one `normfilt` invocation. Paths in a
job's arguments are relative to the repository root, which is the working
directory every job runs in.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from itertools import product
from math import comb
from pathlib import Path

DEFAULT_SEED = 1
NEWTON_WIDE_IDEALS = 3  # averaged, so the cost varies little with the seed
CORPUS = "src/normfilt/corpus"
INPUTS = "perfbench/inputs"
WORK_DIR = "perfbench/.work"

# SHA-256 of each job's stdout, recorded from the code this benchmark was
# written against. newton_wide is recorded for DEFAULT_SEED only.
DIGESTS = {
    "corpus": "46b42bd1e8a2a1e7e0489fd2507a2e186b3761b3d8d1b3832c53d3772f9c5f98",
    "squares4_table": "bf554e658fab0b6b7a3a0aba7f67304c34bba7045a6759e5f83c8ddbb10232bf",
    "cubes_diag_check": "f6715ff558cb4f814745c61b875848349c9de37073f4a239dfe18b2a6be8a718",
    "sg_4_5_11_uv_check": "79d77ee23b5d6631bfda3dc631b7c157519630b2a81d30c4be515a26ba4149b6",
    "sg_31_37_41_check": "43318bfacd16592dbdc18ff495e9bd326d80a48dd216a9d12f5625c0d2b59df9",
    "newton_wide_table_0": "05ae2470c542038a30cc74afb6d93d368ab337c7ff563fd8b78c9b9e912ded17",
    "newton_wide_table_1": "432163ef87813f7805309dfa3acaeccd7889f1fa091aae6dfa728ac172a45e51",
    "newton_wide_table_2": "ac94470dddbea35bb80a980bea060f5a8f6a4a57f2ad0bca5173199603183007",
}

# The layer metrics that should hold most of each workload's traced self time.
DOMINANT = {
    "corpus": ("semigroup.ext_mul.self_s", "monomial.quotient_length.self_s",
               "monomial.intersect.self_s", "newton.closure_power.self_s"),
    "poly_deep": ("monomial.intersect.self_s", "monomial.quotient_length.self_s",
                  "monomial.multiply.self_s", "monomial.colon.self_s",
                  "newton.closure_power.self_s"),
    "semigroup_deep": ("semigroup.ext_mul.self_s",),
    "newton_wide": ("newton.hull.self_s",),
}


@dataclass
class Job:
    name: str
    args: list[str]
    inputs: list[str] = field(default_factory=list)  # entry files, for setup_s
    digest: str | None = None
    check: str | None = None  # key of CONTENT_CHECKS; the name when None

    def failures(self, exit_code: int, stdout: bytes) -> list[str]:
        """Reasons this job's result is wrong; empty when it is right. Every
        job is expected to exit 0: no workload entry refutes a statement."""
        if exit_code != 0:
            return [f"exit code {exit_code}, expected 0"]
        out = []
        if self.digest is not None and sha256(stdout) != self.digest:
            out.append("stdout digest differs from the recorded one")
        try:
            payload = json.loads(stdout)
        except ValueError:
            return out + ["stdout is not JSON"]
        out += CONTENT_CHECKS[self.check or self.name](payload)
        return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _column(payload, name):
    i = payload["columns"].index(name)
    return [row[i] for row in payload["rows"]]


def _check_schema(payload, schema):
    got = payload.get("schema")
    return [] if got == schema else [f"schema {got!r}, expected {schema!r}"]


def _check_closed_form_table(payload, formula, what):
    out = _check_schema(payload, "normfilt.table/1")
    normal = _column(payload, "normal")
    want = [formula(n) for n in range(len(normal))]
    if normal != want:
        out.append(f"normal column {normal} is not {what} = {want}")
    return out


def _check_closed_form_fit(payload, dim, formula, what):
    """The fitted normal Hilbert polynomial of a check payload equals formula.

    The payload's e_i define sum_i (-1)^i e_i C(n+d-i, d-i); both sides are
    polynomials in n, so agreement on nmax+1 >= d+1 points is equality.
    """
    out = _check_schema(payload, "normfilt.check/1")
    nums = payload["numbers"]
    e = [nums["e0"]] + [nums.get(f"e{i}_bar") for i in range(1, dim + 1)]
    if None in e:
        return out + ["normal coefficients missing from the check payload"]
    for n in range(payload["nmax"] + 1):
        fitted = sum((-1) ** i * e[i] * comb(n + dim - i, dim - i) for i in range(dim + 1))
        if fitted != formula(n):
            out.append(f"normal Hilbert polynomial at n={n} is {fitted}, not {what} = {formula(n)}")
            break
    if nums["lambda_R_I1"] != formula(0):
        out.append(f"lambda(R/closure(I)) is {nums['lambda_R_I1']}, not {formula(0)}")
    return out


def _check_newton_wide(payload):
    """Seed-independent properties of a table payload."""
    out = _check_schema(payload, "normfilt.table/1")
    normal, adic = _column(payload, "normal"), _column(payload, "adic")
    if _column(payload, "n") != list(range(payload["nmax"] + 1)):
        out.append("rows do not cover n = 0..nmax")
    if any(a > b for a, b in zip(normal, adic)):
        out.append(f"normal {normal} exceeds adic {adic} somewhere")
    for name, col in (("normal", normal), ("adic", adic)):
        if any(a >= b for a, b in zip(col, col[1:])):
            out.append(f"{name} column {col} is not strictly increasing")
    return out


CONTENT_CHECKS = {
    "corpus": lambda p: _check_schema(p, "normfilt.corpus/1")
    + ([] if len(p.get("entries", ())) == 8 else ["corpus payload does not hold 8 entries"]),
    "squares4_table": lambda p: _check_closed_form_table(
        p, lambda n: comb(2 * n + 5, 4), "C(2n+5,4)"),
    "cubes_diag_check": lambda p: _check_closed_form_fit(
        p, 3, lambda n: comb(3 * n + 5, 3), "C(3n+5,3)"),
    "sg_4_5_11_uv_check": lambda p: _check_schema(p, "normfilt.check/1"),
    "sg_31_37_41_check": lambda p: _check_schema(p, "normfilt.check/1"),
    "newton_wide_table": _check_newton_wide,
}

VARS = ("x", "y", "z", "w")


def newton_wide_texts(seed: int) -> list[str]:
    """NEWTON_WIDE_IDEALS 4-variable entries, each x_i^4 plus 12 of the 16
    degree-3 monomials with every exponent <= 2, drawn by the seed. All 16
    generators are minimal, and the Newton polyhedron lies strictly below the
    simplex of the pure powers, so the ideal has no monomial reduction."""
    cubics = sorted(e for e in product(range(3), repeat=4) if sum(e) == 3)
    rng = random.Random(seed)
    texts = []
    for k in range(NEWTON_WIDE_IDEALS):
        drawn = sorted(rng.sample(cubics, 12), reverse=True)
        tokens = [f"{v}^4" for v in VARS]
        for exps in drawn:
            tokens.append("*".join(
                v if e == 1 else f"{v}^{e}" for v, e in zip(VARS, exps) if e
            ))
        texts.append(
            f"# generated by perfbench/workloads.py from seed {seed}\n"
            f"name newton_wide_seed{seed}_{k}\n"
            f"ring polynomial vars={','.join(VARS)}\n"
            f"ideal {' '.join(tokens)}\n"
        )
    return texts


def jobs_for(workload: str, seed: int, root: Path, tamper_normal: int | None = None) -> list[Job]:
    """The job list of a workload; writes generated inputs under WORK_DIR.

    tamper_normal adds --tamper-normal to every fixed `check` job, which must
    then fail its checks.
    """
    tamper = [] if tamper_normal is None else ["--tamper-normal", str(tamper_normal)]

    def fixed(name, command, path, nmax):
        return Job(name, [command, path, "--nmax", str(nmax)] + (tamper if command == "check" else []),
                   [path], DIGESTS[name])

    if workload == "corpus":
        files = sorted(str(p.relative_to(root)) for p in (root / CORPUS).glob("*.nfilt"))
        return [Job("corpus", ["corpus", "--format", "json"], files, DIGESTS["corpus"])]
    if workload == "poly_deep":
        return [
            fixed("squares4_table", "table", f"{INPUTS}/squares4.nfilt", 10),
            fixed("cubes_diag_check", "check", f"{CORPUS}/poly3_cubes_diag.nfilt", 12),
        ]
    if workload == "semigroup_deep":
        return [
            fixed("sg_4_5_11_uv_check", "check", f"{CORPUS}/sg_4_5_11_uv.nfilt", 12),
            fixed("sg_31_37_41_check", "check", f"{INPUTS}/sg_31_37_41.nfilt", 20),
        ]
    if workload == "newton_wide":
        (root / WORK_DIR).mkdir(parents=True, exist_ok=True)
        jobs = []
        for k, text in enumerate(newton_wide_texts(seed)):
            path = f"{WORK_DIR}/newton_wide_seed{seed}_{k}.nfilt"
            (root / path).write_text(text)
            name = f"newton_wide_table_{k}"
            digest = DIGESTS[name] if seed == DEFAULT_SEED else None
            jobs.append(Job(name, ["table", path, "--nmax", "2"], [path], digest, "newton_wide_table"))
        return jobs
    raise KeyError(workload)
