"""Self-tests of the benchmark itself (about two minutes on two cores).

    python3 perfbench/selftest.py

Run from the repository root. They check that the seed fixes the generated
inputs, that the output checks catch a corrupted table, that a job run
beside the speed probe gets a speed and the probe ends, that the tracer
rebinds every imported name and leaves stdout unchanged, that each
workload's dominant layer metric reads nonzero, that two traced runs give
identical work counts, that the metric names agree with BENCHMARK.json, and
that the benchmark refuses to run without the normfilt sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from math import comb

import run
import speed
import workloads
from workloads import DOMINANT, Job

ROOT = run.ROOT
WORK = ROOT / workloads.WORK_DIR / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DEADLINE = time.perf_counter() + 600

# Names that modules import from each other and that the tracer must rebind.
EXPECTED_REBINDS = {
    "backends.closure_power", "backends.multiplicity",
    "semigroup.newton_polyhedron",
    "newton.solve_square", "newton.det", "filtration.solve_square",
    "theorems.length_table", "theorems.valabrega_valla", "theorems.reduction_number",
    "theorems.fit_coefficients", "theorems.sally_from_tables",
    "cli.analyze", "cli.run_checks",
}


def test_seed_fixes_inputs():
    for seed in (1, 2, 12345):
        runs = [[(ROOT / j.inputs[0]).read_bytes() for j in workloads.jobs_for("newton_wide", seed, ROOT)]
                for _ in range(2)]
        assert runs[0] == runs[1] == [t.encode() for t in workloads.newton_wide_texts(seed)], seed
        assert len(set(runs[0])) == workloads.NEWTON_WIDE_IDEALS, seed
    assert workloads.newton_wide_texts(1) != workloads.newton_wide_texts(2)


def test_generated_ideal_shape():
    sys.path.insert(0, str(ROOT / "src"))
    from normfilt import inputs

    for seed in range(1, 6):
        for text in workloads.newton_wide_texts(seed):
            entry = inputs.build_entry(inputs.parse_input(text))
            assert len(entry.ideal.gens) == 16, seed


def _table(normal):
    return {"schema": "normfilt.table/1", "columns": ["n", "normal", "adic"],
            "nmax": len(normal) - 1,
            "rows": [[n, v, v + n] for n, v in enumerate(normal)]}


def test_closed_form_checks_catch_tampering():
    check = workloads.CONTENT_CHECKS["squares4_table"]
    normal = [comb(2 * n + 5, 4) for n in range(11)]
    assert check(_table(normal)) == []
    normal[3] += 1
    assert check(_table(normal))
    wide = workloads.CONTENT_CHECKS["newton_wide_table"]
    assert wide(_table([22, 162, 605])) == []
    assert wide(_table([22, 162, 162]))


def test_tampered_check_job_fails():
    """--tamper-normal on a fixed check job must count as a failure, through
    its exit code, its digest and the closed form of its fitted polynomial."""
    WORK.mkdir(parents=True, exist_ok=True)
    clean, tampered = (
        next(j for j in workloads.jobs_for("poly_deep", 1, ROOT, tamper) if j.name == "cubes_diag_check")
        for tamper in (None, 12)
    )
    assert run.run_job(clean, WORK, DEADLINE, traced=False).failures == []
    assert run.run_job(tampered, WORK, DEADLINE, traced=False).failures
    result = run.run_job(clean, WORK, DEADLINE, traced=False)
    stdout = (WORK / "cubes_diag_check.out").read_bytes()
    assert workloads.sha256(stdout) == result.digest
    payload = json.loads(stdout)
    payload["numbers"]["e1_bar"] += 1
    forged = json.dumps(payload).encode()
    reasons = Job("cubes_diag_check", [], digest=None).failures(0, forged)
    assert any("C(3n+5,3)" in r for r in reasons), reasons


def test_speed_probe():
    """A job run beside the probe gets the probe's speed, scaling is linear,
    and the probe process is gone after close()."""
    WORK.mkdir(parents=True, exist_ok=True)
    run.pin_to_one_cpu()
    probe = speed.Probe(WORK / "probe.bin")
    try:
        ran = run.spawn([sys.executable, "-c", run.SETUP, "src/normfilt/corpus/sg_4_5_11_uv.nfilt"],
                        stdout=subprocess.DEVNULL, stderr=None, deadline=DEADLINE, probe=probe)
    finally:
        probe.close()
    assert ran.code == 0 and ran.speed and ran.speed > 0, ran
    assert probe._proc.returncode is not None
    assert run.spawn([sys.executable, "-c", "pass"], stdout=subprocess.DEVNULL, stderr=None,
                     deadline=DEADLINE).speed is None
    assert speed.ref_seconds(2.0, speed.REF_SPEED) == 2.0
    assert speed.ref_seconds(1.0, 3 * speed.REF_SPEED) == 3.0


def test_traced_runs():
    """Per workload, two traced repetitions: the tracer rebinds the imported
    names, stdout keeps its recorded digest, the dominant layer metrics read
    nonzero, and every count is the same in both repetitions."""
    spec = SPEC["per_layer"]
    counts = [m["name"] for m in spec if m["unit"] in ("count", "bytes", "ratio")]
    for workload in DOMINANT:
        WORK.mkdir(parents=True, exist_ok=True)
        jobs = workloads.jobs_for(workload, workloads.DEFAULT_SEED, ROOT)
        reps = [run.run_repetition(jobs, WORK, DEADLINE, traced=True) for _ in range(2)]
        for rep in reps:
            for r in rep.jobs:
                assert r.failures == [], (workload, r.job.name, r.failures)
                assert EXPECTED_REBINDS <= set(r.trace["rebound"]), \
                    EXPECTED_REBINDS - set(r.trace["rebound"])
                assert r.trace["missing"] == [] and r.trace["hook_errors"] == []
        values = [run.layer_values(run.span_totals(rep), spec) for rep in reps]
        assert set(values[0]) | {"trace.overhead_frac"} == {m["name"] for m in spec}
        for name in DOMINANT[workload]:
            assert values[0][name] > 0, (workload, name)
        for name in counts:
            assert values[0][name] == values[1][name], (workload, name, values[0][name], values[1][name])


def test_metric_names_match_spec():
    assert [m["name"] for m in SPEC["end_to_end"]] == ["cpu_s", "setup_s", "peak_rss_mb", "ok_frac"]
    assert set(DOMINANT) == {w["name"] for w in SPEC["workloads"]}
    assert all(name in {m["name"] for m in SPEC["per_layer"]} for names in DOMINANT.values() for name in names)


def test_refuses_without_sources():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns(".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        t0 = time.perf_counter()
        try:
            fn()
            status = "ok"
        except AssertionError as exc:
            failed += 1
            status = f"FAILED {exc!r}"
        print(f"{name}: {status} ({time.perf_counter() - t0:.1f} s)", flush=True)
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
