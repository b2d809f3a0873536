"""The normfilt benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Jobs run one after another, each in a fresh
Python process started the way the `normfilt` script starts (closed loop, one
client). The job list runs once, then repeats while the next repetition is
expected to end within S seconds of the start. The benchmark and its jobs
stay on one CPU.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. Host speed on a
shared machine moves by a fifth within seconds, so a time is measured as
CPU seconds scaled to a reference host by the rate of a low-priority probe
on the same CPU over the same interval (see speed.py). cpu_s is the median
over job-list repetitions; setup_s the median over fresh interpreters, five
before each repetition, that import normfilt and parse and build the
workload's entries.
--trace 1 alternates untraced and traced repetitions (see tracer.py), with
no probe, and reports the per-layer metrics. The last stdout line is the
JSON result; the lines before it give each job's stdout digest and a
readable summary.

--tamper-normal INDEX passes `--tamper-normal INDEX` to every fixed `check`
job, to show that the output checks catch a corrupted table.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from speed import REF_SPEED, Probe, ref_seconds  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
NORMFILT = "import sys; from normfilt.cli import main; sys.exit(main())"
SETUP = (
    "import sys\n"
    "from pathlib import Path\n"
    "from normfilt import inputs\n"
    "for p in sys.argv[1:]:\n"
    "    inputs.build_entry(inputs.parse_input(Path(p).read_text()), default_name=Path(p).stem)\n"
)
SETUP_PER_REPETITION = 5
MIN_REPETITIONS = 1
RUN_LIMIT_S = 170.0  # a run must end within 180 s; jobs still running at this point are killed


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout


@dataclass
class JobResult:
    job: workloads.Job
    wall_s: float
    cpu_s: float
    rss_mb: float
    digest: str
    failures: list[str]
    trace: dict | None = None
    speed: float | None = None

    @property
    def ref_cpu_s(self):
        return ref_seconds(self.cpu_s, self.speed)


@dataclass
class Repetition:
    jobs: list[JobResult]

    @property
    def wall_s(self):
        return sum(j.wall_s for j in self.jobs)

    @property
    def cpu_s(self):
        return sum(j.cpu_s for j in self.jobs)

    @property
    def ref_cpu_s(self):
        return sum(j.ref_cpu_s for j in self.jobs)


def pin_to_one_cpu():
    """Keep this process, and every job it starts, on one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


@dataclass
class Spawned:
    wall_s: float
    code: int | None  # None when the process was killed at the deadline
    usage: object
    speed: float | None = None  # speed units per CPU second while it ran


def spawn(argv, *, stdout, stderr, deadline, probe=None):
    """Run argv to completion in ROOT. With a probe (speed.Probe), the result
    holds the probe's speed while the job ran."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        return Spawned(0.0, None, None)
    signal.signal(signal.SIGALRM, _on_alarm)
    before = probe.read() if probe else None
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=stdout, stderr=stderr)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        code = os.waitstatus_to_exitcode(status)
    except JobTimeout:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall, code = time.perf_counter() - t0, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return Spawned(wall, code, usage, probe.speed_since(before) if probe else None)


def run_job(job, work, deadline, traced, probe=None):
    out_path, err_path, trace_path = (work / f"{job.name}.{ext}" for ext in ("out", "err", "trace.json"))
    if traced:
        argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace_path), "--", *job.args]
        trace_path.unlink(missing_ok=True)
    else:
        argv = [sys.executable, "-c", NORMFILT, *job.args]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        ran = spawn(argv, stdout=out, stderr=err, deadline=deadline, probe=probe)
    code, usage = ran.code, ran.usage
    stdout = out_path.read_bytes()
    failures = ["timed out"] if code is None else job.failures(code, stdout)
    if code not in (None, 0):
        failures += err_path.read_text(errors="replace").strip().splitlines()[-1:]
    trace = json.loads(trace_path.read_text()) if traced and trace_path.exists() else None
    if traced and trace is None and not failures:
        failures = ["traced run wrote no trace"]
    cpu = usage.ru_utime + usage.ru_stime if usage else 0.0
    rss = usage.ru_maxrss / 1024 if usage else 0.0
    return JobResult(job, ran.wall_s, cpu, rss, workloads.sha256(stdout), failures, trace, ran.speed)


def run_repetition(jobs, work, deadline, traced=False, probe=None):
    return Repetition([run_job(job, work, deadline, traced, probe) for job in jobs])


def measure_setup(jobs, work, deadline, count, samples, failures, probe):
    """Append the CPU seconds, scaled to the reference host, of `count`
    fresh interpreters that import normfilt and parse and build every entry
    file of the workload."""
    files = sorted({p for job in jobs for p in job.inputs})
    argv = [sys.executable, "-c", SETUP, *files]
    for _ in range(count):
        with open(work / "setup.err", "wb") as err:
            ran = spawn(argv, stdout=subprocess.DEVNULL, stderr=err, deadline=deadline, probe=probe)
        if ran.code == 0:
            if ran.speed:
                samples.append(ref_seconds(ran.usage.ru_utime + ran.usage.ru_stime, ran.speed))
        else:
            failures.append(f"setup exited with {ran.code}")


def tail(values):
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it, or None when there are too few samples."""
    n = len(values)
    if n < 20:
        return None
    pct = 100 * (n - 10) // n
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def span_totals(rep):
    """Each span's totals from a traced repetition, summed over its jobs."""
    spans: dict[str, dict] = {}
    for job in rep.jobs:
        for name, values in ((job.trace or {}).get("spans") or {}).items():
            acc = spans.setdefault(name, {})
            for key, value in values.items():
                acc[key] = acc.get(key, 0) + value
    return spans


def layer_values(spans, spec):
    """The per-layer metrics named in spec, read from span totals."""
    values = {}
    for metric in spec:
        name = metric["name"]
        if name == "trace.overhead_frac":
            continue
        if name == "filtration.term.hit_ratio":
            term = spans.get("filtration.term", {})
            values[name] = term.get("hits", 0) / term["calls"] if term.get("calls") else 0.0
        elif name.startswith("theorems.verdict."):
            conclusion = name.removeprefix("theorems.verdict.").removesuffix(".count")
            values[name] = spans.get("theorems.run_checks", {}).get(f"verdict.{conclusion}", 0)
        elif name == "reports.bytes_out":
            values[name] = spans.get("reports.render", {}).get("bytes_out", 0)
        else:
            span, key = name.rsplit(".", 1)
            values[name] = spans.get(span, {}).get(key, 0)
    return values


def self_share(spans, names):
    """Share of all traced self time held by the named self_s metrics."""
    total = sum(v.get("self_s", 0) for v in spans.values())
    part = sum(spans.get(n.removesuffix(".self_s"), {}).get("self_s", 0) for n in names)
    return part / total if total else 0.0


def trace_metrics(workload, spec, traced, untraced):
    """Per-layer metrics of a traced run; prints what the summary needs."""
    totals = [span_totals(rep) for rep in traced]
    values = [layer_values(spans, spec["per_layer"]) for spans in totals]
    metrics = {name: statistics.median_low(v[name] for v in values) for name in values[0]}
    traced_wall = statistics.median(r.wall_s for r in traced)
    untraced_wall = statistics.median(r.wall_s for r in untraced)
    metrics["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    dominant = workloads.DOMINANT[workload]
    share = statistics.median(self_share(spans, dominant) for spans in totals)
    print(f"self-time share of {' + '.join(dominant)}: {100 * share:.1f}%")
    for name in dominant:
        if not metrics[name]:
            print(f"{name} reads 0: its layer was not traced")
    for key, what in (("missing", "not traced (absent from the package)"),
                      ("hook_errors", "counter errors")):
        found = sorted({m for rep in traced for r in rep.jobs for m in (r.trace or {}).get(key, ())})
        if found:
            print(f"{what}: {'; '.join(found)}")
    print(f"{len(traced)} traced and {len(untraced)} untraced repetitions")
    return metrics


def end_to_end_metrics(untraced, setup_samples, attempted, failed_jobs):
    """End-to-end metrics of an untraced run; prints the repetition counts
    and the measured CPU seconds and host speed behind them."""
    cpus = [r.ref_cpu_s for r in untraced]
    metrics = {
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup_samples) if setup_samples else 0.0,
        "peak_rss_mb": statistics.median(max(j.rss_mb for j in r.jobs) for r in untraced),
        "ok_frac": (attempted - failed_jobs) / attempted,
    }
    high = tail(cpus)
    print(f"cpu_s over {len(cpus)} repetitions: median {metrics['cpu_s']:.4f} s"
          + (f", p{high[0]} {high[1]:.4f} s" if high else
             ", too few repetitions for a tail percentile with ten beyond it"))
    speeds = [j.speed / REF_SPEED for r in untraced for j in r.jobs if j.speed]
    print(f"as measured: median {statistics.median(r.cpu_s for r in untraced):.4f} CPU s, "
          f"{statistics.median(r.wall_s for r in untraced):.4f} wall s beside the speed probe; "
          f"host speed {min(speeds):.3f}-{max(speeds):.3f} of the reference")
    print(f"setup_s over {len(setup_samples)} interpreters; fail_frac {failed_jobs}/{attempted}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper-normal", type=int, default=None, metavar="INDEX")
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "normfilt" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no normfilt source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    work = ROOT / workloads.WORK_DIR / args.workload
    work.mkdir(parents=True, exist_ok=True)
    jobs = workloads.jobs_for(args.workload, args.seed, ROOT, args.tamper_normal)

    # One unmeasured warm-up compiles the bytecode a user's installation already has.
    setup_samples, setup_failures = [], []
    measure_setup(jobs, work, deadline, 1, [], setup_failures, None)
    untraced, traced = [], []
    probe = None if args.trace else Probe(work / "probe.bin")
    try:
        loop_start = time.perf_counter()
        while True:
            if probe:
                measure_setup(jobs, work, deadline, SETUP_PER_REPETITION, setup_samples, setup_failures, probe)
            untraced.append(run_repetition(jobs, work, deadline, probe=probe))
            if args.trace:
                traced.append(run_repetition(jobs, work, deadline, traced=True))
            now = time.perf_counter()
            per_rep = (now - loop_start) / len(untraced)
            if len(untraced) >= MIN_REPETITIONS and now + per_rep > start + args.seconds:
                break
            if now + per_rep > deadline:
                break
    finally:
        if probe:
            probe.close()

    reps = untraced + traced
    first = {r.job.name: r.digest for r in reps[0].jobs}
    for rep in reps[1:]:
        for r in rep.jobs:
            if r.digest != first[r.job.name]:
                r.failures.append("stdout differs from the first repetition")
    for job in jobs:
        digests = sorted({r.digest for rep in reps for r in rep.jobs if r.job is job})
        print(f"digest {args.workload} {job.name} {' '.join(digests)}")
    failures = [(r.job.name, f) for rep in reps for r in rep.jobs for f in r.failures]
    failures += [("setup", f) for f in setup_failures]
    failed_jobs = sum(1 for rep in reps for r in rep.jobs if r.failures) + len(setup_failures)
    attempted = sum(len(rep.jobs) for rep in reps) + len(setup_failures)
    for name, reason in failures:
        print(f"FAIL {name}: {reason}")

    if args.trace:
        metrics = trace_metrics(args.workload, spec, traced, untraced)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end_metrics(untraced, setup_samples, attempted, failed_jobs)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed_jobs,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
