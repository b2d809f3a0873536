"""Host speed, measured on the CPU the benchmark's jobs run on.

On a shared virtual machine the speed of a CPU changes within seconds, so a
job's CPU seconds are scaled to a reference host by the rate of a probe that
runs on the same CPU at the same time. The probe is a low-priority process
(nice PROBE_NICE, about a tenth of the CPU beside a job) that runs
speed_unit() in a loop and publishes, after each unit, how many units it has
run and its own CPU seconds:

    probe = Probe(path)          # after pinning this process to one CPU
    before = probe.read()
    ... run a job ...
    speed = probe.speed_since(before)   # units per probe CPU second
    probe.close()

The probe is part of the benchmark, not of normfilt, so no change to the
program moves it.

    python3 perfbench/speed.py PATH

runs the probe itself; Probe starts it that way.
"""

from __future__ import annotations

import mmap
import os
import struct
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

UNIT_STEPS = 250
REF_SPEED = 4000.0  # speed units per CPU second of the reference host
PROBE_NICE = 10
START_TIMEOUT_S = 10.0
# units, CPU seconds, units again: a read that sees two different counts
# raced a write and is retried.
SLOT = struct.Struct("qdq")


def speed_unit():
    """One unit of fixed pure-Python work: tuple hashing, dict and set
    updates, integer and Fraction arithmetic, as in normfilt's kernels."""
    seen, counts, acc = set(), {}, 0
    for i in range(UNIT_STEPS):
        key = (i % 97, i % 89, i % 83, i % 7)
        counts[key] = counts.get(key, 0) + i
        if key not in seen:
            seen.add(key)
        acc += (i * i) % 1009
        if i % 50 == 0:
            acc += int(Fraction(i, 7) + Fraction(3, i + 1))
    return acc + len(counts)


def ref_seconds(cpu_s, speed):
    """CPU seconds scaled to the reference host: what the same work would
    take where speed_unit() runs REF_SPEED times per CPU second."""
    return cpu_s * (speed or 0.0) / REF_SPEED


class Probe:
    """The probe process, started on this process's CPUs."""

    def __init__(self, path: Path):
        path.write_bytes(bytes(SLOT.size))
        self._file = open(path, "r+b")
        self._map = mmap.mmap(self._file.fileno(), SLOT.size)
        self._proc = subprocess.Popen([sys.executable, __file__, str(path)], stdin=subprocess.DEVNULL)
        give_up = time.perf_counter() + START_TIMEOUT_S
        while self.read()[0] == 0:
            if time.perf_counter() > give_up or self._proc.poll() is not None:
                self.close()
                raise RuntimeError("the speed probe did not start")
            time.sleep(0.01)

    def read(self):
        """(units run, probe CPU seconds) as of the last finished unit."""
        while True:
            units, cpu, again = SLOT.unpack_from(self._map)
            if units == again:
                return units, cpu

    def speed_since(self, before):
        """Units per probe CPU second since `before` (a read()), or None
        when the probe finished no unit in between."""
        units, cpu = self.read()
        return (units - before[0]) / (cpu - before[1]) if units > before[0] else None

    def close(self):
        self._proc.kill()
        self._proc.wait()
        self._map.close()
        self._file.close()


def run_probe(path: str):
    os.nice(PROBE_NICE)
    parent = os.getppid()
    with open(path, "r+b") as f:
        slot = mmap.mmap(f.fileno(), SLOT.size)
    units = 0
    while units % 1000 or os.getppid() == parent:  # ends when the benchmark has gone
        speed_unit()
        units += 1
        SLOT.pack_into(slot, 0, units, time.process_time(), units)


if __name__ == "__main__":
    run_probe(sys.argv[1])
