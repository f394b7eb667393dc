"""The speed of the CPU, sampled next to every timed call.

On a shared host each virtual CPU switches between a fast and a slow phase
many times a second, and the share of slow time drifts over minutes; that
moves every time of a run together, by up to a third between runs of the
same code.  The benchmark therefore pins itself and its children to one CPU
and, just before the first call and just after every call, takes a sample
made of two measurements, neither of which runs any fdsi code:

- the *kernel*: a fixed pure-Python loop in the benchmark's own process
  (``KERNEL_REPEATS`` runs of ``_kernel``, about 10 ms);
- the *probe*: a spawned interpreter that imports the standard-library
  modules fdsi imports, and exits (about 100 ms).

They slow down differently: between the two phases the kernel's time
changes by about 1.8x, the probe's by about 1.4x, like a call that is mostly
interpreter start-up and imports.  A call's *slowdown* weighs the two by the
workload's spawn share ``w`` (``suites.SPAWN_SHARE``) and averages the
samples before and after the call:

    slowdown = mean over the two samples of
               w * probe / PROBE_REF_NS + (1 - w) * kernel / KERNEL_REF_NS

Every reported time is the measured time divided by its slowdown.  The
reference times are a sample's on the reference box in its usual phase, so
a scaled time reads as a time on it.  A change to fdsi cannot move a
sample, so a scaled time moves with fdsi's own cost.
"""

from __future__ import annotations

import gc
import subprocess
import sys
from time import perf_counter_ns

KERNEL_N = 4000
KERNEL_REPEATS = 6
# Both measured on the reference box (2 vCPUs of a shared x86-64 host,
# CPython 3.11) in its usual phase.
KERNEL_REF_NS = 10_000_000
PROBE_REF_NS = 105_000_000

PROBE = [sys.executable, "-c",
         "import argparse, concurrent.futures, dataclasses, fractions, heapq, "
         "itertools, json, math, pathlib, random"]


def _kernel(n: int) -> int:
    # small tuples, dict probes and int arithmetic, as fdsi's inner loops
    # do; the table stays small, so the kernel allocates no fresh pages
    table: dict = {}
    acc = 0
    for i in range(n):
        key = (i & 15, i % 7)
        table[key] = table.get(key, 0) + i
        acc += key[0] * key[1]
    return acc + len(table)


def kernel_sample() -> int:
    """Nanoseconds of KERNEL_REPEATS kernel runs, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter_ns()
        for _ in range(KERNEL_REPEATS):
            _kernel(KERNEL_N)
        return perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def probe_sample() -> int:
    """Nanoseconds of one probe interpreter, spawn to exit."""
    start = perf_counter_ns()
    subprocess.run(PROBE, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True)
    return perf_counter_ns() - start


def sample() -> tuple[int, int]:
    """One (kernel, probe) sample, in nanoseconds."""
    return kernel_sample(), probe_sample()


def slowdown(spawn_share: float, *samples: tuple[int, int]) -> float:
    """Slowdown of a call from the samples taken around it."""
    return sum(spawn_share * probe / PROBE_REF_NS + (1 - spawn_share) * kernel / KERNEL_REF_NS
               for kernel, probe in samples) / len(samples)


def kernel_slowdown() -> float:
    """Slowdown of in-process Python work (the set-up), from one kernel run."""
    return kernel_sample() / KERNEL_REF_NS
