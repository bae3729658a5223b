"""Shared helpers for the perfbench workloads: timing, statistics, memory, stamps."""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent

#: Environment variables the timed run must not inherit: they switch the
#: program's tracing, parallelism and out-of-core build shape away from
#: its defaults.
PROGRAM_KNOBS = ("REPRO_TRACE", "REPRO_JOBS", "REPRO_OOC_CHUNK", "REPRO_OOC_PARTITIONS")

#: How many times each workload repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: :attr:`HostSpeed.typical_s` of :func:`reference_kernel` on the machine the
#: benchmark was calibrated on (2-vCPU x86-64 VM, CPython 3.11, numpy 2.4)
#: when the host was quiet.  CPU-bound times are reported at that reference
#: speed; see :class:`HostSpeed`.
REFERENCE_S = 0.022

now = time.perf_counter


def quiesce() -> None:
    """Free the previous op's garbage outside any timed region."""
    gc.collect()


_PERMUTATION = None


def reference_kernel() -> int:
    """A fixed mix of the work the workloads do: bytecode, str/dict churn, a numpy sort."""
    global _PERMUTATION
    import numpy

    if _PERMUTATION is None:
        _PERMUTATION = numpy.random.default_rng(0).permutation(300_000)
    total = 0
    for i in range(150_000):
        total += i * i
    table = {}
    for i in range(30_000):
        table[str(i)] = (i, [i])
    values = _PERMUTATION.copy()
    values.sort()
    return total + len(table) + int(values[0])


class HostSpeed:
    """How fast the host runs during this run, from the reference kernel's times.

    On a shared host the CPU speed a process gets drifts by up to 1.5x over
    minutes, which no statistic of one run's op times removes.  The kernel
    runs between ops, outside every timed region; a CPU-bound time ``t`` is
    reported as ``t * scale`` with ``scale = REFERENCE_S / typical_s``: the
    time the op would take on the calibration machine.

    ``typical_s`` is the geometric mean of the kernel's fastest and median
    times.  The ~23 ms kernel's fastest run finds the host's brief fast
    moments, which an op of seconds cannot, so scaling by it alone left
    set-to-set drift of up to 33%; scaling by its median over-corrected ops
    (run-to-run spread up to 0.20).  Over two sets of ten runs per workload
    the mean of the two in log space kept every op's drift within 8%.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            started = now()
            reference_kernel()
            self.samples.append(now() - started)

    @property
    def typical_s(self) -> float:
        return math.sqrt(min(self.samples) * median(self.samples))

    @property
    def scale(self) -> float:
        return REFERENCE_S / self.typical_s

    def info(self) -> Dict[str, object]:
        """For the stamp line: the scale and the kernel's fastest/median ms."""
        return {"speed_scale": round(self.scale, 4), "reference_samples": len(self.samples),
                "reference_min_ms": round(1000.0 * min(self.samples), 3),
                "reference_median_ms": round(1000.0 * median(self.samples), 3)}


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (1..99) by the inclusive method, or the sole value."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live child process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def clean_program_env() -> None:
    """Drop the program's tracing/parallelism knobs so it runs at its defaults."""
    for name in PROGRAM_KNOBS:
        os.environ.pop(name, None)


def git_commit() -> str:
    """The checkout's commit when it is a git work tree, else ``"unknown"``."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def stamp(workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, object]:
    """Where and how a result was taken: CPUs, interpreter, library versions, commit, seed."""
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "cpu_count": os.cpu_count(),
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


class Outcome:
    """Attempted/failed op counts plus the correctness verdict of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.gates_ok = True
        self.problems: List[str] = []

    def _note(self, what: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> bool:
        """Count one op; a failed check marks it failed and records why."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._note(what)
        return ok

    def gate(self, ok: bool, what: str) -> None:
        """A run-level correctness condition that is not an op of its own."""
        if not ok:
            self.gates_ok = False
            self._note(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.gates_ok


def emit(
    outcome: Outcome,
    metrics: Dict[str, Tuple[float, str]],
    labels: Dict[str, str],
    info: Dict[str, object],
) -> None:
    """Print each metric by name with its unit, then the one-line JSON result.

    ``labels`` maps a metric to what it means on this workload (e.g.
    ``op1_ms`` -> ``build_p50_ms``); ``info`` holds the stamp and any
    extra context (sample counts, coverage shortfalls).
    """
    print("# " + json.dumps(info, sort_keys=True))
    for problem in outcome.problems:
        print(f"# FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        label = labels.get(name)
        suffix = f"  ({label})" if label and label != name else ""
        print(f"{name} = {value:.6g} {unit}{suffix}")
    sys.stdout.flush()
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
