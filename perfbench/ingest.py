"""Workload ``ingest``: N-Triples → snapshot, out of core, and reopen.

Each op cycle runs an in-memory build and save, an out-of-core build and
``LOADS_PER_CYCLE`` reopens of the snapshot the cycle just saved.  rdf,
matrix and storage do nearly all of the work; the ILP does none.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List

from common import (
    SETUP_REPEATS,
    HostSpeed,
    Outcome,
    median,
    now,
    quiesce,
    self_peak_rss_mb,
)
from inputs import (
    persons_subjects,
    remove,
    table_fingerprint,
    tree_bytes,
    write_persons_ntriples,
)
from spans import (
    Tracer,
    program_mean_ms,
    program_span_delta,
    program_span_totals,
    timed_op,
)

#: Reopens per cycle: a reopen is ~50x cheaper than a build, so it takes
#: several per cycle to give its median as many samples as the builds.
LOADS_PER_CYCLE = 3

LABELS = {
    "setup_s": "median set-up, at reference speed",
    "op1_ms": "build_ms: in-memory build + save, fastest of the run, at reference speed",
    "op2_ms": "ooc_build_ms: out-of-core build, fastest of the run, at reference speed",
    "op3_ms": "load_ms: snapshot reopen, fastest of the run, at reference speed",
    "ops_per_s": "ops (build, ooc build, reopens) per second of the fastest cycle, "
                 "at reference speed",
}


class Ingest:
    def __init__(self, workdir: Path, seed: int, scale: float):
        self.workdir = workdir
        self.seed = seed
        self.n_subjects = persons_subjects(scale)
        self.source = workdir / "persons.nt"
        self.setup_snapshot = workdir / "setup.snap"
        self.input_bytes = 0
        self.reference: tuple = ()
        #: The reference kernel runs before each op, outside its timing.
        self.speed = HostSpeed()

    # ------------------------------------------------------------------ #
    def setup(self) -> None:
        """Generate the input file and build the reference snapshot."""
        from repro.api import Dataset

        self.input_bytes = write_persons_ntriples(self.source, self.seed, self.n_subjects)
        dataset = Dataset.from_ntriples(self.source)
        self.reference = table_fingerprint(dataset.table)
        dataset.save(self.setup_snapshot)

    def build(self, target: Path):
        from repro.api import Dataset

        dataset = Dataset.from_ntriples(self.source)
        dataset.table
        info = dataset.save(target)
        return dataset, info

    def build_out_of_core(self, target: Path):
        from repro.api import Dataset

        return Dataset.build_out_of_core(self.source, target).table

    @staticmethod
    def reopen(path: Path):
        from repro.api import Dataset

        return Dataset.load(path).table

    # ------------------------------------------------------------------ #
    def cycle(self, outcome: Outcome, samples: Dict[str, List[float]], tracer=None,
              extras: Dict[str, List[float]] = None, build: bool = True) -> None:
        """One op cycle; artifacts are freed and collected between ops, untimed."""
        saved, ooc = self.workdir / "cycle.snap", self.workdir / "ooc.snap"
        remove(saved)
        remove(ooc)
        quiesce()
        if build:
            self.speed.sample()
            seconds, (dataset, info) = timed_op(lambda: self.build(saved), tracer)
            samples["build"].append(seconds)
            outcome.check(table_fingerprint(dataset.table) == self.reference,
                          "in-memory build differs from the setup build")
            if extras is not None:
                residency = dataset.residency()
                extras["heap_mb"].append(
                    sum(stage["resident_bytes"] for stage in residency.values()) / 2**20
                )
                extras["written"].append(float(info.total_bytes))
            del dataset, info
            quiesce()
        else:
            saved = self.setup_snapshot

        self.speed.sample()
        seconds, table = timed_op(lambda: self.build_out_of_core(ooc), tracer)
        samples["ooc"].append(seconds)
        outcome.check(table_fingerprint(table) == self.reference,
                      "out-of-core build differs from the setup build")
        del table
        if extras is not None:
            extras["written"].append(float(tree_bytes(ooc)))
        remove(ooc)
        quiesce()

        for _ in range(LOADS_PER_CYCLE):
            self.speed.sample()
            seconds, table = timed_op(lambda: self.reopen(saved), tracer)
            samples["load"].append(seconds)
            outcome.check(table_fingerprint(table) == self.reference,
                          "reopened snapshot differs from the setup build")
            del table
            quiesce()

    def warm(self, outcome: Outcome) -> None:
        """Set-up already built and saved once; warm the out-of-core build and reopen."""
        self.cycle(outcome, {"build": [], "ooc": [], "load": []}, build=False)

    def loop(self, seconds: float, outcome: Outcome, tracer=None, extras=None):
        """Whole cycles while the next one is expected to end at most half a cycle late."""
        samples: Dict[str, List[float]] = {"build": [], "ooc": [], "load": []}
        started = now()
        while True:
            cycle_started = now()
            self.cycle(outcome, samples, tracer, extras)
            finished = now()
            if finished + (finished - cycle_started) / 2 > started + seconds:
                return samples


def _e2e(samples, setups, scale: float) -> Dict[str, tuple]:
    cycles = [
        build + ooc + sum(samples["load"][LOADS_PER_CYCLE * i:LOADS_PER_CYCLE * (i + 1)])
        for i, (build, ooc) in enumerate(zip(samples["build"], samples["ooc"]))
    ]
    return {
        "setup_s": (median(setups) * scale, "s"),
        "peak_rss_mb": (self_peak_rss_mb(), "MB"),
        "ops_per_s": ((2 + LOADS_PER_CYCLE) / (min(cycles) * scale), "1/s"),
        "op1_ms": (1000.0 * min(samples["build"]) * scale, "ms"),
        "op2_ms": (1000.0 * min(samples["ooc"]) * scale, "ms"),
        "op3_ms": (1000.0 * min(samples["load"]) * scale, "ms"),
    }


def timed_run(workdir: Path, seed: int, seconds: float, scale: float, outcome: Outcome):
    workload = Ingest(workdir, seed, scale)
    setups = []
    for _ in range(SETUP_REPEATS):
        remove(workload.setup_snapshot)
        quiesce()
        workload.speed.sample(2)
        started = now()
        workload.setup()
        setups.append(now() - started)
    warm_started = now()
    workload.warm(outcome)
    warm_s = now() - warm_started
    samples = workload.loop(seconds, outcome)
    info = {
        "samples": {name: len(values) for name, values in samples.items()},
        "raw_min_ms": {name: round(1000.0 * min(values), 1) for name, values in samples.items()},
        "raw_median_ms": {name: round(1000.0 * median(values), 1)
                          for name, values in samples.items()},
        "raw_setup_s": [round(value, 3) for value in setups],
        "warmup_s": round(warm_s, 3),
        "input_bytes": workload.input_bytes,
        **workload.speed.info(),
    }
    return _e2e(samples, setups, workload.speed.scale), LABELS, info


def traced_run(workdir: Path, seed: int, seconds: float, scale: float, outcome: Outcome):
    """Half the time untraced, half with wrappers and ``REPRO_TRACE=1``."""
    from repro import telemetry

    workload = Ingest(workdir, seed, scale)
    workload.setup()
    workload.warm(outcome)
    plain = workload.loop(seconds / 2.0, outcome)

    tracer = Tracer()
    extras: Dict[str, List[float]] = {"heap_mb": [], "written": []}
    os.environ["REPRO_TRACE"] = "1"
    before = program_span_totals(telemetry.current().snapshot())
    tracer.install()
    try:
        traced = workload.loop(seconds / 2.0, outcome, tracer, extras)
    finally:
        tracer.remove()
        os.environ.pop("REPRO_TRACE", None)
    program = program_span_delta(before, program_span_totals(telemetry.current().snapshot()))
    reduced = tracer.reduce()

    builds = len(traced["build"]) + len(traced["ooc"])
    layers = {
        "rdf.parse_ms": reduced.mean_self_ms(["rdf.parse"], "rdf.parse"),
        "matrix.matrix_build_ms": reduced.mean_self_ms(
            ["matrix.matrix_build"], "matrix.matrix_build"),
        "matrix.table_build_ms": reduced.mean_self_ms(
            ["matrix.table_build"], "matrix.table_build"),
        "storage.save_ms": reduced.mean_self_ms(["storage.encode", "storage.save"], "storage.save"),
        "storage.ooc_parse_ms": program_mean_ms(program, ["outofcore.parse"], "outofcore.parse"),
        "storage.ooc_merge_ms": program_mean_ms(
            program, ["outofcore.scatter", "outofcore.merge", "outofcore.assemble"],
            "outofcore.merge"),
        "storage.load_ms": reduced.mean_self_ms(
            ["storage.load", "storage.load_matrix"], "storage.load"),
        "storage.table_open_ms": reduced.mean_self_ms(
            ["storage.table_open"], "storage.table_open"),
        "storage.bytes_written_per_input_byte": sum(extras["written"])
        / (builds * workload.input_bytes),
        "api.heap_mb": median(extras["heap_mb"]),
        "trace.coverage_pct": reduced.coverage_pct,
        "trace.overhead_ms": 1000.0 * (min(traced["build"]) - min(plain["build"])),
    }
    info = {
        "self_ms_by_span": reduced.self_ms_by_span(),
        "untraced_samples": {name: len(values) for name, values in plain.items()},
        "traced_samples": {name: len(values) for name, values in traced.items()},
        "program_spans": {name: list(value) for name, value in sorted(program.items())},
    }
    return layers, info
