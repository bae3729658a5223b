"""Benchmark driver: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Runs one workload (``ingest``, ``refine`` or ``serve``; see
``perfbench/README.md``) against the package under ``src/`` of the
checkout it sits in.  It prints every metric by name with its unit and
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Exits 2 without a result when
the checkout has no ``src/repro`` package to measure.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import tempfile
from pathlib import Path

from common import ROOT, Outcome, clean_program_env, emit, stamp

WORKLOADS = ("ingest", "refine", "serve")

#: End-to-end metrics every workload emits (what ``op1..op3`` mean per
#: workload is printed beside each value and listed in the README).
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op1_ms": "ms",
    "op2_ms": "ms",
    "op3_ms": "ms",
}

#: Per-layer metrics of the traced run; a layer a workload never calls reads 0.
PER_LAYER_UNITS = {
    "rdf.parse_ms": "ms",
    "matrix.matrix_build_ms": "ms",
    "matrix.table_build_ms": "ms",
    "matrix.patch_ms": "ms",
    "storage.save_ms": "ms",
    "storage.ooc_parse_ms": "ms",
    "storage.ooc_merge_ms": "ms",
    "storage.load_ms": "ms",
    "storage.table_open_ms": "ms",
    "storage.bytes_written_per_input_byte": "count",
    "rules.count_ms": "ms",
    "core.encode_ms": "ms",
    "core.self_ms": "ms",
    "core.probes": "count",
    "core.witness_ratio": "ratio",
    "ilp.solve_ms": "ms",
    "ilp.solve_calls": "count",
    "ilp.vars_mean": "count",
    "ilp.constraints_mean": "count",
    "api.mutate_ms": "ms",
    "api.cache_hit_ratio": "ratio",
    "api.heap_mb": "MB",
    "service.server_ms": "ms",
    "service.transport_ms": "ms",
    "service.wire_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.coverage_pct": "%",
}

#: ROADMAP item 1: the layer spans should cover at least this share of op time.
COVERAGE_TARGET_PCT = 90.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="input size factor (1 = the benchmark; smaller for smoke checks)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    clean_program_env()
    module = importlib.import_module(args.workload)
    outcome = Outcome()
    info = stamp(args.workload, args.seed, args.seconds, bool(args.trace))
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        return run(module, args, outcome, info, scratch)
    finally:
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass


def run(module, args, outcome: Outcome, info: dict, scratch: Path) -> int:
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        if not args.trace:
            metrics, labels, extra = module.timed_run(
                Path(workdir), args.seed, args.seconds, args.scale, outcome
            )
            info.update(extra)
            emit(outcome, {name: (metrics[name][0], unit)
                           for name, unit in END_TO_END_UNITS.items()}, labels, info)
            return 0
        layers, extra = module.traced_run(
            Path(workdir), args.seed, args.seconds, args.scale, outcome
        )
    info.update(extra)
    coverage = layers["trace.coverage_pct"]
    if coverage < COVERAGE_TARGET_PCT:
        info["coverage_shortfall"] = (
            f"layer spans cover {coverage:.1f}% of op time, "
            f"below the {COVERAGE_TARGET_PCT:.0f}% target"
        )
    emit(outcome, {name: (float(layers.get(name, 0.0)), unit)
                   for name, unit in PER_LAYER_UNITS.items()}, {}, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
