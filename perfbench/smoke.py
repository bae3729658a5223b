"""Tiny-scale smoke check of the benchmark: ``python3 perfbench/smoke.py``.

Runs every workload of ``BENCHMARK.json`` for one second on small inputs,
untraced and traced, and checks that each run is correct, fails no op,
and emits exactly the metrics ``BENCHMARK.json`` names, each with its
unit.  End-to-end values must be nonzero everywhere; a per-layer value
must be nonzero on the traced run of the workload that exercises its
layer (``OWNER``), so a wrapper that misses its target or a renamed
program span fails the check.  Also checks that the driver refuses,
with a nonzero exit and no result line, in a directory holding only
``BENCHMARK.json`` and ``perfbench/``.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SMOKE_SCALE = "0.05"
TIMEOUT_S = 300

#: The workload whose traced run measures each per-layer metric.
OWNER = {
    "rdf.parse_ms": "ingest",
    "matrix.matrix_build_ms": "ingest",
    "matrix.table_build_ms": "ingest",
    "matrix.patch_ms": "serve",
    "storage.save_ms": "ingest",
    "storage.ooc_parse_ms": "ingest",
    "storage.ooc_merge_ms": "ingest",
    "storage.load_ms": "ingest",
    "storage.table_open_ms": "ingest",
    "storage.bytes_written_per_input_byte": "ingest",
    "rules.count_ms": "refine",
    "core.encode_ms": "refine",
    "core.self_ms": "refine",
    "core.probes": "refine",
    "core.witness_ratio": "refine",
    "ilp.solve_ms": "refine",
    "ilp.solve_calls": "refine",
    "ilp.vars_mean": "refine",
    "ilp.constraints_mean": "refine",
    "api.mutate_ms": "serve",
    "api.cache_hit_ratio": "serve",
    "api.heap_mb": "ingest",
    "service.server_ms": "serve",
    "service.transport_ms": "serve",
    "service.wire_ms": "serve",
    "trace.overhead_ms": "ingest",
    "trace.coverage_pct": "ingest",
}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", SMOKE_SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_run(spec: dict, workload: str, trace: int) -> list:
    done = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stderr[-3000:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: not correct\n{done.stdout[-3000:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result.get('attempted')!r}")
    expected = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if list(metrics) != [metric["name"] for metric in expected]:
        problems.append(f"{where}: metric names {list(metrics)}")
    for metric in expected:
        entry = metrics.get(metric["name"], {})
        if entry.get("unit") != metric["unit"]:
            problems.append(f"{where}: {metric['name']} unit {entry.get('unit')!r}")
        value = entry.get("value")
        must_move = not trace or OWNER.get(metric["name"]) == workload
        if not isinstance(value, (int, float)) or (must_move and value == 0):
            problems.append(f"{where}: {metric['name']} value {value!r}")
        if f"{metric['name']} = " not in done.stdout:
            problems.append(f"{where}: {metric['name']} not printed by name")
    return problems


def check_refuses_without_source() -> list:
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(Path(bare), "ingest", 0)
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-500:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = [f"{metric['name']} has no owning workload in OWNER"
                for metric in spec["per_layer"] if metric["name"] not in OWNER]
    problems += check_refuses_without_source()
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, workload["name"], trace)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
