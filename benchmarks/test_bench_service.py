"""Benchmark — the service layer's batch/parallel scale story.

A mixed 32-request batch (evaluate / refine / lowest-k / sweep, two rules,
two solvers) over four datasets is executed twice: once through the
:class:`InlineExecutor` (the determinism baseline) and once through a
4-worker pool (``create_executor(workers=4)``).  The payloads must be bit-identical;
the wall-clock ratio is recorded as ``extra_info["speedup"]`` (worker
startup and per-worker dataset builds are *included* in the pooled time —
this is the honest cold-start number a service operator would see).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.service import InlineExecutor, create_executor, plan_batch, parse_request


def service_batch(n=32):
    """The acceptance batch: 32 mixed requests over 4 builtin datasets."""
    datasets = [
        {"builtin": "dbpedia-persons", "params": {"n_subjects": 1500}},
        {"builtin": "wordnet-nouns", "params": {"n_subjects": 1500}},
        {"builtin": "dbpedia-persons", "params": {"n_subjects": 1000, "seed": 9}},
        {"builtin": "mixed-drug-sultans", "params": {"max_signatures_per_sort": 8}},
    ]
    templates = [
        lambda ds: {"op": "evaluate", "dataset": ds, "request": {"rule": "Cov", "exact": True}},
        lambda ds: {"op": "refine", "dataset": ds, "request": {"rule": "Cov", "k": 2, "step": "1/10"}},
        lambda ds: {"op": "sweep", "dataset": ds, "request": {"rule": "Cov", "k_values": [2, 3], "step": "1/8"}},
        lambda ds: {"op": "lowest_k", "dataset": ds, "request": {"rule": "Cov", "theta": "2/3"}},
        lambda ds: {"op": "evaluate", "dataset": ds, "request": {"rule": "Sim"}},
        lambda ds: {
            "op": "refine",
            "dataset": ds,
            "solver": "branch-and-bound",
            "request": {"rule": "Cov", "k": 2, "step": "1/4"},
        },
    ]
    return [
        dict(templates[i % len(templates)](datasets[i % len(datasets)]), id=f"bench-{i}")
        for i in range(n)
    ]


@pytest.mark.paper_artifact("service scale story (not in the paper)")
def test_bench_batch_pool_vs_inline(benchmark, capsys):
    batch = service_batch(32)
    groups = plan_batch([parse_request(r) for r in batch])
    assert len({r["dataset"]["builtin"] + str(r["dataset"].get("params"))
                for r in batch}) == 4

    start = time.perf_counter()
    inline_envelopes = InlineExecutor().execute(batch)
    inline_time = time.perf_counter() - start
    assert all(envelope["ok"] for envelope in inline_envelopes)

    def pooled_run():
        with create_executor(workers=4) as pool:
            return pool.execute(batch)

    pooled_start = time.perf_counter()
    pooled_envelopes = benchmark.pedantic(pooled_run, rounds=1, iterations=1)
    pooled_time = time.perf_counter() - pooled_start

    # The acceptance property: bit-identical payloads, inline vs pool.
    assert json.dumps(pooled_envelopes, sort_keys=True) == json.dumps(
        inline_envelopes, sort_keys=True
    )

    speedup = inline_time / pooled_time if pooled_time > 0 else float("inf")
    benchmark.extra_info["inline_seconds"] = round(inline_time, 3)
    benchmark.extra_info["pooled_seconds"] = round(pooled_time, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["groups"] = len(groups)
    with capsys.disabled():
        print(
            f"\n32-request batch over 4 datasets ({len(groups)} groups): "
            f"inline {inline_time:.2f}s, 4-worker pool {pooled_time:.2f}s "
            f"(speedup {speedup:.2f}x, {os.cpu_count()} CPUs)"
        )
    # On a machine with >= 4 usable cores the pool must win outright even
    # paying its startup cost; elsewhere just require it not to collapse.
    if (os.cpu_count() or 1) >= 4:
        assert speedup > 1.0, f"pool slower than inline: {speedup:.2f}x"
    else:
        assert speedup > 0.5
