"""Benchmark: incremental watch tick vs cold structuredness recompute.

The live-watch acceptance scenario: a :class:`~repro.api.WatchSession`
subscribed to a 50,000-subject YAGO-scale dataset observes 1% churn
rounds (500 subjects each lose their first triple and gain one with a
brand-new property).  After every round both paths produce the same
exact σ:

* the *incremental* path is the dataset's ``mutate`` — which patches its
  matrix/table with ``apply_delta`` — followed by one ``watch.poll()``
  tick, which evaluates σ on the patched table;
* the *cold* path rebuilds the matrix → table chain from the mutated
  graph and counts σ from scratch, exactly what a fresh process would do.

Each round records the tick (``t_incremental_s``) and, separately, the
wall time of ``mutate`` with the watch attached (``t_mutate_s``): work a
watch adds inside ``mutate`` would not show in the tick alone.

Bit-identity of the exact fraction is asserted first; then the wall-clock
gate: the incremental tick must be at least 10× faster than the cold
recompute (the measured ratio typically lands in the hundreds).  The
measurements are persisted as ``benchmarks/artifacts/BENCH_watch.json``
and merged into the committed trajectory by ``scripts/collect_bench.py``.
"""

from __future__ import annotations

import time

from repro.api import Dataset
from repro.api.watch import WatchSession
from repro.datasets.synthetic import graph_from_signature_table, random_signature_table
from repro.functions.structuredness import sigma_by_signatures_fraction
from repro.matrix.property_matrix import PropertyMatrix
from repro.matrix.signatures import SignatureTable
from repro.rdf.terms import Literal, URI
from repro.rules import coverage

N_SUBJECTS = 50_000
CHURN_FRACTION = 0.01
ROUNDS = 3


def _cold_sigma(graph, rule):
    """What a fresh process pays: full matrix → table build + σ count."""
    matrix = PropertyMatrix.from_graph(graph)
    table = SignatureTable.from_matrix(matrix)
    return sigma_by_signatures_fraction(rule, table)


def test_bench_watch_incremental_vs_cold(bench_artifact, capsys):
    reference = random_signature_table(
        n_properties=40, n_signatures=64, n_subjects=N_SUBJECTS, seed=7
    )
    graph = graph_from_signature_table(reference, "http://yago-knowledge.org/resource/T")
    dataset = Dataset.from_graph(graph, name="yago-watch-bench")
    dataset.table  # realise the chain before the clock starts

    watch = WatchSession(dataset, ("Cov",))
    events = []
    watch.subscribe(events.append)
    watch.poll()  # baseline observation

    rule = coverage()
    n_touched = int(N_SUBJECTS * CHURN_FRACTION)
    rounds = []
    best_cold = best_incremental = float("inf")
    for round_no in range(1, ROUNDS + 1):
        # Hot-region churn: consecutive subjects share signatures (the
        # synthetic generator groups them), so the delta touches a handful
        # of signatures.  The added property already exists in the
        # universe — a brand-new property would widen every signature.
        subjects = dataset.matrix.subjects
        offset = (round_no - 1) * n_touched
        touched = subjects[offset:offset + n_touched]
        hot_property = URI(dataset.matrix.properties[-1])
        remove = [next(iter(graph.triples_for_subject(s))) for s in touched]
        add = [
            (s, hot_property, Literal(f"r{round_no}x{i}"))
            for i, s in enumerate(touched)
        ]
        start = time.perf_counter()
        dataset.mutate(add=add, remove=remove)
        t_mutate = time.perf_counter() - start

        events.clear()
        start = time.perf_counter()
        watch.poll()
        t_incremental = time.perf_counter() - start
        [event] = events

        start = time.perf_counter()
        cold = _cold_sigma(dataset.graph, rule)
        t_cold = time.perf_counter() - start

        # Bit-identity first — a fast wrong answer is worthless.
        assert event.sigma == f"{cold.numerator}/{cold.denominator}"
        assert event.generation == round_no

        best_cold = min(best_cold, t_cold)
        best_incremental = min(best_incremental, t_incremental)
        rounds.append({
            "generation": event.generation,
            "subjects_touched": len(touched),
            "triples_removed": len(remove),
            "sigma_exact": event.sigma,
            "t_cold_s": t_cold,
            "t_incremental_s": t_incremental,
            "t_mutate_s": t_mutate,
            "speedup": t_cold / t_incremental if t_incremental > 0 else float("inf"),
        })

    speedup = best_cold / best_incremental if best_incremental > 0 else float("inf")
    bench_artifact("watch", {
        "n_subjects": N_SUBJECTS,
        "churn_fraction": CHURN_FRACTION,
        "rounds": rounds,
        "best_cold_s": best_cold,
        "best_incremental_s": best_incremental,
        "speedup": speedup,
        "watcher_stats": watch.stats,
    })
    with capsys.disabled():
        print()
        print(
            f"watch benchmark ({n_touched}/{N_SUBJECTS} subjects churned/round): "
            f"cold recompute {best_cold * 1e3:.1f} ms, "
            f"incremental tick {best_incremental * 1e3:.1f} ms, "
            f"speedup {speedup:.0f}x"
        )
    # The acceptance bar: an incremental watch tick is >=10x cheaper than
    # recomputing structuredness from scratch at 1% churn.
    assert speedup >= 10.0, (
        f"incremental watch tick ({best_incremental:.4f}s) is not >=10x faster "
        f"than the cold recompute ({best_cold:.4f}s)"
    )
    watch.close()
