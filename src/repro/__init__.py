"""repro — a reproduction of *A Principled Approach to Bridging the Gap
between Graph Data and their Schemas* (Arenas, Díaz, Fokoue,
Kementsietsidis, Srinivas — VLDB 2014).

The package provides:

* the session-oriented public API (:mod:`repro.api`): a :class:`Dataset`
  handle owning the cached graph → matrix → signature-table chain and a
  :class:`StructurednessSession` answering evaluate/refine/lowest-k/sweep
  queries against it — the entry point every frontend (CLI, experiments,
  examples) is built on;
* an RDF substrate (:mod:`repro.rdf`): triples, an indexed in-memory graph,
  N-Triples I/O and sort extraction;
* the property-structure view and signature tables (:mod:`repro.matrix`);
* the structuredness rule language (:mod:`repro.rules`) with a parser, a
  reference semantics, a constraint-propagation evaluator and
  signature-level counting;
* closed-form structuredness functions (:mod:`repro.functions`):
  σCov, σSim, σDep, σSymDep;
* an ILP modelling layer with a pluggable solver registry — HiGHS and
  branch-and-bound backends ship built in (:mod:`repro.ilp`);
* the sort-refinement core (:mod:`repro.core`): the ILP encoding, the
  decision procedure, highest-θ / lowest-k searches and a greedy baseline;
* a batch/HTTP service layer (:mod:`repro.service`): a JSONL wire codec,
  a dependency-aware batch executor with a multiprocess worker pool, and
  a stdlib HTTP front-end (``repro serve`` / ``repro batch``);
* a persistence layer (:mod:`repro.storage`): relational property tables
  and versioned binary dataset snapshots for zero-rebuild warm starts
  (``Dataset.save``/``Dataset.load``, ``repro snapshot build/inspect``);
* the NP-hardness reduction from 3-coloring (:mod:`repro.reduction`);
* synthetic stand-ins for the paper's datasets (:mod:`repro.datasets`) and
  an experiment harness regenerating every table and figure
  (:mod:`repro.experiments`).

Quickstart
----------
>>> from repro.api import Dataset
>>> dataset = Dataset.builtin("dbpedia-persons", n_subjects=5_000)
>>> session = dataset.session(solver="highs")
>>> session.evaluate("Cov").value, session.evaluate("Sim").value  # doctest: +SKIP
(0.54, 0.78)
>>> result = session.refine("Cov", k=2)                           # doctest: +SKIP
>>> result.theta, [s.n_subjects for s in result.sorts]            # doctest: +SKIP
(0.75, (3301, 1699))
>>> session.lowest_k("Cov", theta="3/4").k                        # doctest: +SKIP
2
>>> result.to_json()                                              # doctest: +SKIP
'{"dataset": ..., "rule": "Cov", "kind": "highest_theta", ...}'

The lower-level free functions (:func:`repro.core.highest_theta_refinement`,
:func:`repro.functions.coverage`, ...) remain available underneath the
facade.
"""

from repro.exceptions import (
    DatasetError,
    EvaluationError,
    ILPError,
    InfeasibleError,
    ParseError,
    RDFError,
    RefinementError,
    ReproError,
    RequestError,
    RuleError,
    SnapshotError,
)

__version__ = "1.8.0"

#: Top-level conveniences resolved lazily so that ``import repro`` stays
#: lightweight (the api package pulls in numpy/scipy-backed layers).
_LAZY_EXPORTS = {
    "Dataset": "repro.api",
    "StructurednessSession": "repro.api",
    "WatchSession": "repro.api",
    "WatchEvent": "repro.api",
    "InlineExecutor": "repro.service",
    "Telemetry": "repro.telemetry",
}

__all__ = [
    "__version__",
    "ReproError",
    "RDFError",
    "ParseError",
    "RuleError",
    "EvaluationError",
    "ILPError",
    "InfeasibleError",
    "RefinementError",
    "DatasetError",
    "RequestError",
    "SnapshotError",
    "Dataset",
    "StructurednessSession",
    "WatchSession",
    "WatchEvent",
    "InlineExecutor",
    "Telemetry",
]


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
