"""The structuredness service: batch execution, worker pool, HTTP front-end.

This package turns the session facade (:mod:`repro.api`) into something
you can put traffic on, in three layers:

* **Wire format** (:mod:`repro.service.wire`) — a JSONL codec for typed
  requests and scalar-only result envelopes; every payload round-trips
  bit-identically through ``serialize → parse``.
* **Batch execution** (:mod:`repro.service.executor`,
  :mod:`repro.service.elastic`) — :func:`plan_batch` groups requests by
  ``(dataset, rule, solver)`` so each group shares one session and its
  caches; :class:`InlineExecutor` runs groups in-process (the determinism
  baseline), :class:`ElasticPoolExecutor` fans independent groups out
  over long-lived worker processes, each holding a
  :class:`~repro.service.registry.DatasetRegistry` so dataset chains are
  built once per worker.  The pool runs a fixed number of worker
  processes (``--workers N``), booted on first use and drained
  gracefully on close.
* **HTTP front-end** (:mod:`repro.service.server`) — a stdlib threaded
  JSON API (``POST /v1/evaluate|refine|lowest_k|sweep|mutate|batch|watch``,
  ``GET /v1/datasets``, ``GET /v1/stats``, ``GET /v1/metrics``) exposed
  by ``repro serve``, with request admission (bounded pending slots, 429
  + ``Retry-After`` on overflow) and streamed JSONL batch responses;
  batches run through ``repro batch`` without a server.

Datasets are mutable in place: a ``mutate`` request applies a triple
delta, incrementally patches the matrix/signature chain (bit-identical
to a rebuild) and acts as a barrier inside a batch; the pool replays
mutations into every worker's registry via an ordered mutation log, so
pooled answers stay bit-identical to inline ones.

>>> from repro.service import InlineExecutor, parse_request
>>> executor = InlineExecutor()
>>> [env] = executor.execute([{                        # doctest: +SKIP
...     "op": "evaluate",
...     "dataset": {"builtin": "dbpedia-persons", "params": {"n_subjects": 500}},
...     "request": {"rule": "Cov"},
... }])
>>> env["ok"], env["result"]["value"]                  # doctest: +SKIP
(True, 0.54)
"""

from repro.service.executor import (
    BatchExecutor,
    BatchGroup,
    InlineExecutor,
    create_executor,
    plan_batch,
)
from repro.service.elastic import ElasticPoolExecutor
from repro.service.registry import DatasetRegistry, DatasetSpec
from repro.service.server import StructurednessService, make_server, serve
from repro.service.wire import (
    MUTATING_OPS,
    OPS,
    ServiceRequest,
    dump_jsonl,
    error_result,
    parse_jsonl,
    parse_request,
    parse_result,
    serialize_request,
    serialize_result,
)

__all__ = [
    "BatchExecutor",
    "BatchGroup",
    "InlineExecutor",
    "ElasticPoolExecutor",
    "create_executor",
    "plan_batch",
    "DatasetRegistry",
    "DatasetSpec",
    "StructurednessService",
    "make_server",
    "serve",
    "OPS",
    "MUTATING_OPS",
    "ServiceRequest",
    "parse_request",
    "serialize_request",
    "parse_result",
    "serialize_result",
    "error_result",
    "parse_jsonl",
    "dump_jsonl",
]
