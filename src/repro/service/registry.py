"""Dataset specs and the per-process :class:`DatasetRegistry`.

The service layer cannot ship live :class:`~repro.api.Dataset` handles
across process boundaries — graphs and signature tables are heavy and the
handles hold locks.  Instead every wire request carries a small declarative
:class:`DatasetSpec` (a built-in generator name plus parameters, an
N-Triples path, or inline N-Triples text) and each worker process holds a
:class:`DatasetRegistry` that materialises the spec into a ``Dataset``
handle exactly once.  The graph → matrix → signature-table chain is then
built once per worker and reused across every job routed to it.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.api.dataset import Dataset, builtin_dataset_names
from repro.exceptions import RequestError
from repro.telemetry import Telemetry

__all__ = ["DatasetSpec", "DatasetRegistry"]

#: JSON scalar types allowed as built-in generator parameters.
_SCALARS = (str, int, float, bool, type(None))


@dataclass(frozen=True)
class DatasetSpec:
    """A declarative, picklable description of one dataset.

    Exactly one of ``builtin`` / ``path`` / ``ntriples`` / ``snapshot``
    must be given:

    * ``builtin`` — a name from :func:`repro.api.builtin_dataset_names`,
      with ``params`` forwarded to the generator (``n_subjects``, ...);
    * ``path`` — an N-Triples file on disk;
    * ``ntriples`` — inline N-Triples source text;
    * ``snapshot`` — a snapshot directory written by ``Dataset.save`` /
      ``repro snapshot build``: the worker reopens the persisted artifact
      chain instead of re-parsing and rebuilding (the warm-start source;
      see DESIGN.md, "Persistence & snapshots").

    ``sort`` (an ``rdf:type`` URI restricting the subjects) applies to the
    N-Triples variants only — a snapshot is a prebuilt chain, restrict the
    dataset *before* saving it.  ``mmap`` applies to snapshots only and
    controls whether the worker maps the segments read-only from disk
    (``True``, the out-of-core default for artifacts written by
    ``Dataset.build_out_of_core``) or copies them onto the heap
    (``False``); leaving it ``None`` uses ``Dataset.load``'s default and
    keeps the spec's canonical key identical to pre-``mmap`` clients.
    Specs are frozen value objects; ``key`` is a canonical string used to
    group batch requests and to index registries.
    """

    builtin: Optional[str] = None
    path: Optional[str] = None
    ntriples: Optional[str] = None
    snapshot: Optional[str] = None
    sort: Optional[str] = None
    name: Optional[str] = None
    mmap: Optional[bool] = None
    params: Tuple[Tuple[str, object], ...] = field(default=())

    def validated(self) -> "DatasetSpec":
        """Check source exclusivity and parameter shapes; return ``self``."""
        sources = [
            s for s in ("builtin", "path", "ntriples", "snapshot")
            if getattr(self, s) is not None
        ]
        if len(sources) != 1:
            raise RequestError(
                "a dataset spec needs exactly one of 'builtin', 'path', 'ntriples' "
                f"or 'snapshot', got {sources or 'none'}"
            )
        if self.sort is not None and (self.builtin is not None or self.snapshot is not None):
            raise RequestError(
                "'sort' applies to N-Triples datasets, not built-in generators or snapshots"
            )
        if self.mmap is not None and self.snapshot is None:
            raise RequestError("'mmap' only applies to snapshot datasets")
        if self.params and self.builtin is None:
            raise RequestError("'params' only applies to built-in generator datasets")
        for key, value in self.params:
            if not isinstance(key, str) or not isinstance(value, _SCALARS):
                raise RequestError(
                    f"dataset params must map names to JSON scalars, got {key!r}={value!r}"
                )
        return self

    @classmethod
    def from_dict(cls, data: object) -> "DatasetSpec":
        """Build a spec from a wire dict (also accepts a bare builtin name)."""
        if isinstance(data, str):
            return cls(builtin=data).validated()
        if not isinstance(data, dict):
            raise RequestError(f"a dataset spec must be a name or an object, got {data!r}")
        unknown = set(data) - {
            "builtin", "path", "ntriples", "snapshot", "sort", "name", "mmap", "params"
        }
        if unknown:
            raise RequestError(f"unknown dataset spec fields: {', '.join(sorted(unknown))}")
        params = data.get("params") or {}
        if not isinstance(params, dict):
            raise RequestError(f"dataset 'params' must be an object, got {params!r}")
        mmap = data.get("mmap")
        if mmap is not None and not isinstance(mmap, bool):
            raise RequestError(f"dataset 'mmap' must be a boolean, got {mmap!r}")
        return cls(
            builtin=data.get("builtin"),
            path=data.get("path"),
            ntriples=data.get("ntriples"),
            snapshot=data.get("snapshot"),
            sort=data.get("sort"),
            name=data.get("name"),
            mmap=mmap,
            params=tuple(sorted(params.items())),
        ).validated()

    def to_dict(self) -> Dict[str, object]:
        """The spec's wire form (inverse of :meth:`from_dict`)."""
        payload: Dict[str, object] = {}
        for field_name in ("builtin", "path", "ntriples", "snapshot", "sort", "name", "mmap"):
            value = getattr(self, field_name)
            if value is not None:
                payload[field_name] = value
        if self.params:
            payload["params"] = dict(self.params)
        return payload

    @property
    def key(self) -> str:
        """A canonical string identity (stable across processes)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def build(self) -> Dataset:
        """Materialise the spec into a fresh :class:`Dataset` handle."""
        if self.builtin is not None:
            if self.builtin not in builtin_dataset_names():
                known = ", ".join(builtin_dataset_names()) or "(none)"
                raise RequestError(
                    f"unknown built-in dataset {self.builtin!r}; available: {known}"
                )
            return Dataset.builtin(self.builtin, **dict(self.params))
        if self.snapshot is not None:
            if self.mmap is None:
                return Dataset.load(self.snapshot, name=self.name or "")
            return Dataset.load(self.snapshot, name=self.name or "", mmap=self.mmap)
        if self.path is not None:
            return Dataset.from_ntriples(self.path, name=self.name or "", sort=self.sort)
        return Dataset.from_ntriples_text(
            self.ntriples or "", name=self.name or "inline", sort=self.sort
        )


class DatasetRegistry:
    """spec key → :class:`Dataset`, built once and shared for the process.

    This is the worker-side cache: a pool worker receives many jobs over
    its lifetime, and every job whose spec was seen before reuses the
    already-built graph → matrix → signature-table chain.  ``stats`` counts
    lookups and actual builds so tests can prove the reuse.
    """

    def __init__(self) -> None:
        self._datasets: Dict[str, Dataset] = {}
        self._specs: Dict[str, DatasetSpec] = {}
        self._lock = threading.RLock()
        #: Always-on counters behind :attr:`stats`.
        self.telemetry = Telemetry()
        for counter in ("lookups", "builds"):
            self.telemetry.incr(counter, 0)

    @property
    def stats(self) -> Dict[str, int]:
        """A copy of the registry's counters: spec lookups and dataset builds."""
        return self.telemetry.counters()

    def get(self, spec: DatasetSpec) -> Dataset:
        """The (cached) handle for ``spec``, building it on first use."""
        key = spec.key
        with self._lock:
            self.telemetry.incr("lookups")
            dataset = self._datasets.get(key)
            if dataset is None:
                dataset = spec.build()
                self._datasets[key] = dataset
                self._specs[key] = spec
                self.telemetry.incr("builds")
        return dataset

    def __len__(self) -> int:
        return len(self._datasets)

    def describe(self) -> list:
        """Serialisable inventory: every spec seen plus its build state.

        ``generation`` counts the mutations applied to this process's copy
        of the dataset — the pool's convergence invariant is that every
        worker reports the same generation for the same spec.  Datasets
        reopened from a snapshot additionally carry a ``snapshot`` entry
        (path + on-disk format version) so ``/v1/datasets`` shows their
        provenance, and ``residency`` breaks each built stage down into
        heap-resident versus mmap-backed bytes (see
        :meth:`Dataset.residency`) so operators can see how much of a
        worker's data actually lives on disk.
        """
        with self._lock:
            entries = []
            for key, dataset in self._datasets.items():
                entry = {
                    "spec": self._specs[key].to_dict(),
                    "name": dataset.name,
                    "generation": dataset.generation,
                    "table_built": dataset.stats["table_builds"] > 0
                    or dataset._table is not None,
                    "residency": dataset.residency(),
                }
                provenance = dataset.snapshot_provenance
                if provenance is not None:
                    entry["snapshot"] = provenance
                entries.append(entry)
            return entries
