"""Seeded inputs: the DBpedia Persons stand-in written as an N-Triples file."""

from __future__ import annotations

import os
import shutil
from pathlib import Path

#: Subjects in the full-scale Persons file (about 106k triples, 11.6 MB).
PERSONS_SUBJECTS = 20_000


def persons_subjects(scale: float) -> int:
    return max(200, int(round(PERSONS_SUBJECTS * scale)))


def write_persons_ntriples(path: Path, seed: int, n_subjects: int) -> int:
    """Write the seeded Persons graph as N-Triples; returns the file's size in bytes."""
    from repro.datasets import dbpedia_persons_graph

    graph = dbpedia_persons_graph(n_subjects=n_subjects, seed=seed)
    with open(path, "w", encoding="utf-8") as out:
        for triple in graph:
            out.write(triple.n3())
            out.write("\n")
    return path.stat().st_size


def tree_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    total = 0
    for folder, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def table_fingerprint(table) -> tuple:
    """What the ingest gate compares: property order, support bitsets and counts."""
    return (
        tuple(str(p) for p in table.properties),
        table.packed_support_matrix().tobytes(),
        table.count_vector().tobytes(),
    )
