"""Property-structure views: matrices, signatures and figure rendering."""

from repro.matrix.horizontal import render_refinement, render_signature_table
from repro.matrix.property_matrix import PropertyMatrix
from repro.matrix.signatures import Signature, SignatureTable, signature_key

__all__ = [
    "PropertyMatrix",
    "Signature",
    "SignatureTable",
    "signature_key",
    "render_signature_table",
    "render_refinement",
]
