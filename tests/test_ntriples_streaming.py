"""Chunk-boundary properties of the streaming N-Triples reader.

``iter_ntriples_buffered`` reads fixed-size byte buffers and must parse
exactly what the in-memory ``iter_ntriples`` parses — for every buffer
size down to one byte, whatever the newline convention (``\\n``,
``\\r\\n``, lone ``\\r``), wherever the buffer boundary lands: inside a
multi-byte UTF-8 character, between the ``\\r`` and ``\\n`` of a CRLF
pair, in the middle of a BOM, right before a missing trailing newline.
Property-based tests generate documents and buffer sizes; the directed
tests pin the boundary cases by hand.
"""

from __future__ import annotations

import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Dataset
from repro.exceptions import ParseError, SnapshotError
from repro.rdf.ntriples import iter_ntriples, iter_ntriples_buffered, parse_ntriples
from repro.storage import outofcore

_LINES = st.lists(
    st.sampled_from(
        [
            "<http://ex/s> <http://ex/p> <http://ex/o> .",
            "<http://ex/s> <http://ex/p> \"lit with \\\"quote\\\" and \\n\" .",
            "<http://ex/sé> <http://ex/p> \"héllo wörld ✓\" .",
            "  <http://ex/s2>\t<http://ex/p2> <http://ex/o2> .  # trailing",
            "# a comment line",
            "",
            "   ",
            '<http://ex/s> <http://ex/p> "typed"^^<http://ex/int> .',
            '<http://ex/s> <http://ex/p> "tagged"@en .',
        ]
    ),
    max_size=12,
)


def _reference(text: str):
    return list(iter_ntriples(text))


def _buffered(data: bytes, buffer_bytes: int):
    return list(iter_ntriples_buffered(io.BytesIO(data), buffer_bytes=buffer_bytes))


@settings(max_examples=120, deadline=None)
@given(
    lines=_LINES,
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    bom=st.booleans(),
    trailing=st.booleans(),
    buffer_bytes=st.integers(min_value=1, max_value=24),
)
def test_buffered_equals_reference(lines, newline, bom, trailing, buffer_bytes):
    """Any document, any newline convention, any buffer size: same triples."""
    text = newline.join(lines) + (newline if trailing and lines else "")
    data = ("\ufeff" if bom else "") + text
    assert _buffered(data.encode("utf-8"), buffer_bytes) == _reference(text)


@settings(max_examples=60, deadline=None)
@given(
    lines=_LINES,
    newlines=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=12, max_size=12),
    buffer_bytes=st.integers(min_value=1, max_value=8),
)
def test_mixed_newlines_within_one_document(lines, newlines, buffer_bytes):
    """Line terminators may vary line by line without confusing the reader."""
    text = "".join(line + newlines[i] for i, line in enumerate(lines))
    assert _buffered(text.encode("utf-8"), buffer_bytes) == _reference(text)


@settings(max_examples=60, deadline=None)
@given(
    lines=_LINES,
    buffer_bytes=st.integers(min_value=1, max_value=16),
    chunk_triples=st.integers(min_value=1, max_value=5),
)
def test_chunks_concatenate_to_full_parse(lines, buffer_bytes, chunk_triples):
    """The out-of-core build's spill runs partition the triple stream without loss.

    Every run but the last holds a full chunk of parsed lines (fewer rows
    only where the chunk repeated a triple), and the built snapshot has
    the in-memory parse's term list and triple set.
    """
    text = "\n".join(lines) + "\n" if lines else ""
    n_parsed = len(_reference(text))
    run_sizes = []
    real_save = np.save

    def recording_save(path, array, **kwargs):
        if Path(path).name.startswith("run-"):
            run_sizes.append(len(array))
        return real_save(path, array, **kwargs)

    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "data.nt"
        source.write_bytes(text.encode("utf-8"))
        with mock.patch.object(outofcore.np, "save", recording_save):
            outofcore.build_out_of_core(
                source,
                Path(tmp) / "snap",
                chunk_triples=chunk_triples,
                partitions=2,
                buffer_bytes=buffer_bytes,
            )
        graph = Dataset.load(Path(tmp) / "snap").graph
        expected = parse_ntriples(text)
        assert list(graph.term_dictionary) == list(expected.term_dictionary)
        assert set(graph) == set(expected)
    assert len(run_sizes) == -(-n_parsed // chunk_triples)
    assert all(size <= chunk_triples for size in run_sizes)


# --------------------------------------------------------------------- #
# Directed boundary cases
# --------------------------------------------------------------------- #
TRIPLE = "<http://ex/s> <http://ex/p> <http://ex/o> ."


def test_crlf_split_across_buffer_boundary():
    """A buffer ending on the CR of a CRLF pair must not double-count lines."""
    data = (TRIPLE + "\r\n" + TRIPLE + "\r\n").encode("utf-8")
    cr_index = data.index(b"\r")
    triples = _buffered(data, cr_index + 1)  # first buffer ends exactly on \r
    assert len(triples) == 2
    for size in range(1, len(data) + 1):
        assert _buffered(data, size) == triples


def test_lone_cr_terminates_lines():
    data = (TRIPLE + "\r" + TRIPLE).encode("utf-8")
    for size in (1, 2, 3, len(data), 10_000):
        assert len(_buffered(data, size)) == 2


def test_lone_cr_in_string_input_matches_file_input(tmp_path):
    """String sources get universal newlines, like file sources always did."""
    text = TRIPLE + "\r" + TRIPLE + "\r\n" + TRIPLE
    path = tmp_path / "data.nt"
    path.write_bytes(text.encode("utf-8"))
    from_text = list(iter_ntriples(text))
    from_file = list(iter_ntriples_buffered(path))
    assert from_text == from_file
    assert len(from_text) == 3


def test_missing_trailing_newline():
    data = TRIPLE.encode("utf-8")
    for size in (1, 7, len(data), 10_000):
        assert len(_buffered(data, size)) == 1


def test_bom_stripped_even_when_split_across_buffers():
    """The 3-byte UTF-8 BOM survives 1-byte buffers (carried as a partial line)."""
    data = "\ufeff".encode("utf-8") + (TRIPLE + "\n").encode("utf-8")
    for size in (1, 2, 3, 4, 10_000):
        assert len(_buffered(data, size)) == 1


def test_bom_only_stripped_on_first_line():
    data = (TRIPLE + "\n\ufeff" + TRIPLE + "\n").encode("utf-8")
    with pytest.raises(ParseError):
        _buffered(data, 10_000)


def test_multibyte_character_split_across_buffers():
    """Buffer boundaries inside a multi-byte character never corrupt it."""
    text = '<http://ex/s> <http://ex/p> "日本語 ✓ émoji 🎉" .\n'
    data = text.encode("utf-8")
    expected = _reference(text)
    assert expected[0].object == "日本語 ✓ émoji 🎉"
    for size in range(1, 8):
        assert _buffered(data, size) == expected


def test_comment_and_blank_lines_at_chunk_edges():
    data = ("#c\n\n" + TRIPLE + "\n#c2\r\n\r\n" + TRIPLE + "\n").encode("utf-8")
    for size in range(1, 6):
        assert len(_buffered(data, size)) == 2


def test_error_line_numbers_match_reference():
    """Both paths report the same line number for the same bad line."""
    text = TRIPLE + "\n" + TRIPLE + "\nnot a triple\n" + TRIPLE + "\n"
    with pytest.raises(ParseError) as reference:
        _reference(text)
    for size in (1, 5, 10_000):
        with pytest.raises(ParseError) as buffered:
            _buffered(text.encode("utf-8"), size)
        assert buffered.value.line == reference.value.line == 3


def test_undecodable_bytes_raise_parse_error():
    with pytest.raises(ParseError):
        _buffered(b"<http://ex/s> \xff\xfe <http://ex/o> .\n", 10_000)


def test_invalid_buffer_and_chunk_sizes_rejected():
    with pytest.raises(ParseError):
        list(iter_ntriples_buffered(io.BytesIO(b""), buffer_bytes=0))
    with pytest.raises(SnapshotError):
        outofcore.build_out_of_core(io.BytesIO(b""), "unused", chunk_triples=0)


def test_path_and_stream_sources_agree(tmp_path):
    path = tmp_path / "data.nt"
    path.write_bytes((TRIPLE + "\r\n").encode("utf-8"))
    assert list(iter_ntriples_buffered(path)) == list(
        iter_ntriples_buffered(io.BytesIO(path.read_bytes()))
    )
    assert list(iter_ntriples_buffered(str(path))) == list(iter_ntriples_buffered(path))
