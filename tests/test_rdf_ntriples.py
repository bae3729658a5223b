"""Unit tests for the N-Triples reader/writer."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParseError
from repro.rdf import ntriples
from repro.rdf.graph import RDFGraph
from repro.rdf.interning import TermDictionary
from repro.rdf.namespaces import EX
from repro.rdf.ntriples import (
    dump_ntriples,
    dumps_ntriples,
    intern_ntriples,
    iter_ntriples_buffered,
    load_ntriples,
    parse_ntriples,
)
from repro.rdf.terms import Literal, Triple, URI


class TestParsing:
    def test_parses_uri_object(self):
        graph = parse_ntriples("<http://e/s> <http://e/p> <http://e/o> .")
        assert (URI("http://e/s"), URI("http://e/p"), URI("http://e/o")) in graph

    def test_parses_literal_object(self):
        graph = parse_ntriples('<http://e/s> <http://e/p> "hello world" .')
        assert graph.value("http://e/s", "http://e/p") == Literal("hello world")

    def test_parses_escapes_in_literal(self):
        graph = parse_ntriples('<http://e/s> <http://e/p> "line1\\nline2 \\"x\\"" .')
        assert graph.value("http://e/s", "http://e/p") == Literal('line1\nline2 "x"')

    def test_ignores_comments_and_blank_lines(self):
        text = "\n# a comment\n<http://e/s> <http://e/p> <http://e/o> .\n\n"
        assert len(parse_ntriples(text)) == 1

    def test_ignores_datatype_suffix(self):
        graph = parse_ntriples(
            '<http://e/s> <http://e/p> "42"^^<http://www.w3.org/2001/XMLSchema#int> .'
        )
        assert graph.value("http://e/s", "http://e/p") == Literal("42")

    def test_missing_dot_raises(self):
        with pytest.raises(ParseError):
            parse_ntriples("<http://e/s> <http://e/p> <http://e/o>")

    def test_unterminated_uri_raises(self):
        with pytest.raises(ParseError):
            parse_ntriples("<http://e/s <http://e/p> <http://e/o> .")

    def test_unterminated_literal_raises(self):
        with pytest.raises(ParseError):
            parse_ntriples('<http://e/s> <http://e/p> "oops .')

    def test_unknown_escape_raises(self):
        with pytest.raises(ParseError):
            parse_ntriples('<http://e/s> <http://e/p> "\\q" .')

    def test_trailing_garbage_raises(self):
        with pytest.raises(ParseError):
            parse_ntriples("<http://e/s> <http://e/p> <http://e/o> . extra")

    def test_error_reports_line_number(self):
        text = "<http://e/s> <http://e/p> <http://e/o> .\nbroken line\n"
        with pytest.raises(ParseError) as excinfo:
            parse_ntriples(text)
        assert excinfo.value.line == 2


class TestSerialisation:
    def test_round_trip(self, tiny_graph):
        text = dumps_ntriples(tiny_graph)
        assert parse_ntriples(text) == tiny_graph

    def test_output_is_sorted_and_deterministic(self, tiny_graph):
        assert dumps_ntriples(tiny_graph) == dumps_ntriples(RDFGraph(reversed(list(tiny_graph))))

    def test_empty_input_gives_empty_string(self):
        assert dumps_ntriples([]) == ""

    def test_file_round_trip(self, tmp_path, tiny_graph):
        path = tmp_path / "graph.nt"
        lines = dump_ntriples(tiny_graph, path)
        assert lines == len(tiny_graph)
        assert load_ntriples(path) == tiny_graph

    def test_load_sets_graph_name_from_filename(self, tmp_path):
        path = tmp_path / "people.nt"
        dump_ntriples([Triple.create(EX.s, EX.p, EX.o)], path)
        assert load_ntriples(path).name == "people"


# --------------------------------------------------------------------- #
# The fast line match against the strict scanner
# --------------------------------------------------------------------- #
S, P = "<http://e/s>", "<http://e/p>"

#: (line, whether the fast match takes it).  A line the fast match declines
#: goes to the strict scanner, so only accepted lines can differ at all;
#: the flags pin which route each edge case takes.
EDGE_LINES = [
    (f"{S} {P} <http://e/o> .", True),
    (f"{S} {P} <http://e/o> .\n", True),
    (f'{S} {P} "plain" .', True),
    (f'{S} {P} "" .', True),
    (f'{S} {P} "42"^^<http://www.w3.org/2001/XMLSchema#int> .', True),
    (f'{S} {P} "x"^^<> .', True),
    (f'{S} {P} "chat"@en .', True),
    (f'{S} {P} "chat"@en-GB.', True),
    (f'{S} {P} "a > b" .', True),
    (f'{S} {P} "# not a comment" .', True),
    (f'{S} {P} "ends with a dot." .', True),
    (f"\t{S}\t{P}\t<http://e/o>\t.\t", True),
    (f"{S}{P}<http://e/o>.", True),
    (f"{S} {P} <http://e/o> .\r\n", True),
    (f"{S} {P} <http://e/o> .\r", True),
    (f"<http://e/a space> {P} <http://e/o> .", True),
    (f'{S} {P} "tab\there" .', True),
    (f'{S} {P} "esc \\"q\\" \\n" .', False),
    (f'{S} {P} "\\\\" .', False),
    (f'{S} {P} "bad \\q" .', False),
    (f'{S} {P} "dangling \\', False),
    (f"{S} {P} <http://e/o> . # trailing comment", False),
    (f"{S} {P} <http://e/o> .#tight", False),
    ("# a comment", False),
    ("", False),
    ("   \t ", False),
    ("\n", False),
    (f"\ufeff{S} {P} <http://e/o> .", False),
    (f"{S} {P} <http://e/o>", False),
    (f'{S} {P} "no dot"', False),
    (f"{S} {P} <http://e/o> . junk", False),
    (f"{S} {P} <http://e/o> ..", False),
    (f'{S} {P} "x"@en junk .', False),
    (f'{S} {P} "x"@en.junk .', False),
    (f'{S} {P} "x"^^<http://e/dt .', False),
    (f'{S} {P} "x"^^http://e/dt .', False),
    (f'{S} {P} "unterminated .', False),
    (f"{S} {P} <> .", False),
    (f"<http://e/s {P} <http://e/o> .", False),
    (f'"lit" {P} <http://e/o> .', False),
    (f"{S} {P} <http://e/o> . \x0b", False),
    (f"\x0b{S} {P} <http://e/o> .", False),
]


def _outcome(parse, line):
    """The triple a line parses to, or its ParseError's (message, line, column)."""
    try:
        return parse(line, 7)
    except ParseError as error:
        return ("error", str(error), error.line, error.column)


@pytest.mark.parametrize("line,fast", EDGE_LINES)
def test_fast_match_agrees_with_the_strict_scanner(line, fast):
    assert (ntriples._FAST_LINE.match(line) is not None) == fast
    assert _outcome(ntriples._match_triple, line) == _outcome(ntriples._parse_line, line)


#: Random lines built piece by piece: each slot draws a well-formed piece
#: or a near miss, so many lines take the fast route and many just miss it.
_WS = st.sampled_from(["", " ", "\t", " \t ", "\x0b"])
_URI = st.sampled_from(["<http://e/a>", "<a b>", "<a<b>", "<>", "<open", "bare>", '"lit"'])
_OBJECT = st.sampled_from(
    ["<http://e/o>", '"lit"', '""', '"a > b"', '"#. @"', '"a\\"b"', '"a\\qb"', '"open', "<open"]
)
_SUFFIX = st.sampled_from(["", "@en", "@en-GB", "^^<http://e/dt>", "^^<>", "^^<open", "^^x", "@"])
_END = st.sampled_from(
    [".", "", "..", ". # c", ".#", ". x", ".x .", ".\n", ".\r\n", ".\r", " . \n", ". \x0b"]
)
RANDOM_LINES = st.tuples(_WS, _URI, _WS, _URI, _WS, _OBJECT, _SUFFIX, _WS, _END).map("".join)


@settings(max_examples=400, deadline=None)
@given(RANDOM_LINES)
def test_fast_match_agrees_with_the_strict_scanner_on_random_lines(line):
    assert _outcome(ntriples._match_triple, line) == _outcome(ntriples._parse_line, line)


def _parses(line: str) -> bool:
    try:
        ntriples._parse_line(line, 1)
    except ParseError:
        return False
    return True


def _edge_document() -> bytes:
    """The well-formed edge lines as one file, repeated so the caches get hits."""
    good = [line.rstrip("\r\n") for line, _ in EDGE_LINES if _parses(line)]
    return ("\n".join(good * 3) + "\n").encode("utf-8")


def _kernel(data: bytes):
    dictionary = TermDictionary()
    return list(intern_ntriples(io.BytesIO(data), dictionary)), list(dictionary)


def test_kernel_interns_what_the_parser_yields():
    data = _edge_document()
    ids, terms = _kernel(data)
    expected = TermDictionary()
    expected_ids = [
        tuple(expected.intern(term) for term in triple)
        for triple in iter_ntriples_buffered(io.BytesIO(data))
    ]
    assert ids == expected_ids
    assert terms == list(expected)
    assert any(isinstance(term, Literal) for term in terms)


def test_kernel_cache_bound_changes_no_id(monkeypatch):
    """Clearing the token caches every two entries gives the same IDs and terms."""
    data = _edge_document() + (
        "".join(f"<http://e/s{i % 5}> <http://e/p{i % 3}> \"v{i % 4}\" .\n" for i in range(40))
    ).encode("utf-8")
    unbounded = _kernel(data)
    monkeypatch.setattr(ntriples, "_TOKEN_CACHE_ENTRIES", 2)
    assert _kernel(data) == unbounded


def test_kernel_keeps_uri_and_literal_of_one_spelling_apart():
    ids, terms = _kernel(b'<http://e/x> <http://e/x> "http://e/x" .\n')
    assert ids == [(0, 0, 1)]
    assert terms == [URI("http://e/x"), Literal("http://e/x")]
    assert isinstance(terms[0], URI) and isinstance(terms[1], Literal)
