"""A small N-Triples reader and writer.

The reproduction does not depend on external RDF tooling, so this module
implements the subset of the N-Triples grammar that the synthetic datasets
and examples need:

* ``<uri> <uri> <uri> .``
* ``<uri> <uri> "literal" .``  (with ``\\"``, ``\\n``, ``\\t``, ``\\\\`` escapes)
* comment lines starting with ``#`` and blank lines.

Blank nodes and typed/language-tagged literals are intentionally out of
scope — the paper's data model is ``U × U × (U ∪ L)``.

**The line grammar.**  Every line goes through one compiled regular
expression first (``_FAST_LINE``): it matches the common shape
``<s> <p> <o> .`` or ``<s> <p> "lexical" .`` whose lexical form has no
backslash, with an optional ``^^<…>`` or ``@tag`` suffix that is
discarded.  A line it does not match — a comment, a blank line, an escape,
a trailing ``# comment``, anything malformed — goes to the strict
character scanner (``_parse_line``), the only code that rejects a line's
content with :class:`~repro.exceptions.ParseError`, so those messages,
lines and columns are the scanner's alone.  Both routes give the same triple for
every line the fast match accepts (``tests/test_rdf_ntriples.py`` runs a
corpus of edge lines through both).

**The parse-and-intern kernel.**  :func:`intern_ntriples` turns a file or
binary stream straight into interned ``(s_id, p_id, o_id)`` triples of a
given :class:`~repro.rdf.interning.TermDictionary`, without a
:class:`Triple` per line: two per-call token caches map the URI strings
and the literal lexical forms the fast match yields to their IDs, so a
repeated term costs one ``str`` dictionary probe.  A cache miss interns in file
order, so the dictionary's first-seen ID order is exactly that of
interning the parsed triples one by one.  Each cache is cleared when it
would pass ``_TOKEN_CACHE_ENTRIES`` entries, which bounds its memory
independently of the input.  Both N-Triples builds read from the kernel:
:func:`load_ntriples` (and :func:`parse_ntriples`) collect its ID triples
into one array, sort and deduplicate it, and wrap it as a column-backed
:class:`RDFGraph` (no hash index is built until something asks for one),
and the out-of-core build (:mod:`repro.storage.outofcore`) batches them
into its spill runs.
"""

from __future__ import annotations

import io
import re
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, TextIO, Tuple, Union

import numpy as np

from repro.exceptions import ParseError
from repro.rdf.graph import RDFGraph, distinct_triple_rows
from repro.rdf.interning import TermDictionary
from repro.rdf.terms import Literal, Triple, URI

__all__ = [
    "parse_ntriples",
    "iter_ntriples",
    "iter_ntriples_buffered",
    "intern_ntriples",
    "load_ntriples",
    "dumps_ntriples",
    "dump_ntriples",
    "unescape_literal",
    "DEFAULT_BUFFER_BYTES",
]

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}

#: A UTF-8 byte-order mark decodes to this; a leading one is tolerated and
#: stripped (editors on some platforms prepend it silently).
_BOM = "\ufeff"

#: Default read size of the buffered line reader: large enough that syscall
#: overhead is negligible, small enough to stay cache-resident.
DEFAULT_BUFFER_BYTES = 1 << 16

#: The common line shape, matched in one step: two URIs, then a URI or a
#: backslash-free literal with an optional datatype/language suffix, then
#: the terminating ``.`` and nothing but whitespace.  Each piece accepts
#: exactly what the strict scanner accepts at that position (a URI is
#: every character up to the first ``>``; ``@tag`` runs to a space, tab
#: or ``.``), so a match always yields the scanner's triple.  Lines keep
#: their newline in text mode, hence the ``[\r\n]`` before ``\Z``.
_FAST_LINE = re.compile(
    r'[ \t]*<([^>]+)>[ \t]*<([^>]+)>[ \t]*'
    r'(?:<([^>]+)>|"([^"\\]*)"(?:\^\^<[^>]*>|@[^ \t.]*)?)'
    r'[ \t]*\.[ \t\r\n]*\Z'
)

#: Entry bound of each per-call token cache of :func:`intern_ntriples`;
#: a cache that is full is cleared before its next insert.
_TOKEN_CACHE_ENTRIES = 1 << 16


def unescape_literal(text: str) -> str:
    """Undo the escapes of a literal's lexical form (no surrounding quotes).

    The single authority for decoding ``\\n``/``\\"``-style escapes — the
    wire codec and any other consumer share this table with the N-Triples
    parser, so the same spelling can never decode differently on two
    paths.  Raises :class:`ValueError` on an unsupported escape or a
    dangling backslash, mirroring the parser's strictness.
    """
    if "\\" not in text:
        return text
    chars: list[str] = []
    index = 0
    while index < len(text):
        char = text[index]
        if char == "\\":
            if index + 1 >= len(text) or text[index + 1] not in _ESCAPES:
                raise ValueError(f"unsupported escape in literal {text!r}")
            chars.append(_ESCAPES[text[index + 1]])
            index += 2
        else:
            chars.append(char)
            index += 1
    return "".join(chars)


def _parse_uri(text: str, position: int, line_number: int) -> tuple[URI, int]:
    if position >= len(text) or text[position] != "<":
        raise ParseError("expected '<' to start a URI", line=line_number, column=position + 1)
    end = text.find(">", position + 1)
    if end == -1:
        raise ParseError("unterminated URI (missing '>')", line=line_number, column=position + 1)
    value = text[position + 1 : end]
    if not value:
        raise ParseError("empty URI", line=line_number, column=position + 1)
    return URI(value), end + 1


def _parse_literal(text: str, position: int, line_number: int) -> tuple[Literal, int]:
    if position >= len(text) or text[position] != '"':
        raise ParseError("expected '\"' to start a literal", line=line_number, column=position + 1)
    chars: list[str] = []
    index = position + 1
    while index < len(text):
        char = text[index]
        if char == "\\":
            if index + 1 >= len(text):
                raise ParseError("dangling escape in literal", line=line_number, column=index + 1)
            escape = text[index + 1]
            if escape not in _ESCAPES:
                raise ParseError(
                    f"unsupported escape '\\{escape}' in literal",
                    line=line_number,
                    column=index + 1,
                )
            chars.append(_ESCAPES[escape])
            index += 2
            continue
        if char == '"':
            index += 1
            # Skip an optional datatype/lang suffix (^^<...> or @lang): we
            # accept it but discard it, keeping only the lexical form.
            if text.startswith("^^<", index):
                closing = text.find(">", index + 3)
                if closing == -1:
                    raise ParseError(
                        "unterminated datatype URI after literal",
                        line=line_number,
                        column=index + 1,
                    )
                index = closing + 1
            elif index < len(text) and text[index] == "@":
                while index < len(text) and text[index] not in " \t.":
                    index += 1
            return Literal("".join(chars)), index
        chars.append(char)
        index += 1
    raise ParseError("unterminated literal", line=line_number, column=position + 1)


def _skip_whitespace(text: str, position: int) -> int:
    while position < len(text) and text[position] in " \t":
        position += 1
    return position


def _parse_line(line: str, line_number: int) -> Triple | None:
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    position = _skip_whitespace(line, 0)
    subject, position = _parse_uri(line, position, line_number)
    position = _skip_whitespace(line, position)
    predicate, position = _parse_uri(line, position, line_number)
    position = _skip_whitespace(line, position)
    if position < len(line) and line[position] == '"':
        obj, position = _parse_literal(line, position, line_number)
    else:
        obj, position = _parse_uri(line, position, line_number)
    position = _skip_whitespace(line, position)
    if position >= len(line) or line[position] != ".":
        raise ParseError("expected terminating '.'", line=line_number, column=position + 1)
    trailing = line[position + 1 :].strip()
    if trailing and not trailing.startswith("#"):
        raise ParseError(
            f"unexpected content after '.': {trailing!r}", line=line_number, column=position + 2
        )
    return Triple(subject, predicate, obj)


def _match_triple(line: str, line_number: int) -> Triple | None:
    """The line grammar: the fast match, else the strict scanner."""
    found = _FAST_LINE.match(line)
    if found is None:
        return _parse_line(line, line_number)
    subject, predicate, obj, lexical = found.groups()
    return Triple(URI(subject), URI(predicate), URI(obj) if lexical is None else Literal(lexical))


def _lines_of_text(source: Union[str, TextIO]) -> Iterable[str]:
    """The lines of N-Triples text (universal newlines) or of a text stream."""
    if isinstance(source, str):
        return io.StringIO(source, newline=None)
    return source


def _triples_of_lines(lines: Iterable[str]) -> Iterator[Triple]:
    """Number the lines, strip a leading byte-order mark, yield their triples."""
    for line_number, line in enumerate(lines, start=1):
        if line_number == 1 and line.startswith(_BOM):
            line = line[len(_BOM):]
        triple = _match_triple(line, line_number)
        if triple is not None:
            yield triple


def iter_ntriples(source: Union[str, TextIO]) -> Iterator[Triple]:
    """Yield triples from N-Triples text or a readable text stream.

    A UTF-8 byte-order mark at the very start of the input is stripped
    (files saved by BOM-writing editors parse like any other file), and
    string input gets universal-newline treatment (``\\r\\n`` and lone
    ``\\r`` terminate lines) so text and file sources parse identically.
    """
    return _triples_of_lines(_lines_of_text(source))


def _iter_lines_buffered(stream: BinaryIO, buffer_bytes: int) -> Iterator[bytes]:
    """Yield raw lines from a binary stream, reading fixed-size buffers.

    Never holds more than one buffer plus one partial line in memory.
    All three newline conventions (``\\n``, ``\\r\\n``, lone ``\\r``) are
    line terminators, matching Python's universal-newline text mode, and a
    final line without a trailing newline is still yielded.  Splitting on
    the ASCII newline bytes is UTF-8 safe: continuation bytes are >= 0x80,
    so a multi-byte character is never cut even when a buffer boundary
    lands inside it (the partial line carries it into the next round).
    """
    pending = b""
    carry_cr = False  # last buffer ended with \r, already counted as a newline
    while True:
        chunk = stream.read(buffer_bytes)
        if not chunk:
            break
        if carry_cr and chunk.startswith(b"\n"):
            chunk = chunk[1:]
        carry_cr = chunk.endswith(b"\r")
        data = (pending + chunk).replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        lines = data.split(b"\n")
        pending = lines.pop()
        yield from lines
    if pending:
        yield pending


def _lines_of_binary(source: Union[str, Path, BinaryIO], buffer_bytes: int) -> Iterator[str]:
    """Decoded lines of a file path or binary stream, read in bounded buffers."""
    if buffer_bytes < 1:
        raise ParseError(f"buffer_bytes must be >= 1, got {buffer_bytes}")

    def _decoded(stream: BinaryIO) -> Iterator[str]:
        for line_number, raw in enumerate(_iter_lines_buffered(stream, buffer_bytes), start=1):
            try:
                yield raw.decode("utf-8")
            except UnicodeDecodeError as error:
                raise ParseError(
                    f"undecodable UTF-8 bytes: {error}", line=line_number, column=1
                ) from None

    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            yield from _decoded(handle)
    else:
        yield from _decoded(source)


def iter_ntriples_buffered(
    source: Union[str, Path, BinaryIO], *, buffer_bytes: int = DEFAULT_BUFFER_BYTES
) -> Iterator[Triple]:
    """Yield triples from a file path or binary stream in bounded memory.

    The streaming counterpart of :func:`iter_ntriples`: the input is read
    in ``buffer_bytes``-sized buffers and at no point does more than one
    buffer (plus one partial line) live in memory, so arbitrarily large
    files parse in O(buffer) space.  Parses the same grammar, raises the
    same :class:`~repro.exceptions.ParseError` with the same line/column
    coordinates, and tolerates the same leading byte-order mark — the
    out-of-core differential suite proves the two paths triple-identical.
    """
    return _triples_of_lines(_lines_of_binary(source, buffer_bytes))


class _TokenCache(dict):
    """A bounded ``str -> term ID`` map that interns on a miss."""

    __slots__ = ("_intern",)

    def __init__(self, intern: Callable[[str], int]):
        super().__init__()
        self._intern = intern

    def __missing__(self, token: str) -> int:
        if len(self) >= _TOKEN_CACHE_ENTRIES:
            self.clear()
        term_id = self[token] = self._intern(token)
        return term_id


def _intern_lines(
    lines: Iterable[str], dictionary: TermDictionary
) -> Iterator[Tuple[int, int, int]]:
    """The parse-and-intern kernel over decoded lines (see the module docstring)."""
    intern = dictionary.intern
    uri_ids = _TokenCache(lambda token: intern(URI(token)))
    literal_ids = _TokenCache(lambda token: intern(Literal(token)))
    match = _FAST_LINE.match
    for line_number, line in enumerate(lines, start=1):
        if line_number == 1 and line.startswith(_BOM):
            line = line[len(_BOM):]
        found = match(line)
        if found is not None:
            subject, predicate, obj, lexical = found.groups()
            yield (
                uri_ids[subject],
                uri_ids[predicate],
                uri_ids[obj] if lexical is None else literal_ids[lexical],
            )
            continue
        triple = _parse_line(line, line_number)
        if triple is not None:
            yield intern(triple.subject), intern(triple.predicate), intern(triple.object)


def intern_ntriples(
    source: Union[str, Path, BinaryIO],
    dictionary: TermDictionary,
    *,
    buffer_bytes: int = DEFAULT_BUFFER_BYTES,
) -> Iterator[Tuple[int, int, int]]:
    """Yield the interned ``(s_id, p_id, o_id)`` triples of a file or binary stream.

    Reads ``source`` like :func:`iter_ntriples_buffered` (same grammar,
    same :class:`~repro.exceptions.ParseError`, bounded memory) and
    interns each term into ``dictionary`` in file order, so the
    dictionary ends up exactly as if every parsed triple's subject,
    predicate and object had been interned in turn.  Repeated triples are
    yielded again; deduplication is the consumer's.
    """
    return _intern_lines(_lines_of_binary(source, buffer_bytes), dictionary)


def _graph_of_lines(lines: Iterable[str], name: str) -> RDFGraph:
    dictionary = TermDictionary()
    ids = np.fromiter(_intern_lines(lines, dictionary), dtype=np.dtype((np.int32, 3)))
    return RDFGraph.from_triple_ids(distinct_triple_rows(ids), dictionary, name)


def parse_ntriples(text: str, name: str = "") -> RDFGraph:
    """Parse N-Triples ``text`` into a fresh :class:`RDFGraph`."""
    return _graph_of_lines(_lines_of_text(text), name)


def load_ntriples(path: Union[str, Path], name: str = "") -> RDFGraph:
    """Load an N-Triples file from ``path`` into a fresh :class:`RDFGraph`."""
    path = Path(path)
    return _graph_of_lines(_lines_of_binary(path, DEFAULT_BUFFER_BYTES), name or path.stem)


def dumps_ntriples(triples: Iterable[Triple], sort: bool = True) -> str:
    """Serialise ``triples`` to N-Triples text.

    When ``sort`` is true (the default) the output lines are sorted, which
    makes serialisation deterministic and diff-friendly.
    """
    lines = [triple.n3() for triple in triples]
    if sort:
        lines.sort()
    return "\n".join(lines) + ("\n" if lines else "")


def dump_ntriples(triples: Iterable[Triple], path: Union[str, Path], sort: bool = True) -> int:
    """Write ``triples`` to ``path`` in N-Triples format; return the line count."""
    text = dumps_ntriples(triples, sort=sort)
    Path(path).write_text(text, encoding="utf-8")
    return text.count("\n")
