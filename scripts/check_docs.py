#!/usr/bin/env python3
"""Documentation gate, run in CI next to the tier-1 tests.

Three checks, all purely static (no imports, no network):

1. **Public docstring audit** — every module, public class, public
   function and public method in the audited packages (``repro/api``,
   ``repro/service``, ``repro/storage``) must carry a docstring.  These
   are the user-facing surfaces documented in ``docs/``; an undocumented
   public name there is a doc bug.
2. **Intra-repo link integrity** — every relative markdown link in
   ``docs/*.md``, ``README.md`` and ``DESIGN.md`` must point at an
   existing file, and ``#fragment`` links into markdown files must match
   a real heading (GitHub slug rules).  External ``http(s)://`` links are
   not touched.
3. **Metric names documented** — every literal name passed to
   ``.incr(``, ``.span(`` or ``.observe(`` under ``src/repro/`` must
   appear, in backticks, in ``docs/observability.md``.  An f-string name
   matches on its literal parts: ``f"http.status.{n}xx"`` is satisfied by
   ```http.status.2xx```.

Exit status 0 when clean; 1 with a per-finding report otherwise.
Run locally with::

    python scripts/check_docs.py
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Packages whose public surface must be fully docstringed.
AUDITED_PACKAGES = ("src/repro/api", "src/repro/service", "src/repro/storage")

#: Markdown documents whose relative links must resolve.
LINKED_DOCUMENTS = ("README.md", "DESIGN.md", "docs")

#: ``[text](target)`` — good enough for the plain markdown these docs use
#: (no nested brackets, no reference-style links).
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

_HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")

#: Where telemetry names are recorded, and the document that must name them.
METRICS_SOURCE = "src/repro"
METRICS_DOCUMENT = "docs/observability.md"

#: The telemetry methods whose first argument is a metric name.
_METRIC_METHODS = ("incr", "span", "observe")


# --------------------------------------------------------------------- #
# Docstring audit
# --------------------------------------------------------------------- #
def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _iter_docstring_gaps(path: Path) -> Iterator[str]:
    """Yield one message per missing docstring in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    relative = path.relative_to(REPO_ROOT)
    if ast.get_docstring(tree) is None:
        yield f"{relative}: missing module docstring"
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_public(node.name):
            if ast.get_docstring(node) is None:
                yield f"{relative}:{node.lineno}: public function '{node.name}' has no docstring"
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            if ast.get_docstring(node) is None:
                yield f"{relative}:{node.lineno}: public class '{node.name}' has no docstring"
            for member in node.body:
                if (
                    isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and _is_public(member.name)
                    and ast.get_docstring(member) is None
                ):
                    yield (
                        f"{relative}:{member.lineno}: public method "
                        f"'{node.name}.{member.name}' has no docstring"
                    )


def check_docstrings() -> List[str]:
    """Audit every python file of the audited packages; return the findings."""
    findings: List[str] = []
    for package in AUDITED_PACKAGES:
        root = REPO_ROOT / package
        for path in sorted(root.rglob("*.py")):
            findings.extend(_iter_docstring_gaps(path))
    return findings


# --------------------------------------------------------------------- #
# Link integrity
# --------------------------------------------------------------------- #
def _github_slug(heading: str) -> str:
    """GitHub's anchor slug for a markdown heading (the common subset)."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _headings_of(path: Path) -> Set[str]:
    slugs: Set[str] = set()
    in_code_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_code_fence = not in_code_fence
            continue
        if in_code_fence:
            continue
        match = _HEADING_RE.match(line)
        if match:
            slugs.add(_github_slug(match.group(1)))
    return slugs


def _iter_markdown_files() -> Iterator[Path]:
    for entry in LINKED_DOCUMENTS:
        path = REPO_ROOT / entry
        if path.is_dir():
            yield from sorted(path.glob("*.md"))
        elif path.exists():
            yield path


def _iter_link_targets(path: Path) -> Iterator[Tuple[int, str]]:
    in_code_fence = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_code_fence = not in_code_fence
            continue
        if in_code_fence:
            continue
        for match in _LINK_RE.finditer(line):
            yield lineno, match.group(1)


def check_links() -> List[str]:
    """Resolve every relative markdown link; return the dead ones."""
    findings: List[str] = []
    for document in _iter_markdown_files():
        relative = document.relative_to(REPO_ROOT)
        for lineno, target in _iter_link_targets(document):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            base, _, fragment = target.partition("#")
            resolved = document if not base else (document.parent / base).resolve()
            if base and not resolved.exists():
                findings.append(f"{relative}:{lineno}: dead link target '{target}'")
                continue
            if fragment and resolved.suffix == ".md":
                if _github_slug(fragment) not in _headings_of(resolved):
                    findings.append(
                        f"{relative}:{lineno}: link '{target}' points at a "
                        f"heading that does not exist in {resolved.name}"
                    )
    return findings


# --------------------------------------------------------------------- #
# Metric names
# --------------------------------------------------------------------- #
def _name_patterns(node: ast.expr) -> Iterator[Tuple[str, "re.Pattern[str]"]]:
    """``(spelling, pattern)`` per literal metric name an argument can take.

    A plain string is matched verbatim; an f-string's placeholders match
    any run of name characters; both branches of ``a if c else b`` count.
    Anything else (a variable) names nothing checkable.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value, re.compile(re.escape(node.value))
    elif isinstance(node, ast.JoinedStr):
        parts = [
            re.escape(value.value) if isinstance(value, ast.Constant) else r"[\w.]+"
            for value in node.values
        ]
        yield ast.unparse(node), re.compile("".join(parts))
    elif isinstance(node, ast.IfExp):
        yield from _name_patterns(node.body)
        yield from _name_patterns(node.orelse)


def _iter_metric_names(path: Path) -> Iterator[Tuple[int, str, "re.Pattern[str]"]]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _METRIC_METHODS
            and node.args
        ):
            for spelling, pattern in _name_patterns(node.args[0]):
                yield node.lineno, spelling, pattern


def check_metric_names() -> List[str]:
    """Find every recorded metric name missing from the observability doc."""
    document = REPO_ROOT / METRICS_DOCUMENT
    documented = set(re.findall(r"`([^`\s]+)`", document.read_text(encoding="utf-8")))
    findings: List[str] = []
    for path in sorted((REPO_ROOT / METRICS_SOURCE).rglob("*.py")):
        relative = path.relative_to(REPO_ROOT)
        names = sorted(_iter_metric_names(path), key=lambda name: name[0])
        for lineno, spelling, pattern in names:
            if not any(pattern.fullmatch(name) for name in documented):
                findings.append(
                    f"{relative}:{lineno}: metric name {spelling} is not "
                    f"documented in {METRICS_DOCUMENT}"
                )
    return findings


def main() -> int:
    """Run the three checks; print findings and return the exit status."""
    findings = check_docstrings() + check_links() + check_metric_names()
    if findings:
        print(f"check_docs: {len(findings)} problem(s) found", file=sys.stderr)
        for finding in findings:
            print(f"  {finding}", file=sys.stderr)
        return 1
    print(
        "check_docs: public docstrings complete, all intra-repo links resolve, "
        "every metric name documented"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
