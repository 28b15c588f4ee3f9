"""Code-budget ratchet: ROADMAP's "line count per package is a tracked
number", executable.

A *code line* is a physical line carrying at least one token that is
neither a comment nor part of a docstring — so the budget cannot be met
by deleting documentation, and is not inflated by writing it.  Each
package has a ceiling; a PR that simplifies a package lowers its row,
a PR that has to grow one raises it on purpose, in the diff, where a
reviewer sees it.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The row of the top-level files ``src/repro/*.py`` (the CLI in
#: ``__main__.py`` is most of it).
TOP_LEVEL = "*.py"

#: package → code-line ceiling (current size rounded up).  Raised on
#: purpose by the batch plan (ISSUE 22), each for what it added:
#: ``query`` 1700 → 1860 — the planner's columnar batch surface (four
#: steps over every distinct key at once), ``PlanStage.plan_batch`` /
#: ``BatchPlan`` and the engine's batch answer stage, less ``PlanMemo``
#: and the memo branches they replace.  The issue's "stays ≤ 1700" is
#: NOT met: the one-query steps stay beside the batch ones because
#: ``execute_batch([q])`` measures 324 µs against ``execute(q)``'s 141
#: (CHANGES.md, PR 22), and what the review pass could take out of the
#: rest of the package (1922 → 1853) does not cover the difference.
#: ``forms`` 1140 → 1200 — the lane-general rank hook,
#: ``integrate_batch`` / ``estimate_batch`` and the kernel's lane
#: ordering.  ``core`` 620 → 630 — the facade's engine reuse.
CEILINGS = {
    "query": 1860,
    "obs": 2520,
    "forms": 1200,
    "evaluation": 800,
    "planar": 800,
    "network": 750,
    TOP_LEVEL: 740,
    "sampling": 600,
    "core": 630,
    "geometry": 620,
    "mobility": 600,
    "selection": 600,
    "trajectories": 550,
    "models": 500,
    "stream": 390,
    "baseline": 300,
}

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOCUMENTED = (
    ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef
)


def code_lines(source: str) -> int:
    docstring_lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(
            node, clean=False
        ) is not None:
            doc = node.body[0]
            docstring_lines.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines)


def package_code_lines(package: str) -> int:
    paths = (
        SRC.glob(TOP_LEVEL) if package == TOP_LEVEL
        else (SRC / package).rglob("*.py")
    )
    return sum(code_lines(path.read_text()) for path in sorted(paths))


def test_counts_code_not_comments_or_docstrings():
    source = '''"""Module docstring
    over two lines."""
# a comment
x = 1  # trailing comment still a code line

def f(a,
      b):
    """Docstring."""
    return (a +
            b)
'''
    # x = 1 | def f(a, | b): | return (a + | b)
    assert code_lines(source) == 5


def test_every_package_has_a_ceiling():
    packages = {
        path.name for path in SRC.iterdir()
        if path.is_dir() and (path / "__init__.py").exists()
    }
    assert packages | {TOP_LEVEL} == set(CEILINGS)


@pytest.mark.parametrize("package", list(CEILINGS))
def test_package_within_budget(package):
    count = package_code_lines(package)
    assert count <= CEILINGS[package], (
        f"src/repro/{package}: {count} code lines > ceiling "
        f"{CEILINGS[package]} — simplify, or raise the ceiling on purpose"
    )


if __name__ == "__main__":
    # ROADMAP's tracked number, for the CI log.
    counts = {package: package_code_lines(package) for package in CEILINGS}
    for package, count in counts.items():
        print(f"src/repro/{package:<14}{count:>6} /{CEILINGS[package]:>5}")
    print(f"src/repro/{'':<14}{sum(counts.values()):>6}")
