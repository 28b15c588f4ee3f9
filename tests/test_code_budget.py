"""Code-budget ratchet: ROADMAP's "line count per package is a tracked
number", executable.

A *code line* is a physical line carrying at least one token that is
neither a comment nor part of a docstring — so the budget cannot be met
by deleting documentation, and is not inflated by writing it.  Each
package has a ceiling; a PR that simplifies a package lowers its row
(it has to: no package may sit more than 50 lines under its ceiling),
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

#: package → code-line ceiling: the current size rounded up to 10 for
#: every row a PR touched (``test_ceilings_are_tight`` keeps the rest
#: within 50).  Last moved when every store gained a rank index (a
#: cold chain ranks in two searches, ``forms/rank.py``): ``forms``
#: 1200 → 1220, +24.  Before that, when every engine gained its plan
#: table (one bounded LRU of (box, bound) plans behind ``execute``,
#: ``execute_batch`` and ``fw.query``): ``query`` 1810 → 1870, +58.
#: Before that, when the fleet monitor became one recorder
#: of cumulative snapshots with views over it: ``obs`` 1860 → 1760
#: (no stored rates/quantiles, flat-name view caches or ``base_name``;
#: one ``series`` view, one quantile rule, one threshold SLO class,
#: ``collect_sensor_stats`` and ``evaluate_slos`` gone), ``evaluation``
#: 800 → 750 (``evaluate``'s ``recorder``/``sample_every``), top-level
#: stays 640 (638).  ``query`` stays over the 1700 asked for earlier:
#: the one-query planner steps sit beside the batch ones because
#: ``execute_batch([q])`` measures 324 µs against ``execute(q)``'s 141
#: (CHANGES.md).
CEILINGS = {
    "query": 1870,
    "obs": 1760,
    "forms": 1220,
    "evaluation": 750,
    "planar": 800,
    "network": 750,
    TOP_LEVEL: 640,
    "sampling": 600,
    "core": 580,
    "geometry": 620,
    "mobility": 600,
    "selection": 600,
    "trajectories": 550,
    "models": 500,
    "stream": 390,
    "baseline": 300,
}

#: How far under its ceiling a package may sit before the ceiling has
#: to come down with it.
SLACK = 50

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


@pytest.mark.parametrize("package", list(CEILINGS))
def test_ceilings_are_tight(package):
    """The ratchet cannot go slack: a PR that removes code lowers the
    ceiling in the same diff, or the next one grows into the gap
    unseen."""
    count = package_code_lines(package)
    assert CEILINGS[package] - count <= SLACK, (
        f"src/repro/{package}: {count} code lines sit more than {SLACK} "
        f"under the ceiling {CEILINGS[package]} — lower it to "
        f"{-(-count // 10) * 10}"
    )


if __name__ == "__main__":
    # ROADMAP's tracked number, for the CI log.
    counts = {package: package_code_lines(package) for package in CEILINGS}
    for package, count in counts.items():
        print(f"src/repro/{package:<14}{count:>6} /{CEILINGS[package]:>5}")
    print(f"src/repro/{'':<14}{sum(counts.values()):>6}")
