"""Code-budget ratchet: ROADMAP's "line count per package is a tracked
number", executable.

A *code line* is a physical line carrying at least one token that is
neither a comment nor part of a docstring — so the budget cannot be met
by deleting documentation, and is not inflated by writing it.  Each
package has a ceiling; a PR that simplifies a package lowers its row
(it has to: no package may sit more than 50 lines under its ceiling),
a PR that has to grow one raises it on purpose, in the diff, where a
reviewer sees it.

The budget counts lines; :func:`test_every_public_name_is_read` counts
readers: a public function or class that no other module, no benchmark
and not its own module reads is dead weight, however few lines it has.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: The row of the top-level files ``src/repro/*.py`` (the CLI in
#: ``__main__.py`` is most of it).
TOP_LEVEL = "*.py"

#: package → code-line ceiling: the current size rounded up to 10 for
#: every row a PR touched (``test_ceilings_are_tight`` keeps the rest
#: within 50).  Last moved when the fleet monitor went (the time-series
#: recorder, SLOs and alert log, per-sensor health, the HTML dashboard,
#: ``repro monitor``, the simulator's per-sensor tallies and probe
#: sweeps, the engines' ``simulator`` properties): ``obs`` 1760 → 930,
#: top-level 600 → 380, ``network`` 750 → 600, ``query`` 1723 → 1720.
#: Before that, when the planner's unbounded decode memo went
#: (``decode_edges`` decodes per call): ``query`` 1730 → 1723.
#: Before that, when the unread periphery went (map and GPS
#: loaders, standing-query monitor, DP wrapper, exterior calculus,
#: adaptive weights, the ``city`` command and 17 public helpers only
#: their own tests read; ``test_every_public_name_is_read`` keeps it
#: gone): ``query`` 1870 → 1730, ``forms`` 1220 → 1090, ``geometry``
#: 620 → 490, ``mobility`` 600 → 410, ``trajectories`` 550 → 430,
#: ``selection`` 600 → 530, ``planar`` 800 → 750, top-level 640 → 600,
#: ``core`` 580 → 560, ``stream`` 390 → 380, ``evaluation`` 750 → 740.
#: Before that, when every store gained a rank index (a
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
    "query": 1720,
    "obs": 930,
    "forms": 1090,
    "evaluation": 740,
    "planar": 750,
    "network": 600,
    TOP_LEVEL: 380,
    "sampling": 600,
    "core": 560,
    "geometry": 490,
    "mobility": 410,
    "selection": 530,
    "trajectories": 430,
    "models": 500,
    "stream": 380,
    "baseline": 300,
}

#: How far under its ceiling a package may sit before the ceiling has
#: to come down with it.
SLACK = 50

#: Public names kept for the tests even where no module reads them:
#: the paper's definitions that answers are compared against, and the
#: builders of test worlds.  Nothing else belongs here.
KEPT_FOR_TESTS = {
    "static_count": "Thm 4.2 through any count store: the static oracle",
    "transient_count": "Thm 4.3 through any count store: the interval oracle",
    "SnapshotForm": "Eq. 7's crossing-counter pair (Thm 4.1)",
    "occupancy_count": "ground-truth occupancy from the trips themselves",
    "net_change": "ground-truth interval net change from the trips",
    "trip_events": "one trip's crossing events, the event oracle",
    "euler_characteristic": "V - E + F: the planarity check of built cities",
    "grid_strata": "builds the strata of stratified and sharded test worlds",
    "plan_trip": "builds the hand-placed trips of trajectory tests",
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


def _word(name: str) -> "re.Pattern[str]":
    return re.compile(rf"\b{re.escape(name)}\b")


def test_every_public_name_is_read():
    """Every top-level public ``def`` or ``class`` under ``src/repro``
    (``__init__`` re-exports do not count) is read by another module,
    by a benchmark, or more than once by its own module — or it is in
    :data:`KEPT_FOR_TESTS`, and a test reads it."""
    modules = {
        path: path.read_text()
        for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"
    }
    readers = {
        **modules,
        **{path: path.read_text()
           for path in sorted((ROOT / "benchmarks").rglob("*.py"))},
    }
    defined, unread = set(), []
    for path, source in modules.items():
        for node in ast.parse(source).body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.name.startswith("_"):
                continue
            defined.add(node.name)
            word = _word(node.name)
            if (
                node.name in KEPT_FOR_TESTS
                or len(word.findall(source)) > 1
                or any(word.search(text)
                       for other, text in readers.items() if other != path)
            ):
                continue
            unread.append(f"{path.relative_to(SRC)}: {node.name}")
    assert not unread, (
        "public names nothing reads — delete them, or list a paper "
        f"definition tests compare against in KEPT_FOR_TESTS: {unread}"
    )
    tests = [
        path.read_text() for path in sorted(Path(__file__).parent.glob("*.py"))
        if path.name != Path(__file__).name
    ]
    for name in KEPT_FOR_TESTS:
        assert name in defined, f"KEPT_FOR_TESTS lists a deleted {name}"
        assert any(_word(name).search(text) for text in tests), (
            f"KEPT_FOR_TESTS lists {name}, but no test reads it"
        )


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
