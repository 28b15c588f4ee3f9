"""Code-budget ratchet: ROADMAP's "line count per package is a tracked
number", executable.

A *code line* is a physical line carrying at least one token that is
neither a comment nor part of a docstring — so the budget cannot be met
by deleting documentation, and is not inflated by writing it.  Each
package has a ceiling; a PR that simplifies a package lowers its row
(it has to: no package may sit more than 50 lines under its ceiling),
a PR that has to grow one raises it on purpose, in the diff, where a
reviewer sees it.

The budget counts lines; :func:`test_every_public_name_is_read` and
:func:`test_every_public_method_is_read` count readers: a public
function, class, method or property that no program module, no
benchmark and no example reads is dead weight, however few lines it
has.  Tests are not readers; an oracle they compare against is listed
with its reason.
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
#: The experiment-only code of the figure benchmarks (harness,
#: comparison systems, tables and charts), budgeted and guarded like a
#: package of ``src/repro``.
LIB = ROOT / "benchmarks" / "lib"

#: The row of the top-level files ``src/repro/*.py`` (the CLI in
#: ``__main__.py`` is most of it).
TOP_LEVEL = "*.py"

#: The row of :data:`LIB`.
LIB_ROW = "benchmarks/lib"

#: package → code-line ceiling: the current size rounded up to 10 for
#: every row a PR touched (``test_ceilings_are_tight`` keeps the rest
#: within 50).  Last moved when the compiled planner came to plan a
#: cold query from region extents and wall sides (the signed wall
#: scatter, ``_across`` and the per-step ``_resolve`` went) and the
#: method read-guard stopped counting ``__all__`` entries as reads
#: (``Segment.midpoint`` went): ``query`` 1720 → 1710, ``geometry``
#: 430 → 420; ``sampling`` stays 470 (469: the extent and sides
#: tables fit into a shorter index build).
#: Before that, when the experiment-only code left
#: ``src/``: the figure harness (``Pipeline``, ``evaluate``, the
#: ``Summary`` metric, tables, SVG charts), the Euler-histogram and
#: FM-sketch comparison systems, the dead-space decompositions and the
#: energy model moved to ``benchmarks/lib`` (a new row, 1050), and the
#: method read-guard deleted the public methods and properties only
#: tests read: ``evaluation`` 740 → 120, ``baseline`` 300 → gone,
#: ``sampling`` 600 → 470, ``network`` 600 → 470, ``obs`` 930 → 880,
#: ``planar`` 750 → 680, ``geometry`` 490 → 430, ``forms`` 1090 →
#: 1080, ``selection`` 530 → 520, ``models`` 500 → 460.
#: Before that, when the fleet monitor went (the time-series
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
    "query": 1710,
    "obs": 880,
    "forms": 1080,
    "evaluation": 120,
    "planar": 680,
    "network": 470,
    TOP_LEVEL: 380,
    "sampling": 470,
    "core": 560,
    "geometry": 420,
    "mobility": 410,
    "selection": 520,
    "trajectories": 430,
    "models": 460,
    "stream": 380,
    LIB_ROW: 1050,
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

#: Public methods and properties kept for the tests although no module
#: reads them: oracles the tests compare the program against.
METHODS_KEPT_FOR_TESTS = {
    "StreamingEventStore.snapshot_columns":
        "the stateful stream machine's view of every live event",
    "SnapshotForm.integrate_edges":
        "Eq. 7's counters integrated over a chain: the Thm 4.1 oracle",
    "Chain.coefficient":
        "a 1-chain's signed coefficient: the orientation oracle of ∂",
    "Chain.is_cycle": "∂ of a region is closed: the chain-complex check",
    "SensorNetwork.region_of":
        "a junction's sensing region: what the wall-separation "
        "properties check the compiled index against",
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
    if package == TOP_LEVEL:
        paths = SRC.glob(TOP_LEVEL)
    elif package == LIB_ROW:
        paths = LIB.rglob("*.py")
    else:
        paths = (SRC / package).rglob("*.py")
    return sum(code_lines(path.read_text()) for path in sorted(paths))


def _row(package: str) -> str:
    return package if package == LIB_ROW else f"src/repro/{package}"


def _word(name: str) -> "re.Pattern[str]":
    return re.compile(rf"\b{re.escape(name)}\b")


def _attribute(name: str) -> "re.Pattern[str]":
    return re.compile(rf"\.{re.escape(name)}\b")


def _program_modules() -> dict:
    """Every module of ``src/repro`` and ``benchmarks/lib`` whose public
    names the guard checks (``__init__`` re-exports do not count)."""
    return {
        path: path.read_text()
        for base in (SRC, LIB) for path in sorted(base.rglob("*.py"))
        if path.name != "__init__.py"
    }


def _readers() -> dict:
    """Every file that counts as a reader: the program, the
    benchmarks and the examples (the tests do not)."""
    paths = [
        *SRC.rglob("*.py"),
        *(ROOT / "benchmarks").rglob("*.py"),
        *(ROOT / "examples").glob("*.py"),
    ]
    return {path: path.read_text() for path in sorted(set(paths))}


def _without_all(source: str) -> str:
    """``source`` with its ``__all__`` assignments blanked: an export
    list names a module-level name, never reads a method."""
    lines = source.splitlines()
    for node in ast.parse(source).body:
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
            else []
        )
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            lines[node.lineno - 1:node.end_lineno] = [""] * (
                node.end_lineno - node.lineno + 1
            )
    return "\n".join(lines)


def _checked_in_tests(kept: dict, defined: set, key) -> None:
    tests = [
        path.read_text() for path in sorted(Path(__file__).parent.glob("*.py"))
        if path.name != Path(__file__).name
    ]
    for name in kept:
        assert name in defined, f"a KEPT_FOR_TESTS dict lists a deleted {name}"
        assert any(key(name).search(text) for text in tests), (
            f"{name} is kept for the tests, but no test reads it"
        )


def test_every_public_name_is_read():
    """Every top-level public ``def`` or ``class`` under ``src/repro``
    and ``benchmarks/lib`` is read by another module, by a benchmark,
    by an example, or more than once by its own module — or it is in
    :data:`KEPT_FOR_TESTS`, and a test reads it."""
    modules, readers = _program_modules(), _readers()
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
            unread.append(f"{path.relative_to(ROOT)}: {node.name}")
    assert not unread, (
        "public names nothing reads — delete them, or list a paper "
        f"definition tests compare against in KEPT_FOR_TESTS: {unread}"
    )
    _checked_in_tests(KEPT_FOR_TESTS, defined, _word)


def test_every_public_method_is_read():
    """Every public method or property of a top-level class under
    ``src/repro`` and ``benchmarks/lib`` is read as ``.name`` by its
    own module or by another reader (program, benchmark, example), or
    named as a quoted string by one (``getattr`` dispatch, the e2e
    layer wrappers that patch methods by name; an ``__all__`` entry is
    not a read) — or it is in :data:`METHODS_KEPT_FOR_TESTS`, and a
    test reads it."""
    modules, readers = _program_modules(), _readers()
    unexported = {path: _without_all(text) for path, text in readers.items()}
    defined, unread = set(), []
    for path, source in modules.items():
        for node in ast.parse(source).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            for member in node.body:
                if not isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) or member.name.startswith("_"):
                    continue
                qualified = f"{node.name}.{member.name}"
                defined.add(qualified)
                attribute = _attribute(member.name)
                quoted = re.compile(rf"[\"']{re.escape(member.name)}[\"']")
                if qualified in METHODS_KEPT_FOR_TESTS or any(
                    attribute.search(text) for text in (source, *readers.values())
                ) or any(quoted.search(text) for text in unexported.values()):
                    continue
                unread.append(f"{path.relative_to(ROOT)}: {qualified}")
    assert not unread, (
        "public methods nothing reads — delete them, or list a test "
        f"oracle in METHODS_KEPT_FOR_TESTS: {unread}"
    )
    _checked_in_tests(
        METHODS_KEPT_FOR_TESTS, defined,
        lambda qualified: _attribute(qualified.rsplit(".", 1)[1]),
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
    assert packages | {TOP_LEVEL, LIB_ROW} == set(CEILINGS)


@pytest.mark.parametrize("package", list(CEILINGS))
def test_package_within_budget(package):
    count = package_code_lines(package)
    assert count <= CEILINGS[package], (
        f"{_row(package)}: {count} code lines > ceiling "
        f"{CEILINGS[package]} — simplify, or raise the ceiling on purpose"
    )


@pytest.mark.parametrize("package", list(CEILINGS))
def test_ceilings_are_tight(package):
    """The ratchet cannot go slack: a PR that removes code lowers the
    ceiling in the same diff, or the next one grows into the gap
    unseen."""
    count = package_code_lines(package)
    assert CEILINGS[package] - count <= SLACK, (
        f"{_row(package)}: {count} code lines sit more than {SLACK} "
        f"under the ceiling {CEILINGS[package]} — lower it to "
        f"{-(-count // 10) * 10}"
    )


if __name__ == "__main__":
    # ROADMAP's tracked number, for the CI log.
    counts = {package: package_code_lines(package) for package in CEILINGS}
    for package, count in counts.items():
        print(f"{_row(package):<28}{count:>6} /{CEILINGS[package]:>5}")
    src = sum(count for package, count in counts.items() if package != LIB_ROW)
    print(f"{'src/repro/':<28}{src:>6}")
    print(f"{'src/repro/ + ' + LIB_ROW:<28}{src + counts[LIB_ROW]:>6}")
