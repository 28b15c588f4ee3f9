"""The experiment-only code of the figure benchmarks.

Nothing under ``src/repro`` imports this package; it holds what the
paper's §5 evaluation runs *around* the system:

- :mod:`lib.harness` — the cached figure pipeline (``Pipeline``,
  ``get_pipeline``), ``evaluate`` against the unsampled reference and
  the standard sweep axes;
- :mod:`lib.euler` and :mod:`lib.sketches` — the comparison systems:
  the Euler-histogram face-sampling baseline (§5.1.2) and the FM-sketch
  distinct counter of the related work;
- :mod:`lib.axis_aligned` — §3.1.1's dead-space strawman (grid and
  kd-tree decompositions of space);
- :mod:`lib.energy` — §3.1's first-order radio energy argument;
- :mod:`lib.tables` and :mod:`lib.figplot` — plain-text tables and
  dependency-free SVG charts of the figure series.

Bench scripts import it from their own directory (``from lib.harness
import ...``, as they import ``_common``); the tests find it through
``pythonpath = ["benchmarks"]`` in ``pyproject.toml``.
"""
