"""Launcher of the end-to-end benchmark: ``python3 benchmarks/e2e/run.py``.

Makes the repository's ``src/`` tree and this package importable from a
plain checkout (no install, no PYTHONPATH), then hands over to
:mod:`e2e.cli`.  See README.md for the two ways to call it.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    src = here.parents[1] / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"run.py: the program under test is missing ({src}/repro)")
    # Import this directory as the package ``e2e``, not as loose
    # modules: ``trace.py`` would otherwise shadow the standard library.
    sys.path[0] = str(here.parent)
    sys.path.insert(0, str(src))
    from e2e.cli import main

    sys.exit(main())
