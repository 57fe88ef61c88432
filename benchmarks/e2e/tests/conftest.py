"""Make the harness modules importable; these tests are run by explicit
path (``python -m pytest benchmarks/e2e/tests``), not by tier-1."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent, HERE.parents[2] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
