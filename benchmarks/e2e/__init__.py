"""The repo's end-to-end benchmark: five CDSS workloads, wall-clock truth.

Run with ``python -m benchmarks.e2e`` from the repository root (see
``README.md`` in this directory).  The package drives only the public
``repro`` API and is the instrument every performance claim in this repo is
measured with.
"""

import sys
from pathlib import Path

#: Root of the checkout this benchmark lives in.
ROOT = Path(__file__).resolve().parents[2]

# The benchmark measures the sources of its own checkout, never an installed
# copy, and must work without PYTHONPATH (the driver runs a bare command).
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
