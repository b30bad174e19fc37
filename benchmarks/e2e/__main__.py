"""Entry point: ``python -m benchmarks.e2e`` or ``python3 benchmarks/e2e/__main__.py``."""

import sys
from pathlib import Path

if not __package__:
    # Run by path (as BENCHMARK.json's command does): make the package importable.
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e.harness import main

if __name__ == "__main__":
    raise SystemExit(main())
