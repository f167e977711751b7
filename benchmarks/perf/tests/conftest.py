"""Make the harness (and the checkout's ``repro``) importable for its self-tests.

Run with ``python -m pytest benchmarks/perf/tests -q``; not part of tier-1.
"""

import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERF_DIR))
sys.path.insert(0, str(PERF_DIR.parents[1] / "src"))
