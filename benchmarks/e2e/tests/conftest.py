"""Self-tests of the end-to-end benchmark (not part of tier-1's testpaths).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
