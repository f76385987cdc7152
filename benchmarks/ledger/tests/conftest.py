"""Self-tests of the ledger; run with
``PYTHONPATH=src python -m pytest benchmarks/ledger/tests`` (outside
tier-1's testpaths; ``benchmarks/conftest.py`` above imports ``repro``)."""

import os
import sys

LEDGER = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(os.path.dirname(LEDGER))
sys.path[:0] = [os.path.join(REPO, "src"), LEDGER]
