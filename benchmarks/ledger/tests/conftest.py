"""Self-tests of the ledger: ``python -m pytest benchmarks/ledger/tests -q``.

Not part of tier-1 (``testpaths`` stays ``tests``); they test the
benchmark, not the program.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
