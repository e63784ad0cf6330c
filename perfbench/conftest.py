import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for sub in ("src", "tests"):
    if str(ROOT / sub) not in sys.path:
        sys.path.insert(0, str(ROOT / sub))
