import sys
from pathlib import Path

# The helpers import ``repro`` from the repository's source tree.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
