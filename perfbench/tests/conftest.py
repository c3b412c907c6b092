import sys
from pathlib import Path

# The benchmark's modules import each other as top-level names, the way
# they do when perfbench/run.py is started as a script.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
