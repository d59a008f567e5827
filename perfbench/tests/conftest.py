import sys
from pathlib import Path

# the harness modules are plain scripts in perfbench/, imported by name
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
