"""Set-up probe: start the interpreter, import kleinian, build one workload's groups.

``run.py`` times this script as a whole process to measure ``setup_s``.
Usage: python3 perfbench/ready.py WORKLOAD
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].build_groups()
