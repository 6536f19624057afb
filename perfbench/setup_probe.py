"""Time-to-ready probe, run as its own process by ``run.py``.

    python3 perfbench/setup_probe.py <workload> <workdir>

Imports the library and runs one smoke-size cold phase of the workload
(lazy imports such as scipy, first-call costs), then exits.  The parent
times the whole process, interpreter start included.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import warm_up  # noqa: E402

if __name__ == "__main__":
    warm_up(sys.argv[1], Path(sys.argv[2]))
