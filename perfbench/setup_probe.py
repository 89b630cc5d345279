"""Set-up probe, run in a fresh interpreter by run.py.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports domd, loads the workload's config and assembles its first
experiment (graph, weights, sigma2, target path, ensemble), then prints
"assembled".  run.py times it from process start to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402

workloads.assemble_first(sys.argv[1], int(sys.argv[2]))
print("assembled", flush=True)
