"""Regenerate perfbench/reference.json from the current domd.

    python3 perfbench/make_reference.py

Runs every workload once at the reference seed (experiment.seed's default,
1) with one BLAS thread and stores the values its output checks compare.
Only regenerate when a change is meant to alter results.
"""

import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SEED = 1


def main():
    out = {"seed": SEED,
           "tolerance": f"relative {workloads.REL_TOL:g} plus absolute {workloads.ABS_TOL:g}",
           "workloads": {}}
    for name, wl in workloads.WORKLOADS.items():
        out_dir = ROOT / ".perfbench_out" / "reference" / name
        out_dir.mkdir(parents=True, exist_ok=True)
        outcome = wl.check(wl.run(SEED, out_dir), out_dir)
        if outcome.problems:
            sys.exit(f"{name}: {outcome.problems}")
        out["workloads"][name] = outcome.values
    workloads.REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
