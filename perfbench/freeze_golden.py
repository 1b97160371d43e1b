"""Freeze the default seed's outputs into golden.json.

Usage: python3 perfbench/freeze_golden.py

Run this only when an output is meant to change: every default-seed run
of the benchmark is compared against the frozen file.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as wl


def main() -> int:
    frozen = {}
    for workload in wl.WORKLOADS:
        out = run.run_workload(workload, wl.DEFAULT_SEED, 0, False, check_golden=False)
        if not out["result"]["correct"]:
            print("\n".join(out["lines"]), file=sys.stderr)
            return 1
        frozen[workload] = {"inputs": wl.make_inputs(workload, wl.DEFAULT_SEED),
                            "outputs": out["passes"][0]["values"]}
    wl.GOLDEN.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
