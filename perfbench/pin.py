"""Re-pin ``fingerprints.json``: every cell's output at the default seed.

    python3 perfbench/pin.py

Run only for a deliberate change to the simulated model, and name the
change where the new pins are committed.
"""

from __future__ import annotations

import json
import os
import sys

import ledger
import run
import worker


def format_pins(pins: dict) -> str:
    """JSON with one line per cell, so a re-pin diffs cell by cell."""
    blocks = []
    for workload, cells in pins.items():
        lines = ",\n".join(f"  {json.dumps(cell)}: {json.dumps(values)}"
                            for cell, values in cells.items())
        blocks.append(f" {json.dumps(workload)}: {{\n{lines}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    sys.path.insert(0, worker.SRC)
    pins = {}
    for workload in run.WORKLOADS:
        record = worker.run_pass(workload, ledger.DEFAULT_SEED)
        errors = [cell["id"] for cell in record["cells"] if "error" in cell]
        if errors:
            print(f"{workload}: cells failed: {errors}", file=sys.stderr)
            return 1
        pins[workload] = {cell["id"]: ledger.fingerprint(cell["counters"])
                          for cell in record["cells"]}
    path = os.path.join(worker.HERE, "fingerprints.json")
    with open(path, "w") as handle:
        handle.write(format_pins(pins))
    print(f"pinned {sum(map(len, pins.values()))} cells to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
