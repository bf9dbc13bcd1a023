"""Record the per-case BER error counts that every benchmark run is checked against.

    python3 perfbench/record_reference.py [workload ...]

Runs every case of each Monte Carlo workload's pool once and stores its
error count and standard error (in bit errors) in ``reference.json``,
replacing the entries of the named workloads (default: all).  Record from
the code whose output later changes are held to; runs count a point whose
error count differs from its entry by more than that standard error as
failed.
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS threads before numpy loads
import workloads as wls


def record(name: str, gmud) -> dict:
    wl = wls.MC_WORKLOADS[name]
    points = []
    for i in range(wl.pool):
        point = gmud.simulation.run_ber(gmud.simulation.SimConfig(**wl.case(i)), jobs=1).points[0]
        points.append([point.errors, round(point.se * point.bits, 6)])
    return {
        "pool": wl.pool,
        "realizations": wl.realizations,
        "symbols": wls.SYMBOLS,
        "seed_base": wl.seed_base,
        "source_sha256": run.source_sha256(),
        "points": points,
    }


def main(names) -> int:
    gmud = run.import_gmud()
    path = wls.REFERENCE_FILE
    data = json.loads(path.read_text()) if path.exists() else {}
    for name in names or wls.MC_WORKLOADS:
        data[name] = record(name, gmud)
        print(f"{name}: {len(data[name]['points'])} cases")
    path.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
