#!/usr/bin/env python3
"""Reproduce the full threshold / depth table for the (0,n) family.

Computes all four thresholds for n = 1..4, 6, the ideal dephasing depths
(perfect input coherence) and the depths of a set of representative measured
coherences, then prints the table and writes JSON/CSV next to it.

Usage:
    python scripts/run_threshold_table.py [--out-dir OUT] [--ns N ...]
"""

import argparse
import csv
import json
import time
from pathlib import Path

from qngcoh.fock import FockPair
from qngcoh.thresholds import KIND_NAMES, ORDERED_KINDS, ThresholdKind, certify

MEASURED = {1: 0.95, 2: 0.917, 3: 0.81, 4: 0.84, 6: 0.80}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("table_out"))
    parser.add_argument("--ns", type=int, nargs="+", default=[1, 2, 3, 4, 6])
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    rows = {}
    t0 = time.monotonic()
    for n in args.ns:
        pair = FockPair(0, n)
        ideal = certify(pair, 1.0, 0.0)
        entry = {KIND_NAMES[kind]: ideal.thresholds[kind] for kind in ORDERED_KINDS}
        entry["depth_ideal"] = ideal.depths[ThresholdKind.GENUINE_N]
        if n in MEASURED:
            report = certify(pair, MEASURED[n], 0.0)
            entry["measured"] = report.measured
            entry["depth_measured"] = report.depths[ThresholdKind.GENUINE_N]
        rows[n] = entry
        print(f"(0,{n}) done after {time.monotonic() - t0:.1f}s")

    header = ["n", "classical", "gaussian-min", "intrinsic", "genuine",
              "depth_ideal", "measured", "depth_measured"]
    print()
    print("  ".join(f"{h:>14}" for h in header))
    for n, entry in rows.items():
        cells = [f"{n:>14}"]
        for key in header[1:]:
            val = entry.get(key)
            cells.append(f"{val:>14.4f}" if val is not None else " " * 14)
        print("  ".join(cells))

    (args.out_dir / "threshold_table.json").write_text(
        json.dumps(rows, indent=1, sort_keys=True))
    with open(args.out_dir / "threshold_table.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for n, entry in rows.items():
            writer.writerow([n] + [entry.get(k, "") for k in header[1:]])
    print(f"\nwrote {args.out_dir}/threshold_table.{{json,csv}}")


if __name__ == "__main__":
    main()
