#!/usr/bin/env python3
"""Every threshold of every admitted pair, written so that two trees compare bit for bit.

For each pair (m, n) with 0 <= m < n <= --max-n (55 pairs at the default 10)
and each of the four threshold kinds, one entry records the value and the
argmax as ``float.hex``, the Fock input, the boxes searched (``[|xi| bound,
|alpha| bound]`` per run), ``at_cap``, ``converged`` and the truncation
recheck values (``float.hex``).  Every threshold is computed cold, in this
process.  The classical kind is a closed form and has no boxes or flags.

With ``--against FILE`` the entries are compared with an earlier output:
the script prints how many are identical and exits 1 when any entry differs
or is missing on either side.

Usage:
    python scripts/all_pairs.py [--out-dir OUT] [--max-n N] [--against FILE]
"""

import argparse
import json
import sys
import time
from pathlib import Path

from qngcoh.fock import FockPair
from qngcoh.thresholds import KIND_NAMES, ORDERED_KINDS, threshold

#: largest Fock index every kind admits
MAX_N = 10


def entry(kind, pair: FockPair) -> dict:
    res = threshold(kind, pair)
    trace = res.diagnostics
    a = res.argmax
    return {"value": float.hex(res.value),
            "argmax": [float.hex(x) for x in (a.xi_mag, a.xi_phase, a.alpha_mag, a.alpha_phase)],
            "fock_index": res.fock_index,
            "boxes": trace.get("magnitude_bounds"),
            "at_cap": trace.get("at_cap"),
            "converged": trace.get("converged"),
            "recheck": [float.hex(v) for v in trace["truncation_recheck"]["values"]]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out-dir", type=Path, default=Path("all_pairs_out"))
    parser.add_argument("--max-n", type=int, default=MAX_N, choices=range(1, MAX_N + 1),
                        metavar=f"1..{MAX_N}")
    parser.add_argument("--against", type=Path, default=None,
                        help="an earlier all_pairs.json to compare the entries with")
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.monotonic()
    entries = {f"{KIND_NAMES[kind]}/{m},{n}": entry(kind, FockPair(m, n))
               for n in range(1, args.max_n + 1) for m in range(n) for kind in ORDERED_KINDS}
    seconds = time.monotonic() - t0
    out = args.out_dir / "all_pairs.json"
    out.write_text(json.dumps({"max_n": args.max_n, "entries": entries}, indent=1, sort_keys=True))
    print(f"{len(entries)} entries in {seconds:.1f} s; wrote {out}")

    if args.against is None:
        return 0
    other = json.loads(args.against.read_text())["entries"]
    same = sum(other.get(key) == value for key, value in entries.items())
    print(f"{same} of {len(entries)} entries identical to {args.against}")
    differ = sorted(key for key in entries.keys() | other.keys()
                    if entries.get(key) != other.get(key))
    for key in differ:
        print(f"  {key}: {other.get(key)} -> {entries.get(key)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
