#!/usr/bin/env python3
"""Record the reference outputs that the benchmark checks its operations against.

    python3 perfbench/record_reference.py

Computes every threshold of the threshold-cold and mc-soundness pools, and
every ramsey-decay fringe contrast at ``workloads.REFERENCE_SEED``, with BLAS
pinned to one thread as in the benchmark.  A fringe that raises is stored as
null.  Writes ``perfbench/reference.json``; rerun it only when an output is
meant to change.
"""

import os
import sys

sys.dont_write_bytecode = True

from run import SRC, THREAD_VARS, child_env, src_sha256  # noqa: E402

if any(os.environ.get(var) != "1" for var in THREAD_VARS) or "QNG_CACHE_DIR" in os.environ:
    os.execve(sys.executable, [sys.executable, *sys.argv], child_env())

import json  # noqa: E402

sys.path.insert(0, str(SRC))
import workloads  # noqa: E402
from qngcoh import ramsey, thresholds  # noqa: E402
from qngcoh.fock import FockPair  # noqa: E402


def main() -> None:
    pairs = sorted(set(workloads.THRESHOLD_PAIRS) | set(workloads.MC_PAIRS))
    values = {}
    for m, n in pairs:
        for kind in thresholds.ORDERED_KINDS:
            value = thresholds.threshold(kind, FockPair(m, n)).value
            values[workloads.threshold_key(kind, m, n)] = value

    ops = workloads.ramsey_decay_ops(
        workloads.inputs("ramsey-decay", workloads.REFERENCE_SEED),
        {"thresholds": values, "ramsey": {}}, workloads.REFERENCE_SEED)
    contrasts = {}
    for op in ops:
        try:
            contrasts[op.label] = op.run().contrast
        except ramsey.TruncationError:
            contrasts[op.label] = None

    blob = {"src_sha256": src_sha256(), "reference_seed": workloads.REFERENCE_SEED,
            "thresholds": values, "ramsey": contrasts}
    workloads.REFERENCE_PATH.write_text(json.dumps(blob, indent=1) + "\n")
    failed = sum(c is None for c in contrasts.values())
    print(f"{len(values)} thresholds, {len(contrasts)} fringes ({failed} raise) "
          f"-> {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
