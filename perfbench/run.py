#!/usr/bin/env python3
"""qngcoh benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the library from ``src/``.  The
workloads, their inputs and their output checks are in ``workloads.py``.

Every run starts fresh child processes with BLAS pinned to one thread and
``QNG_CACHE_DIR`` removed.  With ``--trace 0`` the first ``SETUP_RUNS - 1``
children only set up; the last one sets up and runs the timed phase.  With
``--trace 1`` one child sets up, wraps every layer function (``tracer.py``)
and runs the timed phase.  The timed phase repeats passes over the
workload's operations until ``--seconds`` have elapsed.

End-to-end metrics (``--trace 0``):

* ``wall_s``: median wall time of one pass, failed operations included;
* ``op_p50_s``: median latency of the operations that returned
  (``attempted`` gives the count);
* ``success_rate``: share of attempted operations that neither raised nor
  failed their output check (``failed`` counts the rest);
* ``setup_s``: median over the children of the time from before
  ``import qngcoh`` to the first timed operation (inputs and warm-up);
* ``peak_rss_mb``: peak resident memory of the timed child.

Per-layer metrics (``--trace 1``) are totals over the timed phase divided by
the number of passes.  ``traced.wall_s`` is the traced run's ``wall_s``; the
tracing overhead is its excess over the untraced ``wall_s``.

A line before the result records the environment: thread settings, core
count, Python, numpy, scipy and BLAS versions, the git sha (or, outside a
git checkout, a hash of ``src/``), failures by exception type and any layer
function that is absent.  The run exits with code 2 and prints no result
when ``src/qngcoh`` is missing, a child fails, or no operation returned.
"""

import time

START = time.perf_counter()   # a child's set-up clock starts before numpy and qngcoh load

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("threshold-cold", "ramsey-decay", "mc-soundness")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: set-ups measured per untraced run; setup_s is their median
SETUP_RUNS = 3
#: a run ends, children included, within this many seconds
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "op_p50_s": "s", "success_rate": "ratio",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


# ---------------------------------------------------------------------------
# child: set up, then run the timed phase
# ---------------------------------------------------------------------------


def timed_phase(ops, seconds: float) -> dict:
    passes, latencies, wrong, crashes = [], [], [], []
    failures: dict[str, int] = {}
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for op in ops:
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                failed += 1
                name = type(exc).__name__
                failures[name] = failures.get(name, 0) + 1
                # the library's own error types are declared failure modes
                if not type(exc).__module__.startswith("qngcoh"):
                    crashes.append(f"{op.label}: {name}: {exc}")
                continue
            latencies.append(time.perf_counter() - t0)
            problem = op.check(out)
            if problem is not None:
                failed += 1
                wrong.append(f"{op.label}: {problem}")
        passes.append(time.perf_counter() - pass_start)
        if time.perf_counter() - begin >= seconds:
            break
    if not latencies:
        raise BenchError(f"no operation returned; failures {failures}, {crashes[:3]}")
    return {"passes": len(passes), "wall_s": statistics.median(passes),
            "op_p50_s": statistics.median(latencies), "attempted": attempted,
            "failed": failed, "failures": failures,
            "problems": (wrong + crashes)[:20],
            "correct": not wrong and not crashes}


def library_versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def child(args) -> dict:
    if any(os.environ.get(var) != "1" for var in THREAD_VARS):
        raise BenchError(f"child needs {', '.join(THREAD_VARS)} set to 1")
    if "QNG_CACHE_DIR" in os.environ:
        raise BenchError("child must run without QNG_CACHE_DIR")
    import workloads
    import qngcoh
    if Path(qngcoh.__file__).resolve().parent != SRC / "qngcoh":
        raise BenchError(f"imported qngcoh from {qngcoh.__file__}, not from {SRC}")

    ops = workloads.prepare(args.workload, args.seed, smoke=args.smoke)
    setup_s = time.perf_counter() - START
    if args.role == "setup":
        return {"setup_s": setup_s}

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    out = timed_phase(ops, args.seconds)
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    out["versions"] = library_versions()
    if tracer is not None:
        out["layers"] = tracer.metrics(per=out["passes"])
        out["absent"] = tracer.absent
    return out


# ---------------------------------------------------------------------------
# parent: orchestrate children, print the result
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QNG_CACHE_DIR"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args, role: str, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role] + (["--smoke"] if args.smoke else [])
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} child ran past the {DEADLINE_S:.0f} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{role} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def parent(args) -> dict:
    if not (SRC / "qngcoh" / "__init__.py").is_file():
        raise BenchError(f"no qngcoh sources under {SRC}; run from a repository checkout")
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        setups = [run_child(args, "setup", deadline)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
    main = run_child(args, "main", deadline)
    setups.append(main["setup_s"])

    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "threads": {var: "1" for var in THREAD_VARS},
           "nproc": len(os.sched_getaffinity(0)), **main["versions"],
           "git_sha": git_sha(), "src_sha256": src_sha256(),
           "passes": main["passes"], "failures": main["failures"],
           "problems": main["problems"], "setup_runs_s": setups}
    if args.trace:
        env["absent_layers"] = main["absent"]
        values = {**main["layers"], "traced.wall_s": main["wall_s"]}
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in values.items()}
    else:
        values = {"wall_s": main["wall_s"], "op_p50_s": main["op_p50_s"],
                  "success_rate": 1.0 - main["failed"] / main["attempted"],
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": main["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"bench_env": env}))
    return {"correct": main["correct"], "attempted": main["attempted"],
            "failed": main["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--role", choices=("setup", "main"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    try:
        result = child(args) if args.role else parent(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
