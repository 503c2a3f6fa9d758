"""Self-test of the benchmark at reduced size.

    python3 -m pytest perfbench -q

Runs every workload through ``run.py`` in smoke mode (a few small inputs,
one pass), untraced and traced.  Checks that every metric is printed with
its unit as ``BENCHMARK.json`` declares it, that the same seed gives the same
inputs and another seed different ones, that each layer's call count is
nonzero exactly on the workloads that work that layer, and that the
benchmark fails without a result when the library sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: layers each workload's timed phase calls; every other layer must see 0 calls
WORKS = {
    "threshold-cold": {"fock.sdf_amplitude_raw", "fock.build_gaussian_matrix",
                       "optimize.maximize", "thresholds.certify"},
    "ramsey-decay": {"channels.thermalize_matrix", "ramsey.run_ramsey",
                     "ramsey.fit_fringe"},
    "mc-soundness": {"fock.sdf_amplitude_raw", "mc.mc_verify"},
}


def bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stderr
    return json.loads(lines[-2])["bench_env"], json.loads(lines[-1])


def units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_matches_code():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS) == list(WORKS)
    assert units("end_to_end") == run.END_TO_END_UNITS
    layer_names = [f"{key}.{metric}" for key, (metrics, _) in tracer.LAYERS.items()
                   for metric in metrics]
    assert units("per_layer") == {name: run.layer_unit(name)
                                  for name in layer_names + ["traced.wall_s"]}


def test_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.inputs(name, 1) == workloads.inputs(name, 1)
        assert workloads.inputs(name, 1) != workloads.inputs(name, 2)


@pytest.mark.parametrize("workload", list(WORKS))
def test_end_to_end_metrics(workload):
    env, result = bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1, env["problems"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert len(env["setup_runs_s"]) == run.SETUP_RUNS
    assert env["threads"] == {var: "1" for var in run.THREAD_VARS}
    for key in ("nproc", "python", "numpy", "scipy", "blas", "src_sha256"):
        assert env[key]


@pytest.mark.parametrize("workload", list(WORKS))
def test_layer_calls(workload):
    env, result = bench(workload, trace=1)
    assert result["correct"], env["problems"]
    assert env["absent_layers"] == []
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("per_layer")
    for layer in tracer.LAYERS:
        calls = result["metrics"][f"{layer}.calls"]["value"]
        assert (calls > 0) == (layer in WORKS[workload]), (layer, calls)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ramsey-decay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
