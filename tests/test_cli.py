import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
import yaml
from click.testing import CliRunner

import qngcoh.mc
import qngcoh.thresholds
from qngcoh.cli import main
from qngcoh.thresholds import ThresholdResult, ThresholdKind, clear_threshold_cache
from qngcoh.fock import FockPair, GaussianParams, TruncationRiskError
from qngcoh.optimize import NonConvergenceError

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
SCHEMA_DIR = SRC_DIR / "qngcoh" / "schemas"
REFERENCE = SRC_DIR.parent / "perfbench" / "reference.json"


def validate(payload: dict, schema_name: str) -> None:
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.Draft7Validator(schema).validate(payload)


@pytest.fixture
def runner():
    return CliRunner()


class TestThresholdsCommand:
    def test_classical_table(self, runner, tmp_path):
        out = tmp_path / "table.json"
        result = runner.invoke(main, ["thresholds", "--pair", "0,1",
                                      "--pair", "0,2", "--kind", "classical",
                                      "--out", str(out)])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        validate(payload, "threshold_table.schema.json")
        assert payload["results"]["0,1"]["classical"]["value"] == pytest.approx(
            0.8578, abs=1e-4)
        assert payload["manifest"]["command"] == "thresholds"

    def test_searched_kinds_report_at_cap(self, runner, tmp_path, monkeypatch):
        # gaussian-min of (9,10) ends on the |alpha| cap, and its genuine
        # search is made to end with its two best starts apart: the table
        # shows both flags, and the status does not change
        search_pair = qngcoh.thresholds._search_pair

        def genuine_apart(pair):
            entries = search_pair(pair)
            if (pair.m, pair.n) == (9, 10):
                trace = entries[(ThresholdKind.GENUINE_N, 9, 10)].diagnostics
                trace.update(runner_up_value=trace["best_value"] - 0.05, converged=False)
            return entries

        monkeypatch.setattr(qngcoh.thresholds, "_search_pair", genuine_apart)
        clear_threshold_cache()
        out = tmp_path / "table.json"
        try:
            result = runner.invoke(main, ["thresholds", "--pair", "9,10", "--pair", "0,2",
                                          "--out", str(out)])
        finally:
            clear_threshold_cache()   # the altered entry leaves the memo
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        validate(payload, "threshold_table.schema.json")
        row = payload["results"]["9,10"]
        assert "at_cap" not in row["classical"] and "converged" not in row["classical"]
        assert row["gaussian-min"]["at_cap"] is True
        assert row["intrinsic"]["at_cap"] is False
        assert row["genuine"]["at_cap"] is False
        assert row["genuine"]["converged"] is False
        assert {entry["status"] for entry in row.values()} == {"ok"}
        assert {payload["results"]["0,2"][kind]["converged"]
                for kind in ("gaussian-min", "intrinsic", "genuine")} == {True}

    def test_empty_pairs_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["thresholds", "--out",
                                      str(tmp_path / "t.json")])
        assert result.exit_code == 1
        assert "usage error" in result.output

    def test_bad_pair_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["thresholds", "--pair", "banana",
                                      "--out", str(tmp_path / "t.json")])
        assert result.exit_code == 1

    def test_out_of_range_pair_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["thresholds", "--pair", "0,12",
                                      "--kind", "genuine",
                                      "--out", str(tmp_path / "t.json")])
        assert result.exit_code == 1
        assert "usage error: validated for max(m,n) <= 10" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_reproducible_output(self, runner, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            runner.invoke(main, ["thresholds", "--pair", "0,1", "--kind",
                                 "classical", "--out", str(out)])
            payload = json.loads(out.read_text())
            payload["manifest"].pop("wall_time_s")
            outs.append(payload)
        assert outs[0] == outs[1]


class TestCertifyCommand:
    def test_published_row_04(self, runner, tmp_path):
        out = tmp_path / "cert.json"
        result = runner.invoke(main, ["certify", "--pair", "0,4",
                                      "--measured", "0.84",
                                      "--uncertainty", "0.04",
                                      "--out", str(out)])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        validate(payload, "certification.schema.json")
        genuine = payload["kinds"]["genuine"]
        assert genuine["verdict"] is True
        assert genuine["depth"] == pytest.approx(0.01, abs=0.01)

    def test_marginal_row_06(self, runner, tmp_path):
        out = tmp_path / "cert.json"
        result = runner.invoke(main, ["certify", "--pair", "0,6",
                                      "--measured", "0.80",
                                      "--uncertainty", "0.05",
                                      "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["kinds"]["genuine"]["marginal"] is True
        assert result.exit_code in (0, 3)  # margin straddles zero

    def test_domain_error(self, runner, tmp_path):
        result = runner.invoke(main, ["certify", "--pair", "0,1",
                                      "--measured", "1.5",
                                      "--out", str(tmp_path / "c.json")])
        assert result.exit_code == 1
        assert "domain error" in result.output

    @pytest.mark.parametrize("uncertainty", ["nan", "inf"])
    def test_non_finite_uncertainty_domain_error(self, runner, tmp_path, uncertainty):
        out = tmp_path / "c.json"
        result = runner.invoke(main, ["certify", "--pair", "0,2", "--measured", "0.9",
                                      "--uncertainty", uncertainty, "--out", str(out)])
        assert result.exit_code == 1
        assert "domain error: uncertainty must be non-negative and finite" in result.output
        assert not out.exists()

    def test_all_false_exit_code(self, runner, tmp_path):
        out = tmp_path / "cert.json"
        result = runner.invoke(main, ["certify", "--pair", "0,1",
                                      "--measured", "0.1",
                                      "--out", str(out)])
        assert result.exit_code == 3


class TestSimulateCommand:
    def test_ideal_scan(self, runner, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({
            "pairs": [[0, 2]], "delays": [0.0], "phases": 12, "seed": 1,
            "kind": "genuine", "noise": {"heating_rate": 3.2}}))
        out_dir = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--out", str(out_dir)])
        assert result.exit_code == 0
        payload = json.loads((out_dir / "summary.json").read_text())
        validate(payload, "simulation_summary.schema.json")
        params = payload["manifest"]["parameters"]
        assert (params["noise"], params["seed"]) == ({"heating_rate": 3.2}, 1)
        assert payload["scans"]["0,2"][0]["contrast"] == pytest.approx(
            1.0, abs=1e-6)
        fringes = (out_dir / "fringes_0_2.csv").read_text().splitlines()
        assert fringes[0] == "delay_s,phase_rad,p_excited"
        assert len(fringes) == 1 + 12
        depths = (out_dir / "depth_0_2.csv").read_text().splitlines()
        assert depths[0] == "delay_s,contrast,depth"

    def test_manifest_reports_truncation_used(self, runner, tmp_path):
        # the README scenario: its largest tail-bound truncation is 18 levels,
        # and its 8 contrasts match perfbench/reference.json within 1e-9
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({
            "pairs": [[0, 2], [0, 4]], "delays": [0.0, 0.004, 0.008, 0.012],
            "noise": {"initial_thermal_nbar": 0.07, "heating_rate": 3.2,
                      "dephasing_rate": 1.0},
            "phases": 16, "shots": None, "seed": 1, "kind": "genuine"}))
        out_dir = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--out", str(out_dir)])
        assert result.exit_code == 0
        payload = json.loads((out_dir / "summary.json").read_text())
        validate(payload, "simulation_summary.schema.json")
        assert payload["manifest"]["truncation_dim"] == 18
        want = {key: value for key, value in json.loads(REFERENCE.read_text())["ramsey"].items()
                if key.startswith("readme/exact/")}
        got = {f"readme/exact/{pair}/{i}": point["contrast"]
               for pair, points in payload["scans"].items() for i, point in enumerate(points)}
        assert len(want) == 8 and sorted(got) == sorted(want)
        for key, ref in want.items():
            assert abs(got[key] - ref) <= 1e-9, key

    def test_depth_ratio_04_vs_06(self, runner, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({
            "pairs": [[0, 4], [0, 6]], "delays": [0.0], "phases": 12,
            "seed": 1, "kind": "genuine"}))
        out_dir = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--out", str(out_dir)])
        assert result.exit_code == 0
        payload = json.loads((out_dir / "summary.json").read_text())
        d4 = payload["scans"]["0,4"][0]["depth"]
        d6 = payload["scans"]["0,6"][0]["depth"]
        assert d4 / d6 == pytest.approx(2.0, abs=0.6)

    def test_config_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({"delays": [0.0]}))
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert "config error" in result.output

    def test_failing_delay_identified(self, runner, tmp_path):
        # 20 phonons of heating at 0.05 s need more levels than the cap
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({
            "pair": [0, 1], "delays": [0.0, 0.05],
            "noise": {"heating_rate": 400.0}, "phases": 8, "seed": 1}))
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "0.05" in result.output

    @pytest.mark.parametrize("key, value, message", [
        ("phases", 2, "phases must be at least 3"),
        ("delays", [0.004, 0.0], "delays must be sorted ascending"),
        ("delays", [-0.01, 0.0], ">= 0 and finite"),
        ("phases", 3.9, "phases must be an integer, got 3.9"),
        ("phases", True, "phases must be an integer, got True"),
        ("shots", 2.5, "shots must be an integer, got 2.5"),
        ("delays", [], "delays must list at least one delay"),
        ("pairs", [[0, 2], [2, 0]], "pairs must be distinct, got [[0, 2], [0, 2]]")])
    def test_scan_shape_config_error(self, runner, tmp_path, key, value, message):
        # a scan no fringe can be fitted from is a bad config, found before
        # any delay is simulated
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({"pair": [0, 1], "delays": [0.0, 0.004],
                                       "phases": 8, key: value}))
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert "config error" in result.output and message in result.output

    @pytest.mark.parametrize("text", [
        None, "- 0.0\n- 0.004\n", "pairs: [[0]]\ndelays: [0.0]\n",
        "pairs: [[1, 4]]\ndelays: [0.0]\n", "pairs: [[0, 9]]\ndelays: [0.0]\n",
        "pair: [0, 1]\ndelays: [0.0]\nseed: -1\n",
        "pair: [9, 11]\ndelays: [0.0]\nkind: genuine\n",
        "pairs: [[0, 2.7]]\ndelays: [0.0]\n", "pair: [0, true]\ndelays: [0.0]\n",
        "pair: [0, 1]\ndelays: [0.0]\nseed: 1.9\n",
        "pair: [0, 1]\ndelays: [0.0]\nshots: .inf\n",
        "pair: [0, 1]\ndelays: [0.0]\nkind: 3\n", "pair: [0, 1]\ndelays: [0.0]\nkind: null\n",
        "pair: [0, 1]\ndelays: [0.0, true]\n",
        "pair: [0, 1]\ndelays: [0.0]\nnoise: {heating_rate: true}\n",
        "pair: [0, 1]\ndelays: [0.0]\nnoise: {dephasing_rate: '1.0'}\n",
        "pair: [0, 1]\ndelays: [0.0]\nnoise: []\n", "pair: [0, 1]\ndelays: []\n",
        "pairs: [[0, 2], [2, 0]]\ndelays: [0.0]\n",
        "pair: [20, 21]\ndelays: [0.0]\nkind: classical\n"],
        ids=["missing-file", "top-level-list", "one-index-pair", "unsupported-delta",
             "unsupported-ladder", "negative-seed", "unvalidated-threshold",
             "fractional-index", "boolean-index", "fractional-seed", "infinite-shots",
             "numeric-kind", "null-kind", "boolean-delay", "boolean-noise", "string-noise",
             "list-noise", "no-delays", "repeated-pair", "classical-out-of-range"])
    def test_unreadable_config_error(self, runner, tmp_path, text):
        # read as a config error on one line, not truncated to an integer and
        # not a traceback
        cfg = tmp_path / "cfg.yaml"
        if text is not None:
            cfg.write_text(text)
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert result.stderr.startswith("config error: ") and result.stderr.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["dephasing_rate", "heating_rate"])
    def test_nan_noise_config_error(self, runner, tmp_path, key):
        # a NaN rate used to run and report contrast 0.0 at a nonzero delay
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"pair: [0, 1]\ndelays: [0.0, 0.004]\nnoise: {{{key}: .nan}}\n")
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert f"config error: {key} must be finite" in result.output
        assert not (tmp_path / "o").exists()

    def test_unknown_noise_key_rejected(self, runner, tmp_path):
        # the noise block takes the four NoiseConfig fields and nothing else:
        # no electronic-coherence, shelving or detuning knobs
        cfg = tmp_path / "cfg.yaml"
        for key in ("bogus", "electronic_coherence_time", "pulse_duration",
                    "shelving_contrast_loss", "delay_detuning"):
            cfg.write_text(yaml.safe_dump({
                "pair": [0, 1], "delays": [0.0], "noise": {key: 1.0}}))
            result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                          "--out", str(tmp_path / "o")])
            assert result.exit_code == 1
            assert f"config error: unknown noise keys: ['{key}']" in result.output

    @pytest.mark.parametrize("shots", [0, -5])
    def test_non_positive_shots_config_error(self, runner, tmp_path, shots):
        # null is exact readout; zero or negative shots is a bad config, not
        # exact readout and not a simulation error
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({"pair": [0, 1], "delays": [0.0],
                                       "shots": shots}))
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert "config error: shots must be positive" in result.output
        assert not (tmp_path / "o").exists()


class TestMcVerifyCommand:
    def test_sound_threshold(self, runner, tmp_path):
        out = tmp_path / "mc.json"
        result = runner.invoke(main, ["mc-verify", "--kind", "classical",
                                      "--pair", "0,1", "--samples", "2000",
                                      "--seed", "7", "--out", str(out)])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        validate(payload, "mc_report.schema.json")
        assert payload["violations"] == 0

    def test_violations_exit_code(self, runner, tmp_path, monkeypatch):
        # force an artificially low threshold to exercise the blocker path
        def fake_threshold(kind, pair):
            return ThresholdResult(kind=ThresholdKind.CLASSICAL,
                                   pair=FockPair(0, 1), value=0.5,
                                   argmax=GaussianParams())

        monkeypatch.setattr(qngcoh.mc, "threshold", fake_threshold)
        result = runner.invoke(main, ["mc-verify", "--kind", "classical",
                                      "--pair", "0,1", "--samples", "2000",
                                      "--seed", "7",
                                      "--out", str(tmp_path / "mc.json")])
        assert result.exit_code == 4
        assert "SOUNDNESS FAILURE" in result.output

    def test_sample_floor_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["mc-verify", "--kind", "classical",
                                      "--pair", "0,1", "--samples", "10",
                                      "--out", str(tmp_path / "mc.json")])
        assert result.exit_code == 1

    @pytest.mark.parametrize("error", [
        TruncationRiskError("threshold optimum unstable under truncation doubling"),
        NonConvergenceError("no refinement start reached the grid seed value", {})])
    def test_threshold_failure_exit_code(self, runner, tmp_path, monkeypatch, error):
        def failing_threshold(kind, pair):
            raise error

        monkeypatch.setattr(qngcoh.mc, "threshold", failing_threshold)
        result = runner.invoke(main, ["mc-verify", "--kind", "genuine", "--pair", "0,3",
                                      "--samples", "1000",
                                      "--out", str(tmp_path / "mc.json")])
        assert result.exit_code == 2
        assert f"threshold failure: {error}" in result.output
        assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("args", [
    ["mc-verify", "--kind", "classical", "--pair", "0,1", "--samples", "abc", "--out", "OUT"],
    ["certify", "--pair", "0,2", "--measured", "abc", "--out", "OUT"],
    ["thresholds", "--pair", "0,2"],
    ["mc-verify", "--kind", "bogus", "--pair", "0,1", "--out", "OUT"],
    ["thresholds", "--pair", "0,1", "--bogus", "--out", "OUT"],
    ["--bogus", "thresholds"], ["bogus"]],
    ids=["non-integer-samples", "non-numeric-measured", "missing-out", "unknown-kind",
         "unknown-option", "unknown-group-option", "unknown-command"])
def test_click_usage_errors_exit_1(runner, tmp_path, args):
    # click's own usage errors exit 1 like every usage error: 2 means a
    # threshold failure or a simulation error
    out = tmp_path / "out.json"
    result = runner.invoke(main, [str(out) if a == "OUT" else a for a in args])
    assert result.exit_code == 1
    assert "Error:" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("command, pair", [
    ("thresholds", "12,15"), ("mc-verify", "12,15"), ("simulate", "12,15"),
    ("simulate", "11,12")])
def test_intrinsic_above_the_cap_refused(runner, tmp_path, command, pair):
    # every searched kind, intrinsic included, is validated for max(m,n) <= 10
    # only: each command refuses the pair before it writes anything
    out = tmp_path / "out"
    if command == "simulate":
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"pair: [{pair}]\ndelays: [0.0]\nkind: intrinsic\n")
        args = ["simulate", "--config", str(cfg), "--out", str(out)]
    else:
        args = [command, "--kind", "intrinsic", "--pair", pair, "--out", str(out)]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.stderr.count("\n") == 1
    assert result.stderr.rstrip().endswith("validated for max(m,n) <= 10")
    assert not out.exists()


@pytest.mark.parametrize("args", [["thresholds", "--kind", "classical"],
                                  ["certify", "--measured", "0.5"],
                                  ["mc-verify", "--kind", "classical"]], ids=lambda a: a[0])
def test_classical_above_its_range_refused(runner, tmp_path, args):
    # the classical closed form is validated for m+n <= 40 only: each command
    # refuses (20,21) before it writes anything (simulate: a config error)
    out = tmp_path / "out"
    result = runner.invoke(main, args + ["--pair", "20,21", "--out", str(out)])
    assert result.exit_code == 1
    assert result.stderr.count("\n") == 1
    assert result.stderr.rstrip().endswith("closed form validated for m+n <= 40 only")
    assert not out.exists()


RUNTIME_WITHOUT_SCIPY = """
import json, math, sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
import numpy as np
import qngcoh.cli
from qngcoh import (FockPair, NoiseConfig, ThresholdKind, build_sequence_0n, certify,
                    fit_populations, run_ramsey)
report = certify(FockPair(0, 2), 0.9, 0.0)
fringe = run_ramsey(build_sequence_0n(2), 0.004, NoiseConfig(heating_rate=3.2),
                    np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False))
rabi, eta, gamma0 = 2.0 * math.pi * 34.8e3, 0.063, 2.0 * math.pi * 42.0
t = np.linspace(0.0, 2.0e-3, 160)
ground = 0.5 + 0.5 * np.cos(rabi * eta * t) * np.exp(-gamma0 * t)
fit = fit_populations(np.column_stack([t, ground]), rabi, eta, gamma0, 0.7, 8)
print(json.dumps({"scipy": sorted(name for name in sys.modules if name.startswith("scipy.")),
                  "genuine": report.thresholds[ThresholdKind.GENUINE_N],
                  "contrast": fringe.contrast, "p0": float(fit.populations[0])}))
"""


def test_runtime_imports_no_scipy():
    # scipy is a test oracle only: the threshold oracle's and the heating
    # channel's eigensystems and the population fit's NNLS run without it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", RUNTIME_WITHOUT_SCIPY], env=env,
                          check=True, capture_output=True, text=True)
    out = json.loads(done.stdout)
    assert out["scipy"] == []
    assert out["genuine"] == pytest.approx(0.8583496, abs=1e-6)
    assert 0.5 < out["contrast"] < 1.0 and out["p0"] > 0.99


def test_cli_import_leaves_concurrent_futures_out():
    # the MC chunk threads use threading, which the interpreter has loaded
    # already; concurrent.futures would add logging to the CLI's import time
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, qngcoh.cli; print('concurrent.futures' in sys.modules)"],
        env=env, check=True, capture_output=True, text=True)
    assert done.stdout.strip() == "False"
