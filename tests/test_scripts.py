"""The shipped scripts run end to end and write the CSV files they promise."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qngcoh.channels import TruncationError

ROOT = Path(__file__).resolve().parents[1]
DECAY_PAIRS = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3)]


def run_script(name: str, out_dir: Path, *args: str,
               returncode: int = 0) -> subprocess.CompletedProcess:
    """Run ``scripts/<name>`` in a fresh interpreter on this checkout's
    sources and check its exit code; a ``TruncationError`` in the script is
    raised here."""
    env = {k: v for k, v in os.environ.items() if k != "QNG_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), "--out-dir", str(out_dir),
         *args], env=env, capture_output=True, text=True, timeout=300)
    if "TruncationError" in proc.stderr:
        raise TruncationError(proc.stderr.strip().splitlines()[-1])
    assert proc.returncode == returncode, proc.stderr
    return proc


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_threshold_table(tmp_path):
    run_script("run_threshold_table.py", tmp_path, "--ns", "1", "2")
    rows = read_csv(tmp_path / "threshold_table.csv")
    assert rows[0] == ["n", "classical", "gaussian-min", "intrinsic", "genuine",
                       "depth_ideal", "measured", "depth_measured"]
    assert [row[0] for row in rows[1:]] == ["1", "2"]
    assert (tmp_path / "threshold_table.json").exists()


def check_decay_curves(out_dir: Path, points: int) -> None:
    for m, n in DECAY_PAIRS:
        rows = read_csv(out_dir / f"decay_{m}_{n}.csv")
        assert rows[0] == ["delay_s", "contrast", "depth",
                           "heating_only_depth_limit"]
        assert len(rows) == 1 + points


def test_decay_curves_short_scan(tmp_path):
    run_script("run_decay_curves.py", tmp_path, "--t-max", "0.006", "--points", "3")
    check_decay_curves(tmp_path, 3)


def test_decay_curves_defaults(tmp_path):
    # the defaults' contrasts against the 59 non-null decay-curves/exact
    # references of perfbench/reference.json, within 1e-9
    run_script("run_decay_curves.py", tmp_path)
    check_decay_curves(tmp_path, 9)
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())["ramsey"]
    want = {key: value for key, value in reference.items()
            if key.startswith("decay-curves/exact/") and value is not None}
    got = {f"decay-curves/exact/{m},{n}/{i}": float(row[1])
           for m, n in DECAY_PAIRS
           for i, row in enumerate(read_csv(tmp_path / f"decay_{m}_{n}.csv")[1:])}
    assert len(want) == 59
    for key, ref in want.items():
        assert abs(got[key] - ref) <= 1e-9, key


def test_all_pairs_compares_two_outputs(tmp_path):
    run_script("all_pairs.py", tmp_path, "--max-n", "2")
    out = tmp_path / "all_pairs.json"
    entries = json.loads(out.read_text())["entries"]
    # 3 pairs x 4 kinds; floats as hex, so two trees compare bit for bit
    assert sorted(entries) == sorted(f"{kind}/{pair}" for pair in ("0,1", "0,2", "1,2")
                                     for kind in ("classical", "gaussian-min",
                                                  "intrinsic", "genuine"))
    genuine = entries["genuine/0,2"]
    assert float.fromhex(genuine["value"]) == pytest.approx(0.86, abs=0.01)
    assert genuine["boxes"] == [[1.5, 4.0]] and genuine["converged"] is True
    assert genuine["at_cap"] is False and len(genuine["recheck"]) == 2
    assert entries["classical/0,1"]["boxes"] is None
    # against itself every entry is identical; against an altered copy not
    proc = run_script("all_pairs.py", tmp_path / "again", "--max-n", "2", "--against", str(out))
    assert "12 of 12 entries identical" in proc.stdout
    entries["intrinsic/1,2"]["value"] = float.hex(0.5)
    altered = tmp_path / "altered.json"
    altered.write_text(json.dumps({"entries": entries}))
    proc = run_script("all_pairs.py", tmp_path / "again", "--max-n", "2", "--against",
                      str(altered), returncode=1)
    assert "11 of 12 entries identical" in proc.stdout and "intrinsic/1,2" in proc.stdout
