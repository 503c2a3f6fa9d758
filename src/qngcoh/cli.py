"""Command-line surface: thresholds, certification, simulation, MC soundness.

Every command writes machine-readable output (JSON for structured results,
CSV for curves) stamped with a run manifest: command, full parameter echo,
package version, seeds, wall time and truncation dimension.  Exit codes are
part of the contract so CI can gate on them (click's own usage errors, such
as an unknown option or a value of the wrong type, exit 1 for every command):

* ``thresholds``: 0 ok, 1 usage error, 2 threshold failure (on optimizer
  non-convergence partial results are still written, with per-entry status);
* ``certify``: 0 some verdict true, 3 all false, 1 domain error,
  2 threshold failure;
* ``simulate``: 0 ok, 1 config error, 2 simulation error (failing delay identified);
* ``mc-verify``: 0 sound, 1 usage error, 2 threshold failure, 4 violations (release blocker).
"""

from __future__ import annotations

import csv
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import NoReturn

import click
import numpy as np
import yaml

from . import __version__
from .channels import sorted_times
from .fock import DEFAULT_TRUNC, FockPair, TruncationRiskError
from .mc import mc_verify
from .optimize import NonConvergenceError
from .ramsey import NoiseConfig, build_sequence, decay_scan
from .thresholds import (KIND_NAMES, ORDERED_KINDS, _cap_error, certify,
                         parse_kind, threshold)


def _parse_pair(text: str) -> FockPair:
    parts = text.replace("(", "").replace(")", "").split(",")
    if len(parts) != 2:
        raise ValueError(f"pair must look like 'm,n', got {text!r}")
    return FockPair(int(parts[0]), int(parts[1]))


def _distinct(pairs: list[FockPair]) -> list[FockPair]:
    """``pairs``, unless one is listed twice (in either order)."""
    if len(set(pairs)) < len(pairs):
        raise ValueError(f"pairs must be distinct, got {[[p.m, p.n] for p in pairs]}")
    return pairs


def _fail(code: int, label: str, exc) -> NoReturn:
    click.echo(f"{label}: {exc}", err=True)
    sys.exit(code)


@contextmanager
def _usage_exits_1():
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = 1
        raise


class _Commands(click.Group):
    """The commands; a click usage error, the group's or a command's, exits 1, not 2."""

    def make_context(self, *args, **kwargs):
        with _usage_exits_1():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_exits_1():
            return super().invoke(ctx)


@contextmanager
def _failures(label: str):
    """Exit 2 on a threshold failure and 1, under ``label``, on any other
    ``ValueError``.  Threshold failures come first: ``TruncationRiskError``
    is a ``ValueError``."""
    try:
        yield
    except (NonConvergenceError, TruncationRiskError) as exc:
        _fail(2, "threshold failure", exc)
    except ValueError as exc:
        _fail(1, label, exc)


def _sanitize(obj):
    """Make numpy types and non-finite floats JSON-safe."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else None
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def _emit(path: Path, payload: dict, command: str, params: dict, t0: float,
          code: int, seeds=None, trunc_dim: int = DEFAULT_TRUNC) -> NoReturn:
    """Stamp ``payload`` with the run manifest, write it as JSON and exit."""
    payload["manifest"] = {
        "command": command,
        "parameters": params,
        "tool_version": __version__,
        "seeds": seeds,
        "wall_time_s": round(time.monotonic() - t0, 3),
        "truncation_dim": trunc_dim,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_sanitize(payload), indent=1, sort_keys=True))
    sys.exit(code)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@click.group(cls=_Commands)
@click.version_option(version=__version__)
def main() -> None:
    """Quantum non-Gaussian coherence toolbox."""


@main.command("thresholds")
@click.option("--pair", "pairs", multiple=True,
              help="Fock pair 'm,n' (repeatable).")
@click.option("--kind", "kinds", multiple=True,
              type=click.Choice(sorted(KIND_NAMES.values())),
              help="Threshold kind (repeatable; default: all four).")
@click.option("--out", type=click.Path(path_type=Path), required=True)
def cmd_thresholds(pairs, kinds, out: Path) -> int:
    """Compute thresholds for the given pairs and write a JSON table."""
    t0 = time.monotonic()
    results: dict = {}
    failed = False
    with _failures("usage error"):
        if not pairs:
            raise ValueError("provide at least one --pair m,n")
        pair_objs = _distinct([_parse_pair(p) for p in pairs])
        kind_objs = [parse_kind(k) for k in kinds] if kinds else list(ORDERED_KINDS)
        for pair in pair_objs:
            row: dict = {}
            for kind in kind_objs:
                try:
                    res = threshold(kind, pair).as_dict()
                    entry = {"status": "ok", **{k: v for k, v in res.items() if v is not None}}
                except NonConvergenceError as exc:
                    failed = True
                    entry = {"status": "non-convergence", "error": str(exc)}
                row[KIND_NAMES[kind]] = entry
            results[str(pair)] = row

    _emit(out, {"schema": "qngcoh/threshold-table/v1", "results": results}, "thresholds",
          {"pairs": [str(p) for p in pair_objs], "kinds": [KIND_NAMES[k] for k in kind_objs]},
          t0, 2 if failed else 0)


@main.command("certify")
@click.option("--pair", required=True, help="Fock pair 'm,n'.")
@click.option("--measured", type=float, required=True)
@click.option("--uncertainty", type=float, default=0.0, show_default=True)
@click.option("--out", type=click.Path(path_type=Path), required=True)
def cmd_certify(pair, measured, uncertainty, out: Path) -> int:
    """Certify a measured coherence against the full hierarchy."""
    t0 = time.monotonic()
    with _failures("domain error"):
        pair_obj = _parse_pair(pair)
        report = certify(pair_obj, measured, uncertainty)

    payload = {
        "schema": "qngcoh/certification/v1",
        "pair": [pair_obj.m, pair_obj.n],
        "measured": measured,
        "uncertainty": uncertainty,
        "kinds": {
            KIND_NAMES[k]: {
                "threshold": report.thresholds[k],
                "margin": report.margins[k],
                "verdict": report.verdicts[k],
                "marginal": report.marginal[k],
                "depth": report.depths[k],
            } for k in ORDERED_KINDS},
    }
    _emit(out, payload, "certify",
          {"pair": str(pair_obj), "measured": measured, "uncertainty": uncertainty},
          t0, 0 if any(report.verdicts.values()) else 3)


def _config_int(value, name: str) -> int:
    """An integer config value, never truncated: anything else is a config error."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _config_number(value, name: str):
    """A numeric config value as given: a bool or a string is a config error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def _noise_from_config(blob: dict) -> NoiseConfig:
    if not isinstance(blob, dict):
        raise ValueError(f"noise must be a mapping, got {type(blob).__name__}")
    unknown = set(blob) - {f.name for f in fields(NoiseConfig)}
    if unknown:
        raise ValueError(f"unknown noise keys: {sorted(unknown)}")
    return NoiseConfig(**{key: _config_number(value, key) for key, value in blob.items()})


@main.command("simulate")
@click.option("--config", "config_path", type=click.Path(path_type=Path),
              required=True, help="YAML/JSON scenario file.")
@click.option("--out", "out_dir", type=click.Path(path_type=Path), required=True)
def cmd_simulate(config_path: Path, out_dir: Path) -> int:
    """Run Ramsey decay scans from a scenario config.

    Config keys: ``pairs`` (list of [m, n]) or ``pair``, not both,
    ``delays`` (seconds, strictly ascending), ``noise`` (NoiseConfig
    fields), ``phases`` (scan points), ``shots`` (null for exact readout),
    ``seed``, ``kind`` (depth threshold); any other key is a config error.
    """
    t0 = time.monotonic()
    try:
        blob = yaml.safe_load(config_path.read_text())
        if not isinstance(blob, dict):
            raise ValueError(f"config must be a mapping, got {type(blob).__name__}")
        unknown = set(blob) - {"pairs", "pair", "delays", "noise", "phases", "shots",
                               "seed", "kind"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown, key=str)}")
        if "pair" in blob and "pairs" in blob:
            raise ValueError("config takes 'pair' or 'pairs', not both")
        kind = parse_kind(blob.get("kind", "genuine"))
        raw_pairs = blob.get("pairs") or ([blob["pair"]] if "pair" in blob else None)
        if not raw_pairs:
            raise ValueError("config needs 'pair' or 'pairs'")
        pairs = _distinct([FockPair(_config_int(m, "pair index"), _config_int(n, "pair index"))
                           for m, n in raw_pairs])
        for pair in pairs:
            problem = _cap_error(kind, pair)
            if problem is not None:
                raise ValueError(f"{KIND_NAMES[kind]} threshold at pair {pair}: {problem}")
            build_sequence(pair)   # an unsupported pair is a config error
        delays = sorted_times([_config_number(t, "delay") for t in blob["delays"]], "delays")
        if not delays:
            raise ValueError("delays must list at least one delay")
        noise_block = blob.get("noise", {})
        noise = _noise_from_config(noise_block)
        n_phases = _config_int(blob.get("phases", 16), "phases")
        if n_phases < 3:
            raise ValueError(f"phases must be at least 3 for a fringe fit, got {n_phases}")
        shots = None if blob.get("shots") is None else _config_int(blob["shots"], "shots")
        if shots is not None and shots < 1:
            raise ValueError(f"shots must be positive (null for exact readout), got {shots}")
        seed = _config_int(blob.get("seed", 0), "seed")
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
    except (KeyError, ValueError, TypeError, OSError, yaml.YAMLError) as exc:
        _fail(1, "config error", exc)

    out_dir.mkdir(parents=True, exist_ok=True)
    summary: dict = {}
    used_dim = 0
    for pair in pairs:
        fringes: list = []

        def sink(delay: float, fringe) -> None:
            fringes.append((delay, fringe))

        try:
            scan = decay_scan(pair, delays, noise, kind, n_phases=n_phases,
                              shots=shots, seed=seed, fringe_sink=sink)
        except Exception as exc:  # noqa: BLE001 - identify the failing delay
            done = len(fringes)
            failing = delays[done] if done < len(delays) else delays[-1]
            _fail(2, f"simulation error for pair {pair} at delay {failing}", exc)

        used_dim = max([used_dim] + [fringe.dim for _, fringe in fringes])
        tag = f"{pair.m}_{pair.n}"
        _write_csv(out_dir / f"fringes_{tag}.csv", ["delay_s", "phase_rad", "p_excited"],
                   ((delay, phi, pe) for delay, fringe in fringes
                    for phi, pe, _ in fringe.points))
        _write_csv(out_dir / f"depth_{tag}.csv", ["delay_s", "contrast", "depth"],
                   ((d, c, depth_val if math.isfinite(depth_val) else "")
                    for d, c, depth_val in scan))
        summary[str(pair)] = [
            {"delay_s": d, "contrast": c, "depth": depth_val, "certified": depth_val > 0.0}
            for d, c, depth_val in scan]

    _emit(out_dir / "summary.json",
          {"schema": "qngcoh/simulation-summary/v1", "scans": summary,
           "kind": KIND_NAMES[kind]},
          "simulate",
          {"config": str(config_path), "pairs": [str(p) for p in pairs],
           "delays": delays, "phases": n_phases, "shots": shots,
           "kind": KIND_NAMES[kind], "noise": noise_block, "seed": seed},
          t0, 0, seeds=[seed], trunc_dim=used_dim)


@main.command("mc-verify")
@click.option("--kind", required=True,
              type=click.Choice(sorted(KIND_NAMES.values())))
@click.option("--pair", required=True, help="Fock pair 'm,n'.")
@click.option("--samples", type=int, default=100_000, show_default=True)
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--out", type=click.Path(path_type=Path), required=True)
def cmd_mc_verify(kind, pair, samples, seed, out: Path) -> int:
    """Monte-Carlo soundness check of one threshold."""
    t0 = time.monotonic()
    with _failures("usage error"):
        pair_obj = _parse_pair(pair)
        report = mc_verify(parse_kind(kind), pair_obj, samples, seed)

    if report.violations:
        click.echo(f"SOUNDNESS FAILURE: {report.violations} samples above "
                   f"threshold {report.threshold:.6f}", err=True)
    _emit(out, {"schema": "qngcoh/mc-report/v1", **report.as_dict()}, "mc-verify",
          {"kind": kind, "pair": str(pair_obj), "samples": samples},
          t0, 4 if report.violations else 0, seeds=[seed])


if __name__ == "__main__":
    main()
