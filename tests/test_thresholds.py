import json
import math
import threading
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qngcoh.fock import (SDF_ALPHA_MAX, SDF_XI_MAX, FockPair, GaussianParams,
                         bogoliubov_displacement, build_gaussian_matrix,
                         coherence_quantifier, sdf_amplitude_raw)
from qngcoh import thresholds as thresholds_module
from qngcoh.cli import main
from qngcoh.optimize import Group, maximize
from qngcoh.thresholds import (ALPHA_BOUND, MAX_FOCK, ORDERED_KINDS, XI_BOUND,
                               ThresholdKind, _pair_objective, _search_gaussian,
                               certify, classical_threshold, clear_threshold_cache,
                               genuine_coherence_matrix, parse_kind, threshold)
from conftest import argmax_state


def coherent_scan_oracle(m: int, n: int, step: float = 1e-4) -> float:
    """Brute-force 1-D scan of the coherent-state coherence objective."""
    a = np.arange(0.0, 6.0, step)
    vals = 2.0 * a ** (m + n) * np.exp(-a ** 2) / math.sqrt(
        factorial(m) * factorial(n))
    return float(vals.max())


def table_objective(pair: FockPair, n_inputs: int, pts: np.ndarray) -> np.ndarray:
    """Reference for ``_pair_objective``: the table of every row at each
    point, the intrinsic rows of inputs ``0 .. n_inputs - 1`` from one
    amplitude block, then the genuine row from that block's first ``n``
    inputs.  Each point's own row must equal its entry here bit for bit."""
    am, an = sdf_amplitude_raw((pair.m, pair.n), range(n_inputs), *pts.T, 0.0)
    u, v = am[: pair.n], an[: pair.n]
    nu, nv = np.sqrt(sum(np.abs(u) ** 2)), np.sqrt(sum(np.abs(v) ** 2))
    genuine = nu * nv + np.abs(sum(np.conj(u) * v))
    return np.vstack([2.0 * np.abs(am) * np.abs(an), genuine[None]])


class TestClassical:
    def test_01_closed_form(self):
        val = classical_threshold(FockPair(0, 1)).value
        assert val == pytest.approx(2 * math.sqrt(0.5) * math.exp(-0.5),
                                    abs=1e-12)
        assert val == pytest.approx(0.8578, abs=1e-4)
        assert val == pytest.approx(coherent_scan_oracle(0, 1), abs=1e-6)

    def test_02_closed_form(self):
        val = classical_threshold(FockPair(0, 2)).value
        assert val == pytest.approx(2 * math.exp(-1) / math.sqrt(2), abs=1e-12)
        assert val == pytest.approx(coherent_scan_oracle(0, 2), abs=1e-6)

    def test_12_scan_oracle_and_argmax(self):
        res = classical_threshold(FockPair(1, 2))
        assert res.value == pytest.approx(coherent_scan_oracle(1, 2), abs=1e-6)
        assert res.argmax.alpha_mag ** 2 == pytest.approx(1.5, abs=1e-12)

    def test_monotone_decrease_in_n(self):
        vals = [classical_threshold(FockPair(0, n)).value for n in range(1, 9)]
        assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))

    def test_precondition(self):
        with pytest.raises(ValueError, match=r"^closed form validated for m\+n <= 40 only$"):
            classical_threshold(FockPair(20, 21))
        assert classical_threshold(FockPair(19, 21)).value > 0.0


class TestGaussianMin:
    def test_01_anchor(self):
        res = threshold(ThresholdKind.GAUSSIAN_MIN, FockPair(0, 1))
        assert res.value == pytest.approx(0.93, abs=0.01)
        assert res.diagnostics["converged"]

    def test_02_sandwich(self):
        val = threshold(ThresholdKind.GAUSSIAN_MIN, FockPair(0, 2)).value
        assert classical_threshold(FockPair(0, 2)).value < val
        assert val < threshold(ThresholdKind.GENUINE_N, FockPair(0, 2)).value
        # the optimum is the squeezed vacuum, C = 1/sqrt(2)
        assert val == pytest.approx(1 / math.sqrt(2), abs=1e-6)

    def test_worked_state_exceeds_03_but_not_02(self):
        # displaced squeezed |1>: squeeze 0.2, then displacement
        # |alpha|^2 = 0.937 (published anchors: 0.6293 / below the 0,2 threshold)
        beta = bogoliubov_displacement(math.sqrt(0.937), 0.2)
        g = GaussianParams.from_complex(0.2, beta)
        cols = build_gaussian_matrix(g, 64)
        rho = np.outer(cols[:, 1], cols[:, 1].conj())
        c03 = coherence_quantifier(rho, FockPair(0, 3))
        c02 = coherence_quantifier(rho, FockPair(0, 2))
        assert c03 == pytest.approx(0.6293, abs=1e-3)
        assert c03 > threshold(ThresholdKind.GAUSSIAN_MIN, FockPair(0, 3)).value
        assert c02 < threshold(ThresholdKind.GAUSSIAN_MIN, FockPair(0, 2)).value

    def test_precondition(self):
        with pytest.raises(ValueError):
            threshold(ThresholdKind.GAUSSIAN_MIN, FockPair(0, 11))


class TestIntrinsic:
    def test_02_anchor_and_optimal_fock(self):
        res = threshold(ThresholdKind.GAUSSIAN_INTRINSIC, FockPair(0, 2))
        assert res.value == pytest.approx(0.70, abs=0.01)
        assert res.fock_index == 0

    def test_03_optimal_fock_is_one(self):
        res = threshold(ThresholdKind.GAUSSIAN_INTRINSIC, FockPair(0, 3))
        assert res.value == pytest.approx(0.63, abs=0.01)
        assert res.fock_index == 1


class TestGenuine:
    def test_01_collapses_to_gaussian_min(self):
        g1 = threshold(ThresholdKind.GENUINE_N, FockPair(0, 1)).value
        m1 = threshold(ThresholdKind.GAUSSIAN_MIN, FockPair(0, 1)).value
        assert g1 == pytest.approx(m1, abs=1e-6)

    def test_02_anchor(self):
        res = threshold(ThresholdKind.GENUINE_N, FockPair(0, 2))
        assert res.value == pytest.approx(0.86, abs=0.01)
        assert res.core_state is not None and res.core_state.shape == (2,)
        assert abs(np.linalg.norm(res.core_state) - 1.0) <= 1e-12

    def test_rank2_form_matches_eigensolver_at_random_points(self, rng):
        # lambda_max(G(theta)) against the rank-2 closed form, 1e3 points
        pair = FockPair(0, 3)
        for _ in range(1000):
            r = rng.uniform(0, 1.5)
            th = rng.uniform(0, 2 * np.pi)
            am = rng.uniform(0, 4.0)
            theta = rng.uniform(0, 2 * np.pi)
            u = np.array([complex(sdf_amplitude_raw(pair.m, j, r, th, am, 0.0))
                          for j in range(pair.n)])
            v = np.array([complex(sdf_amplitude_raw(pair.n, j, r, th, am, 0.0))
                          for j in range(pair.n)])
            w = np.exp(1j * theta) * np.vdot(u, v)
            inner = np.linalg.norm(u) ** 2 * np.linalg.norm(v) ** 2 - w.imag ** 2
            closed = w.real + math.sqrt(max(0.0, inner))
            dense = float(np.linalg.eigvalsh(
                genuine_coherence_matrix(u, v, theta))[-1])
            assert abs(closed - dense) < 1e-9

    def test_precondition(self):
        with pytest.raises(ValueError):
            threshold(ThresholdKind.GENUINE_N, FockPair(0, 11))


class TestSelfConsistency:
    @pytest.mark.parametrize("kind", list(ORDERED_KINDS))
    def test_value_matches_argmax_state(self, kind):
        pair = FockPair(0, 2)
        res = threshold(kind, pair)
        psi = argmax_state(res, dim=128)
        rho = np.outer(psi, psi.conj())
        assert coherence_quantifier(rho, pair) == pytest.approx(res.value,
                                                                abs=1e-6)

    def test_hierarchy_ordering_quick(self):
        for pair in (FockPair(0, 1), FockPair(0, 2), FockPair(1, 2)):
            vals = [threshold(k, pair).value for k in ORDERED_KINDS]
            assert all(v1 <= v2 + 1e-9 for v1, v2 in zip(vals, vals[1:]))

    def test_middle_kinds_coincide_at_01(self):
        # the optimal input Fock state at (0,1) is the vacuum, so the
        # Gaussian-minimum and intrinsic thresholds are one number there
        gm = threshold(ThresholdKind.GAUSSIAN_MIN, FockPair(0, 1)).value
        gi = threshold(ThresholdKind.GAUSSIAN_INTRINSIC, FockPair(0, 1)).value
        assert gi == pytest.approx(gm, abs=1e-6)


    def test_hierarchy_holds_on_every_admitted_pair(self):
        # all 55 pairs with max(m, n) <= 10: every searched kind returns, and
        # classical <= gaussian-min <= intrinsic <= genuine
        for n in range(1, 11):
            for m in range(n):
                vals = [threshold(kind, FockPair(m, n)).value for kind in ORDERED_KINDS]
                assert all(v1 <= v2 + 1e-14 for v1, v2 in zip(vals, vals[1:])), (m, n, vals)
                # gaussian-min is intrinsic's vacuum input, bit for bit, so it
                # needs no slack below intrinsic
                intrinsic = threshold(ThresholdKind.GAUSSIAN_INTRINSIC, FockPair(m, n))
                assert vals[1] == intrinsic.diagnostics["per_fock_values"][0], (m, n)
                assert vals[1] <= vals[2], (m, n, vals)
        # at (0,2) the vacuum is the best intrinsic input: sinh r = 1 at alpha = 0
        pair = FockPair(0, 2)
        for kind in (ThresholdKind.GAUSSIAN_MIN, ThresholdKind.GAUSSIAN_INTRINSIC):
            assert threshold(kind, pair).value == pytest.approx(1 / math.sqrt(2), rel=0, abs=1e-15)

    def test_every_admitted_threshold_matches_the_recorded_table(self):
        # the 220 entries of scripts/all_pairs.py recorded in tests/data: each
        # value within 1e-12 and never lower by more than 1e-14, with the same
        # Fock input and flags (the 55 pairs are in the memo after the test above)
        path = Path(__file__).resolve().parent / "data" / "all_pairs.json"
        entries = json.loads(path.read_text())["entries"]
        assert len(entries) == 220
        moved = []
        for key, want in entries.items():
            name, pair = key.split("/")
            res = threshold(parse_kind(name), FockPair(*map(int, pair.split(","))))
            ref = float.fromhex(want["value"])
            flags = (res.fock_index, res.diagnostics.get("at_cap"),
                     res.diagnostics.get("converged"))
            if (abs(res.value - ref) > 1e-12 or res.value < ref - 1e-14
                    or flags != (want["fock_index"], want["at_cap"], want["converged"])):
                moved.append(f"{key}: {ref!r} -> {res.value!r}, flags {flags}")
        assert not moved, (
            f"{len(moved)} of 220 thresholds left tests/data/all_pairs.json: {moved}. A "
            "change that mends a threshold on purpose (ROADMAP Still broken 1 or 4) "
            "rewrites the file in the same commit: python scripts/all_pairs.py "
            "--out-dir tests/data")


WITNESSES = json.loads((Path(__file__).resolve().parent / "data" / "witnesses.json")
                       .read_text())["witnesses"]


def _witness_case(w: dict):
    # an open entry fails until its ROADMAP Still broken item is mended, and
    # then its strict xfail turns into a failure until the mark goes
    marks = ([pytest.mark.xfail(raises=AssertionError,
                                reason=f"ROADMAP {w['status']}")]
             if w["status"].startswith("Still broken") else [])
    return pytest.param(w, marks=marks, id=f"{w['kind']}-{w['pair'][0]},{w['pair'][1]}")


@pytest.mark.parametrize("w", [_witness_case(w) for w in WITNESSES])
def test_known_witness_does_not_beat_its_threshold(w):
    # each state D(beta) S(xi)|k> is built on the matrix route, apart from the
    # search and the sampler, and no admitted threshold may lie below it
    r, theta, beta = (float.fromhex(w[key]) for key in ("r", "theta", "beta"))
    disp = build_gaussian_matrix(GaussianParams(alpha_mag=beta), 160)
    squeeze = build_gaussian_matrix(GaussianParams(xi_mag=r, xi_phase=theta), 160)
    psi = (disp @ squeeze)[:, w["fock_input"]]
    (m, n), kind = w["pair"], parse_kind(w["kind"])
    witness = 2.0 * abs(psi[m] * psi[n])
    assert witness == pytest.approx(float.fromhex(w["coherence"]), rel=0, abs=1e-12)
    if w["status"] == "refused":
        with pytest.raises(ValueError, match="validated for max"):
            threshold(kind, FockPair(m, n))
    else:
        assert threshold(kind, FockPair(m, n)).value >= witness - 1e-12


class TestCertify:
    def test_published_row_02(self):
        report = certify(FockPair(0, 2), 0.917, 0.004)
        assert all(report.verdicts.values())
        assert report.margins[ThresholdKind.GENUINE_N] == pytest.approx(
            0.057, abs=0.005)
        assert not report.marginal[ThresholdKind.GENUINE_N]

    def test_marginal_row_03(self):
        report = certify(FockPair(0, 3), 0.81, 0.03)
        assert report.marginal[ThresholdKind.GENUINE_N]
        assert abs(report.margins[ThresholdKind.GENUINE_N]) < 0.03

    def test_zero_coherence(self):
        report = certify(FockPair(0, 1), 0.0, 0.0)
        assert not any(report.verdicts.values())
        assert all(m < 0 for m in report.margins.values())
        assert all(d == float("-inf") for d in report.depths.values())

    def test_verdicts_monotone_along_hierarchy(self):
        report = certify(FockPair(0, 2), 0.60, 0.0)
        flags = [report.verdicts[k] for k in ORDERED_KINDS]
        assert flags == sorted(flags, reverse=True)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            certify(FockPair(0, 1), 1.5, 0.0)
        with pytest.raises(ValueError):
            certify(FockPair(0, 1), 0.5, -0.1)
        # a NaN uncertainty made every verdict unmarginal and was written as
        # null, which the certification schema rejects
        for uncertainty in (math.nan, math.inf):
            with pytest.raises(ValueError, match="non-negative and finite"):
                certify(FockPair(0, 2), 0.9, uncertainty)


class TestCaching:
    def test_memoized_result_is_reused(self):
        pair = FockPair(0, 1)
        first = classical_threshold(pair)
        assert classical_threshold(pair) is first

    def test_concurrent_insert_if_absent(self):
        results = []

        def worker():
            results.append(threshold(ThresholdKind.GAUSSIAN_MIN, FockPair(0, 1)))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(r) for r in results}) == 1

    def test_stale_threshold_file_is_ignored(self, tmp_path, monkeypatch):
        # thresholds are derived in-process only: a file in QNG_CACHE_DIR
        # must neither reach a verdict nor be written
        (tmp_path / "genuine_n_0_2.json").write_text(
            '{"kind": 3, "m": 0, "n": 2, "value": 0.5, "argmax": {"xi_mag": 0.0,'
            ' "xi_phase": 0.0, "alpha_mag": 0.0, "alpha_phase": 0.0},'
            ' "fock_index": null}')
        monkeypatch.setenv("QNG_CACHE_DIR", str(tmp_path))
        clear_threshold_cache()
        pair = FockPair(0, 2)
        report = certify(pair, 0.6, 0.0)
        genuine = ThresholdKind.GENUINE_N
        assert report.thresholds[genuine] == pytest.approx(0.8583496, abs=1e-6)
        assert report.verdicts[genuine] is False
        assert [p.name for p in tmp_path.iterdir()] == ["genuine_n_0_2.json"]
        for kind in ORDERED_KINDS:
            assert "truncation_recheck" in threshold(kind, pair).diagnostics


class TestSearchReproducibility:
    def test_cold_genuine_search_is_bit_identical(self):
        runs = []
        for _ in range(2):
            clear_threshold_cache()
            runs.append(threshold(ThresholdKind.GENUINE_N, FockPair(0, 3)))
        first, second = runs
        assert first is not second
        assert first.value == second.value
        assert first.argmax == second.argmax
        assert first.diagnostics == second.diagnostics

    def test_published_values_pinned(self):
        genuine = threshold(ThresholdKind.GENUINE_N, FockPair(0, 2))
        assert genuine.value == pytest.approx(0.8583496255859265, abs=1e-6)
        intrinsic = threshold(ThresholdKind.GAUSSIAN_INTRINSIC, FockPair(1, 3))
        assert intrinsic.value == pytest.approx(0.7954951288348672, abs=1e-6)
        assert not any(intrinsic.diagnostics["per_fock_at_cap"].values())


class TestBenchmarkThresholds:
    """The benchmark pairs' thresholds against ``perfbench/reference.json``,
    within 1e-12 and never below it by more than 1e-14; every searched entry
    converged and did not end on the capped box."""

    PAIRS = ((0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (1, 2), (1, 3), (2, 3))

    @pytest.fixture(scope="class")
    def reference(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
        return json.loads(path.read_text())["thresholds"]

    def test_values_match_reference(self, reference):
        got = {f"{thresholds_module.KIND_NAMES[kind]}/{m},{n}":
               threshold(kind, FockPair(m, n)).value
               for m, n in self.PAIRS for kind in ORDERED_KINDS}
        assert sorted(got) == sorted(reference)
        for key, want in reference.items():
            assert abs(got[key] - want) <= 1e-12, key
            assert got[key] >= want - 1e-14, key

    def test_searched_thresholds_converge(self):
        for m, n in self.PAIRS:
            for kind in ORDERED_KINDS[1:]:
                trace = threshold(kind, FockPair(m, n)).diagnostics
                assert trace["converged"], (kind, m, n)
                # one 19-point stencil per step of each of the two best starts
                assert all(s["nfev"] % 19 == 0 for s in trace["starts"][:2])

    def test_searched_thresholds_not_at_cap(self):
        for m, n in self.PAIRS:
            for kind in ORDERED_KINDS[1:]:
                assert threshold(kind, FockPair(m, n)).diagnostics["at_cap"] is False, (kind, m, n)

    def test_thresholds_command_reports_the_reference(self, reference, tmp_path):
        # the console command on the 8 pairs (memo warm) writes the same values and flags
        out = tmp_path / "pairs.json"
        args = [a for m, n in self.PAIRS for a in ("--pair", f"{m},{n}")]
        result = CliRunner().invoke(main, ["thresholds", *args, "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = json.loads(out.read_text())["results"]
        got = {f"{kind}/{pair}": entry["value"] for pair, row in rows.items()
               for kind, entry in row.items()}
        assert sorted(got) == sorted(reference)
        for key, want in reference.items():
            assert abs(got[key] - want) <= 1e-12, key
            assert got[key] >= want - 1e-14, key
        for pair, row in rows.items():
            for kind in ("gaussian-min", "intrinsic", "genuine"):
                assert (row[kind]["converged"], row[kind]["at_cap"]) == (True, False), (kind, pair)

    def test_genuine_core_states_are_unit_norm(self):
        for m, n in self.PAIRS:
            res = threshold(ThresholdKind.GENUINE_N, FockPair(m, n))
            assert res.core_state.shape == (n,), (m, n)
            assert abs(np.linalg.norm(res.core_state) - 1.0) <= 1e-12, (m, n)


class TestJointSearch:
    def test_certify_keeps_per_kind_diagnostics(self, monkeypatch):
        runs = []

        def recording_maximize(*args, **kwargs):
            runs.append(maximize(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(thresholds_module, "maximize", recording_maximize)
        clear_threshold_cache()
        pair = FockPair(0, 3)
        certify(pair, 0.9, 0.0)
        # one lockstep run: the 11 intrinsic Fock levels, then genuine;
        # gaussian-min is the vacuum input's group, not a search of its own
        assert len(runs) == 1
        assert [len(part.trace["starts"]) for part in runs[0].groups] == [8] * 11 + [16]
        gmin, intrinsic, genuine = (threshold(kind, pair).diagnostics
                                    for kind in ORDERED_KINDS[1:])
        vacuum = runs[0].groups[0].trace
        assert {key: gmin[key] for key in vacuum} == vacuum
        assert len(gmin["starts"]) == 8
        assert gmin["grid_points"] == 9 ** 3
        assert threshold(ThresholdKind.GAUSSIAN_MIN, pair).fock_index == 0
        assert len(intrinsic["starts"]) == 8      # the best Fock level's starts
        assert intrinsic["grid_points"] == 9 ** 3
        assert sorted(intrinsic["per_fock_values"]) == list(range(MAX_FOCK + 1))
        assert len(genuine["starts"]) == 16
        assert genuine["grid_points"] == 12 ** 3
        for trace in (gmin, intrinsic, genuine):
            assert trace["magnitude_bounds"] == [[XI_BOUND, ALPHA_BOUND]]

    def test_lone_request_equals_certify(self, monkeypatch):
        pair = FockPair(0, 4)
        clear_threshold_cache()
        certify(pair, 0.9, 0.0)
        reported = {kind: threshold(kind, pair) for kind in ORDERED_KINDS[1:]}
        clear_threshold_cache()
        lone = threshold(ThresholdKind.GENUINE_N, pair)
        assert lone.value == reported[ThresholdKind.GENUINE_N].value
        assert lone.diagnostics == reported[ThresholdKind.GENUINE_N].diagnostics
        # the lone request filled the memo for the other searched kinds too
        monkeypatch.setattr(thresholds_module, "_search_pair", None)
        for kind in (ThresholdKind.GAUSSIAN_MIN, ThresholdKind.GAUSSIAN_INTRINSIC):
            assert threshold(kind, pair).diagnostics == reported[kind].diagnostics
        assert threshold(ThresholdKind.GENUINE_N, pair) is lone

    def test_intrinsic_row_is_independent_of_the_joint_run(self):
        # the best intrinsic row of the joint run searches alone to the same
        # value and start trace: no group's search sees the others
        pair = FockPair(1, 3)
        joint = thresholds_module._search_pair(pair)[(ThresholdKind.GAUSSIAN_INTRINSIC, 1, 3)]
        k = joint.fock_index
        (lone,) = _search_gaussian(_pair_objective(pair, MAX_FOCK + 1),
                                   [Group(k, grid_density=9, n_starts=8)])
        assert lone.value == joint.value == joint.diagnostics["per_fock_values"][k]
        assert lone.trace["starts"] == joint.diagnostics["starts"]

    @pytest.mark.parametrize("pair", [FockPair(1, 3), FockPair(0, 6), FockPair(2, 3)])
    def test_pair_objective_rows_are_batch_invariant(self, pair):
        # a stencil call puts each start's points beside up to 2,280 others:
        # every row must read the same at any place in any batch
        rng = np.random.default_rng(2280)
        pts = np.column_stack([rng.uniform(0.0, XI_BOUND, 2280),
                               rng.uniform(0.0, 2.0 * math.pi, 2280),
                               rng.uniform(0.0, ALPHA_BOUND, 2280)])
        f = _pair_objective(pair, MAX_FOCK + 1)
        for row in range(MAX_FOCK + 2):
            rows = np.full(2280, row)
            whole = f(pts, rows)
            for size in (19, 152):
                assert np.array_equal(f(pts[:size].copy(), rows[:size]), whole[:size])
                assert np.array_equal(f(pts[-size:].copy(), rows[:size]), whole[-size:])

    @pytest.mark.parametrize("pair", [FockPair(0, 1), FockPair(0, 6), FockPair(2, 3),
                                      FockPair(3, 10), FockPair(9, 10)], ids=str)
    def test_pair_objective_rows_equal_the_table(self, pair):
        # each point's row, evaluated alone, equals that row of the table of
        # every row at the point, at every batch size a search makes
        n_inputs = MAX_FOCK + 1
        rng = np.random.default_rng(pair.m * 11 + pair.n)
        pts = np.column_stack([rng.uniform(0.0, SDF_XI_MAX, 2280),
                               rng.uniform(0.0, 2.0 * math.pi, 2280),
                               rng.uniform(0.0, SDF_ALPHA_MAX, 2280)])
        pts[::7, 0] = 0.0    # squeezing exactly 0, as on every grid
        pts[::11, 2] = 0.0
        rows = rng.permutation(np.resize(np.arange(n_inputs + 1), 2280))
        assert set(rows[:152].tolist()) == set(range(n_inputs + 1))
        table = table_objective(pair, n_inputs, pts)
        f = _pair_objective(pair, n_inputs)
        for size in (1, 2, 19, 152, 1728, 2280):
            got = f(pts[:size].copy(), rows[:size])
            assert np.array_equal(got, table[rows[:size], np.arange(size)]), size

    @pytest.mark.parametrize("pair", [FockPair(0, 3), FockPair(2, 3), FockPair(0, 6)], ids=str)
    def test_pair_objective_table_equals_its_per_point_rows(self, pair):
        # rows of shape (R, 1) ask for every row at every point, the intrinsic
        # rows from one amplitude block: each entry, genuine included, has the
        # bits of its row asked for point by point, on a search grid and off it
        n_inputs = MAX_FOCK + 1
        axes = np.meshgrid(np.linspace(0.0, XI_BOUND, 9), np.linspace(0.0, math.pi, 9),
                           np.linspace(0.0, ALPHA_BOUND, 9), indexing="ij")
        rng = np.random.default_rng(pair.m * 11 + pair.n)
        pts = np.vstack([np.stack([a.ravel() for a in axes], axis=-1),
                         rng.uniform(0.0, 1.0, (300, 3)) * [SDF_XI_MAX, math.pi, SDF_ALPHA_MAX]])
        f = _pair_objective(pair, n_inputs)
        table = f(pts, np.arange(n_inputs + 1)[:, None])
        assert table.shape == (n_inputs + 1, len(pts))
        for row in range(n_inputs + 1):
            assert np.array_equal(table[row], f(pts, np.full(len(pts), row))), row
        # any rows in any order, the genuine row among them
        some = np.array([[7], [n_inputs], [0], [3]])
        assert np.array_equal(f(pts, some), table[some[:, 0]])

    @pytest.mark.parametrize("pair", [FockPair(0, 4), FockPair(6, 7), FockPair(9, 10)], ids=str)
    def test_pair_objective_rows_mirror_in_squeeze_phase(self, pair):
        # complex conjugation maps S(xi)D(alpha)|k> with real alpha to the
        # state at squeeze phase 2 pi - theta and keeps every row's value,
        # which is why the search box holds theta in [0, pi] only
        n_inputs = MAX_FOCK + 1
        rng = np.random.default_rng(pair.m * 11 + pair.n)
        pts = np.column_stack([rng.uniform(0.0, SDF_XI_MAX, 600),
                               rng.uniform(0.0, 2.0 * math.pi, 600),
                               rng.uniform(0.0, SDF_ALPHA_MAX, 600)])
        mirror = pts.copy()
        mirror[:, 1] = 2.0 * math.pi - pts[:, 1]
        f = _pair_objective(pair, n_inputs)
        for row in range(n_inputs + 1):
            rows = np.full(len(pts), row)
            assert np.max(np.abs(f(pts, rows) - f(mirror, rows))) <= 1e-12, row

    def test_pair_objective_requests_only_what_each_row_reads(self, monkeypatch):
        # 2 amplitudes per gaussian-min or intrinsic point, 2n per genuine point
        kernel, sizes = thresholds_module.sdf_amplitude_raw, []

        def recording_kernel(*args):
            out = kernel(*args)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(thresholds_module, "sdf_amplitude_raw", recording_kernel)
        pair, n_inputs = FockPair(2, 7), MAX_FOCK + 1
        f = _pair_objective(pair, n_inputs)
        rng = np.random.default_rng(7)
        pts = np.column_stack([rng.uniform(0.0, XI_BOUND, 300),
                               rng.uniform(0.0, 2.0 * math.pi, 300),
                               rng.uniform(0.0, ALPHA_BOUND, 300)])
        for rows, want in [(np.zeros(300, dtype=int), [2 * 300]),
                           (np.arange(300) % n_inputs, [2 * 300]),
                           (np.full(300, n_inputs), [2 * pair.n * 300]),
                           (np.arange(300) % (n_inputs + 1), [2 * 275, 2 * pair.n * 25]),
                           # a table: one block of every input, one genuine call
                           (np.arange(n_inputs + 1)[:, None],
                            [2 * n_inputs * 300, 2 * pair.n * 300])]:
            sizes.clear()
            f(pts, rows)
            assert sizes == want

    def test_pair_objective_rejects_rows_outside_its_table(self):
        f = _pair_objective(FockPair(0, 3), MAX_FOCK + 1)
        pts = np.full((3, 3), 0.5)
        for bad in (-1, MAX_FOCK + 2):
            with pytest.raises(ValueError, match="rows must lie in"):
                f(pts, np.array([0, bad, MAX_FOCK + 1]))

    def test_one_cap_for_every_searched_kind(self, monkeypatch):
        # gaussian-min, intrinsic and genuine all stop at max(m, n) <= MAX_FOCK
        # and are refused before any search; the classical closed form is not
        monkeypatch.setattr(thresholds_module, "_search_pair", None)
        for pair in (FockPair(0, 11), FockPair(12, 15)):
            for kind in ORDERED_KINDS[1:]:
                with pytest.raises(ValueError, match=r"validated for max\(m,n\) <= 10$"):
                    threshold(kind, pair)
        assert threshold(ThresholdKind.CLASSICAL, FockPair(12, 15)).value > 0.0

    def test_truncation_recheck_matches_full_crops(self):
        for kind in ORDERED_KINDS:
            res = threshold(kind, FockPair(0, 3))
            k = res.fock_index or 0
            c = res.core_state if res.core_state is not None else np.eye(k + 1)[k]
            recheck = res.diagnostics["truncation_recheck"]
            assert recheck["dims"] == [128, 256]
            for dim, value in zip(recheck["dims"], recheck["values"]):
                psi = build_gaussian_matrix(res.argmax, dim)[:, : len(c)] @ c
                assert value == pytest.approx(2.0 * abs(psi[0] * np.conj(psi[3])),
                                              rel=0, abs=1e-15)


class TestBoundGrowth:
    def test_interior_optimum_keeps_first_box(self):
        trace = threshold(ThresholdKind.GENUINE_N, FockPair(0, 2)).diagnostics
        assert trace["magnitude_bounds"] == [[XI_BOUND, ALPHA_BOUND]]
        assert trace["at_cap"] is False

    @pytest.mark.parametrize("objective, boxes, argmax", [
        (lambda pts, rows: -(pts[:, 0] - 0.7) ** 2 + pts[:, 2],
         [[1.5, 4], [1.5, 6]], (0.7, 6)),
        (lambda pts, rows: pts[:, 0] - (pts[:, 2] - 2.0) ** 2,
         [[1.5, 4], [2, 4]], (2, 2)),
        # |alpha| pays only once |xi| passes 1.6, outside the first box
        (lambda pts, rows: pts[:, 0] + pts[:, 2] * (pts[:, 0] - 1.6),
         [[1.5, 4], [2, 4], [2, 6]], (2, 6))],
        ids=["alpha", "xi", "xi-then-alpha"])
    def test_touched_bound_grows_to_the_validated_range(self, objective, boxes, argmax):
        # a bound the optimum touches grows in one step to fock.SDF_*_MAX and
        # the other bound stays, until no bound grows
        res, = _search_gaussian(objective, [Group(grid_density=4, n_starts=8)])
        assert res.trace["magnitude_bounds"] == boxes
        assert res.trace["at_cap"] is True
        assert (res.argmax[0], res.argmax[2]) == pytest.approx(argmax, abs=1e-6)

    def test_optimum_left_at_cap_is_flagged(self):
        # increasing in |xi| and |alpha|: both bounds grow to their caps at once
        res, = _search_gaussian(lambda pts, rows: pts[:, 0] + pts[:, 2],
                                [Group(grid_density=4, n_starts=8)])
        assert res.trace["magnitude_bounds"] == [[XI_BOUND, ALPHA_BOUND],
                                                 [SDF_XI_MAX, SDF_ALPHA_MAX]]
        assert res.trace["at_cap"] is True
        assert res.argmax[0] == pytest.approx(SDF_XI_MAX)
        assert res.argmax[2] == pytest.approx(SDF_ALPHA_MAX)

    def test_grown_group_matches_its_lone_search(self):
        # on (1,10) the vacuum row grows through |alpha| <= 6 to |xi| <= 2 and
        # reruns alone; every group of the joint search, grown or not, has
        # the value, argmax and trace of its own lone search
        f = _pair_objective(FockPair(1, 10), MAX_FOCK + 1)
        groups = [Group(0, grid_density=9, n_starts=8), Group(4, grid_density=9, n_starts=8),
                  Group(MAX_FOCK + 1)]
        joint = _search_gaussian(f, groups)
        assert [len(part.trace["magnitude_bounds"]) for part in joint] == [3, 1, 1]
        for group, part in zip(groups, joint):
            alone, = _search_gaussian(f, [group])
            assert part.value == alone.value
            assert np.array_equal(part.argmax, alone.argmax)
            assert part.trace == alone.trace


def test_parse_kind_names():
    assert parse_kind("classical") == ThresholdKind.CLASSICAL
    assert parse_kind("GENUINE") == ThresholdKind.GENUINE_N
    with pytest.raises(ValueError):
        parse_kind("bogus")
    for name in (3, None, True):
        with pytest.raises(ValueError, match="unknown threshold kind"):
            parse_kind(name)
