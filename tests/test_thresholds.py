import json
import math
import threading
from math import factorial
from pathlib import Path

import numpy as np
import pytest

from qngcoh.fock import (FockPair, GaussianParams,
                         bogoliubov_displacement, build_gaussian_matrix,
                         coherence_quantifier, sdf_amplitude_raw)
from qngcoh import thresholds as thresholds_module
from qngcoh.optimize import Group, maximize
from qngcoh.thresholds import (ALPHA_BOUND, ALPHA_CAP, MAX_FOCK, ORDERED_KINDS, XI_BOUND,
                               XI_CAP, ThresholdKind, _constraint_seeds,
                               _pair_objective, _search_gaussian,
                               certify, classical_threshold, clear_threshold_cache,
                               genuine_coherence_matrix, parse_kind, threshold)
from conftest import argmax_state


def coherent_scan_oracle(m: int, n: int, step: float = 1e-4) -> float:
    """Brute-force 1-D scan of the coherent-state coherence objective."""
    a = np.arange(0.0, 6.0, step)
    vals = 2.0 * a ** (m + n) * np.exp(-a ** 2) / math.sqrt(
        factorial(m) * factorial(n))
    return float(vals.max())


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
        with pytest.raises(ValueError):
            classical_threshold(FockPair(20, 21))


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
        # at (0,2) the vacuum is the best intrinsic input: sinh r = 1 at alpha = 0
        pair = FockPair(0, 2)
        for kind in (ThresholdKind.GAUSSIAN_MIN, ThresholdKind.GAUSSIAN_INTRINSIC):
            assert threshold(kind, pair).value == pytest.approx(1 / math.sqrt(2), rel=0, abs=1e-15)


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
    recorded with a tight simplex stop and no finish."""

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
                assert trace["finish"]["evaluations"] % 19 == 0

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
        # one lockstep run: gaussian-min, the 11 intrinsic Fock levels, genuine
        assert len(runs) == 1
        assert [len(part.trace["starts"]) for part in runs[0].groups] == [16] + [8] * 11 + [16]
        gmin, intrinsic, genuine = (threshold(kind, pair).diagnostics
                                    for kind in ORDERED_KINDS[1:])
        assert len(gmin["starts"]) == 16
        assert gmin["grid_points"] == 12 ** 3 + len(_constraint_seeds(pair))
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
        whole = f(pts)
        for size in (19, 152):
            assert np.array_equal(f(pts[:size].copy()), whole[:, :size])

    def test_capped_kinds_stay_out_of_the_run(self):
        pair = FockPair(0, 11)
        entries = thresholds_module._search_pair(pair)
        key = (ThresholdKind.GAUSSIAN_INTRINSIC, 0, 11)
        assert list(entries) == [key]
        assert sorted(entries[key].diagnostics["per_fock_values"]) == list(range(MAX_FOCK + 1))
        with pytest.raises(ValueError, match="validated for max"):
            threshold(ThresholdKind.GENUINE_N, pair)

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


class TestBoundDoubling:
    def test_interior_optimum_keeps_first_box(self):
        trace = threshold(ThresholdKind.GENUINE_N, FockPair(0, 2)).diagnostics
        assert trace["magnitude_bounds"] == [[XI_BOUND, ALPHA_BOUND]]
        assert trace["at_cap"] is False

    def test_optimum_left_at_cap_is_flagged(self):
        # increasing in |xi| and |alpha|: both bounds double up to their caps
        res, = _search_gaussian(lambda pts: pts[:, 0] + pts[:, 2],
                                [Group(grid_density=4, n_starts=8)])
        assert res.trace["magnitude_bounds"] == [[XI_BOUND, ALPHA_BOUND],
                                                 [XI_CAP, ALPHA_CAP]]
        assert res.trace["at_cap"] is True
        assert res.argmax[0] == pytest.approx(XI_CAP)
        assert res.argmax[2] == pytest.approx(ALPHA_CAP)


def test_parse_kind_names():
    assert parse_kind("classical") == ThresholdKind.CLASSICAL
    assert parse_kind("GENUINE") == ThresholdKind.GENUINE_N
    with pytest.raises(ValueError):
        parse_kind("bogus")
