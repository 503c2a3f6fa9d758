import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, expm

from qngcoh.channels import (EDGE_TAIL_TOL, TruncationError, _offset_eigensystem,
                             _tail_dim, dephasing_factors, depth_value,
                             thermal_depth_limit, thermalize, thermalize_matrix)
from qngcoh.fock import FockPair, coherence_quantifier, ideal_superposition
from qngcoh.thresholds import ThresholdKind, certify, threshold
from conftest import (assert_density_matrix, fock_density_matrix, mean_phonons,
                      random_density_matrix, thermal_density_matrix)


def lindblad_superop_oracle(dim: int, rate: float) -> np.ndarray:
    """Brute-force vectorized Lindbladian of the equal-rate reservoir."""
    a = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    eye = np.eye(dim, dtype=complex)
    sup = np.zeros((dim * dim, dim * dim), dtype=complex)
    for op in (a, a.conj().T):
        nn = op.conj().T @ op
        sup += rate * (np.kron(op, op.conj())
                       - 0.5 * np.kron(nn, eye) - 0.5 * np.kron(eye, nn.T))
    return sup


def dephase(mat: np.ndarray, gamma: float) -> np.ndarray:
    """The phase-diffusion channel of a density matrix."""
    return mat * dephasing_factors(mat.shape[0], gamma)


class TestDephase:
    def test_identity_at_zero(self, rng):
        mat = random_density_matrix(rng, 6)
        assert np.array_equal(dephase(mat, 0.0), mat)

    def test_scalar_reduction(self):
        mat = ideal_superposition(FockPair(0, 2), 6)
        mat[0, 2] = 0.45
        mat[2, 0] = 0.45
        out = dephase(mat, 0.1)
        assert out[0, 2].real == pytest.approx(0.45 * math.exp(-0.2),
                                                      abs=1e-12)

    def test_full_decoherence_limit(self):
        pair = FockPair(0, 3)
        out = dephase(ideal_superposition(pair, 6), 1e6)
        off = out - np.diag(np.diag(out))
        assert np.max(np.abs(off)) < 1e-300
        assert out[0, 0].real == pytest.approx(0.5)
        assert out[3, 3].real == pytest.approx(0.5)

    @given(g1=st.floats(0, 5), g2=st.floats(0, 5), seed=st.integers(0, 2**31))
    def test_composition_law(self, g1, g2, seed):
        mat = random_density_matrix(np.random.default_rng(seed), 6)
        twice = dephase(dephase(mat, g1), g2)
        once = dephase(mat, g1 + g2)
        assert np.max(np.abs(twice - once)) < 1e-12

    def test_preserves_density_matrix(self, rng):
        for _ in range(20):
            out = dephase(random_density_matrix(rng, 8), rng.uniform(0, 3))
            assert_density_matrix(out)

    def test_linearity(self, rng):
        m1 = random_density_matrix(rng, 5)
        m2 = random_density_matrix(rng, 5)
        lhs = dephase(0.3 * m1 + 0.7 * m2, 0.4)
        rhs = 0.3 * dephase(m1, 0.4) + 0.7 * dephase(m2, 0.4)
        assert np.max(np.abs(lhs - rhs)) < 1e-14


class TestThermalize:
    def test_zero_duration(self, rng):
        mat = random_density_matrix(rng, 6)
        assert np.array_equal(thermalize(mat, 3.2, 0.0), mat)

    def test_phonon_growth_from_ground(self):
        out = thermalize(fock_density_matrix(0, 32), 3.2, 0.010)
        assert mean_phonons(out) == pytest.approx(0.032, rel=0.01)

    def test_slope_affine_to_50ms(self):
        mat = thermal_density_matrix(0.07, 48)
        n0 = mean_phonons(mat)
        for t in (0.010, 0.030, 0.050):
            out = thermalize(mat, 3.2, t)
            assert mean_phonons(out) - n0 == pytest.approx(3.2 * t, rel=0.01)

    def test_trace_and_hermiticity(self, rng):
        # low-occupied state embedded well below the truncation edge
        mat = np.zeros((24, 24), dtype=complex)
        mat[:8, :8] = random_density_matrix(rng, 8)
        out = thermalize(mat, 5.0, 0.02)
        assert abs(np.trace(out) - 1.0) < 1e-8
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_against_superoperator_oracle(self, rng):
        dim, rate, t = 10, 4.0, 0.015
        mat = random_density_matrix(rng, dim)
        ours = thermalize_matrix(mat, rate, t)
        prop = expm(lindblad_superop_oracle(dim, rate) * t)
        oracle = (prop @ mat.reshape(-1)).reshape(dim, dim)
        assert np.max(np.abs(ours - oracle)) < 1e-9

    def test_offset_propagators_match_eigh_tridiagonal(self):
        # each offset's generator, read off the superoperator oracle, through
        # scipy's tridiagonal eigensolver
        dim = 14
        sup = lindblad_superop_oracle(dim, 1.0).real
        for offset in (0, 3, dim - 2, dim - 1):
            idx = [(i + offset) * dim + i for i in range(dim - offset)]
            gen = sup[np.ix_(idx, idx)]
            systems = (_offset_eigensystem(dim, offset),
                       eigh_tridiagonal(np.diag(gen), np.diag(gen, 1)))
            for t in (0.004, 0.05, 1.0):
                ours, ref = ((vec * np.exp(lam * t)) @ vec.T for lam, vec in systems)
                assert np.max(np.abs(ours - ref)) < 1e-12

    def test_propagator_composition(self, rng):
        mat = random_density_matrix(rng, 12)
        twice = thermalize_matrix(thermalize_matrix(mat, 3.2, 0.005), 3.2, 0.008)
        once = thermalize_matrix(mat, 3.2, 0.013)
        assert np.max(np.abs(twice - once)) < 1e-12

    def test_stack_matches_per_block(self, rng):
        # a Hermitian operator in 3 x 3 spin blocks against each pair of its
        # spin rows and columns alone, and each diagonal block as one matrix
        dim = 9
        mat = rng.normal(size=(3 * dim, 3 * dim)) + 1j * rng.normal(size=(3 * dim, 3 * dim))
        stack = (mat + mat.conj().T).reshape(3, dim, 3, dim).transpose(0, 2, 1, 3)
        out = thermalize_matrix(stack, 3.2, 0.013)
        for s1 in range(3):
            assert np.array_equal(out[s1, s1], thermalize_matrix(stack[s1, s1], 3.2, 0.013))
            for s2 in range(3):
                rows = np.ix_([s1, s2], [s1, s2])
                assert np.array_equal(out[rows], thermalize_matrix(stack[rows], 3.2, 0.013))

    def test_zero_superposition_decay_is_monotone(self):
        # heated (|0>+|2>)/sqrt(2): coherence decays, population mixes up
        pair = FockPair(0, 2)
        mat = ideal_superposition(pair, 24)
        last_c, last_p22 = 1.0, mat[2, 2].real
        for t in (0.005, 0.010, 0.020, 0.040):
            out = thermalize_matrix(mat, 3.2, t)
            c = coherence_quantifier(out, pair)
            assert c < last_c
            assert out[2, 2].real < last_p22
            last_c, last_p22 = c, out[2, 2].real

    def test_tail_guard(self):
        with pytest.raises(TruncationError):
            thermalize(fock_density_matrix(0, 4), 100.0, 0.05)

    @pytest.mark.parametrize("shape", [(3, 4), (2, 4, 4)])
    def test_rejects_non_square_input(self, shape):
        # one density matrix only; thermalize_matrix takes the stacks
        with pytest.raises(ValueError, match=re.escape(f"square, got shape {shape}")):
            thermalize(np.zeros(shape, dtype=complex), 3.2, 0.01)


class TestDepth:
    def test_ideal_02_value(self):
        report = certify(FockPair(0, 2), 1.0, 0.0)
        d, thr = report.depths[ThresholdKind.GENUINE_N], report.thresholds[ThresholdKind.GENUINE_N]
        assert d == pytest.approx(0.5 * math.log(1 / thr), abs=1e-12)
        assert d == pytest.approx(0.08, abs=0.01)
        assert report.verdicts[ThresholdKind.GENUINE_N]

    def test_exp_04_value(self):
        d = certify(FockPair(0, 4), 0.84, 0.0).depths[ThresholdKind.GENUINE_N]
        assert d == pytest.approx(0.01, abs=0.01)

    def test_zero_at_threshold(self):
        thr = threshold(ThresholdKind.CLASSICAL, FockPair(0, 1)).value
        d = certify(FockPair(0, 1), thr, 0.0).depths[ThresholdKind.CLASSICAL]
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_strictly_increasing_in_measured(self):
        pair = FockPair(0, 2)
        vals = [certify(pair, c, 0.0).depths[ThresholdKind.CLASSICAL]
                for c in (0.3, 0.5, 0.7, 0.9)]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))

    def test_gauge_property(self):
        # dephasing an ideal state by Gamma shifts its depth by -Gamma
        pair = FockPair(0, 3)
        ideal = certify(pair, 1.0, 0.0).depths[ThresholdKind.GENUINE_N]
        for gamma in np.linspace(0.0, ideal * 0.95, 7):
            decayed = dephase(ideal_superposition(pair, 8), gamma)
            c = coherence_quantifier(decayed, pair)
            d = certify(pair, c, 0.0).depths[ThresholdKind.GENUINE_N]
            assert d == pytest.approx(ideal - gamma, abs=1e-9)


class TestThermalDepthLimit:
    def test_zero_rate_is_constant(self):
        pair = FockPair(0, 1)
        curve = thermal_depth_limit(pair, 0.0, [0.0, 0.01, 0.02],
                                    ThresholdKind.GENUINE_N)
        ideal = certify(pair, 1.0, 0.0).depths[ThresholdKind.GENUINE_N]
        for _, d in curve:
            assert d == pytest.approx(ideal, abs=1e-9)

    def test_time_zero_matches_ideal_depth(self):
        pair = FockPair(0, 2)
        curve = thermal_depth_limit(pair, 3.2, [0.0], ThresholdKind.GENUINE_N)
        assert curve[0][1] == pytest.approx(0.0754, abs=0.005)

    def test_04_starts_about_twice_06(self):
        d4 = thermal_depth_limit(FockPair(0, 4), 3.2, [0.0],
                                 ThresholdKind.GENUINE_N)[0][1]
        d6 = thermal_depth_limit(FockPair(0, 6), 3.2, [0.0],
                                 ThresholdKind.GENUINE_N)[0][1]
        assert d4 / d6 == pytest.approx(2.0, abs=0.6)

    def test_unsorted_times_rejected(self):
        with pytest.raises(ValueError):
            thermal_depth_limit(FockPair(0, 1), 3.2, [0.01, 0.0],
                                ThresholdKind.CLASSICAL)

    @pytest.mark.parametrize("times", [[-0.05, 0.0], [0.0, math.nan], [0.0, math.inf]])
    def test_negative_or_non_finite_times_rejected(self, times):
        with pytest.raises(ValueError, match="times must be"):
            thermal_depth_limit(FockPair(0, 2), 3.2, times, ThresholdKind.GENUINE_N)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0])
    def test_bad_rate_rejected_before_sizing(self, rate):
        # a NaN rate used to reach the tail bound and fail as a truncation error
        with pytest.raises(ValueError, match="heating rate must be finite"):
            thermal_depth_limit(FockPair(0, 2), rate, [0.0, 0.01], ThresholdKind.GENUINE_N)

    def test_tail_guard(self):
        # 20 phonons of heating need more levels than the cap
        with pytest.raises(TruncationError):
            thermal_depth_limit(FockPair(0, 1), 400.0, [0.05],
                                ThresholdKind.CLASSICAL)


class TestTailDim:
    @pytest.mark.parametrize("top, nbar", [(4, 0.0), (2, 0.07), (0, 0.5)])
    def test_bound_holds_on_a_wide_space(self, top, nbar):
        # a thermal distribution lifted by top levels, heated 0.077 phonon on
        # 64 levels, leaves at most the tolerance on or above the chosen edge
        dim = _tail_dim(top, nbar, 3.2 * 0.024, 0)
        mat = np.zeros((64, 64), dtype=complex)
        mat[top:, top:] = thermal_density_matrix(nbar, 64 - top)
        heated = np.real(np.diagonal(thermalize_matrix(mat, 3.2, 0.024)))
        assert dim < 40 and heated[dim - 1:].sum() <= EDGE_TAIL_TOL

    def test_reach_sets_the_floor(self):
        assert _tail_dim(2, 0.0, 0.0, 0) == 4
        assert _tail_dim(2, 0.0, 0.0, 5) == 8

    @pytest.mark.parametrize("top, heat, reach", [(1, 20.0, 0), (0, 0.0, 200)])
    def test_raises_above_cap(self, top, heat, reach):
        with pytest.raises(TruncationError, match="more than 128 levels"):
            _tail_dim(top, 0.0, heat, reach)


def test_depth_value_formula():
    assert depth_value(1.0, 0.86, 2) == pytest.approx(0.0754, abs=1e-3)
    assert depth_value(0.84, 0.80, 4) == pytest.approx(0.0061, abs=1e-3)
    assert depth_value(0.0, 0.86, 2) == float("-inf")


def test_params_validation():
    # nan < 0 is false: a sign check alone returned all-NaN matrices
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite and non-negative"):
            dephasing_factors(4, bad)
        with pytest.raises(ValueError, match="must be finite and non-negative"):
            thermalize(np.eye(4) / 4, bad, 0.1)
        with pytest.raises(ValueError, match="must be finite and non-negative"):
            thermalize(np.eye(4) / 4, 1.0, bad)
