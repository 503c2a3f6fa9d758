import math
import re
import sys
import threading
from itertools import product
from math import lgamma

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from qngcoh.fock import (FockPair, GaussianParams, ParamRangeError,
                         TruncationRiskError, UnsupportedOrderError,
                         bogoliubov_displacement, build_gaussian_matrix,
                         coherence_quantifier, coherent_amplitude,
                         ideal_superposition, sdf_amplitude, sdf_amplitude_raw)
from conftest import (assert_density_matrix, gaussian_fock_state, oracle_dim_for,
                      random_density_matrix, thermal_density_matrix, thermal_spin_osc)


def lowering_operator(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    k = np.arange(1, dim)
    a[k - 1, k] = np.sqrt(k)
    return a


def dense_gaussian_matrix(g: GaussianParams, dim: int, pad: int) -> np.ndarray:
    """Dense-``expm`` oracle for ``build_gaussian_matrix``: both generators
    exponentiated as full matrices at ``dim + pad`` levels, then cropped."""
    a = lowering_operator(dim + pad)
    ad = a.conj().T
    xi = g.xi_mag * np.exp(1j * g.xi_phase)
    alpha = g.alpha_mag * np.exp(1j * g.alpha_phase)
    squeeze = expm(0.5 * (np.conj(xi) * (a @ a) - xi * (ad @ ad)))
    displace = expm(alpha * ad - np.conj(alpha) * a)
    return (squeeze @ displace)[:dim, :dim]


def list_ladder(kmax: int, xy, ysq) -> list:
    """Scaled Hermite ladder ``h_0..h_kmax`` (and one more for kmax = 0) as a list."""
    h = [np.ones_like(xy * 0j + 1.0), 2.0 * xy]
    for k in range(1, kmax):
        h.append(2.0 * xy * h[k] - 2.0 * k * ysq * h[k - 1])
    return h


def per_index_amplitude(m: int, n: int, r, th, amag, aph):
    """``<m|S(xi)D(alpha)|n>`` one index pair at a time: the per-index form
    of the ladder contraction, a plain loop over the contraction order."""
    alpha = amag * np.exp(1j * aph)
    t, c = np.tanh(r), np.cosh(r)
    tau, tau_conj = t * np.exp(1j * th), t * np.exp(-1j * th)
    a00 = np.exp(-0.5 * amag ** 2 + 0.5 * tau_conj * alpha ** 2) / np.sqrt(c)
    h_m = list_ladder(m, alpha / (2.0 * c), tau / 2.0)
    h_n = list_ladder(n, (tau_conj * alpha - np.conj(alpha)) / 2.0, -tau_conj / 2.0)
    acc = 0j
    for i in range(min(m, n) + 1):
        w = math.exp(0.5 * (lgamma(m + 1) + lgamma(n + 1)) - lgamma(i + 1)
                     - lgamma(m - i + 1) - lgamma(n - i + 1))
        acc = acc + w * h_m[m - i] * h_n[n - i] / c ** i
    return a00 * acc


def reference_block_amplitude(m, n, xi_mag, xi_phase, alpha_mag, alpha_phase):
    """The block contraction as a plain loop: stacked list ladders, clamped
    rows recomputed per term, zero weights past ``min(m, n)`` and a fresh
    accumulator per term.  Same operations in the same order as
    ``sdf_amplitude_raw`` (the displacement phase gauged away, running powers
    of ``1/cosh r``, one flat point axis even for a 0-d call), so the two
    agree bit for bit."""
    ms, ns = np.asarray(m, dtype=int), np.asarray(n, dtype=int)
    r, th, amag, aph = (x.reshape(-1) for x in np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (xi_mag, xi_phase, alpha_mag, alpha_phase))))
    shape = np.broadcast_shapes(*(np.shape(x) for x in (xi_mag, xi_phase, alpha_mag,
                                                         alpha_phase)))
    if aph.any():
        th = th - 2.0 * aph
    cinv, half_a = 1.0 / np.cosh(r), 0.5 * amag
    tau = np.tanh(r) * np.exp(1j * th)
    tau_conj = np.conj(tau)
    a00 = np.exp(half_a * amag * (tau_conj - 1.0)) * np.sqrt(cinv)
    h_m = np.stack(list_ladder(ms.max(), half_a * cinv, 0.5 * tau)[: ms.max() + 1])
    h_n = np.stack(list_ladder(ns.max(), half_a * (tau_conj - 1.0),
                               -0.5 * tau_conj)[: ns.max() + 1])

    mv, nv = ms.ravel(), ns.ravel()
    w = np.zeros((min(mv.max(), nv.max()) + 1, mv.size, nv.size, 1))
    for (a, mi), (b, ni) in product(enumerate(mv.tolist()), enumerate(nv.tolist())):
        for i in range(min(mi, ni) + 1):
            w[i, a, b] = math.exp(0.5 * (lgamma(mi + 1) + lgamma(ni + 1)) - lgamma(i + 1)
                                  - lgamma(mi - i + 1) - lgamma(ni - i + 1))
    acc, scale = np.zeros((mv.size, nv.size) + r.shape, dtype=complex), 1.0
    for i in range(len(w)):
        acc = acc + (w[i] * h_m[np.maximum(mv - i, 0)][:, None]
                     * (h_n[np.maximum(nv - i, 0)] * scale)[None])
        scale = scale * cinv
    out = a00[None, None] * acc
    if aph.any():
        out = out * np.exp(1j * ((mv[:, None] - nv[None])[..., None] * aph))
    return out.reshape(ms.shape + ns.shape + shape)


class TestCoherentAmplitude:
    def test_vacuum_overlap(self):
        assert coherent_amplitude(0, 0) == 1.0

    def test_orthogonality(self):
        assert coherent_amplitude(1, 0) == 0.0

    def test_two_photon_value(self):
        # exp(-1/2)/sqrt(2), cross-checked against the displacement matrix
        expected = math.exp(-0.5) / math.sqrt(2.0)
        assert coherent_amplitude(2, 1.0) == pytest.approx(expected, abs=1e-12)
        mat = build_gaussian_matrix(GaussianParams(alpha_mag=1.0), 8)
        assert mat[2, 0] == pytest.approx(expected, abs=1e-10)

    def test_matches_displacement_matrix_for_large_n(self):
        alpha = 2.3 * np.exp(0.7j)
        mat = build_gaussian_matrix(
            GaussianParams.from_complex(0.0, alpha), 40, pad=60)
        for n in (0, 5, 17, 25):
            assert coherent_amplitude(n, alpha) == pytest.approx(
                complex(mat[n, 0]), abs=1e-10)


class TestGaussianMatrix:
    def test_identity_at_zero_params(self):
        mat = build_gaussian_matrix(GaussianParams(), 8)
        assert np.max(np.abs(mat - np.eye(8))) < 1e-12

    def test_column_zero_is_coherent_state(self):
        mat = build_gaussian_matrix(GaussianParams(alpha_mag=1.0), 16)
        for n in range(13):
            assert mat[n, 0] == pytest.approx(coherent_amplitude(n, 1.0),
                                              abs=1e-10)

    def test_squeezed_vacuum_parity(self):
        mat = build_gaussian_matrix(GaussianParams(xi_mag=0.5), 32)
        assert np.max(np.abs(mat[1::2, 0])) < 1e-12

    def test_low_block_unitarity(self):
        # the half-block isometry of the crop holds for weak squeezing only:
        # a squeezed column k spreads over ~cosh(2 xi_mag) k levels, so above
        # |xi| ~ 0.15 column dim/2 spills past the crop no matter the dim
        dim = 96
        for g in (GaussianParams(alpha_mag=2.0, alpha_phase=0.4),
                  GaussianParams(0.15, 1.1, 1.2, 0.3)):
            u = build_gaussian_matrix(g, dim, pad=oracle_dim_for(g, dim // 2))
            defect = u.conj().T @ u - np.eye(dim)
            assert np.max(np.abs(defect[: dim // 2, : dim // 2])) < 1e-8

    @pytest.mark.parametrize("dim, pad, g", [
        (8, 32, GaussianParams(0.3, 0.4, 1.1, 2.0)),
        (9, 17, GaussianParams(1.2, 5.9, 0.4, 4.4)),
        (128, 32, GaussianParams(0.8, 2.1, 1.7, 0.6)),     # recheck dimensions
        (256, 32, GaussianParams(1.9, 3.3, 2.5, 5.1)),
        (12, 420, GaussianParams(1.6, 0.9, 4.0, 1.3)),     # largest sweep pad
    ])
    def test_matches_dense_expm_oracle(self, dim, pad, g):
        tri = build_gaussian_matrix(g, dim, pad=pad)
        assert np.max(np.abs(tri - dense_gaussian_matrix(g, dim, pad))) < 1e-12

    def test_small_pad_rejected(self):
        with pytest.raises(TruncationRiskError):
            build_gaussian_matrix(GaussianParams(), 8, pad=4)


class TestSdfAmplitude:
    def test_identity(self):
        g = GaussianParams()
        for k in (0, 1, 5, 11):
            assert sdf_amplitude(k, k, g) == pytest.approx(1.0, abs=1e-12)

    def test_reduces_to_coherent_amplitude(self):
        g = GaussianParams(alpha_mag=1.0)
        assert sdf_amplitude(2, 0, g) == pytest.approx(
            math.exp(-0.5) / math.sqrt(2.0), abs=1e-12)

    def test_published_cross_check_state(self):
        # displaced squeezed |1>: squeeze 0.2, then displacement with
        # |alpha|^2 = 0.937 applied after the squeeze
        beta = bogoliubov_displacement(math.sqrt(0.937), 0.2)
        g = GaussianParams.from_complex(0.2, beta)
        c03 = 2 * abs(sdf_amplitude(0, 1, g) * np.conj(sdf_amplitude(3, 1, g)))
        assert c03 == pytest.approx(0.6293, abs=1e-3)

    def test_range_error(self):
        with pytest.raises(ParamRangeError):
            sdf_amplitude(0, 0, GaussianParams(xi_mag=2.5))
        with pytest.raises(ParamRangeError):
            sdf_amplitude(0, 0, GaussianParams(alpha_mag=7.0))
        with pytest.raises(UnsupportedOrderError):
            sdf_amplitude(65, 0, GaussianParams())

    def test_matrix_oracle_agreement_spot(self, rng):
        # moderate parameters keep the oracle cheap here; the full
        # validated-range 1e3-point sweep runs with the acceptance suite
        for _ in range(40):
            m, n = int(rng.integers(0, 11)), int(rng.integers(0, 11))
            g = GaussianParams(rng.uniform(0, 1.0), rng.uniform(0, 2 * np.pi),
                               rng.uniform(0, 2.0), rng.uniform(0, 2 * np.pi))
            dim = max(m, n) + 1
            mat = build_gaussian_matrix(g, dim, pad=oracle_dim_for(g, dim))
            assert abs(sdf_amplitude(m, n, g) - mat[m, n]) < 1e-8

    def test_batch_matches_scalar(self, rng):
        # a scalar call runs on the same one point axis as a batch: same bits
        r = rng.uniform(0, 1.5, 16)
        th = rng.uniform(0, 2 * np.pi, 16)
        am = rng.uniform(0, 3.0, 16)
        ap = rng.uniform(0, 2 * np.pi, 16)
        batch = sdf_amplitude_raw(3, 2, r, th, am, ap)
        for i in range(16):
            g = GaussianParams(r[i], th[i], am[i], ap[i])
            assert batch[i] == sdf_amplitude(3, 2, g)

    def test_block_matches_per_index(self, rng):
        # rows above and below every column index, and squeezing down to zero
        ms, ks = range(0, 11, 5), range(1, 10, 2)
        for npts in (1, 33):
            r = rng.uniform(0, 2.0, npts)
            r[: npts // 3] = 0.0
            r[npts // 3: npts // 2] = 1e-12
            th, am, ap = (rng.uniform(0, 2 * np.pi, npts), rng.uniform(0, 6.0, npts),
                          rng.uniform(0, 2 * np.pi, npts))
            block = sdf_amplitude_raw(ms, ks, r, th, am, ap)
            assert block.shape == (len(ms), len(ks), npts)
            for a, m in enumerate(ms):
                for b, k in enumerate(ks):
                    ref = per_index_amplitude(m, k, r, th, am, ap)
                    assert np.max(np.abs(block[a, b] - ref)) < 1e-12
        assert sdf_amplitude_raw(3, ks, 0.2, 1.0, 0.5, 0.0).shape == (len(ks),)

    @pytest.mark.parametrize("pair", [(0, 1), (0, 2), (0, 3), (0, 4), (0, 6),
                                      (1, 2), (1, 3), (2, 3)], ids=lambda p: f"{p[0]},{p[1]}")
    def test_block_bit_identical_to_reference_loop(self, rng, pair):
        # every call shape the library makes: the search block at its batch
        # sizes, the MC intrinsic and genuine blocks, and squeezing exactly 0
        m, n = pair

        def points(npts):
            r = rng.uniform(0, 2.0, npts)
            r[: npts // 4] = 0.0
            return r, rng.uniform(0, 2 * np.pi, npts), rng.uniform(0, 6.0, npts)

        calls = [((m, n), range(11), *points(npts), 0.0) for npts in (1, 2, 33, 120, 1920)]
        calls += [((m, n), k, *points(16384), 0.0) for k in (0, 3, 10)]
        calls += [((m, n), range(n), *points(16384), 0.0),
                  ((m, n), range(11), np.zeros(40), *points(40)[1:], 0.0)]
        for call in calls:
            got, want = sdf_amplitude_raw(*call), reference_block_amplitude(*call)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("pair", [(0, 1), (0, 6), (2, 3), (3, 10), (9, 10)],
                             ids=lambda p: f"{p[0]},{p[1]}")
    def test_per_point_inputs_equal_the_block(self, rng, pair):
        # an index of two axes gives each point its own inputs: each entry
        # equals the block's for the same input and point, at the search's
        # batch sizes and the MC call shapes, with squeezing exactly 0
        m, n = pair
        for npts in (1, 2, 19, 1728, 16384):
            r = rng.uniform(0, 2.0, npts)
            r[: npts // 4] = 0.0
            th, am = rng.uniform(0, 2 * np.pi, npts), rng.uniform(0, 6.0, npts)
            at = np.arange(npts)
            block = sdf_amplitude_raw((m, n), range(11), r, th, am, 0.0)
            ks = rng.integers(0, 11, npts)
            got = sdf_amplitude_raw((m, n), ks[None], r, th, am, 0.0)
            assert got.shape == (2, 1, npts)
            assert np.array_equal(got[:, 0], block[:, ks, at])
            # MC intrinsic: one input for every point; MC genuine: inputs 0 .. n-1
            for k in (0, 3, 10):
                got = sdf_amplitude_raw((m, n), np.full((1, npts), k), r, th, am, 0.0)
                assert np.array_equal(got[:, 0], sdf_amplitude_raw((m, n), k, r, th, am, 0.0))
            inputs = np.repeat(np.arange(n)[:, None], npts, axis=1)
            assert np.array_equal(sdf_amplitude_raw((m, n), inputs, r, th, am, 0.0),
                                  sdf_amplitude_raw((m, n), range(n), r, th, am, 0.0))
        # inputs broadcast against scalar and arrayed parameters, phases included
        ks, aph = rng.integers(0, 11, (3, 40)), rng.uniform(0, 2 * np.pi, 40)
        got = sdf_amplitude_raw(m, ks, 0.3, 1.1, am[:40], aph)
        block = sdf_amplitude_raw(m, range(11), 0.3, 1.1, am[:40], aph)
        assert got.shape == (3, 40)
        assert np.array_equal(got, np.take_along_axis(block, ks, axis=0))
        got = sdf_amplitude_raw((m, n), np.array([[2], [7]]), 0.3, 1.1, am[:40], 0.0)
        assert np.array_equal(got, sdf_amplitude_raw((m, n), [2, 7], 0.3, 1.1, am[:40], 0.0))
        # scalar parameters are a one-point batch, per-point inputs or not
        lo, hi = sorted((n, 4))
        assert np.array_equal(sdf_amplitude_raw(m, [[lo], [hi]], 0.2, 0.5, 1.5, 0.7),
                              sdf_amplitude_raw(m, [lo, hi], 0.2, 0.5, 1.5, 0.7)[:, None])

    def test_scalar_and_mixed_bit_identical_to_reference_loop(self, rng):
        calls = [(1, 2, 0.1, 0.2, 0.3, 0.0), (4, 4, 0.0, 1.1, 2.0, 0.4),
                 (0, 0, 0.0, 0.0, 0.0, 0.0),
                 (range(0, 11, 5), range(1, 10, 2), 0.3, rng.uniform(0, 6, 7), 1.2,
                  rng.uniform(0, 6, 7)),
                 (3, [0, 4], rng.uniform(0, 2, (3, 4)), 0.5, 2.0, 0.0),
                 (range(11), 4, rng.uniform(0, 2, 5), 0.5, rng.uniform(0, 6, 5), 1.0)]
        calls += [(int(rng.integers(0, 11)), int(rng.integers(0, 11)),
                   *rng.uniform(0, 2, 2), *rng.uniform(0, 6, 2)) for _ in range(50)]
        for call in calls:
            got, want = sdf_amplitude_raw(*call), reference_block_amplitude(*call)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)

    def test_displacement_phase_against_oracle_and_per_index_loop(self, rng):
        # the phase is gauged away inside the kernel; the matrix oracle and the
        # per-index loop keep a complex displacement
        for _ in range(12):
            m, n = (int(k) for k in rng.integers(0, 11, 2))
            g = GaussianParams(rng.uniform(0, 1.0), rng.uniform(0, 2 * np.pi),
                               rng.uniform(0, 2.0), rng.uniform(0.1, 2 * np.pi))
            mat = build_gaussian_matrix(g, max(m, n) + 1, pad=oracle_dim_for(g, max(m, n) + 1))
            got = sdf_amplitude_raw(m, n, g.xi_mag, g.xi_phase, g.alpha_mag, g.alpha_phase)
            assert np.shape(got) == ()
            assert abs(got - mat[m, n]) < 1e-8
            assert abs(got - per_index_amplitude(m, n, g.xi_mag, g.xi_phase, g.alpha_mag,
                                                 g.alpha_phase)) < 1e-12
        # per-point inputs with a phase per point
        npts = 40
        r, th = rng.uniform(0, 1.0, npts), rng.uniform(0, 2 * np.pi, npts)
        am, ap = rng.uniform(0, 2.0, npts), rng.uniform(0, 2 * np.pi, npts)
        ap[::5] = 0.0
        ks = rng.integers(0, 11, npts)
        got = sdf_amplitude_raw((2, 7), ks[None], r, th, am, ap)
        assert got.shape == (2, 1, npts)
        for i in range(npts):
            g = GaussianParams(r[i], th[i], am[i], ap[i])
            mat = build_gaussian_matrix(g, 11, pad=oracle_dim_for(g, 11))
            for a, m in enumerate((2, 7)):
                assert abs(got[a, 0, i] - mat[m, ks[i]]) < 1e-8
                assert abs(got[a, 0, i] - per_index_amplitude(m, int(ks[i]), r[i], th[i],
                                                              am[i], ap[i])) < 1e-12

    @pytest.mark.parametrize("ms, ks", [
        ([3, 0], 1), (2, [4, 1, 0]), ([0, 3, 3], 1), (1, [2, 2]), ([0, 2, 5], 1),
        (0, [0, 1, 3, 7]), (-1, 2), (1, -2), ([-1, 0, 1], 1), (1, [-2, 0, 2])],
        ids=["unsorted-m", "unsorted-n", "repeated-m", "repeated-n", "uneven-m", "uneven-n",
             "negative-m", "negative-n", "negative-run-m", "negative-run-n"])
    def test_blocks_other_than_stepped_runs_rejected(self, rng, ms, ks):
        # a block is a non-negative index or an evenly stepped ascending run;
        # a rejected block raises again on a second call, and per-point inputs
        # do not slip a bad row block through
        for params in [(0.4, 1.3, 2.2, 0.0),
                       (rng.uniform(0, 2, 33), rng.uniform(0, 2 * np.pi, 33),
                        rng.uniform(0, 6, 33), rng.uniform(0, 2 * np.pi, 33))]:
            for _ in range(2):
                with pytest.raises(ValueError, match="evenly stepped ascending run"):
                    sdf_amplitude_raw(ms, ks, *params)
        if isinstance(ms, list) or ms < 0:   # the row block is the bad one
            with pytest.raises(ValueError, match="evenly stepped ascending run"):
                sdf_amplitude_raw(ms, np.zeros((1, 33), dtype=int), *params)
        # a good block still runs, a 0-d call as a one-point batch
        assert sdf_amplitude_raw(1, 2, 0.4, 1.3, 2.2, 0.0) == sdf_amplitude_raw(
            [1], [2], [0.4], 1.3, 2.2, 0.0)[0, 0, 0]

    def test_negative_per_point_input_rejected(self):
        # input -1 used to wrap to the weight table's last column and read a
        # clipped ladder row: moduli 0.477 and 1.368, above 1 for an amplitude
        for _ in range(2):
            with pytest.raises(ValueError, match="per-point inputs must be non-negative"):
                sdf_amplitude_raw((0, 1), np.array([[-1, 2]]), [0.3, 0.3], 0.5, 1.0, 0.0)
        out = sdf_amplitude_raw((0, 1), np.array([[0, 2]]), [0.3, 0.3], 0.5, 1.0, 0.0)
        assert np.all(np.abs(out) <= 1.0)

    def test_threads_calling_at_once_get_the_serial_blocks(self, rng):
        # each call has its own workspace: more threads than cores, switching
        # often, all reproduce their serial result bit for bit
        npts = 1728
        calls = [((0, 3), range(11), *rng.uniform(0, 2, (3, npts)), 0.0),
                 ((1, 3), np.tile(np.arange(11), 158)[None, :npts], *rng.uniform(0, 2, (3, npts)),
                  0.0),
                 ((2, 5), range(5), *rng.uniform(0, 2, (3, npts)), rng.uniform(0, 6, npts)),
                 ((0, 6), 4, *rng.uniform(0, 2, (3, npts)), 0.0)]
        want = [sdf_amplitude_raw(*call) for call in calls]
        mismatches, interval = [], sys.getswitchinterval()

        def run(j):
            for _ in range(20):
                if not np.array_equal(sdf_amplitude_raw(*calls[j % 4]), want[j % 4]):
                    mismatches.append(j)

        threads = [threading.Thread(target=run, args=(j,)) for j in range(8)]
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    def test_bogoliubov_identity(self):
        # D(alpha) S(xi) = S(xi) D(beta) as truncated matrices
        dim = 60
        a = lowering_operator(dim)
        ad = a.conj().T
        xi, alpha = 0.4 * np.exp(0.9j), 1.1 * np.exp(-0.4j)
        beta = bogoliubov_displacement(alpha, xi)
        s = expm(0.5 * (np.conj(xi) * (a @ a) - xi * (ad @ ad)))
        d_alpha = expm(alpha * ad - np.conj(alpha) * a)
        d_beta = expm(beta * ad - np.conj(beta) * a)
        lhs = (d_alpha @ s)[:20, :20]
        rhs = (s @ d_beta)[:20, :20]
        assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestCoherenceQuantifier:
    def test_ideal_superposition(self):
        pair = FockPair(0, 1)
        rho = ideal_superposition(pair, 8)
        assert rho.shape == (8, 8)
        assert_density_matrix(rho)
        assert coherence_quantifier(rho, pair) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        rho = np.eye(2, dtype=complex) / 2
        assert_density_matrix(rho)
        assert coherence_quantifier(rho, FockPair(0, 1)) == 0.0

    def test_displaced_fock_published_value(self):
        # D(alpha)|1> with |alpha|^2 = 0.586 reaches C_{0,2} = 0.652
        g = GaussianParams(alpha_mag=math.sqrt(0.586))
        psi = gaussian_fock_state(g, 1, 64)
        rho = np.outer(psi, psi.conj())
        assert coherence_quantifier(rho, FockPair(0, 2)) == pytest.approx(
            0.652, abs=1e-3)

    @pytest.mark.parametrize("shape", [(3, 5), (5,), (2, 4, 4)])
    def test_rejects_non_square_input(self, shape):
        # named in the error, not read as 0.0 or failed on an index
        with pytest.raises(ValueError, match=re.escape(f"square, got shape {shape}")):
            coherence_quantifier(np.zeros(shape, dtype=complex), FockPair(0, 1))

    @given(p=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
    def test_convexity(self, p, seed):
        rng = np.random.default_rng(seed)
        dim = 6
        rho1 = random_density_matrix(rng, dim)
        rho2 = random_density_matrix(rng, dim)
        pair = FockPair(0, 2)
        mixed = coherence_quantifier(p * rho1 + (1 - p) * rho2, pair)
        bound = (p * coherence_quantifier(rho1, pair)
                 + (1 - p) * coherence_quantifier(rho2, pair))
        assert mixed <= bound + 1e-12

    def test_population_bound(self, rng):
        # Cauchy-Schwarz: C_{m,n} <= 2 sqrt(rho_mm rho_nn)
        for _ in range(50):
            rho = random_density_matrix(rng, 8)
            pair = FockPair(int(rng.integers(0, 4)), int(rng.integers(4, 8)))
            bound = 2 * math.sqrt(rho[pair.m, pair.m].real
                                  * rho[pair.n, pair.n].real)
            assert coherence_quantifier(rho, pair) <= bound + 1e-12


class TestDomainTypes:
    def test_fock_pair_canonical_order(self):
        pair = FockPair(3, 1)
        assert (pair.m, pair.n) == (1, 3)
        assert pair.delta == 2
        assert FockPair(np.int64(3), np.int32(1)) == pair

    def test_fock_pair_rejects_equal_and_negative(self):
        with pytest.raises(ValueError):
            FockPair(2, 2)
        with pytest.raises(ValueError):
            FockPair(-1, 2)

    @pytest.mark.parametrize("m, n", [(0, 2.7), (0, 2.0), (True, 2), (0, False),
                                      ("0", "2"), (np.float64(1.0), 3), (np.True_, 2)])
    def test_fock_pair_takes_integer_indices_only(self, m, n):
        # int() used to truncate 2.7 to 2, read True as 1 and parse "0"
        with pytest.raises(ValueError, match="Fock indices must be integers"):
            FockPair(m, n)

    def test_gaussian_params_normalization(self):
        g = GaussianParams(0.5, 2 * math.pi + 0.25, 1.0, -0.5)
        assert g.xi_phase == pytest.approx(0.25)
        assert g.alpha_phase == pytest.approx(2 * math.pi - 0.5)
        with pytest.raises(ValueError):
            GaussianParams(xi_mag=-0.1)

    @pytest.mark.parametrize("field", ["xi_mag", "xi_phase", "alpha_mag", "alpha_phase"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_gaussian_params_reject_non_finite(self, field, value):
        # nan < 0 is false, so a sign check alone let NaN through to the kernel
        with pytest.raises(ValueError, match="finite"):
            GaussianParams(**{field: value})

    def test_density_matrix_validation(self):
        # the test-local check that other tests rely on must be able to fail
        assert_density_matrix(np.diag([0.25, 0.75]).astype(complex))
        for bad in (np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex),
                    np.diag([0.7, 0.7]).astype(complex),
                    np.diag([1.5, -0.5]).astype(complex)):
            with pytest.raises(AssertionError):
                assert_density_matrix(bad)

    def test_thermal_state(self):
        # the density-matrix reference of the Ramsey thermal start: geometric
        # populations in the ground row, bit for bit the thermal reference,
        # zero elsewhere
        for nbar in (0.0, 0.07, 0.5):
            rho = thermal_spin_osc(nbar, 24)
            assert np.array_equal(rho[:24, :24], thermal_density_matrix(nbar, 24))
            assert not np.any(rho[24:]) and not np.any(rho[:, 24:])
            assert_density_matrix(rho)
        pops = np.diag(thermal_spin_osc(0.07, 24)).real
        assert pops[0] == pytest.approx(1 / 1.07, abs=1e-6)
        assert pops.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("nbar", [math.nan, math.inf, -0.5])
    def test_thermal_state_rejects_bad_occupation(self, nbar):
        with pytest.raises(ValueError, match="mean occupation"):
            thermal_spin_osc(nbar, 4)

    @pytest.mark.parametrize("nbar", [0.0, 0.5])
    def test_thermal_state_rejects_empty_space(self, nbar):
        with pytest.raises(ValueError, match="dim=0"):
            thermal_spin_osc(nbar, 0)
