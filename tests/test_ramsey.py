import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import nnls

from qngcoh import ramsey as ramsey_module
from qngcoh.channels import TruncationError
from qngcoh.fock import FockPair
from qngcoh.ramsey import (ROW_G, ConditioningError, FitError, MappingConditionError,
                           NoiseConfig, PulseKind, PulseSpec, _apply_unitaries,
                           _delay_channels, _nnls, _prepare, _rotate, _scan_readout,
                           build_sequence_0n, build_sequence_mn, decay_scan,
                           find_mapping_pulse, fit_fringe, fit_populations, run_ramsey,
                           simulation_dim)
from qngcoh.thresholds import ThresholdKind, threshold
from conftest import (assert_density_matrix, motional_populations, prepared_state,
                      thermal_spin_osc)

PHASES = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)

# the spectroscopy constants used throughout the population-fit tests
CARRIER_RABI = 2 * math.pi * 34.8e3
ETA = 0.063
GAMMA0 = 2 * math.pi * 0.042e3
X_EXP = 0.7


def rabi_components(times, n_max):
    """Decaying carrier oscillation of each phonon number, one column each."""
    ns = np.arange(n_max + 1)
    omega = CARRIER_RABI * ETA * np.sqrt(ns + 1.0)
    gamma = GAMMA0 * (ns + 1.0) ** X_EXP
    return np.cos(np.outer(times, omega)) * np.exp(-np.outer(times, gamma))


def rabi_signal(populations, times, n_max):
    """Ground-state Rabi trace generated from the same decay model."""
    pg = 0.5 * (1.0 + rabi_components(times, n_max) @ np.asarray(populations))
    return np.column_stack([times, pg])


def ground(dim: int) -> np.ndarray:
    """Pure state |g,0> on {g, e, shelf} x Fock, as a (3, dim) array."""
    amps = np.zeros((3, dim), dtype=complex)
    amps[ROW_G, 0] = 1.0
    return amps


def apply_pulse(amps: np.ndarray, pulse: PulseSpec) -> np.ndarray:
    """One pulse on a copy of a (3, dim) pure state: the one-sided reference
    for the two-sided density-matrix pulse."""
    return _rotate(amps.copy(), pulse.kind, pulse.area, pulse.phase)


class TestPulses:
    def test_bsb_pi_full_flop(self):
        out = apply_pulse(ground(8), PulseSpec(PulseKind.BSB, math.pi))
        assert abs(out[1, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_bsb_half_pulse_superposition(self):
        out = apply_pulse(ground(8), PulseSpec(PulseKind.BSB, math.pi / 2))
        assert out[0, 0] == pytest.approx(1 / math.sqrt(2))
        assert out[1, 1] == pytest.approx(-1j / math.sqrt(2))

    def test_rsb_on_ground_is_identity(self):
        state = ground(8)
        out = apply_pulse(state, PulseSpec(PulseKind.RSB, 2.345, 0.6))
        assert np.array_equal(out, state)

    @given(kind=st.sampled_from(list(PulseKind)),
           area=st.floats(0.0, 4 * math.pi), phase=st.floats(0, 2 * math.pi),
           seed=st.integers(0, 2**31))
    def test_shelve_round_trip(self, kind, area, phase, seed):
        # every kind followed by its inverse is the identity; for the shelving
        # pulse the inverse is the closing pulse of build_sequence_0n
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=(3, 10)) + 1j * rng.normal(size=(3, 10))
        amps[:, -1] = 0.0  # stay clear of the truncation edge
        pulse = PulseSpec(kind, area, phase)
        back = apply_pulse(apply_pulse(amps, pulse), pulse.inverse())
        assert np.max(np.abs(back - amps)) < 1e-12
        shelved = apply_pulse(ground(6), PulseSpec(PulseKind.SHELVE, math.pi))
        assert abs(shelved[2, 0]) == pytest.approx(1.0)

    @given(kind=st.sampled_from(list(PulseKind)),
           area=st.floats(0.0, 4 * math.pi), phase=st.floats(0, 2 * math.pi),
           seed=st.integers(0, 2**31))
    def test_norm_preserved(self, kind, area, phase, seed):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=(3, 10)) + 1j * rng.normal(size=(3, 10))
        amps[:, -1] = 0.0  # stay clear of the truncation edge
        amps /= np.linalg.norm(amps)
        out = apply_pulse(amps, PulseSpec(kind, area, phase))
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)

    def test_density_matrix_truncation_edge_raises(self):
        # blue sideband with the top ground level populated, red sideband with
        # the top excited level populated, also when an earlier pulse of the
        # same sequence moved the population there
        dim = 4
        bsb, rsb = PulseSpec(PulseKind.BSB, math.pi), PulseSpec(PulseKind.RSB, math.pi)
        cases = (([bsb], dim - 1), ([rsb], 2 * dim - 1),
                 ([rsb, bsb], 2 * dim - 2), ([bsb, rsb], dim - 2))
        for pulses, level in cases:
            rho = np.zeros((3 * dim, 3 * dim), dtype=complex)
            rho[level, level] = 1.0
            with pytest.raises(TruncationError):
                _apply_unitaries(rho.copy()[..., None], pulses, dim)
            _apply_unitaries(rho[..., None], pulses[:-1], dim)

    def test_factored_preparation_truncation_edge_raises(self):
        # from a thermal start at nbar 0.5 the top ground rung is occupied; a
        # blue sideband pi lifts |g,0> to the top excited rung at dim 2, where
        # a red sideband would lift it out and a blue one finds the edge empty
        bsb, rsb = PulseSpec(PulseKind.BSB, math.pi), PulseSpec(PulseKind.RSB, math.pi)

        def prepare(pulses, nbar, dim):
            return _prepare(pulses, nbar, dim, [p.area for p in pulses],
                            [p.phase for p in pulses])

        for pulses, nbar, dim in (([bsb], 0.5, 4), ([bsb, rsb], 0.0, 2)):
            with pytest.raises(TruncationError, match="pulse at the truncation edge"):
                prepare(pulses, nbar, dim)
            prepare(pulses[:-1], nbar, dim)
        prepare([bsb, bsb], 0.0, 2)

    def test_scan_readout_truncation_edge_raises(self):
        dim = 4
        for kind, level in ((PulseKind.BSB, dim - 1), (PulseKind.RSB, 2 * dim - 1)):
            rho = np.zeros((3 * dim, 3 * dim, 1), dtype=complex)
            rho[level, level] = 1.0
            with pytest.raises(TruncationError, match=f"{kind.value} pulse at the truncation"):
                _scan_readout(rho, kind, math.pi / 2, PHASES, dim)
            _scan_readout(rho, PulseKind.CARRIER, math.pi / 2, PHASES, dim)

    def test_pulse_detuning_reserved(self):
        # pulses are instantaneous and the model has no detuning
        with pytest.raises(TypeError):
            PulseSpec(PulseKind.BSB, 1.0, detuning=100.0)

    @pytest.mark.parametrize("area, phase", [(math.nan, 0.0), (math.inf, 0.0), (-0.1, 0.0),
                                             (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_pulse_rejected(self, area, phase):
        # nan < 0 is false, so a sign check alone let NaN and inf areas through
        with pytest.raises(ValueError, match="pulse (area|phase) must be finite"):
            PulseSpec(PulseKind.BSB, area, phase)

    def test_unitary_matches_pure_application(self, rng):
        # the two-sided density-matrix pulse against a mixture of pure-state
        # pulses, sum_i p_i |U psi_i><U psi_i|, for every pulse kind
        dim = 6
        for kind in PulseKind:
            pulse = PulseSpec(kind, 1.7, 0.9)
            rho = np.zeros((3 * dim, 3 * dim), dtype=complex)
            expected = np.zeros_like(rho)
            for p in rng.dirichlet(np.ones(4)):
                amps = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
                amps[:, -1] = 0.0  # stay clear of the truncation edge
                amps /= np.linalg.norm(amps)
                vec = amps.reshape(-1)
                rho += p * np.outer(vec, vec.conj())
                out = apply_pulse(amps, pulse).reshape(-1)
                expected += p * np.outer(out, out.conj())
            got = _apply_unitaries(rho[..., None], [pulse], dim)[..., 0]
            assert np.max(np.abs(got - expected)) < 1e-12, kind


#: every sequence the builders support
SUPPORTED_PAIRS = [(0, n) for n in range(1, 9)] + [(1, 2), (1, 3), (2, 3)]


def sequence_for(m: int, n: int):
    return build_sequence_0n(n) if m == 0 else build_sequence_mn(m, n)


@pytest.mark.parametrize("nbar", [0.0, 0.07])
@pytest.mark.parametrize("pair", SUPPORTED_PAIRS)
def test_factored_preparation_matches_two_sided_pulses(pair, nbar):
    # each pulse applied once to the factor of the thermal start, against
    # every pulse applied from both sides to its density matrix: exact pulses
    # on one matrix, and one jittered area and phase per matrix of 16
    seq = sequence_for(*pair)
    dim = simulation_dim(seq, NoiseConfig(initial_thermal_nbar=nbar), 0.0)
    rng = np.random.default_rng(sum(pair))
    exact = ([p.area for p in seq.prep], [p.phase for p in seq.prep])
    jittered = ([p.area * (1.0 + 0.02 * rng.standard_normal(16)) for p in seq.prep],
                [p.phase + 0.1 * rng.standard_normal(16) for p in seq.prep])
    for areas, phases in (exact, jittered):
        got = _prepare(seq.prep, nbar, dim, areas, phases)
        want = _apply_unitaries(thermal_spin_osc(nbar, dim)[..., None], seq.prep, dim,
                                areas, phases)
        assert got.shape == want.shape == (3 * dim, 3 * dim, np.size(areas[0]))
        assert np.max(np.abs(got - want)) < 1e-14


@pytest.mark.parametrize("kind", list(PulseKind))
def test_scan_readout_matches_applied_pulse(kind, rng):
    # the ground population read off before the scan pulse, against the pulse
    # applied from both sides and the ground block traced: one matrix read at
    # 16 phases, and 16 matrices with one area and phase each
    dim = 7
    cols = rng.normal(size=(16, 3, dim, 6)) + 1j * rng.normal(size=(16, 3, dim, 6))
    cols[:, :, -1] = 0.0  # stay clear of the truncation edge
    cols = cols.reshape(16, 3 * dim, 6)
    stack = (cols @ cols.conj().transpose(0, 2, 1)).transpose(1, 2, 0)
    stack /= np.trace(stack).real
    pulse = PulseSpec(kind, 1.7, 0.9)
    for rho, area in ((stack[..., :1], pulse.area),
                      (stack, pulse.area * (1.0 + 0.05 * rng.standard_normal(16)))):
        phase = pulse.phase + PHASES
        got = _scan_readout(rho, kind, area, phase, dim)
        after = _apply_unitaries(rho.copy(), [pulse], dim, [area], [phase])
        assert got.shape == (16,)
        assert np.max(np.abs(got - np.real(np.trace(after[:dim, :dim])))) < 1e-14


class TestSequences:
    def test_0n_structures(self):
        assert [p.kind for p in build_sequence_0n(1).prep] == [PulseKind.BSB]
        seq2 = build_sequence_0n(2)
        assert len(seq2.prep) == 2
        assert [p.kind for p in seq2.prep] == [PulseKind.BSB, PulseKind.RSB]
        seq4 = build_sequence_0n(4)
        kinds4 = [p.kind for p in seq4.prep]
        assert kinds4[1] == PulseKind.SHELVE and seq4.prep[-1] == seq4.prep[1].inverse()
        assert PulseKind.SHELVE not in [p.kind for p in seq2.prep]

    def test_0n_analysis_mirrors_prep(self):
        seq = build_sequence_0n(3)
        assert len(seq.analysis) == len(seq.prep)
        assert seq.analysis[-1].kind == PulseKind.BSB
        assert seq.analysis[-1].phase == pytest.approx(math.pi)

    def test_0n_range(self):
        with pytest.raises(ValueError):
            build_sequence_0n(0)
        with pytest.raises(ValueError):
            build_sequence_0n(9)

    def test_mn_variant_selection(self):
        assert build_sequence_mn(1, 2).meta["variant"] == "carrier"
        assert build_sequence_mn(1, 3).meta["variant"] == "bsb"

    def test_mn_delta_guard(self):
        with pytest.raises(ValueError):
            build_sequence_mn(1, 5)

    def test_mapping_scan_matches_bruteforce(self):
        for (m, n) in [(1, 2), (2, 3), (1, 3), (2, 4)]:
            found = find_mapping_pulse(m, n)
            # independent brute-force scan of the near-integer condition
            expected = next(j for j in range(200)
                            if abs((2 * j + 1) * math.sqrt(m / n) / 2
                                   - round((2 * j + 1) * math.sqrt(m / n) / 2))
                            <= 0.02)
            assert found["j"] == expected
            assert abs(found["l"] - round(found["l"])) <= 0.02

    def test_mapping_condition_error(self, monkeypatch):
        monkeypatch.setattr(ramsey_module, "MAPPING_J_MAX", 2)
        monkeypatch.setattr(ramsey_module, "MAPPING_TOL", 1e-4)
        with pytest.raises(MappingConditionError):
            find_mapping_pulse(2, 3)


class TestRunRamsey:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ideal_contrast(self, n):
        fringe = run_ramsey(build_sequence_0n(n), 0.0, NoiseConfig(), PHASES)
        assert fringe.contrast >= 1.0 - 1e-6

    def test_ideal_fringe_shape(self):
        fringe = run_ramsey(build_sequence_0n(2), 0.0, NoiseConfig(), PHASES)
        pes = np.array([p for _, p, _ in fringe.points])
        model = 0.5 * (1 + fringe.contrast
                       * np.cos(PHASES - fringe.fit_phase_offset))
        assert np.max(np.abs(pes - model)) < 1e-9

    def test_mixed_pair_ideal_contrast(self):
        for (m, n) in [(1, 2), (1, 3), (2, 3)]:
            fringe = run_ramsey(build_sequence_mn(m, n), 0.0, NoiseConfig(),
                                PHASES)
            assert fringe.contrast >= 0.99

    def test_dephasing_contrast_ratio(self):
        seq = build_sequence_0n(2)
        gamma_rate, delay = 20.0, 0.01
        base = run_ramsey(seq, 0.0, NoiseConfig(), PHASES).contrast
        noisy = run_ramsey(seq, delay, NoiseConfig(dephasing_rate=gamma_rate),
                           PHASES).contrast
        expected = math.exp(-gamma_rate * delay * 4 / 2)
        assert noisy / base == pytest.approx(expected, abs=1e-6)

    def test_thermal_contrast_decomposition(self):
        # at zero delay every thermal rung contributes its own in-phase
        # fringe through the closing half pulse: C = sum_k p_k sin^2 theta_k
        nbar = 0.07
        fringe = run_ramsey(build_sequence_0n(2), 0.0,
                            NoiseConfig(initial_thermal_nbar=nbar), PHASES)
        ks = np.arange(24)
        pk = (nbar / (1 + nbar)) ** ks / (1 + nbar)
        predicted = float(np.sum(pk * np.sin((math.pi / 2)
                                             * np.sqrt(ks + 1)) ** 2))
        assert fringe.contrast == pytest.approx(predicted, abs=1e-3)

    def test_shot_noise_and_seed_determinism(self):
        seq = build_sequence_0n(1)
        f1 = run_ramsey(seq, 0.0, NoiseConfig(), PHASES, shots=200, seed=5)
        f2 = run_ramsey(seq, 0.0, NoiseConfig(), PHASES, shots=200, seed=5)
        f3 = run_ramsey(seq, 0.0, NoiseConfig(), PHASES, shots=200, seed=6)
        assert f1.points == f2.points
        assert f1.points != f3.points
        assert all(p * 200 == round(p * 200) for _, p, _ in f1.points)

    def test_pulse_jitter_lowers_contrast(self):
        seq = build_sequence_0n(4)
        noisy = run_ramsey(seq, 0.0, NoiseConfig(pulse_error=0.05), PHASES,
                           seed=2)
        assert 0.5 < noisy.contrast < 1.0 - 1e-4

    @pytest.mark.parametrize("delay", [-0.01, math.nan, math.inf])
    def test_negative_or_non_finite_delay_rejected(self, delay):
        # a negative delay would amplify the coherence through exp(+Gamma (j-k)^2 / 2)
        with pytest.raises(ValueError, match="delay must be"):
            run_ramsey(build_sequence_0n(2), delay, NoiseConfig(dephasing_rate=1.0), PHASES)

    @pytest.mark.parametrize("name", [f.name for f in fields(NoiseConfig)])
    def test_non_finite_noise_rejected(self, name):
        # nan < 0 is false, so a sign check alone lets NaN through
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=name):
                NoiseConfig(**{name: value})

    def test_degenerate_scan_raises(self):
        with pytest.raises(FitError):
            run_ramsey(build_sequence_0n(1), 0.0, NoiseConfig(), [0.0, 0.0])
        with pytest.raises(ValueError):
            run_ramsey(build_sequence_0n(1), 0.0, NoiseConfig(), [])


def per_phase_fringe(seq, delay, noise, phases, shots, seed):
    """One preparation, delay and analysis of a single matrix per scan phase,
    with that phase's jitter; returns the exact P_e and the shot counts."""
    dim = simulation_dim(seq, noise, delay)
    children = np.random.SeedSequence((seed, 0x52414D)).spawn(len(phases) + 1)
    rng_shots = np.random.default_rng(children[-1])
    pulses = seq.prep + seq.analysis
    n_prep = len(seq.prep)
    pes, counts = [], []
    for i, phi in enumerate(phases):
        rng = np.random.default_rng(children[i])
        jit = noise.pulse_error * rng.standard_normal(len(pulses))
        areas = [p.area * max(0.0, 1.0 + j) for p, j in zip(pulses, jit)]
        offsets = [p.phase for p in pulses]
        offsets[-1] += phi
        rho = thermal_spin_osc(noise.initial_thermal_nbar, dim)[..., None]
        rho = _apply_unitaries(rho, seq.prep, dim, areas[:n_prep], offsets[:n_prep])
        rho = _delay_channels(rho, delay, noise, dim)
        rho = _apply_unitaries(rho, seq.analysis, dim, areas[n_prep:],
                               offsets[n_prep:])
        pg = float(np.real(np.trace(rho[:dim, :dim, 0])))
        pe = min(1.0, max(0.0, 1.0 - pg))
        pes.append(pe)
        counts.append(rng_shots.binomial(shots, pe))
    return np.array(pes), np.array(counts)


@pytest.mark.parametrize("pair", [(0, 4), (1, 3)])
def test_batched_fringe_matches_per_phase_runs(pair):
    # a shelved (0,n) ladder and an (m,n) mapping sequence, with every
    # channel of the delay and jittered pulses
    m, n = pair
    seq = build_sequence_0n(n) if m == 0 else build_sequence_mn(m, n)
    noise = NoiseConfig(initial_thermal_nbar=0.07, heating_rate=3.2,
                        dephasing_rate=1.0, pulse_error=0.02)
    delay, shots, seed = 0.004, 200, 11
    pes, counts = per_phase_fringe(seq, delay, noise, PHASES, shots, seed)
    exact = run_ramsey(seq, delay, noise, PHASES, seed=seed)
    sampled = run_ramsey(seq, delay, noise, PHASES, shots=shots, seed=seed)
    got = np.array([pe for _, pe, _ in exact.points])
    assert np.max(np.abs(got - pes)) < 1e-12
    assert [pe for _, pe, _ in sampled.points] == list(counts / shots)
    assert 0.0 < exact.contrast < 1.0


class TestFringeFit:
    def test_round_trip_within_two_sigma(self):
        # >= 95% of seeded trials recover the true contrast within 2 SE
        rng_master = np.random.SeedSequence(77)
        hits, trials = 0, 200
        for child in rng_master.spawn(trials):
            rng = np.random.default_rng(child)
            c_true = rng.uniform(0.2, 0.95)
            phi0 = rng.uniform(0, 2 * math.pi)
            shots = 10_000
            pe = 0.5 * (1 + c_true * np.cos(PHASES - phi0))
            observed = rng.binomial(shots, pe) / shots
            c_fit, err, _ = fit_fringe(PHASES, observed, shots=shots)
            if abs(c_fit - c_true) <= 2 * err:
                hits += 1
        assert hits / trials >= 0.95


class TestFitPopulations:
    def test_ground_state_recovered(self):
        times = np.linspace(0, 2.0e-3, 160)
        pops = np.zeros(9)
        pops[0] = 1.0
        fit = fit_populations(rabi_signal(pops, times, 8), CARRIER_RABI, ETA,
                              GAMMA0, X_EXP, 8)
        assert fit.populations[0] >= 0.99
        assert not fit.degenerate

    def test_even_mixture_recovered(self):
        times = np.linspace(0, 2.5e-3, 220)
        pops = np.zeros(9)
        pops[0] = 0.5
        pops[2] = 0.5
        fit = fit_populations(rabi_signal(pops, times, 8), CARRIER_RABI, ETA,
                              GAMMA0, X_EXP, 8)
        assert np.max(np.abs(fit.populations - pops)) < 0.02

    def test_flat_signal_flagged_degenerate(self):
        times = np.linspace(0, 2.0e-3, 120)
        signal = np.column_stack([times, np.full_like(times, 0.5)])
        fit = fit_populations(signal, CARRIER_RABI, ETA, GAMMA0, X_EXP, 6)
        assert fit.degenerate

    def test_short_signal_rejected(self):
        times = np.linspace(0, 0.3e-3, 60)  # < 2 Rabi periods
        pops = np.zeros(7)
        pops[0] = 1.0
        with pytest.raises(ConditioningError):
            fit_populations(rabi_signal(pops, times, 6), CARRIER_RABI, ETA,
                            GAMMA0, X_EXP, 6)
        with pytest.raises(ConditioningError):
            fit_populations(rabi_signal(pops, np.linspace(0, 2e-3, 10), 6),
                            CARRIER_RABI, ETA, GAMMA0, X_EXP, 6)


class TestNnls:
    """``ramsey._nnls`` against ``scipy.optimize.nnls`` as the oracle."""

    def test_random_full_rank_problems(self):
        rng = np.random.default_rng(17)
        bound_active = 0
        for _ in range(400):
            m = int(rng.integers(2, 30))
            a = rng.standard_normal((m, int(rng.integers(1, m + 1))))
            b = rng.standard_normal(m)
            (x, res), (x_ref, res_ref) = _nnls(a, b), nnls(a, b)
            assert np.max(np.abs(x - x_ref)) < 1e-10 and abs(res - res_ref) < 1e-10
            bound_active += bool(np.any(x_ref == 0.0))
        assert bound_active > 100

    @pytest.mark.parametrize("seed", range(6))
    def test_population_fit_designs_with_zero_entries(self, seed):
        rng = np.random.default_rng(seed)
        n_max = int(rng.integers(3, 9))
        times = np.linspace(0.0, 2.5e-3, 4 * n_max + 60)
        pops = rng.random(n_max + 1) * (rng.random(n_max + 1) < 0.5)
        pops[0] = 1.0
        pops /= pops.sum()
        design = 0.5 * rabi_components(times, n_max)
        y = design @ pops + rng.normal(0.0, 0.01, times.size)
        (x, res), (x_ref, res_ref) = _nnls(design, y), nnls(design, y)
        assert np.any(x_ref == 0.0)
        assert np.max(np.abs(x - x_ref)) < 1e-10 and abs(res - res_ref) < 1e-10


class TestDecayScan:
    def test_zero_noise_gives_ideal_depth(self):
        pair = FockPair(0, 1)
        scan = decay_scan(pair, [0.0], NoiseConfig(), ThresholdKind.GENUINE_N)
        thr = threshold(ThresholdKind.GENUINE_N, pair).value
        _, contrast, depth_val = scan[0]
        assert contrast >= 1 - 1e-6
        assert depth_val == pytest.approx(2 * math.log(1 / thr), abs=1e-5)

    def test_heating_only_matches_channel_oracle(self):
        # valid in the weak-heating regime; beyond rate*t ~ 0.02 phonon the
        # closing pulse reads back heating-induced neighbour coherences
        from qngcoh.channels import thermalize_matrix
        from qngcoh.fock import coherence_quantifier, ideal_superposition
        pair = FockPair(0, 2)
        delays = [0.0, 0.001, 0.002, 0.003]
        scan = decay_scan(pair, delays, NoiseConfig(heating_rate=3.2),
                          ThresholdKind.GENUINE_N)
        for delay, contrast, _ in scan:
            mat = ideal_superposition(pair, 24)
            c_channel = coherence_quantifier(
                thermalize_matrix(mat, 3.2, delay), pair)
            assert contrast == pytest.approx(c_channel, rel=0.01)

    def test_delta_ordering_under_experiment_noise(self):
        # (1,2) starts deeper but (0,2) stays certified longer
        noise = NoiseConfig(heating_rate=3.2, dephasing_rate=1.0)
        delays = [0.0, 0.004, 0.008, 0.012, 0.016, 0.020]
        scan_02 = decay_scan(FockPair(0, 2), delays, noise,
                             ThresholdKind.GENUINE_N)
        scan_12 = decay_scan(FockPair(1, 2), delays, noise,
                             ThresholdKind.GENUINE_N)
        d02 = [d for _, _, d in scan_02]
        d12 = [d for _, _, d in scan_12]
        assert d12[0] > d02[0] > 0
        last_certified_02 = max(t for (t, _, d) in scan_02 if d > 0)
        last_certified_12 = max((t for (t, _, d) in scan_12 if d > 0),
                                default=-1.0)
        assert last_certified_02 > last_certified_12

    def test_unsorted_delays_rejected(self):
        with pytest.raises(ValueError):
            decay_scan(FockPair(0, 1), [0.01, 0.0], NoiseConfig(),
                       ThresholdKind.CLASSICAL)

    @pytest.mark.parametrize("last", [math.inf, math.nan])
    def test_non_finite_delay_rejected_before_any_fringe(self, last):
        fringes = []
        with pytest.raises(ValueError, match=">= 0 and finite"):
            decay_scan(FockPair(0, 1), [0.0, last], NoiseConfig(),
                       ThresholdKind.CLASSICAL,
                       fringe_sink=lambda delay, fringe: fringes.append(delay))
        assert fringes == []


#: the two scans the repository ships: the README scenario and the defaults
#: of scripts/run_decay_curves.py
SHIPPED_SCANS = {
    "readme": ([(0, 2), (0, 4)], [0.0, 0.004, 0.008, 0.012],
               NoiseConfig(initial_thermal_nbar=0.07, heating_rate=3.2,
                           dephasing_rate=1.0)),
    "decay-curves": ([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3)],
                     list(np.linspace(0.0, 0.024, 9)),
                     NoiseConfig(heating_rate=3.2, dephasing_rate=1.0)),
}


@pytest.mark.parametrize("scan", sorted(SHIPPED_SCANS))
def test_tail_bound_truncation_matches_wide_run(scan, monkeypatch):
    # every exact-readout fringe of a shipped scan runs at the tail-bound
    # truncation and agrees with the same fringe run at 48 levels
    pairs, delays, noise = SHIPPED_SCANS[scan]
    runs = [(build_sequence_0n(n) if m == 0 else build_sequence_mn(m, n), delay)
            for m, n in pairs for delay in delays]
    chosen = [run_ramsey(seq, delay, noise, PHASES) for seq, delay in runs]
    monkeypatch.setattr(ramsey_module, "simulation_dim", lambda *args: 48)
    for (seq, delay), fringe in zip(runs, chosen):
        wide = run_ramsey(seq, delay, noise, PHASES)
        assert fringe.dim < wide.dim == 48
        assert fringe.contrast == pytest.approx(wide.contrast, abs=1e-10)


def test_prepared_state_populations_norm():
    seq = build_sequence_0n(2)
    rho = prepared_state(seq, NoiseConfig(initial_thermal_nbar=0.07))
    pops = motional_populations(rho, rho.shape[0] // 3)
    assert pops.sum() == pytest.approx(1.0, abs=1e-9)
    assert pops[0] == pytest.approx(0.467, abs=0.02)


@pytest.mark.parametrize("n", [2, 4])
def test_stack_stays_a_density_matrix(n, monkeypatch):
    # every matrix of the stack after preparation, after the delay and before
    # the scan pulse, under the README noise budget with pulse-area jitter
    stages = []

    def delay_recorded(rho, *args):
        stages.append(rho.copy())
        out = _delay_channels(rho, *args)
        stages.append(out.copy())
        return out

    def readout_recorded(rho, *args):
        stages.append(rho.copy())
        return _scan_readout(rho, *args)

    monkeypatch.setattr(ramsey_module, "_delay_channels", delay_recorded)
    monkeypatch.setattr(ramsey_module, "_scan_readout", readout_recorded)
    noise = NoiseConfig(initial_thermal_nbar=0.07, heating_rate=3.2,
                        dephasing_rate=1.0, pulse_error=0.01)
    run_ramsey(build_sequence_0n(n), 0.012, noise, PHASES, shots=200, seed=1)
    assert len(stages) == 3
    for stack in stages:
        assert stack.shape[-1] == PHASES.size
        for i in range(PHASES.size):
            assert_density_matrix(stack[..., i])


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(heating_rate=-1.0)
