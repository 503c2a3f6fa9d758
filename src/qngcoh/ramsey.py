"""Pulse-level simulation of the spin-oscillator Ramsey interferometer.

A single trapped ion: electronic levels {g, e, shelf} tensored with a
truncated oscillator mode.  Carrier pulses rotate g <-> e at fixed phonon
number; blue/red sidebands exchange an electronic flip against a phonon with
the usual sqrt(k+1) / sqrt(k) couplings (first order in the Lamb-Dicke
expansion); shelving swaps the ground row with the shelf row to park
population out of the way of ladder pulses.

Pulses are instantaneous for channel purposes: dephasing and heating act
only during the free-precession delay.  Composite-pulse imperfections enter
through per-pulse area jitter.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import channels
from .channels import TruncationError, dephasing_factors, thermalize_matrix
from .fock import FockPair
from .thresholds import ThresholdKind, depth_value, threshold

ROW_G, ROW_E, ROW_SHELF = 0, 1, 2

#: mapping-condition scan: largest half-cycle index tried and the
#: near-integer tolerance on the return-branch cycle count
MAPPING_J_MAX = 200
MAPPING_TOL = 0.02


class FitError(RuntimeError):
    """Fringe fit is degenerate (too few distinct phases or singular fit)."""


class MappingConditionError(RuntimeError):
    """No admissible sideband mapping pulse below the half-cycle cap."""


class ConditioningError(RuntimeError):
    """Population fit design matrix is too ill-conditioned to invert."""


class PulseKind(enum.Enum):
    CARRIER = "carrier"
    BSB = "bsb"
    RSB = "rsb"
    SHELVE = "shelve"


@dataclass(frozen=True)
class PulseSpec:
    """One laser pulse: kind, bare area (radians) and optical phase.

    The effective rotation angle on a sideband rung k is ``area * sqrt(k+1)``.
    Pulses are instantaneous in this model.
    """

    kind: PulseKind
    area: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.area < math.inf:
            raise ValueError(f"pulse area must be finite and non-negative, got {self.area!r}")
        if not math.isfinite(self.phase):
            raise ValueError(f"pulse phase must be finite, got {self.phase!r}")

    def inverse(self) -> "PulseSpec":
        """The pulse that undoes this one: the same rotation with its phase
        advanced by pi (every kind rotates two levels by ``area``)."""
        return replace(self, phase=self.phase + math.pi)


@dataclass(frozen=True)
class NoiseConfig:
    """Imperfection budget for one Ramsey run; every field is finite and
    non-negative."""

    initial_thermal_nbar: float = 0.0
    heating_rate: float = 0.0          # phonons / s
    dephasing_rate: float = 0.0        # phase variance / s
    pulse_error: float = 0.0           # fractional rms area error per pulse

    def __post_init__(self) -> None:
        for f in fields(self):
            if not 0.0 <= getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be finite and non-negative")


@dataclass
class RamseyFringe:
    """Scanned-phase interference record and its fitted contrast."""

    points: list[tuple[float, float, int | None]]
    contrast: float
    contrast_err: float
    fit_phase_offset: float
    dim: int    # oscillator truncation the fringe was simulated at


@dataclass
class RamseySequence:
    """Preparation pulses and their analysis mirror; the last analysis pulse
    carries the scanned phase."""

    pair: FockPair
    prep: list[PulseSpec]
    analysis: list[PulseSpec]
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# pulse action
# ---------------------------------------------------------------------------


#: per pulse kind: the row the ground row exchanges with, the (ground,
#: partner) level slices it couples, and whether rung k couples with
#: strength sqrt(k) ({g,k-1} <-> {e,k} blue, {g,k} <-> {e,k-1} red)
_COUPLING = {
    PulseKind.CARRIER: (ROW_E, slice(None), slice(None), False),
    PulseKind.SHELVE: (ROW_SHELF, slice(None), slice(None), False),
    PulseKind.BSB: (ROW_E, slice(None, -1), slice(1, None), True),
    PulseKind.RSB: (ROW_E, slice(1, None), slice(None, -1), True),
}


def _rotate(amps: np.ndarray, kind: PulseKind, area, phase) -> np.ndarray:
    """Apply one pulse in place to an array of shape (3, dim, ...) of state
    columns and return it.  ``area`` and ``phase`` are floats or arrays that
    broadcast over the trailing axes (one value per matrix of a stack)."""
    partner, sg, sp, sideband = _COUPLING[kind]
    g, e = amps[ROW_G, sg], amps[partner, sp]
    theta = area
    if sideband:
        rungs = np.sqrt(np.arange(1, amps.shape[1]))
        theta = area * rungs.reshape((-1,) + (1,) * (amps.ndim - 2))
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    ph = np.exp(1j * phase)
    g_new = c * g
    g_new -= 1j * ph * s * e
    e *= c
    e += -1j * np.conj(ph) * s * g
    g[...] = g_new
    return amps


# ---------------------------------------------------------------------------
# sequence construction
# ---------------------------------------------------------------------------


def _climb(level_from: int, level_to: int, row: int) -> tuple[list[PulseSpec], int]:
    """Pi pulses walking one joint-ladder branch up by one phonon per pulse."""
    pulses = []
    for s in range(level_from, level_to):
        area = math.pi / math.sqrt(s + 1)
        if row == ROW_E:
            pulses.append(PulseSpec(PulseKind.RSB, area))
            row = ROW_G
        else:
            pulses.append(PulseSpec(PulseKind.BSB, area))
            row = ROW_E
    return pulses, row


def build_sequence_0n(n: int) -> RamseySequence:
    """Composite effective pi/2 between |0> and |n>, and its analysis mirror.

    A blue-sideband pi/2 splits |g,0> into the spin-motional superposition;
    alternating red/blue pi pulses then climb the excited branch one phonon
    per pulse; for n = 1 and 2 the arms end at |g,0> and |e,1> or |g,2>.
    Above n = 2 the resting |g,0> branch is shelved around the ladder; an
    odd ladder parks the moving branch in |e,n> and a carrier pi (protected
    by the shelving) moves it to |g,n>.  The closing shelving pi (phase pi,
    the inverse of the first) then swaps the whole ground and shelf rows, so
    the arms end at |g,0> and |shelf,n>; the delay channels act the same on
    every spin block, so the fringes do not depend on which row the |n> arm
    rests in.  The analysis half is the exact pulse-by-pulse inverse; its
    last pulse, the closing blue-sideband pi/2, carries the scanned phase.
    """
    if not 1 <= n <= 8:
        raise ValueError(f"supported superposition range is 1 <= n <= 8, got {n}")
    prep: list[PulseSpec] = [PulseSpec(PulseKind.BSB, math.pi / 2.0)]
    shelved = n > 2
    if shelved:
        prep.append(PulseSpec(PulseKind.SHELVE, math.pi))
    ladder, row = _climb(1, n, ROW_E)
    prep.extend(ladder)
    if row == ROW_E and n > 1:
        prep.append(PulseSpec(PulseKind.CARRIER, math.pi))
    if shelved:
        prep.append(PulseSpec(PulseKind.SHELVE, math.pi, math.pi))

    analysis = [p.inverse() for p in reversed(prep)]
    return RamseySequence(pair=FockPair(0, n), prep=prep, analysis=analysis)


def find_mapping_pulse(m: int, n: int) -> dict:
    """Smallest red-sideband mapping pulse transferring |e,n-1> -> |g,n>
    while returning the |g,m> spectator to itself.

    The moving rung (coupling sqrt(n)) must see an odd number ``2j+1`` of
    half cycles; the spectator rung (coupling sqrt(m)) then sees
    ``l = (2j+1) sqrt(m/n) / 2`` full cycles, which must land near an integer
    within ``MAPPING_TOL``.  The rungs are incommensurate in general, so j is
    scanned upward below ``MAPPING_J_MAX`` and the first admissible one kept.
    """
    if m == 0:
        return {"j": 0, "l": 0.0, "area": math.pi / math.sqrt(n),
                "return_cycle_error": 0.0}
    for j in range(MAPPING_J_MAX):
        l = (2 * j + 1) * math.sqrt(m / n) / 2.0
        err = abs(l - round(l))
        if err <= MAPPING_TOL:
            return {"j": j, "l": l, "area": (2 * j + 1) * math.pi / math.sqrt(n),
                    "return_cycle_error": err}
    raise MappingConditionError(
        f"no admissible mapping pulse for pair ({m},{n}) below j = {MAPPING_J_MAX} "
        f"at tolerance {MAPPING_TOL}")


def build_sequence_mn(m: int, n: int) -> RamseySequence:
    """Ramsey sequence for a superposition of |m> and |n>, m >= 1.

    Sideband pi pulses prepare |g,m>; a carrier (|n-m| = 1) or blue-sideband
    (|n-m| = 2) pi/2 opens the interferometer; a red-sideband pulse
    satisfying the near-commensurate mapping condition transfers the excited
    branch to |g,n>, closing the preparation with a purely motional
    superposition.  The scanned phase rides on the analysis pi/2.
    """
    pair = FockPair(m, n)
    m, n = pair.m, pair.n
    delta = pair.delta
    if delta not in (1, 2):
        raise ValueError(f"supported level differences are 1 and 2, got {delta}")

    prep, row = _climb(0, m, ROW_G)
    if row == ROW_E:
        prep.append(PulseSpec(PulseKind.CARRIER, math.pi))

    if delta == 1:
        variant = "carrier"
        prep.append(PulseSpec(PulseKind.CARRIER, math.pi / 2.0))
    else:
        variant = "bsb"
        prep.append(PulseSpec(PulseKind.BSB, math.pi / (2.0 * math.sqrt(m + 1))))

    mapping = find_mapping_pulse(m, n)
    prep.append(PulseSpec(PulseKind.RSB, mapping["area"]))

    # detection composite: invert only the interferometer half (un-map, then
    # the closing pi/2).  Undoing the Fock preparation as well would scramble
    # the bright/dark ports, since those pi pulses are exact only on their
    # original rungs.
    analysis = [p.inverse() for p in reversed(prep[-2:])]
    return RamseySequence(pair=pair, prep=prep, analysis=analysis,
                          meta={"variant": variant, "mapping": mapping})


def build_sequence(pair: FockPair) -> RamseySequence:
    """The Ramsey sequence of ``pair``: the composite ladder for |0>,|n>, the
    mapping-pulse sequence otherwise.  Raises ``ValueError`` for a pair
    neither supports."""
    return build_sequence_0n(pair.n) if pair.m == 0 else build_sequence_mn(pair.m, pair.n)


# ---------------------------------------------------------------------------
# running the interferometer
# ---------------------------------------------------------------------------


def _thermal_factor(nbar: float, dim: int) -> np.ndarray:
    """Factor ``A`` of the thermal start in the electronic ground row, with
    ``rho = A A^H`` on 3 dim levels: one column ``sqrt(p_k) |g,k>`` per
    occupied rung of the geometric occupation of mean ``nbar``, renormalized
    on ``dim`` levels (one column at nbar 0)."""
    k = np.arange(dim)
    p = (nbar / (1.0 + nbar)) ** k / (1.0 + nbar)
    k = np.flatnonzero(p)
    amps = np.zeros((3 * dim, k.size), dtype=complex)
    amps[k, np.arange(k.size)] = np.sqrt(p[k] / p.sum())
    return amps


def _widen(stack: np.ndarray, area, phase) -> np.ndarray:
    """``stack`` repeated along its last axis to one matrix per entry of
    ``area`` or ``phase`` where they hold more; work before that is shared."""
    width = max(np.size(area), np.size(phase))
    return np.repeat(stack, width, axis=-1) if width > stack.shape[-1] else stack


def _check_edge(kind: PulseKind, dim: int, population) -> None:
    """Raise ``TruncationError`` when a sideband pulse would lift population
    out of the truncated space: ``population(level)`` gives the population of
    the top level it lifts from, one value per matrix of the stack."""
    edge = {PulseKind.BSB: dim - 1, PulseKind.RSB: 2 * dim - 1}.get(kind)
    if edge is not None and np.max(population(edge)) > 1e-12:
        raise TruncationError(f"{kind.value} pulse at the truncation edge")


def _prepare(pulses: list[PulseSpec], nbar: float, dim: int, areas,
             phases) -> np.ndarray:
    """Stack of density matrices, of shape (3 dim, 3 dim, P), after
    ``pulses`` on the thermal start.

    Each pulse rotates the factor of :func:`_thermal_factor` once, from the
    left, and ``A A^H`` is formed at the end.  ``areas`` and ``phases`` hold
    one entry per pulse, a float or one value per matrix.
    """
    amps = _thermal_factor(nbar, dim)[..., None]
    for pulse, area, phase in zip(pulses, areas, phases):
        amps = _widen(amps, area, phase)
        _check_edge(pulse.kind, dim, lambda edge: np.sum(np.abs(amps[edge]) ** 2, axis=0))
        _rotate(amps.reshape(3, dim, *amps.shape[1:]), pulse.kind, area, phase)
    cols = amps.transpose(2, 0, 1)
    rho = np.empty((3 * dim, 3 * dim, amps.shape[-1]), dtype=complex)
    np.matmul(cols, cols.conj().transpose(0, 2, 1), out=rho.transpose(2, 0, 1))
    return rho


def _apply_unitaries(rho: np.ndarray, pulses: list[PulseSpec], dim: int,
                     areas=None, phases=None) -> np.ndarray:
    """Apply ``rho -> U rho U^H`` for each pulse to a stack of Hermitian
    matrices of shape (3 dim, 3 dim, P), as ``U (U rho)^H``: two in-place
    ``_rotate`` calls on the (3, dim, 3 dim, P) row view, O(dim^2) each.

    ``areas`` and ``phases`` (default: the pulses' own) hold one entry per
    pulse, a float or one value per matrix; the stack widens as in
    :func:`_widen`.  Works in place: ``rho`` is overwritten unless it widens
    first, and the result is the returned stack.
    """
    areas = [p.area for p in pulses] if areas is None else areas
    phases = [p.phase for p in pulses] if phases is None else phases
    for pulse, area, phase in zip(pulses, areas, phases):
        rho = _widen(rho, area, phase)
        _check_edge(pulse.kind, dim, lambda edge: np.abs(rho[edge, edge]))
        # each row view only splits the leading axis, so it is a view of rho
        _rotate(rho.reshape(3, dim, 3 * dim, -1), pulse.kind, area, phase)
        rho = np.conjugate(rho, out=rho).transpose(1, 0, 2)
        _rotate(rho.reshape(3, dim, 3 * dim, -1), pulse.kind, area, phase)
    return rho


def _scan_readout(rho: np.ndarray, kind: PulseKind, area, phase, dim: int) -> np.ndarray:
    """Ground-row population after a pulse, read off the (3 dim, 3 dim, P)
    stack before it without applying it: one value per matrix and per entry
    of ``area`` and ``phase``.

    The pulse mixes each ground rung it couples with one partner level only.
    With ``ph = e^{i phase}`` a coupled rung ends with
    ``c^2 rho_gg + s^2 rho_pp - 2 c s Im(conj(ph) rho_gp)``; an uncoupled one
    keeps ``rho_gg``.
    """
    partner, sg, sp, sideband = _COUPLING[kind]
    _check_edge(kind, dim, lambda edge: np.abs(rho[edge, edge]))
    levels = np.arange(dim)
    g, p = levels[sg], partner * dim + levels[sp]
    theta = area * np.sqrt(levels[1:, None]) if sideband else area
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    ph = np.exp(1j * phase)
    coupled = (c * c * rho[g, g].real + s * s * rho[p, p].real
               - 2.0 * c * s * np.imag(np.conj(ph) * rho[g, p]))
    spectators = np.delete(levels, g)
    return coupled.sum(axis=0) + rho[spectators, spectators].real.sum(axis=0)


def _delay_channels(rho: np.ndarray, delay: float, noise: NoiseConfig,
                    dim: int) -> np.ndarray:
    """Free-precession channels applied in place to every spin block of every
    matrix of a (3 dim, 3 dim, P) stack at once, on the motional indices."""
    if delay == 0.0:
        return rho
    blocks = rho.reshape(3, dim, 3, dim, -1).transpose(4, 0, 2, 1, 3)
    blocks *= dephasing_factors(dim, noise.dephasing_rate * delay)
    if noise.heating_rate > 0.0:
        blocks[...] = thermalize_matrix(blocks, noise.heating_rate, delay)
    return rho


def fit_fringe(phases: np.ndarray, pe: np.ndarray,
               shots: int | None = None) -> tuple[float, float, float]:
    """Least-squares fit of ``P(phi) = (1 + C cos(phi - phi0)) / 2``.

    Linear in (C cos phi0, C sin phi0); returns (contrast, standard error,
    phase offset).  With ``shots`` given, points are weighted by their known
    binomial variance and the error bar comes from that model; otherwise the
    error bar is residual-based.  Raises ``FitError`` for degenerate scans.
    """
    phases = np.asarray(phases, dtype=float)
    pe = np.asarray(pe, dtype=float)
    if len(np.unique(np.round(phases % (2 * math.pi), 12))) < 3:
        raise FitError("need at least 3 distinct scan phases")
    design = 0.5 * np.stack([np.cos(phases), np.sin(phases)], axis=1)
    y = pe - 0.5

    if shots is not None:
        p_safe = (pe * shots + 0.5) / (shots + 1.0)
        weights = shots / (p_safe * (1.0 - p_safe))
    else:
        weights = np.ones_like(pe)
    gram = design.T @ (weights[:, None] * design)
    if np.linalg.cond(gram) > 1e12:
        raise FitError("degenerate phase scan")
    rhs = design.T @ (weights * y)
    coef = np.linalg.solve(gram, rhs)
    a, b = coef
    contrast = math.hypot(a, b)
    offset = math.atan2(b, a)

    cov = np.linalg.inv(gram)
    if shots is None:
        resid = y - design @ coef
        dof = max(1, len(y) - 2)
        cov = cov * float(resid @ resid) / dof
    if contrast > 0:
        grad = np.array([a, b]) / contrast
        err = math.sqrt(max(0.0, grad @ cov @ grad))
    else:
        err = math.sqrt(max(0.0, float(np.trace(cov))))
    return contrast, err, offset


def simulation_dim(seq: RamseySequence, noise: NoiseConfig, delay: float) -> int:
    """Oscillator truncation of a fringe: the heated-tail bound of
    ``channels._tail_dim``, with the analysis half's sideband pulses (one
    phonon each at most) as its reach."""
    reach = sum(p.kind in (PulseKind.BSB, PulseKind.RSB) for p in seq.analysis)
    return channels._tail_dim(seq.pair.n, noise.initial_thermal_nbar,
                              noise.heating_rate * delay, reach)


def run_ramsey(seq: RamseySequence, delay: float, noise: NoiseConfig,
               phases, shots: int | None = None, seed: int = 0) -> RamseyFringe:
    """Simulate one full Ramsey fringe at a fixed delay.

    Jittered preparation pulses act on a factor of the thermal start;
    free-precession channels and the jittered analysis pulses before the
    scan pulse act on one stack of density matrices, one per scan phase once
    the pulses differ per phase; the ground population after the scan pulse
    is read off that stack (:func:`_scan_readout`), and the excited-state
    probability is fitted to a cosine fringe.  ``shots=None`` reads P_e
    exactly, otherwise binomial projection noise is added.  With a thermal start the fitted contrast
    includes the in-phase fringes of the occupied spectator rungs, so it is
    not the prepared state's coherence.  Runs at :func:`simulation_dim` levels.
    """
    phases = np.asarray(list(phases), dtype=float)
    if phases.size == 0:
        raise ValueError("need a non-empty phase scan")
    if not 0.0 <= delay < math.inf:
        raise ValueError(f"delay must be finite and non-negative, got {delay}")
    if shots is not None and shots < 1:
        raise ValueError("shots must be positive (or None for exact readout)")
    dim = simulation_dim(seq, noise, delay)

    children = np.random.SeedSequence((seed, 0x52414D)).spawn(phases.size + 1)
    pulses = seq.prep + seq.analysis
    n_prep = len(seq.prep)
    areas = [p.area for p in pulses]
    if noise.pulse_error > 0.0:
        # one area error per pulse for each scan phase, from its own stream
        jit = noise.pulse_error * np.array(
            [np.random.default_rng(c).standard_normal(len(pulses))
             for c in children[:-1]])
        areas = [a * np.maximum(0.0, 1.0 + j) for a, j in zip(areas, jit.T)]
    offsets = [p.phase for p in pulses]
    offsets[-1] += phases  # the last analysis pulse carries the scanned phase

    rho = _prepare(seq.prep, noise.initial_thermal_nbar, dim, areas[:n_prep],
                   offsets[:n_prep])
    rho = _delay_channels(rho, delay, noise, dim)
    rho = _apply_unitaries(rho, seq.analysis[:-1], dim, areas[n_prep:-1],
                           offsets[n_prep:-1])
    pg = _scan_readout(rho, seq.analysis[-1].kind, areas[-1], offsets[-1], dim)

    # fluorescence-dark probability 1 - P(g); shelf counts as dark
    pes = np.clip(1.0 - pg, 0.0, 1.0)
    if shots is not None:
        pes = np.random.default_rng(children[-1]).binomial(shots, pes) / shots
    points = [(float(phi), float(pe), shots) for phi, pe in zip(phases, pes)]
    contrast, err, offset = fit_fringe(phases, pes, shots=shots)
    return RamseyFringe(points=points, contrast=min(1.0, max(0.0, contrast)),
                        contrast_err=err, fit_phase_offset=offset, dim=dim)


# ---------------------------------------------------------------------------
# Rabi-oscillation population fitting
# ---------------------------------------------------------------------------


@dataclass
class PopulationFit:
    populations: np.ndarray
    residual: float
    condition_number: float
    degenerate: bool


def _nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Lawson-Hanson ``argmin ||a x - b||`` over ``x >= 0``, and its residual norm."""
    x, passive = np.zeros(a.shape[1]), np.zeros(a.shape[1], dtype=bool)
    tol = 10.0 * max(a.shape) * np.finfo(float).eps * np.linalg.norm(a) * np.linalg.norm(b)
    for _ in range(3 * x.size):
        s = np.zeros_like(x)
        s[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
        neg = np.flatnonzero(passive & (s <= 0.0))
        if neg.size:  # step back to the feasible boundary; the blocking index leaves
            ratio = x[neg] / (x[neg] - s[neg])
            x += ratio.min() * (s - x)
            passive[neg[np.argmin(ratio)]] = False
            passive &= x > 0.0
            continue
        x = s
        w = np.where(passive, -np.inf, a.T @ (b - a @ x))
        if w.max() <= tol:
            return x, float(np.linalg.norm(a @ x - b))
        passive[np.argmax(w)] = True
    raise RuntimeError("nnls did not converge")


def fit_populations(signal, carrier_rabi: float, eta: float, gamma0: float,
                    x_exp: float, n_max: int) -> PopulationFit:
    """Phonon distribution from ground-state Rabi oscillations.

    Non-negative least squares of
    ``P_g(t) = (1 + sum_n P(n) cos(Omega eta sqrt(n+1) t) e^{-gamma(n) t}) / 2``
    with ``gamma(n) = (n+1)^x gamma0``.  The recovered distribution is
    renormalized to unit sum; a near-zero recovered weight marks the fit
    degenerate (no oscillation information in the signal).
    """
    data = np.asarray(signal, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("signal must be an (npts, 2) array of (time, P_g)")
    t, pg = data[:, 0], data[:, 1]
    if len(t) < 4 * n_max:
        raise ConditioningError(
            f"need at least {4 * n_max} samples for n_max = {n_max}")
    base_period = 2.0 * math.pi / (carrier_rabi * eta)
    if t.max() - t.min() < 2.0 * base_period:
        raise ConditioningError(
            "signal spans less than two Rabi periods; record a longer trace")

    ns = np.arange(n_max + 1)
    omega = carrier_rabi * eta * np.sqrt(ns + 1.0)
    gamma = gamma0 * (ns + 1.0) ** x_exp
    design = 0.5 * np.cos(np.outer(t, omega)) * np.exp(-np.outer(t, gamma))
    cond = float(np.linalg.cond(design))
    if cond > 1e8:
        raise ConditioningError(
            f"design matrix condition number {cond:.2e}; record a longer trace")

    coeffs, resid = _nnls(design, pg - 0.5)
    total = float(coeffs.sum())
    degenerate = total < 0.05
    pops = coeffs / total if not degenerate else coeffs
    return PopulationFit(populations=pops, residual=float(resid),
                         condition_number=cond, degenerate=degenerate)


# ---------------------------------------------------------------------------
# decay scans
# ---------------------------------------------------------------------------


def decay_scan(pair: FockPair, delays, noise: NoiseConfig, kind: ThresholdKind,
               n_phases: int = 16, shots: int | None = None, seed: int = 0,
               fringe_sink=None) -> list[tuple[float, float, float]]:
    """Contrast and threshold depth versus Ramsey delay.

    Balanced |0>,|n> superpositions use the composite-ladder sequence, mixed
    pairs the mapping-pulse sequence.  Returns (delay, contrast, depth)
    tuples; depth is ``-inf`` once the contrast hits zero.  ``fringe_sink``,
    when given, receives ``(delay, fringe)`` for every completed point.

    The depth is computed from the fitted contrast as it is.  With
    ``initial_thermal_nbar > 0`` that contrast includes the spectator-rung
    fringe ``S`` (see :func:`run_ramsey`; 0.0394 at nbar 0.07), so it exceeds
    the prepared coherence and the depth is larger than the prepared state's.
    """
    delays = channels.sorted_times(delays, "delays")
    seq = build_sequence(pair)
    phases = np.linspace(0.0, 2.0 * math.pi, n_phases, endpoint=False)
    thr = threshold(kind, pair).value
    out = []
    for i, delay in enumerate(delays):
        sub_seed = int(np.random.SeedSequence((seed, i)).generate_state(1)[0])
        fringe = run_ramsey(seq, delay, noise, phases, shots=shots, seed=sub_seed)
        if fringe_sink is not None:
            fringe_sink(float(delay), fringe)
        c = fringe.contrast
        out.append((float(delay), c, depth_value(c, thr, pair.delta)))
    return out
