import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from qngcoh.fock import DEFAULT_PAD, DEFAULT_TRUNC, GaussianParams, build_gaussian_matrix
from qngcoh.ramsey import _apply_unitaries, simulation_dim

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def random_density_matrix(rng, dim: int) -> np.ndarray:
    """Ginibre-ensemble density matrix (almost surely full rank)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# test-local state references: the library works on plain arrays
# ---------------------------------------------------------------------------


def assert_density_matrix(mat: np.ndarray) -> None:
    """Square, Hermitian to 1e-10, unit trace to 1e-9, no eigenvalue below -1e-9."""
    assert mat.ndim == 2 and mat.shape[0] == mat.shape[1], f"shape {mat.shape}"
    herm_defect = float(np.max(np.abs(mat - mat.conj().T)))
    assert herm_defect <= 1e-10, f"not Hermitian: max defect {herm_defect:.3e}"
    tr = complex(np.trace(mat))
    assert abs(tr - 1.0) <= 1e-9, f"trace {tr!r} differs from 1"
    lo = float(np.min(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))))
    assert lo >= -1e-9, f"negative eigenvalue {lo:.3e}"


def fock_density_matrix(k: int, dim: int) -> np.ndarray:
    """``|k><k|`` on ``dim`` levels."""
    mat = np.zeros((dim, dim), dtype=complex)
    mat[k, k] = 1.0
    return mat


def thermal_density_matrix(nbar: float, dim: int) -> np.ndarray:
    """Geometric occupation of mean ``nbar``, renormalized on ``dim`` levels."""
    if nbar == 0:
        return fock_density_matrix(0, dim)
    k = np.arange(dim)
    p = (nbar / (1.0 + nbar)) ** k / (1.0 + nbar)
    p /= p.sum()
    return np.diag(p.astype(complex))


def mean_phonons(mat: np.ndarray) -> float:
    return float(np.real(np.sum(np.arange(mat.shape[0]) * np.diagonal(mat))))


def motional_populations(rho: np.ndarray, dim: int) -> np.ndarray:
    """Phonon-number populations of a spin-oscillator matrix, traced over the
    three electronic rows."""
    diag = np.real(np.diagonal(rho))
    return diag[:dim] + diag[dim:2 * dim] + diag[2 * dim:]


def thermal_spin_osc(nbar: float, dim: int) -> np.ndarray:
    """Thermal motional state in the electronic ground row, as a 3dim matrix:
    geometric occupation of mean ``nbar``, renormalized on ``dim`` levels.
    The density-matrix reference for the simulator's factored thermal start."""
    if not 0.0 <= nbar < math.inf:
        raise ValueError(f"mean occupation must be finite and non-negative, got {nbar!r}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got dim={dim}")
    k = np.arange(dim)
    p = (nbar / (1.0 + nbar)) ** k / (1.0 + nbar)
    rho = np.zeros((3 * dim, 3 * dim), dtype=complex)
    rho[k, k] = p / p.sum()
    return rho


def pulse_steps(pulses, areas=None, phases=None) -> list:
    """The steps ``(kind, area, phase)`` the Ramsey pulse stages take, one per
    pulse: the pulses' own areas and phases unless ``areas`` or ``phases``
    (one entry per pulse, a float or one value per matrix) replace them."""
    areas = [p.area for p in pulses] if areas is None else areas
    phases = [p.phase for p in pulses] if phases is None else phases
    return [(p.kind, area, phase) for p, area, phase in zip(pulses, areas, phases)]


def prepared_state(seq, noise) -> np.ndarray:
    """Spin-oscillator density matrix right after the preparation half of
    ``seq`` (no delay, no jitter), at the simulator's truncation."""
    dim = simulation_dim(seq, noise, 0.0)
    rho0 = thermal_spin_osc(noise.initial_thermal_nbar, dim)[..., None]
    return _apply_unitaries(rho0, pulse_steps(seq.prep), dim)[..., 0]


def oracle_dim_for(g: GaussianParams, top_index: int = 0) -> int:
    """Truncation dimension at which the matrix oracle resolves ``g`` well.

    Squeezing stretches the worst-quadrature displacement by ``e^{|xi|}`` and
    scales a Fock level's energy by ``cosh(2|xi|)``; the returned dimension
    leaves a ~10-sigma headroom above the combined energy estimate.
    """
    r = g.xi_mag
    energy = ((g.alpha_mag * math.exp(r)) ** 2 + math.sinh(r) ** 2
              + (top_index + 1.0) * math.cosh(2.0 * r))
    return int(math.ceil(energy + 10.0 * math.sqrt(energy + 1.0))) + 16


def gaussian_fock_state(g: GaussianParams, k: int, dim: int) -> np.ndarray:
    """State vector of ``S(xi) D(alpha) |k>`` on a ``dim``-level space."""
    pad = max(DEFAULT_PAD, oracle_dim_for(g, k) - dim + DEFAULT_PAD)
    return build_gaussian_matrix(g, dim, pad=pad)[:, k]


def argmax_state(result, dim: int = DEFAULT_TRUNC) -> np.ndarray:
    """State vector of a threshold result's maximizing state on ``dim`` levels."""
    if result.core_state is None:
        k = result.fock_index if result.fock_index is not None else 0
        return gaussian_fock_state(result.argmax, k, dim)
    cols = build_gaussian_matrix(result.argmax, dim)[:, : len(result.core_state)]
    return cols @ result.core_state
