"""Decoherence channels and the heating-limited depth of a coherence.

Two reservoir couplings matter for a trapped-ion oscillator near the ground
state: pure phase diffusion, which multiplies each off-diagonal element by
``exp(-Gamma (j-k)^2 / 2)``, and amplitude thermalization in the
infinite-temperature limit, modelled as a Lindblad pair of raising and
lowering jumps with equal rates calibrated so the mean phonon number grows
linearly at the configured heating rate.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .fock import (DEFAULT_TRUNC, FockPair, _tridiagonal_eigh, coherence_quantifier,
                   ideal_superposition)
from .thresholds import ThresholdKind, depth_value, threshold

#: population allowed in the top truncation levels after heating
HEAT_TAIL_TOL = 1e-6
#: bound on the population at the truncation edge that :func:`_tail_dim` allows
EDGE_TAIL_TOL = 1e-12


class TruncationError(RuntimeError):
    """Population reaches the truncation edge, or would need more levels."""


# ---------------------------------------------------------------------------
# pure dephasing
# ---------------------------------------------------------------------------


def dephasing_factors(dim: int, gamma: float) -> np.ndarray:
    """Element-wise damping matrix ``exp(-Gamma (j-k)^2 / 2)`` of the
    phase-diffusion channel: ``mat * dephasing_factors(dim, gamma)`` leaves the
    diagonal untouched and damps the coherences."""
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"phase variance must be finite and non-negative, got {gamma}")
    k = np.arange(dim)
    offsets = k[:, None] - k[None, :]
    return np.exp(-0.5 * gamma * offsets.astype(float) ** 2)


# ---------------------------------------------------------------------------
# thermalization (infinite-temperature amplitude reservoir)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _offset_eigensystem(dim: int, offset: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the generator of one (j-k)=offset
    diagonal under the equal-rate raising/lowering reservoir at unit rate.

    The reservoir couples only elements of equal index offset, so each
    diagonal evolves under its own small linear system:
    ``dx_i = sqrt((i+q+1)(i+1)) x_{i+1} + sqrt((i+q) i) x_{i-1}
    - (2i + q + 1) x_i``.  Built from the truncated ladder operators, so the
    top level has no upward loss channel and the map preserves trace exactly
    (the tail guard in :func:`thermalize` polices the physical validity).
    The generator is real, symmetric and tridiagonal.
    """
    i = np.arange(dim - offset, dtype=float)
    j = i + offset
    # diag of a a^+ with the truncated raising operator: no weight at the top
    up = np.arange(1.0, dim + 1)
    up[-1] = 0.0
    diag = -0.5 * (j + i) - 0.5 * (up[offset:] + up[:dim - offset])
    off = np.sqrt((j[:-1] + 1.0) * (i[:-1] + 1.0))
    return _tridiagonal_eigh(diag, off)


def _apply(prop: np.ndarray, vecs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``prop @ v`` for every vector ``v`` along the last axis of ``vecs``,
    written to ``out``.  ``einsum``, not BLAS and with no ``(..., n, n)``
    product, sums every vector alike in any stack or layout: a stack gives
    the per-matrix results."""
    return np.einsum("...j,ij->...i", vecs, prop, out=out)


def thermalize_matrix(mat: np.ndarray, rate: float, duration: float) -> np.ndarray:
    """Evolve one Hermitian matrix, or a ``(..., s, s, d, d)`` stack of
    Hermitian operators held as ``s x s`` spin blocks (block ``(a, b)`` is the
    conjugate transpose of block ``(b, a)``), under the infinite-temperature
    reservoir on the ``d``-level indices.

    The reservoir couples only matrix elements of equal index offset, so each
    diagonal propagates under its own small generator.  The propagator of a
    diagonal is formed in one step for any ``duration`` from the cached
    eigensystem of its generator, ``P = V exp(lambda rate duration) V^T``, so
    propagators compose exactly and the calibration ``d<n>/dt = rate`` holds
    to rounding.  The propagators are real, so only the diagonals on and
    below the main one are propagated: each diagonal above it is the
    conjugate of the one below it in the mirrored block.
    """
    dim = mat.shape[-1]
    if rate == 0.0 or duration == 0.0:
        return mat.copy()
    out = np.empty(mat.shape, dtype=complex)
    blocks = mat if mat.ndim > 2 else mat[None, None]
    # writable views of offset diagonal q of every block: its d - q elements
    # lie d + 1 apart in the flattened block, from q d below the main
    # diagonal and from q above it
    flat = out.reshape(blocks.shape[:-2] + (dim * dim,))
    for q in range(dim):
        lam, vec = _offset_eigensystem(dim, q)
        prop = (vec * np.exp(lam * (rate * duration))) @ vec.T
        below = _apply(prop, np.diagonal(blocks, -q, -2, -1), flat[..., q * dim::dim + 1])
        if q:
            np.conjugate(below.swapaxes(-3, -2), out=flat[..., q:dim * (dim - q):dim + 1])
    return out


def thermalize(mat: np.ndarray, rate: float, duration: float) -> np.ndarray:
    """Heating channel of one density matrix: mean-phonon growth ``d<n>/dt``
    equal to ``rate``, propagated exactly over ``duration`` (see
    :func:`thermalize_matrix`).

    Raises ``TruncationError`` when heating leaves more than ``HEAT_TAIL_TOL``
    of the population in the top ``min(8, max(2, dim // 8))`` levels."""
    if not (0.0 <= rate < math.inf and 0.0 <= duration < math.inf):
        raise ValueError("heating rate and duration must be finite and non-negative, "
                         f"got {rate} and {duration}")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {mat.shape}")
    out = thermalize_matrix(mat, rate, duration)
    if rate * duration > 0.0:
        dim = out.shape[0]
        guard = min(8, max(2, dim // 8))
        tail = float(np.real(np.trace(out[dim - guard:, dim - guard:])))
        if tail > HEAT_TAIL_TOL:
            raise TruncationError(
                f"population {tail:.3e} in the top {guard} levels after "
                "heating; increase the truncation dimension")
    return out


def _tail_dim(top: int, nbar: float, heat: float, reach: int) -> int:
    """Oscillator dimension ``top + k + 1`` for a run that fills Fock levels
    up to ``top`` from a thermal start of mean ``nbar``, heats by
    ``heat = rate * t`` phonons, then lifts by at most ``reach`` levels.
    ``k >= max(1, reach)`` is the first offset whose bounded population on or
    above the edge level ``top + k`` is under ``EDGE_TAIL_TOL`` (the bound
    falls with ``k`` from there on); ``TruncationError`` above ``DEFAULT_TRUNC``.

    Thermal rung ``j`` (weight ``(1-x) x^j``, ``x = nbar/(1+nbar)``) starts
    at most at ``top + j``.  A pure-birth process with the same raising rates
    dominates the equal-rate reservoir: heating adds ``k`` or more phonons to
    Fock ``L`` with probability at most ``C(L+k, k) q^k``, ``q = 1 - e^-heat``."""
    x, q = nbar / (1.0 + nbar), -math.expm1(-heat)
    for k in range(max(1, reach), DEFAULT_TRUNC - top):
        if x ** k + sum((1.0 - x) * x ** j * math.comb(top + k, k - j) * q ** (k - j)
                        for j in range(k)) <= EDGE_TAIL_TOL:
            return top + k + 1
    raise TruncationError(f"heating tail above Fock {top} (nbar {nbar}, rate*t "
                          f"{heat}) needs more than {DEFAULT_TRUNC} levels")


# ---------------------------------------------------------------------------
# heating-limited depth
# ---------------------------------------------------------------------------


def sorted_times(times, name: str = "times") -> list[float]:
    """``times`` as floats; raises ``ValueError`` unless they are strictly
    ascending, >= 0 and finite (the rule for delay lists and heating times)."""
    times = [float(t) for t in times]
    if not all(t1 < t2 and 0.0 <= t2 < math.inf for t1, t2 in zip([-1.0] + times, times)):
        raise ValueError(f"{name} must be sorted ascending without repeats, >= 0 and "
                         f"finite: {times}")
    return times


def thermal_depth_limit(pair: FockPair, h_rate: float, times,
                        kind: ThresholdKind) -> list[tuple[float, float]]:
    """Depth reachable without any dephasing, limited by heating alone.

    Thermalizes the ideal balanced superposition for each requested time and
    converts the surviving coherence to a depth; an upper envelope for any
    experiment at the same heating rate, at the :func:`_tail_dim` truncation
    for the last time.  Raises ``TruncationError`` when that needs more than
    ``DEFAULT_TRUNC`` levels or under the tail guard of :func:`thermalize`.
    """
    times = sorted_times(times)
    if not 0.0 <= h_rate < math.inf:
        raise ValueError(f"heating rate must be finite and non-negative, got {h_rate}")
    dim = _tail_dim(pair.n, 0.0, h_rate * (times[-1] if times else 0.0), 0)
    mat = ideal_superposition(pair, dim)
    thr = threshold(kind, pair).value
    out = []
    for prev_t, t in zip([0.0] + times, times):
        mat = thermalize(mat, h_rate, t - prev_t)
        c = coherence_quantifier(mat, pair)
        out.append((float(t), depth_value(c, thr, pair.delta)))
    return out
