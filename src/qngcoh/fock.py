"""Truncated Fock-space states and operators for a single oscillator mode.

Everything downstream (threshold searches, Monte-Carlo verification, the
Ramsey simulator) is built on two independent routes to the same physics:

* an analytic closed form for the amplitudes ``<m|S(xi)D(alpha)|n>`` of the
  squeeze-then-displace operator between number states, evaluated through
  numerically stable scaled-Hermite recurrences, and
* a brute-force truncated-matrix construction that exponentiates the quadratic
  and linear generators (``build_gaussian_matrix``) through the eigensystems
  of their real tridiagonal forms.

The two routes are kept strictly separate so each can serve as an oracle for
the other.

Conventions: ``a|n> = sqrt(n)|n-1>``, displacement ``D(alpha) =
exp(alpha a^+ - conj(alpha) a)``, squeeze ``S(xi) = exp((conj(xi) a^2 -
xi a^+^2)/2)`` with ``xi = r e^{i theta}``.

The closed form works at a real displacement.  With ``R(phi) = exp(i phi
a^+ a)``, ``D(|alpha| e^{i phi}) = R(phi) D(|alpha|) R(-phi)`` and ``R(-phi)
S(xi) R(phi) = S(xi e^{-2i phi})``, so ``<m|S(xi)D(|alpha| e^{i phi})|n> =
e^{i(m-n) phi} <m|S(xi e^{-2i phi})D(|alpha|)|n>``; the phase factor is
applied only when ``phi`` is nonzero (the searches and the Monte-Carlo
sampler pass ``phi = 0``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import lgamma

import numpy as np

TWO_PI = 2.0 * math.pi

#: default oscillator truncation dimension: the threshold recheck's, and the
#: cap on a Ramsey simulation's
DEFAULT_TRUNC = 128

#: padding added on top of the requested dimension before exponentiating
#: truncated generators; the padded tail absorbs leakage before cropping
DEFAULT_PAD = 32

#: validated parameter range of the analytic amplitude closed form
SDF_XI_MAX = 2.0
SDF_ALPHA_MAX = 6.0
SDF_INDEX_CAP = 64


class UnsupportedOrderError(ValueError):
    """Hermite order (or Fock index) beyond the supported cap."""


class ParamRangeError(ValueError):
    """Gaussian parameters outside the validated range of the closed form."""


class TruncationRiskError(ValueError):
    """Requested truncation leaves too little headroom to be trustworthy."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class FockPair:
    """Ordered pair of Fock indices labelling the off-diagonal element C_{m,n}.

    Stored canonically with ``m < n``; the coherence quantifier is symmetric
    in the two indices so the swap loses nothing.
    """

    m: int
    n: int

    def __post_init__(self) -> None:
        m, n = int(self.m), int(self.n)
        if m < 0 or n < 0:
            raise ValueError(f"Fock indices must be non-negative, got ({m}, {n})")
        if m == n:
            raise ValueError(f"Fock pair needs two distinct levels, got ({m}, {n})")
        if m > n:
            m, n = n, m
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    @property
    def delta(self) -> int:
        """Energy-quantum difference ``n - m``."""
        return self.n - self.m

    def __str__(self) -> str:  # used in CLI output keys
        return f"{self.m},{self.n}"


@dataclass(frozen=True)
class GaussianParams:
    """Polar parameters of the Gaussian unitary ``S(xi) D(alpha)``."""

    xi_mag: float = 0.0
    xi_phase: float = 0.0
    alpha_mag: float = 0.0
    alpha_phase: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.xi_mag < math.inf and 0.0 <= self.alpha_mag < math.inf):
            raise ValueError("squeeze/displacement magnitudes must be finite and non-negative")
        if not (math.isfinite(self.xi_phase) and math.isfinite(self.alpha_phase)):
            raise ValueError("squeeze/displacement phases must be finite")
        object.__setattr__(self, "xi_phase", float(self.xi_phase) % TWO_PI)
        object.__setattr__(self, "alpha_phase", float(self.alpha_phase) % TWO_PI)
        object.__setattr__(self, "xi_mag", float(self.xi_mag))
        object.__setattr__(self, "alpha_mag", float(self.alpha_mag))

    @classmethod
    def from_complex(cls, xi: complex, alpha: complex) -> "GaussianParams":
        return cls(abs(xi), float(np.angle(xi)) % TWO_PI,
                   abs(alpha), float(np.angle(alpha)) % TWO_PI)


# ---------------------------------------------------------------------------
# elementary amplitudes
# ---------------------------------------------------------------------------


def coherent_amplitude(n: int, alpha: complex) -> complex:
    """Fock overlap ``<n|alpha> = exp(-|alpha|^2/2) alpha^n / sqrt(n!)``.

    Factorial weight evaluated in log space so the formula survives n >> 20.
    """
    if n < 0:
        raise ValueError("Fock index must be non-negative")
    if n >= DEFAULT_TRUNC:
        raise ParamRangeError(f"Fock index {n} beyond truncation {DEFAULT_TRUNC}")
    alpha = complex(alpha)
    if alpha == 0:
        return 1.0 + 0j if n == 0 else 0.0 + 0j
    log_mag = -0.5 * abs(alpha) ** 2 + n * math.log(abs(alpha)) - 0.5 * lgamma(n + 1)
    return math.exp(log_mag) * np.exp(1j * n * np.angle(alpha))


def _scaled_hermite_ladder(kmax: int, xy, ysq) -> np.ndarray:
    """Rescaled Hermite values h_k = H_k(x) y^k given xy = x*y and ysq = y^2.

    Only integer powers of y^2 enter, so no square-root branch is ever taken;
    the ladder stays finite for arbitrarily small squeezing (ysq -> 0 smoothly
    reduces it to plain powers of 2*xy).
    """
    h = np.empty((kmax + 1,) + np.shape(xy), dtype=complex)
    h[0] = 1.0
    if kmax:
        h[1] = two_xy = 2.0 * xy
    for k in range(1, kmax):
        h[k + 1] = two_xy * h[k] - 2.0 * k * ysq * h[k - 1]
    return h


@lru_cache(maxsize=256)
def _contraction_terms(ms: tuple, ns: tuple, per_point: bool) -> tuple:
    """Read-only terms of the contraction, one per number ``i`` of ladder contractions.

    ``ms`` and ``ns`` are each a non-negative index or an evenly stepped
    ascending run, else ``ValueError`` (on every call: a raise is not
    cached).  Term ``i`` reads the suffixes ``[ra:]``/``[rb:]`` with ``m >= i``
    and ``n >= i``, whose ladder rows ``m - i``/``n - i`` are slices: it is
    ``(ra, rows_m, rb, rows_n, w)``, ``w[a, b] = sqrt(m! n!) / (i! (m-i)!
    (n-i)!)`` complex with a trailing point axis.  Per-point inputs (``ns``
    is ``0 .. max``) keep every input: ``rb`` is 0, ``rows_n`` is ``None``
    and ``w[a, n]`` is a table by input value, zero for ``n < i``.
    """
    def weight(m: int, n: int, i: int) -> float:
        if min(m, n) < i:
            return 0.0
        return math.exp(0.5 * (lgamma(m + 1) + lgamma(n + 1)) - lgamma(i + 1)
                        - lgamma(m - i + 1) - lgamma(n - i + 1))

    def step(idx: tuple) -> int:
        by = idx[1] - idx[0] if len(idx) > 1 else 1
        if not idx or idx[0] < 0 or by < 1 or idx != tuple(range(idx[0], idx[-1] + 1, by)):
            raise ValueError("an index block must be a non-negative index or an evenly "
                             f"stepped ascending run, got {list(idx)}")
        return by

    by_m, by_n = step(ms), step(ns)
    terms = []
    for i in range(min(ms[-1], ns[-1]) + 1):
        ra = next(a for a, m in enumerate(ms) if m >= i)
        rb = 0 if per_point else next(b for b, n in enumerate(ns) if n >= i)
        w = np.array([[weight(m, n, i) for n in ns[rb:]] for m in ms[ra:]], dtype=complex)
        w.flags.writeable = False
        terms.append((ra, slice(ms[ra] - i, ms[-1] - i + 1, by_m), rb,
                      None if per_point else slice(ns[rb] - i, ns[-1] - i + 1, by_n),
                      w if per_point else w[..., None]))
    return tuple(terms)


def sdf_amplitude_raw(m, n, xi_mag, xi_phase, alpha_mag, alpha_phase):
    """Vectorized closed form for ``<m|S(xi)D(alpha)|n>``; no range checks.

    Derived by inserting the normal-ordered squeeze between coherent-state
    generating kernels: the result is a finite contraction of two rescaled
    Hermite ladders, one per Fock index, summed over the number of ladder
    contractions.  The displacement is real: its phase is gauged away (see
    the module docstring).  ``m`` and ``n`` are each a non-negative index or
    an evenly stepped ascending run, such as ``(pair.m, pair.n)`` or
    ``range(k)`` (any other block raises ``ValueError``), and the ladders up
    to the largest index give the whole block, of shape ``shape(m) +
    shape(n) + shape(params)``.  The parameters broadcast on one flat point
    axis; a 0-d call is a one-point batch, so it gives the same bits as the
    same point inside a batch.

    An ``n`` of two or more axes gives each point its own non-negative
    inputs (a negative one raises ``ValueError``), in any order: its first
    axis is the block of inputs and its further axes broadcast against the
    parameters, for a result of shape ``shape(m) + shape(n)[:1] +
    shape(params)``.  Each entry equals the block form's for its input.
    """
    ms, ns = np.asarray(m, dtype=int), np.asarray(n, dtype=int)
    phi = np.asarray(alpha_phase, dtype=float)
    params = [np.asarray(x, dtype=float) for x in (xi_mag, xi_phase, alpha_mag)]
    shape = np.broadcast_shapes(ns.shape[1:], phi.shape, *(x.shape for x in params))
    gauge = bool(phi.any())
    if gauge:
        params[1] = params[1] - 2.0 * phi
        params.append(phi)
    params = [(x if x.shape == shape else np.broadcast_to(x, shape)).reshape(-1) for x in params]
    r, th, amag = params[:3]

    per_point = ns.ndim > 1
    mk = tuple(ms.ravel().tolist())
    if per_point:
        idx = (ns if ns.shape[1:] == shape else np.broadcast_to(ns, ns.shape[:1] + shape))
        idx = idx.reshape(len(ns), -1)
        if idx.min(initial=0) < 0:
            raise ValueError(f"per-point inputs must be non-negative, got {idx.min()}")
        nk = tuple(range(int(idx.max(initial=0)) + 1))
    else:
        nk = tuple(ns.ravel().tolist())
    terms = _contraction_terms(mk, nk, per_point)

    cinv, half_a = 1.0 / np.cosh(r), 0.5 * amag
    tau = np.tanh(r) * np.exp(1j * th)
    tau_conj = np.conj(tau)
    tc1 = tau_conj - 1.0
    a00 = np.exp(half_a * amag * tc1) * np.sqrt(cinv)
    h_m = _scaled_hermite_ladder(mk[-1], half_a * cinv, 0.5 * tau)
    h_n = _scaled_hermite_ladder(nk[-1], half_a * tc1, -0.5 * tau_conj)
    # the contraction's buffers set the call's peak memory: free what it does not read
    del tau, tau_conj, tc1

    acc = np.empty((len(mk), len(idx) if per_point else len(nk), r.size), dtype=complex)
    # one workspace per call, never shared with another call: each term's
    # weighted rows and its product, on the term's sub-block
    work = np.empty((2,) + acc.shape, dtype=complex)
    if per_point:
        # each point reads its own entries of the input ladder's rows laid out
        # flat; an input below i reads a clipped row, and its weight is zero
        flat, size = idx * r.size + np.arange(r.size), r.size
        h_n = h_n.reshape(-1)
    scale = 1.0
    for i, (ra, rows_m, rb, rows_n, w) in enumerate(terms):
        # only the nonzero sub-block, rows with m >= i times inputs with n >= i:
        # (w h_m) (h_n / cosh(r)^i); tests compare the sum bit for bit with a plain loop
        if per_point:
            w, y = w[:, idx], h_n.take(flat - i * size, mode="clip") * scale
        else:
            y = h_n[rows_n] * scale
        wx, term = work[:, : len(acc) - ra, : acc.shape[1] - rb]
        np.multiply(w, h_m[rows_m][:, None], out=wx)
        if i == 0:
            np.multiply(wx, y[None], out=acc)
        else:
            np.multiply(wx, y[None], out=term)
            np.add(acc[ra:, rb:], term, out=acc[ra:, rb:])
        scale = scale * cinv
    # not a00 * acc: broadcast from 1-D, a one-point a00 takes a loop that rounds unlike a batch's
    out = a00[None, None] * acc
    if gauge:
        n_at = idx if per_point else ns.reshape(-1, 1)
        out = out * np.exp(1j * ((ms.reshape(-1, 1, 1) - n_at) * params[3]))
    return out.reshape(ms.shape + ns.shape[:1] + shape)


def sdf_amplitude(m: int, n: int, g: GaussianParams) -> complex:
    """Amplitude ``<m|S(xi)D(alpha)|n>`` of the squeeze-then-displace unitary.

    Analytic route; agrees with the truncated-matrix oracle
    ``build_gaussian_matrix`` to better than 1e-8 across the validated
    parameter box.  Outside that box a ``ParamRangeError`` is raised and the
    caller may fall back to the matrix construction.
    """
    if m < 0 or n < 0:
        raise ValueError("Fock indices must be non-negative")
    if max(m, n) > SDF_INDEX_CAP:
        raise UnsupportedOrderError(
            f"Fock index {max(m, n)} above closed-form cap {SDF_INDEX_CAP}; "
            "use build_gaussian_matrix")
    if g.xi_mag > SDF_XI_MAX or g.alpha_mag > SDF_ALPHA_MAX:
        raise ParamRangeError(
            f"parameters |xi|={g.xi_mag:.3f}, |alpha|={g.alpha_mag:.3f} outside "
            f"validated range |xi|<={SDF_XI_MAX}, |alpha|<={SDF_ALPHA_MAX}")
    return complex(sdf_amplitude_raw(m, n, g.xi_mag, g.xi_phase,
                                     g.alpha_mag, g.alpha_phase))


def bogoliubov_displacement(alpha: complex, xi: complex) -> complex:
    """Displacement ``beta`` with ``D(alpha) S(xi) = S(xi) D(beta)``.

    ``beta = alpha cosh r + conj(alpha) e^{i theta} sinh r``; lets
    displace-after-squeeze states be built through the squeeze-first
    amplitudes without a second code path.
    """
    r = abs(xi)
    phase = np.exp(1j * np.angle(xi)) if r > 0 else 1.0
    return complex(alpha * np.cosh(r) + np.conj(alpha) * phase * np.sinh(r))


# ---------------------------------------------------------------------------
# truncated-matrix oracle
# ---------------------------------------------------------------------------


def _tridiagonal_eigh(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(lam, V)`` of the real symmetric tridiagonal matrix with diagonal ``diag``
    and off-diagonal ``off``; callers form only ``V f(lam) V^T``, blind to the signs of V."""
    lam, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, -1), UPLO="L")
    lam.flags.writeable = vec.flags.writeable = False
    return lam, vec


@lru_cache(maxsize=8)
def _generator_eigensystems(total: int) -> tuple:
    """Read-only eigensystems ``((lam, V), ((mu_0, W_0), (mu_1, W_1)))`` of
    ``X = a + a^+`` and, on the levels ``s, s+2, ...`` of each parity ``s``,
    of ``Y_s`` with off-diagonal ``sqrt((k+1)(k+2))/2``: with ``T = diag(i^p)``
    over the position ``p`` in the chain, ``a^+ - a = -i T X T^-1`` and
    ``(a^2 - a^+^2)/2 = i T Y_s T^-1``."""
    pos = _tridiagonal_eigh(np.zeros(total), np.sqrt(np.arange(1.0, total)))
    sectors = tuple(_tridiagonal_eigh(np.zeros(len(k) + 1), np.sqrt((k + 1) * (k + 2)) / 2)
                    for k in (np.arange(s, total - 2, 2.0) for s in (0, 1)))
    return pos, sectors


def build_gaussian_matrix(g: GaussianParams, dim: int,
                          pad: int = DEFAULT_PAD) -> np.ndarray:
    """Truncated matrix of ``S(xi) D(alpha)`` by generator exponentiation.

    The generators are exponentiated at dimension ``dim + pad`` and the
    result cropped to ``dim x dim``; column ``k`` of the crop holds the
    Fock coefficients of the squeezed-displaced number state
    ``S(xi) D(alpha) |k>``.  Accuracy of the crop degrades once the state
    energy ``~ (|alpha| e^{|xi|})^2`` approaches ``dim + pad``.

    The gauges ``D(alpha) = R(phi) D(|alpha|) R(-phi)`` and ``S(xi) =
    R(theta/2) S(r) R(-theta/2)``, ``R(phi) = exp(i phi n)``, leave real
    tridiagonal generators, so ``D_jk = e^{i(phi+pi/2)(j-k)} [V e^{-i|alpha|
    lam} V^T]_jk`` and ``S_jk = e^{i(theta+pi/2)(j-k)/2} [W e^{i r mu} W^T]_pq``
    (same parity).  Only the kept ``dim`` columns of D and rows of S are formed.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    if pad < 16:
        raise TruncationRiskError(
            f"pad {pad} leaves the requested {dim}x{dim} block too close to the "
            "truncation edge; use pad >= 16")
    (lam, vec), sectors = _generator_eigensystems(dim + pad)
    k = np.arange(dim + pad)
    # row j of disp is column j of V e^{-i|alpha| lam} V^T, times D's row gauge
    # and S's column gauge; one matrix-vector product per kept column, and one
    # dot product per kept entry below, so an entry does not depend on how
    # many rows and columns the crop keeps
    cols = vec[:dim, :, None]
    disp = (np.matmul(vec * np.cos(g.alpha_mag * lam), cols)
            - 1j * np.matmul(vec * np.sin(g.alpha_mag * lam), cols))[..., 0]
    disp = disp * np.exp(1j * (g.alpha_phase - 0.5 * g.xi_phase + 0.25 * math.pi) * k)
    out = np.empty((dim, dim), dtype=complex)
    for s, (mu, w) in enumerate(sectors):
        rows = w[: (dim - s + 1) // 2] * np.exp(1j * g.xi_mag * mu)
        rows = np.matmul(rows[:, None, None, :], w.T)
        out[s::2] = np.matmul(rows, np.ascontiguousarray(disp[:, s::2])[:, :, None])[..., 0, 0]
    return (np.exp(1j * (0.5 * g.xi_phase + 0.25 * math.pi) * k[:dim])[:, None] * out
            * np.exp(-1j * (g.alpha_phase + 0.5 * math.pi) * k[:dim]))


# ---------------------------------------------------------------------------
# coherence quantifier
# ---------------------------------------------------------------------------


def coherence_quantifier(rho: np.ndarray, pair: FockPair) -> float:
    """Coherence amplitude ``C_{m,n} = 2 |<m|rho|n>|`` of a square density matrix.

    Twice the modulus of the off-diagonal element; convex under mixing and
    insensitive to the phase of the superposition.
    """
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if pair.n >= rho.shape[0]:
        raise ValueError(
            f"pair ({pair.m},{pair.n}) outside matrix dimension {rho.shape[0]}")
    return 2.0 * float(np.abs(rho[pair.m, pair.n]))


def ideal_superposition(pair: FockPair, dim: int) -> np.ndarray:
    """Density matrix of the balanced superposition ``(|m> + |n>)/sqrt(2)``
    on ``dim`` levels."""
    if dim <= pair.n:
        raise ValueError("dimension too small for the requested pair")
    v = np.zeros(dim, dtype=complex)
    v[[pair.m, pair.n]] = 1.0 / math.sqrt(2.0)
    return np.outer(v, v.conj())
