"""Hierarchy of coherence thresholds and certification against them.

Four nested families of states bound the coherence amplitude C_{m,n} from
below the quantum non-Gaussian regime:

* ``CLASSICAL``       - mixtures of coherent states (closed form),
* ``GAUSSIAN_MIN``    - mixtures of pure Gaussian states S(xi)D(alpha)|0>,
* ``GAUSSIAN_INTRINSIC`` - Gaussian operations applied to any single Fock state
  |k>, k <= MAX_FOCK,
* ``GENUINE_N``       - Gaussian operations applied to any superposition of
  Fock states below max(m,n) (the core state).

C_{m,n} is convex, so each threshold is attained on the pure extreme points
of its family and the searches below optimize over those directly.  All
objectives are evaluated through the analytic squeezed-displaced amplitudes
in :mod:`qngcoh.fock`; the truncated-matrix construction serves as an
independent cross-check of every reported optimum.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import asdict, dataclass, field
from itertools import groupby
from math import lgamma

import numpy as np

from . import fock
from .fock import (FockPair, GaussianParams, TruncationRiskError,
                   build_gaussian_matrix, sdf_amplitude_raw)
from .optimize import Group, SearchSpec, maximize

#: search box: squeeze magnitude, squeeze phase, displacement magnitude
#: (displacement phase is gauged away by a number-conserving rotation, and
#: complex conjugation maps squeeze phase theta to 2 pi - theta at the same
#: value, so theta is searched on [0, pi])
XI_BOUND = 1.5
ALPHA_BOUND = 4.0

#: caps for the bound-doubling retry, matching the validated amplitude range
XI_CAP = fock.SDF_XI_MAX
ALPHA_CAP = fock.SDF_ALPHA_MAX

#: the largest intrinsic Fock input, and the largest pair index any searched
#: kind admits: above it the inputs leave out the Fock states that matter
MAX_FOCK = 10


class ThresholdKind(enum.IntEnum):
    """Threshold families, ordered from weakest to strongest."""

    CLASSICAL = 0
    GAUSSIAN_MIN = 1
    GAUSSIAN_INTRINSIC = 2
    GENUINE_N = 3


ORDERED_KINDS = (ThresholdKind.CLASSICAL, ThresholdKind.GAUSSIAN_MIN,
                 ThresholdKind.GAUSSIAN_INTRINSIC, ThresholdKind.GENUINE_N)

KIND_NAMES = {
    ThresholdKind.CLASSICAL: "classical",
    ThresholdKind.GAUSSIAN_MIN: "gaussian-min",
    ThresholdKind.GAUSSIAN_INTRINSIC: "intrinsic",
    ThresholdKind.GENUINE_N: "genuine",
}
NAMES_TO_KIND = {v: k for k, v in KIND_NAMES.items()}


def parse_kind(name: str) -> ThresholdKind:
    key = name.strip().lower() if isinstance(name, str) else None
    if key not in NAMES_TO_KIND:
        raise ValueError(
            f"unknown threshold kind {name!r}; choose from {sorted(NAMES_TO_KIND)}")
    return NAMES_TO_KIND[key]


@dataclass
class ThresholdResult:
    """Outcome of one threshold search."""

    kind: ThresholdKind
    pair: FockPair
    value: float
    argmax: GaussianParams
    fock_index: int | None = None
    #: unit-norm Fock coefficients of the genuine optimum's core state
    core_state: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict, repr=False)

    def as_dict(self) -> dict:
        """Value, argmax and, when set, Fock input, core state and (searched
        kinds) whether the optimum was left on the capped box and whether the
        two best starts agreed, as JSON data."""
        out = {"value": self.value, "argmax": asdict(self.argmax),
               "fock_index": self.fock_index, "at_cap": self.diagnostics.get("at_cap"),
               "converged": self.diagnostics.get("converged")}
        if self.core_state is not None:
            out["core_state"] = {"re": self.core_state.real.tolist(),
                                 "im": self.core_state.imag.tolist()}
        return out


@dataclass
class CertificationReport:
    """Measured coherence compared against the full threshold hierarchy."""

    pair: FockPair
    measured: float
    uncertainty: float
    thresholds: dict[ThresholdKind, float]
    margins: dict[ThresholdKind, float]
    verdicts: dict[ThresholdKind, bool]
    marginal: dict[ThresholdKind, bool]
    depths: dict[ThresholdKind, float]


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def _pair_objective(pair: FockPair, n_inputs: int):
    """Values of the Gaussian searches of ``pair``: row ``rows[i]`` at point
    ``pts[i]`` of an ``(npts, 3)`` array, or for rows of shape ``(R, 1)`` the
    ``(R, npts)`` table of each row at every point, with the same bits.

    Row ``k < n_inputs`` is C_{m,n} of S(xi)D(alpha)|k>, from the two
    amplitudes of the point's own input.  Row ``n_inputs`` is the
    core-state-optimized coherence ``||u|| ||v|| + |<u,v>|`` for the overlaps
    ``u_j = a_{m,j}``, ``v_j = a_{n,j}``, ``j < n``: the rank-2 closed form of
    the top eigenvalue of the phase-optimized coherence matrix, whose top
    eigenvector is the best core state.
    """
    def f_batch(pts: np.ndarray, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows)
        if rows.size and (rows.min() < 0 or rows.max() > n_inputs):
            raise ValueError(f"rows must lie in 0..{n_inputs}, got "
                             f"{rows.min()}..{rows.max()}")
        table = rows.ndim == 2   # the intrinsic rows of a table are one block
        single = (rows[:, 0] if table else rows) < n_inputs
        out = np.empty((len(rows), len(pts)) if table else len(pts))
        # no point's value depends on the points evaluated beside it: the
        # kernel works point by point and gives a per-point input the bits of
        # the block form, the intrinsic rows take two moduli (the modulus of
        # a complex product rounded with the point's place in the batch), and
        # builtin sum adds the core terms in index order at any batch size
        # (numpy pairs them up for a one-point batch)
        if single.any():
            if table:
                k = rows[single, 0]
                am, an = sdf_amplitude_raw((pair.m, pair.n), range(k.max() + 1), *pts.T, 0.0)
                am, an = am[k], an[k]
            else:
                (am,), (an,) = sdf_amplitude_raw((pair.m, pair.n), rows[single][None],
                                                 *pts[single].T, 0.0)
            out[single] = 2.0 * np.abs(am) * np.abs(an)
        if not single.all():
            u, v = sdf_amplitude_raw((pair.m, pair.n), range(pair.n),
                                     *(pts if table else pts[~single]).T, 0.0)
            nu, nv = np.sqrt(sum(np.abs(u) ** 2)), np.sqrt(sum(np.abs(v) ** 2))
            out[~single] = nu * nv + np.abs(sum(np.conj(u) * v))
        return out

    return f_batch


def genuine_coherence_matrix(u: np.ndarray, v: np.ndarray,
                             theta: float) -> np.ndarray:
    """Hermitian matrix whose top eigenvalue is the best core-state coherence
    at interference phase ``theta``."""
    block = np.exp(1j * theta) * np.outer(np.conj(u), v)
    return block + block.conj().T


# ---------------------------------------------------------------------------
# search driver
# ---------------------------------------------------------------------------


def _search_gaussian(batch_objective, groups=(Group(),)):
    """Multistart search over (|xi|, arg xi in [0, pi], |alpha|) with bound doubling.

    A magnitude bound hit at the optimum doubles that bound (up to the
    validated amplitude range) and reruns, so reported maxima are never
    artifacts of the box.  The trace records every box tried as
    ``magnitude_bounds`` ([|xi| bound, |alpha| bound] per run) and sets
    ``at_cap`` when the optimum is left on a magnitude bound that could not
    be doubled further.

    Returns one result per entry of ``groups`` (see ``maximize``); the
    groups share each run and keep their own boxes.
    """
    box = [(XI_BOUND, ALPHA_BOUND)] * len(groups)
    boxes, results = [[] for _ in groups], [None] * len(groups)
    pending = list(range(len(groups)))
    for _ in range(3):
        runs = groupby(sorted(pending, key=box.__getitem__), key=box.__getitem__)
        pending = []
        for (xi_hi, alpha_hi), members in ((b, list(m)) for b, m in runs):
            spec = SearchSpec(bounds=((0.0, xi_hi), (0.0, math.pi),
                                      (0.0, alpha_hi)))
            res = maximize(None, spec, batch_objective=batch_objective,
                           groups=[groups[i] for i in members])
            for i, part in zip(members, res.groups):
                boxes[i].append([xi_hi, alpha_hi])
                on_xi = part.argmax[0] > xi_hi - 1e-3
                on_alpha = part.argmax[2] > alpha_hi - 1e-3
                part.trace["magnitude_bounds"] = boxes[i]
                part.trace["at_cap"] = bool(on_xi or on_alpha)
                results[i] = part
                grow_xi = on_xi and xi_hi < XI_CAP
                grow_alpha = on_alpha and alpha_hi < ALPHA_CAP
                if grow_xi or grow_alpha:
                    box[i] = (min(2.0 * xi_hi, XI_CAP) if grow_xi else xi_hi,
                              min(2.0 * alpha_hi, ALPHA_CAP) if grow_alpha else alpha_hi)
                    pending.append(i)
        if not pending:
            break
    return results


def _recheck_truncation(result: ThresholdResult) -> None:
    """Re-evaluate the optimum through the truncated-matrix route at
    ``dim = DEFAULT_TRUNC`` and ``2 dim``; all three values must agree to 1e-6.

    Each truncation exponentiates at its full ``d + DEFAULT_PAD`` levels but
    keeps only the block that holds rows ``m, n`` and the input columns."""
    dim = fock.DEFAULT_TRUNC
    k = result.fock_index if result.fock_index is not None else 0
    c = result.core_state if result.core_state is not None else np.eye(k + 1)[k]
    block = max(result.pair.n + 1, len(c))
    crops = (build_gaussian_matrix(result.argmax, block, pad=d + fock.DEFAULT_PAD - block)
             for d in (dim, 2 * dim))
    vals = [2.0 * abs(psi[result.pair.m] * np.conj(psi[result.pair.n]))
            for psi in (crop[:, : len(c)] @ c for crop in crops)]
    spread = max(abs(vals[0] - vals[1]), abs(vals[1] - result.value))
    if spread > 1e-6:
        raise TruncationRiskError(
            f"threshold optimum unstable under truncation doubling: "
            f"spread {spread:.3e} at {result.kind.name} ({result.pair})")
    result.diagnostics["truncation_recheck"] = {
        "dims": [dim, 2 * dim], "values": [float(v) for v in vals]}


# ---------------------------------------------------------------------------
# in-process memo
# ---------------------------------------------------------------------------

_MEMO: dict = {}
_MEMO_LOCK = threading.Lock()


def clear_threshold_cache() -> None:
    with _MEMO_LOCK:
        _MEMO.clear()


def _memoized(key: tuple, compute):
    """The memo entry at ``key``.  On a miss ``compute()`` returns a dict of
    entries, ``key`` among them; each is inserted unless already present."""
    with _MEMO_LOCK:
        if key in _MEMO:
            return _MEMO[key]
    entries = compute()
    with _MEMO_LOCK:
        for k, result in entries.items():
            _MEMO.setdefault(k, result)
        return _MEMO[key]


# ---------------------------------------------------------------------------
# threshold operations
# ---------------------------------------------------------------------------


def classical_threshold(pair: FockPair) -> ThresholdResult:
    """Largest C_{m,n} over coherent states, in closed form.

    The coherent objective ``2 |alpha|^{m+n} e^{-|alpha|^2} / sqrt(m! n!)``
    is stationary at ``|alpha|^2 = (m+n)/2``; the factorial weight is
    evaluated in log space.
    """
    m, n = pair.m, pair.n
    if m + n > 40:
        raise ValueError("closed form validated for m+n <= 40 only")

    def compute() -> ThresholdResult:
        s = m + n
        log_val = 0.5 * s * math.log(s / 2.0) - s / 2.0 \
            - 0.5 * (lgamma(m + 1) + lgamma(n + 1))
        value = 2.0 * math.exp(log_val)
        argmax = GaussianParams(0.0, 0.0, math.sqrt(s / 2.0), 0.0)
        result = ThresholdResult(ThresholdKind.CLASSICAL, pair, value, argmax,
                                 fock_index=0,
                                 diagnostics={"method": "closed-form"})
        _recheck_truncation(result)
        return result

    key = (ThresholdKind.CLASSICAL, m, n)
    return _memoized(key, lambda: {key: compute()})


def _cap_error(kind: ThresholdKind, pair: FockPair) -> str | None:
    """Why ``kind`` is not validated at ``pair``, or None: every searched kind
    admits the pairs with max(m, n) <= ``MAX_FOCK``, the classical kind all."""
    searched = kind != ThresholdKind.CLASSICAL
    return f"validated for max(m,n) <= {MAX_FOCK}" if searched and pair.n > MAX_FOCK else None


def _search_pair(pair: FockPair) -> dict:
    """Search every Gaussian kind at ``pair`` (admitted by ``_cap_error``) in
    one lockstep run over the rows of the pair's objective, then check each
    optimum.

    Intrinsic searches the rows of the input Fock levels up to ``MAX_FOCK``,
    genuine the closed-form row.  gaussian-min is intrinsic's vacuum input:
    it takes the result of input 0, so each row is searched once and
    gaussian-min <= intrinsic holds by construction.  Returns the memo
    entries of the three kinds; a failure of any search or check fails
    every kind of the pair.
    """
    intrinsic, genuine = ThresholdKind.GAUSSIAN_INTRINSIC, ThresholdKind.GENUINE_N
    inputs = range(MAX_FOCK + 1)
    groups = [Group(k, grid_density=9, n_starts=8) for k in inputs] + [Group(len(inputs))]
    runs = _search_gaussian(_pair_objective(pair, len(inputs)), groups)
    found_by_kind = {ThresholdKind.GAUSSIAN_MIN: runs[:1], intrinsic: runs[:len(inputs)],
                     genuine: runs[len(inputs):]}
    results = {}
    for kind, found in found_by_kind.items():
        k = max(range(len(found)), key=lambda j: found[j].value)
        best = found[k]
        result = ThresholdResult(kind, pair, best.value,
                                 GaussianParams(*map(float, best.argmax), 0.0),
                                 fock_index=k, diagnostics=dict(best.trace))
        if kind == intrinsic:
            result.diagnostics["per_fock_values"] = {j: r.value for j, r in enumerate(found)}
            result.diagnostics["per_fock_at_cap"] = {j: r.trace["at_cap"]
                                                     for j, r in enumerate(found)}
        elif kind == genuine:
            # the top eigenpair of the dense phase-optimized coherence matrix
            # must match the rank-2 closed form; its eigenvector is the core state
            u, v = sdf_amplitude_raw((pair.m, pair.n), range(pair.n), *best.argmax, 0.0)
            theta = -float(np.angle(np.vdot(u, v))) if pair.n > 1 else 0.0
            evals, evecs = np.linalg.eigh(genuine_coherence_matrix(u, v, theta))
            lam = float(evals[-1])
            if abs(lam - best.value) > 1e-9:
                raise RuntimeError(
                    f"rank-2 closed form and dense eigensolver disagree by "
                    f"{abs(lam - best.value):.3e} at the optimum of {pair}")
            result.fock_index, result.core_state = None, evecs[:, -1]
            result.diagnostics.update(eigensolver_value=lam, interference_phase=theta)
        _recheck_truncation(result)
        results[(kind, pair.m, pair.n)] = result
    return results


def threshold(kind: ThresholdKind, pair: FockPair) -> ThresholdResult:
    """Dispatch a threshold computation by kind (memoized).

    The Gaussian kinds of a pair share one search (``_search_pair``), which
    fills the memo for all of them.
    """
    if kind == ThresholdKind.CLASSICAL:
        return classical_threshold(pair)
    if kind not in ORDERED_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    problem = _cap_error(kind, pair)
    if problem is not None:
        raise ValueError(problem)
    return _memoized((kind, pair.m, pair.n), lambda: _search_pair(pair))


def depth_value(measured: float, threshold_value: float, delta: int) -> float:
    """Phase variance that dephases ``measured`` down to the threshold:
    ``(2 / delta^2) ln(measured / threshold)``, ``-inf`` for zero coherence."""
    if measured == 0.0:
        return float("-inf")
    return (2.0 / delta ** 2) * math.log(measured / threshold_value)


def certify(pair: FockPair, measured: float,
            uncertainty: float) -> CertificationReport:
    """Compare a measured coherence against all four thresholds.

    A verdict is ``True`` when the measured value exceeds the threshold; it
    is flagged marginal when the margin is smaller than the quoted
    uncertainty.  Depths are the dephasing headroom to each threshold
    (negative below it, ``-inf`` for zero measured coherence).
    """
    if not 0.0 <= measured <= 1.0:
        raise ValueError(f"measured coherence must lie in [0, 1], got {measured}")
    if not 0.0 <= uncertainty < math.inf:
        raise ValueError(f"uncertainty must be non-negative and finite, got {uncertainty}")

    thresholds, margins, verdicts, marginal, depths = {}, {}, {}, {}, {}
    for kind in ORDERED_KINDS:
        thr = threshold(kind, pair).value
        thresholds[kind] = thr
        margins[kind] = measured - thr
        verdicts[kind] = margins[kind] > 0.0
        marginal[kind] = abs(margins[kind]) < uncertainty
        depths[kind] = depth_value(measured, thr, pair.delta)
    return CertificationReport(pair=pair, measured=measured,
                               uncertainty=uncertainty, thresholds=thresholds,
                               margins=margins, verdicts=verdicts,
                               marginal=marginal, depths=depths)
