"""Derivative-free bounded maximization shared by all threshold searches.

Coarse grid seeding over the box, then Nelder-Mead refinement from the best
seeds.  The refinement starts advance in lockstep: each simplex stage
(reflection; expansion or contraction; shrink) is one batch evaluation over
the starts that take it.  Each start follows scipy's bounded, non-adaptive
Nelder-Mead step for step, with the same initial simplex, clipping and
stopping rule.  That stop is loose (``XATOL``, ``FATOL``): the two best starts
of every group are then finished with safeguarded Newton steps on a
central-difference stencil of the objective, all finishes in lockstep with
one batch evaluation per step.  Deterministic: no randomness enters the
search, so identical specs give identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Callable, Sequence

import numpy as np

#: scipy's non-adaptive coefficients: reflection, expansion, contraction, shrink
RHO, CHI, PSI, SIGMA = 1, 2, 0.5, 0.5
#: initial-simplex steps: relative for a nonzero coordinate, absolute for zero
NONZDELT, ZDELT = 0.05, 0.00025
#: per-start stopping rule
XATOL, FATOL = 1e-4, 1e-7
MAXITER, MAXFEV = 4000, 8000
#: Newton finish: difference step (at 1e-4 the O(h^2) gradient error left
#: optima near |alpha| = 6 up to 1e-13 low), stencils per finished start (the
#: first at the simplex's point), and the predicted gain, relative to
#: ``max(1, |f|)``, below which a step is not taken
FINISH_H = 3e-5
FINISH_STEPS = 4
FINISH_GAIN = 1e-15


class NonConvergenceError(RuntimeError):
    """Search failed to improve or to stabilize; carries the full trace."""

    def __init__(self, message: str, trace: dict):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SearchSpec:
    """Box bounds and convergence tolerance for one maximization run."""

    bounds: tuple[tuple[float, float], ...]
    tol: float = 1e-9

    def __post_init__(self) -> None:
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        object.__setattr__(self, "bounds", bounds)
        for lo, hi in bounds:
            if not lo < hi:
                raise ValueError(f"invalid interval ({lo}, {hi})")
        if self.tol > 1e-6:
            raise ValueError("convergence tolerance must be <= 1e-6")


@dataclass
class MaximizeResult:
    argmax: np.ndarray
    value: float
    trace: dict = field(repr=False)
    #: one result per group searched (see ``maximize``)
    groups: list["MaximizeResult"] = field(default_factory=list, repr=False)

    @property
    def converged(self) -> bool:
        return bool(self.trace.get("converged", False))


def _grid_points(spec: SearchSpec, density: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, density) for lo, hi in spec.bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


#: second-stage point ``a * xbar - b * worst`` for expansion, outside and
#: inside contraction (inside: ``(1 - PSI) xbar + PSI worst``)
_STAGE_A = np.array([1 + RHO * CHI, 1 + PSI * RHO, 1 - PSI])
_STAGE_B = np.array([RHO * CHI, PSI * RHO, -PSI])


def _sort_simplices(sim: np.ndarray, fsim: np.ndarray):
    ind = fsim.argsort(axis=1)
    starts = np.arange(len(fsim))[:, None]
    return sim[starts, ind], fsim[starts, ind]


def nelder_mead(fun: Callable[..., np.ndarray], x0: np.ndarray,
                lo: np.ndarray, hi: np.ndarray, labels: np.ndarray | None = None):
    """Minimize the batch function ``fun`` from every row of ``x0`` in lockstep.

    ``fun`` maps an ``(npts, ndim)`` array to ``npts`` values; with ``labels``
    (one per start) it is called as ``fun(pts, labels_of_pts)``.  Returns the
    per-start minimizers, minima, evaluation counts and success flags (False
    when a start ran out of iterations or evaluations).  A start that reaches
    ``MAXFEV`` mid-iteration stops where scipy's evaluation counter would
    stop it, so its simplex is left exactly as scipy leaves it.
    """
    def ev(pts: np.ndarray, starts: np.ndarray) -> np.ndarray:
        return fun(pts) if labels is None else fun(pts, labels[starts])

    n_starts, ndim = x0.shape
    sim = np.repeat(np.clip(x0, lo, hi)[:, None, :], ndim + 1, axis=1)
    for k in range(ndim):
        coord = sim[:, k + 1, k]
        sim[:, k + 1, k] = np.where(coord != 0, (1 + NONZDELT) * coord, ZDELT)
    # a vertex stepped past the upper bound is reflected back into the box
    sim = np.clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)
    fsim = ev(sim.reshape(-1, ndim),
              np.repeat(np.arange(n_starts), ndim + 1)).reshape(n_starts, ndim + 1)
    nfev = np.full(n_starts, ndim + 1)
    iters = np.ones(n_starts, dtype=int)
    # scipy sorts the initial simplex twice; an unstable sort may reorder ties
    for _ in range(2):
        sim, fsim = _sort_simplices(sim, fsim)

    x_out, f_out = np.empty((n_starts, ndim)), np.empty(n_starts)
    nfev_out, ok_out = np.empty(n_starts, dtype=int), np.empty(n_starts, dtype=bool)
    act = np.arange(n_starts)          # starts still running, by input row
    rows = np.arange(ndim)
    while True:
        within = (nfev < MAXFEV) & (iters < MAXITER)
        live = within & ~(
            (np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= XATOL)
            & (np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= FATOL))
        if not live.all():
            out, stop = act[~live], ~live
            x_out[out], f_out[out] = sim[stop, 0], np.min(fsim[stop], axis=1)
            nfev_out[out], ok_out[out] = nfev[stop], within[stop]
            act, sim, fsim = act[live], sim[live], fsim[live]
            nfev, iters = nfev[live], iters[live]
            if act.size == 0:
                return x_out, f_out, nfev_out, ok_out

        xbar = np.add.reduce(sim[:, :-1], 1) / ndim
        worst = sim[:, -1]
        xr = ((1 + RHO) * xbar - RHO * worst).clip(lo, hi)
        fxr = ev(xr, act)
        nfev += 1
        expand = fxr < fsim[:, 0]
        keep_r = ~expand & (fxr < fsim[:, -2])
        outside = ~expand & ~keep_r & (fxr < fsim[:, -1])

        # expansion or contraction; a start with no evaluation left stalls
        second = ~keep_r & (nfev < MAXFEV)
        stage = np.where(expand, 0, np.where(outside, 1, 2))
        x2 = (_STAGE_A[stage, None] * xbar - _STAGE_B[stage, None] * worst).clip(lo, hi)
        f2 = np.full(len(act), np.nan)
        if second.any():
            f2[second] = ev(x2[second], act[second])
            nfev += second
        take2 = second & np.where(expand, f2 < fxr,
                                  np.where(outside, f2 <= fxr, f2 < fsim[:, -1]))
        replace = keep_r | (second & expand) | take2
        sim[replace, -1] = np.where(take2[:, None], x2, xr)[replace]
        fsim[replace, -1] = np.where(take2, f2, fxr)[replace]

        stalled = ~keep_r & ~second
        shrink = np.flatnonzero(second & ~replace)
        if shrink.size:
            best = sim[shrink, :1]
            pts = np.clip(best + SIGMA * (sim[shrink, 1:] - best), lo, hi)
            budget = MAXFEV - nfev[shrink]
            # scipy moves vertex j before evaluating it, so the vertex whose
            # evaluation would exceed MAXFEV still moves
            moved = rows <= budget[:, None]
            evaluated = rows < budget[:, None]
            sub, fsub = sim[shrink, 1:], fsim[shrink, 1:]
            sub[moved] = pts[moved]
            if evaluated.any():
                fsub[evaluated] = ev(pts[evaluated],
                                     np.repeat(act[shrink], evaluated.sum(axis=1)))
            sim[shrink, 1:], fsim[shrink, 1:] = sub, fsub
            nfev[shrink] += evaluated.sum(axis=1)
            stalled[shrink] = budget < ndim

        iters += ~stalled
        sim, fsim = _sort_simplices(sim, fsim)


def _stencil(ndim: int) -> np.ndarray:
    """Offset taken on each axis by each stencil point: 0 none, 1 the lower,
    2 the upper.  The centre, two points per axis and four per pair of axes:
    ``1 + 2n + 2n(n - 1)`` points."""
    eye = np.eye(ndim, dtype=int)
    return np.array([0 * eye[0]] + [a * eye[i] for i in range(ndim) for a in (1, 2)]
                    + [a * eye[i] + b * eye[j] for i, j in combinations(range(ndim), 2)
                       for a, b in product((1, 2), repeat=2)])


def _newton_step(vals: np.ndarray, x: np.ndarray, du: np.ndarray, dv: np.ndarray,
                 lo: np.ndarray, hi: np.ndarray):
    """Ascent step and its predicted gain from stencil values ``vals`` at ``x``.

    Each axis has its two offsets ``du < dv`` (either side of the centre, or
    both on the inner side near a bound), so the differences are exact for
    quadratics.  A coordinate on a bound whose gradient points out of the box
    is held fixed; of the rest, only directions of negative curvature are
    stepped, so flat directions (a ring of maxima) stay where they are.
    """
    n_pts, ndim = x.shape
    f0 = vals[:, :1]
    fu, fv = vals[:, 1:1 + 2 * ndim:2] - f0, vals[:, 2:2 + 2 * ndim:2] - f0
    den = du * dv * (dv - du)
    grad = (fu * dv ** 2 - fv * du ** 2) / den
    hess = np.zeros((n_pts, ndim, ndim))
    hess[:, range(ndim), range(ndim)] = 2.0 * (fv * du - fu * dv) / den
    i, j = np.array(list(combinations(range(ndim), 2)), dtype=int).reshape(-1, 2).T
    uu, uv, vu, vv = vals[:, 1 + 2 * ndim:].reshape(n_pts, len(i), 4).transpose(2, 0, 1)
    hess[:, i, j] = hess[:, j, i] = (vv - vu - uv + uu) / ((dv - du)[:, i] * (dv - du)[:, j])
    free = ~(((x <= lo) & (grad < 0)) | ((x >= hi) & (grad > 0)))
    lam, vec = np.linalg.eigh(hess * free[:, :, None] * free[:, None, :])
    proj = (vec * (grad * free)[:, :, None]).sum(axis=1)
    # curvature within 1e-6 of the largest is rounding noise: flat
    neg = lam < -1e-6 * np.abs(lam).max(axis=1, keepdims=True)
    coef = np.where(neg, proj / np.where(neg, lam, -1.0), 0.0)
    step = -(vec * coef[:, None, :]).sum(axis=2) * free
    gain = -0.5 * (coef * proj).sum(axis=1)
    return step, gain


def _finish(fun: Callable[[np.ndarray, np.ndarray], np.ndarray], x: np.ndarray,
            fx: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Safeguarded Newton ascent from every row of ``x`` (values ``fx``) in lockstep.

    ``fun(pts, starts)`` returns each start's objective at its points.  Every
    step is one call over the stencils of the running starts: the stencil's
    centre is the trial point, accepted only if it does not lower the value,
    and its differences give the next step.  A start stops at a rejected
    step, when its next step would gain less than ``FINISH_GAIN`` (relative
    to ``max(1, |f|)``), or after ``FINISH_STEPS`` stencils.  Returns the
    finished points, values, accepted steps and evaluations per start.
    """
    n_pts, ndim = x.shape
    sel = _stencil(ndim)
    h = np.minimum(FINISH_H, (hi - lo) / 4)
    x, fx, trial = x.copy(), fx.copy(), x.copy()
    steps, evals = np.zeros(n_pts, dtype=int), np.zeros(n_pts, dtype=int)
    act = np.arange(n_pts)
    for _ in range(FINISH_STEPS):
        if act.size == 0:
            break
        t = trial[act]
        # near a bound both offsets of an axis go to its inner side
        shift = np.where(t - h < lo, 1.5 * h, np.where(t + h > hi, -1.5 * h, 0.0))
        xu, xv = t + (shift - h), t + (shift + h)
        pts = np.where(sel == 1, xu[:, None], np.where(sel == 2, xv[:, None], t[:, None]))
        vals = fun(pts.reshape(-1, ndim), np.repeat(act, len(sel))).reshape(len(act), -1)
        evals[act] += len(sel)
        ok = vals[:, 0] >= fx[act]
        act, t, vals, xu, xv = act[ok], t[ok], vals[ok], xu[ok], xv[ok]
        steps[act] += np.any(t != x[act], axis=1)
        x[act], fx[act] = t, vals[:, 0]
        step, gain = _newton_step(vals, t, xu - t, xv - t, lo, hi)
        trial[act] = np.clip(t + step, lo, hi)
        act = act[gain > FINISH_GAIN * np.maximum(1.0, np.abs(fx[act]))]
    return x, fx, steps, evals


@dataclass(frozen=True, eq=False)
class Group:
    """One objective row searched in a ``maximize`` run, with its own seeding:
    a grid of ``grid_density`` points per axis, plus ``seeds`` (e.g.
    analytically motivated points, clipped into the box), from whose best
    ``n_starts`` points the refinement starts.
    """

    row: int = 0
    grid_density: int = 12
    n_starts: int = 16
    seeds: Sequence[np.ndarray] = ()

    def __post_init__(self) -> None:
        if self.n_starts < 8:
            raise ValueError("need at least 8 refinement starts")
        if self.grid_density < 2:
            raise ValueError("grid density must be >= 2")


def maximize(objective: Callable[[np.ndarray], float] | None, spec: SearchSpec,
             batch_objective: Callable[[np.ndarray], np.ndarray] | None = None,
             groups: Sequence[Group] = (Group(),)) -> MaximizeResult:
    """Maximize over the box in ``spec``.

    ``batch_objective`` evaluates a whole ``(npts, ndim)`` array at once and
    drives every stage of the search.  Without it, the scalar ``objective``
    is applied point by point in its place.

    ``batch_objective`` returns a table with one row per objective; a 1-D
    result is a one-row table.  Each entry of ``groups`` searches its row
    (several entries may share one) from its own grid and seeds with its own
    starts in the one lockstep run, so its result is what it would get alone
    as long as no point's value depends on the others in its batch.  The
    result is the best group's, with every start in its trace and each
    group's result in ``groups``.

    Every start runs Nelder-Mead to the loose, scipy-identical stop; its
    trace record (``x``, ``value``, ``nfev``) is the simplex's.  The two best
    starts of each group are then finished by ``_finish``, all groups in
    lockstep with one batch evaluation per Newton step; the group's trace
    records them under ``finish`` (points, values, steps, evaluations, best
    first).  The argmax and value are the better finished start's, and the
    group is ``converged`` when the two finished values agree to ``spec.tol``.

    Raises ``NonConvergenceError`` when no refinement start (of a group)
    reaches the best grid seed; trace records per-start outcomes either way.
    """
    if batch_objective is None:
        def batch_objective(pts: np.ndarray) -> np.ndarray:
            return np.array([objective(x) for x in pts.copy()], dtype=float)

    def table(pts: np.ndarray) -> np.ndarray:
        return np.atleast_2d(np.asarray(batch_objective(pts), dtype=float))

    lo, hi = np.array(spec.bounds).T
    # each group reads its row off its grid's table (one evaluation per grid
    # density) and off the table of its own clipped seeds
    grids, own = {}, []
    for g in groups:
        if g.grid_density not in grids:
            pts = _grid_points(spec, g.grid_density)
            grids[g.grid_density] = pts, table(pts)
        pts, vals = grids[g.grid_density]
        if len(g.seeds) > 0:
            extras = np.clip(np.atleast_2d(np.asarray(g.seeds, dtype=float)), lo, hi)
            pts, vals = np.vstack([pts, extras]), np.hstack([vals, table(extras)])
        own.append((pts, vals[g.row]))
    if not all(np.all(np.isfinite(vals)) for _, vals in own):
        raise ValueError("objective not finite on the search box")

    counts = [g.n_starts for g in groups]
    seeds = np.concatenate([pts[np.argsort(vals)[::-1][:n]]
                            for (pts, vals), n in zip(own, counts)])
    rows = np.repeat([g.row for g in groups], counts)
    runs = nelder_mead(lambda p, labels: -table(p)[labels, np.arange(len(labels))],
                       seeds, lo, hi, rows)
    xs, fs = runs[:2]

    # every group's two best starts (stable: as ranked in its trace), finished
    offsets = np.cumsum([0] + counts)
    top = np.concatenate([a + np.argsort(fs[a:b], kind="stable")[:2]
                          for a, b in zip(offsets, offsets[1:])])
    fin_x, fin_f, fin_steps, fin_evals = _finish(
        lambda p, s: table(p)[rows[top][s], np.arange(len(s))], xs[top], -fs[top], lo, hi)

    results = []
    for i, ((pts, vals), a, b) in enumerate(zip(own, offsets, offsets[1:])):
        starts = [{"x0": x0.tolist(), "x": x.tolist(), "value": -float(f),
                   "nfev": int(nfev), "success": bool(ok)}
                  for x0, x, f, nfev, ok in zip(seeds[a:b], *(arr[a:b] for arr in runs))]
        starts.sort(key=lambda s: s["value"], reverse=True)
        pair = sorted((2 * i, 2 * i + 1), key=lambda j: -fin_f[j])
        best, runner_up = (float(fin_f[j]) for j in pair)
        trace = {"grid_points": len(pts), "grid_best": float(vals.max()),
                 "starts": starts,
                 "finish": {"points": fin_x[pair].tolist(), "values": fin_f[pair].tolist(),
                            "steps": fin_steps[pair].tolist(),
                            "evaluations": int(fin_evals[pair].sum())},
                 "best_value": best, "runner_up_value": runner_up,
                 "converged": abs(best - runner_up) <= max(spec.tol, spec.tol * abs(best))}
        if best < trace["grid_best"] - 1e-12:
            raise NonConvergenceError("no refinement start reached the grid seed value "
                                      f"{trace['grid_best']!r}", trace)
        # the value is the objective exactly as evaluated at the returned point
        results.append(MaximizeResult(fin_x[pair[0]], best, trace))

    top = max(results, key=lambda res: res.value)
    return MaximizeResult(top.argmax, top.value, groups=results, trace=dict(
        top.trace, starts=[s for res in results for s in res.trace["starts"]]))
