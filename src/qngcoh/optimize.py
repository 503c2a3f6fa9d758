"""Derivative-free bounded maximization shared by all threshold searches.

Coarse grid seeding over the box, then Nelder-Mead refinement from the best
seeds.  The refinement starts advance in lockstep: each simplex stage
(reflection; expansion or contraction; shrink) is one batch evaluation over
the starts that take it.  Each start follows scipy's bounded, non-adaptive
Nelder-Mead step for step, with the same initial simplex, clipping and
stopping rule.  Deterministic: no randomness enters the search, so identical
specs give identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

#: scipy's non-adaptive coefficients: reflection, expansion, contraction, shrink
RHO, CHI, PSI, SIGMA = 1, 2, 0.5, 0.5
#: initial-simplex steps: relative for a nonzero coordinate, absolute for zero
NONZDELT, ZDELT = 0.05, 0.00025
#: per-start stopping rule
XATOL, FATOL = 1e-10, 1e-13
MAXITER, MAXFEV = 4000, 8000


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

    results, offsets = [], np.cumsum([0] + counts)
    for (pts, vals), a, b in zip(own, offsets, offsets[1:]):
        starts = [{"x0": x0.tolist(), "x": x.tolist(), "value": -float(f),
                   "nfev": int(nfev), "success": bool(ok)}
                  for x0, x, f, nfev, ok in zip(seeds[a:b], *(arr[a:b] for arr in runs))]
        starts.sort(key=lambda s: s["value"], reverse=True)
        best, runner_up = starts[0]["value"], starts[1]["value"]
        trace = {"grid_points": len(pts), "grid_best": float(vals.max()),
                 "starts": starts, "best_value": best, "runner_up_value": runner_up,
                 "converged": abs(best - runner_up) <= max(spec.tol, spec.tol * abs(best))}
        if best < trace["grid_best"] - 1e-12:
            raise NonConvergenceError("no refinement start reached the grid seed value "
                                      f"{trace['grid_best']!r}", trace)
        argmax = np.clip(np.array(starts[0]["x"]), lo, hi)
        results.append(MaximizeResult(argmax, 0.0, trace))

    # report the objective exactly as evaluated at the returned points
    finals = table(np.array([res.argmax for res in results]))
    for i, (g, res) in enumerate(zip(groups, results)):
        res.value = float(finals[g.row, i])
    top = max(results, key=lambda res: res.value)
    return MaximizeResult(top.argmax, top.value, groups=results, trace=dict(
        top.trace, starts=[s for res in results for s in res.trace["starts"]]))
