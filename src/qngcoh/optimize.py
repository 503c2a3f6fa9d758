"""Derivative-free bounded maximization shared by all threshold searches.

Coarse grid seeding over the box, then a trust-region Newton ascent from the
best seeds.  Gradient and Hessian come from a central-difference stencil of
the objective around each start's trial point, and the starts advance in
lockstep: every step evaluates the stencils of all starts still running in
one batch, and each grid is one batch of all its rows.  A trial is accepted
only if it does not lower the value; a start stops when its next step would
gain less than ``FINISH_GAIN`` or its trust radius falls below the stencil
step.  Deterministic: identical specs give identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Callable, ClassVar, Sequence

import numpy as np

#: stencil difference step (at 1e-4 the O(h^2) gradient error left optima
#: near |alpha| = 6 up to 1e-13 low) and the predicted gain, relative to
#: ``max(1, |f|)``, below which a start stops
FINISH_H = 3e-5
FINISH_GAIN = 1e-15
#: initial trust radius, relative to the narrowest side of the box; stencils
#: per start; Newton steps on the secular equation of each trust-region step
RADIUS = 0.1
MAX_STEPS = 60
SECULAR_STEPS = 6


class NonConvergenceError(RuntimeError):
    """Search failed to improve or to stabilize; carries the full trace."""

    def __init__(self, message: str, trace: dict):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SearchSpec:
    """Box bounds for one maximization run."""

    bounds: tuple[tuple[float, float], ...]
    #: convergence tolerance, the same for every run (see ``maximize``)
    tol: ClassVar[float] = 1e-9

    def __post_init__(self) -> None:
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        object.__setattr__(self, "bounds", bounds)
        for lo, hi in bounds:
            if not lo < hi:
                raise ValueError(f"invalid interval ({lo}, {hi})")


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


def _stencil(ndim: int) -> np.ndarray:
    """Offset taken on each axis by each stencil point: 0 none, 1 the lower,
    2 the upper.  The centre, two points per axis and four per pair of axes:
    ``1 + 2n + 2n(n - 1)`` points."""
    eye = np.eye(ndim, dtype=int)
    return np.array([0 * eye[0]] + [a * eye[i] for i in range(ndim) for a in (1, 2)]
                    + [a * eye[i] + b * eye[j] for i, j in combinations(range(ndim), 2)
                       for a, b in product((1, 2), repeat=2)])


def _model(vals: np.ndarray, x: np.ndarray, du: np.ndarray, dv: np.ndarray,
           lo: np.ndarray, hi: np.ndarray):
    """Quadratic model of the objective at ``x`` from stencil values ``vals``:
    the gradient in the Hessian's eigenbasis, the eigenvalues and eigenvectors.

    Each axis has its two offsets ``du < dv`` (either side of the centre, or
    both on the inner side near a bound), so the differences are exact for
    quadratics.  A coordinate on a bound whose gradient points out of the box
    is held fixed: its gradient and its row and column of the Hessian drop out.
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
    return (vec * (grad * free)[:, :, None]).sum(axis=1), lam, vec


def _trust_step(p: np.ndarray, lam: np.ndarray, radius: np.ndarray):
    """Eigenbasis coefficients ``c`` of the step and its predicted gain.

    ``c`` maximizes the model ``p c + lam c^2 / 2`` over ``|c| <= radius``:
    ``c = p / (mu - lam)`` with ``mu = 0`` (the Newton step) when that is an
    ascent inside the radius, else with the root ``mu`` of the secular
    equation ``1 / |c(mu)| = 1 / radius``.  Newton steps on it start below the
    root and rise monotonically to it.  A curvature within 1e-6 of the largest
    is rounding noise: that direction is flat and not stepped.
    """
    curved = np.abs(lam) > 1e-6 * np.abs(lam).max(axis=1, keepdims=True)
    p = np.where(curved, p, 0.0)

    def coef(mu):
        d = mu[:, None] - lam
        return np.divide(p, d, out=np.zeros_like(p), where=d > 0), d

    # no root lies below the direction whose term alone reaches the radius
    mu = np.maximum(0.0, np.where(curved, lam + np.abs(p) / radius[:, None], -np.inf).max(axis=1))
    for _ in range(SECULAR_STEPS):
        c, d = coef(mu)
        norm = np.linalg.norm(c, axis=1)
        grow = np.maximum(norm / radius - 1.0, 0.0)
        if not grow.any():
            break   # no step exceeds its radius: mu would not move again
        slope = np.divide(c ** 2, d, out=np.zeros_like(c), where=d > 0).sum(axis=1)
        mu = mu + grow * norm ** 2 / np.where(grow > 0, slope, 1.0)
    c, _ = coef(mu)
    c *= (radius / np.maximum(np.linalg.norm(c, axis=1), radius))[:, None]
    return c, (p * c + 0.5 * lam * c ** 2).sum(axis=1)


def _ascend(fun: Callable[[np.ndarray, np.ndarray], np.ndarray], x: np.ndarray,
            rows: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Trust-region Newton ascent from every row of ``x`` in lockstep.

    ``fun(pts, rows)`` returns the value of objective row ``rows[i]`` at
    ``pts[i]``; start ``j`` climbs row ``rows[j]``.  Every
    step is one call over the stencils of the running starts: the stencil's
    centre is the trial point (first the start itself), accepted only if it
    does not lower the value, and its differences give the model for the next
    step.  An accepted step widens the trust radius to twice its length (as
    the box clips it); a rejected one keeps the model and cuts the radius to
    a quarter of that length.  A start stops when its next step would gain
    less than ``FINISH_GAIN`` (relative to ``max(1, |f|)``) or its radius is
    below the stencil step, unsuccessfully after ``MAX_STEPS`` stencils.
    Returns the points, values, accepted steps, evaluations and successes.
    """
    n_pts, ndim = x.shape
    sel = _stencil(ndim)
    h = np.minimum(FINISH_H, (hi - lo) / 4)
    x, trial, fx = x.copy(), x.copy(), np.full(n_pts, -np.inf)
    radius, length = np.full(n_pts, RADIUS * np.min(hi - lo)), np.zeros(n_pts)
    p, lam, vec = np.zeros((n_pts, ndim)), np.zeros((n_pts, ndim)), np.zeros((n_pts, ndim, ndim))
    steps, evals = np.zeros(n_pts, dtype=int), np.zeros(n_pts, dtype=int)
    act = np.arange(n_pts)
    for _ in range(MAX_STEPS):
        if act.size == 0:
            break
        t = trial[act]
        # near a bound both offsets of an axis go to its inner side
        shift = np.where(t - h < lo, 1.5 * h, np.where(t + h > hi, -1.5 * h, 0.0))
        xu, xv = t + (shift - h), t + (shift + h)
        pts = np.where(sel == 1, xu[:, None], np.where(sel == 2, xv[:, None], t[:, None]))
        vals = fun(pts.reshape(-1, ndim), np.repeat(rows[act], len(sel))).reshape(len(act), -1)
        evals[act] += len(sel)
        ok = vals[:, 0] >= fx[act]
        acc = act[ok]
        steps[acc] += np.any(t[ok] != x[acc], axis=1)
        x[acc], fx[acc] = t[ok], vals[ok, 0]
        radius[act] = np.where(ok, np.maximum(radius[act], 2.0 * length[act]), length[act] / 4)
        p[acc], lam[acc], vec[acc] = _model(vals[ok], t[ok], (xu - t)[ok], (xv - t)[ok], lo, hi)
        c, gain = _trust_step(p[act], lam[act], radius[act])
        trial[act] = np.clip(x[act] + (vec[act] * c[:, None, :]).sum(axis=2), lo, hi)
        length[act] = np.linalg.norm(trial[act] - x[act], axis=1)
        act = act[(gain > FINISH_GAIN * np.maximum(1.0, np.abs(fx[act])))
                  & (radius[act] >= h.min())]
    return x, fx, steps, evals, ~np.isin(np.arange(n_pts), act)


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
             batch_objective: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
             groups: Sequence[Group] = (Group(),)) -> MaximizeResult:
    """Maximize over the box in ``spec``.

    ``batch_objective(pts, rows)`` evaluates an ``(npts, ndim)`` array at
    once, ``rows`` broadcast against the point axis: rows of shape ``(npts,)``
    give row ``rows[i]`` at ``pts[i]``, rows of shape ``(R, 1)`` the ``(R, npts)``
    table of every row at every point.  It drives every stage of the search;
    without it, the scalar ``objective`` (one row) is applied point by point.

    Each entry of ``groups`` searches its row (several entries may share one)
    from its own grid and seeds with its own starts in the one lockstep run,
    so its result is what it would get alone as long as no point's value
    depends on the others in its batch.  Each distinct grid is one call, the
    table of the rows of the groups on it (a group with seeds has its grid
    to itself, a table of one row), and each step of the ascent is one call
    over every group's running starts.  The result is the best group's, with
    every start in its trace and each group's result in ``groups``.

    Every start climbs from its seed by ``_ascend``, all groups in lockstep
    with one batch of stencils per step; its trace record (``x``, ``value``,
    accepted ``steps``, ``nfev``, ``success``) is where it stopped, best
    first.  The argmax and value are the best start's, and the group is
    ``converged`` when the two best values agree to ``spec.tol``.

    Raises ``NonConvergenceError`` when no refinement start (of a group)
    reaches the best grid seed; trace records per-start outcomes either way.
    """
    def evaluate(pts: np.ndarray, rows: np.ndarray) -> np.ndarray:
        vals = (batch_objective(pts, rows) if batch_objective is not None
                else [objective(x) for x in pts.copy()])
        # a one-row objective may ignore ``rows``
        return np.broadcast_to(np.asarray(vals, dtype=float), np.broadcast(rows, pts[:, 0]).shape)

    lo, hi = np.array(spec.bounds).T
    # one call per distinct grid; a group with seeds has its grid to itself
    on_grid: dict = {}
    for i, g in enumerate(groups):
        on_grid.setdefault((g.grid_density, i if len(g.seeds) else None), []).append(i)
    own = [None] * len(groups)
    for members in on_grid.values():
        g = groups[members[0]]
        pts = _grid_points(spec, g.grid_density)
        if len(g.seeds) > 0:
            pts = np.vstack([pts, np.clip(np.atleast_2d(np.asarray(g.seeds, dtype=float)), lo, hi)])
        table = evaluate(pts, np.array([[groups[i].row] for i in members]))
        for i, vals in zip(members, table):
            own[i] = (pts, vals)
    if not all(np.all(np.isfinite(vals)) for _, vals in own):
        raise ValueError("objective not finite on the search box")

    counts = [g.n_starts for g in groups]
    seeds = np.concatenate([pts[np.argsort(vals)[::-1][:n]]
                            for (pts, vals), n in zip(own, counts)])
    rows = np.repeat([g.row for g in groups], counts)
    xs, fs, steps, evals, ok = _ascend(evaluate, seeds, rows, lo, hi)

    results = []
    offsets = np.cumsum([0] + counts)
    for (pts, vals), a, b in zip(own, offsets, offsets[1:]):
        # the group's starts, best first (stable: ties keep their seed order)
        order = a + np.argsort(-fs[a:b], kind="stable")
        starts = [{"x0": seeds[i].tolist(), "x": xs[i].tolist(), "value": float(fs[i]),
                   "steps": int(steps[i]), "nfev": int(evals[i]), "success": bool(ok[i])}
                  for i in order]
        best, runner_up = (float(fs[j]) for j in order[:2])
        trace = {"grid_points": len(pts), "grid_best": float(vals.max()),
                 "starts": starts, "best_value": best, "runner_up_value": runner_up,
                 "converged": abs(best - runner_up) <= max(spec.tol, spec.tol * abs(best))}
        if best < trace["grid_best"] - 1e-12:
            raise NonConvergenceError("no refinement start reached the grid seed value "
                                      f"{trace['grid_best']!r}", trace)
        # the value is the objective exactly as evaluated at the returned point
        results.append(MaximizeResult(xs[order[0]], best, trace))

    top = max(results, key=lambda res: res.value)
    return MaximizeResult(top.argmax, top.value, groups=results, trace=dict(
        top.trace, starts=[s for res in results for s in res.trace["starts"]]))
