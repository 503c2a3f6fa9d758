import math
import warnings

import numpy as np
import pytest

from qngcoh import optimize
from qngcoh.optimize import Group, MaximizeResult, SearchSpec, maximize


def test_quadratic_peak():
    res = maximize(lambda x: -(x[0] - 0.3) ** 2, SearchSpec(bounds=((0.0, 1.0),)),
                   groups=[Group(n_starts=8)])
    assert res.argmax[0] == pytest.approx(0.3, abs=1e-6)
    assert res.value == pytest.approx(0.0, abs=1e-10)
    assert res.converged


def test_coherent_objective_stationary_point():
    # 2 a e^(-a^2) peaks at |alpha|^2 = 1/2
    res = maximize(lambda x: 2.0 * x[0] * math.exp(-x[0] ** 2),
                   SearchSpec(bounds=((0.0, 6.0),)), groups=[Group(n_starts=8)])
    assert res.argmax[0] ** 2 == pytest.approx(0.5, abs=1e-5)


def test_symmetric_tie_accepts_either_maximum():
    res = maximize(lambda x: math.cos(2 * math.pi * x[0]), SearchSpec(bounds=((0.0, 1.0),)),
                   groups=[Group(n_starts=8)])
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert min(abs(res.argmax[0]), abs(res.argmax[0] - 1.0)) < 1e-6


def test_stays_inside_box_and_value_matches():
    seen = []

    def f(x):
        seen.append(np.array(x))
        return -((x[0] - 2.0) ** 2) - (x[1] + 1.0) ** 2  # peak outside the box

    res = maximize(f, SearchSpec(bounds=((0.0, 1.0), (0.0, 1.0))),
                   groups=[Group(grid_density=6, n_starts=8)])
    for x in seen:
        assert np.all(x >= -1e-12) and np.all(x <= 1.0 + 1e-12)
    assert np.all(res.argmax >= 0.0) and np.all(res.argmax <= 1.0)
    # returned value is the objective exactly as evaluated at the argmax
    assert res.value == f(res.argmax)
    assert res.argmax == pytest.approx([1.0, 0.0], abs=1e-8)


def test_batch_objective_agrees():
    spec = SearchSpec(bounds=((0.0, 2.0), (0.0, 2.0)))
    f = lambda x: float(np.sin(x[0]) * np.cos(0.5 * x[1]))
    fb = lambda pts, rows: np.sin(pts[:, 0]) * np.cos(0.5 * pts[:, 1])
    res = maximize(f, spec, batch_objective=fb, groups=[Group(grid_density=8, n_starts=8)])
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.argmax == pytest.approx([math.pi / 2, 0.0], abs=1e-6)


def test_extra_seeds_are_clipped_and_used():
    spec = SearchSpec(bounds=((0.0, 1.0),))
    # coarse grid {0, 1} would miss the needle at 0.437 without the seed
    f = lambda x: math.exp(-((x[0] - 0.437) / 0.003) ** 2)
    seeds = [np.array([0.437]), np.array([5.0])]
    res = maximize(f, spec, groups=[Group(grid_density=2, n_starts=8, seeds=seeds)])
    assert res.value > 0.999


def test_trace_records_starts():
    res = maximize(lambda x: -(x[0] - 0.5) ** 2, SearchSpec(bounds=((0.0, 1.0),)),
                   groups=[Group(n_starts=8)])
    assert isinstance(res, MaximizeResult)
    assert len(res.trace["starts"]) == 8
    assert all("value" in s and "nfev" in s for s in res.trace["starts"])
    assert res.trace["grid_points"] == 12


def test_nonfinite_objective_rejected():
    with pytest.raises(ValueError):
        maximize(lambda x: float("nan"), SearchSpec(bounds=((0.0, 1.0),)),
                 groups=[Group(grid_density=4, n_starts=8)])


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(bounds=((1.0, 0.0),))
    with pytest.raises(ValueError):
        Group(n_starts=4)
    with pytest.raises(ValueError):
        Group(grid_density=1)


def test_convergence_tolerance_is_fixed():
    # every search runs at one tolerance; the spec no longer takes another
    spec = SearchSpec(bounds=((0.0, 1.0),))
    assert spec.tol == SearchSpec.tol == 1e-9
    with pytest.raises(TypeError):
        SearchSpec(bounds=((0.0, 1.0),), tol=1e-3)


BOX3 = ((0.0, 2.0), (-1.0, 1.0), (0.0, 3.0))


def _tilted_bowl(x):
    # minimum outside the box along the third axis, so starts end on a bound
    return ((x[0] - 0.7) ** 2 + 3.0 * (x[1] + 0.2) ** 2 + (x[2] - 3.5) ** 2
            + 0.3 * x[0] * x[1] + 0.1 * math.sin(5.0 * x[0]))


def test_scalar_objective_equals_its_batch_form():
    spec, groups = SearchSpec(bounds=BOX3), [Group(grid_density=4, n_starts=8)]
    f = lambda x: -_tilted_bowl(x)
    fb = lambda pts, rows: np.array([f(p) for p in pts])
    scalar = maximize(f, spec, groups=groups)
    batch = maximize(None, spec, batch_objective=fb, groups=groups)
    assert batch.trace == scalar.trace
    assert np.array_equal(batch.argmax, scalar.argmax)


def _two_rows(pts, rows):
    x, y, z = pts.T
    bowl = -((x - 0.7) ** 2 + 3.0 * (y + 0.2) ** 2 + (z - 3.5) ** 2 + 0.3 * x * y
             + 0.1 * np.sin(5.0 * x))
    ripple = np.sin(3.0 * x) * np.cos(2.0 * y) - 0.1 * (z - 1.0) ** 2
    return np.where(rows == 0, bowl, ripple)


def test_groups_match_their_lone_runs():
    # groups differ in grid density, start count and seeds; two share row 0
    spec = SearchSpec(bounds=BOX3)
    groups = [Group(0, grid_density=4, n_starts=8), Group(1, grid_density=5, n_starts=9),
              Group(0, grid_density=3, n_starts=10,
                    seeds=[np.array([0.7, -0.2, 2.9]), np.array([5.0, 0.0, 0.0])])]
    joint = maximize(None, spec, batch_objective=_two_rows, groups=groups)
    assert [len(part.trace["starts"]) for part in joint.groups] == [8, 9, 10]
    assert [part.trace["grid_points"] for part in joint.groups] == [64, 125, 29]
    for group, part in zip(groups, joint.groups):
        alone, = maximize(None, spec, batch_objective=_two_rows, groups=[group]).groups
        assert np.array_equal(part.argmax, alone.argmax)
        assert part.value == alone.value
        assert part.trace == alone.trace
    top = max(joint.groups, key=lambda part: part.value)
    assert joint.value == top.value
    assert len(joint.trace["starts"]) == 27


# ---------------------------------------------------------------------------
# trust-region Newton ascent
# ---------------------------------------------------------------------------


def _ascend_one(f, x0, lo, hi):
    """Ascent of the batch function ``f`` from the one start ``x0``, with
    the centre (trial point) and value of every stencil it evaluated."""
    centres = []

    def fun(pts, rows):
        vals = f(pts)
        centres.append((pts[0].copy(), vals[0]))
        return vals

    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    x, fx, steps, evals, ok = optimize._ascend(fun, np.atleast_2d(x0).astype(float),
                                               np.zeros(1, dtype=int), lo, hi)
    return x[0], fx[0], steps[0], evals[0], ok[0], centres


def test_trust_step_maximizes_the_model_in_the_ball():
    rng = np.random.default_rng(11)
    ball = rng.normal(size=(20000, 3))
    ball *= (rng.uniform(size=20000) ** (1 / 3) / np.linalg.norm(ball, axis=1))[:, None]
    p = rng.normal(size=(40, 3))
    lam = rng.normal(size=(40, 3)) * rng.choice([0.1, 1.0, 10.0], size=(40, 1))
    radius = rng.choice([0.01, 0.3, 2.0], size=40)
    c, gain = optimize._trust_step(p, lam, radius)
    model = lambda q, i: q @ p[i] + 0.5 * (q ** 2) @ lam[i]
    for i in range(40):
        assert np.linalg.norm(c[i]) <= radius[i] * (1 + 1e-12)
        assert gain[i] == pytest.approx(model(c[i], i), rel=1e-12)
        # no point of the ball (nor of its surface) does better
        sample = np.vstack([ball, ball / np.linalg.norm(ball, axis=1)[:, None]]) * radius[i]
        assert model(sample, i).max() <= gain[i] * (1 + 1e-9) + 1e-15
        newton = -p[i] / lam[i]
        if np.all(lam[i] < 0) and np.linalg.norm(newton) <= radius[i]:
            assert c[i] == pytest.approx(newton, rel=1e-12)
    # curvatures and gradients over many decades: the step stays in the radius
    p = rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-8, 3, size=(200, 3))
    lam = rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-3, 6, size=(200, 3))
    radius = 10.0 ** rng.uniform(-6, 1, size=200)
    c, gain = optimize._trust_step(p, lam, radius)
    assert np.all(np.linalg.norm(c, axis=1) <= radius * (1 + 1e-12)) and np.all(gain >= 0)


def test_trust_step_leaves_the_secular_loop_without_changing_a_bit():
    # the secular loop stops once no step exceeds its radius; the full
    # SECULAR_STEPS iterations give the same steps and gains bit for bit
    def full_loop(p, lam, radius):
        curved = np.abs(lam) > 1e-6 * np.abs(lam).max(axis=1, keepdims=True)
        p = np.where(curved, p, 0.0)

        def coef(mu):
            d = mu[:, None] - lam
            return np.divide(p, d, out=np.zeros_like(p), where=d > 0), d

        mu = np.maximum(0.0, np.where(curved, lam + np.abs(p) / radius[:, None],
                                      -np.inf).max(axis=1))
        for _ in range(optimize.SECULAR_STEPS):
            c, d = coef(mu)
            norm = np.linalg.norm(c, axis=1)
            grow = np.maximum(norm / radius - 1.0, 0.0)
            slope = np.divide(c ** 2, d, out=np.zeros_like(c), where=d > 0).sum(axis=1)
            mu = mu + grow * norm ** 2 / np.where(grow > 0, slope, 1.0)
        c, _ = coef(mu)
        c *= (radius / np.maximum(np.linalg.norm(c, axis=1), radius))[:, None]
        return c, (p * c + 0.5 * lam * c ** 2).sum(axis=1)

    rng = np.random.default_rng(5)
    for size in (1, 3, 40, 200):
        for scale in (1e-3, 1.0, 1e3):
            p = rng.normal(size=(size, 3)) * 10.0 ** rng.uniform(-6, 2, size=(size, 3))
            lam = -np.abs(rng.normal(size=(size, 3))) * rng.choice([1.0, -0.2], size=(size, 3))
            radius = scale * 10.0 ** rng.uniform(-3, 1, size=size)
            got, want = optimize._trust_step(p, lam, radius), full_loop(p, lam, radius)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_concave_quadratic_is_solved_in_one_newton_step():
    a = np.array([[3.0, 0.4, -0.2], [0.4, 2.0, 0.3], [-0.2, 0.3, 1.0]])
    peak = np.array([0.52, 0.31, 0.77])
    quad = lambda pts: 1.5 - np.einsum("pi,ij,pj->p", pts - peak, a, pts - peak)
    # within the trust radius (0.1 of the unit box) of the peak
    x, fx, steps, evals, ok, _ = _ascend_one(quad, peak + [0.04, -0.03, 0.05], [0, 0, 0], [1, 1, 1])
    assert ok and steps == 1
    assert evals == 2 * 19   # the start's stencil and the peak's, where the next gain is nil
    # rounding in the second differences (about eps / h^2) leaves the step short
    assert x == pytest.approx(peak, abs=1e-7)
    assert fx == pytest.approx(1.5, abs=1e-15)


def test_far_start_steps_within_the_radius_and_never_falls():
    # from the convex tail the model overshoots the peak: some trials fall
    peak = np.array([1.7, 0.6, 2.5])
    lorentz = lambda pts: 1.0 / (0.1 + ((pts - peak) ** 2).sum(axis=1))
    lo, hi = np.array([0.0, -1.0, 0.0]), np.array([2.0, 1.0, 3.0])
    x, fx, steps, evals, ok, centres = _ascend_one(lorentz, [0.0, -1.0, 0.0], lo, hi)
    assert ok and x == pytest.approx(peak, abs=1e-7)
    # replay the radius rule: an accepted step widens the radius to twice its
    # length, a rejected one cuts it to a quarter of its length
    radius = optimize.RADIUS * (hi - lo).min()
    best_x, best_f = centres[0]
    rejected = 0
    for t, ft in centres[1:]:
        length = np.linalg.norm(t - best_x)
        assert 0.0 < length <= radius * (1 + 1e-12)
        if ft >= best_f:
            best_x, best_f, radius = t, ft, max(radius, 2 * length)
        else:
            rejected, radius = rejected + 1, length / 4
    assert rejected >= 1 and steps == len(centres) - 1 - rejected
    assert evals == 19 * len(centres)
    # the returned point is the best trial, reached without a fall
    assert np.array_equal(x, best_x) and fx == best_f == max(f for _, f in centres)


def test_start_whose_radius_falls_below_the_step_stops():
    # a kink across the first axis: the models keep overshooting it, rejected
    # trials cut the radius, and the start stops at the first stencil after
    # which its radius is below the stencil step (without that stop it regrew
    # and ran 35 stencils, against 22); a Rosenbrock start run beside it
    # climbs on after that and keeps the record it has alone
    peak = np.array([0.4137, 0.5219, 0.3311])
    kink = lambda pts: -((pts - peak) ** 2).sum(axis=1) - 0.01 * np.abs(pts[:, 0] - peak[0])
    valley = lambda pts: -(100.0 * (pts[:, 1] - pts[:, 0] ** 2) ** 2 + (1.0 - pts[:, 0]) ** 2
                           + pts[:, 2] ** 2)
    lo, hi = np.full(3, -1.5), np.full(3, 1.5)
    x, fx, steps, evals, ok, centres = _ascend_one(kink, [0.2, 0.7, 0.6], lo, hi)
    radius, (best_x, best_f), radii = optimize.RADIUS * 3.0, centres[0], []
    for t, ft in centres[1:]:
        length = np.linalg.norm(t - best_x)
        if ft >= best_f:
            best_x, best_f, radius = t, ft, max(radius, 2 * length)
        else:
            radius = length / 4
        radii.append(radius)
    assert ok and evals == 19 * len(centres) == 19 * 22
    assert min(radii[:-1]) >= optimize.FINISH_H > radii[-1]
    assert np.array_equal(x, best_x) and fx == best_f

    both = lambda pts, rows: np.where(rows == 0, kink(pts), valley(pts))
    x0, rows = np.array([[0.2, 0.7, 0.6], [-1.2, 1.0, 0.0]]), np.array([0, 1])
    joint = optimize._ascend(both, x0, rows, lo, hi)
    for j in range(2):
        alone = optimize._ascend(both, x0[j:j + 1], rows[j:j + 1], lo, hi)
        assert all(np.array_equal(a[j], b[0]) for a, b in zip(joint, alone))
    assert joint[3][1] > joint[3][0] and joint[1][1] > -1e-13


def test_start_on_a_stationary_point_raises_no_warning():
    # at the origin every stencil pair is symmetric: the gradient is exactly zero
    bowl = lambda pts: -(pts ** 2) @ np.array([1.0, 2.0, 3.0])
    saddle = lambda pts: (pts ** 2) @ np.array([1.0, -2.0, -3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (bowl, saddle):
            x, fx, steps, evals, ok, _ = _ascend_one(f, [0.0, 0.0, 0.0], [-1] * 3, [1] * 3)
            assert ok and steps == 0 and evals == 19
            assert np.array_equal(x, [0.0, 0.0, 0.0]) and fx == 0.0
        res = maximize(None, SearchSpec(bounds=((-1.0, 1.0),) * 3),
                       batch_objective=lambda pts, rows: bowl(pts),
                       groups=[Group(grid_density=5, n_starts=8)])
    assert np.array_equal(res.argmax, [0.0, 0.0, 0.0]) and res.value == 0.0


def _recorded(fb, seen):
    def batch(pts, rows):
        seen.append(pts.copy())
        return fb(pts)
    return batch


def _check_ascent(res, lo, hi, seen):
    pts = np.vstack(seen)
    assert np.all(pts >= lo) and np.all(pts <= hi)
    for part in res.groups:
        starts = part.trace["starts"]
        assert part.value == starts[0]["value"] == part.trace["best_value"]
        assert starts[1]["value"] == part.trace["runner_up_value"] <= part.value
        assert np.array_equal(part.argmax, starts[0]["x"])
        # the starts are recorded best first
        assert all(s["value"] >= t["value"] for s, t in zip(starts, starts[1:]))
        assert all(s["success"] for s in starts)
        # never below the grid seed it started from
        assert part.value >= part.trace["grid_best"]


def test_finish_on_ring_maximum_stays_in_box():
    # every point of the circle of radius 0.5 is a maximum: the flat tangent
    # direction is not stepped, the radial one is
    ring = lambda pts: -1e3 * (np.hypot(pts[:, 0], pts[:, 1]) - 0.5) ** 2
    seen = []
    res = maximize(None, SearchSpec(bounds=((-1.0, 1.0), (-1.0, 1.0))),
                   batch_objective=_recorded(ring, seen), groups=[Group(n_starts=8)])
    _check_ascent(res, -1.0, 1.0, seen)
    assert res.trace["grid_best"] < -1e-13 < res.value
    assert np.hypot(*res.argmax) == pytest.approx(0.5, abs=1e-8)
    best_two = res.trace["starts"][:2]
    assert all(s["nfev"] % 9 == 0 and s["steps"] >= 1 for s in best_two)
    # each start stays at the angle of its seed
    for s in res.trace["starts"]:
        assert math.atan2(s["x"][1], s["x"][0]) == pytest.approx(
            math.atan2(s["x0"][1], s["x0"][0]), abs=1e-6)


def test_finish_holds_coordinate_on_lower_bound():
    # the maximum lies on x = 0 with the gradient pointing out of the box
    tilted = lambda pts: (-(pts[:, 0] + 0.3) ** 2 - 2.0 * (pts[:, 1] - 0.4) ** 2
                          + 0.5 * pts[:, 0] * pts[:, 1] + np.sin(pts[:, 1]))
    seen, bounds = [], ((0.0, 1.0), (0.0, 1.0))
    res = maximize(None, SearchSpec(bounds=bounds), batch_objective=_recorded(tilted, seen),
                   groups=[Group(grid_density=5, n_starts=8), Group(grid_density=7, n_starts=9)])
    _check_ascent(res, 0.0, 1.0, seen)
    y = 0.4 + math.cos(res.argmax[1]) / 4.0   # stationarity on x = 0
    assert res.argmax[0] == 0.0
    assert res.argmax[1] == pytest.approx(y, abs=1e-9)
    assert all(part.value > part.trace["grid_best"] for part in res.groups)


def test_each_ascent_step_is_one_call_with_its_starts_rows():
    # three groups on three rows and two grids: each distinct grid is one
    # call, a table of the rows of the groups on it, then every step of the
    # ascent is one call over all running starts
    calls = []

    def rows_apart(pts, rows):
        calls.append((pts.copy(), rows.copy()))
        return _two_rows(pts, rows % 2) - 0.5 * (rows == 2)

    spec = SearchSpec(bounds=BOX3)
    groups = [Group(0, grid_density=4, n_starts=8), Group(1, grid_density=3, n_starts=9),
              Group(2, grid_density=3, n_starts=8)]
    res = maximize(None, spec, batch_objective=rows_apart, groups=groups)
    grids, steps = calls[:2], calls[2:]
    for (pts, rows), density, on_grid in zip(grids, (4, 3), ([0], [1, 2])):
        assert len(pts) == density ** 3 and np.array_equal(rows, np.array(on_grid)[:, None])
    starts = [s for part in res.groups for s in part.trace["starts"]]
    # one call per step, up to the most stencils any start evaluated
    assert len(steps) == max(s["nfev"] for s in starts) // 19
    assert sum(len(pts) for pts, _ in steps) == sum(s["nfev"] for s in starts)
    for j, (pts, rows) in enumerate(steps):
        # the 19-point stencil of every start still running, on its group's row
        running = [sum(s["nfev"] > 19 * j for s in part.trace["starts"]) for part in res.groups]
        assert np.array_equal(rows, np.repeat([g.row for g in groups], [19 * k for k in running]))
    assert len(steps[0][0]) == 19 * sum(g.n_starts for g in groups)
