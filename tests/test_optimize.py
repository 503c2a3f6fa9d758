import hashlib
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from qngcoh import optimize
from qngcoh.optimize import (MAXFEV, Group, MaximizeResult, SearchSpec, maximize,
                             nelder_mead)


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
    fb = lambda pts: np.sin(pts[:, 0]) * np.cos(0.5 * pts[:, 1])
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
        SearchSpec(bounds=((0.0, 1.0),), tol=1e-3)
    with pytest.raises(ValueError):
        Group(grid_density=1)


# ---------------------------------------------------------------------------
# lockstep Nelder-Mead against scipy's per-start Nelder-Mead
# ---------------------------------------------------------------------------

BOX3 = ((0.0, 2.0), (-1.0, 1.0), (0.0, 3.0))
#: scipy at the module's own per-start stop
SCIPY_OPTIONS = dict(xatol=optimize.XATOL, fatol=optimize.FATOL,
                     maxiter=optimize.MAXITER, maxfev=optimize.MAXFEV)


def _tilted_bowl(x):
    # minimum outside the box along the third axis, so starts end on a bound
    return ((x[0] - 0.7) ** 2 + 3.0 * (x[1] + 0.2) ** 2 + (x[2] - 3.5) ** 2
            + 0.3 * x[0] * x[1] + 0.1 * math.sin(5.0 * x[0]))


def _hash_noise(x):
    # deterministic noise: no simplex ever meets the tolerance test
    digest = hashlib.blake2b(np.asarray(x, dtype=float).tobytes(), digest_size=8)
    return int.from_bytes(digest.digest(), "little") / 2.0 ** 64


def _lockstep_vs_scipy(f, x0s):
    lo = np.array([b[0] for b in BOX3])
    hi = np.array([b[1] for b in BOX3])
    x0s = np.array(x0s, dtype=float)
    xs, funs, nfevs, oks = nelder_mead(lambda pts: np.array([f(p) for p in pts]),
                                       x0s, lo, hi)
    for x0, x, fun, nfev, ok in zip(x0s, xs, funs, nfevs, oks):
        ref = minimize(f, x0, method="Nelder-Mead", bounds=BOX3,
                       options=SCIPY_OPTIONS)
        assert np.array_equal(x, ref.x), (x0, x, ref.x)
        assert nfev == ref.nfev
        assert fun == ref.fun
        assert ok == ref.success
    return nfevs, oks


def test_lockstep_matches_scipy_per_start():
    # the second and fifth starts sit on upper bounds, so their initial
    # simplices are reflected back into the box
    nfevs, oks = _lockstep_vs_scipy(_tilted_bowl, [
        [0.1, 0.2, 0.3], [2.0, 0.0, 1.0], [0.0, 0.0, 0.0],
        [1.3, -0.9, 2.2], [1.99999, 1.0, 3.0]])
    assert oks.all()
    assert len(set(nfevs.tolist())) > 1   # starts stop at different iterations


def test_lockstep_matches_scipy_out_of_evaluations():
    nfevs, oks = _lockstep_vs_scipy(_hash_noise, [[0.1, 0.2, 0.3], [1.0, 0.5, 2.0]])
    assert nfevs.max() == MAXFEV and not oks.all()


def test_maximize_starts_match_scipy():
    res = maximize(lambda x: -_tilted_bowl(x), SearchSpec(bounds=BOX3),
                   groups=[Group(grid_density=4, n_starts=8)])
    for start in res.trace["starts"]:
        ref = minimize(_tilted_bowl, start["x0"], method="Nelder-Mead",
                       bounds=BOX3, options=SCIPY_OPTIONS)
        assert start["x"] == ref.x.tolist()
        assert start["nfev"] == ref.nfev
        assert start["value"] == -ref.fun


def test_scalar_objective_equals_its_batch_form():
    spec, groups = SearchSpec(bounds=BOX3), [Group(grid_density=4, n_starts=8)]
    f = lambda x: -_tilted_bowl(x)
    fb = lambda pts: np.array([f(p) for p in pts])
    scalar = maximize(f, spec, groups=groups)
    batch = maximize(None, spec, batch_objective=fb, groups=groups)
    assert batch.trace == scalar.trace
    assert np.array_equal(batch.argmax, scalar.argmax)


def _two_rows(pts):
    x, y, z = pts.T
    bowl = -((x - 0.7) ** 2 + 3.0 * (y + 0.2) ** 2 + (z - 3.5) ** 2 + 0.3 * x * y
             + 0.1 * np.sin(5.0 * x))
    ripple = np.sin(3.0 * x) * np.cos(2.0 * y) - 0.1 * (z - 1.0) ** 2
    return np.stack([bowl, ripple])


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
# Newton finish of each group's two best starts
# ---------------------------------------------------------------------------


def _recorded(fb, seen):
    def batch(pts):
        seen.append(pts.copy())
        return fb(pts)
    return batch


def _check_finish(res, lo, hi, seen):
    pts = np.vstack(seen)
    assert np.all(pts >= lo) and np.all(pts <= hi)
    for part in res.groups:
        finish = part.trace["finish"]
        assert part.value == finish["values"][0] == part.trace["best_value"]
        assert finish["values"][1] == part.trace["runner_up_value"] <= part.value
        assert np.array_equal(part.argmax, finish["points"][0])
        # never below what the simplex found
        assert part.value >= part.trace["starts"][0]["value"]
        assert finish["values"][1] >= part.trace["starts"][1]["value"]


def test_finish_on_ring_maximum_stays_in_box():
    # every point of the circle of radius 0.5 is a maximum: the flat tangent
    # direction is not stepped, the radial one is
    ring = lambda pts: -1e3 * (np.hypot(pts[:, 0], pts[:, 1]) - 0.5) ** 2
    seen = []
    res = maximize(None, SearchSpec(bounds=((-1.0, 1.0), (-1.0, 1.0))),
                   batch_objective=_recorded(ring, seen), groups=[Group(n_starts=8)])
    _check_finish(res, -1.0, 1.0, seen)
    assert res.trace["starts"][0]["value"] < -1e-13 < res.value
    assert np.hypot(*res.argmax) == pytest.approx(0.5, abs=1e-8)
    finish = res.trace["finish"]
    assert finish["evaluations"] % 9 == 0 and min(finish["steps"]) >= 1


def test_finish_holds_coordinate_on_lower_bound():
    # the maximum lies on x = 0 with the gradient pointing out of the box
    tilted = lambda pts: (-(pts[:, 0] + 0.3) ** 2 - 2.0 * (pts[:, 1] - 0.4) ** 2
                          + 0.5 * pts[:, 0] * pts[:, 1] + np.sin(pts[:, 1]))
    seen, bounds = [], ((0.0, 1.0), (0.0, 1.0))
    res = maximize(None, SearchSpec(bounds=bounds), batch_objective=_recorded(tilted, seen),
                   groups=[Group(grid_density=5, n_starts=8), Group(grid_density=7, n_starts=9)])
    _check_finish(res, 0.0, 1.0, seen)
    y = 0.4 + math.cos(res.argmax[1]) / 4.0   # stationarity on x = 0
    assert res.argmax[0] == 0.0
    assert res.argmax[1] == pytest.approx(y, abs=1e-9)
    assert all(part.value > part.trace["starts"][0]["value"] for part in res.groups)
