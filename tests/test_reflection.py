"""Reflected diffusion scheme and the half-line oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbdsde import (
    PathBundle,
    TimeGrid,
    interval_domain,
    moment_diagnostics,
    sample_paths,
    simulate_reflected,
    skorokhod_bridge_exact,
    skorokhod_oracle_1d,
)
from gbdsde.acceptance import _bm_coeffs

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def test_no_motion_stays_put():
    from dataclasses import replace

    grid = TimeGrid(0.0, 1.0, 20)
    bundle = sample_paths(grid, d=1, seed=1, count=8)
    frozen = replace(_bm_coeffs(),
                     sigma=lambda x: np.zeros(x.shape[:-1] + (1, 1)))
    refl = simulate_reflected(frozen, interval_domain(0.0, 1.0), 0.0,
                              np.array([0.3]), bundle)
    assert np.all(refl.X == 0.3)
    assert np.all(refl.k == 0.0)


def test_projection_step_arithmetic():
    # one step from 0.9 with increment +0.3 on (0,1): lands on 1.0, dk = 0.2
    grid = TimeGrid(0.0, 1.0, 1)
    w = np.array([[[0.0], [0.3]]])
    bundle = PathBundle(grid=grid, W=w, B=np.zeros_like(w), seed=0, scenario_count=1)
    refl = simulate_reflected(_bm_coeffs(), interval_domain(0.0, 1.0), 0.0,
                              np.array([0.9]), bundle)
    assert refl.X[0, 1, 0] == pytest.approx(1.0)
    assert refl.k[0, 1] == pytest.approx(0.2)
    assert bool(refl.boundary_flags[0, 1])


def test_oracle_explicit_path():
    x, k = skorokhod_oracle_1d(0.0, np.array([0.0, -1.0, -0.5]))
    assert np.allclose(k, [0.0, 1.0, 1.0])
    assert np.allclose(x, [0.0, 0.0, 0.5])


def test_oracle_no_push_when_path_stays_high():
    w = np.array([0.0, 0.5, 0.2, 1.0])
    x, k = skorokhod_oracle_1d(1.0, w)
    assert np.all(k == 0.0)
    assert np.allclose(x, 1.0 + w)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-1, max_value=1), min_size=2, max_size=30),
       st.floats(min_value=0, max_value=2))
def test_oracle_invariants(increments, x0):
    w = np.concatenate([[0.0], np.cumsum(increments)])
    x, k = skorokhod_oracle_1d(x0, w)
    assert np.all(x >= -1e-12)
    assert np.all(np.diff(k) >= -1e-12)
    # complementarity: k increases only while x sits at the wall
    dk = np.diff(k)
    assert np.all(x[1:][dk > 1e-12] <= 1e-9)


def test_expected_boundary_push_reflection_principle():
    # E k_T = E sup (-W) = sqrt(2T/pi); bridge-exact sampling is unbiased
    grid = TimeGrid(0.0, 1.0, 100)
    bundle = sample_paths(grid, d=1, seed=21, count=100_000)
    _, k = skorokhod_bridge_exact(0.0, bundle.W[:, :, 0], grid.dt, seed=77)
    k_t = k[:, -1]
    se = k_t.std(ddof=1) / math.sqrt(len(k_t))
    assert abs(k_t.mean() - SQRT_2_OVER_PI) <= 3 * se


def test_grid_oracle_bias_shrinks_with_dt():
    # the plain running-max oracle under-estimates by about 0.583 sqrt(dt)
    means = []
    for steps in (100, 400):
        grid = TimeGrid(0.0, 1.0, steps)
        bundle = sample_paths(grid, d=1, seed=22, count=20_000)
        _, k = skorokhod_oracle_1d(0.0, bundle.W[:, :, 0])
        means.append(k[:, -1].mean())
    gap_coarse = SQRT_2_OVER_PI - means[0]
    gap_fine = SQRT_2_OVER_PI - means[1]
    assert gap_coarse > gap_fine > 0
    assert gap_coarse == pytest.approx(0.5826 * math.sqrt(1 / 100), rel=0.35)


def test_scheme_matches_oracle_on_same_grid():
    # the projected Euler recursion on the half line IS the discrete
    # running-max solution, so on a common grid they coincide
    grid = TimeGrid(0.0, 1.0, 200)
    bundle = sample_paths(grid, d=1, seed=23, count=50)
    refl = simulate_reflected(_bm_coeffs(), interval_domain(0.0, 10.0), 0.0,
                              np.array([0.0]), bundle)
    x_oracle, k_oracle = skorokhod_oracle_1d(0.0, bundle.W[:, :, 0])
    assert np.allclose(refl.X[:, :, 0], x_oracle, atol=1e-12)
    assert np.allclose(refl.k, k_oracle, atol=1e-12)


def test_scheme_converges_to_fine_oracle():
    # small-scale version of the acceptance study: coarse scheme vs a
    # 10x finer oracle reference through the same underlying path
    fine_steps = 4000
    gen = np.random.Generator(np.random.Philox(key=np.array([3, 0], dtype=np.uint64)))
    incr = gen.standard_normal((200, fine_steps)) * math.sqrt(1.0 / fine_steps)
    w_fine = np.concatenate([np.zeros((200, 1)), np.cumsum(incr, axis=1)], axis=1)
    x_ref, _ = skorokhod_oracle_1d(0.0, w_fine)
    rmse = {}
    for stride in (40, 4):
        w_coarse = w_fine[:, ::stride]
        steps = fine_steps // stride
        grid = TimeGrid(0.0, 1.0, steps)
        bundle = PathBundle(grid=grid, W=w_coarse[:, :, None],
                            B=np.zeros_like(w_coarse)[:, :, None],
                            seed=3, scenario_count=200)
        refl = simulate_reflected(_bm_coeffs(), interval_domain(0.0, 10.0), 0.0,
                                  np.array([0.0]), bundle)
        gap = np.max(np.abs(refl.X[:, :, 0] - x_ref[:, ::stride]), axis=1)
        rmse[stride] = float(np.sqrt(np.mean(gap**2)))
    order = math.log(rmse[40] / rmse[4]) / math.log(10.0)
    assert order >= 0.4


def test_monotone_coupling_preserves_order():
    grid = TimeGrid(0.0, 1.0, 100)
    bundle = sample_paths(grid, d=1, seed=24, count=100)
    dom = interval_domain(0.0, 1.0)
    coeffs = _bm_coeffs()
    lo = simulate_reflected(coeffs, dom, 0.0, np.array([0.2]), bundle)
    hi = simulate_reflected(coeffs, dom, 0.0, np.array([0.4]), bundle)
    assert np.all(hi.X[:, :, 0] - lo.X[:, :, 0] >= -1e-12)


def test_state_stays_in_domain_and_k_monotone():
    grid = TimeGrid(0.0, 1.0, 300)
    bundle = sample_paths(grid, d=1, seed=25, count=200)
    dom = interval_domain(0.0, 0.5)
    refl = simulate_reflected(_bm_coeffs(), dom, 0.0, np.array([0.25]), bundle)
    assert np.all(refl.X[:, :, 0] >= -1e-12)
    assert np.all(refl.X[:, :, 0] <= 0.5 + 1e-12)
    assert np.all(refl.dk >= 0)
    # positive increments only at the wall
    on_wall = refl.boundary_flags[:, 1:]
    pushed = refl.dk > 0
    assert np.all(on_wall[pushed])


def test_start_time_convention():
    grid = TimeGrid(0.0, 1.0, 10)
    bundle = sample_paths(grid, d=1, seed=26, count=4)
    refl = simulate_reflected(_bm_coeffs(), interval_domain(0.0, 1.0), 0.5,
                              np.array([0.3]), bundle)
    mid = grid.index_of(0.5)
    assert np.all(refl.X[:, : mid + 1, 0] == 0.3)
    assert np.all(refl.k[:, : mid + 1] == 0.0)


def test_moment_diagnostics_structure():
    grid = TimeGrid(0.0, 1.0, 100)
    bundle = sample_paths(grid, d=1, seed=27, count=500)
    dom = interval_domain(0.0, 2.0)
    out = moment_diagnostics(dom, _bm_coeffs(),
                             [np.array([0.5]), np.array([0.7]), np.array([0.6])],
                             mu=1.0, bundle=bundle)
    assert len(out["pairs"]) == 3
    assert np.isfinite(out["worst_x_ratio"])
    for row in out["exp_moments"]:
        assert np.isfinite(row["exp_moment"])
    with pytest.raises(ValueError):
        moment_diagnostics(dom, _bm_coeffs(),
                           [np.array([0.5]), np.array([0.5])], 1.0, bundle)


def test_exp_moment_stable_in_scenarios():
    dom = interval_domain(0.0, 10.0)
    estimates = []
    for count in (1000, 10_000):
        grid = TimeGrid(0.0, 1.0, 200)
        bundle = sample_paths(grid, d=1, seed=28, count=count)
        refl = simulate_reflected(_bm_coeffs(), dom, 0.0, np.array([0.0]), bundle)
        estimates.append(np.exp(refl.k[:, -1]).mean())
    assert np.isfinite(estimates).all()
    assert estimates[1] == pytest.approx(estimates[0], rel=0.1)


def _reference_simulate_reflected(coeffs, domain, start_time, x0, bundle,
                                  max_excluded_fraction=1e-3):
    """The scenario-major Euler-projection loop, kept as the bit-for-bit reference."""
    from gbdsde.reflection import ReflectedPath, SimulationBlowup

    grid = bundle.grid
    start_idx = grid.index_of(start_time)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n_scen = bundle.scenario_count
    n_pts = len(grid)
    dt = grid.dt
    X = np.empty((n_scen, n_pts, domain.dim))
    k = np.zeros((n_scen, n_pts))
    flags = np.zeros((n_scen, n_pts), dtype=bool)
    X[:, : start_idx + 1, :] = x0
    excluded = np.zeros(n_scen, dtype=bool)

    dW = bundle.dW
    current = np.broadcast_to(x0, (n_scen, domain.dim)).copy()
    for i in range(start_idx, grid.step_count):
        drift = coeffs.b(current) if coeffs.b is not None else 0.0
        if coeffs.sigma is not None:
            noise = np.einsum("sij,sj->si", coeffs.sigma(current), dW[:, i, :])
        else:
            noise = 0.0
        proposal = current + drift * dt + noise
        bad = ~np.all(np.isfinite(proposal), axis=-1)
        if np.any(bad):
            excluded |= bad
            proposal = np.where(bad[:, None], current, proposal)
        projected, moved = domain.project(proposal)
        moved = np.where(excluded, 0.0, moved)
        projected = np.where(excluded[:, None], current, projected)
        X[:, i + 1, :] = projected
        k[:, i + 1] = k[:, i] + moved
        flags[:, i + 1] = moved > 0
        current = projected

    if np.mean(excluded) > max_excluded_fraction:
        raise SimulationBlowup("too many excluded scenarios")
    return ReflectedPath(grid=grid, X=X, k=k, boundary_flags=flags, excluded=excluded)


def _mixing_coeffs_2d():
    """Drift and a full 2x2 state-dependent volatility on a 2-D state."""
    from dataclasses import replace

    def b_fn(x):
        return np.stack([0.3 - x[..., 1], 0.5 * np.sin(x[..., 0])], axis=-1)

    def sigma_fn(x):
        out = np.empty(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0 + 0.3 * np.sin(x[..., 1])
        out[..., 0, 1] = 0.4
        out[..., 1, 0] = 0.2 * np.cos(x[..., 0])
        out[..., 1, 1] = 0.9
        return out

    return replace(_bm_coeffs(x_dim=2, d=2), b=b_fn, sigma=sigma_fn)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("case", ["interval", "ball_2d", "late_start", "excluded"])
def test_simulate_reflected_matches_scenario_major_reference(case):
    from gbdsde import ball_domain

    grid = TimeGrid(0.0, 1.0, 60)
    coeffs, dom, x0, t0 = _bm_coeffs(), interval_domain(0.0, 0.4), np.array([0.1]), 0.0
    kwargs = {}
    if case == "ball_2d":
        coeffs, dom, x0 = _mixing_coeffs_2d(), ball_domain([0.0, 0.0], 0.5), np.array([0.2, -0.1])
    bundle = sample_paths(grid, d=coeffs.d, seed=41, count=300)
    if case == "late_start":
        t0 = 0.25
    elif case == "excluded":
        w = bundle.W.copy()
        w[7, 20:, 0] = np.inf  # an infinite increment at step 19, NaN after
        bundle = PathBundle(grid=grid, W=w, B=bundle.B, seed=41, scenario_count=300)
        kwargs["max_excluded_fraction"] = 0.01
    got = simulate_reflected(coeffs, dom, t0, x0, bundle, **kwargs)
    ref = _reference_simulate_reflected(coeffs, dom, t0, x0, bundle, **kwargs)
    if case == "excluded":
        assert np.flatnonzero(got.excluded).tolist() == [7]
    assert np.any(got.boundary_flags)
    for name in ("X", "k", "boundary_flags", "excluded"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.shape == b.shape and a.flags.c_contiguous, name
        assert np.array_equal(a, b), name


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       radius=st.floats(min_value=0.1, max_value=2.0),
       frac=st.floats(min_value=0.0, max_value=1.0),
       angle=st.floats(min_value=0.0, max_value=2.0 * math.pi),
       vol=st.floats(min_value=0.1, max_value=3.0),
       start=st.integers(min_value=0, max_value=20))
def test_ball_skorokhod_push_nondecreasing(seed, radius, frac, angle, vol, start):
    from dataclasses import replace

    from gbdsde import ball_domain

    grid = TimeGrid(0.0, 1.0, 40)
    bundle = sample_paths(grid, d=2, seed=seed, count=64)
    center = np.array([0.3, -0.2])
    x0 = center + frac * radius * np.array([math.cos(angle), math.sin(angle)])
    dom = ball_domain(center, radius)
    # a start on the sphere may round to just outside it: pull it in by a hair
    x0 = center + (x0 - center) * min(1.0, radius / (np.linalg.norm(x0 - center) + 1e-15))
    coeffs = replace(_bm_coeffs(x_dim=2, d=2),
                     sigma=lambda x: vol * np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)))
    refl = simulate_reflected(coeffs, dom, grid.points[start], x0, bundle)
    assert np.all(refl.k[:, : start + 1] == 0.0)
    assert np.all(np.diff(refl.k, axis=1) >= 0.0)
