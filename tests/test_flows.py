"""Pathwise flow solver, inversion, derivative identities, transforms."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RectBivariateSpline

import gbdsde
from gbdsde import (
    BrownianFlow,
    CoefficientSet,
    FlowTable,
    TimeGrid,
    flow_derivative_identities,
    interval_domain,
    sample_paths,
    transformed_boundary,
    transformed_generator,
)
from gbdsde.acceptance import SinNoise
from gbdsde import flows
from gbdsde.flows import (
    AnalyticField,
    FlowBlowup,
    InversionError,
    _direct_operator,
    _SplineAxis,
)


def _grid_and_path(steps=1000, seed=5):
    grid = TimeGrid(0.0, 1.0, steps)
    bundle = sample_paths(grid, d=1, seed=seed, count=1)
    return grid, bundle.B[0]


def _zero_g(t, x, y):
    return np.zeros(np.shape(y) + (1,))


def _const_g(c):
    def g(t, x, y):
        return np.full(np.shape(y) + (1,), c)

    return g


def _linear_g(t, x, y):
    return np.asarray(y, dtype=float)[..., None]


def test_zero_noise_flow_is_identity():
    grid, bp = _grid_and_path()
    flow = BrownianFlow(_zero_g, bp, grid)
    y = np.array([-1.0, 0.3, 2.5])
    x = np.zeros((3, 1))
    assert np.allclose(flow.solve(100, x, y), y)
    assert np.allclose(flow.invert(100, x, y), y)


def test_constant_noise_flow_shifts_by_increment():
    grid, bp = _grid_and_path()
    c = 0.7
    flow = BrownianFlow(_const_g(c), bp, grid)
    y = np.array([0.0, 1.0, -2.0])
    x = np.zeros((3, 1))
    ti = 300
    shift = c * (bp[-1, 0] - bp[ti, 0])
    assert np.allclose(flow.solve(ti, x, y), y + shift, atol=1e-12)
    assert np.allclose(flow.invert(ti, x, y), y - shift, atol=1e-9)


def test_linear_noise_flow_is_exponential():
    # dt 1e-4 matches the closed form within 1e-3 relative
    grid, bp = _grid_and_path(steps=10_000)
    flow = BrownianFlow(_linear_g, bp, grid, lipschitz_hint=1.0)
    y = np.array([0.5, 1.0, -1.5])
    x = np.zeros((3, 1))
    ti = 4000
    expect = y * np.exp(bp[-1, 0] - bp[ti, 0])
    got = flow.solve(ti, x, y)
    assert np.max(np.abs(got / expect - 1.0)) <= 1e-3
    inv = flow.invert(ti, x, y)
    expect_inv = y * np.exp(-(bp[-1, 0] - bp[ti, 0]))
    assert np.max(np.abs(inv / expect_inv - 1.0)) <= 1e-3


def test_flow_monotone_in_y():
    grid, bp = _grid_and_path()
    noise = SinNoise(amp=0.8)
    flow = BrownianFlow(noise, bp, grid, lipschitz_hint=noise.lipschitz)
    ys = np.linspace(-2, 2, 41)
    xs = np.zeros((41, 1))
    vals = flow.solve(200, xs, ys)
    assert np.all(np.diff(vals) > 0)


def test_identities_trivial_for_zero_and_constant_noise():
    grid, bp = _grid_and_path(steps=500)
    rng = np.random.default_rng(0)
    t_idx = rng.integers(0, 500, 30)
    xs = rng.uniform(-1, 1, (30, 1))
    ys = rng.uniform(-1, 1, 30)
    for g in (_zero_g, _const_g(0.6)):
        flow = BrownianFlow(g, bp, grid)
        viol = flow_derivative_identities(flow, (t_idx, xs, ys))
        assert viol["inverse_grad_y"] <= 1e-7
        assert viol["inverse_grad_x"] <= 1e-7


def test_identities_smooth_noise_small_scale():
    grid, bp = _grid_and_path(steps=1000, seed=3)
    noise = SinNoise(amp=1.0, x_mod=0.25)
    flow = BrownianFlow(noise, bp, grid, fd_step=1e-4,
                        lipschitz_hint=noise.lipschitz)
    rng = np.random.default_rng(1)
    t_idx = rng.integers(0, 1000, 60)
    xs = rng.uniform(-2, 2, (60, 1))
    ys = rng.uniform(-2, 2, 60)
    viol = flow_derivative_identities(flow, (t_idx, xs, ys))
    for name, value in viol.items():
        assert value <= 1e-3, (name, value)


def test_inversion_tolerance_contract():
    grid, bp = _grid_and_path(steps=2000, seed=7)
    noise = SinNoise(amp=1.0)
    flow = BrownianFlow(noise, bp, grid, lipschitz_hint=noise.lipschitz)
    rng = np.random.default_rng(2)
    t_idx = rng.integers(0, 2000, 100)
    xs = rng.uniform(-1, 1, (100, 1))
    ys = rng.uniform(-2, 2, 100)
    w = flow.solve(t_idx, xs, ys)
    back = flow.invert(t_idx, xs, w)
    resid = np.abs(flow.solve(t_idx, xs, back) - w)
    assert np.all(resid <= 1e-10 * (1 + np.abs(w)))
    assert np.max(np.abs(back - ys) / (1 + np.abs(ys))) <= 1e-9


# -- transformed coefficients -------------------------------------------------


def _spatial_coeffs(f=None, g_flow=None, h=None):
    def default_f(t, x, y, z):
        return -y

    def g(t, x, y, z):
        if g_flow is None:
            return np.zeros(y.shape[:-1] + (1, 1))
        return g_flow(t, x, y[..., 0])[..., None, :]

    return CoefficientSet(
        n=1, d=1,
        f=f or default_f,
        g=g,
        h=h or (lambda t, x, y: 0.3 * y + 0.1),
        K=2.0, c=1.0, alpha=0.5, beta1=0.5,
        b=lambda x: np.zeros_like(x),
        sigma=lambda x: np.ones(x.shape[:-1] + (1, 1)),
        x_dim=1,
        l=lambda x: np.cos(x[..., 0]),
    )


def test_transformed_generator_zero_noise_reduces_to_driver():
    grid, bp = _grid_and_path(steps=200)
    coeffs = _spatial_coeffs()
    flow = BrownianFlow(_zero_g, bp, grid)
    x = np.linspace(0.1, 0.9, 5)[:, None]
    y = np.linspace(-1, 1, 5)
    z = np.full((5, 1), 0.3)
    got = transformed_generator(coeffs, flow, 50, grid.points[50], x, y, z)
    expect = coeffs.f(grid.points[50], x, y[:, None], z[:, None, :])[:, 0]
    assert np.allclose(got, expect, atol=1e-10)


def test_transformed_generator_constant_noise_shifts_argument():
    grid, bp = _grid_and_path(steps=400)
    c = 0.5
    coeffs = _spatial_coeffs(g_flow=_const_g(c))
    flow = BrownianFlow(_const_g(c), bp, grid)
    ti = 100
    shift = c * (bp[-1, 0] - bp[ti, 0])
    x = np.full((4, 1), 0.5)
    y = np.array([-0.5, 0.0, 0.5, 1.0])
    z = np.full((4, 1), 0.2)
    got = transformed_generator(coeffs, flow, ti, grid.points[ti], x, y, z)
    expect = coeffs.f(grid.points[ti], x, (y + shift)[:, None], z[:, None, :])[:, 0]
    assert np.allclose(got, expect, atol=1e-6)


def test_transformed_generator_linear_noise_closed_form():
    # g(y) = y: the transformed driver is e^{-dB} f(t, x, y e^{dB}, z e^{dB}) - y/2
    grid, bp = _grid_and_path(steps=10_000, seed=11)

    def f(t, x, y, z):
        return -y + 0.5 * z.sum(axis=-1) + 0.2

    coeffs = _spatial_coeffs(f=f, g_flow=lambda t, x, y: np.asarray(y)[..., None])
    flow = BrownianFlow(_linear_g, bp, grid, lipschitz_hint=1.0)
    ti = 3000
    db = bp[-1, 0] - bp[ti, 0]
    x = np.full((5, 1), 0.4)
    y = np.linspace(0.2, 1.4, 5)
    z = np.full((5, 1), 0.3)
    got = transformed_generator(coeffs, flow, ti, grid.points[ti], x, y, z)
    expect = (np.exp(-db)
              * coeffs.f(grid.points[ti], x, (y * np.exp(db))[:, None],
                         (z * np.exp(db))[:, None, :])[:, 0]
              - 0.5 * y)
    assert np.max(np.abs(got - expect)) <= 1e-3


def test_transformed_boundary_cases():
    grid, bp = _grid_and_path(steps=400, seed=13)
    dom = interval_domain(0.0, 1.0)
    xb = np.array([[0.0], [1.0]])
    y = np.array([0.4, -0.2])
    ti = 120
    t = grid.points[ti]

    coeffs0 = _spatial_coeffs()
    flow0 = BrownianFlow(_zero_g, bp, grid)
    got = transformed_boundary(coeffs0, dom, flow0, ti, t, xb, y)
    expect = coeffs0.h(t, xb, y[:, None])[:, 0]
    assert np.allclose(got, expect, atol=1e-10)

    c = 0.6
    coeffs_c = _spatial_coeffs(g_flow=_const_g(c))
    flow_c = BrownianFlow(_const_g(c), bp, grid)
    shift = c * (bp[-1, 0] - bp[ti, 0])
    got = transformed_boundary(coeffs_c, dom, flow_c, ti, t, xb, y)
    expect = coeffs_c.h(t, xb, (y + shift)[:, None])[:, 0]
    assert np.allclose(got, expect, atol=1e-6)

    with pytest.raises(ValueError):
        transformed_boundary(coeffs0, dom, flow0, ti, t, np.array([[0.5]]),
                             np.array([0.1]))


def test_transformed_boundary_x_dependent_noise_matches_manual_fd():
    # independent finite-difference evaluation with a different step size
    grid, bp = _grid_and_path(steps=2000, seed=15)
    noise = SinNoise(amp=0.7, x_mod=0.3)
    coeffs = _spatial_coeffs(g_flow=noise)
    flow = BrownianFlow(noise, bp, grid, fd_step=1e-4, lipschitz_hint=noise.lipschitz)
    dom = interval_domain(0.0, 1.0)
    ti = 700
    t = grid.points[ti]
    xb = np.array([[0.0], [1.0]])
    y = np.array([0.3, -0.6])
    got = transformed_boundary(coeffs, dom, flow, ti, t, xb, y)

    h_alt = 5e-5
    eta0 = flow.solve(ti, xb, y)
    dr = flow.solve(ti, xb + h_alt, y)
    dl = flow.solve(ti, xb - h_alt, y)
    dy_r = flow.solve(ti, xb, y + h_alt)
    dy_l = flow.solve(ti, xb, y - h_alt)
    dx_eta = (dr - dl) / (2 * h_alt)
    dy_eta = (dy_r - dy_l) / (2 * h_alt)
    normal = dom.grad_phi(xb)[:, 0]
    manual = (coeffs.h(t, xb, eta0[:, None])[:, 0] + dx_eta * normal) / dy_eta
    assert np.max(np.abs(got - manual)) <= 1e-3


def quadratic_test_field(a: float = 1.0, b: float = 0.0, c: float = 0.0) -> AnalyticField:
    """a x_1^2 + b x_1 + c, time-independent."""

    def fn(t, x):
        x1 = x[..., 0]
        return a * x1**2 + b * x1 + c

    def grad(t, x):
        out = np.zeros_like(x)
        out[..., 0] = 2.0 * a * x[..., 0] + b
        return out

    def hess(t, x):
        m = x.shape[-1]
        out = np.zeros(x.shape[:-1] + (m, m))
        out[..., 0, 0] = 2.0 * a
        return out

    return AnalyticField(fn, grad, hess)


def test_spde_operator_trivial_values():
    # the direct operator -L psi - f(t,x,psi,sigma* Dx psi) + (1/2)<g, Dy g>
    # on a field psi given with its gradient and Hessian
    coeffs = _spatial_coeffs(f=lambda t, x, y, z: np.zeros_like(y))
    field = quadratic_test_field(a=1.0)
    x = np.array([[0.3]])
    got = _direct_operator(coeffs, 0.2, x, field.fn(0.2, x), field.grad(0.2, x),
                           field.hess(0.2, x))
    assert got[0] == pytest.approx(-1.0)  # -L(x^2) with unit diffusion

    coeffs1 = _spatial_coeffs(f=lambda t, x, y, z: np.ones_like(y))
    zero_field = quadratic_test_field(a=0.0, b=0.0, c=0.0)
    got = _direct_operator(coeffs1, 0.2, x, zero_field.fn(0.2, x),
                           zero_field.grad(0.2, x), zero_field.hess(0.2, x))
    assert got[0] == pytest.approx(-1.0)


def test_flow_table_matches_direct_solver():
    grid, bp = _grid_and_path(steps=500, seed=21)
    noise = SinNoise(amp=0.5, x_mod=0.2)
    flow = BrownianFlow(noise, bp, grid, lipschitz_hint=noise.lipschitz)
    table = FlowTable(flow, np.linspace(0, 1, 31), np.linspace(-3, 3, 61))
    rng = np.random.default_rng(6)
    xs = rng.uniform(0.1, 0.9, (50, 1))
    ys = rng.uniform(-1.5, 1.5, 50)
    for ti in (0, 137, 499):
        direct = flow.solve(ti, xs, ys)
        tabled = table.derivs(ti, xs, ys)["value"]
        assert np.max(np.abs(direct - tabled)) <= 1e-6
        dv_direct = flow.derivs(ti, xs, ys)
        dv_table = table.derivs(ti, xs, ys)
        assert np.max(np.abs(dv_direct["dy"] - dv_table["dy"])) <= 1e-4
        assert np.max(np.abs(dv_direct["dx"] - dv_table["dx"])) <= 1e-4
        # inverse table round trip
        back = table.invert(ti, xs, direct)
        assert np.max(np.abs(back - ys)) <= 2e-4


def test_flow_blowup_guard(monkeypatch):
    grid, bp = _grid_and_path(steps=100, seed=23)

    def explosive(t, x, y):
        return (1.0 + np.square(y))[..., None]

    monkeypatch.setattr(flows, "OVERFLOW_GUARD", 1e6)
    flow = BrownianFlow(explosive, bp, grid)
    with pytest.raises(FlowBlowup):
        flow.solve(0, np.zeros((1, 1)), np.array([50.0]))


# ---------------------------------------------------------------------------
# The sweep against a verbatim copy of the per-step loop it replaced
# ---------------------------------------------------------------------------


def _dot(g, db):
    """g @ db; with d > 1 summed per component in order, as the sweep does,
    since a BLAS product may round a row by its position in the batch."""
    if db.size == 1:
        return g @ db
    return sum((g[..., k] * db[k] for k in range(1, db.size)), g[..., 0] * db[0])


def _reference_solve(flow, t_index, x, y, store=False, lipschitz_hint=None):
    """The pre-hoisting sweep: increments, substeps and read-out per step."""
    if lipschitz_hint is not None and lipschitz_hint > 0:
        db_norm = np.linalg.norm(np.diff(flow.b_path, axis=0), axis=1)
        substeps = np.maximum(1, np.ceil(db_norm * lipschitz_hint / 0.5).astype(int))
    else:
        substeps = np.ones(flow.grid.step_count, dtype=int)
    y = np.asarray(y, dtype=float)
    state = y.copy()
    g = flow._g_bound(x)
    times = flow.grid.points
    per_element = not np.isscalar(t_index) and np.asarray(t_index).ndim > 0
    if per_element:
        t_arr = np.broadcast_to(np.asarray(t_index, dtype=int), y.shape)
        out = np.where(t_arr == flow.grid.step_count, state, np.nan)
        stop = int(t_arr.min())
    else:
        t_arr = None
        out = None
        stop = int(t_index)
    traj = None
    if store:
        traj = np.empty((flow.grid.step_count + 1 - stop,) + y.shape)
        traj[-1] = state
    for i in range(flow.grid.step_count - 1, stop - 1, -1):
        db = flow.b_path[i + 1] - flow.b_path[i]
        m = int(substeps[i])
        db_sub = db / m
        for _ in range(m):
            g_right = g(times[i + 1], state)
            pred = state + _dot(g_right, db_sub)
            g_left = g(times[i], pred)
            state = state + _dot(0.5 * (g_right + g_left), db_sub)
        if np.any(np.abs(state) > flows.OVERFLOW_GUARD):
            raise FlowBlowup(f"flow exceeded overflow guard at step {i}")
        if per_element:
            hit = t_arr == i
            if np.any(hit):
                out = np.where(hit, state, out)
        if store:
            traj[i - stop] = state
    if per_element:
        return out
    return traj if store else state


def _two_noise_g(t, x, y):
    x0 = np.asarray(x)[..., 0]
    return np.stack([0.4 * np.sin(y + x0) * (1.0 + t), 0.3 * np.cos(y - x0)], axis=-1)


def _sweep_case(name):
    """(flow, lipschitz_hint, x, y) for one bit-for-bit case."""
    rng = np.random.default_rng(31)
    x = rng.uniform(0.0, 1.0, (40, 1))
    y = rng.uniform(-2.0, 2.0, 40)
    if name == "d2":
        grid = TimeGrid(0.0, 1.0, 200)
        bp = sample_paths(grid, d=2, seed=8, count=1).B[0]
        return BrownianFlow(_two_noise_g, bp, grid), None, x, y
    grid, bp = _grid_and_path(steps=200, seed=9)
    noise = SinNoise(amp=0.8, x_mod=0.3)
    if name == "substepped":
        hint = 40.0
        return BrownianFlow(noise, bp, grid, lipschitz_hint=hint), hint, x, y
    if name == "x_none":
        return BrownianFlow(_linear_g, bp, grid), None, None, y
    return BrownianFlow(noise, bp, grid), None, x, y


@pytest.mark.parametrize("case", ["plain", "substepped", "d2", "x_none"])
def test_sweep_bit_identical_to_reference_loop(case):
    flow, hint, x, y = _sweep_case(case)
    if case == "substepped":
        assert max(m for *_, m in flow._steps) > 1
    steps = flow.grid.step_count
    # scalar index, including the no-step read-out at T
    for ti in (0, 57, steps):
        assert np.array_equal(flow.solve(ti, x, y),
                              _reference_solve(flow, ti, x, y, lipschitz_hint=hint))
    # whole trajectory
    assert np.array_equal(flow.solve(13, x, y, store=True),
                          _reference_solve(flow, 13, x, y, store=True, lipschitz_hint=hint))
    # per-element indices, unsorted, with repeats and t = step_count
    t_idx = np.resize(np.array([steps, 0, 57, 57, 199, steps, 3]), y.shape)
    got = flow.solve(t_idx, x, y)
    assert not np.any(np.isnan(got))
    assert np.array_equal(got, _reference_solve(flow, t_idx, x, y, lipschitz_hint=hint))
    # the bracket shape of `_residuals`: seeds stacked on a leading axis of 2,
    # x repeated alongside, the (N,) indices broadcast against the stack
    seeds = np.stack([y - 1.0, y + 1.0])
    xs = None if x is None else np.broadcast_to(x, (2,) + x.shape).copy()
    got = flow.solve(t_idx, xs, seeds)
    assert got.shape == seeds.shape
    assert np.array_equal(got, _reference_solve(flow, t_idx, xs, seeds, lipschitz_hint=hint))


@pytest.mark.parametrize("case", ["plain", "substepped", "d2", "x_none"])
def test_sweep_value_does_not_depend_on_the_batch(case):
    # each element of one sweep has the bits of a sweep of its own, with
    # several noise components too
    flow, _, x, y = _sweep_case(case)
    t_idx = np.resize(np.array([0, 57, 3, 199, 57]), y.shape)
    batch = flow.solve(t_idx, x, y)
    alone = [flow.solve(t_idx[j], None if x is None else x[j:j + 1], y[j:j + 1])[0]
             for j in range(y.size)]
    assert batch.tobytes() == np.array(alone).tobytes()


@pytest.mark.parametrize("case", ["plain", "substepped", "d2", "x_none"])
def test_sweep_scalar_index_is_one_distinct_index(case):
    # a scalar index, a numpy integer and a full array of it read off alike
    flow, _, x, y = _sweep_case(case)
    expect = flow.solve(57, x, y).tobytes()
    assert flow.solve(np.int64(57), x, y).tobytes() == expect
    assert flow.solve(np.full(y.shape, 57), x, y).tobytes() == expect


def test_sweep_empty_batch_returns_empty():
    flow, _, _, _ = _sweep_case("plain")
    x, y = np.zeros((0, 1)), np.zeros(0)
    assert flow.solve(0, x, y).shape == (0,)
    assert flow.solve(5, x, y, store=True).shape == (flow.grid.step_count - 4, 0)
    assert flow.solve(np.zeros(0, dtype=int), x, y).shape == (0,)


def test_flow_blowup_reports_reference_step(monkeypatch):
    grid, bp = _grid_and_path(steps=100, seed=23)

    def explosive(t, x, y):
        return (1.0 + np.square(y))[..., None]

    monkeypatch.setattr(flows, "OVERFLOW_GUARD", 1e6)
    flow = BrownianFlow(explosive, bp, grid)
    x, y = np.zeros((2, 1)), np.array([0.5, 50.0])
    with pytest.raises(FlowBlowup) as expected:
        _reference_solve(flow, 0, x, y)
    with pytest.raises(FlowBlowup) as got:
        flow.solve(0, x, y)
    assert str(got.value) == str(expected.value)


def test_flow_guard_skips_nan_but_not_a_finite_overflow_beside_it(monkeypatch):
    grid, bp = _grid_and_path(steps=20, seed=23)
    monkeypatch.setattr(flows, "OVERFLOW_GUARD", 1e6)
    flow = BrownianFlow(_const_g(0.1), bp, grid)
    x = np.zeros((2, 1))
    nan_only = np.array([np.nan, 1.0])
    assert np.array_equal(flow.solve(0, x, nan_only), _reference_solve(flow, 0, x, nan_only),
                          equal_nan=True)
    with pytest.raises(FlowBlowup, match="at step 19"):
        flow.solve(0, x, np.array([np.nan, 1e7]))


# ---------------------------------------------------------------------------
# The live-prefix sweep: each element is stepped down to its own index only
# ---------------------------------------------------------------------------


def test_live_prefix_sweep_steps_each_element_down_to_its_own_index():
    # rows of g over the sweep: two per element and (sub)step above its index,
    # 2 sum_j sum_{i >= t_j} m_i; a full-batch sweep runs every element down to
    # min t_j
    flow, _, x, y = _sweep_case("substepped")
    noise, rows = flow.g, []

    def counting(t, x, y):
        rows.append(y.shape[0])
        return noise(t, x, y)

    counted = BrownianFlow(counting, flow.b_path, flow.grid, lipschitz_hint=40.0)
    m = np.array([sub for *_, sub in counted._steps])
    t_idx = np.random.default_rng(48).integers(0, flow.grid.step_count + 1, y.size)
    assert np.array_equal(counted.solve(t_idx, x, y), flow.solve(t_idx, x, y))
    expect = 2 * sum(int(m[t:].sum()) for t in t_idx)
    assert sum(rows) == expect
    assert expect < 2 * int(m[t_idx.min():].sum()) * y.size


def _explosive(t, x, y):
    return (1.0 + np.square(y))[..., None]


def test_element_read_out_above_its_blowup_returns_its_reference_value(monkeypatch):
    # integrated on down to index 0, y = 50 blows up at step 87; read out at
    # T - 1 it is never integrated there, so the guard does not see it
    grid, bp = _grid_and_path(steps=100, seed=23)
    monkeypatch.setattr(flows, "OVERFLOW_GUARD", 1e6)
    flow = BrownianFlow(_explosive, bp, grid)
    x, y, t_idx = np.zeros((2, 1)), np.array([50.0, 0.5]), np.array([99, 0])
    with pytest.raises(FlowBlowup, match="at step 87"):
        _reference_solve(flow, t_idx, x, y)
    got = flow.solve(t_idx, x, y)
    for j in range(2):
        assert got[j] == _reference_solve(flow, t_idx[j], x[j:j + 1], y[j:j + 1])[0]


def test_live_element_that_overflows_still_raises_naming_the_step(monkeypatch):
    grid, bp = _grid_and_path(steps=100, seed=23)
    monkeypatch.setattr(flows, "OVERFLOW_GUARD", 1e6)
    flow = BrownianFlow(_explosive, bp, grid)
    x, y, t_idx = np.zeros((2, 1)), np.array([0.5, 50.0]), np.array([99, 0])
    with pytest.raises(FlowBlowup) as expected:
        _reference_solve(flow, t_idx, x, y)
    with pytest.raises(FlowBlowup) as got:
        flow.solve(t_idx, x, y)
    assert str(got.value) == str(expected.value) == (
        "flow exceeded overflow guard at step 87")


def test_flow_table_inverse_slice_matches_per_column_ev():
    # the inverse table against FITPACK's construction: per-column `ev` of the
    # slice's value spline on the 4x oversampled y grid, `np.interp` onto
    # u_grid, then a FITPACK fit on x_grid x u_grid
    grid, bp = _grid_and_path(steps=100, seed=21)
    noise = SinNoise(amp=0.5, x_mod=0.2)
    flow = BrownianFlow(noise, bp, grid, lipschitz_hint=noise.lipschitz)
    table = FlowTable(flow, np.linspace(0, 1, 41), np.linspace(-3, 3, 96))
    rng = np.random.default_rng(45)
    x = np.concatenate([rng.uniform(0.0, 1.0, 200), table.x_grid, [-0.2, 1.2]])
    u = np.concatenate([rng.uniform(table.u_grid[0], table.u_grid[-1], 200),
                        np.resize(table.u_grid, table.x_grid.size),
                        [table.u_grid[0] - 1.0, table.u_grid[-1] + 1.0]])
    for ti in (0, 37, 100):
        fine_y = np.linspace(table.y_grid[0], table.y_grid[-1], 4 * table.y_grid.size)
        value_sp = _fitpack_slice(table, ti)
        inv = np.empty((table.x_grid.size, table.u_grid.size))
        for ix, xv in enumerate(table.x_grid):
            fine_vals = value_sp.ev(np.full_like(fine_y, xv), fine_y)
            inv[ix] = np.interp(table.u_grid, fine_vals, fine_y)
        expect = RectBivariateSpline(table.x_grid, table.u_grid, inv,
                                     kx=table._x_axis.k, ky=table._u_axis.k)
        for dx in (0, 1):
            for dy in (0, 1):
                got = table.invert(ti, x[:, None], u, dx=dx, dy=dy)
                ref = _fitpack_ev(expect, table, x, u, table.u_grid, dx, dy)
                _assert_close({"inv": got}, {"inv": ref}, ["inv"])


@pytest.mark.parametrize("t_index", [-1, 14, [-3, 2], [0, 11]])
def test_solve_rejects_out_of_range_indices(t_index):
    grid, bp = _grid_and_path(steps=10, seed=24)
    flow = BrownianFlow(_const_g(0.2), bp, grid)
    x, y = np.zeros((2, 1)), np.array([0.3, -0.4])
    with pytest.raises(ValueError, match=r"\[0, 10\]"):
        flow.solve(t_index, x, y)
    # both ends of the range stay valid
    assert np.array_equal(flow.solve(10, x, y), y)
    assert np.array_equal(flow.solve([0, 10], x, y)[1], y[1])


# ---------------------------------------------------------------------------
# FlowTable.derivs (Taylor form) against FITPACK's per-partial evaluation
# ---------------------------------------------------------------------------

PARTIALS = {"value": (0, 0), "dx": (1, 0), "dy": (0, 1),
            "dxx": (2, 0), "dxy": (1, 1), "dyy": (0, 2)}


def _table(x_count, y_count, steps=30):
    grid, bp = _grid_and_path(steps=steps, seed=41)
    noise = SinNoise(amp=0.5, x_mod=0.2, freq_x=3.0)
    flow = BrownianFlow(noise, bp, grid, lipschitz_hint=noise.lipschitz)
    return FlowTable(flow, np.linspace(0.0, 1.0, x_count), np.linspace(-2.0, 3.0, y_count))


def _fitpack_slice(table, t_index):
    """FITPACK's interpolant of one tabulated slice, the oracle of the table's fit;
    the slice comes from the table's own sweep, rerun (the table keeps no values)."""
    xs, ys = np.meshgrid(table.x_grid, table.y_grid, indexing="ij")
    traj = table.flow.solve(0, xs.ravel()[:, None], ys.ravel(), store=True)
    values = traj.reshape(len(table.grid), table.x_grid.size, table.y_grid.size)
    return RectBivariateSpline(table.x_grid, table.y_grid, values[t_index],
                               kx=table._x_axis.k, ky=table._y_axis.k)


def _fitpack_ev(spline, table, x, y, y_grid, dx=0, dy=0):
    """``spline.ev`` at (x, y) clipped to x_grid x y_grid, in the batch shape of y."""
    x1 = np.clip(np.asarray(x, dtype=float).reshape(-1), table.x_grid[0], table.x_grid[-1])
    y1 = np.clip(np.asarray(y, dtype=float).reshape(-1), y_grid[0], y_grid[-1])
    return spline.ev(x1, y1, dx=dx, dy=dy).reshape(np.shape(y))


def _reference_table_derivs(table, t_index, x, y):
    """The six per-partial FITPACK `ev` calls on the slice's FITPACK fit."""
    sp = _fitpack_slice(table, t_index)
    x_flat = np.asarray(x, dtype=float)[..., 0]
    out = {key: _fitpack_ev(sp, table, x_flat, y, table.y_grid, px, py)
           for key, (px, py) in PARTIALS.items()}
    for key in ("dx", "dxy"):
        out[key] = out[key][..., None]
    out["dxx"] = out["dxx"][..., None, None]
    return out


def _edge_points(table, rng, count=200):
    """Random points plus grid nodes, both ends and points clipped from outside."""
    xg, yg = table.x_grid, table.y_grid
    x = rng.uniform(xg[0], xg[-1], count)
    y = rng.uniform(yg[0], yg[-1], count)
    x_edge = np.concatenate([xg, [xg[0] - 0.3, xg[-1] + 0.3, xg[0], xg[-1]]])
    y_edge = np.concatenate([np.resize(yg, xg.size), [yg[-1] + 1.0, yg[0] - 1.0,
                                                      yg[-1], yg[0]]])
    y_nodes = np.concatenate([yg, [yg[0] - 2.0, yg[-1] + 2.0]])
    x_nodes = np.resize(np.concatenate([xg, [xg[-1] + 1.0]]), y_nodes.size)
    return (np.concatenate([x, x_edge, x_nodes])[:, None],
            np.concatenate([y, y_edge, y_nodes]))


def _assert_close(got, ref, keys):
    for key in keys:
        assert got[key].shape == ref[key].shape, key
        gap = np.abs(got[key] - ref[key]) / (1.0 + np.abs(ref[key]))
        assert np.all(gap <= 1e-10), (key, float(gap.max()))


@pytest.mark.parametrize("x_count, y_count", [(41, 96), (4, 30), (5, 4)])
def test_flow_table_derivs_match_per_partial_ev(x_count, y_count):
    table = _table(x_count, y_count)
    assert (table._x_axis.k, table._y_axis.k) == (min(5, x_count - 1), min(5, y_count - 1))
    rng = np.random.default_rng(42)
    x, y = _edge_points(table, rng)
    for ti in (0, 11, 30):
        _assert_close(table.derivs(ti, x, y), _reference_table_derivs(table, ti, x, y),
                      PARTIALS)
        # 0-d and 2-d batches keep the batch shape of y
        _assert_close(table.derivs(ti, x[3], y[3]),
                      _reference_table_derivs(table, ti, x[3], y[3]), PARTIALS)
        x2, y2 = x[:60].reshape(5, 12, 1), y[:60].reshape(5, 12)
        _assert_close(table.derivs(ti, x2, y2), _reference_table_derivs(table, ti, x2, y2),
                      PARTIALS)
    empty = table.derivs(5, np.zeros((0, 1)), np.zeros(0))
    assert empty["dxx"].shape == (0, 1, 1) and empty["value"].shape == (0,)


@pytest.mark.parametrize("points", [2, 3, 4, 5, 6, 7, 11, 41, 96])
def test_spline_axis_knots_match_fitpack(points):
    # FITPACK's interpolation knots on either axis, for every degree the grid
    # admits: grid points for odd degree, interval midpoints for even degree
    rng = np.random.default_rng(points)
    grid = np.cumsum(rng.uniform(0.5, 1.5, points))
    other = np.linspace(0.0, 1.0, 7)
    for k in range(1, min(5, points - 1) + 1):
        knots = _SplineAxis(grid, k).knots
        along_x = RectBivariateSpline(grid, other, rng.normal(size=(points, 7)), kx=k, ky=5)
        along_y = RectBivariateSpline(other, grid, rng.normal(size=(7, points)), kx=5, ky=k)
        assert np.array_equal(knots, along_x.tck[0]), k
        assert np.array_equal(knots, along_y.tck[1]), k


@pytest.mark.parametrize("x_count", [2, 3])
def test_flow_table_derivs_below_cubic_in_x(x_count):
    # FITPACK refuses x-derivatives of order >= kx; the Taylor form returns
    # them, checked by central differences of the next lower FITPACK partial
    table = _table(x_count, 30)
    kx = table._x_axis.k
    rng = np.random.default_rng(43)
    x = rng.uniform(0.1, 0.9, (50, 1))
    y = rng.uniform(-1.5, 2.5, 50)
    ti = 7
    got = table.derivs(ti, x, y)
    sp = _fitpack_slice(table, ti)

    def ev(x_flat, dx=0, dy=0):
        return _fitpack_ev(sp, table, x_flat, y, table.y_grid, dx, dy)

    allowed = [key for key, (px, _) in PARTIALS.items() if px < kx]
    ref = {key: ev(x[:, 0], *PARTIALS[key]) for key in allowed}
    _assert_close({key: got[key].reshape(y.shape) for key in allowed}, ref, allowed)
    h = 1e-3
    if kx == 1:
        assert np.all(got["dxx"] == 0.0)
        fd_xy = (ev(x[:, 0] + h, dy=1) - ev(x[:, 0] - h, dy=1)) / (2 * h)
        assert np.allclose(got["dxy"][:, 0], fd_xy, rtol=1e-6, atol=1e-8)
    else:
        fd_xx = (ev(x[:, 0] + h, dx=1) - ev(x[:, 0] - h, dx=1)) / (2 * h)
        assert np.allclose(got["dxx"][:, 0, 0], fd_xx, rtol=1e-6, atol=1e-8)


def test_flow_table_rejects_non_finite_values():
    grid, bp = _grid_and_path(steps=20, seed=44)

    def turns_nan(t, x, y):
        return np.where(np.abs(y) > 2.5, np.nan, 0.3 * np.sin(y))[..., None]

    flow = BrownianFlow(turns_nan, bp, grid)
    with pytest.raises(FlowBlowup, match="non-finite tabulated"):
        FlowTable(flow, np.linspace(0.0, 1.0, 11), np.linspace(-3.0, 3.0, 24))


_IMPORT_PROBE = """\
import sys
import numpy as np
import gbdsde, gbdsde.cli
from gbdsde import BrownianFlow, FlowTable, TimeGrid, sample_paths
print("scipy.interpolate" in sys.modules)
grid = TimeGrid(0.0, 1.0, 10)
b_path = sample_paths(grid, d=1, seed=3, count=1).B[0]
flow = BrownianFlow(lambda t, x, y: 0.3 * np.sin(y)[..., None], b_path, grid)
table = FlowTable(flow, np.linspace(0.0, 1.0, 11), np.linspace(-2.0, 2.0, 12))
table.derivs(0, np.array([0.5]), np.array([0.1]))
table.invert(0, np.array([0.5]), np.array([0.1]))
print("scipy.interpolate" in sys.modules)
"""


def test_scipy_interpolate_is_not_loaded_even_by_a_flow_table():
    # scipy.interpolate is a quarter of the package's import footprint; the
    # FlowTable splines are fitted and evaluated with numpy alone, so neither
    # the package, the CLI nor a table's build, derivs and invert loads it
    env = dict(os.environ, PYTHONPATH=str(Path(gbdsde.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["False", "False"]


_LINALG_PROBE = """\
import sys
import numpy as np
import gbdsde
from gbdsde import (BrownianFlow, FlowTable, TimeGrid, fields, interval_domain,
                    pde_oracle_g0, sample_paths)
from gbdsde.acceptance import _heat_coeffs
grid = TimeGrid(0.0, 1.0, 10)
b_path = sample_paths(grid, d=1, seed=3, count=1).B[0]
flow = BrownianFlow(lambda t, x, y: 0.3 * np.sin(y)[..., None], b_path, grid)
x, y = np.array([[0.5], [0.2]]), np.array([0.1, -0.3])
flow.invert(np.array([0, 4]), x, flow.solve(np.array([0, 4]), x, y))
table = FlowTable(flow, np.linspace(0.0, 1.0, 11), np.linspace(-2.0, 2.0, 12))
table.derivs(0, np.array([0.5]), np.array([0.1]))
table.invert(0, np.array([0.5]), np.array([0.1]))
print("scipy.linalg" in sys.modules)
fields.ORACLE_POINTS = 20
oracle = pde_oracle_g0(_heat_coeffs(), interval_domain(0.0, 1.0))
print(bool(np.isfinite(oracle.u).all()), "scipy.linalg" in sys.modules)
"""


def test_scipy_linalg_is_not_loaded_even_by_the_oracle():
    # a flow's solve and invert, a table's derivs and invert and the oracle's
    # Newton solves (fields._solve_tridiagonal) never load scipy.linalg
    env = dict(os.environ, PYTHONPATH=str(Path(gbdsde.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _LINALG_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["False", "True", "False"]


_SCIPY_PROBE = """\
import sys
import gbdsde.cli
from gbdsde import TimeGrid, sample_paths
sample_paths(TimeGrid(0.0, 1.0, 10), d=2, seed=3, count=100)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_no_scipy_module_is_loaded_by_the_cli_import_and_a_sampling():
    # the normals come from the package's own numpy ndtri, so neither the
    # CLI import nor a path bundle loads any scipy module
    env = dict(os.environ, PYTHONPATH=str(Path(gbdsde.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


_FIELD_PROBE = """\
import contextlib, io, sys
import yaml
from gbdsde.cli import main
config = {
    "suite": "field",
    "problem": {"n": 1, "d": 1, "x_dim": 1, "f": {"kind": "zero"}, "g": {"kind": "zero"},
                "h": {"kind": "zero"}, "b": {"kind": "zero"},
                "sigma": {"kind": "constant", "value": 1.0},
                "l": {"kind": "trig", "amp": 1.0, "func": "cos", "of": "x",
                      "freq": 3.141592653589793}},
    "domain": {"kind": "interval", "a": 0.0, "b": 1.0},
    "grid": {"dt": 0.05},
    "monte_carlo": {"scenarios": 100, "seed": 3, "shared_b": True},
    "field": {"nodes": [[0.0, 0.25], [0.5, 0.75]]},
}
with open(sys.argv[1] + "/field.yaml", "w") as fh:
    yaml.safe_dump(config, fh)
with contextlib.redirect_stdout(io.StringIO()) as report:
    code = main(["field", "--config", sys.argv[1] + "/field.yaml",
                 "--out-dir", sys.argv[1] + "/out"])
print(code, report.getvalue().count("field_vs_oracle"))
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_no_scipy_module_is_loaded_by_a_field_run_with_its_oracle(tmp_path):
    # the field suite on an interval with g = 0 solves the Crank-Nicolson
    # oracle too; its Newton systems are solved without scipy.linalg
    env = dict(os.environ, PYTHONPATH=str(Path(gbdsde.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _FIELD_PROBE, str(tmp_path)], env=env,
                         check=True, capture_output=True, text=True).stdout.splitlines()
    assert out == ["0 2", "[]"]


class _StubDerivs:
    """A flow stand-in whose derivatives carry a chosen y-slope."""

    def __init__(self, dy):
        self.dy = np.asarray(dy, dtype=float)

    def derivs(self, t_index, x, y):
        shape = np.shape(y)
        return {"value": np.asarray(y, dtype=float), "dx": np.zeros(shape + (1,)),
                "dy": np.broadcast_to(self.dy, shape), "dxx": np.zeros(shape + (1, 1)),
                "dxy": np.zeros(shape + (1,)), "dyy": np.zeros(shape)}


def test_transformed_coefficients_reject_nan_slope():
    coeffs = _spatial_coeffs()
    dom = interval_domain(0.0, 1.0)
    xb = np.array([[0.0], [1.0]])
    z = np.zeros((2, 1))
    y = np.array([0.2, -0.1])
    nan_slope = _StubDerivs([1.0, np.nan])
    with pytest.raises(FlowBlowup, match="monotonicity lost"):
        transformed_generator(coeffs, nan_slope, 0, 0.0, xb, y, z)
    with pytest.raises(FlowBlowup, match="monotonicity lost"):
        transformed_boundary(coeffs, dom, nan_slope, 0, 0.0, xb, y)
    # a NaN query point is the caller's own value, left to its finite checks
    y_nan = np.array([0.2, np.nan])
    assert np.isnan(transformed_generator(coeffs, nan_slope, 0, 0.0, xb, y_nan, z)[1])
    assert np.isnan(transformed_boundary(coeffs, dom, nan_slope, 0, 0.0, xb, y_nan)[1])


# ---------------------------------------------------------------------------
# BrownianFlow.invert against a verbatim copy of the two-sweep bracket
# ---------------------------------------------------------------------------


def _reference_invert(flow, t_index, x, target, guess=None):
    """The bracket with one sweep per end, kept as the bit-for-bit reference;
    its budgets are the module constants in force."""
    target = np.asarray(target, dtype=float)
    center = target.copy() if guess is None else np.asarray(guess, dtype=float).copy()
    lo = center - flows.BRACKET_PAD
    hi = center + flows.BRACKET_PAD
    f_lo = flow.solve(t_index, x, lo) - target
    f_hi = flow.solve(t_index, x, hi) - target
    width = np.full(target.shape, float(flows.BRACKET_PAD))
    for _ in range(flows.MAX_EXPAND):
        need_lo = f_lo > 0
        need_hi = f_hi < 0
        if not (np.any(need_lo) or np.any(need_hi)):
            break
        width = np.where(need_lo | need_hi, width * 2.0, width)
        lo = np.where(need_lo, center - width, lo)
        hi = np.where(need_hi, center + width, hi)
        if np.any(need_lo):
            f_lo = np.where(need_lo, flow.solve(t_index, x, lo) - target, f_lo)
        if np.any(need_hi):
            f_hi = np.where(need_hi, flow.solve(t_index, x, hi) - target, f_hi)
    if np.any(f_lo > 0) or np.any(f_hi < 0):
        raise InversionError("no monotone bracket found within the expansion budget")

    tol = 1e-10 * (1.0 + np.abs(target))
    side = np.zeros(target.shape, dtype=int)
    root = 0.5 * (lo + hi)
    for _ in range(flows.MAX_ILLINOIS):
        denom = f_hi - f_lo
        safe = np.abs(denom) > 1e-300
        cand = np.where(
            safe, (lo * f_hi - hi * f_lo) / np.where(safe, denom, 1.0), 0.5 * (lo + hi)
        )
        eps = 1e-14 * (1.0 + np.abs(cand))
        cand = np.clip(cand, lo + eps, hi - eps)
        f_cand = flow.solve(t_index, x, cand) - target
        root = cand
        if np.all(np.abs(f_cand) <= tol):
            return root
        neg = f_cand < 0
        lo = np.where(neg, cand, lo)
        f_lo = np.where(neg, f_cand, f_lo)
        hi = np.where(neg, hi, cand)
        f_hi = np.where(neg, f_hi, f_cand)
        stale_hi = neg & (side == 1)
        stale_lo = (~neg) & (side == -1)
        f_hi = np.where(stale_hi, 0.5 * f_hi, f_hi)
        f_lo = np.where(stale_lo, 0.5 * f_lo, f_lo)
        side = np.where(neg, 1, -1)
    raise InversionError("inverse iteration did not reach tolerance")


def _count_sweeps(flow, monkeypatch):
    calls = []
    real = flow.solve

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(flow, "solve", counting)
    return calls


@pytest.mark.parametrize("case", ["scalar", "per_element", "x_none", "expand", "d2"])
@pytest.mark.parametrize("size", [25, 225])
def test_invert_bit_identical_to_two_sweep_bracket(case, size, monkeypatch):
    name = {"x_none": "x_none", "d2": "d2"}.get(case, "plain")
    flow, _, x, y = _sweep_case(name)
    rng = np.random.default_rng(size)
    y = rng.uniform(-2.0, 2.0, size)
    if x is not None:
        x = rng.uniform(0.0, 1.0, (size, 1))
    t_index = 57 if case in ("scalar", "x_none") else rng.integers(0, 200, size)
    target = flow.solve(t_index, x, y)
    kwargs = {}
    if case == "expand":
        # a tiny bracket off to both sides forces expansion rounds on each
        kwargs = {"guess": y + np.where(np.arange(size) % 2, 0.4, -0.4)}
        monkeypatch.setattr(flows, "BRACKET_PAD", 1e-3)
    calls = _count_sweeps(flow, monkeypatch)
    expect = _reference_invert(flow, t_index, x, target, **kwargs)
    reference_sweeps = len(calls)
    calls.clear()
    got = flow.invert(t_index, x, target, **kwargs)
    assert np.array_equal(got, expect)
    # at least the first bracket round shares one sweep
    assert len(calls) <= reference_sweeps - 1


def test_invert_bracket_failure_matches_reference(monkeypatch):
    flow, _, x, y = _sweep_case("plain")
    target = flow.solve(40, x, y)
    monkeypatch.setattr(flows, "BRACKET_PAD", 1e-3)
    monkeypatch.setattr(flows, "MAX_EXPAND", 2)
    kwargs = {"guess": y + 3.0}
    with pytest.raises(InversionError) as expected:
        _reference_invert(flow, 40, x, target, **kwargs)
    with pytest.raises(InversionError) as got:
        flow.invert(40, x, target, **kwargs)
    assert str(got.value) == str(expected.value)


_CONTRACT_GRID, _CONTRACT_PATH = _grid_and_path(steps=200, seed=45)
_CONTRACT_NOISE = SinNoise(amp=1.0, x_mod=0.25)
_CONTRACT_FLOW = BrownianFlow(_CONTRACT_NOISE, _CONTRACT_PATH, _CONTRACT_GRID,
                              lipschitz_hint=_CONTRACT_NOISE.lipschitz)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=200),
       st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_inversion_contract_property(t_index, x, target, offset):
    flow = _CONTRACT_FLOW
    xs = np.array([[x]])
    targets = np.array([target])
    y_hat = flow.invert(t_index, xs, targets, guess=targets + offset)
    resid = np.abs(flow.solve(t_index, xs, y_hat) - targets)
    assert np.all(resid <= 1e-10 * (1.0 + np.abs(targets)))


def _reference_stencil(fd_step, x, y):
    """The four hand-unrolled stencil loops the offset table replaced."""
    m = x.shape[-1]
    hy = fd_step * (1.0 + np.abs(y))
    hx = fd_step * (1.0 + np.abs(x))  # (..., m)
    points_x, points_y = [x], [y]

    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        points_x += [x + hx[..., j, None] * e, x - hx[..., j, None] * e]
        points_y += [y, y]
    points_x += [x, x]
    points_y += [y + hy, y - hy]
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        for sx in (1.0, -1.0):
            for sy in (1.0, -1.0):
                points_x.append(x + sx * hx[..., j, None] * e)
                points_y.append(y + sy * hy)
    for j in range(m):
        for k in range(j + 1, m):
            ej = np.zeros(m)
            ej[j] = 1.0
            ek = np.zeros(m)
            ek[k] = 1.0
            for sj in (1.0, -1.0):
                for sk in (1.0, -1.0):
                    points_x.append(
                        x + sj * hx[..., j, None] * ej + sk * hx[..., k, None] * ek)
                    points_y.append(y)
    return np.stack(points_x), np.stack(points_y), hx, hy


def _reference_assemble(vals, hx, hy, m, shape):
    """The per-coordinate difference loops the whole-array expressions replaced."""
    out = {"value": vals[0]}
    idx = 1
    dx = np.empty(shape + (m,))
    dxx = np.empty(shape + (m, m))
    for j in range(m):
        vp, vm = vals[idx], vals[idx + 1]
        idx += 2
        dx[..., j] = (vp - vm) / (2.0 * hx[..., j])
        dxx[..., j, j] = (vp - 2.0 * vals[0] + vm) / hx[..., j] ** 2
    vyp, vym = vals[idx], vals[idx + 1]
    idx += 2
    out["dy"] = (vyp - vym) / (2.0 * hy)
    out["dyy"] = (vyp - 2.0 * vals[0] + vym) / hy**2
    dxy = np.empty(shape + (m,))
    for j in range(m):
        vpp, vpm, vmp, vmm = vals[idx], vals[idx + 1], vals[idx + 2], vals[idx + 3]
        idx += 4
        dxy[..., j] = (vpp - vpm - vmp + vmm) / (4.0 * hx[..., j] * hy)
    for j in range(m):
        for k in range(j + 1, m):
            vpp, vpm, vmp, vmm = vals[idx], vals[idx + 1], vals[idx + 2], vals[idx + 3]
            idx += 4
            cross = (vpp - vpm - vmp + vmm) / (4.0 * hx[..., j] * hx[..., k])
            dxx[..., j, k] = cross
            dxx[..., k, j] = cross
    out["dx"] = dx
    out["dxx"] = dxx
    out["dxy"] = dxy
    return out


def _mixing_g(t, x, y):
    return (0.6 * np.sin(y) * (1.0 + 0.2 * np.cos(np.sum(x, axis=-1))))[..., None]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("batch", [(6,), (5, 4)], ids=["6", "5x4"])
def test_derivs_bit_identical_to_reference_stencil(m, batch):
    grid, bp = _grid_and_path(steps=120, seed=47)
    flow = BrownianFlow(_mixing_g, bp, grid, lipschitz_hint=0.72)
    rng = np.random.default_rng(m)
    x = rng.uniform(-1.0, 1.0, batch + (m,))
    y = rng.uniform(-1.0, 1.0, batch)
    t_idx = rng.integers(0, 120, batch)
    bx, by, hx, hy = _reference_stencil(flow.fd_step, x, y)
    ref = _reference_assemble(flow.solve(t_idx, bx, by), hx, hy, m, batch)
    got = flow.derivs(t_idx, x, y)
    assert got.keys() == ref.keys()
    assert all(np.array_equal(got[key], ref[key]) for key in ref)
    guess = np.broadcast_to(y, by.shape).copy()
    ref = _reference_assemble(flow.invert(t_idx, bx, by, guess=guess), hx, hy, m, batch)
    got = flow.inverse_derivs(t_idx, x, y, guess=y)
    assert all(np.array_equal(got[key], ref[key]) for key in ref)


def test_verification_outputs_are_pinned():
    # reprs taken before the stencil table, the shared derivative pass and the
    # shared direct operator replaced their hand-written copies
    from gbdsde.acceptance import _transform_instance
    from gbdsde.flows import (operator_identity_violations, spde_noise_coefficient,
                              trig_test_field)

    grid = TimeGrid(0.0, 1.0, 50)
    bp = sample_paths(grid, d=1, seed=61, count=1).B[0]
    coeffs = _transform_instance()
    flow = BrownianFlow(spde_noise_coefficient(coeffs), bp, grid, lipschitz_hint=1.0)
    x = np.array([[0.2], [0.7]])
    field = trig_test_field()
    psi = (field.fn(0.3, x), field.grad(0.3, x), field.hess(0.3, x))
    assert repr(_direct_operator(coeffs, 0.3, x, *psi).tolist()) == (
        "[0.707895379652447, 1.1429710959439054]")
    assert repr(operator_identity_violations(coeffs, flow, trig_test_field(),
                                             np.array([10, 30]), x).tolist()) == (
        "[2.887690087050032e-13, 1.4206413823103503e-12]")
