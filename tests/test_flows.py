"""Pathwise flow solver, inversion, derivative identities, transforms."""

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

from gbdsde import (
    BrownianFlow,
    CoefficientSet,
    FlowTable,
    TimeGrid,
    flow_derivative_identities,
    flow_growth_constants,
    interval_domain,
    sample_paths,
    spde_operator,
    transform_identity_violations,
    transformed_boundary,
    transformed_generator,
)
from gbdsde.acceptance import SinNoise
from gbdsde.flows import FlowBlowup, quadratic_test_field


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


def test_growth_constants_finite_and_stable():
    grid, bp = _grid_and_path(steps=500, seed=9)
    noise = SinNoise(amp=0.8)
    flow = BrownianFlow(noise, bp, grid, lipschitz_hint=noise.lipschitz)
    rng = np.random.default_rng(3)

    def draw(n):
        return (rng.integers(0, 500, n), rng.uniform(-1, 1, (n, 1)),
                rng.uniform(-2, 2, n))

    first = flow_growth_constants(flow, draw(60))
    second = flow_growth_constants(flow, draw(120))
    for key, val in first.items():
        assert np.isfinite(val)
        # doubling the sample may only grow the fitted constant moderately
        assert second[key] <= max(2.0 * val, val + 1.0)


def test_zero_noise_growth_constant_zero():
    grid, bp = _grid_and_path(steps=200)
    flow = BrownianFlow(_zero_g, bp, grid)
    t_idx = np.array([10, 50, 150])
    samples = (t_idx, np.zeros((3, 1)), np.array([0.5, -1.0, 2.0]))
    out = flow_growth_constants(flow, samples)
    assert out["flow_value"] == 0.0
    assert out["inverse_value"] == 0.0


def test_constant_noise_growth_constant_is_coefficient():
    # |flow - y| = |c| |B_T - B_t| exactly, so the fitted constant is |c|
    grid, bp = _grid_and_path(steps=200)
    c = 0.7
    flow = BrownianFlow(_const_g(c), bp, grid)
    rng = np.random.default_rng(9)
    t_idx = rng.integers(0, 200, 40)
    samples = (t_idx, np.zeros((40, 1)), rng.uniform(-2, 2, 40))
    out = flow_growth_constants(flow, samples)
    assert out["flow_value"] == pytest.approx(c, rel=1e-6)
    assert out["inverse_value"] == pytest.approx(c, rel=1e-6)


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


def test_spde_operator_trivial_values():
    coeffs = _spatial_coeffs(f=lambda t, x, y, z: np.zeros_like(y))
    field = quadratic_test_field(a=1.0)
    x = np.array([[0.3]])
    got = spde_operator(coeffs, field, 0.2, x)
    assert got[0] == pytest.approx(-1.0)  # -L(x^2) with unit diffusion

    coeffs1 = _spatial_coeffs(f=lambda t, x, y, z: np.ones_like(y))
    zero_field = quadratic_test_field(a=0.0, b=0.0, c=0.0)
    got = spde_operator(coeffs1, zero_field, 0.2, x)
    assert got[0] == pytest.approx(-1.0)


def test_transform_identities_zero_and_constant_noise():
    grid, bp = _grid_and_path(steps=300, seed=17)
    dom = interval_domain(0.0, 1.0)
    rng = np.random.default_rng(4)
    t_idx = rng.integers(0, 300, 40)
    xs = rng.uniform(0.1, 0.9, (40, 1))
    ys = rng.uniform(-1, 1, 40)
    zs = rng.uniform(-1, 1, (40, 1))
    tb_idx = rng.integers(0, 300, 10)
    xb = np.array([[0.0], [1.0]] * 5)
    yb = rng.uniform(-1, 1, 10)

    coeffs0 = _spatial_coeffs()
    flow0 = BrownianFlow(_zero_g, bp, grid)
    out = transform_identity_violations(coeffs0, dom, flow0, (t_idx, xs, ys, zs),
                                        (tb_idx, xb, yb))
    # zero up to the inversion-tolerance / finite-difference cascade
    assert out["generator"] <= 1e-6
    assert out["boundary"] <= 1e-6

    coeffs_c = _spatial_coeffs(g_flow=_const_g(0.5))
    flow_c = BrownianFlow(_const_g(0.5), bp, grid)
    out = transform_identity_violations(coeffs_c, dom, flow_c, (t_idx, xs, ys, zs),
                                        (tb_idx, xb, yb))
    assert out["generator"] <= 1e-6
    assert out["boundary"] <= 1e-6


def test_transform_identities_smooth_noise():
    grid, bp = _grid_and_path(steps=1000, seed=19)
    dom = interval_domain(0.0, 1.0)
    noise = SinNoise(amp=0.6, x_mod=0.25)
    coeffs = _spatial_coeffs(g_flow=noise)
    flow = BrownianFlow(noise, bp, grid, fd_step=1e-4, lipschitz_hint=noise.lipschitz)
    rng = np.random.default_rng(5)
    t_idx = rng.integers(0, 1000, 50)
    xs = rng.uniform(0.1, 0.9, (50, 1))
    ys = rng.uniform(-1, 1, 50)
    zs = rng.uniform(-1, 1, (50, 1))
    out = transform_identity_violations(coeffs, dom, flow, (t_idx, xs, ys, zs))
    assert out["generator"] <= 1e-3


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
        tabled = table.value(ti, xs[:, 0], ys)
        assert np.max(np.abs(direct - tabled)) <= 1e-6
        dv_direct = flow.derivs(ti, xs, ys)
        dv_table = table.derivs(ti, xs, ys)
        assert np.max(np.abs(dv_direct["dy"] - dv_table["dy"])) <= 1e-4
        assert np.max(np.abs(dv_direct["dx"] - dv_table["dx"])) <= 1e-4
        # inverse table round trip
        back = table.invert(ti, xs, direct)
        assert np.max(np.abs(back - ys)) <= 2e-4


def test_flow_blowup_guard():
    grid, bp = _grid_and_path(steps=100, seed=23)

    def explosive(t, x, y):
        return (1.0 + np.square(y))[..., None]

    flow = BrownianFlow(explosive, bp, grid, overflow_guard=1e6)
    with pytest.raises(FlowBlowup):
        flow.solve(0, np.zeros((1, 1)), np.array([50.0]))


# ---------------------------------------------------------------------------
# The sweep against a verbatim copy of the per-step loop it replaced
# ---------------------------------------------------------------------------


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
            pred = state + g_right @ db_sub
            g_left = g(times[i], pred)
            state = state + 0.5 * (g_right + g_left) @ db_sub
        if np.any(np.abs(state) > flow.overflow_guard):
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
    # per-element indices with repeats and t = step_count
    t_idx = np.resize(np.array([steps, 0, 57, 57, 199, steps, 3]), y.shape)
    got = flow.solve(t_idx, x, y)
    assert not np.any(np.isnan(got))
    assert np.array_equal(got, _reference_solve(flow, t_idx, x, y, lipschitz_hint=hint))


def test_sweep_empty_batch_returns_empty():
    flow, _, _, _ = _sweep_case("plain")
    x, y = np.zeros((0, 1)), np.zeros(0)
    assert flow.solve(0, x, y).shape == (0,)
    assert flow.solve(5, x, y, store=True).shape == (flow.grid.step_count - 4, 0)
    assert flow.solve(np.zeros(0, dtype=int), x, y).shape == (0,)


def test_flow_blowup_reports_reference_step():
    grid, bp = _grid_and_path(steps=100, seed=23)

    def explosive(t, x, y):
        return (1.0 + np.square(y))[..., None]

    flow = BrownianFlow(explosive, bp, grid, overflow_guard=1e6)
    x, y = np.zeros((2, 1)), np.array([0.5, 50.0])
    with pytest.raises(FlowBlowup) as expected:
        _reference_solve(flow, 0, x, y)
    with pytest.raises(FlowBlowup) as got:
        flow.solve(0, x, y)
    assert str(got.value) == str(expected.value)


def test_flow_guard_skips_nan_but_not_a_finite_overflow_beside_it():
    grid, bp = _grid_and_path(steps=20, seed=23)
    flow = BrownianFlow(_const_g(0.1), bp, grid, overflow_guard=1e6)
    x = np.zeros((2, 1))
    nan_only = np.array([np.nan, 1.0])
    assert np.array_equal(flow.solve(0, x, nan_only), _reference_solve(flow, 0, x, nan_only),
                          equal_nan=True)
    with pytest.raises(FlowBlowup, match="at step 19"):
        flow.solve(0, x, np.array([np.nan, 1e7]))


def test_flow_table_inverse_slice_matches_per_column_ev():
    grid, bp = _grid_and_path(steps=100, seed=21)
    noise = SinNoise(amp=0.5, x_mod=0.2)
    flow = BrownianFlow(noise, bp, grid, lipschitz_hint=noise.lipschitz)
    table = FlowTable(flow, np.linspace(0, 1, 41), np.linspace(-3, 3, 96))
    for ti in (0, 37, 100):
        fine_y = np.linspace(table.y_grid[0], table.y_grid[-1], 4 * table.y_grid.size)
        value_sp = table._spline(ti)
        inv = np.empty((table.x_grid.size, table.u_grid.size))
        for ix, xv in enumerate(table.x_grid):
            fine_vals = value_sp.ev(np.full_like(fine_y, xv), fine_y)
            inv[ix] = np.interp(table.u_grid, fine_vals, fine_y)
        expect = RectBivariateSpline(table.x_grid, table.u_grid, inv,
                                     kx=table._kx, ky=table._ky)
        got = table._inv_spline(ti)
        for a, b in zip(got.tck, expect.tck):
            assert np.array_equal(a, b)


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
