"""Backward solvers: simple, outer iteration, Markovian, transformed."""

import math

import numpy as np
import pytest

from gbdsde import (
    BrownianFlow,
    CoefficientSet,
    FlowTable,
    PolynomialBasis,
    TimeGrid,
    apriori_ratio,
    choose_shift_rate,
    exponential_shift,
    interval_domain,
    picard_solve,
    sample_paths,
    simulate_reflected,
    skorokhod_bridge_exact,
    solve_bdsde_markov,
    solve_simple,
    solve_transformed_gbsde,
    stability_gap,
)
from gbdsde.acceptance import SinNoise, _bm_coeffs, _transform_instance, _zeros_coeffs
from gbdsde.solver import PicardDivergence

BASIS = PolynomialBasis(3)


def test_terminal_value_exact_per_scenario():
    grid = TimeGrid(0.0, 1.0, 20)
    bundle = sample_paths(grid, d=1, seed=1, count=200)
    xi = np.sin(bundle.W[:, -1, 0])
    sol = solve_simple(xi, None, None, None, None, bundle, BASIS)
    assert np.array_equal(sol.Y[:, -1, 0], xi)


def test_martingale_representation_of_terminal_brownian():
    grid = TimeGrid(0.0, 1.0, 100)
    bundle = sample_paths(grid, d=1, seed=2, count=5000)
    xi = bundle.W[:, -1, 0]
    sol = solve_simple(xi, None, None, None, None, bundle, BASIS)
    for i in (25, 50, 75):
        rms = np.sqrt(np.mean((sol.Y[:, i, 0] - bundle.W[:, i, 0]) ** 2))
        assert rms <= 0.1
        z_target = sol.Y[:, i + 1, 0] * bundle.dW[:, i, 0] / grid.dt
        se = z_target.std(ddof=1) / math.sqrt(len(z_target))
        assert abs(sol.Z[:, i, 0, 0].mean() - 1.0) <= 3 * se


def test_backward_integral_of_constant():
    grid = TimeGrid(0.0, 1.0, 100)
    bundle = sample_paths(grid, d=1, seed=3, count=4000)
    c = 0.8
    g_path = np.full((4000, 101, 1, 1), c)
    sol = solve_simple(np.zeros(4000), None, g_path, None, None, bundle, BASIS)
    for i in (20, 60):
        expect = c * (bundle.B[:, -1, 0] - bundle.B[:, i, 0])
        assert np.sqrt(np.mean((sol.Y[:, i, 0] - expect) ** 2)) <= 1e-10
        z_vals = sol.Z[:, i, 0, 0]
        z_target = ((sol.Y[:, i + 1, 0] + c * bundle.dB[:, i, 0])
                    * bundle.dW[:, i, 0] / grid.dt)
        se = z_target.std(ddof=1) / math.sqrt(len(z_target))
        assert abs(z_vals.mean()) <= 3 * se


def test_boundary_payment_reflection_value():
    grid = TimeGrid(0.0, 1.0, 100)
    bundle = sample_paths(grid, d=1, seed=4, count=20_000)
    _, k = skorokhod_bridge_exact(0.0, bundle.W[:, :, 0], grid.dt, seed=5)
    h_path = np.ones((20_000, 101, 1))
    sol = solve_simple(np.zeros(20_000), None, None, h_path, k, bundle, BASIS)
    y0 = sol.Y[:, 0, 0].mean()
    se = sol.initial_se()[0]
    assert abs(y0 - math.sqrt(2 / math.pi)) <= 3 * se


def test_picard_zero_data_zero_solution():
    grid = TimeGrid(0.0, 1.0, 20)
    bundle = sample_paths(grid, d=1, seed=5, count=300)
    sol = picard_solve(_zeros_coeffs(), np.zeros(300), None, bundle, BASIS,
                       tol=1e-15, max_iter=5)
    assert np.all(sol.Y == 0.0) and np.all(sol.Z == 0.0)
    assert len(sol.picard_trace) == 1  # converged after the first sweep


def test_picard_linear_ode():
    grid = TimeGrid(0.0, 1.0, 1000)
    bundle = sample_paths(grid, d=1, seed=6, count=1000)
    coeffs = _zeros_coeffs(f=lambda t, x, y, z: -y)
    sol = picard_solve(coeffs, np.ones(1000), None, bundle, BASIS,
                       tol=1e-13, max_iter=8)
    target = np.exp(-(1.0 - grid.points))
    err = np.max(np.abs(sol.Y[:, :, 0].mean(axis=0) - target))
    assert err <= 1e-3


def test_picard_contraction_factor():
    alpha = 0.25
    grid = TimeGrid(0.0, 1.0, 100)
    bundle = sample_paths(grid, d=1, seed=7, count=3000)
    coeffs = _zeros_coeffs(alpha=alpha, g=lambda t, x, y, z: math.sqrt(alpha) * z)
    sol = picard_solve(coeffs, bundle.W[:, -1, 0], None, bundle, BASIS,
                       tol=0.0, max_iter=7)
    trace = sol.picard_trace
    floor = 1e-13 * trace[0]
    ratios = [trace[i] / trace[i - 1] for i in range(2, len(trace))
              if trace[i - 1] > floor]
    assert max(ratios) <= (1 + alpha) / 2 + 0.1


def test_picard_divergence_detected():
    # a wildly non-Lipschitz driver makes the iteration blow up
    grid = TimeGrid(0.0, 1.0, 20)
    bundle = sample_paths(grid, d=1, seed=8, count=300)
    coeffs = _zeros_coeffs(f=lambda t, x, y, z: 40.0 * y**2 + 1.0)
    with pytest.raises(PicardDivergence):
        picard_solve(coeffs, np.ones(300), None, bundle, BASIS,
                     tol=1e-15, max_iter=12)


def test_apriori_trivial_and_homogeneous_scaling():
    grid = TimeGrid(0.0, 1.0, 50)
    bundle = sample_paths(grid, d=1, seed=9, count=2000)
    zero = picard_solve(_zeros_coeffs(), np.zeros(2000), None, bundle, BASIS,
                        max_iter=3)
    rep = apriori_ratio(zero, _zeros_coeffs(), np.zeros(2000), None)
    assert rep["trivial"] and rep["ratio"] == 0.0

    # linear homogeneous data: doubling xi multiplies both sides by 4
    coeffs = _zeros_coeffs(
        f=lambda t, x, y, z: -0.5 * y,
        g=lambda t, x, y, z: 0.4 * z,
        h=lambda t, x, y: 0.3 * y,
        alpha=0.2,
        f_env=lambda t: 0.0, g_env=lambda t: 0.0, h_env=lambda t: 0.0,
    )
    xi = bundle.W[:, -1, 0]
    sol1 = picard_solve(coeffs, xi, None, bundle, BASIS, tol=1e-13, max_iter=9)
    sol2 = picard_solve(coeffs, 2 * xi, None, bundle, BASIS, tol=1e-13, max_iter=9)
    r1 = apriori_ratio(sol1, coeffs, xi, None)
    r2 = apriori_ratio(sol2, coeffs, 2 * xi, None)
    assert r1["rhs"] > 0
    assert r2["lhs"] == pytest.approx(4 * r1["lhs"], rel=1e-6)
    assert r2["ratio"] == pytest.approx(r1["ratio"], rel=1e-6)


def test_stability_identical_data_zero_gap():
    grid = TimeGrid(0.0, 1.0, 50)
    bundle = sample_paths(grid, d=1, seed=10, count=1000)
    coeffs = _zeros_coeffs(f=lambda t, x, y, z: -y)
    xi = bundle.W[:, -1, 0]
    sol = picard_solve(coeffs, xi, None, bundle, BASIS, tol=1e-13, max_iter=8)
    out = stability_gap({"xi": xi, "coeffs": coeffs, "k": None},
                        {"xi": xi, "coeffs": coeffs, "k": None}, sol, sol)
    assert out["lhs"] == 0.0


def test_stability_equal_k_drops_variation_term():
    grid = TimeGrid(0.0, 1.0, 50)
    bundle = sample_paths(grid, d=1, seed=11, count=1000)
    k = 0.4 * grid.points
    coeffs = _zeros_coeffs(h=lambda t, x, y: 0.5 * y + 1.0)
    coeffs2 = _zeros_coeffs(h=lambda t, x, y: 0.5 * y + 0.8)
    xi = bundle.W[:, -1, 0]
    sol1 = picard_solve(coeffs, xi, k, bundle, BASIS, tol=1e-13, max_iter=8)
    sol2 = picard_solve(coeffs2, xi, k, bundle, BASIS, tol=1e-13, max_iter=8)
    out = stability_gap({"xi": xi, "coeffs": coeffs, "k": k},
                        {"xi": xi, "coeffs": coeffs2, "k": k}, sol1, sol2)
    # with equal boundary processes only the h-difference term contributes:
    # rhs = int |h - h'|^2 dk' * weights = 0.04 * k_T-ish, and lhs is bounded by it
    assert out["rhs"] > 0
    assert out["lhs"] <= 10 * out["rhs"]


def test_stability_quadratic_in_perturbation():
    grid = TimeGrid(0.0, 1.0, 50)
    bundle = sample_paths(grid, d=1, seed=12, count=2000)
    coeffs = _zeros_coeffs(f=lambda t, x, y, z: -0.5 * y)
    xi = bundle.W[:, -1, 0]
    base = picard_solve(coeffs, xi, None, bundle, BASIS, tol=1e-13, max_iter=8)
    scalings = []
    for delta in (0.1, 0.05):
        pert = _zeros_coeffs(f=lambda t, x, y, z, _d=delta: -0.5 * y + _d * np.cos(y))
        sol_p = picard_solve(pert, xi, None, bundle, BASIS, tol=1e-13, max_iter=8)
        out = stability_gap({"xi": xi, "coeffs": coeffs, "k": None},
                            {"xi": xi, "coeffs": pert, "k": None}, base, sol_p)
        scalings.append(out["lhs"] / delta**2)
    assert max(scalings) / min(scalings) <= 2.0


def test_exponential_shift_solver_roundtrip():
    grid = TimeGrid(0.0, 1.0, 100)
    bundle = sample_paths(grid, d=1, seed=13, count=4000)
    coeffs = _zeros_coeffs(
        f=lambda t, x, y, z: -0.5 * y,
        g=lambda t, x, y, z: 0.3 * z,
        h=lambda t, x, y: 0.4 * y + 0.3,
        alpha=0.25, beta1=0.4,
    )
    k_path = 0.5 * grid.points
    xi = bundle.W[:, -1, 0]
    sol = picard_solve(coeffs, xi, k_path, bundle, BASIS, tol=1e-12, max_iter=10)

    rate = choose_shift_rate(coeffs.beta1)
    shifted, transform = exponential_shift(coeffs, rate, k_path, grid)
    assert shifted.beta2 == pytest.approx(-1.0)
    xi_bar = np.exp(rate * k_path[-1]) * xi
    sol_bar = picard_solve(shifted, xi_bar, k_path, bundle, BASIS,
                           tol=1e-12, max_iter=10)
    y_back, z_back = transform.inverse(sol_bar.Y, sol_bar.Z, k_path)
    assert np.sqrt(np.mean((y_back - sol.Y) ** 2)) <= 0.05
    assert np.sqrt(np.mean((z_back - sol.Z) ** 2)) <= 0.15


def test_markov_constant_terminal_exact():
    grid = TimeGrid(0.0, 1.0, 50)
    bundle = sample_paths(grid, d=1, seed=14, count=1000, shared_b=True)
    base = _bm_coeffs()
    coeffs = CoefficientSet(
        n=1, d=1, f=base.f, g=base.g, h=base.h, K=1.0, c=1.0, alpha=0.5,
        beta1=1.0, b=base.b, sigma=base.sigma, x_dim=1,
        l=lambda x: np.full(x.shape[:-1], 3.0))
    sol, _ = solve_bdsde_markov(coeffs, interval_domain(0.0, 1.0), 0.0,
                                np.array([0.5]), bundle, BASIS, g_is_zero=True)
    assert np.max(np.abs(sol.Y - 3.0)) <= 1e-12
    assert np.max(np.abs(sol.Z)) <= 1e-12


def test_markov_linear_ode_field_independent():
    grid = TimeGrid(0.0, 1.0, 100)
    bundle = sample_paths(grid, d=1, seed=15, count=2000, shared_b=True)
    base = _bm_coeffs()
    coeffs = CoefficientSet(
        n=1, d=1, f=lambda t, x, y, z: -y, g=base.g, h=base.h, K=1.0, c=1.0,
        alpha=0.5, beta1=1.0, b=base.b, sigma=base.sigma, x_dim=1,
        l=lambda x: np.ones(x.shape[:-1]))
    sol, _ = solve_bdsde_markov(coeffs, interval_domain(0.0, 1.0), 0.0,
                                np.array([0.5]), bundle, BASIS, g_is_zero=True)
    target = np.exp(-(1.0 - grid.points))
    assert np.max(np.abs(sol.Y[:, :, 0].mean(axis=0) - target)) <= 5e-3


def test_transformed_solver_matches_markov_when_noise_vanishes():
    grid = TimeGrid(0.0, 1.0, 60)
    bundle = sample_paths(grid, d=1, seed=16, count=1500, shared_b=True)
    base = _bm_coeffs()
    coeffs = CoefficientSet(
        n=1, d=1, f=lambda t, x, y, z: -y + 0.2, g=base.g,
        h=lambda t, x, y: 0.3 - 0.2 * y, K=1.0, c=1.0, alpha=0.5, beta1=0.2,
        b=base.b, sigma=base.sigma, x_dim=1,
        l=lambda x: np.cos(math.pi * x[..., 0]))
    dom = interval_domain(0.0, 1.0)
    direct, refl = solve_bdsde_markov(coeffs, dom, 0.0, np.array([0.5]),
                                      bundle, BASIS, g_is_zero=True)
    flow0 = BrownianFlow(lambda t, x, y: np.zeros(np.shape(y) + (1,)),
                         bundle.B[0], grid)
    table = FlowTable(flow0, np.linspace(0, 1, 11), np.linspace(-4, 4, 41))
    transformed = solve_transformed_gbsde(coeffs, dom, table, refl, bundle, BASIS)
    assert np.max(np.abs(transformed.Y - direct.Y)) <= 1e-9


def test_transformed_control_relation_sampled():
    # V = D_y eps Z + sigma* D_x eps at sampled (time, scenario) points
    coeffs = _transform_instance()
    dom = interval_domain(0.0, 1.0)
    grid = TimeGrid(0.0, 1.0, 200)
    bundle = sample_paths(grid, d=1, seed=17, count=4000, shared_b=True)
    direct, refl = solve_bdsde_markov(coeffs, dom, 0.0, np.array([0.5]),
                                      bundle, BASIS)
    noise = SinNoise(amp=0.3, x_mod=0.25, freq_x=math.pi)
    flow = BrownianFlow(noise, bundle.B[0], grid, lipschitz_hint=noise.lipschitz)
    pad = 1.5
    y_grid = np.linspace(direct.Y.min() - pad, direct.Y.max() + pad, 96)
    table = FlowTable(flow, np.linspace(0, 1, 41), y_grid)
    transformed = solve_transformed_gbsde(coeffs, dom, table, refl, bundle, BASIS)

    rng = np.random.default_rng(18)
    idx_t = rng.integers(20, 180, 100)
    idx_s = rng.integers(0, 4000, 100)
    gaps = []
    for ti, si in zip(idx_t, idx_s):
        x = refl.X[si, ti, :]
        y = direct.Y[si, ti, 0]
        z = direct.Z[si, ti, 0, :]
        dy_eps = table.invert(ti, x[None, :], np.array([y]), dy=1)[0]
        dx_eps = table.invert(ti, x[None, :], np.array([y]), dx=1)[0]
        v_expect = dy_eps * z[0] + 1.0 * dx_eps
        gaps.append(transformed.Z[si, ti, 0, 0] - v_expect)
    rms = float(np.sqrt(np.mean(np.square(gaps))))
    assert rms <= 5e-2


def test_markov_rejects_vector_valued_problems():
    coeffs = _zeros_coeffs(n=2, d=1)
    grid = TimeGrid(0.0, 1.0, 10)
    bundle = sample_paths(grid, d=1, seed=19, count=100)
    with pytest.raises(ValueError):
        solve_bdsde_markov(coeffs, interval_domain(0, 1), 0.0, np.array([0.5]),
                           bundle, BASIS)


def test_vector_valued_simple_solver():
    grid = TimeGrid(0.0, 1.0, 40)
    bundle = sample_paths(grid, d=2, seed=20, count=1500)
    xi = bundle.W[:, -1, :]  # two components
    sol = solve_simple(xi, None, None, None, None, bundle, PolynomialBasis(2))
    assert sol.Y.shape == (1500, 41, 2)
    assert sol.Z.shape == (1500, 41, 2, 2)
    i = 20
    for comp in (0, 1):
        rms = np.sqrt(np.mean((sol.Y[:, i, comp] - bundle.W[:, i, comp]) ** 2))
        assert rms <= 0.15


def _reference_markov(coeffs, domain, start_time, x0, bundle, basis,
                      inner_sweeps=2, g_is_zero=False):
    """The scenario-major Markovian induction, kept as the bit-for-bit reference."""
    from gbdsde.regression import DesignProjector
    from gbdsde.solver import solution_norms

    grid = bundle.grid
    start_idx = grid.index_of(start_time)
    reflected = simulate_reflected(coeffs, domain, start_time, x0, bundle)
    X, k = reflected.X, reflected.k
    S, n_pts, d = bundle.scenario_count, len(grid), bundle.d
    dt = grid.dt
    dk = np.diff(k, axis=1)
    dB, dW = bundle.dB, bundle.dW
    times = grid.points
    use_backward_tail = not bundle.shared_b and not g_is_zero

    def feature_fn(i):
        cols = [X[:, i, :]]
        if use_backward_tail:
            cols.append(bundle.B[:, -1, :] - bundle.B[:, i, :])
        return np.concatenate(cols, axis=1)

    Y = np.empty((S, n_pts, 1))
    Z = np.zeros((S, n_pts, 1, d))
    Y[:, -1, 0] = coeffs.l(X[:, -1, :])
    increments = np.zeros(S)
    for i in range(grid.step_count - 1, start_idx - 1, -1):
        proj = DesignProjector(feature_fn(i), basis)
        if g_is_zero:
            g_term = np.zeros((S, 1))
        else:
            g_right = coeffs.g(times[i + 1], X[:, i + 1, :], Y[:, i + 1, :], Z[:, i + 1, :, :])
            g_term = np.einsum("snd,sd->sn", g_right, dB[:, i, :])
        base = Y[:, i + 1, :] + g_term
        y_guess = proj.fit(base)
        z_target = (base - y_guess)[:, :, None] * dW[:, i, None, :] / dt
        Z[:, i, :, :] = proj.fit(z_target.reshape(S, -1)).reshape(S, 1, d)
        f_i = h_term = None
        for _ in range(max(1, inner_sweeps)):
            f_i = coeffs.f(times[i], X[:, i, :], y_guess, Z[:, i, :, :])
            h_term = coeffs.h(times[i], X[:, i, :], y_guess) * dk[:, i, None]
            target = base + f_i * dt + h_term
            y_guess = proj.fit(target)
        Y[:, i, :] = y_guess
        increments += (f_i * dt + h_term + g_term)[:, 0]
    Y[:, :start_idx, :] = Y[:, start_idx, :][:, None, :]
    totals = coeffs.l(X[:, -1, :]) + increments
    return Y, Z, totals[:, None], solution_norms(Y, Z, k, grid)


def _markov_case(name):
    """(coeffs, domain, start_time, x0, bundle, basis, g_is_zero) for one case."""
    from dataclasses import replace

    from gbdsde import ball_domain

    grid = TimeGrid(0.0, 1.0, 40)
    dom = interval_domain(0.0, 1.0)
    coeffs = replace(_transform_instance(), g=lambda t, x, y, z: 0.3 * np.sin(y)[..., None])
    if name == "ball_2d":
        base = _bm_coeffs(x_dim=2, d=2)
        coeffs = replace(
            base, f=lambda t, x, y, z: -0.5 * y + 0.1 * z[..., 1],
            g=lambda t, x, y, z: np.stack([0.2 * y, 0.1 * np.cos(y)], axis=-1),
            h=lambda t, x, y: 0.3 - 0.2 * y,
            l=lambda x: np.cos(2.0 * x[..., 0]) + x[..., 1])
        bundle = sample_paths(grid, d=2, seed=51, count=400)
        return coeffs, ball_domain([0.0, 0.0], 0.6), 0.0, np.array([0.1, 0.2]), \
            bundle, PolynomialBasis(2), False
    shared = name in ("shared_g0", "late_start", "poly0")
    bundle = sample_paths(grid, d=1, seed=52, count=400, shared_b=shared)
    t0 = 0.25 if name == "late_start" else 0.0
    basis = PolynomialBasis(0) if name == "poly0" else BASIS
    return coeffs, dom, t0, np.array([0.5]), bundle, basis, name == "shared_g0"


@pytest.mark.parametrize("case", ["shared_g0", "ball_2d", "backward_tail", "late_start",
                                  "poly0"])
def test_markov_solver_matches_scenario_major_reference(case):
    coeffs, dom, t0, x0, bundle, basis, g0 = _markov_case(case)
    sol, _ = solve_bdsde_markov(coeffs, dom, t0, x0, bundle, basis, g_is_zero=g0)
    Y, Z, totals, norms = _reference_markov(coeffs, dom, t0, x0, bundle, basis,
                                            g_is_zero=g0)
    assert sol.Y.flags.c_contiguous and sol.Z.flags.c_contiguous
    assert np.array_equal(sol.Y, Y) and np.array_equal(sol.Z, Z)
    assert np.array_equal(sol.pathwise_totals, totals)
    assert sol.diagnostics == norms
    assert np.any(Z != 0.0)


def _reference_picard(coeffs, xi, k_path, bundle, basis, tol, max_iter, x_path=None):
    """The scenario-major Picard coefficient loop, kept as the bit-for-bit reference."""
    from gbdsde.regression import DesignProjector
    from gbdsde.solver import _as_k, default_feature_fn, weighted_difference_norm

    grid = bundle.grid
    S, n_pts = bundle.scenario_count, len(grid)
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 1:
        xi = xi[:, None]
    n = xi.shape[1]
    k = _as_k(k_path, S, n_pts)
    times = grid.points
    Y = np.zeros((S, n_pts, n))
    Z = np.zeros((S, n_pts, n, coeffs.d))
    feature_fn = default_feature_fn(bundle, not bundle.shared_b)
    projectors = [DesignProjector(feature_fn(i), basis) for i in range(grid.step_count)]
    trace = []
    solution = None
    for _ in range(max_iter):
        f_path = np.empty((S, n_pts, n))
        h_path = np.empty((S, n_pts, n))
        g_path = np.empty((S, n_pts, n, coeffs.d))
        for i in range(n_pts):
            x_i = None if x_path is None else x_path[:, i, :]
            f_path[:, i] = coeffs.f(times[i], x_i, Y[:, i], Z[:, i])
            h_path[:, i] = coeffs.h(times[i], x_i, Y[:, i])
            g_path[:, i] = coeffs.g(times[i], x_i, Y[:, i], Z[:, i])
        solution = solve_simple(xi, f_path, g_path, h_path, k, bundle, basis,
                                feature_fn, projectors)
        norm = weighted_difference_norm(solution.Y - Y, solution.Z - Z, k, grid)
        trace.append(norm)
        Y, Z = solution.Y, solution.Z
        if norm <= tol:
            break
    return solution, trace


@pytest.mark.parametrize("with_x", [False, True])
def test_picard_matches_scenario_major_reference(with_x):
    grid = TimeGrid(0.0, 1.0, 30)
    bundle = sample_paths(grid, d=2, seed=53, count=500)
    coeffs = _zeros_coeffs(
        d=2, alpha=0.3,
        f=lambda t, x, y, z: -0.5 * y + 0.2 * z[..., 0] + (0.0 if x is None else np.sin(x)),
        g=lambda t, x, y, z: 0.3 * z + (0.0 if x is None else 0.1 * x[..., None]),
        h=lambda t, x, y: 0.2 * y + 0.1)
    k_path = 0.4 * grid.points
    x_path = bundle.W[:, :, :1] if with_x else None
    xi = np.cos(bundle.W[:, -1, 0])
    sol = picard_solve(coeffs, xi, k_path, bundle, BASIS, tol=1e-12, max_iter=4,
                       x_path=x_path)
    ref, trace = _reference_picard(coeffs, xi, k_path, bundle, BASIS, 1e-12, 4, x_path)
    assert np.array_equal(sol.Y, ref.Y) and np.array_equal(sol.Z, ref.Z)
    assert sol.picard_trace == trace and len(trace) == 4
    assert sol.diagnostics == ref.diagnostics
    assert np.array_equal(sol.pathwise_totals, ref.pathwise_totals)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_solvers_raise_on_non_finite_solution():
    from dataclasses import replace

    grid = TimeGrid(0.0, 1.0, 10)
    bundle = sample_paths(grid, d=1, seed=54, count=200, shared_b=True)
    dom = interval_domain(0.0, 1.0)
    coeffs = replace(_transform_instance(), f=lambda t, x, y, z: y * np.nan)
    with pytest.raises(FloatingPointError, match="solve_bdsde_markov"):
        solve_bdsde_markov(coeffs, dom, 0.0, np.array([0.5]), bundle, BASIS)
    with pytest.raises(FloatingPointError, match="difference norm"):
        picard_solve(_zeros_coeffs(f=lambda t, x, y, z: y * np.nan), np.ones(200), None,
                     bundle, BASIS, max_iter=3)
    refl = simulate_reflected(coeffs, dom, 0.0, np.array([0.5]), bundle)
    flow0 = BrownianFlow(lambda t, x, y: np.zeros(np.shape(y) + (1,)), bundle.B[0], grid)
    table = FlowTable(flow0, np.linspace(0, 1, 11), np.linspace(-4, 4, 41))
    with pytest.raises(FloatingPointError, match="solve_transformed_gbsde"):
        solve_transformed_gbsde(coeffs, dom, table, refl, bundle, BASIS)


def _reference_transformed(coeffs, domain, flow_like, reflected, bundle, basis,
                           inner_sweeps=2):
    """The induction with a separate derivative lookup for the boundary term."""
    from gbdsde.flows import transformed_boundary, transformed_generator
    from gbdsde.regression import DesignProjector

    grid = bundle.grid
    X, k = reflected.X, reflected.k
    S, n_pts, d = bundle.scenario_count, len(grid), bundle.d
    dt = grid.dt
    dk = np.diff(k, axis=1)
    dW = bundle.dW
    times = grid.points
    U = np.empty((S, n_pts, 1))
    V = np.zeros((S, n_pts, 1, d))
    U[:, -1, 0] = coeffs.l(X[:, -1, :])
    increments = np.zeros(S)
    for i in range(grid.step_count - 1, -1, -1):
        proj = DesignProjector(X[:, i, :], basis)
        base = U[:, i + 1, :]
        u_guess = proj.fit(base)
        z_target = (base - u_guess)[:, :, None] * dW[:, i, None, :] / dt
        V[:, i, :, :] = proj.fit(z_target.reshape(S, -1)).reshape(S, 1, d)
        h_vals = np.zeros(S)
        on_boundary = dk[:, i] > 0
        for _ in range(max(1, inner_sweeps)):
            f_i = transformed_generator(
                coeffs, flow_like, i, times[i], X[:, i, :], u_guess[:, 0], V[:, i, 0, :])
            if np.any(on_boundary):
                h_vals = np.zeros(S)
                h_vals[on_boundary] = transformed_boundary(
                    coeffs, domain, flow_like, i, times[i],
                    X[:, i, :][on_boundary], u_guess[on_boundary, 0],
                    check_boundary=False)
            target = base + f_i[:, None] * dt + (h_vals * dk[:, i])[:, None]
            u_guess = proj.fit(target)
        U[:, i, :] = u_guess
        increments += f_i * dt + h_vals * dk[:, i]
    return U, V, coeffs.l(X[:, -1, :]) + increments


@pytest.mark.parametrize("flow_kind", ["table", "direct"])
def test_transformed_solver_shared_derivs_match_recompute(flow_kind):
    coeffs = _transform_instance()
    dom = interval_domain(0.0, 1.0)
    steps, count = (40, 600) if flow_kind == "table" else (8, 120)
    grid = TimeGrid(0.0, 1.0, steps)
    bundle = sample_paths(grid, d=1, seed=55, count=count, shared_b=True)
    refl = simulate_reflected(coeffs, dom, 0.0, np.array([0.5]), bundle)
    assert np.any(np.diff(refl.k, axis=1) > 0)  # the boundary term is exercised
    noise = SinNoise(amp=0.3, x_mod=0.25, freq_x=math.pi)
    flow = BrownianFlow(noise, bundle.B[0], grid, lipschitz_hint=noise.lipschitz)
    flow_like = (FlowTable(flow, np.linspace(0, 1, 41), np.linspace(-2, 4, 96))
                 if flow_kind == "table" else flow)
    sol = solve_transformed_gbsde(coeffs, dom, flow_like, refl, bundle, BASIS)
    U, V, totals = _reference_transformed(coeffs, dom, flow_like, refl, bundle, BASIS)
    assert np.array_equal(sol.Y, U)
    assert np.array_equal(sol.Z, V)
    assert np.array_equal(sol.pathwise_totals[:, 0], totals)


def test_residuals_share_the_solver_k_helper():
    from gbdsde import residuals, solver

    assert residuals._as_k is solver._as_k
    # a (1, T+1) path broadcasts over the scenarios like a 1-D one
    bundle = sample_paths(TimeGrid(0.0, 1.0, 30), d=1, seed=56, count=8)
    k = np.linspace(0.0, 1.0, 31) ** 2
    theta = np.ones((8, 31, 1))
    reps = [residuals.ito_formula_residual(np.full(1, 0.3), None, theta, None, None, kp,
                                           bundle)
            for kp in (k, k[None, :], np.broadcast_to(k, (8, 31)))]
    assert np.array_equal(reps[0].residuals, reps[1].residuals)
    assert np.array_equal(reps[0].residuals, reps[2].residuals)


def _reference_solution_norms(Y, Z, k, grid):
    """The norms summing over every trailing axis, kept as the reference."""
    dt = grid.dt
    dk = np.diff(k, axis=1)
    sup_sq = np.max(np.sum(Y**2, axis=-1), axis=1)
    m2 = np.sum(np.sum(Z[:, :-1] ** 2, axis=(-2, -1)) * dt, axis=1)
    k2 = np.sum(np.sum(Y[:, :-1] ** 2, axis=-1) * dk, axis=1)
    return {"s2_norm": float(np.mean(sup_sq)), "m2_norm": float(np.mean(m2)),
            "k2_norm": float(np.mean(k2))}


@pytest.mark.parametrize("n, d", [(1, 1), (2, 1), (1, 2), (2, 3)])
def test_solution_norms_match_summed_reference(n, d):
    from gbdsde.solver import solution_norms

    grid = TimeGrid(0.0, 1.0, 50)
    rng = np.random.default_rng(57)
    Y = rng.normal(size=(300, 51, n))
    Z = rng.normal(size=(300, 51, n, d))
    Z[:, -1] = 0.0
    k = np.cumsum(np.abs(rng.normal(size=(300, 51))), axis=1)
    got = solution_norms(Y, Z, k, grid)
    assert got == _reference_solution_norms(Y, Z, k, grid)
    assert all(v > 0 for v in got.values())


@pytest.mark.parametrize("t0", [0.0, 0.25])
def test_markov_simulated_path_matches_simulate_reflected(t0):
    coeffs, dom, _, x0, bundle, basis, g0 = _markov_case("backward_tail")
    sol, refl = solve_bdsde_markov(coeffs, dom, t0, x0, bundle, basis, g_is_zero=g0)
    ref = simulate_reflected(coeffs, dom, t0, x0, bundle)
    for name in ("X", "k", "boundary_flags", "excluded"):
        a, b = getattr(refl, name), getattr(ref, name)
        assert a.flags.c_contiguous and np.array_equal(a, b), name
    given, _ = solve_bdsde_markov(coeffs, dom, t0, x0, bundle, basis, reflected=ref,
                                  g_is_zero=g0)
    assert np.array_equal(sol.Y, given.Y) and np.array_equal(sol.Z, given.Z)
    assert np.array_equal(sol.pathwise_totals, given.pathwise_totals)
    assert sol.diagnostics == given.diagnostics


def test_picard_matches_reference_with_every_step_stacked(monkeypatch):
    # the default design budget stacks one step at a time at this size (35
    # functions of four coordinates); a larger one stacks whole runs of steps
    from gbdsde import regression

    monkeypatch.setattr(regression, "BLOCK_BYTES", 1 << 24)
    test_picard_matches_scenario_major_reference(with_x=True)


def _reference_simple(xi, f_path, g_path, h_path, k_path, bundle, basis):
    """The scenario-major loop of `solve_simple`, kept as the bit-for-bit reference."""
    from gbdsde.regression import DesignProjector
    from gbdsde.solver import _as_k, solution_norms

    grid = bundle.grid
    S, n_pts, d = bundle.scenario_count, len(grid), bundle.d
    n = xi.shape[1]
    dt = grid.dt
    k = _as_k(k_path, S, n_pts)
    dk = np.diff(k, axis=1)
    dB, dW = bundle.dB, bundle.dW

    f_steps = np.zeros((S, grid.step_count, n))
    if f_path is not None:
        f_steps = f_path[:, :-1, :] * dt
    h_steps = np.zeros((S, grid.step_count, n))
    if h_path is not None:
        h_steps = h_path[:, :-1, :] * dk[:, :, None]
    g_steps = np.zeros((S, grid.step_count, n))
    if g_path is not None:
        g_steps = np.einsum("stnd,std->stn", g_path[:, 1:, :, :], dB)
    increments = f_steps + h_steps + g_steps
    future = np.concatenate(
        [np.cumsum(increments[:, ::-1, :], axis=1)[:, ::-1, :], np.zeros((S, 1, n))], axis=1
    )
    targets = xi[:, None, :] + future

    Y = np.empty((S, n_pts, n))
    Z = np.zeros((S, n_pts, n, d))
    Y[:, -1, :] = xi
    with_tail = not bundle.shared_b and g_path is not None
    for i in range(grid.step_count - 1, -1, -1):
        points = bundle.W[:, i, :]
        if with_tail:
            points = np.concatenate([points, bundle.B[:, -1, :] - bundle.B[:, i, :]], axis=1)
        proj = DesignProjector(points, basis)
        one_step = Y[:, i + 1, :] + f_steps[:, i, :] + h_steps[:, i, :] + g_steps[:, i, :]
        z_target = one_step[:, :, None] * dW[:, i, None, :] / dt
        stacked = proj.fit(
            np.concatenate([targets[:, i, :], z_target.reshape(S, -1)], axis=1))
        Y[:, i, :] = stacked[:, :n]
        Z[:, i, :, :] = stacked[:, n:].reshape(S, n, d)
    return Y, Z, targets[:, 0, :], solution_norms(Y, Z, k, grid)


@pytest.mark.parametrize("n, d, shared_b, paths", [(2, 2, False, "fgh"), (3, 2, True, "fgh"),
                                                   (2, 3, False, "gh"), (1, 1, False, "f")])
def test_simple_solver_matches_scenario_major_reference(n, d, shared_b, paths):
    grid = TimeGrid(0.0, 1.0, 24)
    bundle = sample_paths(grid, d=d, seed=58, count=500, shared_b=shared_b)
    rng = np.random.default_rng(59)
    S, n_pts = bundle.scenario_count, len(grid)
    xi = np.cos(bundle.W[:, -1, :1]) + rng.normal(size=(S, n))
    f_path = rng.normal(size=(S, n_pts, n)) if "f" in paths else None
    g_path = 0.3 * rng.normal(size=(S, n_pts, n, d)) if "g" in paths else None
    h_path = rng.normal(size=(S, n_pts, n)) if "h" in paths else None
    k_path = np.cumsum(np.abs(rng.normal(size=(S, n_pts))), axis=1) * 0.01
    basis = PolynomialBasis(2)
    sol = solve_simple(xi, f_path, g_path, h_path, k_path, bundle, basis)
    Y, Z, totals, norms = _reference_simple(xi, f_path, g_path, h_path, k_path, bundle, basis)
    assert sol.Y.flags.c_contiguous and sol.Z.flags.c_contiguous
    assert np.array_equal(sol.Y, Y) and np.array_equal(sol.Z, Z)
    assert np.array_equal(sol.pathwise_totals, totals)
    assert sol.diagnostics == norms
    assert np.any(Z != 0.0)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_simple_solver_raises_on_non_finite_solution():
    grid = TimeGrid(0.0, 1.0, 10)
    bundle = sample_paths(grid, d=1, seed=60, count=200)
    f_path = np.zeros((200, 11, 1))
    f_path[7, 4, 0] = np.inf
    with pytest.raises(FloatingPointError, match="solve_simple produced non-finite"):
        solve_simple(np.ones(200), f_path, None, None, None, bundle, BASIS)
