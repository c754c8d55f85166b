"""Field evaluators and the deterministic oracle for the reduction case."""

import math

import numpy as np
import pytest

from gbdsde import (
    CoefficientSet,
    PolynomialBasis,
    TimeGrid,
    evaluate_u,
    interval_domain,
    pde_oracle_g0,
    sample_paths,
    solve_bdsde_markov,
)
from gbdsde.acceptance import HEAT_AMPLITUDE, _bm_coeffs, _heat_coeffs

BASIS = PolynomialBasis(3)


def _coeffs_with(l, f=None, h=None):
    base = _bm_coeffs()
    return CoefficientSet(
        n=1, d=1,
        f=f or base.f, g=base.g, h=h or base.h,
        K=2.0, c=1.0, alpha=0.5, beta1=1.0,
        b=base.b, sigma=base.sigma, x_dim=1, l=l,
    )


def test_oracle_constant_terminal(monkeypatch):
    from gbdsde import fields

    monkeypatch.setattr(fields, "ORACLE_POINTS", 40)
    coeffs = _coeffs_with(lambda x: np.full(x.shape[:-1], 2.0))
    oracle = pde_oracle_g0(coeffs, interval_domain(0.0, 1.0))
    assert np.max(np.abs(oracle.u - 2.0)) <= 1e-12


def test_oracle_heat_benchmark_closed_form():
    # cos(pi x) is a zero-flux mode of the half-Laplacian on (0, 1):
    # u(0, x) = exp(-pi^2/2) cos(pi x) at unit horizon
    oracle = pde_oracle_g0(_heat_coeffs(), interval_domain(0.0, 1.0))
    xs = np.linspace(0, 1, 21)
    closed = HEAT_AMPLITUDE * np.cos(math.pi * xs)
    got = np.array([oracle.interpolate(0.0, x) for x in xs])
    assert np.max(np.abs(got - closed)) <= 2e-3
    assert oracle.refinement_gap < 1e-4


def boundary_residual(coeffs, oracle) -> float:
    """Max |normal derivative + h| of an oracle solution over all times.

    Uses one-sided second-order differences for the normal derivative.
    """
    xs, u = oracle.x_nodes, oracle.u
    dx = xs[1] - xs[0]
    worst = 0.0
    for m, t in enumerate(oracle.t_nodes):
        ux_a = (-3.0 * u[m, 0] + 4.0 * u[m, 1] - u[m, 2]) / (2.0 * dx)
        ux_b = (3.0 * u[m, -1] - 4.0 * u[m, -2] + u[m, -3]) / (2.0 * dx)
        h_vals = coeffs.h(t, np.array([[xs[0]], [xs[-1]]]),
                          np.array([[u[m, 0]], [u[m, -1]]]))[:, 0]
        # inward normal is +1 at the left endpoint, -1 at the right
        worst = max(worst, abs(ux_a + h_vals[0]), abs(-ux_b + h_vals[1]))
    return worst


def test_oracle_robin_self_consistency():
    # compatible terminal data: l = x^2 - x + 1 satisfies the Robin relation
    coeffs = _coeffs_with(
        l=lambda x: x[..., 0] ** 2 - x[..., 0] + 1.0,
        h=lambda t, x, y: y,
    )
    oracle = pde_oracle_g0(coeffs, interval_domain(0.0, 1.0))
    assert boundary_residual(coeffs, oracle) <= 1e-4


def test_oracle_requires_interval():
    from gbdsde import ball_domain

    with pytest.raises(ValueError):
        pde_oracle_g0(_heat_coeffs(), ball_domain([0.0, 0.0], 1.0))


def test_oracle_rejects_a_problem_with_backward_noise():
    # the oracle never reads g: a problem with one must not get the g = 0 answer
    from gbdsde.acceptance import _transform_instance

    with pytest.raises(ValueError, match="without backward noise"):
        pde_oracle_g0(_transform_instance(), interval_domain(0.0, 1.0))


def test_field_constant_everywhere():
    coeffs = _coeffs_with(lambda x: np.full(x.shape[:-1], 1.5))
    grid = TimeGrid(0.0, 1.0, 50)
    bundle = sample_paths(grid, d=1, seed=30, count=500, shared_b=True)
    nodes = [(0.0, np.array([0.2])), (0.5, np.array([0.8])), (1.0, np.array([0.5]))]
    est = evaluate_u(coeffs, interval_domain(0.0, 1.0), nodes, bundle, BASIS)
    for node in est:
        assert node.u == pytest.approx(1.5, abs=1e-10)


def test_field_terminal_slice_is_terminal_map():
    coeffs = _heat_coeffs()
    grid = TimeGrid(0.0, 1.0, 20)
    bundle = sample_paths(grid, d=1, seed=31, count=300, shared_b=True)
    nodes = [(1.0, np.array([x])) for x in (0.1, 0.5, 0.9)]
    est = evaluate_u(coeffs, interval_domain(0.0, 1.0), nodes, bundle, BASIS)
    for node, (_, x) in zip(est, nodes):
        assert node.u == pytest.approx(math.cos(math.pi * x[0]), abs=1e-12)


def test_field_matches_oracle_small_scale():
    coeffs = _heat_coeffs()
    dom = interval_domain(0.0, 1.0)
    grid = TimeGrid(0.0, 1.0, 200)
    bundle = sample_paths(grid, d=1, seed=32, count=4000, shared_b=True)
    nodes = [(0.0, np.array([x])) for x in (0.0, 0.3, 0.7, 1.0)]
    est = evaluate_u(coeffs, dom, nodes, bundle, BASIS)
    for node, (_, x) in zip(est, nodes):
        truth = HEAT_AMPLITUDE * math.cos(math.pi * x[0])
        assert abs(node.u - truth) <= 3 * (node.se_u + 2e-3)


def test_field_basis_degree_invariance():
    coeffs = _heat_coeffs()
    dom = interval_domain(0.0, 1.0)
    grid = TimeGrid(0.0, 1.0, 100)
    bundle = sample_paths(grid, d=1, seed=35, count=4000, shared_b=True)
    node = [(0.0, np.array([0.4]))]
    values, ses = [], []
    for degree in (2, 3, 4):
        est = evaluate_u(coeffs, dom, node, bundle, PolynomialBasis(degree))
        values.append(est[0].u)
        ses.append(est[0].se_u)
    spread = max(values) - min(values)
    assert spread <= 3 * max(ses)


def _mean_sq_gap(coeffs, bundle, x1: float, x2: float) -> float:
    """E|Y_s - Y'_s|^2 over the grid between the solutions started at (0, x1)
    and (0, x2) on one bundle (common random numbers)."""
    dom = interval_domain(0.0, 1.0)
    y1, y2 = (solve_bdsde_markov(coeffs, dom, 0.0, np.array([x]), bundle, BASIS)[0].Y[:, :, 0]
              for x in (x1, x2))
    return float(np.mean((y1 - y2) ** 2))


def test_continuity_diagnostic_trivials():
    coeffs = _coeffs_with(lambda x: np.full(x.shape[:-1], 2.0))
    grid = TimeGrid(0.0, 1.0, 50)
    bundle = sample_paths(grid, d=1, seed=36, count=500, shared_b=True)
    assert _mean_sq_gap(coeffs, bundle, 0.5, 0.5) == pytest.approx(0.0, abs=1e-20)
    # constant terminal map: the field is constant, gaps vanish at any separation
    assert _mean_sq_gap(coeffs, bundle, 0.3, 0.6) <= 1e-20


def test_continuity_diagnostic_gap_scales_with_separation():
    coeffs = _heat_coeffs()
    grid = TimeGrid(0.0, 1.0, 100)
    bundle = sample_paths(grid, d=1, seed=37, count=2000, shared_b=True)
    seps = (0.2, 0.1, 0.05)
    gaps = [_mean_sq_gap(coeffs, bundle, 0.4, 0.4 + s) for s in seps]
    assert gaps[0] > gaps[1] > gaps[2]
    ratios = [gap / s**2 for gap, s in zip(gaps, seps)]
    assert max(ratios) <= 10 * min(r for r in ratios if r > 0)


def _reference_band_fill(jac, sel, dcol):
    """The per-node band scatter of the oracle's Newton Jacobian."""
    j_max = jac.shape[1] - 1
    for j in sel:
        jac[1, j] = dcol[j]
        if j > 0:
            jac[0, j] = dcol[j - 1]
        if j < j_max:
            jac[2, j] = dcol[j + 1]


@pytest.mark.parametrize("nodes", [2, 3, 4, 10, 11, 12])
def test_oracle_band_fill_matches_per_node_loop(nodes):
    from gbdsde.fields import _fill_bands

    rng = np.random.default_rng(nodes)
    got = np.zeros((3, nodes))
    ref = np.zeros((3, nodes))
    for group in range(3):
        sel = np.arange(group, nodes, 3)
        dcol = rng.normal(size=nodes)
        _fill_bands(got, sel, dcol)
        _reference_band_fill(ref, sel, dcol)
    assert np.array_equal(got, ref)
    assert ref[0, 0] == 0.0 and ref[2, -1] == 0.0


def _tridiagonal_system(rng, n, pivoting):
    """Random bands in `_fill_bands` layout and a right-hand side; with
    ``pivoting`` the lower band outweighs the diagonal, so rows interchange."""
    bands = rng.normal(size=(3, n))
    if pivoting:
        bands[2] *= 4.0
    else:
        bands[1] += 4.0 * np.sign(bands[1])
    return bands, rng.normal(size=n)


@pytest.mark.parametrize("pivoting", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 101, 201])
def test_solve_tridiagonal_matches_scipy_solve_banded(n, pivoting):
    # dgtsv's operations in dgtsv's order give the bits of scipy's (1, 1)
    # solve_banded, which the tests alone import as the reference
    from scipy.linalg import solve_banded

    from gbdsde.fields import _solve_tridiagonal

    rng = np.random.default_rng(100 * n + pivoting)
    swaps = 0
    for _ in range(40):
        bands, rhs = _tridiagonal_system(rng, n, pivoting)
        swaps += n > 1 and abs(bands[1, 0]) < abs(bands[2, 0])
        ref = solve_banded((1, 1), bands, rhs)
        assert np.array_equal(_solve_tridiagonal(bands, rhs), ref)
    assert (swaps > 0) == (pivoting and n > 1)


def test_solve_tridiagonal_matches_scipy_on_the_oracle_newton_systems(tmp_path, monkeypatch):
    # every Newton system the field suite's oracle solves on the shipped heat
    # config, the benchmark's heat_field problem; field.csv prints the oracle
    # at %.12g, rounding noise at x = 0.5 included, so its bits are pinned
    from pathlib import Path

    from scipy.linalg import solve_banded

    from gbdsde import fields
    from gbdsde.cli import main

    real = fields._solve_tridiagonal
    systems = []

    def recording(bands, rhs):
        systems.append((bands.copy(), rhs.copy()))
        return real(bands, rhs)

    monkeypatch.setattr(fields, "_solve_tridiagonal", recording)
    config = Path(__file__).resolve().parents[1] / "configs" / "neumann-heat.yaml"
    assert main(["field", "--config", str(config), "--scenarios", "200", "--dt", "0.02",
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert len(systems) == 379  # two passes, 100 and 200 steps
    for bands, rhs in systems:
        assert np.array_equal(real(bands, rhs), solve_banded((1, 1), bands, rhs))


def test_solve_tridiagonal_raises_at_an_exact_zero_pivot():
    from scipy.linalg import solve_banded

    from gbdsde.fields import _solve_tridiagonal

    # rows (1 1 0), (1 1 0), (0 0 1): eliminating row 1 leaves a zero pivot
    bands = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
    for solve in (_solve_tridiagonal, lambda ab, b: solve_banded((1, 1), ab, b)):
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
            solve(bands, np.ones(3))


def test_oracle_non_finite_newton_system_is_newton_failure(monkeypatch):
    # a NaN in the Newton system is a NewtonFailure naming t, not a bare
    # ValueError that the CLI would report as a config error
    from dataclasses import replace

    from gbdsde import fields

    monkeypatch.setattr(fields, "ORACLE_POINTS", 20)
    base = _heat_coeffs()

    def nan_before_half(t, x, y, z):
        return base.f(t, x, y, z) + (np.nan if t < 0.5 else 0.0)

    with pytest.raises(fields.NewtonFailure, match=r"non-finite Newton system at t = 0\.45"):
        pde_oracle_g0(replace(base, f=nan_before_half), interval_domain(0.0, 1.0))


def test_oracle_zero_pivot_is_newton_failure(monkeypatch):
    from gbdsde import fields

    # an all-zero Jacobian: the first pivot is an exact zero
    monkeypatch.setattr(fields, "_fill_bands", lambda jac, sel, dcol: None)
    monkeypatch.setattr(fields, "ORACLE_POINTS", 20)
    with pytest.raises(fields.NewtonFailure, match=r"banded solve failed at t = 0\.95"):
        pde_oracle_g0(_heat_coeffs(), interval_domain(0.0, 1.0))


def _block_problem(case):
    """(coeffs, domain, nodes, bundle, basis) of one node-block case."""
    from dataclasses import replace

    from gbdsde import ball_domain
    from gbdsde.acceptance import _bm_coeffs, _transform_instance

    grid = TimeGrid(0.0, 1.0, 30)
    if case == "ball_2d":
        coeffs = replace(
            _bm_coeffs(x_dim=2, d=2), f=lambda t, x, y, z: -0.5 * y + 0.1 * z[..., 1],
            g=lambda t, x, y, z: np.stack([0.2 * y, 0.1 * np.cos(y)], axis=-1),
            h=lambda t, x, y: 0.3 - 0.2 * y,
            l=lambda x: np.cos(2.0 * x[..., 0]) + x[..., 1])
        nodes = [(0.0, np.array([0.1, 0.2])), (0.0, np.array([0.6, 0.0])),
                 (0.5, np.array([-0.3, 0.1])), (0.0, np.array([0.0, -0.4]))]
        bundle = sample_paths(grid, d=2, seed=38, count=400)
        return coeffs, ball_domain([0.0, 0.0], 0.6), nodes, bundle, PolynomialBasis(2)
    coeffs = replace(_transform_instance(), g=lambda t, x, y, z: 0.3 * np.sin(y)[..., None])
    # t = 0 holds five nodes, two of them on the boundary; t = 1 is the terminal time
    nodes = [(0.0, np.array([0.0])), (0.0, np.array([0.3])), (0.5, np.array([0.2])),
             (0.0, np.array([0.55])), (0.0, np.array([1.0])), (0.5, np.array([0.9])),
             (0.0, np.array([0.8])), (1.0, np.array([0.4]))]
    bundle = sample_paths(grid, d=1, seed=39, count=300, shared_b=case.startswith("shared"))
    return coeffs, interval_domain(0.0, 1.0), nodes, bundle, BASIS


@pytest.mark.parametrize("g_none", [True, False])
@pytest.mark.parametrize("case", ["shared_b", "own_b", "ball_2d"])
def test_field_blocks_match_per_node_solves(case, g_none, monkeypatch):
    # each node of a block is bit-identical to its own solve_bdsde_markov;
    # own_b with a g regresses on the backward tail B_T - B_t as well
    from dataclasses import replace

    from gbdsde import fields, solve_bdsde_markov

    coeffs, dom, nodes, bundle, basis = _block_problem(case)
    if g_none:
        coeffs = replace(coeffs, g=None)
    grid = bundle.grid
    # blocks of three nodes, which do not divide the five t = 0 nodes
    monkeypatch.setattr(fields, "FIELD_BLOCK_BYTES",
                        3 * 8 * len(grid) * bundle.scenario_count * (dom.dim + 1))
    blocks = fields.field_blocks([t for t, _ in nodes], grid, bundle.scenario_count,
                                 dom.dim)
    if case != "ball_2d":
        assert blocks == [[0, 1, 3], [4, 6], [2, 5], [7]]
    assert max(len(b) for b in blocks) == 3
    est = evaluate_u(coeffs, dom, nodes, bundle, basis)
    for node, (t, x) in zip(est, nodes):
        sol, _ = solve_bdsde_markov(coeffs, dom, t, x, bundle, basis)
        assert node.t == t and np.array_equal(node.x, x)
        assert node.u == float(sol.Y[:, grid.index_of(t), 0].mean())
        assert node.se_u == float(sol.initial_se()[0])
    assert len({node.u for node in est}) == len(nodes)


def test_field_block_judges_lost_scenarios_per_node(monkeypatch):
    # every scenario started at 0.75 blows up and none started at 0.25 does:
    # half of the block is lost, under a 0.6 bound, but the bad node alone
    # is over it, so the block must raise
    from dataclasses import replace

    from gbdsde import reflection
    from gbdsde.acceptance import _bm_coeffs
    from gbdsde.reflection import SimulationBlowup, _euler_projection

    coeffs = replace(_bm_coeffs(), b=lambda x: np.where(x == 0.75, np.nan, 0.0))
    dom = interval_domain(0.0, 1.0)
    bundle = sample_paths(TimeGrid(0.0, 1.0, 10), d=1, seed=40, count=200, shared_b=True)
    good, bad = np.array([[0.25]]), np.array([[0.75]])
    monkeypatch.setattr(reflection, "MAX_EXCLUDED_FRACTION", 0.6)
    excluded = _euler_projection(coeffs, dom, 0.0, good, bundle)[3]
    assert not excluded.any()
    for starts in (bad, np.concatenate([good, bad]), np.concatenate([bad, good, good])):
        with pytest.raises(SimulationBlowup, match="200 of 200 scenarios"):
            _euler_projection(coeffs, dom, 0.0, starts, bundle)
    with pytest.raises(SimulationBlowup):
        evaluate_u(coeffs, dom, [(0.0, np.array([0.25])), (0.0, np.array([0.75]))],
                   bundle, BASIS)


def test_oracle_raises_on_non_finite_values(monkeypatch):
    from gbdsde import fields

    real_pass = fields._oracle_pass

    def nan_pass(*args, **kwargs):
        xs, ts, u = real_pass(*args, **kwargs)
        u[0, 3] = np.nan
        return xs, ts, u

    monkeypatch.setattr(fields, "_oracle_pass", nan_pass)
    monkeypatch.setattr(fields, "ORACLE_POINTS", 20)
    with pytest.raises(FloatingPointError, match="pde_oracle_g0 produced non-finite"):
        pde_oracle_g0(_heat_coeffs(), interval_domain(0.0, 1.0))
