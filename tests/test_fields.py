"""Field evaluators and the deterministic oracle for the reduction case."""

import math

import numpy as np
import pytest

from gbdsde import (
    BrownianFlow,
    CoefficientSet,
    PolynomialBasis,
    TimeGrid,
    continuity_diagnostic,
    evaluate_u,
    interval_domain,
    pde_oracle_g0,
    sample_paths,
)
from gbdsde.acceptance import HEAT_AMPLITUDE, _bm_coeffs, _heat_coeffs
from gbdsde.fields import boundary_residual

BASIS = PolynomialBasis(3)


def _coeffs_with(l, f=None, h=None):
    base = _bm_coeffs()
    return CoefficientSet(
        n=1, d=1,
        f=f or base.f, g=base.g, h=h or base.h,
        K=2.0, c=1.0, alpha=0.5, beta1=1.0,
        b=base.b, sigma=base.sigma, x_dim=1, l=l,
    )


def test_oracle_constant_terminal():
    coeffs = _coeffs_with(lambda x: np.full(x.shape[:-1], 2.0))
    oracle = pde_oracle_g0(coeffs, interval_domain(0.0, 1.0), 40, 40)
    assert np.max(np.abs(oracle.u - 2.0)) <= 1e-12


def test_oracle_heat_benchmark_closed_form():
    # cos(pi x) is a zero-flux mode of the half-Laplacian on (0, 1):
    # u(0, x) = exp(-pi^2/2) cos(pi x) at unit horizon
    oracle = pde_oracle_g0(_heat_coeffs(), interval_domain(0.0, 1.0), 100, 100)
    xs = np.linspace(0, 1, 21)
    closed = HEAT_AMPLITUDE * np.cos(math.pi * xs)
    got = np.array([oracle.interpolate(0.0, x) for x in xs])
    assert np.max(np.abs(got - closed)) <= 2e-3
    assert oracle.refinement_gap < 1e-4


def test_oracle_robin_self_consistency():
    # compatible terminal data: l = x^2 - x + 1 satisfies the Robin relation
    coeffs = _coeffs_with(
        l=lambda x: x[..., 0] ** 2 - x[..., 0] + 1.0,
        h=lambda t, x, y: y,
    )
    oracle = pde_oracle_g0(coeffs, interval_domain(0.0, 1.0), 100, 100)
    assert boundary_residual(coeffs, oracle) <= 1e-4


def test_oracle_requires_interval():
    from gbdsde import ball_domain

    with pytest.raises(ValueError):
        pde_oracle_g0(_heat_coeffs(), ball_domain([0.0, 0.0], 1.0))


def test_field_constant_everywhere():
    coeffs = _coeffs_with(lambda x: np.full(x.shape[:-1], 1.5))
    grid = TimeGrid(0.0, 1.0, 50)
    bundle = sample_paths(grid, d=1, seed=30, count=500, shared_b=True)
    nodes = [(0.0, np.array([0.2])), (0.5, np.array([0.8])), (1.0, np.array([0.5]))]
    est = evaluate_u(coeffs, interval_domain(0.0, 1.0), nodes, bundle, BASIS,
                     g_is_zero=True)
    for node in est.nodes:
        assert node.u == pytest.approx(1.5, abs=1e-10)
        assert node.v == pytest.approx(1.5, abs=1e-10)


def test_field_terminal_slice_is_terminal_map():
    coeffs = _heat_coeffs()
    grid = TimeGrid(0.0, 1.0, 20)
    bundle = sample_paths(grid, d=1, seed=31, count=300, shared_b=True)
    nodes = [(1.0, np.array([x])) for x in (0.1, 0.5, 0.9)]
    est = evaluate_u(coeffs, interval_domain(0.0, 1.0), nodes, bundle, BASIS,
                     g_is_zero=True)
    for node, (_, x) in zip(est.nodes, nodes):
        assert node.u == pytest.approx(math.cos(math.pi * x[0]), abs=1e-12)


def test_field_matches_oracle_small_scale():
    coeffs = _heat_coeffs()
    dom = interval_domain(0.0, 1.0)
    grid = TimeGrid(0.0, 1.0, 200)
    bundle = sample_paths(grid, d=1, seed=32, count=4000, shared_b=True)
    nodes = [(0.0, np.array([x])) for x in (0.0, 0.3, 0.7, 1.0)]
    est = evaluate_u(coeffs, dom, nodes, bundle, BASIS, g_is_zero=True)
    for node, (_, x) in zip(est.nodes, nodes):
        truth = HEAT_AMPLITUDE * math.cos(math.pi * x[0])
        assert abs(node.u - truth) <= 3 * (node.se_u + 2e-3)


def test_field_global_mode_agrees_with_pointwise():
    coeffs = _heat_coeffs()
    dom = interval_domain(0.0, 1.0)
    grid = TimeGrid(0.0, 1.0, 100)
    bundle = sample_paths(grid, d=1, seed=33, count=4000, shared_b=True)
    nodes = [(0.0, np.array([0.5])), (0.5, np.array([0.5]))]
    point = evaluate_u(coeffs, dom, nodes, bundle, BASIS, mode="pointwise",
                       g_is_zero=True)
    glob = evaluate_u(coeffs, dom, nodes, bundle, BASIS, mode="global",
                      g_is_zero=True)
    for p, g in zip(point.nodes, glob.nodes):
        assert abs(p.u - g.u) <= 0.05


def test_field_global_mode_runs_with_a_bin_basis():
    from gbdsde import PiecewiseBinBasis

    coeffs = _heat_coeffs()
    dom = interval_domain(0.0, 1.0)
    grid = TimeGrid(0.0, 1.0, 100)
    bundle = sample_paths(grid, d=1, seed=33, count=4000, shared_b=True)
    nodes = [(0.0, np.array([0.5])), (0.5, np.array([0.3])), (0.5, np.array([0.7]))]
    glob = evaluate_u(coeffs, dom, nodes, bundle, PiecewiseBinBasis(8), mode="global",
                      g_is_zero=True)
    for node, (t, x) in zip(glob.nodes, nodes):
        truth = math.exp(-math.pi**2 * (1.0 - t) / 2.0) * math.cos(math.pi * x[0])
        assert abs(node.u - truth) <= 0.02  # the t = 0.5 amplitude is 0.05


def test_field_roundtrip_through_flow():
    # u = flow(t, x, v) within inversion tolerance when a flow is supplied
    coeffs = _heat_coeffs()
    dom = interval_domain(0.0, 1.0)
    grid = TimeGrid(0.0, 1.0, 100)
    bundle = sample_paths(grid, d=1, seed=34, count=2000, shared_b=True)

    def g_flow(t, x, y):
        return (0.4 * np.sin(np.asarray(y)))[..., None]

    flow = BrownianFlow(g_flow, bundle.B[0], grid, lipschitz_hint=0.4)
    nodes = [(0.0, np.array([0.4])), (0.5, np.array([0.6]))]
    est = evaluate_u(coeffs, dom, nodes, bundle, BASIS, flow=flow, g_is_zero=True)
    for node, (t, x) in zip(est.nodes, nodes):
        ti = grid.index_of(t)
        forward = flow.solve(ti, np.array([x]), np.array([node.v]))[0]
        assert abs(forward - node.u) <= 1e-9 * (1 + abs(node.u))


def test_field_basis_degree_invariance():
    coeffs = _heat_coeffs()
    dom = interval_domain(0.0, 1.0)
    grid = TimeGrid(0.0, 1.0, 100)
    bundle = sample_paths(grid, d=1, seed=35, count=4000, shared_b=True)
    node = [(0.0, np.array([0.4]))]
    values, ses = [], []
    for degree in (2, 3, 4):
        est = evaluate_u(coeffs, dom, node, bundle, PolynomialBasis(degree),
                         g_is_zero=True)
        values.append(est.nodes[0].u)
        ses.append(est.nodes[0].se_u)
    spread = max(values) - min(values)
    assert spread <= 3 * max(ses)


def test_continuity_diagnostic_trivials():
    coeffs = _coeffs_with(lambda x: np.full(x.shape[:-1], 2.0))
    dom = interval_domain(0.0, 1.0)
    grid = TimeGrid(0.0, 1.0, 50)
    bundle = sample_paths(grid, d=1, seed=36, count=500, shared_b=True)
    pairs = [((0.0, np.array([0.5])), (0.0, np.array([0.5]))),
             ((0.0, np.array([0.3])), (0.0, np.array([0.6])))]
    rows = continuity_diagnostic(coeffs, dom, pairs, bundle, BASIS, g_is_zero=True)
    assert rows[0]["mean_sq_gap"] == pytest.approx(0.0, abs=1e-20)
    # constant terminal map: the field is constant, gaps vanish at any separation
    assert rows[1]["mean_sq_gap"] <= 1e-20


def test_continuity_diagnostic_gap_scales_with_separation():
    coeffs = _heat_coeffs()
    dom = interval_domain(0.0, 1.0)
    grid = TimeGrid(0.0, 1.0, 100)
    bundle = sample_paths(grid, d=1, seed=37, count=2000, shared_b=True)
    seps = (0.2, 0.1, 0.05)
    pairs = [((0.0, np.array([0.4])), (0.0, np.array([0.4 + s]))) for s in seps]
    rows = continuity_diagnostic(coeffs, dom, pairs, bundle, BASIS, g_is_zero=True)
    gaps = [r["mean_sq_gap"] for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]
    ratios = [r["ratio"] for r in rows]
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


@pytest.mark.parametrize("g_is_zero", [True, False])
@pytest.mark.parametrize("case", ["shared_b", "own_b", "ball_2d"])
def test_field_blocks_match_per_node_solves(case, g_is_zero, monkeypatch):
    # each node of a block is bit-identical to its own solve_bdsde_markov;
    # own_b with g != 0 regresses on the backward tail B_T - B_t as well
    from gbdsde import fields, solve_bdsde_markov

    coeffs, dom, nodes, bundle, basis = _block_problem(case)
    grid = bundle.grid
    # blocks of three nodes, which do not divide the five t = 0 nodes
    monkeypatch.setattr(fields, "FIELD_BLOCK_BYTES",
                        3 * 8 * len(grid) * bundle.scenario_count * (dom.dim + 1))
    blocks = fields.field_blocks([t for t, _ in nodes], grid, bundle.scenario_count,
                                 dom.dim)
    if case != "ball_2d":
        assert blocks == [[0, 1, 3], [4, 6], [2, 5], [7]]
    assert max(len(b) for b in blocks) == 3
    est = evaluate_u(coeffs, dom, nodes, bundle, basis, g_is_zero=g_is_zero)
    for node, (t, x) in zip(est.nodes, nodes):
        sol, _ = solve_bdsde_markov(coeffs, dom, t, x, bundle, basis, g_is_zero=g_is_zero)
        assert node.t == t and np.array_equal(node.x, x)
        assert node.u == float(sol.Y[:, grid.index_of(t), 0].mean())
        assert node.se_u == float(sol.initial_se()[0])
    assert len({node.u for node in est.nodes}) == len(nodes)


def test_field_block_judges_lost_scenarios_per_node():
    # every scenario started at 0.75 blows up and none started at 0.25 does:
    # half of the block is lost, under a 0.6 bound, but the bad node alone
    # is over it, so the block must raise
    from dataclasses import replace

    from gbdsde.acceptance import _bm_coeffs
    from gbdsde.reflection import SimulationBlowup, _euler_projection

    coeffs = replace(_bm_coeffs(), b=lambda x: np.where(x == 0.75, np.nan, 0.0))
    dom = interval_domain(0.0, 1.0)
    bundle = sample_paths(TimeGrid(0.0, 1.0, 10), d=1, seed=40, count=200, shared_b=True)
    good, bad = np.array([[0.25]]), np.array([[0.75]])
    excluded = _euler_projection(coeffs, dom, 0.0, good, bundle, 0.6)[3]
    assert not excluded.any()
    for starts in (bad, np.concatenate([good, bad]), np.concatenate([bad, good, good])):
        with pytest.raises(SimulationBlowup, match="200 of 200 scenarios"):
            _euler_projection(coeffs, dom, 0.0, starts, bundle, 0.6)
    with pytest.raises(SimulationBlowup):
        evaluate_u(coeffs, dom, [(0.0, np.array([0.25])), (0.0, np.array([0.75]))],
                   bundle, BASIS, g_is_zero=True)


def test_oracle_raises_on_non_finite_values(monkeypatch):
    from gbdsde import fields

    real_pass = fields._oracle_pass

    def nan_pass(*args, **kwargs):
        xs, ts, u = real_pass(*args, **kwargs)
        u[0, 3] = np.nan
        return xs, ts, u

    monkeypatch.setattr(fields, "_oracle_pass", nan_pass)
    with pytest.raises(FloatingPointError, match="pde_oracle_g0 produced non-finite"):
        pde_oracle_g0(_heat_coeffs(), interval_domain(0.0, 1.0), 20, 20)
