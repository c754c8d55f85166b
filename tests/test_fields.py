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
