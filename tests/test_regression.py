"""Least-squares conditional expectation estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbdsde import PiecewiseBinBasis, PolynomialBasis, conditional_expectation
from gbdsde.regression import DesignProjector, RegressionRankError, fit_function


def test_constant_targets_reproduced():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(500, 1))
    fitted = conditional_expectation(np.full(500, 4.2), points, PolynomialBasis(3))
    assert np.allclose(fitted, 4.2)


def test_martingale_projection_recovers_conditional_mean():
    # E[W_T | W_t] = W_t; regression error shrinks with the sample size
    rng = np.random.default_rng(1)
    errors = []
    for count in (500, 8000):
        w_t = rng.normal(0, np.sqrt(0.5), size=count)
        w_T = w_t + rng.normal(0, np.sqrt(0.5), size=count)
        fitted = conditional_expectation(w_T, w_t[:, None], PolynomialBasis(1))
        errors.append(np.sqrt(np.mean((fitted - w_t) ** 2)))
    assert errors[1] < errors[0]
    assert errors[1] < 0.05


def test_fit_against_nested_monte_carlo_oracle():
    # targets cos(W_T) on features W_t; oracle: inner sampling of W_T | W_t
    rng = np.random.default_rng(2)
    count, inner = 4000, 1000
    t, horizon = 0.4, 1.0
    w_t = rng.normal(0, np.sqrt(t), size=count)
    w_T = w_t + rng.normal(0, np.sqrt(horizon - t), size=count)
    fitted = conditional_expectation(np.cos(w_T), w_t[:, None], PolynomialBasis(3))

    probe_idx = rng.choice(count, size=200, replace=False)
    inner_draws = w_t[probe_idx, None] + rng.normal(
        0, np.sqrt(horizon - t), size=(200, inner))
    oracle = np.cos(inner_draws).mean(axis=1)
    oracle_se = np.cos(inner_draws).std(axis=1, ddof=1) / np.sqrt(inner)

    gap = fitted[probe_idx] - oracle
    rms_gap = np.sqrt(np.mean(gap**2))
    fit_se = np.std(np.cos(w_T) - fitted, ddof=1) / np.sqrt(count)
    combined = np.sqrt(np.mean(oracle_se**2) + fit_se**2)
    # basis bias of a cubic fit to a smooth curve stays within a few
    # combined standard errors
    assert rms_gap <= 3 * (combined + 5e-3)


def test_idempotence_of_projection():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(2000, 2))
    targets = np.sin(points[:, 0]) + rng.normal(size=2000)
    once = conditional_expectation(targets, points, PolynomialBasis(3))
    twice = conditional_expectation(once, points, PolynomialBasis(3))
    scale = np.max(np.abs(once)) + 1.0
    assert np.max(np.abs(twice - once)) <= 1e-10 * scale


def test_scenario_ratio_enforced():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="10x"):
        conditional_expectation(np.ones(30), rng.normal(size=(30, 1)),
                                PolynomialBasis(3))


def test_degenerate_features_fall_back_to_mean():
    targets = np.array([1.0, 2.0, 3.0, 4.0] * 25)
    points = np.zeros((100, 1))  # constant features: only the mean survives
    fitted = conditional_expectation(targets, points, PolynomialBasis(3))
    assert np.allclose(fitted, targets.mean())


def test_nonfinite_features_error_names_basis():
    points = np.zeros((100, 1))
    points[3] = np.nan
    with pytest.raises(RegressionRankError, match="polynomial"):
        conditional_expectation(np.ones(100), points, PolynomialBasis(2))


def test_piecewise_bins_fit_step_function():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, size=2000)
    y = np.where(x > 0.5, 2.0, -1.0) + 0.01 * rng.normal(size=2000)
    fitted = conditional_expectation(y, x[:, None], PiecewiseBinBasis(10))
    # the bin containing the jump mixes both levels; elsewhere the fit is tight
    away = (x < 0.38) | (x > 0.62)
    truth = np.where(x > 0.5, 2.0, -1.0)
    assert np.max(np.abs(fitted[away] - truth[away])) < 0.05
    assert np.sqrt(np.mean((fitted - truth) ** 2)) < 0.6


def test_empty_bin_error_names_basis():
    x = np.concatenate([np.zeros(50), np.ones(50)])  # two point masses
    with pytest.raises(RegressionRankError, match="piecewise_bins"):
        # quantile edges collapse: middle bins are empty
        conditional_expectation(np.ones(100), x[:, None], PiecewiseBinBasis(4))


def test_multi_column_targets():
    rng = np.random.default_rng(6)
    points = rng.normal(size=(1000, 1))
    targets = np.stack([points[:, 0], points[:, 0] ** 2], axis=1)
    fitted = conditional_expectation(targets, points, PolynomialBasis(2))
    assert fitted.shape == (1000, 2)
    assert np.allclose(fitted, targets, atol=1e-8)


def test_projector_reuse_matches_one_shot():
    rng = np.random.default_rng(7)
    points = rng.normal(size=(500, 1))
    proj = DesignProjector(points, PolynomialBasis(2))
    t1 = rng.normal(size=500)
    a = proj.fit(t1)
    b = conditional_expectation(t1, points, PolynomialBasis(2))
    assert np.allclose(a, b, atol=1e-12)


def test_fit_function_evaluates_new_points():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, size=(1000, 1))
    y = 2.0 + 3.0 * x[:, 0]
    fn = fit_function(y, x, PolynomialBasis(1))
    probe = np.array([[0.0], [0.5]])
    assert np.allclose(fn(probe), [2.0, 3.5], atol=1e-9)


def _reference_projector(feature_points, basis):
    """The two-pass build (numpy mean/std, column_stack, copied u): (u, rank)."""
    from gbdsde.regression import RCOND

    design = basis.features(feature_points)
    s, p = design.shape
    mean = design.mean(axis=0)
    std = design.std(axis=0)
    keep = std > 1e-12 * (1.0 + np.abs(mean))
    reduced = (design[:, keep] - mean[keep]) / std[keep]
    a = np.column_stack([np.ones(s), reduced])
    u, sv, _ = np.linalg.svd(a, full_matrices=False)
    retain = sv > RCOND * sv[0]
    return np.ascontiguousarray(u[:, retain]), int(np.count_nonzero(retain))


@pytest.mark.parametrize("case", ["poly3_1d", "poly2_2d", "poly0", "bins",
                                  "rank_deficient", "constant_column"])
def test_projector_build_matches_two_pass_reference(case):
    rng = np.random.default_rng(9)
    points = rng.normal(size=(600, 1))
    basis = PolynomialBasis(3)
    if case == "poly2_2d":
        points, basis = rng.normal(size=(600, 2)), PolynomialBasis(2)
    elif case == "poly0":
        basis = PolynomialBasis(0)  # p = 1: the intercept alone
    elif case == "bins":
        basis = PiecewiseBinBasis(8)  # indicators sum to the intercept
    elif case == "rank_deficient":
        points = np.column_stack([points[:, 0], 2.0 * points[:, 0]])
        basis = PolynomialBasis(1)
    elif case == "constant_column":
        points = np.column_stack([points[:, 0], np.full(600, 0.3)])
    u_ref, rank_ref = _reference_projector(points, basis)
    proj = DesignProjector(points, basis)
    assert proj.rank == rank_ref
    # one dependent column survives standardization: the truncated-u branch
    expected_rank = {"bins": 8, "rank_deficient": 2}
    if case in expected_rank:
        assert proj.rank == expected_rank[case]
    assert proj._u.flags.c_contiguous
    assert np.array_equal(proj._u, u_ref)
    targets = rng.normal(size=(600, 3))
    assert np.array_equal(proj.fit(targets), u_ref @ (u_ref.T @ targets))


def _same_projector(proj, ref):
    return (proj.rank == ref.rank and proj.basis_name == ref.basis_name
            and proj.scenario_count == ref.scenario_count and proj._u.flags.c_contiguous
            and np.array_equal(proj._u, ref._u))


def _walk_points(steps=37, count=400, dim=1, seed=10):
    """Time-major (steps, S, dim) points of a random walk started at one constant point."""
    rng = np.random.default_rng(seed)
    points = 0.3 + np.cumsum(0.1 * rng.normal(size=(steps, count, dim)), axis=0)
    points[0] = 0.3  # the constant start step
    return points


@pytest.mark.parametrize("case", ["poly3_1d", "poly2_2d", "poly3_2d", "rank_deficient",
                                  "constant_column", "poly0", "bins", "over_budget"])
def test_stack_matches_per_step_build(case, monkeypatch):
    from gbdsde import regression

    points, basis = _walk_points(steps=12), PolynomialBasis(3)
    if case in ("poly2_2d", "poly3_2d"):
        points = _walk_points(steps=12, dim=2)
        basis = PolynomialBasis(2 if case == "poly2_2d" else 3)
    elif case == "rank_deficient":
        # one step whose second coordinate repeats the first: a truncated u
        points = _walk_points(steps=12, dim=2)
        points[5, :, 1] = 2.0 * points[5, :, 0]
        basis = PolynomialBasis(2)
    elif case == "constant_column":
        points = np.concatenate([points, np.full(points.shape, 0.7)], axis=2)
    elif case == "poly0":
        basis = PolynomialBasis(0)
    elif case == "bins":
        basis = PiecewiseBinBasis(6)
    elif case == "over_budget":
        # a block larger than one stacked design may hold is split, not cut
        monkeypatch.setattr(regression, "BLOCK_BYTES", 3 * 8 * 400 * 4)
    block = DesignProjector.stack(points, basis)
    assert len(block) == points.shape[0]
    if case in ("poly0", "bins"):
        assert block == [None] * points.shape[0]  # left to the per-step build
        return
    # only the constant start step keeps a different set of columns; it is
    # still stacked (on its own) and still bit-identical
    assert all(proj is not None for proj in block)
    for c, proj in enumerate(block):
        ref = DesignProjector(points[c], basis)
        assert _same_projector(proj, ref), c
        u_ref, rank_ref = _reference_projector(points[c], basis)
        assert proj.rank == rank_ref and np.array_equal(proj._u, u_ref)
    assert block[0].rank == 1
    if case == "rank_deficient":
        assert block[5].rank < block[4].rank == basis.feature_count(2)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("order", ["backward", "forward"])
def test_projector_walk_matches_per_step_builds(dim, order, monkeypatch):
    from gbdsde import regression
    from gbdsde.regression import projector_walk

    points = _walk_points(dim=dim)
    basis = PolynomialBasis(3)
    steps = points.shape[0]
    calls = []

    def points_of(lo, hi):
        calls.append((lo, hi))
        return points[lo:hi]

    # runs of 5 steps: 37 steps cut the last run mid-way, and so does a
    # start index of 3 in the backward walk
    monkeypatch.setattr(regression, "BLOCK_STEPS", 5)
    walk = range(steps - 1, 2, -1) if order == "backward" else range(steps)
    got = list(projector_walk(points_of, basis, walk))
    assert [i for i, _ in got] == list(walk)
    assert all(hi - lo <= 5 for lo, hi in calls)
    assert sorted(i for lo, hi in calls for i in range(lo, hi)) == sorted(walk)
    for i, proj in got:
        assert _same_projector(proj, DesignProjector(points[i], basis)), i


@pytest.mark.parametrize("basis", [PolynomialBasis(0), PiecewiseBinBasis(5)])
def test_projector_walk_per_step_fallbacks(basis):
    from gbdsde.regression import projector_walk

    points = _walk_points(steps=20)
    points[0] += np.linspace(0.0, 1.0, points.shape[1])[:, None]  # bins need spread
    got = list(projector_walk(lambda lo, hi: points[lo:hi], basis, range(19, -1, -1)))
    assert [i for i, _ in got] == list(range(19, -1, -1))
    for i, proj in got:
        assert _same_projector(proj, DesignProjector(points[i], basis)), i


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", ["nan", "inf", "empty_bin", "too_few_scenarios"])
def test_projector_walk_raises_at_the_per_step_step(case):
    from gbdsde.regression import projector_walk

    points, basis, bad = _walk_points(steps=30), PolynomialBasis(2), 13
    if case in ("nan", "inf"):
        points[bad, 7, 0] = np.nan if case == "nan" else np.inf
        points[bad, 9, 0] = -np.inf  # inf - inf: no warning from the block build
    elif case == "empty_bin":
        basis = PiecewiseBinBasis(4)
        points[bad, :, 0] = np.repeat([0.0, 1.0], points.shape[1] // 2)
    else:
        points, bad = points[:, :20], 29  # 20 scenarios for 6 functions
    walk = range(29, -1, -1)
    reached = []
    with pytest.raises((ValueError, RegressionRankError)) as got:
        for i, _ in projector_walk(lambda lo, hi: points[lo:hi], basis, walk):
            reached.append(i)
    assert reached == list(range(29, bad, -1))
    with pytest.raises(type(got.value)) as ref:
        DesignProjector(points[bad], basis)
    assert type(got.value) is type(ref.value) and str(got.value) == str(ref.value)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       degree=st.integers(min_value=0, max_value=3),
       dim=st.sampled_from([1, 2]),
       loc=st.floats(min_value=-3.0, max_value=3.0),
       scale=st.floats(min_value=0.1, max_value=3.0),
       stacked=st.booleans())
def test_projection_idempotent_and_mean_preserving(seed, degree, dim, loc, scale, stacked):
    from gbdsde.regression import projector_walk

    rng = np.random.default_rng(seed)
    steps, count = 6, 300
    points = loc + scale * np.cumsum(rng.normal(size=(steps, count, dim)), axis=0)
    basis = PolynomialBasis(degree)
    if stacked:
        projs = [p for _, p in projector_walk(lambda lo, hi: points[lo:hi], basis,
                                              range(steps))]
    else:
        projs = [DesignProjector(points[c], basis) for c in range(steps)]
    for c, proj in enumerate(projs):
        y = np.stack([np.sin(points[c, :, 0]), points[c, :, -1] ** 2], axis=1)
        y += rng.normal(size=y.shape)
        once = proj.fit(y)
        tol = 1e-10 * (np.max(np.abs(y)) + 1.0)
        assert np.max(np.abs(proj.fit(once) - once)) <= tol
        assert np.max(np.abs(once.mean(axis=0) - y.mean(axis=0))) <= tol
