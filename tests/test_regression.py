"""Least-squares conditional expectation estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbdsde import PolynomialBasis
from gbdsde.regression import DesignProjector, RegressionRankError


def test_constant_targets_reproduced():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(500, 1))
    fitted = DesignProjector(points, PolynomialBasis(3)).fit(np.full(500, 4.2))
    assert np.allclose(fitted, 4.2)


def test_martingale_projection_recovers_conditional_mean():
    # E[W_T | W_t] = W_t; regression error shrinks with the sample size
    rng = np.random.default_rng(1)
    errors = []
    for count in (500, 8000):
        w_t = rng.normal(0, np.sqrt(0.5), size=count)
        w_T = w_t + rng.normal(0, np.sqrt(0.5), size=count)
        fitted = DesignProjector(w_t[:, None], PolynomialBasis(1)).fit(w_T)
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
    fitted = DesignProjector(w_t[:, None], PolynomialBasis(3)).fit(np.cos(w_T))

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
    once = DesignProjector(points, PolynomialBasis(3)).fit(targets)
    twice = DesignProjector(points, PolynomialBasis(3)).fit(once)
    scale = np.max(np.abs(once)) + 1.0
    assert np.max(np.abs(twice - once)) <= 1e-10 * scale


def test_scenario_ratio_enforced():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="10x"):
        DesignProjector(rng.normal(size=(30, 1)), PolynomialBasis(3)).fit(np.ones(30))


def test_degenerate_features_fall_back_to_mean():
    targets = np.array([1.0, 2.0, 3.0, 4.0] * 25)
    points = np.zeros((100, 1))  # constant features: only the mean survives
    fitted = DesignProjector(points, PolynomialBasis(3)).fit(targets)
    assert np.allclose(fitted, targets.mean())


def test_nonfinite_features_error_names_basis():
    points = np.zeros((100, 1))
    points[3] = np.nan
    with pytest.raises(RegressionRankError, match="polynomial"):
        DesignProjector(points, PolynomialBasis(2)).fit(np.ones(100))


def test_multi_column_targets():
    rng = np.random.default_rng(6)
    points = rng.normal(size=(1000, 1))
    targets = np.stack([points[:, 0], points[:, 0] ** 2], axis=1)
    fitted = DesignProjector(points, PolynomialBasis(2)).fit(targets)
    assert fitted.shape == (1000, 2)
    assert np.allclose(fitted, targets, atol=1e-8)


def test_projector_reuse_matches_one_shot():
    rng = np.random.default_rng(7)
    points = rng.normal(size=(500, 1))
    proj = DesignProjector(points, PolynomialBasis(2))
    proj.fit(rng.normal(size=500))
    t1 = rng.normal(size=500)
    a = proj.fit(t1)
    b = DesignProjector(points, PolynomialBasis(2)).fit(t1)
    assert np.allclose(a, b, atol=1e-12)


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


@pytest.mark.parametrize("case", ["poly3_1d", "poly2_2d", "poly0",
                                  "rank_deficient", "constant_column"])
def test_projector_build_matches_two_pass_reference(case):
    rng = np.random.default_rng(9)
    points = rng.normal(size=(600, 1))
    basis = PolynomialBasis(3)
    if case == "poly2_2d":
        points, basis = rng.normal(size=(600, 2)), PolynomialBasis(2)
    elif case == "poly0":
        basis = PolynomialBasis(0)  # p = 1: the intercept alone
    elif case == "rank_deficient":
        points = np.column_stack([points[:, 0], 2.0 * points[:, 0]])
        basis = PolynomialBasis(1)
    elif case == "constant_column":
        points = np.column_stack([points[:, 0], np.full(600, 0.3)])
    u_ref, rank_ref = _reference_projector(points, basis)
    proj = DesignProjector(points, basis)
    assert proj.rank == rank_ref
    # one dependent column survives standardization: the truncated-u branch
    if case == "rank_deficient":
        assert proj.rank == 2
    assert proj._u.flags.c_contiguous
    assert np.array_equal(proj._u, u_ref)
    targets = rng.normal(size=(600, 3))
    assert np.array_equal(proj.fit(targets), u_ref @ (u_ref.T @ targets))


def _per_step_build(feature_points, basis):
    """The one-design build the block build replaced, verbatim: (u, rank), or
    the error it raised."""
    from gbdsde.regression import MIN_SCENARIO_RATIO, RCOND

    design = basis.features(feature_points)
    s, p = design.shape
    if s < MIN_SCENARIO_RATIO * p:
        raise ValueError(
            f"need >= {MIN_SCENARIO_RATIO}x more scenarios than basis functions "
            f"({s} scenarios, {p} functions of {basis.name})"
        )
    if not np.all(np.isfinite(design)):
        raise RegressionRankError(
            f"non-finite feature values in basis {basis.name}")
    mean = np.add.reduce(design, axis=0) / s
    centered = np.subtract(design, mean, out=design)
    std = np.sqrt(np.add.reduce(centered * centered, axis=0) / s)
    keep = std > 1e-12 * (1.0 + np.abs(mean))
    a = np.empty((centered.shape[0], 1 + np.count_nonzero(keep)))
    a[:, 0] = 1.0
    np.divide(centered[:, keep], std[keep], out=a[:, 1:])
    u, sv, _ = np.linalg.svd(a, full_matrices=False)
    retain = sv > RCOND * sv[0]
    rank = int(np.count_nonzero(retain))
    if rank == 0:
        raise RegressionRankError(
            f"design matrix of basis {basis.name} has rank 0")
    return (u if rank == sv.size else np.ascontiguousarray(u[:, retain])), rank


def _same_basis(u, feature_points, basis):
    u_ref, _ = _per_step_build(feature_points, basis)
    return u.flags.c_contiguous and np.array_equal(u, u_ref)


def _same_projector(proj, feature_points, basis):
    u_ref, rank_ref = _per_step_build(feature_points, basis)
    return (proj.rank == rank_ref and proj.scenario_count == len(feature_points)
            and _same_basis(proj._u, feature_points, basis))


def _walk_points(steps=37, count=400, dim=1, seed=10):
    """Time-major (steps, S, dim) points of a random walk started at one constant point."""
    rng = np.random.default_rng(seed)
    points = 0.3 + np.cumsum(0.1 * rng.normal(size=(steps, count, dim)), axis=0)
    points[0] = 0.3  # the constant start step
    return points


@pytest.mark.parametrize("case", ["poly3_1d", "poly2_2d", "poly3_2d", "rank_deficient",
                                  "constant_column", "poly0", "over_budget", "overflow"])
def test_stack_matches_per_step_build(case, monkeypatch):
    from gbdsde import regression
    from gbdsde.regression import orthonormal_bases

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
    elif case == "over_budget":
        # a block larger than one stacked design may hold is split, not cut
        monkeypatch.setattr(regression, "BLOCK_BYTES", 3 * 8 * 400 * 4)
    elif case == "overflow":
        # finite cubes whose column sum overflows: the column is dropped
        points[7, :2, 0] = 5e102
    with np.errstate(over="ignore", invalid="ignore"):
        block = orthonormal_bases(points, basis)
        assert len(block) == points.shape[0]
        # only the constant start step keeps a different set of columns; it is
        # still stacked (on its own) and still bit-identical; with PolynomialBasis(0)
        # the one column is the intercept, whose sums are exact in any order
        for c, u in enumerate(block):
            assert _same_basis(u, points[c], basis), c
            if case != "overflow":
                u_ref, rank_ref = _reference_projector(points[c], basis)
                assert u.shape[1] == rank_ref and np.array_equal(u, u_ref)
    assert block[0].shape[1] == 1
    if case == "rank_deficient":
        assert block[5].shape[1] < block[4].shape[1] == basis.feature_count(2)
    if case == "overflow":
        assert block[7].shape[1] < block[6].shape[1] == basis.feature_count(1)


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
        assert _same_projector(proj, points[i], basis), i


@pytest.mark.parametrize("basis", [PolynomialBasis(0)])
def test_projector_walk_per_step_fallbacks(basis):
    from gbdsde.regression import projector_walk

    points = _walk_points(steps=20)
    got = list(projector_walk(lambda lo, hi: points[lo:hi], basis, range(19, -1, -1)))
    assert [i for i, _ in got] == list(range(19, -1, -1))
    for i, proj in got:
        assert _same_projector(proj, points[i], basis), i


def _svd_failing_at_outliers(monkeypatch, how):
    """Make np.linalg.svd raise LinAlgError (``how`` = "raise") or give zero
    singular values ("zero") for every design holding a standardized entry
    beyond 10: of a random walk's steps, only one with an outlier."""
    real = np.linalg.svd

    def svd(a, full_matrices=True):
        bad = (np.abs(a) > 10).any(axis=(-2, -1))
        if how == "raise" and bad.any():
            raise np.linalg.LinAlgError("SVD did not converge")
        u, sv, vt = real(a, full_matrices=full_matrices)
        return u, np.where(bad[..., None], 0.0, sv), vt

    monkeypatch.setattr(np.linalg, "svd", svd)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", ["nan", "inf", "too_few_scenarios", "rank_0", "svd_fails"])
def test_projector_walk_raises_at_the_per_step_step(case, monkeypatch):
    from gbdsde.regression import projector_walk

    points, basis, bad = _walk_points(steps=30), PolynomialBasis(2), 13
    if case in ("nan", "inf"):
        points[bad, 7, 0] = np.nan if case == "nan" else np.inf
        points[bad, 9, 0] = -np.inf  # inf - inf: no warning from the block build
    elif case == "too_few_scenarios":
        points, bad = points[:, :20], 29  # 20 scenarios for 6 functions
    else:
        points[bad, 7, 0] = 50.0
        _svd_failing_at_outliers(monkeypatch, "zero" if case == "rank_0" else "raise")
    walk = range(29, -1, -1)
    reached = []
    with pytest.raises((ValueError, RegressionRankError)) as got:
        for i, _ in projector_walk(lambda lo, hi: points[lo:hi], basis, walk):
            reached.append(i)
    assert reached == list(range(29, bad, -1))
    with pytest.raises(type(got.value)) as ref:
        _per_step_build(points[bad], basis)
    assert type(got.value) is type(ref.value) and str(got.value) == str(ref.value)
    if case == "svd_fails":
        assert isinstance(got.value, np.linalg.LinAlgError)


def test_failed_stacked_svd_leaves_the_other_designs_their_bits(monkeypatch):
    from gbdsde.regression import orthonormal_bases

    points, basis = _walk_points(steps=12), PolynomialBasis(2)
    points[5, 7, 0] = 50.0
    refs = [_per_step_build(points[c], basis)[0] for c in range(12)]
    _svd_failing_at_outliers(monkeypatch, "raise")
    block = orthonormal_bases(points, basis)
    assert isinstance(block[5], np.linalg.LinAlgError)
    for c, u in enumerate(block):
        if c != 5:
            assert u.flags.c_contiguous and np.array_equal(u, refs[c]), c


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


def _node_fit(projs, targets):
    """The per-node fit the one projector type replaced, verbatim."""
    s = projs[0].scenario_count
    if len({proj.rank for proj in projs}) == 1:
        stack = np.stack([proj._u for proj in projs])
        targets = np.asarray(targets, dtype=float)
        blocks = targets.reshape(len(projs), s, -1)
        fitted = stack @ (np.swapaxes(stack, 1, 2) @ blocks)
        return fitted.reshape(targets.shape)
    fitted = np.empty(np.shape(targets))
    for n, proj in enumerate(projs):
        fitted[n * s:(n + 1) * s] = proj.fit(targets[n * s:(n + 1) * s])
    return fitted


@pytest.mark.parametrize("mixed", [False, True], ids=["equal_ranks", "mixed_ranks"])
def test_node_projectors_fit_equals_per_node_fits(mixed):
    # equal ranks take the stacked (N, S, r) products, mixed ranks the loop;
    # either way each node block has the bits of its own projector's fit
    from gbdsde.regression import projector_walk

    rng = np.random.default_rng(12)
    s, basis = 400, PolynomialBasis(3)
    points = [rng.normal(size=(s, 1)) for _ in range(5)]
    if mixed:
        points[2] = np.zeros((s, 1))  # constant features: rank 1
    projs = [DesignProjector(p, basis) for p in points]
    for p, proj in zip(points, projs):
        assert _same_projector(proj, p, basis)
    [(_, nodes)] = projector_walk(lambda lo, hi: np.concatenate(points)[None], basis,
                                  range(1), nodes=5)
    assert isinstance(nodes._u, list) == mixed
    assert nodes.rank == sum(proj.rank for proj in projs)
    for shape in ((5 * s, 1), (5 * s, 3), (5 * s, 1, 2)):
        targets = rng.normal(size=shape)
        expect = np.concatenate([proj.fit(targets[n * s:(n + 1) * s])
                                 for n, proj in enumerate(projs)])
        assert np.array_equal(_node_fit(projs, targets), expect)
        assert np.array_equal(nodes.fit(targets), expect)
    with pytest.raises(ValueError, match="feature rows"):
        nodes.fit(np.ones(4 * s))
