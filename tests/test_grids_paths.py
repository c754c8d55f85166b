"""Time grids and path bundles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gbdsde import TimeGrid, sample_paths


def test_grid_points_and_spacing():
    grid = TimeGrid(0.0, 2.0, 8)
    assert len(grid) == 9
    assert grid.dt == pytest.approx(0.25)
    assert np.all(np.diff(grid.points) > 0)
    assert grid.points[0] == 0.0 and grid.points[-1] == 2.0


def test_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)
    grid = TimeGrid(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        grid.index_of(0.05)
    with pytest.raises(ValueError):
        grid.index_of(1.5)


@given(st.integers(min_value=1, max_value=200))
def test_grid_index_roundtrip(steps):
    grid = TimeGrid(0.0, 1.0, steps)
    for i in (0, steps // 2, steps):
        assert grid.index_of(grid.points[i]) == i


def test_same_seed_identical_bundle():
    grid = TimeGrid(0.0, 1.0, 50)
    a = sample_paths(grid, d=2, seed=9, count=64)
    b = sample_paths(grid, d=2, seed=9, count=64)
    assert np.array_equal(a.W, b.W)
    assert np.array_equal(a.B, b.B)
    c = sample_paths(grid, d=2, seed=10, count=64)
    assert not np.array_equal(a.W, c.W)


def test_increment_variance_matches_dt():
    # chi-square oracle: var estimate of N draws has SE = dt sqrt(2/(N-1))
    grid = TimeGrid(0.0, 1.0, 100)
    bundle = sample_paths(grid, d=1, seed=4, count=1000)
    draws = bundle.dW.ravel()
    n = draws.size
    assert n == 100_000
    se = grid.dt * np.sqrt(2.0 / (n - 1))
    assert abs(draws.var(ddof=1) - grid.dt) <= 3 * se


def test_w_b_independence():
    grid = TimeGrid(0.0, 1.0, 100)
    bundle = sample_paths(grid, d=1, seed=4, count=1000)
    dw = bundle.dW.ravel()
    db = bundle.dB.ravel()
    n = dw.size
    corr = np.corrcoef(dw, db)[0, 1]
    assert abs(corr) <= 3.0 / np.sqrt(n)


def test_shared_b_broadcasts_one_scenario():
    grid = TimeGrid(0.0, 1.0, 20)
    bundle = sample_paths(grid, d=1, seed=4, count=16, shared_b=True)
    assert np.all(bundle.B == bundle.B[:1])
    assert not np.all(bundle.W == bundle.W[:1])


def test_shared_b_is_a_read_only_view_of_one_row():
    grid = TimeGrid(0.0, 1.0, 20)
    bundle = sample_paths(grid, d=2, seed=4, count=16, shared_b=True)
    one_row = sample_paths(grid, d=2, seed=4, count=1).B  # the same B stream
    assert np.array_equal(bundle.B, np.broadcast_to(one_row, bundle.B.shape).copy())
    assert bundle.B.strides[0] == 0  # one row in memory
    with pytest.raises(ValueError, match="read-only"):
        bundle.B[0, 1, 0] = 1.0


def test_philox_keys_every_stream_by_the_seed_modulo_2_64():
    # the stream of a negative seed is that of its residue, as for the W/B
    # streams; an unmasked uint64 key would raise OverflowError
    from gbdsde.paths import philox

    key = np.array([2024, 77], dtype=np.uint64)
    direct = np.random.Generator(np.random.Philox(key=key)).random(5)
    assert np.array_equal(philox(2024, 77).random(5), direct)
    assert np.array_equal(philox(-1, 77).random(5), philox(2**64 - 1, 77).random(5))


def _uniforms_of_the_block_map(monkeypatch, seed, count):
    """The uniforms `_gaussian_block` hands to `_ndtri` for one Philox stream."""
    from gbdsde import paths

    with monkeypatch.context() as m:
        m.setattr(paths, "_ndtri", lambda u: u)
        return paths._gaussian_block(seed, 0, (count,))


def _ulps(a, b):
    """Distance in units in the last place of two same-sign float arrays."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_ndtri_matches_scipy_over_philox_uniforms(monkeypatch):
    # the central branch is + - * / only, so it is scipy's bits exactly (one
    # wrong coefficient digit shows up here); the tails take numpy's
    # vectorized log, which may round the last bit differently from libm's
    from scipy.special import ndtri

    from gbdsde.paths import _EXP_M2, _ndtri

    u = _uniforms_of_the_block_map(monkeypatch, 2024, 1_200_000)
    got, ref = _ndtri(u.copy()), ndtri(u)
    central = (u > _EXP_M2) & (u <= 1.0 - _EXP_M2)
    assert 0.72 < central.mean() < 0.74
    assert np.array_equal(got[central], ref[central])
    tail_ulps = _ulps(got[~central], ref[~central])
    assert tail_ulps.max() <= 8
    assert np.count_nonzero(tail_ulps) <= 0.01 * tail_ulps.size


def test_ndtri_at_branch_boundaries_and_far_tails():
    from scipy.special import ndtri

    from gbdsde.paths import _EXP_M2, _ndtri

    # the central branch is exp(-2) < u <= 1 - exp(-2), both edges included
    # here with their neighbours
    central = [0.5, 0.25, 0.75, np.nextafter(_EXP_M2, 1.0), 1.0 - _EXP_M2,
               np.nextafter(1.0 - _EXP_M2, 0.0)]
    tails = [_EXP_M2, np.nextafter(_EXP_M2, 0.0), np.nextafter(1.0 - _EXP_M2, 1.0),
             0.01, 0.99,
             # x = sqrt(-2 log y) >= 8, the P2/Q2 branch: y < exp(-32)
             np.exp(-32.0), 1e-15, 1e-100, 1e-300, 5e-324, 2.0 ** -53, 1.0 - 2.0 ** -53]
    u = np.array(central)
    assert np.array_equal(_ndtri(u.copy()), ndtri(u))
    u = np.array(tails)
    got, ref = _ndtri(u.copy()), ndtri(u)
    assert np.all(np.isfinite(got)) and np.array_equal(np.sign(got), np.sign(ref))
    assert _ulps(got, ref).max() <= 8


def test_top_integer_draw_gives_a_finite_normal(monkeypatch):
    # above 2**52 the + 1/2 of the uniform map rounds to even, so the top
    # integer would give u = 1 and ndtri = inf; the clamp folds it onto the
    # largest uniform its neighbour gives
    from gbdsde import paths

    class _Stub:
        def integers(self, low, high, size, dtype):
            return np.array([0, 2**53 - 2, 2**53 - 1], dtype=dtype).reshape(size)

    monkeypatch.setattr(paths, "philox", lambda seed, stream: _Stub())
    z = paths._gaussian_block(0, 0, (3,))
    assert np.all(np.isfinite(z))
    assert z[0] < -8.0 < 8.0 < z[1]
    assert z[1] == z[2]
