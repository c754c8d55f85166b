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
