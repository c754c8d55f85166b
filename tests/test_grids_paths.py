"""Time grids, path bundles, discrete integral conventions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbdsde import (
    IntegralConvention,
    TimeGrid,
    integrate,
    sample_paths,
    time_reverse,
)


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


def test_coarsen_preserves_values():
    grid = TimeGrid(0.0, 1.0, 100)
    bundle = sample_paths(grid, d=1, seed=4, count=8)
    coarse = bundle.coarsen(10)
    assert coarse.grid.step_count == 10
    assert np.array_equal(coarse.W, bundle.W[:, ::10, :])


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-5, max_value=5), st.integers(min_value=2, max_value=40),
       st.data())
def test_constant_integrand_telescopes(c, steps, data):
    grid = TimeGrid(0.0, 1.0, steps)
    bundle = sample_paths(grid, d=1, seed=11, count=4)
    lo = data.draw(st.integers(min_value=0, max_value=steps - 1))
    hi = data.draw(st.integers(min_value=lo + 1, max_value=steps))
    driver = bundle.B[:, :, 0]
    values = np.full_like(driver, c)
    for conv in IntegralConvention:
        got = integrate(values, driver, conv, lo, hi)
        expect = c * (driver[:, hi] - driver[:, lo])
        assert np.allclose(got, expect)


def test_stratonovich_midpoint_telescoping():
    grid = TimeGrid(0.0, 1.0, 200)
    bundle = sample_paths(grid, d=1, seed=12, count=32)
    b = bundle.B[:, :, 0]
    got = integrate(b, b, IntegralConvention.STRATONOVICH)
    assert np.allclose(got, 0.5 * (b[:, -1] ** 2 - b[:, 0] ** 2))


def test_backward_minus_forward_is_quadratic_variation():
    grid = TimeGrid(0.0, 1.0, 500)
    bundle = sample_paths(grid, d=1, seed=13, count=2000)
    b = bundle.B[:, :, 0]
    qv = (integrate(b, b, IntegralConvention.BACKWARD_ITO)
          - integrate(b, b, IntegralConvention.FORWARD_ITO))
    # per-scenario quadratic variation: mean T, variance 2 dt T
    se = np.sqrt(2 * grid.dt * 1.0 / 2000)
    assert abs(qv.mean() - 1.0) <= 3 * se


def test_backward_equals_forward_of_reversal():
    grid = TimeGrid(0.0, 1.0, 64)
    bundle = sample_paths(grid, d=1, seed=14, count=16)
    phi = np.cos(bundle.W[:, :, 0])
    b = bundle.B[:, :, 0]
    back = integrate(phi, b, IntegralConvention.BACKWARD_ITO, 20, 64)
    fwd = integrate(phi[:, ::-1], time_reverse(bundle.B)[:, :, 0],
                    IntegralConvention.FORWARD_ITO, 0, 44)
    assert np.allclose(back, fwd)


def test_vector_integrand_contracts_coordinates():
    grid = TimeGrid(0.0, 1.0, 30)
    bundle = sample_paths(grid, d=3, seed=15, count=8)
    got = integrate(np.ones_like(bundle.B), bundle.B, IntegralConvention.FORWARD_ITO)
    expect = (bundle.B[:, -1, :] - bundle.B[:, 0, :]).sum(axis=1)
    assert np.allclose(got, expect)


def test_integrate_range_errors():
    grid = TimeGrid(0.0, 1.0, 10)
    bundle = sample_paths(grid, d=1, seed=16, count=2)
    b = bundle.B[:, :, 0]
    with pytest.raises(IndexError):
        integrate(b, b, IntegralConvention.FORWARD_ITO, 5, 20)


def test_philox_keys_every_stream_by_the_seed_modulo_2_64():
    # the stream of a negative seed is that of its residue, as for the W/B
    # streams; an unmasked uint64 key would raise OverflowError
    from gbdsde.paths import philox

    key = np.array([2024, 77], dtype=np.uint64)
    direct = np.random.Generator(np.random.Philox(key=key)).random(5)
    assert np.array_equal(philox(2024, 77).random(5), direct)
    assert np.array_equal(philox(-1, 77).random(5), philox(2**64 - 1, 77).random(5))
