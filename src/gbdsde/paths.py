"""Brownian path bundles and discrete stochastic integrals.

Two independent d-dimensional Brownian motions drive every equation in this
package: a forward one (W) and a backward one (B).  Increments are produced
by inverse-CDF sampling from counter-based Philox streams keyed by
(seed, which-motion), so the independence of the two motions and the exact
reproducibility of a bundle are structural properties of the generator, not
accidents of call order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .grids import TimeGrid

# Philox stream tags for the two independent motions.
_STREAM_W = 0
_STREAM_B = 1


class IntegralConvention(enum.Enum):
    """Endpoint rule used when summing integrand x driver-increment."""

    FORWARD_ITO = "forward_ito"          # left endpoint
    BACKWARD_ITO = "backward_ito"        # right endpoint
    STRATONOVICH = "stratonovich"        # midpoint (trapezoidal)


@dataclass(frozen=True)
class PathBundle:
    """Discretized scenarios of the two driving Brownian motions.

    W and B have shape (scenario_count, step_count + 1, d) and start at 0.
    When ``shared_b`` is set, all scenarios carry the same B path (one
    realization of the backward driver shared across the forward ensemble).
    """

    grid: TimeGrid
    W: np.ndarray
    B: np.ndarray
    seed: int
    scenario_count: int
    shared_b: bool = False

    def __post_init__(self) -> None:
        for name, path in (("W", self.W), ("B", self.B)):
            if path.ndim != 3:
                raise ValueError(f"{name} must have shape (scenarios, times, d)")
            if path.shape[1] != len(self.grid):
                raise ValueError(f"{name} has {path.shape[1]} time points, grid has {len(self.grid)}")
        if self.W.shape[0] != self.scenario_count or self.B.shape[0] != self.scenario_count:
            raise ValueError("scenario_count does not match path arrays")

    @property
    def d(self) -> int:
        return self.W.shape[2]

    @property
    def dW(self) -> np.ndarray:
        return np.diff(self.W, axis=1)

    @property
    def dB(self) -> np.ndarray:
        return np.diff(self.B, axis=1)

    def coarsen(self, factor: int) -> "PathBundle":
        """Subsample every factor-th grid point (increments aggregate exactly)."""
        if self.grid.step_count % factor != 0:
            raise ValueError(f"step_count {self.grid.step_count} not divisible by {factor}")
        coarse = TimeGrid(self.grid.t_start, self.grid.t_end, self.grid.step_count // factor)
        return PathBundle(
            grid=coarse,
            W=self.W[:, ::factor, :],
            B=self.B[:, ::factor, :],
            seed=self.seed,
            scenario_count=self.scenario_count,
            shared_b=self.shared_b,
        )


def _gaussian_block(seed: int, stream: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals from a Philox stream keyed by (seed, stream).

    Uniforms are taken as (i + 1/2) / 2**53 over 53-bit integers, then mapped
    through the inverse normal CDF; the open-interval offset keeps ndtri finite.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    raw = gen.integers(0, 1 << 53, size=shape, dtype=np.uint64)
    u = raw.astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    return ndtri(u, out=u)


def sample_paths(
    grid: TimeGrid,
    d: int,
    seed: int,
    count: int,
    shared_b: bool = False,
) -> PathBundle:
    """Sample a bundle of W/B scenarios on the grid.

    Increments are N(0, dt) per coordinate; identical arguments give a
    bit-identical bundle.  With ``shared_b`` one B scenario is drawn and
    broadcast to every row.
    """
    if count < 1:
        raise ValueError("scenario count must be >= 1")
    if d < 1:
        raise ValueError("Brownian dimension must be >= 1")
    sqrt_dt = np.sqrt(grid.dt)
    n_steps = grid.step_count

    def build(stream: int, rows: int) -> np.ndarray:
        incr = _gaussian_block(seed, stream, (rows, n_steps, d))
        incr *= sqrt_dt
        path = np.empty((rows, n_steps + 1, d))
        path[:, 0, :] = 0.0
        np.cumsum(incr, axis=1, out=path[:, 1:, :])
        return path

    w = build(_STREAM_W, count)
    if shared_b:
        b = np.broadcast_to(build(_STREAM_B, 1), w.shape).copy()
    else:
        b = build(_STREAM_B, count)
    return PathBundle(grid=grid, W=w, B=b, seed=seed, scenario_count=count, shared_b=shared_b)


def swap_scenario_time(arr: np.ndarray) -> np.ndarray:
    """C-contiguous copy of an array with its first two axes swapped.

    Turns a scenario-major (S, T+1, ...) array into the time-major layout
    the step loops work on, and back.
    """
    return np.ascontiguousarray(np.swapaxes(arr, 0, 1))


def time_major_increments(path: np.ndarray) -> np.ndarray:
    """Increments of a scenario-major (S, T+1, ...) path, laid out as (T, S, ...).

    Equals ``np.diff(path, axis=1)`` with its first two axes swapped, stored
    C-contiguous, so each step's (S, ...) slice is one contiguous block.
    """
    steps = np.swapaxes(path, 0, 1)
    out = np.empty(steps[1:].shape, dtype=path.dtype)
    return np.subtract(steps[1:], steps[:-1], out=out)


def integrate(
    values: np.ndarray,
    driver: np.ndarray,
    convention: IntegralConvention,
    from_index: int = 0,
    to_index: int | None = None,
) -> np.ndarray:
    """Discrete stochastic integral of integrand samples against a driver path.

    Parameters
    ----------
    values : array, shape (..., T+1) or (S, T+1, d)
        Integrand sampled at every grid point.  When both arrays have three
        or more axes and matching trailing length, the last axis is treated
        as coordinates and contracted against the driver increments (inner
        product); two-dimensional inputs are scalar paths with time last.
    driver : array, shape (..., T+1) or (S, T+1, d)
        Driver path (B or W).
    convention : IntegralConvention
        forward: left-endpoint integrand;  backward: right endpoint;
        stratonovich: average of the two.
    from_index, to_index : int
        Grid indices delimiting the integration range (default: full range).

    Returns
    -------
    Integral value with the time (and coordinate) axis summed out.
    """
    vector_valued = (
        values.ndim == driver.ndim
        and driver.ndim >= 3
        and values.shape[-1] == driver.shape[-1]
    )
    time_axis = -2 if vector_valued else -1
    n_times = driver.shape[time_axis]
    if to_index is None:
        to_index = n_times - 1
    if not (0 <= from_index <= to_index <= n_times - 1):
        raise IndexError(
            f"integration range [{from_index}, {to_index}] invalid for {n_times} grid points"
        )

    def at(arr: np.ndarray, lo: int, hi: int) -> np.ndarray:
        idx = [slice(None)] * arr.ndim
        idx[time_axis] = slice(lo, hi)
        return arr[tuple(idx)]

    left = at(values, from_index, to_index)
    right = at(values, from_index + 1, to_index + 1)
    d_driver = at(driver, from_index + 1, to_index + 1) - at(driver, from_index, to_index)
    if convention is IntegralConvention.FORWARD_ITO:
        phi = left
    elif convention is IntegralConvention.BACKWARD_ITO:
        phi = right
    else:
        phi = 0.5 * (left + right)
    prod = phi * d_driver
    if vector_valued:
        return prod.sum(axis=(-2, -1))
    return prod.sum(axis=-1)


def time_reverse(path: np.ndarray) -> np.ndarray:
    """Reverse a driver path in time, re-anchored to start at 0.

    The reversed path R satisfies R_m = P_T - P_{T-m dt}; its increments are
    the original increments read backwards, so a discrete backward integral
    over [t, T] equals the forward integral of the reversed integrand against
    the reversed driver, exactly and per scenario.  Paths follow the bundle
    layout (..., T+1, d); a plain 1-D array is treated as (T+1,).
    """
    rev = path[..., ::-1, :] if path.ndim >= 2 else path[::-1]
    if path.ndim >= 2:
        return path[..., -1:, :] - rev
    return path[-1] - rev
