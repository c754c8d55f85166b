"""Brownian path bundles and their increments.

Two independent d-dimensional Brownian motions drive every equation in this
package: a forward one (W) and a backward one (B).  Increments are produced
by inverse-CDF sampling from counter-based Philox streams keyed by
(seed, which-motion), so the independence of the two motions and the exact
reproducibility of a bundle are structural properties of the generator, not
accidents of call order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .grids import TimeGrid

# Philox stream tags for the two independent motions.
_STREAM_W = 0
_STREAM_B = 1


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
    shared_b: bool = False

    def __post_init__(self) -> None:
        for name, path in (("W", self.W), ("B", self.B)):
            if path.ndim != 3:
                raise ValueError(f"{name} must have shape (scenarios, times, d)")
            if path.shape[1] != len(self.grid):
                raise ValueError(f"{name} has {path.shape[1]} time points, grid has {len(self.grid)}")
        if self.B.shape[0] != self.W.shape[0]:
            raise ValueError("W and B have different scenario counts")

    @property
    def scenario_count(self) -> int:
        return self.W.shape[0]

    @property
    def d(self) -> int:
        return self.W.shape[2]

    @property
    def dW(self) -> np.ndarray:
        return np.diff(self.W, axis=1)

    @property
    def dB(self) -> np.ndarray:
        return np.diff(self.B, axis=1)


def philox(seed: int, stream: int) -> np.random.Generator:
    """The generator of the Philox stream keyed by (seed, stream).

    Every random draw of the package comes from one of these streams; the
    seed is taken modulo 2**64.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _gaussian_block(seed: int, stream: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals from the Philox stream keyed by (seed, stream).

    Uniforms are taken as (i + 1/2) / 2**53 over 53-bit integers, then mapped
    through the inverse normal CDF; the open-interval offset keeps ndtri finite.
    """
    raw = philox(seed, stream).integers(0, 1 << 53, size=shape, dtype=np.uint64)
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
    bit-identical bundle.  With ``shared_b`` one B scenario is drawn and B is
    a read-only broadcast view of it across the rows.
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
        b = np.broadcast_to(build(_STREAM_B, 1), w.shape)  # read-only, one row in memory
    else:
        b = build(_STREAM_B, count)
    return PathBundle(grid=grid, W=w, B=b, shared_b=shared_b)


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
