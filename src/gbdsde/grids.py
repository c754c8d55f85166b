"""Uniform time grids shared by all simulations."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [t_start, t_end] into step_count steps.

    Attributes
    ----------
    t_start, t_end : float
        Endpoints of the horizon, t_start <= t_end.
    step_count : int
        Number of steps; the grid has step_count + 1 points.
    """

    t_start: float
    t_end: float
    step_count: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.step_count < 1:
            raise ValueError(f"step_count must be >= 1, got {self.step_count}")
        if not np.isfinite(self.t_start) or not np.isfinite(self.t_end):
            raise ValueError("grid endpoints must be finite")
        if self.t_end <= self.t_start:
            raise ValueError(f"need t_start < t_end, got [{self.t_start}, {self.t_end}]")
        pts = np.linspace(self.t_start, self.t_end, self.step_count + 1)
        object.__setattr__(self, "points", pts)

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.step_count

    def __len__(self) -> int:
        return self.step_count + 1

    def index_of(self, t: float) -> int:
        """Index of the grid point equal to t within 1e-9 max(dt, 1)."""
        idx = int(round((t - self.t_start) / self.dt))
        if idx < 0 or idx > self.step_count:
            raise ValueError(f"time {t} outside grid [{self.t_start}, {self.t_end}]")
        if abs(self.points[idx] - t) > 1e-9 * max(self.dt, 1.0):
            raise ValueError(f"time {t} is not a grid point (dt = {self.dt})")
        return idx
