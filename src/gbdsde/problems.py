"""Problem data: coefficient records.

A coefficient set bundles the driver f, the backward-noise coefficient g, the
boundary reaction h, the terminal map l and the forward-diffusion pair
(b, sigma), together with their declared structural constants:

* K      - linear growth constant,
* c      - squared Lipschitz constant of f (and of g in y),
* alpha  - the z-contraction weight of g, 0 < alpha < 1,
* beta1  - Lipschitz constant of h in y.

The constants are declared, not checked against the callables.

All callables are vectorized over a leading scenario axis:
f(t, x, y, z) -> (S, n), g(t, x, y, z) -> (S, n, d), h(t, x, y) -> (S, n),
l(x) -> (S,), b(x) -> (S, m), sigma(x) -> (S, m, d), with x of shape (S, m)
or None for problems without a spatial component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Coefficient = Callable[..., np.ndarray]


@dataclass(frozen=True)
class CoefficientSet:
    """Full problem data with declared constants."""

    n: int
    d: int
    f: Coefficient
    g: Coefficient
    h: Coefficient
    K: float
    c: float
    alpha: float
    beta1: float
    l: Coefficient | None = None
    b: Coefficient | None = None
    sigma: Coefficient | None = None
    x_dim: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        for name, val in (("K", self.K), ("c", self.c), ("beta1", self.beta1)):
            if not np.isfinite(val) or val <= 0:
                raise ValueError(f"constant {name} must be positive and finite, got {val}")
        if self.n < 1 or self.d < 1:
            raise ValueError("dimensions n, d must be >= 1")
