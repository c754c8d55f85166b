"""Smooth bounded convex domains described by a defining function.

A domain is the set {phi > 0} with boundary {phi = 0}; the gradient of phi
on the boundary is the unit normal pointing inward.  Only convex built-ins
are provided (interval, ball) so that the Euclidean projection used by the
reflection scheme is single-valued.  The defining functions are signed
distances mollified away from the boundary to stay twice continuously
differentiable; the mollification never touches a neighbourhood of the
boundary, so |grad phi| = 1 there exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# a built-in domain's boundary band: |phi| <= BOUNDARY_TOL times its diameter
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class SmoothDomain:
    """Convex domain with a C^2 defining function.

    phi and grad_phi (the inward unit normal on the boundary) act on (..., dim)
    points; projection returns the closest point of the closure and its distance.
    """

    dim: int
    phi: Callable[[np.ndarray], np.ndarray]
    grad_phi: Callable[[np.ndarray], np.ndarray]
    project_fn: Callable[[np.ndarray], np.ndarray]
    boundary_tol: float

    def classify(self, x: np.ndarray) -> np.ndarray:
        """Classify points as interior / boundary / exterior by the sign of phi."""
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("cannot classify non-finite points")
        val = self.phi(x)
        out = np.where(val > self.boundary_tol, "interior",
                       np.where(val < -self.boundary_tol, "exterior", "boundary"))
        return out

    def project(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Euclidean projection onto the closure and the distance moved."""
        x = np.asarray(x, dtype=float)
        proj = self.project_fn(x)
        dist = np.linalg.norm(proj - x, axis=-1)
        return proj, dist

    def contains(self, x: np.ndarray) -> np.ndarray:
        return self.phi(np.asarray(x, dtype=float)) >= -self.boundary_tol


def _smooth_abs_poly(s2: np.ndarray, r0: float) -> np.ndarray:
    """C^2 even replacement for |s| on |s| < r0, given s^2.

    Polynomial in u^2 = s^2/r0^2 matching |s|, its first and second
    derivative at |s| = r0, with zero slope at 0.
    """
    u2 = s2 / (r0 * r0)
    return r0 * (0.375 + 0.75 * u2 - 0.125 * u2 * u2)


def _smooth_abs(s: np.ndarray, r0: float) -> np.ndarray:
    a = np.abs(s)
    return np.where(a >= r0, a, _smooth_abs_poly(s * s, r0))


def _smooth_abs_d1(s: np.ndarray, r0: float) -> np.ndarray:
    a = np.abs(s)
    inner = (1.5 / r0 - 0.5 * s * s / r0**3) * s
    return np.where(a >= r0, np.sign(s), inner)


def interval_domain(a: float, b: float) -> SmoothDomain:
    """The interval (a, b) with phi = mollified signed distance to the boundary
    and boundary band ``BOUNDARY_TOL`` (b - a)."""
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got ({a}, {b})")
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    r0 = half / 4.0

    def phi(x: np.ndarray) -> np.ndarray:
        s = np.asarray(x, dtype=float)[..., 0] - mid
        return half - _smooth_abs(s, r0)

    def grad(x: np.ndarray) -> np.ndarray:
        s = np.asarray(x, dtype=float)[..., 0] - mid
        return (-_smooth_abs_d1(s, r0))[..., None]

    def project(x: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), a, b)

    return SmoothDomain(dim=1, phi=phi, grad_phi=grad, project_fn=project,
                        boundary_tol=BOUNDARY_TOL * (b - a))


def ball_domain(center, radius: float) -> SmoothDomain:
    """Ball of given center and radius, phi = radius - |x - c| mollified near c,
    and boundary band ``BOUNDARY_TOL`` 2 radius."""
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if radius <= 0 or not np.isfinite(radius):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    dim = c.shape[0]
    r0 = radius / 4.0

    def rho(x: np.ndarray) -> np.ndarray:
        return np.linalg.norm(np.asarray(x, dtype=float) - c, axis=-1)

    def phi(x: np.ndarray) -> np.ndarray:
        return radius - _smooth_abs(rho(x), r0)

    def grad(x: np.ndarray) -> np.ndarray:
        xv = np.asarray(x, dtype=float)
        diff = xv - c
        r = np.linalg.norm(diff, axis=-1)
        outer_region = r >= r0
        # smooth branch: phi = radius - r0 q(r / r0), with q polynomial in (r/r0)^2,
        # so the gradient is an analytic multiple of (x - c) that vanishes at c.
        inner_coef = -(1.5 / r0 - 0.5 * r * r / r0**3)
        with np.errstate(invalid="ignore", divide="ignore"):
            outer_coef = np.where(r > 0, -1.0 / np.where(r > 0, r, 1.0), 0.0)
        coef = np.where(outer_region, outer_coef, inner_coef)
        return coef[..., None] * diff

    def project(x: np.ndarray) -> np.ndarray:
        xv = np.asarray(x, dtype=float)
        diff = xv - c
        r = np.linalg.norm(diff, axis=-1)
        outside = r > radius
        scale = np.where(outside, radius / np.where(r > 0, r, 1.0), 1.0)
        return c + scale[..., None] * diff

    return SmoothDomain(dim=dim, phi=phi, grad_phi=grad, project_fn=project,
                        boundary_tol=BOUNDARY_TOL * (2 * radius))


def make_domain(spec: dict) -> SmoothDomain:
    """Build a named built-in domain from a config mapping; a missing or
    non-numeric size is a ValueError naming its field."""
    kind = spec.get("kind")

    def size(name: str) -> float:
        if name not in spec:
            raise ValueError(f"{kind} domain needs field {name!r}")
        try:
            return float(spec[name])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name}: {spec[name]!r} cannot be read as float") from exc

    if kind == "interval":
        return interval_domain(size("a"), size("b"))
    if kind == "ball":
        return ball_domain(spec.get("center", [0.0]), size("r"))
    raise ValueError(f"unknown domain kind: {kind!r} (supported: interval, ball)")
