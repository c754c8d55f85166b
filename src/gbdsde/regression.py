"""Least-squares conditional expectation estimators.

The conditional expectation of a future payoff given the current state is
approximated by projecting scenario payoffs onto basis functions of the
state (Longstaff-Schwartz style).  The solve uses a truncated-SVD least
squares with relative cutoff 1e-8; the fit is therefore an orthogonal
projection, so re-projecting fitted values is the identity up to float
round-off.  Zero-variance feature columns (e.g. the state at the first time
step, which is a constant) are dropped before the solve; the intercept is
always retained, so degenerate designs reduce to the plain mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RCOND = 1e-8


class RegressionRankError(RuntimeError):
    """Design matrix lost all usable columns for the given basis."""


@dataclass(frozen=True)
class PolynomialBasis:
    """All monomials of total degree <= degree in the feature coordinates."""

    degree: int

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("degree must be >= 0")

    @property
    def name(self) -> str:
        return f"polynomial({self.degree})"

    def feature_count(self, point_dim: int) -> int:
        from math import comb

        return comb(point_dim + self.degree, self.degree)

    def features(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        s, p = pts.shape
        cols = [np.ones(s)]
        # build monomials by total degree through repeated multiplication
        prev: list[tuple[np.ndarray, int]] = [(np.ones(s), -1)]
        for _ in range(self.degree):
            nxt: list[tuple[np.ndarray, int]] = []
            for mono, last in prev:
                for j in range(max(last, 0), p):
                    term = mono * pts[:, j]
                    cols.append(term)
                    nxt.append((term, j))
            prev = nxt
        return np.column_stack(cols)


@dataclass(frozen=True)
class PiecewiseBinBasis:
    """Indicator functions of quantile bins of the first feature coordinate."""

    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("bin count must be >= 1")

    @property
    def name(self) -> str:
        return f"piecewise_bins({self.count})"

    def feature_count(self, point_dim: int) -> int:
        return self.count

    def features(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))[:, 0]
        edges = np.quantile(pts, np.linspace(0.0, 1.0, self.count + 1))
        idx = np.clip(np.searchsorted(edges, pts, side="right") - 1, 0, self.count - 1)
        design = np.zeros((pts.shape[0], self.count))
        design[np.arange(pts.shape[0]), idx] = 1.0
        if np.any(design.sum(axis=0) == 0):
            raise RegressionRankError(f"empty bin in basis {self.name}")
        return design


def make_basis(spec: dict | str):
    """Basis from a config fragment like {kind: polynomial, degree: 3}."""
    if isinstance(spec, str):
        spec = {"kind": spec}
    kind = spec.get("kind", "polynomial")
    if kind == "polynomial":
        return PolynomialBasis(int(spec.get("degree", 3)))
    if kind == "piecewise_bins":
        return PiecewiseBinBasis(int(spec.get("count", 10)))
    raise ValueError(f"unknown regression basis kind {kind!r}")


class DesignProjector:
    """Repeated least-squares fits against one frozen design matrix.

    Standardizes the features (dropping numerically-constant columns, the
    intercept always survives), then keeps an orthonormal basis of the design
    column space from a thin SVD truncated at the relative cutoff.  ``fit``
    is then two matrix products and an exact orthogonal projection, so
    refitting fitted values reproduces them to round-off.

    The standardization reproduces numpy's ``mean``/``std`` bit for bit
    while centring the design once.  ``fit`` takes and returns arrays with
    scenarios on the leading axis; the orthonormal basis is held as a
    C-contiguous (scenarios, rank) array.
    """

    def __init__(self, feature_points: np.ndarray, basis,
                 min_scenario_ratio: int = 10) -> None:
        design = basis.features(feature_points)
        s, p = design.shape
        if s < min_scenario_ratio * p:
            raise ValueError(
                f"need >= {min_scenario_ratio}x more scenarios than basis functions "
                f"({s} scenarios, {p} functions of {basis.name})"
            )
        if not np.all(np.isfinite(design)):
            raise RegressionRankError(
                f"non-finite feature values in basis {basis.name}")
        # numpy's mean/std run exactly these reductions; centring once
        # serves both the variance and the standardized design
        mean = np.add.reduce(design, axis=0) / s
        centered = design - mean
        std = np.sqrt(np.add.reduce(centered * centered, axis=0) / s)
        keep = std > 1e-12 * (1.0 + np.abs(mean))
        a = np.empty((s, 1 + np.count_nonzero(keep)))
        a[:, 0] = 1.0
        np.divide(centered[:, keep], std[keep], out=a[:, 1:])
        u, sv, _ = np.linalg.svd(a, full_matrices=False)
        retain = sv > RCOND * sv[0]
        rank = int(np.count_nonzero(retain))
        if rank == 0:
            raise RegressionRankError(
                f"design matrix of basis {basis.name} has rank 0")
        self.basis_name = basis.name
        self.scenario_count = s
        self.rank = rank
        # the thin SVD's u is C-contiguous already
        self._u = u if rank == sv.size else np.ascontiguousarray(u[:, retain])

    def fit(self, targets: np.ndarray) -> np.ndarray:
        targets = np.asarray(targets, dtype=float)
        if targets.shape[0] != self.scenario_count:
            raise ValueError(
                f"{targets.shape[0]} targets for {self.scenario_count} feature rows")
        flat = targets.reshape(self.scenario_count, -1)
        fitted = self._u @ (self._u.T @ flat)
        return fitted.reshape(targets.shape)


def conditional_expectation(
    targets: np.ndarray,
    feature_points: np.ndarray,
    basis,
    min_scenario_ratio: int = 10,
) -> np.ndarray:
    """Project per-scenario targets onto basis functions of the feature points.

    targets may be (S,) or (S, k); the fit is column-wise for the latter.
    Requires at least ``min_scenario_ratio`` scenarios per basis function.
    """
    return DesignProjector(feature_points, basis, min_scenario_ratio).fit(targets)


def fit_function(
    targets: np.ndarray,
    feature_points: np.ndarray,
    basis,
    min_scenario_ratio: int = 10,
):
    """Fit as in conditional_expectation but return an evaluator for new points."""
    targets = np.asarray(targets, dtype=float)
    design = basis.features(feature_points)
    s, _ = design.shape
    if s < min_scenario_ratio * design.shape[1]:
        raise ValueError("too few scenarios for the basis size")
    mean = design.mean(axis=0)
    std = design.std(axis=0)
    keep = std > 1e-12 * (1.0 + np.abs(mean))
    a = np.column_stack([np.ones(s), (design[:, keep] - mean[keep]) / std[keep]])
    coef, _, rank, _ = np.linalg.lstsq(a, targets, rcond=RCOND)
    if rank == 0:
        raise RegressionRankError(f"design matrix of basis {basis.name} has rank 0")

    def evaluate(points: np.ndarray) -> np.ndarray:
        new = basis.features(points)
        a_new = np.column_stack([
            np.ones(new.shape[0]), (new[:, keep] - mean[keep]) / std[keep]
        ])
        return a_new @ coef

    return evaluate
