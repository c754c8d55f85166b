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
# every fit needs at least this many scenarios per basis function
MIN_SCENARIO_RATIO = 10
# `projector_walk` fetches the feature points of this many steps at a time;
# `DesignProjector.stack` builds them in pieces whose design takes at most
# BLOCK_BYTES, so its working arrays stay small (8 steps at 1000 scenarios
# and 4 functions; one step at a time from 10^4 scenarios) and peak memory
# does not grow
BLOCK_STEPS = 16
BLOCK_BYTES = 1 << 18


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

    def edges(self, points: np.ndarray) -> np.ndarray:
        """Quantile bin edges of the first coordinate of ``points``."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))[:, 0]
        return np.quantile(pts, np.linspace(0.0, 1.0, self.count + 1))

    def features(self, points: np.ndarray, edges: np.ndarray | None = None) -> np.ndarray:
        """Bin indicators of the first coordinate against ``edges``.

        With the points' own quantile edges (the default) every bin must
        hold mass, unless the coordinate is constant: its one full bin is a
        constant column, which the projector drops to the intercept.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))[:, 0]
        own = edges is None
        if own:
            edges = self.edges(points)
        idx = np.clip(np.searchsorted(edges, pts, side="right") - 1, 0, self.count - 1)
        design = np.zeros((pts.shape[0], self.count))
        design[np.arange(pts.shape[0]), idx] = 1.0
        if own and np.ptp(pts) != 0 and np.any(design.sum(axis=0) == 0):
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

    ``evaluate`` reads the fitted function off at new points: the projector
    keeps its training standardization (column means, standard deviations,
    kept columns and a bin basis's quantile edges) and the retained SVD
    factors, so new points are never standardized or binned by themselves.

    ``stack`` builds the projectors of a block of steps in one pass, each
    bit-identical to its own ``DesignProjector(points[c], basis)``: the
    monomials are the same products, the column sums run over the
    scenarios in row order as in the per-step (S, p) reduction, and one
    stacked SVD runs the same LAPACK routine on each step's design.  It
    leaves a step to the per-step build (a ``None`` entry) where the bits
    or the semantics would differ: a single feature column (numpy sums a
    lone column pairwise), a basis other than `PolynomialBasis` (bin edges
    depend on each step's own points), and any step whose build would
    raise, so the error comes from the per-step build at that step.
    """

    def __init__(self, feature_points: np.ndarray, basis) -> None:
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
        # numpy's mean/std run exactly these reductions; centring once
        # serves both the variance and the standardized design
        mean = np.add.reduce(design, axis=0) / s
        centered = design - mean
        std = np.sqrt(np.add.reduce(centered * centered, axis=0) / s)
        keep = std > 1e-12 * (1.0 + np.abs(mean))
        u, sv, vt = np.linalg.svd(_standardized(centered, std, keep), full_matrices=False)
        edges = basis.edges(feature_points) if isinstance(basis, PiecewiseBinBasis) else None
        self._freeze(basis, edges, mean, std, keep, u, sv, vt)

    def _freeze(self, basis, edges, mean, std, keep, u, sv, vt) -> None:
        """Keep the training standardization and the SVD factors above the cutoff."""
        retain = sv > RCOND * sv[0]
        rank = int(np.count_nonzero(retain))
        if rank == 0:
            raise RegressionRankError(
                f"design matrix of basis {basis.name} has rank 0")
        self.basis_name = basis.name
        self.scenario_count = u.shape[0]
        self.rank = rank
        self._basis, self._edges = basis, edges
        self._mean, self._std, self._keep = mean, std, keep
        # the thin SVD's u is C-contiguous already (per step, also in a stack)
        self._u = u if rank == sv.size else np.ascontiguousarray(u[:, retain])
        self._sv, self._vt = (sv, vt) if rank == sv.size else (sv[retain], vt[retain])

    @classmethod
    def stack(cls, points: np.ndarray, basis) -> list[DesignProjector | None]:
        """Projectors of C steps from their (C, S, m) feature points.

        Entry c equals ``DesignProjector(points[c], basis)`` bit for bit, or
        is None where that per-step build has to run instead (see the class
        docstring).  Steps sharing a set of kept columns share one SVD call;
        a block whose design would exceed ``BLOCK_BYTES`` is built in pieces.
        """
        points = np.asarray(points, dtype=float)
        c_steps, s, m = points.shape
        p = basis.feature_count(m)
        if not isinstance(basis, PolynomialBasis) or p == 1 or s < MIN_SCENARIO_RATIO * p:
            return [None] * c_steps
        per = max(1, BLOCK_BYTES // (8 * s * p))
        if per < c_steps:
            return [proj for lo in range(0, c_steps, per)
                    for proj in cls.stack(points[lo:lo + per], basis)]
        # scenario-major block design (S, C, p): each step's column sums then
        # run over the rows in order, as in its own (S, p) reduction
        pts = np.swapaxes(points, 0, 1)
        design = np.empty((s, c_steps, p))
        design[..., 0] = 1.0
        col = 1
        prev: list[tuple[np.ndarray, int]] = [(design[..., 0], -1)]
        for _ in range(basis.degree):
            nxt: list[tuple[np.ndarray, int]] = []
            for mono, last in prev:
                for j in range(max(last, 0), m):
                    nxt.append((np.multiply(mono, pts[..., j], out=design[..., col]), j))
                    col += 1
            prev = nxt
        # a non-finite design makes its column sums non-finite: such steps
        # (and any whose finite sums overflow) go to the per-step build,
        # which rejects a non-finite design before any of this arithmetic,
        # so the block build warns of nothing here
        with np.errstate(invalid="ignore", over="ignore"):
            mean = np.add.reduce(design, axis=0) / s
            centered = np.subtract(design, mean, out=design)
            std = np.sqrt(np.add.reduce(centered * centered, axis=0) / s)
            keep = std > 1e-12 * (1.0 + np.abs(mean))

        out: list[DesignProjector | None] = [None] * c_steps
        pending = np.isfinite(mean).all(axis=1)
        while pending.any():
            mask = keep[np.argmax(pending)]
            steps = np.flatnonzero(pending & (keep == mask).all(axis=1))
            pending[steps] = False
            kept = np.flatnonzero(mask)
            a = np.empty((s, steps.size, 1 + kept.size))
            a[..., 0] = 1.0
            rows = slice(None) if steps.size == c_steps else steps
            for q, j in enumerate(kept, 1):
                np.divide(centered[:, rows, j], std[rows, j], out=a[..., q])
            try:
                u, sv, vt = np.linalg.svd(np.swapaxes(a, 0, 1), full_matrices=False)
            except np.linalg.LinAlgError:
                continue
            for k, c in enumerate(steps):
                proj = cls.__new__(cls)
                try:
                    proj._freeze(basis, None, mean[c], std[c], keep[c], u[k], sv[k], vt[k])
                except RegressionRankError:
                    continue
                out[c] = proj
        return out

    def fit(self, targets: np.ndarray) -> np.ndarray:
        targets = np.asarray(targets, dtype=float)
        if targets.shape[0] != self.scenario_count:
            raise ValueError(
                f"{targets.shape[0]} targets for {self.scenario_count} feature rows")
        flat = targets.reshape(self.scenario_count, -1)
        fitted = self._u @ (self._u.T @ flat)
        return fitted.reshape(targets.shape)

    def evaluate(self, points: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """The function fitted to ``targets`` at new points, one row each."""
        targets = np.asarray(targets, dtype=float)
        design = (self._basis.features(points) if self._edges is None
                  else self._basis.features(points, self._edges))
        a = _standardized(design - self._mean, self._std, self._keep)
        # least-squares coefficients of the standardized design: V S^-1 U^T y
        flat = targets.reshape(self.scenario_count, -1)
        coef = self._vt.T @ ((self._u.T @ flat) / self._sv[:, None])
        return (a @ coef).reshape(a.shape[:1] + targets.shape[1:])


def _standardized(centered: np.ndarray, std: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The intercept column and the kept columns of a centred design over their std."""
    a = np.empty((centered.shape[0], 1 + np.count_nonzero(keep)))
    a[:, 0] = 1.0
    np.divide(centered[:, keep], std[keep], out=a[:, 1:])
    return a


def projector_walk(points_of, basis, steps: range, nodes: int = 1):
    """Yield (i, projector) for every step i of ``steps``, in its order.

    ``points_of(lo, hi)`` returns the (hi - lo, N S, m) feature points of steps
    lo, ..., hi - 1, their rows ``nodes`` = N node-major blocks of S.  Runs of
    ``BLOCK_STEPS`` consecutive steps are built by `DesignProjector.stack`,
    as (N C, S, m) points, when the walk reaches them, so only one block is
    alive at a time; a step the block leaves out is built on its own when
    reached, raising any error of its build there.  With several nodes the
    projector is a `NodeProjectors` of the step's N projectors.
    """
    for first in range(0, len(steps), BLOCK_STEPS):
        run = steps[first:first + BLOCK_STEPS]
        lo = min(run[0], run[-1])
        points = points_of(lo, max(run[0], run[-1]) + 1)
        c_steps, rows, m = points.shape
        points = points.reshape(c_steps * nodes, rows // nodes, m)
        block = DesignProjector.stack(points, basis)
        for i in run:
            at = (i - lo) * nodes
            projs = [proj if proj is not None else DesignProjector(points[at + n], basis)
                     for n, proj in enumerate(block[at:at + nodes])]
            yield i, projs[0] if nodes == 1 else NodeProjectors(projs)


class NodeProjectors:
    """The projectors of N nodes at one step, for node-major rows.

    ``fit`` takes N S rows, N blocks of S scenarios, and fits each block
    with its own node's projector, on a contiguous (S, ...) slice.
    """

    def __init__(self, projectors: list[DesignProjector]) -> None:
        self.projectors = projectors

    def fit(self, targets: np.ndarray) -> np.ndarray:
        s = self.projectors[0].scenario_count
        fitted = np.empty(np.shape(targets))
        for n, proj in enumerate(self.projectors):
            fitted[n * s:(n + 1) * s] = proj.fit(targets[n * s:(n + 1) * s])
        return fitted


def conditional_expectation(
    targets: np.ndarray,
    feature_points: np.ndarray,
    basis,
) -> np.ndarray:
    """Project per-scenario targets onto basis functions of the feature points.

    targets may be (S,) or (S, k); the fit is column-wise for the latter.
    Requires at least ``MIN_SCENARIO_RATIO`` scenarios per basis function.
    """
    return DesignProjector(feature_points, basis).fit(targets)
