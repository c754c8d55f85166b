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

from .catalog import number

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
        """The monomials of (..., m) points, by total degree, each a lower
        one times a coordinate, written into one (..., p) design."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        m = pts.shape[-1]
        design = np.empty(pts.shape[:-1] + (self.feature_count(m),))
        design[..., 0] = 1.0
        col = 1
        prev: list[tuple[np.ndarray, int]] = [(design[..., 0], -1)]
        for _ in range(self.degree):
            nxt: list[tuple[np.ndarray, int]] = []
            for mono, last in prev:
                for j in range(max(last, 0), m):
                    nxt.append((np.multiply(mono, pts[..., j], out=design[..., col]), j))
                    col += 1
            prev = nxt
        return design


def make_basis(spec: dict):
    """Basis from a config fragment like {kind: polynomial, degree: 3}; a size
    that is not a whole number is a ValueError naming its field."""
    kind = spec.get("kind", "polynomial")
    if kind == "polynomial":
        return PolynomialBasis(number(int, spec.get("degree", 3), "degree"))
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
    scenarios on the leading axis; the orthonormal basis, held as a
    C-contiguous (scenarios, rank) array, is all the projector keeps: it
    fits targets on its own training rows and reads no new points.

    ``stack`` builds the projectors of a block of steps in one pass, each
    bit-identical to its own ``DesignProjector(points[c], basis)``: the
    monomials are the same products, the column sums run over the
    scenarios in row order as in the per-step (S, p) reduction, and one
    stacked SVD runs the same LAPACK routine on each step's design.  It
    leaves to the per-step build (a ``None`` entry) any step whose build
    would raise, so the error comes from the per-step build at that step.
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
        _, centered, std, keep = _centre(design)
        u, sv, _ = np.linalg.svd(_standardized(centered, std, keep), full_matrices=False)
        self._freeze(basis, u, sv)

    def _freeze(self, basis, u, sv) -> None:
        """Keep the left singular vectors above the cutoff."""
        retain = sv > RCOND * sv[0]
        rank = int(np.count_nonzero(retain))
        if rank == 0:
            raise RegressionRankError(
                f"design matrix of basis {basis.name} has rank 0")
        self.scenario_count = u.shape[0]
        self.rank = rank
        # the thin SVD's u is C-contiguous already (per step, also in a stack)
        self._u = u if rank == sv.size else np.ascontiguousarray(u[:, retain])

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
        if s < MIN_SCENARIO_RATIO * p:
            return [None] * c_steps
        per = max(1, BLOCK_BYTES // (8 * s * p))
        if per < c_steps:
            return [proj for lo in range(0, c_steps, per)
                    for proj in cls.stack(points[lo:lo + per], basis)]
        # scenario-major block design (S, C, p): each step's column sums then
        # run over the rows in order, as in its own (S, p) reduction.  A
        # non-finite design makes its column sums non-finite: such steps (and
        # any whose finite sums overflow) go to the per-step build, which
        # rejects a non-finite design before any of this arithmetic, so the
        # block build warns of nothing here
        design = basis.features(np.swapaxes(points, 0, 1))
        with np.errstate(invalid="ignore", over="ignore"):
            mean, centered, std, keep = _centre(design)

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
                u, sv, _ = np.linalg.svd(np.swapaxes(a, 0, 1), full_matrices=False)
            except np.linalg.LinAlgError:
                continue
            for k, c in enumerate(steps):
                proj = cls.__new__(cls)
                try:
                    proj._freeze(basis, u[k], sv[k])
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


def _centre(design: np.ndarray):
    """(column means, the design centred in place, column stds, kept columns)
    over the leading scenario axis, by numpy's own mean/std reductions."""
    s = design.shape[0]
    mean = np.add.reduce(design, axis=0) / s
    centered = np.subtract(design, mean, out=design)
    std = np.sqrt(np.add.reduce(centered * centered, axis=0) / s)
    return mean, centered, std, std > 1e-12 * (1.0 + np.abs(mean))


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
    with its own node's projector.  When every node's basis has the same
    rank r, the bases are held as one (N, S, r) stack and a fit is two
    stacked products, which run each node's products of
    `DesignProjector.fit` and give its bits; otherwise each block is fitted
    on its own contiguous (S, ...) slice.
    """

    def __init__(self, projectors: list[DesignProjector]) -> None:
        self.projectors = projectors
        self._stack = None
        if len({proj.rank for proj in projectors}) == 1:
            self._stack = np.stack([proj._u for proj in projectors])

    def fit(self, targets: np.ndarray) -> np.ndarray:
        s = self.projectors[0].scenario_count
        if self._stack is not None:
            targets = np.asarray(targets, dtype=float)
            blocks = targets.reshape(len(self.projectors), s, -1)
            fitted = self._stack @ (np.swapaxes(self._stack, 1, 2) @ blocks)
            return fitted.reshape(targets.shape)
        fitted = np.empty(np.shape(targets))
        for n, proj in enumerate(self.projectors):
            fitted[n * s:(n + 1) * s] = proj.fit(targets[n * s:(n + 1) * s])
        return fitted

