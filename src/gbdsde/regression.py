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
# `orthonormal_bases` builds them in pieces whose design takes at most
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
    """Repeated least-squares fits of the node-major rows of one step.

    The rows are N blocks of S scenarios (N = 1 but for the field solver's
    node blocks), and each block is projected on its own kept orthonormal
    basis from `orthonormal_bases`.  ``fit`` is then two matrix products and
    an exact orthogonal projection, so refitting fitted values reproduces
    them to round-off; it fits targets on the training rows and reads no new
    points.  One basis is held as a C-contiguous (S, r) array, N bases of
    one rank as one (N, S, r) stack whose stacked products run each block's
    own products, and bases of mixed ranks as a list fitted block by block.
    ``rank`` is the rank of the projection, summed over the blocks.
    """

    def __init__(self, feature_points: np.ndarray, basis) -> None:
        """The projector of one block's (S, m) feature points, or the error of its build."""
        self._hold(orthonormal_bases(np.asarray(feature_points, dtype=float)[None], basis))

    @classmethod
    def _of(cls, bases: list) -> DesignProjector:
        """The projector of one step's N bases; raises the first one's error."""
        proj = cls.__new__(cls)
        proj._hold(bases)
        return proj

    def _hold(self, bases: list) -> None:
        for u in bases:
            if isinstance(u, Exception):
                raise u
        self.nodes, self.scenario_count = len(bases), bases[0].shape[0]
        self.rank = sum(u.shape[1] for u in bases)
        if len(bases) == 1:
            self._u = bases[0]
        elif len({u.shape[1] for u in bases}) == 1:
            self._u = np.stack(bases)
        else:
            self._u = bases

    def fit(self, targets: np.ndarray) -> np.ndarray:
        targets = np.asarray(targets, dtype=float)
        s = self.scenario_count
        if targets.shape[0] != self.nodes * s:
            raise ValueError(
                f"{targets.shape[0]} targets for {self.nodes * s} feature rows")
        if not isinstance(self._u, list):
            return _project(self._u, targets)
        fitted = np.empty(targets.shape)
        for n, u in enumerate(self._u):
            fitted[n * s:(n + 1) * s] = _project(u, targets[n * s:(n + 1) * s])
        return fitted


def _project(u: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """``u uᵀ targets`` for one (S, r) basis or an (N, S, r) stack of them."""
    flat = targets.reshape(u.shape[:-2] + (u.shape[-2], -1))
    return (u @ (np.swapaxes(u, -1, -2) @ flat)).reshape(targets.shape)


def orthonormal_bases(points: np.ndarray, basis) -> list:
    """The kept orthonormal bases of C designs from their (C, S, m) feature points.

    Entry c is the C-contiguous (S, r) left singular vectors above the
    relative cutoff of design c, standardized (numerically constant
    columns dropped, the intercept kept), or the error its build raises:
    a ValueError for too few scenarios, a RegressionRankError for a
    non-finite design or rank 0, the LinAlgError of a failed SVD.

    The standardization reproduces numpy's ``mean``/``std`` bit for bit
    while centring the design once: the monomials are built scenario-major,
    (S, C, p), so each design's column sums run over its rows in order, as
    in its own (S, p) reduction.  Designs sharing a set of kept columns
    share one stacked SVD call, which runs the same LAPACK routine on each;
    when it fails, the group's designs are retried one at a time, so only a
    failing design carries the error.  A block whose design would exceed
    ``BLOCK_BYTES`` is built in pieces.
    """
    points = np.asarray(points, dtype=float)
    c_steps, s, m = points.shape
    p = basis.feature_count(m)
    if s < MIN_SCENARIO_RATIO * p:
        return [ValueError(
            f"need >= {MIN_SCENARIO_RATIO}x more scenarios than basis functions "
            f"({s} scenarios, {p} functions of {basis.name})")] * c_steps
    per = max(1, BLOCK_BYTES // (8 * s * p))
    if per < c_steps:
        return [u for lo in range(0, c_steps, per)
                for u in orthonormal_bases(points[lo:lo + per], basis)]
    design = basis.features(np.swapaxes(points, 0, 1))
    # a column whose sum is not finite is dropped, with no warning where
    # finite entries overflow; a non-finite design has such a column, so only
    # those steps are checked, on features rebuilt (the design is centred in
    # place)
    with np.errstate(invalid="ignore", over="ignore"):
        mean = np.add.reduce(design, axis=0) / s
        centered = np.subtract(design, mean, out=design)
        std = np.sqrt(np.add.reduce(centered * centered, axis=0) / s)
        keep = std > 1e-12 * (1.0 + np.abs(mean))

    out: list = [None] * c_steps
    pending = np.ones(c_steps, dtype=bool)
    for c in np.flatnonzero(~np.isfinite(mean).all(axis=1)):
        if not np.isfinite(basis.features(points[c])).all():
            out[c] = RegressionRankError(f"non-finite feature values in basis {basis.name}")
            pending[c] = False
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
        designs = np.swapaxes(a, 0, 1)
        try:
            u, sv, _ = np.linalg.svd(designs, full_matrices=False)
        except np.linalg.LinAlgError:
            for c, one in zip(steps, designs):
                try:
                    u, sv, _ = np.linalg.svd(one, full_matrices=False)
                except np.linalg.LinAlgError as err:
                    out[c] = err
                else:
                    out[c] = _kept(u, sv, basis)
            continue
        for k, c in enumerate(steps):
            out[c] = _kept(u[k], sv[k], basis)
    return out


def _kept(u: np.ndarray, sv: np.ndarray, basis):
    """The left singular vectors above the cutoff, or the rank-0 error."""
    retain = sv > RCOND * sv[0]
    rank = int(np.count_nonzero(retain))
    if rank == 0:
        return RegressionRankError(f"design matrix of basis {basis.name} has rank 0")
    # the thin SVD's u is C-contiguous already (per design, also in a stack)
    return u if rank == sv.size else np.ascontiguousarray(u[:, retain])


def projector_walk(points_of, basis, steps: range, nodes: int = 1):
    """Yield (i, projector) for every step i of ``steps``, in its order.

    ``points_of(lo, hi)`` returns the (hi - lo, N S, m) feature points of steps
    lo, ..., hi - 1, their rows ``nodes`` = N node-major blocks of S.  Runs of
    ``BLOCK_STEPS`` consecutive steps are built by `orthonormal_bases`, as
    (N C, S, m) points, when the walk reaches them, so only one block is
    alive at a time; a step whose build failed raises its error when reached.
    """
    for first in range(0, len(steps), BLOCK_STEPS):
        run = steps[first:first + BLOCK_STEPS]
        lo = min(run[0], run[-1])
        points = points_of(lo, max(run[0], run[-1]) + 1)
        c_steps, rows, m = points.shape
        bases = orthonormal_bases(points.reshape(c_steps * nodes, rows // nodes, m), basis)
        for i in run:
            at = (i - lo) * nodes
            yield i, DesignProjector._of(bases[at:at + nodes])
