"""Pathwise flows driven by the backward Brownian path (Doss-Sussman layer).

The scalar flow solves, along one backward-driver scenario,

    flow(t, x, y) = y + int_t^T <g(s, x, flow(s, x, y)), o dB_s>,

read from T down to t (y is the value at T), with the Stratonovich integral
realised by a Heun predictor-corrector per increment.  Its y-inverse is
obtained by monotone bracketing plus a safeguarded Illinois iteration;
nothing here depends on the inverse's own integral equation, which is only
exercised indirectly through the derivative identities.

Two evaluators are provided: `BrownianFlow` integrates every request from
scratch (exact up to the time step; used by all verification routines), and
`FlowTable` tabulates one backward sweep on a (x, y) grid and interpolates
with quintic splines (used inside backward inductions where the flow is
queried at every time step for every scenario).  The splines are numpy
alone: the knots are FITPACK's interpolation knots, every time slice is
fitted in one batched collocation solve, and evaluation runs through
per-span Taylor matrices of the B-spline basis built by the Cox-de Boor
recursion (piecewise polynomial form, de Boor, *A Practical Guide to
Splines*).  The interpolant is unique once the knots are fixed, so this is
FITPACK's spline up to rounding, without `scipy.interpolate` and its import
footprint.

`BrownianFlow` differentiates on one stencil table (`_stencil_offsets`); the
operator check evaluates its direct side through `_direct_operator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .geometry import SmoothDomain
from .problems import CoefficientSet


# a flow state above this in absolute value is a blow-up (`BrownianFlow.solve`)
OVERFLOW_GUARD = 1e12
# `BrownianFlow.invert`: the initial bracket's half-width, the number of times
# it may double, and the Illinois iterations within it
BRACKET_PAD = 1.0
MAX_EXPAND = 60
MAX_ILLINOIS = 80


def _increment(g: np.ndarray, db: list[float]) -> np.ndarray:
    """<g, dB> of the (n, d) slopes g: g[:, 0] dB_0 + g[:, 1] dB_1 + ...,
    summed in this order row by row.  A BLAS matrix-vector product could
    round a row differently by its position in the batch when d > 1."""
    inc = g[:, 0] * db[0]
    for k in range(1, len(db)):
        inc += g[:, k] * db[k]
    return inc


class FlowBlowup(RuntimeError):
    """Raised when the flow integration exceeds the overflow guard."""


class InversionError(RuntimeError):
    """Raised when no monotone bracket could be established for the inverse."""


def spde_noise_coefficient(coeffs: CoefficientSet) -> Callable:
    """Adapt the (t, x, y, z) matrix-valued g of a coefficient set to the
    scalar-flow signature (t, x, y) -> (..., d)."""

    def g_flow(t, x, y):
        y_arr = np.asarray(y, dtype=float)
        z = np.zeros(y_arr.shape + (coeffs.n, coeffs.d))
        out = coeffs.g(t, x, y_arr[..., None], z)
        return out[..., 0, :]

    return g_flow


def _stencil_offsets(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit offsets (P, m) in x and (P,) in y of the central-difference stencil.

    The order is the centre; x_j +- for each j; y +-; (x_j +-, y +-) for each
    j; (x_j +-, x_k +-) for each j < k; + comes before -, the outer sign first.
    """
    e, zero, signs = np.eye(m), np.zeros(m), (1.0, -1.0)
    ox = ([zero] + [s * e[j] for j in range(m) for s in signs] + [zero, zero]
          + [s * e[j] for j in range(m) for s in signs for _ in signs]
          + [sj * e[j] + sk * e[k] for j, k in combinations(range(m), 2)
             for sj in signs for sk in signs])
    oy = [0.0] * (2 * m + 1) + [*signs] + [*signs] * (2 * m) + [0.0] * (2 * m * (m - 1))
    return np.array(ox), np.array(oy)


class BrownianFlow:
    """Exact-per-request flow evaluator bound to one backward scenario.

    Parameters
    ----------
    g : callable (t, x, y) -> (..., d)
        Noise coefficient; x has shape (..., m) or None, y shape (...,).
        It returns a fresh writable array of shape y.shape + (d,), which the
        sweep overwrites.  If the callable exposes ``bind_x(x)`` it is used
        to pre-reduce the x-dependence once per live prefix of a request
        (worth it for trig-heavy g).
    b_path : array (T+1, d)
        One scenario of the backward driver.
    grid : TimeGrid
    fd_step : float
        Base step for finite-difference derivatives (scaled by 1 + |y|).
    lipschitz_hint : float, optional
        Estimate of the y-Lipschitz constant of g; increments with
        |dB| * hint > 0.5 are substepped along the straight line.
    """

    def __init__(self, g: Callable, b_path: np.ndarray, grid, fd_step: float = 1e-4,
                 lipschitz_hint: float | None = None) -> None:
        b_path = np.asarray(b_path, dtype=float)
        if b_path.ndim == 1:
            b_path = b_path[:, None]
        if b_path.shape[0] != len(grid):
            raise ValueError("backward path length does not match grid")
        self.g = g
        self.b_path = b_path
        self.grid = grid
        self.fd_step = fd_step
        db = np.diff(b_path, axis=0)
        if lipschitz_hint is not None and lipschitz_hint > 0:
            db_norm = np.linalg.norm(db, axis=1)
            substeps = np.maximum(1, np.ceil(db_norm * lipschitz_hint / 0.5).astype(int))
        else:
            substeps = np.ones(grid.step_count, dtype=int)
        # per-step invariants of the sweep: (t_i, t_{i+1}, dB_i / m_i, m_i),
        # the subincrement as a list of its d components
        times = grid.points
        self._steps = list(zip(times[:-1], times[1:], (db / substeps[:, None]).tolist(),
                               substeps.tolist()))

    # -- integration ------------------------------------------------------

    def _g_bound(self, x):
        if hasattr(self.g, "bind_x"):
            return self.g.bind_x(x)
        return lambda t, y: self.g(t, x, y)

    def solve(self, t_index, x: np.ndarray | None, y: np.ndarray,
              store: bool = False) -> np.ndarray:
        """Integrate the flow from T down to t_index for a batch of seeds.

        y holds the values at the final time.  ``t_index`` is an integer or
        an integer array broadcastable against y; each batch element is read
        off at its own time index within a single backward sweep, and a
        scalar is the case of one index for the whole batch.  With ``store``,
        for a scalar index only, the whole trajectory from t_index to T is
        returned, ordered forward in time.  Every index must lie in
        [0, step_count]; others raise ValueError.

        A step integrates only the elements still to be read out.  The batch
        is stable-sorted by index once, so those elements form a prefix of
        it (the live prefix), and g is bound to the prefix's x.  When a step
        reaches some elements' index, they are copied out and the prefix
        shrinks; the results go back to the caller's order at the end.  Every
        operation is elementwise, the increment <g, dB> included (see
        `_increment`), so every value has the bits of a sweep of its own.

        The step times, the (sub)increments dB_i / m_i and the substep
        counts m_i are fixed by the backward path and precomputed at
        construction; a step only runs its Heun updates.  After every step
        the overflow guard raises `FlowBlowup`, naming the step index, if
        any live |state| entry (inf included) exceeds ``OVERFLOW_GUARD``.  An
        element is not integrated below its own index, so it cannot trip the
        guard there.  NaN entries are skipped by the guard, so a NaN state
        does not trip it.
        """
        y = np.asarray(y, dtype=float)
        step_count = self.grid.step_count
        t_index = np.asarray(t_index, dtype=int)
        if store and t_index.ndim:
            raise ValueError("store is not supported with per-element time indices")
        stop = int(t_index.min()) if t_index.size else step_count
        if stop < 0 or (t_index.size and t_index.max() > step_count):
            raise ValueError(f"time indices must lie in [0, {step_count}]")
        t_flat = np.broadcast_to(t_index, y.shape).ravel()
        order = np.argsort(t_flat, kind="stable")
        # the live prefix's length once the sweep has reached index stop + k
        live_after = np.searchsorted(t_flat[order], np.arange(stop, step_count + 1)).tolist()
        state = y.ravel()[order]
        if x is not None:
            x = np.asarray(x)
            x = np.broadcast_to(x, y.shape + x.shape[-1:]).reshape(y.size, x.shape[-1])[order]
        out = np.empty(y.size)
        g = self._g_bound(x)
        traj = np.empty((step_count + 1 - stop,) + y.shape) if store else None
        steps = self._steps
        for i in range(step_count, stop - 1, -1):
            if i < step_count:
                t_left, t_right, db_sub, m = steps[i]
                # Heun predictor-corrector per (sub)increment, read backwards;
                # the slope average is formed in g_left's own storage
                for _ in range(m):
                    g_right = g(t_right, state)
                    pred = state + _increment(g_right, db_sub)
                    g_left = g(t_left, pred)
                    g_left += g_right
                    g_left *= 0.5
                    state += _increment(g_left, db_sub)
                # fmax skips NaN, so NaN entries neither trip nor mask the guard
                if state.size and np.fmax.reduce(np.abs(state)) > OVERFLOW_GUARD:
                    raise FlowBlowup(f"flow exceeded overflow guard at step {i}")
            if store:  # a scalar index: the stable sort kept the caller's order
                traj[i - stop] = state.reshape(y.shape)
            # the elements whose index is i are the live prefix's tail
            live = live_after[i - stop]
            if live < state.size:
                out[order[live:state.size]] = state[live:]
                state = state[:live]
                g = self._g_bound(None if x is None else x[:live])
        return traj if store else out.reshape(y.shape)

    # -- derivatives ------------------------------------------------------

    def _stencil(self, x: np.ndarray, y: np.ndarray):
        """Finite-difference stencil points around (x, y), stacked on axis 0
        in the order of `_stencil_offsets`, and the steps hx (..., m), hy (...)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        hy = self.fd_step * (1.0 + np.abs(y))
        hx = self.fd_step * (1.0 + np.abs(x))
        ox, oy = _stencil_offsets(x.shape[-1])
        ox = ox.reshape(ox.shape[:1] + (1,) * (x.ndim - 1) + ox.shape[1:])
        oy = oy.reshape(oy.shape + (1,) * y.ndim)
        return x + hx * ox, y + hy * oy, hx, hy

    @staticmethod
    def _assemble(vals: np.ndarray, hx: np.ndarray, hy: np.ndarray) -> dict:
        """Central differences from the stencil values ``vals`` (P, ...)."""
        m, shape, v0 = hx.shape[-1], vals.shape[1:], vals[0]
        vx = vals[1:2 * m + 1].reshape((m, 2) + shape)        # x_j +, x_j -
        vy = vals[2 * m + 1:2 * m + 3]                         # y +, y -
        vxy = vals[2 * m + 3:6 * m + 3].reshape((m, 4) + shape)
        vxx = vals[6 * m + 3:].reshape((-1, 4) + shape)       # pairs j < k
        dxx = np.empty(shape + (m, m))
        diag = np.arange(m)
        dxx[..., diag, diag] = np.moveaxis(vx[:, 0] - 2.0 * v0 + vx[:, 1], 0, -1) / hx**2
        for (j, k), (vpp, vpm, vmp, vmm) in zip(combinations(range(m), 2), vxx):
            dxx[..., j, k] = dxx[..., k, j] = (vpp - vpm - vmp + vmm) / (
                4.0 * hx[..., j] * hx[..., k])
        return {
            "value": v0,
            "dx": np.moveaxis(vx[:, 0] - vx[:, 1], 0, -1) / (2.0 * hx),
            "dy": (vy[0] - vy[1]) / (2.0 * hy),
            "dxx": dxx,
            "dxy": (np.moveaxis(vxy[:, 0] - vxy[:, 1] - vxy[:, 2] + vxy[:, 3], 0, -1)
                    / (4.0 * hx * hy[..., None])),
            "dyy": (vy[0] - 2.0 * v0 + vy[1]) / hy**2,
        }

    def derivs(self, t_index, x: np.ndarray, y: np.ndarray) -> dict:
        """Value and central-difference derivatives of the flow at (t, x, y).

        Returns a dict with value (...,), dx (..., m), dy (...,),
        dxx (..., m, m), dxy (..., m), dyy (...,).
        """
        batch_x, batch_y, hx, hy = self._stencil(x, y)
        return self._assemble(self.solve(t_index, batch_x, batch_y), hx, hy)

    # -- inversion --------------------------------------------------------

    def _residuals(self, t_index, x, target: np.ndarray, *seeds: np.ndarray) -> list:
        """flow(t, x, seed) - target for each seed array, from one sweep.

        The seeds are stacked on a new leading axis, with x repeated
        alongside; the time indices broadcast against the stack.  The sweep
        is elementwise (for d > 1 up to the rounding noted in `solve`), so
        each result equals that of a sweep of its own.
        """
        batch = (len(seeds),) + target.shape
        if x is not None:
            x = np.asarray(x, dtype=float)
            x = np.broadcast_to(x, batch + x.shape[-1:]).copy()
        return [v - target for v in self.solve(t_index, x, np.stack(seeds))]

    def invert(self, t_index, x: np.ndarray | None, target: np.ndarray,
               guess: np.ndarray | None = None) -> np.ndarray:
        """Solve flow(t, x, .) = target by bracketing plus Illinois iteration.

        The flow is strictly increasing in y, so a sign-changing bracket
        pins the root; the returned value satisfies
        |flow(t, x, result) - target| <= 1e-10 (1 + |target|).  Both ends of
        the initial bracket are integrated in one sweep (`_residuals`).
        """
        target = np.asarray(target, dtype=float)
        center = target.copy() if guess is None else np.asarray(guess, dtype=float).copy()
        lo = center - BRACKET_PAD
        hi = center + BRACKET_PAD
        f_lo, f_hi = self._residuals(t_index, x, target, lo, hi)
        width = np.full(target.shape, float(BRACKET_PAD))
        for _ in range(MAX_EXPAND):
            need_lo = f_lo > 0
            need_hi = f_hi < 0
            if not (np.any(need_lo) or np.any(need_hi)):
                break
            width = np.where(need_lo | need_hi, width * 2.0, width)
            lo = np.where(need_lo, center - width, lo)
            hi = np.where(need_hi, center + width, hi)
            if np.any(need_lo):
                f_lo = np.where(need_lo, self.solve(t_index, x, lo) - target, f_lo)
            if np.any(need_hi):
                f_hi = np.where(need_hi, self.solve(t_index, x, hi) - target, f_hi)
        if np.any(f_lo > 0) or np.any(f_hi < 0):
            raise InversionError("no monotone bracket found within the expansion budget")

        tol = 1e-10 * (1.0 + np.abs(target))
        side = np.zeros(target.shape, dtype=int)
        root = 0.5 * (lo + hi)
        for _ in range(MAX_ILLINOIS):
            denom = f_hi - f_lo
            safe = np.abs(denom) > 1e-300
            cand = np.where(
                safe, (lo * f_hi - hi * f_lo) / np.where(safe, denom, 1.0), 0.5 * (lo + hi)
            )
            eps = 1e-14 * (1.0 + np.abs(cand))
            cand = np.clip(cand, lo + eps, hi - eps)
            f_cand = self.solve(t_index, x, cand) - target
            root = cand
            if np.all(np.abs(f_cand) <= tol):
                return root
            neg = f_cand < 0
            lo = np.where(neg, cand, lo)
            f_lo = np.where(neg, f_cand, f_lo)
            hi = np.where(neg, hi, cand)
            f_hi = np.where(neg, f_hi, f_cand)
            # Illinois halving of the retained endpoint value
            stale_hi = neg & (side == 1)
            stale_lo = (~neg) & (side == -1)
            f_hi = np.where(stale_hi, 0.5 * f_hi, f_hi)
            f_lo = np.where(stale_lo, 0.5 * f_lo, f_lo)
            side = np.where(neg, 1, -1)
        raise InversionError("inverse iteration did not reach tolerance")

    def inverse_derivs(self, t_index, x: np.ndarray, w: np.ndarray,
                       guess: np.ndarray | None = None) -> dict:
        """Central-difference derivatives of the y-inverse at (t, x, w)."""
        batch_x, batch_w, hx, hy = self._stencil(x, w)
        if guess is not None:
            guess = np.broadcast_to(np.asarray(guess, dtype=float), batch_w.shape).copy()
        return self._assemble(self.invert(t_index, batch_x, batch_w, guess=guess), hx, hy)


class _SplineAxis:
    """One axis of an interpolating tensor B-spline of degree k on a grid.

    The knots are FITPACK's for interpolation (s = 0): k+1 copies of each
    end, and between them the grid points ``grid[(k+1)//2 : n-(k+1)//2]`` for
    odd k or the midpoints of the central grid intervals for even k, so the
    spline has one coefficient per grid point.  On the span [b_s, b_s + w_s]
    the k+1 B-splines that live there are polynomials in u = (x - b_s) / w_s;
    ``taylor[s]`` maps their coefficients to the coefficients of u^0, ..., u^k,
    built by the Cox-de Boor recursion run on those polynomials for every
    span at once (de Boor, *A Practical Guide to Splines*, 1978).  ``fit`` is
    the inverse of the collocation matrix on the grid: it maps values on the
    grid to the coefficients of their interpolant.  Points are assigned to
    spans as FITPACK does: a point on an inner knot belongs to the span on
    its right, the right end to the last span.
    """

    def __init__(self, grid: np.ndarray, k: int) -> None:
        n = grid.size
        half = (k + 1) // 2
        if k % 2:
            inner = grid[half:n - half]
        else:
            inner = 0.5 * (grid[half:n - half - 1] + grid[half + 1:n - half])
        self.knots = np.concatenate([np.repeat(grid[0], k + 1), inner,
                                     np.repeat(grid[-1], k + 1)])
        self.k = k
        self.coeff_count = n
        self.breaks = self.knots[k:n + 1]
        self.width = np.diff(self.breaks)
        self.taylor = self._taylor()
        self._d1 = np.arange(1, k + 1, dtype=float)
        self._d2 = self._d1[:-1] * self._d1[1:]
        self.fit = np.linalg.inv(self.matrix(grid))

    def _taylor(self) -> np.ndarray:
        """(spans, k+1, k+1): [s, p, r] is the u^p coefficient of the r-th
        B-spline alive on span s, the one of coefficient index s + r."""
        t, k = self.knots, self.k
        left = np.arange(self.width.size) + k       # knot index of each span's start
        b, w = t[left], self.width
        poly = np.zeros((left.size, k + 1, k + 1))
        poly[:, 0, 0] = 1.0
        for p in range(1, k + 1):
            # N_{i,p} = (x - t_i) / (t_{i+p} - t_i) N_{i,p-1}
            #         + (t_{i+p+1} - x) / (t_{i+p+1} - t_{i+1}) N_{i+1,p-1},
            # with x = b + w u and i = left - p + r; column r of poly holds
            # N_{left-p+1+r, p-1}, so N_{i,p-1} is column r-1 and N_{i+1,p-1} r
            new = np.zeros_like(poly)
            for r in range(p + 1):
                i = left - p + r
                if r >= 1:
                    d = t[i + p] - t[i]
                    new[:, :, r] += ((b - t[i]) / d)[:, None] * poly[:, :, r - 1]
                    new[:, 1:, r] += (w / d)[:, None] * poly[:, :-1, r - 1]
                if r < p:
                    d = t[i + p + 1] - t[i + 1]
                    new[:, :, r] += ((t[i + p + 1] - b) / d)[:, None] * poly[:, :, r]
                    new[:, 1:, r] -= (w / d)[:, None] * poly[:, :-1, r]
            poly = new
        return poly

    def basis(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Span index (N,) and the 0th-2nd derivatives (N, 3, k+1) of the
        span's k+1 B-splines at the points x (N,), which lie in the domain."""
        k = self.k
        span = np.searchsorted(self.breaks, x, side="right") - 1
        np.clip(span, 0, self.width.size - 1, out=span)
        width = self.width[span]
        u = (x - self.breaks[span]) / width
        # rows[:, p, i] = d^p/dx^p u^i; entries with i < p stay zero
        rows = np.zeros((x.size, 3, k + 1))
        rows[:, 0, 0] = 1.0
        for i in range(1, k + 1):
            rows[:, 0, i] = rows[:, 0, i - 1] * u
        rows[:, 1, 1:] = rows[:, 0, :k] * (self._d1 / width[:, None])
        rows[:, 2, 2:] = rows[:, 0, :k - 1] * (self._d2 / (width * width)[:, None])
        return span, rows @ self.taylor[span]

    def matrix(self, x: np.ndarray) -> np.ndarray:
        """(N, coeff_count): the value of every B-spline at the points x (N,)."""
        span, rows = self.basis(x)
        out = np.zeros((x.size, self.coeff_count))
        np.put_along_axis(out, span[:, None] + np.arange(self.k + 1), rows[:, 0], axis=1)
        return out


def _tensor_partials(coeffs: np.ndarray, ax: _SplineAxis, ay: _SplineAxis,
                     x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(N, 3, 3): [:, p, q] is d^(p+q) s / dx^p dy^q at the points (x, y) of
    the tensor spline with coefficients (ax.coeff_count, ay.coeff_count).

    One span search per axis, one gather of each point's (kx+1) x (ky+1)
    coefficient patch and one batched contraction with the Taylor rows.
    """
    span_x, basis_x = ax.basis(x)
    span_y, basis_y = ay.basis(y)
    offsets = (np.arange(ax.k + 1)[:, None] * ay.coeff_count + np.arange(ay.k + 1)).ravel()
    patch = coeffs.take((span_x * ay.coeff_count + span_y)[:, None] + offsets)
    patch = patch.reshape(-1, ax.k + 1, ay.k + 1)
    return basis_x @ patch @ np.swapaxes(basis_y, 1, 2)


class FlowTable:
    """Tabulated flow on a (x, y) grid with quintic-spline evaluation.

    One backward sweep integrates a full grid of seeds and records every
    intermediate time slice, so values of the flow at arbitrary (t_i, x, y)
    come from interpolation instead of fresh integrations.  Only 1-D spatial
    domains are tabulated; higher dimensions fall back to `BrownianFlow`.
    A non-finite tabulated value raises `FlowBlowup`.

    Every slice is interpolated by a tensor spline of degree min(5, points -
    1) per axis on the same grids, so all slices share one pair of axes
    (`_SplineAxis`) and are fitted together at construction: the
    coefficients are ``Ax^-1 @ values @ Ay^-T`` for the collocation matrices
    Ax, Ay.  The result is FITPACK's interpolant up to rounding.  `derivs`
    evaluates the value and its five partials in one pass through the
    per-span Taylor form (`_tensor_partials`); a linear axis gives zero
    second derivatives.

    The y-inverse is tabulated per time slice, at each `invert`, by monotone
    re-gridding: the slice's spline evaluated on the x grid times a 4x
    oversampled y grid, a piecewise-linear inversion per x column onto
    ``u_grid``, then an interpolating spline on x_grid x u_grid.
    """

    def __init__(self, flow: BrownianFlow, x_grid: np.ndarray, y_grid: np.ndarray) -> None:
        x_grid = np.asarray(x_grid, dtype=float)
        y_grid = np.asarray(y_grid, dtype=float)
        if x_grid.ndim != 1 or y_grid.ndim != 1:
            raise ValueError("tabulation grids must be one-dimensional")
        self.flow = flow
        self.grid = flow.grid
        self.x_grid = x_grid
        self.y_grid = y_grid
        xs, ys = np.meshgrid(x_grid, y_grid, indexing="ij")
        traj = flow.solve(0, xs.ravel()[:, None], ys.ravel(), store=True)
        values = traj.reshape(len(self.grid), x_grid.size, y_grid.size)
        bad = np.count_nonzero(~np.isfinite(values))
        if bad:
            raise FlowBlowup(f"flow table has {bad} non-finite tabulated values")
        if np.any(np.diff(values, axis=2) <= 0):
            raise InversionError("tabulated flow is not strictly increasing in y")
        self._x_axis = _SplineAxis(x_grid, min(5, x_grid.size - 1))
        self._y_axis = _SplineAxis(y_grid, min(5, y_grid.size - 1))
        self.coeffs = self._x_axis.fit @ values @ self._y_axis.fit.T
        # common inverse range across x columns, slightly shrunk for safety
        lo = float(values[:, :, 0].max())
        hi = float(values[:, :, -1].min())
        if lo >= hi:
            raise InversionError("flow table has no common invertible range")
        pad = 1e-9 * (hi - lo)
        self.u_grid = np.linspace(lo + pad, hi - pad, y_grid.size)
        self._u_axis = _SplineAxis(self.u_grid, self._y_axis.k)
        # re-grid through a 4x oversampled monotone value table so the
        # piecewise-linear inversion error stays below the spline's own
        self._fine_y = np.linspace(y_grid[0], y_grid[-1], 4 * y_grid.size)
        self._fine_basis = (self._x_axis.matrix(x_grid), self._y_axis.matrix(self._fine_y).T)

    def _inverse(self, t_index: int) -> np.ndarray:
        """The coefficients of the slice's y-inverse on x_grid x u_grid."""
        on_x, on_fine_y = self._fine_basis
        fine_vals = on_x @ self.coeffs[t_index] @ on_fine_y
        inv = np.array([np.interp(self.u_grid, column, self._fine_y) for column in fine_vals])
        return self._x_axis.fit @ inv @ self._u_axis.fit.T

    def _clipped(self, x: np.ndarray, y: np.ndarray,
                 y_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x and y flattened and clipped to the ranges of x_grid and y_grid."""
        return (np.clip(np.asarray(x, dtype=float).reshape(-1), self.x_grid[0], self.x_grid[-1]),
                np.clip(np.asarray(y, dtype=float).reshape(-1), y_grid[0], y_grid[-1]))

    def derivs(self, t_index: int, x: np.ndarray, y: np.ndarray) -> dict:
        """Spline derivatives matching BrownianFlow.derivs for 1-D x.

        Points are clipped to the grid; x has shape (..., 1) and y the batch
        shape (...).  One pass through the Taylor form gives all six entries.
        """
        shape = np.asarray(y).shape
        x1, y1 = self._clipped(np.asarray(x)[..., 0], y, self.y_grid)
        d = _tensor_partials(self.coeffs[t_index], self._x_axis, self._y_axis, x1, y1)
        return {
            "value": d[:, 0, 0].reshape(shape),
            "dx": d[:, 1, 0].reshape(shape + (1,)),
            "dy": d[:, 0, 1].reshape(shape),
            "dxx": d[:, 2, 0].reshape(shape + (1, 1)),
            "dxy": d[:, 1, 1].reshape(shape + (1,)),
            "dyy": d[:, 0, 2].reshape(shape),
        }

    def invert(self, t_index: int, x: np.ndarray, target: np.ndarray,
               dx: int = 0, dy: int = 0) -> np.ndarray:
        """The y-inverse at (t_index, x, target), or its partial of order dx in
        x and dy in the target (each at most 2); points are clipped to
        x_grid x u_grid."""
        x = np.asarray(x)
        x1, u1 = self._clipped(x[..., 0] if x.ndim >= 2 else x, target, self.u_grid)
        d = _tensor_partials(self._inverse(t_index), self._x_axis, self._u_axis, x1, u1)
        return d[:, dx, dy].reshape(np.asarray(target).shape)


# ---------------------------------------------------------------------------
# Verification: derivative identities
# ---------------------------------------------------------------------------


def _as_samples(t_indices, *arrays) -> tuple:
    """Sample time indices as an int array, then each sample array as floats."""
    return (np.asarray(t_indices, dtype=int),) + tuple(np.asarray(a, dtype=float)
                                                       for a in arrays)


def flow_derivative_identities(
    flow: BrownianFlow,
    samples: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> dict[str, float]:
    """Worst absolute violation of the five inverse-flow identities.

    ``samples`` is (t_indices, xs, ys) with t_indices (P,) int, xs (P, m),
    ys (P,).  Inverse derivatives are taken at (t, x, flow(t, x, y)) and flow
    derivatives at (t, x, y); the identities follow from differentiating
    inverse(t, x, flow(t, x, y)) = y twice.
    """
    t_idx, x, y = _as_samples(*samples)
    fd = flow.derivs(t_idx, x, y)
    ed = flow.inverse_derivs(t_idx, x, fd["value"], guess=y)
    dxe, dye = ed["dx"], ed["dy"]
    dxxe, dxye, dyye = ed["dxx"], ed["dxy"], ed["dyy"]
    dxh, dyh = fd["dx"], fd["dy"]
    dxxh, dxyh, dyyh = fd["dxx"], fd["dxy"], fd["dyy"]

    v1 = dxe + dye[..., None] * dxh
    v2 = dye * dyh - 1.0
    outer = dxh[..., :, None] * dxh[..., None, :]
    mixed = dxye[..., :, None] * dxh[..., None, :]
    v3 = (
        dxxe
        + mixed + np.swapaxes(mixed, -1, -2)
        + dyye[..., None, None] * outer
        + dye[..., None, None] * dxxh
    )
    v4 = (dxye * dyh[..., None] + dyye[..., None] * dxh * dyh[..., None]
          + dye[..., None] * dxyh)
    v5 = dyye * dyh**2 + dye * dyyh
    return {
        "inverse_grad_x": float(np.max(np.abs(v1))),
        "inverse_grad_y": float(np.max(np.abs(v2))),
        "inverse_hess_xx": float(np.max(np.abs(v3))),
        "inverse_hess_xy": float(np.max(np.abs(v4))),
        "inverse_hess_yy": float(np.max(np.abs(v5))),
    }


# ---------------------------------------------------------------------------
# Transformed coefficients and the parabolic operator
# ---------------------------------------------------------------------------


def _g_and_dyg(coeffs: CoefficientSet, t, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<g, D_y g>(t, x, y) for the scalar-flow g, via central differences of
    the fixed step 1e-6 (1 + |y|); zero when g is None."""
    if coeffs.g is None:
        return np.zeros(np.shape(y))
    g_flow = spde_noise_coefficient(coeffs)
    h = 1e-6 * (1.0 + np.abs(y))
    g0 = g_flow(t, x, y)
    dg = (g_flow(t, x, y + h) - g_flow(t, x, y - h)) / (2.0 * h[..., None])
    return np.einsum("...d,...d->...", g0, dg)


def transformed_generator(
    coeffs: CoefficientSet,
    flow_like,
    t_index,
    t,
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
) -> np.ndarray:
    """Driver of the transformed equation at (t, x, y, z).

    Divides by the y-slope of the flow, so requires strict monotonicity;
    z is the transformed control of shape (..., d).
    """
    return _generator_from_derivs(coeffs, flow_like.derivs(t_index, x, y), t, x, y, z)


def _require_increasing(dy: np.ndarray, y: np.ndarray) -> None:
    """Raise FlowBlowup unless the y-slope is positive at every y that is a
    number; a NaN slope fails too.  A NaN y is the caller's own non-finite
    value and is left to the caller's checks."""
    if np.any(~(dy > 0) & ~np.isnan(y)):
        raise FlowBlowup("flow derivative D_y <= 0 or not finite: monotonicity lost")


def _diffusion_operator(sig: np.ndarray, b: np.ndarray, grad: np.ndarray,
                        hess: np.ndarray) -> np.ndarray:
    """1/2 sigma sigma^T : D^2 + b . D applied to a field with these derivatives."""
    a_mat = np.einsum("...md,...nd->...mn", sig, sig)
    return 0.5 * np.einsum("...mn,...mn->...", a_mat, hess) + np.einsum(
        "...m,...m->...", b, grad)


def _generator_from_derivs(coeffs: CoefficientSet, dv: dict, t, x: np.ndarray,
                           y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """`transformed_generator` given the flow derivatives dv at (t, x, y)."""
    dy = dv["dy"]
    _require_increasing(dy, y)
    eta = dv["value"]
    sig = coeffs.sigma(x)                       # (..., m, d)
    b = coeffs.b(x)                             # (..., m)
    sig_t_dx = np.einsum("...md,...m->...d", sig, dv["dx"])
    big_z = sig_t_dx + dy[..., None] * z        # (..., d)
    f_val = coeffs.f(t, x, eta[..., None], big_z[..., None, :])[..., 0]
    gdg = _g_and_dyg(coeffs, t, x, eta)
    l_x_eta = _diffusion_operator(sig, b, dv["dx"], dv["dxx"])
    sig_t_dxy = np.einsum("...md,...m->...d", sig, dv["dxy"])
    cross = np.einsum("...d,...d->...", sig_t_dxy, z)
    quad = 0.5 * dv["dyy"] * np.einsum("...d,...d->...", z, z)
    return (f_val - 0.5 * gdg + l_x_eta + cross + quad) / dy


def transformed_boundary(
    coeffs: CoefficientSet,
    domain: SmoothDomain,
    flow_like,
    t_index,
    t,
    x: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """Boundary reaction of the transformed equation at a boundary point."""
    if not np.all(domain.classify(x) == "boundary"):
        raise ValueError("transformed boundary coefficient requires boundary points")
    return _boundary_from_derivs(coeffs, domain, flow_like.derivs(t_index, x, y), t, x, y)


def _boundary_from_derivs(coeffs: CoefficientSet, domain: SmoothDomain, dv: dict, t,
                          x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """`transformed_boundary` given the flow derivatives dv at (t, x, y)."""
    dy = dv["dy"]
    _require_increasing(dy, y)
    eta = dv["value"]
    h_val = coeffs.h(t, x, eta[..., None])[..., 0]
    normal = domain.grad_phi(x)
    return (h_val + np.einsum("...m,...m->...", dv["dx"], normal)) / dy


# ---------------------------------------------------------------------------
# Analytic space-time test fields and the parabolic operator
# ---------------------------------------------------------------------------


@dataclass
class AnalyticField:
    """Deterministic scalar test field with analytic derivatives."""

    fn: Callable
    grad: Callable
    hess: Callable


def trig_test_field(amp: float = 1.0, freq: float = 1.0,
                    decay: float = 0.5) -> AnalyticField:
    """amp * exp(-decay t) * sin(freq x_1 + 1/2), a generic smooth field."""

    def fn(t, x):
        return amp * np.exp(-decay * np.asarray(t)) * np.sin(freq * x[..., 0] + 0.5)

    def grad(t, x):
        out = np.zeros_like(x)
        out[..., 0] = amp * np.exp(-decay * np.asarray(t)) * freq * np.cos(
            freq * x[..., 0] + 0.5)
        return out

    def hess(t, x):
        m = x.shape[-1]
        out = np.zeros(x.shape[:-1] + (m, m))
        out[..., 0, 0] = -(freq**2) * fn(t, x)
        return out

    return AnalyticField(fn, grad, hess)


def _direct_operator(coeffs: CoefficientSet, t, x: np.ndarray, psi: np.ndarray,
                     dpsi: np.ndarray, hpsi: np.ndarray) -> np.ndarray:
    """-L psi - f(t, x, psi, sigma* Dx psi) + (1/2)<g, Dy g>(t, x, psi), given
    psi, its gradient (..., m) and its Hessian (..., m, m) at (t, x)."""
    sig = coeffs.sigma(x)
    l_psi = _diffusion_operator(sig, coeffs.b(x), dpsi, hpsi)
    sig_t_dpsi = np.einsum("...md,...m->...d", sig, dpsi)
    f_val = coeffs.f(t, x, psi[..., None], sig_t_dpsi[..., None, :])[..., 0]
    return -l_psi - f_val + 0.5 * _g_and_dyg(coeffs, t, x, psi)


def operator_identity_violations(
    coeffs: CoefficientSet,
    flow: BrownianFlow,
    base_field: AnalyticField,
    t_indices: np.ndarray,
    xs: np.ndarray,
) -> np.ndarray:
    """Relative gap between the direct-side and transformed-side operators.

    Composes psi(t, x) = flow(t, x, phi(t, x)) via the chain rule, evaluates
    the operator on psi scaled by the independently differenced inverse slope
    at psi, and compares with the g-free operator of the transformed driver
    applied to phi.  Times enter per sample; one backward sweep serves all.
    """
    t_idx, x = _as_samples(t_indices, xs)
    t = flow.grid.points[t_idx]
    phi = base_field.fn(t, x)
    dphi = base_field.grad(t, x)
    hphi = base_field.hess(t, x)
    dv = flow.derivs(t_idx, x, phi)
    psi = dv["value"]
    dpsi = dv["dx"] + dv["dy"][..., None] * dphi
    outer_mix = dv["dxy"][..., :, None] * dphi[..., None, :]
    hpsi = (
        dv["dxx"]
        + outer_mix + np.swapaxes(outer_mix, -1, -2)
        + dv["dyy"][..., None, None] * dphi[..., :, None] * dphi[..., None, :]
        + dv["dy"][..., None, None] * hphi
    )
    a_direct = _direct_operator(coeffs, t, x, psi, dpsi, hpsi)

    # independent inverse slope at (t, x, psi) by differencing the inverse
    h = flow.fd_step * (1.0 + np.abs(psi))
    inv_hi = flow.invert(t_idx, x, psi + h, guess=phi)
    inv_lo = flow.invert(t_idx, x, psi - h, guess=phi)
    dy_inv = (inv_hi - inv_lo) / (2.0 * h)
    lhs = dy_inv * a_direct

    # transformed side: -L phi - f_tilde(t, x, phi, sigma* Dx phi)
    sig = coeffs.sigma(x)
    sig_t_dphi = np.einsum("...md,...m->...d", sig, dphi)
    f_tilde = _generator_from_derivs(coeffs, dv, t, x, phi, sig_t_dphi)
    l_phi = _diffusion_operator(sig, coeffs.b(x), dphi, hphi)
    rhs = -l_phi - f_tilde
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return np.abs(lhs - rhs) / scale
