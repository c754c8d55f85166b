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
queried at every time step for every scenario).  The splines are fitted by
FITPACK; `FlowTable.derivs` evaluates the value and its five partials in one
pass from per-span Taylor matrices of the B-spline basis (piecewise
polynomial form, de Boor, *A Practical Guide to Splines*), which agrees with
FITPACK's own evaluation up to rounding: a relative drift of a few 1e-15 in
the value and up to ~1e-11 in the second x-derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Callable

import numpy as np
from scipy.interpolate import BSpline, RectBivariateSpline
from scipy.special import lambertw

from .geometry import SmoothDomain
from .problems import CoefficientSet

DERIV_KEYS = ("value", "dx", "dy", "dxx", "dxy", "dyy")


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


class BrownianFlow:
    """Exact-per-request flow evaluator bound to one backward scenario.

    Parameters
    ----------
    g : callable (t, x, y) -> (..., d)
        Noise coefficient; x has shape (..., m) or None, y shape (...,).
        If the callable exposes ``bind_x(x)`` it is used to pre-reduce the
        x-dependence once per request (worth it for trig-heavy g).
    b_path : array (T+1, d)
        One scenario of the backward driver.
    grid : TimeGrid
    fd_step : float
        Base step for finite-difference derivatives (scaled by 1 + |y|).
    lipschitz_hint : float, optional
        Estimate of the y-Lipschitz constant of g; increments with
        |dB| * hint > 0.5 are substepped along the straight line.
    """

    def __init__(
        self,
        g: Callable,
        b_path: np.ndarray,
        grid,
        fd_step: float = 1e-4,
        lipschitz_hint: float | None = None,
        overflow_guard: float = 1e12,
    ) -> None:
        b_path = np.asarray(b_path, dtype=float)
        if b_path.ndim == 1:
            b_path = b_path[:, None]
        if b_path.shape[0] != len(grid):
            raise ValueError("backward path length does not match grid")
        self.g = g
        self.b_path = b_path
        self.grid = grid
        self.fd_step = fd_step
        self.overflow_guard = overflow_guard
        db = np.diff(b_path, axis=0)
        if lipschitz_hint is not None and lipschitz_hint > 0:
            db_norm = np.linalg.norm(db, axis=1)
            substeps = np.maximum(1, np.ceil(db_norm * lipschitz_hint / 0.5).astype(int))
        else:
            substeps = np.ones(grid.step_count, dtype=int)
        # per-step invariants of the sweep: (t_i, t_{i+1}, dB_i / m_i, m_i)
        times = grid.points
        self._steps = list(zip(times[:-1], times[1:], db / substeps[:, None],
                               substeps.tolist()))

    # -- integration ------------------------------------------------------

    def _g_bound(self, x):
        if hasattr(self.g, "bind_x"):
            return self.g.bind_x(x)
        return lambda t, y: self.g(t, x, y)

    def solve(self, t_index, x: np.ndarray | None, y: np.ndarray,
              store: bool = False) -> np.ndarray:
        """Integrate the flow from T down to t_index for a batch of seeds.

        y holds the values at the final time.  ``t_index`` may be a scalar
        (returns the values at that index, or with ``store`` the whole
        trajectory ordered forward in time) or an integer array broadcastable
        against y, in which case each batch element is read off at its own
        time index within a single backward sweep.  Every index must lie in
        [0, step_count]; others raise ValueError.

        The step times, the (sub)increments dB_i / m_i and the substep
        counts m_i are fixed by the backward path and precomputed at
        construction; a step only runs its Heun updates.  After every step
        the overflow guard raises `FlowBlowup`, naming the step index, if
        any |state| entry (inf included) exceeds ``overflow_guard``; NaN
        entries are skipped by the guard, so a NaN state does not trip it.
        """
        y = np.asarray(y, dtype=float)
        state = y.copy()
        g = self._g_bound(x)
        step_count = self.grid.step_count
        guard = self.overflow_guard
        per_element = not np.isscalar(t_index) and np.asarray(t_index).ndim > 0
        hit_steps = ()
        if per_element:
            if store:
                raise ValueError("store is not supported with per-element time indices")
            t_arr = np.broadcast_to(np.asarray(t_index, dtype=int), y.shape)
            # the initial values keep an empty batch valid: it runs no step
            stop = int(t_arr.min(initial=step_count))
            if stop < 0 or t_arr.max(initial=0) > step_count:
                raise ValueError(f"time indices must lie in [0, {step_count}]")
            out = np.where(t_arr == step_count, state, np.nan)
            # one mask per distinct index, built when its step is reached:
            # building all up front would hold (distinct x batch) booleans
            hit_steps = set(np.unique(t_arr).tolist())
        else:
            out = None
            stop = int(t_index)
            if not 0 <= stop <= step_count:
                raise ValueError(f"time index {stop} outside [0, {step_count}]")
        traj = None
        if store:
            traj = np.empty((step_count + 1 - stop,) + y.shape)
            traj[-1] = state
        steps = self._steps
        for i in range(step_count - 1, stop - 1, -1):
            t_left, t_right, db_sub, m = steps[i]
            # Heun predictor-corrector per (sub)increment, read backwards.
            for _ in range(m):
                g_right = g(t_right, state)
                pred = state + g_right @ db_sub
                g_left = g(t_left, pred)
                state = state + 0.5 * (g_right + g_left) @ db_sub
            # fmax skips NaN, so NaN entries neither trip nor mask the guard
            if state.size and np.fmax.reduce(np.abs(state), axis=None) > guard:
                raise FlowBlowup(f"flow exceeded overflow guard at step {i}")
            if i in hit_steps:
                out = np.where(t_arr == i, state, out)
            if store:
                traj[i - stop] = state
        if per_element:
            return out
        return traj if store else state

    # -- derivatives ------------------------------------------------------

    def _stencil(self, x: np.ndarray, y: np.ndarray):
        """Finite-difference stencil points around (x, y), stacked on axis 0."""
        m = x.shape[-1]
        hy = self.fd_step * (1.0 + np.abs(y))
        hx = self.fd_step * (1.0 + np.abs(x))  # (..., m)
        points_x, points_y = [x], [y]

        for j in range(m):
            e = np.zeros(m)
            e[j] = 1.0
            points_x += [x + hx[..., j, None] * e, x - hx[..., j, None] * e]
            points_y += [y, y]
        points_x += [x, x]
        points_y += [y + hy, y - hy]
        for j in range(m):
            e = np.zeros(m)
            e[j] = 1.0
            for sx in (1.0, -1.0):
                for sy in (1.0, -1.0):
                    points_x.append(x + sx * hx[..., j, None] * e)
                    points_y.append(y + sy * hy)
        for j in range(m):
            for k in range(j + 1, m):
                ej = np.zeros(m)
                ej[j] = 1.0
                ek = np.zeros(m)
                ek[k] = 1.0
                for sj in (1.0, -1.0):
                    for sk in (1.0, -1.0):
                        points_x.append(
                            x + sj * hx[..., j, None] * ej + sk * hx[..., k, None] * ek)
                        points_y.append(y)
        return np.stack(points_x), np.stack(points_y), hx, hy

    @staticmethod
    def _assemble(vals: np.ndarray, hx: np.ndarray, hy: np.ndarray, m: int,
                  shape: tuple) -> dict:
        out: dict[str, np.ndarray] = {"value": vals[0]}
        idx = 1
        dx = np.empty(shape + (m,))
        dxx = np.empty(shape + (m, m))
        for j in range(m):
            vp, vm = vals[idx], vals[idx + 1]
            idx += 2
            dx[..., j] = (vp - vm) / (2.0 * hx[..., j])
            dxx[..., j, j] = (vp - 2.0 * vals[0] + vm) / hx[..., j] ** 2
        vyp, vym = vals[idx], vals[idx + 1]
        idx += 2
        out["dy"] = (vyp - vym) / (2.0 * hy)
        out["dyy"] = (vyp - 2.0 * vals[0] + vym) / hy**2
        dxy = np.empty(shape + (m,))
        for j in range(m):
            vpp, vpm, vmp, vmm = vals[idx], vals[idx + 1], vals[idx + 2], vals[idx + 3]
            idx += 4
            dxy[..., j] = (vpp - vpm - vmp + vmm) / (4.0 * hx[..., j] * hy)
        for j in range(m):
            for k in range(j + 1, m):
                vpp, vpm, vmp, vmm = vals[idx], vals[idx + 1], vals[idx + 2], vals[idx + 3]
                idx += 4
                cross = (vpp - vpm - vmp + vmm) / (4.0 * hx[..., j] * hx[..., k])
                dxx[..., j, k] = cross
                dxx[..., k, j] = cross
        out["dx"] = dx
        out["dxx"] = dxx
        out["dxy"] = dxy
        return out

    def derivs(self, t_index, x: np.ndarray, y: np.ndarray) -> dict:
        """Value and central-difference derivatives of the flow at (t, x, y).

        Returns a dict with value (...,), dx (..., m), dy (...,),
        dxx (..., m, m), dxy (..., m), dyy (...,).
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        batch_x, batch_y, hx, hy = self._stencil(x, y)
        vals = self.solve(t_index, batch_x, batch_y)
        return self._assemble(vals, hx, hy, x.shape[-1], y.shape)

    # -- inversion --------------------------------------------------------

    def _residuals(self, t_index, x, target: np.ndarray, *seeds: np.ndarray) -> list:
        """flow(t, x, seed) - target for each seed array, from one sweep.

        The seeds are stacked on a new leading axis, with x and per-element
        time indices repeated alongside.  The sweep is elementwise, so each
        result equals that of a sweep of its own.
        """
        batch = (len(seeds),) + target.shape
        if x is not None:
            x = np.asarray(x, dtype=float)
            x = np.broadcast_to(x, batch + x.shape[-1:]).copy()
        if not np.isscalar(t_index) and np.asarray(t_index).ndim > 0:
            t_index = np.broadcast_to(np.asarray(t_index, dtype=int), batch)
        return [v - target for v in self.solve(t_index, x, np.stack(seeds))]

    def invert(
        self,
        t_index,
        x: np.ndarray | None,
        target: np.ndarray,
        guess: np.ndarray | None = None,
        bracket_pad: float = 1.0,
        max_expand: int = 60,
        max_iter: int = 80,
    ) -> np.ndarray:
        """Solve flow(t, x, .) = target by bracketing plus Illinois iteration.

        The flow is strictly increasing in y, so a sign-changing bracket
        pins the root; the returned value satisfies
        |flow(t, x, result) - target| <= 1e-10 (1 + |target|).  Both ends of
        the initial bracket are integrated in one sweep (`_residuals`).
        """
        target = np.asarray(target, dtype=float)
        center = target.copy() if guess is None else np.asarray(guess, dtype=float).copy()
        lo = center - bracket_pad
        hi = center + bracket_pad
        f_lo, f_hi = self._residuals(t_index, x, target, lo, hi)
        width = np.full(target.shape, float(bracket_pad))
        for _ in range(max_expand):
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
        for _ in range(max_iter):
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
        x = np.asarray(x, dtype=float)
        w = np.asarray(w, dtype=float)
        batch_x, batch_w, hx, hy = self._stencil(x, w)
        batch_guess = None
        if guess is not None:
            batch_guess = np.broadcast_to(np.asarray(guess, dtype=float),
                                          batch_w.shape).copy()
        vals = self.invert(t_index, batch_x, batch_w, guess=batch_guess)
        return self._assemble(vals, hx, hy, x.shape[-1], w.shape)


class _SplineAxis:
    """One axis of a tensor B-spline in per-span Taylor form.

    On the span [b_s, b_s + w_s] the k+1 B-splines that live there are
    polynomials in u = (x - b_s) / w_s; ``taylor[s]`` maps their
    coefficients to the coefficients of u^0, ..., u^k (row p holds the p-th
    right derivatives at b_s times w_s^p / p!).  Points are assigned to spans
    as FITPACK does: a point on an inner knot belongs to the span on its
    right, the right end to the last span.
    """

    def __init__(self, knots: np.ndarray, k: int) -> None:
        n = knots.size - k - 1
        self.k = k
        self.coeff_count = n
        self.breaks = knots[k:n + 1]
        self.width = np.diff(self.breaks)
        spans = self.width.size
        local = np.arange(spans)[:, None] + np.arange(k + 1)
        basis = BSpline(knots, np.eye(n), k)
        self.taylor = np.empty((spans, k + 1, k + 1))
        for p in range(k + 1):
            scale = self.width**p / factorial(p)
            self.taylor[:, p, :] = np.take_along_axis(
                basis(self.breaks[:-1], nu=p), local, axis=1) * scale[:, None]
        self._d1 = np.arange(1, k + 1, dtype=float)
        self._d2 = self._d1[:-1] * self._d1[1:]

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


class FlowTable:
    """Tabulated flow on a (x, y) grid with quintic-spline evaluation.

    One backward sweep integrates a full grid of seeds and records every
    intermediate time slice, so values of the flow at arbitrary (t_i, x, y)
    come from interpolation instead of fresh integrations.  Only 1-D spatial
    domains are tabulated; higher dimensions fall back to `BrownianFlow`.
    A non-finite tabulated value raises `FlowBlowup`.

    Each time slice is fitted by FITPACK (degree min(5, points - 1) per
    axis) on first use.  Every slice interpolates on the same grids, so all
    share one pair of knot vectors; `derivs` evaluates the value and its five
    partials from the slice's coefficients through the shared per-span
    Taylor matrices (`_SplineAxis`): one span search per axis, one gather of
    the (kx+1) x (ky+1) coefficient patch and one batched contraction.  It
    differs from FITPACK's evaluation (`value`) by rounding only: relative
    drift of a few 1e-15 in the value and up to ~1e-11 in the second
    x-derivative, whose Taylor rows scale with the inverse squared span
    width.  It also returns the second derivatives that FITPACK refuses
    below degree 3 (zero for a linear axis).

    The y-inverse is tabulated per time slice, on first use, by monotone
    re-gridding: one grid evaluation of the value spline on the x grid times
    a 4x oversampled y grid, then a piecewise-linear inversion per x column.
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
        self.values = traj.reshape(len(self.grid), x_grid.size, y_grid.size)
        bad = np.count_nonzero(~np.isfinite(self.values))
        if bad:
            raise FlowBlowup(f"flow table has {bad} non-finite tabulated values")
        if np.any(np.diff(self.values, axis=2) <= 0):
            raise InversionError("tabulated flow is not strictly increasing in y")
        self._kx = min(5, x_grid.size - 1)
        self._ky = min(5, y_grid.size - 1)
        self._splines: dict[int, RectBivariateSpline] = {}
        self._inv_splines: dict[int, RectBivariateSpline] = {}
        self._axes: tuple[_SplineAxis, _SplineAxis] | None = None
        self._patch_offsets = None
        # common inverse range across x columns, slightly shrunk for safety
        lo = float(self.values[:, :, 0].max())
        hi = float(self.values[:, :, -1].min())
        if lo >= hi:
            raise InversionError("flow table has no common invertible range")
        pad = 1e-9 * (hi - lo)
        self.u_grid = np.linspace(lo + pad, hi - pad, y_grid.size)

    def _spline(self, t_index: int) -> RectBivariateSpline:
        sp = self._splines.get(t_index)
        if sp is None:
            sp = RectBivariateSpline(
                self.x_grid, self.y_grid, self.values[t_index], kx=self._kx, ky=self._ky
            )
            self._splines[t_index] = sp
        return sp

    def _inv_spline(self, t_index: int) -> RectBivariateSpline:
        sp = self._inv_splines.get(t_index)
        if sp is None:
            # re-grid through a 4x oversampled monotone value table so the
            # piecewise-linear inversion error stays below the spline's own
            fine_y = np.linspace(self.y_grid[0], self.y_grid[-1],
                                 4 * self.y_grid.size)
            fine_vals = self._spline(t_index)(self.x_grid, fine_y)
            inv = np.array([np.interp(self.u_grid, column, fine_y)
                            for column in fine_vals])
            sp = RectBivariateSpline(self.x_grid, self.u_grid, inv,
                                     kx=self._kx, ky=self._ky)
            self._inv_splines[t_index] = sp
        return sp

    def value(self, t_index: int, x: np.ndarray, y: np.ndarray,
              dx: int = 0, dy: int = 0) -> np.ndarray:
        x1 = np.clip(np.asarray(x, dtype=float).reshape(-1),
                     self.x_grid[0], self.x_grid[-1])
        y1 = np.clip(np.asarray(y, dtype=float).reshape(-1),
                     self.y_grid[0], self.y_grid[-1])
        out = self._spline(t_index).ev(x1, y1, dx=dx, dy=dy)
        return out.reshape(np.asarray(y).shape)

    def derivs(self, t_index: int, x: np.ndarray, y: np.ndarray) -> dict:
        """Spline derivatives matching BrownianFlow.derivs for 1-D x.

        Points are clipped to the grid like `value`; x has shape (..., 1)
        and y the batch shape (...).  One pass through the Taylor form (see
        the class docstring) gives all six entries.
        """
        sp = self._spline(t_index)
        if self._axes is None:
            # every slice shares the knots, so the first fit fixes the axes
            ax, ay = _SplineAxis(sp.tck[0], self._kx), _SplineAxis(sp.tck[1], self._ky)
            self._axes = ax, ay
            # flat offsets of a span's coefficient patch from its first entry
            self._patch_offsets = (np.arange(self._kx + 1)[:, None] * ay.coeff_count
                                   + np.arange(self._ky + 1)).ravel()
        ax, ay = self._axes
        shape = np.asarray(y).shape
        x1 = np.clip(np.asarray(x, dtype=float)[..., 0].reshape(-1),
                     self.x_grid[0], self.x_grid[-1])
        y1 = np.clip(np.asarray(y, dtype=float).reshape(-1),
                     self.y_grid[0], self.y_grid[-1])
        span_x, basis_x = ax.basis(x1)
        span_y, basis_y = ay.basis(y1)
        first = span_x * ay.coeff_count + span_y
        patch = sp.tck[2].take(first[:, None] + self._patch_offsets)
        patch = patch.reshape(-1, self._kx + 1, self._ky + 1)
        # d[:, p, q] = d^(p+q) s / dx^p dy^q
        d = basis_x @ patch @ np.swapaxes(basis_y, 1, 2)
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
        xv = np.asarray(x, dtype=float)
        if xv.ndim >= 2:
            xv = xv[..., 0]
        x1 = np.clip(xv.reshape(-1), self.x_grid[0], self.x_grid[-1])
        u1 = np.clip(np.asarray(target, dtype=float).reshape(-1),
                     self.u_grid[0], self.u_grid[-1])
        out = self._inv_spline(t_index).ev(x1, u1, dx=dx, dy=dy)
        return out.reshape(np.asarray(target).shape)


# ---------------------------------------------------------------------------
# Verification: derivative identities and growth envelopes
# ---------------------------------------------------------------------------

IDENTITY_NAMES = (
    "inverse_grad_x",
    "inverse_grad_y",
    "inverse_hess_xx",
    "inverse_hess_xy",
    "inverse_hess_yy",
)


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
    t_idx, xs, ys = samples
    t_idx = np.asarray(t_idx, dtype=int)
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    fd = flow.derivs(t_idx, x, y)
    w = fd["value"]
    ed = flow.inverse_derivs(t_idx, x, w, guess=y)
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


def flow_growth_constants(
    flow: BrownianFlow,
    samples: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> dict[str, float]:
    """Smallest constants fitting the flow growth and derivative envelopes.

    Fits C in |flow| <= |y| + C |B_T - B_t| (and the same for the inverse)
    and, for each first/second derivative D, the smallest C with
    |D| <= C exp(C |B_T - B_t|) via the Lambert W function, per sample,
    reported as the max over samples.  The driver enters through its tail
    increment because the flow integrates from the final time backwards (the
    forward-flow bound uses B_t; time reversal swaps in the tail).
    """
    t_idx, xs, ys = samples
    t_idx = np.asarray(t_idx, dtype=int)
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    b_norm = np.linalg.norm(flow.b_path[-1] - flow.b_path[t_idx], axis=-1)

    def env_linear(excess: np.ndarray) -> float:
        mask = b_norm > 1e-12
        if not np.any(mask):
            return 0.0
        return float(np.max(np.maximum(excess[mask], 0.0) / b_norm[mask]))

    def env_exp(mag: np.ndarray) -> float:
        # smallest C with mag <= C exp(C b):  C = W(mag b) / b, with C = mag at b = 0
        mag = np.maximum(mag, 1e-300)
        small = b_norm < 1e-12
        w_arg = mag * b_norm
        c = np.where(small, mag,
                     np.real(lambertw(np.where(small, 1.0, w_arg)))
                     / np.where(small, 1.0, b_norm))
        return float(np.max(c))

    fd = flow.derivs(t_idx, x, y)
    w = fd["value"]
    ed = flow.inverse_derivs(t_idx, x, w, guess=y)
    out = {
        "flow_value": env_linear(np.abs(w) - np.abs(y)),
        "inverse_value": env_linear(np.abs(ed["value"]) - np.abs(w)),
    }
    for tag, dv in (("flow", fd), ("inverse", ed)):
        mags = np.concatenate([
            np.abs(dv["dx"]).reshape(len(y), -1),
            np.abs(dv["dy"]).reshape(len(y), -1),
            np.abs(dv["dxx"]).reshape(len(y), -1),
            np.abs(dv["dxy"]).reshape(len(y), -1),
            np.abs(dv["dyy"]).reshape(len(y), -1),
        ], axis=1).max(axis=1)
        out[f"{tag}_derivatives"] = env_exp(mags)
    return out


# ---------------------------------------------------------------------------
# Transformed coefficients and the parabolic operator
# ---------------------------------------------------------------------------


def _g_and_dyg(coeffs: CoefficientSet, t, x: np.ndarray, y: np.ndarray,
               fd_step: float = 1e-6) -> np.ndarray:
    """<g, D_y g>(t, x, y) for the scalar-flow g, via central differences."""
    g_flow = spde_noise_coefficient(coeffs)
    h = fd_step * (1.0 + np.abs(y))
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
    a_mat = np.einsum("...md,...nd->...mn", sig, sig)
    l_x_eta = 0.5 * np.einsum("...mn,...mn->...", a_mat, dv["dxx"]) + np.einsum(
        "...m,...m->...", b, dv["dx"])
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
    check_boundary: bool = True,
) -> np.ndarray:
    """Boundary reaction of the transformed equation at a boundary point."""
    if check_boundary and not np.all(domain.classify(x) == "boundary"):
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
    fn_t: Callable
    grad: Callable
    hess: Callable

    def value(self, t, x: np.ndarray) -> np.ndarray:
        return self.fn(t, x)


def trig_test_field(amp: float = 1.0, freq: float = 1.0,
                    decay: float = 0.5) -> AnalyticField:
    """amp * exp(-decay t) * sin(freq x_1 + 1/2), a generic smooth field."""

    def fn(t, x):
        return amp * np.exp(-decay * np.asarray(t)) * np.sin(freq * x[..., 0] + 0.5)

    def fn_t(t, x):
        return -decay * fn(t, x)

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

    return AnalyticField(fn, fn_t, grad, hess)


def quadratic_test_field(a: float = 1.0, b: float = 0.0, c: float = 0.0) -> AnalyticField:
    """a x_1^2 + b x_1 + c, time-independent."""

    def fn(t, x):
        x1 = x[..., 0]
        return a * x1**2 + b * x1 + c

    def fn_t(t, x):
        return np.zeros(x.shape[:-1])

    def grad(t, x):
        out = np.zeros_like(x)
        out[..., 0] = 2.0 * a * x[..., 0] + b
        return out

    def hess(t, x):
        m = x.shape[-1]
        out = np.zeros(x.shape[:-1] + (m, m))
        out[..., 0, 0] = 2.0 * a
        return out

    return AnalyticField(fn, fn_t, grad, hess)


def spde_operator(coeffs: CoefficientSet, field: AnalyticField, t,
                  x: np.ndarray) -> np.ndarray:
    """The stationary part -L psi - f(t,x,psi,sigma* Dx psi) + (1/2)<g, Dy g>."""
    psi = field.value(t, x)
    dx = field.grad(t, x)
    dxx = field.hess(t, x)
    sig = coeffs.sigma(x)
    b = coeffs.b(x)
    a_mat = np.einsum("...md,...nd->...mn", sig, sig)
    l_psi = 0.5 * np.einsum("...mn,...mn->...", a_mat, dxx) + np.einsum(
        "...m,...m->...", b, dx)
    sig_t_dx = np.einsum("...md,...m->...d", sig, dx)
    f_val = coeffs.f(t, x, psi[..., None], sig_t_dx[..., None, :])[..., 0]
    gdg = _g_and_dyg(coeffs, t, x, psi)
    return -l_psi - f_val + 0.5 * gdg


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
    t_idx = np.asarray(t_indices, dtype=int)
    x = np.asarray(xs, dtype=float)
    t = flow.grid.points[t_idx]
    phi = base_field.value(t, x)
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
    sig = coeffs.sigma(x)
    b = coeffs.b(x)
    a_mat = np.einsum("...md,...nd->...mn", sig, sig)
    l_psi = 0.5 * np.einsum("...mn,...mn->...", a_mat, hpsi) + np.einsum(
        "...m,...m->...", b, dpsi)
    sig_t_dpsi = np.einsum("...md,...m->...d", sig, dpsi)
    f_val = coeffs.f(t, x, psi[..., None], sig_t_dpsi[..., None, :])[..., 0]
    gdg = _g_and_dyg(coeffs, t, x, psi)
    a_direct = -l_psi - f_val + 0.5 * gdg

    # independent inverse slope at (t, x, psi) by differencing the inverse
    h = flow.fd_step * (1.0 + np.abs(psi))
    inv_hi = flow.invert(t_idx, x, psi + h, guess=phi)
    inv_lo = flow.invert(t_idx, x, psi - h, guess=phi)
    dy_inv = (inv_hi - inv_lo) / (2.0 * h)
    lhs = dy_inv * a_direct

    # transformed side: -L phi - f_tilde(t, x, phi, sigma* Dx phi)
    sig_t_dphi = np.einsum("...md,...m->...d", sig, dphi)
    f_tilde = transformed_generator(coeffs, flow, t_idx, t, x, phi, sig_t_dphi)
    l_phi = 0.5 * np.einsum("...mn,...mn->...", a_mat, hphi) + np.einsum(
        "...m,...m->...", b, dphi)
    rhs = -l_phi - f_tilde
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return np.abs(lhs - rhs) / scale


def transform_identity_violations(
    coeffs: CoefficientSet,
    domain: SmoothDomain,
    flow: BrownianFlow,
    interior_samples: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    boundary_samples: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> dict[str, float]:
    """Max violations of the two coefficient-transport identities.

    The direct sides are built from inverse-flow derivatives at (s, x, y);
    the transformed sides evaluate the transformed coefficients at
    u = inverse(s, x, y), v = D_y inverse * z + sigma* D_x inverse.
    """
    t_idx, xs, ys, zs = interior_samples
    t_idx = np.asarray(t_idx, dtype=int)
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    z = np.asarray(zs, dtype=float)
    t = flow.grid.points[t_idx]
    ed = flow.inverse_derivs(t_idx, x, y)
    sig = coeffs.sigma(x)
    b = coeffs.b(x)
    a_mat = np.einsum("...md,...nd->...mn", sig, sig)
    f_val = coeffs.f(t, x, y[..., None], z[..., None, :])[..., 0]
    gdg = _g_and_dyg(coeffs, t, x, y)
    sig_t_dxy = np.einsum("...md,...m->...d", sig, ed["dxy"])
    direct = (
        -np.einsum("...m,...m->...", ed["dx"], b)
        + ed["dy"] * f_val
        - 0.5 * ed["dyy"] * np.einsum("...d,...d->...", z, z)
        - 0.5 * np.einsum("...mn,...mn->...", a_mat, ed["dxx"])
        - np.einsum("...d,...d->...", sig_t_dxy, z)
        - 0.5 * ed["dy"] * gdg
    )
    u = ed["value"]
    sig_t_dx = np.einsum("...md,...m->...d", sig, ed["dx"])
    v = ed["dy"][..., None] * z + sig_t_dx
    f_tilde = transformed_generator(coeffs, flow, t_idx, t, x, u, v)
    worst_f = float(np.max(np.abs(direct - f_tilde)))

    worst_h = 0.0
    if boundary_samples is not None:
        tb_idx, xb, yb = boundary_samples
        tb_idx = np.asarray(tb_idx, dtype=int)
        xb = np.asarray(xb, dtype=float)
        yb = np.asarray(yb, dtype=float)
        tb = flow.grid.points[tb_idx]
        ed_b = flow.inverse_derivs(tb_idx, xb, yb)
        h_val = coeffs.h(tb, xb, yb[..., None])[..., 0]
        normal = domain.grad_phi(xb)
        direct_h = -np.einsum("...m,...m->...", ed_b["dx"], normal) + ed_b["dy"] * h_val
        h_tilde = transformed_boundary(
            coeffs, domain, flow, tb_idx, tb, xb, ed_b["value"])
        worst_h = float(np.max(np.abs(direct_h - h_tilde)))
    return {"generator": worst_f, "boundary": worst_h}
