"""Field-level evaluators: the solution surface u(t, x) and its oracle.

u(t, x) is read off as the time-t value of the Markovian solution started at
(t, x), with the standard error of its scenario totals.  For vanishing
backward noise the problem reduces to a deterministic parabolic equation
with a nonlinear Neumann condition, solved here on an interval by a
Crank-Nicolson scheme with ghost nodes and a per-step Newton iteration; that
solver is the acceptance oracle for the reduction case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SmoothDomain
from .grids import TimeGrid
from .paths import PathBundle
from .problems import CoefficientSet
from .solver import _markov_start_values, _standard_error


@dataclass
class FieldNode:
    t: float
    x: np.ndarray
    u: float
    se_u: float


# A block of field nodes holds, per node, its time-major X rows and its k
# rows (turned into the k increments in place): (T+1) x S x (dim + 1)
# floats.  FIELD_BLOCK_BYTES caps that at 32 MiB, 4 nodes on an interval at
# 1000 scenarios and 500 steps and one node at a time from 10^4 scenarios, so
# a block's memory stays bounded whatever the node count
FIELD_BLOCK_BYTES = 32 << 20


def field_blocks(times: list[float], grid: TimeGrid, scenario_count: int,
                 dim: int) -> list[list[int]]:
    """Indices of the field nodes at ``times``, in the blocks `evaluate_u`
    solves together.

    Nodes that share a start step are cut, in their given order, into blocks
    of as many nodes as fit in ``FIELD_BLOCK_BYTES`` (at least one).
    """
    size = max(1, FIELD_BLOCK_BYTES // (8 * len(grid) * scenario_count * (dim + 1)))
    by_start: dict[int, list[int]] = {}
    for j, t in enumerate(times):
        by_start.setdefault(grid.index_of(t), []).append(j)
    return [members[lo:lo + size] for members in by_start.values()
            for lo in range(0, len(members), size)]


def evaluate_u(
    coeffs: CoefficientSet,
    domain: SmoothDomain,
    field_grid: list[tuple[float, np.ndarray]],
    bundle: PathBundle,
    basis,
) -> list[FieldNode]:
    """Estimate u on the requested (t, x) nodes, one backward solve from each.

    u(t, x) is the mean time-t value of the solve started at (t, x), with
    the standard error of its scenario totals.  The nodes of one
    `field_blocks` block share a start time and are solved together on the
    one bundle: one Euler projection and one backward induction over their
    node-major rows, each node bit-identical to its own `solve_bdsde_markov`.
    """
    grid = bundle.grid
    times = [t for t, _ in field_grid]
    points = [np.atleast_1d(np.asarray(x, dtype=float)) for _, x in field_grid]
    estimates: list[tuple[float, float]] = [(0.0, 0.0)] * len(field_grid)
    for block in field_blocks(times, grid, bundle.scenario_count, domain.dim):
        y_start, totals = _markov_start_values(
            coeffs, domain, times[block[0]], np.stack([points[j] for j in block]),
            bundle, basis)
        for j, y, total in zip(block, y_start, totals):
            estimates[j] = float(y.mean()), float(_standard_error(total[:, None])[0])
    return [FieldNode(t_node, x_node, u_val, se)
            for t_node, x_node, (u_val, se) in zip(times, points, estimates)]


# ---------------------------------------------------------------------------
# Deterministic oracle for the vanishing-backward-noise reduction
# ---------------------------------------------------------------------------


@dataclass
class OracleSolution:
    """Finite-difference solution of the terminal-value Neumann problem."""

    x_nodes: np.ndarray
    t_nodes: np.ndarray
    u: np.ndarray  # (len(t_nodes), len(x_nodes))
    refinement_gap: float
    refinements: int = 0

    def interpolate(self, t: float, x: float) -> float:
        it = np.clip(np.searchsorted(self.t_nodes, t) - 1, 0, len(self.t_nodes) - 2)
        ix = np.clip(np.searchsorted(self.x_nodes, x) - 1, 0, len(self.x_nodes) - 2)
        wt = (t - self.t_nodes[it]) / (self.t_nodes[it + 1] - self.t_nodes[it])
        wx = (x - self.x_nodes[ix]) / (self.x_nodes[ix + 1] - self.x_nodes[ix])
        wt, wx = np.clip(wt, 0, 1), np.clip(wx, 0, 1)
        c = self.u
        return float(
            (1 - wt) * (1 - wx) * c[it, ix]
            + (1 - wt) * wx * c[it, ix + 1]
            + wt * (1 - wx) * c[it + 1, ix]
            + wt * wx * c[it + 1, ix + 1]
        )


class NewtonFailure(RuntimeError):
    """Boundary Newton iteration did not converge at some node."""


def _fill_bands(jac: np.ndarray, sel: np.ndarray, dcol: np.ndarray) -> None:
    """Scatter the response to perturbing nodes ``sel`` into banded Jacobian rows.

    Rows of ``jac`` are (upper, diagonal, lower) in the layout
    `_solve_tridiagonal` reads: column j holds the entries (j-1, j), (j, j)
    and (j+1, j); ``dcol`` is the finite-difference response of every node.
    """
    last = jac.shape[1] - 1
    jac[1, sel] = dcol[sel]                 # diagonal
    up = sel[sel > 0]
    jac[0, up] = dcol[up - 1]               # upper band entries (j-1, j)
    lo = sel[sel < last]
    jac[2, lo] = dcol[lo + 1]               # lower band entries (j+1, j)


def _solve_tridiagonal(bands: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system ``bands`` (`_fill_bands` layout) for ``rhs``.

    LAPACK's ``dgtsv`` with one right-hand side, line for line: Gaussian
    elimination with partial pivoting, which swaps rows i and i+1 where
    |d_i| < |dl_i| and keeps row i's new entry in column i+2 in ``dl_i``; the
    last row, which has no column i+2; and a back solve through ``du`` and
    that fill-in ``dl``.
    The same operations in the same order give the bits of the routine
    `scipy.linalg.solve_banded` calls for (1, 1) bands.  It loops over
    Python floats: indexing numpy arrays element by element is ~2x slower.
    Raises LinAlgError at an exact zero pivot.
    """
    n = len(rhs)
    du, d, dl = bands[0, 1:].tolist(), bands[1].tolist(), bands[2, :-1].tolist()
    x = rhs.tolist()
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            # no interchange: eliminate dl_i with pivot d_i
            if d[i] == 0.0:
                raise np.linalg.LinAlgError("singular matrix")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            x[i + 1] = x[i + 1] - fact * x[i]
            dl[i] = 0.0
        else:
            # interchange rows i and i+1; before the last row, row i gains
            # the fill-in du_{i+1} at (i, i+2), kept in dl_i
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            temp = x[i]
            x[i] = x[i + 1]
            x[i + 1] = temp - fact * x[i + 1]
    if d[n - 1] == 0.0:
        raise np.linalg.LinAlgError("singular matrix")
    x[n - 1] = x[n - 1] / d[n - 1]
    if n > 1:
        x[n - 2] = (x[n - 2] - du[n - 2] * x[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1] - dl[i] * x[i + 2]) / d[i]
    return np.array(x)


def _oracle_pass(
    coeffs: CoefficientSet,
    a: float,
    b: float,
    space_points: int,
    time_points: int,
    t_start: float,
    t_end: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Crank-Nicolson sweep of the terminal-value problem; each step is
    solved by Newton to a relative residual of 1e-11 within 30 iterations,
    each iteration a `_solve_tridiagonal` of the finite-difference Jacobian.

    Raises NewtonFailure, naming t, when a step does not converge, when its
    Newton system is not finite or when that system has an exact zero pivot.
    """
    xs = np.linspace(a, b, space_points + 1)
    ts = np.linspace(t_start, t_end, time_points + 1)
    dx = xs[1] - xs[0]
    half_dt = 0.5 * (ts[1] - ts[0])  # Crank-Nicolson weight of each time level
    j_max = space_points
    x_col = xs[:, None]

    sig = coeffs.sigma(x_col)[:, 0, 0] if coeffs.sigma is not None else np.ones(j_max + 1)
    drift = coeffs.b(x_col)[:, 0] if coeffs.b is not None else np.zeros(j_max + 1)
    half_sig2 = 0.5 * sig**2

    def boundary_h(t: float, u0: float, uj: float) -> tuple[float, float]:
        vals = coeffs.h(t, np.array([[a], [b]]), np.array([[u0], [uj]]))[:, 0]
        return float(vals[0]), float(vals[1])

    def f_vals(t: float, u: np.ndarray, ux: np.ndarray) -> np.ndarray:
        return coeffs.f(t, x_col, u[:, None], (sig * ux)[:, None, None])[:, 0]

    def spatial_operator(t: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """L u + f with ghost-node Neumann closure; also returns ux used in f."""
        h_a, h_b = boundary_h(t, u[0], u[-1])
        ghost_lo = u[1] + 2.0 * dx * h_a          # u_x(a) = -h(a, u)
        ghost_hi = u[-2] + 2.0 * dx * h_b         # u_x(b) = +h(b, u)
        u_ext = np.concatenate([[ghost_lo], u, [ghost_hi]])
        lap = (u_ext[:-2] - 2.0 * u + u_ext[2:]) / dx**2
        ux = (u_ext[2:] - u_ext[:-2]) / (2.0 * dx)
        return half_sig2 * lap + drift * ux, ux

    def rhs_operator(t: float, u: np.ndarray) -> np.ndarray:
        lu, ux = spatial_operator(t, u)
        return lu + f_vals(t, u, ux)

    fd_eps = 1e-7

    def newton_step(t: float, u_guess: np.ndarray, const_part: np.ndarray) -> np.ndarray:
        """Solve  v - dt/2 (Lv + f(t, v)) = const_part  by banded Newton."""
        v = u_guess.copy()
        for _ in range(30):
            base = v - half_dt * rhs_operator(t, v)
            resid = base - const_part
            if np.max(np.abs(resid)) <= 1e-11 * (1.0 + np.max(np.abs(v))):
                return v
            # tridiagonal Jacobian by column-group finite differences:
            # perturb every third node so the stencil responses do not overlap
            jac = np.zeros((3, j_max + 1))  # banded rows: upper, diag, lower
            for group in range(3):
                vp = v.copy()
                sel = np.arange(group, j_max + 1, 3)
                vp[sel] += fd_eps
                pert = vp - half_dt * rhs_operator(t, vp)
                _fill_bands(jac, sel, (pert - base) / fd_eps)
            if not (np.isfinite(jac).all() and np.isfinite(resid).all()):
                raise NewtonFailure(f"non-finite Newton system at t = {t}")
            try:
                delta = _solve_tridiagonal(jac, resid)
            except np.linalg.LinAlgError as exc:
                raise NewtonFailure(f"banded solve failed at t = {t}") from exc
            v = v - delta
        raise NewtonFailure(f"Newton did not converge at t = {t}")

    u = coeffs.l(x_col)
    u_grid = np.empty((time_points + 1, j_max + 1))
    u_grid[-1] = u
    for m in range(time_points - 1, -1, -1):
        t_new, t_old = ts[m], ts[m + 1]
        const_part = u + half_dt * rhs_operator(t_old, u)
        u = newton_step(t_new, u, const_part)
        u_grid[m] = u
    return xs, ts, u_grid


# the oracle's first pass has this many space and time steps, and it doubles
# both until two passes agree to ORACLE_REFINE_TOL on shared nodes
ORACLE_POINTS = 100
ORACLE_REFINE_TOL = 1e-4
ORACLE_MAX_REFINEMENTS = 3


def pde_oracle_g0(coeffs: CoefficientSet, domain: SmoothDomain, *,
                  t_start: float = 0.0, t_end: float = 1.0) -> OracleSolution:
    """Deterministic interval oracle for the vanishing-backward-noise case.

    Crank-Nicolson in time, nonlinear Neumann closure by ghost nodes with a
    per-step Newton iteration, first on ``ORACLE_POINTS`` space and time
    steps; refines (doubling both grids) until two successive solutions
    differ by less than ``ORACLE_REFINE_TOL`` on shared nodes, at most
    ``ORACLE_MAX_REFINEMENTS`` times.
    Raises ValueError when g is not None or the domain is not an interval,
    and FloatingPointError when a pass yields a non-finite value.
    """
    if coeffs.g is not None:
        raise ValueError("the deterministic oracle needs a problem without backward noise")
    if domain.dim != 1:
        raise ValueError("the deterministic oracle is one-dimensional")
    # interval endpoints from the projection map
    a = float(domain.project(np.array([-1e12]))[0][0])
    b = float(domain.project(np.array([1e12]))[0][0])

    def finite_pass(points: int):
        xs, ts, u = _oracle_pass(coeffs, a, b, points, points, t_start, t_end)
        if not np.isfinite(u).all():
            raise FloatingPointError(
                f"pde_oracle_g0 produced non-finite values on the {points} x "
                f"{points} grid")
        return xs, ts, u

    points = ORACLE_POINTS
    xs, ts, u = finite_pass(points)
    gap = np.inf
    refinements = 0
    for r in range(1, ORACLE_MAX_REFINEMENTS + 1):
        points *= 2
        xs2, ts2, u2 = finite_pass(points)
        gap = float(np.max(np.abs(u2[::2, ::2] - u)))
        xs, ts, u = xs2, ts2, u2
        refinements = r
        if gap < ORACLE_REFINE_TOL:
            break
    return OracleSolution(x_nodes=xs, t_nodes=ts, u=u, refinement_gap=gap,
                          refinements=refinements)
