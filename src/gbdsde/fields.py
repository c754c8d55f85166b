"""Field-level evaluators: the solution surface u(t, x) and its oracle.

u(t, x) is read off as the time-t value of the Markovian solution started at
(t, x); its flow-transformed companion v solves the backward-noise-free
problem and the two are linked pointwise through the flow and its inverse.
For vanishing backward noise the problem reduces to a deterministic
parabolic equation with a nonlinear Neumann condition, solved here on an
interval by a Crank-Nicolson scheme with ghost nodes and a per-step Newton
iteration; that solver is the acceptance oracle for the reduction case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .flows import BrownianFlow
from .geometry import SmoothDomain
from .grids import TimeGrid
from .paths import PathBundle
from .problems import CoefficientSet
from .regression import DesignProjector
from .solver import _markov_start_values, _standard_error, solve_bdsde_markov


@dataclass
class FieldNode:
    t: float
    x: np.ndarray
    u: float
    se_u: float
    v: float
    scenario_count: int


@dataclass
class FieldEstimate:
    """Monte Carlo estimates of the solution field on requested nodes."""

    nodes: list[FieldNode]
    b_scenario: int
    mode: str

    def values(self) -> np.ndarray:
        return np.array([n.u for n in self.nodes])


# A block of pointwise field nodes holds, per node, its time-major X rows and
# its k rows (turned into the k increments in place): (T+1) x S x (dim + 1)
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
    flow: BrownianFlow | None = None,
    mode: str = "pointwise",
    g_is_zero: bool = False,
) -> FieldEstimate:
    """Estimate u on the requested (t, x) nodes.

    ``pointwise`` runs a backward solve from each node (isolates errors and
    carries an unsmoothed standard error).  The nodes of one `field_blocks`
    block share a start time and are solved together on the one bundle: one
    Euler projection and one backward induction over their node-major rows,
    each node bit-identical to its own `solve_bdsde_markov`.  ``global`` runs
    one solve from the earliest node and reads every node off the fitted
    per-time regression functions (cheaper, SE from regression residuals).
    The companion value v is the flow inverse of u at the node; with no flow
    supplied (vanishing backward noise) v = u.
    """
    if mode not in ("pointwise", "global"):
        raise ValueError(f"unknown field mode {mode!r}")
    grid = bundle.grid
    points = [np.atleast_1d(np.asarray(x, dtype=float)) for _, x in field_grid]
    estimates: list[tuple[float, float]] = [(0.0, 0.0)] * len(field_grid)
    if mode == "pointwise":
        times = [t for t, _ in field_grid]
        for block in field_blocks(times, grid, bundle.scenario_count, domain.dim):
            y_start, totals = _markov_start_values(
                coeffs, domain, times[block[0]], np.stack([points[j] for j in block]),
                bundle, basis, g_is_zero=g_is_zero)
            for j, y, total in zip(block, y_start, totals):
                estimates[j] = float(y.mean()), float(_standard_error(total[:, None])[0])
    else:
        t0 = min(t for t, _ in field_grid)
        x0 = next(x for (t, _), x in zip(field_grid, points) if t == t0)
        sol, refl = solve_bdsde_markov(
            coeffs, domain, t0, x0, bundle, basis, g_is_zero=g_is_zero)
        for j, ((t_node, _), x_node) in enumerate(zip(field_grid, points)):
            idx = grid.index_of(t_node)
            y_vals = sol.Y[:, idx, 0]
            proj = DesignProjector(refl.X[:, idx, :], basis)
            resid = y_vals - proj.fit(y_vals)
            estimates[j] = (float(proj.evaluate(x_node[None, :], y_vals)[0]),
                            float(resid.std(ddof=1) / np.sqrt(len(y_vals))))
    nodes: list[FieldNode] = []
    for (t_node, _), x_node, (u_val, se) in zip(field_grid, points, estimates):
        v_val = _invert_node(flow, grid.index_of(t_node), x_node, u_val)
        nodes.append(FieldNode(t_node, x_node, u_val, se, v_val, bundle.scenario_count))
    return FieldEstimate(nodes=nodes, b_scenario=bundle.seed, mode=mode)


def _invert_node(flow, t_index: int, x: np.ndarray, u_val: float) -> float:
    if flow is None:
        return u_val
    return float(flow.invert(t_index, x[None, :], np.array([u_val]))[0])


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

    Rows of ``jac`` are (upper, diagonal, lower) in `solve_banded` layout;
    ``dcol`` is the finite-difference response of every node.
    """
    last = jac.shape[1] - 1
    jac[1, sel] = dcol[sel]                 # diagonal
    up = sel[sel > 0]
    jac[0, up] = dcol[up - 1]               # upper band entries (j-1, j)
    lo = sel[sel < last]
    jac[2, lo] = dcol[lo + 1]               # lower band entries (j+1, j)


def _oracle_pass(
    coeffs: CoefficientSet,
    a: float,
    b: float,
    space_points: int,
    time_points: int,
    t_start: float,
    t_end: float,
    theta: float = 0.5,
    newton_tol: float = 1e-11,
    newton_max: int = 30,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Crank-Nicolson sweep of the terminal-value problem."""
    xs = np.linspace(a, b, space_points + 1)
    ts = np.linspace(t_start, t_end, time_points + 1)
    dx = xs[1] - xs[0]
    dt_step = ts[1] - ts[0]
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
        """Solve  v - theta dt (Lv + f(t, v)) = const_part  by banded Newton."""
        v = u_guess.copy()
        for _ in range(newton_max):
            resid = v - theta * dt_step * rhs_operator(t, v) - const_part
            if np.max(np.abs(resid)) <= newton_tol * (1.0 + np.max(np.abs(v))):
                return v
            # tridiagonal Jacobian by column-group finite differences:
            # perturb every third node so the stencil responses do not overlap
            jac = np.zeros((3, j_max + 1))  # banded rows: upper, diag, lower
            base = v - theta * dt_step * rhs_operator(t, v)
            for group in range(3):
                vp = v.copy()
                sel = np.arange(group, j_max + 1, 3)
                vp[sel] += fd_eps
                pert = vp - theta * dt_step * rhs_operator(t, vp)
                _fill_bands(jac, sel, (pert - base) / fd_eps)
            try:
                delta = solve_banded((1, 1), jac, resid)
            except np.linalg.LinAlgError as exc:  # pragma: no cover
                raise NewtonFailure(f"banded solve failed at t = {t}") from exc
            v = v - delta
        raise NewtonFailure(f"Newton did not converge at t = {t}")

    u = coeffs.l(x_col)
    u_grid = np.empty((time_points + 1, j_max + 1))
    u_grid[-1] = u
    for m in range(time_points - 1, -1, -1):
        t_new, t_old = ts[m], ts[m + 1]
        const_part = u + (1.0 - theta) * dt_step * rhs_operator(t_old, u)
        u = newton_step(t_new, u, const_part)
        u_grid[m] = u
    return xs, ts, u_grid


def pde_oracle_g0(
    coeffs: CoefficientSet,
    domain: SmoothDomain,
    space_points: int = 100,
    time_points: int = 100,
    t_start: float = 0.0,
    t_end: float = 1.0,
    refine_tol: float = 1e-4,
    max_refinements: int = 3,
) -> OracleSolution:
    """Deterministic interval oracle for the vanishing-backward-noise case.

    Crank-Nicolson in time, nonlinear Neumann closure by ghost nodes with a
    per-step Newton iteration; refines (doubling both grids) until two
    successive solutions differ by less than ``refine_tol`` on shared nodes.
    Raises FloatingPointError when a pass yields a non-finite value.
    """
    if domain.dim != 1:
        raise ValueError("the deterministic oracle is one-dimensional")
    # interval endpoints from the projection map
    a = float(domain.project(np.array([-1e12]))[0][0])
    b = float(domain.project(np.array([1e12]))[0][0])

    def finite_pass(space_points: int, time_points: int):
        xs, ts, u = _oracle_pass(coeffs, a, b, space_points, time_points, t_start, t_end)
        if not np.isfinite(u).all():
            raise FloatingPointError(
                f"pde_oracle_g0 produced non-finite values on the {space_points} x "
                f"{time_points} grid")
        return xs, ts, u

    xs, ts, u = finite_pass(space_points, time_points)
    gap = np.inf
    refinements = 0
    for r in range(1, max_refinements + 1):
        space_points *= 2
        time_points *= 2
        xs2, ts2, u2 = finite_pass(space_points, time_points)
        gap = float(np.max(np.abs(u2[::2, ::2] - u)))
        xs, ts, u = xs2, ts2, u2
        refinements = r
        if gap < refine_tol:
            break
    return OracleSolution(x_nodes=xs, t_nodes=ts, u=u, refinement_gap=gap,
                          refinements=refinements)


def boundary_residual(coeffs: CoefficientSet, oracle: OracleSolution) -> float:
    """Max |normal derivative + h| of an oracle solution over all times.

    Uses one-sided second-order differences for the normal derivative.
    """
    xs, u = oracle.x_nodes, oracle.u
    dx = xs[1] - xs[0]
    worst = 0.0
    for m, t in enumerate(oracle.t_nodes):
        ux_a = (-3.0 * u[m, 0] + 4.0 * u[m, 1] - u[m, 2]) / (2.0 * dx)
        ux_b = (3.0 * u[m, -1] - 4.0 * u[m, -2] + u[m, -3]) / (2.0 * dx)
        h_vals = coeffs.h(t, np.array([[xs[0]], [xs[-1]]]),
                          np.array([[u[m, 0]], [u[m, -1]]]))[:, 0]
        # inward normal is +1 at the left endpoint, -1 at the right
        worst = max(worst, abs(ux_a + h_vals[0]), abs(-ux_b + h_vals[1]))
    return worst


def continuity_diagnostic(
    coeffs: CoefficientSet,
    domain: SmoothDomain,
    node_pairs: list[tuple[tuple[float, np.ndarray], tuple[float, np.ndarray]]],
    bundle: PathBundle,
    basis,
    g_is_zero: bool = False,
) -> list[dict]:
    """Mean-square solution gaps between nearby starting nodes.

    Both solves share the bundle (common random numbers); the table reports
    E|Y_s - Y'_s|^2 averaged over common times against the node separation.
    """
    rows = []
    grid = bundle.grid
    for (t1, x1), (t2, x2) in node_pairs:
        x1 = np.atleast_1d(np.asarray(x1, dtype=float))
        x2 = np.atleast_1d(np.asarray(x2, dtype=float))
        sol1, _ = solve_bdsde_markov(coeffs, domain, t1, x1, bundle, basis, g_is_zero=g_is_zero)
        sol2, _ = solve_bdsde_markov(coeffs, domain, t2, x2, bundle, basis, g_is_zero=g_is_zero)
        i0 = max(grid.index_of(t1), grid.index_of(t2))
        gap_sq = float(np.mean((sol1.Y[:, i0:, 0] - sol2.Y[:, i0:, 0]) ** 2))
        sep = abs(t1 - t2) + float(np.linalg.norm(x1 - x2))
        rows.append({
            "t": t1, "t_prime": t2,
            "x": x1.tolist(), "x_prime": x2.tolist(),
            "separation": sep,
            "mean_sq_gap": gap_sq,
            "ratio": gap_sq / sep**2 if sep > 0 else 0.0,
        })
    return rows
