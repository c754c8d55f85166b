"""Regression-based backward solvers for the generalized equations.

* ``solve_simple``     - coefficients given as sampled paths independent of
                         the solution; the value process is the projected
                         future sum, the control comes from the increment
                         regression.
* ``picard_solve``     - full nonlinear problem by outer fixed-point
                         iteration: freeze the solution inside the
                         coefficients, solve the resulting simple equation,
                         repeat; successive differences are tracked in an
                         exponentially weighted norm whose ratio exposes the
                         contraction factor (1 + alpha) / 2.
* ``solve_bdsde_markov`` and ``solve_transformed_gbsde`` - the Markovian
                         equation on a reflected diffusion, directly and
                         after the pathwise flow transform.

The last two run one backward-induction kernel, `_backward_induction`: per
step it regresses the control on the centred one-step target times dW / dt
and the value on base + f dt + h dk, the bracket of driver and boundary
terms evaluated at the current value for ``INNER_SWEEPS`` sweeps.  The
direct solver adds the backward-noise term g dB to the base; the
transformed one has none and brackets the transformed coefficients.

Measurability note: values at time t are regressed only on functionals
available at t -- the forward state (W or X) and, when the backward driver
varies across scenarios, the tail increment B_T - B_t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flows import _boundary_from_derivs, _generator_from_derivs
from .geometry import SmoothDomain
from .grids import TimeGrid
from .paths import PathBundle, swap_scenario_time, time_major_increments
from .problems import CoefficientSet
from .reflection import ReflectedPath, _euler_projection
from .regression import projector_walk

# fixed-point sweeps of the implicit driver and boundary terms per step
INNER_SWEEPS = 2


class PicardDivergence(RuntimeError):
    """Raised when the successive-difference norm grows three times in a row."""

    def __init__(self, trace: list[float]):
        super().__init__(f"no contraction: trace {trace}")
        self.trace = trace


@dataclass
class BdsdeSolution:
    """Per-time, per-scenario solution values with iteration diagnostics.

    Y has shape (S, T+1, n) and matches the terminal data exactly in its last
    slice; Z has shape (S, T+1, n, d) with the final slice identically zero
    (the control is left-continuous).  ``pathwise_totals`` carries the
    per-scenario unsmoothed estimator of the initial value, whose mean equals
    Y at the start time by construction (every projection preserves means).
    Y and Z are C-contiguous and scenario-major; the backward-induction
    kernel and the Picard coefficient loop step on time-major rows and
    transpose once at the end.
    """

    grid: TimeGrid
    Y: np.ndarray
    Z: np.ndarray
    picard_trace: list[float] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    pathwise_totals: np.ndarray | None = None

    def initial_se(self) -> np.ndarray:
        if self.pathwise_totals is None:
            raise ValueError("solution carries no pathwise totals")
        s = self.pathwise_totals.shape[0]
        return self.pathwise_totals.std(axis=0, ddof=1) / np.sqrt(s)


def _finite_solution(solver: str, grid: TimeGrid, Y: np.ndarray, Z: np.ndarray,
                     k: np.ndarray, totals: np.ndarray) -> BdsdeSolution:
    """The solution of a Markovian induction; FloatingPointError unless finite."""
    if not (np.isfinite(Y).all() and np.isfinite(Z).all()):
        raise FloatingPointError(f"{solver} produced non-finite solution values")
    return BdsdeSolution(grid=grid, Y=Y, Z=Z, diagnostics=solution_norms(Y, Z, k, grid),
                         pathwise_totals=totals[:, None])


def _as_k(k_path: np.ndarray | None, n_scen: int, n_pts: int) -> np.ndarray:
    if k_path is None:
        return np.zeros((n_scen, n_pts))
    k = np.asarray(k_path, dtype=float)
    # one path, 1-D or (1, T+1), serves every scenario
    return np.broadcast_to(k, (n_scen, n_pts)) if k.ndim == 1 or k.shape[0] == 1 else k


def _as_columns(values: np.ndarray) -> np.ndarray:
    """Per-scenario values as an (S, n) float array; 1-D input is one column."""
    values = np.asarray(values, dtype=float)
    return values[:, None] if values.ndim == 1 else values


def _points_of(bundle: PathBundle, with_backward_tail: bool, state: np.ndarray | None = None):
    """``points_of`` for `projector_walk`: the time-major (T+1, S, m) state,
    W by default, plus B_T - B_t when ``with_backward_tail``."""
    state = np.swapaxes(bundle.W, 0, 1) if state is None else state

    def points_of(lo: int, hi: int) -> np.ndarray:
        if not with_backward_tail:
            return state[lo:hi]
        tail = np.swapaxes(bundle.B[:, -1:, :] - bundle.B[:, lo:hi, :], 0, 1)
        return np.concatenate([state[lo:hi], tail], axis=2)

    return points_of


def default_feature_fn(bundle: PathBundle, with_backward_tail: bool):
    """Feature points at index i: W_t coordinates plus, optionally, B_T - B_t."""
    points_of = _points_of(bundle, with_backward_tail)
    return lambda i: points_of(i, i + 1)[0]


def solve_simple(
    xi: np.ndarray,
    f_path: np.ndarray | None,
    g_path: np.ndarray | None,
    h_path: np.ndarray | None,
    k_path: np.ndarray | None,
    bundle: PathBundle,
    basis,
    feature_fn=None,
    projectors: list | None = None,
) -> BdsdeSolution:
    """Solve the linear (solution-free coefficient) equation by projection.

    The value at t_i is the fitted conditional expectation of
    xi + sum_{j>=i} f_j dt + sum h_j dk_j + sum g_{j+1} dB_j given the
    features at t_i; the control at t_i regresses the one-step target times
    dW_i / dt.  Coefficient paths have shapes (S, T+1, n) for f, h and
    (S, T+1, n, d) for g; any of them may be None (treated as zero).
    """
    grid = bundle.grid
    S, n_pts, d = bundle.scenario_count, len(grid), bundle.d
    xi = _as_columns(xi)
    n = xi.shape[1]
    dt = grid.dt
    k = _as_k(k_path, S, n_pts)
    dk = np.diff(k, axis=1)
    dB, dW = bundle.dB, bundle.dW

    f_steps = np.zeros((S, grid.step_count, n))
    if f_path is not None:
        f_steps = f_path[:, :-1, :] * dt
    h_steps = np.zeros((S, grid.step_count, n))
    if h_path is not None:
        h_steps = h_path[:, :-1, :] * dk[:, :, None]
    g_steps = np.zeros((S, grid.step_count, n))
    if g_path is not None:
        g_steps = np.einsum("stnd,std->stn", g_path[:, 1:, :, :], dB)

    increments = f_steps + h_steps + g_steps
    future = np.concatenate(
        [np.cumsum(increments[:, ::-1, :], axis=1)[:, ::-1, :], np.zeros((S, 1, n))], axis=1
    )
    targets = xi[:, None, :] + future  # (S, T+1, n)

    Y = np.empty((S, n_pts, n))
    Z = np.zeros((S, n_pts, n, d))
    Y[:, -1, :] = xi
    backward = range(grid.step_count - 1, -1, -1)
    if projectors is None:
        if feature_fn is None:
            points_of = _points_of(bundle, not bundle.shared_b and g_path is not None)
        else:
            points_of = lambda lo, hi: np.stack([feature_fn(i) for i in range(lo, hi)])
        walk = projector_walk(points_of, basis, backward)
    else:
        walk = ((i, projectors[i]) for i in backward)
    for i, proj in walk:
        one_step = Y[:, i + 1, :] + f_steps[:, i, :] + h_steps[:, i, :] + g_steps[:, i, :]
        z_target = one_step[:, :, None] * dW[:, i, None, :] / dt
        stacked = proj.fit(
            np.concatenate([targets[:, i, :], z_target.reshape(S, -1)], axis=1))
        Y[:, i, :] = stacked[:, :n]
        Z[:, i, :, :] = stacked[:, n:].reshape(S, n, d)

    return BdsdeSolution(
        grid=grid, Y=Y, Z=Z,
        diagnostics=solution_norms(Y, Z, k, grid),
        pathwise_totals=targets[:, 0, :],
    )


def solution_norms(Y: np.ndarray, Z: np.ndarray, k: np.ndarray, grid: TimeGrid) -> dict:
    """Empirical sup/flow/boundary norms of a solution pair.

    For n = d = 1 the squared norms index the size-1 trailing axes instead
    of summing over them (a one-term sum is that term, so the floats agree).
    """
    dt = grid.dt
    dk = np.diff(k, axis=1)
    scalar = Z.shape[-2:] == (1, 1)
    y_sq = Y[..., 0] ** 2 if scalar else np.sum(Y**2, axis=-1)
    sup_sq = np.max(y_sq, axis=1)
    k2 = np.sum(y_sq[:, :-1] * dk, axis=1)
    del y_sq
    z_sq = Z[:, :-1, 0, 0] ** 2 if scalar else np.sum(Z[:, :-1] ** 2, axis=(-2, -1))
    m2 = np.sum(z_sq * dt, axis=1)
    return {
        "s2_norm": float(np.mean(sup_sq)),
        "m2_norm": float(np.mean(m2)),
        "k2_norm": float(np.mean(k2)),
    }


def weighted_difference_norm(
    dY: np.ndarray,
    dZ: np.ndarray,
    k: np.ndarray,
    grid: TimeGrid,
    mu: float = 1.0,
    lam: float = 1.0,
    c_bar: float = 1.0,
    c_k: float = 1.0,
) -> float:
    """Exponentially weighted norm of a solution difference.

    c_bar E int e^{mu t + lam k} |dY|^2 dt + c_k E int e^{...} |dY|^2 dk
    + E int e^{...} |dZ|^2 dt, discretized at the left endpoints.
    """
    dt = grid.dt
    dk = np.diff(k, axis=1)
    weights = np.exp(mu * grid.points[None, :-1] + lam * k[:, :-1])
    y_sq = np.sum(dY[:, :-1] ** 2, axis=-1)
    z_sq = np.sum(dZ[:, :-1] ** 2, axis=(-2, -1))
    total = (
        c_bar * np.sum(weights * y_sq * dt, axis=1)
        + c_k * np.sum(weights * y_sq * dk, axis=1)
        + np.sum(weights * z_sq * dt, axis=1)
    )
    return float(np.mean(total))


def picard_solve(
    coeffs: CoefficientSet,
    xi: np.ndarray,
    k_path: np.ndarray | None,
    bundle: PathBundle,
    basis,
    tol: float = 1e-10,
    max_iter: int = 12,
    mu: float = 1.0,
    lam: float = 1.0,
    x_path: np.ndarray | None = None,
) -> BdsdeSolution:
    """Outer fixed-point iteration for the full nonlinear equation.

    Freezes (Y, Z) inside f, g, h, solves the resulting simple equation and
    repeats until the weighted norm of successive differences drops below
    tol (or max_iter is hit).  Raises PicardDivergence if the trace grows for
    three consecutive iterations, and FloatingPointError when a difference
    norm is not finite (a non-finite iterate makes its norm non-finite).
    """
    grid = bundle.grid
    S, n_pts = bundle.scenario_count, len(grid)
    xi = _as_columns(xi)
    n = xi.shape[1]
    k = _as_k(k_path, S, n_pts)
    times = grid.points

    Y = np.zeros((S, n_pts, n))
    Z = np.zeros((S, n_pts, n, coeffs.d))
    projectors = [proj for _, proj in projector_walk(_points_of(bundle, not bundle.shared_b),
                                                     basis, range(grid.step_count))]
    # coefficients are evaluated per time into time-major buffers; solve_simple
    # reads them through scenario-major views, so its per-step slices of the
    # coefficient paths are contiguous
    x_rows = None if x_path is None else swap_scenario_time(x_path)
    f_rows = np.empty((n_pts, S, n))
    h_rows = np.empty((n_pts, S, n))
    g_rows = np.empty((n_pts, S, n, coeffs.d))
    trace: list[float] = []
    solution = None
    grew = 0
    for _ in range(max_iter):
        y_rows, z_rows = swap_scenario_time(Y), swap_scenario_time(Z)
        for i in range(n_pts):
            x_i = None if x_rows is None else x_rows[i]
            f_rows[i] = coeffs.f(times[i], x_i, y_rows[i], z_rows[i])
            h_rows[i] = coeffs.h(times[i], x_i, y_rows[i])
            g_rows[i] = coeffs.g(times[i], x_i, y_rows[i], z_rows[i])
        del y_rows, z_rows
        solution = solve_simple(xi, np.swapaxes(f_rows, 0, 1), np.swapaxes(g_rows, 0, 1),
                                np.swapaxes(h_rows, 0, 1), k, bundle, basis,
                                projectors=projectors)
        norm = weighted_difference_norm(solution.Y - Y, solution.Z - Z, k, grid, mu, lam)
        if not np.isfinite(norm):
            raise FloatingPointError(
                f"Picard iteration {len(trace) + 1} gave a non-finite difference norm")
        trace.append(norm)
        Y, Z = solution.Y, solution.Z
        if len(trace) >= 2 and trace[-1] > trace[-2]:
            grew += 1
            if grew >= 3:
                raise PicardDivergence(trace)
        else:
            grew = 0
        if norm <= tol:
            break
    solution.picard_trace = trace
    return solution


def apriori_ratio(
    solution: BdsdeSolution,
    coeffs: CoefficientSet,
    xi: np.ndarray,
    k_path: np.ndarray | None,
    mu: float = 1.0,
    lam: float = 1.0,
) -> dict:
    """Both sides of the a-priori energy estimate and their ratio.

    LHS: E(sup e^{mu t + lam k}|Y|^2 + int e |Y|^2 dk + int e |Z|^2 dt);
    RHS: the same weights against the terminal value and the coefficient
    growth envelopes.  A zero RHS with a nonzero LHS is reported as a
    violation.
    """
    grid = solution.grid
    S, n_pts = solution.Y.shape[0], len(grid)
    xi = _as_columns(xi)
    k = _as_k(k_path, S, n_pts)
    dt = grid.dt
    dk = np.diff(k, axis=1)
    w = np.exp(mu * grid.points[None, :] + lam * k)

    y_sq = np.sum(solution.Y**2, axis=-1)
    z_sq = np.sum(solution.Z**2, axis=(-2, -1))
    lhs = float(np.mean(
        np.max(w * y_sq, axis=1)
        + np.sum(w[:, :-1] * y_sq[:, :-1] * dk, axis=1)
        + np.sum(w[:, :-1] * z_sq[:, :-1] * dt, axis=1)
    ))
    f_env = np.array([coeffs.f_env(t) for t in grid.points])
    g_env = np.array([coeffs.g_env(t) for t in grid.points])
    h_env = np.array([coeffs.h_env(t) for t in grid.points])
    rhs = float(np.mean(
        w[:, -1] * np.sum(xi**2, axis=-1)
        + np.sum(w[:, :-1] * f_env[None, :-1] ** 2 * dt, axis=1)
        + np.sum(w[:, :-1] * h_env[None, :-1] ** 2 * dk, axis=1)
        + np.sum(w[:, :-1] * g_env[None, :-1] ** 2 * dt, axis=1)
    ))
    result = {"lhs": lhs, "rhs": rhs, "trivial": lhs <= 1e-12}
    if rhs == 0.0:
        # a vanishing right side with energy on the left is a violation
        result["ratio"] = 0.0 if result["trivial"] else float("inf")
    else:
        result["ratio"] = lhs / rhs
    return result


def stability_gap(
    data: dict,
    data_prime: dict,
    solution: BdsdeSolution,
    solution_prime: BdsdeSolution,
    mu: float = 1.0,
) -> dict:
    """Both sides of the two-data stability estimate.

    ``data`` and ``data_prime`` are dicts with keys xi, coeffs, k (arrays /
    coefficient sets); both solutions must live on one shared bundle.  The
    weight uses A_t = |k - k'|_tv(t) + k'_t and the coefficient differences
    are evaluated along the first solution, as in the estimate.
    """
    grid = solution.grid
    S, n_pts = solution.Y.shape[0], len(grid)
    dt = grid.dt
    k = _as_k(data.get("k"), S, n_pts)
    kp = _as_k(data_prime.get("k"), S, n_pts)
    dk_gap = np.abs(np.diff(k - kp, axis=1))
    k_var = np.concatenate([np.zeros((S, 1)), np.cumsum(dk_gap, axis=1)], axis=1)
    a_t = k_var + kp
    w = np.exp(mu * a_t)

    dY = solution.Y - solution_prime.Y
    dZ = solution.Z - solution_prime.Z
    lhs = float(np.mean(
        np.max(w * np.sum(dY**2, axis=-1), axis=1)
        + np.sum(w[:, :-1] * np.sum(dZ[:, :-1] ** 2, axis=(-2, -1)) * dt, axis=1)
    ))

    co, cp = data["coeffs"], data_prime["coeffs"]
    xi, xip = _as_columns(data["xi"]), _as_columns(data_prime["xi"])
    times = grid.points
    Y, Z = solution.Y, solution.Z
    f_gap_sq = np.empty((S, n_pts))
    g_gap_sq = np.empty((S, n_pts))
    h_gap_sq = np.empty((S, n_pts))
    h_sq = np.empty((S, n_pts))
    for i in range(n_pts):
        f_gap = co.f(times[i], None, Y[:, i], Z[:, i]) - cp.f(times[i], None, Y[:, i], Z[:, i])
        g_gap = co.g(times[i], None, Y[:, i], Z[:, i]) - cp.g(times[i], None, Y[:, i], Z[:, i])
        h_here = co.h(times[i], None, Y[:, i])
        h_gap = h_here - cp.h(times[i], None, Y[:, i])
        f_gap_sq[:, i] = np.sum(f_gap**2, axis=-1)
        g_gap_sq[:, i] = np.sum(g_gap**2, axis=(-2, -1))
        h_gap_sq[:, i] = np.sum(h_gap**2, axis=-1)
        h_sq[:, i] = np.sum(h_here**2, axis=-1)
    dkp = np.diff(kp, axis=1)
    rhs = float(np.mean(
        w[:, -1] * np.sum((xi - xip) ** 2, axis=-1)
        + np.sum(w[:, :-1] * f_gap_sq[:, :-1] * dt, axis=1)
        + np.sum(w[:, :-1] * h_sq[:, :-1] * dk_gap, axis=1)
        + np.sum(w[:, :-1] * h_gap_sq[:, :-1] * dkp, axis=1)
        + np.sum(w[:, :-1] * g_gap_sq[:, :-1] * dt, axis=1)
    ))
    return {"lhs": lhs, "rhs": rhs}


def solve_bdsde_markov(
    coeffs: CoefficientSet,
    domain: SmoothDomain,
    start_time: float,
    x0: np.ndarray,
    bundle: PathBundle,
    basis,
    reflected: ReflectedPath | None = None,
    g_is_zero: bool = False,
) -> tuple[BdsdeSolution, ReflectedPath]:
    """Backward induction for the Markovian equation on a reflected diffusion.

    Simulates (X, k) from (start_time, x0) unless paths are supplied and runs
    `_backward_induction` from the terminal map, with the backward-noise
    term read at the right endpoint (zero when ``g_is_zero``).  Scalar-valued
    problems only (n = 1).  Raises FloatingPointError when Y or Z is not
    finite.

    A path simulated here stays in the Euler loop's time-major buffers, with
    its dW, for the induction; it is transposed into the returned
    `ReflectedPath` afterwards.
    """
    if coeffs.n != 1:
        raise ValueError("the Markovian solver handles scalar-valued problems (n = 1)")
    if coeffs.l is None:
        raise ValueError("Markovian problems need a terminal map l")
    grid = bundle.grid
    times, dt = grid.points, grid.dt
    start_idx = grid.index_of(start_time)
    if reflected is None:
        X, k, flags, excluded, dW = _euler_projection(coeffs, domain, start_time, x0, bundle)
        dk = np.diff(k, axis=0)
    else:
        X = swap_scenario_time(reflected.X)
        dk = time_major_increments(reflected.k)
        dW = time_major_increments(bundle.W)
    terminal = coeffs.l(X[-1])

    dB = None if g_is_zero else time_major_increments(bundle.B)
    g_zero = np.zeros((len(terminal), 1))

    def noise(i, y_next, z_next):
        # g = 0 still adds a zero term: the base stays a fresh array, and the
        # kernel keeps its rows contiguous (see `_backward_induction`)
        if dB is None:
            return g_zero
        g_right = coeffs.g(times[i + 1], X[i + 1], y_next, z_next)
        return np.einsum("snd,sd->sn", g_right, dB[i])

    def bracket(i, x_i, dk_i, y, z):
        return coeffs.f(times[i], x_i, y, z) * dt, coeffs.h(times[i], x_i, y) * dk_i[:, None]

    Y, Z, increments = _backward_induction(
        X, dk, dW, bundle, basis, range(grid.step_count - 1, start_idx - 1, -1),
        not bundle.shared_b and not g_is_zero, terminal, noise, bracket)
    del dk, dW, dB
    Y[:start_idx] = Y[start_idx]
    if reflected is None:
        # rebinding frees each time-major buffer before the next copy is made
        X = swap_scenario_time(X)
        k = swap_scenario_time(k)
        flags = swap_scenario_time(flags)
        reflected = ReflectedPath(grid=grid, X=X, k=k, boundary_flags=flags,
                                  excluded=excluded)
    # drops the time-major copy of a supplied path before Y and Z are copied
    del X
    Y = swap_scenario_time(Y)
    Z = swap_scenario_time(Z)
    return _finite_solution("solve_bdsde_markov", grid, Y, Z, reflected.k,
                            terminal + increments), reflected


def solve_transformed_gbsde(
    coeffs: CoefficientSet,
    domain: SmoothDomain,
    flow_like,
    reflected: ReflectedPath,
    bundle: PathBundle,
    basis,
) -> BdsdeSolution:
    """Backward induction for the flow-transformed, backward-noise-free equation.

    Runs `_backward_induction` without a backward-noise term on the reflected
    paths of the direct solver (one fixed backward scenario, the flow's).
    The bracket holds the transformed driver and boundary coefficient; the
    latter is evaluated only on boundary scenarios (positive k increment),
    on the boundary rows of the one flow-derivative lookup per inner sweep
    that serves the generator.  Raises FloatingPointError when the solution
    is not finite.
    """
    grid = bundle.grid
    times, dt = grid.points, grid.dt
    # a view: X is only read, and a copy would take 80 MB at 10^4 x 1001
    X = np.swapaxes(reflected.X, 0, 1)
    dk = time_major_increments(reflected.k)
    dW = time_major_increments(bundle.W)
    terminal = coeffs.l(X[-1])

    def bracket(i, x_i, dk_i, y, z):
        # one derivative lookup per sweep serves the generator and, sliced,
        # the boundary coefficient on the same points
        dv = flow_like.derivs(i, x_i, y[:, 0])
        f_val = _generator_from_derivs(coeffs, dv, times[i], x_i, y[:, 0], z[:, 0, :])
        h_val = np.zeros(len(y))
        on_boundary = dk_i > 0
        if np.any(on_boundary):
            h_val[on_boundary] = _boundary_from_derivs(
                coeffs, domain, {key: v[on_boundary] for key, v in dv.items()},
                times[i], x_i[on_boundary], y[on_boundary, 0],
            )
        return f_val[:, None] * dt, (h_val * dk_i)[:, None]

    Y, Z, increments = _backward_induction(
        X, dk, dW, bundle, basis, range(grid.step_count - 1, -1, -1), False, terminal,
        None, bracket)
    # views of scenario-major buffers: no copies
    return _finite_solution("solve_transformed_gbsde", grid, swap_scenario_time(Y),
                            swap_scenario_time(Z), reflected.k, terminal + increments)


def _backward_induction(
    X: np.ndarray,
    dk: np.ndarray,
    dW: np.ndarray,
    bundle: PathBundle,
    basis,
    steps: range,
    with_backward_tail: bool,
    terminal: np.ndarray,
    noise,
    bracket,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The backward induction of the Markovian and the transformed solvers.

    Walks `projector_walk` over the descending ``steps`` on time-major X
    (T+1, S, m), dk (T, S) and dW (T, S, d), with the state (plus B_T - B_t
    when ``with_backward_tail``) as features.  The base at step i is Y_{i+1}
    plus ``noise(i, Y_{i+1}, Z_{i+1})`` (Y_{i+1} itself when ``noise`` is
    None); ``bracket(i, X_i, dk_i, y, Z_i)`` returns (f dt, h dk) at the
    value y.  Returns time-major Y (T+1, S, 1) and Z (T+1, S, 1, d), set
    from the first of ``steps`` on, and the per-scenario sum of the driver,
    boundary and backward-noise terms.
    """
    grid = bundle.grid
    S, d = dW.shape[1:]
    if noise is None:
        # the base is the stored Y_{i+1}, which the transformed solver has
        # always fitted from scenario-major storage: a rank-1 fit of a strided
        # row rounds unlike one of a contiguous row.  Fresh bases allow the
        # faster contiguous rows.
        y_rows = np.swapaxes(np.empty((S, len(grid), 1)), 0, 1)
        z_rows = np.swapaxes(np.zeros((S, len(grid), 1, d)), 0, 1)
    else:
        y_rows, z_rows = np.empty((len(grid), S, 1)), np.zeros((len(grid), S, 1, d))
    y_rows[-1, :, 0] = terminal
    increments = np.zeros(S)
    g_term = np.zeros((S, 1))
    points_of = _points_of(bundle, with_backward_tail, X)
    for i, proj in projector_walk(points_of, basis, steps):
        if noise is None:
            base = y_rows[i + 1]
        else:
            g_term = noise(i, y_rows[i + 1], z_rows[i + 1])
            base = y_rows[i + 1] + g_term
        y_guess = proj.fit(base)
        # centred increment regression: subtracting the fitted conditional
        # mean leaves the estimator unbiased and kills the level noise, so a
        # constant value process yields an exactly zero control
        z_target = (base - y_guess)[:, :, None] * dW[i, :, None, :] / grid.dt
        z_rows[i] = proj.fit(z_target.reshape(S, -1)).reshape(S, 1, d)
        for _ in range(INNER_SWEEPS):
            f_dt, h_dk = bracket(i, X[i], dk[i], y_guess, z_rows[i])
            y_guess = proj.fit(base + f_dt + h_dk)
        y_rows[i] = y_guess
        increments += (f_dt + h_dk + g_term)[:, 0]
    return y_rows, z_rows, increments
