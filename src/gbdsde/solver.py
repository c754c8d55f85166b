"""Regression-based backward solvers for the generalized equations.

* ``solve_simple``     - coefficients given as sampled paths independent of
                         the solution; the value process is the projected
                         future sum, the control comes from the increment
                         regression.
* ``picard_solve``     - full nonlinear problem by outer fixed-point
                         iteration: freeze the solution inside the
                         coefficients, solve the resulting simple equation,
                         repeat; successive differences are tracked in the
                         energy norm (below), whose ratio exposes the
                         contraction factor (1 + alpha) / 2.
* ``solve_bdsde_markov`` and ``solve_transformed_gbsde`` - the Markovian
                         equation on a reflected diffusion, directly and
                         after the pathwise flow transform.

The last two run one backward-induction kernel, `_backward_induction`: per
step it regresses the control on the centred one-step target times dW / dt
and the value on base + f dt + h dk, the bracket of driver and boundary
terms evaluated at the current value for ``INNER_SWEEPS`` sweeps.  The base
is Y_{i+1} plus the backward-noise term g dB of the direct solver (none
when g is None, and none for the transformed solver, which brackets the
transformed coefficients).  Its rows are time-major views of scenario-major
storage, which both solvers return as is.

The kernel's rows carry a node axis: N blocks of the bundle's S scenarios,
started from N points at one time and driven by the same increments.  The
coefficients see all N S rows at once, while each node is regressed on its
own rows with its own projectors, so a node's values do not depend on its
block.  The two public Markovian solvers are the case N = 1; the field
estimator (`fields.evaluate_u`) solves its nodes N at a time through
`_markov_start_values`, keeping only the rows of the current and the next
step.

``solve_simple`` and the Picard iteration run the multi-step estimator
`_simple_induction` on time-major rows: the targets of every step are built
before the loop, each step fits one contiguous [target | control target]
buffer, and the results are transposed once at the end.

The a-priori and stability estimates and the Picard energy norm weigh
sup |Y|^2, int |Y|^2 dk and int |Z|^2 dt (`_squares`) by e^{MU t + LAM k}
(`_energy_weight`, with the constants ``MU`` = ``LAM`` = 1).

Measurability note: values at time t are regressed only on functionals
available at t -- the forward state (W or X) and, when the backward noise
enters and varies across scenarios, the tail B_T - B_t (`_points_of`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flows import _boundary_from_derivs, _generator_from_derivs
from .geometry import SmoothDomain
from .grids import TimeGrid
from .paths import PathBundle, swap_scenario_time, time_major_increments
from .problems import CoefficientSet
from .reflection import ReflectedPath, _euler_projection, _reflected_path
from .regression import projector_walk

# fixed-point sweeps of the implicit driver and boundary terms per step
INNER_SWEEPS = 2
# the time and boundary rates of the energy weight e^{MU t + LAM k}
MU = 1.0
LAM = 1.0


class PicardDivergence(RuntimeError):
    """Raised when the successive-difference norm grows three times in a row."""

    def __init__(self, trace: list[float]):
        super().__init__(f"no contraction: trace {trace}")
        self.trace = trace


@dataclass
class BdsdeSolution:
    """Per-time, per-scenario solution values with the Picard trace.

    Y has shape (S, T+1, n) and matches the terminal data exactly in its last
    slice; Z has shape (S, T+1, n, d) with the final slice identically zero
    (the control is left-continuous).  ``pathwise_totals`` carries the
    per-scenario unsmoothed estimator of the initial value, whose mean equals
    Y at the start time by construction (every projection preserves means).
    Y and Z are C-contiguous and scenario-major: the backward-induction
    kernel steps through time-major views of scenario-major storage, and
    `_simple_induction` steps on time-major rows transposed once at the end.
    """

    grid: TimeGrid
    Y: np.ndarray
    Z: np.ndarray
    pathwise_totals: np.ndarray
    picard_trace: list[float] = field(default_factory=list)

    def initial_se(self) -> np.ndarray:
        return _standard_error(self.pathwise_totals)


def _standard_error(totals: np.ndarray) -> np.ndarray:
    """Standard error of the mean of per-scenario (S, n) totals, per column."""
    return totals.std(axis=0, ddof=1) / np.sqrt(totals.shape[0])


def _solution(grid: TimeGrid, Y: np.ndarray, Z: np.ndarray, totals: np.ndarray,
              trace=()) -> BdsdeSolution:
    """A solution; 1-D pathwise totals become one column."""
    return BdsdeSolution(grid=grid, Y=Y, Z=Z, pathwise_totals=_as_columns(totals),
                         picard_trace=list(trace))


def _as_k(k_path: np.ndarray | None, n_scen: int, n_pts: int) -> np.ndarray:
    if k_path is None:
        return np.zeros((n_scen, n_pts))
    # one path, 1-D or (1, T+1), serves every scenario
    return np.broadcast_to(np.asarray(k_path, dtype=float), (n_scen, n_pts))


def _as_columns(values: np.ndarray) -> np.ndarray:
    """Per-scenario values as an (S, n) float array; 1-D input is one column."""
    values = np.asarray(values, dtype=float)
    return values[:, None] if values.ndim == 1 else values


def _points_of(bundle: PathBundle, noise_enters: bool, state: np.ndarray | None = None):
    """``points_of`` for `projector_walk`: the time-major (T+1, N S, m) state,
    W by default, plus B_T - B_t (the same for each of the N node blocks)
    when the backward noise enters and B varies across scenarios."""
    state = np.swapaxes(bundle.W, 0, 1) if state is None else state
    nodes = state.shape[1] // bundle.scenario_count
    with_tail = noise_enters and not bundle.shared_b

    def points_of(lo: int, hi: int) -> np.ndarray:
        if not with_tail:
            return state[lo:hi]
        tail = np.swapaxes(bundle.B[:, -1:, :] - bundle.B[:, lo:hi, :], 0, 1)
        return np.concatenate([state[lo:hi], np.tile(tail, (1, nodes, 1))], axis=2)

    return points_of


def solve_simple(
    xi: np.ndarray,
    f_path: np.ndarray | None,
    g_path: np.ndarray | None,
    h_path: np.ndarray | None,
    k_path: np.ndarray | None,
    bundle: PathBundle,
    basis,
) -> BdsdeSolution:
    """Solve the linear (solution-free coefficient) equation by projection.

    The value at t_i is the fitted conditional expectation of
    xi + sum_{j>=i} f_j dt + sum h_j dk_j + sum g_{j+1} dB_j given the
    features at t_i; the control at t_i regresses the one-step target times
    dW_i / dt.  Coefficient paths have shapes (S, T+1, n) for f, h and
    (S, T+1, n, d) for g; any of them may be None (treated as zero).
    Raises FloatingPointError when Y or Z is not finite.
    """
    grid = bundle.grid
    S, n_pts = bundle.scenario_count, len(grid)
    xi = _as_columns(xi)
    k = _as_k(k_path, S, n_pts)
    walk = projector_walk(_points_of(bundle, g_path is not None), basis,
                          range(grid.step_count - 1, -1, -1))

    def rows(path):
        return None if path is None else np.swapaxes(path, 0, 1)

    dB = None if g_path is None else time_major_increments(bundle.B)
    Y, Z, totals = _simple_induction(xi, rows(f_path), rows(g_path), rows(h_path),
                                     time_major_increments(k),
                                     time_major_increments(bundle.W), dB, grid.dt, walk)
    if not (np.isfinite(Y).all() and np.isfinite(Z).all()):
        raise FloatingPointError("solve_simple produced non-finite solution values")
    return _solution(grid, swap_scenario_time(Y), swap_scenario_time(Z), totals)


def _simple_induction(xi, f_rows, g_rows, h_rows, dk, dW, dB, dt, walk):
    """The projection pass of `solve_simple` on time-major rows.

    Takes the (S, n) terminal values, coefficient rows (T+1, S, n) for f
    and h and (T+1, S, n, d) for g (each may be None), the time-major
    increments of k (T, S), W and B (T, S, d; dB is read only with g), the
    step and the backward walk of (i, projector).  The targets are built for
    every step first; each step then fits one contiguous
    [target | control target] buffer.  Returns time-major Y (T+1, S, n),
    Z (T+1, S, n, d) and the (S, n) pathwise totals.
    """
    steps, S, d = dW.shape
    n = xi.shape[1]
    f_steps = np.zeros((steps, S, n))
    if f_rows is not None:
        np.multiply(f_rows[:-1], dt, out=f_steps)
    h_steps = np.zeros((steps, S, n))
    if h_rows is not None:
        np.multiply(h_rows[:-1], dk[:, :, None], out=h_steps)
    g_steps = np.zeros((steps, S, n))
    if g_rows is not None:
        np.einsum("tsnd,tsd->tsn", g_rows[1:], dB, out=g_steps)

    # targets[i] = xi + the sum of the increments of steps i, ..., T-1,
    # accumulated from the last step back
    targets = np.empty((steps + 1, S, n))
    targets[-1] = 0.0
    np.cumsum((f_steps + h_steps + g_steps)[::-1], axis=0, out=targets[-2::-1])
    targets += xi

    Y = np.empty((steps + 1, S, n))
    Z = np.zeros((steps + 1, S, n, d))
    Y[-1] = xi
    stacked = np.empty((S, n + n * d))
    for i, proj in walk:
        one_step = Y[i + 1] + f_steps[i] + h_steps[i] + g_steps[i]
        stacked[:, :n] = targets[i]
        stacked[:, n:] = (one_step[:, :, None] * dW[i, :, None, :] / dt).reshape(S, -1)
        fitted = proj.fit(stacked)
        Y[i] = fitted[:, :n]
        Z[i] = fitted[:, n:].reshape(S, n, d)
    return Y, Z, targets[0]


def _squares(Y: np.ndarray, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|Y|^2 (S, T+1) and the left-endpoint |Z|^2 (S, T) of a solution pair.

    For n = d = 1 they index the size-1 trailing axes instead of summing over
    them (a one-term sum is that term, so the floats agree).
    """
    if Z.shape[-2:] == (1, 1):
        return Y[..., 0] ** 2, Z[:, :-1, 0, 0] ** 2
    return np.sum(Y**2, axis=-1), np.sum(Z[:, :-1] ** 2, axis=(-2, -1))


def _energy_weight(times, k: np.ndarray) -> np.ndarray:
    """The energy weight e^{MU t + LAM k} of the estimates, per scenario and time."""
    return np.exp(MU * times + LAM * k)


def _norm_weights(k: np.ndarray, grid: TimeGrid):
    """The left-endpoint energy weights, computed on k[:, :-1] to come out
    contiguous, and the k increments, both (S, T)."""
    return _energy_weight(grid.points[:-1], k[:, :-1]), np.diff(k, axis=1)


def _weighted_norm(dY, dZ, weights, dk, dt) -> float:
    """The Picard contraction norm of a solution difference, E int e^{MU t + LAM k}
    (|dY|^2 dt + |dY|^2 dk + |dZ|^2 dt) at the left endpoints (`_norm_weights`)."""
    y_sq, z_sq = _squares(dY, dZ)
    y_sq = y_sq[:, :-1]
    total = (
        np.sum(weights * y_sq * dt, axis=1)
        + np.sum(weights * y_sq * dk, axis=1)
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
) -> BdsdeSolution:
    """Outer fixed-point iteration for the full nonlinear equation.

    Freezes (Y, Z) inside f, g, h (called with x = None), solves the
    resulting simple equation and repeats until the energy-weighted norm of
    successive differences (`_weighted_norm`) drops below tol (or
    max_iter is hit).  Raises PicardDivergence if the trace grows for three
    consecutive iterations, and FloatingPointError when a difference norm is
    not finite (a non-finite iterate makes its norm non-finite).

    The iterates stay time-major: the coefficients are evaluated per time
    on their rows and `solve_simple`'s pass runs on them directly; the
    difference norm is taken on scenario-major copies, and the solution is
    transposed once at the end.
    """
    grid = bundle.grid
    S, n_pts = bundle.scenario_count, len(grid)
    xi = _as_columns(xi)
    n = xi.shape[1]
    k = _as_k(k_path, S, n_pts)
    # built once per solve: every pass reads the same increments
    increments = (time_major_increments(k), time_major_increments(bundle.W),
                  None if coeffs.g is None else time_major_increments(bundle.B))
    weights, dk = _norm_weights(k, grid)
    times = grid.points
    backward = range(grid.step_count - 1, -1, -1)

    # B_T - B_t stays a feature when g is None: one feature set for every problem
    projectors = [proj for _, proj in projector_walk(_points_of(bundle, True), basis,
                                                     range(grid.step_count))]
    y_rows = np.zeros((n_pts, S, n))
    z_rows = np.zeros((n_pts, S, n, coeffs.d))
    f_rows = np.empty((n_pts, S, n))
    h_rows = np.empty((n_pts, S, n))
    g_rows = None if coeffs.g is None else np.empty((n_pts, S, n, coeffs.d))
    trace: list[float] = []
    totals = None
    grew = 0
    for _ in range(max_iter):
        for i in range(n_pts):
            f_rows[i] = coeffs.f(times[i], None, y_rows[i], z_rows[i])
            h_rows[i] = coeffs.h(times[i], None, y_rows[i])
            if g_rows is not None:
                g_rows[i] = coeffs.g(times[i], None, y_rows[i], z_rows[i])
        Y, Z, totals = _simple_induction(xi, f_rows, g_rows, h_rows, *increments, grid.dt,
                                         ((i, projectors[i]) for i in backward))
        norm = _weighted_norm(swap_scenario_time(Y - y_rows), swap_scenario_time(Z - z_rows),
                              weights, dk, grid.dt)
        if not np.isfinite(norm):
            raise FloatingPointError(
                f"Picard iteration {len(trace) + 1} gave a non-finite difference norm")
        trace.append(norm)
        y_rows, z_rows = Y, Z
        if len(trace) >= 2 and trace[-1] > trace[-2]:
            grew += 1
            if grew >= 3:
                raise PicardDivergence(trace)
        else:
            grew = 0
        if norm <= tol:
            break
    return _solution(grid, swap_scenario_time(y_rows), swap_scenario_time(z_rows), totals, trace)


def apriori_ratio(
    solution: BdsdeSolution,
    coeffs: CoefficientSet,
    xi: np.ndarray,
    k_path: np.ndarray | None,
) -> dict:
    """Both sides of the a-priori energy estimate and their ratio.

    LHS: E(sup e^{MU t + LAM k}|Y|^2 + int e |Y|^2 dk + int e |Z|^2 dt);
    RHS: the same weights against the terminal value and the unit growth
    envelope, which every coefficient set has (``coeffs`` is not read).  For
    finite k the RHS is at least 2 sum_{i<T} e^{MU t_i + LAM k_i} dt > 0.
    """
    grid = solution.grid
    S, n_pts = solution.Y.shape[0], len(grid)
    xi = _as_columns(xi)
    k = _as_k(k_path, S, n_pts)
    dt = grid.dt
    dk = np.diff(k, axis=1)
    w = _energy_weight(grid.points, k)

    y_sq, z_sq = _squares(solution.Y, solution.Z)
    lhs = float(np.mean(
        np.max(w * y_sq, axis=1)
        + np.sum(w[:, :-1] * y_sq[:, :-1] * dk, axis=1)
        + np.sum(w[:, :-1] * z_sq * dt, axis=1)
    ))
    # the unit growth envelopes of f and g (dt) and of h (dk)
    envelope_dt = np.sum(w[:, :-1] * dt, axis=1)
    rhs = float(np.mean(
        w[:, -1] * np.sum(xi**2, axis=-1)
        + envelope_dt
        + np.sum(w[:, :-1] * dk, axis=1)
        + envelope_dt
    ))
    return {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs}


def stability_gap(
    solution: BdsdeSolution,
    solution_prime: BdsdeSolution,
    k_path: np.ndarray | None = None,
    k_path_prime: np.ndarray | None = None,
) -> float:
    """The left side of the two-data stability estimate,
    E(sup e^{LAM A}|Y - Y'|^2 + int e^{LAM A}|Z - Z'|^2 dt).

    Both solutions must live on one shared bundle, with the boundary
    processes ``k_path`` and ``k_path_prime`` (None for zero).  The energy
    weight is e^{LAM A_t}, with A_t = |k - k'|_tv(t) + k'_t in place of k and
    no time term.
    """
    grid = solution.grid
    S, n_pts = solution.Y.shape[0], len(grid)
    k = _as_k(k_path, S, n_pts)
    kp = _as_k(k_path_prime, S, n_pts)
    dk_gap = np.abs(np.diff(k - kp, axis=1))
    k_var = np.concatenate([np.zeros((S, 1)), np.cumsum(dk_gap, axis=1)], axis=1)
    w = _energy_weight(0.0, k_var + kp)

    y_sq, z_sq = _squares(solution.Y - solution_prime.Y, solution.Z - solution_prime.Z)
    return float(np.mean(
        np.max(w * y_sq, axis=1) + np.sum(w[:, :-1] * z_sq * grid.dt, axis=1)
    ))


def solve_bdsde_markov(
    coeffs: CoefficientSet,
    domain: SmoothDomain,
    start_time: float,
    x0: np.ndarray,
    bundle: PathBundle,
    basis,
) -> tuple[BdsdeSolution, ReflectedPath]:
    """Backward induction for the Markovian equation on a reflected diffusion.

    Simulates (X, k) from (start_time, x0) and runs `_backward_induction`
    from the terminal map, with the backward-noise term read at the right
    endpoint (none when ``coeffs.g`` is None).  Scalar-valued problems only
    (n = 1).  Raises FloatingPointError when Y or Z is not finite.

    The path stays in the Euler loop's time-major buffers, with its dW, for
    the induction; it is transposed into the returned `ReflectedPath`, the
    one `simulate_reflected` gives, afterwards.  This is the one-node case
    of `_markov_start_values`.
    """
    _require_markov(coeffs)
    grid = bundle.grid
    start_idx = grid.index_of(start_time)
    *buffers, excluded, dW = _euler_projection(coeffs, domain, start_time, x0, bundle)
    Y, Z, totals = _markov_induction(
        coeffs, buffers[0], np.diff(buffers[1], axis=0), dW, bundle, basis, start_idx)
    del dW
    Y[:start_idx] = Y[start_idx]
    reflected = _reflected_path(grid, buffers, excluded)
    return _solution(grid, swap_scenario_time(Y), swap_scenario_time(Z), totals), reflected


def _markov_start_values(
    coeffs: CoefficientSet,
    domain: SmoothDomain,
    start_time: float,
    starts: np.ndarray,
    bundle: PathBundle,
    basis,
) -> tuple[np.ndarray, np.ndarray]:
    """The Markovian solutions from N start points at one time, solved together.

    One Euler projection and one `_backward_induction` run on node-major
    rows, N blocks of the bundle's S scenarios (``starts`` is (N, dim));
    the coefficients are evaluated once per step on all N S rows, and each
    node's fits run on its own rows.  Node n's values equal those of
    `solve_bdsde_markov` from ``starts[n]`` bit for bit.  Keeps only the
    rows of the current and the next step: returns the (N, S) values Y at
    the start time and the (N, S) pathwise totals.  Raises FloatingPointError
    when Y or Z is not finite, and `SimulationBlowup` when a node loses too
    many scenarios.
    """
    _require_markov(coeffs)
    start_idx = bundle.grid.index_of(start_time)
    X, k, _, _, dW = _euler_projection(coeffs, domain, start_time, starts, bundle)
    # np.diff's subtraction, row by row in k's own buffer: no second array
    for i in range(len(k) - 1, start_idx, -1):
        np.subtract(k[i], k[i - 1], out=k[i])
    dk = k[1:]
    Y, _, totals = _markov_induction(
        coeffs, X, dk, dW, bundle, basis, start_idx, history=False)
    S = bundle.scenario_count
    return Y[start_idx % len(Y), :, 0].reshape(-1, S), totals.reshape(-1, S)


def _require_markov(coeffs: CoefficientSet) -> None:
    if coeffs.n != 1:
        raise ValueError("the Markovian solver handles scalar-valued problems (n = 1)")
    if coeffs.l is None:
        raise ValueError("Markovian problems need a terminal map l")


def _markov_induction(coeffs, X, dk, dW, bundle, basis, start_idx, history=True):
    """The Markovian induction from the terminal map down to ``start_idx``.

    Binds the backward-noise term (g at the right endpoint against dB; none
    when ``coeffs.g`` is None) and the driver and boundary bracket to
    `_backward_induction` on node-major rows X (T+1, N S, m), dk (T, N S);
    returns the kernel's (Y, Z, totals).
    """
    grid = bundle.grid
    times, dt = grid.points, grid.dt
    S = bundle.scenario_count
    dB = None if coeffs.g is None else time_major_increments(bundle.B)

    def noise(i, y_next, z_next):
        g_right = coeffs.g(times[i + 1], X[i + 1], y_next, z_next)
        nodes_g = g_right.reshape(-1, S, *g_right.shape[1:])
        return np.einsum("nskd,sd->nsk", nodes_g, dB[i]).reshape(len(y_next), -1)

    def bracket(i, x_i, dk_i, y, z):
        return coeffs.f(times[i], x_i, y, z) * dt, coeffs.h(times[i], x_i, y) * dk_i[:, None]

    return _backward_induction(
        "solve_bdsde_markov", X, dk, dW, bundle, basis,
        range(grid.step_count - 1, start_idx - 1, -1), coeffs.l(X[-1]),
        None if coeffs.g is None else noise, bracket, history)


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

    Y, Z, totals = _backward_induction(
        "solve_transformed_gbsde", X, dk, dW, bundle, basis,
        range(grid.step_count - 1, -1, -1), coeffs.l(X[-1]), None, bracket)
    return _solution(grid, swap_scenario_time(Y), swap_scenario_time(Z), totals)


def _backward_induction(
    solver: str,
    X: np.ndarray,
    dk: np.ndarray,
    dW: np.ndarray,
    bundle: PathBundle,
    basis,
    steps: range,
    terminal: np.ndarray,
    noise,
    bracket,
    history: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The backward induction of the Markovian and the transformed solvers.

    Walks `projector_walk` over the descending ``steps`` on time-major X
    (T+1, N S, m), dk (T, N S) and dW (T, S, d), with the state (plus
    B_T - B_t as `_points_of` decides) as features.  The rows are
    node-major, N blocks of the bundle's S scenarios that share dW; each
    node has its own projectors, fitted on its own rows, while ``noise``
    and ``bracket`` see all N S rows at once.  The base at step i is the
    fresh array Y_{i+1} + ``noise(i, Y_{i+1}, Z_{i+1})``, the noise term
    zero when ``noise`` is None; ``bracket(i, X_i, dk_i, y, Z_i)`` returns
    (f dt, h dk) at the value y.

    Returns Y (T+1, N S, 1) and Z (T+1, N S, 1, d), time-major views of
    scenario-major storage set from the first of ``steps`` on, and the
    per-row pathwise totals: ``terminal`` plus the driver, boundary and
    backward-noise terms.  Without ``history`` only two time rows are kept,
    step i at row i % 2.  Raises FloatingPointError, naming ``solver``, at
    the first non-finite Y or Z row.
    """
    grid = bundle.grid
    S, d = dW.shape[1:]
    rows = X.shape[1]
    slots = len(grid) if history else 2
    y_rows = np.swapaxes(np.empty((rows, slots, 1)), 0, 1)
    z_rows = np.swapaxes(np.zeros((rows, slots, 1, d)), 0, 1)

    def require_finite(*arrays):
        if not all(np.isfinite(a).all() for a in arrays):
            raise FloatingPointError(f"{solver} produced non-finite solution values")

    require_finite(terminal)
    y_rows[(len(grid) - 1) % slots, :, 0] = terminal
    increments = np.zeros(rows)
    g_term = np.zeros((rows, 1))
    points_of = _points_of(bundle, noise is not None, X)
    for i, proj in projector_walk(points_of, basis, steps, rows // S):
        here, after = i % slots, (i + 1) % slots
        if noise is not None:
            g_term = noise(i, y_rows[after], z_rows[after])
        base = y_rows[after] + g_term
        y_guess = proj.fit(base)
        # centred increment regression: subtracting the fitted conditional
        # mean leaves the estimator unbiased and kills the level noise, so a
        # constant value process yields an exactly zero control
        z_target = (base - y_guess).reshape(-1, S, 1, 1) * dW[i, :, None, :] / grid.dt
        z_rows[here] = proj.fit(z_target.reshape(rows, -1)).reshape(rows, 1, d)
        for _ in range(INNER_SWEEPS):
            f_dt, h_dk = bracket(i, X[i], dk[i], y_guess, z_rows[here])
            y_guess = proj.fit(base + f_dt + h_dk)
        y_rows[here] = y_guess
        require_finite(y_guess, z_rows[here])
        increments += (f_dt + h_dk + g_term)[:, 0]
    return y_rows, z_rows, terminal + increments
