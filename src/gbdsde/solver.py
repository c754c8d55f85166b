"""Regression-based backward solvers for the generalized equations.

Four solvers share one backward-induction skeleton:

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
* ``solve_bdsde_markov``    - the Markovian equation driven by a reflected
                         diffusion, with the boundary term paid against the
                         boundary process increments and an inner sweep for
                         the implicit driver.
* ``solve_transformed_gbsde`` - the backward-noise-free equation obtained by
                         the pathwise flow transform; same skeleton with the
                         transformed driver and boundary coefficient and no
                         backward integral.

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
    Y and Z are C-contiguous and scenario-major; the Markovian induction and
    the Picard coefficient loop step on private time-major copies and
    transpose once at the end.
    """

    grid: TimeGrid
    Y: np.ndarray
    Z: np.ndarray
    picard_trace: list[float] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    pathwise_totals: np.ndarray | None = None

    @property
    def scenario_count(self) -> int:
        return self.Y.shape[0]

    def initial_value(self) -> np.ndarray:
        return self.Y[:, 0, :].mean(axis=0)

    def initial_se(self) -> np.ndarray:
        if self.pathwise_totals is None:
            raise ValueError("solution carries no pathwise totals")
        s = self.pathwise_totals.shape[0]
        return self.pathwise_totals.std(axis=0, ddof=1) / np.sqrt(s)


def _require_finite(solver: str, *arrays: np.ndarray) -> None:
    """Raise FloatingPointError when a returned solution array is not finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise FloatingPointError(f"{solver} produced non-finite solution values")


def _as_k(k_path: np.ndarray | None, n_scen: int, n_pts: int) -> np.ndarray:
    if k_path is None:
        return np.zeros((n_scen, n_pts))
    k = np.asarray(k_path, dtype=float)
    if k.ndim == 1:
        k = np.broadcast_to(k[None, :], (n_scen, n_pts))
    if k.shape[0] == 1 and n_scen > 1:
        k = np.broadcast_to(k, (n_scen, n_pts))
    return k


def default_feature_fn(bundle: PathBundle, with_backward_tail: bool):
    """Feature points at index i: W_t coordinates plus, optionally, B_T - B_t."""

    def features(i: int) -> np.ndarray:
        cols = [bundle.W[:, i, :]]
        if with_backward_tail:
            cols.append(bundle.B[:, -1, :] - bundle.B[:, i, :])
        return np.concatenate(cols, axis=1)

    return features


def _stacked_points(feature_fn):
    """``points_of`` for `projector_walk` from a per-step feature function."""
    return lambda lo, hi: np.stack([feature_fn(i) for i in range(lo, hi)])


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
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 1:
        xi = xi[:, None]
    n = xi.shape[1]
    dt = grid.dt
    k = _as_k(k_path, S, n_pts)
    dk = np.diff(k, axis=1)
    dB, dW = bundle.dB, bundle.dW
    if feature_fn is None:
        feature_fn = default_feature_fn(bundle, not bundle.shared_b and g_path is not None)

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
        walk = projector_walk(_stacked_points(feature_fn), basis, backward)
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
    feature_fn=None,
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
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 1:
        xi = xi[:, None]
    n = xi.shape[1]
    k = _as_k(k_path, S, n_pts)
    times = grid.points

    Y = np.zeros((S, n_pts, n))
    Z = np.zeros((S, n_pts, n, coeffs.d))
    if feature_fn is None:
        feature_fn = default_feature_fn(bundle, not bundle.shared_b)
    projectors = [proj for _, proj in projector_walk(_stacked_points(feature_fn), basis,
                                                     range(grid.step_count))]
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
                                feature_fn, projectors)
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
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 1:
        xi = xi[:, None]
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
    xi = np.asarray(data["xi"], dtype=float)
    xip = np.asarray(data_prime["xi"], dtype=float)
    if xi.ndim == 1:
        xi = xi[:, None]
    if xip.ndim == 1:
        xip = xip[:, None]
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
    inner_sweeps: int = 2,
    g_is_zero: bool = False,
) -> tuple[BdsdeSolution, ReflectedPath]:
    """Backward induction for the Markovian equation on a reflected diffusion.

    Simulates (X, k) from (start_time, x0) unless paths are supplied, sets the
    terminal value from the terminal map, and walks backward: the control
    regresses the one-step target against dW/dt, the value regresses the full
    bracket with the driver evaluated implicitly at the current value via
    ``inner_sweeps`` fixed-point sweeps.  The backward-noise term is read at
    the right endpoint.  Scalar-valued problems only (n = 1).  Raises
    FloatingPointError when Y or Z is not finite.

    A path simulated here stays in the Euler loop's time-major buffers, with
    its dW, for the induction; it is transposed into the returned
    `ReflectedPath` afterwards.
    """
    if coeffs.n != 1:
        raise ValueError("the Markovian solver handles scalar-valued problems (n = 1)")
    if coeffs.l is None:
        raise ValueError("Markovian problems need a terminal map l")
    grid = bundle.grid
    start_idx = grid.index_of(start_time)
    if reflected is None:
        X, k, flags, excluded, dW = _euler_projection(coeffs, domain, start_time, x0, bundle)
        dk = np.diff(k, axis=0)
    else:
        X = swap_scenario_time(reflected.X)
        dk = time_major_increments(reflected.k)
        dW = time_major_increments(bundle.W)
    terminal = coeffs.l(X[-1])
    Y, Z, increments = _markov_induction(
        coeffs, X, dk, dW, bundle, basis, start_idx, terminal, inner_sweeps, g_is_zero)
    del dk, dW
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
    _require_finite("solve_bdsde_markov", Y, Z)

    totals = terminal + increments
    return (
        BdsdeSolution(
            grid=grid, Y=Y, Z=Z,
            diagnostics=solution_norms(Y, Z, reflected.k, grid),
            pathwise_totals=totals[:, None],
        ),
        reflected,
    )


def _markov_induction(
    coeffs: CoefficientSet,
    X: np.ndarray,
    dk: np.ndarray,
    dW: np.ndarray,
    bundle: PathBundle,
    basis,
    start_idx: int,
    terminal: np.ndarray,
    inner_sweeps: int,
    g_is_zero: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The backward loop of `solve_bdsde_markov` on time-major arrays.

    Takes time-major X (T+1, S, m), dk (T, S) and dW (T, S, d) and makes a
    time-major copy of dB only when the backward noise enters, so every
    per-step slice is contiguous.  The backward tail B_T - B_t of the
    features is formed per block of projector steps.  Returns time-major
    Y (T+1, S, 1), Z (T+1, S, 1, d) and the per-scenario sum of the driver,
    boundary and backward-noise terms.
    """
    grid = bundle.grid
    S, n_pts, d = bundle.scenario_count, len(grid), bundle.d
    dt = grid.dt
    times = grid.points
    use_backward_tail = not bundle.shared_b and not g_is_zero
    dB = None if g_is_zero else time_major_increments(bundle.B)
    g_zero = np.zeros((S, 1))

    def points_of(lo: int, hi: int) -> np.ndarray:
        if not use_backward_tail:
            return X[lo:hi]
        tail = np.swapaxes(bundle.B[:, -1:, :] - bundle.B[:, lo:hi, :], 0, 1)
        return np.concatenate([X[lo:hi], tail], axis=2)

    Y = np.empty((n_pts, S, 1))
    Z = np.zeros((n_pts, S, 1, d))
    Y[-1, :, 0] = terminal
    increments = np.zeros(S)
    backward = range(grid.step_count - 1, start_idx - 1, -1)
    for i, proj in projector_walk(points_of, basis, backward):
        x_i = X[i]
        if g_is_zero:
            g_term = g_zero
        else:
            g_right = coeffs.g(times[i + 1], X[i + 1], Y[i + 1], Z[i + 1])
            g_term = np.einsum("snd,sd->sn", g_right, dB[i])
        base = Y[i + 1] + g_term
        y_guess = proj.fit(base)
        # centred increment regression: subtracting the fitted conditional
        # mean leaves the estimator unbiased and kills the level noise, so a
        # constant value process yields an exactly zero control
        z_target = (base - y_guess)[:, :, None] * dW[i, :, None, :] / dt
        Z[i] = proj.fit(z_target.reshape(S, -1)).reshape(S, 1, d)
        f_i = h_term = None
        for _ in range(max(1, inner_sweeps)):
            f_i = coeffs.f(times[i], x_i, y_guess, Z[i])
            h_term = coeffs.h(times[i], x_i, y_guess) * dk[i, :, None]
            target = base + f_i * dt + h_term
            y_guess = proj.fit(target)
        Y[i] = y_guess
        increments += (f_i * dt + h_term + g_term)[:, 0]
    Y[:start_idx] = Y[start_idx]
    return Y, Z, increments


def solve_transformed_gbsde(
    coeffs: CoefficientSet,
    domain: SmoothDomain,
    flow_like,
    reflected: ReflectedPath,
    bundle: PathBundle,
    basis,
    inner_sweeps: int = 2,
) -> BdsdeSolution:
    """Backward induction for the flow-transformed, backward-noise-free equation.

    Shares the reflected paths of the direct solver (one fixed backward
    scenario, the flow's).  The driver and boundary coefficient are the
    transformed ones; there is no backward integral.  The boundary
    coefficient is only evaluated on scenarios whose state is on the
    boundary (positive k increment); it reuses the boundary rows of the
    flow derivatives looked up for the generator, one lookup per inner
    sweep.  Raises FloatingPointError when the solution is not finite.
    """
    grid = bundle.grid
    X, k = reflected.X, reflected.k
    S, n_pts, d = bundle.scenario_count, len(grid), bundle.d
    dt = grid.dt
    dk = np.diff(k, axis=1)
    dW = bundle.dW
    times = grid.points

    U = np.empty((S, n_pts, 1))
    V = np.zeros((S, n_pts, 1, d))
    U[:, -1, 0] = coeffs.l(X[:, -1, :])
    increments = np.zeros(S)
    for i, proj in projector_walk(lambda lo, hi: np.swapaxes(X[:, lo:hi], 0, 1), basis,
                                  range(grid.step_count - 1, -1, -1)):
        x_i = X[:, i, :]
        base = U[:, i + 1, :]
        u_guess = proj.fit(base)
        z_target = (base - u_guess)[:, :, None] * dW[:, i, None, :] / dt
        V[:, i, :, :] = proj.fit(z_target.reshape(S, -1)).reshape(S, 1, d)
        f_i = None
        h_vals = np.zeros(S)
        on_boundary = dk[:, i] > 0
        for _ in range(max(1, inner_sweeps)):
            # one derivative lookup per sweep serves the generator and, sliced,
            # the boundary coefficient on the same points
            dv = flow_like.derivs(i, x_i, u_guess[:, 0])
            f_i = _generator_from_derivs(coeffs, dv, times[i], x_i, u_guess[:, 0],
                                         V[:, i, 0, :])
            if np.any(on_boundary):
                h_vals = np.zeros(S)
                h_vals[on_boundary] = _boundary_from_derivs(
                    coeffs, domain, {key: v[on_boundary] for key, v in dv.items()},
                    times[i], x_i[on_boundary], u_guess[on_boundary, 0],
                )
            target = base + f_i[:, None] * dt + (h_vals * dk[:, i])[:, None]
            u_guess = proj.fit(target)
        U[:, i, :] = u_guess
        increments += f_i * dt + h_vals * dk[:, i]
    _require_finite("solve_transformed_gbsde", U, V)

    totals = coeffs.l(X[:, -1, :]) + increments
    return BdsdeSolution(
        grid=grid, Y=U, Z=V,
        diagnostics=solution_norms(U, V, k, grid),
        pathwise_totals=totals[:, None],
    )
