"""Reflected diffusions on convex domains via Euler projection.

The state is kept inside the closed domain by projecting each Euler proposal
back onto the closure; the projected displacement accumulates into the
nondecreasing boundary process k, which is the discrete counterpart of the
local-time integral pushing along the inward normal.  An exact running-max
oracle for the half-line problem serves as the convergence reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import SmoothDomain
from .grids import TimeGrid
from .paths import PathBundle, swap_scenario_time, time_major_increments
from .problems import CoefficientSet


class SimulationBlowup(RuntimeError):
    """Raised when too many scenarios produce non-finite Euler proposals."""


@dataclass
class ReflectedPath:
    """Scenario paths of the reflected pair (X, k).

    X has shape (scenarios, times, dim) and stays in the closed domain;
    k has shape (scenarios, times), starts at 0 and never decreases, and a
    step increment is positive only when the post-step state sits on the
    boundary.  Scenarios whose proposal blew up are recorded in
    ``excluded`` and their paths frozen.  The arrays are C-contiguous and
    scenario-major; `simulate_reflected` steps on private time-major
    buffers and transposes them once at the end.
    """

    grid: TimeGrid
    X: np.ndarray
    k: np.ndarray
    boundary_flags: np.ndarray
    excluded: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    @property
    def dk(self) -> np.ndarray:
        return np.diff(self.k, axis=1)


def simulate_reflected(
    coeffs: CoefficientSet,
    domain: SmoothDomain,
    start_time: float,
    x0: np.ndarray,
    bundle: PathBundle,
    max_excluded_fraction: float = 1e-3,
) -> ReflectedPath:
    """Euler-projection scheme for the reflected flow started at (start_time, x0).

    Per step: propose x + b(x) dt + sigma(x) dW, project onto the closure and
    book the displacement as the k increment.  Before start_time the path sits
    at x0 with k frozen at 0.  Scenarios producing non-finite proposals are
    excluded (path frozen); the run fails if more than
    ``max_excluded_fraction`` of scenarios are lost.
    """
    X, k, flags, excluded, dW = _euler_projection(
        coeffs, domain, start_time, x0, bundle, max_excluded_fraction)
    # one buffer at a time, so at most one time-major array outlives its copy
    del dW
    X = swap_scenario_time(X)
    k = swap_scenario_time(k)
    flags = swap_scenario_time(flags)
    return ReflectedPath(grid=bundle.grid, X=X, k=k, boundary_flags=flags,
                         excluded=excluded)


def _euler_projection(
    coeffs: CoefficientSet,
    domain: SmoothDomain,
    start_time: float,
    x0: np.ndarray,
    bundle: PathBundle,
    max_excluded_fraction: float = 1e-3,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The loop of `simulate_reflected` on time-major buffers.

    ``x0`` is one start point (dim,) or one per node (N, dim); the rows are
    then node-major, N blocks of the bundle's S scenarios, every block
    driven by the same dW.  Returns X (T+1, N S, dim), k (T+1, N S), the
    boundary flags (T+1, N S), the excluded-scenario mask and the dW
    increments (T, S, d) it stepped with.  The excluded fraction is judged
    per node, so a block cannot dilute one node's losses.
    """
    grid = bundle.grid
    start_idx = grid.index_of(start_time)
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    if x0.shape[-1] != domain.dim:
        raise ValueError(f"start point dimension {x0.shape[-1]} != domain dim {domain.dim}")
    if not np.all(domain.contains(x0)):
        raise ValueError("start point must lie in the closed domain")

    nodes, n_scen = x0.shape[0], bundle.scenario_count
    n_pts = len(grid)
    dt = grid.dt
    current = np.repeat(x0, n_scen, axis=0)
    # time-major working buffers: each step reads and writes whole rows
    X = np.empty((n_pts, len(current), domain.dim))
    k = np.zeros((n_pts, len(current)))
    flags = np.zeros((n_pts, len(current)), dtype=bool)
    X[: start_idx + 1] = current
    excluded = np.zeros(len(current), dtype=bool)
    any_excluded = False

    dW = time_major_increments(bundle.W)
    for i in range(start_idx, grid.step_count):
        drift = coeffs.b(current) if coeffs.b is not None else 0.0
        if coeffs.sigma is not None:
            sigma = coeffs.sigma(current).reshape(nodes, n_scen, domain.dim, -1)
            noise = np.einsum("nsij,sj->nsi", sigma, dW[i]).reshape(current.shape)
        else:
            noise = 0.0
        proposal = current + drift * dt + noise
        bad = ~np.all(np.isfinite(proposal), axis=-1)
        if np.any(bad):
            excluded |= bad
            any_excluded = True
            proposal = np.where(bad[:, None], current, proposal)
        projected, moved = domain.project(proposal)
        if any_excluded:
            moved = np.where(excluded, 0.0, moved)
            projected = np.where(excluded[:, None], current, projected)
        X[i + 1] = projected
        np.add(k[i], moved, out=k[i + 1])
        np.greater(moved, 0, out=flags[i + 1])
        current = projected

    lost = excluded.reshape(nodes, n_scen).sum(axis=1)
    if np.any(lost / n_scen > max_excluded_fraction):
        raise SimulationBlowup(
            f"{int(lost.max())} of {n_scen} scenarios produced non-finite proposals"
        )
    return X, k, flags, excluded, dW


def skorokhod_oracle_1d(x0: float, w_path: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact solution of the half-line Skorokhod problem for the given path.

    k_t = max(0, max_{s<=t}(-x0 - W_s)) and X_t = x0 + W_t + k_t >= 0; k is
    nondecreasing and flat while X > 0.  ``w_path`` holds path values along
    the last axis (leading axes are scenarios).
    """
    if x0 < 0:
        raise ValueError("oracle requires x0 >= 0")
    w = np.asarray(w_path, dtype=float)
    k = np.maximum(np.maximum.accumulate(-x0 - w, axis=-1), 0.0)
    x = x0 + w + k
    return x, k


def skorokhod_bridge_exact(
    x0: float,
    w_path: np.ndarray,
    dt: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Half-line Skorokhod solution sampled without time-discretization bias.

    The grid running max under-estimates the continuous supremum of -W by
    O(sqrt(dt)).  Here the supremum of -W over each step is drawn exactly from
    the Brownian-bridge maximum law,

        M | (a, b) = (a + b + sqrt((b - a)^2 - 2 dt log U)) / 2,

    so the running max (hence k and X at grid times) has the continuous-time
    distribution.  Deterministic for a fixed seed.
    """
    if x0 < 0:
        raise ValueError("oracle requires x0 >= 0")
    w = np.asarray(w_path, dtype=float)
    a = -x0 - w[..., :-1]
    b = -x0 - w[..., 1:]
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 2], dtype=np.uint64)))
    u = gen.random(size=a.shape)
    u = np.clip(u, 1e-300, 1.0)
    seg_max = 0.5 * (a + b + np.sqrt((b - a) ** 2 - 2.0 * dt * np.log(u)))
    running = np.maximum.accumulate(seg_max, axis=-1)
    k = np.empty_like(w)
    k[..., 0] = np.maximum(-x0 - w[..., 0], 0.0)
    k[..., 1:] = np.maximum(running, 0.0)
    x = x0 + w + k
    return x, k


def moment_diagnostics(
    domain: SmoothDomain,
    coeffs: CoefficientSet,
    starts: list[np.ndarray],
    mu: float,
    bundle: PathBundle,
    start_time: float | None = None,
) -> dict:
    """Empirical fourth-moment flow regularity and exponential k moments.

    With common random numbers across starts, estimates the ratios
    E sup |X^x - X^x'|^4 / |x - x'|^4 and the analogue for k, plus
    E exp(mu k_T) per start.  Returns worst ratios, per-pair tables and
    standard errors.
    """
    pts = [np.atleast_1d(np.asarray(s, dtype=float)) for s in starts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if np.allclose(pts[i], pts[j]):
                raise ValueError("starts must be pairwise distinct")
    t0 = bundle.grid.t_start if start_time is None else start_time
    sims = [simulate_reflected(coeffs, domain, t0, p, bundle) for p in pts]

    pair_rows = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            gap = np.linalg.norm(pts[i] - pts[j])
            sup_x4 = np.max(np.linalg.norm(sims[i].X - sims[j].X, axis=-1), axis=1) ** 4
            sup_k4 = np.max(np.abs(sims[i].k - sims[j].k), axis=1) ** 4
            n = sup_x4.shape[0]
            pair_rows.append(
                {
                    "x": pts[i].tolist(),
                    "x_prime": pts[j].tolist(),
                    "separation": gap,
                    "x_ratio": float(np.mean(sup_x4) / gap**4),
                    "x_ratio_se": float(np.std(sup_x4, ddof=1) / np.sqrt(n) / gap**4),
                    "k_ratio": float(np.mean(sup_k4) / gap**4),
                    "k_ratio_se": float(np.std(sup_k4, ddof=1) / np.sqrt(n) / gap**4),
                }
            )
    exp_rows = []
    for p, sim in zip(pts, sims):
        vals = np.exp(mu * sim.k[:, -1])
        exp_rows.append(
            {
                "x": p.tolist(),
                "exp_moment": float(np.mean(vals)),
                "exp_moment_se": float(np.std(vals, ddof=1) / np.sqrt(vals.shape[0])),
            }
        )
    return {
        "pairs": pair_rows,
        "exp_moments": exp_rows,
        "worst_x_ratio": max((r["x_ratio"] for r in pair_rows), default=0.0),
        "worst_k_ratio": max((r["k_ratio"] for r in pair_rows), default=0.0),
    }
