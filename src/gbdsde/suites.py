"""Experiment suites: orchestration, CSV emission, pass/fail reporting.

Each suite consumes a validated ExperimentConfig, writes CSV files into the
output directory and returns criterion rows.  All floating-point output goes
through one formatter so reruns with the same config and seed are
byte-identical regardless of worker count.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import acceptance as acc
from .config import ConfigError, ExperimentConfig
from .fields import evaluate_u, field_blocks, pde_oracle_g0
from .flows import BrownianFlow, flow_derivative_identities
from .paths import sample_paths
from .reflection import simulate_reflected
from .regression import PiecewiseBinBasis
from .residuals import ito_formula_residual, ito_ventzell_residual
from .solver import picard_solve, solve_bdsde_markov

FLOAT_FMT = "%.12g"


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT % float(value)
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


def emit_report(results: list[acc.CriterionResult], path: Path) -> bool:
    """One line per criterion plus an overall verdict; returns overall pass."""
    rows = [[r.name, r.measured, r.comparator, r.threshold,
             "PASS" if r.passed else "FAIL"] for r in results]
    write_csv(path, ["criterion", "measured", "comparator", "threshold", "status"],
              rows)
    overall = all(r.passed for r in results)
    summary = path.with_suffix(".txt")
    with open(summary, "w") as fh:
        for r in results:
            fh.write(r.line() + "\n")
        fh.write(f"OVERALL: {'PASS' if overall else 'FAIL'}\n")
    return overall


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------


def run_simulate_reflected(config: ExperimentConfig) -> list[acc.CriterionResult]:
    coeffs = config.coefficient_set()
    domain = config.domain()
    bundle = sample_paths(config.grid, coeffs.d, config.seed, config.scenarios,
                          config.shared_b)
    opts = config.options.get("reflected", {})
    x0 = _start_point(opts, domain)
    refl = simulate_reflected(coeffs, domain, config.grid.t_start, x0, bundle)

    keep = min(int(opts.get("csv_scenarios", 10)), config.scenarios)
    rows = []
    for s in range(keep):
        for i, t in enumerate(config.grid.points):
            rows.append([s, t, *refl.X[s, i, :].tolist(), refl.k[s, i],
                         bool(refl.boundary_flags[s, i])])
    header = ["scenario", "t"] + [f"x{j}" for j in range(domain.dim)] + ["k", "on_boundary"]
    write_csv(config.out_dir / "reflected_paths.csv", header, rows)

    contained = bool(np.all(domain.phi(refl.X) >= -domain.boundary_tol * 10))
    monotone = bool(np.all(refl.dk >= 0))
    return [
        acc.CriterionResult("reflected_state_contained", 1.0 if contained else 0.0,
                            1.0, contained, ">="),
        acc.CriterionResult("boundary_process_monotone", 1.0 if monotone else 0.0,
                            1.0, monotone, ">="),
    ]


def _start_point(opts: dict, domain) -> np.ndarray:
    """``x0`` from the suite options; by default the projection of the origin."""
    center, _ = domain.project(np.zeros(domain.dim))
    return np.atleast_1d(np.asarray(opts.get("x0", center), dtype=float))


def run_solve_bdsde(config: ExperimentConfig) -> list[acc.CriterionResult]:
    coeffs = config.coefficient_set()
    bundle = sample_paths(config.grid, coeffs.d, config.seed, config.scenarios,
                          config.shared_b)
    opts = config.options.get("solver", {})
    basis = config.basis()

    if config.domain_spec is not None and coeffs.l is not None:
        domain = config.domain()
        x0 = _start_point(opts, domain)
        if (isinstance(basis, PiecewiseBinBasis) and basis.count > 1
                and np.any(domain.classify(x0) == "boundary")):
            # the scenarios reflected back onto the start point tie on one
            # value, and the tied mass empties quantile bins
            raise ConfigError(
                f"solver.x0: {x0.tolist()} lies on the domain boundary; basis "
                f"{basis.name} needs an interior start point (set solver.x0)")
        solution, reflected = solve_bdsde_markov(coeffs, domain, config.grid.t_start, x0,
                                                 bundle, basis)
        terminal = coeffs.l(reflected.X[:, -1, :])[:, None]
        trace = []
    else:
        terminal = opts.get("terminal", "w_terminal")
        if terminal == "w_terminal":
            xi = bundle.W[:, -1, :coeffs.n]
        elif isinstance(terminal, dict) and terminal.get("kind") == "constant":
            xi = np.full((config.scenarios, coeffs.n), float(terminal["value"]))
        else:
            raise ValueError(f"unknown terminal spec {terminal!r}")
        solution = picard_solve(coeffs, xi, None, bundle, basis,
                                tol=float(opts.get("tol", 1e-10)),
                                max_iter=int(opts.get("max_iter", 10)))
        terminal = xi
        trace = solution.picard_trace

    S = solution.Y.shape[0]
    rows = []
    final_trace = trace[-1] if trace else 0.0
    for i, t in enumerate(config.grid.points):
        mean_y = solution.Y[:, i, 0].mean()
        se_y = solution.Y[:, i, 0].std(ddof=1) / np.sqrt(S)
        mean_z = solution.Z[:, i, 0, :].mean(axis=0)
        rows.append([t, mean_y, se_y, *mean_z.tolist(), len(trace), final_trace])
    header = (["t", "mean_Y", "se_Y"] + [f"mean_Z{j}" for j in range(coeffs.d)]
              + ["picard_iter", "trace"])
    write_csv(config.out_dir / "bdsde_solution.csv", header, rows)

    gap = float(np.max(np.abs(solution.Y[:, -1, :] - terminal)))
    return [acc.CriterionResult("terminal_condition_exact", gap, 0.0,
                                gap == 0.0, "<=")]


def run_verify_flow(config: ExperimentConfig) -> list[acc.CriterionResult]:
    opts = config.options.get("flow", {})
    noise = acc.SinNoise(amp=float(opts.get("noise_amp", 1.0)),
                         x_mod=float(opts.get("x_mod", 0.25)))
    bundle = sample_paths(config.grid, 1, config.seed, 1)
    fd_step = float(opts.get("fd_step", 1e-4))
    flow = BrownianFlow(noise, bundle.B[0], config.grid, fd_step=fd_step,
                        lipschitz_hint=noise.lipschitz)
    n_samples = int(opts.get("samples", 100))
    rng = np.random.Generator(np.random.Philox(
        key=np.array([config.seed, 77], dtype=np.uint64)))
    t_idx = rng.integers(0, config.grid.step_count, n_samples)
    xs = rng.uniform(-2.0, 2.0, (n_samples, 1))
    ys = rng.uniform(-2.0, 2.0, n_samples)
    viol = flow_derivative_identities(flow, (t_idx, xs, ys))

    tol = float(opts.get("tolerance", 1e-3))
    rows = [[name, value, n_samples, fd_step, config.grid.dt]
            for name, value in viol.items()]
    write_csv(config.out_dir / "flow_identities.csv",
              ["identity", "max_violation", "samples", "fd_step", "dt"], rows)
    return [acc.CriterionResult(f"flow_identity_{name}", value, tol, value <= tol)
            for name, value in viol.items()]


def run_verify_calculus(config: ExperimentConfig) -> list[acc.CriterionResult]:
    opts = config.options.get("calculus", {})
    ladder = [int(v) for v in opts.get("ladder", [100, 1000])]
    scenarios = int(opts.get("scenarios", 128))
    results: list[acc.CriterionResult] = []

    per_case: dict[str, list[tuple[float, float, float]]] = {}
    for steps in ladder:
        from .grids import TimeGrid

        grid = TimeGrid(config.grid.t_start, config.grid.t_end, steps)
        bundle = sample_paths(grid, 1, config.seed, scenarios)
        n_pts = steps + 1
        ones_m = np.ones((scenarios, n_pts, 1, 1))
        cases = {
            "ito_forward_noise": lambda: ito_formula_residual(
                np.zeros(1), None, None, None, ones_m, None, bundle),
            "ito_backward_noise": lambda: ito_formula_residual(
                np.zeros(1), None, None, 0.8 * ones_m, None, None, bundle),
        }
        from .residuals import DriftField

        drift_field = DriftField(
            time_coef=lambda t: 1.0 + t, time_coef_dt=lambda t: 1.0,
            space=lambda x: x[..., 0] ** 2, space_grad=lambda x: 2.0 * x,
            space_hess=lambda x: np.broadcast_to(
                2.0 * np.eye(1), x.shape[:-1] + (1, 1)).copy())
        cases["ventzell_deterministic"] = lambda: ito_ventzell_residual(
            drift_field, np.zeros(1), None, None, ones_m, None, bundle)
        for name, run in cases.items():
            rep = run()
            per_case.setdefault(name, []).append(
                (grid.dt, rep.rms, rep.max_abs))

    for name, series in per_case.items():
        rows = [[dt, rms, max_abs, scenarios] for dt, rms, max_abs in series]
        write_csv(config.out_dir / f"residuals_{name}.csv",
                  ["dt", "rms_residual", "max_residual", "scenarios"], rows)
        orders = []
        for (dt_hi, rms_hi, _), (dt_lo, rms_lo, _) in zip(series[:-1], series[1:]):
            orders.append(np.log(rms_hi / rms_lo) / np.log(dt_hi / dt_lo))
        measured = min(orders) if orders else 0.0
        results.append(acc.CriterionResult(
            f"residual_order_{name}", float(measured), 0.4, measured >= 0.4, ">="))
    return results


def _field_node_entry(config: ExperimentConfig, nodes: list[list]) -> list[list]:
    """Worker entry: rebuild the problem and evaluate one block of field nodes.

    The parsed config travels whole, so the nodes run at the scenario count,
    grid and seed the command line chose, not the ones in the file.  Each
    node draws its bundle, as the suite always has (the benchmark's traced
    pass checks the normals drawn per node); identical arguments give
    identical bundles, and the block is solved on the last one.
    """
    coeffs = config.coefficient_set()
    domain = config.domain()
    for _ in nodes:
        bundle = sample_paths(config.grid, coeffs.d, config.seed, config.scenarios,
                              config.shared_b)
    g_zero = (config.problem or {}).get("g", {}).get("kind") == "zero"
    field_grid = [(float(node[0]), np.asarray(node[1:], dtype=float)) for node in nodes]
    est = evaluate_u(coeffs, domain, field_grid, bundle, config.basis(),
                     mode=config.options.get("field", {}).get("mode", "pointwise"),
                     g_is_zero=g_zero)
    return [[n.t, *n.x.tolist(), n.u, n.se_u, n.v] for n in est.nodes]


def run_field(config: ExperimentConfig) -> list[acc.CriterionResult]:
    """The field suite: u, se and v at the configured nodes, and the oracle gap.

    In ``pointwise`` mode the nodes go to the workers in the blocks that
    `evaluate_u` solves together (`field_blocks`); in ``global`` mode each
    node is its own solve.  The rows come back in the configured order.
    """
    opts = config.options.get("field", {})
    nodes = opts.get("nodes")
    if not nodes:
        raise ValueError("field suite needs field.nodes in the config")
    g_zero = (config.problem or {}).get("g", {}).get("kind") == "zero"

    if opts.get("mode", "pointwise") == "pointwise":
        blocks = field_blocks([float(node[0]) for node in nodes], config.grid,
                              config.scenarios, config.domain().dim)
    else:
        blocks = [[j] for j in range(len(nodes))]
    block_nodes = [[nodes[j] for j in block] for block in blocks]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            block_rows = list(pool.map(_field_node_entry, [config] * len(blocks), block_nodes))
    else:
        block_rows = [_field_node_entry(config, members) for members in block_nodes]
    value_rows: list[list] = [[]] * len(nodes)
    for block, rows in zip(blocks, block_rows):
        for j, row in zip(block, rows):
            value_rows[j] = row

    oracle = None
    results: list[acc.CriterionResult] = []
    if g_zero and config.domain().dim == 1:
        oracle = pde_oracle_g0(config.coefficient_set(), config.domain(),
                               t_start=config.grid.t_start, t_end=config.grid.t_end)
    rows = []
    for row in value_rows:
        t_node, x_vals, u, se, v = row[0], row[1:-3], row[-3], row[-2], row[-1]
        if oracle is not None:
            o = oracle.interpolate(t_node, x_vals[0])
            gap = abs(u - o)
            rows.append([t_node, *x_vals, u, se, v, o, gap])
            tol = 3.0 * (se + 2e-3)
            results.append(acc.CriterionResult(
                f"field_vs_oracle_t{t_node:g}_x{x_vals[0]:g}", gap, tol, gap <= tol))
        else:
            rows.append([t_node, *x_vals, u, se, v])
    dim = len(value_rows[0]) - 4
    header = ["t"] + [f"x{j}" for j in range(dim)] + ["u", "se_u", "v"]
    if oracle is not None:
        header += ["oracle_u", "abs_gap"]
    write_csv(config.out_dir / "field.csv", header, rows)
    return results


def run_acceptance(config: ExperimentConfig) -> list[acc.CriterionResult]:
    names = config.options.get("acceptance", {}).get("criteria")
    return acc.run_all(seed=config.seed, names=names)


MAIN_CSV = {
    "simulate-reflected": "reflected_paths.csv",
    "solve-bdsde": "bdsde_solution.csv",
    "verify-flow": "flow_identities.csv",
    "field": "field.csv",
    "acceptance": "acceptance_report.csv",
}

SUITE_RUNNERS = {
    "simulate-reflected": run_simulate_reflected,
    "solve-bdsde": run_solve_bdsde,
    "verify-flow": run_verify_flow,
    "verify-calculus": run_verify_calculus,
    "field": run_field,
    "acceptance": run_acceptance,
}


def run_suite(config: ExperimentConfig) -> tuple[int, list[acc.CriterionResult]]:
    """Execute the configured suite; returns (exit_code, criteria)."""
    runner = SUITE_RUNNERS[config.suite]
    results = runner(config)
    overall = emit_report(results, config.out_dir / f"{config.suite}_report.csv")
    return (0 if overall else 1), results
