"""Experiment suites: orchestration, CSV emission, pass/fail reporting.

Each suite consumes a validated ExperimentConfig, writes CSV files into the
output directory and returns criterion rows.  All floating-point output goes
through one formatter so reruns with the same config and seed are
byte-identical regardless of worker count.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from . import acceptance as acc
from .config import ConfigError, ExperimentConfig, _count, _number
from .fields import FieldNode, evaluate_u, field_blocks, pde_oracle_g0
from .flows import flow_derivative_identities
from .grids import TimeGrid
from .paths import sample_paths
from .reflection import simulate_reflected
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


# the exit code of each overall verdict
VERDICT_CODES = {"PASS": 0, "FAIL": 1, "NO CHECKS": 4}


def _verdict(results: list[acc.CriterionResult]) -> str:
    """PASS or FAIL, or NO CHECKS when the run evaluated no criterion."""
    if not results:
        return "NO CHECKS"
    return "PASS" if all(r.passed for r in results) else "FAIL"


def _summary(results: list[acc.CriterionResult]) -> list[str]:
    """The report's text: one line per criterion, then the overall verdict."""
    return [r.line() for r in results] + [f"OVERALL: {_verdict(results)}"]


def emit_report(results: list[acc.CriterionResult], path: Path) -> str:
    """The criteria as CSV at ``path``, their `_summary` beside it as .txt;
    returns the overall verdict."""
    rows = [[r.name, r.measured, r.comparator, r.threshold,
             "PASS" if r.passed else "FAIL"] for r in results]
    write_csv(path, ["criterion", "measured", "comparator", "threshold", "status"],
              rows)
    path.with_suffix(".txt").write_text("".join(f"{line}\n" for line in _summary(results)))
    return _verdict(results)


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------


def run_simulate_reflected(config: ExperimentConfig) -> list[acc.CriterionResult]:
    coeffs = config.coefficient_set()
    domain = config.domain()
    bundle = sample_paths(config.grid, coeffs.d, config.seed, config.scenarios,
                          config.shared_b)
    opts = config.options.get("reflected", {})
    x0 = _start_point(opts, domain, "reflected")
    keep = min(_count(opts.get("csv_scenarios", 10), "reflected.csv_scenarios", 0),
               config.scenarios)
    refl = simulate_reflected(coeffs, domain, config.grid.t_start, x0, bundle)

    rows = []
    for s in range(keep):
        for i, t in enumerate(config.grid.points):
            rows.append([s, t, *refl.X[s, i, :].tolist(), refl.k[s, i],
                         bool(refl.boundary_flags[s, i])])
    header = ["scenario", "t"] + [f"x{j}" for j in range(domain.dim)] + ["k", "on_boundary"]
    write_csv(config.out_dir / "reflected_paths.csv", header, rows)

    contained = bool(np.all(domain.phi(refl.X) >= -domain.boundary_tol * 10))
    monotone = bool(np.all(refl.dk >= 0))
    return [acc._ge("reflected_state_contained", float(contained), 1.0),
            acc._ge("boundary_process_monotone", float(monotone), 1.0)]


def _start_point(opts: dict, domain, section: str) -> np.ndarray:
    """``x0`` from the ``section`` options, one point of the closed domain; by
    default the projection of the origin."""
    center, _ = domain.project(np.zeros(domain.dim))
    raw = opts.get("x0", center)
    try:
        x0 = np.atleast_1d(np.asarray(raw, dtype=float))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}.x0: {raw!r} cannot be read as float") from exc
    # null reads as NaN, which no domain contains
    if x0.shape != (domain.dim,) or not np.all(domain.contains(x0)):
        raise ConfigError(f"{section}.x0: {raw!r} is not a point of the closed "
                          f"{domain.dim}-dimensional domain")
    return x0


def run_solve_bdsde(config: ExperimentConfig) -> list[acc.CriterionResult]:
    coeffs = config.coefficient_set()
    bundle = sample_paths(config.grid, coeffs.d, config.seed, config.scenarios,
                          config.shared_b)
    opts = config.options.get("solver", {})
    basis = config.basis()

    if config.domain_spec is not None and coeffs.l is not None:
        domain = config.domain()
        x0 = _start_point(opts, domain, "solver")
        solution, reflected = solve_bdsde_markov(coeffs, domain, config.grid.t_start, x0,
                                                 bundle, basis)
        terminal = coeffs.l(reflected.X[:, -1, :])[:, None]
        trace, checks = [], []
    else:
        # the terminal value W_T
        terminal = bundle.W[:, -1, :coeffs.n]
        tol = _number(float, opts.get("tol", 1e-10), "solver.tol")
        solution = picard_solve(coeffs, terminal, None, bundle, basis, tol=tol,
                                max_iter=_count(opts.get("max_iter", 10), "solver.max_iter", 1))
        trace = solution.picard_trace
        # the iteration met its tolerance within max_iter passes
        checks = [acc._le("picard_converged", trace[-1], tol)]

    S = solution.Y.shape[0]
    rows = []
    final_trace = trace[-1] if trace else 0.0
    for i, t in enumerate(config.grid.points):
        mean_y = solution.Y[:, i, 0].mean()
        # the start row's error is that of the pathwise totals, whose mean is
        # mean_Y there; from one start point Y's own spread there is round-off
        se_y = solution.Y[:, i, 0].std(ddof=1) / np.sqrt(S) if i else solution.initial_se()[0]
        mean_z = solution.Z[:, i, 0, :].mean(axis=0)
        rows.append([t, mean_y, se_y, *mean_z.tolist(), len(trace), final_trace])
    header = (["t", "mean_Y", "se_Y"] + [f"mean_Z{j}" for j in range(coeffs.d)]
              + ["picard_iter", "trace"])
    write_csv(config.out_dir / "bdsde_solution.csv", header, rows)

    gap = float(np.max(np.abs(solution.Y[:, -1, :] - terminal)))
    return [acc._le("terminal_condition_exact", gap, 0.0), *checks]


def run_verify_flow(config: ExperimentConfig) -> list[acc.CriterionResult]:
    opts = config.options.get("flow", {})
    noise = acc.SinNoise(amp=_number(float, opts.get("noise_amp", 1.0), "flow.noise_amp"))
    n_samples = _count(opts.get("samples", 100), "flow.samples", 1)
    flow = acc.noise_flow(noise, config.grid, config.seed)
    samples = acc.flow_samples(config.seed, 77, config.grid.step_count, n_samples)
    viol = flow_derivative_identities(flow, samples)

    tol = acc.FLOW_IDENTITY_TOL
    rows = [[name, value, n_samples, acc.FD_STEP, config.grid.dt]
            for name, value in viol.items()]
    write_csv(config.out_dir / "flow_identities.csv",
              ["identity", "max_violation", "samples", "fd_step", "dt"], rows)
    return [acc._le(f"flow_identity_{name}", value, tol) for name, value in viol.items()]


def run_verify_calculus(config: ExperimentConfig) -> list[acc.CriterionResult]:
    opts = config.options.get("calculus", {})
    ladder = opts.get("ladder", [100, 1000])
    if not isinstance(ladder, list) or len(ladder) < 2:  # an order needs two rungs
        raise ConfigError(f"calculus.ladder: {ladder!r} is not a list of two or more step counts")
    ladder = [_number(int, v, "calculus.ladder") for v in ladder]
    if any(lo >= hi for lo, hi in zip(ladder, ladder[1:])):  # each rung refines
        raise ConfigError(f"calculus.ladder: {ladder!r} is not strictly increasing")
    scenarios = _count(opts.get("scenarios", 128), "calculus.scenarios", 1)
    results: list[acc.CriterionResult] = []

    per_case: dict[str, list[tuple[float, float, float]]] = {}
    for steps in ladder:
        grid = TimeGrid(config.grid.t_start, config.grid.t_end, steps)
        bundle = sample_paths(grid, 1, config.seed, scenarios)
        ito, ventzell = acc._ito_cases(bundle), acc._ventzell_cases(bundle)
        runs = {
            "ito_forward_noise": (ito_formula_residual, ito["forward_noise"]),
            "ito_backward_noise": (ito_formula_residual, ito["backward_noise"]),
            "ventzell_deterministic": (ito_ventzell_residual, ventzell["deterministic_field"]),
        }
        for name, (residual, case) in runs.items():
            rep = residual(**case)
            per_case.setdefault(name, []).append((grid.dt, rep.rms, rep.max_abs))

    for name, series in per_case.items():
        rows = [[dt, rms, max_abs, scenarios] for dt, rms, max_abs in series]
        write_csv(config.out_dir / f"residuals_{name}.csv",
                  ["dt", "rms_residual", "max_residual", "scenarios"], rows)
        orders = []
        for (dt_hi, rms_hi, _), (dt_lo, rms_lo, _) in zip(series[:-1], series[1:]):
            orders.append(np.log(rms_hi / rms_lo) / np.log(dt_hi / dt_lo))
        measured = min(orders) if orders else 0.0
        results.append(acc._ge(f"residual_order_{name}", measured, 0.4))
    return results


def _field_node_entry(config: ExperimentConfig, nodes: list[list]) -> list[FieldNode]:
    """Worker entry: rebuild the problem and return the `FieldNode`s of one
    `field_blocks` block, as `evaluate_u` gives them.

    The parsed config travels whole, so the nodes run at the scenario count,
    grid and seed the command line chose, not the ones in the file.  Each
    node draws its bundle, as the suite always has (the benchmark's traced
    pass checks the normals drawn per node); identical arguments give
    identical bundles, and the block is solved on the last one.
    """
    coeffs = config.coefficient_set()
    for _ in nodes:
        bundle = sample_paths(config.grid, coeffs.d, config.seed, config.scenarios,
                              config.shared_b)
    field_grid = [(float(node[0]), np.asarray(node[1:], dtype=float)) for node in nodes]
    return evaluate_u(coeffs, config.domain(), field_grid, bundle, config.basis())


def run_field(config: ExperimentConfig) -> list[acc.CriterionResult]:
    """The field suite: u, se and v at the configured nodes, and the oracle gap.

    The nodes go to the workers in the blocks that `evaluate_u` solves
    together (`field_blocks`); each row of field.csv is built once, from its
    node's `FieldNode`, in the configured order.  Without backward noise (g
    None) on an interval the rows also carry the Crank-Nicolson oracle and
    their gap to it.
    ``field.mode`` may only be ``pointwise``, the one estimator.
    """
    opts = config.options.get("field", {})
    nodes = opts.get("nodes")
    if not nodes:
        raise ValueError("field suite needs field.nodes in the config")
    mode = opts.get("mode", "pointwise")
    if mode != "pointwise":
        raise ConfigError(f"field.mode: unknown mode {mode!r}; the field suite "
                          f"has only 'pointwise'")
    coeffs = config.coefficient_set()
    domain = config.domain()

    blocks = field_blocks([float(node[0]) for node in nodes], config.grid,
                          config.scenarios, domain.dim)
    entry = partial(_field_node_entry, config)
    block_nodes = [[nodes[j] for j in block] for block in blocks]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            block_values = list(pool.map(entry, block_nodes))
    else:
        block_values = [entry(members) for members in block_nodes]
    by_index = {j: node for block, found in zip(blocks, block_values)
                for j, node in zip(block, found)}

    oracle = None
    if coeffs.g is None and domain.dim == 1:
        oracle = pde_oracle_g0(coeffs, domain,
                               t_start=config.grid.t_start, t_end=config.grid.t_end)
    header = ["t"] + [f"x{j}" for j in range(domain.dim)] + ["u", "se_u", "v"]
    if oracle is not None:
        header += ["oracle_u", "abs_gap"]
    rows = []
    results: list[acc.CriterionResult] = []
    for _, node in sorted(by_index.items()):
        x = node.x.tolist()
        # field.csv's v column is u: no flow is read at the nodes
        row = [node.t, *x, node.u, node.se_u, node.u]
        if oracle is not None:
            o = oracle.interpolate(node.t, x[0])
            gap = abs(node.u - o)
            tol = 3.0 * (node.se_u + 2e-3)
            row += [o, gap]
            results.append(acc._le(f"field_vs_oracle_t{node.t:g}_x{x[0]:g}", gap, tol))
        rows.append(row)
    write_csv(config.out_dir / "field.csv", header, rows)
    return results


def run_acceptance(config: ExperimentConfig) -> list[acc.CriterionResult]:
    names = config.options.get("acceptance", {}).get("criteria")
    choices = list(acc.ALL_CRITERIA)
    if names is not None and (not isinstance(names, list)
                              or not all(name in choices for name in names)):
        raise ConfigError(f"acceptance.criteria: {names!r} is not a list of criterion "
                          f"names; pick from {choices}")
    return acc.run_all(seed=config.seed, names=names)


SUITE_RUNNERS = {
    "simulate-reflected": run_simulate_reflected,
    "solve-bdsde": run_solve_bdsde,
    "verify-flow": run_verify_flow,
    "verify-calculus": run_verify_calculus,
    "field": run_field,
    "acceptance": run_acceptance,
}


def run_suite(config: ExperimentConfig) -> tuple[int, list[str]]:
    """Execute the configured suite and write its report; returns (exit code,
    the report's text lines)."""
    results = SUITE_RUNNERS[config.suite](config)
    verdict = emit_report(results, config.out_dir / f"{config.suite}_report.csv")
    return VERDICT_CODES[verdict], _summary(results)
