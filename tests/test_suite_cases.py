"""The flow and calculus verification suites against verbatim copies of the
case code they ran before they shared the acceptance criteria's cases."""

from dataclasses import replace

import numpy as np
import pytest

from gbdsde import acceptance as acc
from gbdsde.config import ExperimentConfig, parse_config
from gbdsde.flows import BrownianFlow, flow_derivative_identities
from gbdsde.grids import TimeGrid
from gbdsde.paths import sample_paths
from gbdsde.residuals import ito_formula_residual, ito_ventzell_residual
from gbdsde.suites import run_verify_calculus, run_verify_flow, write_csv

# ---------------------------------------------------------------------------
# References, verbatim: each suite with its own copy of the cases.
# ---------------------------------------------------------------------------


def _reference_verify_flow(config: ExperimentConfig) -> list[acc.CriterionResult]:
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


def _reference_verify_calculus(config: ExperimentConfig) -> list[acc.CriterionResult]:
    opts = config.options.get("calculus", {})
    ladder = [int(v) for v in opts.get("ladder", [100, 1000])]
    scenarios = int(opts.get("scenarios", 128))
    results: list[acc.CriterionResult] = []

    per_case: dict[str, list[tuple[float, float, float]]] = {}
    for steps in ladder:
        grid = TimeGrid(config.grid.t_start, config.grid.t_end, steps)
        bundle = sample_paths(grid, 1, config.seed, scenarios)
        n_pts = steps + 1
        ones_m = np.ones((scenarios, n_pts, 1, 1))
        cases = {
            "ito_forward_noise": lambda: ito_formula_residual(
                np.zeros(1), None, None, None, ones_m, None, bundle),
            "ito_backward_noise": lambda: ito_formula_residual(
                np.zeros(1), None, None, 0.8 * ones_m, None, None, bundle),
            "ventzell_deterministic": lambda: ito_ventzell_residual(
                acc.quadratic_drift_field(), np.zeros(1), None, None, ones_m, None, bundle),
        }
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


# ---------------------------------------------------------------------------

CONFIG = {
    "problem": {"n": 1, "d": 1, "f": {"kind": "zero"}, "g": {"kind": "zero"},
                "h": {"kind": "zero"}},
    "grid": {"t_start": 0.0, "t_end": 0.5, "dt": 0.005},
    "monte_carlo": {"scenarios": 100, "seed": 11},
    "suite": "verify-flow",
    "calculus": {"ladder": [20, 40, 80], "scenarios": 48},
    "flow": {"samples": 12, "noise_amp": 0.6},
}


@pytest.mark.parametrize("run, reference", [
    (run_verify_flow, _reference_verify_flow),
    (run_verify_calculus, _reference_verify_calculus),
], ids=["verify-flow", "verify-calculus"])
def test_suite_rows_match_the_reference(tmp_path, run, reference):
    config = parse_config(CONFIG)
    got = run(replace(config, out_dir=tmp_path / "got"))
    ref = reference(replace(config, out_dir=tmp_path / "ref"))
    assert got == ref
    names = sorted(p.name for p in (tmp_path / "ref").glob("*.csv"))
    assert names and names == sorted(p.name for p in (tmp_path / "got").glob("*.csv"))
    for name in names:
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()
