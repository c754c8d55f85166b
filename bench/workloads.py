"""The benchmark workloads: inputs from a seed, one timed pass, gates.

A workload is a fixed sequence of stages; a pass runs every stage once.  A
stage is a ``setup`` that builds its inputs without calling into the
numerics and a ``run`` that returns the stage's outputs (compared with
``reference.json`` at seed 2024) plus its gates.  ``toy`` shrinks every shape
so the self-check runs in seconds; toy passes are never compared with the
recorded references.

Every program call goes through a module attribute looked up at call time
(``solver.solve_bdsde_markov``, not a name bound at import), so the tracer in
``tracing.py`` sees each call once it has patched the module.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import yaml

from gbdsde import acceptance, cli, flows, geometry, grids, paths, regression, solver

# Two workloads of two stages each.  The stages stress different layers (see
# README.md); they are paired so that a run can last run_seconds = 45 s, long
# enough to average the shared machine's speed swings (below), within the
# budget of 4 + 22 x workloads runs in 3420 s.
# "flows" holds the flow hot spots (FlowTable splines, BrownianFlow.invert)
# and no Picard iteration or CLI; "solvers" holds the Picard path and the CLI
# field suite and no flow.
WORKLOADS = {
    "flows": ("transform", "flow_inverse"),
    "solvers": ("picard", "heat_field"),
}

# Shapes of one stage.
SIZES = {
    "transform": {"full": {"scenarios": 1000, "steps": 100, "table": (41, 96)},
                  "toy": {"scenarios": 200, "steps": 20, "table": (11, 24)}},
    "flow_inverse": {"full": {"steps": 500, "flows": 4, "samples": 25},
                     "toy": {"steps": 100, "flows": 2, "samples": 5}},
    "picard": {"full": {"scenarios": 2000, "steps": 100},
               "toy": {"scenarios": 500, "steps": 20}},
    "heat_field": {"full": {"scenarios": 1000, "dt": 0.002},
                   "toy": {"scenarios": 200, "dt": 0.02}},
}


def size(stage: str, toy: bool) -> dict:
    return SIZES[stage]["toy" if toy else "full"]


# Machine-speed calibration.  The shared 2-vCPU machine the benchmark was
# defined on swings in speed by up to 2x, in stretches from seconds to
# minutes, with no steal time (CPU time follows wall time): the same pass
# took 2.3 s in one run and 4.4 s in another.  A fixed kernel of the passes'
# mix of work (interpreter loop, small ufuncs, a small SVD) slows down with
# them.  The worker runs it after every stage for half the stage's time, and
# wall_cal_s is CALIBRATION_REF_S x mean pass time / mean kernel time;
# setup_s is scaled by one kernel run right after set-up.
# CALIBRATION_REF_S is the kernel's undisturbed time on that machine.
CALIBRATION_REF_S = 0.074
_CAL_RNG = np.random.default_rng(0)
_CAL_MATRIX = _CAL_RNG.standard_normal((500, 4))
_CAL_VECTOR = _CAL_RNG.standard_normal(1000)


def calibration_kernel() -> float:
    """Wall time of one fixed unit of interpreter and numpy work."""
    start = perf_counter()
    for _ in range(400):
        a = np.sin(_CAL_VECTOR) * 0.5 + np.cos(_CAL_VECTOR)
        np.linalg.svd(_CAL_MATRIX, full_matrices=False)
        s = float(np.sum(a[:, None] * a[None, :100]))
        {i: i * s for i in range(50)}
    return perf_counter() - start


@dataclass(frozen=True)
class Gate:
    """An upper threshold the pass must meet: measured <= threshold."""

    name: str
    measured: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.threshold

    @property
    def margin(self) -> float:
        return self.measured / self.threshold


# ---------------------------------------------------------------------------
# transform: Doss-Sussmann transform equivalence at reduced scale
# ---------------------------------------------------------------------------


def setup_transform(seed: int, toy: bool) -> dict:
    sz = size("transform", toy)
    return {
        "seed": seed,
        "coeffs": acceptance._transform_instance(),
        "noise": acceptance.SinNoise(amp=0.3, x_mod=0.25, freq_x=math.pi),
        "domain": geometry.interval_domain(0.0, 1.0),
        "grid": grids.TimeGrid(0.0, 1.0, sz["steps"]),
        "scenarios": sz["scenarios"],
        "basis": regression.PolynomialBasis(3),
        "x_grid": np.linspace(0.0, 1.0, sz["table"][0]),
        "y_count": sz["table"][1],
    }


def run_transform(inp: dict) -> tuple[dict, list[Gate]]:
    grid, basis, coeffs = inp["grid"], inp["basis"], inp["coeffs"]
    bundle = paths.sample_paths(grid, 1, inp["seed"], inp["scenarios"], shared_b=True)
    direct, reflected = solver.solve_bdsde_markov(
        coeffs, inp["domain"], 0.0, np.array([0.5]), bundle, basis)
    noise = inp["noise"]
    flow = flows.BrownianFlow(noise, bundle.B[0], grid, fd_step=1e-4,
                              lipschitz_hint=noise.lipschitz)
    y_all = direct.Y[:, :, 0]
    y_grid = np.linspace(y_all.min() - 1.5, y_all.max() + 1.5, inp["y_count"])
    table = flows.FlowTable(flow, inp["x_grid"], y_grid)
    transformed = solver.solve_transformed_gbsde(
        coeffs, inp["domain"], table, reflected, bundle, basis)
    sq = 0.0
    for i in range(grid.step_count):
        eps_vals = table.invert(i, reflected.X[:, i, :], direct.Y[:, i, 0])
        sq += float(np.sum((transformed.Y[:, i, 0] - eps_vals) ** 2))
    rms = math.sqrt(sq / (grid.step_count * bundle.scenario_count))
    return {"rms": rms}, [Gate("transform_equivalence_rms", rms, 5e-2)]


# ---------------------------------------------------------------------------
# flow_inverse: one flow, its inverse and the five derivative identities
# ---------------------------------------------------------------------------


def setup_flow_inverse(seed: int, toy: bool) -> dict:
    sz = size("flow_inverse", toy)
    steps, flows_n, samples = sz["steps"], sz["flows"], sz["samples"]
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 21], dtype=np.uint64)))
    return {
        "seed": seed,
        "grid": grids.TimeGrid(0.0, 1.0, steps),
        "flows": flows_n,
        "noise": acceptance.SinNoise(amp=1.0, x_mod=0.25),
        "t_idx": rng.integers(0, steps, (flows_n, samples)),
        "xs": rng.uniform(-2.0, 2.0, (flows_n, samples, 1)),
        "ys": rng.uniform(-2.0, 2.0, (flows_n, samples)),
    }


def run_flow_inverse(inp: dict) -> tuple[dict, list[Gate]]:
    """Flows along independent B paths; outputs are the worst over the flows.

    The sweeps an inversion needs depend on its samples; splitting the
    samples over several flows averages that count, so the cost of a pass
    varies less from seed to seed.
    """
    grid, noise = inp["grid"], inp["noise"]
    bundle = paths.sample_paths(grid, 1, inp["seed"], inp["flows"])
    outputs: dict[str, float] = {}
    for k in range(inp["flows"]):
        t_idx, xs, ys = inp["t_idx"][k], inp["xs"][k], inp["ys"][k]
        flow = flows.BrownianFlow(noise, bundle.B[k], grid, fd_step=1e-4,
                                  lipschitz_hint=noise.lipschitz)
        w = flow.solve(t_idx, xs, ys)
        back = flow.invert(t_idx, xs, w, guess=ys)
        gap = float(np.max(np.abs(back - ys) / (1.0 + np.abs(ys))))
        viol = flows.flow_derivative_identities(flow, (t_idx, xs, ys))
        for name, value in {"inversion_gap": gap, **viol}.items():
            outputs[name] = max(outputs.get(name, 0.0), value)
    gates = [Gate("flow_inversion_identity", outputs["inversion_gap"], 1e-9)]
    gates += [Gate(f"flow_identity_{name}", v, 1e-3)
              for name, v in outputs.items() if name != "inversion_gap"]
    return outputs, gates


# ---------------------------------------------------------------------------
# picard: outer fixed-point solves plus a-priori energy ratios
# ---------------------------------------------------------------------------

PICARD_INSTANCES = 2


def setup_picard(seed: int, toy: bool) -> dict:
    sz = size("picard", toy)
    grid = grids.TimeGrid(0.0, 1.0, sz["steps"])
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 41], dtype=np.uint64)))
    instances = [acceptance._random_linear_instance(rng) for _ in range(PICARD_INSTANCES)]
    for inst in instances:
        inst["k_path"] = inst["k_rate"] * grid.points
    return {"seed": seed, "grid": grid, "scenarios": sz["scenarios"],
            "basis": regression.PolynomialBasis(3), "instances": instances}


def run_picard(inp: dict) -> tuple[dict, list[Gate]]:
    outputs, gates = {}, []
    for idx, inst in enumerate(inp["instances"]):
        bundle = paths.sample_paths(inp["grid"], 1, inp["seed"] + 100 + idx,
                                    inp["scenarios"])
        xi = inst["xi_scale"] * bundle.W[:, -1, 0]
        sol = solver.picard_solve(inst["coeffs"], xi, inst["k_path"], bundle,
                                  inp["basis"], tol=1e-12, max_iter=9)
        ratio = solver.apriori_ratio(sol, inst["coeffs"], xi, inst["k_path"])["ratio"]
        outputs[f"apriori_ratio_{idx}"] = ratio
        # the acceptance gate (apriori_ratios_finite): the estimate holds with
        # a finite constant; its margin against an infinite threshold is 0
        gates.append(Gate(f"apriori_ratio_{idx}_finite", ratio, math.inf))
    return outputs, gates


# ---------------------------------------------------------------------------
# heat_field: the CLI field suite on a generated config
# ---------------------------------------------------------------------------

# configs/neumann-heat.yaml; heat_config() lowers monte_carlo.scenarios from
# 10000.  The size goes into the file, not through --scenarios/--dt: the field
# suite's per-node worker (suites.py:224, _field_node_entry) re-parses the raw
# config without those overrides, so the nodes would silently run at 10^4.
HEAT_CONFIG = {
    "suite": "field",
    "problem": {
        "n": 1, "d": 1, "x_dim": 1,
        "f": {"kind": "zero"},
        "g": {"kind": "zero"},
        "h": {"kind": "zero"},
        "l": {"kind": "trig", "amp": 1.0, "func": "cos", "of": "x",
              "freq": 3.141592653589793},
        "b": {"kind": "zero"},
        "sigma": {"kind": "constant", "value": 1.0},
        "constants": {"K": 2.0, "c": 1.0, "alpha": 0.5, "beta1": 1.0},
    },
    "domain": {"kind": "interval", "a": 0.0, "b": 1.0},
    "grid": {"t_start": 0.0, "t_end": 1.0, "dt": 0.002},
    "monte_carlo": {"scenarios": 10000, "seed": 2024, "shared_b": True},
    "basis": {"kind": "polynomial", "degree": 3},
    "field": {"mode": "pointwise",
              "nodes": [[0.0, round(0.1 * j, 1)] for j in range(11)]},
    "output": {"dir": "out"},
}


def heat_config(toy: bool) -> dict:
    cfg = yaml.safe_load(yaml.safe_dump(HEAT_CONFIG))
    cfg["monte_carlo"]["scenarios"] = size("heat_field", toy)["scenarios"]
    cfg["grid"]["dt"] = size("heat_field", toy)["dt"]
    return cfg


def setup_heat_field(seed: int, toy: bool, work_dir: Path) -> dict:
    cfg = heat_config(toy)
    work_dir.mkdir(parents=True, exist_ok=True)
    config_path = work_dir / "heat_field.yaml"
    config_path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    steps = round((cfg["grid"]["t_end"] - cfg["grid"]["t_start"]) / cfg["grid"]["dt"])
    return {"seed": seed, "config_path": config_path, "out_dir": work_dir / "out",
            "scenarios": cfg["monte_carlo"]["scenarios"], "steps": steps,
            "nodes": len(cfg["field"]["nodes"])}


def run_heat_field(inp: dict) -> tuple[dict, list[Gate]]:
    argv = ["field", "--config", str(inp["config_path"]), "--seed", str(inp["seed"]),
            "--out-dir", str(inp["out_dir"])]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"field suite exited with code {code}")
    data = (inp["out_dir"] / "field.csv").read_bytes()
    gates = []
    for row in csv.DictReader(io.StringIO(data.decode())):
        tol = 3.0 * (float(row["se_u"]) + 2e-3)
        gates.append(Gate(f"field_vs_oracle_x{row['x0']}", float(row["abs_gap"]), tol))
    outputs = {"exit_code": code, "field_csv_sha256": hashlib.sha256(data).hexdigest()}
    return outputs, gates


def setup(workload: str, seed: int, toy: bool, work_dir: Path) -> dict:
    """Inputs of every stage of the workload, keyed by stage."""
    inputs = {}
    for stage in WORKLOADS[workload]:
        if stage == "heat_field":
            inputs[stage] = setup_heat_field(seed, toy, work_dir)
        else:
            inputs[stage] = SETUPS[stage](seed, toy)
    return inputs


SETUPS = {
    "transform": setup_transform,
    "flow_inverse": setup_flow_inverse,
    "picard": setup_picard,
}
RUNS = {
    "transform": run_transform,
    "flow_inverse": run_flow_inverse,
    "picard": run_picard,
    "heat_field": run_heat_field,
}
