"""Configuration parsing, CLI exit codes, suite determinism."""

from pathlib import Path

import pytest
import yaml

from gbdsde.cli import main
from gbdsde.config import ConfigError, load_config, parse_config, roundtrip
from gbdsde.suites import emit_report
from gbdsde.acceptance import CriterionResult

BASE_CONFIG = {
    "problem": {
        "n": 1,
        "d": 1,
        "x_dim": 1,
        "f": {"kind": "linear", "y": -0.5},
        "g": {"kind": "zero"},
        "h": {"kind": "constant", "value": 0.2},
        "l": {"kind": "trig", "amp": 1.0, "func": "cos", "of": "x",
              "freq": 3.141592653589793},
        "b": {"kind": "zero"},
        "sigma": {"kind": "constant", "value": 1.0},
        "constants": {"K": 2.0, "c": 1.0, "alpha": 0.5, "beta1": 1.0},
    },
    "domain": {"kind": "interval", "a": 0.0, "b": 1.0},
    "grid": {"t_start": 0.0, "t_end": 0.5, "dt": 0.01},
    "monte_carlo": {"scenarios": 400, "seed": 3, "shared_b": True},
    "basis": {"kind": "polynomial", "degree": 2},
    "suite": "solve-bdsde",
    "field": {"nodes": [[0.0, 0.25], [0.0, 0.75]], "mode": "pointwise"},
    "calculus": {"ladder": [50, 100], "scenarios": 64},
    "flow": {"samples": 15, "noise_amp": 0.4},
}


def write_config(tmp_path: Path, mapping=None) -> Path:
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(mapping or BASE_CONFIG))
    return path


def test_roundtrip_identity():
    assert roundtrip(BASE_CONFIG) == BASE_CONFIG


def test_parse_validates_dt_divides_horizon():
    bad = dict(BASE_CONFIG)
    bad["grid"] = {"t_start": 0.0, "t_end": 1.0, "dt": 0.3}
    with pytest.raises(ConfigError, match="does not divide"):
        parse_config(bad)


def test_parse_rejects_unknown_suite():
    bad = dict(BASE_CONFIG)
    bad["suite"] = "frobnicate"
    with pytest.raises(ConfigError, match="unknown suite"):
        parse_config(bad)


def test_parse_enforces_scenario_headroom():
    bad = dict(BASE_CONFIG)
    bad["monte_carlo"] = {"scenarios": 20, "seed": 1}
    with pytest.raises(ConfigError, match="10x basis size"):
        parse_config(bad)


def test_unknown_catalog_entry_is_config_error(tmp_path):
    bad = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    bad["problem"]["f"] = {"kind": "septic-spline"}
    with pytest.raises(ConfigError, match="unknown catalog entry"):
        parse_config(bad)
    # through the CLI it is exit code 2
    path = write_config(tmp_path, bad)
    assert main(["solve-bdsde", "--config", str(path)]) == 2


def test_cli_missing_config_is_exit_2(tmp_path):
    assert main(["solve-bdsde", "--config", str(tmp_path / "nope.yaml")]) == 2


def test_cli_runs_solver_suite(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["solve-bdsde", "--config", str(path), "--out-dir", str(out)])
    assert code == 0
    assert (out / "bdsde_solution.csv").exists()
    assert "OVERALL: PASS" in capsys.readouterr().out


def test_cli_reruns_byte_identical(tmp_path):
    path = write_config(tmp_path)
    outs = []
    for run in (0, 1):
        out = tmp_path / f"out{run}"
        assert main(["solve-bdsde", "--config", str(path), "--seed", "11",
                     "--out-dir", str(out)]) == 0
        outs.append((out / "bdsde_solution.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_field_workers_identical(tmp_path):
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    path = write_config(tmp_path, cfg)
    blobs = []
    for workers, tag in ((1, "a"), (2, "b")):
        out = tmp_path / f"field-{tag}"
        code = main(["field", "--config", str(path), "--seed", "4",
                     "--out-dir", str(out), "--workers", str(workers)])
        assert code == 0
        blobs.append((out / "field.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_cli_out_csv_names_main_table(tmp_path):
    path = write_config(tmp_path)
    target = tmp_path / "renamed" / "solution.csv"
    assert main(["solve-bdsde", "--config", str(path), "--out", str(target)]) == 0
    assert target.exists()


def test_cli_failing_criterion_exit_1(tmp_path):
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg["flow"] = {"samples": 10, "noise_amp": 0.4, "tolerance": 1e-18}
    path = write_config(tmp_path, cfg)
    code = main(["verify-flow", "--config", str(path),
                 "--out-dir", str(tmp_path / "flowout")])
    assert code == 1


def test_emit_report_empty_and_failing(tmp_path):
    path = tmp_path / "report.csv"
    assert emit_report([], path) is True
    assert path.read_text().splitlines()[0].startswith("criterion")

    results = [CriterionResult("a", 1.0, 2.0, True),
               CriterionResult("b", 3.0, 2.0, False)]
    assert emit_report(results, path) is False
    text = path.with_suffix(".txt").read_text()
    assert "OVERALL: FAIL" in text


def test_config_seed_override(tmp_path):
    path = write_config(tmp_path)
    cfg = load_config(path, {"suite": "solve-bdsde", "seed": 99})
    assert cfg.seed == 99
    cfg2 = load_config(path, {"suite": "solve-bdsde"})
    assert cfg2.seed == 3


@pytest.mark.parametrize("flag, field", [("--scenarios", "monte_carlo.scenarios"),
                                         ("--workers", "workers")])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_cli_rejects_non_positive_override(tmp_path, capsys, flag, field, value):
    path = write_config(tmp_path)
    code = main(["solve-bdsde", "--config", str(path), "--out-dir", str(tmp_path / "out"),
                 flag, value])
    assert code == 2
    assert f"config error: {field}: must be >= 1" in capsys.readouterr().err


def test_cli_field_nodes_honour_scenarios_and_dt(tmp_path, monkeypatch):
    import gbdsde.suites as suites

    sizes = []
    real_sample_paths = suites.sample_paths

    def recording_sample_paths(grid, d, seed, count, *args, **kwargs):
        sizes.append((count, grid.step_count))
        return real_sample_paths(grid, d, seed, count, *args, **kwargs)

    monkeypatch.setattr(suites, "sample_paths", recording_sample_paths)
    path = write_config(tmp_path)
    blobs = []
    for workers in ("1", "2"):
        out = tmp_path / f"field-{workers}"
        assert main(["field", "--config", str(path), "--seed", "4", "--scenarios", "120",
                     "--dt", "0.025", "--out-dir", str(out), "--workers", workers]) == 0
        blobs.append((out / "field.csv").read_bytes())
    # the serial run samples once per node, at the command-line size
    assert sizes == [(120, 20)] * len(BASE_CONFIG["field"]["nodes"])
    # the process pool reads the same forwarded config
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("markov", [True, False])
def test_cli_bin_basis_runs_solver_suite(tmp_path, capsys, markov):
    # the start step's features are constant, one full bin: the intercept
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg["basis"] = {"kind": "piecewise_bins", "count": 5}
    if markov:
        cfg["solver"] = {"x0": [0.5]}  # an interior start point
    else:
        del cfg["domain"]  # no domain: the suite runs the Picard solver
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["solve-bdsde", "--config", str(path), "--out-dir", str(out)]) == 0
    assert (out / "bdsde_solution.csv").exists()
    assert "OVERALL: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("suite, markov", [("solve-bdsde", True), ("solve-bdsde", False),
                                           ("field", True)])
def test_cli_non_finite_solution_is_exit_3(tmp_path, capsys, suite, markov):
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg["problem"]["f"] = {"kind": "linear", "y": float("nan")}
    if not markov:
        del cfg["domain"]  # no domain: the suite runs the Picard solver
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    code = main([suite, "--config", str(path), "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert "numerical failure" in captured.err and "non-finite" in captured.err
    assert "OVERALL: PASS" not in captured.out


def test_cli_non_finite_flow_table_is_exit_3(tmp_path, capsys, monkeypatch):
    # the transform criterion at toy size, with a flow noise that turns NaN
    # for large |y|: the table build fails loudly instead of feeding NaN on
    import numpy as np

    import gbdsde.acceptance as acc

    real_flow, real_grid, real_paths = acc.BrownianFlow, acc.TimeGrid, acc.sample_paths

    def nan_noise(t, x, y):
        return np.where(np.abs(y) > 2.0, np.nan, 0.3 * np.sin(y))[..., None]

    monkeypatch.setattr(acc, "BrownianFlow",
                        lambda g, b_path, grid, **kw: real_flow(nan_noise, b_path, grid, **kw))
    monkeypatch.setattr(acc, "TimeGrid", lambda a, b, steps: real_grid(a, b, 20))
    monkeypatch.setattr(acc, "sample_paths",
                        lambda grid, d, seed, count, **kw: real_paths(grid, d, seed, 200, **kw))
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg["acceptance"] = {"criteria": ["transform_equivalence"]}
    path = write_config(tmp_path, cfg)
    code = main(["acceptance", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 3
    assert "numerical failure" in captured.err and "non-finite tabulated" in captured.err
    assert "OVERALL: PASS" not in captured.out


def test_cli_bin_basis_boundary_start_is_exit_2(tmp_path, capsys):
    # the default start, the projection of the origin, is the boundary point
    # 0 of [0, 1]: the reflected scenarios tie there and empty quantile bins
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg["basis"] = {"kind": "piecewise_bins", "count": 5}
    path = write_config(tmp_path, cfg)
    code = main(["solve-bdsde", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error: solver.x0: [0.0] lies on the domain boundary" in captured.err
    assert "OVERALL" not in captured.out


def test_cli_non_finite_oracle_is_exit_3(tmp_path, capsys, monkeypatch):
    import numpy as np

    import gbdsde.fields as fields

    real_pass = fields._oracle_pass

    def inf_pass(*args, **kwargs):
        xs, ts, u = real_pass(*args, **kwargs)
        u[-1, 0] = np.inf
        return xs, ts, u

    monkeypatch.setattr(fields, "_oracle_pass", inf_pass)
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg["problem"]["f"] = {"kind": "zero"}
    cfg["problem"]["h"] = {"kind": "zero"}
    path = write_config(tmp_path, cfg)
    code = main(["field", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 3
    assert "numerical failure: pde_oracle_g0 produced non-finite" in captured.err
    assert "OVERALL: PASS" not in captured.out


def test_cli_field_csv_is_pinned(tmp_path):
    # the shipped heat config at a small size; the hash is that of the
    # per-node solves the node blocks replaced
    import hashlib

    config = Path(__file__).resolve().parents[1] / "configs" / "neumann-heat.yaml"
    out = tmp_path / "out"
    assert main(["field", "--config", str(config), "--scenarios", "200", "--dt", "0.02",
                 "--out-dir", str(out)]) == 0
    digest = hashlib.sha256((out / "field.csv").read_bytes()).hexdigest()
    assert digest == "21c6512f3442123447688ac84dbfdfc845123d5a15532d46dcb86db6659539a7"
