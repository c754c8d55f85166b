"""Configuration parsing, CLI exit codes, suite determinism, the export list."""

from pathlib import Path

import pytest
import yaml

from gbdsde.cli import main
from gbdsde.config import ConfigError, load_config, parse_config
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


# keys that were options and are now constants: any value is the unknown-key error
CONSTANT_KEYS = {("grid", "step_count"), ("solver", "terminal"), ("flow", "x_mod"),
                 ("flow", "fd_step"), ("flow", "tolerance")}


def unknown_key_error(section, key):
    return f"{section}: unknown keys [{key!r}]; pick from"


def write_config(tmp_path: Path, mapping=None) -> Path:
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(mapping or BASE_CONFIG))
    return path


def test_star_import_binds_every_exported_name():
    # a name left in __all__ after its definition is deleted fails the star import
    import gbdsde

    namespace = {}
    exec("from gbdsde import *", namespace)
    assert len(set(gbdsde.__all__)) == len(gbdsde.__all__)
    assert all(namespace[name] is getattr(gbdsde, name) for name in gbdsde.__all__)


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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_too_few_scenarios_for_the_basis_is_exit_2(tmp_path, capsys, workers):
    # the projector owns the scenarios-per-basis-function rule; its error
    # reaches the CLI as a config error, also from a worker process
    out = tmp_path / "out"
    code = main(["field", "--config", str(write_config(tmp_path)), "--scenarios", "20",
                 "--workers", workers, "--out-dir", str(out)])
    assert code == 2
    assert ("config error: need >= 10x more scenarios than basis functions "
            "(20 scenarios, 3 functions of polynomial(2))" in capsys.readouterr().err)
    assert not (out / "field.csv").exists()


def test_cli_field_regresses_on_x_alone_without_backward_noise(tmp_path, capsys):
    # g = 0: the solver regresses on x alone, 4 cubic functions, so 60
    # scenarios suffice even without a shared backward scenario
    config = Path(__file__).resolve().parents[1] / "configs" / "neumann-heat.yaml"
    cfg = yaml.safe_load(config.read_text())
    cfg["monte_carlo"] = {"scenarios": 60, "shared_b": False}
    cfg["grid"]["dt"] = 0.05
    cfg["field"]["nodes"] = [[0.0, 0.5]]
    out = tmp_path / "out"
    code = main(["field", "--config", str(write_config(tmp_path, cfg)), "--out-dir", str(out)])
    assert code == 0, capsys.readouterr().err
    assert (out / "field.csv").is_file()


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


@pytest.mark.parametrize("flag", ["--out", "--out-d"])
def test_cli_rejects_out_and_abbreviated_flags(tmp_path, flag):
    # --out-dir is the one output flag; argparse must not read --out x.csv
    # as an abbreviation of it and create a directory named x.csv
    target = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as info:
        main(["solve-bdsde", "--config", str(write_config(tmp_path)), flag, str(target)])
    assert info.value.code == 2
    assert not target.exists()


def test_cli_failing_criterion_exit_1(tmp_path, monkeypatch):
    import gbdsde.acceptance as acceptance

    monkeypatch.setattr(acceptance, "FLOW_IDENTITY_TOL", 1e-18)
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg["flow"] = {"samples": 10, "noise_amp": 0.4}
    path = write_config(tmp_path, cfg)
    code = main(["verify-flow", "--config", str(path),
                 "--out-dir", str(tmp_path / "flowout")])
    assert code == 1


def test_emit_report_empty_and_failing(tmp_path):
    path = tmp_path / "report.csv"
    assert emit_report([], path) == "NO CHECKS"
    assert path.read_text().splitlines()[0].startswith("criterion")
    assert "OVERALL: NO CHECKS" in path.with_suffix(".txt").read_text()

    results = [CriterionResult("a", 1.0, 2.0, True),
               CriterionResult("b", 3.0, 2.0, False)]
    assert emit_report(results, path) == "FAIL"
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


@pytest.mark.parametrize("degree, code, status", [(None, 1, "FAIL"), (2, 0, "PASS")],
                         ids=["cubic", "quadratic"])
def test_cli_picard_path_gates_convergence(tmp_path, capsys, degree, code, status):
    # the Picard path gated only its terminal value: on the default cubic basis
    # it stopped at max_iter 10 with the trace 6.1e-10 above tol 1e-10 and
    # printed OVERALL: PASS; the quadratic basis reaches 3.6e-12 in 9 passes
    cfg = {
        "suite": "solve-bdsde",
        "problem": {"n": 1, "d": 1, "f": {"kind": "linear", "y": -0.5},
                    "g": {"kind": "linear", "z": 0.5}, "h": {"kind": "constant", "value": 0.2}},
        "grid": {"dt": 0.02},
        "monte_carlo": {"scenarios": 1000, "seed": 2024, "shared_b": False},
    }
    if degree is not None:
        cfg["basis"] = {"kind": "polynomial", "degree": degree}
    assert main(["solve-bdsde", "--config", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(tmp_path / "out")]) == code
    lines = capsys.readouterr().out.splitlines()
    (line,) = [line for line in lines if line.startswith("picard_converged:")]
    assert line.endswith(f"<= 1e-10 -> {status}")
    assert f"OVERALL: {status}" in lines


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


def test_cli_non_finite_oracle_newton_system_is_exit_3(tmp_path, capsys, monkeypatch):
    # a NaN in the oracle's Newton system is a numerical failure, exit 3,
    # not a bare ValueError that the CLI would report as a config error
    from dataclasses import replace

    import numpy as np

    import gbdsde.suites as suites
    from gbdsde.fields import pde_oracle_g0

    def nan_f_oracle(coeffs, domain, **kwargs):
        def nan_f(t, x, y, z):
            return coeffs.f(t, x, y, z) + (np.nan if t < 0.25 else 0.0)
        return pde_oracle_g0(replace(coeffs, f=nan_f), domain, **kwargs)

    monkeypatch.setattr(suites, "pde_oracle_g0", nan_f_oracle)
    code = main(["field", "--config", str(write_config(tmp_path)),
                 "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 3
    assert "numerical failure: non-finite Newton system at t = 0.24" in captured.err
    assert "OVERALL" not in captured.out


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


@pytest.mark.parametrize("section", ["grid", "monte_carlo", "basis", "problem", "field",
                                     "output"])
def test_cli_empty_section_is_exit_2(tmp_path, capsys, section):
    # a section left without a value parses as None, not as a mapping
    config = Path(__file__).resolve().parents[1] / "configs" / "neumann-heat.yaml"
    cfg = yaml.safe_load(config.read_text())
    cfg[section] = None
    path = write_config(tmp_path, cfg)
    code = main(["field", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert f"config error: {section}: must be a mapping, not None" in capsys.readouterr().err


def test_cli_field_global_mode_is_exit_2(tmp_path, capsys):
    # the field suite has one estimator; any other mode stops before a node is solved
    config = Path(__file__).resolve().parents[1] / "configs" / "neumann-heat.yaml"
    cfg = yaml.safe_load(config.read_text())
    cfg["field"]["mode"] = "global"
    out = tmp_path / "out"
    code = main(["field", "--config", str(write_config(tmp_path, cfg)), "--out-dir", str(out)])
    assert code == 2
    assert "config error: field.mode:" in capsys.readouterr().err
    assert not (out / "field.csv").exists()


@pytest.mark.parametrize("section, field, value", [
    ("grid", "t_start", "early"), ("grid", "t_end", "late"), ("grid", "dt", "small"),
    ("grid", "step_count", "many"), ("monte_carlo", "scenarios", "many"),
    ("monte_carlo", "seed", "x"), (None, "workers", "w"), ("problem", "x_dim", "one"),
    ("problem", "d", "one"),
])
def test_cli_non_numeric_config_number_is_exit_2(tmp_path, capsys, section, field, value):
    # a number that does not parse is a config error naming its field, not a traceback
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    (cfg[section] if section else cfg)[field] = value
    code = main(["solve-bdsde", "--config", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    # the problem's builder reads its sizes; its errors carry the section first
    name = (f"problem: {field}" if section == "problem"
            else f"{section}.{field}" if section else field)
    expected = (unknown_key_error(section, field) if (section, field) in CONSTANT_KEYS
                else f"{name}: {value!r} cannot be read as")
    assert f"config error: {expected}" in capsys.readouterr().err


@pytest.mark.parametrize("section, field, value", [
    ("grid", "step_count", 40.5), ("monte_carlo", "scenarios", 2000.9),
    ("monte_carlo", "seed", 2.7), ("monte_carlo", "seed", True), (None, "workers", 1.5),
    ("problem", "x_dim", 1.5), ("problem", "d", True), ("problem", "n", 1.5),
])
def test_parse_rejects_truncated_integer_field(section, field, value):
    # int() would run 2.7 as seed 2 and true as 1; the error names the field
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    (cfg[section] if section else cfg)[field] = value
    # the problem's builder reads its sizes; its errors carry the section first
    name = (f"problem: {field}" if section == "problem"
            else f"{section}.{field}" if section else field)
    expected = (unknown_key_error(section, field) if (section, field) in CONSTANT_KEYS
                else f"{name}: {value!r} cannot be read as int")
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert str(info.value).startswith(expected)


@pytest.mark.parametrize("field, value", [("d", None), ("n", [1]), ("n", "one"),
                                          ("x_dim", "one"), ("d", {"a": 1}), ("n", "1e3")])
def test_parse_names_a_problem_size_that_is_not_a_number(field, value):
    # int() raises TypeError on None or a list and an unnamed ValueError on "one"
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg["problem"][field] = value
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert str(info.value) == f"problem: {field}: {value!r} cannot be read as int"


@pytest.mark.parametrize("suite", ["verify-flow", "field"])
def test_cli_null_problem_size_is_exit_2(tmp_path, capsys, suite):
    config = Path(__file__).resolve().parents[1] / "configs" / "neumann-heat.yaml"
    cfg = yaml.safe_load(config.read_text())
    cfg["problem"]["d"] = None
    code = main([suite, "--config", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "config error: problem: d: None cannot be read as int" in capsys.readouterr().err


def test_cli_unknown_top_level_key_is_exit_2(tmp_path, capsys):
    # a misspelled section would otherwise run on the defaults: seed 0 instead of 7
    config = Path(__file__).resolve().parents[1] / "configs" / "reflected-diffusion.yaml"
    cfg = yaml.safe_load(config.read_text())
    cfg["monte-carlo"] = cfg.pop("monte_carlo")
    out = tmp_path / "out"
    code = main(["simulate-reflected", "--config", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(out)])
    assert code == 2
    assert "config error: unknown top-level keys ['monte-carlo']" in capsys.readouterr().err
    assert not out.exists()


def test_shipped_configs_parse_and_every_suite_has_a_runner():
    # the parser rejects unknown keys, so every shipped config must still pass it
    from gbdsde.acceptance import _DETERMINISM_CONFIG
    from gbdsde.config import SUITES
    from gbdsde.suites import SUITE_RUNNERS

    paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))
    assert paths
    for path in paths:
        assert load_config(path).suite in SUITES
    assert parse_config(yaml.safe_load(_DETERMINISM_CONFIG)).suite == "solve-bdsde"
    # the CLI's suite choices come from SUITES, its dispatch from SUITE_RUNNERS
    assert tuple(SUITE_RUNNERS) == SUITES


def test_parse_keeps_integral_numbers_and_numeric_strings():
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg["monte_carlo"].update(seed=7.0, scenarios="400")
    cfg["problem"]["n"] = 1.0
    config = parse_config(cfg)
    assert (config.seed, config.scenarios, config.coefficient_set().n) == (7, 400, 1)
    assert all(type(v) is int for v in (config.seed, config.scenarios))


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_cli_non_boolean_shared_b_is_exit_2(tmp_path, capsys, value):
    # bool("false") is True: a quoted or numeric flag must not switch the
    # shared backward scenario on or off
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg["monte_carlo"]["shared_b"] = value
    out = tmp_path / "out"
    code = main(["solve-bdsde", "--config", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(out)])
    assert code == 2
    assert (f"config error: monte_carlo.shared_b: {value!r} is not a boolean"
            in capsys.readouterr().err)
    assert not out.exists()


def test_determinism_criterion_leaves_no_directory_behind(tmp_path, monkeypatch):
    # the criterion's tempfile.mkdtemp() directory outlived every call; the
    # suites are stubbed to one fixed CSV each
    import tempfile

    from gbdsde import suites
    from gbdsde.acceptance import criterion_determinism

    def stub_run_suite(config):
        config.out_dir.mkdir(parents=True)
        (config.out_dir / "rows.csv").write_text("a,b\n1,2\n")
        return 0, ["OVERALL: PASS"]

    monkeypatch.setattr(suites, "run_suite", stub_run_suite)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    [result] = criterion_determinism(seed=5)
    assert result.passed, result.details
    assert list(tmp_path.iterdir()) == []


def test_cli_determinism_criterion_prints_one_verdict(tmp_path, capsys):
    # the criterion ran its eleven suites through the CLI, each printing its
    # own report: twelve OVERALL lines, eleven of them before the criterion's row
    cfg = {"suite": "acceptance", "grid": {"dt": 0.01},
           "acceptance": {"criteria": ["determinism"]}}
    code = main(["acceptance", "--config", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(tmp_path / "out")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines == ["suite_determinism: measured 1 >= 1 -> PASS", "OVERALL: PASS"]


@pytest.mark.parametrize("section, value, message", [
    ("domain", {"kind": "interval", "a": 0.0}, "domain: interval domain needs field 'b'"),
    ("domain", {"kind": "ball", "center": [0.5]}, "domain: ball domain needs field 'r'"),
    ("basis", {"kind": "polynomial", "degree": 2.7}, "basis: degree: 2.7 cannot be read as int"),
], ids=["interval-without-b", "ball-without-r", "fractional-degree"])
def test_cli_missing_domain_field_or_fractional_basis_size_is_exit_2(
        tmp_path, capsys, section, value, message):
    # a missing size was a KeyError traceback; int() ran degree 2.7 as 2
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg[section] = value
    out = tmp_path / "out"
    code = main(["solve-bdsde", "--config", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(out)])
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("suite, section, field, value, kind", [
    ("verify-flow", "flow", "samples", 2.7, "int"),
    ("verify-flow", "flow", "samples", "many", "int"),
    ("verify-flow", "flow", "noise_amp", "loud", "float"),
    ("verify-flow", "flow", "x_mod", None, "float"),
    ("verify-flow", "flow", "fd_step", "tiny", "float"),
    ("verify-flow", "flow", "tolerance", [1e-3], "float"),
    ("verify-calculus", "calculus", "scenarios", 64.5, "int"),
    ("verify-calculus", "calculus", "ladder", [50, 100.5], "int"),
    ("simulate-reflected", "reflected", "csv_scenarios", 2.5, "int"),
    ("solve-bdsde", "solver", "max_iter", 3.5, "int"),
    ("solve-bdsde", "solver", "tol", "small", "float"),
])
def test_cli_suite_option_that_is_not_a_number_is_exit_2(
        tmp_path, capsys, suite, section, field, value, kind):
    # int() ran samples 2.7 as 2; a non-number's error did not name its field
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg.setdefault(section, {})[field] = value
    if section == "solver":
        del cfg["domain"]  # the Picard path, which reads tol and max_iter
    if section == "reflected":
        cfg["reflected"]["x0"] = [0.5]
    code = main([suite, "--config", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    shown = value[-1] if field == "ladder" else value
    expected = (unknown_key_error(section, field) if (section, field) in CONSTANT_KEYS
                else f"{section}.{field}: {shown!r} cannot be read as {kind}")
    assert f"config error: {expected}" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [
    ("monte_carlo", "scenario"), ("grid", "t_ned"), ("basis", "degre"), ("field", "mdoe"),
    ("output", "dri"), ("flow", "sample"), ("problem", "constant"), ("domain", "radius"),
    ("basis", "count"),
])
def test_cli_unknown_key_in_a_section_is_exit_2(tmp_path, capsys, section, key):
    # a misspelled key ran on its default: monte_carlo.scenario ran 1 000 scenarios
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg.setdefault(section, {})[key] = 3
    out = tmp_path / "out"
    code = main(["solve-bdsde", "--config", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(out)])
    assert code == 2
    assert f"config error: {unknown_key_error(section, key)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("constants, message", [
    ({"K": 2.0, "c": 1.0, "aplha": 2.0, "beta1": 1.0},
     "problem: constants: unknown keys ['aplha']; pick from ('K', 'c', 'alpha', 'beta1')"),
    ({"K": "abc"}, "problem: constants.K: 'abc' cannot be read as float"),
    ([2.0, 1.0], "problem: constants: must be a mapping, not [2.0, 1.0]"),
], ids=["misspelled-key", "non-numeric-value", "list"])
def test_cli_bad_problem_constant_is_exit_2(tmp_path, capsys, constants, message):
    # a misspelled constant ran on its default with OVERALL: PASS; a list
    # ended in AttributeError
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg["problem"]["constants"] = constants
    out = tmp_path / "out"
    code = main(["solve-bdsde", "--config", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(out)])
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("suite, section", [("simulate-reflected", "reflected"),
                                            ("solve-bdsde", "solver")])
def test_cli_non_numeric_start_point_names_its_field(tmp_path, capsys, suite, section):
    # the error said only "could not convert string to float: 'a'"
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg[section] = {"x0": "a"}
    out = tmp_path / "out"
    code = main([suite, "--config", str(write_config(tmp_path, cfg)), "--out-dir", str(out)])
    assert code == 2
    assert f"config error: {section}.x0: 'a' cannot be read as float" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("x0", [None, [2.0], [0.5, 0.5]],
                         ids=["null", "outside", "two-coordinates"])
@pytest.mark.parametrize("suite, section", [("simulate-reflected", "reflected"),
                                            ("solve-bdsde", "solver")])
def test_cli_start_point_off_the_domain_names_its_field(tmp_path, capsys, suite, section,
                                                        x0):
    # null read as NaN; the errors said only "start point must lie in the
    # closed domain" or "start point dimension 2 != domain dim 1"
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg[section] = {"x0": x0}
    out = tmp_path / "out"
    code = main([suite, "--config", str(write_config(tmp_path, cfg)), "--out-dir", str(out)])
    assert code == 2
    assert (f"config error: {section}.x0: {x0!r} is not a point of the closed "
            "1-dimensional domain" in capsys.readouterr().err)
    assert not out.exists()


def test_cli_field_run_that_checks_nothing_is_not_a_pass(tmp_path, capsys):
    # with backward noise the field suite has no oracle and evaluates no
    # criterion; it printed OVERALL: PASS and exited 0
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg["problem"]["g"] = {"kind": "constant", "value": 0.3}
    cfg["monte_carlo"]["scenarios"] = 100
    out = tmp_path / "out"
    code = main(["field", "--config", str(write_config(tmp_path, cfg)), "--out-dir", str(out)])
    assert code == 4
    assert capsys.readouterr().out.splitlines() == ["OVERALL: NO CHECKS"]
    assert (out / "field_report.txt").read_text() == "OVERALL: NO CHECKS\n"
    assert len((out / "field.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("ladder", [5, []], ids=["int", "empty"])
def test_cli_calculus_ladder_that_is_not_a_list_of_rungs_is_exit_2(tmp_path, capsys, ladder):
    # 5 ended in "TypeError: 'int' object is not iterable"; [] checked no
    # criterion and printed OVERALL: PASS
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg["calculus"]["ladder"] = ladder
    out = tmp_path / "out"
    code = main(["verify-calculus", "--config", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(out)])
    assert code == 2
    assert (f"config error: calculus.ladder: {ladder!r} is not a list of two or more step "
            "counts" in capsys.readouterr().err)
    assert not out.exists()


def test_cli_bin_basis_kind_is_exit_2(tmp_path, capsys):
    # polynomials are the one regression basis
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg["basis"] = {"kind": "piecewise_bins"}
    out = tmp_path / "out"
    code = main(["solve-bdsde", "--config", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(out)])
    assert code == 2
    assert ("config error: basis: unknown regression basis kind 'piecewise_bins'"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("criteria", [["picard_contraction", "determinsm"],
                                      "picard_contraction", [["picard_contraction"]]],
                         ids=["misspelt-name", "bare-string", "nested-list"])
def test_cli_acceptance_criteria_that_are_not_criterion_names_is_exit_2(
        tmp_path, capsys, criteria):
    # the misspelt name was skipped and the string matched by substring: both
    # ran picard_contraction alone and printed OVERALL: PASS; the nested list
    # matched nothing
    cfg = {"suite": "acceptance", "grid": {"dt": 0.01}, "acceptance": {"criteria": criteria}}
    out = tmp_path / "out"
    code = main(["acceptance", "--config", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert (f"config error: acceptance.criteria: {criteria!r} is not a list of criterion "
            "names; pick from ['reflection_oracle', " in captured.err)
    assert "OVERALL" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("fd_step", [0.0, -1e-4, float("inf"), float("nan")])
def test_cli_flow_fd_step_that_is_not_positive_and_finite_is_exit_2(tmp_path, capsys, fd_step):
    # a zero step divided by zero: nan in every row of flow_identities.csv, exit 1;
    # the step is now the constant acceptance.FD_STEP, so any flow.fd_step is unknown
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg["flow"] = {"fd_step": fd_step, "samples": 5}
    out = tmp_path / "out"
    code = main(["verify-flow", "--config", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(out)])
    assert code == 2
    assert f"config error: {unknown_key_error('flow', 'fd_step')}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("role, spec, key", [
    ("l", {"kind": "trig", "amp": 1.0, "func": "cos", "of": "x", "frq": 3.0}, "frq"),
    ("h", {"kind": "sum", "terms": [{"kind": "constant", "valu": 0.2}]}, "valu"),
    ("f", {"kind": "scale", "factor": 2.0, "term": {"kind": "linear", "w": -0.5}}, "w"),
    ("f", {"kind": "linear", "y": -0.5, "const": 1.0}, "const"),
], ids=["trig", "in-sum", "in-scale", "affine-key-on-linear"])
def test_cli_unknown_key_in_a_coefficient_is_exit_2(tmp_path, capsys, role, spec, key):
    # l: {..., frq: 3.0} ran on the default frequency 1.0 and printed OVERALL: PASS
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg["problem"][role] = spec
    out = tmp_path / "out"
    code = main(["solve-bdsde", "--config", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(out)])
    assert code == 2
    assert (f"config error: problem: {role}: unknown keys [{key!r}] for kind"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("ladder", [[50, 50], [100, 50]], ids=["repeated", "decreasing"])
def test_cli_calculus_ladder_that_is_not_increasing_is_exit_2(tmp_path, capsys, ladder):
    # a repeated rung divided log(1) by log(1): nan in every measured cell, exit 1
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg["calculus"]["ladder"] = ladder
    out = tmp_path / "out"
    code = main(["verify-calculus", "--config", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(out)])
    assert code == 2
    assert (f"config error: calculus.ladder: {ladder!r} is not strictly increasing"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("role, spec, shown", [
    ("l", 5, "5"),
    ("h", {"kind": "sum", "terms": [{"kind": "constant", "value": 0.2}, "zero"]}, "'zero'"),
], ids=["top-level", "in-sum"])
def test_cli_coefficient_spec_that_is_not_a_mapping_is_exit_2(tmp_path, capsys, role, spec,
                                                               shown):
    # l: 5 ended in AttributeError: 'int' object has no attribute 'get', exit 1
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg["problem"][role] = spec
    out = tmp_path / "out"
    code = main(["solve-bdsde", "--config", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(out)])
    assert code == 2
    assert (f"config error: problem: {role}: a coefficient spec is a mapping with a 'kind', "
            f"not {shown}" in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("spec, message", [
    ({"kind": "sum"}, "kind 'sum' lacks the keys ['terms']"),
    ({"kind": "scale", "factor": 2.0}, "kind 'scale' lacks the keys ['term']"),
    ({"kind": "scale", "term": {"kind": "linear", "y": -0.5}},
     "kind 'scale' lacks the keys ['factor']"),
    ({"kind": "sum", "terms": []}, "the terms of a sum are a non-empty list, not []"),
], ids=["sum-terms", "scale-term", "scale-factor", "sum-no-terms"])
def test_cli_sum_or_scale_without_its_keys_is_exit_2(tmp_path, capsys, spec, message):
    # a missing key used to read "unknown catalog entry in 'f': 'terms'"
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg["problem"]["f"] = spec
    out = tmp_path / "out"
    code = main(["solve-bdsde", "--config", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"config error: problem: f: {message}" in err
    assert "unknown catalog entry" not in err
    assert not out.exists()


@pytest.mark.parametrize("terminal", [{"kind": "constant"}, {"kind": "constant", "value": "one"}],
                         ids=["missing", "not-a-number"])
def test_cli_constant_terminal_without_a_value_is_exit_2(tmp_path, capsys, terminal):
    # the Picard path read terminal["value"] unchecked: KeyError: 'value', exit 1;
    # it now always takes W_T, so any solver.terminal is unknown
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    del cfg["domain"]
    cfg["solver"] = {"terminal": terminal}
    code = main(["solve-bdsde", "--config", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert f"config error: {unknown_key_error('solver', 'terminal')}" in captured.err
    assert "OVERALL" not in captured.out


def test_cli_failed_svd_is_exit_3(tmp_path, capsys, monkeypatch):
    # LinAlgError is a ValueError: it was reported as a config error, exit 2
    import numpy as np

    def svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", svd)
    code = main(["solve-bdsde", "--config", str(write_config(tmp_path)),
                 "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 3
    assert "numerical failure: SVD did not converge" in captured.err
    assert "OVERALL" not in captured.out


@pytest.mark.parametrize("suite, section, field, value, floor", [
    ("verify-flow", "flow", "samples", 0, 1),
    ("verify-calculus", "calculus", "scenarios", 0, 1),
    ("simulate-reflected", "reflected", "csv_scenarios", -3, 0),
    ("solve-bdsde", "solver", "max_iter", 0, 1),
    ("solve-bdsde", "solver", "max_iter", -1, 1),
])
def test_cli_count_option_below_its_floor_is_exit_2(
        tmp_path, capsys, suite, section, field, value, floor):
    # samples 0 failed in a reshape, scenarios 0 in the sampler, max_iter 0 in
    # a Picard solve that ran no pass, none naming its field; csv_scenarios -3
    # wrote a header-only CSV and passed
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg.setdefault(section, {})[field] = value
    if section == "reflected":
        cfg["reflected"]["x0"] = [0.5]
    if section == "solver":
        del cfg["domain"]  # the Picard path, which reads max_iter
    out = tmp_path / "out"
    code = main([suite, "--config", str(write_config(tmp_path, cfg)), "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"config error: {section}.{field}: must be >= {floor}" in captured.err
    assert "OVERALL" not in captured.out
    assert not out.exists()


def test_cli_solver_start_row_se_is_the_pathwise_totals_se(tmp_path, monkeypatch):
    # the start row's se_Y was the spread of one fitted value: round-off, ~1e-19
    import csv

    import gbdsde.suites as suites

    solutions = []

    def solve(*args, **kwargs):
        solutions.append(real(*args, **kwargs))
        return solutions[-1]

    real = suites.solve_bdsde_markov
    monkeypatch.setattr(suites, "solve_bdsde_markov", solve)
    out = tmp_path / "out"
    assert main(["solve-bdsde", "--config", str(write_config(tmp_path)),
                 "--out-dir", str(out)]) == 0
    with open(out / "bdsde_solution.csv") as fh:
        start = next(csv.DictReader(fh))
    solution, _ = solutions[0]
    se = solution.initial_se()[0]
    assert start["se_Y"] == suites.FLOAT_FMT % se
    assert float(start["se_Y"]) > 1e-6
