"""Experiment configuration: YAML parsing, validation, defaults.

A config file has named sections (problem, domain, grid, monte_carlo, basis,
suite, output plus per-suite options).  Parsing is strict about the fields
the suites rely on and reports the offending section/field on error; a
parsed config serializes back to the same mapping (round-trip identity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .catalog import build_coefficient_set
from .geometry import SmoothDomain, make_domain
from .grids import TimeGrid
from .problems import CoefficientSet
from .regression import make_basis

SUITES = (
    "simulate-reflected",
    "solve-bdsde",
    "verify-flow",
    "verify-calculus",
    "field",
    "acceptance",
)


class ConfigError(ValueError):
    """Invalid configuration; the message names the section and field."""


@dataclass
class ExperimentConfig:
    """Validated experiment description plus the raw mapping it came from."""

    raw: dict
    suite: str
    grid: TimeGrid
    scenarios: int
    seed: int
    shared_b: bool
    basis_spec: dict
    out_dir: Path
    workers: int = 1
    problem: dict | None = None
    domain_spec: dict | None = None
    options: dict = field(default_factory=dict)

    def coefficient_set(self) -> CoefficientSet:
        if self.problem is None:
            raise ConfigError("config lacks a 'problem' section")
        try:
            return build_coefficient_set(self.problem)
        except ValueError as exc:
            raise ConfigError(f"problem: {exc}") from exc

    def domain(self) -> SmoothDomain:
        if self.domain_spec is None:
            raise ConfigError("config lacks a 'domain' section")
        try:
            return make_domain(self.domain_spec)
        except ValueError as exc:
            raise ConfigError(f"domain: {exc}") from exc

    def basis(self):
        return make_basis(self.basis_spec)

    def to_mapping(self) -> dict:
        return self.raw


def _grid_from(section: dict) -> TimeGrid:
    t_start = float(section.get("t_start", 0.0))
    t_end = float(section.get("t_end", 1.0))
    if "step_count" in section:
        steps = int(section["step_count"])
    elif "dt" in section:
        dt = float(section["dt"])
        if dt <= 0:
            raise ConfigError("grid.dt: must be positive")
        steps_f = (t_end - t_start) / dt
        steps = int(round(steps_f))
        if steps < 1 or abs(steps - steps_f) > 1e-9 * max(1.0, steps_f):
            raise ConfigError(
                f"grid.dt: {dt} does not divide the horizon {t_end - t_start}")
    else:
        raise ConfigError("grid: needs dt or step_count")
    try:
        return TimeGrid(t_start, t_end, steps)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def parse_config(mapping: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Validate a raw mapping (already YAML-parsed) into an ExperimentConfig."""
    if not isinstance(mapping, dict):
        raise ConfigError("config root must be a mapping")
    data = {k: v for k, v in mapping.items()}
    overrides = overrides or {}

    suite = overrides.get("suite") or data.get("suite")
    if suite not in SUITES:
        raise ConfigError(f"suite: unknown suite {suite!r}; pick one of {SUITES}")

    grid_sec = dict(data.get("grid", {}))
    if "dt" in overrides and overrides["dt"] is not None:
        grid_sec["dt"] = overrides["dt"]
        grid_sec.pop("step_count", None)
    grid = _grid_from(grid_sec)

    mc = dict(data.get("monte_carlo", {}))
    scenarios = int(overrides["scenarios"] if overrides.get("scenarios") is not None
                    else mc.get("scenarios", 1000))
    seed = int(overrides["seed"]) if overrides.get("seed") is not None else int(mc.get("seed", 0))
    shared_b = bool(mc.get("shared_b", False))
    if scenarios < 1:
        raise ConfigError("monte_carlo.scenarios: must be >= 1")

    basis_spec = dict(data.get("basis", {"kind": "polynomial", "degree": 3}))
    try:
        basis = make_basis(basis_spec)
    except ValueError as exc:
        raise ConfigError(f"basis: {exc}") from exc
    # enforce scenario/basis headroom on the solver suites
    if suite in ("solve-bdsde", "field"):
        feat_dim = int(data.get("problem", {}).get("x_dim") or 1)
        if not shared_b:
            feat_dim += int(data.get("problem", {}).get("d", 1))
        need = 10 * basis.feature_count(feat_dim)
        if scenarios < need:
            raise ConfigError(
                f"monte_carlo.scenarios: {scenarios} < 10x basis size ({need}) "
                f"for {basis.name}")

    out_dir = Path(overrides.get("out_dir") or data.get("output", {}).get("dir", "out"))
    workers = int(overrides["workers"] if overrides.get("workers") is not None
                  else data.get("workers", 1))
    if workers < 1:
        raise ConfigError("workers: must be >= 1")

    problem = data.get("problem")
    if problem is not None:
        try:
            build_coefficient_set(problem)
        except ValueError as exc:
            raise ConfigError(f"problem: {exc}") from exc
    domain_spec = data.get("domain")
    if domain_spec is not None:
        try:
            make_domain(domain_spec)
        except ValueError as exc:
            raise ConfigError(f"domain: {exc}") from exc

    options = {
        k: v
        for k, v in data.items()
        if k not in {"suite", "grid", "monte_carlo", "basis", "output",
                     "problem", "domain", "workers"}
    }
    return ExperimentConfig(
        raw=data,
        suite=suite,
        grid=grid,
        scenarios=scenarios,
        seed=seed,
        shared_b=shared_b,
        basis_spec=basis_spec,
        out_dir=out_dir,
        workers=workers,
        problem=problem,
        domain_spec=domain_spec,
        options=options,
    )


def load_config(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        mapping = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    return parse_config(mapping or {}, overrides)


def dump_config(config: ExperimentConfig) -> str:
    return yaml.safe_dump(config.to_mapping(), sort_keys=True)


def roundtrip(mapping: dict) -> dict:
    """parse -> serialize -> parse; used to assert the identity in tests."""
    cfg = parse_config(mapping)
    return yaml.safe_load(dump_config(cfg))
