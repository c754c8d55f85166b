"""Experiment configuration: YAML parsing, validation, defaults.

A config file has named sections (problem, domain, grid, monte_carlo, basis,
suite, output plus per-suite options).  Parsing is strict about the fields
the suites rely on and reports the offending section/field on error; a
section may hold only the keys `SECTION_KEYS` lists for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .catalog import build_coefficient_set, number
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


# the sections a config may hold, each a mapping, with the keys each may hold:
# the parser's own sections, then the suites' options (read in suites.py)
SECTION_KEYS = {
    "grid": ("t_start", "t_end", "dt"),
    "monte_carlo": ("scenarios", "seed", "shared_b"),
    "basis": ("kind", "degree"),
    "output": ("dir",),
    "problem": ("n", "d", "x_dim", "f", "g", "h", "l", "b", "sigma", "constants"),
    "domain": ("kind", "a", "b", "center", "r"),
    "reflected": ("x0", "csv_scenarios"),
    "solver": ("x0", "tol", "max_iter"),
    "flow": ("noise_amp", "samples"),
    "calculus": ("ladder", "scenarios"),
    "field": ("nodes", "mode"),
    "acceptance": ("criteria",),
}


class ConfigError(ValueError):
    """Invalid configuration; the message names the section and field."""


@dataclass
class ExperimentConfig:
    """Validated experiment description."""

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
    # every section's mapping as written; each suite reads its own
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


def _number(kind, value, name: str):
    """`catalog.number`, its error a ConfigError naming the field."""
    try:
        return number(kind, value, name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _count(value, name: str, floor: int) -> int:
    """`_number` of a whole-number field that must be at least ``floor``."""
    count = _number(int, value, name)
    if count < floor:
        raise ConfigError(f"{name}: must be >= {floor}")
    return count


def _grid_from(section: dict) -> TimeGrid:
    t_start = _number(float, section.get("t_start", 0.0), "grid.t_start")
    t_end = _number(float, section.get("t_end", 1.0), "grid.t_end")
    if "dt" not in section:
        raise ConfigError("grid: needs dt")
    dt = _number(float, section["dt"], "grid.dt")
    if dt <= 0:
        raise ConfigError("grid.dt: must be positive")
    steps_f = (t_end - t_start) / dt
    steps = int(round(steps_f))
    if steps < 1 or abs(steps - steps_f) > 1e-9 * max(1.0, steps_f):
        raise ConfigError(
            f"grid.dt: {dt} does not divide the horizon {t_end - t_start}")
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
    known = (*SECTION_KEYS, "suite", "workers")
    unknown = [k for k in data if k not in known]
    if unknown:
        raise ConfigError(f"unknown top-level keys {unknown}; pick from {known}")
    for name, keys in SECTION_KEYS.items():
        if name not in data:
            continue
        if not isinstance(data[name], dict):
            raise ConfigError(f"{name}: must be a mapping, not {data[name]!r}")
        unknown = [k for k in data[name] if k not in keys]
        if unknown:
            raise ConfigError(f"{name}: unknown keys {unknown}; pick from {keys}")

    suite = overrides.get("suite") or data.get("suite")
    if suite not in SUITES:
        raise ConfigError(f"suite: unknown suite {suite!r}; pick one of {SUITES}")

    grid_sec = dict(data.get("grid", {}))
    if "dt" in overrides and overrides["dt"] is not None:
        grid_sec["dt"] = overrides["dt"]
    grid = _grid_from(grid_sec)

    mc = dict(data.get("monte_carlo", {}))
    scenarios = _count(overrides["scenarios"] if overrides.get("scenarios") is not None
                       else mc.get("scenarios", 1000), "monte_carlo.scenarios", 1)
    seed = _number(int, overrides["seed"] if overrides.get("seed") is not None
                   else mc.get("seed", 0), "monte_carlo.seed")
    shared_b = mc.get("shared_b", False)
    if not isinstance(shared_b, bool):
        raise ConfigError(f"monte_carlo.shared_b: {shared_b!r} is not a boolean")

    basis_spec = dict(data.get("basis", {"kind": "polynomial", "degree": 3}))
    try:
        make_basis(basis_spec)
    except ValueError as exc:
        raise ConfigError(f"basis: {exc}") from exc

    out_dir = Path(overrides.get("out_dir") or data.get("output", {}).get("dir", "out"))
    workers = _count(overrides["workers"] if overrides.get("workers") is not None
                     else data.get("workers", 1), "workers", 1)

    config = ExperimentConfig(
        suite=suite,
        grid=grid,
        scenarios=scenarios,
        seed=seed,
        shared_b=shared_b,
        basis_spec=basis_spec,
        out_dir=out_dir,
        workers=workers,
        problem=data.get("problem"),
        domain_spec=data.get("domain"),
        options={k: v for k, v in data.items() if k in SECTION_KEYS},
    )
    # building the problem and the domain validates their sections
    if config.problem is not None:
        config.coefficient_set()
    if config.domain_spec is not None:
        config.domain()
    return config


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
