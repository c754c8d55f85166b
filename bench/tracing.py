"""Span tracing of the package's public functions, installed from outside.

``Tracer.install()`` replaces each traced function at every place it is bound
in a loaded ``gbdsde`` module (its defining module and every import site, so
``solver.simulate_reflected`` and ``fields.solve_bdsde_markov`` are wrapped
too) and the traced class methods and properties on their classes; nested
calls therefore open nested spans.  ``uninstall()`` puts the originals back.
Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent_index, pass_id]``; spans stay in memory
and ``dump`` writes them as JSON at the end of the run.  Counts are derived
from call arguments and return values in per-call hooks.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import hashlib
import inspect
import json
import sys
from time import perf_counter

import numpy as np

from gbdsde import (acceptance, catalog, cli, config, fields, flows, geometry, paths,
                    reflection, regression, solver, suites)

# span-name prefix -> layer reported as <layer>.self_s
LAYER_OF = {
    "paths": "paths", "problems": "problems", "geometry": "geometry",
    "reflection": "reflection", "regression": "regression", "solver": "solver",
    "flows": "flows", "fields": "fields",
    "config": "config", "suites": "config", "cli": "config",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.pass_id = -1
        self.pass_walls: dict[int, float] = {}
        self._stack: list[int] = []
        self._designs: set = set()
        self._undo: list = []

    # -- span recording ---------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.pass_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self._designs = set()

    def end_pass(self, wall: float) -> None:
        self.pass_walls[self.pass_id] = wall
        self.counts["regression.designs"] += len(self._designs)

    # -- patching ---------------------------------------------------------

    def _replace_everywhere(self, fn, replacement) -> None:
        """Rebind fn to replacement in every loaded gbdsde module that holds it."""
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("gbdsde"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, fn))

    def _patch_function(self, fn, name: str, after=None) -> None:
        self._replace_everywhere(fn, self.wrap(name, fn, after))

    def _patch_method(self, cls, attr: str, name: str, after=None) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, property):
            replacement = property(self.wrap(name, original.fget, after))
        else:
            replacement = self.wrap(name, original, after)
        setattr(cls, attr, replacement)
        self._undo.append((cls, attr, original))

    def _patch_factory(self, fn) -> None:
        """Wrap the coefficient callables of every CoefficientSet fn returns."""

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            return self.wrap_coefficients(fn(*args, **kwargs))

        self._replace_everywhere(fn, factory)

    def wrap_coefficients(self, made):
        coeffs = made["coeffs"] if isinstance(made, dict) else made
        roles = {r: getattr(coeffs, r) for r in ("f", "g", "h", "l", "b", "sigma")
                 if getattr(coeffs, r) is not None}
        wrapped = dataclasses.replace(
            coeffs, **{r: self.wrap("problems.coeff_eval", fn) for r, fn in roles.items()})
        if isinstance(made, dict):
            return {**made, "coeffs": wrapped}
        return wrapped

    def install(self) -> None:
        c = self.counts
        sig_sample = inspect.signature(paths.sample_paths)

        def after_sample(args, kwargs, bundle):
            a = sig_sample.bind(*args, **kwargs)
            a.apply_defaults()
            count, d = a.arguments["count"], a.arguments["d"]
            steps = a.arguments["grid"].step_count
            b_rows = 1 if a.arguments["shared_b"] else count
            c["paths.normals_drawn"] += (count + b_rows) * steps * d

        def after_build(args, kwargs, _):
            proj, points, basis = args[0], np.asarray(args[1]), args[2]
            digest = hashlib.blake2b(np.ascontiguousarray(points).tobytes(),
                                     digest_size=16).hexdigest()
            self._designs.add((points.shape, digest))
            width = basis.feature_count(points.shape[1] if points.ndim > 1 else 1)
            if proj.rank < width:
                c["regression.rank_deficient"] += 1

        def after_reflect(args, kwargs, refl):
            flags = refl.boundary_flags[:, 1:]
            c["reflection.boundary_hits"] += int(np.count_nonzero(flags))
            c["reflection.boundary_slots"] += flags.size

        def after_solve(args, kwargs, _):
            t_index = args[1] if len(args) > 1 else kwargs["t_index"]
            c["flows.sweep_steps"] += args[0].grid.step_count - int(np.min(t_index))

        def after_points(key):
            def hook(args, kwargs, result):
                c[key] += np.asarray(result).size
            return hook

        def after_picard(args, kwargs, sol):
            c["solver.picard_iterations"] += len(sol.picard_trace)

        def after_oracle(args, kwargs, oracle):
            c["fields.oracle_refinements"] += oracle.refinements

        def after_csv(args, kwargs, path):
            c["suites.write_csv.bytes"] += path.stat().st_size

        functions = [
            (paths.sample_paths, "paths.sample_paths", after_sample),
            (reflection.simulate_reflected, "reflection.simulate_reflected", after_reflect),
            (solver.solve_simple, "solver.solve_simple", None),
            (solver.picard_solve, "solver.picard_solve", after_picard),
            (solver.apriori_ratio, "solver.apriori_ratio", None),
            (solver.solve_bdsde_markov, "solver.solve_bdsde_markov", None),
            (solver.solve_transformed_gbsde, "solver.solve_transformed_gbsde", None),
            (flows.transformed_generator, "flows.transformed_generator", None),
            (flows.transformed_boundary, "flows.transformed_boundary", None),
            (flows.flow_derivative_identities, "flows.flow_derivative_identities", None),
            (fields.evaluate_u, "fields.evaluate_u", None),
            (fields.pde_oracle_g0, "fields.pde_oracle_g0", after_oracle),
            (config.parse_config, "config.parse_config", None),
            (suites.write_csv, "suites.write_csv", after_csv),
            (suites.run_suite, "suites.run_suite", None),
            (cli.main, "cli.main", None),
        ]
        for fn, name, after in functions:
            self._patch_function(fn, name, after)
        methods = [
            (regression.DesignProjector, "__init__", "regression.projector_build", after_build),
            (regression.DesignProjector, "fit", "regression.projector_fit", None),
            (flows.BrownianFlow, "solve", "flows.BrownianFlow.solve", after_solve),
            (flows.BrownianFlow, "invert", "flows.BrownianFlow.invert", None),
            (flows.BrownianFlow, "derivs", "flows.BrownianFlow.derivs", None),
            (flows.BrownianFlow, "inverse_derivs", "flows.BrownianFlow.inverse_derivs", None),
            (flows.FlowTable, "__init__", "flows.FlowTable.build", None),
            (flows.FlowTable, "derivs", "flows.FlowTable.derivs",
             lambda a, k, r: after_points("flows.FlowTable.derivs.points")(a, k, r["value"])),
            (flows.FlowTable, "invert", "flows.FlowTable.invert",
             after_points("flows.FlowTable.invert.points")),
            (paths.PathBundle, "dW", "paths.increments", None),
            (paths.PathBundle, "dB", "paths.increments", None),
            (geometry.SmoothDomain, "project", "geometry.project", None),
        ]
        for cls, attr, name, after in methods:
            self._patch_method(cls, attr, name, after)
        for factory in (acceptance._transform_instance, acceptance._random_linear_instance,
                        catalog.build_coefficient_set):
            self._patch_factory(factory)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reduction --------------------------------------------------------

    def metrics(self, untraced_walls: list[float]) -> dict[str, float]:
        """Per-pass means over the traced passes of every per-layer metric."""
        passes = sorted(self.pass_walls)
        n = len(passes)
        spans = self.spans
        assert all(s[4] in self.pass_walls for s in spans), "span recorded outside a pass"
        inclusive: collections.Counter = collections.Counter()
        calls: collections.Counter = collections.Counter()
        self_time: collections.Counter = collections.Counter()
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            # inclusive time counts a name once even if it nests in itself
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                inclusive[name] += end - start
            self_time[LAYER_OF[name.split(".")[0]]] += (end - start) - child_time[idx]

        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.s"] = inclusive[name] / n
            out[f"{name}.calls"] = calls[name] / n
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer] / n
        c = self.counts
        for key in ("paths.normals_drawn", "regression.rank_deficient", "flows.sweep_steps",
                    "flows.FlowTable.derivs.points", "flows.FlowTable.invert.points",
                    "solver.picard_iterations", "fields.oracle_refinements",
                    "suites.write_csv.bytes"):
            out[key] = c[key] / n
        designs = c["regression.designs"]
        out["regression.builds_per_design"] = (calls["regression.projector_build"] / designs
                                               if designs else 0.0)
        invert_ids = {i for i, s in enumerate(spans) if s[0] == "flows.BrownianFlow.invert"}
        nested = sum(1 for s in spans if s[0] == "flows.BrownianFlow.solve" and s[3] in invert_ids)
        out["flows.sweeps_per_invert"] = nested / len(invert_ids) if invert_ids else 0.0
        slots = c["reflection.boundary_slots"]
        out["reflection.boundary_hit_frac"] = c["reflection.boundary_hits"] / slots if slots else 0.0
        # per-pass means, like the self times, so the self times sum to at most this
        walls = [self.pass_walls[p] for p in passes]
        out["trace.pass_s"] = sum(walls) / n
        out["trace.overhead_frac"] = min(walls) / min(untraced_walls) - 1.0
        return out

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass"],
                       "spans": self.spans}, fh)
