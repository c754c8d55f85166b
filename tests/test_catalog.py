"""The coefficient compiler against a verbatim copy of its per-kind form."""

from typing import Callable

import numpy as np
import pytest

from gbdsde.catalog import build_coefficient, build_coefficient_set

# ---------------------------------------------------------------------------
# Reference: the compiler as it was written before the role table, verbatim
# (each kind sized its own output and re-read the trig spec on every call).
# ---------------------------------------------------------------------------

_FUNCS = {"sin": np.sin, "cos": np.cos}

# roles and their argument lists
_ROLE_ARGS = {
    "f": ("t", "x", "y", "z"),
    "g": ("t", "x", "y", "z"),
    "h": ("t", "x", "y"),
    "l": ("x",),
    "b": ("x",),
    "sigma": ("x",),
}


def _scalar_of(spec: dict, t, x, y) -> np.ndarray:
    """Evaluate the scalar core of a trig term; shape follows y (or x)."""
    of = spec.get("of", "y")
    freq = float(spec.get("freq", 1.0))
    phase = float(spec.get("phase", 0.0))
    func = _FUNCS[spec.get("func", "sin")]
    if of == "y":
        base = y[..., 0]
    elif of == "x":
        base = x[..., 0]
    elif of == "t":
        base = np.asarray(t, dtype=float)
    else:
        raise ValueError(f"trig 'of' must be y, x or t, got {of!r}")
    out = func(freq * base + phase)
    mod_amp = float(spec.get("x_mod_amp", 0.0))
    if mod_amp:
        mod_freq = float(spec.get("x_mod_freq", 1.0))
        out = out * (1.0 + mod_amp * np.cos(mod_freq * x[..., 0]))
    return float(spec.get("amp", 1.0)) * out


def _reference_build(spec: dict, role: str, n: int, d: int, x_dim: int) -> Callable:
    """Compile one expression tree into a vectorized coefficient callable."""
    if role not in _ROLE_ARGS:
        raise ValueError(f"unknown coefficient role {role!r}")
    kind = spec.get("kind")
    if kind is None:
        raise ValueError(f"coefficient spec for {role!r} lacks a 'kind'")

    def out_shape(lead: int) -> tuple[int, ...]:
        if role == "f" or role == "h":
            return (lead, n)
        if role == "g":
            return (lead, n, d)
        if role == "l":
            return (lead,)
        if role == "b":
            return (lead, x_dim)
        return (lead, x_dim, d)  # sigma

    def lead_of(args: dict) -> int:
        for key in ("y", "x", "z"):
            if args.get(key) is not None:
                return args[key].shape[0]
        return 1

    if kind == "zero":
        def fn(*args):
            named = dict(zip(_ROLE_ARGS[role], args))
            return np.zeros(out_shape(lead_of(named)))
        return fn

    if kind == "constant":
        value = np.asarray(spec.get("value", 0.0), dtype=float)

        def fn(*args):
            named = dict(zip(_ROLE_ARGS[role], args))
            lead = lead_of(named)
            if role == "sigma" and value.ndim == 0:
                # scalar sigma means value on the diagonal of an x_dim x d block
                block = np.zeros((x_dim, d))
                np.fill_diagonal(block, float(value))
                return np.broadcast_to(block, (lead, x_dim, d)).copy()
            out = np.zeros(out_shape(lead))
            out[...] = value
            return out
        return fn

    if kind in ("linear", "affine"):
        c_y = float(spec.get("y", 0.0))
        c_z = float(spec.get("z", 0.0))
        c_x = float(spec.get("x", 0.0))
        const = float(spec.get("const", 0.0)) if kind == "affine" else 0.0

        def fn(*args):
            named = dict(zip(_ROLE_ARGS[role], args))
            lead = lead_of(named)
            out = np.full(out_shape(lead), const)
            y, z, x = named.get("y"), named.get("z"), named.get("x")
            if c_y and y is not None:
                out += c_y * (y[..., None] if role == "g" else y)
            if c_z and z is not None:
                out += c_z * (z if role == "g" else z.sum(axis=-1))
            if c_x and x is not None:
                if role in ("l",):
                    out += c_x * x[..., 0]
                elif role in ("b",):
                    out += c_x * x
                else:
                    out += c_x * x[..., :1] if out.ndim == 2 else c_x * x[..., :1, None]
            return out
        return fn

    if kind == "trig":
        def fn(*args):
            named = dict(zip(_ROLE_ARGS[role], args))
            lead = lead_of(named)
            y = named.get("y")
            if y is None:
                y = named.get("x")
            core = _scalar_of(spec, named.get("t", 0.0), named.get("x"), y)
            core = np.broadcast_to(np.asarray(core), (lead,))
            out = np.zeros(out_shape(lead))
            if role == "l":
                return core.copy()
            out[...] = core.reshape((lead,) + (1,) * (out.ndim - 1))
            return out
        return fn

    if kind == "sum":
        parts = [_reference_build(s, role, n, d, x_dim) for s in spec["terms"]]

        def fn(*args):
            acc = parts[0](*args)
            for p in parts[1:]:
                acc = acc + p(*args)
            return acc
        return fn

    if kind == "scale":
        inner = _reference_build(spec["term"], role, n, d, x_dim)
        factor = float(spec["factor"])

        def fn(*args):
            return factor * inner(*args)
        return fn

    raise KeyError(f"unknown catalog entry {kind!r} for role {role!r}")


# ---------------------------------------------------------------------------

N, D, X_DIM, S = 2, 3, 2, 7
ALL_ROLES = ("f", "g", "h", "l", "b", "sigma")


def _arguments(role: str) -> list[tuple]:
    """Argument tuples of a role, on random data; f and g also without x."""
    rng = np.random.default_rng(5)
    x = rng.uniform(-2.0, 2.0, (S, X_DIM))
    y = rng.uniform(-2.0, 2.0, (S, N))
    z = rng.uniform(-2.0, 2.0, (S, N, D))
    if role in ("f", "g"):
        return [(0.3, x, y, z), (0.7, None, y, z)]
    if role == "h":
        return [(0.3, x, y), (0.0, x, y)]
    return [(x,)]


SPECS = {
    "zero": ({"kind": "zero"}, ALL_ROLES),
    "constant_scalar": ({"kind": "constant", "value": -1.25}, ALL_ROLES),
    "constant_matrix_sigma": ({"kind": "constant", "value": [[0.5, -1.0, 2.0],
                                                              [0.25, 3.0, -0.75]]}, ("sigma",)),
    "linear_y": ({"kind": "linear", "y": -0.5}, ("f", "g", "h")),
    "linear_z": ({"kind": "linear", "z": 0.75}, ("f", "g")),
    "linear_x": ({"kind": "linear", "x": 1.5}, ALL_ROLES),
    "linear_yzx": ({"kind": "linear", "y": -0.5, "z": 0.75, "x": 1.5}, ALL_ROLES),
    "affine_yzx": ({"kind": "affine", "y": 0.3, "z": -0.2, "x": 0.9, "const": 0.4},
                   ALL_ROLES),
    "trig_y": ({"kind": "trig", "amp": 0.7, "func": "sin", "of": "y", "freq": 1.3,
                "phase": 0.2}, ALL_ROLES),
    "trig_y_mod": ({"kind": "trig", "amp": 0.7, "of": "y", "x_mod_amp": 0.25,
                    "x_mod_freq": 2.0}, ALL_ROLES),
    "trig_x": ({"kind": "trig", "amp": 1.0, "func": "cos", "of": "x",
                "freq": 3.141592653589793}, ALL_ROLES),
    "trig_x_mod": ({"kind": "trig", "func": "cos", "of": "x", "x_mod_amp": -0.4},
                   ALL_ROLES),
    "trig_t": ({"kind": "trig", "amp": 2.0, "func": "cos", "of": "t", "freq": 0.5},
               ALL_ROLES),
    "trig_t_mod": ({"kind": "trig", "of": "t", "x_mod_amp": 0.25}, ALL_ROLES),
    "sum": ({"kind": "sum", "terms": [{"kind": "constant", "value": 1.0},
                                      {"kind": "linear", "y": 0.5, "x": -0.25},
                                      {"kind": "trig", "of": "x", "amp": 0.3}]}, ALL_ROLES),
    "scale": ({"kind": "scale", "factor": -2.5,
               "term": {"kind": "sum", "terms": [{"kind": "affine", "const": 0.1, "z": 1.0},
                                                 {"kind": "trig", "of": "t"}]}}, ALL_ROLES),
}

CASES = [(label, role) for label, (_, roles) in SPECS.items() for role in roles]


@pytest.mark.parametrize("label, role", CASES, ids=[f"{k}-{r}" for k, r in CASES])
def test_every_kind_matches_the_reference(label, role):
    spec = SPECS[label][0]
    got_fn = build_coefficient(spec, role, N, D, X_DIM)
    ref_fn = _reference_build(spec, role, N, D, X_DIM)
    for args in _arguments(role):
        needs_x = "mod" in label or label.startswith(("trig_x", "sum"))
        if needs_x and len(args) > 1 and args[1] is None:
            continue  # an x term, or the x modulation, needs x
        got, ref = got_fn(*args), ref_fn(*args)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("spec, role", [
    ({"kind": "septic-spline"}, "f"),
    ({"kind": "sum", "terms": [{"kind": "zero"}, {"kind": "septic-spline"}]}, "g"),
    ({"kind": "zero"}, "q"),
    ({"value": 1.0}, "h"),
    ({"kind": "scale", "factor": 2.0, "term": {"y": 1.0}}, "f"),
])
def test_errors_match_the_reference(spec, role):
    with pytest.raises((KeyError, ValueError)) as ref:
        _reference_build(spec, role, N, D, X_DIM)
    with pytest.raises(ref.type) as got:
        build_coefficient(spec, role, N, D, X_DIM)
    assert str(got.value) == str(ref.value)


def test_set_reports_unknown_and_missing_entries():
    problem = {"f": {"kind": "zero"}, "g": {"kind": "zero"}, "h": {"kind": "cubic"}}
    with pytest.raises(ValueError, match="unknown catalog entry in 'h': \"unknown catalog entry"):
        build_coefficient_set(problem)
    with pytest.raises(ValueError, match="must define coefficient 'g'"):
        build_coefficient_set({"f": {"kind": "zero"}})


@pytest.mark.parametrize("spec, message", [
    ({"kind": "trig", "func": "tan"}, "unknown catalog entry in 'g'"),
    ({"kind": "trig", "of": "z"}, "trig 'of' must be y, x or t, got 'z'"),
])
def test_bad_trig_spec_is_config_error_at_parse(spec, message):
    # the spec is read when the problem is built, not on the first call
    from gbdsde.config import ConfigError, parse_config

    config = {"problem": {"f": {"kind": "zero"}, "g": spec, "h": {"kind": "zero"}},
              "grid": {"t_start": 0.0, "t_end": 1.0, "dt": 0.1}, "suite": "verify-flow"}
    with pytest.raises(ConfigError, match=message):
        parse_config(config)
