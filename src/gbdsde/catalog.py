"""Named coefficient builders for config-driven problems.

Coefficients in a config file are small expression trees, not code:

    f: {kind: linear, y: -1.0}
    g: {kind: trig, amp: 1.0, func: sin, of: y, x_mod_amp: 0.25}
    l: {kind: trig, amp: 1.0, func: cos, of: x, freq: 3.14159}
    h: {kind: sum, terms: [{kind: constant, value: 1.0}, {kind: linear, y: 0.5}]}

Supported kinds: zero, constant, linear, affine, trig, sum, scale.  A tree
is compiled once, when the problem is built: `build_coefficient` holds the
one preamble every callable shares (it names the role's arguments and takes
the leading size from them) and the role's trailing shape from `_ROLES`, and
each kind only fills in its values; sum and scale compile their terms
recursively.  The result is a scenario-vectorized callable with the calling
convention of its role (see problems.CoefficientSet).  An unknown role, a
spec that is not a mapping, a missing kind, a key its kind does not know
(`_KEYS`, nested terms included), a sum or scale without one of its keys or
a sum whose terms are not a non-empty list is a ValueError, an unknown kind
or trig function a KeyError.
"""

from __future__ import annotations

from contextlib import suppress
from typing import Callable

import numpy as np

from .problems import CoefficientSet

_FUNCS = {"sin": np.sin, "cos": np.cos}

# the keys each kind may hold besides ``kind``
_KEYS = {
    "zero": (),
    "constant": ("value",),
    "linear": ("y", "z", "x"),
    "affine": ("y", "z", "x", "const"),
    "trig": ("of", "func", "freq", "phase", "amp", "x_mod_amp", "x_mod_freq"),
    "sum": ("terms",),
    "scale": ("term", "factor"),
}

# the constants a problem may set, with their defaults
_CONSTANTS = {"K": 1.0, "c": 1.0, "alpha": 0.5, "beta1": 1.0}

# role: (argument names, trailing shape of the value, the x term's index)
_ROLES = {
    "f": (("t", "x", "y", "z"), ("n",), np.s_[..., :1]),
    "g": (("t", "x", "y", "z"), ("n", "d"), np.s_[..., :1, None]),
    "h": (("t", "x", "y"), ("n",), np.s_[..., :1]),
    "l": (("x",), (), np.s_[..., 0]),
    "b": (("x",), ("x_dim",), np.s_[...]),
    "sigma": (("x",), ("x_dim", "d"), np.s_[..., :1, None]),
}


def build_coefficient(spec: dict, role: str, n: int, d: int, x_dim: int) -> Callable:
    """Compile one expression tree into a vectorized coefficient callable.

    The callable names its arguments after the role, takes the leading size
    from the first of y, x and z it is given (1 when none is) and returns an
    array of that leading size and the role's trailing shape.
    """
    if role not in _ROLES:
        raise ValueError(f"unknown coefficient role {role!r}")
    names, trailing, _ = _ROLES[role]
    trail = tuple({"n": n, "d": d, "x_dim": x_dim}[k] for k in trailing)
    values = _compile(spec, role, d, x_dim)

    def fn(*args):
        a = dict(zip(names, args))
        lead = next((a[k].shape[0] for k in ("y", "x", "z") if a.get(k) is not None), 1)
        return values(a, (lead,) + trail)
    return fn


def _compile(spec: dict, role: str, d: int, x_dim: int) -> Callable:
    """The values of one tree node: a function of (named arguments, shape)."""
    if not isinstance(spec, dict):
        raise ValueError(f"{role}: a coefficient spec is a mapping with a 'kind', "
                         f"not {spec!r}")
    kind = spec.get("kind")
    if kind is None:
        raise ValueError(f"coefficient spec for {role!r} lacks a 'kind'")
    unknown = [k for k in spec if k not in ("kind", *_KEYS.get(kind, ()))]
    if kind in _KEYS and unknown:  # an unknown kind raises its KeyError below
        raise ValueError(f"{role}: unknown keys {unknown} for kind {kind!r}; "
                         f"pick from {_KEYS[kind]}")
    # sum and scale have no default for any of their keys
    missing = [k for k in _KEYS[kind] if k not in spec] if kind in ("sum", "scale") else []
    if missing:
        raise ValueError(f"{role}: kind {kind!r} lacks the keys {missing}")

    if kind == "zero":
        return lambda a, shape: np.zeros(shape)

    if kind == "constant":
        value = np.asarray(spec.get("value", 0.0), dtype=float)
        if role == "sigma" and value.ndim == 0:
            # scalar sigma means value on the diagonal of an x_dim x d block
            block = np.zeros((x_dim, d))
            np.fill_diagonal(block, value)
            value = block
        return lambda a, shape: np.broadcast_to(value, shape).copy()

    if kind in ("linear", "affine"):
        c_y, c_z, c_x = (float(spec.get(k, 0.0)) for k in ("y", "z", "x"))
        const = float(spec.get("const", 0.0)) if kind == "affine" else 0.0
        x_term = _ROLES[role][2]

        def linear(a, shape):
            out = np.full(shape, const)
            y, z, x = a.get("y"), a.get("z"), a.get("x")
            if c_y and y is not None:
                out += c_y * (y[..., None] if role == "g" else y)
            if c_z and z is not None:
                out += c_z * (z if role == "g" else z.sum(axis=-1))
            if c_x and x is not None:
                out += c_x * x[x_term]
            return out
        return linear

    if kind == "trig":
        of = spec.get("of", "y")
        if of not in ("y", "x", "t"):
            raise ValueError(f"trig 'of' must be y, x or t, got {of!r}")
        func = _FUNCS[spec.get("func", "sin")]
        freq, phase = float(spec.get("freq", 1.0)), float(spec.get("phase", 0.0))
        amp, mod_amp = float(spec.get("amp", 1.0)), float(spec.get("x_mod_amp", 0.0))
        mod_freq = float(spec.get("x_mod_freq", 1.0))

        def trig(a, shape):
            # a role without y reads "of: y" off x; one value per scenario
            x = a.get("x")
            if of == "t":
                base = np.asarray(a.get("t", 0.0), dtype=float)
            else:
                base = (x if of == "x" or a.get("y") is None else a["y"])[..., 0]
            out = func(freq * base + phase)
            if mod_amp:
                out = out * (1.0 + mod_amp * np.cos(mod_freq * x[..., 0]))
            per_scenario = np.broadcast_to(amp * out, shape[:1])
            return np.broadcast_to(per_scenario[(...,) + (None,) * (len(shape) - 1)],
                                   shape).copy()
        return trig

    if kind == "sum":
        if not isinstance(spec["terms"], list) or not spec["terms"]:
            raise ValueError(f"{role}: the terms of a sum are a non-empty list, "
                             f"not {spec['terms']!r}")
        parts = [_compile(s, role, d, x_dim) for s in spec["terms"]]

        def total(a, shape):
            acc = parts[0](a, shape)
            for p in parts[1:]:
                acc = acc + p(a, shape)
            return acc
        return total

    if kind == "scale":
        inner = _compile(spec["term"], role, d, x_dim)
        factor = float(spec["factor"])
        return lambda a, shape: factor * inner(a, shape)

    raise KeyError(f"unknown catalog entry {kind!r} for role {role!r}")


def number(kind, value, name: str):
    """``kind(value)`` for kind int or float; anything else, including for
    int a bool or a fraction that int() would truncate, is a ValueError
    naming ``name``."""
    truncated = kind is int and (
        isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()))
    if not truncated:
        with suppress(TypeError, ValueError, OverflowError):
            return kind(value)
    raise ValueError(f"{name}: {value!r} cannot be read as {kind.__name__}")


def build_coefficient_set(problem: dict) -> CoefficientSet:
    """Assemble a CoefficientSet from a config 'problem' section (a zero g is None)."""
    n, d = number(int, problem.get("n", 1), "n"), number(int, problem.get("d", 1), "d")
    x_dim = None if problem.get("x_dim") is None else number(int, problem["x_dim"], "x_dim")
    built = {}
    for role in _ROLES:
        spec = problem.get(role)
        if spec is None:
            if role in ("f", "g", "h"):
                raise ValueError(f"problem section must define coefficient {role!r}")
            continue
        try:
            built[role] = build_coefficient(spec, role, n, d, x_dim or 0)
        except KeyError as exc:
            raise ValueError(f"unknown catalog entry in {role!r}: {exc}") from exc
    if problem["g"]["kind"] == "zero":
        built["g"] = None
    constants = problem.get("constants", {})
    if not isinstance(constants, dict):
        raise ValueError(f"constants: must be a mapping, not {constants!r}")
    unknown = [k for k in constants if k not in _CONSTANTS]
    if unknown:
        raise ValueError(f"constants: unknown keys {unknown}; pick from {tuple(_CONSTANTS)}")
    values = {k: number(float, constants.get(k, default), f"constants.{k}")
              for k, default in _CONSTANTS.items()}
    return CoefficientSet(n=n, d=d, x_dim=x_dim, **built, **values)
