"""Problem data: coefficient records and hypothesis checks.

A coefficient set bundles the driver f, the backward-noise coefficient g, the
boundary reaction h, the terminal map l and the forward-diffusion pair
(b, sigma), together with their declared structural constants:

* K      - linear growth constant,
* c      - squared Lipschitz constant of f (and of g in y),
* alpha  - the z-contraction weight of g, 0 < alpha < 1,
* beta1  - Lipschitz constant of h in y.

All callables are vectorized over a leading scenario axis:
f(t, x, y, z) -> (S, n), g(t, x, y, z) -> (S, n, d), h(t, x, y) -> (S, n),
l(x) -> (S,), b(x) -> (S, m), sigma(x) -> (S, m, d), with x of shape (S, m)
or None for problems without a spatial component.

The hypotheses are assumptions, not theorems about user input, so they are
checked empirically: sampled argument pairs in a box, worst observed ratio
against the declared constant, and a concrete witness on failure.  (H1)'s
exponential integrability of k concerns the reflected pair, not the
coefficients, and is not checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .paths import philox

Coefficient = Callable[..., np.ndarray]


@dataclass(frozen=True)
class CoefficientSet:
    """Full problem data with declared constants."""

    n: int
    d: int
    f: Coefficient
    g: Coefficient
    h: Coefficient
    K: float
    c: float
    alpha: float
    beta1: float
    l: Coefficient | None = None
    b: Coefficient | None = None
    sigma: Coefficient | None = None
    x_dim: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        for name, val in (("K", self.K), ("c", self.c), ("beta1", self.beta1)):
            if not np.isfinite(val) or val <= 0:
                raise ValueError(f"constant {name} must be positive and finite, got {val}")
        if self.n < 1 or self.d < 1:
            raise ValueError("dimensions n, d must be >= 1")


@dataclass(frozen=True)
class SamplingPlan:
    """Box and budget for empirical hypothesis checks."""

    box_halfwidth: float = 5.0
    count: int = 10_000
    seed: int = 7
    t_max: float = 1.0


@dataclass
class HypothesisCheck:
    name: str
    passed: bool
    worst_ratio: float
    bound: float
    witness: dict | None = None


@dataclass
class HypothesisReport:
    checks: list[HypothesisCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> HypothesisCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _ratio_check(
    name: str,
    numer: np.ndarray,
    denom: np.ndarray,
    bound: float,
    witness_args: dict,
    tol: float = 1e-12,
) -> HypothesisCheck:
    """Worst numer/denom over samples where denom > 0, compared to bound."""
    if not np.all(np.isfinite(numer)):
        bad = int(np.argmax(~np.isfinite(numer)))
        return HypothesisCheck(
            name, False, math.inf, bound,
            witness={k: np.asarray(v)[bad].tolist() for k, v in witness_args.items()},
        )
    mask = denom > 0
    if not np.any(mask):
        return HypothesisCheck(name, True, 0.0, bound)
    ratios = np.where(mask, numer / np.where(mask, denom, 1.0), 0.0)
    worst = int(np.argmax(ratios))
    ratio = float(ratios[worst])
    ok = ratio <= bound * (1 + tol) + tol
    witness = None
    if not ok:
        witness = {k: np.asarray(v)[worst].tolist() for k, v in witness_args.items()}
        witness["ratio"] = ratio
    return HypothesisCheck(name, ok, ratio, bound, witness)


def validate_hypotheses(
    coeffs: CoefficientSet,
    plan: SamplingPlan | None = None,
) -> HypothesisReport:
    """Empirical falsification harness for the structural hypotheses.

    Samples (t, x, y, z) tuples and pairs inside the plan's box and reports,
    per inequality of (H1)-(H2), and of (H'1), (H3), (H4) for spatial
    problems, the maximal observed ratio against the declared constant.
    """
    plan = plan or SamplingPlan()
    rng = philox(plan.seed, 11)
    S = plan.count
    hw = plan.box_halfwidth
    n, dd = coeffs.n, coeffs.d
    m = coeffs.x_dim or 0

    t = rng.uniform(0.0, plan.t_max)
    x = rng.uniform(-hw, hw, size=(S, m)) if m else None
    y1 = rng.uniform(-hw, hw, size=(S, n))
    y2 = rng.uniform(-hw, hw, size=(S, n))
    z1 = rng.uniform(-hw, hw, size=(S, n, dd))
    z2 = rng.uniform(-hw, hw, size=(S, n, dd))

    def norm_y(y: np.ndarray) -> np.ndarray:
        return np.linalg.norm(y, axis=-1)

    def norm_z(z: np.ndarray) -> np.ndarray:
        return np.linalg.norm(z, axis=(-2, -1))

    checks: list[HypothesisCheck] = []

    f1 = coeffs.f(t, x, y1, z1)
    g1 = coeffs.g(t, x, y1, z1)
    h1 = coeffs.h(t, x, y1)
    wit = {"t": np.full(S, t), "y": y1, "z": z1}

    # (H1) linear growth against the unit envelope
    checks.append(_ratio_check(
        "H1_growth_f", norm_y(f1), 1.0 + coeffs.K * (norm_y(y1) + norm_z(z1)), 1.0, wit))
    checks.append(_ratio_check(
        "H1_growth_g", norm_z(g1), 1.0 + coeffs.K * (norm_y(y1) + norm_z(z1)), 1.0, wit))
    checks.append(_ratio_check(
        "H1_growth_h", norm_y(h1), 1.0 + coeffs.K * norm_y(y1), 1.0, wit))

    # (H2)(i): squared Lipschitz bound for f in (y, z)
    f2 = coeffs.f(t, x, y2, z2)
    pair_wit = {"t": np.full(S, t), "y1": y1, "z1": z1, "y2": y2, "z2": z2}
    checks.append(_ratio_check(
        "H2_f_lipschitz",
        norm_y(f1 - f2) ** 2,
        norm_y(y1 - y2) ** 2 + norm_z(z1 - z2) ** 2,
        coeffs.c, pair_wit))

    # (H2)(ii): isolate the y- and z-ratios, then the joint inequality
    g_y2 = coeffs.g(t, x, y2, z1)
    checks.append(_ratio_check(
        "H2_g_y_ratio", norm_z(g1 - g_y2) ** 2, norm_y(y1 - y2) ** 2, coeffs.c, pair_wit))
    g_z2 = coeffs.g(t, x, y1, z2)
    checks.append(_ratio_check(
        "H2_g_z_ratio", norm_z(g1 - g_z2) ** 2, norm_z(z1 - z2) ** 2, coeffs.alpha, pair_wit))
    g_22 = coeffs.g(t, x, y2, z2)
    checks.append(_ratio_check(
        "H2_g_joint",
        norm_z(g1 - g_22) ** 2,
        coeffs.c * norm_y(y1 - y2) ** 2 + coeffs.alpha * norm_z(z1 - z2) ** 2,
        1.0, pair_wit))

    # (H2)(iii): one-sided Lipschitz bound for h
    h2 = coeffs.h(t, x, y2)
    checks.append(_ratio_check(
        "H2_h_lipschitz", norm_y(h1 - h2), norm_y(y1 - y2), coeffs.beta1, pair_wit))

    # (H'1) growth with the spatial argument, (H3), (H4): spatial problems only
    if m:
        x_norm = np.linalg.norm(x, axis=-1)
        checks.append(_ratio_check(
            "Hp1_growth_f", norm_y(f1),
            coeffs.K * (1.0 + norm_y(y1) + x_norm + norm_z(z1)), 1.0, wit))
        checks.append(_ratio_check(
            "Hp1_growth_h", norm_y(h1),
            coeffs.K * (1.0 + norm_y(y1) + x_norm), 1.0, wit))
        x2 = rng.uniform(-hw, hw, size=(S, m))
        dx = np.linalg.norm(x - x2, axis=-1)
        if coeffs.b is not None:
            checks.append(_ratio_check(
                "H3_b_lipschitz",
                np.linalg.norm(coeffs.b(x) - coeffs.b(x2), axis=-1),
                dx, coeffs.K, {"x1": x, "x2": x2}))
        if coeffs.sigma is not None:
            checks.append(_ratio_check(
                "H3_sigma_lipschitz",
                np.linalg.norm(coeffs.sigma(x) - coeffs.sigma(x2), axis=(-2, -1)),
                dx, coeffs.K, {"x1": x, "x2": x2}))
        if coeffs.l is not None:
            checks.append(_ratio_check(
                "H4_l_growth", np.abs(coeffs.l(x)), coeffs.K * (1.0 + x_norm),
                1.0, {"x": x}))

    return HypothesisReport(checks)
