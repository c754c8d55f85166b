"""Acceptance criteria: one callable per criterion, pinned tolerances.

Every criterion returns CriterionResult rows with the measured value, the
threshold it is held against and the verdict; the CLI acceptance suite and
the test suite both run these, so there is exactly one implementation of
each gate.  All scales (step sizes, scenario counts, sample counts) are the
stated ones; nothing is deferred to later calibration.

The ingredients of the criteria are stated once and shared with the CLI
verification suites: `noise_flow` and `flow_samples` give the flow and the
sample points of the flow identities (criteria 2 and 7, `verify-flow`),
`_ito_cases` and `_ventzell_cases` the residual cases on a bundle
(criterion 8, `verify-calculus`), and `_noise_instance` the one-dimensional
problems with a sine backward noise (criteria 6 and 7).
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from .config import parse_config
from .fields import evaluate_u, pde_oracle_g0
from .flows import (
    BrownianFlow,
    FlowTable,
    flow_derivative_identities,
    operator_identity_violations,
    trig_test_field,
)
from .grids import TimeGrid
from .paths import PathBundle, philox, sample_paths
from .problems import CoefficientSet
from .reflection import simulate_reflected, skorokhod_bridge_exact, skorokhod_oracle_1d
from .regression import PolynomialBasis
from .residuals import (
    DriftField,
    NoiseLinearField,
    ito_formula_residual,
    ito_ventzell_residual,
)
from .solver import (
    apriori_ratio,
    picard_solve,
    solve_bdsde_markov,
    solve_simple,
    solve_transformed_gbsde,
    stability_gap,
)
from .geometry import interval_domain

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
HEAT_AMPLITUDE = math.exp(-math.pi**2 / 2.0)  # terminal-cosine decay over unit horizon
# the flows' finite-difference step, and the gate of the flow derivative
# identities (criterion 2 and `verify-flow`)
FD_STEP = 1e-4
FLOW_IDENTITY_TOL = 1e-3


@dataclass
class CriterionResult:
    name: str
    measured: float
    threshold: float
    passed: bool
    comparator: str = "<="
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{self.name}: measured {self.measured:.6g} "
                f"{self.comparator} {self.threshold:.6g} -> {status}")


def _le(name: str, measured: float, threshold: float, **details) -> CriterionResult:
    return CriterionResult(name, float(measured), float(threshold),
                           bool(measured <= threshold), "<=", details)


def _ge(name: str, measured: float, threshold: float, **details) -> CriterionResult:
    return CriterionResult(name, float(measured), float(threshold),
                           bool(measured >= threshold), ">=", details)


def _zeros_coeffs(n: int = 1, d: int = 1, **kw) -> CoefficientSet:
    def zero_v(t, x, y, z=None):
        return np.zeros_like(y)

    def zero_m(t, x, y, z):
        return np.zeros(y.shape + (d,))

    defaults = dict(n=n, d=d, f=zero_v, g=zero_m, h=zero_v,
                    K=1.0, c=1.0, alpha=0.5, beta1=1.0)
    defaults.update(kw)
    return CoefficientSet(**defaults)


def _bm_coeffs(x_dim: int = 1, d: int = 1) -> CoefficientSet:
    """Driftless unit-diffusion forward dynamics with zero reaction terms."""

    def b_fn(x):
        return np.zeros_like(x)

    def sigma_fn(x):
        out = np.zeros(x.shape[:-1] + (x.shape[-1], d))
        for j in range(min(x.shape[-1], d)):
            out[..., j, j] = 1.0
        return out

    return _zeros_coeffs(n=1, d=d, b=b_fn, sigma=sigma_fn, x_dim=x_dim,
                         l=lambda x: np.zeros(x.shape[:-1]))


class SinNoise:
    """g(t, x, y) = amp sin(y) (1 + x_mod cos(freq_x x)): smooth, bounded."""

    def __init__(self, amp: float = 1.0, x_mod: float = 0.25, freq_x: float = 1.0):
        self.amp = amp
        self.x_mod = x_mod
        self.freq_x = freq_x

    def __call__(self, t, x, y):
        return self.bind_x(x)(t, y)

    def bind_x(self, x):
        mod = 1.0 + self.x_mod * np.cos(self.freq_x * np.asarray(x)[..., 0])

        def bound(t, y):
            return (self.amp * np.sin(y) * mod)[..., None]

        return bound

    @property
    def lipschitz(self) -> float:
        return self.amp * (1.0 + abs(self.x_mod))


def noise_flow(noise: SinNoise, grid: TimeGrid, seed: int) -> BrownianFlow:
    """The flow of ``noise`` along the B path of the seed's one-scenario bundle."""
    bundle = sample_paths(grid, d=1, seed=seed, count=1)
    return BrownianFlow(noise, bundle.B[0], grid, fd_step=FD_STEP,
                        lipschitz_hint=noise.lipschitz)


def flow_samples(seed: int, stream: int, steps: int, count: int) -> tuple:
    """Sample points (t_idx, x, y) of the flow checks, from the Philox stream
    (seed, stream): time indices below ``steps``, then x of shape (count, 1)
    and y of shape (count,), both uniform on [-2, 2)."""
    rng = philox(seed, stream)
    return (rng.integers(0, steps, count), rng.uniform(-2.0, 2.0, (count, 1)),
            rng.uniform(-2.0, 2.0, count))


def _noise_instance(noise: SinNoise, f, h, drift: float, **rest) -> CoefficientSet:
    """n = d = x_dim = 1 with backward noise g(t, x, y) = noise(t, x, y),
    forward drift b = ``drift`` and unit sigma."""

    def g(t, x, y, z):
        return noise(t, x, y[..., 0])[..., None, :]

    return CoefficientSet(n=1, d=1, f=f, g=g, h=h, b=lambda x: np.full_like(x, drift),
                          sigma=lambda x: np.ones(x.shape[:-1] + (1, 1)), x_dim=1, **rest)


# ---------------------------------------------------------------------------
# 1. Reflected scheme against the exact half-line solution
# ---------------------------------------------------------------------------


def criterion_reflection_oracle(seed: int = 2024) -> list[CriterionResult]:
    """Projection scheme vs running-max oracle: RMSE level and strong order."""
    t_ref_steps = 100_000           # reference grid dt = 1e-5
    scenarios = 1000
    strides = {1e-2: 1000, 1e-3: 100, 1e-4: 10}
    batch = 50
    domain = interval_domain(0.0, 10.0)
    coeffs = _bm_coeffs()
    sq_sums = {dt: 0.0 for dt in strides}

    for b0 in range(0, scenarios, batch):
        rows = min(batch, scenarios - b0)
        incr = (philox(seed, 1000 + b0).standard_normal((rows, t_ref_steps))
                * math.sqrt(1.0 / t_ref_steps))
        w_fine = np.concatenate([np.zeros((rows, 1)), np.cumsum(incr, axis=1)], axis=1)
        x_ref, _ = skorokhod_oracle_1d(0.0, w_fine)
        for dt, stride in strides.items():
            w_coarse = w_fine[:, ::stride]
            n_steps = t_ref_steps // stride
            grid = TimeGrid(0.0, 1.0, n_steps)
            bundle = PathBundle(grid=grid, W=w_coarse[:, :, None],
                                B=np.zeros_like(w_coarse)[:, :, None])
            refl = simulate_reflected(coeffs, domain, 0.0, np.array([0.0]), bundle)
            gap = np.max(np.abs(refl.X[:, :, 0] - x_ref[:, ::stride]), axis=1)
            sq_sums[dt] += float(np.sum(gap**2))

    rmse = {dt: math.sqrt(s / scenarios) for dt, s in sq_sums.items()}
    orders = []
    dts = sorted(rmse, reverse=True)  # 1e-2, 1e-3, 1e-4
    for hi, lo in zip(dts[:-1], dts[1:]):
        orders.append(math.log(rmse[hi] / rmse[lo]) / math.log(hi / lo))
    return [
        _le("reflection_rmse_dt_1e-4", rmse[1e-4], 0.05, rmse=rmse),
        _ge("reflection_strong_order", min(orders), 0.4, orders=orders, rmse=rmse),
    ]


# ---------------------------------------------------------------------------
# 2. Flow inverse and derivative identities
# ---------------------------------------------------------------------------


def criterion_flow_identities(seed: int = 2024) -> list[CriterionResult]:
    grid = TimeGrid(0.0, 1.0, 10_000)  # dt = 1e-4
    flow = noise_flow(SinNoise(amp=1.0, x_mod=0.25), grid, seed)
    t_idx, xs, ys = flow_samples(seed, 21, grid.step_count, 1000)
    w = flow.solve(t_idx, xs, ys)
    back = flow.invert(t_idx, xs, w, guess=ys)
    inv_gap = float(np.max(np.abs(back - ys) / (1.0 + np.abs(ys))))
    results = [_le("flow_inversion_identity", inv_gap, 1e-9)]
    viol = flow_derivative_identities(flow, (t_idx, xs, ys))
    return results + [_le(f"flow_identity_{name}", value, FLOW_IDENTITY_TOL)
                      for name, value in viol.items()]


# ---------------------------------------------------------------------------
# 3. Outer-iteration contraction
# ---------------------------------------------------------------------------


def criterion_picard_contraction(seed: int = 2024) -> list[CriterionResult]:
    alpha = 0.25
    grid = TimeGrid(0.0, 1.0, 100)  # dt = 1e-2
    bundle = sample_paths(grid, d=1, seed=seed, count=10_000)
    root_a = math.sqrt(alpha)

    coeffs = _zeros_coeffs(
        alpha=alpha,
        g=lambda t, x, y, z: root_a * z,
    )
    xi = bundle.W[:, -1, 0]
    sol = picard_solve(coeffs, xi, None, bundle, PolynomialBasis(3),
                       tol=0.0, max_iter=7)
    trace = sol.picard_trace
    floor = 1e-13 * trace[0]
    ratios = [trace[i] / trace[i - 1] for i in range(2, len(trace))
              if trace[i - 1] > floor]
    worst = max(ratios) if ratios else 0.0
    # contraction factor (1 + alpha)/2 = 0.625 plus statistical slack 0.1
    return [_le("picard_contraction_ratio", worst, 0.725,
                trace=trace, ratios=ratios)]


# ---------------------------------------------------------------------------
# 4. Closed-form solutions
# ---------------------------------------------------------------------------


def criterion_closed_forms(seed: int = 2024) -> list[CriterionResult]:
    results = []

    # (a) deterministic linear driver: Y_t = exp(-(T - t)), dt = 1e-3
    grid = TimeGrid(0.0, 1.0, 1000)
    bundle = sample_paths(grid, d=1, seed=seed, count=2000)
    coeffs = _zeros_coeffs(f=lambda t, x, y, z: -y)
    sol = picard_solve(coeffs, np.ones(2000), None, bundle, PolynomialBasis(3),
                       tol=1e-14, max_iter=8)
    target = np.exp(-(1.0 - grid.points))
    err = float(np.max(np.abs(sol.Y[:, :, 0].mean(axis=0) - target)))
    results.append(_le("closed_form_exponential_decay", err, 1e-3))

    # (b) pure boundary payment: Y_0 = E k_T = sqrt(2/pi), 1e5 scenarios
    grid_b = TimeGrid(0.0, 1.0, 100)
    bundle_b = sample_paths(grid_b, d=1, seed=seed + 1, count=100_000)
    _, k = skorokhod_bridge_exact(0.0, bundle_b.W[:, :, 0], grid_b.dt, seed + 2)
    h_path = np.ones((100_000, 101, 1))
    sol_b = solve_simple(np.zeros(100_000), None, None, h_path, k, bundle_b,
                         PolynomialBasis(3))
    y0 = float(sol_b.Y[:, 0, 0].mean())
    se = float(sol_b.initial_se()[0])
    results.append(_le("closed_form_boundary_value", abs(y0 - SQRT_2_OVER_PI), 3 * se,
                       y0=y0, expected=SQRT_2_OVER_PI, se=se))

    # (c) terminal Brownian value: control = 1 within 3 SE at every probe time
    grid_c = TimeGrid(0.0, 1.0, 100)
    bundle_c = sample_paths(grid_c, d=1, seed=seed + 3, count=10_000)
    xi = bundle_c.W[:, -1, 0]
    sol_c = solve_simple(xi, None, None, None, None, bundle_c, PolynomialBasis(3))
    worst_margin = 0.0
    for i in (10, 50, 90):
        z_target = sol_c.Y[:, i + 1, 0] * bundle_c.dW[:, i, 0] / grid_c.dt
        se_i = float(z_target.std(ddof=1) / math.sqrt(len(z_target)))
        gap = abs(float(sol_c.Z[:, i, 0, 0].mean()) - 1.0)
        worst_margin = max(worst_margin, gap / (3 * se_i))
    results.append(_le("closed_form_martingale_control", worst_margin, 1.0,
                       note="|mean Z - 1| / (3 SE), worst probe time"))
    return results


# ---------------------------------------------------------------------------
# 5. Heat equation with zero-flux boundary (vanishing backward noise)
# ---------------------------------------------------------------------------


def _heat_coeffs() -> CoefficientSet:
    return replace(_bm_coeffs(), l=lambda x: np.cos(math.pi * x[..., 0]))


def criterion_heat_benchmark(seed: int = 2024) -> list[CriterionResult]:
    coeffs = _heat_coeffs()
    domain = interval_domain(0.0, 1.0)
    xs = np.linspace(0.0, 1.0, 11)
    closed = HEAT_AMPLITUDE * np.cos(math.pi * xs)

    oracle = pde_oracle_g0(coeffs, domain)
    oracle_vals = np.array([oracle.interpolate(0.0, x) for x in xs])
    oracle_err = float(np.max(np.abs(oracle_vals - closed)))
    results = [_le("heat_oracle_error", oracle_err, 2e-3,
                   refinement_gap=oracle.refinement_gap)]

    grid = TimeGrid(0.0, 1.0, 500)
    bundle = sample_paths(grid, d=1, seed=seed, count=10_000, shared_b=True)
    nodes = evaluate_u(
        coeffs, domain, [(0.0, np.array([x])) for x in xs], bundle,
        PolynomialBasis(3), g_is_zero=True)
    worst_margin = 0.0
    for node, truth in zip(nodes, closed):
        tol = 3.0 * (node.se_u + 2e-3)
        margin = abs(node.u - truth) / tol
        worst_margin = max(worst_margin, margin)
    results.append(_le("heat_monte_carlo_field", worst_margin, 1.0,
                       note="|u - closed form| / (3 (SE + 2e-3)), worst node"))
    return results


# ---------------------------------------------------------------------------
# 6. Transform equivalence between the two solvers
# ---------------------------------------------------------------------------


TRANSFORM_NOISE = SinNoise(amp=0.3, x_mod=0.25, freq_x=math.pi)


def _transform_instance() -> CoefficientSet:
    return _noise_instance(
        TRANSFORM_NOISE,
        lambda t, x, y, z: -y + 0.25 * np.sin(z[..., 0, :].sum(axis=-1))[..., None],
        lambda t, x, y: 0.5 - 0.5 * y, drift=0.0, K=2.0, c=1.0625, alpha=0.2, beta1=0.5,
        l=lambda x: 1.0 + np.cos(math.pi * x[..., 0]))


def criterion_transform_equivalence(seed: int = 2024) -> list[CriterionResult]:
    coeffs = _transform_instance()
    domain = interval_domain(0.0, 1.0)
    grid = TimeGrid(0.0, 1.0, 1000)  # dt = 1e-3
    bundle = sample_paths(grid, d=1, seed=seed, count=10_000, shared_b=True)
    basis = PolynomialBasis(3)

    direct, reflected = solve_bdsde_markov(
        coeffs, domain, 0.0, np.array([0.5]), bundle, basis)

    flow = BrownianFlow(TRANSFORM_NOISE, bundle.B[0], grid, fd_step=FD_STEP,
                        lipschitz_hint=TRANSFORM_NOISE.lipschitz)
    y_all = direct.Y[:, :, 0]
    pad = 1.5
    y_grid = np.linspace(y_all.min() - pad, y_all.max() + pad, 96)
    x_grid = np.linspace(0.0, 1.0, 41)
    table = FlowTable(flow, x_grid, y_grid)

    transformed = solve_transformed_gbsde(coeffs, domain, table, reflected, bundle, basis)

    sq = 0.0
    count = 0
    for i in range(grid.step_count):
        eps_vals = table.invert(i, reflected.X[:, i, :], direct.Y[:, i, 0])
        gap = transformed.Y[:, i, 0] - eps_vals
        sq += float(np.sum(gap**2))
        count += gap.size
    rms = math.sqrt(sq / count)
    return [_le("transform_equivalence_rms", rms, 5e-2)]


# ---------------------------------------------------------------------------
# 7. Operator identity under the transform
# ---------------------------------------------------------------------------


def criterion_operator_identity(seed: int = 2024) -> list[CriterionResult]:
    noise = SinNoise(amp=1.0, x_mod=0.25)
    coeffs = _noise_instance(
        noise,
        lambda t, x, y, z: (-y + 0.2 * np.sin(z[..., 0, :].sum(axis=-1))[..., None]
                            + 0.1 * x[..., :1]),
        lambda t, x, y: np.zeros_like(y), drift=0.1, K=2.0, c=2.0, alpha=0.5, beta1=1.0)
    grid = TimeGrid(0.0, 1.0, 10_000)
    flow = noise_flow(noise, grid, seed)
    t_idx, xs, _ = flow_samples(seed, 31, grid.step_count, 100)
    field = trig_test_field(amp=0.8, freq=2.0, decay=0.4)
    # (x + 2) / 4 is exactly the U[0, 1) draw behind each x
    viol = operator_identity_violations(coeffs, flow, field, t_idx, (xs + 2.0) / 4.0)
    return [_le("operator_identity_relative", float(np.max(viol)), 1e-3)]


# ---------------------------------------------------------------------------
# 8. Residual convergence ladders and sign mutations
# ---------------------------------------------------------------------------


def _ito_cases(bundle: PathBundle) -> dict[str, dict]:
    """The Ito-formula residual cases on a bundle: forward noise alone,
    backward noise alone (c = 0.8), and all four components with k_t = t."""
    S, n_pts = bundle.scenario_count, len(bundle.grid)
    ones_m = np.ones((S, n_pts, 1, 1))
    none = dict(alpha0=np.zeros(1), beta=None, theta=None, gamma=None, delta=None,
                k_path=None, bundle=bundle)
    return {
        "forward_noise": {**none, "delta": ones_m},
        "backward_noise": {**none, "gamma": 0.8 * ones_m},
        "mixed_boundary": dict(
            alpha0=np.full(1, 0.2), beta=0.5 * np.ones((S, n_pts, 1)),
            theta=np.ones((S, n_pts, 1)), gamma=0.4 * ones_m, delta=0.7 * ones_m,
            k_path=np.broadcast_to(bundle.grid.points, (S, n_pts)), bundle=bundle),
    }


def quadratic_drift_field() -> DriftField:
    """M(t, x) = (1 + t) x^2, the deterministic field of the Ventzell checks."""
    return DriftField(
        time_coef=lambda t: 1.0 + t,
        time_coef_dt=lambda t: 1.0,
        space=lambda x: x[..., 0] ** 2,
        space_grad=lambda x: 2.0 * x,
        space_hess=lambda x: np.broadcast_to(
            2.0 * np.eye(1), x.shape[:-1] + (1, 1)).copy(),
    )


def _ventzell_cases(bundle: PathBundle) -> dict[str, dict]:
    """The Ito-Ventzell residual cases on a bundle: the quadratic drift field
    along forward noise, and the fields linear in B and in W along unit
    backward and forward noise."""
    ones_m = np.ones((bundle.scenario_count, len(bundle.grid), 1, 1))
    linear_coef = dict(
        coef=lambda x: x[..., :1],
        coef_grad=lambda x: np.ones(x.shape[:-1] + (1, 1)),
        coef_hess=lambda x: np.zeros(x.shape[:-1] + (1, 1, 1)),
    )
    none = dict(alpha0=np.zeros(1), beta=None, gamma=None, delta=None, k_path=None,
                bundle=bundle)
    return {
        "deterministic_field": {**none, "field": quadratic_drift_field(), "delta": ones_m},
        "backward_field": {**none, "gamma": ones_m,
                           "field": NoiseLinearField(channel="backward", **linear_coef)},
        "forward_field": {**none, "delta": ones_m,
                          "field": NoiseLinearField(channel="forward", **linear_coef)},
    }


# per residual: its checker, its cases, the bundle seed's offset, and the case,
# switch and expected final defect of its sign mutation at dt = 1e-3: 2 c^2 t
# with c = 0.8 for the flipped backward quadratic variation, and 2 int
# tr(DxH gamma*) ds = 2t for the flipped backward cross term
_RESIDUALS = {
    "ito": (ito_formula_residual, _ito_cases, 0, "backward_noise", "flip_gamma_sign", 1.28),
    "ventzell": (ito_ventzell_residual, _ventzell_cases, 7, "backward_field",
                 "flip_backward_cross", 2.0),
}


def criterion_residual_convergence(seed: int = 2024) -> list[CriterionResult]:
    decay, mutation = [], []
    for family, (residual, cases_of, offset, mutated, switch, defect) in _RESIDUALS.items():
        rms: dict[str, list[float]] = {}
        for steps in (100, 1000, 10_000):  # dt = 1e-2, 1e-3, 1e-4
            bundle = sample_paths(TimeGrid(0.0, 1.0, steps), d=1, seed=seed + offset, count=256)
            cases = cases_of(bundle)
            for name, case in cases.items():
                rms.setdefault(name, []).append(residual(**case).rms)
            if steps == 1000:  # the mutation must leave an O(t) defect
                good = rms[mutated][-1]
                bad = residual(**cases[mutated], **{switch: True})
        for name, series in rms.items():
            ratios = [series[i] / series[i + 1] for i in range(len(series) - 1)]
            decay.append(_ge(f"{family}_residual_decay_{name}", min(ratios), 2.5, rms=series))
        final = float(np.mean(np.abs(bad.residuals[:, -1])))
        mutation += [
            _ge(f"{family}_mutation_detected", bad.rms / max(good, 1e-300), 10.0,
                correct_rms=good, mutated_rms=bad.rms),
            _le(f"{family}_mutation_magnitude", abs(final - defect) / defect, 0.2,
                final_mean_abs=final),
        ]
    return decay + mutation


# ---------------------------------------------------------------------------
# 9. Stability of the energy estimates
# ---------------------------------------------------------------------------


def _random_linear_instance(rng: np.random.Generator) -> dict:
    a_f = rng.uniform(-1.0, 1.0)
    b_f = rng.uniform(-0.5, 0.5)
    c_f = rng.uniform(-0.5, 0.5)
    a_g = rng.uniform(-0.5, 0.5)
    s_g = rng.uniform(0.1, 0.6)
    a_h = rng.uniform(-0.5, 0.5)
    c_h = rng.uniform(-0.5, 0.5)
    xi_scale = rng.uniform(0.5, 1.5)
    k_rate = float(rng.choice([0.0, 0.5]))

    def f(t, x, y, z):
        return a_f * y + b_f * z.sum(axis=-1) + c_f

    def g(t, x, y, z):
        return a_g * y[..., None] + s_g * z

    def h(t, x, y):
        return a_h * y + c_h

    coeffs = CoefficientSet(
        n=1, d=1, f=f, g=g, h=h,
        K=2.0 + abs(a_f) + abs(b_f) + abs(a_g) + abs(a_h),
        # Young split |a_g dy + s_g dz|^2 <= 2 a_g^2 |dy|^2 + 2 s_g^2 |dz|^2
        c=max(2.0 * (a_f**2 + b_f**2), 2.0 * a_g**2, 1e-2),
        alpha=min(max(2.0 * s_g**2, 1e-3), 0.99),
        beta1=max(abs(a_h), 1e-3),
    )
    return {"coeffs": coeffs, "xi_scale": xi_scale, "k_rate": k_rate}


STABILITY_DELTAS = (0.1, 0.05, 0.025)


def _perturbed_driver(coeffs: CoefficientSet, delta: float) -> CoefficientSet:
    """``coeffs`` with the driver f + delta cos(y), its K and c raised to cover
    the perturbation: (sqrt(c) + delta)^2 <= c + 2 delta^2 + 2 delta sqrt(c)."""
    return replace(
        coeffs, f=lambda t, x, y, z: coeffs.f(t, x, y, z) + delta * np.cos(y),
        K=coeffs.K + delta, c=coeffs.c + 2 * delta**2 + 2 * delta * math.sqrt(coeffs.c))


def criterion_estimate_stability(seed: int = 2024) -> list[CriterionResult]:
    results = []
    rng = philox(seed, 41)
    grid = TimeGrid(0.0, 1.0, 100)
    basis = PolynomialBasis(3)
    ratios = {1000: [], 10_000: []}
    for idx in range(20):
        inst = _random_linear_instance(rng)
        k_path = inst["k_rate"] * grid.points
        for count in (1000, 10_000):
            bundle = sample_paths(grid, d=1, seed=seed + 100 + idx, count=count)
            xi = inst["xi_scale"] * bundle.W[:, -1, 0]
            sol = picard_solve(inst["coeffs"], xi, k_path, bundle, basis,
                               tol=1e-12, max_iter=9)
            rep = apriori_ratio(sol, inst["coeffs"], xi, k_path)
            ratios[count].append(rep["ratio"])
    # every ratio is finite: picard_solve raises on a non-finite iterate, and
    # the right side is at least 2 (unit weights, twice the unit envelope)
    mean_1e3, mean_1e4 = (float(np.mean(ratios[count])) for count in (1000, 10_000))
    results.append(_le("apriori_ratio_trend", mean_1e4 / mean_1e3, 1.25,
                       note="mean ratio growth from 1e3 to 1e4 scenarios",
                       mean_1e3=mean_1e3, mean_1e4=mean_1e4))

    # two-data stability: perturb the driver by delta cos(y)
    coeffs = _random_linear_instance(philox(seed, 43))["coeffs"]
    bundle = sample_paths(grid, d=1, seed=seed + 500, count=4000)
    xi = bundle.W[:, -1, 0]
    k_path = 0.3 * grid.points
    sol_base = picard_solve(coeffs, xi, k_path, bundle, basis, tol=1e-12, max_iter=9)
    scalings = []
    for delta in STABILITY_DELTAS:
        pert = _perturbed_driver(coeffs, delta)
        sol_pert = picard_solve(pert, xi, k_path, bundle, basis, tol=1e-12, max_iter=9)
        scalings.append(stability_gap(sol_base, sol_pert, k_path, k_path) / delta**2)
    spread = max(scalings) / min(scalings)
    results.append(_le("stability_quadratic_scaling", spread, 2.0,
                       scalings=scalings))
    return results


# ---------------------------------------------------------------------------
# 10. Determinism of the suites
# ---------------------------------------------------------------------------


def criterion_determinism(seed: int = 2024) -> list[CriterionResult]:
    """Byte-identical CSVs when suites rerun with identical config and seed.

    `_DETERMINISM_CONFIG` is parsed once; each suite runs twice through
    `suites.run_suite`, the field suite once more on two workers, all in
    one temporary directory removed on return.  A suite that exits non-zero
    is recorded with its exit code; one that raises propagates its error.
    """
    from .suites import run_suite  # suites imports this module

    config = parse_config(yaml.safe_load(_DETERMINISM_CONFIG), {"seed": seed})
    all_ok = True
    details = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        def run(suite: str, name: str, workers: int = 1) -> tuple[int, list[Path]]:
            out_dir = root / name
            code, _ = run_suite(replace(config, suite=suite, out_dir=out_dir,
                                        workers=workers))
            return code, sorted(out_dir.glob("*.csv"))

        for suite in ("simulate-reflected", "solve-bdsde", "verify-flow",
                      "verify-calculus", "field"):
            outputs = []
            for attempt in (0, 1):
                code, csvs = run(suite, f"{suite}-{attempt}")
                if code != 0:
                    all_ok = False
                    details[suite] = f"exit code {code}"
                    break
                outputs.append(csvs)
            else:
                match = len(outputs[0]) > 0 and all(
                    a.name == b.name and a.read_bytes() == b.read_bytes()
                    for a, b in zip(outputs[0], outputs[1]))
                details[suite] = "identical" if match else "MISMATCH"
                all_ok = all_ok and match

        # worker count must not change the field suite output
        code, alt = run("field", "field-workers2", workers=2)
        base = sorted((root / "field-0").glob("*.csv"))
        match = code == 0 and len(base) == len(alt) > 0 and all(
            a.read_bytes() == b.read_bytes() for a, b in zip(base, alt))
        details["field_workers_2"] = "identical" if match else "MISMATCH"
        all_ok = all_ok and match

    return [CriterionResult("suite_determinism", 1.0 if all_ok else 0.0, 1.0,
                            all_ok, ">=", details)]


_DETERMINISM_CONFIG = """\
problem:
  n: 1
  d: 1
  x_dim: 1
  f: {kind: linear, y: -0.5}
  g: {kind: zero}
  h: {kind: constant, value: 0.2}
  l: {kind: trig, amp: 1.0, func: cos, of: x, freq: 3.141592653589793}
  b: {kind: zero}
  sigma: {kind: constant, value: 1.0}
  constants: {K: 2.0, c: 1.0, alpha: 0.5, beta1: 1.0}
domain: {kind: interval, a: 0.0, b: 1.0}
grid: {t_start: 0.0, t_end: 0.5, dt: 0.01}
monte_carlo: {scenarios: 500, seed: 3, shared_b: true}
basis: {kind: polynomial, degree: 2}
suite: solve-bdsde
flow: {samples: 20, noise_amp: 0.4}
calculus: {ladder: [50, 100], scenarios: 64}
field:
  nodes: [[0.0, 0.25], [0.0, 0.5], [0.0, 0.75]]
  mode: pointwise
"""


ALL_CRITERIA = {
    "reflection_oracle": criterion_reflection_oracle,
    "flow_identities": criterion_flow_identities,
    "picard_contraction": criterion_picard_contraction,
    "closed_forms": criterion_closed_forms,
    "heat_benchmark": criterion_heat_benchmark,
    "transform_equivalence": criterion_transform_equivalence,
    "operator_identity": criterion_operator_identity,
    "residual_convergence": criterion_residual_convergence,
    "estimate_stability": criterion_estimate_stability,
    "determinism": criterion_determinism,
}


def run_all(seed: int = 2024, names: list[str] | None = None) -> list[CriterionResult]:
    results: list[CriterionResult] = []
    for name, fn in ALL_CRITERIA.items():
        if names is not None and name not in names:
            continue
        results.extend(fn(seed=seed))
    return results
