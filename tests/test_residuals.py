"""Residual checkers for the two composite identities, with sign mutations."""

from dataclasses import dataclass

import numpy as np
import pytest

from gbdsde import (
    DriftField,
    NoiseLinearField,
    TimeGrid,
    ito_formula_residual,
    ito_ventzell_residual,
    sample_paths,
)
from gbdsde.residuals import SpaceTimeField


def _bundle(steps, count=128, seed=31):
    return sample_paths(TimeGrid(0.0, 1.0, steps), d=1, seed=seed, count=count)


def test_all_zero_components_zero_residual():
    bundle = _bundle(50, count=16)
    zeros_v = np.zeros((16, 51, 1))
    rep = ito_formula_residual(np.zeros(1), zeros_v, zeros_v, None, None, None, bundle)
    assert rep.max_abs == 0.0


def test_forward_noise_refinement_rate():
    rms = []
    for steps in (100, 1000):
        bundle = _bundle(steps)
        ones_m = np.ones((128, steps + 1, 1, 1))
        rep = ito_formula_residual(np.zeros(1), None, None, None, ones_m, None, bundle)
        rms.append(rep.rms)
    assert rms[0] / rms[1] >= 2.5  # ~ sqrt(10) for a half-order scheme


def test_backward_constant_sign_captured():
    c = 0.8
    steps = 1000
    bundle = _bundle(steps)
    gamma = np.full((128, steps + 1, 1, 1), c)
    good = ito_formula_residual(np.zeros(1), None, None, gamma, None, None, bundle)
    bad = ito_formula_residual(np.zeros(1), None, None, gamma, None, None, bundle,
                               flip_gamma_sign=True)
    assert good.rms < 0.05
    # flipped sign accumulates ~ 2 c^2 t
    final = np.abs(bad.residuals[:, -1]).mean()
    assert final == pytest.approx(2 * c**2, rel=0.1)
    assert bad.rms > 10 * good.rms


def test_boundary_component_enters_identity():
    steps = 400
    bundle = _bundle(steps, count=32)
    n_pts = steps + 1
    k = np.broadcast_to(np.linspace(0, 1, n_pts) ** 2, (32, n_pts))
    theta = np.ones((32, n_pts, 1))
    rep = ito_formula_residual(np.full(1, 0.3), None, theta, None, None, k, bundle)
    # alpha_t = 0.3 + k_t deterministic; the residual is the second-order
    # sum of dk^2 terms, about (4/3) dt for k = t^2
    dt = 1.0 / steps
    assert rep.max_abs == pytest.approx(4.0 / 3.0 * dt, rel=0.2)


def test_k_must_be_nondecreasing():
    bundle = _bundle(10, count=4)
    k = np.zeros((4, 11))
    k[:, 5] = -1.0
    theta = np.ones((4, 11, 1))
    with pytest.raises(ValueError):
        ito_formula_residual(np.zeros(1), None, theta, None, None, k, bundle)


def test_determinism_same_seed():
    bundle = _bundle(100)
    ones_m = np.ones((128, 101, 1, 1))
    a = ito_formula_residual(np.zeros(1), None, None, None, ones_m, None, bundle)
    b = ito_formula_residual(np.zeros(1), None, None, None, ones_m, None, bundle)
    assert np.array_equal(a.residuals, b.residuals)


# -- composite field identity -------------------------------------------------


def _quadratic_drift_field():
    return DriftField(
        time_coef=lambda t: 1.0 + t,
        time_coef_dt=lambda t: 1.0,
        space=lambda x: x[..., 0] ** 2,
        space_grad=lambda x: 2.0 * x,
        space_hess=lambda x: np.broadcast_to(2.0 * np.eye(1),
                                             x.shape[:-1] + (1, 1)).copy(),
    )


def _linear_noise_field(channel):
    return NoiseLinearField(
        coef=lambda x: x[..., :1],
        coef_grad=lambda x: np.ones(x.shape[:-1] + (1, 1)),
        coef_hess=lambda x: np.zeros(x.shape[:-1] + (1, 1, 1)),
        channel=channel,
    )


def test_ventzell_zero_everything():
    bundle = _bundle(50, count=8)
    field = DriftField(
        time_coef=lambda t: 0.0, time_coef_dt=lambda t: 0.0,
        space=lambda x: np.zeros(x.shape[:-1]),
        space_grad=lambda x: np.zeros_like(x),
        space_hess=lambda x: np.zeros(x.shape[:-1] + (1, 1)))
    zeros_m = np.zeros((8, 51, 1, 1))
    rep = ito_ventzell_residual(field, np.zeros(1), None, zeros_m, zeros_m,
                                None, bundle)
    assert rep.max_abs == 0.0


def test_ventzell_deterministic_field_refines():
    rms = []
    for steps in (100, 1000):
        bundle = _bundle(steps)
        ones_m = np.ones((128, steps + 1, 1, 1))
        rep = ito_ventzell_residual(_quadratic_drift_field(), np.zeros(1),
                                    None, None, ones_m, None, bundle)
        rms.append(rep.rms)
    assert rms[0] / rms[1] >= 2.5


def test_ventzell_backward_cross_term():
    steps = 1000
    bundle = _bundle(steps)
    ones_m = np.ones((128, steps + 1, 1, 1))
    field = _linear_noise_field("backward")
    good = ito_ventzell_residual(field, np.zeros(1), None, ones_m, None, None, bundle)
    bad = ito_ventzell_residual(field, np.zeros(1), None, ones_m, None, None, bundle,
                                flip_backward_cross=True)
    assert good.rms < 0.05
    # omitting / flipping the backward cross term leaves a linear-in-t defect
    final = np.abs(bad.residuals[:, -1]).mean()
    assert final == pytest.approx(2.0, rel=0.1)
    assert bad.rms > 10 * good.rms


def test_ventzell_forward_cross_term():
    steps = 500
    bundle = _bundle(steps)
    ones_m = np.ones((128, steps + 1, 1, 1))
    field = _linear_noise_field("forward")
    rep = ito_ventzell_residual(field, np.zeros(1), None, None, ones_m, None, bundle)
    assert rep.rms < 0.1


@dataclass
class SumField(SpaceTimeField):
    parts: list

    def value(self, t, x, b, w):
        return sum(p.value(t, x, b, w) for p in self.parts)

    def grad_x(self, t, x, b, w):
        return sum(p.grad_x(t, x, b, w) for p in self.parts)

    def hess_x(self, t, x, b, w):
        return sum(p.hess_x(t, x, b, w) for p in self.parts)

    def drift(self, t, x):
        return sum(p.drift(t, x) for p in self.parts)

    def backward_comp(self, t, x):
        return sum(p.backward_comp(t, x) for p in self.parts)

    def forward_comp(self, t, x):
        return sum(p.forward_comp(t, x) for p in self.parts)

    def grad_backward(self, t, x):
        return sum(p.grad_backward(t, x) for p in self.parts)

    def grad_forward(self, t, x):
        return sum(p.grad_forward(t, x) for p in self.parts)


def test_sum_field_combines_components():
    steps = 400
    bundle = _bundle(steps, count=64)
    ones_m = np.ones((64, steps + 1, 1, 1))
    field = SumField([_quadratic_drift_field(), _linear_noise_field("backward")])
    rep = ito_ventzell_residual(field, np.full(1, 0.1), None, 0.5 * ones_m,
                                0.5 * ones_m, None, bundle)
    assert rep.rms < 0.2


def test_ventzell_boundary_component():
    steps = 300
    bundle = _bundle(steps, count=32)
    n_pts = steps + 1
    k = np.broadcast_to(np.linspace(0, 1, n_pts), (32, n_pts))
    beta = np.ones((32, n_pts, 1))
    rep = ito_ventzell_residual(_quadratic_drift_field(), np.zeros(1), beta,
                                None, None, k, bundle)
    # alpha_t = k_t deterministic; the dk chain-rule term must track it
    assert rep.rms < 5e-3


def _bad_input(problem):
    """Components (beta, theta, gamma, delta) and a k path with one defect."""
    S, n_pts = 4, 11
    ones_v, ones_m = np.ones((S, n_pts, 1)), np.ones((S, n_pts, 1, 1))
    k = np.linspace(0.0, 1.0, n_pts)
    if problem == "no_component":
        return (None, None, None, None), k, "at least one path component"
    if problem == "decreasing_k":
        k = k.copy()
        k[5] = -1.0
        return (None, None, ones_m, None), k, "k path must be nondecreasing"
    if problem == "dk_without_state_axis":
        return (None, np.ones((S, n_pts)), None, None), k, r"the dk component has shape \(4, 11\)"
    if problem == "dW_without_noise_axis":
        return (None, ones_v, None, ones_v), k, r"the dW component has shape \(4, 11, 1\)"
    # a two-dimensional dk component beside a one-dimensional dB one
    return (None, np.ones((S, n_pts, 2)), ones_m, None), k, "the dB component has shape"


@pytest.mark.parametrize("checker", ["ito", "ventzell"])
@pytest.mark.parametrize("problem", ["no_component", "decreasing_k", "dk_without_state_axis",
                                     "dW_without_noise_axis", "state_dims_disagree"])
def test_checkers_reject_bad_input_by_name(checker, problem):
    bundle = _bundle(10, count=4)
    (beta, theta, gamma, delta), k, message = _bad_input(problem)
    with pytest.raises(ValueError, match=message):
        if checker == "ito":
            ito_formula_residual(np.zeros(1), beta, theta, gamma, delta, k, bundle)
        else:
            # the Ventzell path's boundary component takes the dk slot
            ito_ventzell_residual(_quadratic_drift_field(), np.zeros(1), theta, gamma,
                                  delta, k, bundle)


def test_missing_components_are_stride_zero_views():
    from gbdsde.residuals import _accumulate

    bundle = _bundle(10, count=4)
    delta = np.ones((4, 11, 1, 1))
    _, beta, theta, gamma, got_delta, _ = _accumulate(
        np.zeros(1), None, None, None, delta, None, bundle)
    assert got_delta is delta
    for comp, shape in ((beta, (4, 11, 1)), (theta, (4, 11, 1)), (gamma, (4, 11, 1, 1))):
        assert comp.shape == shape and not comp.flags.writeable
        assert set(comp.strides) == {0} and not np.any(comp)
