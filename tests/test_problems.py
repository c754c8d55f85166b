"""Hypothesis validation."""

import numpy as np
import pytest

from gbdsde import CoefficientSet, SamplingPlan, validate_hypotheses
from gbdsde.acceptance import (
    STABILITY_DELTAS,
    _bm_coeffs,
    _heat_coeffs,
    _perturbed_driver,
    _random_linear_instance,
    _transform_instance,
    _zeros_coeffs,
)
from gbdsde.paths import philox


def _zero_matrix(d):
    def g(t, x, y, z):
        return np.zeros(y.shape + (d,))

    return g


def make_coeffs(f=None, g=None, h=None, **kw):
    defaults = dict(n=1, d=1, K=1.0, c=1.0, alpha=0.25, beta1=1.0)
    defaults.update(kw)
    return CoefficientSet(
        f=f or (lambda t, x, y, z: np.zeros_like(y)),
        g=g or _zero_matrix(defaults["d"]),
        h=h or (lambda t, x, y: np.zeros_like(y)),
        **defaults,
    )


def test_linear_g_saturates_alpha():
    alpha = 0.25
    coeffs = make_coeffs(g=lambda t, x, y, z: np.sqrt(alpha) * z, alpha=alpha)
    report = validate_hypotheses(coeffs, SamplingPlan(count=2000))
    assert report.passed
    check = report["H2_g_z_ratio"]
    assert check.worst_ratio == pytest.approx(alpha, abs=1e-12)


def test_violating_g_fails_with_witness():
    coeffs = make_coeffs(g=lambda t, x, y, z: 2.0 * z, alpha=0.25)
    report = validate_hypotheses(coeffs, SamplingPlan(count=2000))
    check = report["H2_g_z_ratio"]
    assert not check.passed
    assert check.worst_ratio == pytest.approx(4.0, abs=1e-9)
    assert check.witness is not None and "ratio" in check.witness


def test_zero_coefficients_pass_with_zero_ratios():
    report = validate_hypotheses(make_coeffs(), SamplingPlan(count=1000))
    assert report.passed
    assert report["H2_f_lipschitz"].worst_ratio == 0.0
    assert report["H2_h_lipschitz"].worst_ratio == 0.0


def test_valid_set_never_exceeds_declared_constants():
    # 1e4 samples in the default box; deterministic coefficients
    coeffs = make_coeffs(
        f=lambda t, x, y, z: 0.5 * y + 0.5 * z.sum(axis=-1),
        g=lambda t, x, y, z: 0.3 * y[..., None] + 0.4 * z,
        h=lambda t, x, y: 0.9 * y,
        c=1.0, alpha=0.25, beta1=0.9, K=2.0,
    )
    report = validate_hypotheses(coeffs, SamplingPlan(count=10_000))
    for check in report.checks:
        if np.isfinite(check.bound):
            assert check.worst_ratio <= check.bound + 1e-12, check.name


def test_nonfinite_coefficient_is_hard_failure():
    def bad_f(t, x, y, z):
        out = np.zeros_like(y)
        out[0] = np.nan
        return out

    report = validate_hypotheses(make_coeffs(f=bad_f), SamplingPlan(count=100))
    assert not report.passed
    failed = [c for c in report.checks if not c.passed]
    assert any(c.witness is not None for c in failed)


def test_spatial_hypotheses_checked_when_x_present():
    coeffs = make_coeffs(
        b=lambda x: 0.5 * x,
        sigma=lambda x: np.ones(x.shape[:-1] + (1, 1)),
        l=lambda x: x[..., 0],
        x_dim=1,
        K=2.0,
    )
    report = validate_hypotheses(coeffs, SamplingPlan(count=1000))
    assert report["H3_b_lipschitz"].passed
    assert report["H4_l_growth"].passed


def test_coefficient_set_validates_constants():
    with pytest.raises(ValueError):
        make_coeffs(alpha=1.5)
    with pytest.raises(ValueError):
        make_coeffs(K=-1.0)


def test_acceptance_instances_satisfy_their_declared_constants():
    # the solvers never read c or alpha, so a broken declaration shows only here
    rng = philox(2024, 41)
    instances = {f"stream 41 draw {i}": _random_linear_instance(rng)["coeffs"]
                 for i in range(20)}
    base = _random_linear_instance(philox(2024, 43))["coeffs"]
    instances["stream 43 base"] = base
    for delta in STABILITY_DELTAS:
        instances[f"stream 43 delta {delta}"] = _perturbed_driver(base, delta)
    instances.update(transform=_transform_instance(), bm=_bm_coeffs(),
                     heat=_heat_coeffs(), zeros=_zeros_coeffs())
    failed = {}
    for name, coeffs in instances.items():
        report = validate_hypotheses(coeffs)
        if not report.passed:
            failed[name] = [(c.name, c.worst_ratio / c.bound)
                            for c in report.checks if not c.passed]
    assert failed == {}
