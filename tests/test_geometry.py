"""Domain descriptions: classification, projection, normals, smoothness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbdsde import ball_domain, interval_domain, make_domain


def test_interval_classification():
    dom = interval_domain(0.0, 1.0)
    assert dom.classify(np.array([0.5])) == "interior"
    assert dom.classify(np.array([1.0])) == "boundary"
    assert dom.classify(np.array([1.2])) == "exterior"


def test_ball_classification():
    dom = ball_domain([0.0, 0.0], 1.0)
    assert dom.classify(np.array([1.0, 0.0])) == "boundary"
    assert dom.classify(np.array([0.2, 0.1])) == "interior"
    assert dom.classify(np.array([1.5, 0.0])) == "exterior"


def test_interval_projection():
    dom = interval_domain(0.0, 1.0)
    p, dist = dom.project(np.array([1.2]))
    assert p[0] == pytest.approx(1.0)
    assert dist == pytest.approx(0.2)
    p, dist = dom.project(np.array([0.4]))
    assert p[0] == pytest.approx(0.4) and dist == 0.0


def test_ball_projection():
    dom = ball_domain([0.0, 0.0], 1.0)
    p, dist = dom.project(np.array([1.5, 0.0]))
    assert np.allclose(p, [1.0, 0.0])
    assert dist == pytest.approx(0.5)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-10, max_value=10))
def test_projection_idempotent(x):
    dom = interval_domain(-1.0, 2.0)
    p, dist = dom.project(np.array([x]))
    p2, dist2 = dom.project(p)
    assert np.allclose(p, p2)
    assert dist2 == 0.0
    assert (dist == 0.0) == bool(dom.contains(np.array([x])))


def test_inward_normals():
    # on the boundary grad phi is the unit inward normal
    interval = interval_domain(0.0, 1.0)
    assert interval.grad_phi(np.array([1.0]))[0] == pytest.approx(-1.0)
    assert interval.grad_phi(np.array([0.0]))[0] == pytest.approx(1.0)
    ball = ball_domain([0.0, 0.0], 1.0)
    assert np.allclose(ball.grad_phi(np.array([1.0, 0.0])), [-1.0, 0.0])
    assert np.allclose(ball.grad_phi(np.array([0.0, -1.0])), [0.0, 1.0])


def test_unit_gradient_near_boundary():
    interval = interval_domain(0.0, 1.0)
    for x in (0.0, 1.0, 0.999999, 1e-9):
        assert abs(np.linalg.norm(interval.grad_phi(np.array([x]))) - 1.0) <= 1e-8
    ball = ball_domain([0.5, -0.5], 2.0)
    angles = np.linspace(0, 2 * np.pi, 17)
    pts = np.stack([0.5 + 2 * np.cos(angles), -0.5 + 2 * np.sin(angles)], axis=1)
    norms = np.linalg.norm(ball.grad_phi(pts), axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-8


def test_step_along_normal_enters_interior():
    ball = ball_domain([0.0, 0.0], 1.0)
    angles = np.linspace(0, 2 * np.pi, 9)
    for a in angles:
        x = np.array([np.cos(a), np.sin(a)])
        assert ball.classify(x) == "boundary"
        n = ball.grad_phi(x)
        for eps in (1e-6, 1e-3, 0.1):
            assert ball.classify(x + eps * n) == "interior"


def test_phi_smooth_at_mollification_seam():
    # the gradient agrees with finite differences across the seam, and the
    # second difference of phi has no jump there: it closes like the offset
    dom = interval_domain(0.0, 1.0)
    r0 = 0.5 / 4.0
    for x in (0.5 + r0, 0.5 + r0 * 0.99, 0.5 - r0 * 1.01, 0.7, 0.5):
        h = 1e-6
        fd_grad = (dom.phi(np.array([x + h])) - dom.phi(np.array([x - h]))) / (2 * h)
        assert abs(fd_grad - dom.grad_phi(np.array([x]))[0]) < 1e-6

    def second_difference(x, h=1e-5):
        return float((dom.phi(np.array([x + h])) - 2 * dom.phi(np.array([x]))
                      + dom.phi(np.array([x - h]))) / h**2)

    for seam in (0.5 + r0, 0.5 - r0):
        for offset in (1e-2, 1e-3):
            jump = abs(second_difference(seam + offset) - second_difference(seam - offset))
            assert jump <= 1e3 * offset


def test_ball_gradient_continuous_at_center_region():
    dom = ball_domain([0.0, 0.0], 1.0)
    r0 = 0.25
    for r in (r0 * 1.001, r0 * 0.999):
        x = np.array([r, 0.0])
        h = 1e-7
        fd = (dom.phi(np.array([r + h, 0.0])) - dom.phi(np.array([r - h, 0.0]))) / (2 * h)
        assert abs(fd - dom.grad_phi(x)[0]) < 1e-5


def test_make_domain_config_names():
    assert make_domain({"kind": "interval", "a": 0, "b": 2}).dim == 1
    assert make_domain({"kind": "ball", "center": [0, 0, 0], "r": 1.5}).dim == 3
    with pytest.raises(ValueError, match="unknown domain"):
        make_domain({"kind": "triangle"})
