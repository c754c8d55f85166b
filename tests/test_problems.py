"""Coefficient records."""

import numpy as np
import pytest

from gbdsde import CoefficientSet


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


def test_coefficient_set_validates_constants():
    with pytest.raises(ValueError):
        make_coeffs(alpha=1.5)
    with pytest.raises(ValueError):
        make_coeffs(K=-1.0)
