"""Discrete residual checkers for the two composite Ito-type identities.

Both checkers build a semimartingale path by explicit accumulation of its
stated components, evaluate both sides of the corresponding identity at the
discrete level, and report the per-time difference.  The residual of a
correct discretization vanishes in RMS as dt -> 0; flipping the sign of a
quadratic-variation or cross-variation term leaves an O(t) defect, which is
what the mutation switches are for.

Sign conventions (squared-norm identity):  the backward-noise quadratic
variation enters with a minus sign, the forward one with a plus sign.
Composite formula: the forward cross term + tr(DxK delta*) ds enters with a
plus, the backward cross term tr(DxH gamma*) ds with a minus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .paths import PathBundle
from .solver import _as_k


@dataclass
class ResidualReport:
    """Per-time residuals of one identity over a scenario bundle."""

    times: np.ndarray
    residuals: np.ndarray  # (S, T+1)

    @property
    def rms(self) -> float:
        return float(np.sqrt(np.mean(self.residuals**2)))

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.residuals)))

    @property
    def per_time_rms(self) -> np.ndarray:
        return np.sqrt(np.mean(self.residuals**2, axis=0))


def ito_formula_residual(
    alpha0: np.ndarray,
    beta: np.ndarray | None,
    theta: np.ndarray | None,
    gamma: np.ndarray | None,
    delta: np.ndarray | None,
    k_path: np.ndarray | None,
    bundle: PathBundle,
    flip_gamma_sign: bool = False,
) -> ResidualReport:
    """Residual of the squared-norm identity for an accumulated process.

    The process alpha is built step by step from its components
    (drift ds, boundary dk, backward dB at the right endpoint, forward dW at
    the left endpoint) and |alpha|^2 is compared with the discrete version of
    its stated expansion.  ``flip_gamma_sign`` mutates the -int ||gamma||^2 ds
    term to +, which must break convergence.

    Component shapes: beta, theta (S, T+1, n); gamma, delta (S, T+1, n, d);
    alpha0 (n,) or (S, n).  Missing components are treated as zero.
    """
    grid = bundle.grid
    S, n_pts = bundle.scenario_count, len(grid)
    d = bundle.d
    some = next(c for c in (beta, theta, gamma, delta) if c is not None)
    n = some.shape[2]
    for name, comp, ndim in (
        ("beta", beta, 3), ("theta", theta, 3), ("gamma", gamma, 4), ("delta", delta, 4),
    ):
        if comp is not None and (comp.ndim != ndim or comp.shape[:2] != (S, n_pts)):
            raise ValueError(f"component {name} has shape {comp.shape}, expected (S, T+1, ...)")
    zeros_v = np.zeros((S, n_pts, n))
    zeros_m = np.zeros((S, n_pts, n, d))
    beta = zeros_v if beta is None else beta
    theta = zeros_v if theta is None else theta
    gamma = zeros_m if gamma is None else gamma
    delta = zeros_m if delta is None else delta

    k = _as_k(k_path, S, n_pts)
    if np.any(np.diff(k, axis=1) < -1e-12):
        raise ValueError("k path must be nondecreasing")
    dk = np.diff(k, axis=1)
    dt = grid.dt
    dB, dW = bundle.dB, bundle.dW

    alpha = np.empty((S, n_pts, n))
    alpha[:, 0, :] = np.broadcast_to(np.atleast_1d(alpha0), (S, n))
    for i in range(grid.step_count):
        inc = (
            beta[:, i] * dt
            + theta[:, i] * dk[:, i, None]
            + np.einsum("snd,sd->sn", gamma[:, i + 1], dB[:, i])
            + np.einsum("snd,sd->sn", delta[:, i], dW[:, i])
        )
        alpha[:, i + 1] = alpha[:, i] + inc

    lhs = np.sum(alpha**2, axis=-1) - np.sum(alpha[:, :1] ** 2, axis=-1)

    gamma_sq = np.sum(gamma[:, 1:] ** 2, axis=(-2, -1))
    delta_sq = np.sum(delta[:, :-1] ** 2, axis=(-2, -1))
    gamma_sign = 1.0 if flip_gamma_sign else -1.0
    increments = (
        2.0 * np.sum(alpha[:, :-1] * beta[:, :-1], axis=-1) * dt
        + 2.0 * np.sum(alpha[:, :-1] * theta[:, :-1], axis=-1) * dk
        + 2.0 * np.einsum("stn,stnd,std->st", alpha[:, 1:], gamma[:, 1:], dB)
        + 2.0 * np.einsum("stn,stnd,std->st", alpha[:, :-1], delta[:, :-1], dW)
        + gamma_sign * gamma_sq * dt
        + delta_sq * dt
    )
    rhs = np.concatenate([np.zeros((S, 1)), np.cumsum(increments, axis=1)], axis=1)
    return ResidualReport(times=grid.points.copy(), residuals=lhs - rhs)


# ---------------------------------------------------------------------------
# Random fields for the composite (field-along-a-path) identity
# ---------------------------------------------------------------------------


class SpaceTimeField:
    """Scalar random field with the semimartingale decomposition

        M(t, x) = M(0, x) + int G ds + <int H, dB> (backward) + <int K, dW>.

    Built-ins keep the decomposition and the field value consistent by
    construction, so the checker can evaluate M(t, x) in closed form from the
    current driver values instead of re-accumulating an integral per point.
    """

    def value(self, t: float, x: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_x(self, t: float, x: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hess_x(self, t: float, x: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def drift(self, t: float, x: np.ndarray) -> np.ndarray:
        return np.zeros(x.shape[:-1])

    def backward_comp(self, t: float, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def forward_comp(self, t: float, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_backward(self, t: float, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_forward(self, t: float, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass
class DriftField(SpaceTimeField):
    """M(t, x) = a(t) p(x), a deterministic field with G = a'(t) p(x)."""

    time_coef: Callable[[float], float]
    time_coef_dt: Callable[[float], float]
    space: Callable[[np.ndarray], np.ndarray]
    space_grad: Callable[[np.ndarray], np.ndarray]
    space_hess: Callable[[np.ndarray], np.ndarray]
    d: int = 1

    def value(self, t, x, b, w):
        return self.time_coef(t) * self.space(x)

    def grad_x(self, t, x, b, w):
        return self.time_coef(t) * self.space_grad(x)

    def hess_x(self, t, x, b, w):
        return self.time_coef(t) * self.space_hess(x)

    def drift(self, t, x):
        return self.time_coef_dt(t) * self.space(x)

    def backward_comp(self, t, x):
        return np.zeros(x.shape[:-1] + (self.d,))

    forward_comp = backward_comp

    def grad_backward(self, t, x):
        return np.zeros(x.shape[:-1] + (x.shape[-1], self.d))

    grad_forward = grad_backward


@dataclass
class NoiseLinearField(SpaceTimeField):
    """M(t, x) = <c(x), P_t> for one of the two drivers P in {B, W}.

    The time-constant integrand makes the stochastic-integral component
    exactly c(x) (P_t - P_0) at the discrete level for any endpoint rule, so
    the closed-form value is exact.
    """

    coef: Callable[[np.ndarray], np.ndarray]          # (S, m) -> (S, d)
    coef_grad: Callable[[np.ndarray], np.ndarray]     # (S, m) -> (S, m, d)
    coef_hess: Callable[[np.ndarray], np.ndarray]     # (S, m) -> (S, m, m, d)
    channel: str = "backward"                          # "backward" | "forward"
    d: int = 1

    def _driver(self, b, w):
        return b if self.channel == "backward" else w

    def value(self, t, x, b, w):
        return np.einsum("...d,...d->...", self.coef(x), self._driver(b, w))

    def grad_x(self, t, x, b, w):
        return np.einsum("...md,...d->...m", self.coef_grad(x), self._driver(b, w))

    def hess_x(self, t, x, b, w):
        return np.einsum("...mnd,...d->...mn", self.coef_hess(x), self._driver(b, w))

    def backward_comp(self, t, x):
        if self.channel == "backward":
            return self.coef(x)
        return np.zeros(x.shape[:-1] + (self.d,))

    def forward_comp(self, t, x):
        if self.channel == "forward":
            return self.coef(x)
        return np.zeros(x.shape[:-1] + (self.d,))

    def grad_backward(self, t, x):
        if self.channel == "backward":
            return self.coef_grad(x)
        return np.zeros(x.shape[:-1] + (x.shape[-1], self.d))

    def grad_forward(self, t, x):
        if self.channel == "forward":
            return self.coef_grad(x)
        return np.zeros(x.shape[:-1] + (x.shape[-1], self.d))


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


def ito_ventzell_residual(
    field: SpaceTimeField,
    alpha0: np.ndarray,
    beta: np.ndarray | None,
    gamma: np.ndarray | None,
    delta: np.ndarray | None,
    k_path: np.ndarray | None,
    bundle: PathBundle,
    flip_backward_cross: bool = False,
) -> ResidualReport:
    """Residual of the composite field-along-a-path identity.

    The path has components (beta dk, gamma backward-dB, delta dW) -- no
    drift term -- and the identity for M(t, alpha_t) includes the two
    cross-variation terms + tr(DxK delta*) ds and - tr(DxH gamma*) ds.
    ``flip_backward_cross`` mutates the latter's sign.
    """
    grid = bundle.grid
    S, n_pts, d = bundle.scenario_count, len(grid), bundle.d
    some = next((c for c in (beta, gamma, delta) if c is not None), None)
    if some is None:
        raise ValueError("at least one path component must be supplied")
    n = some.shape[2]
    zeros_v = np.zeros((S, n_pts, n))
    zeros_m = np.zeros((S, n_pts, n, d))
    beta = zeros_v if beta is None else beta
    gamma = zeros_m if gamma is None else gamma
    delta = zeros_m if delta is None else delta
    k = _as_k(k_path, S, n_pts)
    dk = np.diff(k, axis=1)
    dt = grid.dt
    dB, dW = bundle.dB, bundle.dW
    times = grid.points

    alpha = np.empty((S, n_pts, n))
    alpha[:, 0, :] = np.broadcast_to(np.atleast_1d(alpha0), (S, n))
    for i in range(grid.step_count):
        alpha[:, i + 1] = alpha[:, i] + (
            beta[:, i] * dk[:, i, None]
            + np.einsum("snd,sd->sn", gamma[:, i + 1], dB[:, i])
            + np.einsum("snd,sd->sn", delta[:, i], dW[:, i])
        )

    B, W = bundle.B, bundle.W
    lhs = np.empty((S, n_pts))
    for i in range(n_pts):
        lhs[:, i] = field.value(times[i], alpha[:, i], B[:, i], W[:, i])
    lhs -= lhs[:, :1]

    cross_sign = 1.0 if flip_backward_cross else -1.0
    increments = np.zeros((S, grid.step_count))
    for i in range(grid.step_count):
        t_l, t_r = times[i], times[i + 1]
        x_l, x_r = alpha[:, i], alpha[:, i + 1]
        b_r, w_l = B[:, i + 1], W[:, i]
        grad_l = field.grad_x(t_l, x_l, B[:, i], W[:, i])
        grad_r = field.grad_x(t_r, x_r, b_r, W[:, i + 1])
        hess_l = field.hess_x(t_l, x_l, B[:, i], W[:, i])
        hess_r = field.hess_x(t_r, x_r, b_r, W[:, i + 1])
        increments[:, i] = (
            field.drift(t_l, x_l) * dt
            + np.einsum("sd,sd->s", field.backward_comp(t_r, x_r), dB[:, i])
            + np.einsum("sd,sd->s", field.forward_comp(t_l, x_l), dW[:, i])
            + np.einsum("sn,sn->s", grad_l, beta[:, i]) * dk[:, i]
            + np.einsum("sn,snd,sd->s", grad_r, gamma[:, i + 1], dB[:, i])
            + np.einsum("sn,snd,sd->s", grad_l, delta[:, i], dW[:, i])
            + 0.5 * np.einsum("smn,smd,snd->s", hess_l, delta[:, i], delta[:, i]) * dt
            - 0.5 * np.einsum("smn,smd,snd->s", hess_r, gamma[:, i + 1], gamma[:, i + 1]) * dt
            + np.einsum("snd,snd->s", field.grad_forward(t_l, x_l), delta[:, i]) * dt
            + cross_sign
            * np.einsum("snd,snd->s", field.grad_backward(t_r, x_r), gamma[:, i + 1])
            * dt
        )
    rhs = np.concatenate([np.zeros((S, 1)), np.cumsum(increments, axis=1)], axis=1)
    return ResidualReport(times=times.copy(), residuals=lhs - rhs)
