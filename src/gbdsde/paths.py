"""Brownian path bundles and their increments.

Two independent d-dimensional Brownian motions drive every equation in this
package: a forward one (W) and a backward one (B).  Increments are produced
by inverse-CDF sampling from counter-based Philox streams keyed by
(seed, which-motion), so the independence of the two motions and the exact
reproducibility of a bundle are structural properties of the generator, not
accidents of call order.

The inverse normal CDF is `_ndtri`, Moshier's Cephes ``ndtri`` (the one
``scipy.special.ndtri`` runs) evaluated with numpy: the same coefficient
tables, branches and Horner order.  Its central branch, which takes ~73 % of
the draws, uses only + - * /, so it gives scipy's bits.  The two tails take
logarithms, and numpy's vectorized ``log`` may differ from the C library's in
the last bit, so about one tail normal in 4 000 differs from scipy's by a
few ulp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import TimeGrid

# Philox stream tags for the two independent motions.
_STREAM_W = 0
_STREAM_B = 1

# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical Functions,
# 1989).  For exp(-2) < y < 1 - exp(-2), with v = y - 1/2:
#   ndtri(y) = sqrt(2 pi) (v + v v^2 P0(v^2) / Q0(v^2));
# in the tails, with x = sqrt(-2 log y) for the smaller of y, 1 - y and z = 1/x:
#   |ndtri(y)| = x - log(x) / x - z P(z) / Q(z),
# P1/Q1 for x < 8 and P2/Q2 for x >= 8 (y < exp(-32)).  Coefficients run from
# the highest power down; each Q is monic, its leading 1 written out
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242E0
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
# `_ndtri` works through its input this many values at a time, so its three
# work arrays (256 KiB each) stay in the L2 cache
_NDTRI_CHUNK = 1 << 15


@dataclass(frozen=True)
class PathBundle:
    """Discretized scenarios of the two driving Brownian motions.

    W and B have shape (scenario_count, step_count + 1, d) and start at 0.
    When ``shared_b`` is set, all scenarios carry the same B path (one
    realization of the backward driver shared across the forward ensemble).
    """

    grid: TimeGrid
    W: np.ndarray
    B: np.ndarray
    shared_b: bool = False

    def __post_init__(self) -> None:
        for name, path in (("W", self.W), ("B", self.B)):
            if path.ndim != 3:
                raise ValueError(f"{name} must have shape (scenarios, times, d)")
            if path.shape[1] != len(self.grid):
                raise ValueError(f"{name} has {path.shape[1]} time points, grid has {len(self.grid)}")
        if self.B.shape[0] != self.W.shape[0]:
            raise ValueError("W and B have different scenario counts")

    @property
    def scenario_count(self) -> int:
        return self.W.shape[0]

    @property
    def d(self) -> int:
        return self.W.shape[2]

    @property
    def dW(self) -> np.ndarray:
        return np.diff(self.W, axis=1)

    @property
    def dB(self) -> np.ndarray:
        return np.diff(self.B, axis=1)


def philox(seed: int, stream: int) -> np.random.Generator:
    """The generator of the Philox stream keyed by (seed, stream).

    Every random draw of the package comes from one of these streams; the
    seed is taken modulo 2**64.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _polevl(z: np.ndarray, coef: tuple[float, ...], out: np.ndarray) -> np.ndarray:
    """coef[0] z^n + ... + coef[n] into ``out``, in Cephes' Horner order; a
    monic polynomial (Cephes' ``p1evl``) starts from z + coef[1]."""
    if coef[0] == 1.0:
        np.add(z, coef[1], out=out)
    else:
        np.multiply(z, coef[0], out=out)
        out += coef[1]
    for c in coef[2:]:
        out *= z
        out += c
    return out


def _ndtri_tail(y: np.ndarray) -> np.ndarray:
    """|ndtri| of tail probabilities 0 < y <= exp(-2), in place of y."""
    x = np.log(y)
    x *= -2.0
    np.sqrt(x, out=x)
    x0 = np.log(x)
    x0 /= x
    np.subtract(x, x0, out=x0)
    far = np.flatnonzero(x >= 8.0)
    z = np.divide(1.0, x, out=x)
    p = _polevl(z, _P1, out=y)
    p *= z
    p /= _polevl(z, _Q1, out=np.empty_like(z))
    if far.size:
        zf = z[far]
        pf = _polevl(zf, _P2, out=np.empty_like(zf))
        pf *= zf
        pf /= _polevl(zf, _Q2, out=np.empty_like(zf))
        p[far] = pf
    return np.subtract(x0, p, out=p)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """The inverse standard normal CDF of every u in (0, 1), in place of the
    C-contiguous array u.

    Cephes ``ndtri`` (see the module docstring) on chunks of the flattened
    array: the central formula runs on the whole chunk, then the tail values
    (u <= exp(-2) or u > 1 - exp(-2), where 1 - u is exact) are gathered,
    evaluated at min(u, 1 - u), given the sign of u - 1/2 and scattered
    back.  u must lie in the open interval: 0 and 1 give NaN.
    """
    flat = u.reshape(-1)
    n = min(flat.size, _NDTRI_CHUNK)
    y2, p, q = np.empty(n), np.empty(n), np.empty(n)
    for lo in range(0, flat.size, _NDTRI_CHUNK):
        y = flat[lo:lo + _NDTRI_CHUNK]
        if y.size < n:
            y2, p, q = y2[:y.size], p[:y.size], q[:y.size]
        tail = np.flatnonzero((y <= _EXP_M2) | (y > 1.0 - _EXP_M2))
        yt = y[tail]
        y -= 0.5
        np.multiply(y, y, out=y2)
        _polevl(y2, _P0, out=p)
        p *= y2
        p /= _polevl(y2, _Q0, out=q)
        p *= y
        y += p
        y *= _SQRT_2PI
        if tail.size:
            sign = yt - 0.5
            np.minimum(yt, 1.0 - yt, out=yt)
            xt = _ndtri_tail(yt)
            y[tail] = np.copysign(xt, sign, out=xt)
    return u


def _gaussian_block(seed: int, stream: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals from the Philox stream keyed by (seed, stream).

    Uniforms are taken as (i + 1/2) / 2**53 over 53-bit integers, then mapped
    through the inverse normal CDF `_ndtri`.  Above 2**52 the half is rounded
    to even, so the top integer would give u = 1 and an infinite normal; u
    is clamped at 1 - 2**-52, the largest uniform any other integer gives,
    which keeps every u in the open interval and changes no other draw.
    The normals are Cephes' (scipy.special.ndtri's) bit for bit on the
    central branch and to a few ulp in the tails (see the module docstring).
    """
    raw = philox(seed, stream).integers(0, 1 << 53, size=shape, dtype=np.uint64)
    u = raw.astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    np.minimum(u, 1.0 - 2.0 ** -52, out=u)
    return _ndtri(u)


def sample_paths(
    grid: TimeGrid,
    d: int,
    seed: int,
    count: int,
    shared_b: bool = False,
) -> PathBundle:
    """Sample a bundle of W/B scenarios on the grid.

    Increments are N(0, dt) per coordinate; identical arguments give a
    bit-identical bundle.  With ``shared_b`` one B scenario is drawn and B is
    a read-only broadcast view of it across the rows.
    """
    if count < 1:
        raise ValueError("scenario count must be >= 1")
    if d < 1:
        raise ValueError("Brownian dimension must be >= 1")
    sqrt_dt = np.sqrt(grid.dt)
    n_steps = grid.step_count

    def build(stream: int, rows: int) -> np.ndarray:
        incr = _gaussian_block(seed, stream, (rows, n_steps, d))
        incr *= sqrt_dt
        path = np.empty((rows, n_steps + 1, d))
        path[:, 0, :] = 0.0
        np.cumsum(incr, axis=1, out=path[:, 1:, :])
        return path

    w = build(_STREAM_W, count)
    if shared_b:
        b = np.broadcast_to(build(_STREAM_B, 1), w.shape)  # read-only, one row in memory
    else:
        b = build(_STREAM_B, count)
    return PathBundle(grid=grid, W=w, B=b, shared_b=shared_b)


def swap_scenario_time(arr: np.ndarray) -> np.ndarray:
    """C-contiguous copy of an array with its first two axes swapped.

    Turns a scenario-major (S, T+1, ...) array into the time-major layout
    the step loops work on, and back.
    """
    return np.ascontiguousarray(np.swapaxes(arr, 0, 1))


def time_major_increments(path: np.ndarray) -> np.ndarray:
    """Increments of a scenario-major (S, T+1, ...) path, laid out as (T, S, ...).

    Equals ``np.diff(path, axis=1)`` with its first two axes swapped, stored
    C-contiguous, so each step's (S, ...) slice is one contiguous block.
    """
    steps = np.swapaxes(path, 0, 1)
    out = np.empty(steps[1:].shape, dtype=path.dtype)
    return np.subtract(steps[1:], steps[:-1], out=out)
