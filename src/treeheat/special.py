"""Modified Bessel functions and the one-sided stable subordinator density.

The density f_{alpha,t} is the inverse Laplace transform of exp(-t z^(alpha/2)).
Self-similarity f_{alpha,t}(s) = t^(-2/alpha) f_{alpha,1}(s t^(-2/alpha))
reduces it to t = 1, and Kanter's representation writes f_{alpha,1} as an
integral of a positive, non-oscillating function over (0, pi)
(log_y_density). It is evaluated on G7/K15 panels placed per point, for all
points at once, with an error estimate for each value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ive

from .errors import RangeError
from .quadrature import _WG15, _WK, _XK, kronrod_error

_BESSEL_X_MAX = 700.0  # exp(x) overflows above ~709


_IVE_X_MAX = 1e9  # scipy's ive returns nan above ~1e10


def bessel_i_scaled(order, x):
    """exp(-x) * I_order(x); safe for arbitrarily large arguments. The integer
    order may be an array too; it broadcasts against x.

    Beyond scipy's internal range the uniform large-argument expansion is
    used; it is machine-accurate there (already at x ~ 1e6).
    """
    order = np.asarray(order)
    if np.any(order < 0):
        raise ValueError(f"order must be >= 0, got {order.min()}")
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0):
        raise ValueError("x must be >= 0")
    scalar = order.ndim == 0 and xs.ndim == 0
    order, xs = np.broadcast_arrays(order, np.atleast_1d(xs))
    out = np.array(ive(order, np.minimum(xs, _IVE_X_MAX)), dtype=float)
    big = xs > _IVE_X_MAX
    if np.any(big):
        xb = xs[big]
        mu = 4.0 * order[big].astype(float) ** 2
        with np.errstate(over="ignore"):
            e8 = 8.0 * xb
            corr = (1.0 - (mu - 1.0) / e8 + (mu - 1.0) * (mu - 9.0) / (2.0 * e8**2)
                    - (mu - 1.0) * (mu - 9.0) * (mu - 25.0) / (6.0 * e8**3))
            out[big] = np.where(np.isfinite(xb), corr / np.sqrt(2.0 * math.pi * xb), 0.0)
    return float(out[0]) if scalar else out


def bessel_i(order: int, x: float) -> float:
    """Modified Bessel function of the first kind, integer order."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x > _BESSEL_X_MAX:
        raise RangeError(
            f"x={x} beyond supported range (exp overflow); use bessel_i_scaled"
        )
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    return float(ive(order, x) * math.exp(x))


@dataclass(frozen=True)
class StableDensityParams:
    """Subordination order alpha in (0, 2) and time t > 0."""

    alpha: float
    t: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must be in (0, 2), got {self.alpha}")
        if not self.t > 0.0:
            raise ValueError(f"t must be > 0, got {self.t}")


def stable_exponent_constant(alpha: float) -> float:
    """c1 = ((2-alpha)/2) * (alpha/2)^(alpha/(2-alpha)) from the decay profile."""
    beta = alpha / 2.0
    return (1.0 - beta) * beta ** (beta / (1.0 - beta))


def _log_kanter(beta: float, phi, theta):
    """ln A(phi) at phi = pi - theta, with phi and theta both given: each
    sine is taken from the smaller of the two, so that neither end loses
    digits to the float spacing near pi."""
    near_pi = theta < phi
    s_beta = np.where(near_pi, np.sin((1.0 - beta) * math.pi + beta * theta), np.sin(beta * phi))
    s_phi = np.sin(np.minimum(phi, theta))
    s_rest = np.sin((1.0 - beta) * phi)
    return (beta * np.log(s_beta) + (1.0 - beta) * np.log(s_rest) - np.log(s_phi)) / (1.0 - beta)


# v - v0 (v = A(phi) y^-g, v0 its value at phi = 0) at the panel edges around
# the peak of v e^-v; below them the edges sit 4 apart in ln(v - v0)
_PEAK_EDGES = np.log([0.5, 1.2, 2.2, 3.5, 5.5, 8.5, 13.0, 20.0, 30.0, 45.0])
# fixed edges in theta for the shape of A away from its peak
_THETA_EDGES = np.array([math.pi, math.pi - 0.25, math.pi - 0.6, 2.0, 1.5, 1.0, 0.6, 0.35,
                         0.2, 0.1, 0.05, 0.02, 0.008, 0.003, 0.001])
_CHUNK = 32  # values of y per vectorized pass


def log_y_density(alpha: float, log_y):
    """y f_{alpha,1}(y), the density of ln Y for the subordinator at t = 1,
    at every ln y of an array at once, each with an error estimate.

    Kanter's representation (Ann. Probab. 3, 1975; Nolan, Stoch. Models 13,
    1997), with beta = alpha/2 and g = beta/(1 - beta), is
        y f(y) = (g/pi) int_0^pi v e^-v dphi,   v = A(phi) y^-g,
        A(phi) = (sin^beta(beta phi) sin^{1-beta}((1-beta) phi) / sin phi)^{1/(1-beta)},
    positive and not oscillating. A grows from A(0) = c1 to infinity at phi =
    pi, so for large y the mass sits where theta = pi - phi is tiny: G7/K15
    panels in ln theta, with edges per y at fixed v - v(0) (read off one table
    of ln A that serves the largest y given) and at fixed theta.
    """
    beta = 0.5 * alpha
    g = beta / (1.0 - beta)
    log_y = np.asarray(log_y, dtype=float)
    log_y_max = max(float(log_y.max()), 0.0)
    log_a0 = math.log(stable_exponent_constant(alpha))
    # the table: ln A decreasing in theta, from where v = 45 at the largest y
    psi_min = math.log(math.sin(math.pi * beta)) - 10.0 - beta * log_y_max
    theta = np.exp(np.linspace(psi_min, math.log(math.pi), int(-psi_min / 0.01) + 200))[:-1]
    tab_log_a = np.append(_log_kanter(beta, math.pi - theta, theta), log_a0)[::-1]
    tab_theta = np.append(theta, math.pi)[::-1]
    x0_min = log_a0 - g * log_y_max
    n_low = max(1, math.ceil(-max(x0_min, -45.0 / beta) / 4.0))
    s_edges = np.concatenate([[-1.5, -2.5], -4.0 * np.arange(1, n_low + 1), _PEAK_EDGES])

    flat = log_y.ravel()
    value, error = np.empty(flat.shape), np.empty(flat.shape)
    for lo in range(0, len(flat), _CHUNK):
        log_u = -g * flat[lo : lo + _CHUNK, None]
        x0 = log_a0 + log_u
        edge_log_a = np.logaddexp(x0, s_edges) - log_u
        top = np.interp(edge_log_a, tab_log_a, tab_theta)
        edges = np.concatenate([top, np.tile(_THETA_EDGES, (len(x0), 1))], axis=1)
        edges = np.sort(np.clip(edges, top[:, -1:], math.pi), axis=1)
        log_edges = np.log(edges)
        half = 0.5 * np.diff(log_edges)[..., None]
        th = np.exp(0.5 * (log_edges[:, :-1, None] + log_edges[:, 1:, None]) + half * _XK)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
            x = _log_kanter(beta, math.pi - th, th) + log_u[..., None]
            h = np.where(th < math.pi, np.exp(x - np.exp(x)) * th * half, 0.0)
        kronrod, gauss = h @ _WK, h @ _WG15
        value[lo : lo + _CHUNK] = kronrod.sum(axis=1) * (g / math.pi)
        error[lo : lo + _CHUNK] = kronrod_error(kronrod, gauss).sum(axis=1) * (g / math.pi)
    return value.reshape(log_y.shape), error.reshape(log_y.shape)


def stable_density(params: StableDensityParams, s):
    """f_{alpha,t}(s) = c f_{alpha,1}(c s), c = t^(-2/alpha), from Kanter's
    representation at every point at once; exactly 0 for s <= 0. Accepts
    scalars or arrays."""
    scale = params.t ** (-2.0 / params.alpha)
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    live = s > 0
    if np.any(live):
        log_y = np.log(s[live] * scale)
        out[live] = log_y_density(params.alpha, log_y)[0] * np.exp(-log_y) * scale
    return float(out) if out.ndim == 0 else out


def eta_bound(alpha: float, t: float, u: float, lower_const: float = 1.0,
              upper_const: float = 1.0):
    """Two-branch comparison profile for the subordinator density at (t, u).

    Returns (lower, upper): the profile scaled by the two comparison
    constants. The branches agree at the crossover u = t^(2/alpha).
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    if t <= 0.0 or u <= 0.0:
        raise ValueError("t and u must be positive")
    c1 = stable_exponent_constant(alpha)
    expo = math.exp(-c1 * t ** (2.0 / (2.0 - alpha)) * u ** (-alpha / (2.0 - alpha)))
    if u <= t ** (2.0 / alpha):
        profile = t ** (1.0 / (2.0 - alpha)) * u ** (-(4.0 - alpha) / (4.0 - 2.0 * alpha)) * expo
    else:
        profile = t * u ** (-1.0 - alpha / 2.0) * expo
    return lower_const * profile, upper_const * profile
