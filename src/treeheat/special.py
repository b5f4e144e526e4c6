"""The scaled modified Bessel function and the one-sided stable subordinator
density f_{alpha,t}, the inverse Laplace transform of exp(-t z^(alpha/2));
f_{alpha,t}(s) = t^(-2/alpha) f_{alpha,1}(s t^(-2/alpha)) by self-similarity.
log_y_density gives f_{alpha,1} at many points at once, each with an error
bound: by Pollard's convergent series wherever it certifies 1e-13 of the
value, and in the left tail, where the series' terms cancel, by Kanter's
positive integral over (0, pi) on G7/K15 panels shared by cells of ln y.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, ive

from .quadrature import _WG15, _WK, _XK, kronrod_error

_EPS = float(np.finfo(float).eps)
_IVE_X_MAX = 1e9  # scipy's ive returns nan above ~1e10
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# the error of bessel_i_scaled, with margin, is at most IVE_REL_ERR of the
# value plus IVE_ABS_ERR: against 40-digit mpmath over orders 0..330 and x in
# [1e-12, 3e8], scipy's ive was at most 1,680 eps off, except that it gives 0
# for values below about 6e-305
IVE_REL_ERR = 2.0**12 * _EPS
IVE_ABS_ERR = 1e-303
# the relative error of scipy's kve, with margin: against 40-digit mpmath for
# nu in (0, 12) and x in [1e-3, 1e3] it was at most 2,196 eps off, the worst
# just below x = 2 with nu near 0.9 (elsewhere mostly under 300 eps)
KVE_REL_ERR = 2.0**13 * _EPS


def bessel_i_scaled(order, x):
    """exp(-x) * I_order(x) for integer orders (an array too, broadcast
    against x), at any x: beyond scipy's range by the uniform large-argument
    expansion, which is machine-accurate there (already at x ~ 1e6)."""
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
            # sqrt(2 pi x) apart: 2 pi x overflows above about 2.9e307
            out[big] = np.where(np.isfinite(xb), corr / (_SQRT_2PI * np.sqrt(xb)), 0.0)
    return float(out[0]) if scalar else out


def stable_exponent_constant(alpha: float) -> float:
    """c1 = ((2-alpha)/2) * (alpha/2)^(alpha/(2-alpha)) from the decay profile."""
    beta = alpha / 2.0
    return (1.0 - beta) * beta ** (beta / (1.0 - beta))


def _log_kanter(beta: float, phi, theta):
    """ln A(phi) at phi = pi - theta, each sine from the smaller of the two so
    that neither end loses digits near pi, and the sizes of its log terms."""
    near_pi = theta < phi
    s_beta = np.where(near_pi, np.sin((1.0 - beta) * math.pi + beta * theta), np.sin(beta * phi))
    s_phi = np.sin(np.minimum(phi, theta))
    s_rest = np.sin((1.0 - beta) * phi)
    terms = (beta * np.log(s_beta), (1.0 - beta) * np.log(s_rest), np.log(s_phi))
    size = sum(map(np.abs, terms)) / (1.0 - beta)
    return (terms[0] + terms[1] - terms[2]) / (1.0 - beta), size


# v - v0 (v = A(phi) y^-g, v0 its value at phi = 0) at the panel edges around
# the peak of v e^-v; below them the edges sit 4 apart in ln(v - v0)
_PEAK_EDGES = np.log([0.5, 1.2, 2.2, 3.5, 5.5, 8.5, 13.0, 20.0, 30.0, 45.0])
# fixed edges in theta for the shape of A away from its peak
_THETA_EDGES = np.array([math.pi, math.pi - 0.25, math.pi - 0.6, 2.0, 1.5, 1.0, 0.6, 0.35,
                         0.2, 0.1, 0.05, 0.02, 0.008, 0.003, 0.001])
_CELL = 0.5  # width of the cells of ln u = -g ln y that share one panel set
_STEP = 0.01  # of the ln A table in ln theta, down from theta = pi
_CHUNK = 128  # values of y per vectorized pass


def _kanter_density(alpha: float, flat: np.ndarray):
    """y f(y) = (g/pi) int_0^pi v e^-v dphi, v = A(phi) u, u = y^-g, g = beta/(1 - beta),
    A(phi) = (sin^beta(beta phi) sin^{1-beta}((1-beta) phi) / sin phi)^{1/(1-beta)}
    (Kanter, Ann. Probab. 3, 1975; Nolan, Stoch. Models 13, 1997), at every ln
    y of a flat array. A grows from c1 to infinity at phi = pi, so for large y
    the mass sits where theta = pi - phi is tiny: G7/K15 panels in ln theta.

    The values of y share panels by cells of ln u, each _CELL wide: every y
    of a cell takes the edges placed for the cell's lower ln u, at fixed v -
    v(0) and at fixed theta, duplicates dropped, so ln A is evaluated once per
    cell. The edges in v come from a table of ln A on a grid anchored at
    theta = pi with step _STEP in ln theta, so a value depends on (alpha,
    ln y) alone, not on the batch.

    The panels stop at theta_c, the edge where v - v(0) = 45 for the cell's
    lower ln u. Past it v is at least v_c, its value there, and v_c >= v0 +
    45 (v0 = c1 u) for every y of the cell, up to the table's interpolation.
    Since v e^-v falls for v > 1 and the interval left out is (0, theta_c),
    the mass left out is at most (g/pi) theta_c m e^-m, m = max(1, min(v_c,
    v0 + 45)). The error adds that, the
    Gauss-Kronrod estimate of every panel and the rounding of each node and
    of the sum."""
    beta = 0.5 * alpha
    g = beta / (1.0 - beta)
    log_a0 = math.log(stable_exponent_constant(alpha))
    log_u = -g * flat
    cells, which = np.unique(np.floor(log_u / _CELL), return_inverse=True)
    # the table: ln A increasing as theta falls from pi, to where v = 45 (with
    # room) at the lowest cell, A ~ (sin(pi beta)/theta)^{1/(1-beta)} there
    lowest = min(cells[0] * _CELL, 0.0)
    psi_min = math.log(math.sin(math.pi * beta)) - 10.0 + (1.0 - beta) * lowest
    rows = math.ceil((math.log(math.pi) - psi_min) / _STEP)
    theta = np.exp(math.log(math.pi) - _STEP * np.arange(1, rows + 1))
    tab_log_a = np.append(log_a0, _log_kanter(beta, math.pi - theta, theta)[0])
    tab_theta = np.append(math.pi, theta)

    value, error = np.empty(flat.shape), np.empty(flat.shape)
    for i, cell in enumerate(cells.tolist()):
        cell_log_u = cell * _CELL
        x0 = log_a0 + cell_log_u
        n_low = max(1, math.ceil(-max(x0, -45.0 / beta) / 4.0))
        s_edges = np.concatenate([[-1.5, -2.5], -4.0 * np.arange(1, n_low + 1), _PEAK_EDGES])
        top = np.interp(np.logaddexp(x0, s_edges) - cell_log_u, tab_log_a, tab_theta)
        log_edges = np.log(np.unique(np.clip(np.append(top, _THETA_EDGES), top[-1], math.pi)))
        half = 0.5 * np.diff(log_edges)[:, None]
        th = np.exp(0.5 * (log_edges[:-1, None] + log_edges[1:, None]) + half * _XK)
        members = np.flatnonzero(which == i)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
            log_a, size = _log_kanter(beta, math.pi - th, th)
            log_a_last = _log_kanter(beta, math.pi - top[-1], top[-1])[0]
            for lo in range(0, len(members), _CHUNK):
                at = members[lo : lo + _CHUNK]
                lu = log_u[at, None, None]
                x = log_a + lu
                v = np.exp(x)
                h = np.where(th < math.pi, np.exp(x - v) * th * half, 0.0)
                # h's rounding relative to it: x's, times 1 + v in x - e^x, and the exps'
                rel = (3.0 * size + 9.0 / (1.0 - beta) + 2.0 * np.abs(lu)) * (1.0 + v)
                rel = np.where(th < math.pi, rel + np.abs(x) + 2.0 * v + 8.0, 0.0)
                # past the panels v e^-v <= m e^-m; m <= 800 keeps inf * 0 out
                m = np.fmin(np.exp(log_a_last + log_u[at]), np.exp(log_a0 + log_u[at]) + 45.0)
                m = np.clip(m, 1.0, 800.0)
                kronrod = h @ _WK
                total = kronrod.sum(axis=1)
                rounding = (((h * rel) @ _WK).sum(axis=1)
                            + (math.log2(max(th.size, 1)) + 4.0) * total)
                value[at] = total * (g / math.pi)
                error[at] = ((kronrod_error(kronrod, h @ _WG15).sum(axis=1) + rounding * _EPS)
                             * (g / math.pi) + top[-1] * m * np.exp(-m) * (g / math.pi))
    return value, error


_TERMS = 80  # of Pollard's series, summed for 256 values of y per pass


def _pollard_sines(beta: float) -> np.ndarray:
    """sin(pi beta n) for n = 1..80, as (-1)^m sin(pi d) with beta n = m + d,
    m an integer nearest beta n (at a tie either gives the same sine) and d =
    r/den exact: beta = num/den, and num n - m den = r is reduced in Python's
    integers."""
    num, den = beta.as_integer_ratio()
    sine = []
    for n in range(1, _TERMS + 1):
        m, r = divmod(num * n, den)
        if 2 * r > den:
            m, r = m + 1, r - den
        sine.append((-1) ** m * math.sin(math.pi * (r / den)))
    return np.array(sine)


def _pollard_series(beta: float, flat: np.ndarray):
    """y f(y) = (1/pi) sum_n (-1)^{n+1} M_n sin(pi beta n), M_n = Gamma(n beta
    + 1)/n! u^n, u = y^-beta (Pollard, Bull. AMS 52, 1946), to n = 80, at every
    ln y of a flat array, with an error bound. By Wendel's inequality Gamma(x +
    beta) <= x^beta Gamma(x), M_{n+1}/M_n <= (n beta + 1)^beta u/(n + 1), which
    falls with n: the terms past the last sum to at most M_81/(1 - r), r that
    ratio at n = 81. M_n, the exp of a sum of logs, is good to 3 eps times their
    sizes; the sine, taken at the exact distance from beta n to the nearest
    integer (all sines are small as alpha -> 2), to 3 eps; the sum adds 80 eps
    per term."""
    n = np.arange(1.0, _TERMS + 1.0)
    lg_top, lg_bottom = gammaln(n * beta + 1.0), gammaln(n + 1.0)
    sine = _pollard_sines(beta)
    # each term's error and share of the sum's, in eps |M_n sin|: err_fixed + |ln u| err_log_u
    err_fixed = (3.0 * (np.abs(lg_top) + lg_bottom + 4.0) + 3.0 + _TERMS) * np.abs(sine)
    err_log_u = 3.0 * n * np.abs(sine)
    last = (_TERMS * beta + 1.0) ** beta / (_TERMS + 1.0)  # M_81 <= M_80 u last
    ratio = ((_TERMS + 1.0) * beta + 1.0) ** beta / (_TERMS + 2.0)  # r = u ratio
    value, error = np.empty(flat.shape), np.empty(flat.shape)
    for lo in range(0, len(flat), 256):
        log_u = -beta * flat[lo : lo + 256]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            mag = np.exp(lg_top - lg_bottom + n * log_u[:, None])
            total = np.add.reduce(mag * np.where(n % 2 == 1.0, sine, -sine), axis=1)
            u = np.exp(log_u)
            tail = np.where(u * ratio < 1.0, mag[:, -1] * u * last / (1.0 - u * ratio), np.inf)
            # einsum, not gemv, whose bits depend on the number of rows
            rounding = (np.einsum("ij,j->i", mag, err_fixed)
                        + np.abs(log_u) * np.einsum("ij,j->i", mag, err_log_u)) * _EPS
        value[lo : lo + 256] = total / math.pi
        error[lo : lo + 256] = (tail + rounding) / math.pi + 2.0 * _EPS * np.abs(total)
    return value, error


def log_y_density(alpha: float, log_y):
    """y f_{alpha,1}(y), the density of ln Y for the subordinator at t = 1,
    at every ln y of an array at once, each with a bound on its error: from
    Pollard's series where that bound is at most 1e-13 of the value (right
    of the mode and some way left of it), else from Kanter's quadrature."""
    log_y = np.asarray(log_y, dtype=float)
    value, error = _pollard_series(0.5 * alpha, log_y.ravel())
    rest = ~(error <= 1e-13 * value)
    if rest.any():
        value[rest], error[rest] = _kanter_density(alpha, log_y.ravel()[rest])
    return value.reshape(log_y.shape), error.reshape(log_y.shape)


def eta_bound(alpha: float, t: float, u: float) -> float:
    """Two-branch comparison profile for the subordinator density at (t, u),
    which bounds it from both sides up to constants. The branches meet at
    u = t^(2/alpha)."""
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
    return profile
