"""Radial kernels of the heat semigroup and its two subordinated families.

The heat kernel has one route at every q: the line's heat kernel pulled back
to the tree by the inverse Abel transform,
    H_s(k) = e^{-s(1-rho)} q^{-k/2} sum_{j>=0} q^{-j} d_{k+2j}(rho s),
d_m = ive_m - ive_{m+2} > 0, a sum of positive terms cut where the rest is
1e-3 rel_tol of the value (heat_kernel_many); at q = 1 it is ive_k(s).

All three families are functions of the averaging operator P = I - L,
L f = f - (mean of f over neighbors). For q >= 2 each is a walk mixture

    K_t(k) = sum_n w_n u_n(k) = sum_n W_n v_n(k),   W_n = w_n rho^n,

where u_n(k) is the probability that the n-step simple random walk from o
sits at one given vertex at distance k, v_n(k) = u_n(k) rho^{-n}, rho =
2 sqrt(q)/(q+1), and w_n >= 0 with sum_n w_n = 1 are the Taylor coefficients
of the family's multiplier phi(1 - z) (Figa-Talamanca and Nebbia, LMS LN
162; Cowling, Meda and Setti, Trans. AMS 352; Stinga and Torrea, Comm. PDE
35). One table per q holds v and grows on demand; it does not depend on t.
The stable and wave families and L^{alpha/2} are summed on it:

- stable P_t^alpha: the coefficients of exp(-t (1 - z)^{alpha/2}), by a
  recurrence that only adds positive terms;
- wave-type T_t^nu: w_n = 2 (t/2)^{nu+n} K_{n-nu}(t) / (n! Gamma(nu)), by the
  upward Bessel-K recurrence.

Every term is positive, so each value keeps its relative accuracy at any k
and t. For the stable and wave families the ground spherical function bounds
the walk, v_n(k) <= phi0(k) = (1 + k (q-1)/(q+1)) q^{-k/2}, so the terms
beyond N sum to at most phi0(k) rho^{N+1} P(N' > N), N' the walk length of
the family's mixing law (P(N' = n) = w_n); N is the first index where that
is 1e-3 rel_tol of the partial sum. Each value carries that tail plus a
rounding bound, checked against the QuadratureSpec. The radial kernel of
L^{alpha/2} (fractional_kernel) is a walk mixture of one sign, certified
the same way.

kernel_block(q, family, ts, kmax) gives K[j, i] = K_{ts[i]}(j) for a whole
block of times: one heat_kernel_many call, one Bessel grid, over every (j, t)
for heat, one weight stream for all times of a stable or wave block, which
a time leaves once its values are done (_mix). tabulate is one
column plus a bound on the mass beyond the ball from the w_n alone
(_mass_beyond).

q = 1 has no spectral gap and u_n ~ n^{-1/2}: there heat is the Bessel form
H_s(k) = e^{-s} I_k(s), and the other two families are positive mixtures of
it, K_t(k) = sum_i w_i H_{c z_i}(k), over the stable density
(z = y, c = t^{2/alpha}) or the Gamma(nu) density (z = 1/(4v), c = t^2), on
nodes fixed per alpha or nu (_line_mixture). The stable weights come from
Pollard's series where it certifies them and from Kanter's quadrature in the
left tail (special.log_y_density). Each time's Bessel matrix runs the
downward recurrence in segments of 32 orders from two ive seeds above each
(_bessel_column), so a value does not depend on the largest k asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import gammainc, gammaincc, kve

from .errors import NumericalError
from .geometry import TreeGeometry, sphere_size
from .quadrature import _WG15, _WK, _XK, DEFAULT_SPEC, QuadratureSpec, kronrod_error
from .special import (IVE_ABS_ERR, IVE_REL_ERR, KVE_REL_ERR, bessel_i_scaled,
                      log_y_density, stable_exponent_constant)

_EPS = float(np.finfo(float).eps)
_LN2 = math.log(2.0)
_TINY = float(np.finfo(float).tiny)


def _check_time(t: float) -> None:
    if not math.isfinite(t) or t <= 0:
        raise ValueError(f"t must be finite and > 0, got {t}")


def _check_q(q: int) -> None:
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")


@dataclass(frozen=True)
class KernelFamily:
    """heat | stable(alpha) | wave(nu)."""

    kind: str
    alpha: float | None = None
    nu: float | None = None

    def __post_init__(self):
        if self.kind == "heat":
            if self.alpha is not None or self.nu is not None:
                raise ValueError("heat family takes no parameters")
        elif self.kind == "stable":
            if self.alpha is None or not 0.0 < self.alpha < 2.0:
                raise ValueError("stable family needs alpha in (0, 2)")
        elif self.kind == "wave":
            if self.nu is None or not 0.0 < self.nu < math.inf:
                raise ValueError("wave family needs a finite nu > 0")
        else:
            raise ValueError(f"unknown kernel family {self.kind!r}")

    @staticmethod
    def heat() -> "KernelFamily":
        return KernelFamily("heat")

    @staticmethod
    def stable(alpha: float) -> "KernelFamily":
        return KernelFamily("stable", alpha=alpha)

    @staticmethod
    def wave(nu: float) -> "KernelFamily":
        return KernelFamily("wave", nu=nu)

    def label(self) -> str:
        if self.kind == "stable":
            return f"stable(alpha={self.alpha:g})"
        if self.kind == "wave":
            return f"wave(nu={self.nu:g})"
        return "heat"


def _walk_decay(q: int) -> float:
    """rho = 2 sqrt(q)/(q+1), the l^2 norm of the averaging operator P = I - L."""
    return 2.0 * math.sqrt(q) / (q + 1.0)


class _WalkTable:
    """v[n, j] = u_n(j) rho^{-n} for one q, where u_n(j) is the probability
    that the n-step simple random walk from o sits at one given vertex at
    distance j. u_n(j) <= rho^n (the l^2 norm of P^n), so 0 <= v <= 1, and
    the rescaling keeps long rows from underflowing.

    Rows follow the recursion
        v_{n+1}(0) = v_n(1) (q+1)/(2 sqrt q),
        v_{n+1}(j) = (v_n(j-1) + q v_n(j+1)) / (2 sqrt q),
    run on the whole row: a walk of n steps stays within distance n, so a
    state of n + 1 entries (or the stored columns, if more) is exact, and a
    row has the same bits however the table was grown. Rows extend from the
    kept state; more columns (in steps of 32) rebuild the table, out to the
    rows that call needs.
    """

    def __init__(self, q: int):
        self.q = q
        self.v = np.zeros((0, 0))
        self.rows = 0
        self.state = np.zeros(0)

    def get(self, n_max: int, j_max: int) -> np.ndarray:
        """v with at least rows 0..n_max and columns 0..j_max."""
        if j_max >= self.v.shape[1]:
            self.v = np.zeros((64, 32 * (j_max // 32 + 1)))
            self.v[0, 0] = 1.0
            self.state, self.rows = self.v[0], 1
        if n_max >= self.rows:
            self._extend(n_max + 1)
        return self.v

    def _extend(self, rows: int) -> None:
        if rows > len(self.v):
            grown = np.empty((max(rows, 2 * len(self.v)), self.v.shape[1]))
            grown[: self.rows] = self.v[: self.rows]
            self.v = grown
        q, cols = self.q, self.v.shape[1]
        u = np.zeros(max(cols, rows + 1))  # wide enough for every row made here
        u[: len(self.state)] = self.state
        d = 2.0 * math.sqrt(q)
        c0 = (q + 1.0) / d
        for n in range(self.rows, rows):
            nxt = np.empty_like(u)
            nxt[0] = u[1] * c0
            nxt[1:-1] = (u[:-2] + q * u[2:]) / d
            nxt[-1] = 0.0
            self.v[n] = nxt[:cols]
            u = nxt
        self.state = u
        self.rows = rows


@cache
def _walk_table(q: int) -> _WalkTable:
    return _WalkTable(q)


def _check_bound(values, bound, spec: QuadratureSpec, what: str) -> None:
    tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(values))
    if np.any(bound > tol):
        err = float(np.max(bound))
        raise NumericalError(
            f"{what}: error bound {err:.3e} above tolerance", err_estimate=err
        )


def heat_kernel_many(q: int, k, s, spec: QuadratureSpec = DEFAULT_SPEC):
    """H_s(k) over distances k and times s that broadcast against each other
    (one k and an array of times, or a column of k against a row of times),
    each value certified to max(abs_tol, rel_tol |value|) or NumericalError
    is raised.

    The line's heat kernel pulled back to the tree by the inverse Abel
    transform, at every q:
        H_s(k) = e^{-s(1-rho)} q^{-k/2} sum_{j>=0} q^{-j} d_{k+2j}(x),  x = rho s,
        d_m(x) = ive_m(x) - ive_{m+2}(x) = (2(m+1)/x) ive_{m+1}(x) > 0,
    all from one bessel_i_scaled grid over the orders and the distinct times
    of the call. At q = 1 (rho = 1) the sum telescopes to ive_k(s), the
    grid's own entry. For q >= 2 the terms past j sum to at most
    q^{-j-1} ive_{k+2j+2}(x), and as I_{n+1}(x)/I_n(x) <= min(1, x/(2n+2)),
    to at most q^{-j-1} (x/2) prod_{n=2}^{2j+2} min(1, x/(2n)) times d_k(x)
    at every k; the sum stops at the first j >= 1, J, where that is 1e-3
    rel_tol, at most log_q(x/(2e-3 rel_tol)) where the product is 1. J
    depends on x only and the sum runs by Horner's rule from j = J down, so a
    value does not depend on the batch it comes in. d_m is the difference
    below x = 1, where ive_{m+2} <= ive_m/8, and the ratio form above.

    The bound adds that tail to the rounding: ive's error (IVE_REL_ERR, 9/7
    of it through the difference, and IVE_ABS_ERR, at most 2(m + 1) times
    itself in d_m and twice that in the sum and the tail), eps per Horner
    step and, for q >= 2, the roundings of rho (eps, relative) and of x,
    which move ln H by at most eps (2x + m) and eps (x + m)/2 at the largest
    order m = k + 2J, and of s(1 - rho) and its exp. A time whose value
    underflows gives 0 from e^{-s(1-rho)} itself.
    """
    _check_q(q)
    k = np.asarray(k, dtype=np.int64)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.all((s > 0) & (s < math.inf)):
        raise ValueError("times must be finite and positive")
    if np.any(k < 0):
        raise ValueError(f"k must be >= 0, got {k.min()}")
    ts, which = np.unique(s, return_inverse=True)
    k, which = np.broadcast_arrays(k, which.reshape(s.shape))
    if not k.size:
        return np.zeros(k.shape)
    k0, k1 = int(k.min()), int(k.max())
    if q == 1:
        values = bessel_i_scaled(np.arange(k0, k1 + 1)[:, None], ts)[k - k0, which]
        _check_bound(values, IVE_REL_ERR * values + IVE_ABS_ERR, spec, "heat kernel at q=1")
        return values
    rho = _walk_decay(q)
    lead = np.exp(-ts * (1.0 - rho))
    x = np.where(lead > 0, rho * ts, 0.0)  # a time whose lead underflows gives 0 at any x
    # the ratio form is discarded at tiny x, where it overflows (x = rho s is 0
    # for subnormal s)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x_top = max(float(x.max()), 2e-3 * spec.rel_tol)
        cap = max(1, math.ceil(math.log(x_top / (2e-3 * spec.rel_tol)) / math.log(q)))
        js = np.arange(1, cap + 1)
        n = np.arange(2, 2 * cap + 3)[:, None]
        shrink = np.cumsum(np.minimum(np.log(x) - np.log(2.0 * n), 0.0), axis=0)  # row n - 2
        log_tail = np.log(0.5 * x) - (js[:, None] + 1) * math.log(q) + shrink[2 * js]
        J = np.argmax(log_tail <= math.log(1e-3 * spec.rel_tol), axis=0) + 1
        top = k1 + 2 * int(J.max()) + 2
        grid = bessel_i_scaled(np.arange(k0, top + 1)[:, None], x)  # row m - k0
        m = np.arange(k0, top - 1)[:, None]
        d = np.where(x < 1.0, grid[:-2] - grid[2:], 2.0 * (m + 1.0) / x * grid[1:-1])
    steps = np.arange(int(J.max()) + 1)[:, None]
    # terms[j, r] = d_{k0+r+2j}, 0 past each time's J: the sum starts at J
    terms = np.where((steps <= J)[:, None], d[2 * steps + np.arange(k1 - k0 + 1)], 0.0)
    sums = terms[-1]
    for j in range(len(steps) - 2, -1, -1):
        sums = terms[j] + sums / q
    Jk = J[which]
    scale = lead[which] * float(q) ** (-0.5 * k)
    values = scale * sums[k - k0, which]
    tail = scale * float(q) ** (-Jk - 1.0) * grid[k - k0 + 2 * Jk + 2, which]
    xk, mk = x[which], k + 2.0 * Jk
    drift = 2.0 * xk + mk + 0.5 * (xk + mk) + ts[which] * (1.0 - rho)
    rounding = (9.0 / 7.0) * IVE_REL_ERR + (Jk + 8.0 + drift) * _EPS
    flushed = scale * (4.0 * mk + 8.0) * IVE_ABS_ERR  # and the roundings below 2^-1022
    bound = rounding * values + (1.0 + IVE_REL_ERR) * tail + flushed
    _check_bound(values, bound, spec, f"heat kernel at q={q}")
    return values


_BLOCK = 64  # weights are made, summed and retired this many rows at a time
_RESCALE_T = 256.0 * _LN2 - 1.0  # below this t, e_n = W_n e^t never reaches 2^256
_CHERNOFF = 2.0 * _LN2 - 1.0  # P(Poisson(n/2) > n) <= e^{-(n/2)(2 ln 2 - 1)}
_LOG_MARKOV = math.log1p(-math.exp(-1.0))  # P(S > s) <= E(1 - e^{-S/s})/(1 - 1/e)


def _law_tail(c0, p: float, err0, n):
    """min(1, e^{c0} n^-p + e^{-(n/2)(2 ln 2 - 1)}) at every row n of a block,
    for each time (c0 and err0 hold a row per time): a bound on P(N > n) for a
    walk length N that is Poisson(S), where e^{c0} n^-p bounds P(S > n/2) and
    the second term is Chernoff's bound on P(Poisson(n/2) > n). It is raised
    by its rounding: err0, the error of c0, and that of the rest at the
    block's last row; a bound that underflows counts as the smallest normal
    number."""
    x = (0.5 * _CHERNOFF) * n
    with np.errstate(divide="ignore", over="ignore"):
        raw = np.exp(c0 - p * np.log(n)) + np.exp(-x)
    top = max(float(n[-1]), 1.0)
    slack = err0 + (3.0 * p * math.log(top) + _CHERNOFF * top + 4.0) * _EPS
    return np.minimum(1.0, raw * (1.0 + 2.0 * slack) + _TINY)


def _stable_weights(alpha: float, ts: np.ndarray, rho: float, rows: int = _BLOCK):
    """Blocks (W, err, tail) of `rows` weights W_n = w_n rho^n for P_t^alpha
    at every t = ts[i], with a bound on the relative error of every weight
    and one on P(N > n); the stream is endless. Sent a mask over its rows
    (blocks.send(keep)), it drops the rows that are False from then on.

    The W_n are the Taylor coefficients of exp(-t (1 - rho z)^beta), beta =
    alpha/2. With c_m = -t (-1)^m binom(beta, m) > 0 for m >= 1,
        n W_n = sum_{m=1}^n m c_m rho^m W_{n-m},
    a sum of positive terms. The recurrence runs on e_n = W_n e^t from e_0 = 1,
    since e^{-t} is subnormal at t = 720 and 0 at t = 800. Every 8 steps a row
    whose newest entry has passed 2^256 is scaled by 2^-256, exactly (an entry
    is below 3t/n times the largest before it); while every time is below
    256 ln 2 - 1 the test is skipped, as e_n <= e^t stays below 2^256 there.
    The W_n are written once per block and before each rescale, each at the
    scale it was made at. Each time's row of e is stored newest first, so
    each step is numpy's pairwise sum of one contiguous row of products: a
    weight has the same bits alone and in any batch, however far the stream
    is read, in blocks of any length and with any rows dropped.

    Rounding, to first order: a_m = m c_m rho^m is good to (4m + 2) eps; a
    product, numpy's pairwise sum of n terms (at most log2 n + 26 roundings)
    and the division add log2 n + 28. Since every term is positive, induction
    on n gives (log2 n + 34) n eps, and e^{-t} = g 2^-E adds (t + 2) eps.

    The mixing law: sum_n w_n z^n = E z^N for N Poisson(S), S the
    beta-stable subordinator at t (E e^{-lam S} = e^{-t lam^beta}). So
    P(N > n) <= P(S > n/2) + P(Poisson(n/2) > n), with P(S > s) <=
    (1 - e^{-t s^-beta})/(1 - 1/e) <= t s^-beta/(1 - 1/e) by Markov's
    inequality on 1 - e^{-S/s} (_law_tail).
    """
    beta = 0.5 * alpha
    exp2 = [math.ceil(t / _LN2) for t in ts.tolist()]
    g = np.array([math.exp(x * _LN2 - t) for x, t in zip(exp2, ts.tolist())])  # e^-t = g 2^-exp2
    scale = -np.array(exp2, dtype=np.int64)  # W_n = e_n g 2^scale, with the rescales made so far
    log_t = np.array([[math.log(t)] for t in ts.tolist()])
    c0 = log_t + (beta * _LN2 - _LOG_MARKOV)  # P(S > n/2) <= e^{c0} n^-beta
    err0 = 4.0 * (np.abs(log_t) + 1.0) * _EPS
    # e_j sits at er[:, cap - 1 - j], so e_{i-1}, ..., e_0 is er[:, cap - i:]
    a = er = np.zeros((len(ts), 0))
    cap = n = 0
    while True:
        hi = n + rows
        if hi > cap:
            m = np.arange(1.0, 2 * hi)
            a = -ts[:, None] * m * np.cumprod((m - 1.0 - beta) / m * rho)  # a[:, m-1] = m c_m rho^m
            grown = np.empty((len(ts), 2 * hi))
            grown[:, 2 * hi - n :] = er[:, cap - n :]
            er, cap = grown, 2 * hi
        w = np.empty((len(ts), rows))

        def write(lo, up):  # W_lo, ..., W_{up-1}, at the present scale
            w[:, lo - n : up - n] = np.ldexp(er[:, cap - up : cap - lo][:, ::-1] * g[:, None],
                                             scale[:, None])

        if not n:
            er[:, cap - 1] = 1.0
        probe, start = ts.max() >= _RESCALE_T, n
        for i in range(max(n, 1), hi):
            col = cap - 1 - i
            v = np.divide(np.add.reduce(a[:, :i] * er[:, col + 1 :], 1), i, out=er[:, col])
            if probe and i % 8 == 0 and v.max() > 2.0**256:
                write(start, i)
                big = v > 2.0**256
                er[big, col:] = np.ldexp(er[big, col:], -256)
                scale[big] += 256
                start = i
        write(start, hi)
        made = np.arange(n, hi)
        err = ((np.log2(made + 1.0) + 34.0) * made + ts[:, None] + 2.0) * _EPS
        keep = yield w, err, _law_tail(c0, beta, err0, made)
        n = hi
        if keep is not None:
            ts, c0, err0, g, scale, a, er = (x[keep] for x in (ts, c0, err0, g, scale, a, er))


def _log_kve(v: float, x: float) -> float:
    """log(K_v(x) e^x), for 0 < x <= 1e9 (kve is nan above ~1e10). Where kve
    overflows (v log(2/x) > 709), K_v(x) = Gamma(v)/2 (2/x)^v to relative
    O(x^{2 min(v, 1)}), below e^{-1400} there."""
    val = float(kve(v, x))
    if math.isinf(val):
        return math.lgamma(v) - _LN2 + v * math.log(2.0 / x)
    return math.log(val)


def _wave_rows(nu: float, t: float, rho: float, rows: int):
    """Blocks of `rows` mantissas, exponents and relative errors of the wave
    weights W_n = mant 2^exp at one time t (_wave_weights)."""
    n0 = math.ceil(nu)
    log_k = [_log_kve(abs(n - nu), t) for n in range(n0 + 1)]
    parts = (math.log(2.0), nu * math.log(0.5 * t), log_k[0], -t, -math.lgamma(nu))
    log_w0 = math.fsum(parts)
    exp2 = math.floor(log_w0 / _LN2)
    mant = math.exp(log_w0 - exp2 * _LN2)
    werr = KVE_REL_ERR + (sum(abs(p) for p in parts) + 2.0 * abs(log_w0) + 4.0) * _EPS
    half = 0.5 * t * rho
    r = rerr = 0.0
    n = 0
    while True:
        mants, exps, errs = [], [], []
        for _ in range(rows):
            if n:
                if n <= n0:
                    r = math.exp(log_k[n] - log_k[n - 1])
                    rerr = (abs(log_k[n]) + abs(log_k[n - 1]) + 2.0) * _EPS
                else:
                    inv = 1.0 / r
                    lin = 2.0 * (n - 1 - nu) / t
                    r = inv + lin
                    rerr = (inv * (rerr + _EPS) + 3.0 * lin * _EPS) / r + _EPS
                mant, e2 = math.frexp(mant * (half * r / n))
                exp2 += e2
                werr += rerr + 6.0 * _EPS
            mants.append(mant)
            exps.append(exp2)
            errs.append(werr)
            n += 1
        yield mants, exps, errs


def _wave_weights(nu: float, ts, rho: float, rows: int = _BLOCK):
    """Blocks (W, err, tail) of `rows` weights W_n = 2 (t/2)^{nu+n} K_{n-nu}(t)
    rho^n / (n! Gamma(nu)) for T_t^nu at every t = ts[i], with a bound on the
    relative error of every weight and one on P(N > n); the stream is
    endless. Sent a mask over its rows (blocks.send(keep)), it drops the rows
    that are False from then on.

    Each time runs its own scalar recurrence (_wave_rows): W_n = W_{n-1}
    (t rho/2) r_n / n with r_n = K_{n-nu}(t) / K_{n-1-nu}(t), from kve while
    n <= ceil(nu), then r_{n+1} = 1/r_n + 2(n - nu)/t, the upward recurrence
    K_{m+1} = K_{m-1} + (2m/t) K_m, whose terms are positive for m >= 0. Each
    W_n is a mantissa in [1/2, 1) times a power of 2, so neither (t/2)^n
    K_{n-nu}(t) nor W_0 ~ e^{-t} leaves the float range. The bound follows
    the relative error of r_n step by step and adds 6 eps per step for the
    product. kve's own error (KVE_REL_ERR) is counted once per weight: up to
    ceil(nu) each kve value enters W_n and the next ratio with opposite signs,
    so W_n carries that of K_{n-nu} alone, and past it the recurrence is a
    positive combination of the last two kve values.

    The mixing law: sum_n w_n z^n = 2 (x/2)^nu K_nu(x)/Gamma(nu) at x = t
    sqrt(1 - z), which is E e^{-(1 - z) S} for S = t^2/(4G), G ~ Gamma(nu);
    so N is Poisson(S). P(S > n/2) = P(G < t^2/(2n)) <= (t^2/(2n))^nu /
    Gamma(nu + 1), as the Gamma density is at most v^{nu-1}/Gamma(nu), and
    P(Poisson(n/2) > n) adds Chernoff's term (_law_tail).
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    streams = [_wave_rows(nu, t, rho, rows) for t in ts.tolist()]
    lg = math.lgamma(nu + 1.0)
    log_t = np.array([[math.log(t)] for t in ts.tolist()])
    c0 = nu * (2.0 * log_t - _LN2) - lg  # P(S > n/2) <= e^{c0} n^-nu
    err0 = (4.0 * nu * (2.0 * np.abs(log_t) + 1.0) + 4.0 * abs(lg) + 2.0 * np.abs(c0) + 4.0) * _EPS
    n = 0
    while True:
        mants, exps, err = (np.array(x) for x in zip(*(next(s) for s in streams)))
        keep = yield np.ldexp(mants, exps), err, _law_tail(c0, nu, err0, np.arange(n, n + rows))
        n += rows
        if keep is not None:
            streams = [s for s, live in zip(streams, keep.tolist()) if live]
            c0, err0 = c0[keep], err0[keep]


def _mix(q: int, blocks, times: int, ks, spec: QuadratureSpec):
    """S[i, k] = sum_{n <= N} W[i, n] v_n(k) over a weight stream (a row per
    time i, blocks of rows n), with a bound on the error of each sum.

    Beside its weights and their rounding, a stream gives a bound on P(N > n)
    for the mixing law's walk length N (P(N = n) = w_n). As v_m(k) <= phi0(k)
    and W_m = w_m rho^m, the terms past n sum to at most phi0(k) rho^{n+1}
    P(N > n). N is the first n where that is at most 1e-3 rel_tol of the
    running sum S_n (or of the smallest normal number, so that a value that
    underflows ends too); it depends on (t, k) only, so a value is the same
    to the bit alone and in a block. After a block in which some time is done,
    the stream is sent a mask of its rows that still have an open value
    (blocks.send(keep)) and drops the others; a time leaves the stream within
    a block of being done. The bound adds that tail to the weights' rounding
    and 5 eps per row for the walk table and the sum.
    """
    rho = _walk_decay(q)
    ks = np.asarray(ks, dtype=np.int64)
    phi0 = (1.0 + ks * ((q - 1.0) / (q + 1.0))) * float(q) ** (-0.5 * ks)
    walk = _walk_table(q)
    values, bound = np.empty((times, len(ks))), np.empty((times, len(ks)))
    live = np.arange(times)  # the time of each row of the stream
    sums = np.zeros(values.shape)
    open_ = np.ones(values.shape, dtype=bool)
    w, err, mass = next(blocks)
    n = 0
    while True:
        rows = w.shape[1]
        table = walk.get(n + rows - 1, int(ks.max()))
        terms = w[:, :, None] * table[n : n + rows, ks]
        terms[:, 0] += sums
        partial = np.cumsum(terms, axis=1)
        tail = rho ** np.arange(n + 1.0, n + rows + 1.0)[:, None] * phi0 * mass[:, :, None]
        done = tail <= 1e-3 * np.maximum(spec.rel_tol * partial, _TINY)
        new = open_ & done.any(axis=1)  # the tail falls and the partial sums grow
        sums, keep = partial[:, -1], None
        if new.any():
            r, k = np.nonzero(new)
            first = done[r, :, k].argmax(axis=1)
            i = live[r]
            values[i, k] = partial[r, first, k]
            rounding = err[r, first] + (5.0 * (n + first) + 2.0) * _EPS
            bound[i, k] = tail[r, first, k] + rounding * values[i, k]
            open_ &= ~new
            keep = open_.any(axis=1)
            if not keep.any():
                return values, bound
            if keep.all():
                keep = None
            else:
                live, open_, sums = live[keep], open_[keep], sums[keep]
        n += rows
        w, err, mass = blocks.send(keep)


def _log_multiplier(family: KernelFamily, ts: np.ndarray, lam: float) -> np.ndarray:
    """ln phi(lam) = ln sum_n w_n (1 - lam)^n at every time: e^{-t lam^{alpha/2}}
    (stable) or 2 (x/2)^nu K_nu(x) / Gamma(nu), x = t sqrt(lam) (wave); x is
    capped at 1e9, which only raises the value, as phi falls with x."""
    if family.kind == "stable":
        return -ts * lam ** (0.5 * family.alpha)
    nu = family.nu
    xs = [min(t * math.sqrt(lam), 1e9) for t in ts.tolist()]
    return np.array(
        [_LN2 + _log_kve(nu, x) - math.lgamma(nu) + nu * math.log(0.5 * x) - x for x in xs]
    )


def _walk_mixture(q: int, family: KernelFamily, ts, ks, spec: QuadratureSpec):
    """Stable or wave values K[k, i] = K_{ts[i]}(k), q >= 2: one weight stream
    for all times, summed by _mix."""
    rho = _walk_decay(q)
    ts = np.asarray(ts, dtype=float)
    # every value is at most phi0(k) sum_n W_n = phi0(k) phi(1 - rho)
    log_mass = _log_multiplier(family, ts, 1.0 - rho)
    out = np.zeros((len(ks), len(ts)))
    live = np.flatnonzero(log_mass >= math.log(_TINY))
    if not len(live):
        return out
    if family.kind == "stable":
        blocks = _stable_weights(family.alpha, ts[live], rho)
    else:
        blocks = _wave_weights(family.nu, ts[live], rho)
    values, bound = _mix(q, blocks, len(live), ks, spec)
    for i, t in enumerate(ts[live].tolist()):
        _check_bound(values[i], bound[i], spec, f"{family.label()} kernel at q={q}, t={t:g}")
    out[:, live] = values.T
    return out


class _Rule(NamedTuple):
    """A q = 1 family's mixing rule: nodes z, K15 and embedded G7 weights, the
    error of each weight, the power of t in c = t^power, and tail(c), a bound
    on the mass cut off at both ends. None depends on t."""

    z: np.ndarray
    w: np.ndarray
    gauss: np.ndarray
    err: np.ndarray
    power: float
    tail: Callable[[float], float]


def _mixture(edges, weigh, power: float, tail) -> _Rule:
    """A q = 1 family as a positive mixture of heat kernels at many times,
    K_t(k) = sum_i w_i H_{c z_i}(k), c = t^power, H_s(k) = e^{-s} I_k(s), on
    G7/K15 panels in x = ln z between consecutive edges; weigh(x) gives the
    mixing density in x and its error at the nodes (a row per panel)."""
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    x = 0.5 * (edges[:-1, None] + edges[1:, None]) + half * _XK
    density, err = weigh(x)
    return _Rule(np.exp(x).ravel(), (density * half * _WK).ravel(),
                 (density * half * _WG15).ravel(), (err * half * _WK).ravel(), power, tail)


def _heat_cap(s):
    """An upper bound on H_s(k) = e^{-s} I_k(s) at every k, as computed too:
    the k = 0 value with ive's error (IVE_REL_ERR, IVE_ABS_ERR)."""
    return (1.0 + IVE_REL_ERR) * bessel_i_scaled(0, s) + IVE_ABS_ERR


_THIRD_DECADE = math.log(10.0) / 3.0
_EXP_EDGES = (1.5, 2.5, 4, 6, 9, 13, 18, 25, 35, 50, 70, 100, 150, 230, 350, 500, 700)
_LN_Y_MAX = 700.0  # extra panels stop here, where e^{ln y} is still finite


def _stable_mixture(alpha: float):
    """P_t^alpha on the line, int f_{alpha,1}(y) H_{t^{2/alpha} y}(k) dy, on
    panels in ln y weighted by y f(y) (special.log_y_density).

    With beta = alpha/2 and g = beta/(1 - beta), the density of ln y is about
    1/g wide: the panels are 1/(4g) wide at its mode, ln A(pi/2)/g, and grow by
    1.5 up to a third of a decade. Left of the mode it falls like e^{-L}, L =
    c1 y^-g, so edges also sit at fixed L, out to L = 700. Past the last edge
    y_hi >= e^{60/(beta + 1/2)} the mass is at most H_{c y_hi}(0) P(Y > y_hi),
    P(Y > y) <= y^-beta/(1 - 1/e) by Markov's inequality on 1 - e^{-Y/y}.
    That grows like c^{-1/2} as c falls, so for tiny t extend(c, target)
    gives panels a third of a decade wide past y_hi, until the mass past them
    is at most target, and the mass past each of them.
    """
    beta = 0.5 * alpha
    g = beta / (1.0 - beta)
    c1 = stable_exponent_constant(alpha)
    hi, lo = 60.0 / (beta + 0.5), (math.log(c1) - math.log(_EXP_EDGES[-1])) / g
    mode = (beta * math.log(math.sin(0.5 * math.pi * beta))
            + (1.0 - beta) * math.log(math.sin(0.5 * math.pi * (1.0 - beta)))) / beta
    edges = [x for x in ((math.log(c1) - math.log(L)) / g for L in _EXP_EDGES) if x < mode]
    left = right = mode
    width = min(0.25 / g, _THIRD_DECADE)
    while right < hi or left > lo:
        edges += [left, right]
        left, right, width = left - width, right + width, min(1.5 * width, _THIRD_DECADE)
    edges = sorted({x for x in edges + [right] if x >= lo - 1e-9})
    left_mass = math.exp(-c1 * math.exp(edges[0]) ** -g)

    def mass_past(x_hi, c):
        y_hi = math.exp(x_hi)
        return _heat_cap(c * y_hi) * y_hi**-beta / (1.0 - math.exp(-1.0)) + left_mass

    def weigh(x):
        return log_y_density(alpha, x)

    def extend(c, target):
        more, tails = [edges[-1]], [mass_past(edges[-1], c)]
        while tails[-1] > target and more[-1] < _LN_Y_MAX:
            more.append(more[-1] + _THIRD_DECADE)
            tails.append(mass_past(more[-1], c))
        return _mixture(more, weigh, 2.0 / alpha, None), np.array(tails[1:])

    return _mixture(edges, weigh, 2.0 / alpha, lambda c: mass_past(edges[-1], c)), extend


def _wave_mixture(nu: float):
    """T_t^nu on the line, int e^{-v} v^{nu-1}/Gamma(nu) H_{t^2/(4v)}(k) dv, on
    panels in ln z = -ln(4v) for v in [v_lo, 800], v_lo = e^{-max(60, 30/nu)},
    with closed-form weights that carry their rounding. The Gamma density and
    the heat kernel's peak are about 1/sqrt(nu) wide in ln v; so are the
    panels, at most 1. The mass cut off is at most H_{t^2/(4 v_lo)}(0)
    P(V < v_lo) + P(V > 800).
    """
    log_v_lo = -max(60.0, 30.0 / nu)
    v_lo = math.exp(log_v_lo)
    lo, hi = -math.log(3200.0), -math.log(4.0) - log_v_lo

    def weigh(x):
        log_v = -math.log(4.0) - x
        density = np.exp(nu * log_v - np.exp(log_v) - math.lgamma(nu))
        rounding = np.abs(nu * log_v) + np.exp(log_v) + abs(math.lgamma(nu)) + 8.0
        return density, rounding * _EPS * density

    def tail(c):
        return _heat_cap(c / (4.0 * v_lo)) * gammainc(nu, v_lo) + gammaincc(nu, 800.0)

    edges = np.linspace(lo, hi, math.ceil((hi - lo) * max(1.0, math.sqrt(nu) / 1.2)) + 1)
    return _mixture(edges, weigh, 2.0, tail), None


@lru_cache(maxsize=8)  # node sets kept, the least recently used dropped first
def _time_mixture(family: KernelFamily):
    """The family's rule and, for stable, its extend(c, target) (else None)."""
    if family.kind == "stable":
        return _stable_mixture(family.alpha)
    return _wave_mixture(family.nu)


_SEGMENT = 32  # orders per run of the downward Bessel recurrence
_SEED_MIN = 2.0**-900  # seeds below this leave their segment to ive


def _bessel_column(kmax: int, x) -> np.ndarray:
    """H[k, i] = e^{-x_i} I_k(x_i) for 0 <= k <= kmax, by the downward
    recurrence ive_{k-1} = ive_{k+1} + (2k/x) ive_k (Gautschi, SIAM Rev. 9,
    1967).

    The orders are cut into segments of 32, and each runs down from two
    seeds, bessel_i_scaled at the next multiple of 32 above it and one more:
    a value depends on (k, x) only, not on kmax. Every term is positive, so
    each of the at most 32 steps adds at most 4 eps to the relative error of
    the seeds. In a column whose upper seed is below 2^-900 (x tiny against
    the order, or 0) the segment is taken from bessel_i_scaled directly.
    """
    x = np.asarray(x, dtype=float)
    tops = _SEGMENT * np.arange(1, kmax // _SEGMENT + 2)
    seeds = bessel_i_scaled(np.stack([tops, tops + 1], axis=1).reshape(-1, 1), x)
    out = np.empty((tops[-1], len(x)))
    for top, seed, above in zip(tops.tolist(), seeds[::2], seeds[1::2]):
        upper, mid = above, seed  # ive_{k+1} and ive_k, from k = top down
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for k in range(top, top - _SEGMENT, -1):
                upper, mid = mid, upper + (2.0 * k) / x * mid
                out[k - 1] = mid
        small = np.flatnonzero(above < _SEED_MIN)
        if len(small):
            orders = np.arange(top - _SEGMENT, top)[:, None]
            out[top - _SEGMENT : top, small] = bessel_i_scaled(orders, x[small])
    return out[: kmax + 1]


def _panel_sums(rule: _Rule, c: float, ks: np.ndarray):
    """terms[k, i] = w_i H_{c z_i}(k) (_bessel_column), the K15 sum of each
    panel, and a bound on each panel's error: its Gauss-Kronrod estimate and
    its weights' errors."""
    h = _bessel_column(int(ks.max()), c * rule.z)[ks]
    terms = h * rule.w
    starts = np.arange(0, len(rule.z), len(_XK))
    panels = np.add.reduceat(terms, starts, axis=1)
    err = (kronrod_error(panels, np.add.reduceat(h * rule.gauss, starts, axis=1))
           + np.add.reduceat(h * rule.err, starts, axis=1))
    return terms, panels, err


def _line_mixture(family: KernelFamily, ts, ks, spec: QuadratureSpec):
    """Stable or wave values K[k, i] = K_{ts[i]}(k) on the line (q = 1): per
    time one Bessel matrix H_{c z_i}(k) summed against the family's weights,
    each value as numpy's pairwise sum of one contiguous row (the same bits
    alone and in a block). The bound adds the panels' errors, the cut-off
    mass, ive's error (IVE_REL_ERR, which a recurrence of positive terms
    carries unchanged, and IVE_ABS_ERR times the weights, whose sum is about
    1), the rounding of the recurrence (4 eps a step, 34 steps with the seeds)
    and of the sum.

    Where the stable rule's cut-off mass at c is above 1e-3 of a value's
    tolerance, that value adds the panels of extend(c) up to the first past
    which the mass is below it, as a running sum over panels: a value still
    depends on (t, k, spec) only.
    """
    rule, extend = _time_mixture(family)
    ks = np.asarray(ks, dtype=np.int64)
    out = np.empty((len(ks), len(ts)))
    for i, t in enumerate(np.asarray(ts, dtype=float).tolist()):
        c = t**rule.power
        tail = rule.tail(c)
        terms, _, err = _panel_sums(rule, c, ks)
        values = np.add.reduce(terms, axis=1)
        rounding = IVE_REL_ERR + (math.log2(len(rule.z)) + 20.0 + 4.0 * 34.0) * _EPS
        bound = err.sum(axis=1) + tail + rounding * values + 2.0 * IVE_ABS_ERR
        target = 1e-3 * np.maximum(spec.abs_tol, spec.rel_tol * values)
        short = np.flatnonzero(target < tail) if extend else []
        if len(short):
            more, tails = extend(c, target[short].min())
            _, panels, err = _panel_sums(more, c, ks[short])
            last = np.minimum((tails > target[short, None]).sum(axis=1), len(tails) - 1)
            rows = np.arange(len(short))
            extra = np.cumsum(panels, axis=1)[rows, last]
            bound[short] += (np.cumsum(err, axis=1)[rows, last] + tails[last] - tail
                             + (rounding + (last + 2.0) * _EPS) * extra + _EPS * values[short])
            values[short] += extra
        _check_bound(values, bound, spec, f"{family.label()} kernel at q=1, t={t:g}")
        out[:, i] = values
    return out


def _binomial_weights(beta: float, rho: float):
    """Endless blocks (W, err, tail) of W_n = |binom(beta, n)| rho^n (W_0 = 0),
    one running product from W_1 = beta rho, each good to (6n + 2) eps, and
    P(N > n) = sum_{m>n} |binom(beta, m)| = |binom(beta - 1, n)| exactly, as
    (1 - z)^{beta-1} = (1 - z)^beta/(1 - z) has the partial sums of (1 -
    z)^beta as its coefficients: the running product of (m - beta)/m, raised
    by its rounding, 3 eps a factor."""
    w, rest = -1.0, 1.0  # the running products, carried from block to block
    n = 0
    while True:
        m = np.arange(max(n, 1), n + _BLOCK, dtype=float)
        block = np.cumprod(np.concatenate([[w], (m - 1.0 - beta) / m * rho]))
        tail = np.cumprod(np.concatenate([[rest], (m - beta) / m]))
        w, rest = block[-1], tail[-1]
        if n:
            block, tail = block[1:], tail[1:]
        else:
            block[0] = 0.0
        rows = np.arange(n, n + _BLOCK)
        yield (block[None, :], ((6.0 * rows + 2.0) * _EPS)[None, :],
               np.minimum(1.0, tail * (1.0 + (3.0 * rows + 2.0) * _EPS))[None, :])
        n += _BLOCK


def fractional_kernel(
    q: int, alpha: float, kmax: int, spec: QuadratureSpec = DEFAULT_SPEC
) -> np.ndarray:
    """L^{alpha/2} delta_o(k) for 0 <= k <= kmax, the radial kernel of the
    fractional power.

    L^beta = (I - P)^beta, beta = alpha/2, has the coefficients 1 and
    -|binom(beta, n)|, n >= 1, in P, and they sum to 0. So for q >= 2
        L^beta delta_o(k) = delta_{k0} - sum_{n >= 1} |binom(beta, n)| u_n(k),
    certified as the stable and wave mixtures are. On the line (q = 1) it is
    -2^-beta sin(pi beta)/pi Gamma(2 beta + 1) Gamma(k - beta) / Gamma(k + 1 + beta),
    2^-beta Gamma(2 beta + 1) / Gamma(1 + beta)^2 at k = 0 (Ciaurri, Roncal,
    Stinga, Torrea and Varona, Adv. Math. 330, 2018; reflection formula).
    """
    _check_q(q)
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    beta = 0.5 * alpha
    if q == 1:
        k = np.arange(1.0, kmax + 1.0)
        scale = 2.0**-beta
        out = -scale * math.sin(math.pi * beta) / math.pi * beta_fn(k - beta, 2.0 * beta + 1.0)
        head = scale * math.exp(math.lgamma(2.0 * beta + 1.0) - 2.0 * math.lgamma(1.0 + beta))
        return np.concatenate([[head], out])
    sums, bound = _mix(q, _binomial_weights(beta, _walk_decay(q)), 1, range(kmax + 1), spec)
    values = -sums[0]
    values[0] += 1.0
    _check_bound(values, bound[0] + _EPS * np.abs(values), spec,
                 f"fractional power at q={q}, alpha={alpha:g}")
    return values


def comparator_Z(alpha: float, t: float, k: int) -> float:
    """The closed-form comparison kernel t |k|^(-1-alpha) on the line (1 at 0)."""
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    if t <= 0:
        raise ValueError(f"t must be > 0, got {t}")
    if k == 0:
        return 1.0
    return t * float(abs(k)) ** (-1.0 - alpha)


@dataclass(frozen=True)
class RadialKernel:
    """Tabulated k -> K_t(k) on a ball; tail_bound, in [0, 1], bounds the
    mass sum_{k > radius} sphere_size(k) K_t(k) beyond it."""

    geom: TreeGeometry
    family: KernelFamily
    t: float
    values: tuple[float, ...]
    tail_bound: float

    def value(self, k: int) -> float:
        if not 0 <= k <= self.geom.radius:
            raise ValueError(f"k={k} outside table radius {self.geom.radius}")
        return self.values[k]

    def mass(self) -> float:
        return sum(
            sphere_size(self.geom, k) * v for k, v in enumerate(self.values)
        )


def _mass_beyond(family: KernelFamily, t: float, r: int) -> float:
    """A bound in [0, 1] on the mass of K_t beyond radius r, at every q.

    K_t = sum_n w_n P^n and a walk of n steps stays within distance n, so
    the mass beyond r is at most P(N > r), P(N = n) = w_n. Heat: N is
    Poisson(t), P(N > r) = gammainc(r + 1, t), whose relative error stays
    below 1.3 eps (|(r + 1) ln t| + t + ln (r + 1)! + 16), the rounding of
    its log terms (against mpmath, r <= 2000, 1e-4 <= t <= 1e5); 8 times
    that is added. Stable and wave: 1 - (w_0 + ... + w_r) from the streams
    at rho = 1, plus the weights' rounding; 1 where Chernoff, P(N <= r) <=
    2^r phi(1/2), is below eps, which keeps far times out of the streams.
    """
    if family.kind == "heat":
        rounding = abs((r + 1) * math.log(t)) + t + math.lgamma(r + 2.0) + 16.0
        return min(1.0, float(gammainc(r + 1, t)) * (1.0 + 8.0 * rounding * _EPS))
    ts = np.array([t])
    if r * _LN2 + float(_log_multiplier(family, ts, 0.5)[0]) < math.log(_EPS):
        return 1.0
    if family.kind == "stable":
        w, err, _ = next(_stable_weights(family.alpha, ts, 1.0, r + 1))
    else:
        w, err, _ = next(_wave_weights(family.nu, t, 1.0, r + 1))
    w, err = w.ravel(), err.ravel()
    head = math.fsum(w.tolist())
    return min(1.0, max(0.0, 1.0 - head) + float(w @ err) + (r + 2) * _EPS)


def kernel_block(
    q: int, family: KernelFamily, ts, kmax: int, spec: QuadratureSpec = DEFAULT_SPEC
) -> np.ndarray:
    """K[j, i] = K_{ts[i]}(j) for 0 <= j <= kmax, every value certified.

    Heat makes one heat_kernel_many call over every (j, t) pair; for q >= 2
    stable and wave read every j from their weight streams (_walk_mixture),
    for q = 1 from one Bessel matrix per time (_line_mixture). A value
    depends on (q, family, t, j, spec) only, not on the block it comes in.
    """
    _check_q(q)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    for t in ts:
        _check_time(t)
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    if family.kind == "heat":
        return heat_kernel_many(q, np.arange(kmax + 1)[:, None], ts, spec)
    if q > 1:
        return _walk_mixture(q, family, ts, range(kmax + 1), spec)
    return _line_mixture(family, ts, range(kmax + 1), spec)


def tabulate(
    geom: TreeGeometry,
    family: KernelFamily,
    t: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> RadialKernel:
    """Tabulate K_t(k) for 0 <= k <= radius, one column of kernel_block, with
    a bound on the mass beyond the ball (_mass_beyond)."""
    values = kernel_block(geom.q, family, [t], geom.radius, spec)[:, 0]
    return RadialKernel(geom, family, t, tuple(float(v) for v in values),
                        _mass_beyond(family, t, geom.radius))


def write_kernel_csv(kernel: RadialKernel, fh) -> None:
    """CSV schema: metadata comment line, then k,sphere_size,value,cumulative_mass;
    the last cumulative_mass is within the metadata's tail_bound of 1."""
    fam = kernel.family
    params = ""
    if fam.kind == "stable":
        params = f"alpha={fam.alpha:.17g}"
    elif fam.kind == "wave":
        params = f"nu={fam.nu:.17g}"
    fh.write(
        f"# q={kernel.geom.q},family={fam.kind},params={params},"
        f"t={kernel.t:.17g},tail_bound={kernel.tail_bound:.17g}\n"
    )
    fh.write("k,sphere_size,value,cumulative_mass\n")
    cum = 0.0
    for k, v in enumerate(kernel.values):
        sz = sphere_size(kernel.geom, k)
        cum += sz * v
        fh.write(f"{k},{sz},{v:.16e},{cum:.16e}\n")
