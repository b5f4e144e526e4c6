"""Radial kernels of the heat semigroup and its two subordinated families.

All three families are functions of the averaging operator P = I - L,
L f = f - (mean of f over neighbors). For q >= 2 each is a walk mixture

    K_t(k) = sum_n w_n u_n(k) = sum_n W_n v_n(k),   W_n = w_n rho^n,

where u_n(k) is the probability that the n-step simple random walk from o
sits at one given vertex at distance k, v_n(k) = u_n(k) rho^{-n}, rho =
2 sqrt(q)/(q+1), and w_n >= 0 with sum_n w_n = 1 are the Taylor coefficients
of the family's multiplier phi(1 - z) (Figa-Talamanca and Nebbia, LMS LN
162; Cowling, Meda and Setti, Trans. AMS 352; Stinga and Torrea, Comm. PDE
35). One table per q holds v and grows on demand; it does not depend on t.

- heat: w_n = e^{-t} t^n / n!, summed over a window of n around t rho per
  time (heat_kernel_many);
- stable P_t^alpha: the coefficients of exp(-t (1 - z)^{alpha/2}), by a
  recurrence that only adds positive terms;
- wave-type T_t^nu: w_n = 2 (t/2)^{nu+n} K_{n-nu}(t) / (n! Gamma(nu)), by the
  upward Bessel-K recurrence.

Every term is positive, so each value keeps its relative accuracy at any k
and t. For the stable and wave families the ground spherical function bounds
the walk, v_n(k) <= phi0(k) = (1 + k (q-1)/(q+1)) q^{-k/2}, so the terms
beyond N sum to at most phi0(k) rho^{N+1}; N is the first index where that
is 1e-3 rel_tol of the partial sum. Each value carries that tail plus a
rounding bound, checked against the QuadratureSpec. The radial kernel of
L^{alpha/2} (fractional_kernel) is a walk mixture of one sign, certified
the same way.

kernel_block(q, family, ts, kmax) gives K[j, i] = K_{ts[i]}(j) for a whole
block of times: one heat_kernel_many call over every (j, t) for heat, one
weight stream for all times of a stable block. tabulate is one column plus
a bound on the mass beyond the ball from the w_n alone (_mass_beyond).

q = 1 has no spectral gap and u_n ~ n^{-1/2}: heat routes through the Bessel
form H_s(k) = e^{-s} I_k(s), and the other two families are positive
mixtures of it, K_t(k) = sum_i w_i H_{c z_i}(k), over the stable density
(z = y, c = t^{2/alpha}) or the Gamma(nu) density (z = 1/(4v), c = t^2), on
nodes fixed per alpha or nu (_line_mixture).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import gammainc, gammaincc, gammaln, kve, xlog1py, xlogy

from .errors import NumericalError
from .geometry import TreeGeometry, sphere_size
from .quadrature import _WG15, _WK, _XK, DEFAULT_SPEC, QuadratureSpec, kronrod_error
from .special import bessel_i_scaled, log_y_density, stable_exponent_constant

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
            if self.nu is None or not self.nu > 0.0:
                raise ValueError("wave family needs nu > 0")
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


def _time_cutoff(q: int) -> float:
    """Beyond s_cut = 700/b, b = 1 - rho the spectral gap, H_s <= e^{-s b}
    underflows; q = 1 has no gap and no cutoff."""
    b = 1.0 - _walk_decay(q)
    return 700.0 / b if b > 0 else math.inf


def _log_stirling(n: np.ndarray) -> np.ndarray:
    """c_n = log n! - n log n + n, so log(e^{-mu} mu^n / n!) = -c_n - bd0(n, mu).

    Below 16 from lgamma (every term is small); above, 0.5 log(2 pi n) plus
    the Stirling series, which avoids the cancellation of log n! against
    n log n (Loader, "Fast and accurate computation of binomial
    probabilities", 2000).
    """
    n = np.asarray(n, dtype=float)
    out = np.empty_like(n)
    small = n < 16
    ns = n[small]
    out[small] = gammaln(ns + 1.0) - xlogy(ns, ns) + ns
    nb = n[~small]
    x = 1.0 / (nb * nb)
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - x / 1188) * x) * x) * x) / nb
    out[~small] = 0.5 * np.log(2.0 * math.pi * nb) + series
    return out


def _bd0(n, mu):
    """n log(n/mu) + mu - n >= 0, accurate near n = mu; bd0(0, mu) = mu."""
    d = n - mu
    with np.errstate(over="ignore"):  # d / mu = inf as mu -> 0: the weight is 0
        return xlog1py(n, d / mu) - d


class _WalkTable:
    """v[n, j] = u_n(j) rho^{-n} for one q, where u_n(j) is the probability
    that the n-step simple random walk from o sits at one given vertex at
    distance j. u_n(j) <= rho^n (the l^2 norm of P^n), so 0 <= v <= 1, and
    the rescaling keeps rows out to n ~ s_cut rho from underflowing. Beside
    it, c[n] = _log_stirling(n) for the Poisson weights.

    Rows follow the recursion
        v_{n+1}(0) = v_n(1) (q+1)/(2 sqrt q),
        v_{n+1}(j) = (v_n(j-1) + q v_n(j+1)) / (2 sqrt q),
    run on a state wider than the stored columns. A walk bridge ending at
    distance j <= J after n steps reaches J + 10 sqrt(n) with probability
    below e^{-200}, so a state of that width gives the bits of the untruncated
    recursion, whatever widths earlier builds used. The table is built on
    first use. Rows extend from the kept state; more columns (in steps of 32)
    rebuild it, out to the rows that call needs.
    """

    def __init__(self, q: int):
        self.q = q
        self.v = np.zeros((0, 0))
        self.c = np.zeros(0)
        self.rows = 0
        self.state = None
        # every row a time up to s_cut asks for (see _heat_sums); the state
        # width covers them, so rows never outgrow it
        mu = _time_cutoff(q) * _walk_decay(q)
        self.row_plan = int(mu + 12.0 * math.sqrt(mu) + 82.0) if q > 1 else 0
        self.lock = threading.Lock()

    def get(self, n_max: int, j_max: int) -> tuple[np.ndarray, np.ndarray]:
        """(v, c) with at least rows 0..n_max and columns 0..j_max."""
        with self.lock:
            if j_max >= self.v.shape[1] or n_max >= self.row_plan:
                self.row_plan = max(2 * self.row_plan, n_max + 1)
                cols = max(self.v.shape[1], 32 * (j_max // 32 + 1))
                width = cols + int(math.ceil(10.0 * math.sqrt(self.row_plan))) + 2
                self.state = np.zeros(width)
                self.state[0] = 1.0
                self.v = np.empty((64, cols))
                self.v[0] = self.state[:cols]
                self.rows = 1
            if n_max >= self.rows:
                self._extend(n_max + 1)
            return self.v, self.c

    def _extend(self, rows: int) -> None:
        if rows > len(self.v):
            grown = np.empty((max(rows, 2 * len(self.v)), self.v.shape[1]))
            grown[: self.rows] = self.v[: self.rows]
            self.v = grown
        if rows > len(self.c):
            self.c = _log_stirling(np.arange(len(self.v)))
        q, cols, u = self.q, self.v.shape[1], self.state
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


_WALK_TABLES: dict = {}
_WALK_TABLES_LOCK = threading.Lock()


def _walk_table(q: int) -> _WalkTable:
    with _WALK_TABLES_LOCK:
        if q not in _WALK_TABLES:
            _WALK_TABLES[q] = _WalkTable(q)
        return _WALK_TABLES[q]


def _heat_sums(q: int, k: np.ndarray, s: np.ndarray):
    """sum_n e^{-s} s^n/n! u_n(k) for pairs (k[i], s[i]) with 0 < s <= s_cut,
    with a bound on the error of each value.

    Written as e^{-s b} sum_n Poisson(n; s rho) v_n(k), b = 1 - rho. Each time
    sums its own window of n from max(k, mu - 12 sqrt(mu) - 40) to
    max(k, mu + 12 sqrt(mu) + 40) + 40, mu = s rho, over the n of k's parity
    (u_n(k) = 0 otherwise). The window and the order of the sum depend only
    on (s, k), so a value does not depend on the batch it comes in.

    The bound adds the Poisson mass outside the window (Chernoff,
    P(X >= a) <= e^{-bd0(a, mu)} for a >= mu and alike below, times v <= 1)
    and rounding: about 4 eps per step of the recursion and the terms' log
    weights, each good to eps (s b + |n - mu|).
    """
    rho = _walk_decay(q)
    b = 1.0 - rho
    mu = s * rho
    spread = 12.0 * np.sqrt(mu) + 40.0
    lo = np.maximum(k, np.floor(mu - spread)).astype(np.int64)
    lo += (lo - k) % 2
    hi = (np.maximum(k, mu + spread) + 40.0).astype(np.int64)
    counts = (hi - lo) // 2 + 1
    starts = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(len(s)), counts)
    n = lo[owner] + 2 * (np.arange(int(counts.sum())) - starts[owner])
    table, c = _walk_table(q).get(int(hi.max()), int(k.max()))
    mu_n = mu[owner]
    terms = np.exp(-(s[owner] * b + c[n] + _bd0(n, mu_n))) * table[n, k[owner]]
    values = np.add.reduceat(terms, starts)

    outside = np.exp(-_bd0(hi + 1, mu))
    below = lo > k
    outside[below] += np.exp(-_bd0(lo[below] - 1, mu[below]))
    bound = np.exp(-s * b) * outside + (4.0 * hi + s * b + 16.0) * _EPS * values
    return values, bound


def _check_bound(values, bound, spec: QuadratureSpec, what: str) -> None:
    tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(values))
    if np.any(bound > tol):
        err = float(np.max(bound))
        raise NumericalError(
            f"{what}: error bound {err:.3e} above tolerance", err_estimate=err
        )


def heat_kernel_many(q: int, k, s, spec: QuadratureSpec = DEFAULT_SPEC):
    """H_s(k) over distances k and times s that broadcast against each other
    (one k and an array of times, or a column of k against a row of times);
    q = 1 uses the Bessel form.

    For q >= 2, the walk mixture sum_n e^{-s} s^n/n! u_n(k); each value is
    certified to max(abs_tol, rel_tol |value|) or NumericalError is raised.
    Times beyond s_cut give 0.
    """
    _check_q(q)
    k, s = np.broadcast_arrays(np.asarray(k, dtype=np.int64),
                               np.atleast_1d(np.asarray(s, dtype=float)))
    if np.any(np.isnan(s)) or np.any(s <= 0):
        raise ValueError("times must be positive, not NaN")
    if np.any(k < 0):
        raise ValueError(f"k must be >= 0, got {k.min()}")
    if q == 1:
        return np.asarray(bessel_i_scaled(k, s), dtype=float)
    out = np.zeros(s.shape)
    live = s <= _time_cutoff(q)
    if live.any():
        vals, bound = _heat_sums(q, k[live], s[live])
        _check_bound(vals, bound, spec, f"heat kernel at q={q}")
        out[live] = vals
    return out


_BLOCK = 256  # weights are made and summed this many rows at a time


def _stable_weights(alpha: float, ts: np.ndarray, rho: float):
    """Blocks W[i, n] = w_n rho^n for P_t^alpha at every t = ts[i], each with
    a bound on the relative error of every weight; the stream is endless.

    The W_n are the Taylor coefficients of exp(-t (1 - rho z)^beta), beta =
    alpha/2. With c_m = -t (-1)^m binom(beta, m) > 0 for m >= 1,
        n W_n = sum_{m=1}^n m c_m rho^m W_{n-m},
    a sum of positive terms. The recurrence runs on e_n = W_n e^t from e_0 = 1,
    since e^{-t} is subnormal at t = 720 and 0 at t = 800. Every 8 steps a row
    whose newest entry has passed 2^256 is scaled by 2^-256, exactly (an entry
    is below 3t/n times the largest before it), and each W_n keeps the scale it
    was made at. Each time's row of e is stored newest first, so each step is
    numpy's pairwise sum of one contiguous row of products: a weight has the
    same bits alone and in any batch, however far the stream is read.

    Rounding, to first order: a_m = m c_m rho^m is good to (4m + 2) eps; a
    product, numpy's pairwise sum of n terms (at most log2 n + 26 roundings)
    and the division add log2 n + 28. Since every term is positive, induction
    on n gives (log2 n + 34) n eps, and e^{-t} = g 2^-E adds (t + 2) eps.
    """
    beta = 0.5 * alpha
    exp2 = [math.ceil(t / _LN2) for t in ts.tolist()]
    g = np.array([math.exp(x * _LN2 - t) for x, t in zip(exp2, ts.tolist())])  # e^-t = g 2^-exp2
    exp2 = np.array(exp2, dtype=np.int64)
    neg_t = -ts[:, None]
    # e_j sits at er[:, cap - 1 - j], so e_{i-1}, ..., e_0 is er[:, cap - i:]
    a = er = np.zeros((len(ts), 0))
    cap = n = 0
    shift = np.zeros(len(ts), dtype=np.int64)
    while True:
        hi = n + _BLOCK
        if hi > cap:
            m = np.arange(1.0, 2 * hi)
            a = neg_t * m * np.cumprod((m - 1.0 - beta) / m * rho)  # a[:, m-1] = m c_m rho^m
            grown = np.empty((len(ts), 2 * hi))
            grown[:, 2 * hi - n :] = er[:, cap - n :]
            er, cap = grown, 2 * hi
        rec = np.empty((len(ts), _BLOCK))  # entries of this block made before a rescale
        kept = np.full(len(ts), n)  # e_j for n <= j < kept[i] are in rec[i]
        shifts = np.repeat(shift[:, None], _BLOCK, axis=1)
        for i in range(n, hi):
            col = cap - 1 - i
            if not i:
                er[:, col] = 1.0
                continue
            v = np.divide(np.add.reduce(a[:, :i] * er[:, col + 1 :], 1), i, out=er[:, col])
            if i % 8 == 0 and v.max() > 2.0**256:
                for r in np.flatnonzero(v > 2.0**256):
                    rec[r, kept[r] - n : i - n] = er[r, col + 1 : cap - kept[r]][::-1]
                    kept[r] = i
                    er[r, col:] = np.ldexp(er[r, col:], -256)
                    shift[r] += 256
                    shifts[r, i - n :] += 256
        rows = np.arange(n, hi)
        rec = np.where(rows >= kept[:, None], er[:, cap - hi : cap - n][:, ::-1], rec)
        err = ((np.log2(rows + 1.0) + 34.0) * rows + ts[:, None] + 2.0) * _EPS
        yield np.ldexp(rec * g[:, None], shifts - exp2[:, None]), err
        n = hi


def _log_kve(v: float, x: float) -> float:
    """log(K_v(x) e^x), for 0 < x <= 1e9 (kve is nan above ~1e10). Where kve
    overflows (v log(2/x) > 709), K_v(x) = Gamma(v)/2 (2/x)^v to relative
    O(x^{2 min(v, 1)}), below e^{-1400} there."""
    val = float(kve(v, x))
    if math.isinf(val):
        return math.lgamma(v) - _LN2 + v * math.log(2.0 / x)
    return math.log(val)


def _wave_weights(nu: float, t: float, rho: float):
    """Blocks of W_n = 2 (t/2)^{nu+n} K_{n-nu}(t) rho^n / (n! Gamma(nu)) for
    T_t^nu, each with a bound on the relative error of every weight; the
    stream is endless.

    W_n = W_{n-1} (t rho/2) r_n / n with r_n = K_{n-nu}(t) / K_{n-1-nu}(t):
    from kve while n <= ceil(nu), then r_{n+1} = 1/r_n + 2(n - nu)/t, the
    upward recurrence K_{m+1} = K_{m-1} + (2m/t) K_m, whose terms are
    positive for m >= 0. Each W_n is a mantissa in [1/2, 1) times a power of
    2, so neither (t/2)^n K_{n-nu}(t) nor W_0 ~ e^{-t} leaves the float range.
    The bound follows the relative error of r_n step by step (kve is taken as
    good to 16 eps) and adds 6 eps per step for the product.
    """
    n0 = math.ceil(nu)
    log_k = [_log_kve(abs(n - nu), t) for n in range(n0 + 1)]
    parts = (math.log(2.0), nu * math.log(0.5 * t), log_k[0], -t, -math.lgamma(nu))
    log_w0 = math.fsum(parts)
    exp2 = math.floor(log_w0 / _LN2)
    mant = math.exp(log_w0 - exp2 * _LN2)
    werr = (sum(abs(p) for p in parts) + 2.0 * abs(log_w0) + 20.0) * _EPS
    half = 0.5 * t * rho
    r = rerr = 0.0
    n = 0
    while True:
        mants = np.empty(_BLOCK)
        exps = np.empty(_BLOCK, dtype=np.int64)
        err = np.empty(_BLOCK)
        for i in range(_BLOCK):
            if n:
                if n <= n0:
                    r = math.exp(log_k[n] - log_k[n - 1])
                    rerr = (abs(log_k[n]) + abs(log_k[n - 1]) + 34.0) * _EPS
                else:
                    inv = 1.0 / r
                    lin = 2.0 * (n - 1 - nu) / t
                    r = inv + lin
                    rerr = (inv * (rerr + _EPS) + 3.0 * lin * _EPS) / r + _EPS
                mant, e2 = math.frexp(mant * (half * r / n))
                exp2 += e2
                werr += rerr + 6.0 * _EPS
            mants[i], exps[i], err[i] = mant, exp2, werr
            n += 1
        yield np.ldexp(mants, exps), err


def _mix(q: int, blocks, times: int, ks, spec: QuadratureSpec):
    """S[i, k] = sum_{n <= N} W[i, n] v_n(k) over weight blocks (a row per
    time i), with a bound on the error of each sum.

    N is the first n where phi0(k) rho^{n+1}, the bound on the rest, is at
    most 1e-3 rel_tol of the running sum S_n (or of the smallest normal
    number, so that a value that underflows ends too); so a value is the same
    to the bit alone and in a block. The bound adds that tail to the weights'
    rounding and 5 eps per row for the walk table and the sum.
    """
    rho = _walk_decay(q)
    ks = np.asarray(ks, dtype=np.int64)
    phi0 = (1.0 + ks * ((q - 1.0) / (q + 1.0))) * float(q) ** (-0.5 * ks)
    walk = _walk_table(q)
    sums = np.zeros((times, len(ks)))
    values, bound = np.empty_like(sums), np.empty_like(sums)
    open_ = np.ones(sums.shape, dtype=bool)
    n = 0
    while open_.any():
        w, err = next(blocks)
        rows = w.shape[1]
        table, _ = walk.get(n + rows - 1, int(ks.max()))
        terms = w[:, :, None] * table[n : n + rows, ks]
        terms[:, 0] += sums
        partial = np.cumsum(terms, axis=1)
        tail = rho ** np.arange(n + 1.0, n + rows + 1.0)[:, None] * phi0
        done = tail <= 1e-3 * np.maximum(spec.rel_tol * partial, _TINY)
        new = open_ & done.any(axis=1)  # the tail falls and the partial sums grow
        i, k = np.nonzero(new)
        first = done[i, :, k].argmax(axis=1)
        values[i, k] = partial[i, first, k]
        rounding = err[i, first] + (5.0 * (n + first) + 2.0) * _EPS
        bound[i, k] = tail[first, k] + rounding * values[i, k]
        open_ &= ~new
        sums = partial[:, -1]
        n += rows
    return values, bound


def _stacked(streams):
    """The blocks of one weight stream per time, as one stream."""
    while True:
        parts = [next(s) for s in streams]
        yield np.array([w for w, _ in parts]), np.array([e for _, e in parts])


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
    for all times (stable) or one per time (wave), summed by _mix."""
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
        blocks = _stacked([_wave_weights(family.nu, t, rho) for t in ts[live].tolist()])
    values, bound = _mix(q, blocks, len(live), ks, spec)
    for i, t in enumerate(ts[live].tolist()):
        _check_bound(values[i], bound[i], spec, f"{family.label()} kernel at q={q}, t={t:g}")
    out[:, live] = values.T
    return out


def _mixture(edges, weigh, power: float, tail):
    """A q = 1 family as a positive mixture of heat kernels at many times,
    K_t(k) = sum_i w_i H_{c z_i}(k), c = t^power, H_s(k) = e^{-s} I_k(s), on
    G7/K15 panels in x = ln z between consecutive edges; weigh(x) gives the
    mixing density in x and its error at the nodes (a row per panel). Returns
    z, the K15 and the embedded G7 weights, the error of each weight, power
    and tail(c), a bound on the mass cut off at both ends. None depends on t."""
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    x = 0.5 * (edges[:-1, None] + edges[1:, None]) + half * _XK
    density, err = weigh(x)
    return (np.exp(x).ravel(), (density * half * _WK).ravel(),
            (density * half * _WG15).ravel(), (err * half * _WK).ravel(), power, tail)


_THIRD_DECADE = math.log(10.0) / 3.0
_EXP_EDGES = (1.5, 2.5, 4, 6, 9, 13, 18, 25, 35, 50, 70, 100, 150, 230, 350, 500, 700)


def _stable_mixture(alpha: float):
    """P_t^alpha on the line, int f_{alpha,1}(y) H_{t^{2/alpha} y}(k) dy, on
    panels in ln y weighted by Kanter's y f(y) (special.log_y_density).

    With beta = alpha/2 and g = beta/(1 - beta), the density of ln y is about
    1/g wide: the panels are 1/(4g) wide at its mode, ln A(pi/2)/g, and grow by
    1.5 up to a third of a decade. Left of the mode it falls like e^{-L}, L =
    c1 y^-g, so edges also sit at fixed L, out to L = 700. Past the last edge,
    y_hi >= e^{60/(beta + 1/2)}, the mass is at most H_{c y_hi}(0) P(Y > y_hi),
    P(Y > y) <= y^-beta/(1 - 1/e) by Markov's inequality on 1 - e^{-Y/y}.
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
    y_lo, y_hi = math.exp(edges[0]), math.exp(edges[-1])

    def tail(c):
        return (bessel_i_scaled(0, c * y_hi) * y_hi**-beta / (1.0 - math.exp(-1.0))
                + math.exp(-c1 * y_lo**-g))

    return _mixture(edges, lambda x: log_y_density(alpha, x), 2.0 / alpha, tail)


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
        return bessel_i_scaled(0, c / (4.0 * v_lo)) * gammainc(nu, v_lo) + gammaincc(nu, 800.0)

    edges = np.linspace(lo, hi, math.ceil((hi - lo) * max(1.0, math.sqrt(nu) / 1.2)) + 1)
    return _mixture(edges, weigh, 2.0, tail)


@lru_cache(maxsize=8)  # node sets kept, the least recently used dropped first
def _time_mixture(family: KernelFamily):
    if family.kind == "stable":
        return _stable_mixture(family.alpha)
    return _wave_mixture(family.nu)


def _line_mixture(family: KernelFamily, ts, ks, spec: QuadratureSpec):
    """Stable or wave values K[k, i] = K_{ts[i]}(k) on the line (q = 1): per
    time one Bessel matrix H_{c z_i}(k) summed against the family's weights,
    each value as numpy's pairwise sum of one contiguous row (the same bits
    alone and in a block). The bound adds the Gauss-Kronrod estimate of every
    panel, the weights' errors, the cut-off mass and the rounding of the sum.
    """
    z, w, gauss, err, power, tail = _time_mixture(family)
    ks = np.asarray(ks, dtype=np.int64)[:, None]
    starts = np.arange(0, len(z), len(_XK))
    out = np.empty((len(ks), len(ts)))
    for i, t in enumerate(np.asarray(ts, dtype=float).tolist()):
        c = t**power
        h = bessel_i_scaled(ks, c * z)
        terms = h * w
        values = np.add.reduce(terms, axis=1)
        panels = kronrod_error(np.add.reduceat(terms, starts, axis=1),
                               np.add.reduceat(h * gauss, starts, axis=1))
        bound = (panels.sum(axis=1) + np.add.reduce(h * err, axis=1) + tail(c)
                 + (math.log2(len(z)) + 20.0) * _EPS * values)
        _check_bound(values, bound, spec, f"{family.label()} kernel at q=1, t={t:g}")
        out[:, i] = values
    return out


def _binomial_weights(beta: float, rho: float):
    """Endless blocks of W_n = |binom(beta, n)| rho^n (W_0 = 0), one running
    product from W_1 = beta rho, each good to (6n + 2) eps."""
    w = -1.0  # the running product, carried from block to block
    n = 0
    while True:
        m = np.arange(max(n, 1), n + _BLOCK, dtype=float)
        block = np.cumprod(np.concatenate([[w], (m - 1.0 - beta) / m * rho]))
        w = block[-1]
        if n:
            block = block[1:]
        else:
            block[0] = 0.0
        rows = np.arange(n, n + _BLOCK)
        yield block[None, :], ((6.0 * rows + 2.0) * _EPS)[None, :]
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


def heat_kernel(q: int, t: float, k: int, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """H_t(k) on the degree-(q+1) tree; q = 1 routes to the Bessel form."""
    _check_time(t)
    return float(heat_kernel_many(q, k, [t], spec)[0])


def _value(q: int, family: KernelFamily, t: float, k: int, spec: QuadratureSpec) -> float:
    """One stable or wave value: the one-value case of kernel_block."""
    _check_q(q)
    _check_time(t)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if q > 1:
        return float(_walk_mixture(q, family, [t], [k], spec)[0, 0])
    return float(_line_mixture(family, [t], [k], spec)[0, 0])


def stable_kernel(
    q: int, alpha: float, t: float, k: int, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """P_t^alpha(k): the walk mixture for q >= 2, the Kanter time mixture for
    q = 1."""
    return _value(q, KernelFamily.stable(alpha), t, k, spec)


def wave_kernel(
    q: int, nu: float, t: float, k: int, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """T_t^nu(k): the walk mixture for q >= 2, the Gamma time mixture for
    q = 1."""
    return _value(q, KernelFamily.wave(nu), t, k, spec)


def comparator_Z(alpha: float, t: float, k: int) -> float:
    """The closed-form comparison kernel t |k|^(-1-alpha) on the line (1 at 0)."""
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    if t <= 0:
        raise ValueError(f"t must be > 0, got {t}")
    if k == 0:
        return 1.0
    return t * float(abs(k)) ** (-1.0 - alpha)


def kernel_value(
    q: int, family: KernelFamily, t: float, k: int, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    if family.kind == "heat":
        return heat_kernel(q, t, k, spec)
    return _value(q, family, t, k, spec)


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
        stream = _stable_weights(family.alpha, ts, 1.0)
    else:
        stream = _wave_weights(family.nu, t, 1.0)
    blocks = [next(stream) for _ in range(r // _BLOCK + 1)]
    w = np.concatenate([np.ravel(b) for b, _ in blocks])[: r + 1]
    err = np.concatenate([np.ravel(e) for _, e in blocks])[: r + 1]
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
