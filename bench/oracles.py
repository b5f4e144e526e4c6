"""Reference computations made apart from treeheat.

Nothing here imports treeheat. Each function recomputes a quantity the
package returns, by a different route:

- q >= 2 kernels: the walk-mixture sum K(k) = sum_n w_n u_n(k), where u_n(k)
  is the n-step probability of the simple random walk to sit at one given
  vertex at distance k (computed from the radial sphere-occupation chain),
  and w_n are the Taylor coefficients of the family's multiplier phi(1 - z);
- q = 1 kernels: the Fourier integral (1/pi) int_0^pi phi(1 - cos th) cos(k th);
- L^{alpha/2} delta_o(o): the binomial series of (1 - z)^{alpha/2} against
  the return probabilities u_n(0);
- closed-form weight verdicts: a ratio test on the term sequence, with a
  sympy convergence test where the ratio test is silent;
- explicit-table sphere statistics: brute-force sums over every vertex pair.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np
from scipy import integrate as sciint
from scipy.special import gammaln, kv

# ---------------------------------------------------------------- walk sums


def walk_return_rows(q: int, nmax: int, kmax: int) -> np.ndarray:
    """u[n, k]: probability that the n-step walk from o sits at one fixed
    vertex at distance k, for n <= nmax and k <= kmax.

    The radial chain moves 0 -> 1 surely and k -> k-1 / k+1 with
    probabilities 1/(q+1) and q/(q+1); its sphere occupation p_n(k) is
    divided by the sphere size (q+1) q^(k-1).
    """
    width = nmax + 2
    p = np.zeros(width)
    p[0] = 1.0
    down = 1.0 / (q + 1.0)
    up = q / (q + 1.0)
    k = np.arange(kmax + 1)
    log_sphere = np.where(k == 0, 0.0, math.log(q + 1.0) + (k - 1) * math.log(q))
    inv_sphere = np.exp(-log_sphere)
    rows = np.empty((nmax + 1, kmax + 1))
    for n in range(nmax + 1):
        rows[n] = p[: kmax + 1] * inv_sphere
        nxt = np.zeros(width)
        nxt[1] += p[0]
        nxt[2:] += up * p[1:-1]
        nxt[:-1] += down * p[1:]
        p = nxt
    return rows


def _walk_decay(q: int) -> float:
    return 2.0 * math.sqrt(q) / (q + 1.0)


def walk_terms_needed(q: int, t_scale: float, kmax: int) -> int:
    """Walk length beyond which every omitted term is below 1e-18 of the
    smallest kernel value kept (u_n decays like rho^n q^(-k/2), the values
    no faster than q^-k times a power)."""
    rho = _walk_decay(q)
    need = (45.0 + 0.5 * kmax * math.log(q) + 3.0 * math.log(kmax + 2.0)) / -math.log(rho)
    return int(max(need, 4.0 * t_scale + 40.0 * math.sqrt(t_scale + 1.0), kmax + 40))


def heat_weights(t: float, nmax: int) -> np.ndarray:
    n = np.arange(nmax + 1)
    return np.exp(-t + n * math.log(t) - gammaln(n + 1.0))


def stable_weights(alpha: float, t: float, nmax: int) -> np.ndarray:
    """Taylor coefficients of exp(-t (1 - z)^(alpha/2)).

    With c_m the (positive, m >= 1) coefficients of -t(1-z)^beta, the
    exponential obeys n w_n = sum_{m=1}^n m c_m w_{n-m}: a sum of positive
    terms only.
    """
    beta = alpha / 2.0
    c = np.zeros(nmax + 1)
    coef = 1.0  # (-1)^m binom(beta, m)
    for m in range(1, nmax + 1):
        coef *= (m - 1.0 - beta) / m
        c[m] = -t * coef
    mc = np.arange(nmax + 1) * c
    w = np.zeros(nmax + 1)
    w[0] = math.exp(-t)
    for n in range(1, nmax + 1):
        w[n] = float(np.dot(mc[1 : n + 1], w[n - 1 :: -1][:n])) / n
    return w


def wave_weights(nu: float, t: float, nmax: int) -> np.ndarray:
    """w_n = 2 (t/2)^(nu+n) K_{n-nu}(t) / (n! Gamma(nu)).

    K_{n-nu}(t) = K_{|n-nu|}(t) directly while n <= nu, then by the upward
    recurrence K_{m+1} = K_{m-1} + (2m/t) K_m (positive terms only once
    m >= 0), carried in logarithms.
    """
    n0 = min(int(math.ceil(nu)), nmax)
    logk = np.empty(nmax + 1)
    for n in range(n0 + 1):
        logk[n] = math.log(kv(abs(n - nu), t))
    k_prev, k_cur = math.exp(logk[n0 - 1] - logk[n0]), 1.0  # nu > 0, so n0 >= 1
    log_scale = logk[n0]
    for n in range(n0 + 1, nmax + 1):
        k_next = k_prev + (2.0 * (n - 1 - nu) / t) * k_cur
        k_prev, k_cur = k_cur / k_next, 1.0
        log_scale += math.log(k_next)
        logk[n] = log_scale
    n = np.arange(nmax + 1)
    logw = (
        math.log(2.0)
        + (nu + n) * math.log(t / 2.0)
        + logk
        - gammaln(n + 1.0)
        - math.lgamma(nu)
    )
    return np.exp(logw)


def family_weights(kind: str, param: float | None, t: float, nmax: int) -> np.ndarray:
    if kind == "heat":
        return heat_weights(t, nmax)
    if kind == "stable":
        return stable_weights(param, t, nmax)
    if kind == "wave":
        return wave_weights(param, t, nmax)
    raise ValueError(kind)


class WalkOracle:
    """Walk rows for one q, grown on demand and shared by all families."""

    def __init__(self, q: int):
        if q < 2:
            raise ValueError("walk mixtures are used for q >= 2 only")
        self.q = q
        self.rows = np.zeros((0, 0))

    def _ensure(self, nmax: int, kmax: int) -> np.ndarray:
        n0, k0 = self.rows.shape
        if n0 <= nmax or k0 <= kmax:
            self.rows = walk_return_rows(self.q, max(nmax, n0 - 1), max(kmax, k0 - 1))
        return self.rows[: nmax + 1, : kmax + 1]

    def kernel(self, kind: str, param: float | None, t: float, kmax: int) -> np.ndarray:
        """K_t(0..kmax) as the walk mixture sum_n w_n u_n(k)."""
        scale = t if kind == "heat" else (t * t if kind == "wave" else t ** (2.0 / param))
        nmax = walk_terms_needed(self.q, scale, kmax)
        w = family_weights(kind, param, t, nmax)
        return w @ self._ensure(nmax, kmax)

    def fractional_laplacian_delta(self, alpha: float, k: int) -> float:
        """L^{alpha/2} delta_o at a vertex at distance k: sum_n b_n u_n(k), with
        b_n the coefficients of (1 - z)^{alpha/2} (b_0 = 1, every later b_n
        negative); at k = 0 the u_n are the return probabilities."""
        nmax = 2 * walk_terms_needed(self.q, 1.0, k)
        u = self._ensure(nmax, k)[:, k]
        b = np.empty(nmax + 1)
        b[0] = 1.0
        beta = alpha / 2.0
        for n in range(1, nmax + 1):
            b[n] = b[n - 1] * (n - 1.0 - beta) / n
        return float(b @ u)


# ------------------------------------------------------------- line (q = 1)


def line_multiplier(kind: str, param: float | None, t: float):
    """phi(lambda) with lambda = 1 - cos(theta) the multiplier of L on Z."""

    def heat(lam):
        return np.exp(-t * lam)

    def stable(lam):
        return np.exp(-t * lam ** (param / 2.0))

    def wave(lam):
        x = t * np.sqrt(lam)
        out = np.ones_like(x)
        pos = x > 0
        xp = x[pos]
        out[pos] = 2.0 * (xp / 2.0) ** param * kv(param, xp) / math.gamma(param)
        return out

    return {"heat": heat, "stable": stable, "wave": wave}[kind]


def line_kernel(kind: str, param: float | None, t: float, k: int) -> float:
    """(1/pi) int_0^pi phi(1 - cos th) cos(k th) d th."""
    phi = line_multiplier(kind, param, t)

    def g(th):
        return float(phi(np.array([1.0 - math.cos(th)]))[0]) / math.pi

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sciint.IntegrationWarning)
        if k == 0:
            val, _ = sciint.quad(g, 0.0, math.pi, limit=400, epsabs=1e-15, epsrel=1e-13)
        else:
            val, _ = sciint.quad(
                g, 0.0, math.pi, weight="cos", wvar=k, limit=400, epsabs=1e-15, epsrel=1e-13
            )
    return val


# -------------------------------------------------------------------- trees


def sphere_size(q: int, k: int) -> int:
    return 1 if k == 0 else (q + 1) * q ** (k - 1)


def ball_words(q: int, radius: int) -> list[tuple[int, ...]]:
    """Every vertex of the radius ball as a label word, root first."""
    out = [()]
    layer = [()]
    for _ in range(radius):
        layer = [w + (c,) for w in layer for c in range(q + 1 if not w else q)]
        out.extend(layer)
    return out


def word_distance(u, v) -> int:
    n = 0
    for a, b in zip(u, v):
        if a != b:
            break
        n += 1
    return len(u) + len(v) - 2 * n


def sphere_sums_brute(values: dict, words, x, jmax: int, power: float) -> np.ndarray:
    """s_j = sum over listed y with d(x, y) = j <= jmax of values[y]**power."""
    s = np.zeros(jmax + 1)
    for y in words:
        j = word_distance(x, y)
        if j <= jmax:
            s[j] += values[y] ** power
    return s


def sphere_mins_brute(values: dict, words, x, jmax: int) -> np.ndarray:
    """m_j = min over y with d(x, y) = j <= jmax of values[y]."""
    m = np.full(jmax + 1, math.inf)
    for y in words:
        j = word_distance(x, y)
        if j <= jmax and values[y] < m[j]:
            m[j] = values[y]
    return m


def sphere_depth_counts(q: int, depth: int, jmax: int, rmax: int) -> np.ndarray:
    """N[j, i]: vertices at distance j from a vertex x at `depth` that lie at
    depth i <= rmax, counted as non-backtracking walks from x.

    A walk's last step went up (toward the root) or down; after an up step
    it may go up again or down into the q - 1 other children (q at the
    root), after a down step only down.
    """
    width = depth + jmax + 2
    up = np.zeros(width)
    down = np.zeros(width)
    N = np.zeros((jmax + 1, rmax + 1))
    N[0, depth] = 1.0
    if jmax >= 1:
        if depth > 0:
            up[depth - 1] = 1.0
        down[depth + 1] = q if depth > 0 else q + 1
    for j in range(1, jmax + 1):
        both = up + down
        N[j] = both[: rmax + 1] if width > rmax else np.pad(both, (0, rmax + 1 - width))
        nup = np.zeros(width)
        ndown = np.zeros(width)
        nup[:-1] = up[1:]  # up again from depth d >= 1
        ndown[2:] += (q - 1) * up[1:-1]  # turn down after an up step
        ndown[1] += q * up[0]  # turn down at the root
        ndown[1:] += q * down[:-1]
        up, down = nup, ndown
    return N


# --------------------------------------------------------- closed-form tests


def series_exponents(p: float, e: float, a: float, b: float) -> tuple[float, float]:
    """term_k ~ q^(gamma k) (1+k)^delta for u_k = c q^(a k) (1+k)^b."""
    pp = p / (p - 1.0)
    return 1.0 - pp - a * pp / p, -e * pp - b * pp / p


@functools.lru_cache(maxsize=None)
def closed_form_series_converges(q: int, p: float, e: float, a: float, b: float) -> bool:
    """Ratio test on term_k = q^(gamma k) (1+k)^delta; the ratio tends to
    q^gamma, so only gamma = 0 needs more: there sympy decides the p-series."""
    gamma, delta = series_exponents(p, e, a, b)
    if abs(gamma) > 1e-12:
        return gamma < 0.0
    import sympy

    k = sympy.Symbol("k", integer=True, positive=True)
    expr = (1 + k) ** sympy.nsimplify(delta)
    return bool(sympy.summation(expr, (k, 1, sympy.oo)).is_finite)


def closed_form_sup_finite(e: float, a: float, b: float) -> bool:
    """sup_k 1/(q^k (1+k)^e c q^(a k) (1+k)^b) < inf iff the product stays
    bounded below: exponent 1 + a > 0, or = 0 with e + b >= 0."""
    qexp, pexp = 1.0 + a, e + b
    return qexp > 0.0 or (qexp == 0.0 and pexp >= 0.0)
