"""Radial kernels of the heat semigroup and its two subordinated families.

For q >= 2 the heat kernel of exp(-t L), L f = f - (mean of f over
neighbors), is the walk mixture

    H_t(k) = sum_n e^{-t} t^n / n! u_n(k),

where u_n(k) is the probability that the n-step simple random walk from o
sits at one given vertex at distance k (Figa-Talamanca and Nebbia, LMS LN
162; Cowling, Meda and Setti, Trans. AMS 352). The u_n do not depend on t:
one table per q holds them, rescaled by rho^{-n}, and grows on demand; a
batch of times is one Poisson-weighted sum over it. Every term is positive,
so each value keeps its relative accuracy at any k and t, and carries an
error bound checked against the QuadratureSpec. q = 1 routes through the
Bessel form exp(-t) I_k(t).

Subordinated families are integrated in normalized variables: the stable
kernel over y = s * t^(-2/alpha) against f_{alpha,1}, the wave-type kernel
over w = v^nu for the Gamma-weighted time mixture, which removes all moving
spikes and endpoint singularities from the outer quadrature.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

from .errors import NumericalError
from .geometry import TreeGeometry, radial_distance_counts, sphere_size
from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate
from .special import _f1, bessel_i_scaled

_EPS = float(np.finfo(float).eps)


def _check_time(t: float) -> None:
    if not math.isfinite(t) or t <= 0:
        raise ValueError(f"t must be finite and > 0, got {t}")


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


def _heat_sums(q: int, k: int, s: np.ndarray, first: int = 0):
    """sum_{n >= first} e^{-s} s^n/n! u_n(k) for times 0 < s <= s_cut, with a
    bound on the error of each value.

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
    floor = max(k, first + (first - k) % 2)  # first n of k's parity
    lo = np.maximum(floor, np.floor(mu - spread)).astype(np.int64)
    lo += (lo - k) % 2
    hi = (np.maximum(k, mu + spread) + 40.0).astype(np.int64)
    counts = (hi - lo) // 2 + 1
    starts = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(len(s)), counts)
    n = lo[owner] + 2 * (np.arange(int(counts.sum())) - starts[owner])
    table, c = _walk_table(q).get(int(hi.max()), k)
    mu_n = mu[owner]
    terms = np.exp(-(s[owner] * b + c[n] + _bd0(n, mu_n))) * table[n, k]
    values = np.add.reduceat(terms, starts)

    outside = np.exp(-_bd0(hi + 1, mu))
    below = lo > floor
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


def _live_times(q: int, s) -> tuple[np.ndarray, np.ndarray]:
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(np.isnan(s)) or np.any(s <= 0):
        raise ValueError("times must be positive, not NaN")
    return s, np.flatnonzero(s <= _time_cutoff(q))


def heat_kernel_many(q: int, k: int, s, spec: QuadratureSpec = DEFAULT_SPEC):
    """H_s(k) for an array of times s; q = 1 uses the Bessel form.

    For q >= 2, the walk mixture sum_n e^{-s} s^n/n! u_n(k); each value is
    certified to max(abs_tol, rel_tol |value|) or NumericalError is raised.
    Times beyond s_cut give 0.
    """
    s, live = _live_times(q, s)
    if q == 1:
        return np.asarray(bessel_i_scaled(k, s), dtype=float)
    out = np.zeros_like(s)
    if len(live):
        vals, bound = _heat_sums(q, k, s[live])
        _check_bound(vals, bound, spec, f"heat kernel at q={q}, k={k}")
        out[live] = vals
    return out


def _heat_minus_delta_many(q: int, k: int, s, spec: QuadratureSpec = DEFAULT_SPEC):
    """H_s(k) - delta_{k0} by the walk mixture, without the O(1) cancellation
    at k = 0 (any q: fractional_laplacian uses it at q = 1 too).

    The n = 0 term e^{-s} of the walk mixture is replaced by expm1(-s), so
    the result stays accurate relative to s as s -> 0.
    """
    s, live = _live_times(q, s)
    out = np.full_like(s, -1.0 if k == 0 else 0.0)
    if len(live):
        vals, bound = _heat_sums(q, k, s[live], first=1)
        if k == 0:
            drop = np.expm1(-s[live])
            vals = vals + drop
            bound = bound + _EPS * np.abs(drop)
        _check_bound(vals, bound, spec, f"heat kernel difference at q={q}, k={k}")
        out[live] = vals
    return out


def _clamp(values, spec: QuadratureSpec):
    values = np.asarray(values, dtype=float)
    bad = values < -spec.abs_tol
    if np.any(bad):
        raise NumericalError(
            f"kernel value negative beyond tolerance: {values[bad].min():.3e}"
        )
    return np.maximum(values, 0.0)


def heat_kernel(q: int, t: float, k: int, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """H_t(k) on the degree-(q+1) tree; q = 1 routes to the Bessel form."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    _check_time(t)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if q == 1:
        return heat_kernel_Z(t, k)
    return float(heat_kernel_many(q, k, [t], spec)[0])


def heat_kernel_Z(t: float, k: int) -> float:
    """exp(-t) I_k(t): the heat kernel on the integer line."""
    _check_time(t)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return float(bessel_i_scaled(k, t))


def _heat_peak_time(q: int, k: int) -> float:
    """Rough location of the maximum of s -> H_s(k); grid seeding only."""
    if k == 0:
        return 1.0
    if q == 1:
        return float(k)
    b = 1.0 - 2.0 * math.sqrt(q) / (q + 1.0)
    return max(1.0, k / max(4.0 * b, 1.0))


def stable_kernel(
    q: int, alpha: float, t: float, k: int, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """P_t^alpha(k) = int_0^inf f_{alpha,t}(s) H_s(k) ds."""
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    _check_time(t)
    beta = alpha / 2.0
    tau = t ** (1.0 / beta)  # t^{2/alpha}

    def integrand(y):
        y = np.asarray(y, dtype=float)
        dens = np.array([_f1(beta, float(yi)) for yi in y])
        out = np.zeros_like(y)
        live = dens > 0.0
        if np.any(live):
            out[live] = dens[live] * heat_kernel_many(q, k, tau * y[live], spec)
        return out

    bp = [0.5, 1.0, 2.0, _heat_peak_time(q, k) / tau]
    val, _ = integrate(integrand, 0.0, math.inf, spec, initial_panels=16, breakpoints=bp)
    return float(_clamp(np.array([val]), spec)[0])


def wave_kernel(
    q: int, nu: float, t: float, k: int, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """T_t^nu(k): Gamma-weighted time mixture of the heat kernel.

    In w = v^nu for the substitution v = t^2/(4s):
    T_t^nu(k) = (1/Gamma(nu+1)) int_0^inf e^{-w^{1/nu}} H_{t^2/(4 w^{1/nu})}(k) dw.
    """
    if nu <= 0:
        raise ValueError(f"nu must be > 0, got {nu}")
    _check_time(t)
    inv_nu = 1.0 / nu

    def integrand(w):
        w = np.asarray(w, dtype=float)
        out = np.zeros_like(w)
        with np.errstate(over="ignore", divide="ignore"):
            v = np.where(w > 0, w, 1.0) ** inv_nu
            s = t * t / (4.0 * v)
        live = (w > 0) & np.isfinite(v) & (s > 0) & np.isfinite(s)
        if np.any(live):
            out[live] = np.exp(-v[live]) * heat_kernel_many(q, k, s[live], spec)
        return out

    # the integrand spreads over decades of w below its peak (s grows only
    # like w^{-1/nu}), so panels start one per decade from 1e-3 w_peak to 10
    s_peak = _heat_peak_time(q, k)
    w_peak = (t * t / (4.0 * s_peak)) ** nu
    lo = max(1e-3 * w_peak, 1e-300)
    decades = max(1, math.ceil(math.log10(10.0 / lo)))
    bp = sorted({w_peak, *(lo * 10.0**i for i in range(decades + 1))})
    val, _ = integrate(integrand, 0.0, math.inf, spec, initial_panels=16, breakpoints=bp)
    val /= math.gamma(nu + 1.0)
    return float(_clamp(np.array([val]), spec)[0])


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
    if family.kind == "stable":
        return stable_kernel(q, family.alpha, t, k, spec)
    return wave_kernel(q, family.nu, t, k, spec)


@dataclass(frozen=True)
class RadialKernel:
    """Tabulated k -> K_t(k) on a ball, with a certified mass tail bound."""

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


def _tail_bound(geom: TreeGeometry, terms: np.ndarray, spec: QuadratureSpec) -> float:
    """Bound sum_{k>radius} sphere_size(k) K(k) from the computed mass terms.

    Geometric fit when the empirical ratio stays below 0.9 and does not grow
    (heat-like decay), otherwise a fitted power-law majorant with a safety
    factor; families with genuinely heavy radial tails (stable, wave) land in
    the second branch. Growing ratios (wave with large nu) mean the decay
    slows, and a geometric series from the last ratio falls short of the tail.
    """
    r = geom.radius
    if r < 4:
        raise NumericalError("radius too small for tail certification")
    tail_terms = terms[-3:]
    total = float(terms.sum())
    if float(tail_terms.max()) <= max(1e-13, 1e-12 * total):
        # boundary terms are at numerical noise scale; the tail is negligible
        return float(max(spec.abs_tol, 5.0 * tail_terms.max()))
    ratios = terms[-3:] / np.maximum(terms[-4:-1], 1e-300)
    rho = float(ratios.max())
    if rho < 0.9 and np.all(np.diff(ratios) <= 0.0):
        return float(terms[-1] * rho / (1.0 - rho))
    window = min(8, r // 2)
    ks = np.arange(r - window + 1, r + 1, dtype=float)
    ms = terms[-window:]
    if np.any(ms <= 0):
        raise NumericalError("cannot certify tail: vanishing terms with slow decay")
    slope = float(np.polyfit(np.log(ks), np.log(ms), 1)[0])
    if slope > -1.05:
        raise NumericalError(
            f"mass terms decay too slowly (slope {slope:.3f}); increase radius"
        )
    c = float(np.max(ms / ks**slope)) * 2.0
    return c * r ** (slope + 1.0) / (-slope - 1.0)


_TABLE_CACHE: dict = {}
_TABLE_LOCK = threading.Lock()


def tabulate(
    geom: TreeGeometry,
    family: KernelFamily,
    t: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> RadialKernel:
    """Tabulate K_t(k) for 0 <= k <= radius with a certified tail bound."""
    _check_time(t)
    key = (geom, family, t, spec)
    with _TABLE_LOCK:
        hit = _TABLE_CACHE.get(key)
    if hit is not None:
        return hit
    values = np.array(
        [kernel_value(geom.q, family, t, k, spec) for k in range(geom.radius + 1)]
    )
    values = _clamp(values, spec)
    terms = np.array(
        [sphere_size(geom, k) * v for k, v in enumerate(values)]
    )
    bound = _tail_bound(geom, terms, spec)
    kernel = RadialKernel(geom, family, t, tuple(float(v) for v in values), bound)
    with _TABLE_LOCK:
        _TABLE_CACHE.setdefault(key, kernel)
    return kernel


def radial_convolve(q: int, a, b, k: int) -> float:
    """(A * B)(k) = sum_z A(d(o, z)) B(d(x, z)) for radial tables A, B.

    Uses the joint distance census of the o-x geodesic; A and B must extend
    far enough that every census entry is covered (len(a) + len(b) > 2k not
    required, but truncation is the caller's responsibility).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    total = 0.0
    for i, row in radial_distance_counts(q, k, len(a) - 1).items():
        for j, cnt in row.items():
            if j < len(b):
                total += cnt * a[i] * b[j]
    return total


def write_kernel_csv(kernel: RadialKernel, fh) -> None:
    """CSV schema: metadata comment line, then k,sphere_size,value,cumulative_mass."""
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
