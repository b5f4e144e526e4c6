"""Numerics that only the tests use as references: the unscaled Bessel
function, the stable subordinator density at any time, tree distance by
common prefix, one kernel value computed alone, and adaptive Gauss-Kronrod
quadrature with vectorized integrands.

Integrands must accept numpy arrays of abscissae. Semi-infinite domains
[a, inf) are mapped onto a finite interval through u = x / (1 + x) before
adaptive bisection, so algebraic tails turn into endpoint power behavior that
bisection resolves.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ive

from treeheat import kernels
from treeheat.errors import NumericalError
from treeheat.quadrature import _WG, _WK, _XK, DEFAULT_SPEC, QuadratureSpec
from treeheat.special import log_y_density

_BESSEL_X_MAX = 700.0  # exp(x) overflows above ~709


class RangeError(ValueError):
    """Argument outside the supported numerical range (e.g. Bessel overflow)."""


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


def stable_density(params: StableDensityParams, s):
    """f_{alpha,t}(s) = c f_{alpha,1}(c s), c = t^(-2/alpha), from
    special.log_y_density at every point at once; exactly 0 for s <= 0. Accepts
    scalars or arrays."""
    scale = params.t ** (-2.0 / params.alpha)
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    live = s > 0
    if np.any(live):
        log_y = np.log(s[live] * scale)
        out[live] = log_y_density(params.alpha, log_y)[0] * np.exp(-log_y) * scale
    return float(out) if out.ndim == 0 else out


def distance(u, v) -> int:
    """Tree distance between two words: depths minus twice the lca depth."""
    u, v = tuple(u), tuple(v)
    lca = 0
    for a, b in zip(u, v):
        if a != b:
            break
        lca += 1
    return len(u) + len(v) - 2 * lca


def one_value(q: int, family, t: float, k: int, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """K_t(k) made alone, by the route kernel_block takes for it: heat_kernel_many
    for heat, the walk mixture at q >= 2 and the line mixture at q = 1 for
    stable and wave. A block's value must have the same bits."""
    if family.kind == "heat":
        return float(kernels.heat_kernel_many(q, k, [t], spec)[0])
    if q > 1:
        return float(kernels._walk_mixture(q, family, [t], [k], spec)[0, 0])
    return float(kernels._line_mixture(family, [t], [k], spec)[0, 0])


# panels whose integrand mass is below abs_tol times this are dropped from
# refinement instead of being bisected further
_TAIL_CUT_FACTOR = 1e-3



def _panel_eval(f, lows, highs):
    """GK15 on a batch of panels. Returns (values, error estimates, sup |f|)."""
    half = 0.5 * (highs - lows)
    mid = 0.5 * (highs + lows)
    x = mid[:, None] + half[:, None] * _XK[None, :]
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    vk = half * (fx @ _WK)
    vg = half * (fx[:, 1::2] @ _WG)
    err = (200.0 * np.abs(vk - vg)) ** 1.5
    np.minimum(err, np.abs(vk - vg) * 200.0, out=err)
    sup = np.abs(fx).max(axis=1)
    return vk, err, sup


def _adaptive(f, a, b, spec: QuadratureSpec, initial_panels: int, breakpoints,
              max_subdivisions: int):
    edges = [a, b]
    if breakpoints:
        edges = sorted({a, b, *(x for x in breakpoints if a < x < b)})
    pts = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        n = max(1, int(math.ceil(initial_panels * (hi - lo) / (b - a))))
        pts.append(np.linspace(lo, hi, n + 1))
    grid = np.unique(np.concatenate(pts))
    lows, highs = grid[:-1], grid[1:]
    vals, errs, sups = _panel_eval(f, lows, highs)

    heap = []
    for i in range(len(lows)):
        heapq.heappush(heap, (-errs[i], lows[i], highs[i], vals[i], sups[i]))
    total = float(vals.sum())
    total_err = float(errs.sum())
    n_sub = len(lows)
    while n_sub < max_subdivisions:
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if total_err <= tol or not heap:
            break
        neg_err, lo, hi, val, sup = heapq.heappop(heap)
        if -neg_err <= tol / max(1, len(heap) + 1) * 0.5:
            heapq.heappush(heap, (neg_err, lo, hi, val, sup))
            break
        if sup * (hi - lo) < spec.abs_tol * _TAIL_CUT_FACTOR:
            # negligible panel: its contribution is bounded by sup * width
            total_err -= -neg_err
            continue
        mid_pt = 0.5 * (lo + hi)
        l2 = np.array([lo, mid_pt])
        h2 = np.array([mid_pt, hi])
        v2, e2, s2 = _panel_eval(f, l2, h2)
        total += float(v2.sum()) - val
        total_err += float(e2.sum()) - (-neg_err)
        for i in range(2):
            heapq.heappush(heap, (-e2[i], l2[i], h2[i], v2[i], s2[i]))
        n_sub += 1

    tol = max(spec.abs_tol, spec.rel_tol * abs(total))
    if total_err > tol:
        raise NumericalError(
            f"quadrature did not converge: err={total_err:.3e} > tol={tol:.3e}",
            err_estimate=total_err,
        )
    return total, total_err


def integrate(
    f,
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    initial_panels: int = 8,
    breakpoints=None,
    max_subdivisions: int = 2000,
):
    """Integrate a vectorized integrand over [a, b]; b may be math.inf.

    Returns (value, err_estimate). Raises NumericalError if the requested
    tolerance is not reached within max_subdivisions panels.
    """
    if not b > a:
        raise ValueError(f"empty or inverted interval [{a}, {b}]")
    if math.isinf(a):
        raise ValueError("lower bound must be finite")
    if math.isinf(b):
        # x = a + u/(1-u), dx = du/(1-u)^2
        # x = a + u/(1-u) with u = 1-(1-v)^5: the quintic clustering tames
        # algebraic tails (x^-s integrable for s > 1.2 maps to a bounded
        # integrand), keeping the GK error estimate honest near v = 1
        def g(v):
            v = np.asarray(v, dtype=float)
            r = 1.0 - v
            ok = r > 0
            out = np.zeros_like(v)
            rv = r[ok]
            x = a + (1.0 - rv**5) / rv**5
            fx = np.asarray(f(x), dtype=float)
            out[ok] = 5.0 * fx * rv**-6
            return out

        mapped_bp = None
        if breakpoints:
            mapped_bp = [
                1.0 - (1.0 / (1.0 + (x - a))) ** 0.2
                for x in breakpoints
                if math.isfinite(x) and x > a
            ]
        # GK nodes are interior, so u = 1 (x = inf) is never evaluated
        return _adaptive(g, 0.0, 1.0, spec, initial_panels, mapped_bp, max_subdivisions)
    return _adaptive(f, a, b, spec, initial_panels, breakpoints, max_subdivisions)
