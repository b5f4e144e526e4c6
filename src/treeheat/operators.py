"""Pointwise operators on tree functions: Laplacian, fractional powers,
kernel application, truncated maximal functions, and evolution-equation
residuals.

The fractional power uses the Bochner integral
    L^{a/2} f(x) = (1/Gamma(-a/2)) int_0^inf (W_t f(x) - f(x)) t^{-1-a/2} dt,
whose normalization 1/Gamma(-a/2) (negative for a in (0,2)) is fixed by the
generator requirement d/dt|_{0+} P_t^a f = -L^{a/2} f. The integral is split
at t = 1: on (0, 1] the substitution t = tau^m removes the t^{-a/2}
singularity; on [1, inf) the constant part -f(x) integrates in closed form
and only the decaying W_t f part is quadratured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    ROOT,
    TreeGeometry,
    Word,
    depth,
    distance,
    neighbors,
    radial_distance_counts,
    validate_word,
)
from .kernels import (
    KernelFamily,
    RadialKernel,
    _heat_minus_delta_many,
    heat_kernel_many,
    tabulate,
)
from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate


@dataclass(frozen=True)
class TreeFunction:
    """A real function supported on the ball, radial or explicit."""

    geom: TreeGeometry
    radial: tuple[float, ...] | None = None
    table: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        if (self.radial is None) == (self.table is None):
            raise ValueError("exactly one of radial/table must be given")
        if self.radial is not None and len(self.radial) != self.geom.radius + 1:
            raise ValueError(
                f"radial data needs {self.geom.radius + 1} entries, "
                f"got {len(self.radial)}"
            )

    @staticmethod
    def from_radial(geom: TreeGeometry, values) -> "TreeFunction":
        return TreeFunction(geom, radial=tuple(float(v) for v in values))

    @staticmethod
    def from_table(geom: TreeGeometry, mapping) -> "TreeFunction":
        table = {}
        for w, v in mapping.items():
            w = validate_word(w, geom.q)
            if depth(w) > geom.radius:
                raise ValueError(f"vertex {w} outside radius-{geom.radius} ball")
            table[w] = float(v)
        return TreeFunction(geom, table=table)

    @staticmethod
    def delta(geom: TreeGeometry, at: Word = ROOT) -> "TreeFunction":
        return TreeFunction.from_table(geom, {at: 1.0})

    @property
    def is_radial(self) -> bool:
        return self.radial is not None

    def value(self, x) -> float:
        x = validate_word(x, self.geom.q)
        if depth(x) > self.geom.radius:
            raise ValueError(f"vertex {x} outside radius-{self.geom.radius} ball")
        if self.radial is not None:
            return self.radial[depth(x)]
        return self.table.get(x, 0.0)

    def support_radius(self) -> int:
        """Largest distance from the root carrying a nonzero value (-1 if zero)."""
        if self.radial is not None:
            nz = [k for k, v in enumerate(self.radial) if v != 0.0]
        else:
            nz = [depth(w) for w, v in self.table.items() if v != 0.0]
        return max(nz) if nz else -1

    def support_items(self):
        """(vertex, value) over the nonzero explicit support (explicit only)."""
        if self.table is None:
            raise ValueError("explicit support iteration needs a table function")
        return [(w, v) for w, v in sorted(self.table.items()) if v != 0.0]


def laplacian(f: TreeFunction, x) -> float:
    """f(x) minus the average of f over the q+1 neighbors of x.

    x must be interior: every neighbor inside the ball (no zero-padding).
    """
    x = validate_word(x, f.geom.q)
    if depth(x) + 1 > f.geom.radius:
        raise ValueError(
            f"vertex {x} at depth {depth(x)} is not interior for radius "
            f"{f.geom.radius}"
        )
    nb = neighbors(x, f.geom.q)
    return f.value(x) - sum(f.value(y) for y in nb) / (f.geom.q + 1.0)


def _cross_coefficients(f: TreeFunction, x: Word) -> np.ndarray:
    """c_j = sum of f over the sphere of radius j around x; W_t f(x) = sum c_j H_t(j)."""
    q = f.geom.q
    if f.is_radial:
        k = depth(x)
        sup = f.support_radius()
        if sup < 0:
            return np.zeros(1)
        c = np.zeros(k + sup + 1)
        census = radial_distance_counts(q, k, sup)
        for i, row in census.items():
            fi = f.radial[i]
            if fi != 0.0:
                for j, cnt in row.items():
                    c[j] += cnt * fi
        return c
    items = f.support_items()
    if not items:
        return np.zeros(1)
    jmax = max(distance(x, w) for w, _ in items)
    c = np.zeros(jmax + 1)
    for w, v in items:
        c[distance(x, w)] += v
    return c


def heat_apply(q: int, f: TreeFunction, x, t, spec: QuadratureSpec = DEFAULT_SPEC):
    """W_t f(x) for an array of times t, by exact radial summation."""
    x = validate_word(x, f.geom.q)
    c = _cross_coefficients(f, x)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(ts)
    for j, cj in enumerate(c):
        if cj != 0.0:
            out += cj * heat_kernel_many(q, j, ts, spec)
    return out if np.ndim(t) else float(out[0])


def fractional_laplacian(
    f: TreeFunction, alpha: float, x, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """The Bochner-integral fractional power applied pointwise."""
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    x = validate_word(x, f.geom.q)
    q = f.geom.q
    c = _cross_coefficients(f, x)
    fx = f.value(x)
    idx = np.flatnonzero(c)

    def w_minus_f(ts):
        # H_t(j) - delta_{j0} without the O(1) cancellation at small t
        out = np.zeros(ts.shape)
        for j in idx:
            out += c[j] * _heat_minus_delta_many(q, int(j), ts, spec)
        return out

    def w_only(ts):
        out = np.zeros(ts.shape)
        for j in idx:
            out += c[j] * heat_kernel_many(q, int(j), ts, spec)
        return out

    half = alpha / 2.0
    # t = tau^m smooths the t^{-a/2} endpoint singularity
    m = int(math.ceil(2.0 / (2.0 - alpha))) + 1

    # fold the powers of tau so no intermediate quantity overflows:
    # (W_t f - f) t^{-1-half} dt = (W_t f - f)/t * m * tau^{m(1-half)-1} dtau
    near_exp = m * (1.0 - half) - 1.0

    def near(tau):
        tau = np.asarray(tau, dtype=float)
        out = np.zeros_like(tau)
        ok = tau ** m > 0.0  # tau^m can underflow for large m
        tv = tau[ok] ** m
        out[ok] = w_minus_f(tv) / tv * m * tau[ok] ** near_exp
        return out

    def far(ts):
        ts = np.asarray(ts, dtype=float)
        return w_only(ts) * ts ** (-1.0 - half)

    i_near, _ = integrate(near, 0.0, 1.0, spec, initial_panels=16)
    i_far, _ = integrate(far, 1.0, math.inf, spec, initial_panels=16)
    total = i_near + i_far - fx * 2.0 / alpha
    return total / math.gamma(-half)


def apply_kernel(kernel: RadialKernel, f: TreeFunction, x) -> float:
    """sum_y K_t(d(x, y)) f(y), exact over the finite support of f."""
    if kernel.geom.q != f.geom.q:
        raise ValueError("kernel and function live on different trees")
    x = validate_word(x, f.geom.q)
    c = _cross_coefficients(f, x)
    needed = len(c) - 1
    while needed > 0 and c[needed] == 0.0:
        needed -= 1
    if needed > kernel.geom.radius:
        raise ValueError(
            f"support of f reaches distance {needed} from x; kernel table "
            f"radius {kernel.geom.radius} is insufficient (need >= {needed})"
        )
    return float(sum(c[j] * kernel.value(j) for j in range(needed + 1)))


@dataclass(frozen=True)
class MaximalSpec:
    """Time horizon R, evaluation grid in (0, R), and refinement rounds."""

    R: float
    grid: tuple[float, ...]
    refinement_rounds: int = 2

    def __post_init__(self):
        if not self.R > 0:
            raise ValueError("R must be > 0")
        g = self.grid
        if not g:
            raise ValueError("grid must be nonempty")
        if any(not 0.0 < t < self.R for t in g):
            raise ValueError("grid times must lie in (0, R)")
        if any(b <= a for a, b in zip(g, g[1:])):
            raise ValueError("grid must be strictly increasing")
        if self.refinement_rounds < 0:
            raise ValueError("refinement_rounds must be >= 0")

    @staticmethod
    def default(R: float, points: int = 64, refinement_rounds: int = 2) -> "MaximalSpec":
        grid = np.exp(
            np.linspace(math.log(R * 1e-4), math.log(R * (1.0 - 1e-9)), points)
        )
        return MaximalSpec(R, tuple(float(t) for t in grid), refinement_rounds)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def maximal(
    family: KernelFamily,
    f: TreeFunction,
    x,
    mspec: MaximalSpec,
    spec: QuadratureSpec = DEFAULT_SPEC,
):
    """Certified lower bound for sup_{0<t<R} |K_t f(x)| and its witness time.

    Grid evaluation plus golden-section refinement around the discrete
    argmax; the returned value is the running maximum, so it can only
    increase under grid refinement.
    """
    x = validate_word(x, f.geom.q)
    radius = max(depth(x) + max(f.support_radius(), 0), 4)
    geom = TreeGeometry(f.geom.q, radius)

    def g(t: float) -> float:
        return abs(apply_kernel(tabulate(geom, family, t, spec), f, x))

    values = [g(t) for t in mspec.grid]
    best = int(np.argmax(values))
    best_v = values[best]
    best_t = mspec.grid[best]
    lo = mspec.grid[best - 1] if best > 0 else mspec.grid[0] * 0.5
    hi = mspec.grid[best + 1] if best + 1 < len(mspec.grid) else min(
        mspec.R, mspec.grid[-1] * 2.0
    )
    a, b = lo, hi
    t1 = b - _GOLDEN * (b - a)
    t2 = a + _GOLDEN * (b - a)
    v1, v2 = g(t1), g(t2)
    for _ in range(mspec.refinement_rounds):
        if v1 >= v2:
            b, t2, v2 = t2, t1, v1
            t1 = b - _GOLDEN * (b - a)
            v1 = g(t1)
        else:
            a, t1, v1 = t1, t2, v2
            t2 = a + _GOLDEN * (b - a)
            v2 = g(t2)
    for tv, vv in ((t1, v1), (t2, v2)):
        if vv > best_v:
            best_v, best_t = vv, tv
    return best_v, best_t


def _evolved(
    family: KernelFamily,
    f: TreeFunction,
    t: float,
    vertices,
    spec: QuadratureSpec,
) -> dict:
    radius = max(
        (depth(validate_word(v, f.geom.q)) for v in vertices), default=0
    ) + max(f.support_radius(), 0)
    geom = TreeGeometry(f.geom.q, max(radius, 4))
    kern = tabulate(geom, family, t, spec)
    return {tuple(v): apply_kernel(kern, f, v) for v in vertices}


def pde_residual(
    family: KernelFamily,
    f: TreeFunction,
    x,
    t: float,
    h: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    fractional_margin: int = 40,
) -> float:
    """Central finite-difference residual of the family's evolution equation.

    heat:   d_t u + L u
    stable: d_t u + L^{a/2} u   (fractional term on a truncation of u with
            `fractional_margin` extra shells; adequate for q >= 2 where the
            kernel tail decays superexponentially in the margin)
    wave:   d_tt u + ((1-2 nu)/t) d_t u - L u
    Contract: O(h^2) as h -> 0 for fixed (t, x).
    """
    if not t > h > 0:
        raise ValueError("need t > h > 0")
    x = validate_word(x, f.geom.q)
    q = f.geom.q

    if family.kind == "stable":
        m = depth(x) + max(f.support_radius(), 0) + fractional_margin
        geom = TreeGeometry(q, m)
        if f.is_radial:
            kplus = m + max(f.support_radius(), 0)
            gk = TreeGeometry(q, kplus)

            def u_fn(tv):
                kern = tabulate(gk, family, tv, spec)
                vals = [
                    apply_kernel(kern, f, (0,) * k if k else ROOT)
                    for k in range(m + 1)
                ]
                return TreeFunction.from_radial(geom, vals)

            up, u0, um = (u_fn(tv) for tv in (t + h, t, t - h))
            dudt = (up.value(x) - um.value(x)) / (2.0 * h)
            return dudt + fractional_laplacian(u0, family.alpha, x, spec)
        raise ValueError("stable residual implemented for radial data")

    nb = neighbors(x, q)
    verts = [x, *nb]
    up = _evolved(family, f, t + h, verts, spec)
    u0 = _evolved(family, f, t, verts, spec)
    um = _evolved(family, f, t - h, verts, spec)
    lap = u0[x] - sum(u0[y] for y in nb) / (q + 1.0)
    if family.kind == "heat":
        dudt = (up[x] - um[x]) / (2.0 * h)
        return dudt + lap
    # wave-type: second-order in t with the 1/t coefficient at the center node
    dtt = (up[x] - 2.0 * u0[x] + um[x]) / (h * h)
    dt1 = (up[x] - um[x]) / (2.0 * h)
    return dtt + (1.0 - 2.0 * family.nu) / t * dt1 - lap
