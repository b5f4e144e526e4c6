"""Pointwise operators on tree functions: Laplacian, fractional powers,
kernel application, truncated maximal functions, and evolution-equation
residuals.

A radial kernel acts through the cross coefficients C[x, j], the sum of f
over the sphere of radius j around x: K_t f(x) = sum_j C[x, j] K_t(j). The
ball operator builds C once for all its vertices and multiplies it, over j
in order, by a block K[j, i] = K_{t_i}(j) (kernels.kernel_block). Its
maximal function takes the max over the grid's columns, then refines every
vertex in step, one block per golden-section step; fractional_laplacian (with
kernels.fractional_kernel) uses the same C. For radial f, C comes from the
distance census (geometry.cross_distance_counts).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    ROOT,
    TreeGeometry,
    Word,
    ball_distances,
    cross_distance_counts,
    depth,
    enumerate_ball,
    neighbors,
    validate_word,
)
from .kernels import KernelFamily, fractional_kernel, kernel_block
from .quadrature import DEFAULT_SPEC, QuadratureSpec


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


def _radial_cross(f: TreeFunction, k: int) -> np.ndarray:
    """C[x, j] for a radial f at any x with d(o, x) = k: one bincount over the
    distance census, each C[x, j] summed over i ascending.

    Each (i, j) occurs once in the census; its count q^r can pass int64, so it
    turns into a float before numpy sees it.
    """
    sup = f.support_radius()
    if sup < 0:
        return np.zeros(1)
    terms = sorted(((i, j, float(n) * f.radial[i])
                    for i, j, n in cross_distance_counts(f.geom.q, k, sup)
                    if f.radial[i] != 0.0), key=lambda term: term[0])
    _, j, w = zip(*terms)
    return np.bincount(j, w, minlength=k + sup + 1)


def _cross_matrix(f: TreeFunction, xs) -> np.ndarray:
    """C[i, j] = sum of f over the sphere of radius j around xs[i]."""
    if f.is_radial:
        rows = {k: _radial_cross(f, k) for k in sorted({depth(x) for x in xs})}
        C = np.zeros((len(xs), max(len(r) for r in rows.values())))
        for i, x in enumerate(xs):
            C[i, : len(rows[depth(x)])] = rows[depth(x)]
        return C
    items = f.support_items()
    if not items:
        return np.zeros((len(xs), 1))
    ws, vs = zip(*items)
    # d(x, w) one vector at a time, from the smaller side: the ball around the
    # xs once per support vertex, or the ball around the support once per x.
    # Either way each C[x, j] adds its terms in the order of the items.
    g_x, g_w = (TreeGeometry(f.geom.q, max(map(depth, zs))) for zs in (xs, ws))
    C, width = np.zeros((len(xs), g_x.radius + g_w.radius + 1)), 1
    if len(ws) * g_x.ball_size() <= len(xs) * g_w.ball_size():
        at, rows = _ball_positions(g_x, xs), np.arange(len(xs))
        for w, v in items:
            d = ball_distances(g_x, w)[at]
            C[rows, d] += v
            width = max(width, int(d.max()) + 1)
    else:
        at, vs = _ball_positions(g_w, ws), np.array(vs)
        for i, x in enumerate(xs):
            row = np.bincount(ball_distances(g_w, x)[at], vs)
            C[i, : len(row)] = row
            width = max(width, len(row))
    return C[:, :width]


def _ball_positions(geom: TreeGeometry, words) -> np.ndarray:
    """The index of each word in enumerate_ball(geom)."""
    index = {w: i for i, w in enumerate(enumerate_ball(geom))}
    return np.array([index[w] for w in words])


def _combine(C: np.ndarray, K: np.ndarray) -> np.ndarray:
    """V[x, i] = sum_j C[x, j] K[j, i], summed over j in order."""
    out = np.zeros((C.shape[0], K.shape[1]))
    for j in range(C.shape[1]):
        out += C[:, j, None] * K[j]
    return out


def radial_convolve(q: int, a, b, k: int) -> float:
    """(A * B)(k) = sum_z A(d(o, z)) B(d(x, z)) for radial tables A, B and
    d(o, x) = k; the terms with d(x, z) beyond the table B are left out."""
    c = _radial_cross(TreeFunction.from_radial(TreeGeometry(q, len(a) - 1), a), k)[: len(b)]
    return float(_combine(c[None, :], np.asarray(b, dtype=float)[: len(c), None])[0, 0])


def fractional_laplacian(
    f: TreeFunction, alpha: float, x, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """L^{alpha/2} f(x), exact over the finite support of f."""
    C = _cross_matrix(f, [validate_word(x, f.geom.q)])
    kern = fractional_kernel(f.geom.q, alpha, C.shape[1] - 1, spec)
    return float(_combine(C, kern[:, None])[0, 0])


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


class BallOperator:
    """K_t f at every vertex of xs at once, for one kernel family: the cross
    coefficients are built once, and each call takes one kernel block."""

    def __init__(
        self, family: KernelFamily, f: TreeFunction, xs, spec: QuadratureSpec = DEFAULT_SPEC
    ):
        self.family, self.q, self.spec = family, f.geom.q, spec
        self.C = _cross_matrix(f, [validate_word(x, f.geom.q) for x in xs])

    def block(self, ts) -> np.ndarray:
        """V[x, i] = K_{ts[i]} f(x)."""
        K = kernel_block(self.q, self.family, ts, self.C.shape[1] - 1, self.spec)
        return _combine(self.C, K)

    def apply(self, t: float) -> np.ndarray:
        return self.block([t])[:, 0]

    def _at(self, ts: np.ndarray) -> np.ndarray:
        """|K_t f(x)| at the times ts[x, m] of each vertex: one block over
        the distinct times."""
        times, inv = np.unique(ts, return_inverse=True)
        values = self.block(times)
        return np.abs(values[np.arange(len(ts))[:, None], inv.reshape(ts.shape)])

    def maximal(self, mspec: MaximalSpec) -> tuple[np.ndarray, np.ndarray]:
        """Certified lower bounds for sup_{0<t<R} |K_t f(x)| and their
        witness times.

        Grid evaluation plus golden-section refinement around each vertex's
        discrete argmax; each value is the running maximum, so it can only
        increase under grid refinement.
        """
        grid = np.array(mspec.grid)
        values = np.abs(self.block(grid))
        best = values.argmax(axis=1)
        best_v, best_t = values[np.arange(len(best)), best], grid[best]
        # each argmax's grid neighbours, with grid[0]/2 and min(R, 2 grid[-1]) at the ends
        ends = np.concatenate([[grid[0] * 0.5], grid, [min(mspec.R, grid[-1] * 2.0)]])
        a, b = ends[best], ends[best + 2]
        t1 = b - _GOLDEN * (b - a)
        t2 = a + _GOLDEN * (b - a)
        v1, v2 = self._at(np.stack([t1, t2], axis=1)).T
        for _ in range(mspec.refinement_rounds):
            left = v1 >= v2
            a = np.where(left, a, t1)
            b = np.where(left, t2, b)
            tn = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
            vn = self._at(tn[:, None])[:, 0]
            t1, t2 = np.where(left, tn, t2), np.where(left, t1, tn)
            v1, v2 = np.where(left, vn, v2), np.where(left, v1, vn)
        for tv, vv in ((t1, v1), (t2, v2)):
            up = vv > best_v
            best_v, best_t = np.where(up, vv, best_v), np.where(up, tv, best_t)
        return best_v, best_t


_FRACTIONAL_MARGIN = 40


def pde_residual(
    family: KernelFamily,
    f: TreeFunction,
    x,
    t: float,
    h: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Central finite-difference residual of the family's evolution equation.

    heat:   d_t u + L u
    stable: d_t u + L^{a/2} u   (fractional term on a truncation of u with
            _FRACTIONAL_MARGIN extra shells; adequate for q >= 2 where the
            kernel tail decays superexponentially in the margin)
    wave:   d_tt u + ((1-2 nu)/t) d_t u - L u
    Contract: O(h^2) as h -> 0 for fixed (t, x).
    """
    if not t > h > 0:
        raise ValueError("need t > h > 0")
    x = validate_word(x, f.geom.q)
    q = f.geom.q

    if family.kind == "stable":
        if not f.is_radial:
            raise ValueError("stable residual implemented for radial data")
        m = depth(x) + max(f.support_radius(), 0) + _FRACTIONAL_MARGIN
        spine = BallOperator(family, f, [(0,) * k for k in range(m + 1)], spec)
        up, u0, um = (spine.apply(tv) for tv in (t + h, t, t - h))
        dudt = (up[depth(x)] - um[depth(x)]) / (2.0 * h)
        u = TreeFunction.from_radial(TreeGeometry(q, m), u0)
        return float(dudt + fractional_laplacian(u, family.alpha, x, spec))

    nb = neighbors(x, q)
    ball = BallOperator(family, f, [x, *nb], spec)
    up, u0, um = (ball.apply(tv) for tv in (t + h, t, t - h))
    lap = u0[0] - sum(u0[1:].tolist()) / (q + 1.0)
    if family.kind == "heat":
        dudt = (up[0] - um[0]) / (2.0 * h)
        return float(dudt + lap)
    # wave-type: second-order in t with the 1/t coefficient at the center node
    dtt = (up[0] - 2.0 * u0[0] + um[0]) / (h * h)
    dt1 = (up[0] - um[0]) / (2.0 * h)
    return float(dtt + (1.0 - 2.0 * family.nu) / t * dt1 - lap)
