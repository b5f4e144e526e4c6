"""Pointwise operators on tree functions: Laplacian, fractional powers,
kernel application, truncated maximal functions, and evolution-equation
residuals.

A radial kernel acts through the cross coefficients C[x, j], the sum of f
over the sphere of radius j around x: K_t f(x) = sum_j C[x, j] K_t(j). The
ball operator builds C once for all its vertices and multiplies it, over j
in order, by a block K[j, i] = K_{t_i}(j) (kernels.kernel_block). Its
maximal function takes the max over the grid's columns, then refines every
vertex in step, one block per golden-section step; fractional_laplacian (with
kernels.fractional_kernel) uses the same C. C comes from subtree depth
profiles in time linear in the ball (_cross_matrix): an explicit f is placed
in ball order by geometry.ball_positions, and a radial f takes its profiles
in closed form, without a ball.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    ROOT,
    TreeGeometry,
    Word,
    ball_positions,
    depth,
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


def _radial_row(q: int, fv: np.ndarray, k: int) -> np.ndarray:
    """C[x, j] for a radial f (values fv, last one nonzero) at every x with
    d(o, x) = k, from the depth profiles in closed form: D_v[d] = q^d f(|v| +
    d), (q + 1) q^(d - 1) f(d) at the root. The path vertices are taken from
    the root down, so each C[x, j] adds its terms by distance from o
    ascending; a count q^r can pass int64, so it turns into a float in Python.
    """
    S = len(fv) - 1
    row = np.zeros(k + S + 1)
    for a in range(min(k, S) + 1):  # the path vertex a levels below o
        # f there at j = k - a, then what hangs off it r >= 1 levels down: the
        # siblings of the next path vertex (c of them), or below x itself
        if a < k:
            c = q if a == 0 else q - 1
        else:
            c = q + 1 if k == 0 else q
        coef = np.array([1.0] + [float(c * q ** (r - 1)) for r in range(1, S - a + 1)])
        row[k - a : k + S - 2 * a + 1] += coef * fv[a:]
    return row


def _cross_matrix(f: TreeFunction, xs) -> np.ndarray:
    """C[i, j] = sum of f over the sphere of radius j around xs[i], cut after
    its last nonzero column; linear in the ball, from subtree depth profiles.

    D_v[d] is the sum of f over the descendants of v that lie d levels below
    it, U_v[j] the sum over the vertices at distance j outside v's subtree,
    and C[x, j] = D_x[j] + U_x[j]. One bottom-up pass builds D on the ball of
    f's support (in ball order the children of a vertex are contiguous, so a
    level is one reshape), and one top-down pass builds U along the paths to
    the xs: for a child c of v, U_c[j] = U_v[j - 1] + [j = 1] f(v) +
    sum_{s sibling of c} D_s[j - 2], each sibling sum from prefix and suffix
    sums, so that C only adds and an exact 0 stays 0. A vertex x below the
    support reads its ancestor a at the support's depth: C[x, j] = C[a, j -
    d(a, x)]. A radial f takes D in closed form (_radial_row).
    """
    ks = np.array([depth(x) for x in xs], dtype=np.int64)
    S = f.support_radius()
    C = np.zeros((len(xs), int(ks.max(initial=0)) + max(S, 0) + 1))
    if S < 0:
        return C[:, :1]
    if f.is_radial:
        fv = np.array(f.radial[: S + 1])
        for k in np.unique(ks).tolist():
            row = _radial_row(f.geom.q, fv, k)
            C[ks == k, : len(row)] = row
    else:
        _explicit_cross(f, xs, ks, S, C)
    nz = np.flatnonzero(C.any(axis=0))
    return C[:, : nz[-1] + 1 if len(nz) else 1]


def _explicit_cross(f: TreeFunction, xs, ks: np.ndarray, S: int, C: np.ndarray) -> None:
    """Fill C for an explicit f whose nonzero values reach depth S (see
    _cross_matrix)."""
    g = TreeGeometry(f.geom.q, S)
    sizes = [g.sphere_size(n) for n in range(S + 1)]
    starts = np.cumsum([0, *sizes])
    words = [w for w, v in f.table.items() if v != 0.0]
    flat = np.zeros(int(starts[-1]))
    flat[ball_positions(g, words)] = [f.table[w] for w in words]
    level = [flat[starts[n] : starts[n + 1]] for n in range(S + 1)]
    D = [level[S][:, None]]  # D[n][i, d] for vertex i of level n, bottom up
    for n in range(S - 1, -1, -1):
        below = D[0].reshape(sizes[n], -1, S - n).sum(axis=1)
        D.insert(0, np.concatenate([level[n][:, None], below], axis=1))
    # each x as the vertex it reads (its ancestor at depth S if deeper), by
    # level and position in the level; the rows of U needed on each level
    lv = np.minimum(ks, S)
    local = ball_positions(g, [x[:S] for x in xs]) - starts[lv]
    need, carry = [None] * (S + 1), np.empty(0, dtype=np.int64)
    for n in range(S, -1, -1):
        need[n] = np.unique(np.concatenate([local[lv == n], carry]))
        carry = need[n] // (sizes[n] // sizes[n - 1]) if n else carry
    width = int(lv.max(initial=0)) + S + 1
    U = np.zeros((len(need[0]), width))
    for n in range(int(lv.max(initial=0)) + 1):
        if n:
            fan = sizes[n] // sizes[n - 1]
            G = D[n].reshape(sizes[n - 1], fan, S - n + 1)
            sib = np.zeros_like(G)
            sib[:, 1:] = np.cumsum(G[:, :-1], axis=1)
            sib[:, :-1] += np.cumsum(G[:, :0:-1], axis=1)[:, ::-1]
            parent = need[n] // fan
            up = U[np.searchsorted(need[n - 1], parent)]
            U = np.zeros((len(need[n]), width))
            U[:, 1:] = up[:, :-1]
            U[:, 1] += level[n - 1][parent]
            U[:, 2 : S - n + 3] += sib.reshape(sizes[n], -1)[need[n]]
        at = np.flatnonzero(lv == n)
        if len(at):
            full = U[np.searchsorted(need[n], local[at])]
            full[:, : S - n + 1] += D[n][local[at]]
            C[at[:, None], (ks[at] - n)[:, None] + np.arange(width)] = full


def _combine(C: np.ndarray, K: np.ndarray) -> np.ndarray:
    """V[x, i] = sum_j C[x, j] K[j, i], summed over j in order."""
    out = np.zeros((C.shape[0], K.shape[1]))
    for j in range(C.shape[1]):
        out += C[:, j, None] * K[j]
    return out


def radial_convolve(q: int, a, b, k: int) -> float:
    """(A * B)(k) = sum_z A(d(o, z)) B(d(x, z)) for radial tables A, B and
    d(o, x) = k; the terms with d(x, z) beyond the table B are left out."""
    f = TreeFunction.from_radial(TreeGeometry(q, len(a) - 1), a)
    c = _cross_matrix(f, [(0,) * k])[0, : len(b)]
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
        witness times: each value is |K_t f(x)| at its witness t.

        Grid evaluation plus golden-section refinement around each vertex's
        discrete argmax; each value is the running maximum, so it can only
        increase under grid refinement. Nothing bounds the sup from above.
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
