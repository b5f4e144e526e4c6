"""Flow measure, level function, flow Laplacian, and the conjugation identity.

The level function fixes the all-label-0 ray from the root as the ancestor
direction: level(x) = (length of the common prefix of x with the ray) minus
(the remaining word length), so the root has level 0 and each edge changes
the level by exactly +-1, with exactly one neighbor one level up.

With lambda(x) = q^{level(x)} and b = (sqrt(q)-1)^2/(q+1), the flow
Laplacian

    L_flow f(x) = f(x) - (1/(2 sqrt(q))) sum_{y ~ x} sqrt(lambda(y)/lambda(x)) f(y)

satisfies the operator identity L_flow = (1/(1-b)) lambda^{-1/2} (L - b) lambda^{1/2}
(the square root of the measure ratio makes L_flow self-adjoint on
l^2(lambda) and makes constants harmonic, since L lambda^{1/2} = b lambda^{1/2}),
and the flow heat semigroup is

    W_flow(t) = lambda^{-1/2} e^{b t/(1-b)} W(t/(1-b)) lambda^{1/2},

which is verified here through the finite-difference residual of
(d/dt + L_flow) applied to the right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import (
    TreeGeometry,
    Word,
    depth,
    enumerate_ball,
    neighbors,
    validate_word,
)
from .kernels import KernelFamily, tabulate
from .operators import TreeFunction, apply_kernel
from .quadrature import DEFAULT_SPEC, QuadratureSpec


def flow_constant(q: int) -> float:
    """b = (sqrt(q) - 1)^2 / (q + 1); zero exactly when q = 1."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return (math.sqrt(q) - 1.0) ** 2 / (q + 1.0)


@dataclass(frozen=True)
class FlowStructure:
    """Geometry plus the distinguished ancestor ray (all-0 labels)."""

    geom: TreeGeometry

    def level(self, x) -> int:
        x = validate_word(x, self.geom.q)
        prefix = 0
        for c in x:
            if c != 0:
                break
            prefix += 1
        return prefix - (len(x) - prefix)

    def lam(self, x) -> float:
        return float(self.geom.q) ** self.level(x)

    @property
    def b(self) -> float:
        return flow_constant(self.geom.q)


def flow_laplacian(fs: FlowStructure, f: TreeFunction, x) -> float:
    """f(x) - (1/(2 sqrt q)) sum over neighbors of sqrt(lambda-ratio) f(y)."""
    q = fs.geom.q
    x = validate_word(x, f.geom.q)
    if depth(x) + 1 > f.geom.radius:
        raise ValueError(
            f"vertex {x} is not interior for radius {f.geom.radius}"
        )
    lx = fs.lam(x)
    acc = 0.0
    for y in neighbors(x, q):
        acc += math.sqrt(fs.lam(y) / lx) * f.value(y)
    return f.value(x) - acc / (2.0 * math.sqrt(q))


def _conjugated_value(
    fs: FlowStructure,
    t: float,
    f: TreeFunction,
    x: Word,
    spec: QuadratureSpec,
) -> float:
    """u(t, x) = lambda^{-1/2}(x) e^{bt/(1-b)} W_{t/(1-b)}(lambda^{1/2} f)(x)."""
    q = fs.geom.q
    b = fs.b
    if f.is_radial:
        g = TreeFunction.from_table(
            f.geom,
            {
                y: math.sqrt(fs.lam(y)) * f.value(y)
                for y in enumerate_ball(f.geom)
                if f.value(y) != 0.0
            },
        )
    else:
        g = TreeFunction.from_table(
            f.geom,
            {y: math.sqrt(fs.lam(y)) * v for y, v in f.table.items()},
        )
    radius = depth(x) + max(g.support_radius(), 0)
    kern = tabulate(
        TreeGeometry(q, max(radius, 4)), KernelFamily.heat(), t / (1.0 - b), spec
    )
    w = apply_kernel(kern, g, x)
    return math.exp(b * t / (1.0 - b)) * w / math.sqrt(fs.lam(x))


def verify_flow_conjugation(
    fs: FlowStructure,
    t: float,
    f: TreeFunction,
    x,
    h: float = 1e-2,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Finite-difference residual of (d/dt + L_flow) on the conjugated
    semigroup at (t, x); O(h^2) for the correct conjugation identity."""
    if not t > h > 0:
        raise ValueError("need t > h > 0")
    x = validate_word(x, fs.geom.q)
    q = fs.geom.q
    verts = [x, *neighbors(x, q)]
    geom_out = TreeGeometry(q, max(depth(y) for y in verts))
    u = {
        tv: TreeFunction.from_table(
            geom_out,
            {y: _conjugated_value(fs, tv, f, y, spec) for y in verts},
        )
        for tv in (t - h, t, t + h)
    }
    dudt = (u[t + h].value(x) - u[t - h].value(x)) / (2.0 * h)
    return dudt + flow_laplacian(fs, u[t], x)
