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

import numpy as np

from .geometry import TreeGeometry, depth, enumerate_ball, neighbors, validate_word
from .kernels import KernelFamily
from .operators import BallOperator, TreeFunction
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


def verify_flow_conjugation(
    fs: FlowStructure,
    t: float,
    f: TreeFunction,
    x,
    h: float = 1e-2,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Finite-difference residual of (d/dt + L_flow) on the conjugated
    semigroup u(t, y) = lambda^{-1/2}(y) e^{bt/(1-b)} W_{t/(1-b)}(lambda^{1/2} f)(y)
    at (t, x); O(h^2) for the correct conjugation identity."""
    if not t > h > 0:
        raise ValueError("need t > h > 0")
    x = validate_word(x, fs.geom.q)
    q, b = fs.geom.q, fs.b
    support = enumerate_ball(f.geom) if f.is_radial else f.table
    g = TreeFunction.from_table(
        f.geom,
        {y: math.sqrt(fs.lam(y)) * f.value(y) for y in support if f.value(y) != 0.0},
    )
    verts = [x, *neighbors(x, q)]
    ball = BallOperator(KernelFamily.heat(), g, verts, spec)
    root_lam = np.sqrt([fs.lam(y) for y in verts])
    geom_out = TreeGeometry(q, max(depth(y) for y in verts))
    u = {
        tv: TreeFunction.from_table(
            geom_out,
            dict(zip(verts, math.exp(b * tv / (1.0 - b)) * ball.apply(tv / (1.0 - b)) / root_lam)),
        )
        for tv in (t - h, t, t + h)
    }
    dudt = (u[t + h].value(x) - u[t - h].value(x)) / (2.0 * h)
    return dudt + flow_laplacian(fs, u[t], x)
