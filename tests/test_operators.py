import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ball import ball_adjacency
from reference import bessel_i, distance
from treeheat.geometry import ROOT, TreeGeometry, enumerate_ball, sphere_size
from treeheat.kernels import KernelFamily, tabulate
from treeheat.operators import (
    BallOperator,
    _cross_matrix,
    MaximalSpec,
    TreeFunction,
    fractional_laplacian,
    laplacian,
    pde_residual,
)


def eigen_fractional_delta(q, radius, alpha):
    """Dense oracle: (L^{alpha/2} delta_root)(root) on the truncated ball."""
    geom = TreeGeometry(q, radius)
    verts, index, adj = ball_adjacency(geom)
    n = len(verts)
    L = np.eye(n) - adj.toarray() / (q + 1)
    w, V = np.linalg.eigh(L)
    w = np.clip(w, 0.0, None)
    e0 = V[index[ROOT], :]
    return float(np.sum(w ** (alpha / 2.0) * e0**2))


def test_laplacian_examples():
    geom = TreeGeometry(2, 4)
    const = TreeFunction.from_radial(geom, [1.0] * 5)
    assert laplacian(const, ROOT) == pytest.approx(0.0, abs=1e-15)
    delta = TreeFunction.delta(geom)
    assert laplacian(delta, ROOT) == pytest.approx(1.0)
    assert laplacian(delta, (0,)) == pytest.approx(-1.0 / 3.0)


def test_laplacian_boundary_error():
    geom = TreeGeometry(2, 2)
    f = TreeFunction.delta(geom)
    with pytest.raises(ValueError):
        laplacian(f, (0, 0))  # neighbors at depth 3 are outside the ball


def test_tree_function_representations_agree():
    geom = TreeGeometry(2, 3)
    radial = TreeFunction.from_radial(geom, [2.0, -1.0, 0.5, 0.25])
    table = TreeFunction.from_table(
        geom, {v: [2.0, -1.0, 0.5, 0.25][len(v)] for v in enumerate_ball(geom)}
    )
    for v in enumerate_ball(geom):
        assert radial.value(v) == table.value(v)
    assert laplacian(radial, (0,)) == pytest.approx(laplacian(table, (0,)))


def test_tree_function_outside_ball_raises():
    geom = TreeGeometry(2, 2)
    f = TreeFunction.delta(geom)
    with pytest.raises(ValueError):
        f.value((0, 0, 0))


def test_fractional_laplacian_constant_ball_vanishes_with_radius():
    # f constant on a ball is still finitely supported, so the value at the
    # root is the escape mass seen through t^{-1-alpha/2}; it vanishes only
    # as the ball grows (rate ~ radius^{-alpha/2}), monotonically
    alpha = 1.5
    vals = []
    for radius in (10, 20, 40):
        geom = TreeGeometry(2, radius)
        const = TreeFunction.from_radial(geom, [3.0] * (radius + 1))
        vals.append(abs(fractional_laplacian(const, alpha, ROOT)))
    assert vals[2] < vals[1] < vals[0]
    assert vals[2] < 0.05 * 3.0


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_fractional_laplacian_against_eigen_oracle(alpha):
    geom = TreeGeometry(2, 10)
    delta = TreeFunction.delta(geom)
    got = fractional_laplacian(delta, alpha, ROOT)
    oracle = eigen_fractional_delta(2, 10, alpha)
    assert got == pytest.approx(oracle, abs=2e-6)


def test_fractional_laplacian_alpha_to_two_limit():
    geom = TreeGeometry(2, 8)
    delta = TreeFunction.delta(geom)
    got = fractional_laplacian(delta, 1.99, ROOT)
    lap = laplacian(delta, ROOT)
    assert abs(got - lap) <= 2e-3 * abs(lap)  # the true gap is 9.4e-4


def binomial_series_fractional(q, alpha, kmax, terms):
    """L^{alpha/2} delta_o(k) = sum_n (-1)^n binom(alpha/2, n) u_n(k), k <= kmax,
    by mpmath at 30 digits; u_n(k), the chance that the walk from o sits at
    one given vertex at distance k after n steps, by its radial recursion."""
    with mp.workdps(30):
        beta = mp.mpf(alpha) / 2
        u = [mp.mpf(1)] + [mp.mpf(0)] * (terms + kmax + 1)
        total = [mp.mpf(0)] * (kmax + 1)
        coeff = mp.mpf(1)
        for n in range(terms + 1):
            for k in range(kmax + 1):
                total[k] += coeff * u[k]
            coeff *= (n - beta) / (n + 1)
            width = kmax + terms - n + 1  # farther out, no walk gets back in time
            u = [u[1]] + [(u[j - 1] + q * u[j + 1]) / (q + 1) for j in range(1, width)]
            u += [mp.mpf(0)] * 2
        return [float(v) for v in total]


def line_fractional(alpha, k):
    """(1/pi) int_0^pi (1 - cos th)^{alpha/2} cos(k th) d th, by mpmath."""
    with mp.workdps(30):
        f = lambda th: (1 - mp.cos(th)) ** (mp.mpf(alpha) / 2) * mp.cos(k * th)  # noqa: E731
        return float(mp.quad(f, mp.linspace(0, mp.pi, 9)) / mp.pi)


@pytest.mark.parametrize("alpha", [0.5, 1.99])
def test_fractional_laplacian_against_binomial_series(alpha):
    geom = TreeGeometry(2, 4)
    delta = TreeFunction.delta(geom)
    ref = binomial_series_fractional(2, alpha, 3, 640)  # rho^640 < 1e-16
    for k in range(4):
        got = fractional_laplacian(delta, alpha, (0,) * k)
        assert got == pytest.approx(ref[k], rel=1e-12, abs=0.0), k
    line = TreeFunction.delta(TreeGeometry(1, 4))
    for k in range(4):
        got = fractional_laplacian(line, alpha, (0,) * k)
        assert got == pytest.approx(line_fractional(alpha, k), rel=1e-12, abs=0.0), k


def test_fractional_generator_consistency():
    # (P_t f - f)/t -> -L^{a/2} f as t -> 0+
    q, alpha = 2, 1.0
    geom = TreeGeometry(q, 6)
    delta = TreeFunction.delta(geom)
    frac = fractional_laplacian(delta, alpha, ROOT)
    ball = BallOperator(KernelFamily.stable(alpha), delta, [ROOT])
    gaps = []
    for t in (1e-3, 5e-4):
        diff = (ball.apply(t)[0] - 1.0) / t
        gaps.append(abs(diff + frac))
    assert gaps[1] < gaps[0]
    assert gaps[1] < 5e-3


def test_heat_generator_consistency():
    q = 2
    geom = TreeGeometry(q, 6)
    delta = TreeFunction.delta(geom)
    lap = laplacian(delta, ROOT)
    t, h = 0.5, 1e-4
    up, dn = BallOperator(KernelFamily.heat(), delta, [ROOT]).block([t + h, t - h])[0]
    kern = tabulate(TreeGeometry(q, 10), KernelFamily.heat(), t)
    u = TreeFunction.from_radial(
        TreeGeometry(q, 9), [kern.value(k) for k in range(10)]
    )
    assert (up - dn) / (2 * h) + laplacian(u, ROOT) == pytest.approx(0.0, abs=1e-7)


def test_apply_kernel_delta_and_bessel():
    geom = TreeGeometry(1, 4)
    delta = TreeFunction.delta(geom)
    got = BallOperator(KernelFamily.heat(), delta, [(0, 0)]).apply(1.0)[0]
    assert got == pytest.approx(bessel_i(2, 1.0) * math.exp(-1.0), rel=1e-12)


def test_apply_kernel_stochastic_on_ones():
    geom = TreeGeometry(2, 30)
    ones = TreeFunction.from_radial(geom, [1.0] * 31)
    kern = tabulate(geom, KernelFamily.heat(), 0.5)
    assert BallOperator(KernelFamily.heat(), ones, [ROOT]).apply(0.5)[0] == pytest.approx(
        1.0, abs=kern.tail_bound + 1e-8
    )


def test_maximal_delta_near_zero_R():
    geom = TreeGeometry(2, 2)
    delta = TreeFunction.delta(geom)
    (value,), (argmax_t,) = BallOperator(KernelFamily.heat(), delta, [ROOT]).maximal(
        MaximalSpec.default(1e-3)
    )
    assert 0.99 < value <= 1.0
    assert 0 < argmax_t < 1e-3


def test_maximal_dominates_grid_values():
    geom = TreeGeometry(2, 4)
    f = TreeFunction.from_radial(geom, [1.0, 0.5, 0.25, 0.0, 0.0])
    mspec = MaximalSpec.default(1.0, points=16, refinement_rounds=1)
    fam = KernelFamily.heat()
    (value,), _ = BallOperator(fam, f, [ROOT]).maximal(mspec)
    assert value >= 0.0
    for t in mspec.grid:
        kern = tabulate(geom, fam, t)
        at_root = sum(f.radial[k] * sphere_size(geom, k) * kern.value(k) for k in range(5))
        assert value >= at_root - 1e-12


def test_maximal_grid_only_matches_brute_force():
    # spec example: indicator of sphere k=3, stable(1), R=1, grid-only sup
    q = 2
    geom = TreeGeometry(q, 4)
    f = TreeFunction.from_radial(geom, [0.0, 0.0, 0.0, 1.0, 0.0])
    mspec = MaximalSpec.default(1.0, points=16, refinement_rounds=0)
    fam = KernelFamily.stable(1.0)
    (value,), (argmax_t,) = BallOperator(fam, f, [ROOT]).maximal(mspec)
    verts = [v for v in enumerate_ball(geom) if len(v) == 3]
    best = 0.0
    best_t = None
    for t in mspec.grid:
        kern = tabulate(TreeGeometry(q, 4), fam, t)
        tot = abs(sum(kern.value(distance(ROOT, y)) for y in verts))
        if tot > best:
            best, best_t = tot, t
    assert value == pytest.approx(best, rel=1e-10, abs=0.0)
    assert argmax_t == pytest.approx(best_t)


def test_maximal_nondecreasing_under_refinement():
    geom = TreeGeometry(2, 3)
    f = TreeFunction.from_radial(geom, [0.0, 1.0, 0.0, 0.0])
    ball = BallOperator(KernelFamily.heat(), f, [ROOT])
    (coarse,), _ = ball.maximal(MaximalSpec.default(1.0, 8, 0))
    (fine,), _ = ball.maximal(MaximalSpec.default(1.0, 32, 0))
    (refined,), _ = ball.maximal(MaximalSpec.default(1.0, 32, 2))
    assert coarse <= fine + 1e-15
    assert fine <= refined + 1e-15


def per_vertex_maximal(family, f, x, mspec):
    """The per-vertex route as an oracle: a table per time, a sum over the
    support by tree distances, and the golden-section search on top."""
    radius = max(len(x) + max(f.support_radius(), 0), 4)
    geom = TreeGeometry(f.geom.q, radius)

    def g(t):
        kern = tabulate(geom, family, t)
        return abs(sum(v * kern.value(distance(x, w)) for w, v in f.support_items()))

    golden = (math.sqrt(5.0) - 1.0) / 2.0
    grid = mspec.grid
    values = [g(t) for t in grid]
    best = int(np.argmax(values))
    best_v, best_t = values[best], grid[best]
    a = grid[best - 1] if best > 0 else grid[0] * 0.5
    b = grid[best + 1] if best + 1 < len(grid) else min(mspec.R, grid[-1] * 2.0)
    t1, t2 = b - golden * (b - a), a + golden * (b - a)
    v1, v2 = g(t1), g(t2)
    for _ in range(mspec.refinement_rounds):
        if v1 >= v2:
            b, t2, v2 = t2, t1, v1
            t1 = b - golden * (b - a)
            v1 = g(t1)
        else:
            a, t1, v1 = t1, t2, v2
            t2 = a + golden * (b - a)
            v2 = g(t2)
    for tv, vv in ((t1, v1), (t2, v2)):
        if vv > best_v:
            best_v, best_t = vv, tv
    return best_v, best_t, values, g


@pytest.mark.parametrize(
    "q,family",
    [(1, KernelFamily.heat()), (2, KernelFamily.heat()), (3, KernelFamily.heat()),
     (2, KernelFamily.stable(1.0)), (2, KernelFamily.stable(1.5)),
     (2, KernelFamily.wave(0.75))],
)
def test_ball_operator_matches_per_vertex_route(q, family):
    rng = np.random.default_rng(q)
    geom = TreeGeometry(q, 2)
    words = enumerate_ball(TreeGeometry(q, 1))
    f = TreeFunction.from_table(geom, {w: rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.0)
                                       for w in words})
    xs = enumerate_ball(geom)
    mspec = MaximalSpec.default(1.0, points=16, refinement_rounds=2)
    ball = BallOperator(family, f, xs)
    values, times = ball.maximal(mspec)
    applied = ball.apply(0.3)
    for x, value, t_star, got in zip(xs, values, times, applied):
        ref_v, ref_t, grid_values, g = per_vertex_maximal(family, f, x, mspec)
        assert value == pytest.approx(ref_v, rel=1e-12, abs=0.0)
        assert t_star == pytest.approx(ref_t, rel=1e-12, abs=0.0)
        # the running-max contract: at least every grid value, equal at the witness
        assert all(value >= v * (1.0 - 1e-12) for v in grid_values)
        assert value == pytest.approx(g(t_star), rel=1e-12, abs=0.0)
        assert abs(got) == pytest.approx(g(0.3), rel=1e-12, abs=0.0)
        (one_v,), (one_t,) = BallOperator(family, f, [x]).maximal(mspec)
        assert (one_v, one_t) == (value, t_star)


def test_maximal_spec_validation():
    with pytest.raises(ValueError):
        MaximalSpec(1.0, (0.5, 0.4), 0)  # not increasing
    with pytest.raises(ValueError):
        MaximalSpec(1.0, (0.5, 1.5), 0)  # outside (0, R)
    with pytest.raises(ValueError):
        MaximalSpec(-1.0, (0.5,), 0)


def test_pde_residual_heat_order():
    geom = TreeGeometry(2, 2)
    delta = TreeFunction.delta(geom)
    r1 = pde_residual(KernelFamily.heat(), delta, ROOT, 1.0, 1e-2)
    r2 = pde_residual(KernelFamily.heat(), delta, ROOT, 1.0, 5e-3)
    assert abs(r1 / r2) == pytest.approx(4.0, rel=0.2)


def test_pde_residual_wave_vanishes():
    geom = TreeGeometry(2, 2)
    delta = TreeFunction.delta(geom)
    rs = [
        abs(pde_residual(KernelFamily.wave(1.0), delta, (0,), 0.8, h))
        for h in (1e-2, 2.5e-3)
    ]
    assert rs[1] < rs[0] / 8.0


def test_pde_residual_heat_on_constants():
    geom = TreeGeometry(2, 2)
    const = TreeFunction.from_radial(geom, [1.0, 1.0, 1.0])
    r = pde_residual(KernelFamily.heat(), const, ROOT, 0.7, 1e-2)
    assert abs(r) < 1e-5  # exact for a true constant; small-ball tail effects


@settings(max_examples=15)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=5, max_size=5))
def test_positivity_and_contraction(vals):
    geom = TreeGeometry(2, 4)
    f = TreeFunction.from_radial(geom, vals)
    out = BallOperator(KernelFamily.heat(), f, [ROOT]).apply(0.4)[0]
    assert out >= -1e-12
    assert out <= max(vals) + 1e-9


def test_ball_operator_memory_grows_with_the_ball():
    # a full explicit f on the radius-9 ball: the cross coefficients take no
    # (vertices x support) array
    geom = TreeGeometry(2, 9)
    xs = enumerate_ball(geom)
    rng = np.random.default_rng(9)
    f = TreeFunction.from_table(geom, {w: rng.uniform(-1.0, 1.0) for w in xs})
    tracemalloc.start()
    try:
        op = BallOperator(KernelFamily.heat(), f, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert op.C.shape == (len(xs), 19)
    assert peak < 16e6


@pytest.mark.parametrize("q", [1, 2, 3])
def test_cross_matrix_matches_distance_oracle(q):
    # C[x, j] = sum of f over the sphere of radius j around x, for explicit
    # and radial f, at x inside, on the edge of and past f's support; a
    # sphere that meets no nonzero value is an exact 0, and C ends at the
    # last distance that meets one
    rng = np.random.default_rng(20 + q)
    geom = TreeGeometry(q, 4)
    ball = enumerate_ball(geom)
    xs = ball + [(q,) + (0,) * 5, (0,) * 7, (1,) + (q - 1,) * 4]
    values = rng.uniform(-1.0, 1.0, len(ball)) * (rng.random(len(ball)) < 0.5)
    explicit = TreeFunction.from_table(
        geom, {w: v for w, v in zip(ball, values) if len(w) <= 3})
    radial = TreeFunction.from_radial(geom, [0.5, 0.0, -2.0, 0.0, 0.0])
    for f in (explicit, radial):
        C = _cross_matrix(f, xs)
        width = 1 + max(distance(x, y) for x in xs for y in ball if f.value(y) != 0.0)
        assert C.shape == (len(xs), width)
        for i, x in enumerate(xs):
            want, hit = np.zeros(width), np.zeros(width, dtype=bool)
            for y in ball:
                if f.value(y) != 0.0:
                    want[distance(x, y)] += f.value(y)
                    hit[distance(x, y)] = True
            assert np.all(C[i, ~hit] == 0.0), x
            assert np.allclose(C[i], want, rtol=0.0, atol=1e-14 * (q + 1) ** 4), x
