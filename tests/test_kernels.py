import io
import math
import re
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaln, kve

from ball import ball_adjacency
from treeheat import kernels
from treeheat.geometry import ROOT, TreeGeometry, sphere_size
from treeheat.kernels import (
    KernelFamily,
    RadialKernel,
    _walk_table,
    comparator_Z,
    fractional_kernel,
    heat_kernel_many,
    kernel_block,
    tabulate,
    write_kernel_csv,
)
from treeheat.operators import MaximalSpec, radial_convolve
from treeheat.errors import NumericalError
from treeheat.quadrature import DEFAULT_SPEC, QuadratureSpec
from reference import StableDensityParams, distance, integrate, one_value, stable_density
from treeheat.special import IVE_REL_ERR, bessel_i_scaled


@lru_cache(maxsize=1)  # one ball at a time: the q = 3 one holds 3.2M vertices
def _ball(q, radius):
    return ball_adjacency(TreeGeometry(q, radius))


def walk_series_heat(q, t, k, radius=None, tol=1e-13):
    """Independent oracle: e^{-t} sum_n (t/(q+1))^n / n! * (walks o->y of length n).

    The ball radius bounds the materialized adjacency; truncation only loses
    walks that exit the ball, with Poisson weight < e^{-t} t^r / r! < 1e-10
    for the radii used here.
    """
    if radius is None:
        radius = 16 if q == 2 else 13
    verts, index, adj = _ball(q, radius)
    target = index[tuple([0] * k)]
    vec = np.zeros(len(verts))
    vec[index[ROOT]] = 1.0
    total = 0.0
    coeff = math.exp(-t)  # e^{-t} t^n / n! at n = 0
    n = 0
    while True:
        total += coeff * vec[target]
        n += 1
        if coeff < tol and n > 3 * t + k:
            break
        vec = adj @ vec / (q + 1)
        coeff *= t / n
    return total


@pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
def test_q1_route_is_scaled_bessel(t):
    block = kernel_block(1, KernelFamily.heat(), [t], 40)
    for k in range(0, 41, 5):
        expect = float(bessel_i_scaled(k, t))
        assert block[k, 0] == pytest.approx(expect, abs=1e-14)


@pytest.mark.parametrize("q,t", [(2, 0.25), (2, 1.0), (3, 1.0)])
def test_heat_kernel_against_walk_series(q, t):
    block = kernel_block(q, KernelFamily.heat(), [t], 10)
    for k in range(11):
        oracle = walk_series_heat(q, t, k)
        assert block[k, 0] == pytest.approx(oracle, abs=1e-9)


def test_heat_kernel_small_time_limits():
    block = kernel_block(2, KernelFamily.heat(), [1e-8], 3)
    assert block[0, 0] == pytest.approx(1.0, abs=1e-7)
    assert block[3, 0] == pytest.approx(0.0, abs=1e-12)


def test_heat_kernel_many_matches_scalar():
    s = np.array([0.3, 1.0, 7.0])
    vals = heat_kernel_many(2, 4, s)
    for si, vi in zip(s, vals):
        alone = kernel_block(2, KernelFamily.heat(), [float(si)], 4)[4, 0]
        assert vi == pytest.approx(alone, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("k", [0, 1, 4, 9])
def test_heat_kernel_many_is_batch_independent(q, k):
    # at rel_tol 1e-4 the sum's cut J is low enough that summing past a
    # time's own J, to the batch's largest, would move t = 300 and 3000
    ts = [2.3, 7.9, 0.01, 300.0, 3000.0, 12000.0]
    for spec in (DEFAULT_SPEC, QuadratureSpec(rel_tol=1e-4)):
        batch = heat_kernel_many(q, k, ts, spec)
        for i, t in enumerate(ts):
            alone = heat_kernel_many(q, k, [t], spec)[0]
            assert alone.tobytes() == batch[i].tobytes()


@pytest.mark.parametrize("q", [2, 3])
def test_heat_block_equals_per_k_calls(q):
    # one call over every (k, t) pair gives each value the bits of its own call,
    # on the maximal grid, at large times and where e^{-t(1-rho)} underflows
    rho = 2.0 * math.sqrt(q) / (q + 1.0)
    ts = np.array(MaximalSpec.default(1.0).grid + (300.0, 5000.0, 1400.0 / (1.0 - rho)))
    block = kernel_block(q, KernelFamily.heat(), ts, 40)
    for k in range(41):
        assert block[k].tobytes() == heat_kernel_many(q, k, ts).tobytes(), k
    assert np.all(block[:, -1] == 0.0)


def spectral_heat(q, t, k):
    """H_t(k) = int_0^pi e^{t (rho cos u - 1)} g_k(u) du, rho = 2 sqrt(q)/(q+1),
    from the spherical transform, by mpmath.quad.

    80 digits of working precision leave more than 20 after the cancellation
    at small t and large k (a value of 1e-54 from an integrand of 1e-3).
    """
    with mp.workdps(80):
        q = mp.mpf(q)
        rho = 2 * mp.sqrt(q) / (q + 1)

        def f(u):
            denom = (q + 1) ** 2 - 4 * q * mp.cos(u) ** 2
            if k == 0:
                g = 2 * q * (q + 1) / mp.pi * mp.sin(u) ** 2 / denom
            else:
                g = (
                    2 / (mp.pi * q ** (mp.mpf(k) / 2 - 1)) * mp.sin(u)
                    * (q * mp.sin((k + 1) * u) - mp.sin((k - 1) * u)) / denom
                )
            return mp.exp(mp.mpf(t) * (rho * mp.cos(u) - 1)) * g

        # at large t the integrand sits within ~1/sqrt(t) of u = 0, where
        # breakpoints pi/2^j alone leave it 1.4e-8 off at q = 7, t = 500
        r = 4 if t >= 100 else 1
        breakpoints = [mp.pi / 2 ** (mp.mpf(j) / r) for j in range(10 * r, -1, -1)]
        return float(mp.quad(f, [0] + breakpoints))


@pytest.mark.parametrize("q", [2, 3, 7])
@pytest.mark.parametrize(
    "t,k",
    # at t = 1e-6 the oracle's cancellation leaves too few digits beyond k = 7
    [(1e-6, 0), (1e-6, 7), (0.05, 20), (0.5, 10), (5.0, 25), (40.0, 3), (40.0, 60),
     (1000.0, 0), (1000.0, 5)],
)
def test_heat_kernel_against_spectral_integral(q, t, k):
    got = kernel_block(q, KernelFamily.heat(), [t], k)[k, 0]
    assert got == pytest.approx(spectral_heat(q, t, k), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("q", [1, 2])
def test_heat_bound_counts_bessel_error(q):
    # ive's own error (IVE_REL_ERR, 9e-13) is above a relative tolerance of 1e-16
    strict = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-16)
    with pytest.raises(NumericalError):
        kernel_block(q, KernelFamily.heat(), [0.5], 3, strict)


def test_heat_at_the_top_of_the_float_range():
    # 2 pi x overflowed in the large-argument branch above x ~ 2.9e307
    got = heat_kernel_many(1, np.array([0, 1, 2]), [1e308])
    with mp.workdps(40):
        x = mp.mpf(1e308)
        for k, value in enumerate(np.ravel(got).tolist()):
            expect = mp.besseli(k, x) * mp.exp(-x)
            assert float(abs(mp.mpf(value) - expect)) <= IVE_REL_ERR * float(expect), k


def wave_walk_mixture(q, nu, t, k, nmax=800):
    """T_t^nu(k) = sum_n 2 (t/2)^(nu+n) K_{n-nu}(t) / (n! Gamma(nu)) u_n(k).

    K_{n-nu} directly up to n = ceil(nu), then by K_{m+1} = K_{m-1} + (2m/t) K_m
    (positive terms) carried as ratios, since K_{n-nu}(t) overflows for large n.
    u_n(k) is the n-step walk probability at one vertex at distance k.
    """
    n0 = math.ceil(nu)
    logk = np.empty(nmax + 1)
    for n in range(n0 + 1):
        logk[n] = math.log(kve(abs(n - nu), t)) - t
    ratio = math.exp(logk[n0] - logk[n0 - 1])
    for n in range(n0 + 1, nmax + 1):
        ratio = 1.0 / ratio + 2.0 * (n - 1 - nu) / t
        logk[n] = logk[n - 1] + math.log(ratio)
    n = np.arange(nmax + 1)
    logw = math.log(2.0) + (nu + n) * math.log(t / 2.0) + logk - gammaln(n + 1.0)
    w = np.exp(logw - gammaln(nu))
    u = np.zeros(nmax + 2)
    u[0] = 1.0
    total = 0.0
    for wn in w:
        total += wn * u[k]
        nxt = np.zeros_like(u)
        nxt[0] = u[1]
        nxt[1:-1] = (u[:-2] + q * u[2:]) / (q + 1.0)
        u = nxt
    return total


@pytest.mark.parametrize("q,t", [(2, 0.05), (2, 0.5), (3, 1.0)])
def test_wave_kernel_against_walk_mixture(q, t):
    block = kernel_block(q, KernelFamily.wave(2.5), [t], 25)
    for k in range(0, 26, 1):
        ref = wave_walk_mixture(q, 2.5, t, k)
        err = abs(block[k, 0] - ref)
        assert err <= max(DEFAULT_SPEC.abs_tol, DEFAULT_SPEC.rel_tol * ref), k


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_times_rejected(bad):
    with pytest.raises(ValueError):
        tabulate(TreeGeometry(2, 6), KernelFamily.heat(), bad)
    for family in (KernelFamily.heat(), KernelFamily.stable(1.0), KernelFamily.wave(0.75)):
        with pytest.raises(ValueError):
            kernel_block(2, family, [bad], 1)


def test_heat_kernel_many_rejects_nan():
    with pytest.raises(ValueError):
        heat_kernel_many(2, 1, [0.5, math.nan])


@pytest.mark.parametrize("q", [1, 2])
def test_heat_kernel_many_rejects_negative_k(q):
    with pytest.raises(ValueError, match="k must be >= 0"):
        heat_kernel_many(q, np.array([[0], [-1]]), [0.5])
    assert heat_kernel_many(q, 1, [0.5])[0] == kernel_block(q, KernelFamily.heat(), [0.5], 1)[1, 0]


def closed_form_half_stable(t, s):
    return t / (2.0 * math.sqrt(math.pi)) * s**-1.5 * np.exp(-(t**2) / (4.0 * s))


@pytest.mark.parametrize("q,t,k", [(2, 0.5, 0), (2, 0.5, 4), (3, 1.0, 2), (1, 0.7, 3)])
def test_stable_alpha_one_closed_form_subordination(q, t, k):
    # alpha = 1 admits an explicit subordination density; integrate it directly
    def f(s):
        return closed_form_half_stable(t, s) * heat_kernel_many(q, k, s)

    expect, _ = integrate(f, 0.0, math.inf, initial_panels=32,
                          breakpoints=[t * t / 4.0, 1.0, 4.0])
    got = kernel_block(q, KernelFamily.stable(1.0), [t], k)[k, 0]
    assert got == pytest.approx(expect, abs=1e-8)


def subordinated_stable(q, alpha, t, k):
    """P_t^alpha(k) = int_0^inf f_{alpha,1}(y) H_{y t^(2/alpha)}(k) dy, from the
    stable density and the heat kernel: the subordination route."""
    tau = t ** (2.0 / alpha)
    unit = StableDensityParams(alpha, 1.0)

    def f(y):
        dens = stable_density(unit, y)
        out = np.zeros_like(dens)
        live = dens > 0.0
        out[live] = dens[live] * heat_kernel_many(q, k, tau * y[live])
        return out

    breakpoints = [0.5, 1.0, 2.0, max(k, 1) / tau]
    val, _ = integrate(f, 0.0, math.inf, initial_panels=16, breakpoints=breakpoints)
    return val


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("t", [0.05, 0.5, 2.0])
def test_stable_kernel_against_subordination(q, alpha, t):
    block = kernel_block(q, KernelFamily.stable(alpha), [t], 20)
    for k in range(21):
        expect = subordinated_stable(q, alpha, t, k)
        assert block[k, 0] == pytest.approx(expect, abs=1e-8), k


def kesten_mckay(q, family, t):
    """K_t(0) = int_0^pi phi(1 - rho cos th) dmu(rho cos th), with mu the
    spectral measure of P at o, density (q+1) sqrt(rho^2 - l^2) / (2 pi (1 - l^2))
    on [-rho, rho]; by mpmath at 30 digits."""
    with mp.workdps(30):
        q, t = mp.mpf(q), mp.mpf(t)
        rho = 2 * mp.sqrt(q) / (q + 1)

        def f(th):
            lam = rho * mp.cos(th)
            if family.kind == "stable":
                phi = mp.exp(-t * (1 - lam) ** (mp.mpf(family.alpha) / 2))
            else:
                nu, x = mp.mpf(family.nu), t * mp.sqrt(1 - lam)
                phi = 2 * (x / 2) ** nu * mp.besselk(nu, x) / mp.gamma(nu)
            return phi * (q + 1) * (rho * mp.sin(th)) ** 2 / (2 * mp.pi * (1 - lam**2))

        # at large t the integrand sits within ~1/sqrt(t) of th = 0
        nodes = [mp.mpf(i) / 100 for i in range(61)]
        nodes += [mp.mpf("0.7") + (mp.pi - mp.mpf("0.7")) * i / 12 for i in range(13)]
        return float(mp.quad(f, nodes))


@pytest.mark.parametrize("t", [300.0, 800.0])
@pytest.mark.parametrize("family", [KernelFamily.stable(1.0), KernelFamily.wave(0.75)])
def test_subordinated_kernels_at_large_time(family, t):
    # the values (1e-35 at t = 300, 1e-87 at t = 800) lie far below abs_tol,
    # and the weight e^{-t} of the first walk step underflows at t = 800
    ref = kesten_mckay(2, family, t)
    got = kernel_block(2, family, [t], 0)[0, 0]
    assert abs(got - ref) <= DEFAULT_SPEC.rel_tol * ref


@pytest.mark.parametrize("t", [1e-150, 1e20])
def test_walk_mixture_at_extreme_times(t):
    # kve(2.5, 1e-150) overflows and kve(nu, 1e20) is nan; the values are
    # 1 (or 0) at k = 0, and T^(1/2) = P^1 still holds relatively at k = 2
    stable, half = KernelFamily.stable(1.0), KernelFamily.wave(0.5)
    for family in (stable, half, KernelFamily.wave(2.5)):
        expect = 1.0 if t < 1.0 else 0.0
        assert kernel_block(2, family, [t], 0)[0, 0] == pytest.approx(expect, rel=1e-10, abs=0.0)
    assert kernel_block(2, half, [t], 2)[2, 0] == pytest.approx(
        kernel_block(2, stable, [t], 2)[2, 0], rel=1e-10, abs=0.0
    )


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize(
    "family",
    [KernelFamily.stable(1.0), KernelFamily.stable(1.5),
     KernelFamily.wave(0.75), KernelFamily.wave(2.5)],
)
def test_walk_mixture_alone_equals_table(q, family):
    kern = tabulate(TreeGeometry(q, 20), family, 0.8)
    for k in range(21):
        assert one_value(q, family, 0.8, k) == kern.values[k], k


@pytest.mark.parametrize("q", [2, 3, 4])
def test_walk_table_below_ground_spherical_function(q):
    # v_n(k) = u_n(k) rho^-n <= phi0(k): the truncation of the stable and
    # wave sums rests on it
    v = _walk_table(q).get(3000, 60)
    k = np.arange(61)
    phi0 = (1.0 + k * (q - 1.0) / (q + 1.0)) * float(q) ** (-k / 2.0)
    assert np.all(v[:3001, :61].max(axis=0) <= phi0)


@pytest.mark.parametrize("q", [2, 3])
def test_walk_table_rows_do_not_depend_on_how_it_grew(q):
    # each row is run on its whole width, so neither the steps a table grew
    # in, nor the columns it keeps, nor a rebuild for more columns moves a bit
    one = kernels._WalkTable(q).get(2000, 200)[:2001, :201]
    steps = kernels._WalkTable(q)
    for n in range(0, 2001, 7):
        steps.get(n, 200)
    rebuilt = kernels._WalkTable(q)
    narrow = rebuilt.get(2000, 40)[:2001, :41].copy()
    assert np.array_equal(narrow, one[:, :41])
    for table in (steps.get(2000, 200), rebuilt.get(2000, 200)):
        assert np.array_equal(table[:2001, :201], one)


@pytest.mark.parametrize(
    "family", [KernelFamily.stable(0.3), KernelFamily.stable(1.9),
               KernelFamily.wave(0.75), KernelFamily.wave(2.5)],
)
def test_mass_beyond_reads_r_plus_one_weights(family):
    # a stream of r + 1 weights has the bits of the first r + 1 of 256-weight
    # blocks, and so does the bound made from them
    def stream(t, rows):
        if family.kind == "stable":
            return kernels._stable_weights(family.alpha, np.array([t]), 1.0, rows)
        return kernels._wave_weights(family.nu, t, 1.0, rows)

    for t in (0.5, 3.0, 30.0):
        for r in (0, 12, 255, 256, 600):
            blocks = stream(t, 256)
            full = [next(blocks) for _ in range(r // 256 + 1)]
            w, err = (np.concatenate([np.ravel(b[i]) for b in full])[: r + 1] for i in (0, 1))
            short = [np.ravel(x) for x in next(stream(t, r + 1))]
            assert np.array_equal(short[0], w) and np.array_equal(short[1], err)
            head = math.fsum(w.tolist())
            bound = min(1.0, max(0.0, 1.0 - head) + float(w @ err) + (r + 2) * kernels._EPS)
            assert kernels._mass_beyond(family, t, r) == bound, (t, r)


def fourier_stable_line(alpha, t, k):
    """P_t^alpha(k) on the line, (1/pi) int_0^pi exp(-t (1 - cos th)^{alpha/2})
    cos(k th) dth, by mpmath at 40 digits (1 - cos th = 2 sin^2(th/2))."""
    with mp.workdps(40):
        a, t = mp.mpf(alpha), mp.mpf(t)

        def f(th):
            return mp.exp(-t * (2 * mp.sin(th / 2) ** 2) ** (a / 2)) * mp.cos(k * th)

        return float(mp.quad(f, [mp.pi * j / (k + 1) for j in range(k + 2)]) / mp.pi)


@pytest.mark.parametrize("alpha", [1.7, 1.9, 1.99])
@pytest.mark.parametrize("t", [0.1, 0.5, 2.0])
def test_stable_line_near_alpha_two(alpha, t):
    # the Kanter time mixture holds its relative accuracy as alpha -> 2,
    # where the density of ln y narrows to a width of (2 - alpha)/alpha
    ks = (0, 1, 5, 15, 30)
    block = kernel_block(1, KernelFamily.stable(alpha), [t], 30)
    for k in ks:
        assert block[k, 0] == pytest.approx(fourier_stable_line(alpha, t, k), rel=1e-10, abs=0.0), k


def subordinated_wave_line(nu, t, k):
    """T_t^nu(k) on the line, (1/Gamma(nu)) int_0^inf e^{-v} v^{nu-1}
    H_{t^2/(4v)}(k) dv, by mpmath at 30 digits."""
    with mp.workdps(30):
        nu, t = mp.mpf(nu), mp.mpf(t)

        def f(v):
            s = t * t / (4 * v)
            return mp.exp(-v - s) * v ** (nu - 1) * mp.besseli(k, s)

        nodes = [0] + [mp.mpf(10) ** j for j in range(-10, 3)] + [mp.inf]
        return float(mp.quad(f, nodes) / mp.gamma(nu))


@pytest.mark.parametrize("k", [5, 20, 60])
def test_wave_line_relative_to_value(k):
    # the values fall to 3e-12 at k = 60: far below abs_tol, certified relative
    # to themselves
    got = kernel_block(1, KernelFamily.wave(2.5), [1.0], k)[k, 0]
    assert got == pytest.approx(subordinated_wave_line(2.5, 1.0, k), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("q,t", [(1, 0.3), (2, 0.7)])
def test_wave_half_equals_stable_one(q, t):
    wave = kernel_block(q, KernelFamily.wave(0.5), [t], 15)
    stable = kernel_block(q, KernelFamily.stable(1.0), [t], 15)
    for k in range(0, 16, 3):
        assert wave[k, 0] == pytest.approx(stable[k, 0], rel=1e-9, abs=0.0)


def test_comparator_Z_values():
    assert comparator_Z(1.0, 0.5, 0) == 1.0
    assert comparator_Z(1.0, 0.5, 2) == pytest.approx(0.5 * 2.0**-2)
    assert comparator_Z(0.8, 0.25, -3) == pytest.approx(0.25 * 3.0**-1.8)
    with pytest.raises(ValueError):
        comparator_Z(2.0, 0.5, 1)


def test_family_validation():
    with pytest.raises(ValueError):
        KernelFamily.stable(2.0)
    with pytest.raises(ValueError):
        KernelFamily.stable(0.0)
    with pytest.raises(ValueError):
        KernelFamily.wave(0.0)


@pytest.mark.parametrize(
    "family",
    [
        KernelFamily.heat(),
        KernelFamily.stable(1.3),
        KernelFamily.wave(0.75),
        KernelFamily.wave(2.5),
    ],
)
def test_tabulate_mass_and_positivity(family):
    geom = TreeGeometry(2, 30)
    kern = tabulate(geom, family, 0.6)
    assert all(v >= 0.0 for v in kern.values)
    assert kern.tail_bound >= 0.0
    mass = kern.mass()
    assert mass <= 1.0 + 1e-8
    assert mass + kern.tail_bound >= 1.0 - 1e-8


@pytest.mark.parametrize("q,t", [(2, 0.5), (2, 5.0), (3, 1.6)])
def test_tail_bound_covers_slowing_decay(q, t):
    # wave nu = 2.5: the ratios of successive mass terms grow toward 1, so a
    # geometric series from the last ratio falls short of the missing mass
    kern = tabulate(TreeGeometry(q, 25), KernelFamily.wave(2.5), t)
    assert 0.0 < 1.0 - kern.mass() <= kern.tail_bound


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize(
    "family",
    [KernelFamily.heat(), KernelFamily.stable(0.3), KernelFamily.stable(1.0),
     KernelFamily.wave(0.75), KernelFamily.wave(2.5)],
)
def test_tail_bound_covers_the_missing_mass(q, family):
    # every table comes with a bound, at any radius and at times far out
    for t in (0.05, 1.0, 50.0, 800.0, 1e6, 1e12, 1e20):
        for radius in (0, 3, 6, 12):
            kern = tabulate(TreeGeometry(q, radius), family, t)
            assert 1.0 - kern.mass() <= kern.tail_bound + 1e-9, (t, radius)
            assert kern.tail_bound <= 1.0 + 1e-9, (t, radius)


@pytest.mark.parametrize(
    "call",
    [lambda q: kernel_block(q, KernelFamily.heat(), [0.5], 3),
     lambda q: kernel_block(q, KernelFamily.stable(1.0), [0.5], 3),
     lambda q: heat_kernel_many(q, 1, [0.5]),
     lambda q: kernel_block(q, KernelFamily.heat(), [0.5], 1)[1, 0],
     lambda q: kernel_block(q, KernelFamily.stable(1.0), [0.5], 1)[1, 0],
     lambda q: fractional_kernel(q, 1.0, 3)],
    ids=["heat-block", "stable-block", "heat-many", "heat", "stable", "fractional"],
)
@pytest.mark.parametrize("q", [0, -1])
def test_q_below_one_is_rejected(call, q):
    with pytest.raises(ValueError, match="q must be >= 1"):
        call(q)


@pytest.mark.parametrize(
    "q,family",
    [(1, KernelFamily.heat()), (2, KernelFamily.heat()), (3, KernelFamily.heat()),
     (1, KernelFamily.stable(1.0)), (2, KernelFamily.stable(1.5)), (3, KernelFamily.stable(1.0)),
     (1, KernelFamily.wave(0.75)), (2, KernelFamily.wave(0.75)), (3, KernelFamily.wave(2.5))],
)
def test_kernel_block_columns_are_tables_and_values(q, family):
    radius = 6 if q == 1 else 12
    ts = [0.05, 0.8, 3.0]
    block = kernel_block(q, family, ts, radius)
    assert block.shape == (radius + 1, len(ts))
    for i, t in enumerate(ts):
        assert tuple(block[:, i]) == tabulate(TreeGeometry(q, radius), family, t).values
        for k in (0, 1, radius):
            assert block[k, i] == one_value(q, family, t, k), (t, k)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize(
    "family",
    [pytest.param(KernelFamily.stable(a), id=f"{a:g}") for a in (0.5, 1.5, 1.99)]
    + [pytest.param(KernelFamily.wave(nu), id=f"wave{nu:g}") for nu in (0.75, 2.5)],
)
def test_stable_time_alone_equals_block(q, family):
    # one weight stream serves the 64 times of the block, and a time leaves
    # it when its values are done, at kmax 40 in different blocks; each
    # time's values must not depend on the others
    ts = np.geomspace(1e-4, 300.0, 64)
    ts[[0, 40, 63]] = 1e-4, 0.7, 300.0
    for kmax in (3, 40):
        block = kernel_block(q, family, ts, kmax)
        for i in (0, 40, 63):
            alone = kernel_block(q, family, [ts[i]], kmax)[:, 0]
            assert np.array_equal(alone, block[:, i]), (kmax, ts[i])


# stable(0.3) at small t: the Markov term e^{c0} n^-p of the law tail is
# within a factor 2 of P(N > n); wave(20) at small t: Chernoff's term is the
# larger one at every row read
_LAW_CASES = [(family, t) for t in (1e-4, 0.5, 30.0, 300.0)
              for family in [KernelFamily.stable(a) for a in (0.3, 1.0, 1.9)]
              + [KernelFamily.wave(nu) for nu in (0.75, 2.5)]] + [
    (KernelFamily.wave(20.0), t) for t in (0.05, 5.0)] + [(None, None)]


def _stream(family, t, rho, rows=kernels._BLOCK):
    """The weight stream of a stable or wave family at one time t, or (family
    None) the binomial stream of L^{1/4}."""
    if family is None:
        return kernels._binomial_weights(0.5, rho)
    if family.kind == "stable":
        return kernels._stable_weights(family.alpha, np.array([t]), rho, rows)
    return kernels._wave_weights(family.nu, t, rho, rows)


def _read(stream, rows):
    """The first `rows` rows of a one-time stream: weights, errors, tails."""
    parts = []
    while sum(len(p[0]) for p in parts) < rows:
        parts.append([np.ravel(x) for x in next(stream)])
    return [np.concatenate(x)[:rows] for x in zip(*parts)]


def test_mixing_law_tail_covers_the_weights():
    # at rho = 1 the weights are the law of the walk length N itself, so
    # 1 - sum_{m <= n} w_m is P(N > n), less the weights' rounding, at every n
    for family, t in _LAW_CASES:
        w, err, tail = _read(_stream(family, t, 1.0, 1001), 1001)
        assert np.all(tail <= 1.0), (family, t)
        for n in range(1001):
            head = math.fsum(w[: n + 1].tolist())
            slack = float(w[: n + 1] @ err[: n + 1]) + (n + 2) * kernels._EPS
            assert tail[n] >= 1.0 - head - slack, (family, t, n)
    # where S <= n/2 surely, P(N > n) <= P(Poisson(n/2) > n): Chernoff's term
    # alone must cover that, at every n
    n = np.arange(1, 1001)
    chernoff = kernels._law_tail(np.array([[-np.inf]]), 1.0, 0.0, n)[0]
    assert np.all(chernoff >= gammainc(n + 1.0, 0.5 * n))
    # the values cut by that tail, against the exact sum of the first 4,000
    # products: the difference is the summation's rounding and the terms cut.
    # A looser rel_tol cuts at a lower n, where the tail bound is tighter
    for q in (2, 3):
        rho, rows, ks = kernels._walk_decay(q), 4000, np.arange(13)
        v = _walk_table(q).get(rows, int(ks[-1]))[:rows, ks]
        for family, t in _LAW_CASES:
            if family is not None and (kernels._log_multiplier(family, np.array([t]), 1.0 - rho)[0]
                                       < math.log(kernels._TINY)):
                continue  # below the float range: kernel_block gives 0
            w = _read(_stream(family, t, rho), rows)[0]
            exact = np.array([math.fsum((w * v[:, k]).tolist()) for k in ks])
            for rel_tol in (1e-10, 1e-7, 1e-4, 1e-2):
                spec = QuadratureSpec(rel_tol=rel_tol)
                values, bound = kernels._mix(q, _stream(family, t, rho), 1, ks, spec)
                if family is not None and rel_tol == DEFAULT_SPEC.rel_tol:
                    assert np.array_equal(values[0], kernel_block(q, family, [t], ks[-1])[:, 0])
                assert np.all(np.abs(values[0] - exact) <= bound[0]), (q, family, t, rel_tol)


def test_radial_convolve_semigroup():
    q, t, s = 2, 0.4, 0.35
    geom = TreeGeometry(q, 30)
    a = [tabulate(geom, KernelFamily.heat(), t).value(k) for k in range(31)]
    b = [tabulate(geom, KernelFamily.heat(), s).value(k) for k in range(31)]
    direct = tabulate(geom, KernelFamily.heat(), t + s)
    for k in range(9):
        assert radial_convolve(q, a, b, k) == pytest.approx(direct.value(k), abs=1e-7)


def test_semigroup_law_materialized_ball_oracle():
    # vertex-wise convolution over an explicit ball, not the radial census
    # radius 16 keeps the materialized ball small (~200k vertices) while the
    # neglected tail mass at t + s = 0.75 is far below the 1e-7 tolerance
    q, t, s = 2, 0.5, 0.25
    geom = TreeGeometry(q, 16)
    verts, index, _ = ball_adjacency(geom)
    ht = tabulate(geom, KernelFamily.heat(), t)
    hs = tabulate(geom, KernelFamily.heat(), s)
    direct = tabulate(geom, KernelFamily.heat(), t + s)
    for k in (0, 1, 3):
        x = tuple([0] * k)
        conv = sum(
            ht.value(len(z)) * hs.value(distance(x, z))
            for z in verts
            if distance(x, z) <= geom.radius
        )
        assert conv == pytest.approx(direct.value(k), abs=1e-7)


def test_kernel_csv_format():
    geom = TreeGeometry(2, 25)
    kern = tabulate(geom, KernelFamily.heat(), 1.0)
    buf = io.StringIO()
    write_kernel_csv(kern, buf)
    text = buf.getvalue()
    lines = text.split("\n")
    assert lines[0].startswith("# q=2,family=heat,")
    assert lines[1] == "k,sphere_size,value,cumulative_mass"
    rows = [ln for ln in lines[2:] if ln]
    assert len(rows) == 26
    # 17 significant digits: d.dddddddddddddddde[+-]dd
    pat = re.compile(r"^\d+,\d+,\d\.\d{16}e[+-]\d{2},\d\.\d{16}e[+-]\d{2}$")
    for row in rows:
        assert pat.match(row), row
    last = rows[-1].split(",")
    assert float(last[3]) == pytest.approx(1.0, abs=1e-8 + kern.tail_bound)
    assert "\r" not in text


def test_radial_kernel_value_and_range():
    geom = TreeGeometry(2, 5)
    kern = tabulate(geom, KernelFamily.heat(), 0.2)
    assert kern.value(0) == kern.values[0]
    with pytest.raises(ValueError):
        kern.value(6)


@settings(max_examples=10)
@given(
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.05, max_value=2.0),
)
def test_heat_mass_property(q, t):
    geom = TreeGeometry(q, 40 if q == 1 else 25)
    kern = tabulate(geom, KernelFamily.heat(), t)
    assert abs(kern.mass() - 1.0) <= kern.tail_bound + 1e-8


@settings(max_examples=10)
@given(
    st.floats(min_value=0.3, max_value=1.7),
    st.floats(min_value=0.1, max_value=1.0),
    st.integers(min_value=0, max_value=12),
)
def test_stable_kernel_nonnegative(alpha, t, k):
    assert kernel_block(2, KernelFamily.stable(alpha), [t], k)[k, 0] >= 0.0


def test_large_sphere_cutoff_zeroes_far_times():
    # the spectral cutoff: for enormous s the kernel is below underflow
    vals = heat_kernel_many(2, 0, np.array([1e6]))
    assert float(vals[0]) == 0.0


@pytest.mark.parametrize("x", [1e-12, 1e-6, 1e-3, 0.1, 1.0, 7.5, 37.0, 100.0, 1e3, 1e6, 1e9, 1e12])
def test_bessel_column_against_mpmath(x):
    # orders 0..100 cross the segment edges at 32 and 64. Each value is as
    # good as its two seeds (bessel_i_scaled at the segment's top and one
    # above) plus 4 eps per step down; small x sends the upper segments,
    # whose seeds fall below 2^-900, to bessel_i_scaled itself
    col = kernels._bessel_column(100, np.array([x]))[:, 0]
    eps = np.finfo(float).eps
    with mp.workdps(40):
        exact = [mp.besseli(k, mp.mpf(x)) * mp.exp(-mp.mpf(x)) for k in range(130)]

        def rel(value, k):
            return abs(mp.mpf(value) - exact[k]) / exact[k]

        for k in range(101):
            top = 32 * (k // 32 + 1)
            if bessel_i_scaled(top + 1, x) < 2.0**-900:
                assert col[k] == bessel_i_scaled(k, x), k
                continue
            seeds = max(rel(bessel_i_scaled(top, x), top), rel(bessel_i_scaled(top + 1, x), top + 1))
            assert rel(col[k], k) <= seeds + 4 * (top - k) * eps, k
    if x <= 1e-3:  # orders 32..63 took the fallback
        assert bessel_i_scaled(65, x) < 2.0**-900


@pytest.mark.parametrize("family", [KernelFamily.stable(0.3), KernelFamily.stable(1.0),
                                    KernelFamily.wave(0.75)])
@pytest.mark.parametrize("t", [0.01, 0.5, 30.0])
def test_line_column_does_not_depend_on_kmax(family, t):
    full = kernel_block(1, family, [t], 100)[:, 0]
    for k in (0, 5, 31, 32, 33, 63, 64, 100):
        for kmax in (k, 31, 32, 33, 64, 100):
            if kmax >= k:
                assert kernel_block(1, family, [t], kmax)[k, 0] == full[k], (k, kmax)


def test_stable_line_small_alpha_tiny_time():
    # c = t^{2/alpha} = 1e-30: the mass past the fixed node set needs panels
    # added for this time, each value as many as its own tolerance asks for
    family = KernelFamily.stable(0.2)
    block = kernel_block(1, family, [0.5, 0.001], 30)
    for k in (0, 1, 30):
        expect = fourier_stable_line(0.2, 0.001, k)
        assert block[k, 1] == pytest.approx(expect, rel=1e-10, abs=0.0), k
        assert kernel_block(1, family, [0.001], k)[k, 0] == block[k, 1], k
