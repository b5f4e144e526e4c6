import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammaln, kve

from reference import RangeError, StableDensityParams, bessel_i, integrate, stable_density
from treeheat import kernels
from treeheat.special import (
    IVE_ABS_ERR,
    IVE_REL_ERR,
    KVE_REL_ERR,
    _kanter_density,
    _pollard_series,
    _pollard_sines,
    bessel_i_scaled,
    eta_bound,
    log_y_density,
    stable_exponent_constant,
)


@pytest.mark.parametrize("x", [0.05, 0.7, 1.0, 5.0, 37.0, 250.0, 690.0])
def test_bessel_i_against_mpmath(x):
    for k in range(0, 31, 3):
        expect = float(mp.besseli(k, x))
        got = bessel_i(k, x)
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("x", [0.5, 10.0, 1e3, 1e6, 5e8] + np.geomspace(1e-12, 3e8, 48).tolist())
def test_bessel_i_scaled_against_mpmath(x):
    # the error every bound built on bessel_i_scaled counts for it
    orders = np.arange(0, 331, 3)
    got = bessel_i_scaled(orders, x)
    with mp.workdps(40):
        for k, value in zip(orders.tolist(), got.tolist()):
            expect = mp.besseli(k, mp.mpf(x)) * mp.exp(-mp.mpf(x))
            err = float(abs(mp.mpf(value) - expect))
            assert err <= IVE_REL_ERR * float(expect) + IVE_ABS_ERR, k


def test_kve_against_mpmath():
    # the error the wave weights count for scipy's kve: a random sweep, two
    # points that are off by a few hundred eps and one near the worst seen
    rng = np.random.default_rng(17)
    nus = rng.uniform(0.0, 12.0, 200).tolist() + [0.25, 0.72, 0.8969159719906635]
    xs = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 200)).tolist() + [2.0, 1.39, 1.999]
    with mp.workdps(40):
        for nu, x in zip(nus, xs):
            value = float(kve(nu, x))
            expect = mp.besselk(mp.mpf(nu), mp.mpf(x)) * mp.exp(mp.mpf(x))
            err = float(abs(mp.mpf(value) - expect))
            assert err <= KVE_REL_ERR * abs(value), (nu, x)


@pytest.mark.parametrize("x", [2e9, 1e12])
def test_bessel_i_scaled_large_argument(x):
    # above the library switchover, the uniform asymptotic expansion takes over
    mp.mp.dps = 40
    for k in (0, 5, 40):
        expect = float(mp.besseli(k, mp.mpf(x)) * mp.exp(-mp.mpf(x)))
        got = float(bessel_i_scaled(k, x))
        assert got == pytest.approx(expect, rel=1e-12)


def test_bessel_i_scaled_vector():
    xs = np.array([1.0, 1e8, 5e9])
    out = bessel_i_scaled(3, xs)
    assert out.shape == xs.shape
    for x, v in zip(xs, out):
        assert float(v) == pytest.approx(float(bessel_i_scaled(3, float(x))), rel=1e-14)


def test_bessel_i_overflow_range_error():
    with pytest.raises(RangeError):
        bessel_i(0, 701.0)


def test_bessel_recurrence_scaled():
    # I_{k-1}(x) - I_{k+1}(x) = (2k/x) I_k(x), stable in scaled form
    for x in (0.8, 12.0, 400.0):
        for k in (1, 4, 11):
            lhs = bessel_i_scaled(k - 1, x) - bessel_i_scaled(k + 1, x)
            rhs = 2.0 * k / x * bessel_i_scaled(k, x)
            assert float(lhs) == pytest.approx(float(rhs), rel=1e-10, abs=1e-16)


def closed_form_half_stable(t, s):
    # density with Laplace transform e^{-t sqrt(z)}
    return t / (2.0 * math.sqrt(math.pi)) * s**-1.5 * math.exp(-(t**2) / (4.0 * s))


@pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
def test_stable_density_alpha_one_closed_form(t):
    params = StableDensityParams(alpha=1.0, t=t)
    for s in (0.01, 0.1, 0.5, 1.0, 4.0, 30.0):
        expect = closed_form_half_stable(t, s)
        got = float(stable_density(params, s))
        assert got == pytest.approx(expect, rel=1e-8, abs=1e-15)


@pytest.mark.parametrize("alpha", [0.8, 1.4])
def test_stable_density_against_talbot_inversion(alpha):
    # oracle: numerical inverse Laplace transform of e^{-z^(alpha/2)}
    beta = alpha / 2.0
    mp.mp.dps = 30
    params = StableDensityParams(alpha=alpha, t=1.0)
    for s in (0.3, 0.8, 1.5, 4.0):
        expect = float(
            mp.invertlaplace(lambda z: mp.exp(-(z**beta)), s, method="talbot")
        )
        got = float(stable_density(params, s))
        assert got == pytest.approx(expect, rel=1e-7, abs=1e-12)


@pytest.mark.parametrize("alpha,t", [(0.6, 0.5), (1.0, 2.0), (1.7, 0.8)])
def test_stable_density_scaling_law(alpha, t):
    one = StableDensityParams(alpha=alpha, t=1.0)
    scaled = StableDensityParams(alpha=alpha, t=t)
    c = t ** (-2.0 / alpha)
    for s in (0.2, 1.0, 5.0):
        lhs = float(stable_density(scaled, s))
        rhs = c * float(stable_density(one, s * c))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-18)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_stable_density_is_probability(alpha):
    params = StableDensityParams(alpha=alpha, t=1.0)
    val, _ = integrate(lambda s: stable_density(params, s), 0.0, math.inf)
    assert val == pytest.approx(1.0, abs=1e-8)


def series_stable_density(alpha, y):
    """f_{alpha,1}(y) from its convergent series (1/pi) sum_{n>=1} (-1)^{n+1}
    Gamma(n beta + 1)/n! sin(n pi beta) y^{-n beta - 1}, beta = alpha/2, summed
    at 100 digits: its terms reach 1e24 before they fall."""
    with mp.workdps(100):
        beta, y = mp.mpf(alpha) / 2, mp.mpf(y)
        total = mp.mpf(0)
        for n in range(1, 6000):
            term = (-1) ** (n + 1) * mp.gamma(n * beta + 1) / mp.factorial(n)
            term *= mp.sinpi(n * beta) * y ** (-n * beta - 1)
            total += term
            if n > 100 and abs(term) < mp.mpf(10) ** -100:
                break
        return float(total / mp.pi)


def test_stable_density_deep_left_tail():
    # deep in the left tail (9.2214e-23) the density keeps its relative accuracy
    params = StableDensityParams(alpha=1.7, t=1.0)
    expect = series_stable_density(1.7, 0.3)
    assert expect == pytest.approx(9.2214e-23, rel=1e-4)
    assert float(stable_density(params, 0.3)) == pytest.approx(expect, rel=1e-10, abs=0.0)


def test_stable_density_zero_for_nonpositive():
    params = StableDensityParams(alpha=1.2, t=1.0)
    assert float(stable_density(params, 0.0)) == 0.0
    assert float(stable_density(params, -3.0)) == 0.0


def test_stable_exponent_constant_value():
    # c1(alpha) = (1-beta) beta^(beta/(1-beta)) at beta = alpha/2
    beta = 0.4
    expect = (1 - beta) * beta ** (beta / (1 - beta))
    assert stable_exponent_constant(0.8) == pytest.approx(expect, rel=1e-14)


@given(
    st.floats(min_value=0.2, max_value=1.8),
    st.floats(min_value=0.1, max_value=2.0),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_eta_bound_positive_and_finite(alpha, t, u):
    profile = eta_bound(alpha, t, u)
    assert 0.0 <= profile
    assert math.isfinite(profile)


def test_eta_bound_branches_agree_at_crossover():
    alpha, t = 1.2, 0.7
    u = t ** (2.0 / alpha)
    below = eta_bound(alpha, t, u * (1 - 1e-9))
    above = eta_bound(alpha, t, u * (1 + 1e-9))
    assert below == pytest.approx(above, rel=1e-6)


def test_eta_bound_envelopes_density():
    # the two-branch profile dominates the actual density up to a constant
    alpha, t = 1.0, 0.5
    params = StableDensityParams(alpha=alpha, t=t)
    worst = 0.0
    for u in np.geomspace(1e-2, 1e2, 40):
        dens = float(stable_density(params, u))
        hi = eta_bound(alpha, t, u)
        if hi > 0:
            worst = max(worst, dens / hi)
    assert worst < 10.0


def test_eta_bound_validation():
    with pytest.raises(ValueError):
        eta_bound(2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        eta_bound(1.0, -1.0, 1.0)


# the betas alpha/2 of every stable node set the tests build, and two where
# beta n falls halfway between two integers
@pytest.mark.parametrize("beta", [0.1, 0.15, 0.25, 0.3, 0.4, 0.5, 0.7, 0.75, 0.85, 0.95, 0.995,
                                  0.375, 0.0625])
def test_pollard_sines_equal_the_fraction_form(beta):
    # beta n = m + d with m the nearest integer, ties to even as round does
    exact = [Fraction(beta) * n for n in range(1, 81)]
    expect = [(-1) ** round(x) * math.sin(math.pi * float(x - round(x))) for x in exact]
    assert _pollard_sines(beta).tobytes() == np.array(expect).tobytes()


def pollard_series_mp(alpha, log_y):
    """y f(y) by Pollard's series at the float beta = alpha/2 and ln y given,
    to 60 significant digits: the working precision adds the digits of the
    largest term, which the sum cancels."""
    beta = 0.5 * alpha
    n = np.arange(1.0, 20001.0)
    log_m = gammaln(n * beta + 1.0) - gammaln(n + 1.0) - n * beta * log_y
    dps = 60 + max(0, int(log_m.max() / math.log(10.0)) + 1)
    last = int(n[np.flatnonzero(log_m > log_m.max() - (dps + 20) * math.log(10.0))[-1]])
    with mp.workdps(dps):
        b, log_u = mp.mpf(beta), -mp.mpf(beta) * mp.mpf(log_y)
        total = mp.fsum((-1) ** (k + 1) * mp.exp(mp.loggamma(k * b + 1) - mp.loggamma(k + 1)
                                                  + k * log_u) * mp.sinpi(k * b)
                        for k in range(1, last + 1))
        return total / mp.pi


# ln y on each side of the split: where the series certifies its value, and
# left of that, where Kanter's quadrature takes over
SPLIT_POINTS = {
    0.2: ([2.5, 8.0, 40.0], [1.0, -2.0]),
    0.5: ([0.5, 6.0, 30.0], [-1.0, -3.0]),
    1.0: ([0.0, 5.0, 25.0], [-1.5, -3.0]),
    1.5: ([0.0, 3.0, 20.0], [-1.0, -2.0]),
    1.9: ([0.5, 2.0, 15.0], [0.0, -0.3]),
    1.99: ([0.6, 2.0, 10.0], [0.3, 0.1]),
}


@pytest.mark.parametrize("alpha", sorted(SPLIT_POINTS))
def test_log_y_density_against_pollard_series(alpha):
    series_side, kanter_side = SPLIT_POINTS[alpha]
    log_y = np.array(series_side + kanter_side)
    value, error = log_y_density(alpha, log_y)
    _, series_error = _pollard_series(0.5 * alpha, log_y)
    # the series keeps exactly the values it certifies to 1e-13
    kept = series_error <= 1e-13 * value
    assert kept.tolist() == [True] * len(series_side) + [False] * len(kanter_side)
    for x, v, e in zip(log_y, value, error):
        expect = pollard_series_mp(alpha, x)
        assert abs(mp.mpf(v) - expect) <= e, (x, v, e)
        assert e <= 1e-11 * v, (x, e / v)


def stable_node_set(alpha):
    """ln y at every node of the q = 1 stable(alpha) rule, as kernels asks
    log_y_density for them."""
    seen = []

    def spy(a, x):
        seen.append(np.array(x, dtype=float).ravel())
        return log_y_density(a, x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "log_y_density", spy)
        kernels._stable_mixture(alpha)
    return np.concatenate(seen)


def kanter_nodes(alpha):
    """The nodes of the stable(alpha) rule that Kanter's quadrature weighs."""
    log_y = stable_node_set(alpha)
    value, series_error = _pollard_series(0.5 * alpha, log_y)
    return log_y[~(series_error <= 1e-13 * value)]


@pytest.mark.parametrize("alpha", sorted(SPLIT_POINTS))
def test_log_y_density_alone_equals_batch(alpha):
    # a value and its bound depend on (alpha, ln y) only, not on the batch
    log_y = stable_node_set(alpha)
    value, error = log_y_density(alpha, log_y)
    for x, v, e in zip(log_y.tolist(), value.tolist(), error.tolist()):
        alone = log_y_density(alpha, np.array([x]))
        assert (alone[0][0], alone[1][0]) == (v, e), x


@pytest.mark.parametrize("alpha", sorted(SPLIT_POINTS))
def test_kanter_error_counts_the_dropped_mass(alpha):
    # past the panels v >= v0 + 45, so the mass left out is at most
    # g (v0 + 45) e^{-(v0 + 45)}: on the rule's Kanter nodes, and in the right
    # tail, where that term outweighs the rest of the bound
    beta = 0.5 * alpha
    g = beta / (1.0 - beta)
    log_a0 = math.log(stable_exponent_constant(alpha))
    log_y = np.concatenate([kanter_nodes(alpha), [10.0, 100.0, 700.0]])
    _, error = _kanter_density(alpha, log_y)
    past = np.exp(log_a0 + -g * log_y) + 45.0
    assert np.all(error >= g * past * np.exp(-past))


def test_log_y_density_alpha_one_closed_form():
    # Levy: y f(y) = y^{-1/2} e^{-1/(4y)} / (2 sqrt(pi)) for alpha = 1, on a
    # grid across the split and at every Kanter node of the stable(1) rule
    grid = np.linspace(-3.5, 12.0, 32)
    _, series_error = _pollard_series(0.5, grid)
    assert 0 < int((series_error <= 1e-13 * log_y_density(1.0, grid)[0]).sum()) < len(grid)
    nodes = kanter_nodes(1.0)
    assert len(nodes) == 384
    log_y = np.concatenate([grid, nodes])
    value, error = log_y_density(1.0, log_y)
    with mp.workdps(40):
        for x, v, e in zip(log_y, value, error):
            y = mp.exp(mp.mpf(x))
            expect = mp.exp(-1 / (4 * y)) / (2 * mp.sqrt(mp.pi * y))
            assert abs(mp.mpf(v) - expect) <= e, (x, v, e)
