import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeheat.errors import NumericalError
from reference import integrate
from treeheat.quadrature import DEFAULT_SPEC, QuadratureSpec


def test_polynomial_exact():
    val, err = integrate(lambda x: x**2, 0.0, 1.0)
    assert abs(val - 1.0 / 3.0) < 1e-14
    assert err < 1e-12


def test_exponential_semi_infinite():
    val, _ = integrate(lambda x: np.exp(-x), 0.0, math.inf)
    assert abs(val - 1.0) < 1e-10


def test_algebraic_tail_semi_infinite():
    # integral of (1+x)^-2.5 over [0, inf) = 1/1.5
    val, _ = integrate(lambda x: (1.0 + x) ** -2.5, 0.0, math.inf)
    assert abs(val - 1.0 / 1.5) < 1e-9


def test_oscillatory_with_panels():
    # integral of sin(40 x) on [0, pi] = (1 - cos(40 pi))/40 = 0
    val, _ = integrate(lambda x: np.sin(40.0 * x), 0.0, math.pi, initial_panels=64)
    assert abs(val) < 1e-12


def test_gaussian_known_value():
    val, _ = integrate(lambda x: np.exp(-(x**2)), 0.0, math.inf)
    assert abs(val - math.sqrt(math.pi) / 2.0) < 1e-10


def test_breakpoints_help_kink():
    f = lambda x: np.abs(x - 0.3)
    exact = 0.3**2 / 2 + 0.7**2 / 2
    val, _ = integrate(f, 0.0, 1.0, breakpoints=[0.3])
    assert abs(val - exact) < 1e-13


def test_budget_exhaustion_raises():
    spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15)
    with pytest.raises(NumericalError) as exc:
        integrate(lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), 0.0, 1.0, spec, max_subdivisions=2)
    assert exc.value.err_estimate > 0


def test_invalid_interval():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(lambda x: x, -math.inf, 0.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)


@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.1, max_value=4.0),
)
def test_linearity_and_exact_cubics(c0, c1, width):
    # Gauss-Kronrod integrates cubics exactly; antiderivative comparison
    a, b = 1.0, 1.0 + width
    f = lambda x: c0 + c1 * x**3
    exact = c0 * (b - a) + c1 * (b**4 - a**4) / 4.0
    val, _ = integrate(f, a, b)
    assert abs(val - exact) <= 1e-11 * max(1.0, abs(exact))


def test_error_estimate_is_honest():
    # the returned estimate should bound the true error on a smooth integrand
    val, err = integrate(lambda x: np.cos(x), 0.0, 2.0)
    assert abs(val - math.sin(2.0)) <= max(err, 1e-14)


def test_default_spec_frozen():
    assert DEFAULT_SPEC.abs_tol > 0
    with pytest.raises(Exception):
        DEFAULT_SPEC.abs_tol = 1.0
