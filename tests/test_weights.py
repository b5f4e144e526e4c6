import json
import math

import mpmath
import pytest
import sympy

import treeheat.geometry
import treeheat.weights
from treeheat.geometry import (
    ROOT,
    TreeGeometry,
    cross_distance_counts,
    enumerate_ball,
    sphere_size,
)
from treeheat.weights import (
    ADMISSIBLE,
    INCONCLUSIVE,
    NOT_ADMISSIBLE,
    WeightSpec,
    check_thm1_i,
    check_thm2_i,
    check_thm3_g,
    companion_weight,
)

GEOM = TreeGeometry(2, 200)


def sympy_series_verdict(q, p, e, c, a, b):
    """Independent oracle: symbolic convergence of the radial series.

    term_k = sphere(k) * (q^k (1+k)^e)^(-p') * (c q^(a k) (1+k)^b)^(-p'/p)
    """
    k = sympy.symbols("k", integer=True, positive=True)
    pp = sympy.Rational(p) / (sympy.Rational(p) - 1)
    term = (
        (q + 1)
        * q ** (k - 1)
        * (q**k * (1 + k) ** sympy.Rational(e)) ** (-pp)
        * (sympy.Rational(c) * q ** (sympy.Rational(a) * k) * (1 + k) ** sympy.Rational(b))
        ** (-pp / sympy.Rational(p))
    )
    result = sympy.Sum(term, (k, 1, sympy.oo)).is_convergent()
    return ADMISSIBLE if result else NOT_ADMISSIBLE


def sympy_sup_verdict(q, e, c, a, b):
    """p = 1 oracle: boundedness of (q^k (1+k)^e u_k)^{-1} as k -> oo."""
    k = sympy.symbols("k", positive=True)
    seq = 1 / (
        q**k
        * (1 + k) ** sympy.Rational(e)
        * sympy.Rational(c)
        * q ** (sympy.Rational(a) * k)
        * (1 + k) ** sympy.Rational(b)
    )
    limit = sympy.limit(seq, k, sympy.oo)
    return ADMISSIBLE if limit.is_finite else NOT_ADMISSIBLE


def closed(p, c, a, b, q=2, radius=200):
    return WeightSpec.from_closed_form(TreeGeometry(q, radius), p, c, a, b)


def test_example1_constant_weight_admissible():
    v = check_thm1_i(closed(2.0, 1.0, 0.0, 0.0), 1.0)
    assert v.verdict == ADMISSIBLE
    assert sympy_series_verdict(2, 2, sympy.Rational(3, 2), 1, 0, 0) == ADMISSIBLE
    assert v.tail_bound is not None and math.isfinite(v.tail_bound)


def test_example2_strong_decay_not_admissible():
    v = check_thm1_i(closed(2.0, 1.0, -2.0, 0.0), 1.0)
    assert v.verdict == NOT_ADMISSIBLE
    assert sympy_series_verdict(2, 2, sympy.Rational(3, 2), 1, -2, 0) == NOT_ADMISSIBLE


def test_example3_p1_sup_not_admissible():
    v = check_thm1_i(closed(1.0, 1.0, -1.0, -2.0), 1.0)
    assert v.verdict == NOT_ADMISSIBLE
    assert sympy_sup_verdict(2, sympy.Rational(3, 2), 1, -1, -2) == NOT_ADMISSIBLE


def test_example4_thm2_constant_admissible():
    v = check_thm2_i(closed(2.0, 1.0, 0.0, 0.0), 0.5)
    assert v.verdict == ADMISSIBLE
    assert sympy_series_verdict(2, 2, sympy.Rational(3, 2), 1, 0, 0) == ADMISSIBLE


def test_example5_thm2_p1_exact_cancellation():
    u = WeightSpec.from_closed_form(TreeGeometry(3, 200), 1.0, 1.0, -1.0, -2.0)
    v = check_thm2_i(u, 1.0)
    assert v.verdict == ADMISSIBLE
    assert v.statistic == pytest.approx(1.0)
    assert sympy_sup_verdict(3, 2, 1, -1, -2) == ADMISSIBLE


def test_example6_polynomial_weight_flip():
    # With the critical geometric part q^{-k}, the Thm2-i verdict for
    # u_k = q^{-k}(1+k)^{-gamma} (p = 1.5, nu = 2) flips at gamma = 4.
    for gamma in (2.0, 3.0, 3.9):
        v = check_thm2_i(closed(1.5, 1.0, -1.0, -gamma), 2.0)
        assert v.verdict == ADMISSIBLE
        assert sympy_series_verdict(2, sympy.Rational(3, 2), 3, 1, -1, -gamma) == ADMISSIBLE
    for gamma in (4.0, 4.1, 6.0):
        v = check_thm2_i(closed(1.5, 1.0, -1.0, -gamma), 2.0)
        assert v.verdict == NOT_ADMISSIBLE
        assert (
            sympy_series_verdict(2, sympy.Rational(3, 2), 3, 1, -1, -gamma)
            == NOT_ADMISSIBLE
        )
    # a purely polynomial weight never flips: the geometric factor dominates
    for gamma in (0.5, 4.0, 40.0):
        v = check_thm2_i(closed(1.5, 1.0, 0.0, -gamma), 2.0)
        assert v.verdict == ADMISSIBLE
        assert sympy_series_verdict(2, sympy.Rational(3, 2), 3, 1, 0, -gamma) == ADMISSIBLE


def test_thm3_heat_examples():
    from treeheat.kernels import KernelFamily, tabulate

    geom = TreeGeometry(2, 40)
    u1 = WeightSpec.from_closed_form(geom, 2.0, 1.0, 0.0, 0.0)
    assert check_thm3_g(u1, 1.0).verdict == ADMISSIBLE

    h1 = tabulate(geom, KernelFamily.heat(), 1.0)
    u2 = WeightSpec.from_radial(geom, 2.0, [h1.value(k) ** 4 for k in range(41)])
    assert check_thm3_g(u2, 1.0).verdict == NOT_ADMISSIBLE

    u3 = WeightSpec.from_radial(geom, 1.0, [h1.value(k) for k in range(41)])
    v3 = check_thm3_g(u3, 1.0)
    assert v3.verdict == ADMISSIBLE
    assert v3.statistic == pytest.approx(1.0)

    # sup sequence 1 + 0.001 j: nearly flat but growing, hence unbounded
    u4 = WeightSpec.from_radial(
        geom, 1.0, [h1.value(k) / (1.0 + 0.001 * k) for k in range(41)]
    )
    assert check_thm3_g(u4, 1.0).verdict == INCONCLUSIVE


def test_radial_explicit_agreement():
    geom = TreeGeometry(2, 6)
    radial = WeightSpec.from_radial(geom, 2.0, [1.0] * 7)
    explicit = WeightSpec.from_table(
        geom, 2.0, {v: 1.0 for v in enumerate_ball(geom)}
    )
    a = check_thm1_i(radial, 1.0)
    b = check_thm1_i(explicit, 1.0)
    assert a.verdict == b.verdict
    assert a.statistic == pytest.approx(b.statistic, abs=1e-12)

    # a non-constant weight, off-root base vertices, every condition
    values = [2.0 ** (-0.8 * k) * (1.0 + k) ** 1.5 for k in range(7)]
    for p in (1.0, 2.0):
        radial = WeightSpec.from_radial(geom, p, values)
        explicit = WeightSpec.from_table(
            geom, p, {v: values[len(v)] for v in enumerate_ball(geom)}
        )
        for x in ((2,), (1, 0)):
            for check, param in ((check_thm1_i, 1.0), (check_thm2_i, 0.5), (check_thm3_g, 1.0)):
                a = check(radial, param, x)
                b = check(explicit, param, x)
                assert a.statistic == pytest.approx(b.statistic, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("c", [0.7, 1.0, 1.3])
def test_constant_series_terms_diverge(c):
    # u_k = c 3^-k (1+k)^-3 makes the Thm1-i terms at p = 2, alpha = 1 constant
    # in exact arithmetic; the computed ratios straddle 1 by a few ulps
    geom = TreeGeometry(3, 60)
    u = WeightSpec.from_radial(geom, 2.0, [c * 3.0**-k * (1.0 + k) ** -3 for k in range(61)])
    assert check_thm1_i(u, 1.0).verdict == NOT_ADMISSIBLE


def test_series_statistic_does_not_overflow():
    # sphere sums of u^(-p'/p) = 3^(2.5 i) exceed the float range long before
    # the profile (3^j (1+j)^e)^(-3) brings each term back
    q, p, radius, x = 3, 1.5, 200, (0, 1, 1, 1, 1)
    u = WeightSpec.from_closed_form(TreeGeometry(q, radius), p, 1.0, -1.25, 0.0)
    for check, param, e in ((check_thm1_i, 1.0, 1.5), (check_thm2_i, 1.0, 2.0)):
        v = check(u, param, x)
        with mpmath.workdps(30):
            ref = mpmath.fsum(
                n * mpmath.mpf(3) ** (2.5 * i) * (mpmath.mpf(3) ** j * (1 + j) ** e) ** -3
                for i, j, n in cross_distance_counts(q, len(x), radius)
                if j <= radius - len(x)
            )
        assert math.isfinite(v.statistic)
        assert v.statistic == pytest.approx(float(ref), rel=1e-11, abs=0.0)


def test_radial_sup_never_enumerates_the_ball(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("ball enumerated for a radial weight")

    monkeypatch.setattr(treeheat.geometry, "enumerate_ball", forbidden)
    monkeypatch.setattr(treeheat.weights, "distance", forbidden, raising=False)
    geom = TreeGeometry(2, 200)
    u = WeightSpec.from_closed_form(geom, 1.0, 1.0, -1.0, -4.0)
    radial = WeightSpec.from_radial(geom, 1.0, [u.radial_value(k) for k in range(201)])
    for w in (u, radial):
        assert check_thm1_i(w, 1.0, (1,)).verdict == (NOT_ADMISSIBLE if w is u else INCONCLUSIVE)
        check_thm2_i(w, 1.0, (1,))
        check_thm3_g(w, 1.0, (1,))


def test_monotonicity_of_series_statistic():
    small = check_thm1_i(closed(2.0, 1.0, 0.0, 0.0), 1.0)
    large = check_thm1_i(closed(2.0, 2.0, 0.0, 0.0), 1.0)
    # larger weight => smaller series terms => smaller partial sum
    assert large.statistic <= small.statistic
    assert small.verdict == large.verdict == ADMISSIBLE


def test_thm1_thm2_consistency_at_matching_exponent():
    # nu = alpha/2 makes the exponents coincide: identical verdicts and sums
    alpha = 1.2
    for c, a, b in ((1.0, 0.0, 0.0), (1.0, -2.0, 0.0), (0.5, 0.0, -3.0)):
        u = closed(2.0, c, a, b)
        v1 = check_thm1_i(u, alpha)
        v2 = check_thm2_i(u, alpha / 2.0)
        assert v1.verdict == v2.verdict
        assert v1.statistic == pytest.approx(v2.statistic, rel=1e-12, abs=0.0)


def test_base_vertex_independence():
    u = closed(2.0, 1.0, 0.0, 0.0, radius=50)
    at_root = check_thm1_i(u, 1.0, ROOT)
    deep = check_thm1_i(u, 1.0, (0, 1))
    assert at_root.verdict == deep.verdict == ADMISSIBLE
    u2 = closed(2.0, 1.0, -2.0, 0.0, radius=50)
    assert (
        check_thm1_i(u2, 1.0, ROOT).verdict
        == check_thm1_i(u2, 1.0, (0, 1)).verdict
        == NOT_ADMISSIBLE
    )


def test_finite_table_never_proves_divergence():
    geom = TreeGeometry(2, 6)
    # explosive finite data: table verdicts can only be inconclusive/admissible
    u = WeightSpec.from_table(
        geom, 2.0, {v: 4.0 ** -(2 * len(v)) for v in enumerate_ball(geom)}
    )
    v = check_thm1_i(u, 1.0)
    assert v.verdict in (INCONCLUSIVE, ADMISSIBLE)
    assert v.verdict == INCONCLUSIVE


def test_companion_weight_examples():
    u = closed(2.0, 1.0, 0.0, 0.0, radius=60)
    v = companion_weight(u, 1.5, 2.0)
    assert v.radial_value(0) == pytest.approx(1.0)
    # defining series telescopes to sum (1+k)^{-2}
    total = sum(
        sphere_size(TreeGeometry(2, 60), k)
        * ((1 + k) ** 1.5 * 2.0**k) ** 2.0
        * min(
            1.0,
            2.0 ** (-2 * k) * (1 + k) ** (-2 * 1.5 - 2) / sphere_size(TreeGeometry(2, 60), k),
        )
        for k in range(61)
    )
    assert total <= sum((1 + k) ** -2.0 for k in range(61)) + 60.0 + 1e-9

    u2 = WeightSpec.from_radial(TreeGeometry(2, 10), 2.0, [2.0**-k for k in range(11)])
    v2 = companion_weight(u2, 1.5, 2.0)
    w3 = 2.0 ** (-2 * 3) * (1 + 3) ** (-2 * 1.5 - 2) / sphere_size(TreeGeometry(2, 10), 3)
    assert v2.radial_value(3) == pytest.approx(min(2.0**-3, w3))


def test_verdict_record_schema():
    v = check_thm1_i(closed(2.0, 1.0, 0.0, 0.0), 1.0)
    rec = v.to_record()
    assert set(rec) == {
        "condition", "p", "params", "base_vertex", "partial", "tail", "verdict",
    }
    assert rec["condition"] == "Thm1-i"
    json.dumps(rec)  # serializable
    d = check_thm1_i(closed(2.0, 1.0, -2.0, 0.0), 1.0).to_record()
    assert d["tail"] == "unbounded-tail"


def test_weight_spec_validation():
    geom = TreeGeometry(2, 5)
    with pytest.raises(ValueError):
        WeightSpec.from_closed_form(geom, 0.5, 1.0, 0.0, 0.0)  # p < 1
    with pytest.raises(ValueError):
        WeightSpec.from_radial(geom, 2.0, [1.0, -1.0])  # not positive
    with pytest.raises(ValueError):
        WeightSpec.from_closed_form(geom, 2.0, -1.0, 0.0, 0.0)
    # non-finite weights are refused, not answered with a NaN statistic
    for c, a, b in [(math.inf, 0.0, 0.0), (1.0, math.inf, 0.0), (1.0, 0.0, -math.inf),
                    (math.nan, 0.0, 0.0), (1.0, math.nan, 0.0)]:
        with pytest.raises(ValueError, match="finite"):
            WeightSpec.from_closed_form(geom, 2.0, c, a, b)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            WeightSpec.from_radial(geom, 2.0, [1.0, bad, 1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            WeightSpec.from_table(TreeGeometry(2, 0), 2.0, {(): bad})


def test_explicit_table_must_cover_the_ball():
    geom = TreeGeometry(2, 4)
    table = {v: 1.0 for v in enumerate_ball(geom)}
    WeightSpec.from_table(geom, 2.0, table)
    del table[(0, 1)]
    for p in (1.0, 2.0):
        with pytest.raises(ValueError, match="whole ball"):
            WeightSpec.from_table(geom, p, table)
