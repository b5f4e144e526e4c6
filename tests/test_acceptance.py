"""Acceptance gate: the twelve headline guarantees, with stated tolerances.

Each test is self-contained and cites only behavior: oracle agreement for the
integer-line route, an independent continuous-time walk series for the tree
heat kernel, stochastic mass, subordination identities, two-sided comparison
bands, the semigroup law, PDE residual orders, initial-data convergence,
weight verdicts against a symbolic oracle, the maximal-inequality witness,
flow conjugation, and bitwise-deterministic verification output.
"""

import json
import math

import mpmath as mp
import numpy as np
import sympy

from treeheat.cli import main
from ball import ball_adjacency
from reference import integrate
from treeheat.geometry import ROOT, TreeGeometry
from treeheat.kernels import KernelFamily, heat_kernel_many, kernel_block
from treeheat.operators import TreeFunction, pde_residual
from treeheat.verify import run_check
from treeheat.weights import (
    ADMISSIBLE,
    NOT_ADMISSIBLE,
    WeightSpec,
    check_thm1_i,
    check_thm2_i,
)


# --- 1. q=1 oracle agreement ------------------------------------------------

def test_acceptance_01_q1_bessel_oracle():
    mp.mp.dps = 25
    for t in (0.1, 1.0, 5.0):
        expect = [float(mp.besseli(k, t) * mp.exp(-t)) for k in range(41)]
        got = kernel_block(1, KernelFamily.heat(), [t], 40)[:, 0]
        for k in range(41):
            assert abs(got[k] - expect[k]) < 1e-10


# --- 2. adjacency-series oracle ---------------------------------------------

def walk_series_all_k(q, t, kmax, radius, tol=1e-13):
    """e^{-t} sum_n (t/(q+1))^n/n! * (n-step walk counts root -> sphere k).

    The series is truncated once its Poisson weight drops below `tol`
    (tail < 1e-12) and the ball radius bounds walk excursions; walks exiting
    the ball carry total weight < e^{-t} t^radius / radius!, far below the
    1e-9 comparison tolerance for the radii used.
    """
    geom = TreeGeometry(q, radius)
    verts, index, adj = ball_adjacency(geom)
    targets = [index[tuple([0] * k)] for k in range(kmax + 1)]
    vec = np.zeros(len(verts))
    vec[index[ROOT]] = 1.0
    totals = np.zeros(kmax + 1)
    coeff = math.exp(-t)
    n = 0
    while True:
        totals += coeff * vec[targets]
        n += 1
        if coeff < tol and n > 3 * t + kmax:
            break
        vec = adj @ vec / (q + 1)
        coeff *= t / n
    return totals


def test_acceptance_02_walk_series_oracle():
    for q in (2, 3):
        radius = 16 if q == 2 else 13
        for t in (0.25, 1.0):
            oracle = walk_series_all_k(q, t, 10, radius)
            got = kernel_block(q, KernelFamily.heat(), [t], 10)[:, 0]
            for k in range(11):
                assert abs(got[k] - oracle[k]) < 1e-9


# --- 3. stochasticity -------------------------------------------------------

def test_acceptance_03_stochasticity():
    r = run_check("stochasticity")
    assert r.passed, r.measured
    assert r.measured["max_mass_excess"] <= 1e-8


# --- 4. subordination consistency -------------------------------------------

def closed_form_half_stable(t, s):
    return t / (2.0 * math.sqrt(math.pi)) * s**-1.5 * np.exp(-(t**2) / (4.0 * s))


def test_acceptance_04_subordination_consistency():
    # alpha = 1 via the numerically computed density vs the closed form
    for q, t, k in ((2, 0.5, 0), (2, 0.5, 3), (1, 0.7, 2)):
        def f(s, t=t, q=q, k=k):
            return closed_form_half_stable(t, s) * heat_kernel_many(q, k, s)

        expect, _ = integrate(f, 0.0, math.inf, initial_panels=32,
                              breakpoints=[t * t / 4.0, 1.0, 4.0])
        assert abs(kernel_block(q, KernelFamily.stable(1.0), [t], k)[k, 0] - expect) < 1e-8
    # T^{1/2} = P^1
    r = run_check("T-half-equals-P-one")
    assert r.passed
    assert r.measured["max_abs_diff"] < 1e-8


# --- 5. two-sided bands -----------------------------------------------------

def test_acceptance_05_two_sided_bands():
    for check_id in ("A1-band", "prop-est-bc", "prop-est-d", "prop2-band"):
        r = run_check(check_id)
        assert r.passed, (check_id, r.measured)
        band = r.measured
        assert 0.0 < band["min_ratio"] <= band["max_ratio"] < math.inf
        spread = band.get("max_spread_per_parameter", band["spread"])
        assert spread <= 100.0, (check_id, band)


# --- 6. semigroup law -------------------------------------------------------

def test_acceptance_06_semigroup_law():
    r = run_check("semigroup-law")
    assert r.passed
    assert r.measured["max_abs_residual"] < 1e-7


# --- 7. PDE residual orders -------------------------------------------------

def empirical_orders(family, f, x, t, hs):
    rs = [abs(pde_residual(family, f, x, t, h)) for h in hs]
    return [
        math.log(a / b) / math.log(2.0) if b > 0 else math.inf
        for a, b in zip(rs, rs[1:])
    ]


def test_acceptance_07_pde_residual_orders():
    hs = (1e-2, 5e-3, 2.5e-3)
    geom = TreeGeometry(2, 2)
    delta = TreeFunction.delta(geom)
    assert all(o >= 1.8 for o in empirical_orders(KernelFamily.heat(), delta, ROOT, 1.0, hs))
    assert all(
        o >= 1.8
        for o in empirical_orders(KernelFamily.wave(1.0), delta, ROOT, 0.8, hs)
    )
    radial_delta = TreeFunction.from_radial(geom, [1.0, 0.0, 0.0])
    orders = empirical_orders(KernelFamily.stable(1.0), radial_delta, ROOT, 0.5, hs)
    assert all(o >= 1.8 for o in orders), orders


# --- 8. initial-data convergence --------------------------------------------

def test_acceptance_08_initial_data_convergence():
    r = run_check("initial-data")
    assert r.passed, r.measured
    assert r.measured["max_final_gap"] < 1e-3


# --- 9. weight admissibility vs symbolic oracle -----------------------------

def _sympy_series_admissible(q, p, e, c, a, b):
    k = sympy.symbols("k", integer=True, positive=True)
    pp = sympy.Rational(p) / (sympy.Rational(p) - 1)
    term = (
        (q + 1) * q ** (k - 1)
        * (q**k * (1 + k) ** sympy.Rational(e)) ** (-pp)
        * (sympy.Rational(c) * q ** (sympy.Rational(a) * k)
           * (1 + k) ** sympy.Rational(b)) ** (-pp / sympy.Rational(p))
    )
    return bool(sympy.Sum(term, (k, 1, sympy.oo)).is_convergent())


def test_acceptance_09_weight_examples_with_oracle():
    g2 = TreeGeometry(2, 200)
    g3 = TreeGeometry(3, 200)
    e1 = sympy.Rational(3, 2)  # 1 + alpha/2 at alpha = 1
    cases = [
        # (check, weight spec, family parameter, expected, oracle)
        (check_thm1_i, WeightSpec.from_closed_form(g2, 2.0, 1.0, 0.0, 0.0), 1.0,
         ADMISSIBLE, _sympy_series_admissible(2, 2, e1, 1, 0, 0)),
        (check_thm1_i, WeightSpec.from_closed_form(g2, 2.0, 1.0, -2.0, 0.0), 1.0,
         NOT_ADMISSIBLE, _sympy_series_admissible(2, 2, e1, 1, -2, 0)),
        (check_thm1_i, WeightSpec.from_closed_form(g2, 1.0, 1.0, -1.0, -2.0), 1.0,
         NOT_ADMISSIBLE, None),  # p = 1 sup branch: (1+k)^{1/2} -> inf
        (check_thm2_i, WeightSpec.from_closed_form(g2, 2.0, 1.0, 0.0, 0.0), 0.5,
         ADMISSIBLE, _sympy_series_admissible(2, 2, e1, 1, 0, 0)),
        (check_thm2_i, WeightSpec.from_closed_form(g3, 1.0, 1.0, -1.0, -2.0), 1.0,
         ADMISSIBLE, None),  # p = 1 sup branch: sequence identically 1
        # sixth family: critical geometric part, verdict flips at gamma = 4
        (check_thm2_i, WeightSpec.from_closed_form(g2, 1.5, 1.0, -1.0, -3.0), 2.0,
         ADMISSIBLE, _sympy_series_admissible(2, sympy.Rational(3, 2), 3, 1, -1, -3)),
        (check_thm2_i, WeightSpec.from_closed_form(g2, 1.5, 1.0, -1.0, -5.0), 2.0,
         NOT_ADMISSIBLE,
         _sympy_series_admissible(2, sympy.Rational(3, 2), 3, 1, -1, -5)),
    ]
    for check, u, param, expected, oracle in cases:
        verdict = check(u, param).verdict
        assert verdict == expected
        if oracle is not None:
            assert (oracle and expected == ADMISSIBLE) or (
                not oracle and expected == NOT_ADMISSIBLE
            )


# --- 10. maximal-inequality witness -----------------------------------------

def test_acceptance_10_maximal_inequality_witness():
    r = run_check("weights-roundtrip")
    assert r.passed
    constant = r.measured["max_operator_ratio"]
    assert 0.0 < constant < math.inf
    # the recorded constant: empirical sup over 50 random radius-4 data
    assert constant < 1e3


# --- 11. flow conjugation ---------------------------------------------------

def test_acceptance_11_flow_conjugation():
    r = run_check("flow-conjugation")
    assert r.passed
    assert r.measured["min_order"] >= 1.8
    assert r.measured["b_values_exact"] is True


# --- 12. determinism of the full verification suite -------------------------

def test_acceptance_12_full_suite_bitwise_determinism(tmp_path):
    out1, out2 = tmp_path / "report1.json", tmp_path / "report2.json"
    for out in (out1, out2):
        code = main(["verify", "--suite", "all", "--out", str(out)])
        assert code == 0  # exit 0 iff every check passed
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    parsed = json.loads(b1)
    assert len(parsed) == 15
    assert all(p["passed"] for p in parsed)
