import json
import math

import numpy as np
import pytest

from reference import distance, one_value
from treeheat.geometry import TreeGeometry, enumerate_ball
from treeheat.kernels import KernelFamily, comparator_Z, kernel_block
from treeheat.operators import MaximalSpec
from treeheat.quadrature import QuadratureSpec
from treeheat.verify import (
    ALL_CHECKS,
    VerificationReport,
    reports_to_json,
    run_check,
    run_suite,
)
from treeheat.weights import WeightSpec, companion_weight

FAST_CFG = {
    "semigroup-law": {"qs": (2,), "pairs": ((0.4, 0.35),), "kmax": 4},
    "flow-conjugation": {"qs": (2,)},
    "Z-profile": {"kmax": 15},
}


def test_all_fifteen_checks_registered():
    assert len(ALL_CHECKS) == 15
    expected = {
        "stochasticity", "semigroup-law", "initial-data", "A1-band",
        "phi0-band", "eta-domination", "prop-est-a", "prop-est-bc",
        "prop-est-d", "T-half-equals-P-one", "heat-domination", "Z-profile",
        "prop2-band", "flow-conjugation", "weights-roundtrip",
    }
    assert set(ALL_CHECKS) == expected


def test_misspelt_parameter_rejected():
    # a misspelt key must not run the default (kmax 40, 533 rows) silently
    with pytest.raises(ValueError, match=r"'kmx'.*Z-profile.*ts, kmax$"):
        run_check("Z-profile", {"kmx": 3})


@pytest.mark.parametrize("check_id", ALL_CHECKS)
def test_threshold_is_not_a_parameter(check_id):
    # a config cannot loosen a check: its threshold is fixed
    with pytest.raises(ValueError, match=r"unknown parameter 'threshold'"):
        run_check(check_id, {"threshold": math.inf})


def test_unknown_check_rejected():
    with pytest.raises(ValueError, match="unknown check"):
        run_check("no-such-check")


def test_report_structure():
    r = run_check("Z-profile", FAST_CFG["Z-profile"])
    assert isinstance(r, VerificationReport)
    assert r.check_id == "Z-profile"
    assert r.passed
    assert r.runtime_ms >= 0
    assert r.csv_rows and {"t", "k", "ratio"} <= set(r.csv_rows[0])
    rec = r.to_record()
    assert set(rec) == {"check_id", "parameter_grid", "measured", "threshold", "passed"}
    json.dumps(rec)


def test_band_check_records_min_max():
    r = run_check("Z-profile", FAST_CFG["Z-profile"])
    m = r.measured
    assert 0 < m["min_ratio"] <= m["max_ratio"]
    assert m["spread"] == pytest.approx(m["max_ratio"] / m["min_ratio"])
    assert m["spread"] <= r.threshold


def test_semigroup_check_passes():
    r = run_check("semigroup-law", FAST_CFG["semigroup-law"])
    assert r.passed
    assert r.measured["max_abs_residual"] < 1e-7


def test_flow_check_passes():
    r = run_check("flow-conjugation", FAST_CFG["flow-conjugation"])
    assert r.passed
    assert r.measured["min_order"] >= 1.8
    assert r.measured["b_values_exact"] is True


def test_phi0_band_is_report_only():
    r = run_check("phi0-band", {"kmax": 8})
    assert r.passed
    assert r.measured["report_only"] is True
    assert math.isinf(r.threshold)


def test_numerical_failure_becomes_failed_report():
    # an impossible tolerance must yield a failed report, not an exception
    strict = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-16)
    r = run_check("semigroup-law", FAST_CFG["semigroup-law"], spec=strict)
    assert not r.passed
    assert r.error is not None
    json.dumps(r.to_record())


def test_suite_json_is_deterministic():
    ids = ["Z-profile", "flow-conjugation"]
    cfg = {k: FAST_CFG.get(k, {}) for k in ids}
    a = reports_to_json(run_suite(ids, cfg))
    b = reports_to_json(run_suite(ids, cfg))
    assert a == b
    parsed = json.loads(a)
    assert [p["check_id"] for p in parsed] == ids
    assert all("runtime_ms" not in p for p in parsed)
    assert a.endswith("\n")


def test_run_suite_defaults_to_all():
    reports = run_suite(["Z-profile"])
    assert len(reports) == 1


# ---- the comparison checks on kernel blocks against the per-value route ----


def _scaled_spec(scale):
    """The per-value spec the comparison checks once used: an absolute floor
    proportional to the expected magnitude of the value."""
    return QuadratureSpec(abs_tol=max(scale * 1e-9, 1e-280), rel_tol=1e-9)


def _old_band(ratios):
    arr = [r for r in ratios if math.isfinite(r)]
    return {"min_ratio": min(arr), "max_ratio": max(arr), "spread": max(arr) / min(arr)}


def _old_grouped(groups):
    band = _old_band([r for g in groups for r in g])
    band["max_spread_per_parameter"] = max(_old_band(g)["spread"] for g in groups)
    return band


def _stable_scaled(q, alpha, t, k):
    scale = t * k ** (-1.0 - alpha / 2.0) * float(q) ** (-k)
    return one_value(q, KernelFamily.stable(alpha), t, k, _scaled_spec(scale)) / scale


def _old_a1(c):
    return _old_grouped([
        [_stable_scaled(q, a, t, k) for t in c["ts"]
         for k in range(int(math.ceil(t ** (2.0 / a))) + 1, c["kmax"] + 1)]
        for q in c["qs"] for a in c["alphas"]
    ])


def _old_phi0(c):
    band = _old_band([_stable_scaled(2, 1.0, 0.2, k) for k in range(2, c["kmax"] + 1)])
    return {**band, "report_only": True}


def _old_prop_est_a(c):
    worst = 0.0
    for q in c["qs"]:
        for t in c["ts"]:
            for k in range(3):  # ceil(2.5)
                profile = (t ** (2 * k) * (k + 1.0) ** (-k - 0.5)
                           * (2.0 * math.e / (q + 1.0)) ** (k + 1.0))
                val = one_value(q, KernelFamily.wave(2.5), t, k, _scaled_spec(profile))
                worst = max(worst, val / profile)
    return {"max_ratio": worst}


def _old_prop_est_bc(c):
    groups = []
    for q in c["qs"]:
        for nu in c["nus"]:
            group = []
            for t in c["ts"]:
                for k in range(int(math.ceil(nu)) + 1, c["kmax"] + 1):
                    scale = t ** (2 * nu) / (k ** (nu + 1.0) * float(q) ** k)
                    group.append(one_value(q, KernelFamily.wave(nu), t, k, _scaled_spec(scale))
                                 / scale)
            groups.append(group)
    return _old_grouped(groups)


def _old_prop_est_d(c):
    return _old_band([one_value(2, KernelFamily.wave(nu), float(t), 0)
                      for nu in c["nus"] for t in c["ts"]])


def _old_t_half(c):
    worst, wave, stable = 0.0, KernelFamily.wave(0.5), KernelFamily.stable(1.0)
    for q in c["qs"]:
        for t in c["ts"]:
            for k in range(c["kmax"] + 1):
                worst = max(worst, abs(one_value(q, wave, t, k) - one_value(q, stable, t, k)))
    return {"max_abs_diff": worst}


def _old_prop2(c):
    ratios = []
    for a in c["alphas"]:
        for t in c["ts"]:
            for k in range(c["kmax"] + 1):
                scale = comparator_Z(a, t, k)
                ratios.append(one_value(1, KernelFamily.stable(a), t, k, _scaled_spec(scale))
                              / scale)
    return _old_band(ratios)


OLD_ROUTE = [
    ("A1-band", {"qs": (2, 3), "alphas": (0.5, 1.5), "ts": (0.05, 0.8), "kmax": 9}, _old_a1),
    ("phi0-band", {"kmax": 8}, _old_phi0),
    ("prop-est-a", {"qs": (2, 3), "ts": (0.5, 2.0)}, _old_prop_est_a),
    ("prop-est-bc", {"qs": (3,), "nus": (0.5, 1.0), "ts": (0.1, 0.9), "kmax": 8}, _old_prop_est_bc),
    ("prop-est-d", {"nus": (0.5, 2.0), "ts": (0.05, 0.5, 0.95)}, _old_prop_est_d),
    ("T-half-equals-P-one", {"qs": (1, 2), "ts": (0.3,), "kmax": 3}, _old_t_half),
]


@pytest.mark.parametrize("check_id,cfg,old", OLD_ROUTE, ids=[c for c, _, _ in OLD_ROUTE])
def test_block_checks_equal_per_value_route(check_id, cfg, old):
    r = run_check(check_id, cfg)
    assert r.error is None
    assert r.measured == old(cfg)


def test_prop2_band_close_to_per_value_route():
    # the per-value route ran under a looser spec (rel_tol 1e-9)
    cfg = {"alphas": (0.5, 1.5), "ts": (0.1, 0.9), "kmax": 5}
    got, ref = run_check("prop2-band", cfg).measured, _old_prop2(cfg)
    assert set(got) == set(ref)
    for key in ref:
        assert got[key] == pytest.approx(ref[key], rel=1e-9, abs=0.0)


def test_weights_roundtrip_without_distance_calls():
    cfg = {"x_radius": 5, "f_radius": 2, "n_funcs": 6, "seed": 3}
    xs = enumerate_ball(TreeGeometry(2, 5))
    ys = enumerate_ball(TreeGeometry(2, 2))
    dmat = np.array([[distance(x, y) for y in ys] for x in xs])
    got = run_check("weights-roundtrip", cfg).measured["max_operator_ratio"]

    # the mask-matrix computation: one 0/1 matrix per distance
    u = WeightSpec.from_closed_form(TreeGeometry(2, 5), 2.0, 1.0, 0.0, 0.0)
    v = companion_weight(u, 1.5, 2.0)
    v_vec = np.array([v.radial_value(len(x)) for x in xs])
    masks = [dmat == j for j in range(int(dmat.max()) + 1)]
    ktab = kernel_block(2, KernelFamily.stable(1.0), MaximalSpec.default(1.0).grid, len(masks) - 1)
    rng = np.random.default_rng(3)
    ref = 0.0
    for _ in range(6):
        fvec = rng.uniform(-1.0, 1.0, size=len(ys))
        star = np.max(np.abs(np.stack([m @ fvec for m in masks], axis=1) @ ktab), axis=1)
        ratio = float(np.sum(v_vec * star**2) ** 0.5) / float(np.sum(np.abs(fvec) ** 2) ** 0.5)
        ref = max(ref, ratio)
    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
