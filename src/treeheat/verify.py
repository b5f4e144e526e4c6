"""Orchestrated numerical verification suites.

Each check turns one analytic statement about the kernels, operators, or
weights into a banded numerical test over a recorded parameter grid and
produces a VerificationReport. Two-sided comparison statements are verified
as bounded ratio bands (default max/min <= 100), not against specific
constants. Reports are deterministic: given the same configuration the
serialized output is bitwise identical (timing is kept on the report object
but never serialized).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .flow import FlowStructure, flow_constant, verify_flow_conjugation
from .geometry import ROOT, TreeGeometry, distance, enumerate_ball
from .kernels import (
    KernelFamily,
    comparator_Z,
    kernel_block,
    stable_kernel,
    tabulate,
    wave_kernel,
)
from .operators import BallOperator, MaximalSpec, TreeFunction, radial_convolve
from .quadrature import DEFAULT_SPEC, QuadratureSpec
from .special import eta_bound
from .weights import WeightSpec, companion_weight


@dataclass
class VerificationReport:
    check_id: str
    parameter_grid: dict
    measured: dict
    threshold: float
    passed: bool
    runtime_ms: int
    error: str | None = None
    csv_rows: list = field(default_factory=list, repr=False)

    def to_record(self) -> dict:
        rec = {
            "check_id": self.check_id,
            "parameter_grid": _plain(self.parameter_grid),
            "measured": _plain(self.measured),
            "threshold": _plain(self.threshold),
            "passed": bool(self.passed),
        }
        if self.error is not None:
            rec["error"] = self.error
        return rec


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json can serialize them."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _scaled_spec(scale: float, spec: QuadratureSpec) -> QuadratureSpec:
    """Absolute tolerance proportional to the expected magnitude, so that
    kernels far below DEFAULT abs_tol are still resolved relatively."""
    return QuadratureSpec(
        abs_tol=max(scale * 1e-9, 1e-280),
        rel_tol=1e-9,
        max_subdivisions=max(spec.max_subdivisions, 4000),
        tail_cut_factor=spec.tail_cut_factor,
    )


def _band(ratios) -> dict:
    arr = [r for r in ratios if math.isfinite(r)]
    if not arr or min(arr) <= 0:
        return {"min_ratio": 0.0, "max_ratio": math.inf, "spread": math.inf}
    return {
        "min_ratio": min(arr),
        "max_ratio": max(arr),
        "spread": max(arr) / min(arr),
    }


def _check_stochasticity(spec, cfg):
    qs = cfg.get("qs", (1, 2, 3))
    ts = cfg.get("ts", (0.1, 0.5, 1.0))
    families = cfg.get(
        "families",
        (KernelFamily.heat(), KernelFamily.stable(1.0), KernelFamily.wave(0.75)),
    )
    threshold = cfg.get("threshold", 1e-8)
    rows = []
    worst = 0.0
    for q in qs:
        radius = 60 if q == 1 else 40
        geom = TreeGeometry(q, radius)
        for fam in families:
            for t in ts:
                kern = tabulate(geom, fam, t, spec)
                mass = kern.mass()
                excess = max(abs(mass - 1.0) - kern.tail_bound, 0.0)
                worst = max(worst, excess)
                rows.append(
                    {
                        "q": q,
                        "family": fam.label(),
                        "t": t,
                        "mass": mass,
                        "tail_bound": kern.tail_bound,
                        "excess": excess,
                    }
                )
    grid = {
        "qs": list(qs),
        "ts": list(ts),
        "families": [f.label() for f in families],
        "radius": "60 (q=1) / 40",
    }
    return grid, {"max_mass_excess": worst}, threshold, worst <= threshold, rows


def _check_semigroup_law(spec, cfg):
    qs = cfg.get("qs", (1, 2))
    pairs = cfg.get("pairs", ((0.4, 0.35), (0.25, 0.75)))
    kmax = cfg.get("kmax", 8)
    radius = cfg.get("radius", 30)
    threshold = cfg.get("threshold", 1e-7)
    rows = []
    worst = 0.0
    for q in qs:
        geom = TreeGeometry(q, radius)
        for t, s in pairs:
            a = [tabulate(geom, KernelFamily.heat(), t, spec).value(k) for k in range(radius + 1)]
            b = [tabulate(geom, KernelFamily.heat(), s, spec).value(k) for k in range(radius + 1)]
            direct = tabulate(geom, KernelFamily.heat(), t + s, spec)
            for k in range(kmax + 1):
                conv = radial_convolve(q, a, b, k)
                diff = abs(conv - direct.value(k))
                worst = max(worst, diff)
                rows.append(
                    {"q": q, "t": t, "s": s, "k": k, "conv": conv,
                     "direct": direct.value(k), "diff": diff}
                )
    grid = {"qs": list(qs), "pairs": [list(p) for p in pairs], "kmax": kmax,
            "truncation_radius": radius}
    return grid, {"max_abs_residual": worst}, threshold, worst <= threshold, rows


def _check_initial_data(spec, cfg):
    q = cfg.get("q", 2)
    families = cfg.get(
        "families",
        (KernelFamily.heat(), KernelFamily.stable(1.0), KernelFamily.wave(0.75)),
    )
    js = cfg.get("js", tuple(range(3, 13)))
    threshold = cfg.get("threshold", 1e-3)
    geom = TreeGeometry(q, 3)
    rng = np.random.default_rng(cfg.get("seed", 7))
    datasets = {
        "delta": TreeFunction.delta(geom),
        "random": TreeFunction.from_table(
            geom, {w: rng.uniform(-1, 1) for w in enumerate_ball(geom)}
        ),
    }
    rows = []
    passed = True
    worst_final = 0.0
    xs = enumerate_ball(geom)
    ts = [2.0 ** (-j) for j in js]
    for fam in families:
        for name, f in datasets.items():
            fx = np.array([f.value(x) for x in xs])[:, None]
            gaps = np.abs(BallOperator(fam, f, xs, spec).block(ts) - fx).max(axis=0).tolist()
            rows += [{"family": fam.label(), "data": name, "j": j, "t": t, "gap": gap}
                     for j, t, gap in zip(js, ts, gaps)]
            monotone = all(
                g2 <= g1 * (1.0 + 1e-7) + 1e-15 for g1, g2 in zip(gaps, gaps[1:])
            )
            final_ok = gaps[-1] < threshold
            worst_final = max(worst_final, gaps[-1])
            passed = passed and monotone and final_ok
    grid = {"q": q, "families": [f.label() for f in families],
            "dyadic_j": list(js), "datasets": list(datasets)}
    return grid, {"max_final_gap": worst_final}, threshold, passed, rows


def _check_a1_band(spec, cfg):
    qs = cfg.get("qs", (2, 3))
    alphas = cfg.get("alphas", (0.5, 1.0, 1.5))
    ts = cfg.get("ts", (0.05, 0.2, 0.8))
    kmax = cfg.get("kmax", 30)
    threshold = cfg.get("threshold", 100.0)
    rows = []
    ratios = []
    worst_spread = 0.0
    for q in qs:
        for alpha in alphas:
            group = []
            for t in ts:
                k0 = int(math.ceil(t ** (2.0 / alpha))) + 1
                for k in range(k0, kmax + 1):
                    scale = t * k ** (-1.0 - alpha / 2.0) * float(q) ** (-k)
                    val = stable_kernel(q, alpha, t, k, _scaled_spec(scale, spec))
                    r = val / scale
                    group.append(r)
                    ratios.append(r)
                    rows.append(
                        {"q": q, "alpha": alpha, "t": t, "k": k, "value": val,
                         "profile": scale, "ratio": r}
                    )
            worst_spread = max(worst_spread, _band(group)["spread"])
    band = _band(ratios)
    band["max_spread_per_parameter"] = worst_spread
    grid = {"qs": list(qs), "alphas": list(alphas), "ts": list(ts),
            "k_range": f"ceil(t^(2/alpha))+1 .. {kmax}"}
    return grid, band, threshold, worst_spread <= threshold, rows


def _check_phi0_band(spec, cfg):
    # the spherical function enters only through the two-sided comparison
    # phi0(k) ~ (k+1) q^{-k/2}; with no exact phi0 available, this check is
    # report-only: it records the stable-kernel ratio band on a small grid
    # (the same comparison the profile bound feeds into) and always passes.
    q = cfg.get("q", 2)
    alpha = cfg.get("alpha", 1.0)
    t = cfg.get("t", 0.2)
    kmax = cfg.get("kmax", 20)
    rows = []
    ratios = []
    for k in range(2, kmax + 1):
        scale = t * k ** (-1.0 - alpha / 2.0) * float(q) ** (-k)
        val = stable_kernel(q, alpha, t, k, _scaled_spec(scale, spec))
        r = val / scale
        ratios.append(r)
        rows.append({"q": q, "alpha": alpha, "t": t, "k": k, "ratio": r})
    band = _band(ratios)
    band["report_only"] = True
    grid = {"q": q, "alpha": alpha, "t": t, "kmax": kmax}
    return grid, band, math.inf, True, rows


def _check_eta_domination(spec, cfg):
    alphas = cfg.get("alphas", (0.5, 1.0, 1.5))
    a = cfg.get("a", 0.25)
    b = cfg.get("b", 1.0)
    us = cfg.get("us", tuple(np.geomspace(1e-4, 1e4, 81)))
    ts = cfg.get("ts", tuple(np.linspace(0.25, 1.0, 7)))
    threshold = cfg.get("threshold", 1e8)
    rows = []
    consts = {}
    for alpha in alphas:
        c = 0.0
        for t in ts:
            if not a <= t <= b:
                continue
            for u in us:
                num, _ = eta_bound(alpha, t, u)
                den, _ = eta_bound(alpha, a, u)
                if den > 0:
                    c = max(c, num / den)
        consts[f"C_alpha_{alpha:g}"] = c
        rows.append({"alpha": alpha, "C": c})
    worst = max(consts.values())
    grid = {"alphas": list(alphas), "a": a, "b": b,
            "u_grid": "81 log points in [1e-4, 1e4]",
            "t_grid": "7 points in [0.25, 1]"}
    return grid, consts, threshold, worst <= threshold, rows


def _check_prop_est_a(spec, cfg):
    qs = cfg.get("qs", (2, 3))
    nu = cfg.get("nu", 2.5)
    ts = cfg.get("ts", (0.25, 0.5, 1.0, 2.0))
    threshold = cfg.get("threshold", 1e3)
    rows = []
    worst = 0.0
    for q in qs:
        for t in ts:
            for k in range(int(math.ceil(nu))):
                profile = (
                    t ** (2 * k)
                    * (k + 1.0) ** (-k - 0.5)
                    * (2.0 * math.e / (q + 1.0)) ** (k + 1.0)
                )
                val = wave_kernel(q, nu, t, k, _scaled_spec(profile, spec))
                r = val / profile
                worst = max(worst, r)
                rows.append({"q": q, "nu": nu, "t": t, "k": k, "ratio": r})
    grid = {"qs": list(qs), "nu": nu, "ts": list(ts), "k_range": f"0 .. {int(math.ceil(nu)) - 1}"}
    return grid, {"max_ratio": worst}, threshold, worst <= threshold, rows


def _check_prop_est_bc(spec, cfg):
    qs = cfg.get("qs", (2, 3))
    nus = cfg.get("nus", (0.5, 1.0))
    ts = cfg.get("ts", (0.1, 0.5, 0.9))
    kmax = cfg.get("kmax", 25)
    threshold = cfg.get("threshold", 100.0)
    rows = []
    ratios = []
    worst_spread = 0.0
    for q in qs:
        for nu in nus:
            group = []
            for t in ts:
                for k in range(int(math.ceil(nu)) + 1, kmax + 1):
                    scale = t ** (2 * nu) / (k ** (nu + 1.0) * float(q) ** k)
                    val = wave_kernel(q, nu, t, k, _scaled_spec(scale, spec))
                    r = val / scale
                    group.append(r)
                    ratios.append(r)
                    rows.append(
                        {"q": q, "nu": nu, "t": t, "k": k, "value": val, "ratio": r}
                    )
            worst_spread = max(worst_spread, _band(group)["spread"])
    band = _band(ratios)
    band["max_spread_per_parameter"] = worst_spread
    grid = {"qs": list(qs), "nus": list(nus), "ts": list(ts),
            "k_range": f"ceil(nu)+1 .. {kmax}"}
    return grid, band, threshold, worst_spread <= threshold, rows


def _check_prop_est_d(spec, cfg):
    q = cfg.get("q", 2)
    nus = cfg.get("nus", (0.5, 1.0, 2.0))
    ts = cfg.get("ts", tuple(np.linspace(0.05, 0.95, 10)))
    threshold = cfg.get("threshold", 100.0)
    rows = []
    ratios = []
    for nu in nus:
        for t in ts:
            val = wave_kernel(q, nu, float(t), 0, spec)
            ratios.append(val)
            rows.append({"q": q, "nu": nu, "t": float(t), "value": val})
    band = _band(ratios)
    grid = {"q": q, "nus": list(nus), "t_grid": "10 points in [0.05, 0.95]"}
    return grid, band, threshold, band["spread"] <= threshold, rows


def _check_t_half_equals_p_one(spec, cfg):
    qs = cfg.get("qs", (1, 2))
    ts = cfg.get("ts", (0.3, 0.7))
    kmax = cfg.get("kmax", 15)
    threshold = cfg.get("threshold", 1e-8)
    rows = []
    worst = 0.0
    for q in qs:
        for t in ts:
            for k in range(kmax + 1):
                tv = wave_kernel(q, 0.5, t, k, spec)
                pv = stable_kernel(q, 1.0, t, k, spec)
                diff = abs(tv - pv)
                worst = max(worst, diff)
                rows.append({"q": q, "t": t, "k": k, "T": tv, "P": pv, "diff": diff})
    grid = {"qs": list(qs), "ts": list(ts), "kmax": kmax}
    return grid, {"max_abs_diff": worst}, threshold, worst <= threshold, rows


def _check_heat_domination(spec, cfg):
    qs = cfg.get("qs", (2, 3))
    Rs = cfg.get("Rs", (0.5, 1.0))
    kmax = cfg.get("kmax", 25)
    n_t = cfg.get("n_t", 12)
    threshold = cfg.get("threshold", 1e3)
    rows = []
    worst = 0.0
    for q in qs:
        geom = TreeGeometry(q, max(kmax, 4))
        for R in Rs:
            ref = tabulate(geom, KernelFamily.heat(), R, spec)
            for t in np.geomspace(R * 1e-3, R * 0.999, n_t):
                kern = tabulate(geom, KernelFamily.heat(), float(t), spec)
                for k in range(kmax + 1):
                    if ref.value(k) > 0:
                        r = kern.value(k) / ref.value(k)
                        worst = max(worst, r)
                        rows.append({"q": q, "R": R, "t": float(t), "k": k, "ratio": r})
    grid = {"qs": list(qs), "Rs": list(Rs), "kmax": kmax,
            "t_grid": f"{n_t} log points in (0, R)"}
    return grid, {"sup_ratio": worst}, threshold, worst <= threshold, rows


def _phi(z: float) -> float:
    return z * math.log(z + math.sqrt(1.0 + z * z)) - math.sqrt(1.0 + z * z)


def _check_z_profile(spec, cfg):
    ts = cfg.get("ts", tuple(np.geomspace(0.1, 10.0, 13)))
    kmax = cfg.get("kmax", 40)
    threshold = cfg.get("threshold", 100.0)
    from .kernels import heat_kernel_Z

    rows = []
    ratios = []
    for t in ts:
        t = float(t)
        for k in range(kmax + 1):
            h = heat_kernel_Z(t, k)
            if h <= 0:
                continue
            log_ratio = (
                math.log(h)
                + 0.5 * math.log(1.0 + k + t)
                + t * (1.0 + _phi(k / t))
            )
            r = math.exp(log_ratio)
            ratios.append(r)
            rows.append({"t": t, "k": k, "ratio": r})
    band = _band(ratios)
    grid = {"t_grid": "13 log points in [0.1, 10]", "kmax": kmax}
    return grid, band, threshold, band["spread"] <= threshold, rows


def _check_prop2_band(spec, cfg):
    alphas = cfg.get("alphas", (0.5, 1.0, 1.5))
    ts = cfg.get("ts", (0.1, 0.5, 0.9))
    kmax = cfg.get("kmax", 25)
    threshold = cfg.get("threshold", 100.0)
    rows = []
    ratios = []
    for alpha in alphas:
        for t in ts:
            for k in range(kmax + 1):
                scale = comparator_Z(alpha, t, k)
                val = stable_kernel(1, alpha, t, k, _scaled_spec(scale, spec))
                r = val / scale
                ratios.append(r)
                rows.append({"alpha": alpha, "t": t, "k": k, "ratio": r})
    band = _band(ratios)
    grid = {"q": 1, "alphas": list(alphas), "ts": list(ts), "kmax": kmax}
    return grid, band, threshold, band["spread"] <= threshold, rows


def _check_flow_conjugation(spec, cfg):
    qs = cfg.get("qs", (2, 4))
    t = cfg.get("t", 0.5)
    hs = cfg.get("hs", (1e-2, 5e-3))
    threshold = cfg.get("threshold", 1.8)
    rows = []
    min_order = math.inf
    b_exact = True
    for q in qs:
        b = flow_constant(q)
        b_exact = b_exact and b == (math.sqrt(q) - 1.0) ** 2 / (q + 1.0)
        geom = TreeGeometry(q, 3)
        fs = FlowStructure(geom)
        f = TreeFunction.delta(geom)
        res = [abs(verify_flow_conjugation(fs, t, f, ROOT, h, spec)) for h in hs]
        order = math.log(res[0] / res[1]) / math.log(hs[0] / hs[1]) if res[1] > 0 else math.inf
        min_order = min(min_order, order)
        rows.append({"q": q, "b": b, "residuals": res, "order": order})
    grid = {"qs": list(qs), "t": t, "hs": list(hs)}
    measured = {"min_order": min_order, "b_values_exact": b_exact}
    return grid, measured, threshold, min_order >= threshold and b_exact, rows


def _check_weights_roundtrip(spec, cfg):
    q = cfg.get("q", 2)
    p = cfg.get("p", 2.0)
    alpha = cfg.get("alpha", 1.0)
    R = cfg.get("R", 1.0)
    n_funcs = cfg.get("n_funcs", 50)
    x_radius = cfg.get("x_radius", 10)
    f_radius = cfg.get("f_radius", 4)
    threshold = cfg.get("threshold", 1e6)
    rng = np.random.default_rng(cfg.get("seed", 11))

    geom_x = TreeGeometry(q, x_radius)
    u = WeightSpec.from_closed_form(geom_x, p, 1.0, 0.0, 0.0)
    v = companion_weight(u, 1.0 + alpha / 2.0, p)

    xs = enumerate_ball(geom_x)
    ys = enumerate_ball(TreeGeometry(q, f_radius))
    dmat = np.array([[distance(x, y) for y in ys] for x in xs], dtype=np.int64)
    jmax = int(dmat.max())
    masks = [dmat == j for j in range(jmax + 1)]

    grid_times = MaximalSpec.default(R).grid
    fam = KernelFamily.stable(alpha)
    ktab = kernel_block(q, fam, grid_times, jmax, spec)
    v_vec = np.array([v.radial_value(len(x)) for x in xs])
    max_ratio = 0.0
    rows = []
    for i in range(n_funcs):
        fvec = rng.uniform(-1.0, 1.0, size=len(ys))
        s = np.stack([m @ fvec for m in masks], axis=1)  # (n_x, jmax+1)
        vals = s @ ktab  # (n_x, n_times)
        star = np.max(np.abs(vals), axis=1)
        num = float(np.sum(v_vec * star**p) ** (1.0 / p))
        den = float(np.sum(np.abs(fvec) ** p) ** (1.0 / p))
        ratio = num / den
        max_ratio = max(max_ratio, ratio)
        rows.append({"f_index": i, "ratio": ratio})
    grid = {
        "q": q, "p": p, "alpha": alpha, "R": R, "n_funcs": n_funcs,
        "x_radius": x_radius, "f_radius": f_radius,
        "grid": "64 log points in (R*1e-4, R*(1-1e-9))", "seed": cfg.get("seed", 11),
    }
    return grid, {"max_operator_ratio": max_ratio}, threshold, max_ratio <= threshold, rows


_CHECKS = {
    "stochasticity": _check_stochasticity,
    "semigroup-law": _check_semigroup_law,
    "initial-data": _check_initial_data,
    "A1-band": _check_a1_band,
    "phi0-band": _check_phi0_band,
    "eta-domination": _check_eta_domination,
    "prop-est-a": _check_prop_est_a,
    "prop-est-bc": _check_prop_est_bc,
    "prop-est-d": _check_prop_est_d,
    "T-half-equals-P-one": _check_t_half_equals_p_one,
    "heat-domination": _check_heat_domination,
    "Z-profile": _check_z_profile,
    "prop2-band": _check_prop2_band,
    "flow-conjugation": _check_flow_conjugation,
    "weights-roundtrip": _check_weights_roundtrip,
}

ALL_CHECKS = tuple(_CHECKS)


def run_check(
    check_id: str,
    config: dict | None = None,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> VerificationReport:
    """Run one check; numerical failures produce a failed report, not a crash."""
    if check_id not in _CHECKS:
        raise ValueError(f"unknown check {check_id!r}; known: {', '.join(ALL_CHECKS)}")
    cfg = config or {}
    start = time.monotonic()
    try:
        grid, measured, threshold, passed, rows = _CHECKS[check_id](spec, cfg)
        err = None
    except NumericalError as exc:
        grid, measured, threshold, passed, rows = (
            {"config": {k: repr(v) for k, v in cfg.items()}},
            {},
            math.nan,
            False,
            [],
        )
        err = str(exc)
    ms = int((time.monotonic() - start) * 1000.0)
    return VerificationReport(check_id, grid, measured, threshold, passed, ms, err, rows)


def run_suite(
    check_ids=None,
    config: dict | None = None,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> list[VerificationReport]:
    ids = list(check_ids) if check_ids else list(ALL_CHECKS)
    cfg = config or {}
    return [run_check(cid, cfg.get(cid), spec) for cid in ids]


def reports_to_json(reports) -> str:
    """Deterministic serialization: sorted keys, no timing data."""
    return json.dumps(
        [r.to_record() for r in reports], sort_keys=True, indent=2
    ) + "\n"
