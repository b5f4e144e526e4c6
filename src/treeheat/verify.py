"""Orchestrated numerical verification suites.

Each check turns one analytic statement about the kernels, operators, or
weights into a banded numerical test over a recorded parameter grid and
produces a VerificationReport. Two-sided comparison statements are verified
as bounded ratio bands (max/min <= 100), not against specific constants.
Reports are deterministic: given the same configuration the
serialized output is bitwise identical (timing is kept on the report object
but never serialized).

Each check is registered with its default parameters, which a run's config
overrides, and with a fixed threshold, which it cannot. The comparison checks
read one kernel block per (q, family) through _compare and never call the
kernels one value at a time. Those whose values fall far below the spec's
absolute floor run under _floored(spec): the same spec with its absolute
tolerance at the smallest normal float, so that every value is certified to
rel_tol relative to itself.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import NumericalError
from .flow import FlowStructure, flow_constant, verify_flow_conjugation
from .geometry import ROOT, TreeGeometry, ball_distances, enumerate_ball
from .kernels import KernelFamily, comparator_Z, kernel_block, tabulate
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


_CHECKS: dict = {}


def _check(check_id: str, threshold: float, **defaults):
    """Register a check under check_id with its fixed threshold. It is called
    with the spec and a namespace of its parameters (these defaults,
    overridden by the config) and of the threshold, and returns the grid, the
    measured values, whether it passed and its rows."""

    def register(fn):
        _CHECKS[check_id] = (fn, threshold, defaults)
        return fn

    return register


def _floored(spec: QuadratureSpec) -> QuadratureSpec:
    """spec with its absolute floor at the smallest normal float."""
    return dataclasses.replace(spec, abs_tol=sys.float_info.min)


def _compare(q, family, ts, ks, ratio, spec, **labels) -> list:
    """Kernel values against a profile, from one kernel block of (q, family)
    at the times ts: for each t and each k in ks(t) the row {q, **labels, t,
    k, value, ratio}, with ratio = ratio(t, k, value); a ratio of None leaves
    its row out."""
    ts = [float(t) for t in ts]
    k_lists = [list(ks(t)) for t in ts]
    kmax = max((k for k_list in k_lists for k in k_list), default=0)
    block = kernel_block(q, family, ts, kmax, spec)
    rows = []
    for i, t in enumerate(ts):
        for k in k_lists[i]:
            value = float(block[k, i])
            r = ratio(t, k, value)
            if r is not None:
                rows.append({"q": q, **labels, "t": t, "k": k, "value": value, "ratio": r})
    return rows


def _over(profile):
    """The ratio value / profile(t, k)."""
    return lambda t, k, value: value / profile(t, k)


def _band(rows) -> dict:
    arr = [row["ratio"] for row in rows if math.isfinite(row["ratio"])]
    if not arr or min(arr) <= 0:
        return {"min_ratio": 0.0, "max_ratio": math.inf, "spread": math.inf}
    return {
        "min_ratio": min(arr),
        "max_ratio": max(arr),
        "spread": max(arr) / min(arr),
    }


def _bands(runs) -> dict:
    """The band over the rows of all runs, and the largest spread of one run."""
    band = _band([row for run in runs for row in run])
    band["max_spread_per_parameter"] = max([0.0, *(_band(run)["spread"] for run in runs)])
    return band


_THREE_FAMILIES = (KernelFamily.heat(), KernelFamily.stable(1.0), KernelFamily.wave(0.75))


@_check("stochasticity", 1e-8, qs=(1, 2, 3), ts=(0.1, 0.5, 1.0), families=_THREE_FAMILIES)
def _check_stochasticity(spec, c):
    rows = []
    worst = 0.0
    for q in c.qs:
        radius = 60 if q == 1 else 40
        geom = TreeGeometry(q, radius)
        for fam in c.families:
            for t in c.ts:
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
        "qs": list(c.qs),
        "ts": list(c.ts),
        "families": [f.label() for f in c.families],
        "radius": "60 (q=1) / 40",
    }
    return grid, {"max_mass_excess": worst}, worst <= c.threshold, rows


@_check("semigroup-law", 1e-7, qs=(1, 2), pairs=((0.4, 0.35), (0.25, 0.75)), kmax=8, radius=30)
def _check_semigroup_law(spec, c):
    rows = []
    worst = 0.0
    for q in c.qs:
        for t, s in c.pairs:
            block = kernel_block(q, KernelFamily.heat(), [t, s, t + s], c.radius, spec)
            a, b, direct = block.T.tolist()
            for k in range(c.kmax + 1):
                conv = radial_convolve(q, a, b, k)
                diff = abs(conv - direct[k])
                worst = max(worst, diff)
                rows.append(
                    {"q": q, "t": t, "s": s, "k": k, "conv": conv,
                     "direct": direct[k], "diff": diff}
                )
    grid = {"qs": list(c.qs), "pairs": [list(p) for p in c.pairs], "kmax": c.kmax,
            "truncation_radius": c.radius}
    return grid, {"max_abs_residual": worst}, worst <= c.threshold, rows


@_check("initial-data", 1e-3, q=2, families=_THREE_FAMILIES, js=tuple(range(3, 13)), seed=7)
def _check_initial_data(spec, c):
    geom = TreeGeometry(c.q, 3)
    rng = np.random.default_rng(c.seed)
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
    ts = [2.0 ** (-j) for j in c.js]
    for fam in c.families:
        for name, f in datasets.items():
            fx = np.array([f.value(x) for x in xs])[:, None]
            gaps = np.abs(BallOperator(fam, f, xs, spec).block(ts) - fx).max(axis=0).tolist()
            rows += [{"family": fam.label(), "data": name, "j": j, "t": t, "gap": gap}
                     for j, t, gap in zip(c.js, ts, gaps)]
            monotone = all(
                g2 <= g1 * (1.0 + 1e-7) + 1e-15 for g1, g2 in zip(gaps, gaps[1:])
            )
            final_ok = gaps[-1] < c.threshold
            worst_final = max(worst_final, gaps[-1])
            passed = passed and monotone and final_ok
    grid = {"q": c.q, "families": [f.label() for f in c.families],
            "dyadic_j": list(c.js), "datasets": list(datasets)}
    return grid, {"max_final_gap": worst_final}, passed, rows


def _stable_profile(q: int, alpha: float):
    """t k^{-1-alpha/2} q^{-k}, the two-sided profile of P_t^alpha(k)."""
    return lambda t, k: t * k ** (-1.0 - alpha / 2.0) * float(q) ** (-k)


@_check("A1-band", 100.0, qs=(2, 3), alphas=(0.5, 1.0, 1.5), ts=(0.05, 0.2, 0.8), kmax=30)
def _check_a1_band(spec, c):
    runs = []
    for q in c.qs:
        for alpha in c.alphas:
            profile = _stable_profile(q, alpha)
            rows = _compare(q, KernelFamily.stable(alpha), c.ts,
                            lambda t: range(int(math.ceil(t ** (2.0 / alpha))) + 1, c.kmax + 1),
                            _over(profile), _floored(spec), alpha=alpha)
            runs.append([{**row, "profile": profile(row["t"], row["k"])} for row in rows])
    band = _bands(runs)
    grid = {"qs": list(c.qs), "alphas": list(c.alphas), "ts": list(c.ts),
            "k_range": f"ceil(t^(2/alpha))+1 .. {c.kmax}"}
    rows = [row for run in runs for row in run]
    return grid, band, band["max_spread_per_parameter"] <= c.threshold, rows


@_check("phi0-band", math.inf, q=2, alpha=1.0, t=0.2, kmax=20)
def _check_phi0_band(spec, c):
    # the spherical function enters only through the two-sided comparison
    # phi0(k) ~ (k+1) q^{-k/2}; with no exact phi0 available, this check is
    # report-only: it records the stable-kernel ratio band on a small grid
    # (the same comparison the profile bound feeds into) and always passes.
    rows = _compare(c.q, KernelFamily.stable(c.alpha), [c.t], lambda t: range(2, c.kmax + 1),
                    _over(_stable_profile(c.q, c.alpha)), _floored(spec), alpha=c.alpha)
    band = _band(rows)
    band["report_only"] = True
    grid = {"q": c.q, "alpha": c.alpha, "t": c.t, "kmax": c.kmax}
    return grid, band, True, rows


@_check("eta-domination", 1e8, alphas=(0.5, 1.0, 1.5), a=0.25, b=1.0,
        us=tuple(np.geomspace(1e-4, 1e4, 81)), ts=tuple(np.linspace(0.25, 1.0, 7)))
def _check_eta_domination(spec, c):
    rows = []
    consts = {}
    for alpha in c.alphas:
        den = [eta_bound(alpha, c.a, u) for u in c.us]
        ratios = [eta_bound(alpha, t, u) / d
                  for t in c.ts if c.a <= t <= c.b for u, d in zip(c.us, den) if d > 0]
        consts[f"C_alpha_{alpha:g}"] = max([0.0, *ratios])
        rows.append({"alpha": alpha, "C": consts[f"C_alpha_{alpha:g}"]})
    worst = max(consts.values())
    grid = {"alphas": list(c.alphas), "a": c.a, "b": c.b,
            "u_grid": "81 log points in [1e-4, 1e4]",
            "t_grid": "7 points in [0.25, 1]"}
    return grid, consts, worst <= c.threshold, rows


@_check("prop-est-a", 1e3, qs=(2, 3), nu=2.5, ts=(0.25, 0.5, 1.0, 2.0))
def _check_prop_est_a(spec, c):
    rows = []
    for q in c.qs:
        rows += _compare(q, KernelFamily.wave(c.nu), c.ts, lambda t: range(int(math.ceil(c.nu))),
                         _over(lambda t, k: t ** (2 * k) * (k + 1.0) ** (-k - 0.5)
                               * (2.0 * math.e / (q + 1.0)) ** (k + 1.0)),
                         _floored(spec), nu=c.nu)
    worst = max([0.0, *(row["ratio"] for row in rows)])
    grid = {"qs": list(c.qs), "nu": c.nu, "ts": list(c.ts),
            "k_range": f"0 .. {int(math.ceil(c.nu)) - 1}"}
    return grid, {"max_ratio": worst}, worst <= c.threshold, rows


@_check("prop-est-bc", 100.0, qs=(2, 3), nus=(0.5, 1.0), ts=(0.1, 0.5, 0.9), kmax=25)
def _check_prop_est_bc(spec, c):
    runs = [
        _compare(q, KernelFamily.wave(nu), c.ts,
                 lambda t: range(int(math.ceil(nu)) + 1, c.kmax + 1),
                 _over(lambda t, k: t ** (2 * nu) / (k ** (nu + 1.0) * float(q) ** k)),
                 _floored(spec), nu=nu)
        for q in c.qs
        for nu in c.nus
    ]
    band = _bands(runs)
    grid = {"qs": list(c.qs), "nus": list(c.nus), "ts": list(c.ts),
            "k_range": f"ceil(nu)+1 .. {c.kmax}"}
    rows = [row for run in runs for row in run]
    return grid, band, band["max_spread_per_parameter"] <= c.threshold, rows


@_check("prop-est-d", 100.0, q=2, nus=(0.5, 1.0, 2.0), ts=tuple(np.linspace(0.05, 0.95, 10)))
def _check_prop_est_d(spec, c):
    rows = []
    for nu in c.nus:  # the band of T_t^nu(0) itself
        rows += _compare(c.q, KernelFamily.wave(nu), c.ts, lambda t: [0],
                         lambda t, k, value: value, spec, nu=nu)
    band = _band(rows)
    grid = {"q": c.q, "nus": list(c.nus), "t_grid": "10 points in [0.05, 0.95]"}
    return grid, band, band["spread"] <= c.threshold, rows


@_check("T-half-equals-P-one", 1e-8, qs=(1, 2), ts=(0.3, 0.7), kmax=15)
def _check_t_half_equals_p_one(spec, c):
    rows = []
    for q in c.qs:
        T = kernel_block(q, KernelFamily.wave(0.5), c.ts, c.kmax, spec).T.tolist()
        P = kernel_block(q, KernelFamily.stable(1.0), c.ts, c.kmax, spec).T.tolist()
        rows += [{"q": q, "t": t, "k": k, "T": tv, "P": pv, "diff": abs(tv - pv)}
                 for t, Tt, Pt in zip(c.ts, T, P) for k, (tv, pv) in enumerate(zip(Tt, Pt))]
    worst = max([0.0, *(row["diff"] for row in rows)])
    grid = {"qs": list(c.qs), "ts": list(c.ts), "kmax": c.kmax}
    return grid, {"max_abs_diff": worst}, worst <= c.threshold, rows


@_check("heat-domination", 1e3, qs=(2, 3), Rs=(0.5, 1.0), kmax=25, n_t=12)
def _check_heat_domination(spec, c):
    rows = []
    for q in c.qs:
        for R in c.Rs:
            ref = kernel_block(q, KernelFamily.heat(), [R], c.kmax, spec)[:, 0].tolist()
            rows += _compare(q, KernelFamily.heat(), np.geomspace(R * 1e-3, R * 0.999, c.n_t),
                             lambda t: range(c.kmax + 1),
                             lambda t, k, value: value / ref[k] if ref[k] > 0 else None,
                             spec, R=R)
    worst = max([0.0, *(row["ratio"] for row in rows)])
    grid = {"qs": list(c.qs), "Rs": list(c.Rs), "kmax": c.kmax,
            "t_grid": f"{c.n_t} log points in (0, R)"}
    return grid, {"sup_ratio": worst}, worst <= c.threshold, rows


def _phi(z: float) -> float:
    return z * math.log(z + math.sqrt(1.0 + z * z)) - math.sqrt(1.0 + z * z)


def _z_ratio(t: float, k: int, h: float):
    """H_t(k) sqrt(1 + k + t) e^{t (1 + phi(k/t))} on the line, summed in logs."""
    if h <= 0:
        return None
    return math.exp(math.log(h) + 0.5 * math.log(1.0 + k + t) + t * (1.0 + _phi(k / t)))


@_check("Z-profile", 100.0, ts=tuple(np.geomspace(0.1, 10.0, 13)), kmax=40)
def _check_z_profile(spec, c):
    rows = _compare(1, KernelFamily.heat(), c.ts, lambda t: range(c.kmax + 1), _z_ratio, spec)
    band = _band(rows)
    grid = {"t_grid": "13 log points in [0.1, 10]", "kmax": c.kmax}
    return grid, band, band["spread"] <= c.threshold, rows


@_check("prop2-band", 100.0, alphas=(0.5, 1.0, 1.5), ts=(0.1, 0.5, 0.9), kmax=25)
def _check_prop2_band(spec, c):
    rows = []
    for alpha in c.alphas:
        rows += _compare(1, KernelFamily.stable(alpha), c.ts, lambda t: range(c.kmax + 1),
                         _over(lambda t, k: comparator_Z(alpha, t, k)), _floored(spec),
                         alpha=alpha)
    band = _band(rows)
    grid = {"q": 1, "alphas": list(c.alphas), "ts": list(c.ts), "kmax": c.kmax}
    return grid, band, band["spread"] <= c.threshold, rows


@_check("flow-conjugation", 1.8, qs=(2, 4), t=0.5, hs=(1e-2, 5e-3))
def _check_flow_conjugation(spec, c):
    rows = []
    min_order = math.inf
    b_exact = True
    for q in c.qs:
        b = flow_constant(q)
        b_exact = b_exact and b == (math.sqrt(q) - 1.0) ** 2 / (q + 1.0)
        geom = TreeGeometry(q, 3)
        fs = FlowStructure(geom)
        f = TreeFunction.delta(geom)
        res = [abs(verify_flow_conjugation(fs, c.t, f, ROOT, h, spec)) for h in c.hs]
        order = math.log(res[0] / res[1]) / math.log(c.hs[0] / c.hs[1]) if res[1] > 0 else math.inf
        min_order = min(min_order, order)
        rows.append({"q": q, "b": b, "residuals": res, "order": order})
    grid = {"qs": list(c.qs), "t": c.t, "hs": list(c.hs)}
    measured = {"min_order": min_order, "b_values_exact": b_exact}
    return grid, measured, min_order >= c.threshold and b_exact, rows


@_check("weights-roundtrip", 1e6, q=2, p=2.0, alpha=1.0, R=1.0, n_funcs=50, x_radius=10,
        f_radius=4, seed=11)
def _check_weights_roundtrip(spec, c):
    q, p = c.q, c.p
    rng = np.random.default_rng(c.seed)
    geom_x = TreeGeometry(q, c.x_radius)
    u = WeightSpec.from_closed_form(geom_x, p, 1.0, 0.0, 0.0)
    v = companion_weight(u, 1.0 + c.alpha / 2.0, p)

    xs = enumerate_ball(geom_x)
    ys = enumerate_ball(TreeGeometry(q, c.f_radius))
    dmat = np.stack([ball_distances(geom_x, y) for y in ys], axis=1)  # d(x, y) = d(y, x)
    width = int(dmat.max()) + 1
    # the entry (x, d(x, y)) of each pair, row by row: bincount then sums each
    # sphere of x in the order of ys
    cells = (np.arange(len(xs))[:, None] * width + dmat).ravel()
    ktab = kernel_block(q, KernelFamily.stable(c.alpha), MaximalSpec.default(c.R).grid,
                        width - 1, spec)
    v_vec = np.array([v.radial_value(len(x)) for x in xs])
    max_ratio = 0.0
    rows = []
    for i in range(c.n_funcs):
        fvec = rng.uniform(-1.0, 1.0, size=len(ys))
        s = np.bincount(cells, np.tile(fvec, len(xs)), len(xs) * width).reshape(len(xs), width)
        vals = s @ ktab  # (n_x, n_times)
        star = np.max(np.abs(vals), axis=1)
        num = float(np.sum(v_vec * star**p) ** (1.0 / p))
        den = float(np.sum(np.abs(fvec) ** p) ** (1.0 / p))
        ratio = num / den
        max_ratio = max(max_ratio, ratio)
        rows.append({"f_index": i, "ratio": ratio})
    grid = {
        "q": q, "p": p, "alpha": c.alpha, "R": c.R, "n_funcs": c.n_funcs,
        "x_radius": c.x_radius, "f_radius": c.f_radius,
        "grid": "64 log points in (R*1e-4, R*(1-1e-9))", "seed": c.seed,
    }
    return grid, {"max_operator_ratio": max_ratio}, max_ratio <= c.threshold, rows


ALL_CHECKS = tuple(_CHECKS)
CHECK_PARAMETERS = {cid: tuple(defaults) for cid, (_, _, defaults) in _CHECKS.items()}


def run_check(
    check_id: str,
    config: dict | None = None,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> VerificationReport:
    """Run one check; numerical failures produce a failed report, not a crash.
    A config key that is not one of the check's parameters (the threshold is
    not one) is a ValueError."""
    if check_id not in _CHECKS:
        raise ValueError(f"unknown check {check_id!r}; known: {', '.join(ALL_CHECKS)}")
    cfg = config or {}
    unknown = sorted(set(cfg) - set(CHECK_PARAMETERS[check_id]))
    if unknown:
        raise ValueError(f"unknown parameter {', '.join(map(repr, unknown))} for check "
                         f"{check_id!r}; its parameters: {', '.join(CHECK_PARAMETERS[check_id])}")
    check, threshold, defaults = _CHECKS[check_id]
    start = time.monotonic()
    try:
        params = SimpleNamespace(**{**defaults, **cfg}, threshold=threshold)
        grid, measured, passed, rows = check(spec, params)
        err = None
    except NumericalError as exc:
        grid, measured, passed, rows = {"config": {k: repr(v) for k, v in cfg.items()}}, {}, False, []
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
