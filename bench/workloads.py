"""The four workloads: their inputs, their operations and the checks on them.

A workload builds the operations of one round from (seed, round) before the
round starts. An operation is a call into treeheat's public API (CLI calls
go through `treeheat.cli.main` in the same process) plus a check that runs
after the timed phase, against `oracles`. Every round of a workload holds
the same operations; only their inputs change, so that no table cached in
one round serves the next.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles

# Checks allow FACTOR times the tolerance DEFAULT_SPEC states for one value,
# max(abs_tol, rel_tol * |value|). The oracles carry errors near 1e-15
# relative; the factor covers the program's nested quadratures (an outer
# integral over inner values that are each within that tolerance) and the
# golden-section and CSV round trips above them.
FACTOR = 10.0

WORKLOAD_IDS = {"kernel-tables": 1, "ball-maximal": 2, "weight-verdicts": 3, "verify-light": 4}


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the output is right
    known_fault: bool = False  # the one operation expected to fail


class Tolerance:
    def __init__(self, th):
        self.abs_tol = th.DEFAULT_SPEC.abs_tol
        self.rel_tol = th.DEFAULT_SPEC.rel_tol

    def __call__(self, ref):
        return FACTOR * np.maximum(self.abs_tol, self.rel_tol * np.abs(ref))

    def close(self, got, ref, extra=0.0) -> bool:
        return bool(abs(got - ref) <= self(ref) + extra)


def rng_for(workload: str, seed: int, rnd: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOAD_IDS[workload], seed, rnd])


def jitter(rng, x: float, width: float = 0.01) -> float:
    """x scaled by a factor drawn from [1 - width, 1 + width]."""
    return float(x * (1.0 + width * rng.uniform(-1.0, 1.0)))


def family(th, kind: str, param):
    if kind == "heat":
        return th.KernelFamily.heat()
    if kind == "stable":
        return th.KernelFamily.stable(param)
    return th.KernelFamily.wave(param)


class Oracles:
    """Reference kernels and sphere censuses, cached across one run's checks."""

    def __init__(self):
        self.walks: dict[int, oracles.WalkOracle] = {}
        self.kernels: dict = {}
        self.censuses: dict = {}

    def walk(self, q: int) -> oracles.WalkOracle:
        if q not in self.walks:
            self.walks[q] = oracles.WalkOracle(q)
        return self.walks[q]

    def kernel(self, q: int, kind: str, param, t: float, kmax: int) -> np.ndarray:
        key = (q, kind, param, t)
        hit = self.kernels.get(key)
        if hit is not None and len(hit) > kmax:
            return hit[: kmax + 1]
        if q == 1:
            ref = np.array([oracles.line_kernel(kind, param, t, k) for k in range(kmax + 1)])
        else:
            ref = self.walk(q).kernel(kind, param, t, kmax)
        self.kernels[key] = ref
        return ref

    def census(self, q: int, depth: int, jmax: int, rmax: int) -> np.ndarray:
        key = (q, depth, jmax, rmax)
        if key not in self.censuses:
            self.censuses[key] = oracles.sphere_depth_counts(q, depth, jmax, rmax)
        return self.censuses[key]


def check_table(tol: Tolerance, ref: np.ndarray, q: int, kern) -> str | None:
    """Values against the oracle, then the mass against 1 +- tail_bound."""
    v = np.asarray(kern.values, dtype=float)
    if v.shape != ref.shape or not np.all(np.isfinite(v)):
        return f"table shape {v.shape} or non-finite values"
    err = np.abs(v - ref)
    bad = np.flatnonzero(err > tol(ref))
    if len(bad):
        k = int(bad[np.argmax(err[bad] / tol(ref[bad]))])
        return f"k={k}: {v[k]:.6e} vs oracle {ref[k]:.6e} (|diff| {err[k]:.2e})"
    mass = math.fsum(oracles.sphere_size(q, k) * float(x) for k, x in enumerate(v))
    slack = FACTOR * max(tol.abs_tol, tol.rel_tol)
    if not abs(mass - 1.0) <= kern.tail_bound + slack:
        return f"mass {mass:.12f} misses 1 by more than tail_bound {kern.tail_bound:.3e}"
    return None


def parse_word(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text.split(".")) if text else ()


def fmt_word(word) -> str:
    return ".".join(str(c) for c in word)


def write_function_csv(path: str, table: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("word,value\n")
        for w, v in table.items():
            fh.write(f"{fmt_word(w)},{v!r}\n")


def read_csv_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def cross_coefficients(table: dict, x) -> np.ndarray:
    """c_j = sum of f over the sphere of radius j around x, by brute force."""
    dists = [oracles.word_distance(x, w) for w in table]
    c = np.zeros(max(dists) + 1)
    for j, v in zip(dists, table.values()):
        c[j] += v
    return c


# ------------------------------------------------------------ kernel-tables

# (q, family, parameter, nominal t, radius): every family at a small and a
# large t, the two q >= 2 of the walk-mixture engine and three q = 1 tables.
KERNEL_SLOTS = (
    (2, "heat", None, 0.05, 25),
    (3, "heat", None, 5.0, 30),
    (2, "stable", 1.0, 5.0, 26),
    (3, "stable", 1.0, 0.2, 27),
    (2, "stable", 1.5, 0.05, 28),
    (3, "stable", 1.5, 1.6, 29),
    (2, "wave", 0.75, 1.6, 30),
    (3, "wave", 0.75, 0.05, 25),
    (1, "heat", None, 0.5, 30),
    (1, "stable", 1.0, 1.0, 30),
    (1, "wave", 0.75, 0.2, 30),
)
# wave(nu=2.5) misses its oracle by far more than the tolerance at every
# seed (see CHANGES.md, FOUND): it is kept as the one operation that fails,
# on an input that does not depend on the seed (t moves by round only, so
# that no round is served from the table cache of the one before).
KNOWN_FAULT_SLOT = (2, "wave", 2.5, 0.5, 25)


def kernel_tables(th, ctx, seed: int, rnd: int) -> list[Op]:
    rng = rng_for("kernel-tables", seed, rnd)
    tol, orc = ctx.tol, ctx.oracles
    slots = [(q, kind, par, jitter(rng, t), radius) for q, kind, par, t, radius in KERNEL_SLOTS]
    q, kind, par, t, radius = KNOWN_FAULT_SLOT
    slots.append((q, kind, par, t + 1e-3 * rnd, radius))
    ops = []
    for i, (q, kind, par, t, radius) in enumerate(slots):
        geom, fam = th.TreeGeometry(q, radius), family(th, kind, par)

        def check(kern, q=q, kind=kind, par=par, t=t, radius=radius):
            return check_table(tol, orc.kernel(q, kind, par, t, radius), q, kern)

        ops.append(Op(f"tabulate q={q} {fam.label()} t={t:.4g} r={radius}",
                      lambda geom=geom, fam=fam, t=t: th.tabulate(geom, fam, t), check,
                      known_fault=i == len(slots) - 1))
    return ops


# ------------------------------------------------------------- ball-maximal

MAXIMAL_POINTS = 64
MAXIMAL_ROUNDS = 2


def maximal_grid(R: float) -> np.ndarray:
    """The --points 64 grid: log-spaced from R*1e-4 to R*(1-1e-9)."""
    return np.exp(np.linspace(math.log(R * 1e-4), math.log(R * (1.0 - 1e-9)), MAXIMAL_POINTS))


def random_table(rng, words, n: int, signed: bool = True) -> dict:
    """n distinct vertices of `words` with values of size 0.2..1, of either
    sign unless `signed` is false."""
    pick = rng.choice(len(words), size=n, replace=False)
    signs = (-1.0, 1.0) if signed else (1.0,)
    return {words[i]: float(rng.choice(signs) * rng.uniform(0.2, 1.0)) for i in sorted(pick)}


def check_maximal(tol, orc, q, kind, par, R, f: dict, path: str, radius: int):
    rows = read_csv_rows(path)
    words = oracles.ball_words(q, radius)
    if [parse_word(r["word"]) for r in rows] != words:
        return "output rows are not the ball in order"
    grid = maximal_grid(R)
    for row in rows:
        x = parse_word(row["word"])
        value, t_star = float(row["value"]), float(row["argmax_t"])
        if not 0.0 < t_star <= R:
            return f"x={row['word']}: witness time {t_star} outside (0, R]"
        c = cross_coefficients(f, x)
        kmax = len(c) - 1

        def at(t):
            ref = orc.kernel(q, kind, par, float(t), kmax)
            return abs(float(c @ ref)), float(np.abs(c) @ tol(ref))

        for t in grid:
            ref, slack = at(t)
            if value < ref - slack:
                return f"x={row['word']}: {value:.6e} below |K_t f| = {ref:.6e} at t={t:.4g}"
        ref, slack = at(t_star)
        if abs(value - ref) > slack:
            return f"x={row['word']}: {value:.6e} != |K_t f| = {ref:.6e} at witness t={t_star:.6g}"
    return None


def check_apply(tol, orc, q, kind, par, t, f: dict, path: str, radius: int):
    rows = read_csv_rows(path)
    words = oracles.ball_words(q, radius)
    if [parse_word(r["word"]) for r in rows] != words:
        return "output rows are not the ball in order"
    for row in rows:
        x = parse_word(row["word"])
        c = cross_coefficients(f, x)
        ref = orc.kernel(q, kind, par, t, len(c) - 1)
        want = float(c @ ref)
        if abs(float(row["value"]) - want) > float(np.abs(c) @ tol(ref)):
            return f"x={row['word']}: {float(row['value']):.6e} vs oracle {want:.6e}"
    return None


def ball_maximal(th, ctx, seed: int, rnd: int) -> list[Op]:
    rng = rng_for("ball-maximal", seed, rnd)
    tol, orc, workdir = ctx.tol, ctx.oracles, ctx.workdir
    R = 1.0 + 0.01 * rnd  # R = 1 in the first round; later rounds move off the cache
    ops = []

    def cli_op(name, argv, check):
        def call():
            return th.cli.main(argv)

        def checked(code):
            if code != 0:
                return f"exit code {code}"
            return check()

        ops.append(Op(name, call, checked))

    def write_input(tag, f):
        src = os.path.join(workdir, f"{tag}-r{rnd}.csv")
        write_function_csv(src, f)
        return src, os.path.join(workdir, f"{tag}-r{rnd}.out.csv")

    def maximal_case(tag, q, kind, par, out_radius, f_radius, n_rows, signed=True):
        f = random_table(rng, oracles.ball_words(q, f_radius), n_rows, signed)
        src, dst = write_input(tag, f)
        argv = ["maximal", "--q", str(q), "--family", kind]
        if kind == "stable":
            argv += ["--alpha", repr(par)]
        argv += ["--R", repr(R), "--points", str(MAXIMAL_POINTS), "--rounds", str(MAXIMAL_ROUNDS),
                 "--radius", str(out_radius), "--input", src, "--out", dst]
        cli_op(f"maximal q={q} {kind} radius={out_radius}", argv,
               lambda: check_maximal(tol, orc, q, kind, par, R, f, dst, out_radius))

    def apply_case(tag, q, kind, par, t, out_radius):
        f = random_table(rng, oracles.ball_words(q, 2), 5)
        src, dst = write_input(tag, f)
        flag = "--alpha" if kind == "stable" else "--nu"
        argv = ["apply", "--q", str(q), "--family", kind, flag, repr(par), "--t", repr(t),
                "--radius", str(out_radius), "--input", src, "--out", dst]
        cli_op(f"apply q={q} {kind} t={t:.4g} radius={out_radius}", argv,
               lambda: check_apply(tol, orc, q, kind, par, t, f, dst, out_radius))

    # the 10-vertex case: stable alpha=1, R=1, 3-row input, radius-2 ball.
    # Its values are positive: with mixed signs, where |K_t f| peaks (and so
    # which times the golden-section refinement tabulates, and their cost)
    # moved with the seed, and the round's work by 5% between seeds.
    maximal_case("stable-max", 2, "stable", 1.0, 2, 1, 3, signed=False)
    maximal_case("heat-max-q2", 2, "heat", None, 5, 2, 4)
    maximal_case("heat-max-q3", 3, "heat", None, 4, 1, 3)
    apply_case("wave-apply", 2, "wave", 0.75, jitter(rng, 0.5), 7)
    apply_case("stable-apply", 2, "stable", 1.5, jitter(rng, 0.5), 7)

    geom = th.TreeGeometry(2, 3)
    delta = th.TreeFunction.delta(geom)
    for depth, alpha in ((0, 0.5), (1, 1.0), (2, 1.5)):
        x = tuple(int(c) for c in rng.integers(0, 2, size=depth))
        if depth:
            x = (int(rng.integers(0, 3)),) + x[1:]
        alpha = jitter(rng, alpha)

        def check(val, alpha=alpha, depth=depth):
            ref = orc.walk(2).fractional_laplacian_delta(alpha, depth)
            if not tol.close(val, ref):
                return f"{val:.12e} vs binomial series {ref:.12e}"
            return None

        ops.append(Op(f"fractional_laplacian alpha={alpha:.4g} |x|={depth}",
                      lambda x=x, alpha=alpha: th.fractional_laplacian(delta, alpha, x), check))
    return ops


# ---------------------------------------------------------- weight-verdicts


def radial_statistic(orc, u, q, p, x_depth, radius, profile, sup: bool):
    """Partial sum (p > 1) or running sup (p = 1) for a radial weight u_i,
    from the non-backtracking census N[j, i] and profile_j."""
    N = orc.census(q, x_depth, radius - x_depth, radius)
    if sup:
        with np.errstate(divide="ignore"):
            present = np.where(N > 0, u[None, :], np.inf)
        return float(np.max(profile / present.min(axis=1)))
    pp = p / (p - 1.0)
    return float(np.sum(profile * (N @ u ** (-pp / p))))


def series_profile(q, e, p, jmax):
    j = np.arange(jmax + 1, dtype=float)
    with np.errstate(over="ignore"):
        return (float(q) ** j * (1.0 + j) ** e) ** (-p / (p - 1.0))


def sup_profile(q, e, jmax):
    j = np.arange(jmax + 1, dtype=float)
    return 1.0 / (float(q) ** j * (1.0 + j) ** e)


def base_vertex(rng, q: int, depth: int):
    if depth == 0:
        return ()
    return (int(rng.integers(0, q + 1)),) + tuple(int(c) for c in rng.integers(0, q, size=depth - 1))


# (a, b) of u_k = c q^(a k) (1+k)^b: below, at and above the critical a = -1
CLOSED_FORMS = ((-1.25, 0.0), (-1.0, -3.0), (-1.0, 4.0), (-0.75, 2.0), (0.0, 0.0))
SUP_FORMS = ((-1.5, 0.0), (-1.0, -4.0), (-1.0, 2.0), (-0.5, -1.0))
ALPHAS, NUS = (0.5, 1.0, 1.5), (0.5, 1.0, 2.5)


def weight_verdicts(th, ctx, seed: int, rnd: int) -> list[Op]:
    rng = rng_for("weight-verdicts", seed, rnd)
    tol, orc = ctx.tol, ctx.oracles
    R = jitter(rng, 1.0)
    ops = []
    ADM, NOT = "admissible", "not-admissible"

    def condition(kind, u, x):
        if kind == "thm1-i":
            alpha = float(rng.choice(ALPHAS))
            return 1.0 + alpha / 2.0, lambda: th.check_thm1_i(u, alpha, x)
        if kind == "thm2-i":
            nu = float(rng.choice(NUS))
            return nu + 1.0, lambda: th.check_thm2_i(u, nu, x)
        return None, lambda: th.check_thm3_g(u, R, x)

    def heat_profile(q, jmax):
        return orc.kernel(q, "heat", None, R, jmax)

    def expected_stat(kind, q, p, e, uvals, depth, radius):
        """The oracle statistic and its allowed error."""
        jmax = radius - depth
        if kind != "thm3-g":
            prof = sup_profile(q, e, jmax) if p == 1.0 else series_profile(q, e, p, jmax)
            ref = radial_statistic(orc, uvals, q, p, depth, radius, prof, p == 1.0)
            return ref, float(tol(ref))
        H = heat_profile(q, jmax)
        if p == 1.0:
            ref = radial_statistic(orc, uvals, q, p, depth, radius, H, True)
            slack = radial_statistic(orc, uvals, q, p, depth, radius, tol(H), True)
            return ref, slack + float(tol(ref))
        pp = p / (p - 1.0)
        ref = radial_statistic(orc, uvals, q, p, depth, radius, H**pp, False)
        dH = pp * H ** (pp - 1.0) * tol(H)
        slack = radial_statistic(orc, uvals, q, p, depth, radius, dH, False)
        return ref, slack + float(tol(ref))

    def truth(kind, q, p, e, a, b):
        """True if the condition holds on the infinite tree."""
        if kind == "thm3-g":
            return True  # H_R decays faster than any geometric sequence
        if p == 1.0:
            return oracles.closed_form_sup_finite(e, a, b)
        return oracles.closed_form_series_converges(q, p, e, a, b)

    def radial_op(tag, kind, q, p, radius, depth, a, b, closed: bool):
        c = float(rng.uniform(0.5, 2.0))
        geom = th.TreeGeometry(q, radius)
        k = np.arange(radius + 1, dtype=float)
        uvals = c * float(q) ** (a * k) * (1.0 + k) ** b
        if closed:
            u = th.WeightSpec.from_closed_form(geom, p, c, a, b)
        else:
            u = th.WeightSpec.from_radial(geom, p, uvals)
        x = base_vertex(rng, q, depth)
        e, call = condition(kind, u, x)

        def check(v):
            holds = truth(kind, q, p, e, a, b)
            if closed and kind != "thm3-g":
                if v.verdict != (ADM if holds else NOT):
                    return f"verdict {v.verdict}, oracle says {'holds' if holds else 'fails'}"
            elif v.verdict == (NOT if holds else ADM):
                return f"verdict {v.verdict} contradicts the closed form it samples"
            ref, slack = expected_stat(kind, q, p, e, uvals, depth, radius)
            if not abs(v.statistic - ref) <= slack:
                return f"statistic {v.statistic:.12e} vs oracle {ref:.12e}"
            return None

        ops.append(Op(f"{tag} {kind} q={q} p={p:g} r={radius} |x|={depth} a={a:g} b={b:g}",
                      call, check))

    # closed-form weights at radius 200: every p, every condition
    # q = 3 with p = 1.5 overflows the sphere sums at radius 200 (CHANGES.md, FOUND)
    for q, p in ((3, 1.0), (2, 1.5), (3, 2.0), (2, 3.0)):
        for kind in ("thm1-i", "thm2-i", "thm3-g"):
            forms = SUP_FORMS if p == 1.0 else CLOSED_FORMS
            a, b = forms[int(rng.integers(len(forms)))]
            radial_op("closed", kind, q, p, 200, 0 if p == 1.0 else 5, a, b, True)
    # radial tables at radius 200, base vertices down to depth 60
    for kind, q, p, depth in (("thm1-i", 2, 1.5, 0), ("thm2-i", 3, 2.0, 20),
                              ("thm3-g", 2, 3.0, 40), ("thm1-i", 2, 2.0, 60),
                              ("thm2-i", 2, 1.0, 0)):
        forms = SUP_FORMS if p == 1.0 else CLOSED_FORMS
        a, b = forms[int(rng.integers(len(forms)))]
        radial_op("radial", kind, q, p, 200, depth, a, b, False)
    # p = 1 sup tests off the root: these enumerate the whole ball. Radius 18
    # (786k vertices) is left out: its page faults made one such call vary
    # by 24% back to back, more than the rest of the round together.
    for kind, radius, depth, closed in (("thm1-i", 16, 1, True), ("thm2-i", 17, 2, False),
                                        ("thm3-g", 17, 1, True)):
        a, b = SUP_FORMS[int(rng.integers(len(SUP_FORMS)))]
        radial_op("off-root", kind, 2, 1.0, radius, depth, a, b, closed)

    # explicit vertex tables on q = 2 balls of radius 12 and 13
    for radius, cases in ((12, (("thm1-i", 2.0, 0), ("thm2-i", 1.5, 2), ("thm1-i", 1.0, 1))),
                          (13, (("thm3-g", 2.0, 0), ("thm3-g", 1.0, 2), ("thm2-i", 3.0, 1)))):
        words = oracles.ball_words(2, radius)
        a = float(rng.choice((-1.0, -0.5)))
        noise = np.exp(0.3 * rng.standard_normal(len(words)))
        table = {w: float(2.0 ** (a * len(w)) * n) for w, n in zip(words, noise)}
        u_by_p = {}
        for kind, p, depth in cases:
            if p not in u_by_p:
                u_by_p[p] = th.WeightSpec.from_table(th.TreeGeometry(2, radius), p, table)
            x = base_vertex(rng, 2, depth)
            e, call = condition(kind, u_by_p[p], x)

            def check(v, kind=kind, p=p, e=e, x=x, table=table, words=words, radius=radius):
                if v.verdict == NOT:
                    return "explicit table gave not-admissible"
                jmax = radius - len(x)
                if p == 1.0:
                    mins = oracles.sphere_mins_brute(table, words, x, jmax)
                    if kind == "thm3-g":
                        H = heat_profile(2, jmax)
                        ref = float(np.max(H / mins))
                        slack = float(np.max(tol(H) / mins))
                    else:
                        ref, slack = float(np.max(sup_profile(2, e, jmax) / mins)), 0.0
                else:
                    pp = p / (p - 1.0)
                    sums = oracles.sphere_sums_brute(table, words, x, jmax, -pp / p)
                    if kind == "thm3-g":
                        H = heat_profile(2, jmax)
                        ref = float(sums @ H**pp)
                        slack = float(sums @ (pp * H ** (pp - 1.0) * tol(H)))
                    else:
                        ref, slack = float(sums @ series_profile(2, e, p, jmax)), 0.0
                if not abs(v.statistic - ref) <= slack + float(tol(ref)):
                    return f"statistic {v.statistic:.12e} vs brute force {ref:.12e}"
                return None

            ops.append(Op(f"explicit {kind} p={p:g} r={radius} |x|={len(x)}", call, check))

    # companion weights of a closed-form and of a radial weight
    for tag, u, e, p in (
        ("closed", th.WeightSpec.from_closed_form(th.TreeGeometry(2, 200), 2.0, 1.0, 0.0, 0.0),
         jitter(rng, 1.5), 2.0),
        ("radial", th.WeightSpec.from_radial(th.TreeGeometry(3, 200), 1.5, np.exp(-0.02 * np.arange(201))),
         jitter(rng, 2.0), 1.5),
    ):

        def check(v, u=u, e=e, p=p):
            q, radius = u.geom.q, u.geom.radius
            k = np.arange(radius + 1, dtype=float)
            sizes = np.array([oracles.sphere_size(q, int(i)) for i in k], dtype=float)
            w = float(q) ** (-p * k) * (1.0 + k) ** (-p * e - 2.0) / sizes
            want = np.minimum([u.radial_value(int(i)) for i in k], w)
            got = np.array([v.radial_value(int(i)) for i in k])
            if not np.all(np.abs(got - want) <= FACTOR * tol.rel_tol * want):
                return "companion weight differs from min(u, w)"
            mass = float(np.sum(sizes * ((1.0 + k) ** e * float(q) ** k) ** p * got))
            if mass > math.pi**2 / 6.0 * (1.0 + FACTOR * tol.rel_tol):
                return f"companion sum {mass} exceeds sum (1+k)^-2"
            return None

        ops.append(Op(f"companion {tag} e={e:.4g}", lambda u=u, e=e, p=p: th.companion_weight(u, e, p), check))
    return ops


# ------------------------------------------------------------- verify-light

VERIFY_CHECKS = (
    "semigroup-law",
    "heat-domination",
    "prop-est-a",
    "prop-est-d",
    "T-half-equals-P-one",
    "prop2-band",
    "phi0-band",
    "Z-profile",
    "eta-domination",
    "flow-conjugation",
)


def verify_config(rng) -> dict:
    """The default configs, with each time parameter scaled within +-1%."""

    def j(values):
        return tuple(jitter(rng, float(v)) for v in values)

    return {
        "semigroup-law": {"pairs": (j((0.4, 0.35)), j((0.25, 0.75)))},
        "heat-domination": {"Rs": j((0.5, 1.0))},
        "prop-est-a": {"ts": j((0.25, 0.5, 1.0, 2.0))},
        "prop-est-d": {"ts": j(np.linspace(0.05, 0.95, 10))},
        "T-half-equals-P-one": {"ts": j((0.3, 0.7))},
        "prop2-band": {"ts": j((0.1, 0.5, 0.9))},
        "phi0-band": {"t": j((0.2,))[0]},
        "Z-profile": {"ts": j(np.geomspace(0.1, 10.0, 13))},
        "eta-domination": {"us": j(np.geomspace(1e-4, 1e4, 81))},
        "flow-conjugation": {"t": j((0.5,))[0]},
    }


def verify_light(th, ctx, seed: int, rnd: int) -> list[Op]:
    config = verify_config(rng_for("verify-light", seed, rnd))
    ops = []
    for cid in VERIFY_CHECKS:

        def check(reports, cid=cid):
            (rep,) = reports
            if rep.check_id != cid or not rep.passed or rep.error:
                return f"report {rep.check_id} passed={rep.passed} error={rep.error}"
            return None

        ops.append(Op(f"verify {cid}", lambda cid=cid: th.run_suite([cid], {cid: config[cid]}), check))
    return ops


WORKLOADS = {
    "kernel-tables": kernel_tables,
    "ball-maximal": ball_maximal,
    "weight-verdicts": weight_verdicts,
    "verify-light": verify_light,
}
