"""Admissibility conditions for weights on the tree and companion weights.

Each condition reads one statistic of the weight u on the spheres around a
base vertex x against one profile g_j. For 1 < p < infinity (conjugate
p' = p/(p-1)) the statistic is the partial series

    sum_j g_j^{p'} S_j,    S_j = sum_{d(x,y)=j} u(y)^{-p'/p},

and for p = 1 the running sup max_j g_j / m_j with m_j = min_{d(x,y)=j} u(y).
The stable (Thm1-i) and wave-type (Thm2-i) families take the power profile
g_j = (q^j (1+j)^e)^{-1}, with e = 1 + alpha/2 and e = nu + 1; the heat
family (Thm3-g) takes the tabulated kernel g_j = H_R(j). Radial weights get
log S_j and log m_j from the joint distance census, at any base vertex and
without visiting the ball; explicit tables visit their own entries. Sums
are taken in logs, so a finite term never passes through an overflow.

Verdicts follow a strict certification policy: `admissible` needs a finite
certified tail, `not-admissible` needs a divergence certificate (closed-form
ratio analysis, or terms persistently bounded below with nondecreasing
ratio); weights given as finite tables without a closed form can otherwise
only be `inconclusive`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .geometry import (
    ROOT,
    TreeGeometry,
    Word,
    cross_distance_counts,
    depth,
    distance,
    sphere_size,
    validate_word,
)
from .kernels import KernelFamily, kernel_block
from .quadrature import DEFAULT_SPEC, QuadratureSpec

ADMISSIBLE = "admissible"
NOT_ADMISSIBLE = "not-admissible"
INCONCLUSIVE = "inconclusive"

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ClosedFormWeight:
    """u_k = c * q^(a*k) * (1+k)^b."""

    c: float
    a: float
    b: float

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.c, self.a, self.b)):
            raise ValueError("c, a and b must be finite")
        if not self.c > 0:
            raise ValueError("coefficient c must be > 0")

    def value(self, q: int, k: int) -> float:
        return self.c * float(q) ** (self.a * k) * (1.0 + k) ** self.b

    def label(self) -> str:
        return f"{self.c:g}*q^({self.a:g}k)*(1+k)^{self.b:g}"


@dataclass(frozen=True)
class WeightSpec:
    """A strictly positive weight with exponent p; radial closed form,
    radial table, or explicit vertex table."""

    geom: TreeGeometry
    p: float
    closed_form: ClosedFormWeight | None = None
    radial: tuple[float, ...] | None = None
    table: dict | None = None

    def __post_init__(self):
        reps = sum(x is not None for x in (self.closed_form, self.radial, self.table))
        if reps != 1:
            raise ValueError("exactly one weight representation must be given")
        if not self.p >= 1.0:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.radial is not None:
            if len(self.radial) != self.geom.radius + 1:
                raise ValueError("radial weight length must be radius + 1")
            if any(not 0 < v < math.inf for v in self.radial):
                raise ValueError("weights must be finite and strictly positive")
        if self.table is not None:
            if any(not 0 < v < math.inf for v in self.table.values()):
                raise ValueError("weights must be finite and strictly positive")
            if len(self.table) != self.geom.ball_size():
                raise ValueError("an explicit weight table must cover the whole ball")

    @staticmethod
    def from_closed_form(
        geom: TreeGeometry, p: float, c: float, a: float, b: float
    ) -> "WeightSpec":
        return WeightSpec(geom, p, closed_form=ClosedFormWeight(c, a, b))

    @staticmethod
    def from_radial(geom: TreeGeometry, p: float, values) -> "WeightSpec":
        return WeightSpec(geom, p, radial=tuple(float(v) for v in values))

    @staticmethod
    def from_table(geom: TreeGeometry, p: float, mapping) -> "WeightSpec":
        table = {}
        for w, v in mapping.items():
            w = validate_word(w, geom.q)
            if depth(w) > geom.radius:
                raise ValueError(f"vertex {w} outside the ball")
            table[w] = float(v)
        return WeightSpec(geom, p, table=table)

    @property
    def is_radial(self) -> bool:
        return self.table is None

    def radial_value(self, k: int) -> float:
        if self.closed_form is not None:
            return self.closed_form.value(self.geom.q, k)
        if self.radial is not None:
            if not 0 <= k <= self.geom.radius:
                raise ValueError(f"k={k} outside radius {self.geom.radius}")
            return self.radial[k]
        raise ValueError("explicit weight has no radial form")

    def log_radial(self) -> np.ndarray:
        """log u_k for k = 0..radius, formed in logs for a closed form."""
        k = np.arange(self.geom.radius + 1)
        if self.closed_form is not None:
            cf = self.closed_form
            return math.log(cf.c) + cf.a * math.log(self.geom.q) * k + cf.b * np.log1p(k)
        return np.log(np.array(self.radial))

    def value(self, x) -> float:
        x = validate_word(x, self.geom.q)
        if self.table is not None:
            if x not in self.table:
                raise ValueError(f"weight undefined at {x}")
            return self.table[x]
        return self.radial_value(depth(x))

    def label(self) -> str:
        if self.closed_form is not None:
            return self.closed_form.label()
        return "radial-table" if self.radial is not None else "explicit-table"


@dataclass(frozen=True)
class AdmissibilityVerdict:
    condition: str
    p: float
    params: dict
    base_vertex: tuple
    statistic: float  # partial sum (1 < p) or running sup (p = 1)
    tail_bound: float | None  # None: unknown; math.inf: certified divergent
    verdict: str

    def to_record(self) -> dict:
        tail = self.tail_bound
        if tail is not None and math.isinf(tail):
            tail = "unbounded-tail"
        return {
            "condition": self.condition,
            "p": self.p,
            "params": dict(sorted(self.params.items())),
            "base_vertex": list(self.base_vertex),
            "partial": self.statistic,
            "tail": tail,
            "verdict": self.verdict,
        }


def _sphere_stats(u: WeightSpec, x: Word, s: float | None) -> np.ndarray:
    """log sum_{d(x,y)=j} u(y)^(-s), or log min_{d(x,y)=j} u(y) if s is None,
    for each sphere j = 0..radius-|x| around x.

    Radial weights read the census of (d(o, y), d(x, y)) pairs; explicit
    tables visit their entries. Each sum is shifted by its largest log term.
    """
    jmax = u.geom.radius - depth(x)
    if jmax < 0:
        raise ValueError("base vertex outside the ball")
    if u.is_radial:
        census = cross_distance_counts(u.geom.q, depth(x), u.geom.radius)
        i, j, log_n = np.array([(i, j, math.log(n)) for i, j, n in census]).T
        j, log_u = j.astype(int), u.log_radial()[i.astype(int)]
    else:
        j = np.array([distance(x, y) for y in u.table])
        log_u, log_n = np.log(np.fromiter(u.table.values(), float)), np.zeros(len(j))
    keep = j <= jmax
    j, log_u, log_n = j[keep], log_u[keep], log_n[keep]
    if s is None:
        out = np.full(jmax + 1, np.inf)
        np.minimum.at(out, j, log_u)
        return out
    terms = log_n - s * log_u
    shift = np.full(jmax + 1, -np.inf)
    np.maximum.at(shift, j, terms)
    total = np.zeros(jmax + 1)
    np.add.at(total, j, np.exp(terms - shift[j]))
    return shift + np.log(total)


def _closed_form_series_verdict(u: WeightSpec, e: float):
    """Exact ratio test on the closed-form term sequence.

    term_k ~ q^(gamma*k) * (1+k)^delta with
    gamma = 1 - p' - a*p'/p, delta = -e*p' - b*p'/p.
    """
    cf = u.closed_form
    p = u.p
    pp = p / (p - 1.0)
    gamma = 1.0 - pp - cf.a * pp / p
    delta = -e * pp - cf.b * pp / p
    if gamma > 0.0:
        return NOT_ADMISSIBLE, gamma, delta
    if gamma == 0.0:
        verdict = ADMISSIBLE if delta < -1.0 else NOT_ADMISSIBLE
        return verdict, gamma, delta
    return ADMISSIBLE, gamma, delta


def _closed_form_tail(u: WeightSpec, gamma: float, delta: float) -> float:
    """Certified tail of the closed-form series beyond the ball radius."""
    q = float(u.geom.q)
    p = u.p
    pp = p / (p - 1.0)
    cf = u.closed_form
    coeff = (q + 1.0) / q * cf.c ** (-pp / p)
    k = u.geom.radius + 1
    if gamma < 0.0:
        rho = q**gamma

        def term(kk):
            return coeff * q ** (gamma * kk) * (1.0 + kk) ** delta

        # extend until the per-step ratio comfortably certifies a geometric tail
        total = 0.0
        while True:
            r_k = rho * (1.0 + 1.0 / (1.0 + k)) ** max(delta, 0.0)
            if r_k < 0.99:
                return total + term(k) / (1.0 - r_k)
            total += term(k)
            k += 1
            if k > u.geom.radius + 100_000:
                raise NumericalError("tail certification did not stabilize")
    # gamma == 0, delta < -1: integral comparison sum_{j>=k} j^delta
    return coeff * (1.0 + k) ** (delta + 1.0) / (-(delta + 1.0))


def _table_series_verdict(
    terms: np.ndarray, log_size: np.ndarray, allow_divergence: bool = True
):
    """Empirical certification for weights given only as finite data.

    Each term is the exp of a sum of logs whose magnitudes add up to
    `log_size`, so it is good to about eps * log_size relative; ratios
    within four times that of 1 count as 1.

    `allow_divergence` is False for explicit vertex tables: finite explicit
    data can certify convergence (geometric majorant) but never divergence,
    so those weights cap at inconclusive. Radial tables may certify
    divergence from persistently nondecreasing terms bounded below.
    """
    if len(terms) < 6:
        return INCONCLUSIVE, None
    tail5 = terms[-5:]
    prev5 = terms[-6:-1]
    if np.all(tail5 > 0) and np.all(prev5 > 0):
        ratios = tail5 / prev5
        if np.max(ratios) <= 0.95:
            rho = float(np.max(ratios))
            return ADMISSIBLE, float(terms[-1] * rho / (1.0 - rho))
        # terms persistently bounded below with nondecreasing ratio
        slack = 4.0 * _EPS * (float(log_size[-6:].max()) + 16.0)
        if allow_divergence and np.min(ratios) >= 1.0 - slack and np.all(tail5 >= 1e-8):
            return NOT_ADMISSIBLE, math.inf
    return INCONCLUSIVE, None


def _sup_settles(seq: np.ndarray) -> bool:
    """Sup certificate for a tabulated profile, read from the last six terms:
    geometric decay, or a non-increasing tail within 1% of max(1, sup)."""
    if len(seq) < 6:
        return False
    last = seq[-6:]
    if np.all(last[:-1] > 0) and np.max(last[1:] / last[:-1]) <= 0.95:
        return True
    floor = max(1.0, float(seq.max())) * 0.99
    return bool(np.all(np.diff(last) <= 0) and np.all(last[1:] >= floor))


def _check(u: WeightSpec, x, log_g: np.ndarray, condition: str, params: dict, e=None):
    """Verdict from the sphere statistic of u around x against log g_j.

    `e` is the exponent of a power profile g_j = (q^j (1+j)^e)^{-1}, which
    lets a closed-form weight be decided exactly; None for a tabulated
    profile, whose p = 1 sup may then be certified by `_sup_settles`.
    """
    x = validate_word(x, u.geom.q)
    cf = u.closed_form if e is not None else None
    if u.p == 1.0:
        log_m = _sphere_stats(u, x, None)
        seq = np.exp(log_g[: len(log_m)] - log_m)
        stat, verdict, tail = float(seq.max()), INCONCLUSIVE, None
        if cf is not None:
            # g_k = c q^{(1+a)k} (1+k)^{e+b}; sup of 1/g finite iff g bounded below
            qexp, pexp = 1.0 + cf.a, e + cf.b
            bounded = qexp > 0.0 or (qexp == 0.0 and pexp >= 0.0)
            verdict, tail = (ADMISSIBLE, 0.0) if bounded else (NOT_ADMISSIBLE, math.inf)
        elif e is None and _sup_settles(seq):
            verdict, tail = ADMISSIBLE, 0.0
    else:
        pp = u.p / (u.p - 1.0)
        log_s = _sphere_stats(u, x, pp / u.p)
        log_t = pp * log_g[: len(log_s)]
        terms = np.exp(log_s + log_t)
        stat = float(terms.sum())
        if cf is not None:
            verdict, gamma, delta = _closed_form_series_verdict(u, e)
            tail = _closed_form_tail(u, gamma, delta) if verdict == ADMISSIBLE else math.inf
        else:
            verdict, tail = _table_series_verdict(
                terms, np.abs(log_s) + np.abs(log_t), allow_divergence=u.is_radial
            )
    return AdmissibilityVerdict(condition, u.p, params, x, stat, tail, verdict)


def _power_profile(geom: TreeGeometry, e: float) -> np.ndarray:
    """log g_j = -(j log q + e log(1+j)) for j = 0..radius."""
    j = np.arange(geom.radius + 1)
    return -(j * math.log(geom.q) + e * np.log1p(j))


def check_thm1_i(u: WeightSpec, alpha: float, x=ROOT) -> AdmissibilityVerdict:
    """Admissibility for the stable-family maximal operator (exponent 1+alpha/2)."""
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    e = 1.0 + alpha / 2.0
    params = {"alpha": alpha, "weight": u.label()}
    return _check(u, x, _power_profile(u.geom, e), "Thm1-i", params, e)


def check_thm2_i(u: WeightSpec, nu: float, x=ROOT) -> AdmissibilityVerdict:
    """Admissibility for the wave-type maximal operator (exponent nu+1)."""
    if not nu > 0.0:
        raise ValueError(f"nu must be > 0, got {nu}")
    e = nu + 1.0
    params = {"nu": nu, "weight": u.label()}
    return _check(u, x, _power_profile(u.geom, e), "Thm2-i", params, e)


def check_thm3_g(
    u: WeightSpec, R: float, x=ROOT, spec: QuadratureSpec = DEFAULT_SPEC
) -> AdmissibilityVerdict:
    """Heat-family condition with the tabulated kernel H_R as the profile."""
    if not R > 0.0:
        raise ValueError(f"R must be > 0, got {R}")
    h = kernel_block(u.geom.q, KernelFamily.heat(), [R], u.geom.radius, spec)[:, 0]
    with np.errstate(divide="ignore"):
        log_h = np.log(h)
    return _check(u, x, log_h, "Thm3-g", {"R": R, "weight": u.label()})


def companion_weight(u: WeightSpec, exponent: float, p: float | None = None) -> WeightSpec:
    """v = min(u, w) with w_k = q^{-pk}(1+k)^{-p*e-2}/sphere_size(k).

    `exponent` is the family profile e (1+alpha/2 or nu+1). By construction
    sum_k sphere_size(k) ((1+k)^e q^k)^p w_k = sum_k (1+k)^{-2} < infinity.
    """
    if p is None:
        p = u.p
    geom = u.geom
    q = float(geom.q)

    def w_k(k: int) -> float:
        return (
            q ** (-p * k)
            * (1.0 + k) ** (-p * exponent - 2.0)
            / sphere_size(geom, k)
        )

    if u.is_radial:
        vals = [
            min(u.radial_value(k), w_k(k)) for k in range(geom.radius + 1)
        ]
        return WeightSpec.from_radial(geom, p, vals)
    table = {y: min(uy, w_k(depth(y))) for y, uy in u.table.items()}
    return WeightSpec(geom, p, table=table)
