"""Spans around the public functions of each treeheat layer, from outside.

`Tracer.install()` replaces each traced function wherever callers look it
up: the attribute of its own module and of every loaded `treeheat` module
that imported the name. Nothing inside `src/` changes. Each call records a
span (name, start, end, parent) in flat in-memory arrays; `save()` writes
them out once the run ends, and `layer_metrics()` turns them into counts and
self times (a span's duration minus the time its direct children cover).
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, function) pairs that get a span, in the layer order of the README.
SPANNED = (
    ("kernels", "tabulate"),
    ("kernels", "stable_kernel"),
    ("kernels", "wave_kernel"),
    ("kernels", "heat_kernel_many"),
    ("quadrature", "integrate"),
    ("special", "bessel_i_scaled"),
    ("operators", "maximal"),
    ("operators", "apply_kernel"),
    ("operators", "fractional_laplacian"),
    ("geometry", "enumerate_ball"),
    ("geometry", "radial_distance_counts"),
    ("weights", "check_thm1_i"),
    ("weights", "check_thm2_i"),
    ("weights", "check_thm3_g"),
    ("weights", "companion_weight"),
    ("verify", "run_check"),
    ("flow", "verify_flow_conjugation"),
    ("cli", "main"),
)
# called too often for a span each; only counted
COUNTED = (("geometry", "distance"),)

METRIC_NAMES = (
    "kernels.tabulate.calls",
    "kernels.tabulate.self_s",
    "kernels.tabulate.tables_built",
    "kernels.tabulate.radius_rebuilds",
    "kernels.values",
    "kernels.stable_kernel.calls",
    "kernels.stable_kernel.self_s",
    "kernels.wave_kernel.calls",
    "kernels.wave_kernel.self_s",
    "kernels.heat_kernel_many.calls",
    "kernels.heat_kernel_many.self_s",
    "kernels.heat_kernel_many.times",
    "quadrature.integrate.calls",
    "quadrature.integrate.self_s",
    "special.bessel_i_scaled.calls",
    "special.bessel_i_scaled.self_s",
    "special.stable_density_evals",
    "operators.maximal.calls",
    "operators.maximal.self_s",
    "operators.apply_kernel.calls",
    "operators.apply_kernel.self_s",
    "operators.fractional_laplacian.calls",
    "operators.fractional_laplacian.self_s",
    "geometry.enumerate_ball.calls",
    "geometry.enumerate_ball.self_s",
    "geometry.enumerate_ball.vertices",
    "geometry.radial_distance_counts.calls",
    "geometry.radial_distance_counts.self_s",
    "geometry.distance.calls",
    "weights.check_thm1_i.calls",
    "weights.check_thm1_i.self_s",
    "weights.check_thm2_i.calls",
    "weights.check_thm2_i.self_s",
    "weights.check_thm3_g.calls",
    "weights.check_thm3_g.self_s",
    "weights.companion_weight.calls",
    "weights.companion_weight.self_s",
    "verify.run_check.calls",
    "verify.run_check.self_s",
    "flow.verify_flow_conjugation.calls",
    "flow.verify_flow_conjugation.self_s",
    "cli.main.calls",
    "cli.main.self_s",
    "trace.overhead_s",
)


def _stable_density_misses() -> int:
    """Computed (not cached) stable-density evaluations so far; 0 once the
    cached density function is gone from `treeheat.special`."""
    special = sys.modules.get("treeheat.special")
    info = getattr(getattr(special, "_f1", None), "cache_info", None)
    return info().misses if info else 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # span name per name id
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.tabulate_calls: list = []  # (span index, cache key) per call
        self.density_misses0 = 0
        self.installed: list = []  # (module, attr, original)

    # ---------------------------------------------------------- wrapping

    def _span_wrapper(self, name: str, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _count_wrapper(self, name: str, fn):
        counts, key = self.counts, f"{name}.calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _hooks(self, name: str, fn):
        """Extra counters read from the arguments and results of a call."""
        if name == "kernels.tabulate":

            default_spec = (fn.__defaults__ or (None,))[0]

            def tabulate(geom, family, t, *rest, **kw):
                spec = rest[0] if rest else kw.get("spec", default_spec)
                # this call's span was opened just before the hook ran
                self.tabulate_calls.append(
                    (len(self.span_name) - 1, (geom.q, geom.radius, family, t, spec))
                )
                return fn(geom, family, t, *rest, **kw)

            return tabulate
        if name == "kernels.heat_kernel_many":

            def heat_kernel_many(q, k, s, *rest, **kw):
                self.counts["kernels.heat_kernel_many.times"] += int(np.size(s))
                return fn(q, k, s, *rest, **kw)

            return heat_kernel_many
        if name == "geometry.enumerate_ball":

            def enumerate_ball(*args, **kw):
                out = fn(*args, **kw)
                self.counts["geometry.enumerate_ball.vertices"] += len(out)
                return out

            return enumerate_ball
        return fn

    def install(self) -> None:
        import treeheat  # noqa: F401  (loads every layer module)

        mods = {n: m for n, m in sys.modules.items() if n == "treeheat" or n.startswith("treeheat.")}
        plan = [(mod, fn, True) for mod, fn in SPANNED] + [(mod, fn, False) for mod, fn in COUNTED]
        for modname, fname, spanned in plan:
            # a function the program no longer has is reported as 0
            original = getattr(mods.get(f"treeheat.{modname}"), fname, None)
            if original is None:
                continue
            name = f"{modname}.{fname}"
            if spanned:
                # the hook runs inside the span so the span covers the call
                wrapped = self._span_wrapper(name, self._hooks(name, original))
            else:
                wrapped = self._count_wrapper(name, original)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self.installed.append((mod, attr, original))
        self.density_misses0 = _stable_density_misses()

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self.installed):
            setattr(mod, attr, original)
        self.installed.clear()

    # ---------------------------------------------------------- analysis

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics per round (totals over the traced rounds / rounds)."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        children = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
                children[p] += 1
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]

        built = rebuilds = values = 0
        seen: set = set()  # (q, radius, family, t, spec) built so far
        radii: dict = defaultdict(set)  # (q, family, t, spec) -> radii built
        for idx, (q, radius, family, t, spec) in self.tabulate_calls:
            key = (q, radius, family, t, spec)
            # a repeated key is a rebuild only if the call did work below it
            if key in seen and not children[idx]:
                continue
            seen.add(key)
            built += 1
            values += radius + 1
            other = radii[(q, family, t, spec)]
            if other - {radius}:
                rebuilds += 1
            other.add(radius)

        raw = {
            "kernels.tabulate.tables_built": built,
            "kernels.tabulate.radius_rebuilds": rebuilds,
            "kernels.values": values,
            "special.stable_density_evals": _stable_density_misses() - self.density_misses0,
            **self.counts,
        }
        for name in calls:
            raw[f"{name}.calls"] = calls[name]
            raw[f"{name}.self_s"] = self_s[name]
        out = {}
        for metric in METRIC_NAMES:
            if metric == "trace.overhead_s":
                continue
            out[metric] = raw.get(metric, 0) / rounds
        return out

    def save(self, path: str, round_s: list[float]) -> None:
        """Write every span as JSON: names, then [name, parent, start, end]
        rows, the tabulate keys by span and the traced round times."""
        rows = [
            [self.span_name[i], self.span_parent[i], self.span_start[i], self.span_end[i]]
            for i in range(len(self.span_name))
        ]
        tables = [
            [idx, q, radius, family.label(), t]
            for idx, (q, radius, family, t, _) in self.tabulate_calls
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": rows, "tabulate": tables,
                       "round_s": round_s}, fh)


def self_time_below(names, spans, root_name: str, keep) -> dict:
    """Self time per span name over the subtrees of the `root_name` spans
    whose index `keep` accepts; the README's stable-tabulation profile."""
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += dur[i]
    inside = [False] * n
    by_name: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):  # parents precede their children
        inside[i] = (names[s[0]] == root_name and keep(i)) or (s[1] >= 0 and inside[s[1]])
        if inside[i]:
            by_name[names[s[0]]] += dur[i] - child[i]
    return dict(by_name)
