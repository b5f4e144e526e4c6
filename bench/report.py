"""Regenerate the reference figures of bench/README.md.

    python3 bench/report.py [--seed 1] [--seconds 5]

For every workload it runs the benchmark twice (untraced, then traced) and
prints Markdown: the end-to-end metrics, the per-layer metrics, the layer
profile of stable tabulation on kernel-tables (from the saved spans), and
the line count of src/treeheat.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import OUT_DIR, WORKLOADS  # noqa: E402
from tracer import self_time_below  # noqa: E402

KERNEL_LAYERS = ("kernels", "quadrature", "special")


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def fmt(value: float) -> str:
    return f"{value:.4g}" if isinstance(value, float) and value != int(value) else f"{int(value)}"


def load_trace(workload: str, seed: int) -> dict:
    with open(os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def kernel_share(trace: dict) -> tuple[float, float]:
    """Self time of the kernel layers' spans and the traced rounds' wall time."""
    names, spans = trace["names"], trace["spans"]
    child = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += s[3] - s[2]
    kern = sum(s[3] - s[2] - child[i] for i, s in enumerate(spans)
               if names[s[0]].split(".")[0] in KERNEL_LAYERS)
    return kern, sum(trace["round_s"])


def stable_profile(trace: dict) -> tuple[float, dict]:
    stable = {idx for idx, q, _, label, _ in trace["tabulate"] if q >= 2 and label.startswith("stable")}
    spans = trace["spans"]
    total = sum(s[3] - s[2] for i, s in enumerate(spans) if i in stable)
    return total, self_time_below(trace["names"], spans, "kernels.tabulate", stable.__contains__)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5)
    args = ap.parse_args()

    plain = {w: bench(w, args.seed, args.seconds, 0) for w in WORKLOADS}
    traced = {w: bench(w, args.seed, args.seconds, 1) for w in WORKLOADS}

    print(f"Seed {args.seed}, --seconds {args.seconds:g}.\n")
    print("| workload | setup_s | wall_s | peak_rss_mb | attempted | failed |")
    print("| --- | --- | --- | --- | --- | --- |")
    for w, r in plain.items():
        m = r["metrics"]
        print(f"| {w} | {m['setup_s']['value']:.3f} | {m['wall_s']['value']:.2f} | "
              f"{m['peak_rss_mb']['value']:.1f} | {r['attempted']} | {r['failed']} |")

    print("\nPer-layer metrics, per round of the traced run (zero rows left out):\n")
    print("| metric | " + " | ".join(WORKLOADS) + " |")
    print("| --- |" + " --- |" * len(WORKLOADS))
    names = list(traced[WORKLOADS[0]]["metrics"])
    for name in names:
        vals = [traced[w]["metrics"][name]["value"] for w in WORKLOADS]
        if any(vals):
            print(f"| `{name}` | " + " | ".join(fmt(v) for v in vals) + " |")

    print("\nSelf time of the kernel layers (kernels, quadrature, special) against the")
    print("wall time of the traced rounds:\n")
    print("| workload | kernel layers self_s | traced rounds wall_s | share |")
    print("| --- | --- | --- | --- |")
    for w in WORKLOADS:
        kern, wall = kernel_share(load_trace(w, args.seed))
        print(f"| {w} | {kern:.2f} | {wall:.2f} | {kern / wall:.0%} |")

    total, by_name = stable_profile(load_trace("kernel-tables", args.seed))
    print(f"\nLayer profile of the q >= 2 stable tables on kernel-tables "
          f"({total:.2f} s in `kernels.tabulate`):\n")
    print("| span | self_s | share |")
    print("| --- | --- | --- |")
    for name, s in sorted(by_name.items(), key=lambda kv: -kv[1]):
        print(f"| `{name}` | {s:.3f} | {s / total:.0%} |")

    lines = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "treeheat", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    print(f"\n`src/treeheat`: {lines} lines.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
