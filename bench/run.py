"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/treeheat`. It warms the file
cache with one untimed import, then starts worker processes one after the
other, each with the BLAS and OpenMP pools pinned to one thread: the
measured worker, with a set-up-only worker before and after it for more
`setup_s` samples. With `--trace 1` a traced worker follows on the same
seed. The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("kernel-tables", "ball-maximal", "weight-verdicts", "verify-light")
TIMEOUT_S = 170.0  # every worker of one run together
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("TREEHEAT_ABS_TOL", "TREEHEAT_REL_TOL", "TREEHEAT_MAX_SUBDIVISIONS"):
        env.pop(var, None)  # the CLI reads these; the benchmark uses the defaults
    return env


class Runner:
    def __init__(self, args, workdir: str):
        self.args = args
        self.workdir = workdir
        self.env = worker_env()
        self.deadline = time.monotonic() + TIMEOUT_S

    def _run(self, cmd: list[str]) -> None:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark run exceeded its time budget")
        # subprocess.run kills the child and waits for it on timeout; the
        # child's output goes to stderr so that stdout ends with the result
        subprocess.run(cmd, cwd=ROOT, env=self.env, check=True, timeout=remaining,
                       stdout=sys.stderr)

    def warm_import(self) -> None:
        self._run([sys.executable, "-c", "import treeheat, treeheat.cli"])

    def worker(self, tag: str, trace: int = 0, setup_only: bool = False, spans=None) -> dict:
        out = os.path.join(self.workdir, f"{tag}.json")
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds),
            "--trace", str(trace),
            "--workdir", self.workdir,
            "--out", out,
        ]
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", spans]
        cmd += ["--t0", repr(time.monotonic())]
        self._run(cmd)
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "treeheat", "__init__.py")):
        print(f"no treeheat sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(args, workdir)
        runner.warm_import()
        # set-up samples before and after the measured worker, so that their
        # median spans the run rather than one moment of the machine's load
        setups = [runner.worker("setup-before", setup_only=True)["setup_s"]]
        res = runner.worker("main")
        setups.append(res["setup_s"])
        setups.append(runner.worker("setup-after", setup_only=True)["setup_s"])
        traced = None
        if args.trace:
            spans = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
            traced = runner.worker("traced", trace=1, spans=spans)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, TimeoutError, OSError) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("round_s", res["round_s"], file=sys.stderr)
    print("round_s at the reference speed", res["ref_s"], file=sys.stderr)
    if args.trace:
        metrics = {name: metric(v, "s" if name.endswith("_s") else "count")
                   for name, v in traced["layers"].items()}
        # both wall times as measured: the traced worker takes no speed samples
        metrics["trace.overhead_s"] = metric(traced["raw_wall_s"] - res["raw_wall_s"], "s")
        res = traced
        print("traced round_s", res["round_s"], file=sys.stderr)
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(res["wall_s"], "s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        }
    for line in res["failures"]:
        print("failed:", line, file=sys.stderr)
    # operations that failed are counted, not judged; `correct` is false only
    # when one other than the known fault failed
    print(json.dumps({
        "correct": res["unexpected_failures"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
