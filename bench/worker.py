"""One worker process of the benchmark: set up, run timed rounds, check.

Started by run.py with `src/` on PYTHONPATH and the BLAS and OpenMP pools
pinned to one thread. It imports treeheat, builds the first round's inputs
(the set-up, timed from the worker's start), then runs whole rounds of the
workload's operations for --seconds, each round with fresh inputs. Untraced
rounds carry host speed samples (probe.py), which turn each round's wall
time into its wall time at the reference speed. Each round's outputs are
checked after the round, outside the timed window, and then released. The
result goes to --out as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at the start")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="where the traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import treeheat
    import treeheat.cli  # noqa: F401  (the CLI module is not loaded by the package)

    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.realpath(treeheat.__file__).startswith(src + os.sep):
        raise SystemExit(f"treeheat imported from {treeheat.__file__}, not from {src}")

    import workloads

    ctx = Context(treeheat, args.workdir)
    build = workloads.WORKLOADS[args.workload]
    ops = build(treeheat, ctx, args.seed, 0)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        return write(args.out, {"setup_s": setup_s})

    # the traced run takes no speed samples: they would land in the self
    # time of whichever traced function they interrupt
    tracer = probe = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        from probe import SpeedProbe

        probe = SpeedProbe()

    round_s: list[float] = []  # wall time of the operations
    ref_s: list[float] = []  # the same at the reference host speed
    tally = Tally()
    peak_rss_mb = None
    while True:
        gc.collect()  # every round starts without the garbage of the last
        outputs = []
        t = time.perf_counter()
        if probe:
            probe.start()
        for op in ops:
            try:
                outputs.append(op.call())
            except Exception as exc:  # a failed operation, counted below
                outputs.append(exc)
        if probe:
            probe.stop()
        elapsed = time.perf_counter() - t
        spent, scale = (probe.spent_s, probe.scale()) if probe else (0.0, 1.0)
        round_s.append(elapsed - spent)
        ref_s.append(round_s[-1] * scale)
        if probe:
            print(f"round {len(round_s) - 1}: {len(probe.samples)} speed samples, "
                  f"scale {scale:.4f}", file=sys.stderr)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tally.check(len(round_s) - 1, ops, outputs)
        del outputs
        # rounds go on until the timed ones reach --seconds; checks and input
        # building fall outside
        if sum(round_s) >= args.seconds:
            break
        ops = build(treeheat, ctx, args.seed, len(round_s))

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics(len(round_s))
        if args.spans:
            tracer.save(args.spans, round_s)

    # wall_s is the first round, the one every workload runs: later rounds
    # find the program's caches and the allocator warm, and how many of them
    # fit in --seconds depends on the speed being measured
    return write(args.out, {
        "setup_s": setup_s,
        "wall_s": ref_s[0],
        "raw_wall_s": round_s[0],
        "round_s": round_s,
        "ref_s": ref_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "unexpected_failures": tally.unexpected,
        "failures": tally.failures,
        "layers": layers,
    })


class Tally:
    """Attempted and failed operations over the rounds of a run."""

    def __init__(self):
        self.attempted = self.failed = self.unexpected = 0
        self.failures: list[str] = []

    def check(self, rnd: int, ops, outputs) -> None:
        for op, out in zip(ops, outputs):
            self.attempted += 1
            if isinstance(out, Exception):
                problem = f"raised {type(out).__name__}: {out}"
            else:
                try:
                    problem = op.check(out)
                except Exception as exc:  # output the check cannot read
                    problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                self.failed += 1
                self.unexpected += not op.known_fault
                self.failures.append(f"round {rnd}: {op.name}: {problem}")


class Context:
    """State shared by the rounds of one worker: tolerances, oracle caches
    and the directory for CSV inputs and outputs."""

    def __init__(self, th, workdir: str):
        import workloads

        self.tol = workloads.Tolerance(th)
        self.oracles = workloads.Oracles()
        self.workdir = workdir


def write(path: str, record: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
