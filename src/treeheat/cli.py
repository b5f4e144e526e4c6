"""Command-line front end.

Subcommands: kernel, apply, maximal, weights, verify, flow.

Exit codes: 0 success (and, for verify, all checks passed); 1 usage error;
2 numerical failure; 3 verification failure. Output files are written
atomically (temp file in the destination directory, then rename), as CSV
(comma separator, '.' decimal point, scientific notation with 17 significant
digits, LF, UTF-8) or JSON.

Environment overrides for the default tolerances: TREEHEAT_ABS_TOL,
TREEHEAT_REL_TOL.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile

from .errors import NumericalError
from .flow import FlowStructure, verify_flow_conjugation
from .geometry import ROOT, TreeGeometry, Word, enumerate_ball, validate_word
from .kernels import KernelFamily, tabulate, write_kernel_csv
from .operators import BallOperator, MaximalSpec, TreeFunction
from .quadrature import QuadratureSpec
from .verify import ALL_CHECKS, CHECK_PARAMETERS, reports_to_json, run_suite
from .weights import WeightSpec, check_thm1_i, check_thm2_i, check_thm3_g

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def quadrature_from_env(environ=None) -> QuadratureSpec:
    env = os.environ if environ is None else environ
    kwargs = {}
    if "TREEHEAT_ABS_TOL" in env:
        kwargs["abs_tol"] = float(env["TREEHEAT_ABS_TOL"])
    if "TREEHEAT_REL_TOL" in env:
        kwargs["rel_tol"] = float(env["TREEHEAT_REL_TOL"])
    return QuadratureSpec(**kwargs)


def atomic_write(path: str, content: str) -> None:
    """Write text atomically: temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".treeheat-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(out_path: str | None, content: str) -> None:
    if out_path:
        atomic_write(out_path, content)
    else:
        sys.stdout.write(content)


def parse_word(text: str, q: int) -> Word:
    """Vertex words are dot-separated edge labels; empty string is the root."""
    text = text.strip()
    if not text:
        return ROOT
    try:
        return validate_word(text.split("."), q)
    except ValueError as exc:
        raise UsageError(f"bad vertex word {text!r}: {exc}") from exc


def format_word(word: Word) -> str:
    return ".".join(str(c) for c in word)


_FACTOR_CONST = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_FACTOR_Q = re.compile(r"^q\^\(?([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\*?k\)?$")
_FACTOR_POLY = re.compile(
    r"^\(1\+k\)\^\(?([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\)?$"
)


def _split_factors(expr: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in expr:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "*" and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_weight_expression(expr: str) -> tuple[float, float, float]:
    """Grammar: '*'-separated products of c, q^(a*k), (1+k)^b.

    Returns (c, a, b) for the closed form c * q^(a k) * (1+k)^b.
    """
    c, a, b = 1.0, 0.0, 0.0
    expr = expr.replace(" ", "")
    if not expr:
        raise UsageError("empty weight expression")
    for factor in _split_factors(expr):
        if _FACTOR_CONST.match(factor):
            c *= float(factor)
            continue
        m = _FACTOR_Q.match(factor)
        if m:
            a += float(m.group(1))
            continue
        m = _FACTOR_POLY.match(factor)
        if m:
            b += float(m.group(1))
            continue
        raise UsageError(
            f"bad weight factor {factor!r}: expected a constant, q^(a*k), or (1+k)^b"
        )
    if c <= 0:
        raise UsageError("weight constant must be positive")
    return c, a, b


def _family_from_args(args) -> KernelFamily:
    if args.family == "heat":
        return KernelFamily.heat()
    if args.family == "stable":
        if args.alpha is None:
            raise UsageError("--family stable requires --alpha")
        return KernelFamily.stable(args.alpha)
    if args.family == "wave":
        if args.nu is None:
            raise UsageError("--family wave requires --nu")
        return KernelFamily.wave(args.nu)
    raise UsageError(f"unknown family {args.family!r}")


def read_function_csv(path: str, geom: TreeGeometry) -> TreeFunction:
    """Input CSV rows: vertex-word,value (an optional 'word,value' header)."""
    table = {}
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if i == 0 and line.lower().replace(" ", "") in ("word,value", "vertex,value"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise UsageError(f"{path}: row {i + 1}: expected 'word,value'")
            try:
                word = parse_word(parts[0], geom.q)
                value = float(parts[1])
            except (UsageError, ValueError) as exc:
                raise UsageError(f"{path}: row {i + 1}: {exc}") from exc
            if len(word) > geom.radius:
                raise UsageError(
                    f"{path}: row {i + 1}: vertex outside the radius-{geom.radius} ball"
                )
            if not math.isfinite(value):
                raise UsageError(f"{path}: row {i + 1}: value {parts[1].strip()} is not finite")
            if word in table:
                raise UsageError(f"{path}: row {i + 1}: vertex {parts[0].strip()} repeated")
            table[word] = value
    if not table:
        raise UsageError(f"{path}: no data rows")
    return TreeFunction.from_table(geom, table)


def cmd_kernel(args, spec) -> int:
    geom = TreeGeometry(args.q, args.radius)
    kern = tabulate(geom, _family_from_args(args), args.t, spec)
    import io

    buf = io.StringIO()
    write_kernel_csv(kern, buf)
    _emit(args.out, buf.getvalue())
    return EXIT_OK


def _write_ball(args, header: str, xs, *columns) -> int:
    """One CSV row per ball vertex: index, word, then each column's value."""
    lines = [header]
    for i, (x, *vals) in enumerate(zip(xs, *columns)):
        lines.append(",".join([str(i), format_word(x), *(f"{v:.16e}" for v in vals)]))
    _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_apply(args, spec) -> int:
    geom = TreeGeometry(args.q, args.radius)
    f = read_function_csv(args.input, geom)
    xs = enumerate_ball(geom)
    values = BallOperator(_family_from_args(args), f, xs, spec).apply(args.t)
    return _write_ball(args, "index,word,value", xs, values)


def cmd_maximal(args, spec) -> int:
    geom = TreeGeometry(args.q, args.radius)
    f = read_function_csv(args.input, geom)
    mspec = MaximalSpec.default(args.R, args.points, args.rounds)
    xs = enumerate_ball(geom)
    values, times = BallOperator(_family_from_args(args), f, xs, spec).maximal(mspec)
    return _write_ball(args, "index,word,value,argmax_t", xs, values, times)


def cmd_weights(args, spec) -> int:
    geom = TreeGeometry(args.q, args.radius)
    if args.weight is not None:
        c, a, b = parse_weight_expression(args.weight)
        u = WeightSpec.from_closed_form(geom, args.p, c, a, b)
    elif args.weight_csv is not None:
        values = []
        with open(args.weight_csv, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#") or line.lower() == "value":
                    continue
                values.append(float(line.split(",")[-1]))
        u = WeightSpec.from_radial(geom, args.p, values)
    else:
        raise UsageError("one of --weight or --weight-csv is required")
    x = parse_word(args.base_vertex, args.q)
    if args.condition == "thm1-i":
        if args.alpha is None:
            raise UsageError("condition thm1-i requires --alpha")
        verdict = check_thm1_i(u, args.alpha, x)
    elif args.condition == "thm2-i":
        if args.nu is None:
            raise UsageError("condition thm2-i requires --nu")
        verdict = check_thm2_i(u, args.nu, x)
    elif args.condition == "thm3-g":
        if args.R is None:
            raise UsageError("condition thm3-g requires --R")
        verdict = check_thm3_g(u, args.R, x, spec)
    else:
        raise UsageError(f"unknown condition {args.condition!r}")
    _emit(args.out, json.dumps(verdict.to_record(), sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def cmd_verify(args, spec) -> int:
    if args.check:
        ids = [args.check]
        if args.check not in ALL_CHECKS:
            raise UsageError(
                f"unknown check {args.check!r}; known: {', '.join(ALL_CHECKS)}"
            )
    elif args.suite == "all":
        ids = list(ALL_CHECKS)
    else:
        raise UsageError("use --suite all or --check <id>")
    config = {}
    if args.q is not None:
        given = {"qs": (args.q,), "q": args.q}
        for cid in ids:
            config[cid] = {k: v for k, v in given.items() if k in CHECK_PARAMETERS[cid]}
    reports = run_suite(ids, config, spec)
    _emit(args.out, reports_to_json(reports))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFICATION


def cmd_flow(args, spec) -> int:
    geom = TreeGeometry(args.q, args.radius)
    fs = FlowStructure(geom)
    x = parse_word(args.x, args.q)
    f = TreeFunction.delta(geom)
    residuals = {
        h: verify_flow_conjugation(fs, args.t, f, x, h, spec)
        for h in (args.h, args.h / 2.0)
    }
    hs = sorted(residuals, reverse=True)
    r0, r1 = abs(residuals[hs[0]]), abs(residuals[hs[1]])
    order = math.log(r0 / r1) / math.log(hs[0] / hs[1]) if r1 > 0 else math.inf
    record = {
        "q": args.q,
        "b": fs.b,
        "t": args.t,
        "x": format_word(x),
        "residuals": {f"{h:.17g}": residuals[h] for h in hs},
        "order": order if math.isfinite(order) else "inf",
    }
    _emit(args.out, json.dumps(record, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="treeheat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_family(p):
        p.add_argument("--family", required=True, choices=("heat", "stable", "wave"))
        p.add_argument("--alpha", type=float)
        p.add_argument("--nu", type=float)

    p = sub.add_parser("kernel", help="tabulate a radial kernel to CSV")
    p.add_argument("--q", type=int, required=True)
    add_family(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--radius", type=int, default=25)
    p.add_argument("--out")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("apply", help="apply a kernel to a function CSV")
    p.add_argument("--q", type=int, required=True)
    add_family(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--radius", type=int, default=8, help="output ball radius")
    p.add_argument("--input", required=True, help="CSV of vertex-word,value")
    p.add_argument("--out")
    p.set_defaults(func=cmd_apply)

    text = ("certified lower bound for sup_{0<t<R} |K_t f| at every ball vertex "
            "(grid plus golden section), with its witness time")
    p = sub.add_parser("maximal", help=text, description=text)
    p.add_argument("--q", type=int, required=True)
    add_family(p)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--radius", type=int, default=4, help="output ball radius")
    p.add_argument("--input", required=True, help="CSV of vertex-word,value")
    p.add_argument("--out")
    p.set_defaults(func=cmd_maximal)

    p = sub.add_parser("weights", help="weight admissibility verdict as JSON")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--condition", required=True, choices=("thm1-i", "thm2-i", "thm3-g"))
    p.add_argument("--alpha", type=float)
    p.add_argument("--nu", type=float)
    p.add_argument("--R", type=float)
    p.add_argument("--weight", help="closed form, e.g. '2*q^(-1*k)*(1+k)^-3'")
    p.add_argument("--weight-csv", dest="weight_csv", help="radial values CSV")
    p.add_argument("--radius", type=int, default=200)
    p.add_argument("--base-vertex", dest="base_vertex", default="")
    p.add_argument("--out")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("verify", help="run verification checks, emit JSON reports")
    p.add_argument("--suite", choices=("all",))
    p.add_argument("--check")
    p.add_argument("--q", type=int, help="restrict checks to a single q")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("flow", help="flow conjugation residual as JSON")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--h", type=float, default=1e-2)
    p.add_argument("--x", default="", help="base vertex word")
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(func=cmd_flow)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        spec = quadrature_from_env()
        return args.func(args, spec)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
