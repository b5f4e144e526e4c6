import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treeheat.cli import (
    UsageError,
    atomic_write,
    main,
    parse_weight_expression,
    parse_word,
    quadrature_from_env,
)
from treeheat.kernels import comparator_Z


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_kernel_row_count(tmp_path, capsys):
    out = tmp_path / "k.csv"
    code = main(
        ["kernel", "--q", "2", "--family", "heat", "--t", "1", "--radius", "25",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "k,sphere_size,value,cumulative_mass"
    assert len(lines) == 2 + 26


@pytest.mark.parametrize(
    "args",
    [["--q", "3", "--family", "stable", "--alpha", "0.5", "--t", "3", "--radius", "12"],
     ["--q", "2", "--family", "heat", "--t", "0.5", "--radius", "2"],
     ["--q", "2", "--family", "heat", "--t", "800", "--radius", "6"]],
)
def test_kernel_tail_bound_covers_missing_mass(tmp_path, args):
    # small radii and mass far outside the ball get a table and a true bound
    out = tmp_path / "k.csv"
    assert main(["kernel", *args, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    tail_bound = float(lines[0].rsplit("tail_bound=", 1)[1])
    assert 1.0 - float(lines[-1].split(",")[3]) <= tail_bound <= 1.0


def test_kernel_q1_stable_matches_comparator_band(tmp_path):
    out = tmp_path / "p.csv"
    code = main(
        ["kernel", "--q", "1", "--family", "stable", "--alpha", "1", "--t", "0.5",
         "--radius", "40", "--out", str(out)]
    )
    assert code == 0
    rows = out.read_text().splitlines()[2:]
    ratios = []
    for row in rows:
        k, _, value, _ = row.split(",")
        k, value = int(k), float(value)
        comp = comparator_Z(1.0, 0.5, k)
        if comp > 0 and value > 0:
            ratios.append(value / comp)
    assert ratios
    assert max(ratios) / min(ratios) <= 100.0


def test_kernel_q1_stable_near_alpha_two(tmp_path):
    # near alpha = 2 the line's stable table is certified, not refused
    out = tmp_path / "p.csv"
    code = main(["kernel", "--q", "1", "--family", "stable", "--alpha", "1.9", "--t", "0.5",
                 "--radius", "20", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 2 + 21


def test_import_leaves_out_scipy_integrate():
    # no route needs scipy.integrate, whose import costs a cold CLI call
    # about 0.3 s
    code = ("import sys, treeheat, treeheat.cli; "
            "sys.exit('scipy.integrate' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_kernel_wave_half_equals_stable_one(tmp_path):
    args_common = ["--q", "2", "--t", "0.7", "--radius", "12"]
    wave = tmp_path / "w.csv"
    stab = tmp_path / "s.csv"
    assert main(["kernel", "--family", "wave", "--nu", "0.5", *args_common,
                 "--out", str(wave)]) == 0
    assert main(["kernel", "--family", "stable", "--alpha", "1", *args_common,
                 "--out", str(stab)]) == 0
    wv = [float(r.split(",")[2]) for r in wave.read_text().splitlines()[2:]]
    sv = [float(r.split(",")[2]) for r in stab.read_text().splitlines()[2:]]
    assert all(abs(a - b) <= 1e-9 * abs(b) for a, b in zip(wv, sv))


def test_apply_roundtrip(tmp_path):
    fin = tmp_path / "f.csv"
    fin.write_text("word,value\n,1.0\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    code = main(
        ["apply", "--q", "1", "--family", "heat", "--t", "1", "--radius", "3",
         "--input", str(fin), "--out", str(out)]
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "index,word,value"
    assert len(rows) == 1 + 7  # ball of radius 3 in Z
    from treeheat.kernels import heat_kernel

    first = rows[1].split(",")
    assert first[1] == ""
    assert float(first[2]) == pytest.approx(heat_kernel(1, 1.0, 0), rel=1e-12)


def test_apply_unknown_vertex_is_usage_error(tmp_path, capsys):
    fin = tmp_path / "f.csv"
    fin.write_text("word,value\n0.9,1.0\n", encoding="utf-8")
    code = main(
        ["apply", "--q", "2", "--family", "heat", "--t", "1", "--input", str(fin)]
    )
    assert code == 1
    assert "row 2" in capsys.readouterr().err


def test_maximal_subcommand(tmp_path):
    fin = tmp_path / "f.csv"
    fin.write_text(",1.0\n", encoding="utf-8")
    out = tmp_path / "m.csv"
    code = main(
        ["maximal", "--q", "2", "--family", "heat", "--R", "0.5", "--points", "8",
         "--rounds", "0", "--radius", "1", "--input", str(fin), "--out", str(out)]
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "index,word,value,argmax_t"
    assert len(rows) == 1 + 4
    val, argt = (float(x) for x in rows[1].split(",")[2:])
    assert 0.0 < val <= 1.0
    assert 0.0 < argt < 0.5


def test_weights_subcommand(tmp_path, capsys):
    code, out = run(
        ["weights", "--q", "2", "--p", "2", "--condition", "thm1-i", "--alpha", "1",
         "--weight", "1"],
        capsys,
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["verdict"] == "admissible"
    code, out = run(
        ["weights", "--q", "2", "--p", "2", "--condition", "thm1-i", "--alpha", "1",
         "--weight", "q^(-2*k)"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "not-admissible"


@pytest.mark.parametrize("weight", ["1e999", "q^(1e999*k)"])
def test_weights_non_finite_closed_form_exits_one(capsys, weight):
    code = main(["weights", "--q", "2", "--p", "2", "--condition", "thm1-i", "--alpha", "1",
                 "--weight", weight, "--radius", "5"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_weights_non_finite_csv_exits_one(tmp_path, capsys):
    fin = tmp_path / "w.csv"
    fin.write_text("value\n1\ninf\n1\n", encoding="utf-8")
    code = main(["weights", "--q", "2", "--p", "2", "--condition", "thm1-i", "--alpha", "1",
                 "--weight-csv", str(fin), "--radius", "2"])
    assert code == 1
    assert "finite" in capsys.readouterr().err


def test_weights_off_root_sup_at_default_radius(capsys):
    code, out = run(
        ["weights", "--q", "2", "--p", "1", "--condition", "thm1-i", "--alpha", "1",
         "--weight", "q^(-1.5*k)", "--base-vertex", "1"],
        capsys,
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["verdict"] == "not-admissible"
    assert rec["base_vertex"] == [1]


def test_verify_single_check(tmp_path, capsys):
    code, out = run(["verify", "--check", "flow-conjugation"], capsys)
    assert code == 0
    parsed = json.loads(out)
    assert len(parsed) == 1
    assert parsed[0]["check_id"] == "flow-conjugation"
    assert parsed[0]["passed"] is True


def test_verify_repeat_bitwise_identical(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert main(["verify", "--check", "Z-profile", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_flow_subcommand(capsys):
    code, out = run(["flow", "--q", "4"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["b"] == pytest.approx((math.sqrt(4) - 1) ** 2 / 5.0)
    assert rec["order"] >= 1.8


def test_usage_errors_exit_one(capsys):
    assert main(["kernel", "--q", "2", "--family", "stable", "--t", "1"]) == 1
    assert "alpha" in capsys.readouterr().err
    assert main(["verify"]) == 1
    assert main(["verify", "--check", "bogus"]) == 1
    assert main(["kernel", "--q", "2", "--t", "1"]) == 1  # missing --family


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_kernel_non_finite_time_exits_one(tmp_path, capsys, bad):
    out = tmp_path / "k.csv"
    code = main(
        ["kernel", "--q", "2", "--family", "heat", "--t", bad, "--radius", "6",
         "--out", str(out)]
    )
    assert code == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "rows,message",
    [("0,nan\n", "row 2: value nan is not finite"),
     ("0,inf\n", "row 2: value inf is not finite"),
     ("0,-inf\n", "row 2: value -inf is not finite"),
     ("0,1.0\n0,2.0\n", "row 3: vertex 0 repeated")],
)
@pytest.mark.parametrize("command", ["apply", "maximal"])
def test_bad_function_rows_exit_one(tmp_path, capsys, command, rows, message):
    # a non-finite value or a repeated vertex is refused, not computed with
    fin = tmp_path / "f.csv"
    fin.write_text("word,value\n" + rows, encoding="utf-8")
    out = tmp_path / "out.csv"
    args = [command, "--q", "2", "--family", "heat", "--radius", "1",
            "--input", str(fin), "--out", str(out)]
    args += ["--t", "0.5"] if command == "apply" else ["--R", "0.5", "--points", "8"]
    assert main(args) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_numerical_failure_exit_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TREEHEAT_MAX_SUBDIVISIONS", "1")
    monkeypatch.setenv("TREEHEAT_ABS_TOL", "1e-300")
    monkeypatch.setenv("TREEHEAT_REL_TOL", "1e-16")
    code = main(
        ["kernel", "--q", "2", "--family", "stable", "--alpha", "0.7", "--t", "0.5",
         "--radius", "6", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()  # nothing partial was written


def test_quadrature_env_overrides():
    spec = quadrature_from_env(
        {"TREEHEAT_ABS_TOL": "1e-6", "TREEHEAT_REL_TOL": "1e-5",
         "TREEHEAT_MAX_SUBDIVISIONS": "77"}
    )
    assert spec.abs_tol == 1e-6
    assert spec.rel_tol == 1e-5


def test_atomic_write_no_temp_left(tmp_path):
    target = tmp_path / "a.txt"
    atomic_write(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    assert os.listdir(tmp_path) == ["a.txt"]


def test_parse_weight_expression():
    assert parse_weight_expression("2.5") == (2.5, 0.0, 0.0)
    assert parse_weight_expression("q^(-1*k)") == (1.0, -1.0, 0.0)
    assert parse_weight_expression("(1+k)^-3") == (1.0, 0.0, -3.0)
    c, a, b = parse_weight_expression("2*q^(-2*k)*(1+k)^(1.5)")
    assert (c, a, b) == (2.0, -2.0, 1.5)
    with pytest.raises(UsageError):
        parse_weight_expression("sin(k)")
    with pytest.raises(UsageError):
        parse_weight_expression("")
    with pytest.raises(UsageError):
        parse_weight_expression("-1")  # weights must be positive


def test_parse_word():
    assert parse_word("", 2) == ()
    assert parse_word("0.1.0", 2) == (0, 1, 0)
    with pytest.raises(UsageError):
        parse_word("0.5", 2)
    with pytest.raises(UsageError):
        parse_word("x.y", 2)


def test_cold_processes_agree_bitwise(tmp_path):
    # two fresh interpreters with different hash seeds write the same bytes
    src = Path(__file__).resolve().parent.parent / "src"
    fin = tmp_path / "f.csv"
    fin.write_text("word,value\n,1.0\n0,-0.5\n1.1,0.25\n2.0.1,-0.75\n", encoding="utf-8")
    for seed in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if not k.startswith("TREEHEAT_")}
        env.update(PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        out = tmp_path / seed
        out.mkdir()
        for argv in (
            ["verify", "--suite", "all", "--out", str(out / "verify.json")],
            ["maximal", "--q", "2", "--family", "stable", "--alpha", "1", "--R", "1",
             "--radius", "4", "--input", str(fin), "--out", str(out / "maximal.csv")],
        ):
            proc = subprocess.run([sys.executable, "-m", "treeheat.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
    for name in ("verify.json", "maximal.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
