import json
import math
import os
import subprocess
import sys
import time

import pytest

import nterm
from nterm.cli import _atomic_write, _parse_n_list, build_parser, main
from nterm.errors import ParseError
from nterm.sequences import Sequence


@pytest.fixture
def seqfile(tmp_path):
    def make(name, entries, kind="integer"):
        path = tmp_path / name
        Sequence(entries, kind).to_csv(path)
        return str(path)

    return make


def test_parse_n_list():
    assert _parse_n_list("1,2,3") == [1, 2, 3]
    assert _parse_n_list("1..5") == [1, 2, 3, 4, 5]
    # ellipsis is geometric when the leading ratio is an exact integer >= 2
    assert _parse_n_list("2,4,...,32") == [2, 4, 8, 16, 32]
    assert _parse_n_list("2,4,...,1024") == [2**k for k in range(1, 11)]
    assert _parse_n_list("5,8,...,17") == [5, 8, 11, 14, 17]
    for bad in ("0,1,2", "-1..3", "2,2,...,8", "4,2,...,1"):
        with pytest.raises(ParseError):
            _parse_n_list(bad)


def test_atomic_write_removes_its_temp_file_on_error(tmp_path):
    target = tmp_path / "out.csv"
    with pytest.raises(TypeError):
        _atomic_write(str(target), 1.5)  # write() takes only str
    assert os.listdir(tmp_path) == []
    target.write_text("old\n")
    with pytest.raises(TypeError):
        _atomic_write(str(target), None)
    assert os.listdir(tmp_path) == ["out.csv"] and target.read_text() == "old\n"
    _atomic_write(str(target), "new\n")
    assert os.listdir(tmp_path) == ["out.csv"] and target.read_text() == "new\n"


def test_parser_is_built_once_and_parses_each_call_afresh(seqfile, capsys):
    assert build_parser() is build_parser()
    path = seqfile("s.csv", {1: 3.0, 2: 4.0})
    first = build_parser().parse_args(["--seed", "5", "experiment", "stechkin", "--set", "a=1"])
    second = build_parser().parse_args(["experiment", "stechkin"])
    assert (first.seed, first.set) == (5, ["a=1"])
    assert (second.seed, second.set) == (0, None)
    assert main(["norm", "lp:2", path]) == 0
    assert main(["norm", "lp:1", path]) == 0
    assert capsys.readouterr().out.split() == ["5.0", "7.0"]


def test_norm_lp(seqfile, capsys):
    path = seqfile("s.csv", {1: 3.0, 2: 4.0})
    assert main(["norm", "lp:2", path]) == 0
    assert float(capsys.readouterr().out.strip()) == 5.0


def test_norm_bmo_tree(tmp_path, capsys):
    from nterm.indices import interval

    tree = Sequence({interval(j, k): 1.0 for j in range(4) for k in range(2**j)},
                    "interval")
    path = tmp_path / "tree.csv"
    tree.to_csv(path)
    assert main(["norm", "bmo:2", str(path)]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(2.0)


def test_norm_lorentz_seq(seqfile, capsys):
    path = seqfile("ind4.csv", {k: 1.0 for k in range(1, 5)})
    assert main(["norm", "lorentz-seq", "pow:0.5,0", "inf", path]) == 0
    assert float(capsys.readouterr().out.strip()) == 2.0


def test_profile_output(seqfile, capsys):
    path = seqfile("t.csv", {1: 3.0, 2: 2.0, 3: 1.0})
    assert main(["profile", "lp:2", path, "sigma", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "N,value,exact_flag"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == pytest.approx([math.sqrt(14), math.sqrt(5), 1.0, 0.0])


def test_profile_e1(seqfile, capsys):
    path = seqfile("e1.csv", {1: 1.0})
    assert main(["profile", "lp:2", path, "sigma"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [float(l.split(",")[1]) for l in lines[1:]] == [1.0, 0.0]


def test_exit_codes(seqfile, tmp_path, capsys):
    path = seqfile("s.csv", {1: 1.0, 2: 2.0})
    assert main(["norm", "xx:2", path]) == 2
    big = seqfile("big.csv", {k: float(k) for k in range(1, 40)})
    # cap exceeded: feasibility exit code, distinct from parse errors
    assert main(["profile", "lp:2", big, "sigma", "--method", "exact"]) == 3
    assert main(["democracy", "--space", "lp:2", "--N", "10", "--strategy",
                 "exhaustive"]) == 3
    bad = tmp_path / "bad.csv"
    bad.write_text("index,coefficient\n1,abc\n")
    assert main(["norm", "lp:2", str(bad)]) == 2


def test_out_of_range_requests_exit_with_their_cause(seqfile, tmp_path, capsys):
    # a 3-entry table weight read past its end, N beyond the 64-integer
    # universe, and a nonpositive alpha: exit 3 (infeasible) or 2 (parse error)
    w3 = tmp_path / "w3.txt"
    w3.write_text("1.0\n2.0\n3.0\n")
    table = f"table:{w3}"
    s5 = seqfile("s5.csv", {k: 1.0 / k for k in range(1, 6)})
    cases = [
        (3, ["norm", "lorentz-seq", table, "1", s5]),
        (3, ["experiment", "bernstein", "--space", "lp:2", "--weight", table, "--N", "1..8"]),
        (3, ["experiment", "embedding", "--space", "lp:2", "--weight", table,
             "--support", "8"]),
        (3, ["democracy", "--space", "lp:2", "--N", "65", "--strategy", "exhaustive"]),
        (2, ["experiment", "nonlinear", "--p", "2", "--q", "1", "--alpha", "0",
             "--K", "1000"]),
        (2, ["experiment", "nonlinear", "--p", "2", "--q", "1", "--alpha", "-0.5",
             "--K", "1000"]),
        (2, ["experiment", "prop71", "--space", "lp:2", "--alpha", "-1"]),
        (2, ["experiment", "bernstein", "--space", "lp:2", "--alpha", "-0.5"]),
        (2, ["experiment", "jackson", "--space", "lp:2", "--alpha", "-0.5"]),
    ]
    for code, argv in cases:
        assert main(argv) == code, argv
    err = capsys.readouterr().err
    assert err.count("infeasible:") == 4 and err.count("alpha must be positive") == 5


def test_aspace_command(seqfile, capsys):
    path = seqfile("s.csv", {1: 1.0, 2: 1.0})
    assert main(["aspace", "lp:1", path, "--alpha", "1", "--q", "inf"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(3.0)


def test_democracy_command(capsys):
    assert main(["democracy", "--space", "lp:2", "--N", "1..4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "N,h_ell,h_r,method,bound_direction"
    row = lines[2].split(",")
    assert float(row[1]) == pytest.approx(math.sqrt(2))


def test_democracy_auto_falls_back_when_the_evaluator_cannot_be_built(capsys):
    # C(20481, 1) fits the exhaustive cap, but the dense incidence of hyp:4,2's
    # 20,481 rectangles does not fit the batch engine: auto gives structured
    # rows, and an explicit exhaustive strategy still exits 3
    assert main(["democracy", "--space", "hyp:4,2", "--N", "1,2"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert [(row[0], row[3]) for row in rows] == [("1", "structured"), ("2", "structured")]
    assert float(rows[0][1]) == float(rows[0][2]) == 1.0
    assert main(["democracy", "--space", "hyp:4,2", "--N", "1", "--strategy",
                 "exhaustive"]) == 3
    assert "incidence too large" in capsys.readouterr().err


def test_democracy_bmo_beyond_float_measures(capsys):
    # families spanning 1100 levels, where 2^-1100 is 0.0 as a float
    assert main(["democracy", "--space", "bmo:2", "--N", "1100",
                 "--strategy", "structured"]) == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert float(row[1]) == 1.0
    assert float(row[2]) == pytest.approx(math.sqrt(math.log2(1100)), rel=0.01)


def test_outputs_and_manifest_determinism(tmp_path, capsys):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        assert main(["--out-dir", out, "--seed", "3", "democracy",
                     "--space", "lpq:2,4", "--N", "2,4,8"]) == 0
        capsys.readouterr()
    csv1 = open(os.path.join(out1, "democracy.csv")).read()
    csv2 = open(os.path.join(out2, "democracy.csv")).read()
    assert csv1 == csv2  # byte-identical rerun
    man = json.load(open(os.path.join(out1, "democracy_manifest.json")))
    assert man["seed"] == 3
    assert man["params"]["space"] == "lpq:2,4"
    assert "manifest_hash" in man
    summary = json.load(open(os.path.join(out1, "democracy_summary.json")))
    assert summary["manifest_hash"] == man["manifest_hash"]


def test_experiment_unknown_name(capsys):
    assert main(["experiment", "frobnicate"]) == 2


def test_experiment_stechkin(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert main(["--out-dir", out, "experiment", "stechkin", "--alpha", "0.5",
                 "--q", "1", "--trials", "10", "--support", "16"]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["band"] <= 10.0
    assert os.path.exists(os.path.join(out, "stechkin_summary.json"))


def test_experiment_nonlinear_smoke(capsys):
    assert main(["experiment", "nonlinear", "--p", "2", "--q", "1",
                 "--alpha", "1", "--K", "5000"]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["counts_match_inequality"] is True
    assert res["insufficient_range"] is False


def test_experiment_nonlinear_decimal_exponents(capsys):
    # exponents count as the decimals written: 0.1 is 1/10, not a 55-bit binary fraction
    start = time.perf_counter()
    assert main(["experiment", "nonlinear", "--p", "2", "--q", "1",
                 "--alpha", "0.1", "--K", "1000"]) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["counts_match_inequality"] is True
    # a nine-digit alpha would make the exact counts compare billion-bit integers
    start = time.perf_counter()
    assert main(["experiment", "nonlinear", "--p", "2", "--q", "1",
                 "--alpha", "0.123456789", "--K", "1000"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "-bit integers" in capsys.readouterr().err


def test_experiment_democracy_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"space": "lp:2", "N": "1,2,4", "strategy": "structured"}))
    assert main(["experiment", "democracy", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4


def test_format_json(seqfile, capsys):
    path = seqfile("s.csv", {1: 3.0, 2: 4.0})
    assert main(["--format", "json", "norm", "lp:2", path]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 5.0
    assert main(["--format", "json", "profile", "lp:2", path, "sigma"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["N"] == 0 and rows[-1]["value"] == 0.0
    assert main(["--format", "json", "democracy", "--space", "lp:2",
                 "--N", "1,2"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[1]["h_r"] == pytest.approx(2**0.5)


def test_parse_errors_exit_2(seqfile, tmp_path, capsys):
    path = seqfile("s.csv", {1: 1.0, 2: 2.0})
    cases = {
        "header.csv": "idx,value\n1,1.0\n",
        "dup.csv": "index,coefficient\n1,1.0\n1,2.0\n",
        "index.csv": "index,coefficient\nx,1.0\n",
        "short.csv": "index,coefficient\n1\n",
        "empty.csv": "",
        "nan.csv": "index,coefficient\n1,nan\n",
        "inf.csv": "index,coefficient\n1,1.0\n2,-inf\n",
    }
    for name, text in cases.items():
        (tmp_path / name).write_text(text)
        assert main(["norm", "lp:2", str(tmp_path / name)]) == 2, name
    mixed = tmp_path / "mixed.csv"
    mixed.write_text('index,coefficient\n1:0,1.0\n"2:0,1",1.0\n')
    assert main(["norm", "lpq:2,4", str(mixed)]) == 2
    # a three-axis rectangle in a two-dimensional rectangle space
    axes = tmp_path / "axes.csv"
    axes.write_text("index,coefficient\n1:0|1:0|1:0,1.0\n")
    assert main(["norm", "hyp:2,2", str(axes)]) == 2
    assert main(["democracy", "--space", "lp:2", "--N", "2,..., 8"]) == 2
    assert main(["democracy", "--space", "lp:2", "--N", "2,4,..."]) == 2
    assert main(["aspace", "lp:2", path, "--alpha", "0", "--q", "1"]) == 2
    assert main(["aspace", "lp:2", path, "--alpha", "1", "--q", "-1"]) == 2
    assert main(["norm", "lorentz-seq", "pow:0.5,0", path]) == 2
    assert main(["experiment", "nonlinear", "--p", "2", "--q", "1"]) == 2
    assert main(["experiment", "stechkin", "--set", "trials=many"]) == 2
    assert main(["experiment", "prop71", "--space", "lpq:2,4",
                 "--schedule", "cor99:2,1"]) == 2
    for schedule in ("cor73:1,-1", "cor73:-1,1"):
        assert main(["experiment", "prop71", "--space", "lpq:2,4",
                     "--schedule", schedule]) == 2, schedule
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["experiment", "democracy", "--config", str(cfg)]) == 2
    # out-of-range values
    assert main(["experiment", "democracy", "--space", "lp:2", "--N", "2,4",
                 "--set", "strategy=bogus"]) == 2
    assert main(["experiment", "property-h", "--space", "lp:2", "--n", "0"]) == 2
    assert main(["experiment", "property-h", "--space", "lp:2", "--n", "-1"]) == 2
    assert main(["norm", "lorentz-seq", "pow:0.5,0", "-1", path]) == 2
    assert main(["experiment", "stechkin", "--trials", "0"]) == 2
    assert main(["experiment", "stechkin", "--support", "1"]) == 2
    assert main(["experiment", "jackson", "--space", "lp:2", "--support", "0"]) == 2
    assert main(["experiment", "stechkin", "--alpha", "-0.5"]) == 2
    assert main(["experiment", "bernstein", "--space", "lp:2", "--N", "0"]) == 2
    assert main(["experiment", "nonlinear", "--p", "2", "--q", "1", "--K", "0"]) == 2
    assert main(["democracy", "--space", "lp:2", "--N", "2,2,...,8"]) == 2
    # non-finite numbers and trailing text
    for space in ("lp:nan", "lp:inf", "bmo:inf", "orlicz:ulogu:3", "orlicz:pow:inf"):
        assert main(["norm", space, path]) == 2, space
    for weight in ("pow:nan,0", "pow:inf", "pow:0.5,0,1"):
        assert main(["norm", "lorentz-seq", weight, "1", path]) == 2, weight
    assert main(["aspace", "lp:2", path, "--alpha", "nan", "--q", "1"]) == 2
    assert main(["aspace", "lp:2", path, "--alpha", "1", "--q", "nan"]) == 2
    assert main(["experiment", "stechkin", "--alpha", "nan"]) == 2
    assert main(["experiment", "bernstein", "--space", "lp:2", "--alpha", "inf"]) == 2
    assert capsys.readouterr().err.count("parse error:") == 43


def test_unreadable_input_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    assert main(["norm", "lp:2", missing]) == 2
    assert "cannot read input file" in capsys.readouterr().err
    assert main(["experiment", "democracy", "--config", missing]) == 2
    assert "cannot read input file" in capsys.readouterr().err


def test_internal_error_is_not_a_parse_error(seqfile, monkeypatch):
    # a bare ValueError from inside the program is a bug, not bad input
    path = seqfile("s.csv", {1: 1.0})

    def broken(spec, seq):
        raise ValueError("internal")

    monkeypatch.setattr("nterm.cli.space_norm", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["norm", "lp:2", path])
    script = ("import sys, nterm.cli as c\n"
              "def broken(spec, seq):\n    raise ValueError('internal')\n"
              "c.space_norm = broken\nsys.exit(c.main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(nterm.__file__)), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, "norm", "lp:2", path],
                          capture_output=True, text=True, env=env)
    assert proc.returncode not in (0, 2)
    assert "Traceback" in proc.stderr and "ValueError: internal" in proc.stderr


def test_democracy_commands_share_one_report(tmp_path, capsys):
    # exhaustive rows at N = 1..3 and a structured row at N = 4 (C(64, 4) > cap)
    outs = {}
    for cmd in (["democracy", "--space", "lp:2", "--N", "1..4", "--strategy", "auto"],
                ["experiment", "democracy", "--space", "lp:2", "--N", "1..4"]):
        out = str(tmp_path / cmd[0])
        stdout = {}
        for fmt in ("csv", "json"):
            assert main(["--format", fmt, "--out-dir", out] + cmd) == 0
            stdout[fmt] = capsys.readouterr().out
        files = {}
        for name in sorted(os.listdir(out)):
            if not name.endswith("_manifest.json"):
                files[name] = open(os.path.join(out, name)).read()
        summary = json.loads(files.pop("democracy_summary.json"))
        summary.pop("manifest_hash")
        outs[cmd[0]] = stdout, files, summary
    assert outs["democracy"] == outs["experiment"]
    stdout, files, summary = outs["democracy"]
    assert stdout["csv"] == files["democracy.csv"]
    assert [r["N"] for r in json.loads(stdout["json"])] == [1, 2, 3, 4]
    assert sorted(files) == ["attaining_N1_max.csv", "attaining_N1_min.csv",
                             "attaining_N2_max.csv", "attaining_N2_min.csv",
                             "attaining_N3_max.csv", "attaining_N3_min.csv", "democracy.csv"]
    assert {"checks", "rho", "h_ell_fit", "h_r_fit"} <= set(summary)


class Reached(Exception):
    pass


@pytest.mark.parametrize("engine, argv", [
    ("space_norm", ["norm", "lp:2", "S"]),
    ("lorentz_norm", ["norm", "lorentz-seq", "pow:0.5,0", "inf", "S"]),
    ("sigma_profile", ["profile", "lp:2", "S", "sigma"]),
    ("gamma_profile", ["profile", "lp:2", "S", "gamma"]),
    ("aspace_norm", ["aspace", "lp:2", "S", "--alpha", "1", "--q", "1"]),
    ("democracy_profile", ["democracy", "--space", "lp:2", "--N", "2"]),
    ("jackson_verifier", ["experiment", "jackson", "--space", "lp:2"]),
    ("bernstein_verifier", ["experiment", "bernstein", "--space", "lp:2"]),
    ("embedding_verifier", ["experiment", "embedding", "--space", "lp:2"]),
    ("stechkin_check", ["experiment", "stechkin"]),
    ("democracy_profile", ["experiment", "democracy", "--space", "lp:2"]),
    ("property_h_check", ["experiment", "property-h", "--space", "lp:2"]),
    ("prop71_witness", ["experiment", "prop71", "--space", "lp:2"]),
    ("nonlinearity_demo", ["experiment", "nonlinear", "--p", "2", "--q", "1", "--K", "10"]),
])
def test_runners_call_engines_through_module_globals(engine, argv, seqfile, monkeypatch):
    # a rebinding of nterm.cli.<engine> (as a tracer does) must reach the command
    path = seqfile("s.csv", {1: 1.0, 2: 2.0})

    def patched(*args, **kwargs):
        raise Reached(engine)

    monkeypatch.setattr(f"nterm.cli.{engine}", patched)
    with pytest.raises(Reached):
        main([path if a == "S" else a for a in argv])
