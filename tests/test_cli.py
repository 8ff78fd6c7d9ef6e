import json
import subprocess
import sys

import pytest

from albx.cli import main, parse_expression
from albx.curve import config_to_json
from albx.errors import InputError
from albx.fixtures import cusp, node, tacnode
from albx.funcfield import Place, RatFunc

T = RatFunc.variable()


@pytest.fixture(scope="module")
def curve_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("curves")
    paths = {}
    for name, cfg in (("node", node()), ("cusp", cusp()), ("tacnode", tacnode())):
        path = root / f"{name}.json"
        path.write_text(json.dumps(config_to_json(cfg)))
        paths[name] = str(path)
    bad = json.loads((root / "cusp.json").read_text())
    bad["singular_points"][0]["conductors"] = [0]
    (root / "cusp_bad.json").write_text(json.dumps(bad))
    paths["cusp_bad"] = str(root / "cusp_bad.json")
    (root / "broken.json").write_text("{oops")
    paths["broken"] = str(root / "broken.json")
    return paths


def run_cli(args, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "albx.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


# --- expression grammar -------------------------------------------------------


def test_parse_expression():
    assert parse_expression("t") == T
    assert parse_expression("(t-1)*(t-4)/(t-2)^2") == (T - 1) * (T - 4) / (T - 2) ** 2
    assert parse_expression("3/2") == RatFunc.constant(3) / 2
    assert parse_expression("-t^2 + 1") == -(T**2) + 1
    assert parse_expression("1/t^-1") == T
    with pytest.raises(InputError):
        parse_expression("t +")
    with pytest.raises(InputError):
        parse_expression("x")
    with pytest.raises(InputError):
        parse_expression("0*t")
    with pytest.raises(InputError):
        parse_expression("1/(t-t)")


# --- analyze --------------------------------------------------------------------


def analyze_text_lines(path):
    code, out, _ = run_cli(["analyze", path])
    assert code == 0
    return out.splitlines()


def test_analyze_node(curve_files):
    code, out, _ = run_cli(["analyze", curve_files["node"], "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["torus_rank"] == 1 and data["vectorial_dim"] == 0
    alb = data["albanese"]
    assert (alb["torus_rank"], alb["vectorial_dim"]) == (1, 0)
    assert alb["base_points"] == [{"component": "C0", "point": "1"}]
    assert alb["lie_basis"] == []
    assert alb["etale_basis"] == [
        [
            {"component": "C0", "point": "0", "coeff": 1},
            {"component": "C0", "point": "inf", "coeff": -1},
        ]
    ]
    lines = analyze_text_lines(curve_files["node"])
    assert "albanese group: Gm" in lines
    assert "motive: [Z^1 (+) k^0 -> 1]" in lines
    assert "dual motive: [Z^0 (+) k^0 -> Gm]" in lines


def test_analyze_cusp_and_tacnode(curve_files):
    code, out, _ = run_cli(["analyze", curve_files["cusp"], "--format", "json"])
    data = json.loads(out)
    assert (data["torus_rank"], data["vectorial_dim"]) == (0, 1)
    lines = analyze_text_lines(curve_files["cusp"])
    assert "albanese group: Ga" in lines
    assert "motive: [Z^0 (+) k^1 -> 1]" in lines
    assert "dual motive: [Z^0 (+) k^0 -> Ga]" in lines
    code, out, _ = run_cli(["analyze", curve_files["tacnode"], "--format", "json"])
    data = json.loads(out)
    assert (data["torus_rank"], data["vectorial_dim"]) == (1, 1)
    assert data["albanese"]["base_points"] == [{"component": "C0", "point": "2"}]
    lines = analyze_text_lines(curve_files["tacnode"])
    assert "albanese group: Gm x Ga" in lines
    assert "motive: [Z^1 (+) k^1 -> 1]" in lines
    assert "dual motive: [Z^0 (+) k^0 -> Gm x Ga]" in lines


def test_analyze_computes_formal_group_once(curve_files, monkeypatch, capsys):
    import albx.infdiv

    calls = {"etale_kernel": 0, "lie_kernel": 0}

    def counted(name):
        original = getattr(albx.infdiv, name)

        def wrapper(config):
            calls[name] += 1
            return original(config)

        return wrapper

    for name in calls:
        monkeypatch.setattr(albx.infdiv, name, counted(name))
    assert main(["analyze", curve_files["tacnode"], "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["torus_rank"] == 1
    assert calls == {"etale_kernel": 1, "lie_kernel": 1}


def test_analyze_rejects_invalid(curve_files):
    code, _, err = run_cli(["analyze", curve_files["cusp_bad"]])
    assert code == 2 and "conductor" in err
    code, _, err = run_cli(["analyze", curve_files["broken"]])
    assert code == 2
    code, _, err = run_cli(["analyze", "/nonexistent.json"])
    assert code == 2


def test_analyze_deterministic(curve_files):
    _, out1, _ = run_cli(["analyze", curve_files["tacnode"], "--format", "json"])
    _, out2, _ = run_cli(["analyze", curve_files["tacnode"], "--format", "json"])
    assert out1 == out2


# --- chow ------------------------------------------------------------------------


def test_chow_not_equivalent(curve_files):
    code, out, _ = run_cli(
        ["chow", curve_files["node"], "--cycle", "C0:2=+1,C0:3=-1", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["abel_jacobi"]["torus"] == ["2/3"]
    assert data["equivalent"] is False


def test_chow_equivalent(curve_files):
    code, out, _ = run_cli(
        [
            "chow",
            curve_files["node"],
            "--cycle",
            "C0:1=+1,C0:4=+1,C0:2=-2",
            "--format",
            "json",
        ]
    )
    data = json.loads(out)
    assert data["equivalent"] is True
    assert data["abel_jacobi"]["torus"] == ["1"]


def test_chow_zero_cycle(curve_files):
    code, out, _ = run_cli(
        ["chow", curve_files["node"], "--cycle", "", "--format", "json"]
    )
    data = json.loads(out)
    assert data["equivalent"] is True


def test_chow_bad_support(curve_files):
    code, _, err = run_cli(
        ["chow", curve_files["node"], "--cycle", "C0:0=+1,C0:5=-1"]
    )
    assert code == 2 and "singular" in err


# --- symbol -------------------------------------------------------------------------


def test_symbol_single_point():
    code, out, _ = run_cli(
        ["symbol", "--tag", "gm", "--psi", "t", "--f", "t-1", "--point", "0"]
    )
    assert code == 0 and out.strip().endswith("= -1")
    code, out, _ = run_cli(
        [
            "symbol",
            "--tag",
            "ga",
            "--psi",
            "1/t",
            "--f",
            "t-1",
            "--point",
            "0",
            "--format",
            "json",
        ]
    )
    assert json.loads(out)["value"] == "-1"


def test_symbol_reciprocity_table():
    code, out, _ = run_cli(
        ["symbol", "--tag", "gm", "--psi", "t", "--f", "t-1", "--format", "json"]
    )
    data = json.loads(out)
    assert data["ok"] is True
    assert data["aggregate"] == "1"
    assert data["values"]["C0:0"] == "-1"
    assert data["values"]["C0:inf"] == "-1"


def test_symbol_nonsplit_rejected():
    code, _, err = run_cli(["symbol", "--tag", "gm", "--psi", "t^2+1", "--f", "t"])
    assert code == 2


# Inputs whose coefficients or degrees made divisor enumeration, Fraction
# division or Neumann series inversion run for minutes; each now takes
# about a second or less, and the timeout turns a regression into a failure.


def test_symbol_nonsplit_with_semiprime_constant():
    n = 10000000000000000012387 * 70000000000000000006819  # two 23-digit primes
    code, out, err = run_cli(
        ["symbol", "--tag", "gm", "--psi", f"t^2-{n}", "--f", "t-1"], timeout=60
    )
    assert code == 2 and out == ""
    assert f"has an irrational factor t^2 + -{n}" in err


def test_symbol_table_high_multiplicity():
    code, out, _ = run_cli(
        ["symbol", "--tag", "ga", "--psi", "(t-1)^300*(t+1)^300", "--f", "t-2", "--format", "json"],
        timeout=60,
    )
    data = json.loads(out)
    # psi is a polynomial: Res_a(psi df/f) = psi(a) ord_a(f), and Res_inf = -psi(2)
    assert code == 0 and data["ok"] is True and data["aggregate"] == "0"
    assert data["values"] == {
        "C0:-1": "0",
        "C0:1": "0",
        "C0:2": str(3**300),
        "C0:inf": str(-(3**300)),
    }


def test_symbol_table_high_degree():
    code, out, _ = run_cli(
        ["symbol", "--tag", "ga", "--psi", "t^2000", "--f", "t-2", "--format", "json"],
        timeout=60,
    )
    data = json.loads(out)
    assert code == 0 and data["ok"] is True and data["aggregate"] == "0"
    assert data["values"] == {"C0:0": "0", "C0:2": str(2**2000), "C0:inf": str(-(2**2000))}


# --- verify ----------------------------------------------------------------------------


def test_verify_small(curve_files):
    code, out, _ = run_cli(["verify", "--trials", "5", "--seed", "1"])
    assert code == 0
    assert "PASS overall" in out


def test_verify_json_deterministic(curve_files):
    args = ["verify", "--trials", "5", "--seed", "2", "--format", "json"]
    _, out1, _ = run_cli(args)
    _, out2, _ = run_cli(args)
    assert out1 == out2
    data = json.loads(out1)
    assert data["passed"] is True


def test_verify_flags_corrupt_curve(curve_files):
    code, out, _ = run_cli(
        ["verify", curve_files["cusp_bad"], "--trials", "2", "--seed", "0"]
    )
    assert code == 1
    assert "FAIL validate" in out


def test_verify_rejects_bad_trials():
    code, _, _ = run_cli(["verify", "--trials", "0"])
    assert code == 2


def test_main_entry_direct(curve_files, capsys):
    assert main(["analyze", curve_files["node"]]) == 0
    captured = capsys.readouterr()
    assert "lattice rank: 1" in captured.out
