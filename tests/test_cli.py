import contextlib
from fractions import Fraction as F
import hashlib
import io
import json
import os
from pathlib import Path
import random
import subprocess
import sys

import pytest

from oracles import lie_coordinates_reference

import albx
from albx.arith import format_rat
from albx import cli
from albx.cli import _write_json, main, parse_expression
from albx.chow import ZeroCycle, interpolate_divisor
from albx.curve import MAX_TRUNCATION, CurveConfig, SingularPoint, config_to_json
from albx.errors import InputError
from albx.fixtures import cusp, line_chain, modulus_curve, node, rfold, tacnode, tacnode_point, zoo
from albx.funcfield import INF, LaurentSeries, Place, RatFunc
from albx.motive import albanese

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


# the subprocess imports the albx that these tests import
SRC = str(Path(albx.__file__).resolve().parents[1])
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.getenv("PYTHONPATH")))))


def run_cli(args, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "albx.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=ENV,
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


def test_parse_expression_limits():
    assert parse_expression("(" * 100 + "t" + ")" * 100) == T
    assert parse_expression("-" * 100 + "t") == T
    assert parse_expression("(t^2)^1024") == T**2048
    assert parse_expression("1/(1/t^2)^-1024") == T**-2048
    for text in ("(" * 101 + "t" + ")" * 101, "-" * 101 + "t", "-(" * 51 + "t" + ")" * 51):
        with pytest.raises(InputError, match="nested"):
            parse_expression(text)
    for text in ("t^2049", "(t^2-1)^1025", "(1/t^2)^-1025"):
        with pytest.raises(InputError, match="degree"):
            parse_expression(text)
    assert parse_expression("(2^31*t-1)^2048").num.coeffs[0] == 1
    for text in ("((2^64)^2048)^2048", "(2^32*t-1)^2048", "(t/2^32-1)^-2048", "1/(2^32*t)^2048"):
        with pytest.raises(InputError, match="height above 65536 bits"):
            parse_expression(text)


@pytest.mark.parametrize(
    "psi", ["(" * 200 + "t" + ")" * 200, "-" * 1500 + "t"], ids=["parens", "minus"]
)
def test_symbol_deep_nesting_exits_2(psi):
    code, out, err = run_cli(["symbol", "--tag", "gm", "--psi=" + psi, "--f", "t-1"])
    assert code == 2 and out == ""
    assert "nested deeper than 100" in err and "Traceback" not in err


def test_symbol_huge_power_exits_2():
    args = ["symbol", "--tag", "ga", "--psi", "(t-1)^200000", "--f", "t"]
    code, out, err = run_cli(args, timeout=60)
    assert code == 2 and out == ""
    assert "degree above 2048" in err


def test_symbol_huge_height_exits_2():
    # a constant base has degree 0, so only the height limit stops this
    args = ["symbol", "--tag", "gm", "--psi", "((2^64)^2048)^2048", "--f", "t", "--point", "1"]
    code, out, err = run_cli(args, timeout=5)
    assert code == 2 and out == ""
    assert "coefficient height above 65536 bits" in err


def test_symbol_prints_values_past_4300_digits():
    # str() of an int stops at 4300 digits; 99999^1000 has 5000
    args = ["symbol", "--tag", "gm", "--psi", "99999^1000", "--f", "t-3", "--point", "3"]
    code, out, err = run_cli(args, timeout=30)
    assert code == 0 and err == ""
    head, value = out.rstrip("\n").split(" = ")
    assert head == "(99999^1000, t-3)_3 [gm]" and len(value) == 5000
    want = 99999**1000
    assert int(value[:2000]) == want // 10**3000
    assert int(value[-2000:]) == want % 10**2000


def test_symbol_value_past_height_limit_exits_2():
    # (3 * 2^31 - 1)^2048 has 66,729 bits, past the printing limit
    args = ["symbol", "--tag", "ga", "--psi", "(2^31*t-1)^2048", "--f", "t-3", "--point", "3"]
    code, out, err = run_cli(args, timeout=30)
    assert code == 2 and out == ""
    assert "more than 65536 bits" in err and "Traceback" not in err


@pytest.mark.parametrize("psi", ["t\u00b2", "t^\u00b2", "2\u00b3*t"])
def test_symbol_superscript_digit_exits_2(psi):
    # str.isdigit accepts superscripts, which int() refuses
    code, out, err = run_cli(["symbol", "--tag", "gm", "--psi", psi, "--f", "t-1"])
    assert code == 2 and out == ""
    superscript = next(c for c in psi if c in "\u00b2\u00b3")
    assert err == f"error: unexpected character {superscript!r} in expression\n"


def test_symbol_reads_other_decimal_digits():
    # ARABIC-INDIC DIGIT THREE is a decimal digit, and int() reads it as 3
    code, out, err = run_cli(["symbol", "--tag", "gm", "--psi", "\u0663*t", "--f", "t-1"])
    assert code == 0 and err == ""
    assert out == run_cli(["symbol", "--tag", "gm", "--psi", "3*t", "--f", "t-1"])[1].replace(
        "(3*t", "(\u0663*t"
    )


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


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of infdiv.etale_kernel and infdiv.lie_kernel calls."""
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
    return calls


def test_analyze_computes_formal_group_once(curve_files, kernel_calls, capsys):
    assert main(["analyze", curve_files["tacnode"], "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["torus_rank"] == 1
    assert kernel_calls == {"etale_kernel": 1, "lie_kernel": 1}


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


def analyze_axes():
    """name -> curve along analyze's axes: the zoo, r-fold points, the cusp
    and the tacnode at N = 10, 20 and 40, chains and cycles of lines, and
    48 seeded moduli with support 1-4, infinity allowed, multiplicities 1-4."""
    curves = zoo()
    curves.update((f"rfold{r}", rfold(r)) for r in range(2, 9))
    q0, q1 = Place("C0", 0), Place("C0", 1)
    for n in (10, 20, 40):
        gens = ((LaurentSeries.monomial(q0, 2, 1, n),), (LaurentSeries.monomial(q0, 3, 1, n),))
        cusp_n = SingularPoint("p", (q0,), "explicit", (1,), gens)
        curves[f"cusp N={n}"] = CurveConfig(["C0"], [cusp_n], n)
        curves[f"tacnode N={n}"] = CurveConfig(["C0"], [tacnode_point("p", q0, q1, n)], n)
    for k in range(2, 7):
        curves[f"chain{k}"] = line_chain(k, ["ordinary"] * (k - 1))
        curves[f"cycle{k}"] = line_chain(k, ["ordinary"] * k)
    rng = random.Random(3030)
    for j in range(48):
        # a dict, not a set: a set's order follows INF's per-process str hash
        coords = dict.fromkeys(
            INF if rng.random() < 0.25 else F(rng.randint(-40, 40), rng.randint(1, 9))
            for _ in range(rng.randint(1, 4))
        )
        curves[f"modulus{j}"] = modulus_curve([(Place("C0", a), rng.randint(1, 4)) for a in coords])
    return curves


# SHA-256 of the stdout of albx analyze, text then JSON, on each curve of
# analyze_axes in turn, as printed when the lattice was put in Hermite
# form by elimination and the bases were written twice
ANALYZE_AXES_DIGEST = "c17ca0da708d8f436d9dce04b30d22ffdb1ba5abb0a9a95cc153fdbf9fe4c265"


def test_analyze_output_pinned_across_axes(tmp_path):
    digest = hashlib.sha256()
    curves = analyze_axes()
    assert len(curves) == 5 + 7 + 6 + 10 + 48
    for k, cfg in enumerate(curves.values()):
        path = tmp_path / f"c{k}.json"
        path.write_text(json.dumps(config_to_json(cfg)))
        for fmt in ("text", "json"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["analyze", str(path), "--format", fmt]) == 0
            digest.update(out.getvalue().encode())
    assert digest.hexdigest() == ANALYZE_AXES_DIGEST


@pytest.mark.parametrize(
    "points, message",
    [
        ([["C0:0", "C0:0", "C0:inf"]], "singular point p0: branch C0:0 listed twice"),
        ([["C0:0", "C0:inf"], ["C0:0", "C0:1"]], "branch C0:0 used by more than one singular point"),
    ],
    ids=["one fiber", "two points"],
)
def test_analyze_names_a_repeated_branch(tmp_path, points, message):
    # a branch listed twice in one fiber was reported as used by two points
    data = {
        "components": [{"id": "C0"}],
        "truncation": 2,
        "singular_points": [
            {"name": f"p{k}", "branches": [dict(zip(("component", "point"), b.split(":")))
                                           for b in branches]}
            for k, branches in enumerate(points)
        ],
    }
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(data))
    for fmt in ("text", "json"):
        assert run_cli(["analyze", str(path), "--format", fmt]) == (2, "", f"error: {message}\n")


def analyze_json(tmp_path, cfg):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(config_to_json(cfg)))
    code, out, _ = run_cli(["analyze", str(path), "--format", "json"], timeout=60)
    assert code == 0
    return json.loads(out)


def test_analyze_ordinary_64_fold_point(tmp_path):
    branches = [Place("C0", k) for k in range(63)] + [Place("C0", INF)]
    cfg = CurveConfig(["C0"], [SingularPoint("p", branches)], 2)
    data = analyze_json(tmp_path, cfg)
    assert (data["torus_rank"], data["vectorial_dim"]) == (63, 0)


def test_analyze_tacnode_at_truncation_80(tmp_path):
    sp = tacnode_point("p", Place("C0", 0), Place("C0", 1), 80)
    data = analyze_json(tmp_path, CurveConfig(["C0"], [sp], 80))
    assert (data["torus_rank"], data["vectorial_dim"]) == (1, 1)


@pytest.mark.parametrize("n", [-3, 20_000_000])
def test_analyze_rejects_truncation_out_of_range(tmp_path, n):
    path = tmp_path / "curve.json"
    data = config_to_json(node())
    data["truncation"] = n
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["analyze", str(path)], timeout=60)
    assert code == 2 and out == ""
    assert f"truncation {n} outside 0..1024" in err


@pytest.mark.parametrize(
    "field, value",
    [('"truncation": 3', '"truncation": 1e400'), ('"conductors": [1]', '"conductors": [1e400]')],
)
def test_analyze_json_number_past_float_range_exits_2(curve_files, tmp_path, field, value):
    # 1e400 is read exactly, as 10^400, not as float infinity
    with open(curve_files["cusp"], encoding="utf-8") as fh:
        text = fh.read()
    path = tmp_path / "curve.json"
    path.write_text(text.replace(field, value))
    code, out, err = run_cli(["analyze", str(path)], timeout=30)
    assert code == 2 and out == ""
    shown = "10000000000000000000...000000000{} (401 characters)"
    if "truncation" in field:
        assert err == f"error: truncation {shown.format(0)} outside 0..1024\n"
    else:
        assert err == f"error: truncation 3 too small; need at least {shown.format(2)}\n"


@pytest.mark.parametrize(
    "field, value, shown",
    [
        ('"truncation": 3', '"truncation": 3.5', "truncation 7/2"),
        ('"truncation": 3', '"truncation": true', "truncation true"),
        ('"conductors": [1]', '"conductors": [1.9]', "p: conductor 19/10"),
        ('"conductors": [1]', '"conductors": [false]', "p: conductor false"),
    ],
)
def test_analyze_json_non_integer_exits_2(curve_files, tmp_path, field, value, shown):
    # int() would floor 3.5 to 3 and 1.9 to 1, and read true as 1
    text = Path(curve_files["cusp"]).read_text(encoding="utf-8")
    path = tmp_path / "curve.json"
    path.write_text(text.replace(field, value))
    code, out, err = run_cli(["analyze", str(path)], timeout=30)
    assert code == 2 and out == ""
    assert err == f"error: {shown} is not an integer\n"


@pytest.mark.parametrize(
    "field, value",
    [
        ('"truncation": 3', '"truncation": 3.0'),
        ('"truncation": 3', '"truncation": "3"'),
        ('"conductors": [1]', '"conductors": [1.0]'),
    ],
)
def test_analyze_json_integral_number_reads_as_integer(curve_files, tmp_path, field, value):
    text = Path(curve_files["cusp"]).read_text(encoding="utf-8")
    path = tmp_path / "curve.json"
    path.write_text(text.replace(field, value))
    assert analyze_text_lines(str(path)) == analyze_text_lines(curve_files["cusp"])


@pytest.mark.parametrize(
    "point, exact",
    [
        ("1e400", "1" + "0" * 400),
        ("0.1", "1/10"),
        ("12345678901234567891.0", "12345678901234567891"),
    ],
    ids=["1e400", "0.1", "20 digits"],
)
def test_analyze_json_float_point_read_exactly(curve_files, tmp_path, point, exact):
    # as a float, 1e400 would be infinity: the node's other branch, C0:inf
    data = json.loads(Path(curve_files["node"]).read_text())
    data["singular_points"][0]["branches"][1]["point"] = "POINT"
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(data).replace('"POINT"', point))
    code, out, _ = run_cli(["analyze", str(path), "--format", "json"], timeout=30)
    assert code == 0
    branches = json.loads(out)["curve"]["singular_points"][0]["branches"]
    assert [b["point"] for b in branches] == ["0", exact]


@pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
@pytest.mark.parametrize("field", ["point", "truncation"])
def test_analyze_json_constant_not_a_number_exits_2(curve_files, tmp_path, constant, field):
    data = json.loads(Path(curve_files["node"]).read_text())
    if field == "point":
        data["singular_points"][0]["branches"][1]["point"] = "VALUE"
    else:
        data["truncation"] = "VALUE"
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(data).replace('"VALUE"', constant))
    code, out, err = run_cli(["analyze", str(path)], timeout=30)
    assert code == 2 and out == ""
    assert err == f"error: bad rational literal {constant!r}\n"


def _cusp_with_generator(entry):
    data = config_to_json(cusp())
    data["singular_points"][0]["generators"] = [[entry]]
    return json.dumps(data)


def _cusp_with_third_generator(entry):
    # a lone zero generator is refused as "no generators visible", so the
    # falsy entries ride along with the cusp's own two
    data = config_to_json(cusp())
    data["singular_points"][0]["generators"].append([entry])
    return json.dumps(data)


MALFORMED_CURVES = {
    "generator_number": _cusp_with_generator(5),
    "generator_string": _cusp_with_generator("u^2"),
    "generator_zero": _cusp_with_third_generator(0),
    "generator_empty_string": _cusp_with_third_generator(""),
    "generator_empty_array": _cusp_with_third_generator([]),
    "generator_false": _cusp_with_third_generator(False),
    "generator_null": _cusp_with_third_generator(None),
    "nested_top_level": "[" * 5000 + "]" * 5000,
    "nested_components": '{"components": ' + "[" * 5000 + "]" * 5000 + ', "truncation": 3}',
    # UTF-16 with its byte order mark \xff\xfe: not UTF-8, so it cannot be read
    "utf16": json.dumps(config_to_json(node())).encode("utf-16"),
}


@pytest.mark.parametrize(
    "command, options",
    [("analyze", []), ("chow", ["--cycle", "C0:2=+1,C0:3=-1"]), ("verify", ["--trials", "2"])],
)
@pytest.mark.parametrize("name", sorted(MALFORMED_CURVES))
def test_malformed_curve_file_exits_2(tmp_path, name, command, options):
    # these files raised AttributeError, RecursionError or UnicodeDecodeError,
    # so verify exited 1
    path = tmp_path / f"{name}.json"
    content = MALFORMED_CURVES[name]
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    code, out, err = run_cli([command, str(path), *options], timeout=30)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


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


def test_chow_nonzero_degree_builds_no_receptor(curve_files, kernel_calls, capsys):
    assert main(["chow", curve_files["tacnode"], "--cycle", "C0:5=+1"]) == 0
    assert capsys.readouterr().out == "cycle: C0:5=+1\nequivalent: false (nonzero degree)\n"
    assert kernel_calls == {"etale_kernel": 0, "lie_kernel": 0}


@pytest.mark.parametrize(
    "cycle, message",
    [
        ("C0:0=+1", "error: cycle place C0:0 lies over the singular locus\n"),
        ("X9:2=+1", "error: cycle place X9:2 on unknown component\n"),
    ],
)
def test_chow_checks_support_before_degree(curve_files, cycle, message):
    # both cycles have nonzero degree; the support is refused first
    assert run_cli(["chow", curve_files["node"], "--cycle", cycle]) == (2, "", message)


def test_chow_bad_support(curve_files):
    code, _, err = run_cli(
        ["chow", curve_files["node"], "--cycle", "C0:0=+1,C0:5=-1"]
    )
    assert code == 2 and "singular" in err


@pytest.mark.parametrize("n", [32768, 1_000_000, 5_000_000, 30_000_000])
def test_chow_torus_coordinate_past_height_limit_exits_2(curve_files, n):
    # (2/3)^n: forming it took 3.8 s at n = 10^6 before the printer refused
    # it, 78.8 s at 5 * 10^6, and 3 * 10^7 ran past 100 s
    args = ["chow", curve_files["node"], "--cycle", f"C0:2=+{n},C0:3=-{n}"]
    code, out, err = run_cli(args, timeout=5)
    assert code == 2 and out == ""
    assert err == "error: torus coordinate 0 would pass 65536 bits\n"


def test_chow_torus_coordinate_at_height_limit(curve_files):
    # the bound is 1 + n bits for 2^n, which is exact, and 1 + 2 n for 3^n:
    # (2/3)^32767, of 51,935 bits, passes; 4^32768 = 2^65536 does not
    args = ["chow", curve_files["node"], "--cycle", "C0:2=+32767,C0:3=-32767"]
    code, out, err = run_cli(args, timeout=5)
    assert code == 0 and err == ""
    assert f"torus coordinates: [{format_rat(F(2, 3) ** 32767)}]\n" in out
    args = ["chow", curve_files["node"], "--cycle", "C0:4=+32768,C0:3=-32767,C0:5=-1"]
    code, out, err = run_cli(args, timeout=5)
    assert code == 2 and err == "error: torus coordinate 0 would pass 65536 bits\n"


@pytest.mark.parametrize("curve, n", [("cusp", 2049), ("cusp", 1_000_000), ("tacnode", 2049)])
def test_chow_interpolant_past_degree_limit_exits_2(curve_files, curve, n):
    # the tacnode's torus coordinate, (15/14)^2049 or its inverse, is in bounds
    args = ["chow", curve_files[curve], "--cycle", f"C0:5=+{n},C0:7=-{n}"]
    code, out, err = run_cli(args, timeout=5)
    assert code == 2 and out == ""
    assert err == "error: interpolant on C0 would pass degree 2048\n"


def test_chow_lie_coordinates_on_four_vectors_at_one_place(tmp_path):
    # 5[0] has four Lie vectors, all at 0, read from one dlog series there
    cfg = modulus_curve([(Place("C0", 0), 5)])
    path = tmp_path / "5at0.json"
    path.write_text(json.dumps(config_to_json(cfg)))
    rng = random.Random(2802)
    places = [Place("C0", INF)]
    while len(places) < 16:
        a = F(rng.randint(-999, 999), rng.randint(1, 99))
        if a and Place("C0", a) not in places:
            places.append(Place("C0", a))
    mults = [0]
    while not sum(mults):  # no zero multiplicity at infinity
        mults = [rng.choice((-2, -1, 1, 2)) for _ in places[1:]]
    cycle = ZeroCycle(zip(places, [-sum(mults)] + mults))
    assert len(cycle.places()) == 16
    code, out, err = run_cli(["chow", str(path), "--cycle", cycle.to_string(), "--format", "json"], timeout=60)
    assert code == 0 and err == ""
    want = lie_coordinates_reference({"C0": interpolate_divisor(cycle, "C0")}, albanese(cfg).lie_basis)
    assert len(want) == 4 and all(want)
    assert json.loads(out)["abel_jacobi"]["vectorial"] == [format_rat(x) for x in want]


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


def test_symbol_reports_a_broken_law(monkeypatch):
    """A tame symbol that doubles its value at infinity, a place of every
    table, breaks the product formula.  albx symbol prints the table with
    "ok": false and exits 0, where it used to end in an ArithmeticError
    traceback, and verify's reciprocity suite reports the failure."""
    from albx import symbols
    from albx.verify import suite_reciprocity

    tame = symbols.tame_symbol
    monkeypatch.setattr(
        symbols, "tame_symbol", lambda psi, f, p: tame(psi, f, p) * (2 if p.is_infinite() else 1)
    )
    argv = ["symbol", "--tag", "gm", "--psi", "t", "--f", "t-1"]
    for fmt in ("json", "text"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv + ["--format", fmt]) == 0
        if fmt == "json":
            data = json.loads(out.getvalue())
            assert data["ok"] is False and data["aggregate"] == "2"
            assert data["values"] == {"C0:0": "-1", "C0:1": "1", "C0:inf": "-2"}
        else:
            assert out.getvalue().endswith("[gm] = -2\naggregate: 2\n")
    result = suite_reciprocity(5, 0)
    assert (result.status, result.checks) == ("FAIL", 0)
    assert result.detail == "reciprocity violated for tag gm: aggregate 2"


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


@pytest.mark.parametrize("tag", ["ga", "gm"])
def test_symbol_degree_2048_power(tag):
    args = ["symbol", "--tag", tag, "--psi", "(2*t-9)^2048", "--f", "t-3", "--point", "3"]
    code, out, _ = run_cli(args, timeout=60)
    # psi is a unit at 3 and f has a simple zero there: both symbols are psi(3)
    assert code == 0 and out == f"((2*t-9)^2048, t-3)_3 [{tag}] = {3**2048}\n"


def test_symbol_power_of_quotient():
    # Euclid on the 1024th powers took 7.6-8.7 s; a power of a reduced
    # quotient is reduced already
    args = ["symbol", "--tag", "gm", "--psi", "((t-3)/(t-5))^1024", "--f", "t-1", "--point", "1"]
    code, out, _ = run_cli(args, timeout=5)
    # psi is a unit at 1 and f has a simple zero there: the symbol is psi(1)
    assert code == 0 and out == f"(((t-3)/(t-5))^1024, t-1)_1 [gm] = 1/{2**1024}\n"


def test_symbol_at_a_root_of_order_1024():
    # three multiplicity sweeps and a Taylor shift took 1.4-1.6 s; one
    # sweep per polynomial takes about 0.6 s with the interpreter start
    args = ["symbol", "--tag", "gm", "--psi", "(t-8)^1024", "--f", "t-1", "--point", "8"]
    code, out, _ = run_cli(args, timeout=1.2)
    # psi has a zero of order 1024 at 8 and f is a unit there: 1/f(8)^1024
    assert code == 0 and out == f"((t-8)^1024, t-1)_8 [gm] = 1/{7**1024}\n"


def test_symbol_integer_literal_past_4300_digits():
    digits = "7" * 4400
    args = ["symbol", "--tag", "gm", "--psi", digits, "--f", "t-3", "--point", "3"]
    code, out, err = run_cli(args, timeout=30)
    assert code == 0 and err == ""
    assert out == f"({digits}, t-3)_3 [gm] = {digits}\n"


@pytest.mark.parametrize("digits", [19729, 100000])
def test_symbol_integer_literal_past_height_limit_exits_2(digits):
    # 10^19729 - 1 has 65,539 bits; a run of 100,000 is refused before conversion
    args = ["symbol", "--tag", "gm", "--psi", "9" * digits, "--f", "t-3", "--point", "3"]
    code, out, err = run_cli(args, timeout=30)
    assert code == 2 and out == ""
    assert f"integer literal of more than 65536 bits ({digits} digits)" in err
    assert "Traceback" not in err


def test_coordinates_past_4300_digits(curve_files, tmp_path):
    # a --point, a cycle coordinate and a curve-JSON point of 4,400 digits
    digits = "7" * 4400
    args = ["symbol", "--tag", "gm", "--psi", "t", "--f", f"t-{digits}", "--point", digits]
    code, out, err = run_cli(args, timeout=30)
    assert code == 0 and err == ""
    assert out == f"(t, t-{digits})_{digits} [gm] = {digits}\n"
    args = ["chow", curve_files["node"], "--cycle", f"C0:{digits}=+1,C0:2=-1"]
    code, out, err = run_cli(args, timeout=30)
    assert code == 0 and err == ""
    assert f"torus coordinates: [{digits}/2]\n" in out
    with open(curve_files["node"], encoding="utf-8") as fh:
        data = json.load(fh)
    data["singular_points"][0]["branches"][1]["point"] = digits
    path = tmp_path / "wide_node.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["analyze", str(path)], timeout=30)
    assert code == 0 and err == ""
    assert f"lattice basis: +[C0:0]-[C0:{digits}]\n" in out


def test_coordinate_past_height_limit_exits_2():
    args = ["symbol", "--tag", "gm", "--psi", "t", "--f", "t-3", "--point", "1/" + "9" * 19729]
    code, out, err = run_cli(args, timeout=30)
    assert code == 2 and out == ""
    assert "integer literal of more than 65536 bits (19729 digits)" in err
    assert "Traceback" not in err and "set_int_max_str_digits" not in err


@pytest.mark.parametrize("point", ["1e10000000", "1e-10000000"])
def test_coordinate_exponent_past_height_limit_exits_2(point):
    # Fraction alone spends 18 s forming 10^10000000
    args = ["symbol", "--tag", "gm", "--psi", "t", "--f", "t-3", "--point", point]
    code, out, err = run_cli(args, timeout=5)
    assert code == 2 and out == ""
    assert err == f"error: rational literal '{point}' of more than 65536 bits\n"


def test_decimal_coordinates(curve_files):
    # 1/f at the zero -1/400 of psi
    args = ["symbol", "--tag", "gm", "--psi", "400*t+1", "--f", "t-3", "--point=-2.5e-3"]
    assert run_cli(args) == (0, "(400*t+1, t-3)_-2.5e-3 [gm] = -400/1201\n", "")
    code, out, _ = run_cli(["chow", curve_files["node"], "--cycle", "C0:1e3=+1,C0:1.5=-1"])
    # the node glues 0 to infinity: (0 - 1000) / (0 - 3/2)
    assert code == 0
    assert out.startswith("cycle: C0:3/2=-1,C0:1000=+1\ntorus coordinates: [2000/3]\n")


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_parser_reused_across_calls(curve_files, monkeypatch):
    """Calls in one process print what fresh processes print, and what the
    top-level parser's full parse prints: the exit code, stdout and stderr
    of main's one-pass dispatch to a subparser are those of
    _PARSER.parse_args, which main runs when no command matches."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage to it
    node, cycle = curve_files["node"], ["--cycle", "C0:2=+1,C0:3=-1"]
    bogus = ["chow", node, *cycle, "--bogus"]
    calls = [
        ["analyze", curve_files["cusp"], "--format", "json"],
        ["chow", curve_files["tacnode"], "--cycle", "C0:2=+1,C0:3=-1"],
        ["symbol", "--tag", "ga", "--psi", "1/t^2", "--f", "(t-2)/(t+3)"],
        ["chow", node],
        ["--help"],
        ["symbol", "--tag", "gm", "--psi", "t", "--f", "t-3", "--point=7/3", "--format", "json"],
        ["analyze", node],
        [],
        ["frobnicate", node],
        *([command, "-h"] for command in ("analyze", "chow", "symbol", "verify")),
        ["chow", node, *cycle, "--format", "xml"],
        ["chow", node, *cycle, "extra"],
        bogus,
        ["chow", node, *cycle, "--form", "json"],
        ["symbol", "--tag", "gm", "--psi", "t", "--f", "t-3", "--point", "-2"],
        ["chow", *cycle, "--", node],
        ["analyze", "--", node, "--format", "json"],
        ["--", "analyze", node],
        ["verify", "--trials", "0"],
    ]
    full_parses = []
    parse_args = cli._PARSER.parse_args
    monkeypatch.setattr(cli._PARSER, "parse_args", lambda a: full_parses.append(a) or parse_args(a))
    for argv in calls:
        got = _in_process(argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_COMMANDS", {})  # every call takes the full parse
            assert _in_process(argv) == got, argv
        fresh = subprocess.run(
            [sys.executable, "-m", "albx.cli", *argv],
            capture_output=True,
            text=True,
            env=dict(ENV, COLUMNS="80"),
        )
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    # the top-level parser's text, not the subparser's "albx chow: error: ..."
    assert _in_process(bogus) == (
        2,
        "",
        "usage: albx [-h] {analyze,chow,symbol,verify} ...\n"
        "albx: error: unrecognized arguments: --bogus\n",
    )
    # a call that names a command and leaves nothing over parses once
    full_parses.clear()
    assert _in_process(["analyze", node, "--format", "json"])[0] == 0
    assert _in_process(["chow", node, *cycle])[0] == 0
    assert full_parses == []


def test_import_leaves_verify_unloaded():
    """verify, and the fixtures and sampler it draws on, load only for
    `albx verify`: a CLI process compiles them only when it runs it."""
    probe = "import sys, albx.cli; print(*sys.modules, sep='\\n')"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=ENV, check=True
    )
    loaded = set(proc.stdout.splitlines())
    assert "albx.cli" in loaded
    assert not loaded & {"albx.verify", "albx.fixtures", "albx.sampling"}


# --- JSON output -----------------------------------------------------------------------

# quotes, backslashes, control characters, non-ASCII and astral characters
_JSON_CHARS = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "—", "€", "\U0001d54f", "a", "Z", "/", " ", ":"]


def _random_json(rng, depth):
    """A seeded payload of the types the commands print."""
    kind = rng.randrange(9 if depth < 4 else 5)
    if kind == 0:
        return "".join(rng.choice(_JSON_CHARS) for _ in range(rng.randint(0, 6)))
    if kind == 1:
        return rng.choice((1, -1)) * rng.getrandbits(rng.choice((1, 8, 64, 700)))
    if kind == 2:
        return rng.choice((True, False, None))
    if kind in (3, 4):
        return rng.choice(["", "x", "1/2", "-3/7"])
    size = rng.randint(0, 4)
    items = [_random_json(rng, depth + 1) for _ in range(size)]
    if kind == 5:
        return tuple(items)
    if kind == 6:
        return items
    return {"".join(rng.choice(_JSON_CHARS) for _ in range(rng.randint(0, 3))): x for x in items}


def test_json_writer_matches_json_dumps(capsys):
    rng = random.Random(21)
    seen = {"empty": 0, "nested": 0, "escaped": 0, "large int": 0}
    for _ in range(1200):
        payload = _random_json(rng, 0)
        expected = json.dumps(payload, sort_keys=True, indent=2)
        _write_json(payload)
        assert capsys.readouterr().out == expected + "\n"
        seen["empty"] += "[]" in expected or "{}" in expected
        seen["nested"] += "\n      " in expected
        seen["escaped"] += "\\" in expected
        seen["large int"] += any(len(w) > 100 for w in expected.split())
    assert min(seen.values()) >= 100, seen
    for bad in (1.5, F(1, 2), {1: 2}, {"a": {3}}):
        with pytest.raises(TypeError):
            _write_json(bad)


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


def test_verify_text_deterministic():
    args = ["verify", "--trials", "5", "--seed", "2"]
    code1, out1, err1 = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.endswith("PASS overall (8 suites)\n")
    assert err1.startswith("verify: ")


def test_verify_flags_corrupt_curve(curve_files):
    code, out, _ = run_cli(
        ["verify", curve_files["cusp_bad"], "--trials", "2", "--seed", "0"]
    )
    assert code == 1
    assert "FAIL validate" in out


def test_verify_inconclusive_on_fivefold_point(tmp_path):
    # the curve has units, but the sampler's factor pool finds none: that
    # is "could not test" (exit 3), not a violated property (exit 1)
    path = tmp_path / "fivefold.json"
    path.write_text(json.dumps(config_to_json(rfold(5))))
    args = ["verify", str(path), "--trials", "10", "--seed", "1"]
    code, out, _ = run_cli(args, timeout=60)
    assert code == 3
    assert "INCONCLUSIVE input_aj_kernel (0 checks) [input: no Cartier units" in out
    assert "FAIL" not in out and out.endswith("INCONCLUSIVE overall (12 suites)\n")
    code, out, _ = run_cli([*args, "--format", "json"], timeout=60)
    data = json.loads(out)
    assert code == 3 and data["status"] == "INCONCLUSIVE" and data["passed"] is False
    suite = next(r for r in data["suites"] if r["name"] == "input_aj_kernel")
    assert suite["status"] == "INCONCLUSIVE" and suite["passed"] is None


def test_verify_inconclusive_on_node_at_a_large_point(tmp_path):
    # the sampler splits each q - x over a coprime base instead of factoring
    # it; 10^50 + 7 - x for the pool's x is beyond quick factoring
    sp = SingularPoint("p", (Place("C0", 0), Place("C0", 10**50 + 7)))
    path = tmp_path / "node.json"
    path.write_text(json.dumps(config_to_json(CurveConfig(["C0"], [sp], 2))))
    code, out, _ = run_cli(["verify", str(path), "--trials", "10", "--seed", "1"], timeout=30)
    assert code == 3
    assert "INCONCLUSIVE input_aj_kernel (0 checks) [input: no Cartier units" in out
    assert "FAIL" not in out and out.endswith("INCONCLUSIVE overall (12 suites)\n")


def test_verify_rejects_bad_trials():
    code, _, _ = run_cli(["verify", "--trials", "0"])
    assert code == 2


def test_main_entry_direct(curve_files, capsys):
    assert main(["analyze", curve_files["node"]]) == 0
    captured = capsys.readouterr()
    assert "lattice rank: 1" in captured.out


def test_analyze_at_the_truncation_limit(tmp_path):
    # validate closes the cusp and the tacnode through 2c + 1 = 3, and the
    # kernels read the conductor columns and the dual graph, so N = 1024
    # costs about what N = 3 does
    n = MAX_TRUNCATION
    q = Place("C0", 0)
    gens = ((LaurentSeries.monomial(q, 2, 1, n),), (LaurentSeries.monomial(q, 3, 1, n),))
    curves = {
        "cusp": SingularPoint("p", (q,), "explicit", (1,), gens),
        "tacnode": tacnode_point("p", q, Place("C0", 1), n),
    }
    for name, sp in curves.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config_to_json(CurveConfig(["C0"], [sp], n))))
        code, out, _ = run_cli(["analyze", str(path)], timeout=20)
        assert code == 0
        assert f"truncation: {n}\nlattice rank: {int(name == 'tacnode')}\nlie dimension: 1\n" in out


def test_chow_does_not_read_the_truncation(tmp_path, capsys):
    # a point keeps its ring modulo the conductor, so raising N changes
    # nothing that chow prints
    outs = []
    for n in (3, MAX_TRUNCATION):
        sp = tacnode_point("p", Place("C0", 0), Place("C0", 1), n)
        path = tmp_path / f"tacnode{n}.json"
        path.write_text(json.dumps(config_to_json(CurveConfig(["C0"], [sp], n))))
        assert main(["chow", str(path), "--cycle", "C0:5=+1,C0:7=-1"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "equivalent: false" in outs[0]
