import pytest

from albx.curve import CurveConfig, Divisor, SingularPoint
from albx.fixtures import cusp, line_chain
from albx.funcfield import LaurentSeries, Place
from albx.infdiv import FormalGroupData, divisor_group
from albx.verify import (
    genus_defect,
    run_verify,
    suite_aj_kernel,
    suite_config,
    suite_duality,
    suite_kernels,
    suite_modulus_equivalence,
    suite_pairing,
    suite_reciprocity,
    suite_scaling,
    suite_series,
)


def test_individual_suites_pass():
    assert suite_series(3, 0).passed
    assert suite_pairing().passed
    assert suite_reciprocity(5, 0).passed
    assert suite_kernels(3, 0).passed
    assert suite_duality(5, 0).passed
    assert suite_aj_kernel(2, 0).passed
    assert suite_scaling(2, 0).passed
    assert suite_modulus_equivalence(10, 0).passed


def test_run_verify_all_green():
    results, elapsed = run_verify(trials=10, seed=3)
    assert all(r.passed for r in results)
    assert {r.name for r in results} >= {
        "series",
        "pairing",
        "reciprocity",
        "kernels",
        "duality",
        "aj_kernel",
        "scaling",
        "modulus_equivalence",
    }
    assert elapsed < 120


def test_suite_results_are_deterministic():
    a, _ = run_verify(trials=8, seed=5)
    b, _ = run_verify(trials=8, seed=5)
    assert [(r.name, r.passed, r.checks) for r in a] == [
        (r.name, r.passed, r.checks) for r in b
    ]


def test_suite_config_reports_validation_failure():
    q = Place("C0", 0)
    gens = (
        (LaurentSeries.monomial(q, 2, 1, 3),),
        (LaurentSeries.monomial(q, 3, 1, 3),),
    )
    bad = CurveConfig(
        ["C0"], [SingularPoint("p", (q,), "explicit", (0,), gens)], 3
    )
    results = suite_config(bad, trials=2, seed=0)
    assert len(results) == 1 and not results[0].passed


def test_suite_config_on_valid_curve():
    results = suite_config(cusp(), trials=10, seed=0)
    assert all(r.passed for r in results)
    assert [r.name for r in results] == [
        "validate",
        "input_aj_kernel",
        "input_scaling",
        "input_duality",
    ]


def test_genus_check_fails_on_a_dropped_basis_vector(whole_zoo):
    dropped = 0
    for name, cfg in whole_zoo.items():
        g = divisor_group(cfg)
        assert genus_defect(cfg, g) == "", name
        if g.dim:
            short = FormalGroupData(g.etale_basis, g.lie_basis[:-1])
            assert "lie dimension" in genus_defect(cfg, short), name
            dropped += 1
        if g.rank:
            short = FormalGroupData(g.etale_basis[:-1], g.lie_basis)
            assert "lattice rank" in genus_defect(cfg, short), name
            # one flipped sign keeps the rank but leaves the lattice
            (q, m), *rest = g.etale_basis[0].items()
            flipped = FormalGroupData((Divisor([(q, -m), *rest]), *g.etale_basis[1:]), g.lie_basis)
            assert "not killed by the degree and fiber rows" in genus_defect(cfg, flipped), name
            dropped += 2
    assert dropped == 10  # cusp and tacnode Lie parts, four lattices twice


def test_genus_formula_on_chains_and_cycles():
    for k, kinds, shape in (
        (1, [], (0, 0)),
        (1, ["ordinary"], (1, 0)),
        (1, ["tacnode"], (1, 1)),
        (3, ["ordinary", "tacnode"], (0, 1)),
        (3, ["tacnode", "ordinary", "tacnode"], (1, 2)),
    ):
        cfg = line_chain(k, kinds)
        g = divisor_group(cfg)
        assert (g.rank, g.dim) == shape, kinds
        assert genus_defect(cfg, g) == ""
