import os
from pathlib import Path
import random
from fractions import Fraction as F
import subprocess
import sys

import pytest

from oracles import (
    hnf_rows_reference,
    integer_kernel_reference,
    is_cartier_unit,
    l1_sweep_reference,
    lll_reduce_reference,
)

import albx
from albx import chow, fixtures, funcfield, sampling
from albx.chow import abel_jacobi, certify_cartier, div_C
from albx.curve import degree_per_component
from albx.errors import InputError
from albx.fixtures import modulus_curve, rfold
from albx.funcfield import INF, Place, RatFunc, leading_term, split_divisor
from albx.motive import albanese
from albx.sampling import (
    CartierUnitSampler,
    random_rational,
    random_split_ratfunc,
    random_zero_cycle,
)

# the subprocess imports the albx that these tests import
SRC = str(Path(albx.__file__).resolve().parents[1])
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.getenv("PYTHONPATH")))))


def test_random_rational_bounds():
    rng = random.Random(0)
    for _ in range(50):
        x = random_rational(rng, 7, nonzero=True)
        assert x != 0
        assert abs(x.numerator) <= 7 * 7 and x.denominator <= 7


def test_random_split_ratfunc_splits():
    rng = random.Random(1)
    for _ in range(20):
        f = random_split_ratfunc(rng)
        d = split_divisor(f)  # read off the kept factors
        # the same num/den without them goes through rational_roots
        assert d == split_divisor(RatFunc(f.num, f.den, f.component))
        assert max(f.num.degree, f.den.degree) <= 5
        if d:
            assert sum(d.values()) == 0


def test_random_zero_cycle(node):
    rng = random.Random(3)
    branch = node.branch_place_set()
    for _ in range(20):
        c = random_zero_cycle(node, rng)
        assert not any(degree_per_component(c).values())
        assert all(p not in branch for p in c.places())


# every curve of the unit_samplers fixture but 3[0]+2[1], whose draws reach
# degree 500 and take 60 ms each
UNIT_CURVES = [
    "node",
    "cusp",
    "tacnode",
    "triple",
    "fourfold",
    "2[0]+2[1]",
    "4[0]",
    "2[0]+2[1]+2[inf]",
    "2[0]+1[1/2]",
    "chain",
    "cycle",
]


def test_sampler_units_are_certified(unit_samplers):
    """draw certifies nothing: its constraint rows alone make each draw a unit."""
    rng = random.Random(4)
    for name in UNIT_CURVES:
        sampler = unit_samplers[name]
        cfg = sampler.config
        for _ in range(100):
            h = sampler.draw(rng)
            assert certify_cartier(h, cfg) is None, name
            # divisor avoids the singular fibers by construction
            for q in cfg.branch_places():
                assert leading_term(h[q.component], q)[0] == 0, name


def test_sampler_on_modulus_curve_with_rational_support():
    cfg = modulus_curve(
        [(Place("C0", F(1, 2)), 2), (Place("C0", 3), 1), (Place("C0", INF), 1)]
    )
    sampler = CartierUnitSampler(cfg)
    rng = random.Random(5)
    h = sampler.draw(rng)
    assert is_cartier_unit(h, cfg)


def test_sampler_jet_row_at_an_infinite_branch():
    # 2[0]+2[inf] puts a jet condition on the branch at infinity, whose
    # row holds powers of the pool coordinates
    cfg = modulus_curve([(Place("C0", 0), 2), (Place("C0", INF), 2)])
    sampler = CartierUnitSampler(cfg)
    for b in sampler.basis:
        factors = [(x, e) for (_, x), e in zip(sampler.columns, b) if e]
        assert is_cartier_unit({"C0": RatFunc.from_factors(factors)}, cfg), b
    alb = albanese(cfg)
    rng = random.Random(12)
    for _ in range(10):
        h = sampler.draw(rng)
        assert certify_cartier(h, cfg) is None
        assert abel_jacobi(div_C(h, cfg), cfg, alb).is_identity()


def _modulus(*points):
    return modulus_curve([(Place("C0", c), n) for c, n in points])


def test_sampler_build_loop_decisions():
    """Pool columns, basis L1 norms and degree cap where each rule of the
    three-round build loop decides; each line was measured on the loop
    that kept its rounds through self.columns."""
    cases = [
        # MIN_KERNEL vectors within LENGTH_BUDGET at round 1, 2 and 3
        (fixtures.node(), 12, [4, 4, 4, 4, 4], 80),
        (fixtures.tacnode(), 28, [14, 16, 22, 24], 80),
        (rfold(4), 80, [8, 8, 8, 8, 8, 10, 10, 10], 80),
        # within 2 LENGTH_BUDGET only: four of eight at round 2, all at round 3
        (_modulus((0, 2), (F(1, 2), 1)), 26, [24, 34, 38, 44], 96),
        (_modulus((F(1, 2), 2), (3, 1), (INF, 1)), 68, [28, 32, 34, 42, 44, 44, 46, 48], 104),
        # no round has enough: round 2 has the best score, ahead of round 3
        (_modulus((0, 3), (1, 2)), 30, [118, 124, 130, 148, 158, 180, 294, 510], 1028),
    ]
    for cfg, ncols, norms, cap in cases:
        sampler = CartierUnitSampler(cfg)
        got = len(sampler.columns), [sampling._l1(b) for b in sampler.basis]
        assert (*got, sampler.max_unit_degree) == (ncols, norms, cap)
    # every round's kernel is empty on the ordinary 5-fold point
    with pytest.raises(InputError, match="no Cartier units available"):
        CartierUnitSampler(rfold(5))


def test_sampler_draws_vary(node):
    rng = random.Random(6)
    sampler = CartierUnitSampler(node)
    seen = {
        tuple((c, f.num, f.den) for c, f in sorted(d.items()))
        for d in (sampler.draw(rng) for _ in range(10))
    }
    assert len(seen) >= 8


def _sampler_record(cfg):
    sampler = CartierUnitSampler(cfg)
    rng = random.Random(8)
    draws = [sorted(sampler.draw(rng).items()) for _ in range(3)]
    return sampler.columns, sampler.basis, sampler.max_unit_degree, draws


def test_sampler_matches_reference_path(whole_zoo, monkeypatch):
    """The sparse kernel and Hermite eliminations, integral LLL and the
    pruned sweep build the sampler that the dense one-pass eliminations,
    LLL over Fraction and the unpruned sweep build: same columns, basis,
    degree cap and draws."""
    curves = list(whole_zoo.values())
    for points in (
        [(0, 2), (1, 2)],
        [(0, 4)],
        [(2, 4)],
        [(0, 2), (INF, 2)],
        [(0, 2), (1, 1), (INF, 1)],
    ):
        curves.append(modulus_curve([(Place("C0", c), n) for c, n in points]))
    fast = [_sampler_record(cfg) for cfg in curves]
    monkeypatch.setattr(sampling, "integer_kernel_basis", integer_kernel_reference)
    monkeypatch.setattr(sampling, "hnf_rows", hnf_rows_reference)
    monkeypatch.setattr(sampling, "lll_reduce", lll_reduce_reference)
    monkeypatch.setattr(sampling, "_l1_sweep", l1_sweep_reference)
    assert fast == [_sampler_record(cfg) for cfg in curves]


def test_l1_sweep_matches_unpruned():
    """The pruned sweep takes the unpruned sweep's steps, on dense
    vectors up to 10 wide and on vectors up to 80 wide with most entries
    zero, where supports overlap in part or not at all."""
    rng = random.Random(10)
    seen = {"disjoint pair": 0, "partial overlap": 0}
    for case in range(600):
        sparse = case % 2
        n, m = rng.randint(1, 16 if sparse else 8), rng.randint(1, 80 if sparse else 10)
        h = rng.choice((1, 3, 20))
        zeros = rng.choice((0.6, 0.8, 0.95)) if sparse else 0
        basis = [[0 if rng.random() < zeros else rng.randint(-h, h) for _ in range(m)] for _ in range(n)]
        basis = [v for v in basis if any(v)]
        supports = [{k for k, x in enumerate(v) if x} for v in basis]
        pairs = [(s, t) for s in supports for t in supports if s is not t]
        seen["disjoint pair"] += any(s.isdisjoint(t) for s, t in pairs)
        seen["partial overlap"] += any(s & t and s != t for s, t in pairs)
        want = l1_sweep_reference([list(v) for v in basis])
        assert sampling._l1_sweep(basis) == want
    assert min(seen.values()) >= 100, seen


def test_criterion_4_path_finds_no_roots(whole_zoo, monkeypatch):
    """draw -> div_C -> abel_jacobi reads each sampled unit's divisor off
    its kept factors, certifies it once, and expands no branch past its
    conductor there."""

    def no_roots(poly):
        raise RuntimeError(f"rational_roots called on {poly!r}")

    def through_conductor(f, p, n=None):
        if n is not None and n > conductor[p]:
            raise RuntimeError(f"expansion at {p!r} asked through {n}")
        return local(f, p, n)

    def counted(funcs, cfg):
        certified.append(cfg)
        return certify(funcs, cfg)

    local, certify = chow._local, chow.certify_cartier
    conductor, certified = {}, []
    monkeypatch.setattr(funcfield, "rational_roots", no_roots)
    monkeypatch.setattr(chow, "_local", through_conductor)
    monkeypatch.setattr(chow, "certify_cartier", counted)
    rng = random.Random(16)
    for name, cfg in whole_zoo.items():
        conductor.clear()
        for sp in cfg.singular_points:
            conductor.update(zip(sp.branches, sp.conductors))
        sampler, alb = CartierUnitSampler(cfg), albanese(cfg)
        certified.clear()
        for _ in range(5):
            h = sampler.draw(rng)
            assert abel_jacobi(div_C(h, cfg), cfg, alb).is_identity(), name
        assert len(certified) == 5, name


def test_criterion_4_path_builds_no_dense_unit(whole_zoo, monkeypatch):
    """draw -> div_C -> abel_jacobi multiplies no sampled unit out: at the
    ordinary points nothing is built dense, and on the cusp and the tacnode
    only the interpolants that the Lie coordinates read."""

    def no_dense(*factors):
        raise RuntimeError(f"dense build of {factors!r}")

    def recorded(*factors):
        built.append(factors)
        return multiply_out(*factors)

    def interpolant(cycle, component):
        f = interpolate(cycle, component)
        interpolants.append(f.factors)
        return f

    multiply_out, interpolate = funcfield._multiply_out, chow.interpolate_divisor
    built, interpolants = [], []
    monkeypatch.setattr(chow, "interpolate_divisor", interpolant)
    rng = random.Random(19)
    for name, cfg in whole_zoo.items():
        lie = name in ("cusp", "tacnode")
        monkeypatch.setattr(funcfield, "_multiply_out", recorded if lie else no_dense)
        sampler, alb = CartierUnitSampler(cfg), albanese(cfg)
        built.clear()
        interpolants.clear()
        for _ in range(10):
            h = sampler.draw(rng)
            assert abel_jacobi(div_C(h, cfg), cfg, alb).is_identity(), name
        assert len(built) == (10 if lie else 0) == len(interpolants), name
        # the roots tuple is passed on as it is kept, so identity tells them apart
        assert all(any(b[1] is f[1] for f in interpolants) for b in built), name


def set_slots(obj):
    """The slots of obj that are set, read past __getattr__; obj has no
    __dict__."""
    assert not hasattr(obj, "__dict__")
    names = {n for cls in type(obj).__mro__ for n in vars(cls).get("__slots__", ())}
    out = set()
    for n in names:
        try:
            object.__getattribute__(obj, n)
        except AttributeError:
            continue
        out.add(n)
    return out


def test_criterion_4_path_keeps_nothing_extra(whole_zoo):
    """A caller that keeps every unit, cycle and point it is given (the
    benchmark does) pays for each byte cached on them once per op: after
    draw -> div_C -> abel_jacobi, and the reads of repr and hash, each value
    holds only the slots that define it, and the sampler gains nothing."""
    rng = random.Random(2602)
    for name, cfg in whole_zoo.items():
        sampler, alb = CartierUnitSampler(cfg), albanese(cfg)
        before = dict(vars(sampler))
        for _ in range(5):
            unit = sampler.draw(rng)
            cycle = div_C(unit, cfg)
            point = abel_jacobi(cycle, cfg, alb)
            repr((unit, cycle, point)), hash(cycle), hash(point)
            for f in unit.values():
                assert set_slots(f) == {"component", "factors"}, name
            assert set_slots(cycle) == {"_coeffs"}, name
            for p in cycle.places():
                assert set_slots(p) == {"component", "coordinate", "_hash"}, name
            assert set_slots(point) == {"torus", "vectorial"}, name
        assert vars(sampler).keys() == before.keys(), name
        assert all(vars(sampler)[k] is v for k, v in before.items()), name


def test_two_tacnode_chain_builds():
    """Two lines glued by two tacnodes: the build runs all three pool rounds,
    of 40, 80 and 160 columns, and keeps the first round's basis, the one
    that one Hermite pass over all the rows gives (in minutes, not
    seconds)."""
    code = (
        "from albx import fixtures, sampling\n"
        "s = sampling.CartierUnitSampler(fixtures.line_chain(2, ['tacnode', 'tacnode']))\n"
        "print([sum(map(abs, b)) for b in s.basis], len(s.columns))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=ENV
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[28, 32, 84, 84, 90, 96, 98, 100] 40\n"
