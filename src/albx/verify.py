"""Cross-module invariant suites behind the verify command.

Each suite runs a batch of exact checks (seeded where random inputs are
involved) and reports a pass flag plus counters.  Everything asserted
here is an identity, not an approximation, so a single failing instance
fails the suite.
"""

from fractions import Fraction
import random
import time

from .chow import (
    ZeroCycle,
    abel_jacobi,
    albanese_pairing,
    div_C,
    interpolate_divisor,
    rationally_equivalent,
)
from .curve import Divisor, validate
from .errors import AlbxError, ValidationError
from .fixtures import modulus_curve, zoo
from .funcfield import INF, LaurentSeries, Place, dlog, expand_at, residue, split_divisor, val_at
from .infdiv import FormalGroupData, InfinitesimalDivisor, divisor_group, residue_pairing
from .linalg import rational_kernel_basis
from .motive import OneMotive, albanese, double_dual_check, one_motive
from .sampling import (
    CartierUnitSampler,
    random_rational,
    random_split_pair,
    random_split_ratfunc,
    random_zero_cycle,
)
from .symbols import reciprocity_check


class SuiteResult:
    def __init__(self, name, passed, checks, detail=""):
        self.name = name
        self.passed = bool(passed)
        self.checks = int(checks)
        self.detail = detail

    def to_json(self):
        out = {"name": self.name, "passed": self.passed, "checks": self.checks}
        if self.detail:
            out["detail"] = self.detail
        return out


def suite_series(trials, seed):
    """Function-field identities: valuation sums, dlog residues, morphisms."""
    rng = random.Random(seed)
    checks = 0
    for _ in range(trials):
        f = random_split_ratfunc(rng)
        support = split_divisor(f)
        if sum(support.values()) != 0:
            return SuiteResult("series", False, checks, "divisor degree nonzero")
        checks += 1
        places = list(support) + [Place("C0", INF), Place("C0", Fraction(rng.randint(-5, 5)))]
        for p in places:
            if residue(dlog(f, p, 1)) != val_at(f, p):
                return SuiteResult("series", False, checks, f"dlog residue at {p!r}")
            checks += 1
        g = random_split_ratfunc(rng)
        p = Place("C0", Fraction(rng.randint(6, 12)))
        a, b = expand_at(f, p, 6), expand_at(g, p, 6)
        prod = a * b
        if prod.coeffs != expand_at(f * g, p, prod.truncation).coeffs:
            return SuiteResult("series", False, checks, "expansion not multiplicative")
        checks += 1
        u = LaurentSeries(p, 6, {1: random_rational(rng, 6, nonzero=True), 2: random_rational(rng, 6)})
        if (u.exp() - 1).log1p().coeffs != u.coeffs:
            return SuiteResult("series", False, checks, "exp/log not inverse")
        checks += 1
    return SuiteResult("series", True, checks)


def suite_pairing(order=6):
    """Residue pairing matrices are invertible up to the given order."""
    checks = 0
    place = Place("C0", 0)
    for nu in range(1, order + 1):
        rows = []
        for i in range(1, nu + 1):
            f = LaurentSeries(place, -1, {-i: 1})
            rows.append(
                [residue_pairing(f, LaurentSeries(place, nu, {j: 1})) for j in range(1, nu + 1)]
            )
        if rational_kernel_basis(rows, nu):
            return SuiteResult("pairing", False, checks, f"singular at order {nu}")
        checks += 1
    return SuiteResult("pairing", True, checks)


def suite_reciprocity(trials, seed):
    """Sum/product of local symbols over all places is the identity."""
    rng = random.Random(seed)
    checks = 0
    for _ in range(trials):
        psi, f = random_split_pair(rng)
        try:
            reciprocity_check(psi, f, "gm")
            reciprocity_check(psi, f, "ga")
        except ArithmeticError as exc:
            return SuiteResult("reciprocity", False, checks, str(exc))
        checks += 2
    return SuiteResult("reciprocity", True, checks)


def suite_kernels(trials, seed):
    """Formal group shapes of the zoo and the modulus dimension formula."""
    rng = random.Random(seed)
    expected = {
        "node": (1, 0),
        "cusp": (0, 1),
        "tacnode": (1, 1),
        "triple": (2, 0),
        "fourfold": (3, 0),
    }
    checks = 0
    for name, cfg in zoo().items():
        g = divisor_group(cfg)
        if (g.rank, g.dim) != expected[name]:
            return SuiteResult("kernels", False, checks, f"{name}: {(g.rank, g.dim)}")
        checks += 1
    for _ in range(trials):
        npts = rng.randint(1, 4)
        coords = set()
        while len(coords) < npts:
            if rng.random() < 0.2:
                coords.add(INF)
            else:
                coords.add(random_rational(rng, 6))
        points = [(Place("C0", c), rng.randint(1, 4)) for c in sorted(coords, key=str)]
        cfg = modulus_curve(points)
        g = divisor_group(cfg)
        want_rank = len(points) - 1
        want_dim = sum(n - 1 for _, n in points)
        if (g.rank, g.dim) != (want_rank, want_dim):
            return SuiteResult(
                "kernels", False, checks, f"modulus {points}: {(g.rank, g.dim)}"
            )
        checks += 1
    return SuiteResult("kernels", True, checks)


def _synthetic_motive(rng, tmax=5, vmax=5):
    t = rng.randint(0, tmax)
    v = rng.randint(0, vmax)
    places = [Place("C0", k) for k in range(t + 1)]
    etale = tuple(
        Divisor({places[i + 1]: 1, places[0]: -1}) for i in range(t)
    )
    lie = tuple(
        InfinitesimalDivisor(
            {
                Place("C0", 100 + i): LaurentSeries(
                    Place("C0", 100 + i), -1, {-1: random_rational(rng, 5, nonzero=True)}
                )
            }
        )
        for i in range(v)
    )
    return OneMotive(FormalGroupData(etale, lie))


def suite_duality(trials, seed):
    """Double dual is the identity on zoo motives and random shapes."""
    rng = random.Random(seed)
    checks = 0
    for name, cfg in zoo().items():
        if not double_dual_check(one_motive(cfg)):
            return SuiteResult("duality", False, checks, name)
        checks += 1
    for _ in range(trials):
        if not double_dual_check(_synthetic_motive(rng)):
            return SuiteResult("duality", False, checks, "synthetic motive")
        checks += 1
    return SuiteResult("duality", True, checks)


def suite_aj_kernel(trials, seed, configs=None):
    """Divisors of Cartier units map to the identity of the receptor."""
    rng = random.Random(seed)
    checks = 0
    items = configs if configs is not None else list(zoo().items())
    for name, cfg in items:
        alb = albanese(cfg)
        try:
            sampler = CartierUnitSampler(cfg)
        except AlbxError as exc:
            return SuiteResult("aj_kernel", False, checks, f"{name}: {exc}")
        for _ in range(trials):
            h = sampler.draw(rng)
            point = abel_jacobi(div_C(h, cfg), cfg, alb)
            if not point.is_identity():
                return SuiteResult("aj_kernel", False, checks, f"{name}: {point!r}")
            checks += 1
    return SuiteResult("aj_kernel", True, checks)


def suite_scaling(trials, seed, configs=None):
    """Rescaling the interpolant leaves every coordinate unchanged."""
    rng = random.Random(seed)
    checks = 0
    items = configs if configs is not None else list(zoo().items())
    for name, cfg in items:
        alb = albanese(cfg)
        for _ in range(trials):
            cycle = random_zero_cycle(cfg, rng)
            funcs = {
                comp: interpolate_divisor(cycle, comp) for comp in cfg.components
            }
            scaled = {
                comp: f * random_rational(rng, 9, nonzero=True)
                for comp, f in funcs.items()
            }
            if albanese_pairing(funcs, cfg, alb) != albanese_pairing(scaled, cfg, alb):
                return SuiteResult("scaling", False, checks, name)
            if abel_jacobi(cycle, cfg, alb) != albanese_pairing(scaled, cfg, alb):
                return SuiteResult("scaling", False, checks, f"{name}: interpolation")
            checks += 1
    return SuiteResult("scaling", True, checks)


def suite_modulus_equivalence(trials, seed):
    """On modulus curves, divisors of units are trivial iff f is congruent
    to a constant along the modulus."""
    rng = random.Random(seed)
    checks = 0
    for _ in range(max(1, trials // 5)):
        npts = rng.randint(1, 3)
        coords = rng.sample(range(0, 7), npts)
        points = [(Place("C0", c), rng.randint(1, 3)) for c in coords]
        cfg = modulus_curve(points)
        alb = albanese(cfg)
        for _ in range(5):
            f = random_split_ratfunc(rng, max_factors=4, height=9)
            if any(val_at(f, q) != 0 for q, _ in points):
                continue
            cycle = ZeroCycle(split_divisor(f))
            aj = albanese_pairing({"C0": f}, cfg, alb)
            # congruence test: equal values across the support and jets
            # vanishing below each multiplicity
            values = {q: expand_at(f, q, max(n for _, n in points)) for q, n in points}
            base = None
            congruent = True
            for (q, n) in points:
                series = values[q]
                v0 = series.coefficient(0)
                if base is None:
                    base = v0
                elif v0 != base:
                    congruent = False
                for e in range(1, n):
                    if series.coefficient(e) != 0:
                        congruent = False
            verdict = rationally_equivalent(cycle, cfg, alb)
            if verdict != congruent or verdict != aj.is_identity():
                return SuiteResult(
                    "modulus_equivalence", False, checks, f"{points}: f={f!r}"
                )
            checks += 1
    return SuiteResult("modulus_equivalence", True, checks)


def suite_config(config, trials, seed):
    """Config-specific checks: validation, unit kernel, scaling."""
    try:
        cfg = validate(config)
    except ValidationError as exc:
        return [SuiteResult("validate", False, 1, str(exc))]
    results = [SuiteResult("validate", True, 1)]
    for suite in (suite_aj_kernel, suite_scaling):
        r = suite(max(1, trials // 10), seed, [("input", cfg)])
        r.name = "input_" + r.name
        results.append(r)
    return results


def run_verify(config=None, trials=100, seed=0):
    """All suites; returns (results, elapsed_seconds)."""
    t0 = time.perf_counter()
    results = [
        suite_series(max(1, trials // 10), seed),
        suite_pairing(),
        suite_reciprocity(trials, seed),
        suite_kernels(max(1, trials // 5), seed),
        suite_duality(trials, seed),
        suite_aj_kernel(max(1, trials // 10), seed),
        suite_scaling(max(1, trials // 10), seed),
        suite_modulus_equivalence(trials, seed),
    ]
    if config is not None:
        results.extend(suite_config(config, trials, seed))
    return results, time.perf_counter() - t0
