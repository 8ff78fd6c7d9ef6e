"""Cross-module invariant suites behind the verify command.

Each suite runs a batch of exact checks (seeded where random inputs are
involved) and reports a status plus counters.  Everything asserted
here is an identity, not an approximation, so a single failing instance
fails the suite.  A suite that could not produce its inputs (no Cartier
unit could be sampled) is INCONCLUSIVE, not FAIL: no property was seen
to break.
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
from .curve import degree_per_component, validate
from .errors import InputError, ValidationError
from .fixtures import line_chain, modulus_curve, zoo
from .funcfield import (
    INF,
    LaurentSeries,
    Place,
    RatFunc,
    dlog,
    expand_at,
    leading_term,
    residue,
    split_divisor,
)
from .infdiv import divisor_group, residue_pairing
from .linalg import rational_kernel_basis
from .motive import albanese
from .sampling import (
    CartierUnitSampler,
    random_rational,
    random_split_ratfunc,
    random_zero_cycle,
)
from .symbols import reciprocity_check, symbol_law


class SuiteResult:
    """passed is True, False (a property failed) or None (could not test)."""

    def __init__(self, name, passed, checks, detail=""):
        self.name = name
        self.passed = None if passed is None else bool(passed)
        self.checks = int(checks)
        self.detail = detail

    @property
    def status(self):
        return {True: "PASS", False: "FAIL", None: "INCONCLUSIVE"}[self.passed]

    def to_json(self):
        out = {
            "name": self.name,
            "passed": self.passed,
            "status": self.status,
            "checks": self.checks,
        }
        if self.detail:
            out["detail"] = self.detail
        return out


def suite_series(trials, seed):
    """Function-field identities: kept divisors against the root finder, dlog
    residues, morphisms."""
    rng = random.Random(seed)
    checks = 0
    for _ in range(trials):
        f = random_split_ratfunc(rng)
        support = split_divisor(f)  # read off the kept factors
        if support != split_divisor(RatFunc(f.num, f.den, f.component)):
            return SuiteResult("series", False, checks, "kept divisor differs from the roots")
        checks += 1
        places = list(support) + [Place("C0", INF), Place("C0", Fraction(rng.randint(-5, 5)))]
        for p in places:
            if residue(dlog(f, p, 1)) != leading_term(f, p)[0]:
                return SuiteResult("series", False, checks, f"dlog residue at {p!r}")
            checks += 1
        g = random_split_ratfunc(rng)
        p = Place("C0", Fraction(rng.randint(6, 12)))
        a, b = expand_at(f, p, 6), expand_at(g, p, 6)
        # a * b is known through 6 plus the lower of the two orders, at
        # most 7 (the zeros and poles are simple); the difference keeps
        # only the exponents both sides know
        if (a * b - expand_at(f * g, p, 7)).coeffs:
            return SuiteResult("series", False, checks, "expansion not multiplicative")
        checks += 1
    return SuiteResult("series", True, checks)


def suite_pairing():
    """Residue pairing matrices are invertible up to order 6."""
    checks = 0
    place = Place("C0", 0)
    for nu in range(1, 7):
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
        psi, f = random_split_ratfunc(rng), random_split_ratfunc(rng)
        for tag in ("gm", "ga"):
            _, aggregate = reciprocity_check(psi, f, tag)
            if aggregate != symbol_law(tag)[1]:
                detail = f"reciprocity violated for tag {tag}: aggregate {aggregate}"
                return SuiteResult("reciprocity", False, checks, detail)
        checks += 2
    return SuiteResult("reciprocity", True, checks)


def _random_modulus(rng):
    """Seeded modulus on C0: one to four places, infinity among them at times."""
    npts = rng.randint(1, 4)
    coords = set()
    while len(coords) < npts:
        if rng.random() < 0.2:
            coords.add(INF)
        else:
            coords.add(random_rational(rng, 6))
    return [(Place("C0", c), rng.randint(1, 4)) for c in sorted(coords, key=str)]


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
        points = _random_modulus(rng)
        g = divisor_group(modulus_curve(points))
        want_rank = len(points) - 1
        want_dim = sum(n - 1 for _, n in points)
        if (g.rank, g.dim) != (want_rank, want_dim):
            return SuiteResult(
                "kernels", False, checks, f"modulus {points}: {(g.rank, g.dim)}"
            )
        checks += 1
    return SuiteResult("kernels", True, checks)


def genus_defect(config, formal):
    """How formal breaks the genus formula of a validated config; "" if it holds.

    Both sides are counted without the kernels (Serre, Algebraic Groups
    and Class Fields, ch. IV-V).  The lattice rank is b1 of the dual
    graph, whose vertices are the components and singular points and
    whose edges are the branches.  The Lie dimension is the sum over
    singular points p of sum c_q - rank m_p, the jets u^1..u^(c_q) on
    the branches q of p that the maximal ideal m_p misses modulo the
    conductor.  The lattice is built
    from b1 fundamental cycles, so its rank alone shows little; every
    lattice vector must also have degree 0 on each component and sum to
    0 over each singular point's fiber.
    """
    linked = {c: {c} for c in config.components}  # components joined so far
    for sp in config.singular_points:
        joined = set().union(*(linked[q.component] for q in sp.branches))
        linked.update(dict.fromkeys(joined, joined))
    connected = len({min(group) for group in linked.values()})
    branches = sum(len(sp.branches) for sp in config.singular_points)
    b1 = branches - len(config.singular_points) - len(config.components) + connected
    gaps = sum(
        sum(sp.conductors) - config.mhat_span(sp.name).rank for sp in config.singular_points
    )
    defects = []
    for d in formal.etale_basis:
        fibers = [sum(d.coeff(q) for q in sp.branches) for sp in config.singular_points]
        if any(degree_per_component(d).values()) or any(fibers):
            defects.append(f"lattice vector {d!r} not killed by the degree and fiber rows")
            break
    if formal.rank != b1:
        defects.append(f"lattice rank {formal.rank}, b1 {b1}")
    if formal.dim != gaps:
        defects.append(f"lie dimension {formal.dim}, jet gaps {gaps}")
    return "; ".join(defects)


def suite_duality(trials, seed):
    """The dual motive's torus rank and vector dimension obey the genus
    formula on the zoo, seeded moduli, and seeded chains and cycles of lines."""
    rng = random.Random(seed)
    curves = list(zoo().items())
    for _ in range(trials):
        points = _random_modulus(rng)
        curves.append((f"modulus {points}", modulus_curve(points)))
        for cycle in (0, 1):
            k = rng.randint(1, 5)
            kinds = [rng.choice(("ordinary", "tacnode")) for _ in range(k - 1 + cycle)]
            curves.append((f"{k} lines glued {kinds}", line_chain(k, kinds)))
    checks = 0
    for name, cfg in curves:
        defect = genus_defect(cfg, divisor_group(cfg))
        if defect:
            return SuiteResult("duality", False, checks, f"{name}: {defect}")
        checks += 1
    return SuiteResult("duality", True, checks)


def suite_aj_kernel(trials, seed, configs=None):
    """Divisors of Cartier units map to the identity of the receptor;
    inconclusive when the sampler cannot build or draw a unit."""
    rng = random.Random(seed)
    checks = 0
    items = configs if configs is not None else list(zoo().items())
    for name, cfg in items:
        alb = albanese(cfg)
        try:
            sampler = CartierUnitSampler(cfg)
        except InputError as exc:
            return SuiteResult("aj_kernel", None, checks, f"{name}: {exc}")
        for _ in range(trials):
            try:
                h = sampler.draw(rng)
            except InputError as exc:
                return SuiteResult("aj_kernel", None, checks, f"{name}: {exc}")
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
            if albanese_pairing(funcs, alb) != albanese_pairing(scaled, alb):
                return SuiteResult("scaling", False, checks, name)
            if abel_jacobi(cycle, cfg, alb) != albanese_pairing(scaled, alb):
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
            jets = [(expand_at(f, q, n), n) for q, n in points]
            if any(s.lead_bound() != 0 for s, _ in jets):
                continue  # a zero or pole on the support
            cycle = ZeroCycle(split_divisor(f))
            aj = albanese_pairing({"C0": f}, alb)
            # congruence test: equal values across the support and jets
            # vanishing below each multiplicity
            congruent = len({s.coefficient(0) for s, _ in jets}) == 1 and not any(
                s.coefficient(e) for s, n in jets for e in range(1, n)
            )
            verdict = rationally_equivalent(cycle, cfg, alb)
            if verdict != congruent or verdict != aj.is_identity():
                return SuiteResult(
                    "modulus_equivalence", False, checks, f"{points}: f={f!r}"
                )
            checks += 1
    return SuiteResult("modulus_equivalence", True, checks)


def suite_config(config, trials, seed):
    """Config-specific checks: validation, unit kernel, scaling, genus formula."""
    try:
        cfg = validate(config)
    except ValidationError as exc:
        return [SuiteResult("validate", False, 1, str(exc))]
    results = [SuiteResult("validate", True, 1)]
    for suite in (suite_aj_kernel, suite_scaling):
        r = suite(max(1, trials // 10), seed, [("input", cfg)])
        r.name = "input_" + r.name
        results.append(r)
    defect = genus_defect(cfg, divisor_group(cfg))
    results.append(SuiteResult("input_duality", not defect, 1, defect))
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
