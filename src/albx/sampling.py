"""Seeded random inputs for the property suites.

The interesting generator is the Cartier unit sampler.  Units along the
singular locus of a configuration are products of linear factors whose
exponent vectors satisfy finitely many constraints: degree zero per
component, vanishing log-derivative jets up to the conductor at every
branch, and matching values across the branches of each singular point.
Jet constraints are rational-linear in the exponents; value matching
becomes integer-linear after passing to valuations (every factor
is chosen below the branch coordinates, so all the evaluated
differences are positive and no sign condition is left).  The numerators
and denominators of every q - x, over the branches q of a point with two
or more branches and the pool factors t - x, are split over one coprime
base by gcd refinement (Bernstein, J. Algorithms 54, 2005), so no
integer is factored; a value row is the difference of two branches'
exponents of one base element.  Each prime divides exactly one base
element, so the prime rows would be multiples of these and have the same
integer kernel.  The sampler computes the integer kernel of the
constraint matrix in two steps, the few-bit degree and value rows
first and then the jet rows on that kernel's coordinates, size reduces
it, and draws random small combinations, which the rows alone make
units: degree zero leaves f = 1 at a branch at infinity, q - x > 0
leaves no zero or pole at a finite branch q, the value rows make the
values agree, and the jet rows make the centered jets vanish through
each conductor, past which validate proves the ideal holds every
power.  So a draw is not certified; div_C is.  A build tries up to
three pool sizes and keeps the first with MIN_KERNEL vectors within
LENGTH_BUDGET or twice that, else the best-scored one.
"""

from fractions import Fraction
import math
import operator

from .chow import ZeroCycle
from .curve import validate
from .errors import InputError
from .funcfield import Place, RatFunc
from .linalg import clear_denominators, hnf_rows, integer_kernel_basis, lll_reduce


def random_rational(rng, height=10, nonzero=False):
    while True:
        x = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if x or not nonzero:
            return x


def random_split_ratfunc(rng, max_factors=5, height=10):
    """Nonzero scalar times a product of distinct linear factors, exponents +-1."""
    k = rng.randint(1, max_factors)
    roots = set()
    while len(roots) < k:
        roots.add(random_rational(rng, height))
    factors = [(a, rng.choice((1, -1))) for a in sorted(roots)]
    scale = random_rational(rng, height, nonzero=True)
    return RatFunc.from_factors(factors, scale=scale)


# random_zero_cycle puts 2 to CYCLE_POINTS points of height at most
# CYCLE_HEIGHT on each component.
CYCLE_POINTS = 4
CYCLE_HEIGHT = 12


def random_zero_cycle(config, rng):
    """Random degree-0 cycle per component, avoiding the branch places."""
    branch = config.branch_place_set()
    out = {}
    for comp in config.components:
        k = rng.randint(2, CYCLE_POINTS)
        coords = set()
        while len(coords) < k:
            a = random_rational(rng, CYCLE_HEIGHT)
            if Place(comp, a) not in branch:
                coords.add(a)
        coords = sorted(coords)
        coeffs = [rng.randint(-3, 3) for _ in coords]
        coeffs[-1] -= sum(coeffs)
        for a, m in zip(coords, coeffs):
            out[Place(comp, a)] = m  # ZeroCycle drops the zeros
    return ZeroCycle(out)


# A build wants MIN_KERNEL kernel vectors of L1 norm at most LENGTH_BUDGET
# (or twice that); draw tries DRAW_ATTEMPTS combinations before giving up.
MIN_KERNEL = 4
LENGTH_BUDGET = 24
DRAW_ATTEMPTS = 400


def _l1(v):
    return sum(map(abs, v))


def _l1_sweep(basis):
    """Greedy pairwise sweep: b_i <- b_i +- b_j while that shortens b_i in L1.

    Euclidean reduction does not directly minimize the L1 norms that
    bound the unit degrees.  Norms are kept per vector, and a pair with
    |b_j| >= 2|b_i| is skipped, since then |b_i +- b_j| >= |b_j| - |b_i|
    >= |b_i|.
    """
    norms = [_l1(b) for b in basis]
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            for j in range(len(basis)):
                if i == j:
                    continue
                for sign in (1, -1):
                    if norms[j] >= 2 * norms[i]:
                        break
                    cand = [a + sign * b for a, b in zip(basis[i], basis[j])]
                    norm = _l1(cand)
                    if 0 < norm < norms[i]:
                        basis[i], norms[i] = cand, norm
                        changed = True
    return basis


def _coprime_base(values):
    """Pairwise coprime integers > 1 of which every positive value is a
    product of powers, by gcd refinement: a value sharing a factor g with
    a base element b is replaced by g, b / g and value / g."""
    base, todo = set(), [n for n in values if n > 1]
    while todo:
        n = todo.pop()
        if n == 1 or n in base:
            continue
        for b in base:
            g = math.gcd(n, b)
            if g > 1:
                base.remove(b)
                todo.extend((g, b // g, n // g))
                break
        else:
            base.add(n)
    return base


def _valuations(d, base):
    """{base element: exponent} of a positive rational d whose numerator and
    denominator are products of base powers."""
    out, n, m = {}, d.numerator, d.denominator
    for b in base:
        k = 0
        while n % b == 0:
            n, k = n // b, k + 1
        while m % b == 0:
            m, k = m // b, k - 1
        if k:
            out[b] = k
    return out


def _value_exponents(branches, columns):
    """For each branch q, {base element: exponent} of q - x for each column
    (component, x), over one coprime base of all of them; empty off q's
    component, and at infinity, where f is exactly 1 by degree zero."""
    diffs = [
        [q.coordinate - x if c == q.component and not q.is_infinite() else None for c, x in columns]
        for q in branches
    ]
    base = _coprime_base(
        n for row in diffs for d in row if d is not None for n in (d.numerator, d.denominator)
    )
    return [[{} if d is None else _valuations(d, base) for d in row] for row in diffs]


def _joint_kernel(rows, jets, ncols):
    """integer_kernel_basis(rows + jets, ncols), the small rows first.

    The degree and value rows have entries of a few bits, the jet rows
    of up to hundreds.  So K, the kernel of rows, is taken first, and Y,
    the kernel of the jets applied to K's vectors.  The lattice Y K is
    the joint kernel, and its Hermite form the same basis.
    """
    basis = integer_kernel_basis(rows, ncols)
    if not jets or not basis:
        return basis
    on_basis = [[sum(map(operator.mul, jet, k)) for k in basis] for jet in jets]
    combos = integer_kernel_basis(on_basis, len(basis))
    return hnf_rows([[sum(map(operator.mul, y, col)) for col in zip(*basis)] for y in combos], ncols)


class CartierUnitSampler:
    """Draws random Cartier units with split divisors on a fixed configuration."""

    def __init__(self, config):
        self.config = cfg = validate(config)
        jet_rows = sum(sum(sp.conductors) for sp in cfg.singular_points)
        pair_count = sum(len(sp.branches) - 1 for sp in cfg.singular_points)
        pool = max(12, jet_rows + 4 * pair_count + 8)
        # the constraint count depends on which primes show up, so the pool
        # grows until enough short vectors exist; else the degree cap adapts
        scored = []  # (score, columns, basis) of rounds without enough
        for _ in range(3):
            columns = self._pool(pool)
            basis = self._kernel_basis(columns)
            short = [b for b in basis if _l1(b) <= LENGTH_BUDGET]
            loose = [b for b in basis if _l1(b) <= 2 * LENGTH_BUDGET]
            enough = next((vs for vs in (short, loose) if len(vs) >= MIN_KERNEL), None)
            if enough:
                self.columns, self.basis = columns, enough
                break
            if basis:
                score = (-len(short), sum(_l1(b) for b in basis[:MIN_KERNEL]))
                scored.append((score, columns, basis))
            pool *= 2
        else:
            if not scored:
                raise InputError("no Cartier units available from the factor pool")
            _, self.columns, self.basis = min(scored, key=lambda r: r[0])
        self.max_unit_degree = max(80, 2 * max(_l1(b) for b in self.basis) + 8)

    def _pool(self, size):
        """Columns (component, x): size negative integers x per component,
        strictly below every finite branch coordinate there."""
        branches = self.config.branch_places()
        columns = []
        for comp in self.config.components:
            finite = [q.coordinate for q in branches if q.component == comp and not q.is_infinite()]
            start = int(min([Fraction(0)] + finite)) - 2
            columns.extend((comp, Fraction(start - i)) for i in range(size))
        return columns

    def _kernel_basis(self, columns):
        """At most 8 short exponent vectors over columns, sorted by L1 norm,
        spanning the ones that meet every constraint; [] if none do."""
        cfg = self.config
        rows = [[1 if c == comp else 0 for c, _ in columns] for comp in cfg.components]
        jets = []
        for sp in cfg.singular_points:
            # jets: derivatives of log f vanish up to the conductor; at
            # infinity log(1 - x s) contributes -(j-1)! x^j at s = 0
            for q, n_q in zip(sp.branches, sp.conductors):
                for j in range(1, n_q + 1):
                    row = [
                        0 if c != q.component
                        else x**j if q.is_infinite()
                        else 1 / (q.coordinate - x) ** j
                        for c, x in columns
                    ]
                    jets.append(clear_denominators(row))
            if len(sp.branches) < 2:
                continue
            # values match across the fiber: for each pair (first branch,
            # other branch) and base element, f's exponents there are equal
            first, *others = _value_exponents(sp.branches, columns)
            for other in others:
                for b in sorted(set().union(*first, *other)):
                    rows.append([o.get(b, 0) - f.get(b, 0) for o, f in zip(other, first)])
        basis = _joint_kernel(rows, jets, len(columns))
        basis.sort(key=_l1)
        basis = basis[:16]
        if any(_l1(b) > LENGTH_BUDGET for b in basis):
            basis = lll_reduce(basis)
        basis = _l1_sweep(basis)
        basis.sort(key=_l1)
        return basis[:8]

    def draw(self, rng):
        """One random unit tuple of degree at most max_unit_degree, a nonzero
        combination of kernel vectors and so a unit without a certificate.
        Only each weighted vector's nonzero entries are added, and the
        columns are walked once to share the factors out by component."""
        for _ in range(DRAW_ATTEMPTS):
            weights = [rng.randint(-2, 2) for _ in self.basis]
            expo = [0] * len(self.columns)
            for w, b in zip(weights, self.basis):
                if w:
                    for i, x in enumerate(b):
                        if x:
                            expo[i] += w * x
            if not any(expo) or _l1(expo) > self.max_unit_degree:
                continue
            factors = {comp: [] for comp in self.config.components}
            for (c, x), e in zip(self.columns, expo):
                if e:
                    factors[c].append((x, e))
            return {comp: RatFunc.from_factors(fs, component=comp) for comp, fs in factors.items()}
        raise InputError("could not sample a Cartier unit; pool too small")

