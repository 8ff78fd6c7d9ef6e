"""Seeded random inputs for the property suites.

The interesting generator is the Cartier unit sampler.  Units along the
singular locus of a configuration are products of linear factors whose
exponent vectors satisfy finitely many constraints: degree zero per
component, vanishing log-derivative jets up to the conductor at every
branch, and matching values across the branches of each singular point.
Jet constraints are rational-linear in the exponents; value matching
becomes integer-linear after passing to prime valuations (every factor
is chosen below the branch coordinates, so all the evaluated
differences are positive and no sign condition is left).  The sampler
therefore computes the integer kernel of one constraint matrix, size
reduces it, and draws random small combinations; every draw is
double checked against the real unit certificate.
"""

from fractions import Fraction

from .arith import factorint
from .chow import ZeroCycle, is_cartier_unit
from .curve import validate
from .errors import InputError
from .funcfield import Place, RatFunc
from .linalg import clear_denominators, integer_kernel_basis, lll_reduce


def random_rational(rng, height=10, nonzero=False):
    while True:
        x = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if x or not nonzero:
            return x


def random_split_ratfunc(rng, component="C0", max_factors=5, height=10):
    """Nonzero scalar times a product of distinct linear factors, exponents +-1."""
    k = rng.randint(1, max_factors)
    roots = set()
    while len(roots) < k:
        roots.add(random_rational(rng, height))
    factors = [(a, rng.choice((1, -1))) for a in sorted(roots)]
    scale = random_rational(rng, height, nonzero=True)
    return RatFunc.from_factors(factors, scale=scale, component=component)


def random_split_pair(rng, component="C0", max_factors=5, height=10):
    return (
        random_split_ratfunc(rng, component, max_factors, height),
        random_split_ratfunc(rng, component, max_factors, height),
    )


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
            if m:
                out[Place(comp, a)] = m
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


class CartierUnitSampler:
    """Draws random Cartier units with split divisors on a fixed configuration."""

    def __init__(self, config):
        self.config = validate(config)
        cfg = self.config
        jet_rows = sum(sum(sp.conductors) for sp in cfg.singular_points)
        pair_count = sum(len(sp.branches) - 1 for sp in cfg.singular_points)
        pool = max(12, jet_rows + 4 * pair_count + 8)
        # the constraint count depends on which primes show up, so grow
        # the factor pool until enough reasonably short exponent vectors
        # exist; some configurations simply have no very short units, in
        # which case the best basis found wins and the degree cap adapts
        best, best_cols, best_score = [], None, None
        done = False
        for _ in range(3):
            self._build_pool(pool)
            try:
                basis = self._kernel_basis()
            except InputError:
                basis = []
            if basis:
                short = [b for b in basis if _l1(b) <= LENGTH_BUDGET]
                loose = [b for b in basis if _l1(b) <= 2 * LENGTH_BUDGET]
                if len(short) >= MIN_KERNEL:
                    best, best_cols, done = short, self.columns, True
                elif len(loose) >= MIN_KERNEL:
                    best, best_cols, done = loose, self.columns, True
                else:
                    score = (-len(short), sum(_l1(b) for b in basis[:MIN_KERNEL]))
                    if best_score is None or score < best_score:
                        best, best_cols, best_score = basis, self.columns, score
            if done:
                break
            pool *= 2
        if not best:
            raise InputError("no Cartier units available from the factor pool")
        self.columns = best_cols
        self.basis = best
        self.max_unit_degree = max(80, 2 * max(_l1(b) for b in self.basis) + 8)

    def _build_pool(self, pool):
        """One pool of negative integer coordinates per component, strictly
        below every finite branch coordinate."""
        cfg = self.config
        self.columns = []  # (component, coordinate)
        for comp in cfg.components:
            finite = [
                q.coordinate
                for q in cfg.branch_places()
                if q.component == comp and not q.is_infinite()
            ]
            floor_coord = min([Fraction(0)] + finite)
            start = int(floor_coord) - 2
            self.columns.extend((comp, Fraction(start - i)) for i in range(pool))

    def _value_vector(self, q):
        """Per-column valuation data of f's value at branch q (None at infinity)."""
        if q.is_infinite():
            return None  # value is exactly 1 under the degree-0 rows
        return [
            (q.coordinate - x) if comp == q.component else None
            for comp, x in self.columns
        ]

    def _kernel_basis(self):
        cfg = self.config
        ncols = len(self.columns)
        rows = []
        for comp in cfg.components:
            rows.append([1 if c == comp else 0 for c, _ in self.columns])
        for sp in cfg.singular_points:
            # jets: derivatives of log f vanish up to the conductor
            for q, n_q in zip(sp.branches, sp.conductors):
                for j in range(1, n_q + 1):
                    row = []
                    for comp, x in self.columns:
                        if comp != q.component:
                            row.append(Fraction(0))
                        elif q.is_infinite():
                            # log(1 - x s) contributes -(j-1)! x^j at s = 0
                            row.append(Fraction(x**j))
                        else:
                            row.append(1 / (q.coordinate - x) ** j)
                    rows.append(clear_denominators(row))
            # value matching across the fiber, one prime-valuation block per pair
            vectors = [self._value_vector(q) for q in sp.branches]
            for other in vectors[1:]:
                base = vectors[0]
                primes = set()
                for vec in (base, other):
                    if vec is None:
                        continue
                    for d in vec:
                        if d is not None:
                            primes |= set(factorint(d.numerator).keys())
                            primes |= set(factorint(d.denominator).keys())
                for prime in sorted(primes):
                    row = []
                    for idx in range(ncols):
                        v = 0
                        for vec, sign in ((other, 1), (base, -1)):
                            if vec is not None and vec[idx] is not None:
                                d = vec[idx]
                                v += sign * (
                                    _padic(d.numerator, prime) - _padic(d.denominator, prime)
                                )
                        row.append(v)
                    rows.append(row)
        basis = integer_kernel_basis(rows, ncols)
        if not basis:
            raise InputError("empty exponent kernel")

        basis.sort(key=_l1)
        basis = basis[:16]
        if any(_l1(b) > LENGTH_BUDGET for b in basis):
            basis = lll_reduce(basis)
        basis = _l1_sweep(basis)
        basis.sort(key=_l1)
        return basis[:8]

    def draw(self, rng):
        """One random unit tuple of degree at most max_unit_degree; always
        rechecked by the certificate."""
        cfg = self.config
        for _ in range(DRAW_ATTEMPTS):
            weights = [rng.randint(-2, 2) for _ in self.basis]
            expo = [0] * len(self.columns)
            for w, b in zip(weights, self.basis):
                if w:
                    expo = [e + w * x for e, x in zip(expo, b)]
            if not any(expo):
                continue
            if _l1(expo) > self.max_unit_degree:
                continue
            funcs = {}
            for comp in cfg.components:
                factors = [
                    (x, e)
                    for (c, x), e in zip(self.columns, expo)
                    if c == comp and e
                ]
                funcs[comp] = RatFunc.from_factors(factors, component=comp)
            if is_cartier_unit(funcs, cfg):
                return funcs
        raise InputError("could not sample a Cartier unit; pool too small")


def _padic(n, p):
    n = abs(int(n))
    if n == 0:
        raise ValueError("p-adic valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
