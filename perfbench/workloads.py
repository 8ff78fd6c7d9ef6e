"""The four benchmark workloads.

Each workload is a closed loop with one caller: the next operation
starts when the previous one returns.  Operations come in cycles; a
cycle visits every stratum of the workload (fixture, curve family,
bit length, ...) once, and the runner only stops at a cycle boundary,
so every run measures the same mix and only the seeded values differ.

A workload provides
  setup(m, rng, workdir) -> state   timed as part of setup_s
  prepare_checks(m, state)           untimed data for the checks
  cycle(state, rng, index) -> list of operation inputs
  run(m, state, inp) -> output       one timed operation
  stratum(inp) -> hashable           the stratum the timing metrics group by
  text(inp, out) -> str              canonical output, digested
  check(state, inp, out) -> (reason or None, sizes)

`m` holds the loaded albx modules; operations look library functions
up through it at call time, so the traced run sees wrapped layers.
"""

import contextlib
from fractions import Fraction
import io
import json
import os
import random

from checks import (
    check_aj,
    check_shape,
    check_symbol,
    check_table,
    check_unit,
    fmt_rat,
)

ZOO = ("node", "cusp", "tacnode", "triple", "fourfold")


def run_cli(m, argv):
    """In-process `albx <argv>`; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = m.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_text(out):
    rc, stdout, stderr = out
    return f"exit {rc}\n{stdout}{stderr}"


def cli_payload(out):
    """Parsed JSON stdout, or (None, reason) when the command failed."""
    rc, stdout, stderr = out
    if rc != 0:
        return None, f"exit code {rc}: {stderr.strip()}"
    return json.loads(stdout), None


def plain_place(p):
    return p.component, None if p.is_infinite() else p.coordinate


def plain_bases(alb):
    """Receptor bases as plain data for checks.closed_form_aj."""
    etale = [[(*plain_place(q), w) for q, w in omega.items()] for omega in alb.etale_basis]
    lie = [
        [
            (*plain_place(q), {-e: c for e, c in delta.parts[q].coeffs.items()})
            for q in delta.places()
        ]
        for delta in alb.lie_basis
    ]
    return etale, lie


def plain_unit(funcs):
    return {c: (f.num.coeffs, f.den.coeffs) for c, f in funcs.items()}


def sampler_pools(sampler):
    pools = {}
    for comp, x in sampler.columns:
        pools.setdefault(comp, []).append(int(x))
    return pools


def random_rational(rng, height):
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def write_curve(m, config, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(m.curve.config_to_json(config), fh, sort_keys=True)
    return path


def modulus(m, spec):
    """Unvalidated modulus curve from [(coordinate or None, multiplicity)]."""
    inf = m.funcfield.INF
    return m.curve.curve_from_modulus(
        [(m.funcfield.Place("C0", inf if a is None else a), n) for a, n in spec]
    )


def lines(m, k, closed):
    """k projective lines glued by nodes into a chain, or a cycle."""
    Place, SingularPoint = m.funcfield.Place, m.curve.SingularPoint
    comps = [f"L{i}" for i in range(k)]
    nodes = [
        SingularPoint(f"n{i}", (Place(comps[i], 1), Place(comps[(i + 1) % k], 0)))
        for i in range(k if closed else k - 1)
    ]
    return m.curve.CurveConfig(comps, nodes, 2)


def explicit_point(m, kind, n):
    """The cusp (u^2, u^3) or the tacnode at truncation n."""
    Place, mono = m.funcfield.Place, m.funcfield.LaurentSeries.monomial
    q1, q2 = Place("C0", 0), Place("C0", 1)
    if kind == "cusp":
        sp = m.curve.SingularPoint(
            "p", (q1,), "explicit", (1,), ((mono(q1, 2, 1, n),), (mono(q1, 3, 1, n),))
        )
    else:
        gens = (
            (mono(q1, 1, 1, n), mono(q2, 1, 1, n)),
            (mono(q1, 2, 1, n), None),
            (None, mono(q2, 2, 1, n)),
        )
        sp = m.curve.SingularPoint("p", (q1, q2), "explicit", (1, 1), gens)
    return m.curve.CurveConfig(["C0"], [sp], n)


def rfold(m, r):
    Place = m.funcfield.Place
    branches = tuple(Place("C0", k) for k in range(r - 1)) + (Place("C0", m.funcfield.INF),)
    return m.curve.CurveConfig(["C0"], [m.curve.SingularPoint("p", branches)], 2)


class UnitKernel:
    """draw -> div_C -> abel_jacobi, round-robin over the zoo (criterion 4)."""

    name = "unit_kernel"

    def setup(self, m, rng, workdir):
        configs = m.fixtures.zoo()
        return {
            "configs": configs,
            "samplers": {n: m.sampling.CartierUnitSampler(configs[n]) for n in ZOO},
            "albs": {n: m.motive.albanese(configs[n]) for n in ZOO},
        }

    def prepare_checks(self, m, state):
        state["bases"] = {n: plain_bases(a) for n, a in state["albs"].items()}
        state["pools"] = {n: sampler_pools(s) for n, s in state["samplers"].items()}

    def cycle(self, state, rng, index):
        return [(name, rng.getrandbits(62)) for name in ZOO]

    def stratum(self, inp):
        return inp[0]

    def run(self, m, state, inp):
        name, draw_seed = inp
        config, alb = state["configs"][name], state["albs"][name]
        unit = state["samplers"][name].draw(random.Random(draw_seed))
        cycle = m.chow.div_C(unit, config)
        return unit, cycle, m.chow.abel_jacobi(cycle, config, alb)

    def text(self, inp, out):
        unit, cycle, point = out
        return f"{inp[0]} {unit!r} {cycle!r} {point!r}"

    def check(self, state, inp, out):
        name = inp[0]
        unit, cycle, point = out
        points = [(*plain_place(p), k) for p, k in cycle.items()]
        reason, degree = check_unit(
            plain_unit(unit),
            state["pools"][name],
            state["bases"][name],
            points,
            (point.torus, point.vectorial),
        )
        sizes = {
            "unit_degree": degree,
            "cycle_support": len(points),
            "truncation": state["configs"][name].truncation,
        }
        return reason, sizes


class CycleClasses:
    """`albx chow --format json` on short user cycles over many curves."""

    name = "cycle_classes"
    SIZES = (2, 4, 8, 16)  # support sizes; each curve takes one cycle of each
    MODULI = {
        "2[0]+2[1]": ((0, 2), (1, 2)),
        "4[0]": ((0, 4),),
        "3[0]+2[1]+2[inf]": ((0, 3), (1, 2), (None, 2)),
    }

    def setup(self, m, rng, workdir):
        configs = dict(m.fixtures.zoo())
        configs["triangle"] = m.curve.validate(lines(m, 3, closed=True))
        for spec, points in self.MODULI.items():
            configs[spec] = m.curve.validate(modulus(m, points))
        curves = {}
        for i, (name, config) in enumerate(configs.items()):
            path = write_curve(m, config, os.path.join(workdir, f"curve{i}.json"))
            branch = {plain_place(q) for q in config.branch_places()}
            curves[name] = (path, config.components, branch, config.truncation)
        return {"curves": curves, "configs": configs}

    def prepare_checks(self, m, state):
        state["bases"] = {
            n: plain_bases(m.motive.albanese(c)) for n, c in state["configs"].items()
        }

    def cycle(self, state, rng, index):
        return [
            (name, *self.random_cycle(rng, size, *state["curves"][name][1:3]))
            for name in state["curves"]
            for size in self.SIZES
        ]

    @staticmethod
    def random_cycle(rng, size, components, branch):
        """A degree-0 cycle of `size` points off the branch places, on as
        many components as it has pairs of points (at most all of them)."""
        used = rng.sample(components, min(len(components), size // 2))
        counts = [2] * len(used)
        for _ in range(size - 2 * len(used)):
            counts[rng.randrange(len(used))] += 1
        points = []
        for comp, count in zip(used, counts):
            coords = set()
            if (comp, None) not in branch and rng.random() < 0.25:
                coords.add(None)
            while len(coords) < count:
                a = random_rational(rng, 12)
                if (comp, a) not in branch:
                    coords.add(a)
            coords = sorted(coords, key=lambda a: (a is None, a or 0))
            while True:
                mults = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in coords[1:]]
                if sum(mults) and abs(sum(mults)) <= 9:
                    break
            points += [(comp, a, k) for a, k in zip(coords, [-sum(mults)] + mults)]
        text = ",".join(
            f"{c}:{'inf' if a is None else fmt_rat(a)}={k:+d}" for c, a, k in points
        )
        return text, tuple(points)

    def stratum(self, inp):
        return inp[0], len(inp[2])

    def run(self, m, state, inp):
        path = state["curves"][inp[0]][0]
        return run_cli(m, ["chow", path, "--cycle", inp[1], "--format", "json"])

    def text(self, inp, out):
        return cli_text(out)

    def check(self, state, inp, out):
        name, _, points = inp
        sizes = {"cycle_support": len(points), "truncation": state["curves"][name][3]}
        payload, reason = cli_payload(out)
        if reason:
            return reason, sizes
        if any(payload["degrees"].values()):
            return f"nonzero degrees {payload['degrees']}", sizes
        aj = payload["abel_jacobi"]
        bases = state["bases"][name]
        return check_aj(points, bases, aj["torus"], aj["vectorial"], payload["equivalent"]), sizes


class LocalSymbols:
    """`albx symbol`: reciprocity tables and single places on (t-a)^k."""

    name = "local_symbols"
    BITS = (8, 16, 24, 32)
    # single-place strata: k near 100, 200 and 300, taken at the root of
    # psi, the root of f, infinity and an ordinary point, with both tags;
    # narrow k ranges keep each stratum's cost tight
    POWERS = [
        (k, place, tag)
        for k in ((91, 100), (191, 200), (291, 300))
        for place in range(4)
        for tag in ("gm", "ga")
    ]
    PLACES = ("root of psi", "root of f", "inf", "ordinary")
    TABLES_PER_POWER = 2

    def setup(self, m, rng, workdir):
        return {}

    def prepare_checks(self, m, state):
        pass

    @staticmethod
    def factors(rng, bits, count, signs):
        """count linear factors (q t - p)^e with distinct roots p/q,
        |p| of the given bit length and 1 <= q <= 15."""
        out, seen = [], set()
        while len(out) < count:
            p = (rng.getrandbits(bits - 1) | (1 << (bits - 1))) * rng.choice((1, -1))
            q = rng.randint(1, 15)
            if Fraction(p, q) not in seen:
                seen.add(Fraction(p, q))
                out.append((q, p, rng.choice(signs)))
        return out

    def cycle(self, state, rng, index):
        """Inputs are (kind, tag, psi, f, point, stratum)."""
        ops = []
        for j, (krange, place, tag) in enumerate(self.POWERS):
            # |a| in 7..9 keeps the coefficient size of (t-a)^k, and so the
            # cost of a stratum, nearly the same on every seed
            a = Fraction(rng.choice((-1, 1)) * rng.randint(7, 9))
            b = a
            while b == a:
                b = Fraction(rng.randint(-9, 9))
            psi = [(1, int(a), rng.randint(*krange))]
            f = [(1, int(b), rng.choice((1, 2, -1, -2)))]
            c = a
            while c in (a, b):
                c = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
            stratum = ("point", tag, krange[1], self.PLACES[place])
            ops.append(("point", tag, psi, f, (a, b, None, c)[place], stratum))
            for i in range(self.TABLES_PER_POWER):
                # slots run through bit length, then tag, then polynomial psi
                slot = j * self.TABLES_PER_POWER + i
                bits = self.BITS[slot % 4]
                tag = ("gm", "ga")[slot // 4 % 2]
                signs = (1, 2) if slot // 8 % 2 == 0 else (1, 2, -1, -2)
                psi = self.factors(rng, bits, 2, signs)
                f = self.factors(rng, bits, 2, (1, 2, -1, -2))
                stratum = ("table", tag, bits, "polynomial" if len(signs) == 2 else "rational")
                ops.append(("table", tag, psi, f, None, stratum))
        return ops

    @staticmethod
    def expression(factors):
        def one(q, p, e):
            base = f"({'' if q == 1 else f'{q}*'}t{'-' if p >= 0 else '+'}{abs(p)})"
            return base if abs(e) == 1 else f"{base}^{abs(e)}"

        num = "*".join(one(*x) for x in factors if x[2] > 0) or "1"
        den = "*".join(one(*x) for x in factors if x[2] < 0)
        return f"{num}/({den})" if den else num

    def stratum(self, inp):
        return inp[5]

    def run(self, m, state, inp):
        kind, tag, psi, f, a, _ = inp
        argv = ["symbol", "--tag", tag, "--psi", self.expression(psi), "--f", self.expression(f)]
        if kind == "point":
            # one token, so that a negative coordinate is not read as an option
            argv.append(f"--point={'inf' if a is None else fmt_rat(a)}")
        return run_cli(m, argv + ["--format", "json"])

    def text(self, inp, out):
        return cli_text(out)

    def check(self, state, inp, out):
        kind, tag, psi, f, a, _ = inp
        payload, reason = cli_payload(out)
        if reason:
            return reason, {}
        if kind == "table":
            return check_table(tag, psi, f, payload), {}
        return check_symbol(tag, psi, f, payload["value"], a), {}


class CurveStructure:
    """`albx analyze` along the N, r, multiplicity and component axes,
    plus sampler build and one draw on a fixed list of curves."""

    name = "curve_structure"
    MODULI_POOL = 48
    MODULI_PER_CYCLE = 12
    # moduli on which the sampler builds and draws in bounded time; see
    # README.md for the ones left out
    SAMPLER_MODULI = {
        "2[0]+2[1]": ((0, 2), (1, 2)),
        "4[0]": ((0, 4),),
        "3[0]+2[1]": ((0, 3), (1, 2)),
        "2[0]+2[1]+2[inf]": ((0, 2), (1, 2), (None, 2)),
    }

    def setup(self, m, rng, workdir):
        analyze = []  # (label, path, expected rank, expected dim, truncation)

        def add(label, config, rank, dim):
            path = write_curve(m, config, os.path.join(workdir, f"a{len(analyze)}.json"))
            analyze.append((label, path, rank, dim, config.truncation))

        for _ in range(self.MODULI_POOL):
            coords = set()
            for _ in range(rng.randint(1, 4)):
                coords.add(None if rng.random() < 0.25 else random_rational(rng, 8))
            spec = [(a, rng.randint(1, 4)) for a in coords]
            add("modulus", modulus(m, spec), len(spec) - 1, sum(n - 1 for _, n in spec))
        fixed_start = len(analyze)
        for r in range(2, 9):
            add(f"rfold{r}", rfold(m, r), r - 1, 0)
        for kind, shape in (("cusp", (0, 1)), ("tacnode", (1, 1))):
            for n in (10, 20, 40):
                add(f"{kind}N{n}", explicit_point(m, kind, n), *shape)
        for k in range(2, 7):
            add(f"chain{k}", lines(m, k, closed=False), 0, 0)
            add(f"cycle{k}", lines(m, k, closed=True), 1, 0)
        samplers = dict(m.fixtures.zoo())
        for spec, points in self.SAMPLER_MODULI.items():
            samplers[spec] = m.curve.validate(modulus(m, points))
        return {"analyze": analyze, "fixed_start": fixed_start, "samplers": samplers}

    def prepare_checks(self, m, state):
        state["bases"] = {
            n: plain_bases(m.motive.albanese(c)) for n, c in state["samplers"].items()
        }

    def cycle(self, state, rng, index):
        analyze = state["analyze"]
        first = index * self.MODULI_PER_CYCLE
        picks = [analyze[(first + i) % self.MODULI_POOL] for i in range(self.MODULI_PER_CYCLE)]
        ops = [("analyze", x) for x in picks + analyze[state["fixed_start"]:]]
        ops += [("sampler", (name, rng.getrandbits(62))) for name in state["samplers"]]
        return ops

    def stratum(self, inp):
        kind, arg = inp
        return kind, arg[0]

    def run(self, m, state, inp):
        kind, arg = inp
        if kind == "analyze":
            return run_cli(m, ["analyze", arg[1], "--format", "json"])
        name, draw_seed = arg
        sampler = m.sampling.CartierUnitSampler(state["samplers"][name])
        return sampler, sampler.draw(random.Random(draw_seed))

    def text(self, inp, out):
        if inp[0] == "analyze":
            return cli_text(out)
        return f"{inp[1][0]} {out[1]!r}"

    def check(self, state, inp, out):
        kind, arg = inp
        if kind == "analyze":
            label, _, rank, dim, truncation = arg
            payload, reason = cli_payload(out)
            return reason or check_shape(payload, rank, dim), {"truncation": truncation}
        name = arg[0]
        sampler, unit = out
        reason, degree = check_unit(plain_unit(unit), sampler_pools(sampler), state["bases"][name])
        return reason, {
            "unit_degree": degree,
            "truncation": state["samplers"][name].truncation,
        }

    def probes(self, m):
        """Sampler build and draw on ordinary r-fold points, r = 5..8.

        These fail today ("no Cartier units available from the factor
        pool") although the curves have units, so they run only in the
        traced run, outside the operation count, and show up as
        sampling.CartierUnitSampler.build.failures.
        """
        def probe(r):
            config = m.curve.validate(rfold(m, r))
            return m.sampling.CartierUnitSampler(config).draw(random.Random(r))

        return [(f"rfold{r}", lambda r=r: probe(r)) for r in range(5, 9)]


WORKLOADS = {w.name: w for w in (UnitKernel, CycleClasses, LocalSymbols, CurveStructure)}
