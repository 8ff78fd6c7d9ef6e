"""Command line interface.

Subcommands: analyze (formal group + receptor of a curve), chow
(Abel-Jacobi coordinates and equivalence verdict of a cycle), symbol
(local symbols, single place or full reciprocity table), verify (run
the invariant suites).  Output is byte-deterministic given input, seed
and format: JSON keys are sorted and rationals serialize as "a/b".

Exit codes: 0 success, 1 a verify property failed, 2 bad input.
"""

import argparse
import json
import sys

from .arith import format_rat
from .chow import ZeroCycle, abel_jacobi
from .curve import config_to_json, degree_per_component, load_config, validate
from .errors import AlbxError, InputError
from .funcfield import Place, RatFunc, parse_coordinate
from .infdiv import divisor_group
from .motive import OneMotive, albanese, base_points_for, dualize, linear_group
from .symbols import reciprocity_check, residue_symbol, tame_symbol
from .verify import run_verify


# --- minimal arithmetic grammar over t -------------------------------------

_TOKENS = set("+-*/^()")


def _tokenize(text):
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in _TOKENS:
            out.append(c)
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(int(text[i:j]))
            i = j
        elif c == "t":
            out.append("t")
            i += 1
        else:
            raise InputError(f"unexpected character {c!r} in expression")
    return out


class _Parser:
    """Recursive descent for +, -, *, /, ^ over integer literals and t."""

    def __init__(self, tokens, component):
        self.tokens = tokens
        self.pos = 0
        self.component = component

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise InputError(f"bad expression near token {self.pos}")
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            raise InputError("trailing tokens in expression")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            if op == "/":
                if rhs.is_zero():
                    raise InputError("division by zero in expression")
                value = value / rhs
            else:
                value = value * rhs
        return value

    def unary(self):
        if self.peek() == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            exponent = self.take()
            if not isinstance(exponent, int):
                raise InputError("exponent must be an integer literal")
            if base.is_zero() and sign * exponent < 0:
                raise InputError("negative power of zero")
            return base ** (sign * exponent)
        return base

    def atom(self):
        tok = self.peek()
        if tok == "(":
            self.take()
            value = self.expr()
            self.take(")")
            return value
        if tok == "t":
            self.take()
            return RatFunc.variable(self.component)
        if isinstance(tok, int):
            self.take()
            return RatFunc.constant(tok, self.component)
        raise InputError(f"bad expression near token {self.pos}")


def parse_expression(text, component="C0"):
    """Parse a rational function in t, e.g. "(t^2-1)/(t-2)"."""
    func = _Parser(_tokenize(text), component).parse()
    if func.is_zero():
        raise InputError("expression is the zero function")
    return func


# --- subcommands ------------------------------------------------------------


def _emit(payload, fmt, lines):
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return "\n".join(lines) + "\n"


def cmd_analyze(args):
    config = validate(load_config(args.curve))
    formal = divisor_group(config)
    motive = OneMotive(formal)
    dual = dualize(motive)
    bases = formal.to_json()
    ranks = {"torus_rank": formal.rank, "vectorial_dim": formal.dim}
    base_points = sorted(base_points_for(config).items())
    payload = {
        "curve": config_to_json(config),
        "formal_group": bases,
        **ranks,
        "albanese": {
            **bases,
            **ranks,
            "base_points": [p.to_json() for _, p in base_points],
        },
        "motive": repr(motive),
        "dual_motive": repr(dual),
    }
    lines = [
        f"components: {', '.join(config.components)}",
        f"singular points: {', '.join(sp.name for sp in config.singular_points) or '(none)'}",
        f"truncation: {config.truncation}",
        f"lattice rank: {formal.rank}",
        f"lie dimension: {formal.dim}",
        f"albanese group: {linear_group(formal.rank, formal.dim)}",
        f"motive: {motive!r}",
        f"dual motive: {dual!r}",
    ]
    for d in formal.etale_basis:
        lines.append(f"lattice basis: {d!r}")
    for d in formal.lie_basis:
        lines.append(f"lie basis: {d!r}")
    sys.stdout.write(_emit(payload, args.format, lines))
    return 0


def cmd_chow(args):
    config = validate(load_config(args.curve))
    cycle = ZeroCycle.from_string(args.cycle)
    alb = albanese(config)
    degrees = degree_per_component(cycle)
    if any(degrees.values()):
        payload = {
            "cycle": cycle.to_string(),
            "degrees": degrees,
            "equivalent": False,
            "note": "nonzero degree",
        }
        lines = [f"cycle: {cycle.to_string()}", "equivalent: false (nonzero degree)"]
        sys.stdout.write(_emit(payload, args.format, lines))
        return 0
    point = abel_jacobi(cycle, config, alb)
    verdict = point.is_identity()
    payload = {
        "cycle": cycle.to_string(),
        "degrees": degrees,
        "abel_jacobi": point.to_json(),
        "equivalent": verdict,
    }
    lines = [
        f"cycle: {cycle.to_string()}",
        f"torus coordinates: [{', '.join(format_rat(x) for x in point.torus)}]",
        f"vectorial coordinates: [{', '.join(format_rat(x) for x in point.vectorial)}]",
        f"equivalent: {'true' if verdict else 'false'}",
    ]
    sys.stdout.write(_emit(payload, args.format, lines))
    return 0


def cmd_symbol(args):
    tag = args.tag.lower()
    psi = parse_expression(args.psi)
    f = parse_expression(args.f)
    if args.point is not None:
        p = Place("C0", parse_coordinate(args.point))
        value = tame_symbol(psi, f, p) if tag == "gm" else residue_symbol(psi, f, p)
        payload = {
            "tag": tag,
            "psi": args.psi,
            "f": args.f,
            "point": args.point,
            "value": format_rat(value),
        }
        lines = [f"({args.psi}, {args.f})_{args.point} [{tag}] = {format_rat(value)}"]
        sys.stdout.write(_emit(payload, args.format, lines))
        return 0
    values, aggregate = reciprocity_check(psi, f, tag)
    payload = {
        "tag": tag,
        "psi": args.psi,
        "f": args.f,
        "values": {repr(p): format_rat(v) for p, v in sorted(values.items(), key=lambda kv: kv[0].sort_key())},
        "aggregate": format_rat(aggregate),
        "ok": aggregate == (1 if tag == "gm" else 0),
    }
    lines = [
        f"({args.psi}, {args.f})_{p!r} [{tag}] = {format_rat(v)}"
        for p, v in sorted(values.items(), key=lambda kv: kv[0].sort_key())
    ]
    lines.append(f"aggregate: {format_rat(aggregate)}")
    sys.stdout.write(_emit(payload, args.format, lines))
    return 0


def cmd_verify(args):
    config = load_config(args.curve) if args.curve else None
    results, elapsed = run_verify(config, trials=args.trials, seed=args.seed)
    ok = all(r.passed for r in results)
    if args.format == "json":
        payload = {
            "passed": ok,
            "trials": args.trials,
            "seed": args.seed,
            "suites": [r.to_json() for r in results],
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        for r in sorted(results, key=lambda r: r.name):
            status = "PASS" if r.passed else "FAIL"
            tail = f" [{r.detail}]" if r.detail else ""
            sys.stdout.write(f"{status} {r.name} ({r.checks} checks){tail}\n")
        sys.stdout.write(
            f"{'PASS' if ok else 'FAIL'} overall ({len(results)} suites, {elapsed:.1f}s)\n"
        )
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="albx",
        description="Exact generalized Jacobians of singular rational curves, "
        "local symbols, and rational equivalence of 0-cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="formal group and receptor of a curve")
    p.add_argument("curve", help="curve description (JSON)")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("chow", help="Abel-Jacobi coordinates of a 0-cycle")
    p.add_argument("curve", help="curve description (JSON)")
    p.add_argument("--cycle", required=True, help='e.g. "C0:2=+1,C0:3=-1"')
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_chow)

    p = sub.add_parser("symbol", help="local symbols on the projective line")
    p.add_argument("--tag", choices=("gm", "ga"), required=True)
    p.add_argument("--psi", required=True, help="rational expression in t")
    p.add_argument("--f", required=True, help="rational expression in t")
    p.add_argument("--point", help="single place; omit for the full table")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_symbol)

    p = sub.add_parser("verify", help="run the exact invariant suites")
    p.add_argument("curve", nargs="?", help="optional curve description (JSON)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trials", 1) < 1:
        sys.stderr.write("error: trials must be >= 1\n")
        return 2
    try:
        return args.func(args)
    except AlbxError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
