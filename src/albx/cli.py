"""Command line interface.

Subcommands: analyze (formal group + receptor of a curve), chow
(Abel-Jacobi coordinates and equivalence verdict of a cycle), symbol
(local symbols, single place or full reciprocity table), verify (run
the invariant suites).  Output is byte-deterministic given input, seed
and format: JSON keys are sorted and rationals serialize as "a/b".

Exit codes: 0 success, 1 a verify property failed, 2 bad input, 3 a
verify suite could not test (INCONCLUSIVE) and none failed.
Expressions nest at most MAX_DEPTH deep, hold no integer literal past
MAX_HEIGHT bits and raise no power past MAX_DEGREE or MAX_HEIGHT (the
coefficient bits of the result, bounded before it is formed);
curve.validate bounds the truncation order, chow.abel_jacobi a torus
coordinate as each factor is formed and an interpolant before it is
built, and arith.format_rat prints no rational past MAX_HEIGHT bits.
"""

import argparse
from json.encoder import encode_basestring_ascii
import sys

from .arith import MAX_DEGREE, MAX_HEIGHT, common_denominator, format_rat, parse_int
from .chow import ZeroCycle, abel_jacobi, check_cycle_support
from .curve import config_to_json, degree_per_component, load_config, validate
from .errors import AlbxError, InputError
from .funcfield import Place, RatFunc, parse_coordinate
from .infdiv import divisor_group
from .motive import OneMotive, albanese, base_points_for, dualize, linear_group
from .symbols import reciprocity_check, symbol_law


# --- minimal arithmetic grammar over t -------------------------------------

_TOKENS = set("+-*/^()")
MAX_DEPTH = 100  # nesting of parentheses and unary minus signs


def _height_bits(poly):
    """n * _height_bits(p) bounds the bits of every coefficient of p^n.

    With p = a / d, a integral, each coefficient of a^n is at most the
    n-th power of a's l1 norm, and the denominator is d^n.
    """
    ints, d = common_denominator(poly.coeffs)
    return max(sum(map(abs, ints)).bit_length(), d.bit_length())


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
        elif c.isdecimal():  # isdigit would pass superscripts, which int refuses
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            out.append(parse_int(text[i:j]))
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
        self.depth = 0

    def nested(self, parse):
        """Run parse one nesting level deeper, refusing past MAX_DEPTH."""
        if self.depth == MAX_DEPTH:
            raise InputError(f"expression nested deeper than {MAX_DEPTH} levels")
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

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
            return -self.nested(self.unary)
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
            if max(base.num.degree, base.den.degree) * exponent > MAX_DEGREE:
                raise InputError(f"power of degree above {MAX_DEGREE}")
            if max(_height_bits(base.num), _height_bits(base.den)) * exponent > MAX_HEIGHT:
                raise InputError(f"power of coefficient height above {MAX_HEIGHT} bits")
            return base ** (sign * exponent)
        return base

    def atom(self):
        tok = self.peek()
        if tok == "(":
            self.take()
            value = self.nested(self.expr)
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


class _JsonText(str):
    """value as JSON text at indent, which _json_parts appends unchanged."""

    def __new__(cls, value, indent=""):
        out = []
        _json_parts(value, out, indent)
        return str.__new__(cls, "".join(out))


def _json_parts(value, out, indent):
    """Append the pieces of json.dumps(value, sort_keys=True, indent=2) to
    out.  The payloads hold only dict (str keys), list, tuple, str, int,
    bool and None, and json.dumps with an indent runs its pure-Python
    encoder, so this writer runs instead.  A str or int item, the common
    leaves, is written in place rather than by a call; the exact type tests
    keep bools out of the int case and _JsonText out of the str case."""
    if isinstance(value, str):
        out.append(value if type(value) is _JsonText else encode_basestring_ascii(value))
    elif value is None or isinstance(value, bool):
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (dict, list, tuple)):
        if not value:
            out.append("{}" if isinstance(value, dict) else "[]")
            return
        inner = indent + "  "
        sep = "\n" + inner
        if isinstance(value, dict):
            out.append("{")
            for key in sorted(value):
                if not isinstance(key, str):
                    raise TypeError("JSON object keys must be str")
                item = value[key]
                head = f"{sep}{encode_basestring_ascii(key)}: "
                if type(item) is str:
                    out.append(head + encode_basestring_ascii(item))
                elif type(item) is int:
                    out.append(head + int.__repr__(item))
                else:
                    out.append(head)
                    _json_parts(item, out, inner)
                sep = ",\n" + inner
            out.append("\n" + indent + "}")
        else:
            out.append("[")
            for item in value:
                if type(item) is str:
                    out.append(sep + encode_basestring_ascii(item))
                elif type(item) is int:
                    out.append(sep + int.__repr__(item))
                else:
                    out.append(sep)
                    _json_parts(item, out, inner)
                sep = ",\n" + inner
            out.append("\n" + indent + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_json(payload):
    sys.stdout.write(_JsonText(payload) + "\n")


def _write_lines(lines):
    sys.stdout.write("\n".join(lines) + "\n")


def cmd_analyze(args):
    config = validate(load_config(args.curve))
    formal = divisor_group(config)
    motive = OneMotive(formal)
    dual = dualize(motive)
    if args.format == "json":
        bases = {key: _JsonText(value, "    ") for key, value in formal.to_json().items()}
        ranks = {"torus_rank": formal.rank, "vectorial_dim": formal.dim}
        _write_json({
            "curve": config_to_json(config),
            "formal_group": bases,
            **ranks,
            "albanese": {
                **bases,
                **ranks,
                "base_points": [p.to_json() for _, p in sorted(base_points_for(config).items())],
            },
            "motive": repr(motive),
            "dual_motive": repr(dual),
        })
        return 0
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
    _write_lines(lines)
    return 0


def cmd_chow(args):
    config = validate(load_config(args.curve))
    cycle = ZeroCycle.from_string(args.cycle)
    check_cycle_support(cycle, config)
    degrees = degree_per_component(cycle)
    if any(degrees.values()):
        if args.format == "json":
            _write_json({
                "cycle": cycle.to_string(),
                "degrees": degrees,
                "equivalent": False,
                "note": "nonzero degree",
            })
        else:
            _write_lines([f"cycle: {cycle.to_string()}", "equivalent: false (nonzero degree)"])
        return 0
    alb = albanese(config)
    point = abel_jacobi(cycle, config, alb)
    verdict = point.is_identity()
    if args.format == "json":
        _write_json({
            "cycle": cycle.to_string(),
            "degrees": degrees,
            "abel_jacobi": point.to_json(),
            "equivalent": verdict,
        })
    else:
        _write_lines([
            f"cycle: {cycle.to_string()}",
            f"torus coordinates: [{', '.join(format_rat(x) for x in point.torus)}]",
            f"vectorial coordinates: [{', '.join(format_rat(x) for x in point.vectorial)}]",
            f"equivalent: {'true' if verdict else 'false'}",
        ])
    return 0


def cmd_symbol(args):
    tag = args.tag
    symbol, identity, _ = symbol_law(tag)
    psi = parse_expression(args.psi)
    f = parse_expression(args.f)
    if args.point is not None:
        p = Place("C0", parse_coordinate(args.point))
        value = symbol(psi, f, p)
        if args.format == "json":
            _write_json({
                "tag": tag,
                "psi": args.psi,
                "f": args.f,
                "point": args.point,
                "value": format_rat(value),
            })
        else:
            _write_lines([f"({args.psi}, {args.f})_{args.point} [{tag}] = {format_rat(value)}"])
        return 0
    values, aggregate = reciprocity_check(psi, f, tag)
    if args.format == "json":
        _write_json({
            "tag": tag,
            "psi": args.psi,
            "f": args.f,
            "values": {repr(p): format_rat(v) for p, v in values.items()},
            "aggregate": format_rat(aggregate),
            "ok": aggregate == identity,
        })
    else:
        lines = [
            f"({args.psi}, {args.f})_{p!r} [{tag}] = {format_rat(v)}" for p, v in values.items()
        ]
        _write_lines(lines + [f"aggregate: {format_rat(aggregate)}"])
    return 0


def cmd_verify(args):
    # imported here: verify and the fixtures and sampler it draws on are
    # needed by this command alone
    from .verify import run_verify

    config = load_config(args.curve) if args.curve else None
    results, elapsed = run_verify(config, trials=args.trials, seed=args.seed)
    statuses = {r.status for r in results}
    overall = next(s for s in ("FAIL", "INCONCLUSIVE", "PASS") if s in statuses)
    if args.format == "json":
        _write_json({
            "passed": overall == "PASS",
            "status": overall,
            "trials": args.trials,
            "seed": args.seed,
            "suites": [r.to_json() for r in results],
        })
    else:
        for r in sorted(results, key=lambda r: r.name):
            tail = f" [{r.detail}]" if r.detail else ""
            sys.stdout.write(f"{r.status} {r.name} ({r.checks} checks){tail}\n")
        sys.stdout.write(f"{overall} overall ({len(results)} suites)\n")
        sys.stderr.write(f"verify: {elapsed:.1f}s\n")
    return {"PASS": 0, "FAIL": 1, "INCONCLUSIVE": 3}[overall]


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

    p = sub.add_parser("chow", help="Abel-Jacobi coordinates of a 0-cycle")
    p.add_argument("curve", help="curve description (JSON)")
    p.add_argument("--cycle", required=True, help='e.g. "C0:2=+1,C0:3=-1"')
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("symbol", help="local symbols on the projective line")
    p.add_argument("--tag", choices=("gm", "ga"), required=True)
    p.add_argument("--psi", required=True, help="rational expression in t")
    p.add_argument("--f", required=True, help="rational expression in t")
    p.add_argument("--point", help="single place; omit for the full table")
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("verify", help="run the exact invariant suites")
    p.add_argument("curve", nargs="?", help="optional curve description (JSON)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "text"), default="text")
    return parser, sub.choices


# built once per process; parse_args leaves the parsers unchanged
_PARSER, _COMMANDS = build_parser()


def _parse(argv):
    """_PARSER.parse_args(argv) in one argparse pass where that gives the
    same namespace.  The top-level parser hands everything after the
    command to the subcommand's parse_known_args and refuses what it
    leaves over; main runs that call itself.  Leftovers, a missing or
    unknown command and top-level options take the full parse, so every
    usage line, error text and exit code is the top-level parser's."""
    sub = _COMMANDS.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return _PARSER.parse_args(argv)


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    if getattr(args, "trials", 1) < 1:
        sys.stderr.write("error: trials must be >= 1\n")
        return 2
    try:
        return globals()[f"cmd_{args.command}"](args)
    except AlbxError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
