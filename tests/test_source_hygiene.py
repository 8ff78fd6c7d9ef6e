"""Static checks on src/albx with the standard library's ast module.

No linter ships with the project, so dead code that deletions leave
behind is caught here: an import that its module never uses, a private
top-level function that nothing in the package refers to, a parameter
that its function never reads, an attribute that is set but that
nothing in src/, tests/ or perfbench/ reads, and an assert statement,
which python -O drops: a check that can fail raises an error, and one
that cannot is not written.  __init__.py is exempt from the import
check, since its imports are the package's public names; dunder methods
are exempt from the parameter check, since the protocol fixes their
signatures.  Only curve.py reads a singular point's kind: every other
module reads the conductors and spans that validate derives from it.
Only arith.py names factorint: nothing else in the package factors an
integer.  Only linalg.py and sampling.py name hnf_rows or
integer_kernel_basis: the dual graph's lattice is read off a spanning
forest in Hermite form, so no elimination runs outside the sampler.
Only linalg.py reads a _rows attribute: every other module
reads a RowSpan through sparse_rows, contains and rank, and only
linalg.py reads an ncols attribute: a span takes sparse rows, so no
other module forms a vector as wide as a span.  A singular point keeps
its ring modulo the conductor, so chow.py, infdiv.py and verify.py
never read a truncation, and only curve.py lays out jet columns:
jet_column (the conductor columns) is called elsewhere only by
chow.certify_cartier and infdiv.lie_kernel.  No module calls json.dump
or json.dumps with an indent, which runs the pure-Python encoder: the
reports go through cli's own writer.  Only frozen.py defines
__setattr__, __delattr__ or __reduce__: every immutable type takes
them from frozen.Frozen.  No module reads a Fraction's private
_numerator or _denominator: the public numerator and denominator are
the interface, and the private names are CPython's fractions internals.
Only symbols.py compares a value with "gm" or "ga": symbol_law holds
each tag's symbol, identity and group operation, and every other module
asks it.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "albx"


def parsed_modules():
    modules = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    # with no package found, every static check here would pass unchecked
    assert "symbols.py" in modules, f"no albx modules under {SRC}"
    return modules


def references(tree):
    """Counter of the names tree reads, as names, attributes or imports."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_import_is_used():
    unused = []
    for name, tree in parsed_modules().items():
        if name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{name}:{node.lineno} {bound}")
    assert not unused, unused


def test_every_private_function_is_referenced():
    # a function's references to itself (recursion) do not count
    modules = parsed_modules()
    total = sum((references(tree) for tree in modules.values()), Counter())
    dead = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and total[node.name] == references(node)[node.name]
    ]
    assert not dead, dead


def test_every_parameter_is_read():
    unread = []
    for name, tree in parsed_modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            read = {
                n.id
                for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread.extend(
                f"{name}:{node.lineno} {node.name}({p.arg})"
                for p in params
                if p is not None and p.arg not in read
            )
    assert not unread, unread


def _stored_into(tree):
    """The attribute nodes that a subscript assignment such as self.x[k] = v writes into."""
    return {
        id(n.value)
        for n in ast.walk(tree)
        if isinstance(n, ast.Subscript) and not isinstance(n.ctx, ast.Load)
    }


def _set_attributes(tree):
    """(line, name) of each self.X assignment and object.__setattr__(obj, "X", ...)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if (
                        isinstance(n, ast.Attribute)
                        and isinstance(n.value, ast.Name)
                        and n.value.id == "self"
                    ):
                        yield node.lineno, n.attr
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            yield node.lineno, node.args[1].value


def test_every_attribute_is_read():
    # a read is an attribute load anywhere in src/, tests/ or perfbench/;
    # self.x += 1 and self.x[k] = v do not count
    read = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            stored = _stored_into(tree)
            read.update(
                n.attr
                for n in ast.walk(tree)
                if isinstance(n, ast.Attribute)
                and isinstance(n.ctx, ast.Load)
                and id(n) not in stored
            )
    unread = sorted(
        f"{name}:{line} {attr}"
        for name, tree in parsed_modules().items()
        for line, attr in _set_attributes(tree)
        if attr not in read
    )
    assert not unread, unread


def test_no_assert_in_src():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in parsed_modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_only_curve_reads_kind():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in parsed_modules().items()
        if name != "curve.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "kind"
        and isinstance(node.ctx, ast.Load)
    ]
    assert not found, found


def test_only_arith_names_factorint():
    # the sampler splits its values over a coprime base; factoring an
    # integer of a user's curve can take exponential time
    found = [
        name
        for name, tree in parsed_modules().items()
        if name != "arith.py" and references(tree)["factorint"]
    ]
    assert not found, found


def test_only_linalg_and_sampling_name_integer_elimination():
    found = [
        f"{name}:{ref}"
        for name, tree in parsed_modules().items()
        if name not in ("linalg.py", "sampling.py")
        for ref in ("hnf_rows", "integer_kernel_basis")
        if references(tree)[ref]
    ]
    assert not found, found


def test_only_linalg_reads_rows():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in parsed_modules().items()
        if name != "linalg.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_rows"
    ]
    assert not found, found


def test_only_linalg_reads_ncols():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in parsed_modules().items()
        if name != "linalg.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "ncols"
        and isinstance(node.ctx, ast.Load)
    ]
    assert not found, found


def test_no_truncation_past_curve():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in parsed_modules().items()
        if name in ("chow.py", "infdiv.py", "verify.py")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "truncation"
    ]
    assert not found, found


def test_only_curve_lays_out_jet_columns():
    callers = {"chow.py": "certify_cartier", "infdiv.py": "lie_kernel"}
    found = []
    for name, tree in parsed_modules().items():
        if name == "curve.py":
            continue
        # the import, and the calls in the one function allowed to make them
        allowed = sum(
            references(node)["jet_column"]
            for node in tree.body
            if isinstance(node, ast.ImportFrom)
            or isinstance(node, ast.FunctionDef) and node.name == callers.get(name)
        )
        if references(tree)["jet_column"] > allowed:
            found.append(f"{name} jet_column")
    assert not found, found


def test_no_indented_json_dumps():
    calls = [
        (name, node.lineno)
        for name, tree in parsed_modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dump", "dumps")
        and any(k.arg == "indent" for k in node.keywords)
    ]
    assert not calls, calls


def test_only_frozen_defines_the_immutability_protocol():
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in parsed_modules().items()
        if name != "frozen.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name in ("__setattr__", "__delattr__", "__reduce__")
    ]
    assert not found, found


def test_no_private_fraction_fields():
    # an attribute read, or a name given to getattr or operator.attrgetter
    private = ("_numerator", "_denominator")
    found = [
        f"{name}:{node.lineno}"
        for name, tree in parsed_modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in private
        or isinstance(node, ast.Constant) and node.value in private
    ]
    assert not found, found


def test_only_symbols_compares_symbol_tags():
    # a comparison with "gm" or "ga" anywhere in it, such as tag == "gm"
    # or tag in ("gm", "ga")
    found = {
        f"{name}:{node.lineno}"
        for name, tree in parsed_modules().items()
        if name != "symbols.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(n, ast.Constant) and n.value in ("gm", "ga") for n in ast.walk(node))
    }
    assert not found, sorted(found)
