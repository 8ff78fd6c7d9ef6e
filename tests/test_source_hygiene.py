"""Static checks on src/albx with the standard library's ast module.

No linter ships with the project, so dead code that deletions leave
behind is caught here: an import that its module never uses, and a
private top-level function that nothing in the package refers to.
__init__.py is exempt from the import check, since its imports are the
package's public names.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "albx"


def parsed_modules():
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }


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
