"""The public API is what the package itself and the benchmark call.

Every public top-level function and every public method defined in
src/mecforge must be referenced by name somewhere other than its own
definition, in src/mecforge or in perfbench.  A name that only the tests
reach is test-only surface: move it into tests/oracles.py, or point the
tests at the function the package does call.  Imports and `__all__`
entries do not count as references.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mecforge"


def public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def references(node: ast.AST) -> Counter:
    """How often each name is read, bare or as an attribute, within `node`."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_public_function_has_a_caller():
    modules = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.rglob("*.py"))}
    callers = [*modules.values(), *(ast.parse(path.read_text())
                                    for path in sorted((ROOT / "perfbench").glob("*.py")))]
    everywhere = sum((references(tree) for tree in callers), Counter())
    unused = []
    for path, tree in modules.items():
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts).removesuffix(".__init__")
        for qualname, node in public_definitions(tree):
            if not node.name.startswith("_") and everywhere[node.name] == references(node)[node.name]:
                unused.append(f"{module}.{qualname}")
    assert not unused, f"public names with no caller in src/ or perfbench/: {unused}"
