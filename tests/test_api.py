"""Every top-level function and class of the package is reached from the
package itself: a definition that only __init__.py exports, or only a test
calls, is code no command can run."""

import ast
from pathlib import Path

import blocksets

PACKAGE = Path(blocksets.__file__).parent


def test_every_definition_is_referenced_in_the_package():
    defined = {}
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.stem
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unreached = sorted("%s.%s" % (module, name)
                       for name, module in defined.items() if name not in used)
    assert unreached == []
