"""The runtime stays stdlib-only: every import in the package is relative
or names a standard-library module."""

import ast
import sys

from support import FIXTURES

PACKAGE = FIXTURES.parent / "src" / "tdparse"


def absolute_imports(path):
    """(line, top-level module) of every non-relative import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    foreign = [
        f"{path.name}:{lineno}: {module}"
        for path in sources
        for lineno, module in absolute_imports(path)
        if module not in sys.stdlib_module_names
    ]
    assert foreign == []
