"""No survfuse module imports `warnings`.

A quiet workaround (a clamped survival value, a floored 0% estimate, an
imputed curve) returns its count to its caller, and the command records the
count in its output and logs it once. A warning raised

inside the library instead depends on the caller's filters, repeats or
vanishes with the call pattern, and never reaches a report.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "survfuse"


def imported_modules(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import anywhere in the module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_no_survfuse_module_imports_warnings():
    offenders = [f"{path.name}:{line}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for line, module in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
                 if module == "warnings"]
    assert not offenders, f"survfuse modules that import warnings: {offenders}"
