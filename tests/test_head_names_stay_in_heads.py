"""Outside `heads.py`, no survfuse module compares a value with a head name.

The choice between the discrete-time and the Cox head is made once, by
`heads.init_head` (and `heads.read_head` for a checkpoint); everything that
differs between the two is a method of the head it returns. A comparison
with "discrete" or "coxph" anywhere else is a second place that decides it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "survfuse"
HEAD_NAMES = {"discrete", "coxph"}


def names_in(node: ast.AST) -> set[str]:
    """The head names among the string constants of one compared operand,
    a literal tuple, list or set of them included."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return {item.value for item in items
            if isinstance(item, ast.Constant) and item.value in HEAD_NAMES}


def head_name_comparisons(tree: ast.Module) -> list[int]:
    """Lines of every comparison with a head name as one of its operands."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and any(names_in(operand) for operand in [node.left, *node.comparators])]


def test_only_heads_compares_with_a_head_name():
    offenders = [f"{path.name}:{line}"
                 for path in sorted(PACKAGE.glob("*.py")) if path.name != "heads.py"
                 for line in head_name_comparisons(ast.parse(path.read_text(encoding="utf-8")))]
    assert not offenders, f"head names compared outside heads.py: {offenders}"


def test_the_guard_sees_each_form_of_comparison():
    source = ('a == "discrete"\n"coxph" != b\nc in ("discrete", "coxph")\n'
              'd not in {"coxph"}\ne = "discrete"\nf == "early"\n')
    assert head_name_comparisons(ast.parse(source)) == [1, 2, 3, 4]
