"""Every public module-level function and class of survfuse has a caller in
survfuse itself, outside its own definition, and so does every public method
and property of a survfuse class.

Library code that only tests call is a second path to keep correct. The
exceptions are the names the benchmark traces (read from BENCHMARK.json) and
the short lists below, each with the reason it stays.
"""

import ast
import json
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "survfuse"

TEST_ONLY = {
    "token_masks": "acceptance criterion 5 (target sequences and masks)",
    "weighted_text_loss": "acceptance criteria 1 and 5 (text loss)",
}

# Methods that code outside survfuse calls, so no survfuse code names them.
HOOKS = {
    "error": "argparse calls it on a usage error (cli._Parser overrides it)",
}


def benchmark_names() -> set[tuple[str, str]]:
    """(module, attribute) of every per-layer name in BENCHMARK.json."""
    layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {tuple(layer["name"].split(".")[:2]) for layer in layers}


def module_imports(tree: ast.Module) -> tuple[dict, dict]:
    """Local names bound by relative imports anywhere in the module: to a
    (module, name) pair, and to a sibling module."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if node.module is None:
                modules[local] = alias.name
            else:
                names[local] = (node.module, alias.name)
    return names, modules


def package_trees() -> dict[str, ast.Module]:
    """Each survfuse module's syntax tree, by module name."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def definitions_and_uses() -> tuple[set, set]:
    """Public top-level (module, name) definitions, and those that a
    top-level statement other than the definition itself refers to, by name
    or through its module (`formats.read_npy`)."""
    trees = package_trees()
    defined = {}  # (module, name) -> index of the defining top-level statement
    for module, tree in trees.items():
        for index, stmt in enumerate(tree.body):
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                defined[(module, stmt.name)] = index
    used = set()
    for module, tree in trees.items():
        names, modules = module_imports(tree)
        for index, stmt in enumerate(tree.body):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    target = names.get(node.id, (module, node.id))
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id in modules):
                    target = (modules[node.value.id], node.attr)
                else:
                    continue
                if target in defined and (target[0], defined[target]) != (module, index):
                    used.add(target)
    return set(defined), used


def attribute_reads(node: ast.AST) -> Counter:
    """How often each name is read as an attribute (`x.name`) inside `node`."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def unread_methods() -> set[tuple[str, str]]:
    """(module.Class, name) of every public method or property of a survfuse
    class whose name no survfuse code reads as an attribute, outside the
    method's own body."""
    trees = package_trees()
    reads = sum((attribute_reads(tree) for tree in trees.values()), Counter())
    unread = set()
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if (isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                        and reads[item.name] == attribute_reads(item)[item.name]):
                    unread.add((f"{module}.{cls.name}", item.name))
    return unread


def test_every_public_definition_has_a_library_caller():
    defined, used = definitions_and_uses()
    unused = sorted(f"{module}.{name}" for module, name in defined - used - benchmark_names()
                    if name not in TEST_ONLY)
    assert not unused, f"survfuse code that only tests call: {unused}"


def test_every_public_method_is_read_by_library_code():
    unread = sorted(f"{owner}.{name}" for owner, name in unread_methods()
                    if name not in HOOKS)
    assert not unread, f"survfuse methods that only tests call: {unread}"


def test_every_exemption_is_still_needed():
    defined, used = definitions_and_uses()
    test_only = {name for _, name in defined - used}
    stale = sorted(set(TEST_ONLY) - test_only)
    assert not stale, f"exempt, but gone or called by survfuse: {stale}"
    stale = sorted(set(HOOKS) - {name for _, name in unread_methods()})
    assert not stale, f"exempt hooks that are gone or named by survfuse: {stale}"
