"""The command line reaches the cohort layer through five names only.

`cohort.load_cohort` builds a cohort, split included, from an `IngestConfig`,
`save_bundle` and `load_bundle` store and read it, and `read_outcomes` reads
an outcomes file for `parse-teacher` and `blend`. A command that uses any
other cohort name, or names a covariate schema, is assembling the cohort
itself: a second ingest path beside `load_cohort`.
"""

import ast
from pathlib import Path

from survfuse.cohort import IngestConfig

CLI = Path(__file__).resolve().parents[1] / "src" / "survfuse" / "cli.py"
ALLOWED = {"IngestConfig", "load_cohort", "save_bundle", "load_bundle", "read_outcomes"}


def cohort_names(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each cohort name the module imports or reads as an
    attribute of the cohort module, however that module is bound."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("cohort", "survfuse.cohort"):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "cohort"}
    found += [(node.lineno, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules]
    return found


def schema_names(tree: ast.Module) -> list[int]:
    """Lines of every string constant that is a covariate schema's name."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in IngestConfig.SCHEMAS]


def test_cli_uses_only_the_cohort_entry_points():
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    offenders = [f"cli.py:{line} {name}" for line, name in cohort_names(tree)
                 if name not in ALLOWED]
    assert not offenders, f"cli.py assembles the cohort itself: {offenders}"


def test_cli_names_no_schema():
    lines = schema_names(ast.parse(CLI.read_text(encoding="utf-8")))
    assert not lines, f"cli.py names a covariate schema on lines {lines}"


def test_the_guard_sees_each_way_to_reach_the_cohort_module():
    source = ("from . import cohort as co\nfrom .cohort import load_bundle, split_cohort\n"
              "co.load_cohort(cfg, path)\nco.pool_text(c)\nif cfg.schema == 'clinical':\n"
              "    pass\nx.pool_text(c)\n")
    tree = ast.parse(source)
    assert sorted(cohort_names(tree)) == [(2, "load_bundle"), (2, "split_cohort"),
                                          (3, "load_cohort"), (4, "pool_text")]
    assert schema_names(tree) == [5]
