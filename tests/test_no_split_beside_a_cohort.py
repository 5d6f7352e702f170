"""A cohort carries its split and a trained result its config.

So no library function takes a split as a parameter of its own, and none
takes a `RunConfig` beside a `TrainResult`: a caller could otherwise pair a
cohort with another split, or a model with a config that did not build it.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "survfuse"


def mismatched_pairs(source: str) -> list[str]:
    """A "line name: why" entry for each function of `source` that takes a
    split, or a `RunConfig` next to a `TrainResult` (by annotation)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [p for p in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg,
                              args.kwarg) if p is not None]
        if any(p.arg == "split" for p in params):
            found.append(f"{node.lineno} {node.name}: takes a split")
        annotations = " ".join(ast.unparse(p.annotation) for p in params if p.annotation)
        if all(re.search(rf"\b{kind}\b", annotations) for kind in ("RunConfig", "TrainResult")):
            found.append(f"{node.lineno} {node.name}: takes a RunConfig beside a TrainResult")
    return found


def test_no_function_takes_a_split_or_a_config_beside_a_result():
    found = [f"{path.name}:{hit}" for path in sorted(SRC.glob("*.py"))
             for hit in mismatched_pairs(path.read_text(encoding="utf-8"))]
    assert found == []


def test_the_guard_sees_each_way_to_take_them():
    source = ("def train(config: RunConfig, cohort, split, warm_start=None): ...\n"
              "def evaluate(result: TrainResult, cohort: Cohort, split: CohortSplit,\n"
              "             config: RunConfig): ...\n"
              "def save_checkpoint(path: str, result: TrainResult, config: 'RunConfig'): ...\n"
              "def fine(config: RunConfig, cohort: Cohort, result: int, *, part=None): ...\n"
              "def pick(cohort, *, split): ...\n")
    assert mismatched_pairs(source) == [
        "1 train: takes a split",
        "2 evaluate: takes a split",
        "2 evaluate: takes a RunConfig beside a TrainResult",
        "4 save_checkpoint: takes a RunConfig beside a TrainResult",
        "6 pick: takes a split",
    ]
