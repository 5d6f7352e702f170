"""The benchmark's per-layer names must point at functions and classes that exist.

The tracer wraps each ``<module>.<function>`` named in BENCHMARK.json and
counts the instances of each ``<module>.<Class>.created``, and it reports 0
for a name that no longer resolves, so a rename would silently zero a layer.
Names ending in ``.s``, ``.self_s`` or ``.calls`` name a function, names
ending in ``.created`` a class; the rest are derived counts, returned
attributes or memory peaks.
"""

import importlib
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
FUNCTION_SUFFIXES = ("s", "self_s", "calls")

# Constructor counts whose class is gone. Each reads 0 until the benchmark
# retires it: the next change to the benchmark (ROADMAP item 2) removes
# heads.SurvivalCurve.created, whose class was folded into CurveSet.
RETIRED_CLASSES = ["heads.SurvivalCurve"]


def layer_names() -> list[str]:
    return [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]


def traced(suffixes) -> list[str]:
    return sorted({name.rsplit(".", 1)[0] for name in layer_names()
                   if name.rsplit(".", 1)[1] in suffixes})


def resolve(target: str):
    module_name, _, attr = target.partition(".")
    return getattr(importlib.import_module(f"survfuse.{module_name}"), attr, None)


def test_benchmark_layer_names_resolve_in_survfuse():
    targets = traced(FUNCTION_SUFFIXES)
    assert targets, "BENCHMARK.json lists no traced functions"
    unresolved = [target for target in targets if not callable(resolve(target))]
    assert not unresolved, f"benchmark names without a survfuse function: {unresolved}"


def test_benchmark_constructor_counts_name_survfuse_classes():
    targets = traced(("created",))
    assert targets, "BENCHMARK.json lists no constructor counts"
    unresolved = [target for target in targets if not isinstance(resolve(target), type)]
    assert unresolved == RETIRED_CLASSES, (
        f"constructor counts without a survfuse class: {unresolved}; only "
        f"{RETIRED_CLASSES} may be missing, and each of those must still be listed "
        f"in BENCHMARK.json and still be missing")
