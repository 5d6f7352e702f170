"""The benchmark's per-layer names must point at functions that exist.

The tracer wraps each ``<module>.<function>`` named in BENCHMARK.json and
reports 0 for a name that no longer resolves, so a rename would silently zero
a layer. Only names ending in ``.s``, ``.self_s`` or ``.calls`` name a
function; the rest are derived counts, constructor counts, returned
attributes or memory peaks.
"""

import importlib
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
FUNCTION_SUFFIXES = ("s", "self_s", "calls")


def traced_functions() -> list[str]:
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    targets = {name.rsplit(".", 1)[0] for name in names
               if name.rsplit(".", 1)[1] in FUNCTION_SUFFIXES}
    return sorted(targets)


def test_benchmark_layer_names_resolve_in_survfuse():
    targets = traced_functions()
    assert targets, "BENCHMARK.json lists no traced functions"
    unresolved = []
    for target in targets:
        module_name, _, attr = target.partition(".")
        module = importlib.import_module(f"survfuse.{module_name}")
        if not callable(getattr(module, attr, None)):
            unresolved.append(target)
    assert not unresolved, f"benchmark names without a survfuse function: {unresolved}"
