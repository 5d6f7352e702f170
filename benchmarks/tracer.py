"""Run one survfuse CLI command with library functions wrapped from outside.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 benchmarks/tracer.py SPEC.json OUT.json spans|memory -- <survfuse args>

SPEC.json names what to wrap, as ``module.attr`` strings relative to the
``survfuse`` package:

- ``spans``: functions timed as spans (name, parent, start, end);
- ``counts``: functions whose calls are only counted;
- ``constructors``: classes whose instances are counted through a
  class-level ``__post_init__`` hook (``__init__`` if there is none);
- ``returns``: {function: attribute}, an integer attribute of the returned
  value summed over calls, counted as ``function.attribute``;
- ``peaks``: functions whose peak traced allocation is measured with
  tracemalloc (``memory`` mode only, so its cost stays out of span times).

Every module-level binding of a wrapped function across ``survfuse.*`` is
replaced, so ``from .metrics import c_td`` in another module is traced too.
A name that no longer resolves is listed under ``missing`` and skipped. Spans
stay in memory and are written to OUT.json when the command ends. The exit
code is the command's own.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
import time
import tracemalloc

# The CLI copies SURVFUSE_THREADS into these before numpy loads; importing
# every module below loads numpy first, so do the same here.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")
_MB = float(1 << 20)


def _load_modules() -> dict:
    import survfuse

    modules = {}
    for info in pkgutil.iter_modules(survfuse.__path__):
        modules[info.name] = importlib.import_module(f"survfuse.{info.name}")
    return modules


def _resolve(modules: dict, target: str):
    module_name, _, attr = target.partition(".")
    module = modules.get(module_name)
    return None if module is None else getattr(module, attr, None)


def _rebind(modules: dict, original, wrapper) -> None:
    """Replace every module-level binding of ``original`` by ``wrapper``."""
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


class SpanRecorder:
    """Spans as [name index, parent span, start ns, end ns], kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int] | None] = []
        self.stack: list[int] = [-1]
        self.counts: dict[str, int] = {}

    def span(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = [index, parent, start, end]
        return traced

    def count(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def count_returns(self, name: str, attr: str, fn):
        counts = self.counts
        key = f"{name}.{attr}"
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += int(getattr(result, attr, 0))
            return result
        return counted


class PeakRecorder:
    """Peak tracemalloc bytes above the level at entry, max over calls.

    Tracing runs only while a measured function is active, so the rest of
    the command keeps its native speed. A nested call resets tracemalloc's
    peak, so each frame folds the peaks its children saw back into its own
    before it reads the global peak.
    """

    def __init__(self):
        self.stack: list[list[int]] = []
        self.peaks: dict[str, float] = {}

    def wrap(self, name: str, fn):
        stack, peaks = self.stack, self.peaks
        peaks.setdefault(name, 0.0)

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            if not stack:
                tracemalloc.start()
            current, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1][1] = max(stack[-1][1], peak)
            tracemalloc.reset_peak()
            frame = [current, current]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                top = max(frame[1], tracemalloc.get_traced_memory()[1])
                peaks[name] = max(peaks[name], (top - frame[0]) / _MB)
                if stack:
                    stack[-1][1] = max(stack[-1][1], top)
                else:
                    tracemalloc.stop()
        return measured


def _install(spec: dict, mode: str, modules: dict):
    """Wrap everything the spec names; return (recorder, missing names)."""
    missing: list[str] = []
    if mode == "memory":
        recorder = PeakRecorder()
        for target in spec.get("peaks", []):
            fn = _resolve(modules, target)
            if callable(fn):
                _rebind(modules, fn, recorder.wrap(target, fn))
            else:
                missing.append(target)
        return recorder, missing

    recorder = SpanRecorder()
    for target in spec.get("constructors", []):
        cls = _resolve(modules, target)
        if not isinstance(cls, type):
            missing.append(target)
            continue
        hook = "__post_init__" if "__post_init__" in vars(cls) else "__init__"
        setattr(cls, hook, recorder.count(f"{target}.created", getattr(cls, hook)))
    returns = spec.get("returns", {})
    span_targets = set(spec.get("spans", []))
    for target in sorted(span_targets | set(spec.get("counts", [])) | set(returns)):
        fn = _resolve(modules, target)
        if not callable(fn):
            missing.append(target)
            continue
        wrapped = fn
        if target in returns:
            wrapped = recorder.count_returns(target, returns[target], wrapped)
        if target in span_targets:
            wrapped = recorder.span(target, wrapped)
        elif target in spec.get("counts", []):
            wrapped = recorder.count(f"{target}.calls", wrapped)
        _rebind(modules, fn, wrapped)
    return recorder, missing


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[3] != "--" or argv[2] not in ("spans", "memory"):
        print("usage: tracer.py SPEC.json OUT.json spans|memory -- <survfuse args>",
              file=sys.stderr)
        return 1
    spec_path, out_path, mode, cli_args = argv[0], argv[1], argv[2], argv[4:]
    threads = os.environ.get("SURVFUSE_THREADS")
    if threads is not None:
        for var in _THREAD_VARS:
            os.environ[var] = threads
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    modules = _load_modules()
    recorder, missing = _install(spec, mode, modules)
    sys.argv = ["survfuse", *cli_args]
    try:
        code = modules["cli"].main(cli_args)
    finally:
        if mode == "memory":
            payload = {"peaks_mb": recorder.peaks}
        else:
            payload = {"names": recorder.names, "spans": recorder.spans,
                       "counts": recorder.counts}
        payload.update(command=cli_args[:1], missing=missing)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
