"""Stage timings for a command's manifest."""

from __future__ import annotations

import contextlib
import time


@contextlib.contextmanager
def stage(timings: dict[str, float] | None, name: str):
    """Add the wall time of the `with` body to `timings[name]` (seconds).

    With `timings` None the body runs untimed, so library functions can take
    an optional dict from their caller.
    """
    start = time.perf_counter()
    try:
        yield
    finally:
        if timings is not None:
            timings[name] = timings.get(name, 0.0) + time.perf_counter() - start
