"""Shared pytest hooks.

The acceptance suite prints one verdict line per criterion after the run,
past stdout capture, so `pytest` output always shows the gate explicitly.
"""

import re

_CRITERIA = {
    1: "analytic gradients match finite differences",
    2: "concordance and Brier score match oracles",
    3: "losses reproduce closed-form values",
    4: "parametric fits recover true parameters",
    5: "target sequences round-trip and mask correctly",
    6: "synthetic end to end: fusion and blending gains, calibration mask",
    7: "training is bit-for-bit deterministic",
    8: "saturated gates reduce to single modalities",
}

_NODE_RE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")
_outcomes: dict[int, str] = {}


def pytest_runtest_logreport(report):
    match = _NODE_RE.search(report.nodeid)
    if not match:
        return
    key = int(match.group(1))
    if report.when == "call":
        _outcomes[key] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.skipped:
        _outcomes[key] = "SKIP"
    elif not report.passed and _outcomes.get(key) != "FAIL":
        _outcomes[key] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for key in sorted(_CRITERIA):
        verdict = _outcomes.get(key, "NOT RUN")
        terminalreporter.write_line(
            f"criterion {key} ({_CRITERIA[key]}): {verdict}")
