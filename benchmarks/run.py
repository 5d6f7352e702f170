"""survfuse benchmark: CLI workloads, end-to-end and per-layer metrics.

Run from a checkout of the repository (no install needed):

    python3 benchmarks/run.py --workload sweep-2k --seed 7 --seconds 40 --trace 0

Each workload simulates a cohort from ``--seed`` and ingests it
(``split_seed=0``); that set-up is timed ``SETUP_REPS`` times and reported as
``setup_s``. The workload's own CLI command then runs in fresh processes
until ``--seconds`` have passed and at least ``MIN_REPS`` runs are done.
Every survfuse command runs as ``python3 -m survfuse.cli`` with ``src`` on
PYTHONPATH, ``SURVFUSE_THREADS=1`` and ``SURVFUSE_LOG=warning``, one process
at a time.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
sets up once under the tracer, runs the command ``MIN_REPS`` times untraced
for reference, once traced (spans) and once under tracemalloc (peaks), and
prints the per-layer metrics of BENCHMARK.json. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics. The full
result, with every sample, the environment and the span parents, is written
to ``benchmarks/.work/results/``. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
PINS = HERE / "pins.json"
TRACER = HERE / "tracer.py"

DEFAULT_SEED = 7
SPLIT_SEED = 0
TIME_LIMIT_S = 170.0  # the whole invocation must end within 180 s
# Two set-ups and a 40 s window (BENCHMARK.json) keep one invocation of each
# gated workload near a minute on a 2-core machine, so ten runs of both on two
# commits fit in an hour.
SETUP_REPS = 2
MIN_REPS = 2
MB = 1024.0  # ru_maxrss is in KiB on Linux

# Criterion-6 hyperparameters, shared by every workload config.
HYPER = {"head": "discrete", "n_bins": "20", "epochs": "60", "patience": "10",
         "batch_size": "64", "head_layers": "64,32", "dropout": "0.1",
         "ae_hidden": "32", "latent_dim": "8", "seed": "11"}
RAW_FILES = ("covariates.csv", "ge.csv", "hidden.svhs", "outcomes.csv",
             "teacher.jsonl", "truth.csv")
INGEST_CFG = "".join(f"{key}=raw/{name}\n" for key, name in (
    ("outcomes", "outcomes.csv"), ("covariates", "covariates.csv"),
    ("ge", "ge.csv"), ("hidden", "hidden.svhs"), ("teacher", "teacher.jsonl"),
)) + f"split_seed={SPLIT_SEED}\n"


def _cfg(**overrides: str) -> str:
    return "".join(f"{k}={v}\n" for k, v in {**HYPER, **overrides}.items())


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    command: str            # "suite" or "train"
    configs: dict           # config file stem -> contents
    fused: str              # report entry that gives the quality metrics
    margin_check: bool = False  # criterion 6a: fused beats single modalities


LATE = {"fusion": "late", "modalities": "text,cov,ge"}
# Early stopping ended the five sweep configs after 176 to 235 epochs in all
# on seeds 1-10, and run_s followed; a fixed count keeps the work per seed equal.
SWEEP = {"epochs": "40", "patience": "40"}
WORKLOADS = {w.name: w for w in (
    # The paper's ablation table; the training step dominates.
    Workload("sweep-2k", 2000, "suite", {
        "text": _cfg(**SWEEP, fusion="none", modalities="text"),
        "cov": _cfg(**SWEEP, fusion="none", modalities="cov"),
        "ge": _cfg(**SWEEP, fusion="none", modalities="ge"),
        "early": _cfg(**SWEEP, fusion="early", modalities="text,cov,ge"),
        "late": _cfg(**SWEEP, **LATE),
    }, fused="late", margin_check=True),
    # Evaluation, bundle loading and teacher finalisation at large n. Not in
    # BENCHMARK.json: its set-up (2 x ~9 s) leaves no time for a window long
    # enough to be steady beside the other two; run it by hand.
    Workload("fit-eval-20k", 20000, "train",
             {"run": _cfg(**LATE, epochs="4", patience="4")},
             fused="run"),
    # Cox loss, pretraining, Breslow and long event-time grids. Early stopping
    # ended after 12 to 24 joint epochs and 6 to 52 pretraining epochs per
    # head on seeds 1-10, which spread run_s across seeds by more than its
    # bound, so both epoch counts are fixed.
    Workload("cox-pretrain-8k", 8000, "train",
             {"run": _cfg(**LATE, head="coxph", pretrain="true",
                          epochs="12", patience="12",
                          pretrain_epochs="20", pretrain_patience="20")},
             fused="run"),
)}
SINGLE_MODALITY = ("text", "cov", "ge")
MARGIN = 0.03

# Per-layer names that are not read from spans, counters or peaks.
DERIVED = ("training.epochs", "training.skipped_batches",
           "training.masked_samples", "cohort.bundle_bytes", "trace.overhead_s")
# Functions whose spans are read from the set-up processes (simulate and
# ingest); every other span and counter is read from the workload command
# alone, so set-up work does not mix into the layers that move run_s.
SETUP_LAYERS = ("synth.generate", "formats.write_csv_table",
                "formats.write_hidden_states", "formats.write_jsonl",
                "pooling.attention_pool", "cohort.save_bundle")


# ------------------------------------------------------------ environment


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def combined_digest(digests: dict[str, str]) -> str:
    """One SHA-256 over the sorted per-file digests."""
    text = "".join(f"{name} {digests[name]}\n" for name in sorted(digests))
    return hashlib.sha256(text.encode()).hexdigest()


def steal_seconds() -> float | None:
    """Cumulative CPU steal time of the machine, read from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def host_info() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": ".".join(map(str, sys.version_info[:3]))}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["SURVFUSE_THREADS"] = "1"
    env["SURVFUSE_LOG"] = "warning"
    return env


# ---------------------------------------------------------------- runner


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float


class Runner:
    """Runs one child at a time, within the invocation's time limit."""

    def __init__(self, log_path: Path, deadline: float):
        self.log_path = log_path
        self.deadline = deadline
        self.env = child_env()

    def run(self, argv: list[str]) -> Proc:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return Proc(code=-1, wall_s=0.0, rss_mb=0.0)
        with open(self.log_path, "ab") as log:
            log.write(("$ " + " ".join(argv) + "\n").encode())
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(code=proc.returncode, wall_s=wall, rss_mb=usage.ru_maxrss / MB)

    def cli(self, args: list[str]) -> Proc:
        return self.run([sys.executable, "-m", "survfuse.cli", *args])

    def traced(self, spec: Path, out: Path, mode: str, args: list[str]) -> Proc:
        return self.run([sys.executable, str(TRACER), str(spec), str(out), mode,
                         "--", *args])


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# ---------------------------------------------------------------- set-up


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def write_inputs(workload: Workload, seed: int, base: Path) -> dict[str, str]:
    """Write generator, ingest and run configs; return their digests."""
    (base / "configs").mkdir(parents=True, exist_ok=True)
    (base / "gen.cfg").write_text(f"n={workload.n}\nseed={seed}\n")
    files = {"ingest.cfg": INGEST_CFG}
    files.update({f"configs/{stem}.cfg": text
                  for stem, text in workload.configs.items()})
    for rel, text in files.items():
        (base / rel).write_text(text)
    return {rel: _sha256(base / rel) for rel in files}


def raw_digests(base: Path) -> dict[str, str]:
    return {name: _sha256(base / "raw" / name) for name in RAW_FILES
            if (base / "raw" / name).exists()}


def set_up(runner: Runner, ledger: Ledger, workload: Workload, seed: int,
           base: Path, pins: dict, expected_raw: str | None,
           traced_spec: Path | None = None) -> tuple[float, str]:
    """Write the inputs, then simulate + ingest into ``base``; time both.

    The simulate operation fails when it exits non-zero, when a config
    differs from pins.json, or when the raw files' digest differs from
    ``expected_raw``. Returns the wall time and the raw files' digest.
    """
    problems = []
    if write_inputs(workload, seed, base) != pins["configs"][workload.name]:
        problems.append("workload configs do not match pins.json")

    def cli(step: str, args: list[str]) -> Proc:
        if traced_spec is None:
            return runner.cli(args)
        return runner.traced(traced_spec, base / f"spans-{step}.json", "spans", args)

    simulate = cli("simulate", ["simulate", "--spec", str(base / "gen.cfg"),
                                "--out", str(base / "raw")])
    if simulate.code != 0:
        problems.append(f"simulate exited {simulate.code}")
    digest = combined_digest(raw_digests(base))
    if expected_raw is not None and digest != expected_raw:
        problems.append(f"raw inputs for seed {seed} differ from {expected_raw}")
    ledger.op(not problems, "; ".join(problems))
    ingest = cli("ingest", ["ingest", "--config", str(base / "ingest.cfg"),
                            "--out", str(base / "bundle")])
    ledger.op(ingest.code == 0, f"ingest exited {ingest.code}")
    return simulate.wall_s + ingest.wall_s, digest


def set_up_all(runner: Runner, ledger: Ledger, workload: Workload, seed: int,
               work: Path, reps: int, traced_spec: Path | None = None) -> tuple[Path, dict]:
    """Set up ``reps`` times; keep the last bundle, report every sample.

    The raw files must match pins.json; for a seed it does not cover, they
    must match across the repetitions.
    """
    pins = load_pins()
    pinned = pins["raw"].get(workload.name, {}).get(str(seed))
    expected = pinned
    steal0 = steal_seconds()
    samples = []
    for rep in range(reps):
        base = work / f"setup{rep}"
        wall, digest = set_up(runner, ledger, workload, seed, base, pins,
                              expected, traced_spec)
        samples.append(wall)
        expected = expected or digest
        if rep + 1 < reps:
            shutil.rmtree(base, ignore_errors=True)
    return base, {"samples_s": samples, "raw_digest": expected,
                  "pinned": pinned is not None, "steal_s": _delta(steal0)}


def _delta(start: float | None) -> float | None:
    end = steal_seconds()
    return None if start is None or end is None else round(end - start, 3)


# ------------------------------------------------------------------ runs


def command_args(workload: Workload, base: Path, out: Path) -> list[str]:
    if workload.command == "suite":
        return ["suite", "--configs", str(base / "configs"),
                "--bundle", str(base / "bundle"), "--out", str(out)]
    return ["train", "--config", str(base / "configs" / "run.cfg"),
            "--bundle", str(base / "bundle"), "--out", str(out)]


def read_reports(workload: Workload, out: Path) -> tuple[bytes, dict]:
    """Raw report bytes and {entry name: report dict or failure string}."""
    raw = (out / ("reports.json" if workload.command == "suite"
                  else "report.json")).read_bytes()
    payload = json.loads(raw)
    if workload.command != "suite":
        payload = {workload.fused: payload}
    return raw, payload


def check_reports(workload: Workload, reports: dict) -> list[str]:
    """Correctness checks on one run's reports; returns the failures."""
    problems = []
    for name, rep in reports.items():
        if isinstance(rep, str):
            continue  # a failed suite entry counts as its own operation
        for channel, values in rep["channels"].items():
            ctd, ibs = values.get("c_td"), values.get("ibs")
            if channel in ("hidden", "combined") and (ctd is None or ibs is None):
                problems.append(f"{name}/{channel}: metrics missing")
            if ctd is not None and not 0.5 < ctd <= 1.0:
                problems.append(f"{name}/{channel}: c_td {ctd} outside (0.5, 1]")
            if ibs is not None and not (math.isfinite(ibs) and ibs >= 0.0):
                problems.append(f"{name}/{channel}: ibs {ibs} not finite and >= 0")
    if workload.fused not in reports or isinstance(reports[workload.fused], str):
        problems.append(f"fused entry {workload.fused!r} missing")
    elif workload.margin_check:
        fused = reports[workload.fused]["channels"]["hidden"]["c_td"]
        singles = [reports[m]["channels"]["hidden"]["c_td"] for m in SINGLE_MODALITY
                   if m in reports and not isinstance(reports[m], str)]
        if len(singles) != len(SINGLE_MODALITY):
            problems.append("single-modality entries missing")
        elif fused is not None and None not in singles and fused < max(singles) + MARGIN:
            problems.append(f"late hidden c_td {fused:.4f} < best single "
                            f"{max(singles):.4f} + {MARGIN}")
    return problems


class RunSet:
    """Fresh-process runs of one workload command, checked against each other."""

    def __init__(self, runner: Runner, ledger: Ledger, workload: Workload, base: Path):
        self.runner, self.ledger, self.workload, self.base = runner, ledger, workload, base
        self.first_report: bytes | None = None
        self.reports: dict = {}
        self.walls: list[float] = []
        self.rss: list[float] = []
        self.count = 0

    def check(self, proc: Proc, out: Path, label: str) -> bool:
        """Check one finished run; every failure counts against the ledger."""
        wl, ledger = self.workload, self.ledger
        problems = [] if proc.code == 0 else [f"{label}: exited {proc.code}"]
        reports = {}
        if proc.code == 0:
            try:
                raw, reports = read_reports(wl, out)
            except (OSError, ValueError) as exc:
                problems.append(f"{label}: unreadable report ({exc})")
            else:
                if self.first_report is None:
                    self.first_report, self.reports = raw, reports
                elif raw != self.first_report:
                    problems.append(f"{label}: report differs from the first run")
                problems += [f"{label}: {p}" for p in check_reports(wl, reports)]
        if wl.command == "suite":
            # each suite entry is an operation of its own
            for name in wl.configs:
                rep = reports.get(name)
                ledger.op(rep is not None and not isinstance(rep, str),
                          f"{label}: suite entry {name} failed or missing")
        ok = not problems
        ledger.op(ok, "; ".join(problems))
        return ok

    def timed(self, out: Path) -> None:
        self.count += 1
        proc = self.runner.cli(command_args(self.workload, self.base, out))
        if self.check(proc, out, f"run {self.count}"):
            self.walls.append(proc.wall_s)
            self.rss.append(proc.rss_mb)
        shutil.rmtree(out, ignore_errors=True)

    def repeat(self, work: Path, seconds: float, min_reps: int) -> dict:
        steal0 = steal_seconds()
        start = time.monotonic()
        while self.count < min_reps or time.monotonic() - start < seconds:
            if time.monotonic() + 2 * max(self.walls, default=0.0) > self.runner.deadline:
                break
            self.timed(work / f"run{self.count}")
        return {"walls_s": self.walls, "rss_mb": self.rss,
                "steal_s": _delta(steal0)}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def quality(workload: Workload, reports: dict) -> dict[str, float]:
    rep = reports.get(workload.fused)
    out = {}
    for channel in ("hidden", "combined"):
        values = {} if not isinstance(rep, dict) else rep["channels"].get(channel, {})
        out[f"c_td_{channel}"] = values.get("c_td") or 0.0
        out[f"ibs_{channel}"] = values.get("ibs") or 0.0
    return out


# --------------------------------------------------------------- tracing


def tracer_spec(names: list[str]) -> dict:
    """What the tracer wraps, derived from the per-layer metric names."""
    spans, counts, ctors, peaks, returns = set(), set(), set(), set(), {}
    for name in names:
        if name in DERIVED:
            continue
        target, suffix = name.rsplit(".", 1)
        if suffix in ("s", "self_s"):
            spans.add(target)
        elif suffix == "calls":
            counts.add(target)
        elif suffix == "peak_mb":
            peaks.add(target)
        elif suffix == "created":
            ctors.add(target)
        else:
            returns[target] = suffix
    return {"spans": sorted(spans), "counts": sorted(counts - spans),
            "constructors": sorted(ctors), "peaks": sorted(peaks),
            "returns": returns}


def aggregate_spans(paths: list[Path]) -> tuple[dict, dict, dict, list[str]]:
    """Per-function calls, inclusive and self seconds; parents; counters."""
    stats: dict[str, dict] = {}
    parents: dict[str, dict[str, int]] = {}
    counts: dict[str, int] = {}
    missing: set[str] = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        names, spans = data["names"], data["spans"]
        missing.update(data["missing"])
        for key, value in data["counts"].items():
            counts[key] = counts.get(key, 0) + value
        child_ns = [0] * len(spans)
        for span in spans:
            if span is not None and span[1] >= 0:
                child_ns[span[1]] += span[3] - span[2]
        for i, span in enumerate(spans):
            if span is None:
                continue
            name, dur = names[span[0]], span[3] - span[2]
            entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += dur / 1e9
            entry["self_s"] += (dur - child_ns[i]) / 1e9
            parent = names[spans[span[1]][0]] if span[1] >= 0 else "<root>"
            by_parent = parents.setdefault(name, {})
            by_parent[parent] = by_parent.get(parent, 0) + 1
    return stats, parents, counts, sorted(missing)


def per_layer_values(names: list[str], setup: tuple, run: tuple, peaks: dict,
                     derived: dict, missing: list[str]) -> dict[str, float]:
    """Each name's value; ``setup`` and ``run`` are (stats, counts) pairs."""
    values = {}
    for name in names:
        if name in DERIVED:
            values[name] = derived[name]
            continue
        target, suffix = name.rsplit(".", 1)
        stats, counts = setup if target in SETUP_LAYERS else run
        if target in missing:
            values[name] = 0
        elif suffix in ("s", "self_s"):
            values[name] = stats.get(target, {}).get(suffix, 0.0)
        elif suffix == "calls":
            values[name] = (stats[target]["calls"] if target in stats
                            else counts.get(name, 0))
        elif suffix == "peak_mb":
            values[name] = peaks.get(target, 0.0)
        else:
            values[name] = counts.get(name, 0)
    return values


def report_counts(reports: dict) -> dict[str, int]:
    """Work-done and waste counts summed over the reports of one run."""
    totals = {"training.epochs": 0, "training.skipped_batches": 0,
              "training.masked_samples": 0}
    for rep in reports.values():
        if isinstance(rep, dict):
            totals["training.epochs"] += len(rep.get("train_trace", []))
            totals["training.skipped_batches"] += rep.get("skipped_batches", 0)
            totals["training.masked_samples"] += rep.get("masked_samples", 0)
    return totals


def bundle_bytes(bundle: Path) -> int:
    """Computed from file sizes, not measured I/O."""
    return sum(p.stat().st_size for p in bundle.rglob("*") if p.is_file())


# ------------------------------------------------------------------ main


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="simulate seed (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="least time spent on timed runs of the command")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(args, workload, runner, ledger, work) -> tuple[dict, dict]:
    base, setup = set_up_all(runner, ledger, workload, args.seed, work, SETUP_REPS)
    runs = RunSet(runner, ledger, workload, base)
    timing = runs.repeat(work, args.seconds, MIN_REPS)
    metrics = {"setup_s": _median(setup["samples_s"]),
               "run_s": _median(timing["walls_s"]),
               "peak_rss_mb": _median(timing["rss_mb"])}
    metrics.update(quality(workload, runs.reports))
    return metrics, {"setup": setup, "runs": timing, "work": report_counts(runs.reports)}


def traced(args, workload, runner, ledger, work, names) -> tuple[dict, dict]:
    spec_path = work / "tracer-spec.json"
    spec_path.write_text(json.dumps(tracer_spec(names), indent=1))
    base, setup = set_up_all(runner, ledger, workload, args.seed, work, 1,
                             traced_spec=spec_path)
    runs = RunSet(runner, ledger, workload, base)
    timing = runs.repeat(work, 0.0, MIN_REPS)  # untraced reference runs

    span_out, mem_out = work / "spans-run.json", work / "peaks-run.json"
    traced_proc = runner.traced(spec_path, span_out, "spans",
                                command_args(workload, base, work / "traced"))
    runs.check(traced_proc, work / "traced", "traced run")
    mem_proc = runner.traced(spec_path, mem_out, "memory",
                             command_args(workload, base, work / "memory"))
    runs.check(mem_proc, work / "memory", "memory pass")

    setup_files = [p for p in (base / "spans-simulate.json",
                               base / "spans-ingest.json") if p.exists()]
    setup_stats, setup_parents, setup_counts, missing = aggregate_spans(setup_files)
    stats, parents, counts, run_missing = aggregate_spans(
        [span_out] if span_out.exists() else [])
    missing = sorted(set(missing) | set(run_missing))
    peaks = {}
    if mem_out.exists():
        with open(mem_out, encoding="utf-8") as fh:
            mem = json.load(fh)
        peaks = mem["peaks_mb"]
        missing = sorted(set(missing) | set(mem["missing"]))
    untraced = _median(timing["walls_s"])
    derived = dict(report_counts(runs.reports))
    derived["cohort.bundle_bytes"] = bundle_bytes(base / "bundle")
    derived["trace.overhead_s"] = traced_proc.wall_s - untraced
    metrics = per_layer_values(names, (setup_stats, setup_counts), (stats, counts),
                               peaks, derived, missing)
    detail = {"setup": setup, "runs": timing, "traced_run_s": traced_proc.wall_s,
              "memory_pass_s": mem_proc.wall_s, "missing": missing,
              "span_parents": {"setup": setup_parents, "run": parents},
              "spans": {"setup": setup_stats, "run": stats}}
    return metrics, detail


def _versions(work: Path) -> dict:
    """Python and numpy versions as the CLI recorded them in a manifest."""
    for manifest in sorted(work.rglob("manifest.json")):
        try:
            return json.loads(manifest.read_text())["versions"]
        except (OSError, ValueError, KeyError):
            continue
    return {}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "survfuse" / "cli.py").is_file():
        print(f"benchmark: no survfuse sources under {SRC}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work / "commands.log", time.monotonic() + TIME_LIMIT_S)
    ledger = Ledger()

    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values, detail = traced(args, workload, runner, ledger, work, names)
    else:
        names = [m["name"] for m in bench["end_to_end"]]
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values, detail = end_to_end(args, workload, runner, ledger, work)

    failed = len(ledger.failures)
    error_rate = failed / ledger.attempted if ledger.attempted else 1.0
    result = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "host": host_info(),
        "versions": _versions(work), "attempted": ledger.attempted,
        "failed": failed, "error_rate": error_rate, "failures": ledger.failures,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in names},
        "detail": detail,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    shutil.rmtree(work, ignore_errors=True)

    for name in names:
        print(f"{workload.name}  {name:<34} {values[name]:>14.6g} {units[name]}")
    print(f"{workload.name}  {'error_rate':<34} {error_rate:>14.6g} "
          f"({failed} of {ledger.attempted} operations failed)")
    for failure in ledger.failures:
        print(f"FAILED: {failure}")
    if args.trace and detail["missing"]:
        print(f"missing traced names (reported as 0): {', '.join(detail['missing'])}")
    print(json.dumps({"correct": failed == 0, "attempted": ledger.attempted,
                      "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
