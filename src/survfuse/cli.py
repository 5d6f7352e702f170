"""Command-line front end.

Subcommands cover the full pipeline: simulate a synthetic cohort, ingest raw
files into a bundle, pool hidden states, train or evaluate models, run a
config suite, parse teacher responses, and blend prediction channels.

Exit codes: 0 success, 1 validation error (bad flags, malformed inputs),
2 runtime failure. Every run writes a manifest.json next to its outputs;
report files carry no timestamps so reruns are byte-identical.

Heavy imports happen inside main() so SURVFUSE_THREADS can pin the BLAS
thread pools before numpy loads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time

log = logging.getLogger("survfuse")

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


class UsageError(Exception):
    """Bad command line or malformed input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; we reserve 2 for runtime failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _setup_environment() -> None:
    threads = os.environ.get("SURVFUSE_THREADS")
    if threads is not None:
        for var in _THREAD_VARS:
            os.environ[var] = threads
    level_name = os.environ.get("SURVFUSE_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        raise UsageError(f"SURVFUSE_LOG={level_name!r} is not a log level")
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _hash_tree(path: str) -> dict[str, str] | str:
    """File -> digest; directory -> {relative path: digest}, sorted, without
    the directory's own manifest.json, whose timings change on every run."""
    if os.path.isfile(path):
        return _sha256(path)
    hashes = {}
    for root, _, names in sorted(os.walk(path)):
        for name in sorted(names):
            full = os.path.join(root, name)
            rel = os.path.relpath(full, path)
            if rel != "manifest.json":
                hashes[rel] = _sha256(full)
    return hashes


def _write_manifest(out_dir: str, command: str, started: float,
                    config: dict | None = None, seeds: dict | None = None,
                    inputs: dict[str, str] | None = None,
                    output_files: list[str] | None = None,
                    extra: dict | None = None,
                    timings: dict[str, float] | None = None,
                    filename: str = "manifest.json") -> None:
    """Write the manifest `filename` into `out_dir`; `inputs` maps names to
    the paths read (a None path was not given), `timings` holds the seconds
    of the command's stages, and the manifest's `timings` adds the whole
    command as "total"."""
    import numpy as np

    from . import __version__

    os.makedirs(out_dir, exist_ok=True)
    if output_files is not None:
        outputs = {os.path.basename(path): _sha256(path) for path in output_files}
    else:  # every file under out_dir but an older manifest
        outputs = _hash_tree(out_dir)
    manifest = {
        "command": command,
        "argv": sys.argv[1:],
        "config": config,
        "seeds": seeds or {},
        "versions": {
            "survfuse": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "inputs": {name: _hash_tree(path) for name, path in (inputs or {}).items() if path},
        "outputs": outputs,
        "timings": {"total": time.perf_counter() - started, **(timings or {})},
    }
    if extra:
        manifest.update(extra)
    _write_json(os.path.join(out_dir, filename), manifest)


def _write_json(path: str, payload: dict) -> None:
    """Indented, key-sorted JSON plus a newline, written atomically."""
    from .formats import atomic_open

    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _warn_counts(command: str, counts: dict[str, int]) -> None:
    """Log one WARNING naming each nonzero count of the quiet workarounds a
    command took, by its key in the command's output; none when all are 0."""
    done = " ".join(f"{key}={n}" for key, n in counts.items() if n)
    if done:
        log.warning("%s: %s", command, done)


def _report_counts(report: dict) -> dict[str, int]:
    """The workaround counts of a `RunReport.to_dict()`, by key."""
    counts = {"clamped_values": report["clamped_values"],
              "imputed_curves": report["imputed_curves"]}
    for split, n in report["floored_percents"].items():
        counts[f"floored_percents.{split}"] = n
    return counts


# ---------------------------------------------------------------- commands


def _cmd_simulate(args, started: float) -> int:
    from . import synth
    from .formats import dataclass_from_kv, parse_kv_file

    if args.spec is not None:
        spec = dataclass_from_kv(synth.GeneratorSpec, parse_kv_file(args.spec), args.spec)
    else:
        spec = synth.GeneratorSpec()
    timings: dict[str, float] = {}
    result = synth.generate(spec, args.out, timings=timings)
    print(f"wrote {len(result.ids)} samples to {args.out}")
    _write_manifest(args.out, "simulate", started,
                    config=spec.__dict__, seeds={"generator": spec.seed},
                    inputs={"spec": args.spec}, timings=timings)
    return 0


def _cmd_ingest(args, started: float) -> int:
    from . import cohort as co
    from .formats import dataclass_from_kv, parse_kv_file
    from .timing import stage

    kv = parse_kv_file(args.config)
    cfg = dataclass_from_kv(co.IngestConfig, kv, args.config)
    timings: dict[str, float] = {}
    cohort, pooled_count = co.load_cohort(cfg, args.config, timings)
    with stage(timings, "save"):
        written = co.save_bundle(cohort, args.out)
    sizes = ", ".join(f"{part} {rows.size}" for part, rows in vars(cohort.split).items())
    print(f"bundle: {len(cohort)} samples ({sizes}), pooled {pooled_count}")
    _write_manifest(args.out, "ingest", started, config=dict(kv),
                    seeds={"split": cfg.split_seed}, inputs=cfg.input_paths(args.config),
                    output_files=written, timings=timings)
    return 0


def _cmd_pool(args, started: float) -> int:
    from . import formats, pooling

    hidden = formats.read_hidden_states(args.hidden)
    pooled = pooling.pool_all(hidden)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    formats.write_pooled(args.out, pooled)
    print(f"pooled {len(pooled)} sequences into {args.out}")
    # --out names a file, so its directory may hold another command's
    # manifest.json (pooling into simulate's raw directory): name this one
    # after the output file instead
    _write_manifest(out_dir, "pool", started, inputs={"hidden": args.hidden},
                    output_files=[args.out],
                    filename=os.path.basename(args.out) + ".manifest.json")
    return 0


def _cmd_train(args, started: float) -> int:
    from . import training
    from .cohort import load_bundle

    config = training.load_run_config(args.config)
    result, report = training.train_and_evaluate(config, load_bundle(args.bundle))

    os.makedirs(args.out, exist_ok=True)
    training.save_checkpoint(os.path.join(args.out, "checkpoint"), result)
    _write_report(args.out, "train", started, report,
                  inputs={"config": args.config, "bundle": args.bundle})
    return 0


def _write_report(out_dir: str, command: str, started: float, report, inputs: dict) -> None:
    """Write a run's report.json, print its table, log its counts and write
    the manifest (`train` and `eval`)."""
    from . import training

    payload = report.to_dict()
    _write_json(os.path.join(out_dir, "report.json"), payload)
    print(training.report_table({command: report}))
    _warn_counts(command, _report_counts(payload))
    _write_manifest(out_dir, command, started, config=payload["config"],
                    seeds={"master": report.config.seed}, inputs=inputs)


def _cmd_suite(args, started: float) -> int:
    import glob as globlib

    from . import formats, training
    from .cohort import load_bundle

    paths = sorted(globlib.glob(os.path.join(args.configs, "*.cfg")))
    if not paths:
        raise UsageError(f"no *.cfg files under {args.configs}")
    named = [(os.path.splitext(os.path.basename(p))[0],
              training.load_run_config(p)) for p in paths]
    workers = training.suite_workers(len(named))
    log.info("suite: %d configurations on %d worker processes", len(named), workers)
    timings: dict[str, float] = {}
    reports = training.run_experiment_suite(named, load_bundle(args.bundle), timings)

    os.makedirs(args.out, exist_ok=True)
    payload = {name: (rep if isinstance(rep, str) else rep.to_dict())
               for name, rep in reports.items()}
    _write_json(os.path.join(args.out, "reports.json"), payload)
    table = training.report_table(reports)
    with formats.atomic_open(os.path.join(args.out, "table.txt"), "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    print(table)
    for name, rep in payload.items():
        if isinstance(rep, dict):
            _warn_counts(f"suite {name}", _report_counts(rep))
    seeds = {name: cfg.seed for name, cfg in named}
    _write_manifest(args.out, "suite", started, seeds=seeds,
                    inputs={"configs": args.configs, "bundle": args.bundle},
                    timings={f"config.{name}": s for name, s in timings.items()},
                    extra={"workers": workers})
    failures = sum(1 for rep in reports.values() if isinstance(rep, str))
    if failures:
        log.warning("%d of %d runs failed", failures, len(reports))
    return 0


def _cmd_eval(args, started: float) -> int:
    from . import formats, training
    from .cohort import load_bundle

    result = training.load_checkpoint(args.checkpoint)
    cohort = load_bundle(args.bundle)
    report, curves = training.evaluate(result, cohort)

    os.makedirs(args.out, exist_ok=True)
    formats.write_curves(os.path.join(args.out, "curves"),
                         [cohort.ids[i] for i in cohort.split.test], curves)
    _write_report(args.out, "eval", started, report,
                  inputs={"checkpoint": args.checkpoint, "bundle": args.bundle})
    return 0


def _cmd_parse_teacher(args, started: float) -> int:
    from . import distill, formats
    from .cohort import read_outcomes

    table = distill.parse_teacher_file(args.teacher)
    train_ids = None
    if args.train_ids is not None:
        with open(args.train_ids, encoding="utf-8") as fh:
            train_ids = {line.strip() for line in fh if line.strip()}
    outcomes = read_outcomes(args.outcomes) if args.outcomes is not None else None
    percents, rows, summary = distill.student_targets(table, train_ids, outcomes)

    os.makedirs(args.out, exist_ok=True)
    formats.write_jsonl(os.path.join(args.out, "targets.jsonl"), rows)
    formats.write_percents(os.path.join(args.out, "percents.csv"), table.ids, percents)
    print(f"records {summary['records']}, extracted {summary['extracted']}, "
          f"loss-masked {summary['masked']}")
    _warn_counts("parse-teacher", {"clamped": summary["clamped"]})
    _write_manifest(args.out, "parse-teacher", started,
                    inputs={"teacher": args.teacher, "outcomes": args.outcomes,
                            "train_ids": args.train_ids},
                    extra={"summary": summary})
    return 0


def _cmd_blend(args, started: float) -> int:
    from . import blending, formats
    from .cohort import read_outcomes

    # the weight flags are checked before any file is read
    if args.lam is None and args.outcomes is None:
        raise UsageError("need --lam or --outcomes to choose the weight")
    if args.lam is not None and args.outcomes is not None:
        raise UsageError("--lam fixes the weight and --outcomes selects it: give one")
    if args.lam is not None and not 0.0 <= args.lam <= 1.0:  # NaN fails too
        raise UsageError(f"--lam {args.lam:g} outside [0, 1]")
    ids, hidden = formats.read_curves(args.curves)
    percents = formats.read_percents(args.percents, ids)
    outcomes = read_outcomes(args.outcomes) if args.outcomes is not None else None
    combined, summary = blending.blend_curves(hidden, percents, ids, args.lam, outcomes)

    os.makedirs(args.out, exist_ok=True)
    formats.write_curves(os.path.join(args.out, "combined"), ids, combined)
    _write_json(os.path.join(args.out, "blend.json"), summary)
    print(f"lambda {summary['lambda']:g}, blended {len(ids)} curves "
          f"({summary['n_verbalized']} with verbalized input)")
    _warn_counts("blend", {"n_floored": summary["n_floored"]})
    _write_manifest(args.out, "blend", started, inputs={
        "curves": args.curves, "percents": args.percents, "outcomes": args.outcomes})
    return 0


# ------------------------------------------------------------------ parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="survfuse",
                     description="Multimodal survival models with a "
                                 "teacher-distilled text channel.")
    sub = parser.add_subparsers(dest="command", metavar="command",
                               parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("simulate",
                       help="generate a synthetic cohort with known hazards")
    p.add_argument("--spec", help="key=value generator settings (defaults used if omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("ingest",
                       help="assemble raw files into a split cohort bundle")
    p.add_argument("--config", required=True, help="key=value ingest settings")
    p.add_argument("--out", required=True, help="bundle directory")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("pool",
                       help="pool token hidden states into one vector each")
    p.add_argument("--hidden", required=True, help="hidden-state file (.svhs)")
    p.add_argument("--out", required=True, help="pooled-vector file (.svpv)")
    p.set_defaults(func=_cmd_pool)

    p = sub.add_parser("train",
                       help="train one configuration and report test metrics")
    p.add_argument("--config", required=True, help="key=value run settings")
    p.add_argument("--bundle", required=True, help="cohort bundle directory")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("suite",
                       help="train every *.cfg in a directory on one split")
    p.add_argument("--configs", required=True, help="directory of *.cfg files")
    p.add_argument("--bundle", required=True, help="cohort bundle directory")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("eval",
                       help="evaluate a checkpoint on a bundle's test split")
    p.add_argument("--checkpoint", required=True, help="checkpoint directory written by train")
    p.add_argument("--bundle", required=True, help="cohort bundle directory")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("parse-teacher",
                       help="extract probabilities and build student targets")
    p.add_argument("--teacher", required=True, help="teacher responses (.jsonl)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--outcomes", help="outcomes CSV for the calibration mask")
    p.add_argument("--train-ids", help="file of training ids (one per line)")
    p.set_defaults(func=_cmd_parse_teacher)

    p = sub.add_parser("blend",
                       help="blend hidden curves with verbalized estimates")
    p.add_argument("--curves", required=True, help="curve directory written by eval")
    p.add_argument("--percents", required=True, help="CSV of id,percent")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--outcomes", help="outcomes CSV for weight selection")
    p.add_argument("--lam", type=float, help="fixed blend weight in [0,1]")
    p.set_defaults(func=_cmd_blend)

    return parser


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    try:
        _setup_environment()
        args = _build_parser().parse_args(argv)
        return args.func(args, started)
    except (UsageError, ValueError, KeyError, OSError) as exc:
        log.debug("validation failure", exc_info=True)
        print(f"survfuse: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary for exit code 2
        log.debug("runtime failure", exc_info=True)
        print(f"survfuse: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
