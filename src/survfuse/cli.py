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
    """File -> digest; directory -> {relative path: digest}, sorted."""
    if os.path.isfile(path):
        return _sha256(path)
    hashes = {}
    for root, _, names in sorted(os.walk(path)):
        for name in sorted(names):
            full = os.path.join(root, name)
            hashes[os.path.relpath(full, path)] = _sha256(full)
    return hashes


def _write_manifest(out_dir: str, command: str, started: float,
                    config: dict | None = None, seeds: dict | None = None,
                    inputs: dict[str, str] | None = None,
                    output_files: list[str] | None = None,
                    extra: dict | None = None,
                    timings: dict[str, float] | None = None,
                    filename: str = "manifest.json") -> None:
    """Write the manifest `filename` into `out_dir`; `timings`
    holds the seconds of the command's stages, and the manifest's `timings`
    adds the whole command as "total"."""
    import numpy as np

    from . import __version__

    os.makedirs(out_dir, exist_ok=True)
    outputs = {}
    if output_files is not None:
        for path in output_files:
            outputs[os.path.basename(path)] = _sha256(path)
    else:
        for root, _, names in sorted(os.walk(out_dir)):
            for name in sorted(names):
                full = os.path.join(root, name)
                rel = os.path.relpath(full, out_dir)
                if rel == "manifest.json":
                    continue
                outputs[rel] = _sha256(full)
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
        "inputs": {name: _hash_tree(path) for name, path in (inputs or {}).items()},
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


def _resolve(base_dir: str, path: str) -> str:
    return path if os.path.isabs(path) else os.path.join(base_dir, path)


# ---------------------------------------------------------------- commands


def _cmd_simulate(args, started: float) -> int:
    from . import synth
    from .formats import parse_kv_file

    if args.spec is not None:
        spec = synth.spec_from_kv(parse_kv_file(args.spec))
    else:
        spec = synth.GeneratorSpec()
    timings: dict[str, float] = {}
    result = synth.generate(spec, args.out, timings=timings)
    print(f"wrote {len(result.ids)} samples to {args.out}")
    inputs = {"spec": args.spec} if args.spec else {}
    _write_manifest(args.out, "simulate", started,
                    config=spec.__dict__, seeds={"generator": spec.seed},
                    inputs=inputs, timings=timings)
    return 0


def _cmd_ingest(args, started: float) -> int:
    from . import cohort as co
    from .formats import dataclass_from_kv, parse_kv_file
    from .timing import stage

    kv = parse_kv_file(args.config)
    base = os.path.dirname(os.path.abspath(args.config))
    unknown = set(kv) - set(co.IngestConfig.__dataclass_fields__)
    if unknown:
        raise UsageError(f"unknown ingest keys: {sorted(unknown)}")
    cfg = dataclass_from_kv(co.IngestConfig, kv)
    if cfg.outcomes is None:
        raise UsageError("ingest config needs an 'outcomes' path")
    paths = {key: _resolve(base, getattr(cfg, key)) for key in co.IngestConfig.INPUTS
             if getattr(cfg, key) is not None}

    timings: dict[str, float] = {}
    with stage(timings, "read"):
        cohort = co.load_cohort(
            outcomes_path=paths["outcomes"],
            covariates_path=paths.get("covariates"),
            ge_path=paths.get("ge"),
            hidden_states_path=paths.get("hidden"),
            pooled_path=paths.get("pooled"),
            teacher_path=paths.get("teacher"),
            schema=cfg.schema,
            horizon_years=cfg.horizon,
            allow_other_family=cfg.allow_other,
        )
        split = co.split_cohort(len(cohort), ratios=cfg.ratios, seed=cfg.split_seed)
        if cfg.schema == "clinical":
            co.preprocess_covariates(cohort, split.train)
    with stage(timings, "pool"):
        pooled_count = co.pool_text(cohort)
    with stage(timings, "save"):
        written = co.save_bundle(cohort, args.out, split=split)
    print(f"bundle: {len(cohort)} samples "
          f"(train {len(split.train)}, val {len(split.val)}, "
          f"test {len(split.test)}), pooled {pooled_count}")
    _write_manifest(args.out, "ingest", started, config=dict(kv),
                    seeds={"split": cfg.split_seed}, inputs=paths, output_files=written,
                    timings=timings)
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


def _load_bundle_with_split(bundle_dir: str):
    from .cohort import load_bundle

    cohort, split = load_bundle(bundle_dir)
    if split is None:
        raise UsageError(f"bundle {bundle_dir} carries no split; re-ingest")
    return cohort, split


def _cmd_train(args, started: float) -> int:
    from . import training

    config = training.load_run_config(args.config)
    cohort, split = _load_bundle_with_split(args.bundle)
    result, report = training.train_and_evaluate(config, cohort, split)

    os.makedirs(args.out, exist_ok=True)
    training.save_checkpoint(os.path.join(args.out, "checkpoint.svck"),
                             result, config)
    _write_json(os.path.join(args.out, "report.json"), report.to_dict())
    print(training.report_table({"train": report}))
    _write_manifest(args.out, "train", started,
                    config=report.to_dict()["config"],
                    seeds={"master": config.seed},
                    inputs={"config": args.config, "bundle": args.bundle})
    return 0


def _cmd_suite(args, started: float) -> int:
    import glob as globlib

    from . import formats, training

    paths = sorted(globlib.glob(os.path.join(args.configs, "*.cfg")))
    if not paths:
        raise UsageError(f"no *.cfg files under {args.configs}")
    named = [(os.path.splitext(os.path.basename(p))[0],
              training.load_run_config(p)) for p in paths]
    cohort, split = _load_bundle_with_split(args.bundle)
    reports = training.run_experiment_suite(named, cohort, split)

    os.makedirs(args.out, exist_ok=True)
    payload = {name: (rep if isinstance(rep, str) else rep.to_dict())
               for name, rep in reports.items()}
    _write_json(os.path.join(args.out, "reports.json"), payload)
    table = training.report_table(reports)
    with formats.atomic_open(os.path.join(args.out, "table.txt"), "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    print(table)
    seeds = {name: cfg.seed for name, cfg in named}
    _write_manifest(args.out, "suite", started, seeds=seeds,
                    inputs={"configs": args.configs, "bundle": args.bundle})
    failures = sum(1 for rep in reports.values() if isinstance(rep, str))
    if failures:
        log.warning("%d of %d runs failed", failures, len(reports))
    return 0


def _cmd_eval(args, started: float) -> int:
    from . import formats, training

    result, config = training.load_checkpoint(args.checkpoint)
    cohort, split = _load_bundle_with_split(args.bundle)
    report = training.evaluate(result, cohort, split, config)

    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "report.json"), report.to_dict())

    curves = training.predict_curves(result, cohort, split.test, config)
    ids = [cohort.ids[i] for i in split.test]
    formats.write_curves(os.path.join(args.out, "curves"), ids, curves)
    print(training.report_table({"eval": report}))
    _write_manifest(args.out, "eval", started,
                    config=report.to_dict()["config"],
                    seeds={"master": config.seed},
                    inputs={"checkpoint": args.checkpoint, "bundle": args.bundle})
    return 0


def _cmd_parse_teacher(args, started: float) -> int:
    import numpy as np

    from . import distill, formats
    from .cohort import read_outcomes

    table = distill.parse_teacher_file(formats.read_jsonl(args.teacher))
    train_ids = None
    if args.train_ids is not None:
        with open(args.train_ids, encoding="utf-8") as fh:
            train_ids = {line.strip() for line in fh if line.strip()}
    targets = distill.finalize_records(table, train_ids=train_ids)

    # the file is read, and so checked, even when --no-correction leaves it unused
    outcomes = read_outcomes(args.outcomes) if args.outcomes is not None else None
    correction = not args.no_correction and outcomes is not None
    rows = distill.target_rows(table, targets, outcomes if correction else None)
    # the teacher's estimate: a sample's target where it extracted a horizon
    extracted = ~np.isnan(table.probs).all(axis=1)
    percents = np.where(extracted, targets, np.nan)

    os.makedirs(args.out, exist_ok=True)
    formats.write_jsonl(os.path.join(args.out, "targets.jsonl"), rows)
    formats.write_percents(os.path.join(args.out, "percents.csv"), table.ids, percents)

    n_extracted = int(extracted.sum())
    n_masked = sum(1 for row in rows if not row["text_loss_included"])
    print(f"records {len(table.ids)}, extracted {n_extracted}, "
          f"loss-masked {n_masked}")
    inputs = {"teacher": args.teacher}
    if args.outcomes:
        inputs["outcomes"] = args.outcomes
    if args.train_ids:
        inputs["train_ids"] = args.train_ids
    _write_manifest(args.out, "parse-teacher", started, inputs=inputs,
                    extra={"summary": {"records": len(table.ids),
                                       "extracted": n_extracted,
                                       "masked": n_masked,
                                       "correction": correction}})
    return 0


def _cmd_blend(args, started: float) -> int:
    from . import blending, formats
    from .cohort import read_outcomes
    from .heads import CurveSet

    # the weight flags are checked before any file is read
    if args.lam is None and args.outcomes is None:
        raise UsageError("need --lam or --outcomes to choose the weight")
    if args.lam is not None and args.outcomes is not None:
        raise UsageError("--lam fixes the weight and --outcomes selects it: give one")
    if args.lam is not None and not 0.0 <= args.lam <= 1.0:  # NaN fails too
        raise UsageError(f"--lam {args.lam:g} outside [0, 1]")
    ids, hidden = formats.read_curves(args.curves)
    # floored once here, so the blend and the selection warn once between them
    percents = blending.floor_percents(formats.read_percents(args.percents, ids))
    blend_in, n_present = blending.blend_inputs(hidden.values, hidden.times, percents)

    val_ctd = None
    if args.lam is not None:
        lam = args.lam
    else:
        out_ids, times, events = read_outcomes(args.outcomes)
        rows = formats.id_rows(out_ids, ids)
        missing_out = [sid for sid, row in zip(ids, rows) if row < 0]
        if missing_out:
            raise UsageError(f"no outcome rows for ids {missing_out[:5]}")
        lam, val_ctd = blending.select_lambda(hidden, percents, times[rows], events[rows])

    combined = CurveSet(times=hidden.times, values=blending.combine(hidden.values, blend_in, lam))
    os.makedirs(args.out, exist_ok=True)
    formats.write_curves(os.path.join(args.out, "combined"), ids, combined)
    _write_json(os.path.join(args.out, "blend.json"),
                {"lambda": lam, "selection_c_td": val_ctd,
                 "n_curves": len(ids), "n_verbalized": n_present})
    print(f"lambda {lam:g}, blended {len(ids)} curves "
          f"({n_present} with verbalized input)")
    inputs = {"curves": args.curves, "percents": args.percents}
    if args.outcomes:
        inputs["outcomes"] = args.outcomes
    _write_manifest(args.out, "blend", started, inputs=inputs)
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
    p.add_argument("--checkpoint", required=True, help="checkpoint file (.svck)")
    p.add_argument("--bundle", required=True, help="cohort bundle directory")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("parse-teacher",
                       help="extract probabilities and build student targets")
    p.add_argument("--teacher", required=True, help="teacher responses (.jsonl)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--outcomes", help="outcomes CSV for the calibration mask")
    p.add_argument("--train-ids", help="file of training ids (one per line)")
    p.add_argument("--no-correction", action="store_true",
                   help="skip the calibration mask")
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
        parser = _build_parser()
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"survfuse: error: {exc}", file=sys.stderr)
        return 1

    try:
        return args.func(args, started)
    except UsageError as exc:
        print(f"survfuse: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        log.debug("validation failure", exc_info=True)
        print(f"survfuse: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary for exit code 2
        log.debug("runtime failure", exc_info=True)
        print(f"survfuse: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
