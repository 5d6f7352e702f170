"""End-to-end command line tests.

Every invocation goes through main() in process so exit codes and stdout are
observable without spawning interpreters.
"""

import hashlib
import json
import os
import warnings

import numpy as np
import pytest

from survfuse import formats
from survfuse.cli import main
from survfuse.heads import CurveSet

# cohorts with extreme true survival legitimately hit the fit clamp
pytestmark = pytest.mark.filterwarnings("ignore:survival value")

TRAIN_CFG = """\
# tiny but multimodal
head=discrete
fusion=late
modalities=text,cov,ge
n_bins=5
epochs=2
patience=1
batch_size=16
head_layers=8
ae_hidden=6
latent_dim=3
seed=4
"""


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run simulate -> ingest -> train once and share the directories."""
    root = tmp_path_factory.mktemp("pipeline")
    spec = write(root / "gen.cfg",
                 "n=90\nd_c=4\nd_g=10\nge_latent=3\nseq_len=5\nd_text=8\nseed=2\n")
    raw = str(root / "raw")
    assert main(["simulate", "--spec", spec, "--out", raw]) == 0

    ingest_cfg = write(root / "ingest.cfg",
                       "outcomes=raw/outcomes.csv\ncovariates=raw/covariates.csv\n"
                       "ge=raw/ge.csv\nhidden=raw/hidden.svhs\n"
                       "teacher=raw/teacher.jsonl\nsplit_seed=1\n")
    bundle = str(root / "bundle")
    assert main(["ingest", "--config", ingest_cfg, "--out", bundle]) == 0

    train_cfg = write(root / "run.cfg", TRAIN_CFG)
    run_dir = str(root / "run")
    assert main(["train", "--config", train_cfg, "--bundle", bundle,
                 "--out", run_dir]) == 0
    return {"root": root, "raw": raw, "bundle": bundle, "run": run_dir,
            "train_cfg": train_cfg, "spec": spec}


# ----------------------------------------------------------------- plumbing

def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_bad_flag_is_usage_error(capsys):
    assert main(["simulate", "--n", "10"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    assert main(["transmogrify"]) == 1


def test_missing_file_is_validation_error(tmp_path, capsys):
    assert main(["pool", "--hidden", str(tmp_path / "absent.svhs"),
                 "--out", str(tmp_path / "p.svpv")]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_input_is_validation_error(tmp_path, capsys):
    bad = write(tmp_path / "bad.svhs", "this is not a hidden-state file")
    assert main(["pool", "--hidden", bad,
                 "--out", str(tmp_path / "p.svpv")]) == 1
    # a removed config key is rejected, not ignored
    stale = write(tmp_path / "stale.cfg", TRAIN_CFG + "text_loss_w=2.0\n")
    assert main(["train", "--config", stale, "--bundle", str(tmp_path / "b"),
                 "--out", str(tmp_path / "r")]) == 1
    assert "unknown config key 'text_loss_w'" in capsys.readouterr().err


# ------------------------------------------------------------------ outputs

def test_simulate_outputs_and_manifest(pipeline):
    raw = pipeline["raw"]
    for name in ("outcomes.csv", "covariates.csv", "ge.csv", "hidden.svhs",
                 "teacher.jsonl", "truth.csv", "manifest.json"):
        assert os.path.exists(os.path.join(raw, name))
    manifest = read_json(os.path.join(raw, "manifest.json"))
    assert manifest["command"] == "simulate"
    assert manifest["config"]["n"] == 90
    assert manifest["seeds"] == {"generator": 2}
    assert set(manifest["versions"]) == {"survfuse", "numpy", "python"}
    assert "outcomes.csv" in manifest["outputs"]
    assert manifest["timings"]["total"] > 0
    assert set(manifest["timings"]) == {"total", "generate", "write"}
    # input digests cover the generator settings file
    assert "spec" in manifest["inputs"]


def test_ingest_bundle_and_split(pipeline):
    bundle = pipeline["bundle"]
    meta = read_json(os.path.join(bundle, "meta.json"))
    split = meta["split"]
    assert len(split["train"]) == 62 and len(split["val"]) == 9
    assert len(split["test"]) == 19
    manifest = read_json(os.path.join(bundle, "manifest.json"))
    assert manifest["command"] == "ingest"
    assert manifest["seeds"] == {"split": 1}
    assert set(manifest["inputs"]) == {"outcomes", "covariates", "ge",
                                       "hidden", "teacher"}
    assert set(manifest["timings"]) == {"total", "read", "pool", "save"}
    assert manifest["timings"]["total"] >= sum(
        manifest["timings"][name] for name in ("read", "pool", "save"))


def test_ingest_manifest_lists_only_the_new_bundle(pipeline, tmp_path):
    out = tmp_path / "bundle"
    out.mkdir()
    # a version-1 bundle and a stray file already in the output directory
    for name in ("outcomes.csv", "ge.csv", "notes.txt"):
        (out / name).write_text("old")
    with open(out / "meta.json", "w", encoding="utf-8") as fh:
        json.dump({"bundle_version": 1, "files": {"ge": "ge.csv"}}, fh)
    cfg = write(tmp_path / "ingest.cfg",
                f"outcomes={pipeline['raw']}/outcomes.csv\nge={pipeline['raw']}/ge.csv\n")
    assert main(["ingest", "--config", cfg, "--out", str(out)]) == 0
    outputs = read_json(out / "manifest.json")["outputs"]
    assert sorted(outputs) == ["events.npy", "ge.npy", "ge_present.npy", "meta.json",
                               "times.npy"]
    assert sorted(p.name for p in out.iterdir()) == sorted([*outputs, "manifest.json",
                                                            "notes.txt"])
    assert outputs["ge.npy"] == hashlib.sha256((out / "ge.npy").read_bytes()).hexdigest()


def test_ingest_rejects_unknown_keys(tmp_path, capsys):
    cfg = write(tmp_path / "bad.cfg", "outcomes=o.csv\ncolumns=4\n")
    assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "b")]) == 1
    assert "unknown ingest keys" in capsys.readouterr().err
    cfg2 = write(tmp_path / "noout.cfg", "ge=g.csv\n")
    assert main(["ingest", "--config", cfg2, "--out", str(tmp_path / "b")]) == 1


def test_train_outputs(pipeline, capsys):
    run = pipeline["run"]
    assert os.path.exists(os.path.join(run, "checkpoint.svck"))
    report = read_json(os.path.join(run, "report.json"))
    assert set(report["channels"]) == {"hidden", "verbalized", "combined"}
    assert 0.0 <= report["channels"]["hidden"]["c_td"] <= 1.0
    assert report["selected_lambda"] in [k / 20 for k in range(21)]
    manifest = read_json(os.path.join(run, "manifest.json"))
    assert manifest["command"] == "train"
    assert manifest["seeds"] == {"master": 4}
    assert set(manifest["outputs"]) == {"checkpoint.svck", "report.json"}


def test_train_report_reproducible(pipeline, tmp_path):
    """Reports carry no timestamps, so a rerun is byte-identical."""
    rerun = str(tmp_path / "rerun")
    assert main(["train", "--config", pipeline["train_cfg"],
                 "--bundle", pipeline["bundle"], "--out", rerun]) == 0
    with open(os.path.join(pipeline["run"], "report.json"), "rb") as fh:
        first = fh.read()
    with open(os.path.join(rerun, "report.json"), "rb") as fh:
        second = fh.read()
    assert first == second
    # the manifest is where timing lives, and only there
    assert b"timing" not in first


def test_eval_matches_train_report(pipeline, tmp_path):
    out = str(tmp_path / "eval")
    assert main(["eval", "--checkpoint",
                 os.path.join(pipeline["run"], "checkpoint.svck"),
                 "--bundle", pipeline["bundle"], "--out", out]) == 0
    train_report = read_json(os.path.join(pipeline["run"], "report.json"))
    eval_report = read_json(os.path.join(out, "report.json"))
    assert eval_report["channels"] == train_report["channels"]
    _, curves = formats.read_curves(os.path.join(out, "curves"))
    assert len(curves) == 19
    assert curves.times[0] == 0.0 and np.all(curves.values[:, 0] == 1.0)
    assert np.all(np.diff(curves.values, axis=1) <= 0.0)


def test_eval_rejects_a_checkpoint_with_stale_config_keys(pipeline, tmp_path, capsys):
    tensors, manifest = formats.read_checkpoint(
        os.path.join(pipeline["run"], "checkpoint.svck"))
    manifest["config"].update(beta=1.0, text_loss_w=2.0, text_loss_w_num=5.0)
    stale = str(tmp_path / "stale.svck")
    formats.write_checkpoint(stale, tensors, manifest)
    assert main(["eval", "--checkpoint", stale, "--bundle", pipeline["bundle"],
                 "--out", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert "['beta', 'text_loss_w', 'text_loss_w_num']" in err and "retrain" in err


def test_parse_teacher_and_blend(pipeline, tmp_path, capsys):
    targets = str(tmp_path / "targets")
    code = main(["parse-teacher", "--teacher",
                 os.path.join(pipeline["raw"], "teacher.jsonl"),
                 "--outcomes", os.path.join(pipeline["raw"], "outcomes.csv"),
                 "--out", targets])
    assert code == 0
    out = capsys.readouterr().out
    assert "records 90, extracted 90" in out
    rows = formats.read_jsonl(os.path.join(targets, "targets.jsonl"))
    assert len(rows) == 90 and all("target" in r for r in rows)
    assert all("vprob_span" in r and "num_span" in r for r in rows)
    manifest = read_json(os.path.join(targets, "manifest.json"))
    assert manifest["summary"]["records"] == 90
    assert manifest["summary"]["correction"] is True

    # need eval curves for the blend step
    ev = str(tmp_path / "ev")
    assert main(["eval", "--checkpoint",
                 os.path.join(pipeline["run"], "checkpoint.svck"),
                 "--bundle", pipeline["bundle"], "--out", ev]) == 0
    blended = str(tmp_path / "blend")
    code = main(["blend", "--curves", os.path.join(ev, "curves"),
                 "--percents", os.path.join(targets, "percents.csv"),
                 "--outcomes", os.path.join(pipeline["raw"], "outcomes.csv"),
                 "--out", blended])
    assert code == 0
    blend = read_json(os.path.join(blended, "blend.json"))
    assert blend["lambda"] in [k / 20 for k in range(21)]
    assert blend["n_curves"] == 19
    _, combined = formats.read_curves(os.path.join(blended, "combined"))
    assert len(combined) == 19


@pytest.mark.parametrize("train_ids", [False, True])
def test_parse_teacher_percents_are_the_teachers_estimates(tmp_path, train_ids):
    """percents.csv is `teacher_percents` of the extracted horizons (empty
    where none was extracted), taken from the student targets' one
    finalisation, which warns once about the survival values of 0 it clamped."""
    from survfuse import distill

    responses = {"a": ("80%", "0%", None), "b": (None, None, "no idea"),
                 "c": ("90%", "70%", "55%"), "d": ("0.6", None, "10%"),
                 "e": ("0%", "0%", "0%"), "f": (None, "I cannot say", None)}
    teacher = tmp_path / "teacher.jsonl"
    formats.write_jsonl(teacher, [
        {"id": sid, "explanation": "why", "responses": dict(zip(("y1", "y3", "y5"), texts))}
        for sid, texts in responses.items()])
    flags = []
    if train_ids:
        flags = ["--train-ids", write(tmp_path / "train.txt", "a\nb\nc\n")]
    out = tmp_path / "targets"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["parse-teacher", "--teacher", str(teacher), "--out", str(out)] + flags) == 0
    clamps = [w for w in caught if "clamped for log transform" in str(w.message)]
    assert len(clamps) == 1

    table = distill.parse_teacher_file(formats.read_jsonl(teacher))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        expected = distill.teacher_percents(table.probs)
    formats.write_percents(tmp_path / "expected.csv", list(responses), expected)
    assert (out / "percents.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    assert np.isnan(expected[[1, 5]]).all() and not np.isnan(expected[[0, 2, 3, 4]]).any()


def test_blend_fixed_lambda_zero_keeps_hidden(pipeline, tmp_path):
    ev = str(tmp_path / "ev")
    assert main(["eval", "--checkpoint",
                 os.path.join(pipeline["run"], "checkpoint.svck"),
                 "--bundle", pipeline["bundle"], "--out", ev]) == 0
    targets = str(tmp_path / "targets")
    assert main(["parse-teacher", "--teacher",
                 os.path.join(pipeline["raw"], "teacher.jsonl"),
                 "--out", targets, "--no-correction"]) == 0
    blended = str(tmp_path / "blend0")
    assert main(["blend", "--curves", os.path.join(ev, "curves"),
                 "--percents", os.path.join(targets, "percents.csv"),
                 "--lam", "0.0", "--out", blended]) == 0
    hidden_ids, hidden = formats.read_curves(os.path.join(ev, "curves"))
    combined_ids, combined = formats.read_curves(os.path.join(blended, "combined"))
    assert combined_ids == hidden_ids
    assert np.array_equal(combined.values, hidden.values)


def test_blend_warns_once_about_floored_percents(pipeline, tmp_path):
    ev = str(tmp_path / "ev")
    assert main(["eval", "--checkpoint",
                 os.path.join(pipeline["run"], "checkpoint.svck"),
                 "--bundle", pipeline["bundle"], "--out", ev]) == 0
    ids, _ = formats.read_curves(os.path.join(ev, "curves"))
    percents = write(tmp_path / "percents.csv", "id,percent\n" + "".join(
        f"{sid},{0 if k < 3 else 50}\n" for k, sid in enumerate(ids)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["blend", "--curves", os.path.join(ev, "curves"),
                     "--percents", percents,
                     "--outcomes", os.path.join(pipeline["raw"], "outcomes.csv"),
                     "--out", str(tmp_path / "blend")]) == 0
    floored = [str(w.message) for w in caught if "floored" in str(w.message)]
    assert floored == ["verbalized probability 0 floored to 0.5% before the log "
                       f"for 3 of {len(ids)} percents"]


def test_blend_needs_lambda_or_outcomes(pipeline, tmp_path, capsys):
    ev = str(tmp_path / "ev")
    assert main(["eval", "--checkpoint",
                 os.path.join(pipeline["run"], "checkpoint.svck"),
                 "--bundle", pipeline["bundle"], "--out", ev]) == 0
    targets = str(tmp_path / "targets")
    assert main(["parse-teacher", "--teacher",
                 os.path.join(pipeline["raw"], "teacher.jsonl"),
                 "--out", targets, "--no-correction"]) == 0
    assert main(["blend", "--curves", os.path.join(ev, "curves"),
                 "--percents", os.path.join(targets, "percents.csv"),
                 "--out", str(tmp_path / "b")]) == 1
    assert "--lam or --outcomes" in capsys.readouterr().err


def small_blend_inputs(tmp_path):
    curves = str(tmp_path / "curves")
    formats.write_curves(curves, ["a", "b"], CurveSet(
        times=[0.0, 1.0, 2.0], values=[[1.0, 0.8, 0.5], [1.0, 0.6, 0.6]]))
    percents = write(tmp_path / "percents.csv", "id,percent\na,50\nb,\n")
    return curves, percents


def blend_exit_and_error(capsys, curves, percents, out):
    code = main(["blend", "--curves", curves, "--percents", percents,
                 "--lam", "0.5", "--out", out])
    return code, capsys.readouterr().err


def test_blend_rejects_broken_curve_directories(tmp_path, capsys):
    curves, percents = small_blend_inputs(tmp_path)
    out = str(tmp_path / "blend")
    assert blend_exit_and_error(capsys, curves, percents, out)[0] == 0
    assert formats.read_curves(os.path.join(out, "combined"))[0] == ["a", "b"]
    old_csv = write(tmp_path / "curves.csv", "id,t,S\na,0.0,1.0\n")
    code, err = blend_exit_and_error(capsys, old_csv, percents, out)
    assert code == 1 and "curves.csv: no curves directory" in err and "survfuse eval" in err

    meta, values = tmp_path / "curves" / "meta.json", tmp_path / "curves" / "values.npy"
    good_meta, good_values = meta.read_bytes(), values.read_bytes()
    cases = {
        "no meta": meta.unlink,
        "version": lambda: meta.write_text('{"curves_version": 2, "ids": ["a", "b"]}'),
        "duplicate ids": lambda: meta.write_text('{"curves_version": 1, "ids": ["a", "a"]}'),
        "non-string ids": lambda: meta.write_text('{"curves_version": 1, "ids": ["a", 1]}'),
        "shape": lambda: meta.write_text('{"curves_version": 1, "ids": ["a"]}'),
        "truncated": lambda: values.write_bytes(good_values[:-8]),
        "trailing bytes": lambda: values.write_bytes(good_values + b"\0"),
        "rising curve": lambda: formats.write_npy(
            values, np.array([[1.0, 0.5, 0.8], [1.0, 0.6, 0.6]])),
    }
    for name, corrupt in cases.items():
        corrupt()
        code, err = blend_exit_and_error(capsys, curves, percents, out)
        assert code == 1 and curves in err, name
        meta.write_bytes(good_meta)
        values.write_bytes(good_values)


def test_blend_rejects_duplicate_percent_ids(tmp_path, capsys):
    curves, _ = small_blend_inputs(tmp_path)
    percents = write(tmp_path / "dup.csv", "id,percent\na,50\nb,40\na,10\n")
    code, err = blend_exit_and_error(capsys, curves, percents, str(tmp_path / "blend"))
    assert code == 1 and f"{percents}:4: duplicate id 'a'" in err


@pytest.mark.parametrize("header", ["id,pct", "sample,percent"])
def test_blend_rejects_percents_without_id_or_percent_column(tmp_path, capsys, header):
    curves, _ = small_blend_inputs(tmp_path)
    percents = write(tmp_path / "p.csv", f"{header}\na,50\nb,40\n")
    code, err = blend_exit_and_error(capsys, curves, percents, str(tmp_path / "blend"))
    assert code == 1 and f"{percents}: expected columns id and percent" in err


@pytest.mark.parametrize("cell", ["x", "nan", "inf", "100.5", "-1", "1,0"])
def test_blend_rejects_a_malformed_percent_cell(tmp_path, capsys, cell):
    curves, _ = small_blend_inputs(tmp_path)
    percents = write(tmp_path / "p.csv", f'id,percent\na,50\nb," {cell} "\n')
    code, err = blend_exit_and_error(capsys, curves, percents, str(tmp_path / "blend"))
    assert code == 1 and f"{percents}:3: percent {cell!r} is not a number in [0, 100]" in err


@pytest.mark.parametrize("flags,message", [
    (["--lam", "1.5"], "--lam 1.5 outside [0, 1]"),
    (["--lam", "-0.25"], "--lam -0.25 outside [0, 1]"),
    (["--lam", "nan"], "--lam nan outside [0, 1]"),
    (["--lam", "0.5", "--outcomes", "outcomes.csv"], "give one"),
    ([], "need --lam or --outcomes"),
])
def test_blend_rejects_weight_flags_before_reading_files(tmp_path, capsys, flags, message):
    # no input exists: an error about the flags shows that nothing was read
    out = tmp_path / "blend"
    code = main(["blend", "--curves", str(tmp_path / "curves"), "--percents",
                 str(tmp_path / "percents.csv"), "--out", str(out)] + flags)
    err = capsys.readouterr().err
    assert code == 1 and message in err and "curves" not in err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:verbalized probability")
def test_parse_teacher_and_blend_reproduce_train_under_refusals(tmp_path, capsys):
    """With refusals, parse-teacher writes the teacher's own estimate (empty
    where nothing was extracted), and blend at the report's lambda on eval's
    curves scores exactly the report's combined channel."""
    from survfuse.cohort import load_bundle
    from survfuse.metrics import c_td, ibs
    from survfuse.training import finalize_teacher

    spec = write(tmp_path / "gen.cfg", "n=120\nd_c=4\nd_g=10\nge_latent=3\nseq_len=5\n"
                 "d_text=8\nseed=3\nrefusal_rate=0.3\nmissing_rate=0.2\n")
    assert main(["simulate", "--spec", spec, "--out", str(tmp_path / "raw")]) == 0
    ingest_cfg = write(tmp_path / "ingest.cfg",
                       "outcomes=raw/outcomes.csv\ncovariates=raw/covariates.csv\n"
                       "ge=raw/ge.csv\nhidden=raw/hidden.svhs\nteacher=raw/teacher.jsonl\n")
    bundle, run, ev = (str(tmp_path / name) for name in ("bundle", "run", "eval"))
    assert main(["ingest", "--config", ingest_cfg, "--out", bundle]) == 0
    assert main(["train", "--config", write(tmp_path / "run.cfg", TRAIN_CFG),
                 "--bundle", bundle, "--out", run]) == 0
    assert main(["eval", "--checkpoint", os.path.join(run, "checkpoint.svck"),
                 "--bundle", bundle, "--out", ev]) == 0
    targets = str(tmp_path / "targets")
    assert main(["parse-teacher", "--teacher", str(tmp_path / "raw" / "teacher.jsonl"),
                 "--outcomes", str(tmp_path / "raw" / "outcomes.csv"), "--out", targets]) == 0

    cohort, split = load_bundle(bundle)
    expected = {sid: "" if np.isnan(p) else str(int(p))
                for sid, p in zip(cohort.ids, finalize_teacher(cohort))}
    header, rows, _ = formats.read_csv_table(os.path.join(targets, "percents.csv"))
    assert header == ["id", "percent"]
    assert {row["id"]: row["percent"] for row in rows} == expected and len(rows) == len(cohort)
    test_ids = [cohort.ids[i] for i in split.test]
    n_verbalized = sum(expected[sid] != "" for sid in test_ids)
    assert 0 < n_verbalized < len(test_ids)  # some test samples have no estimate

    report = read_json(os.path.join(run, "report.json"))
    capsys.readouterr()
    assert main(["blend", "--curves", os.path.join(ev, "curves"),
                 "--percents", os.path.join(targets, "percents.csv"),
                 "--lam", repr(report["selected_lambda"]), "--out", str(tmp_path / "blend")]) == 0
    assert f"({n_verbalized} with verbalized input)" in capsys.readouterr().out
    ids, combined = formats.read_curves(str(tmp_path / "blend" / "combined"))
    assert ids == test_ids
    times, events = cohort.times[split.test], cohort.events[split.test]
    assert report["channels"]["combined"]["c_td"] == c_td(combined, times, events)
    assert report["channels"]["combined"]["ibs"] == ibs(combined, times, events).value


def test_suite_runs_configs_and_reports(pipeline, tmp_path):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    write(cfg_dir / "late.cfg", TRAIN_CFG)
    write(cfg_dir / "cov_only.cfg",
          "head=discrete\nfusion=none\nmodalities=cov\nn_bins=5\nepochs=2\n"
          "patience=1\nbatch_size=16\nhead_layers=8\nseed=4\n")
    out = str(tmp_path / "suite")
    assert main(["suite", "--configs", str(cfg_dir),
                 "--bundle", pipeline["bundle"], "--out", out]) == 0
    reports = read_json(os.path.join(out, "reports.json"))
    assert set(reports) == {"late", "cov_only"}
    assert all(not isinstance(rep, str) for rep in reports.values())
    with open(os.path.join(out, "table.txt"), encoding="utf-8") as fh:
        table = fh.read()
    assert "late" in table and "cov_only" in table and "c_td" in table
    # the late run matches the standalone training byte for byte
    single = read_json(os.path.join(pipeline["run"], "report.json"))
    assert reports["late"] == single


def test_suite_requires_configs(tmp_path, pipeline, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["suite", "--configs", str(empty),
                 "--bundle", pipeline["bundle"],
                 "--out", str(tmp_path / "out")]) == 1
    assert "no *.cfg" in capsys.readouterr().err


def test_pool_roundtrip(pipeline, tmp_path):
    out = str(tmp_path / "pooled.svpv")
    assert main(["pool", "--hidden",
                 os.path.join(pipeline["raw"], "hidden.svhs"),
                 "--out", out]) == 0
    pooled = formats.read_pooled(out)
    hidden = formats.read_hidden_states(
        os.path.join(pipeline["raw"], "hidden.svhs"))
    assert set(pooled) == set(hidden)
    assert all(v.shape == (8,) for v in pooled.values())


def test_pool_into_the_raw_directory_keeps_simulates_manifest(pipeline, tmp_path):
    raw = tmp_path / "raw"
    assert main(["simulate", "--spec", pipeline["spec"], "--out", str(raw)]) == 0
    before = (raw / "manifest.json").read_bytes()
    assert main(["pool", "--hidden", str(raw / "hidden.svhs"),
                 "--out", str(raw / "pooled.svpv")]) == 0
    assert (raw / "manifest.json").read_bytes() == before
    manifest = read_json(raw / "pooled.svpv.manifest.json")
    assert manifest["command"] == "pool"
    assert set(manifest["outputs"]) == {"pooled.svpv"}
    assert set(manifest["inputs"]) == {"hidden"}


def test_bundle_without_split_is_rejected(pipeline, tmp_path, capsys):
    from survfuse.cohort import load_bundle, save_bundle

    cohort, _ = load_bundle(pipeline["bundle"])
    bare = str(tmp_path / "bare")
    save_bundle(cohort, bare)
    assert main(["train", "--config", pipeline["train_cfg"],
                 "--bundle", bare, "--out", str(tmp_path / "r")]) == 1
    assert "no split" in capsys.readouterr().err


def test_train_on_a_version_1_bundle_asks_for_reingest(pipeline, tmp_path, capsys):
    old = tmp_path / "old"
    old.mkdir()
    write(old / "outcomes.csv", "id,time_years,event\na,1.0,1\n")
    write(old / "meta.json", json.dumps({"bundle_version": 1, "ids": ["a"], "metadata": {},
                                         "files": {}, "split": None}))
    assert main(["train", "--config", pipeline["train_cfg"], "--bundle", str(old),
                 "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert "bundle version 1" in err and "re-ingest" in err


def test_ingest_parses_keys_by_field_type(tmp_path, capsys):
    write(tmp_path / "o.csv", "id,time_years,event\na,7.5,1\nb,1.0,1\nc,2.0,0\nd,3.0,1\n")
    # a misspelt boolean is an error, not the strict family policy
    cfg = write(tmp_path / "typo.cfg", "outcomes=o.csv\nallow_other=ture\n")
    assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "b0")]) == 1
    assert "allow_other must be true or false" in capsys.readouterr().err
    cfg = write(tmp_path / "seed.cfg", "outcomes=o.csv\nsplit_seed=1.5\n")
    assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "b1")]) == 1

    from survfuse.cohort import load_bundle

    # horizon=none keeps follow-up past the administrative horizon
    cfg = write(tmp_path / "none.cfg", "outcomes=o.csv\nhorizon=none\nratios=0.5,0.25,0.25\n")
    assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "b2")]) == 0
    cohort, split = load_bundle(str(tmp_path / "b2"))
    assert cohort.times[0] == 7.5 and cohort.events[0]
    assert cohort.metadata["horizon_years"] is None
    assert (split.train.size, split.val.size, split.test.size) == (2, 1, 1)
    cfg = write(tmp_path / "default.cfg", "outcomes=o.csv\n")
    assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "b3")]) == 0
    cohort, _ = load_bundle(str(tmp_path / "b3"))
    assert cohort.times[0] == 5.0 and not cohort.events[0]
