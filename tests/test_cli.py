"""End-to-end command line tests.

Every invocation goes through main() in process so exit codes and stdout are
observable without spawning interpreters.
"""

import hashlib
import json
import logging
import multiprocessing
import os
import shutil

import numpy as np
import pytest

from survfuse import formats
from survfuse.cli import main
from survfuse.heads import CurveSet

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
    assert sorted(outputs) == ["events.npy", "ge.npy", "meta.json", "times.npy"]
    assert sorted(p.name for p in out.iterdir()) == sorted([*outputs, "manifest.json",
                                                            "notes.txt"])
    assert outputs["ge.npy"] == hashlib.sha256((out / "ge.npy").read_bytes()).hexdigest()


def test_ingest_rejects_unknown_keys(tmp_path, capsys):
    cfg = write(tmp_path / "bad.cfg", "outcomes=o.csv\ncolumns=4\n")
    assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "b")]) == 1
    assert f"{cfg}: unknown config key 'columns'" in capsys.readouterr().err
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


def test_a_bundle_manifest_leaves_the_input_digests_alone(pipeline, tmp_path):
    """Two bundles whose only difference is their manifest's timings give a
    command that reads them the same input digests."""
    copy = tmp_path / "bundle"
    shutil.copytree(pipeline["bundle"], copy)
    manifest = read_json(copy / "manifest.json")
    manifest["timings"] = {name: t + 1.0 for name, t in manifest["timings"].items()}
    write(copy / "manifest.json", json.dumps(manifest))
    checkpoint = os.path.join(pipeline["run"], "checkpoint.svck")
    digests = []
    for k, bundle in enumerate([pipeline["bundle"], str(copy)]):
        out = tmp_path / f"eval{k}"
        assert main(["eval", "--checkpoint", checkpoint, "--bundle", bundle,
                     "--out", str(out)]) == 0
        digests.append(read_json(out / "manifest.json")["inputs"]["bundle"])
    assert digests[0] == digests[1]
    assert "meta.json" in digests[0] and "manifest.json" not in digests[0]


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
    assert curves.times[0] == 0.0 and np.all(curves.whole()[:, 0] == 1.0)
    assert np.all(np.diff(curves.whole(), axis=1) <= 0.0)


@pytest.mark.parametrize("head", ["discrete", "coxph"])
def test_eval_writes_the_report_train_wrote(pipeline, tmp_path, head):
    """The checkpoint keeps the training record, so `eval` of it writes
    `train`'s report byte for byte; at batch size 2 the Cox run skips
    event-free batches, and the count survives too."""
    cfg = TRAIN_CFG.replace("head=discrete", f"head={head}").replace("batch_size=16",
                                                                     "batch_size=2")
    run, ev = tmp_path / "run", tmp_path / "eval"
    assert main(["train", "--config", write(tmp_path / "run.cfg", cfg),
                 "--bundle", pipeline["bundle"], "--out", str(run)]) == 0
    assert main(["eval", "--checkpoint", str(run / "checkpoint.svck"),
                 "--bundle", pipeline["bundle"], "--out", str(ev)]) == 0
    written = (run / "report.json").read_bytes()
    assert (ev / "report.json").read_bytes() == written
    report = json.loads(written)
    assert len(report["train_trace"]) == len(report["val_trace"]) == 2
    assert (report["skipped_batches"] > 0) == (head == "coxph")


def test_eval_rejects_a_checkpoint_without_its_training_record(pipeline, tmp_path, capsys):
    """Each record key is required. A checkpoint written before they were
    kept lacks three, and fails on that before its tensors are read (a Cox
    one had gates of another shape; here a transposed weight stands in)."""
    tensors, manifest = formats.read_checkpoint(
        os.path.join(pipeline["run"], "checkpoint.svck"))
    cases = [[key] for key in ("train_trace", "val_trace", "best_epoch", "skipped_batches")]
    cases.append(["train_trace", "val_trace", "skipped_batches"])
    for k, missing in enumerate(cases):
        old = str(tmp_path / f"old{k}.svck")
        if len(missing) > 1:
            tensors["head_text.w0"] = tensors["head_text.w0"].T.copy()
        formats.write_checkpoint(old, tensors, {key: value for key, value in manifest.items()
                                                if key not in missing})
        assert main(["eval", "--checkpoint", old, "--bundle", pipeline["bundle"],
                     "--out", str(tmp_path / "eval")]) == 1
        assert (f"{old}: checkpoint has no training record {missing}; retrain the model"
                in capsys.readouterr().err)


@pytest.mark.parametrize("head", ["discrete", "coxph"])
def test_eval_forwards_the_test_split_once_and_writes_its_curves(pipeline, tmp_path,
                                                                 monkeypatch, head):
    """eval writes the test curves `evaluate` built (`whole()` of them), and
    no second forward of the test split makes them again."""
    from survfuse import training
    from survfuse.cohort import load_bundle, modality_matrix

    run = str(tmp_path / "run")
    assert main(["train", "--config", write(tmp_path / "run.cfg",
                                            TRAIN_CFG.replace("head=discrete", f"head={head}")),
                 "--bundle", pipeline["bundle"], "--out", run]) == 0
    cohort = load_bundle(pipeline["bundle"])
    test_cov = modality_matrix(cohort, cohort.split.test, "cov")
    forwarded = []
    forward = training.model_forward

    def counted(model, batch, **kwargs):
        forwarded.append(np.array_equal(batch["cov"], test_cov))
        return forward(model, batch, **kwargs)

    monkeypatch.setattr(training, "model_forward", counted)
    out = tmp_path / "eval"
    checkpoint = os.path.join(run, "checkpoint.svck")
    assert main(["eval", "--checkpoint", checkpoint, "--bundle", pipeline["bundle"],
                 "--out", str(out)]) == 0
    assert sum(forwarded) == 1
    test_curves = training.evaluate(training.load_checkpoint(checkpoint), cohort)[1]
    written = formats.read_npy(out / "curves" / "values.npy", "<f8",
                               (len(cohort.split.test), None))
    assert written.tobytes() == test_curves.whole().tobytes()


@pytest.mark.parametrize("stale", [{"beta": 1.0, "text_loss_w": 2.0, "text_loss_w_num": 5.0},
                                   {"calibration_correction": False}])
def test_eval_rejects_a_checkpoint_with_stale_config_keys(pipeline, tmp_path, capsys, stale):
    tensors, manifest = formats.read_checkpoint(
        os.path.join(pipeline["run"], "checkpoint.svck"))
    manifest["config"].update(stale)
    old = str(tmp_path / "stale.svck")
    formats.write_checkpoint(old, tensors, manifest)
    assert main(["eval", "--checkpoint", old, "--bundle", pipeline["bundle"],
                 "--out", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert f"does not know: {sorted(stale)}; retrain the model" in err


@pytest.mark.parametrize("command", ["train", "suite"])
def test_the_retired_calibration_key_points_to_parse_teacher(pipeline, tmp_path, capsys,
                                                             command):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    cfg = write(cfg_dir / "run.cfg", TRAIN_CFG + "calibration_correction=true\n")
    source = ["--config", cfg] if command == "train" else ["--configs", str(cfg_dir)]
    assert main([command, *source, "--bundle", pipeline["bundle"],
                 "--out", str(tmp_path / "out")]) == 1
    assert (f"survfuse: error: {cfg}: config key 'calibration_correction' is retired: the "
            f"calibration mask acts in `survfuse parse-teacher --outcomes`"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_parse_teacher_and_blend(pipeline, tmp_path, capsys):
    targets = str(tmp_path / "targets")
    code = main(["parse-teacher", "--teacher",
                 os.path.join(pipeline["raw"], "teacher.jsonl"),
                 "--outcomes", os.path.join(pipeline["raw"], "outcomes.csv"),
                 "--out", targets])
    assert code == 0
    out = capsys.readouterr().out
    assert "records 90, extracted 90" in out
    rows = formats.read_jsonl(os.path.join(targets, "targets.jsonl"))[0]
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
def test_parse_teacher_percents_are_the_teachers_estimates(tmp_path, caplog, train_ids):
    """percents.csv is `teacher_percents` of the extracted horizons (empty
    where none was extracted), taken from the student targets' one
    finalisation, whose count of survival values of 0 clamped the summary
    and one WARNING report."""
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
    assert main(["parse-teacher", "--teacher", str(teacher), "--out", str(out)] + flags) == 0
    # a: the completion fit clamps its 3-year 0, the completed row is then 0
    # at 3 and 5 years, and the final fit clamps both; e: the final fit
    # clamps its three; the horizon means hold no 0
    summary = read_json(out / "manifest.json")["summary"]
    assert summary["clamped"] == 1 + 2 + 3
    assert [r.getMessage() for r in caplog.records] == ["parse-teacher: clamped=6"]

    expected, clamped = distill.teacher_percents(distill.parse_teacher_file(teacher).probs)
    assert clamped == 6
    formats.write_percents(tmp_path / "expected.csv", list(responses), expected)
    assert (out / "percents.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    assert np.isnan(expected[[1, 5]]).all() and not np.isnan(expected[[0, 2, 3, 4]]).any()


@pytest.mark.parametrize("line,message", [
    ("[1, 2]", "a teacher row must be a JSON object with a string 'id'"),
    ('{"responses": {"y3": "50%"}}', "a teacher row must be a JSON object with a string 'id'"),
    ('{"id": "a", "responses": {"y1": 0.5}}', "id 'a': response 'y1' must be a string or null"),
    ('{"id": "a", "responses": "70%"}', "id 'a': 'responses' must be a JSON object"),
])
@pytest.mark.parametrize("command", ["parse-teacher", "ingest"])
def test_a_malformed_teacher_row_is_a_usage_error_naming_file_and_line(
        pipeline, tmp_path, capsys, command, line, message):
    teacher = write(tmp_path / "teacher.jsonl", '{"id": "z", "responses": {}}\n' + line + "\n")
    if command == "parse-teacher":
        argv = ["parse-teacher", "--teacher", teacher, "--out", str(tmp_path / "t")]
    else:
        raw = pipeline["raw"]
        cfg = write(tmp_path / "ingest.cfg", f"outcomes={raw}/outcomes.csv\nteacher={teacher}\n")
        argv = ["ingest", "--config", cfg, "--out", str(tmp_path / "b")]
    assert main(argv) == 1
    assert f"{teacher}:2: {message}" in capsys.readouterr().err


# the messages of the configs' own checks, by the line that fails one
OWN_CHECKS = {"patience=9": "patience cannot exceed epochs", "n=2": "need at least 3 samples",
              "grid=quantiles": "grid must be 'equal' or 'quantile', not 'quantiles'",
              "d_c=0": "d_c must be at least 1", "epochs=0": "epochs must be at least 1",
              "pretrain_epochs=0": "pretrain_epochs must be at least 1",
              "pretrain_patience=5": "pretrain_patience cannot exceed pretrain_epochs",
              "pretrain_batch_size=0": "pretrain_batch_size must be at least 1",
              "n_bins=0": "n_bins must be at least 1",
              "lr_head=-1": "lr_head must be non-negative",
              "weight_decay=-0.1": "weight_decay must be non-negative",
              "schema=tabular": "unknown schema 'tabular'",
              "ratios=0.5,0.5,0.5": "ratios sum to 1.5, expected 1",
              "ge=g.csv": "ingest config needs an 'outcomes' path"}


@pytest.mark.parametrize("command,text,key", [
    ("train", TRAIN_CFG.replace("epochs=2", "epochs=abc"), "epochs"),
    ("train", TRAIN_CFG.replace("head_layers=8", "head_layers=8,x"), "head_layers"),
    ("ingest", "outcomes=o.csv\nsplit_seed=one\n", "split_seed"),
    ("ingest", "outcomes=o.csv\nratios=0.7,x,0.2\n", "ratios"),
    ("train", TRAIN_CFG.replace("epochs=2", "epochs=3").replace("patience=1", "patience=9"),
     None),
    ("simulate", "n=2\n", None),
    ("train", TRAIN_CFG + "grid=quantiles\n", None),
    ("simulate", "d_c=0\n", None),
    ("train", TRAIN_CFG.replace("epochs=2", "epochs=0").replace("patience=1", "patience=0"),
     None),
    ("train", TRAIN_CFG + "pretrain_epochs=0\n", None),
    ("train", TRAIN_CFG + "pretrain_epochs=2\npretrain_patience=5\n", None),
    ("train", TRAIN_CFG + "pretrain_batch_size=0\n", None),
    ("train", TRAIN_CFG.replace("n_bins=5", "n_bins=0"), None),
    ("train", TRAIN_CFG + "lr_head=-1\n", None),
    ("train", TRAIN_CFG + "weight_decay=-0.1\n", None),
    ("ingest", "outcomes=o.csv\nschema=tabular\n", None),
    ("ingest", "outcomes=o.csv\nratios=0.5,0.5,0.5\n", None),
    ("ingest", "ge=g.csv\n", None),
])
def test_a_bad_config_value_names_the_key_and_the_file(tmp_path, capsys, command, text, key):
    cfg = write(tmp_path / f"{command}.cfg", text)
    if command == "train":
        argv = ["train", "--config", cfg, "--bundle", str(tmp_path / "b"),
                "--out", str(tmp_path / "r")]
    elif command == "simulate":
        argv = ["simulate", "--spec", cfg, "--out", str(tmp_path / "raw")]
    else:
        argv = ["ingest", "--config", cfg, "--out", str(tmp_path / "b")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    if key is None:
        (message,) = [OWN_CHECKS[line] for line in text.splitlines() if line in OWN_CHECKS]
        assert f"survfuse: error: {cfg}: {message}" in err

    else:
        assert f"{cfg}: bad value for {key!r}: " in err


# before, ingest took each of these and exited 0, and train failed on -3 only with
# "grid edges must be strictly increasing"
@pytest.mark.parametrize("command,line", [
    ("ingest", "horizon=-1"), ("ingest", "horizon=0"), ("ingest", "horizon=-0.0"),
    ("ingest", "horizon=nan"), ("ingest", "horizon=inf"), ("train", "horizon=-3"),
    ("train", "horizon=0"), ("train", "horizon=nan"), ("train", "horizon=inf"),
])
def test_a_horizon_that_is_not_positive_and_finite_names_the_key_and_the_file(
        tmp_path, capsys, command, line):
    if command == "train":
        cfg = write(tmp_path / "train.cfg", TRAIN_CFG + line + "\n")
        argv = ["train", "--config", cfg, "--bundle", str(tmp_path / "b"),
                "--out", str(tmp_path / "r")]
    else:
        cfg = write(tmp_path / "ingest.cfg", f"outcomes=o.csv\n{line}\n")
        argv = ["ingest", "--config", cfg, "--out", str(tmp_path / "b")]
    assert main(argv) == 1
    assert f"survfuse: error: {cfg}: horizon must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "b").exists() and not (tmp_path / "r").exists()


def test_clinical_ingest_without_covariates_names_the_key_and_the_file(tmp_path, capsys):
    cfg = write(tmp_path / "ingest.cfg", "outcomes=o.csv\nschema=clinical\n")
    assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "b")]) == 1
    err = capsys.readouterr().err
    assert f"survfuse: error: {cfg}: schema 'clinical' needs a 'covariates' path" in err


@pytest.mark.parametrize("column,cell", [("age", "abc"), ("age", "inf"), ("stage", "V"),
                                         ("cancer_type", "mystery")])
def test_a_bad_clinical_cell_names_the_file_id_line_and_column(tmp_path, capsys, column, cell):
    write(tmp_path / "o.csv", "id,time_years,event\na,1.0,1\nb,2.0,1\nc,3.0,0\nd,4.0,1\n")
    good = {"age": "50", "sex": "F", "race": "White", "stage": "II", "cancer_type": "skin"}
    bad = {**good, column: cell}
    rows = [",".join([sid, *(bad if sid == "c" else good).values()]) for sid in "abcd"]
    cov = write(tmp_path / "cov.csv", "\n".join(["id,age,sex,race,stage,cancer_type", *rows]) + "\n")
    cfg = write(tmp_path / "ingest.cfg", "outcomes=o.csv\ncovariates=cov.csv\nschema=clinical\n"
                                         "allow_other=false\n")
    assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "b")]) == 1
    err = capsys.readouterr().err
    assert f"survfuse: error: {cov} id 'c' (line 4): column {column!r}: " in err
    assert repr(cell) in err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("key,name", [("covariates", "cov.csv"), ("ge", "ge.csv"),
                                      ("pooled", "p.svpv")])
def test_a_modality_without_a_column_is_refused_naming_the_file(tmp_path, capsys, key, name):
    write(tmp_path / "o.csv", "id,time_years,event\na,1.0,1\nb,2.0,1\nc,3.0,0\n")
    if name.endswith(".svpv"):
        formats.write_pooled(tmp_path / name, {sid: np.zeros(0) for sid in "abc"})
    else:
        write(tmp_path / name, "id\na\nb\nc\n")
    cfg = write(tmp_path / "ingest.cfg", f"outcomes=o.csv\n{key}={name}\nratios=0.34,0.34,0.32\n")
    assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "b")]) == 1
    err = capsys.readouterr().err
    assert f"survfuse: error: {tmp_path / name}: no values per sample" in err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("key,name", [("covariates", "cov.csv"), ("ge", "ge.csv"),
                                      ("pooled", "p.svpv")])
@pytest.mark.parametrize("rows", [(), ("x",), ("x", "b")])
def test_a_modality_that_names_no_sample_is_refused_naming_the_file(tmp_path, capsys, key,
                                                                    name, rows):
    """An empty table, or one of unknown ids only, would give no sample the
    modality; one that names some samples is taken."""
    write(tmp_path / "o.csv", "id,time_years,event\na,1.0,1\nb,2.0,1\nc,3.0,0\n")
    if name.endswith(".svpv"):
        formats.write_pooled(tmp_path / name, {sid: np.ones(2) for sid in rows})
    else:
        write(tmp_path / name, "".join(f"{sid},1.5\n" for sid in ("id", *rows)))
    cfg = write(tmp_path / "ingest.cfg", f"outcomes=o.csv\n{key}={name}\nratios=0.34,0.34,0.32\n")
    code = main(["ingest", "--config", cfg, "--out", str(tmp_path / "b")])
    if "b" in rows:
        assert code == 0
        return
    assert code == 1
    err = capsys.readouterr().err
    assert (f"survfuse: error: {tmp_path / name}: names no sample of the cohort "
            f"({len(rows)} rows)" in err)
    assert not (tmp_path / "b").exists()


def test_pooled_vectors_of_two_widths_are_refused_naming_the_file(tmp_path, capsys):
    write(tmp_path / "o.csv", "id,time_years,event\na,1.0,1\nb,2.0,1\nc,3.0,0\n")
    formats.write_pooled(tmp_path / "p.svpv", {"a": np.ones(3), "b": np.ones(4)})
    cfg = write(tmp_path / "ingest.cfg", "outcomes=o.csv\npooled=p.svpv\nratios=0.34,0.34,0.32\n")
    assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "b")]) == 1
    assert (f"survfuse: error: {tmp_path / 'p.svpv'}: inconsistent pooled vectors "
            f"dimensions: [3, 4]" in capsys.readouterr().err)


def test_token_states_wider_than_the_pooled_vectors_are_refused_naming_both_files(
        tmp_path, capsys):
    write(tmp_path / "o.csv", "id,time_years,event\na,1.0,1\nb,2.0,1\nc,3.0,0\n")
    formats.write_pooled(tmp_path / "p.svpv", {"a": np.ones(3)})
    formats.write_hidden_states(tmp_path / "h.svhs", {"b": np.ones((2, 16))})
    cfg = write(tmp_path / "ingest.cfg",
                "outcomes=o.csv\npooled=p.svpv\nhidden=h.svhs\nratios=0.34,0.34,0.32\n")
    assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "b")]) == 1
    assert (f"survfuse: error: {tmp_path / 'h.svhs'}: pooled token states have 16 dimensions, "
            f"the pooled vectors of {tmp_path / 'p.svpv'} 3" in capsys.readouterr().err)


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
    assert np.array_equal(combined.whole(), hidden.whole())


def test_blend_counts_floored_percents(pipeline, tmp_path, caplog):
    ev = str(tmp_path / "ev")
    assert main(["eval", "--checkpoint",
                 os.path.join(pipeline["run"], "checkpoint.svck"),
                 "--bundle", pipeline["bundle"], "--out", ev]) == 0
    ids, _ = formats.read_curves(os.path.join(ev, "curves"))
    percents = write(tmp_path / "percents.csv", "id,percent\n" + "".join(
        f"{sid},{0 if k < 3 else 50}\n" for k, sid in enumerate(ids)))
    caplog.clear()
    assert main(["blend", "--curves", os.path.join(ev, "curves"),
                 "--percents", percents,
                 "--outcomes", os.path.join(pipeline["raw"], "outcomes.csv"),
                 "--out", str(tmp_path / "blend")]) == 0
    assert read_json(tmp_path / "blend" / "blend.json")["n_floored"] == 3
    assert [r.getMessage() for r in caplog.records] == ["blend: n_floored=3"]


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
    formats.write_curves(curves, ["a", "b"], CurveSet.of(
        [0.0, 1.0, 2.0], [[1.0, 0.8, 0.5], [1.0, 0.6, 0.6]]))
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


def test_parse_teacher_and_blend_reproduce_train_under_refusals(tmp_path, capsys, caplog):
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

    cohort = load_bundle(bundle)
    split = cohort.split
    expected = {sid: "" if np.isnan(p) else str(int(p))
                for sid, p in zip(cohort.ids, finalize_teacher(cohort)[0])}
    header, rows, _ = formats.read_csv_table(os.path.join(targets, "percents.csv"))
    assert header == ["id", "percent"]
    assert {row["id"]: row["percent"] for row in rows} == expected and len(rows) == len(cohort)
    test_ids = [cohort.ids[i] for i in split.test]
    n_verbalized = sum(expected[sid] != "" for sid in test_ids)
    assert 0 < n_verbalized < len(test_ids)  # some test samples have no estimate

    # the report counts what the teacher's estimates needed, by hand here
    report = read_json(os.path.join(run, "report.json"))
    val_ids = [cohort.ids[i] for i in split.val]
    assert report["imputed_curves"] == len(test_ids) - n_verbalized
    assert report["floored_percents"] == {
        name: sum(expected[sid] == "0" for sid in ids)
        for name, ids in (("val", val_ids), ("test", test_ids))}
    assert report["clamped_values"] == finalize_teacher(cohort)[1]
    train_warning = [r.getMessage() for r in caplog.records
                     if r.getMessage().startswith("train: ")]
    assert len(train_warning) == 1
    assert f"imputed_curves={report['imputed_curves']}" in train_warning[0].split()
    capsys.readouterr()
    assert main(["blend", "--curves", os.path.join(ev, "curves"),
                 "--percents", os.path.join(targets, "percents.csv"),
                 "--lam", repr(report["selected_lambda"]), "--out", str(tmp_path / "blend")]) == 0
    assert f"({n_verbalized} with verbalized input)" in capsys.readouterr().out
    ids, combined = formats.read_curves(str(tmp_path / "blend" / "combined"))
    assert ids == test_ids
    times, events = cohort.times[split.test], cohort.events[split.test]
    assert report["channels"]["combined"]["c_td"] == c_td(combined, times, events)
    assert report["channels"]["combined"]["ibs"] == ibs(combined, times, events)


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


COV_ONLY_CFG = ("head=discrete\nfusion=none\nmodalities=cov\nn_bins=5\nepochs=2\n"
                "patience=1\nbatch_size=16\nhead_layers=8\nseed=5\n")


def suite_configs(root):
    """A directory of three configurations for `suite`."""
    cfg_dir = root / "cfgs"
    cfg_dir.mkdir()
    write(cfg_dir / "late.cfg", TRAIN_CFG)
    write(cfg_dir / "early.cfg", TRAIN_CFG.replace("fusion=late", "fusion=early"))
    write(cfg_dir / "cov_only.cfg", COV_ONLY_CFG)
    return str(cfg_dir)


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="suite workers are forked")


@needs_fork
def test_suite_writes_the_same_reports_on_one_cpu_and_on_two(pipeline, tmp_path, monkeypatch,
                                                             caplog):
    configs = suite_configs(tmp_path)
    caplog.set_level(logging.INFO, logger="survfuse")
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        out = tmp_path / f"cpus{cpus}"
        assert main(["suite", "--configs", configs, "--bundle", pipeline["bundle"],
                     "--out", str(out)]) == 0
        assert f"suite: 3 configurations on {cpus} worker processes" in caplog.messages
        manifest = read_json(out / "manifest.json")
        assert manifest["workers"] == cpus
        assert sorted(manifest["timings"]) == ["config.cov_only", "config.early",
                                               "config.late", "total"]
    for name in ("reports.json", "table.txt"):
        assert (tmp_path / "cpus1" / name).read_bytes() == (tmp_path / "cpus2" / name).read_bytes()
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_suite_worker_that_dies_fails_the_suite(pipeline, tmp_path, monkeypatch, capsys):
    from survfuse import training

    original = training.train_and_evaluate

    def dying(config, cohort):
        if config.seed == 5:  # cov_only
            os._exit(3)
        return original(config, cohort)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(training, "train_and_evaluate", dying)
    out = tmp_path / "suite"
    assert main(["suite", "--configs", suite_configs(tmp_path), "--bundle", pipeline["bundle"],
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "survfuse: RuntimeError: suite: " in err and "cov_only" in err
    assert "did not finish" in err
    assert multiprocessing.active_children() == []
    assert not out.exists()


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
    bundle = tmp_path / "bare"
    shutil.copytree(pipeline["bundle"], bundle)
    write(bundle / "meta.json", json.dumps({**read_json(bundle / "meta.json"), "split": None}))
    assert main(["train", "--config", pipeline["train_cfg"],
                 "--bundle", str(bundle), "--out", str(tmp_path / "r")]) == 1
    assert (f"{bundle / 'meta.json'}: split must map each of train, val, test to a non-empty "
            f"list of ids; re-ingest") in capsys.readouterr().err


# Each edit is made to the meta.json of a copy of a good bundle.
SPLIT_EDITS = {
    "no split": lambda meta: meta.pop("split"),
    "split as a list": lambda meta: meta.update(split=list(meta["split"].values())),
    "part added": lambda meta: meta["split"].update(extra=[]),
    "part missing": lambda meta: meta["split"].pop("val"),
    "part not a list": lambda meta: meta["split"].update(test=meta["split"]["test"][0]),
    "empty train": lambda meta: meta["split"].update(train=[]),
    "empty val": lambda meta: meta["split"].update(val=[]),
    "empty test": lambda meta: meta["split"].update(test=[]),
    "unknown id": lambda meta: meta["split"]["test"].append("nobody"),
    "id not a string": lambda meta: meta["split"]["test"].append(7),
    "id twice in a part": lambda meta: meta["split"]["test"].append(meta["split"]["test"][0]),
    "test id also in train": lambda meta: meta["split"]["test"].append(meta["split"]["train"][0]),
    "id in no part": lambda meta: meta["split"]["test"].pop(),
    "id not a string in ids": lambda meta: meta["ids"].__setitem__(0, ["s0"]),
    "id repeated in ids": lambda meta: meta["ids"].__setitem__(1, meta["ids"][0]),
}


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("edit", list(SPLIT_EDITS))
def test_a_bundle_whose_split_does_not_check_is_refused(pipeline, tmp_path, capsys,
                                                        command, edit):
    bundle = tmp_path / "bundle"
    shutil.copytree(pipeline["bundle"], bundle)
    meta = read_json(bundle / "meta.json")
    SPLIT_EDITS[edit](meta)
    write(bundle / "meta.json", json.dumps(meta))
    given = (["--config", pipeline["train_cfg"]] if command == "train" else
             ["--checkpoint", os.path.join(pipeline["run"], "checkpoint.svck")])
    assert main([command, *given, "--bundle", str(bundle), "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert f"survfuse: error: {bundle / 'meta.json'}: " in err
    assert err.rstrip().endswith("re-ingest the raw files with `survfuse ingest`")
    assert not (tmp_path / "r").exists()


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


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
def test_train_refuses_a_bundle_whose_times_are_not_positive_and_finite(
        pipeline, tmp_path, capsys, monkeypatch, value):
    from survfuse import training

    bundle = tmp_path / "bundle"
    shutil.copytree(pipeline["bundle"], bundle)
    times = formats.read_npy(bundle / "times.npy", "<f8", (None,))
    times[5] = value
    formats.write_npy(bundle / "times.npy", times)

    def unreachable(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(training, "_train_loop", unreachable)
    assert main(["train", "--config", pipeline["train_cfg"], "--bundle", str(bundle),
                 "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert (f"survfuse: error: {bundle / 'times.npy'}: follow-up time must be positive "
            f"and finite, got {value}") in err
    assert not (tmp_path / "r").exists()


def test_ingest_parses_keys_by_field_type(tmp_path, capsys):
    write(tmp_path / "o.csv", "id,time_years,event\na,7.5,1\nb,1.0,1\nc,2.0,0\nd,3.0,1\n")
    # a misspelt boolean is an error, not the strict family policy
    cfg = write(tmp_path / "typo.cfg", "outcomes=o.csv\nallow_other=ture\n")
    assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "b0")]) == 1
    assert f"{cfg}: bad value for 'allow_other': expected true or false" in capsys.readouterr().err
    cfg = write(tmp_path / "seed.cfg", "outcomes=o.csv\nsplit_seed=1.5\n")
    assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "b1")]) == 1

    from survfuse.cohort import load_bundle

    # horizon=none keeps follow-up past the administrative horizon
    cfg = write(tmp_path / "none.cfg", "outcomes=o.csv\nhorizon=none\nratios=0.5,0.25,0.25\n")
    assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "b2")]) == 0
    cohort = load_bundle(str(tmp_path / "b2"))
    assert cohort.times[0] == 7.5 and cohort.events[0]
    assert cohort.metadata["horizon_years"] is None
    assert [rows.size for rows in vars(cohort.split).values()] == [2, 1, 1]
    cfg = write(tmp_path / "default.cfg", "outcomes=o.csv\nratios=0.5,0.25,0.25\n")
    assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "b3")]) == 0
    cohort = load_bundle(str(tmp_path / "b3"))
    assert cohort.times[0] == 5.0 and not cohort.events[0]
