"""End-to-end command line tests.

Every invocation goes through main() in process so exit codes and stdout are
observable without spawning interpreters.
"""

import json
import os

import numpy as np
import pytest

from survfuse import formats
from survfuse.cli import main

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


def test_malformed_input_is_validation_error(tmp_path):
    bad = write(tmp_path / "bad.svhs", "this is not a hidden-state file")
    assert main(["pool", "--hidden", bad,
                 "--out", str(tmp_path / "p.svpv")]) == 1


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
    assert manifest["timing_seconds"] > 0
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
    _, curves = formats.read_curves_csv(os.path.join(out, "curves.csv"))
    assert len(curves) == 19
    for curve in curves:
        assert curve.times[0] == 0.0 and curve.values[0] == 1.0
        assert np.all(np.diff(curve.values) <= 0.0)


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
    code = main(["blend", "--curves", os.path.join(ev, "curves.csv"),
                 "--percents", os.path.join(targets, "percents.csv"),
                 "--outcomes", os.path.join(pipeline["raw"], "outcomes.csv"),
                 "--out", blended])
    assert code == 0
    blend = read_json(os.path.join(blended, "blend.json"))
    assert blend["lambda"] in [k / 20 for k in range(21)]
    assert blend["n_curves"] == 19
    _, combined = formats.read_curves_csv(os.path.join(blended, "combined.csv"))
    assert len(combined) == 19


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
    assert main(["blend", "--curves", os.path.join(ev, "curves.csv"),
                 "--percents", os.path.join(targets, "percents.csv"),
                 "--lam", "0.0", "--out", blended]) == 0
    hidden_ids, hidden = formats.read_curves_csv(os.path.join(ev, "curves.csv"))
    combined_ids, combined = formats.read_curves_csv(os.path.join(blended, "combined.csv"))
    assert combined_ids == hidden_ids
    assert np.array_equal(combined.values, hidden.values)


def test_blend_needs_lambda_or_outcomes(pipeline, tmp_path, capsys):
    ev = str(tmp_path / "ev")
    assert main(["eval", "--checkpoint",
                 os.path.join(pipeline["run"], "checkpoint.svck"),
                 "--bundle", pipeline["bundle"], "--out", ev]) == 0
    targets = str(tmp_path / "targets")
    assert main(["parse-teacher", "--teacher",
                 os.path.join(pipeline["raw"], "teacher.jsonl"),
                 "--out", targets, "--no-correction"]) == 0
    assert main(["blend", "--curves", os.path.join(ev, "curves.csv"),
                 "--percents", os.path.join(targets, "percents.csv"),
                 "--out", str(tmp_path / "b")]) == 1
    assert "--lam or --outcomes" in capsys.readouterr().err


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


def test_bundle_without_split_is_rejected(pipeline, tmp_path, capsys):
    from survfuse.cohort import load_bundle, save_bundle

    cohort, _ = load_bundle(pipeline["bundle"])
    bare = str(tmp_path / "bare")
    save_bundle(cohort, bare)
    assert main(["train", "--config", pipeline["train_cfg"],
                 "--bundle", bare, "--out", str(tmp_path / "r")]) == 1
    assert "no split" in capsys.readouterr().err
