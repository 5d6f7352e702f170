"""Tests for cohort loading, validation, clinical preprocessing, splitting,
and the bundle round trip."""

import json
import os

import numpy as np
import pytest

from survfuse import formats
from survfuse.cohort import (
    CANCER_FAMILIES,
    Modality,
    cancer_family,
    load_bundle,
    load_cohort,
    modality_matrix,
    outcome_arrays,
    pool_text,
    preprocess_covariates,
    read_outcomes,
    save_bundle,
    split_cohort,
)
from survfuse.pooling import attention_pool


def write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


def write_outcomes(path, rows):
    lines = ["id,time_years,event"] + [f"{sid},{t},{e}" for sid, t, e in rows]
    return write_text(path, "\n".join(lines) + "\n")


# ------------------------------------------------------------------ splitting

def test_split_sizes_floor_with_test_remainder():
    split = split_cohort(8902, seed=0)
    assert (split.train.size, split.val.size, split.test.size) == (6231, 890, 1781)
    split = split_cohort(10, seed=0)
    assert (split.train.size, split.val.size, split.test.size) == (7, 1, 2)
    split = split_cohort(120, seed=3)
    assert (split.train.size, split.val.size, split.test.size) == (84, 12, 24)
    split = split_cohort(9, ratios=(0.5, 0.25, 0.25), seed=1)
    assert (split.train.size, split.val.size, split.test.size) == (4, 2, 3)


def test_split_partitions_and_is_deterministic():
    for n in (3, 17, 240):
        a = split_cohort(n, seed=11)
        b = split_cohort(n, seed=11)
        for part_a, part_b in zip((a.train, a.val, a.test), (b.train, b.val, b.test)):
            assert np.array_equal(part_a, part_b)
            assert np.array_equal(part_a, np.sort(part_a))
        merged = np.concatenate([a.train, a.val, a.test])
        assert np.array_equal(np.sort(merged), np.arange(n))
    assert not np.array_equal(split_cohort(240, seed=11).train,
                              split_cohort(240, seed=12).train)


def test_split_validation():
    with pytest.raises(ValueError):
        split_cohort(2)
    with pytest.raises(ValueError):
        split_cohort(10, ratios=(0.7, 0.2))
    with pytest.raises(ValueError):
        split_cohort(10, ratios=(0.9, 0.2, -0.1))
    with pytest.raises(ValueError):
        split_cohort(10, ratios=(0.5, 0.4, 0.2))


# ----------------------------------------------------------- outcome parsing

def test_load_cohort_reads_outcomes_in_file_order(tmp_path):
    path = write_outcomes(tmp_path / "o.csv", [("b", 2.5, 1), ("a", 1.0, 0)])
    cohort = load_cohort(path)
    assert cohort.ids == ["b", "a"]
    assert cohort.times[0] == 2.5
    assert cohort.events[0] == True  # noqa: E712 - a numpy bool
    assert cohort.events[1] == False  # noqa: E712


def test_administrative_censoring(tmp_path):
    path = write_outcomes(tmp_path / "o.csv",
                          [("late", 7.2, 1), ("edge", 5.0, 1), ("early", 2.0, 0)])
    # read as given, in file order
    ids, times, events = read_outcomes(path)
    assert ids == ["late", "edge", "early"]
    assert times.dtype == np.float64 and events.dtype == bool
    assert times.tolist() == [7.2, 5.0, 2.0] and events.tolist() == [True, True, False]
    cohort = load_cohort(path)
    assert cohort.ids == ids
    # past the horizon: censored at the horizon; exactly at the horizon: untouched
    assert cohort.times.tolist() == [5.0, 5.0, 2.0]
    assert cohort.events.tolist() == [False, True, False]
    # custom and disabled horizons
    cohort = load_cohort(path, horizon_years=3.0)
    assert cohort.times.tolist() == [3.0, 3.0, 2.0]
    assert cohort.events.tolist() == [False, False, False]
    cohort = load_cohort(path, horizon_years=None)
    assert cohort.times.tolist() == [7.2, 5.0, 2.0]
    assert cohort.events.tolist() == [True, True, False]


def test_outcome_validation(tmp_path):
    with pytest.raises(ValueError, match="event"):
        load_cohort(write_outcomes(tmp_path / "a.csv", [("x", 1.0, 2)]))
    with pytest.raises(ValueError, match="positive"):
        load_cohort(write_outcomes(tmp_path / "b.csv", [("x", 0.0, 1)]))
    with pytest.raises(ValueError, match=r"duplicate outcome id 'x' \(line 3\)"):
        load_cohort(write_outcomes(tmp_path / "c.csv", [("x", 1.0, 1), ("x", 2.0, 0)]))
    with pytest.raises(ValueError, match="missing column"):
        load_cohort(write_text(tmp_path / "d.csv", "id,time_years\nx,1.0\n"))
    with pytest.raises(ValueError, match="no outcome rows"):
        load_cohort(write_text(tmp_path / "e.csv", "id,time_years,event\n"))


# ------------------------------------------------------------ numeric tables

def test_numeric_covariates_and_ge_imputation(tmp_path):
    out = write_outcomes(tmp_path / "o.csv", [("a", 1.0, 1), ("b", 2.0, 0)])
    cov = write_text(tmp_path / "cov.csv", "id,c1,c2\na,0.5,1.5\nb,-1.0,2.5\n")
    # an empty gene-expression cell is imputed to zero
    ge = write_text(tmp_path / "ge.csv", "id,g1,g2,g3\na,1.0,,3.0\nb,4.0,5.0,6.0\n")
    cohort = load_cohort(out, covariates_path=cov, ge_path=ge)
    assert np.array_equal(modality_matrix(cohort, [0], "cov")[0], [0.5, 1.5])
    assert np.array_equal(modality_matrix(cohort, [0], "ge")[0], [1.0, 0.0, 3.0])
    assert np.array_equal(modality_matrix(cohort, [1], "ge")[0], [4.0, 5.0, 6.0])
    # covariates do not get the imputation: empty cell is an error
    bad = write_text(tmp_path / "bad.csv", "id,c1,c2\na,0.5,\nb,1.0,2.0\n")
    with pytest.raises(ValueError, match="empty cell"):
        load_cohort(out, covariates_path=bad)
    # a modality file may cover a subset; uncovered samples carry None
    part = write_text(tmp_path / "part.csv", "id,c1\na,0.5\n")
    cohort = load_cohort(out, covariates_path=part)
    assert not cohort.modalities["cov"].present[1]


def test_modality_matrix_and_outcome_arrays(tmp_path):
    out = write_outcomes(tmp_path / "o.csv", [("a", 1.0, 1), ("b", 2.0, 0)])
    cov = write_text(tmp_path / "cov.csv", "id,c1,c2\na,0.5,1.5\nb,-1.0,2.5\n")
    cohort = load_cohort(out, covariates_path=cov)
    mat = modality_matrix(cohort, [1, 0], "cov")
    assert np.array_equal(mat, [[-1.0, 2.5], [0.5, 1.5]])
    times, events = outcome_arrays(cohort, [1, 0])
    assert np.array_equal(times, [2.0, 1.0])
    assert np.array_equal(events, [False, True])
    cohort.modalities["cov"].present[0] = False
    with pytest.raises(ValueError, match="lacks"):
        modality_matrix(cohort, [0, 1], "cov")


# -------------------------------------------------------- clinical schema

CLINICAL_HEADER = "id,age,sex,race,stage,cancer_type"


def clinical_cohort(tmp_path, rows, outcome_rows=None, **kwargs):
    if outcome_rows is None:
        outcome_rows = [(r.split(",")[0], 2.0, 1) for r in rows]
    out = write_outcomes(tmp_path / "o.csv", outcome_rows)
    cov = write_text(tmp_path / "cov.csv",
                     "\n".join([CLINICAL_HEADER] + rows) + "\n")
    return load_cohort(out, covariates_path=cov, schema="clinical", **kwargs)


def test_clinical_preprocessing_layout_and_scaling(tmp_path):
    cohort = clinical_cohort(tmp_path, [
        "a,40,F,White,I,LUAD",
        "b,60,F,Black,III,skin",
        "c,80,M,White,IV,COAD",
        "d,90,F,Asian,II,nonsense",
    ])
    meta = preprocess_covariates(cohort, train_indices=[0, 1, 2])
    assert meta["cov_layout"] == (["age", "sex", "race", "stage"]
                                  + [f"family_{f}" for f in CANCER_FAMILIES])
    by_id = dict(zip(cohort.ids, cohort.modalities["cov"].values))
    # train extrema: ages 40..80, stages 1..4
    assert by_id["a"][0] == 0.0 and by_id["c"][0] == 1.0
    assert by_id["b"][0] == pytest.approx(0.5)
    assert by_id["a"][3] == 0.0 and by_id["c"][3] == 1.0
    assert by_id["b"][3] == pytest.approx(2.0 / 3.0)
    # the held-out sample scales with the same extrema and may leave [0, 1]
    assert by_id["d"][0] == pytest.approx(1.25)
    # sex majority F, race majority White
    assert [v[1] for v in (by_id["a"], by_id["b"], by_id["c"], by_id["d"])] == [1, 1, 0, 1]
    assert [v[2] for v in (by_id["a"], by_id["b"], by_id["c"], by_id["d"])] == [1, 0, 1, 0]
    # family one-hots: TCGA codes map, plain names pass, unknown -> other
    fam = {sid: CANCER_FAMILIES[int(np.argmax(vec[4:]))] for sid, vec in by_id.items()}
    assert fam == {"a": "respiratory", "b": "skin",
                   "c": "gastrointestinal", "d": "other"}
    assert all(vec[4:].sum() == 1.0 for vec in by_id.values())


def test_clinical_majority_tie_breaks_lexicographic(tmp_path):
    cohort = clinical_cohort(tmp_path, [
        "a,50,M,White,II,skin",
        "b,50,F,Black,II,skin",
    ])
    meta = preprocess_covariates(cohort, train_indices=[0, 1])
    assert meta["sex_majority"] == "F"
    assert meta["race_majority"] == "Black"
    # equal train extrema: scaled coordinate collapses to 0
    assert all(cov[0] == 0.0 and cov[3] == 0.0 for cov in cohort.modalities["cov"].values)


def test_clinical_stage_spellings(tmp_path):
    cohort = clinical_cohort(tmp_path, [
        "a,40,F,White,Stage I,skin",
        "b,50,F,White,stage iv,skin",
        "c,60,F,White,2,skin",
    ])
    preprocess_covariates(cohort, train_indices=[0, 1, 2])
    by_id = dict(zip(cohort.ids, cohort.modalities["cov"].values[:, 3]))
    # codes 1, 4, 2 scaled by extrema (1, 4)
    assert by_id["a"] == 0.0
    assert by_id["b"] == 1.0
    assert by_id["c"] == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError, match="stage"):
        cohort = clinical_cohort(tmp_path, ["a,40,F,White,V,skin",
                                            "b,50,F,White,I,skin"])
        preprocess_covariates(cohort, train_indices=[0, 1])


def test_clinical_missing_critical_field_excludes_sample(tmp_path):
    cohort = clinical_cohort(tmp_path, [
        "a,40,F,White,I,skin",
        "b,,F,White,II,skin",
        "c,60,M,White,III,skin",
    ], outcome_rows=[("a", 1.0, 1), ("b", 2.0, 1), ("c", 3.0, 0)])
    assert cohort.ids == ["a", "c"]
    assert cohort.metadata["excluded_missing_critical"] == 1


def test_unknown_family_policy(tmp_path):
    assert cancer_family("Skin") == "skin"
    assert cancer_family("GBM") == "brain"
    assert cancer_family("prad") == "genitourinary"
    assert cancer_family("mystery") == "other"
    with pytest.raises(ValueError, match="cancer type"):
        cancer_family("mystery", allow_other=False)
    cohort = clinical_cohort(tmp_path, ["a,40,F,White,I,mystery",
                                        "b,50,F,White,II,skin"],
                             allow_other_family=False)
    with pytest.raises(ValueError, match="cancer type"):
        preprocess_covariates(cohort, train_indices=[0, 1])


def test_clinical_requires_all_columns(tmp_path):
    out = write_outcomes(tmp_path / "o.csv", [("a", 1.0, 1)])
    cov = write_text(tmp_path / "cov.csv", "id,age,sex,race,stage\na,40,F,W,I\n")
    with pytest.raises(ValueError, match="missing column"):
        load_cohort(out, covariates_path=cov, schema="clinical")
    with pytest.raises(ValueError, match="schema"):
        load_cohort(out, covariates_path=cov, schema="tabular")


# ----------------------------------------------------------------- bundles

def build_full_cohort(tmp_path, n=6, with_teacher=True):
    rng = np.random.default_rng(7)
    ids = [f"s{i}" for i in range(n)]
    out = write_outcomes(tmp_path / "o.csv",
                         [(sid, round(float(rng.uniform(0.5, 4.5)), 3),
                           int(rng.random() < 0.6)) for sid in ids])
    cov_rows = [f"{sid}," + ",".join(repr(float(v)) for v in rng.normal(size=3))
                for sid in ids]
    cov = write_text(tmp_path / "cov.csv",
                     "\n".join(["id,c1,c2,c3"] + cov_rows) + "\n")
    ge_rows = [f"{sid}," + ",".join(repr(float(v)) for v in rng.normal(size=4))
               for sid in ids]
    ge = write_text(tmp_path / "ge.csv",
                    "\n".join(["id,g1,g2,g3,g4"] + ge_rows) + "\n")
    # store values already representable in 32 bits so round trips compare ==
    hidden = {sid: rng.normal(size=(5, 8)).astype(np.float32).astype(np.float64)
              for sid in ids}
    formats.write_hidden_states(tmp_path / "h.svhs", hidden)
    pooled = {sid: rng.normal(size=8).astype(np.float32).astype(np.float64)
              for sid in ids}
    formats.write_pooled(tmp_path / "p.svpv", pooled)
    teacher = None
    if with_teacher:
        rows = [{"id": sid, "responses": {"y3": f"{int(rng.integers(5, 95))}%"},
                 "explanation": f"case {sid}"} for sid in ids]
        teacher = str(tmp_path / "t.jsonl")
        formats.write_jsonl(teacher, rows)
    return load_cohort(out, covariates_path=cov, ge_path=ge,
                       hidden_states_path=str(tmp_path / "h.svhs"),
                       pooled_path=str(tmp_path / "p.svpv"),
                       teacher_path=teacher)


def test_bundle_round_trip_bit_exact(tmp_path):
    cohort = build_full_cohort(tmp_path)
    split = split_cohort(len(cohort), seed=5)
    out_dir = tmp_path / "bundle"
    save_bundle(cohort, str(out_dir), split=split)
    loaded, loaded_split = load_bundle(str(out_dir))
    assert loaded.ids == cohort.ids
    assert np.array_equal(loaded.times, cohort.times)
    assert np.array_equal(loaded.events, cohort.events)
    for name in ("cov", "ge", "text"):
        assert np.array_equal(loaded.modalities[name].values, cohort.modalities[name].values)
        assert np.array_equal(loaded.modalities[name].present, cohort.modalities[name].present)
    # the bundle keeps the extracted probabilities, not the responses or token states
    assert np.array_equal(loaded.teacher_probs, cohort.teacher_probs, equal_nan=True)
    assert loaded.token_states is None
    for name in ("train", "val", "test"):
        assert np.array_equal(getattr(loaded_split, name), getattr(split, name))
    assert loaded.metadata == cohort.metadata


def test_bundle_outcomes_not_recensored(tmp_path):
    # bundle outcomes were already administratively censored on ingest;
    # loading must not apply the horizon again
    path = write_outcomes(tmp_path / "o.csv", [("a", 7.5, 1), ("b", 1.0, 1), ("c", 2.0, 0)])
    cohort = load_cohort(path, horizon_years=None)
    out_dir = tmp_path / "bundle"
    save_bundle(cohort, str(out_dir))
    loaded, split = load_bundle(str(out_dir))
    assert split is None
    assert loaded.times[0] == 7.5
    assert loaded.events[0] == True  # noqa: E712 - a numpy bool


def test_bundle_minimal_and_version_check(tmp_path):
    path = write_outcomes(tmp_path / "o.csv", [("a", 1.0, 1), ("b", 2.0, 0)])
    cohort = load_cohort(path)
    out_dir = tmp_path / "bundle"
    save_bundle(cohort, str(out_dir))
    loaded, _ = load_bundle(str(out_dir))
    assert "cov" not in loaded.modalities
    assert loaded.token_states is None
    meta_path = os.path.join(out_dir, "meta.json")
    with open(meta_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    meta["bundle_version"] = 99
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    with pytest.raises(ValueError, match="bundle version"):
        load_bundle(str(out_dir))


def test_pool_text_fills_only_samples_without_a_text_vector(tmp_path):
    cohort = build_full_cohort(tmp_path)
    # every sample has a pooled vector: nothing to pool
    assert pool_text(cohort) == 0
    cohort.modalities["text"].present[[1, 4]] = False
    assert pool_text(cohort) == 2
    text = cohort.modalities["text"]
    assert text.present.all()
    for i in (1, 4):
        assert np.array_equal(text.values[i], attention_pool(cohort.token_states[i]))
    # without a pooled file the text modality comes from the token states alone
    cohort.modalities.pop("text")
    assert pool_text(cohort) == len(cohort)
    assert cohort.modalities["text"].values.shape == (len(cohort), 8)


def test_bundle_stores_text_in_32_bits(tmp_path):
    path = write_outcomes(tmp_path / "o.csv", [("a", 1.0, 1), ("b", 2.0, 0), ("c", 3.0, 1)])
    cohort = load_cohort(path)
    values = np.array([[0.1, 1 / 3], [2.0, -0.7], [np.nan, np.nan]])
    cohort.modalities["text"] = Modality(values=values, present=np.array([True, True, False]))
    save_bundle(cohort, str(tmp_path / "bundle"))
    stored = np.load(tmp_path / "bundle" / "text.npy")
    assert stored.dtype == np.dtype("<f4")
    loaded, _ = load_bundle(str(tmp_path / "bundle"))
    text = loaded.modalities["text"]
    assert text.values.dtype == np.float64
    assert np.array_equal(text.values[:2], values[:2].astype(np.float32).astype(np.float64))
    assert np.array_equal(text.present, [True, True, False])


def test_bundle_without_meta_is_incomplete(tmp_path):
    cohort = build_full_cohort(tmp_path)
    out_dir = tmp_path / "bundle"
    save_bundle(cohort, str(out_dir), split=split_cohort(len(cohort), seed=5))
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        ["meta.json", "times.npy", "events.npy", "teacher_probs.npy"]
        + [f"{m}{suffix}.npy" for m in ("text", "cov", "ge") for suffix in ("", "_present")])
    os.remove(out_dir / "meta.json")
    with pytest.raises(ValueError, match="bundle is incomplete"):
        load_bundle(str(out_dir))
    # rewriting a bundle removes its old meta.json before any array changes
    save_bundle(cohort, str(out_dir))
    loaded, split = load_bundle(str(out_dir))
    assert split is None and loaded.ids == cohort.ids


def test_rewriting_a_version_1_bundle_deletes_the_files_it_claims(tmp_path):
    out_dir = tmp_path / "bundle"
    out_dir.mkdir()
    claimed = {"covariates": "covariates.csv", "ge": "ge.csv", "hidden": "hidden.svhs",
               "pooled": "pooled.svpv", "teacher": "teacher.jsonl"}
    for name in ["outcomes.csv", *claimed.values(), "notes.txt"]:
        (out_dir / name).write_text("old")
    (tmp_path / "outside.csv").write_text("keep")
    with open(out_dir / "meta.json", "w", encoding="utf-8") as fh:
        json.dump({"bundle_version": 1, "ids": ["a"], "metadata": {}, "split": None,
                   "files": {**claimed, "bad": "../outside.csv", "none": None}}, fh)
    cohort = build_full_cohort(tmp_path)
    written = save_bundle(cohort, str(out_dir))
    assert written[-1] == str(out_dir / "meta.json")
    # only the old bundle's own files go; unclaimed files and paths outside stay
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        [os.path.basename(p) for p in written] + ["notes.txt"])
    assert (tmp_path / "outside.csv").read_text() == "keep"
    assert load_bundle(str(out_dir))[0].ids == cohort.ids


def test_rewriting_a_version_2_bundle_deletes_arrays_it_no_longer_writes(tmp_path):
    out_dir = tmp_path / "bundle"
    save_bundle(build_full_cohort(tmp_path), str(out_dir))
    (out_dir / "notes.npy").write_text("not an array of the bundle")
    smaller = build_full_cohort(tmp_path, with_teacher=False)
    del smaller.modalities["ge"]
    written = save_bundle(smaller, str(out_dir))
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        [os.path.basename(p) for p in written] + ["notes.npy"])
    assert {"ge.npy", "ge_present.npy", "teacher_probs.npy"}.isdisjoint(
        os.path.basename(p) for p in written)
    loaded, _ = load_bundle(str(out_dir))
    assert sorted(loaded.modalities) == ["cov", "text"] and loaded.teacher_probs is None


def test_bundle_rejects_arrays_of_the_wrong_kind(tmp_path):
    cohort = build_full_cohort(tmp_path)
    out_dir = tmp_path / "bundle"
    save_bundle(cohort, str(out_dir))
    n = len(cohort)
    bad = {
        "times.npy": (np.zeros(n, dtype=np.float32), "times.npy: dtype <f4"),
        "events.npy": (np.zeros((n, 1), dtype=bool), "events.npy: shape"),
        "ge.npy": (np.zeros((n + 1, 4)), "ge.npy: shape"),
        "cov_present.npy": (np.ones(n - 1, dtype=bool), "cov_present.npy: shape"),
        "teacher_probs.npy": (np.zeros((n, 2)), "teacher_probs.npy: shape"),
        "text.npy": (np.zeros((n, 8)), "text.npy: dtype <f8, expected <f4"),
    }
    for name, (arr, message) in bad.items():
        good = (out_dir / name).read_bytes()
        formats.write_npy(out_dir / name, arr)
        with pytest.raises(ValueError, match=message):
            load_bundle(str(out_dir))
        (out_dir / name).write_bytes(good)
    load_bundle(str(out_dir))


def test_bundle_truncated_arrays_raise_value_error(tmp_path):
    cohort = build_full_cohort(tmp_path)
    out_dir = tmp_path / "bundle"
    save_bundle(cohort, str(out_dir))
    for path in sorted(out_dir.glob("*.npy")):
        good = path.read_bytes()
        for cut in sorted({0, 3, 8, 10, 64, len(good) // 2, len(good) - 1}):
            path.write_bytes(good[:cut])
            with pytest.raises(ValueError, match=path.name):
                load_bundle(str(out_dir))
        path.write_bytes(good)
    load_bundle(str(out_dir))


def test_version_1_bundle_asks_for_reingest(tmp_path):
    out_dir = tmp_path / "old"
    out_dir.mkdir()
    write_outcomes(out_dir / "outcomes.csv", [("a", 1.0, 1)])
    with open(out_dir / "meta.json", "w", encoding="utf-8") as fh:
        json.dump({"bundle_version": 1, "ids": ["a"], "metadata": {},
                   "files": {}, "split": None}, fh)
    with pytest.raises(ValueError, match="bundle version 1.*re-ingest"):
        load_bundle(str(out_dir))
