"""Tests for cohort loading, validation, clinical preprocessing, splitting,
and the bundle round trip."""

import json
import os
import re

import numpy as np
import pytest

from survfuse import formats
from survfuse.cohort import (
    CANCER_FAMILIES,
    IngestConfig,
    _clinical_modality,
    _parse_clinical_table,
    _pool_text,
    cancer_family,
    load_bundle,
    load_cohort,
    modality_matrix,
    outcome_arrays,
    read_outcomes,
    save_bundle,
    split_cohort,
)
from survfuse.pooling import attention_pool

# one sample in each split of a three-sample cohort
THIRDS = (0.34, 0.34, 0.32)


def write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


def write_outcomes(path, rows):
    lines = ["id,time_years,event"] + [f"{sid},{t},{e}" for sid, t, e in rows]
    return write_text(path, "\n".join(lines) + "\n")


def ingest(tmp_path, **keys):
    """The cohort `load_cohort` builds from an ingest config of `keys`, as if
    read from a file in `tmp_path`."""
    return load_cohort(IngestConfig(**keys), str(tmp_path / "ingest.cfg"))[0]


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
        IngestConfig(outcomes="o.csv", ratios=(0.7, 0.2))
    with pytest.raises(ValueError):
        IngestConfig(outcomes="o.csv", ratios=(0.9, 0.2, -0.1))
    with pytest.raises(ValueError):
        IngestConfig(outcomes="o.csv", ratios=(0.5, 0.4, 0.2))


# ----------------------------------------------------------- outcome parsing

def test_load_cohort_reads_outcomes_in_file_order(tmp_path):
    path = write_outcomes(tmp_path / "o.csv", [("b", 2.5, 1), ("a", 1.0, 0), ("c", 3.0, 0)])
    cohort = ingest(tmp_path, outcomes=path, ratios=THIRDS)
    assert cohort.ids == ["b", "a", "c"]
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
    cohort = ingest(tmp_path, outcomes=path, ratios=THIRDS)
    assert cohort.ids == ids
    # past the horizon: censored at the horizon; exactly at the horizon: untouched
    assert cohort.times.tolist() == [5.0, 5.0, 2.0]
    assert cohort.events.tolist() == [False, True, False]
    # custom and disabled horizons
    cohort = ingest(tmp_path, outcomes=path, ratios=THIRDS, horizon=3.0)
    assert cohort.times.tolist() == [3.0, 3.0, 2.0]
    assert cohort.events.tolist() == [False, False, False]
    cohort = ingest(tmp_path, outcomes=path, ratios=THIRDS, horizon=None)
    assert cohort.times.tolist() == [7.2, 5.0, 2.0]
    assert cohort.events.tolist() == [True, True, False]


def test_outcome_validation(tmp_path):
    with pytest.raises(ValueError, match="event"):
        ingest(tmp_path, outcomes=write_outcomes(tmp_path / "a.csv", [("x", 1.0, 2)]))
    with pytest.raises(ValueError, match="positive"):
        ingest(tmp_path, outcomes=write_outcomes(tmp_path / "b.csv", [("x", 0.0, 1)]))
    for bad in ("inf", "nan"):
        path = write_text(tmp_path / "f.csv", f"id,time_years,event\na,{bad},1\n")
        with pytest.raises(ValueError) as exc:
            read_outcomes(path)
        assert str(exc.value) == (f"{path}: outcomes row for id 'a' (line 2): follow-up time "
                                  f"must be positive and finite, got {bad}")
    with pytest.raises(ValueError, match=r"duplicate outcome id 'x' \(line 3\)"):
        ingest(tmp_path,
               outcomes=write_outcomes(tmp_path / "c.csv", [("x", 1.0, 1), ("x", 2.0, 0)]))
    with pytest.raises(ValueError, match="missing column"):
        ingest(tmp_path, outcomes=write_text(tmp_path / "d.csv", "id,time_years\nx,1.0\n"))
    with pytest.raises(ValueError, match="no outcome rows"):
        ingest(tmp_path, outcomes=write_text(tmp_path / "e.csv", "id,time_years,event\n"))


def test_csv_errors_name_their_file(tmp_path):
    outcomes = write_text(tmp_path / "o.csv", "id,time_years\na,1.0\n")
    with pytest.raises(ValueError) as exc:
        read_outcomes(outcomes)
    assert str(exc.value) == f"{outcomes}: outcomes file missing column 'event'"
    out = write_outcomes(tmp_path / "o2.csv", [("a", 1.0, 1), ("b", 2.0, 0), ("c", 3.0, 1)])
    cov = write_text(tmp_path / "cov.csv", "id,age,sex,race,stage\na,40,F,W,I\n")
    with pytest.raises(ValueError) as exc:
        ingest(tmp_path, outcomes=out, covariates=cov, schema="clinical", ratios=THIRDS)
    assert str(exc.value) == f"{cov}: covariates file missing column 'cancer_type'"
    cov = write_text(tmp_path / "dup.csv", f"{CLINICAL_HEADER}\na,40,F,W,I,skin\n"
                                           "a,50,M,W,II,skin\n")
    with pytest.raises(ValueError) as exc:
        ingest(tmp_path, outcomes=out, covariates=cov, schema="clinical", ratios=THIRDS)
    assert str(exc.value) == f"{cov}: duplicate covariate id 'a' (line 3)"


@pytest.mark.parametrize("ratios,part", [((0.0, 0.2, 0.8), "train"), ((0.8, 0.0, 0.2), "val"),
                                         ((0.5, 0.5, 0.0), "test")])
def test_load_cohort_refuses_an_empty_split(tmp_path, ratios, part):
    out = write_outcomes(tmp_path / "o.csv", [(f"s{i}", 1.0 + i, i % 2) for i in range(10)])
    with pytest.raises(ValueError) as exc:
        ingest(tmp_path, outcomes=out, ratios=ratios)
    shown = ",".join(f"{r:g}" for r in ratios)
    assert str(exc.value) == (f"{tmp_path / 'ingest.cfg'}: ratios={shown} leave the {part} "
                              f"split of 10 samples empty")


# ------------------------------------------------------------ numeric tables

def test_numeric_covariates_and_ge_imputation(tmp_path):
    out = write_outcomes(tmp_path / "o.csv", [("a", 1.0, 1), ("b", 2.0, 0), ("c", 3.0, 1)])
    cov = write_text(tmp_path / "cov.csv", "id,c1,c2\na,0.5,1.5\nb,-1.0,2.5\n")
    # an empty gene-expression cell is imputed to zero
    ge = write_text(tmp_path / "ge.csv", "id,g1,g2,g3\na,1.0,,3.0\nb,4.0,5.0,6.0\n")
    cohort = ingest(tmp_path, outcomes=out, covariates=cov, ge=ge, ratios=THIRDS)
    assert np.array_equal(modality_matrix(cohort, [0], "cov")[0], [0.5, 1.5])
    assert np.array_equal(modality_matrix(cohort, [0], "ge")[0], [1.0, 0.0, 3.0])
    assert np.array_equal(modality_matrix(cohort, [1], "ge")[0], [4.0, 5.0, 6.0])
    # covariates do not get the imputation: empty cell is an error
    bad = write_text(tmp_path / "bad.csv", "id,c1,c2\na,0.5,\nb,1.0,2.0\n")
    with pytest.raises(ValueError, match="empty cell"):
        ingest(tmp_path, outcomes=out, covariates=bad, ratios=THIRDS)
    # a modality file may cover a subset; an uncovered sample's row is NaN
    part = write_text(tmp_path / "part.csv", "id,c1\na,0.5\n")
    cohort = ingest(tmp_path, outcomes=out, covariates=part, ratios=THIRDS)
    assert cohort.modalities["cov"][0].tolist() == [0.5]
    assert np.isnan(cohort.modalities["cov"][1:]).all()


def test_non_finite_inputs_fail_at_ingest_naming_where(tmp_path):
    out = write_outcomes(tmp_path / "o.csv", [("a", 1.0, 1), ("b", 2.0, 0), ("c", 3.0, 1)])
    cov = write_text(tmp_path / "cov.csv", "id,c1,c2\na,0.5,1.5\nb,nan,2.5\n")
    with pytest.raises(ValueError) as exc:
        ingest(tmp_path, outcomes=out, covariates=cov, ratios=THIRDS)
    assert str(exc.value) == f"{cov} id 'b' (line 3): non-finite value 'nan' in 'c1'"
    ge = write_text(tmp_path / "ge.csv", "id,g1,g2\na,1.0,-inf\nb,,2.0\n")
    with pytest.raises(ValueError) as exc:
        ingest(tmp_path, outcomes=out, ge=ge, ratios=THIRDS)
    assert str(exc.value) == f"{ge} id 'a' (line 2): non-finite value '-inf' in 'g2'"
    hidden = str(tmp_path / "h.svhs")
    formats.write_hidden_states(hidden, {"a": np.ones((2, 3)),
                                         "b": np.array([[1.0, np.nan, 0.0]])})
    with pytest.raises(ValueError) as exc:
        ingest(tmp_path, outcomes=out, hidden=hidden, ratios=THIRDS)
    assert str(exc.value) == f"{hidden}: sample 'b' has non-finite hidden states"
    pooled = str(tmp_path / "p.svpv")
    formats.write_pooled(pooled, {"c": np.array([np.inf, 0.0])})
    with pytest.raises(ValueError) as exc:
        ingest(tmp_path, outcomes=out, pooled=pooled, ratios=THIRDS)
    assert str(exc.value) == f"{pooled}: sample 'c' has non-finite pooled vectors"


def test_a_teacher_file_counts_when_it_names_a_cohort_id(tmp_path):
    out = write_outcomes(tmp_path / "o.csv", [("a", 1.0, 1), ("b", 2.0, 0), ("c", 3.0, 1)])
    teacher = str(tmp_path / "t.jsonl")
    # naming no sample of the cohort: no teacher matrix
    formats.write_jsonl(teacher, [{"id": "z", "responses": {"y3": "40%"}}])
    assert ingest(tmp_path, outcomes=out, teacher=teacher, ratios=THIRDS).teacher_probs is None
    # naming one, even with nothing extracted: the (N, 3) matrix, NaN where absent
    formats.write_jsonl(teacher, [{"id": "b", "responses": {"y3": "unsure"}}])
    probs = ingest(tmp_path, outcomes=out, teacher=teacher, ratios=THIRDS).teacher_probs
    assert probs.shape == (3, 3) and np.isnan(probs).all()
    formats.write_jsonl(teacher, [{"id": "b", "responses": {"y3": "40%"}}])
    probs = ingest(tmp_path, outcomes=out, teacher=teacher, ratios=THIRDS).teacher_probs
    assert np.array_equal(probs, [[np.nan] * 3, [np.nan, 0.4, np.nan], [np.nan] * 3],
                          equal_nan=True)


def test_modality_matrix_and_outcome_arrays(tmp_path):
    out = write_outcomes(tmp_path / "o.csv", [("a", 1.0, 1), ("b", 2.0, 0), ("c", 3.0, 1)])
    cov = write_text(tmp_path / "cov.csv", "id,c1,c2\na,0.5,1.5\nb,-1.0,2.5\n")
    cohort = ingest(tmp_path, outcomes=out, covariates=cov, ratios=THIRDS)
    mat = modality_matrix(cohort, [1, 0], "cov")
    assert np.array_equal(mat, [[-1.0, 2.5], [0.5, 1.5]])
    times, events = outcome_arrays(cohort, [1, 0])
    assert np.array_equal(times, [2.0, 1.0])
    assert np.array_equal(events, [False, True])
    cohort.modalities["cov"][0] = np.nan
    with pytest.raises(ValueError, match="sample 'a' lacks cov"):
        modality_matrix(cohort, [1, 0], "cov")
    with pytest.raises(ValueError, match="sample 'b' lacks ge"):
        modality_matrix(cohort, [1], "ge")


# -------------------------------------------------------- clinical schema

CLINICAL_HEADER = "id,age,sex,race,stage,cancer_type"


def clinical_rows(tmp_path, rows, allow_other=True):
    """The kept ids and the parsed clinical columns of a covariates file of `rows`."""
    cov = write_text(tmp_path / "cov.csv",
                     "\n".join([CLINICAL_HEADER] + rows) + "\n")
    table, _ = _parse_clinical_table(cov, allow_other)
    return table


def test_clinical_preprocessing_layout_and_scaling(tmp_path):
    ids, clinical = clinical_rows(tmp_path, [
        "a,40,F,White,I,LUAD",
        "b,60,F,Black,III,skin",
        "c,80,M,White,IV,COAD",
        "d,90,F,Asian,II,nonsense",
    ])
    (_, cov), meta = _clinical_modality((ids, clinical), train_ids=["a", "b", "c"])
    assert meta["cov_layout"] == (["age", "sex", "race", "stage"]
                                  + [f"family_{f}" for f in CANCER_FAMILIES])
    by_id = dict(zip(ids, cov))
    # train extrema: ages 40..80, stages 1..4
    # each cell is (x - lo) / (hi - lo) in float64, bit for bit
    assert by_id["a"][0] == 0.0 and by_id["c"][0] == 1.0
    assert by_id["b"][0] == (60.0 - 40.0) / (80.0 - 40.0)
    assert by_id["a"][3] == 0.0 and by_id["c"][3] == 1.0
    assert by_id["b"][3] == (3.0 - 1.0) / (4.0 - 1.0)
    # the held-out sample scales with the same extrema and may leave [0, 1]
    assert by_id["d"][0] == (90.0 - 40.0) / (80.0 - 40.0)
    # sex majority F, race majority White
    assert [v[1] for v in (by_id["a"], by_id["b"], by_id["c"], by_id["d"])] == [1, 1, 0, 1]
    assert [v[2] for v in (by_id["a"], by_id["b"], by_id["c"], by_id["d"])] == [1, 0, 1, 0]
    # family one-hots: TCGA codes map, plain names pass, unknown -> other
    fam = {sid: CANCER_FAMILIES[int(np.argmax(vec[4:]))] for sid, vec in by_id.items()}
    assert fam == {"a": "respiratory", "b": "skin",
                   "c": "gastrointestinal", "d": "other"}
    assert all(vec[4:].sum() == 1.0 for vec in by_id.values())


def test_clinical_majority_tie_breaks_lexicographic(tmp_path):
    ids, clinical = clinical_rows(tmp_path, [
        "a,50,M,White,II,skin",
        "b,50,F,Black,II,skin",
    ])
    (_, cov), meta = _clinical_modality((ids, clinical), train_ids=["a", "b"])
    assert meta["sex_majority"] == "F"
    assert meta["race_majority"] == "Black"
    # equal train extrema: scaled coordinate collapses to 0
    assert all(row[0] == 0.0 and row[3] == 0.0 for row in cov)


def test_clinical_stage_spellings(tmp_path):
    ids, clinical = clinical_rows(tmp_path, [
        "a,40,F,White,Stage I,skin",
        "b,50,F,White,stage iv,skin",
        "c,60,F,White,2,skin",
    ])
    (_, cov), _ = _clinical_modality((ids, clinical), train_ids=ids)
    by_id = dict(zip(ids, cov[:, 3]))
    # codes 1, 4, 2 scaled by extrema (1, 4)
    assert by_id["a"] == 0.0
    assert by_id["b"] == 1.0
    assert by_id["c"] == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError, match="stage"):
        clinical_rows(tmp_path, ["a,40,F,White,V,skin", "b,50,F,White,I,skin"])


def test_clinical_missing_critical_field_excludes_sample(tmp_path):
    rows = ["a,40,F,White,I,skin", "b,,F,White,II,skin", "c,60,M,White,III,skin",
            "d,70,M,White,IV,skin"]
    out = write_outcomes(tmp_path / "o.csv",
                         [("a", 1.0, 1), ("b", 2.0, 1), ("c", 3.0, 0), ("d", 4.0, 1)])
    cov = write_text(tmp_path / "cov.csv", "\n".join([CLINICAL_HEADER] + rows) + "\n")
    cohort = ingest(tmp_path, outcomes=out, covariates=cov, schema="clinical", ratios=THIRDS)
    assert cohort.ids == ["a", "c", "d"]
    assert cohort.metadata["excluded_missing_critical"] == 1


def test_unknown_family_policy(tmp_path):
    assert cancer_family("Skin") == "skin"
    assert cancer_family("GBM") == "brain"
    assert cancer_family("prad") == "genitourinary"
    assert cancer_family("mystery") == "other"
    with pytest.raises(ValueError, match="cancer type"):
        cancer_family("mystery", allow_other=False)
    with pytest.raises(ValueError, match="cancer type"):
        clinical_rows(tmp_path, ["a,40,F,White,I,mystery", "b,50,F,White,II,skin"],
                      allow_other=False)


def test_clinical_requires_all_columns(tmp_path):
    out = write_outcomes(tmp_path / "o.csv", [("a", 1.0, 1)])
    cov = write_text(tmp_path / "cov.csv", "id,age,sex,race,stage\na,40,F,W,I\n")
    with pytest.raises(ValueError, match="missing column"):
        ingest(tmp_path, outcomes=out, covariates=cov, schema="clinical")
    with pytest.raises(ValueError, match="schema"):
        IngestConfig(outcomes=out, covariates=cov, schema="tabular")


def test_clinical_schema_needs_covariates():
    with pytest.raises(ValueError, match="schema 'clinical' needs a 'covariates' path"):
        IngestConfig(outcomes="o.csv", schema="clinical")
    assert IngestConfig(outcomes="o.csv", covariates="c.csv", schema="clinical").covariates


def test_horizon_none_disables_censoring_after_parsing():
    config = formats.dataclass_from_kv(IngestConfig, {"outcomes": "o.csv", "horizon": "none"},
                                       "ingest.cfg")
    assert config.horizon is None


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
    return ingest(tmp_path, outcomes=out, covariates=cov, ge=ge,
                  hidden=str(tmp_path / "h.svhs"), pooled=str(tmp_path / "p.svpv"),
                  teacher=teacher, ratios=(0.5, 0.25, 0.25))


def test_bundle_round_trip_bit_exact(tmp_path):
    cohort = build_full_cohort(tmp_path)
    out_dir = tmp_path / "bundle"
    save_bundle(cohort, str(out_dir))
    loaded = load_bundle(str(out_dir))
    assert loaded.ids == cohort.ids
    assert np.array_equal(loaded.times, cohort.times)
    assert np.array_equal(loaded.events, cohort.events)
    for name in ("cov", "ge", "text"):
        assert np.array_equal(loaded.modalities[name], cohort.modalities[name])
    # the bundle keeps the extracted probabilities, not the responses or token states
    assert np.array_equal(loaded.teacher_probs, cohort.teacher_probs, equal_nan=True)
    assert not hasattr(loaded, "token_states")
    for name in ("train", "val", "test"):
        assert np.array_equal(getattr(loaded.split, name), getattr(cohort.split, name))
    assert loaded.metadata == cohort.metadata


def test_bundle_outcomes_not_recensored(tmp_path):
    # bundle outcomes were already administratively censored on ingest;
    # loading must not apply the horizon again
    path = write_outcomes(tmp_path / "o.csv", [("a", 7.5, 1), ("b", 1.0, 1), ("c", 2.0, 0)])
    cohort = ingest(tmp_path, outcomes=path, ratios=THIRDS, horizon=None)
    out_dir = tmp_path / "bundle"
    save_bundle(cohort, str(out_dir))
    loaded = load_bundle(str(out_dir))
    assert loaded.times[0] == 7.5
    assert loaded.events[0] == True  # noqa: E712 - a numpy bool


def test_bundle_minimal_and_version_check(tmp_path):
    path = write_outcomes(tmp_path / "o.csv", [("a", 1.0, 1), ("b", 2.0, 0), ("c", 3.0, 1)])
    cohort = ingest(tmp_path, outcomes=path, ratios=THIRDS)
    out_dir = tmp_path / "bundle"
    save_bundle(cohort, str(out_dir))
    loaded = load_bundle(str(out_dir))
    assert "cov" not in loaded.modalities
    assert not hasattr(loaded, "token_states")
    meta_path = os.path.join(out_dir, "meta.json")
    with open(meta_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    # a version-2 bundle (with presence masks) is refused until re-ingested
    for version in (2, 99):
        meta["bundle_version"] = version
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        with pytest.raises(ValueError, match=f"bundle version {version} .*; re-ingest"):
            load_bundle(str(out_dir))


def test_pool_text_fills_only_samples_without_a_text_vector(tmp_path):
    cohort = build_full_cohort(tmp_path)
    hidden = formats.read_hidden_states(tmp_path / "h.svhs")
    pooled = cohort.modalities["text"]
    # every sample has a pooled vector: nothing to pool
    text, n_pooled = _pool_text(pooled.copy(), cohort.ids, hidden, {})
    assert n_pooled == 0
    assert np.array_equal(text, pooled)
    partial = pooled.copy()
    partial[[1, 4]] = np.nan
    text, n_pooled = _pool_text(partial.copy(), cohort.ids, hidden, {})
    assert n_pooled == 2
    for i in range(len(cohort)):
        want = attention_pool(hidden[cohort.ids[i]]) if i in (1, 4) else pooled[i]
        assert np.array_equal(text[i], want)
    # without a pooled file the text modality comes from the token states alone
    text, n_pooled = _pool_text(None, cohort.ids, hidden, {})
    assert n_pooled == len(cohort)
    assert text.shape == (len(cohort), 8)
    # a sample with neither keeps its NaN row
    text, n_pooled = _pool_text(partial, cohort.ids, {}, {})
    assert n_pooled == 0 and np.isnan(text[[1, 4]]).all()


def test_bundle_stores_text_in_32_bits(tmp_path):
    path = write_outcomes(tmp_path / "o.csv", [("a", 1.0, 1), ("b", 2.0, 0), ("c", 3.0, 1)])
    cohort = ingest(tmp_path, outcomes=path, ratios=THIRDS)
    values = np.array([[0.1, 1 / 3], [2.0, -0.7], [np.nan, np.nan]])
    cohort.modalities["text"] = values
    save_bundle(cohort, str(tmp_path / "bundle"))
    stored = np.load(tmp_path / "bundle" / "text.npy")
    assert stored.dtype == np.dtype("<f4")
    loaded = load_bundle(str(tmp_path / "bundle"))
    text = loaded.modalities["text"]
    assert text.dtype == np.float64
    assert np.array_equal(text[:2], values[:2].astype(np.float32).astype(np.float64))
    assert np.isnan(text[2]).all()


def test_bundle_without_meta_is_incomplete(tmp_path):
    cohort = build_full_cohort(tmp_path)
    out_dir = tmp_path / "bundle"
    save_bundle(cohort, str(out_dir))
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        ["meta.json", "times.npy", "events.npy", "teacher_probs.npy", "text.npy", "cov.npy",
         "ge.npy"])
    os.remove(out_dir / "meta.json")
    with pytest.raises(ValueError, match="bundle is incomplete"):
        load_bundle(str(out_dir))
    # rewriting a bundle removes its old meta.json before any array changes
    save_bundle(cohort, str(out_dir))
    assert load_bundle(str(out_dir)).ids == cohort.ids


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
    assert load_bundle(str(out_dir)).ids == cohort.ids


def make_version_2(out_dir):
    """Turn the bundle in `out_dir` into the version-2 layout: a presence
    mask `<name>_present.npy` beside each modality, listed in meta.json."""
    meta = json.loads((out_dir / "meta.json").read_text(encoding="utf-8"))
    masks = [f"{name}_present" for name in ("text", "cov", "ge") if name in meta["arrays"]]
    for name in masks:
        formats.write_npy(out_dir / f"{name}.npy", np.ones(len(meta["ids"]), dtype=bool))
    meta.update(bundle_version=2, arrays=meta["arrays"] + masks)
    (out_dir / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    return [f"{name}.npy" for name in masks]


def test_rewriting_a_version_2_bundle_deletes_arrays_it_no_longer_writes(tmp_path):
    out_dir = tmp_path / "bundle"
    smaller = build_full_cohort(tmp_path, with_teacher=False)
    del smaller.modalities["ge"]
    # over a version-2 bundle, and over a bundle of this version
    for masks in (True, False):
        save_bundle(build_full_cohort(tmp_path), str(out_dir))
        if masks:
            assert make_version_2(out_dir) == ["text_present.npy", "cov_present.npy",
                                               "ge_present.npy"]
        (out_dir / "notes.npy").write_text("not an array of the bundle")
        written = save_bundle(smaller, str(out_dir))
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            [os.path.basename(p) for p in written] + ["notes.npy"])
        assert {"ge.npy", "teacher_probs.npy"}.isdisjoint(os.path.basename(p) for p in written)
        assert not any(p.name.endswith("_present.npy") for p in out_dir.iterdir())
        loaded = load_bundle(str(out_dir))
        assert sorted(loaded.modalities) == ["cov", "text"] and loaded.teacher_probs is None


def test_bundle_rejects_arrays_of_the_wrong_kind(tmp_path):
    cohort = build_full_cohort(tmp_path)
    out_dir = tmp_path / "bundle"
    save_bundle(cohort, str(out_dir))
    n = len(cohort)

    def changed(name, row, col, value):
        arr = np.array(cohort.teacher_probs if name == "teacher_probs" else
                       cohort.modalities[name], dtype="<f4" if name == "text" else "<f8")
        arr[row, col] = value
        return arr
    row_rule = "must be all finite, or all NaN where the sample lacks this input"
    bad = [
        ("times.npy", np.zeros(n, dtype=np.float32), "times.npy: dtype <f4"),
        ("events.npy", np.zeros((n, 1), dtype=bool), "events.npy: shape"),
        ("ge.npy", np.zeros((n + 1, 4)), "ge.npy: shape"),
        ("ge.npy", np.zeros((n, 0)), "ge.npy: no columns"),
        ("teacher_probs.npy", np.zeros((n, 2)), "teacher_probs.npy: shape"),
        ("text.npy", np.zeros((n, 8)), "text.npy: dtype <f8, expected <f4"),
        # a row partly NaN, or holding an infinity, is neither present nor absent
        ("ge.npy", changed("ge", 2, 1, np.nan), f"ge.npy: the row of id 's2' {row_rule}"),
        ("cov.npy", changed("cov", 4, 0, -np.inf), f"cov.npy: the row of id 's4' {row_rule}"),
        ("text.npy", changed("text", 1, 7, np.inf), f"text.npy: the row of id 's1' {row_rule}"),
        ("teacher_probs.npy", changed("teacher_probs", 3, 1, 1.5),
         "teacher_probs.npy: a teacher probability must be NaN or lie in [0, 1], got 1.5 "
         "for id 's3'"),
        ("teacher_probs.npy", changed("teacher_probs", 0, 2, -np.inf),
         "teacher_probs.npy: a teacher probability must be NaN or lie in [0, 1], got -inf "
         "for id 's0'"),
    ]
    for name, arr, message in bad:
        good = (out_dir / name).read_bytes()
        formats.write_npy(out_dir / name, arr)
        with pytest.raises(ValueError, match=re.escape(message)):
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
