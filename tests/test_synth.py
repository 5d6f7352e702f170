"""Tests for the synthetic cohort generator and its oracle curves."""

import hashlib
import math
import os

import numpy as np
import pytest

from survfuse import formats
from survfuse.cohort import load_cohort
from survfuse.distill import extract_probability, parse_teacher_file
from survfuse.synth import (
    ExponentialCurve,
    GeneratorSpec,
    WeibullCurve,
    generate,
    oracle_curves,
    partial_rates,
    spec_from_kv,
    true_survival,
)


def small_spec(**overrides):
    base = dict(n=60, d_c=4, d_g=10, ge_latent=3, seq_len=5, d_text=8, seed=0)
    base.update(overrides)
    return GeneratorSpec(**base)


def tree_digest(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


# -------------------------------------------------------------------- spec

def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(n=2)
    with pytest.raises(ValueError):
        GeneratorSpec(base_rate=0.0)
    with pytest.raises(ValueError):
        GeneratorSpec(censor_rate=-0.1)
    with pytest.raises(ValueError):
        GeneratorSpec(missing_rate=1.5)
    with pytest.raises(ValueError):
        GeneratorSpec(refusal_rate=-0.2)
    with pytest.raises(ValueError):
        GeneratorSpec(event_family="lognormal")


def test_spec_from_kv():
    spec = spec_from_kv({"n": "120", "d_g": "24", "w_text": "0.9",
                         "event_family": "weibull", "weibull_shape": "2.0",
                         "missing_rate": "0.25", "seed": "11"})
    assert spec.n == 120 and spec.d_g == 24 and spec.seed == 11
    assert spec.w_text == 0.9 and spec.missing_rate == 0.25
    assert spec.event_family == "weibull" and spec.weibull_shape == 2.0
    with pytest.raises(ValueError):
        spec_from_kv({"samples": "100"})


# --------------------------------------------------------------- generation

def test_generate_is_deterministic(tmp_path):
    a = generate(small_spec(), str(tmp_path / "a"))
    b = generate(small_spec(), str(tmp_path / "b"))
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    assert np.array_equal(a.rates, b.rates)
    c = generate(small_spec(seed=1), str(tmp_path / "c"))
    assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "c")


def test_generate_writes_every_interface_file(tmp_path):
    result = generate(small_spec(), str(tmp_path))
    assert set(result.files) == {"outcomes", "covariates", "ge", "hidden",
                                 "teacher", "truth"}
    for path in result.files.values():
        assert os.path.exists(path)
    hidden = formats.read_hidden_states(result.files["hidden"])
    assert set(hidden) == set(result.ids)
    assert all(v.shape == (5, 8) for v in hidden.values())


def test_truth_file_matches_generator_state(tmp_path):
    spec = small_spec()
    result = generate(spec, str(tmp_path))
    _, rows = formats.read_csv_table(result.files["truth"])
    assert [r["id"] for r in rows] == result.ids
    rates = np.array([float(r["rate"]) for r in rows])
    assert np.array_equal(rates, result.rates)
    # the written components reproduce the hazard formula exactly
    for i, row in enumerate(rows):
        expect = spec.base_rate * math.exp(
            spec.w_text * float(row["u_text"]) + spec.w_cov * float(row["u_cov"])
            + spec.w_ge * float(row["u_ge"]))
        assert rates[i] == pytest.approx(expect, rel=1e-12)


def test_outcomes_respect_horizon(tmp_path):
    spec = small_spec(n=200, censor_rate=0.3)
    result = generate(spec, str(tmp_path))
    _, rows = formats.read_csv_table(result.files["outcomes"])
    times = np.array([float(r["time_years"]) for r in rows])
    events = np.array([r["event"] == "1" for r in rows])
    assert np.all(times > 0.0)
    assert np.all(times <= spec.horizon)
    # administrative censoring: anything clamped to the horizon is censored
    assert not events[times == spec.horizon].any()
    assert events.any() and (~events).any()


def test_generated_cohort_loads(tmp_path):
    result = generate(small_spec(), str(tmp_path))
    cohort = load_cohort(result.files["outcomes"],
                         covariates_path=result.files["covariates"],
                         ge_path=result.files["ge"],
                         hidden_states_path=result.files["hidden"],
                         teacher_path=result.files["teacher"])
    assert cohort.ids == result.ids
    assert cohort.modalities["cov"].present.all() and cohort.modalities["ge"].present.all()
    assert all(states is not None for states in cohort.token_states)
    # the cohort keeps only the extracted probabilities; every sample has a record
    assert cohort.teacher_probs is not None
    records = parse_teacher_file(formats.read_jsonl(result.files["teacher"]))
    assert set(result.ids) <= {rec.sample_id for rec in records}


# ------------------------------------------------------------ oracle curves

def test_oracle_curve_closed_forms():
    t = np.array([0.0, 1.0, 2.5])
    exp_curve = ExponentialCurve(rate=0.4)
    assert np.array_equal(exp_curve.at(t), np.exp(-0.4 * t))
    wei = WeibullCurve(rate=0.4, shape=1.5)
    assert np.array_equal(wei.at(t), np.exp(-((0.4 * t) ** 1.5)))
    assert exp_curve.at(0.0) == 1.0 and wei.at(0.0) == 1.0


def test_oracle_curves_track_true_rates(tmp_path):
    result = generate(small_spec(), str(tmp_path / "e"))
    curves = oracle_curves(result)
    assert len(curves) == 60
    for i in (0, 17, 59):
        assert curves[i].rate == result.rates[i]
    # true_s3 agrees with the curve evaluations
    s3 = np.array([float(c.at(3.0)) for c in curves])
    assert np.allclose(s3, result.true_s3, rtol=0, atol=1e-15)
    wei = generate(small_spec(event_family="weibull", weibull_shape=2.0),
                   str(tmp_path / "w"))
    wcurves = oracle_curves(wei)
    assert all(c.shape == 2.0 for c in wcurves)
    expect = true_survival(wei.spec, wei.rates, np.array([2.0]))[:, 0]
    got = np.array([float(c.at(2.0)) for c in wcurves])
    assert np.allclose(got, expect, rtol=0, atol=1e-15)


def test_partial_rates_drop_modalities(tmp_path):
    spec = small_spec()
    result = generate(spec, str(tmp_path))
    full = partial_rates(result, ("text", "cov", "ge"))
    assert np.allclose(full, result.rates, rtol=1e-15)
    text_only = partial_rates(result, ("text",))
    expect = spec.base_rate * np.exp(spec.w_text * result.components["text"])
    assert np.allclose(text_only, expect, rtol=1e-15)
    sub = oracle_curves(result, indices=[3, 5], modalities=("cov",))
    cov_rates = partial_rates(result, ("cov",))
    assert sub[0].rate == cov_rates[3] and sub[1].rate == cov_rates[5]


# ---------------------------------------------------------- simulated teacher

def load_extracted(result, horizon_key="y3"):
    rows = formats.read_jsonl(result.files["teacher"])
    return [extract_probability(r["responses"].get(horizon_key)) for r in rows]


def test_teacher_faithful_when_noise_free(tmp_path):
    result = generate(small_spec(n=100), str(tmp_path))
    extracted = load_extracted(result)
    assert all(p is not None for p in extracted)
    # one-decimal percent formatting: extraction matches truth to 5e-4 plus
    # the probability clip at the extremes
    for p, s in zip(extracted, result.true_s3):
        assert abs(p - s) <= 6e-4 or s < 1e-5 or s > 1 - 1e-5


def test_teacher_miscalibration_shifts_upward(tmp_path):
    honest = generate(small_spec(n=100), str(tmp_path / "h"))
    shifted = generate(small_spec(n=100, calibration_shift=1.5), str(tmp_path / "s"))
    p_honest = np.array(load_extracted(honest))
    p_shifted = np.array(load_extracted(shifted))
    # same seed, same underlying risks: the shift only inflates optimism
    assert np.array_equal(honest.rates, shifted.rates)
    assert np.mean(p_shifted - p_honest) > 0.05
    assert np.all(p_shifted >= p_honest - 1e-3)


def test_teacher_refusals_and_missing(tmp_path):
    refused = generate(small_spec(refusal_rate=1.0), str(tmp_path / "r"))
    rows = formats.read_jsonl(refused.files["teacher"])
    for row in rows:
        assert all(extract_probability(v) is None for v in row["responses"].values())
    missing = generate(small_spec(missing_rate=1.0), str(tmp_path / "m"))
    rows = formats.read_jsonl(missing.files["teacher"])
    for row in rows:
        assert all(v is None for v in row["responses"].values())
    # intermediate rates leave some but not all responses unusable
    partial = generate(small_spec(n=200, missing_rate=0.4), str(tmp_path / "p"))
    extracted = load_extracted(partial)
    n_missing = sum(p is None for p in extracted)
    assert 0 < n_missing < 200


def test_response_noise_is_seeded_jitter(tmp_path):
    a = generate(small_spec(response_noise=0.5), str(tmp_path / "a"))
    b = generate(small_spec(response_noise=0.5), str(tmp_path / "b"))
    assert np.array_equal(np.array(load_extracted(a), dtype=np.float64),
                          np.array(load_extracted(b), dtype=np.float64))
    clean = generate(small_spec(), str(tmp_path / "c"))
    assert not np.array_equal(np.array(load_extracted(a), dtype=np.float64),
                              np.array(load_extracted(clean), dtype=np.float64))
