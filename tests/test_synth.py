"""Tests for the synthetic cohort generator and its simulated teacher."""

import hashlib
import math
import os

import numpy as np
import pytest

from survfuse import formats
from survfuse.cohort import IngestConfig, load_cohort
from survfuse.distill import extract_probability, parse_teacher_file
from survfuse.synth import GeneratorSpec, generate


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
    spec = formats.dataclass_from_kv(GeneratorSpec, {
        "n": "120", "d_g": "24", "w_text": "0.9", "event_family": "weibull",
        "weibull_shape": "2.0", "missing_rate": "0.25", "seed": "11"}, "gen.cfg")
    assert spec.n == 120 and spec.d_g == 24 and spec.seed == 11
    assert spec.w_text == 0.9 and spec.missing_rate == 0.25
    assert spec.event_family == "weibull" and spec.weibull_shape == 2.0
    with pytest.raises(ValueError, match="gen.cfg: unknown config key 'samples'"):
        formats.dataclass_from_kv(GeneratorSpec, {"samples": "100"}, "gen.cfg")


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
    _, rows, _ = formats.read_csv_table(result.files["truth"])
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
    _, rows, _ = formats.read_csv_table(result.files["outcomes"])
    times = np.array([float(r["time_years"]) for r in rows])
    events = np.array([r["event"] == "1" for r in rows])
    assert np.all(times > 0.0)
    assert np.all(times <= spec.horizon)
    # administrative censoring: anything clamped to the horizon is censored
    assert not events[times == spec.horizon].any()
    assert events.any() and (~events).any()


def test_generated_cohort_loads(tmp_path):
    result = generate(small_spec(), str(tmp_path))
    config = IngestConfig(outcomes=result.files["outcomes"],
                          covariates=result.files["covariates"], ge=result.files["ge"],
                          hidden=result.files["hidden"], teacher=result.files["teacher"])
    cohort, n_pooled = load_cohort(config, str(tmp_path / "ingest.cfg"))
    assert cohort.ids == result.ids
    assert all(np.isfinite(values).all() for values in cohort.modalities.values())
    assert n_pooled == len(cohort) and sorted(cohort.modalities) == ["cov", "ge", "text"]
    # the cohort keeps only the extracted probabilities; every sample has a record
    assert cohort.teacher_probs is not None
    table = parse_teacher_file(result.files["teacher"])
    assert set(result.ids) <= set(table.ids)


# ---------------------------------------------------------- simulated teacher

def load_extracted(result, horizon_key="y3"):
    rows = formats.read_jsonl(result.files["teacher"])[0]
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
    rows = formats.read_jsonl(refused.files["teacher"])[0]
    for row in rows:
        assert all(extract_probability(v) is None for v in row["responses"].values())
    missing = generate(small_spec(missing_rate=1.0), str(tmp_path / "m"))
    rows = formats.read_jsonl(missing.files["teacher"])[0]
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


# ------------------------------------------------------------- golden bytes

# Specs whose refusal, missing-response and noise draws fire (the default spec
# that the benchmark pins draws them but never acts on them), one on the
# Weibull family, and the SHA-256 of every raw file they produce, taken from a
# generator that drew and formatted one sample at a time. Any change to a
# random stream, to the arithmetic or to the formatting changes them. Like
# benchmarks/pins.json, they assume numpy's float64 exp and log and the BLAS
# matrix product round as they did where the digests were taken (numpy 2.4,
# x86-64).
GOLDEN_SPECS = {
    "noisy": dict(n=300, d_c=4, d_g=12, ge_latent=3, seq_len=6, d_text=8,
                  refusal_rate=0.1, missing_rate=0.2, response_noise=0.5,
                  calibration_shift=0.4, seed=3),
    "weibull": dict(n=200, d_c=3, d_g=8, ge_latent=2, seq_len=4, d_text=5,
                    event_family="weibull", weibull_shape=2.0, missing_rate=0.3,
                    response_noise=1.0, calibration_shift=-0.7, seed=5),
    "refusing": dict(n=120, d_c=2, d_g=6, ge_latent=2, seq_len=1, d_text=3,
                     refusal_rate=0.5, missing_rate=0.5, response_noise=2.0,
                     horizon=3.0, seed=9),
}
GOLDEN_DIGESTS = {
    "noisy": {
        "covariates.csv":
            "5471b80dd21c89bb097ae82f3aa78dca613b472e4b575b34a6bece623f54c2c3",
        "ge.csv":
            "781995b55376fdf82b97fe4eb564910e05f3059d9d558a1418d5931867e3dbad",
        "hidden.svhs":
            "5d359bbc967a5af55ef01eff458c0d5951f8fd322c46cb8978573dcc27803bf0",
        "outcomes.csv":
            "fb1a3075d40b9959c9229894ed1a29e00e60954a99be9f69631a5ea5471a5ebd",
        "teacher.jsonl":
            "085e423ee7aaed33d7e2c6868cb9110957e660b6e1c043db1006f3692f1bf6f6",
        "truth.csv":
            "a96bfb88b4a37bc72da54126564691d6be90a25724422423ccedb40410bbc398",
    },
    "weibull": {
        "covariates.csv":
            "e78dfee4f35057894faabd60f789e2326686a13af7f57f2ea88afd1a546ab6c8",
        "ge.csv":
            "48245f6fa73793b604aac4aed5777649ab14cf515d1b1152bbefe098d908206e",
        "hidden.svhs":
            "4dd604c3b54aceb02e24932ac9076ff8d68a59d48b6770af2d6fa83789975fca",
        "outcomes.csv":
            "5b288df058af264e5dbaa1ccd413fce79d7646d10e8e6bf21efbc1cbbdb2e932",
        "teacher.jsonl":
            "ad900f6a6daf67fc53bfc67358f8912c7899136aa304d70d2082787cee48257a",
        "truth.csv":
            "701eec6ebe1a752e6b34273cf055b407ce9d5aac8245a5dc496e33b070a47d95",
    },
    "refusing": {
        "covariates.csv":
            "d8fdb31865aabd1f320aa8c1dbdb71079a987c35d5ac1c90bf4a6a9d1d5a7a6d",
        "ge.csv":
            "3bd70af5d4ae3c3e7a666a8b72074047ac33eae78841403852ae2421ede92056",
        "hidden.svhs":
            "032347c44fd983dbc42987572f3cb1f35ca694b501c51a51600bc686108718e9",
        "outcomes.csv":
            "0f6cb2a9f57982cd44905191a84eed7e9bbac6991e9b287adfdf280524733cca",
        "teacher.jsonl":
            "985072314095648791ff38bb3ae99d0cc86d0c86658ec4142fdd60816cc3b909",
        "truth.csv":
            "8c1e663e52a90a3a852b558c0a4500ccfe27259e020928c34e40ae01d47b8e70",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_non_default_specs_keep_their_raw_bytes(tmp_path, name):
    generate(GeneratorSpec(**GOLDEN_SPECS[name]), str(tmp_path))
    assert tree_digest(tmp_path) == GOLDEN_DIGESTS[name]
