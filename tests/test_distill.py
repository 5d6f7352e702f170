"""Tests for teacher parsing, parametric fits, target sequences, the
span-weighted text loss, and calibration masking."""

import math
import warnings

import numpy as np
import pytest

from survfuse.distill import (
    HORIZONS,
    VPROB_CLOSE,
    VPROB_OPEN,
    build_target_sequence,
    calibration_mask,
    extract_probability,
    finalize_probs,
    finalize_records,
    fit_parametric,
    fit_survival_at,
    parse_teacher_file,
    round_to_nearest_five,
    target_rows,
    teacher_percents,
    three_year_percent,
    token_masks,
    weighted_text_loss,
    weighted_text_loss_grad,
)


# ---------------------------------------------------------------- extraction

def test_extract_percent_adjacent_wins():
    assert extract_probability("I estimate survival at 70%.") == 0.70
    # last percent-adjacent match wins
    assert extract_probability("maybe 30%, more likely 60%") == 0.60
    # whitespace between number and sign is fine
    assert extract_probability("roughly 80 % chance") == 0.80
    # a percent beats any bare probability, regardless of order
    assert extract_probability("0.9 seems high; I'd say 45%") == 0.45
    assert extract_probability("45% seems right, not 0.9") == 0.45


def test_extract_out_of_range_percent_ignored():
    # 120% is invalid and must not shadow the valid later match
    assert extract_probability("120% no wait, 40%") == 0.40
    # an invalid percent does not fall back to its bare value either
    assert extract_probability("150%") is None


def test_extract_bare_unit_interval():
    assert extract_probability("probability around 0.8") == 0.8
    assert extract_probability("0.3 at first, then 0.6") == 0.6
    assert extract_probability(".5 even odds") == 0.5
    # exactly 1 reads as a probability, not a percent
    assert extract_probability("survival odds: 1") == 1.0
    # a unit-interval value beats a bare percent-scale value
    assert extract_probability("75 but honestly closer to 0.2") == 0.2


def test_extract_bare_percent_scale():
    assert extract_probability("chance is around 75") == 0.75
    assert extract_probability("30 at best, 55 at most") == 0.55
    assert extract_probability("1.5") == 0.015


def test_extract_nothing():
    assert extract_probability("no idea") is None
    assert extract_probability("") is None
    assert extract_probability(None) is None
    # above every accepted range
    assert extract_probability("about 250") is None


def test_extract_realistic_sentence():
    # the student target sentence itself: the bare 3 must not win
    text = "short text «VPROB»\n\n The estimated 3-year survival probability is: 40%. «END_VPROB»"
    assert extract_probability(text) == 0.40


# ------------------------------------------------------------ parametric fits

def test_exponential_fit_recovery():
    rng = np.random.default_rng(11)
    t = np.array([1.0, 3.0, 5.0])
    for _ in range(20):
        rho = rng.uniform(0.05, 1.5)
        pts = list(zip(t, np.exp(-rho * t)))
        fit = fit_parametric(pts, "exponential")
        assert fit.family == "exponential"
        assert abs(fit.rate - rho) / rho < 1e-9


def test_weibull_fit_recovery():
    rng = np.random.default_rng(12)
    t = np.array([0.5, 1.0, 3.0, 5.0])
    for _ in range(20):
        shape = rng.uniform(0.5, 3.0)
        scale = rng.uniform(0.5, 5.0)
        s = np.exp(-((t / scale) ** shape))
        fit = fit_parametric(list(zip(t, s)), "weibull")
        assert abs(fit.shape - shape) / shape < 1e-9
        assert abs(fit.scale - scale) / scale < 1e-9


def test_loglogistic_fit_recovery():
    rng = np.random.default_rng(13)
    t = np.array([0.5, 1.0, 3.0, 5.0])
    for _ in range(20):
        shape = rng.uniform(0.5, 3.0)
        scale = rng.uniform(0.5, 5.0)
        s = 1.0 / (1.0 + (t / scale) ** shape)
        fit = fit_parametric(list(zip(t, s)), "loglogistic")
        assert abs(fit.shape - shape) / shape < 1e-9
        assert abs(fit.scale - scale) / scale < 1e-9


def test_single_point_exponential_closed_form():
    fit = fit_parametric([(3.0, 0.5)], "exponential")
    assert abs(fit.rate - math.log(2.0) / 3.0) < 1e-12


def test_geometric_decay_exponential_closed_form():
    # S(t) = 0.9^t sampled at 1, 3, 5 years
    pts = [(1.0, 0.9), (3.0, 0.729), (5.0, 0.59049)]
    fit = fit_parametric(pts, "exponential")
    assert abs(fit.rate - (-math.log(0.9))) < 1e-12


def test_fit_survival_at_matches_closed_forms():
    t = np.array([0.5, 2.0, 4.0])
    fit = fit_parametric([(3.0, 0.5)], "exponential")
    assert np.allclose(fit_survival_at(fit, t), np.exp(-fit.rate * t), rtol=0, atol=1e-15)
    fit = fit_parametric([(1.0, 0.9), (3.0, 0.5), (5.0, 0.2)], "weibull")
    expect = np.exp(-((t / fit.scale) ** fit.shape))
    assert np.allclose(fit_survival_at(fit, t), expect, rtol=0, atol=1e-15)
    fit = fit_parametric([(1.0, 0.9), (3.0, 0.5), (5.0, 0.2)], "loglogistic")
    expect = 1.0 / (1.0 + (t / fit.scale) ** fit.shape)
    assert np.allclose(fit_survival_at(fit, t), expect, rtol=0, atol=1e-15)


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_parametric([], "exponential")
    with pytest.raises(ValueError):
        fit_parametric([(0.0, 0.5)], "exponential")
    with pytest.raises(ValueError):
        fit_parametric([(-1.0, 0.5)], "exponential")
    with pytest.raises(ValueError):
        fit_parametric([(1.0, 1.2)], "exponential")
    with pytest.raises(ValueError):
        fit_parametric([(1.0, -0.1)], "exponential")
    with pytest.raises(ValueError):
        fit_parametric([(1.0, 0.9), (2.0, 0.5)], "gompertz")
    # two-parameter families need two distinct times
    with pytest.raises(ValueError):
        fit_parametric([(2.0, 0.9), (2.0, 0.5)], "weibull")


def test_fit_clamps_warn():
    with pytest.warns(UserWarning):
        fit = fit_parametric([(3.0, 0.0)], "exponential")
    assert fit.rate > 0
    with pytest.warns(UserWarning):
        fit_parametric([(1.0, 1.0), (3.0, 0.5)], "weibull")


# ----------------------------------------------- horizon completion and means

def horizon_matrix(rows):
    """The (N, 3) horizon matrix of rows of {horizon: probability or None},
    NaN where a row has none; an array passes through."""
    if isinstance(rows, np.ndarray):
        return rows
    return np.array([[math.nan if row.get(h) is None else row[h] for h in HORIZONS]
                     for row in rows]).reshape(-1, len(HORIZONS))


def completed(rows, train=None):
    """`finalize_probs`' completed rows, as tuples, for a horizon matrix or
    rows of horizon dicts."""
    return [tuple(row) for row in finalize_probs(horizon_matrix(rows), train)[0].tolist()]


def mean_fill(rows):
    """The completion of a row with no extraction: the per-horizon means of
    `rows`' present probabilities, made non-increasing in t."""
    return tuple(np.minimum.accumulate(np.nanmean(horizon_matrix(rows), axis=0)).tolist())


def test_horizon_means_manual():
    rows = [
        {1.0: 0.9, 3.0: 0.7, 5.0: 0.5},
        {1.0: 0.8, 3.0: None, 5.0: 0.3},
        {1.0: None, 3.0: 0.5, 5.0: None},
    ]
    # a row with no extraction is completed with the means
    means = completed(rows + [{}])[3]
    assert means[0] == pytest.approx((0.9 + 0.8) / 2, abs=1e-15)
    assert means[1] == pytest.approx((0.7 + 0.5) / 2, abs=1e-15)
    assert means[2] == pytest.approx((0.5 + 0.3) / 2, abs=1e-15)


def test_horizon_means_requires_coverage():
    with pytest.raises(ValueError):
        completed([{1.0: 0.9, 3.0: None, 5.0: 0.5}, {}])


def test_complete_horizons_passthrough_when_full():
    probs = {1.0: 0.9, 3.0: 0.7, 5.0: 0.5}
    out = completed([probs])[0]
    assert out == (0.9, 0.7, 0.5)


def test_complete_horizons_refits_missing():
    rho = 0.21
    probs = {1.0: math.exp(-rho), 3.0: None, 5.0: math.exp(-5 * rho)}
    out = completed([probs])[0]
    assert out[0] == probs[1.0]
    assert out[2] == probs[5.0]
    assert abs(out[1] - math.exp(-3 * rho)) < 1e-9


def test_complete_horizons_means_fallback():
    means = {1.0: 0.8, 3.0: 0.6, 5.0: 0.4}
    out = completed([means, {1.0: None, 3.0: None, 5.0: None}])[1]
    assert out == (0.8, 0.6, 0.4)


def test_complete_horizons_enforces_monotone():
    # extracted values can increase in t; the completion must not
    out = completed([{1.0: 0.5, 3.0: 0.9, 5.0: None}])[0]
    assert out[0] == 0.5
    assert out[1] <= out[0]
    assert out[2] <= out[1]
    # non-monotone means fall under the same clamp
    out = completed([{1.0: 0.4, 3.0: 0.6, 5.0: 0.5}, {1.0: None, 3.0: None, 5.0: None}])[1]
    assert out == (0.4, 0.4, 0.4)


# ----------------------------------------------------------------- rounding

def test_round_to_nearest_five():
    assert round_to_nearest_five(97.5) == 100
    assert round_to_nearest_five(2.5) == 5
    assert round_to_nearest_five(2.4) == 0
    assert round_to_nearest_five(7.5) == 10
    assert round_to_nearest_five(62.4) == 60
    assert round_to_nearest_five(62.5) == 65
    assert round_to_nearest_five(0.0) == 0
    assert round_to_nearest_five(100.0) == 100
    # ties away from zero on the negative side too
    assert round_to_nearest_five(-2.5) == -5
    assert round_to_nearest_five(-2.4) == 0


def test_three_year_percent():
    fit = fit_parametric([(3.0, 0.5)], "exponential")
    assert three_year_percent(fit) == 50
    fit = fit_parametric([(3.0, 0.87)], "exponential")
    assert three_year_percent(fit) == 85


# ----------------------------------------------------------- target sequences

def test_target_sequence_layout():
    seq = build_target_sequence("Stage II, node negative.", 70)
    assert seq.target == ("Stage II, node negative. «VPROB»\n\n The estimated "
                          "3-year survival probability is: 70%. «END_VPROB»")
    raw = seq.target.encode("utf-8")
    vs, ve = seq.vprob_span
    assert raw[vs:ve].decode("utf-8").startswith(VPROB_OPEN)
    assert raw[vs:ve].decode("utf-8").endswith(VPROB_CLOSE)
    assert ve == len(raw)
    ns, ne = seq.num_span
    assert raw[ns:ne] == b"70"


def test_target_sequence_multibyte_explanation():
    # the explanation length in bytes exceeds its length in characters
    expl = "naïve café, δ≥2 µm"
    assert len(expl.encode("utf-8")) > len(expl)
    for percent in (0, 5, 100):
        seq = build_target_sequence(expl, percent)
        raw = seq.target.encode("utf-8")
        vs, ve = seq.vprob_span
        span = raw[vs:ve].decode("utf-8")
        assert span.startswith(VPROB_OPEN) and span.endswith(VPROB_CLOSE)
        ns, ne = seq.num_span
        assert raw[ns:ne] == str(percent).encode("utf-8")


def test_target_sequence_rejects_reserved_delimiters():
    with pytest.raises(ValueError):
        build_target_sequence("sneaky «VPROB» inside", 50)
    with pytest.raises(ValueError):
        build_target_sequence("sneaky «END_VPROB» inside", 50)
    with pytest.raises(ValueError):
        build_target_sequence("fine text", 101)
    with pytest.raises(ValueError):
        build_target_sequence("fine text", -1)


def test_target_sequence_probability_round_trip():
    # rendering then re-extracting must reproduce percent/100 bit-exactly
    for percent in range(101):
        seq = build_target_sequence("A short explanation.", percent)
        assert extract_probability(seq.target) == percent / 100


# ----------------------------------------------------------------- token masks

def byte_level_masks(seq, offsets):
    """Oracle: a token is flagged iff any of its bytes lies in the span."""
    n_bytes = len(seq.target.encode("utf-8"))
    in_vprob = np.zeros(n_bytes, dtype=bool)
    in_num = np.zeros(n_bytes, dtype=bool)
    in_vprob[seq.vprob_span[0]:seq.vprob_span[1]] = True
    in_num[seq.num_span[0]:seq.num_span[1]] = True
    vp = np.array([in_vprob[s:e].any() for s, e in offsets], dtype=bool)
    nm = np.array([in_num[s:e].any() for s, e in offsets], dtype=bool)
    return vp, nm


def chunk_offsets(n_bytes, sizes):
    """Contiguous token offsets cycling through the given chunk sizes."""
    offsets = []
    pos = 0
    i = 0
    while pos < n_bytes:
        size = sizes[i % len(sizes)]
        offsets.append((pos, min(pos + size, n_bytes)))
        pos += size
        i += 1
    return offsets


def test_token_masks_match_byte_oracle():
    seq = build_target_sequence("naïve café narrative, fairly long.", 35)
    n = len(seq.target.encode("utf-8"))
    for sizes in ((1,), (3,), (4, 2, 7), (11,)):
        offsets = chunk_offsets(n, sizes)
        vp, nm = token_masks(seq, offsets)
        vp_ref, nm_ref = byte_level_masks(seq, offsets)
        assert np.array_equal(vp, vp_ref)
        assert np.array_equal(nm, nm_ref)
        # numeric tokens always sit inside the delimited region
        assert np.all(vp[nm])
        assert vp.any() and nm.any()


def test_token_masks_allow_gaps():
    seq = build_target_sequence("abc.", 50)
    vp, nm = token_masks(seq, [(0, 2), (5, 9), (20, 30)])
    assert vp.shape == (3,)


def test_token_masks_reject_bad_offsets():
    seq = build_target_sequence("abc.", 50)
    with pytest.raises(ValueError):
        token_masks(seq, [(0, 4), (2, 6)])  # overlap
    with pytest.raises(ValueError):
        token_masks(seq, [(4, 8), (0, 2)])  # out of order
    with pytest.raises(ValueError):
        token_masks(seq, [(3, 1)])  # end before start


# ------------------------------------------------------------------ text loss

def reference_text_loss(nll, vprob, num, w, w_num):
    total = 0.0
    grads = []
    for i in range(len(nll)):
        if num[i]:
            wi = w + w_num - 1.0
        elif vprob[i]:
            wi = w
        else:
            wi = 1.0
        total += wi * nll[i]
        grads.append(wi / len(nll))
    return total / len(nll), np.array(grads)


def test_weighted_text_loss_matches_reference():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        nll = rng.uniform(0.0, 5.0, size=n)
        vprob = rng.random(n) < 0.4
        num = vprob & (rng.random(n) < 0.3)
        w = float(rng.uniform(1.0, 4.0))
        w_num = float(rng.uniform(1.0, 8.0))
        loss, grad = weighted_text_loss_grad(nll, vprob, num, w, w_num)
        ref_loss, ref_grad = reference_text_loss(nll, vprob, num, w, w_num)
        assert abs(loss - ref_loss) < 1e-12
        assert np.allclose(grad, ref_grad, rtol=0, atol=1e-15)
        assert weighted_text_loss(nll, vprob, num, w, w_num) == loss


def test_weighted_text_loss_defaults_and_gradient():
    # defaults: 2 inside the region, 2 + 5 - 1 = 6 on the digits
    nll = np.array([1.0, 1.0, 1.0, 1.0])
    vprob = np.array([False, True, True, True])
    num = np.array([False, False, True, False])
    loss, grad = weighted_text_loss_grad(nll, vprob, num)
    assert loss == pytest.approx((1 + 2 + 6 + 2) / 4, abs=1e-15)
    assert np.array_equal(grad, np.array([1.0, 2.0, 6.0, 2.0]) / 4)
    # the loss is linear in the per-token values, so central differences
    # recover the gradient to rounding error
    h = 1e-6
    for i in range(4):
        bumped = nll.copy()
        bumped[i] += h
        up = weighted_text_loss(bumped, vprob, num)
        bumped[i] -= 2 * h
        down = weighted_text_loss(bumped, vprob, num)
        assert abs((up - down) / (2 * h) - grad[i]) < 1e-9


def test_weighted_text_loss_validation():
    with pytest.raises(ValueError):
        weighted_text_loss_grad(np.array([]), np.array([], dtype=bool),
                                np.array([], dtype=bool))
    with pytest.raises(ValueError):
        weighted_text_loss_grad(np.ones(3), np.zeros(2, dtype=bool),
                                np.zeros(3, dtype=bool))


# ---------------------------------------------------------- calibration mask

def test_calibration_truth_table():
    # (percent, time, event) -> included
    cases = {
        (30, 2.0, False): True,
        (30, 2.0, True): True,
        (30, 4.0, False): False,
        (30, 4.0, True): False,
        (50, 2.0, False): True,
        (50, 2.0, True): True,
        (50, 4.0, False): True,
        (50, 4.0, True): True,
        (70, 2.0, False): True,
        (70, 2.0, True): False,
        (70, 4.0, False): True,
        (70, 4.0, True): True,
    }
    for (pct, t, e), included in cases.items():
        assert calibration_mask(pct, t, e) is included, (pct, t, e)


def test_calibration_boundaries():
    # survival to exactly the horizon counts as surviving it
    assert calibration_mask(30, 3.0, False) is False
    assert calibration_mask(30, 3.0, True) is False
    # an event exactly at the horizon is not "before" it
    assert calibration_mask(70, 3.0, True) is True
    # the threshold itself never contradicts either outcome
    assert calibration_mask(50, 0.1, True) is True
    assert calibration_mask(50, 10.0, False) is True


# ------------------------------------------------------- records and targets

def teacher_row(sid, y1=None, y3=None, y5=None, explanation="expl"):
    responses = {}
    if y1 is not None:
        responses["y1"] = y1
    if y3 is not None:
        responses["y3"] = y3
    if y5 is not None:
        responses["y5"] = y5
    return {"id": sid, "responses": responses, "explanation": explanation}


def test_parse_teacher_file_extracts_all_horizons():
    rows = [teacher_row("a", y1="90%", y3="70%", y5="50%"),
            teacher_row("b", y3="0.4"),
            teacher_row("c")]
    table = parse_teacher_file(rows)
    assert table.ids == ["a", "b", "c"]
    assert table.explanations == ["expl"] * 3
    nan = math.nan
    assert np.array_equal(table.probs, [[0.9, 0.7, 0.5], [nan, 0.4, nan], [nan, nan, nan]],
                          equal_nan=True)
    # an empty file is an empty table
    assert parse_teacher_file([]).probs.shape == (0, len(HORIZONS))


def test_parse_teacher_file_rejects_duplicates():
    rows = [teacher_row("a", y3="50%"), teacher_row("a", y3="60%")]
    with pytest.raises(ValueError):
        parse_teacher_file(rows)


def fit_percent(row):
    """The rounded 3-year percent of an exponential fit through a completed row."""
    return three_year_percent(fit_parametric(list(zip(HORIZONS, row)), "exponential"))


def test_finalize_records_pipeline():
    rho = math.log(2.0) / 3.0
    texts = {h: f"{math.exp(-rho * h):.12f}" for h in HORIZONS}
    rows = [
        teacher_row("full", y1=texts[1.0], y3=texts[3.0], y5=texts[5.0]),
        teacher_row("partial", y3="50%"),
        teacher_row("empty"),
    ]
    table = parse_teacher_file(rows)
    probs = table.probs
    percents = finalize_records(table)
    # exact half-life data refits to the same rate and rounds to 50
    assert abs(finalize_probs(probs)[1][0] - rho) < 1e-9
    assert percents[:2] == [50, 50]
    # the empty record fell back to the means of the extracting records
    expect = mean_fill(probs[:2])
    assert completed(probs)[2] == expect
    assert percents[2] == fit_percent(expect)
    # as the teacher's own estimate, the empty record has none
    assert np.array_equal(teacher_percents(probs), [50, 50, np.nan],
                          equal_nan=True)


def test_finalize_records_train_pool():
    rows = [teacher_row("tr", y1="90%", y3="80%", y5="70%"),
            teacher_row("te", y1="40%", y3="30%", y5="20%"),
            teacher_row("none")]
    table = parse_teacher_file(rows)
    probs = table.probs
    # the all-missing record sees only the training-split extraction
    assert completed(probs, train=np.array([True, False, False]))[2] == mean_fill(probs[:1])
    assert finalize_records(table, train_ids={"tr"})[2] == fit_percent(mean_fill(probs[:1]))
    # a training split with no extractions falls back to every record
    assert completed(probs, train=np.array([False, False, True]))[2] == mean_fill(probs[:2])
    assert finalize_records(table, train_ids={"none"})[2] == fit_percent(mean_fill(probs[:2]))
    assert fit_percent(mean_fill(probs[:1])) != fit_percent(mean_fill(probs[:2]))


def test_finalize_records_warns_once_with_clamp_count():
    rows = [teacher_row("clean", y1="90%", y3="80%", y5="70%"),
            # all present: the final fit clamps the one zero
            teacher_row("full", y1="90%", y3="50%", y5="0%"),
            # the completion fit clamps the zero; its curve then reaches 0 at
            # 3 and 5 years, so the final fit clamps two more
            teacher_row("partial", y3="0%")]
    table = parse_teacher_file(rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        finalize_records(table)
    messages = [str(w.message) for w in caught if issubclass(w.category, UserWarning)]
    assert len(messages) == 1
    assert messages[0].startswith("survival value 0 clamped")
    assert ": 4 value(s)" in messages[0]
    with pytest.warns(UserWarning, match="survival value 0 clamped"):
        assert completed(table.probs)[2][1:] == (0.0, 0.0)
    # a file without zeros finalizes silently
    table = parse_teacher_file(rows[:1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        finalize_records(table)


def test_finalize_records_keeps_the_rounding_tie():
    # 50% at one year only: the completed curve halves per year, so the final
    # rate is ln 2 up to rounding and the 3-year value sits on the 12.5 tie
    table = parse_teacher_file([teacher_row("tie", y1="50%")])
    fit = fit_parametric(list(zip(HORIZONS, finalize_probs(table.probs)[0][0])), "exponential")
    assert finalize_probs(table.probs)[1][0] == fit.rate
    assert finalize_records(table) == [three_year_percent(fit)]


def test_target_rows_respects_correction_flag():
    rows = [teacher_row("lo", y3="30%"), teacher_row("hi", y3="70%")]
    table = parse_teacher_file(rows)
    percents = finalize_records(table)
    # outcome columns in another order than the table, with an id it lacks
    outcomes = (["other", "hi", "lo"], np.array([2.0, 1.0, 4.0]), np.array([True, True, False]))
    out = target_rows(table, percents, outcomes)
    flags = {r["id"]: r["text_loss_included"] for r in out}
    assert flags == {"lo": False, "hi": False}
    assert all(type(r["text_loss_included"]) is bool for r in out)
    # no outcomes: no correction
    out = target_rows(table, percents, None)
    assert all(r["text_loss_included"] for r in out)
    # a record without a known outcome stays included
    out = target_rows(table, percents, (["other"], np.array([2.0]), np.array([True])))
    assert all(r["text_loss_included"] for r in out)
    # rows carry usable spans
    seq = out[0]
    raw = seq["target"].encode("utf-8")
    ns, ne = seq["num_span"]
    assert raw[ns:ne] == b"30"


def test_target_rows_needs_one_percent_per_record():
    table = parse_teacher_file([teacher_row("a", y3="30%"), teacher_row("b", y3="70%")])
    outcomes = (["a"], np.array([1.0]), np.array([True]))
    for given in (None, outcomes):
        with pytest.raises(ValueError, match="1 percents for 2 samples"):
            target_rows(table, [30], given)
