import csv
import json
import os

import numpy as np
import pytest

from survfuse import formats
from survfuse.heads import CurveSet, SurvivalCurve


def test_hidden_states_round_trip(tmp_path):
    # storage is 32-bit; a second round trip must be bit-exact
    rng = np.random.default_rng(0)
    data = {f"s{i}": rng.normal(size=(rng.integers(1, 9), 5)) for i in range(7)}
    path = tmp_path / "h.svhs"
    formats.write_hidden_states(path, data)
    back = formats.read_hidden_states(path)
    assert list(back) == list(data)
    for sid in data:
        assert back[sid].dtype == np.float64
        assert np.array_equal(back[sid],
                              data[sid].astype(np.float32).astype(np.float64))
    formats.write_hidden_states(path, back)
    again = formats.read_hidden_states(path)
    for sid in data:
        assert np.array_equal(again[sid], back[sid])


def test_pooled_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    data = {f"s{i}": rng.normal(size=12) for i in range(5)}
    path = tmp_path / "p.svpv"
    formats.write_pooled(path, data)
    back = formats.read_pooled(path)
    assert list(back) == list(data)
    for sid in data:
        assert np.array_equal(back[sid],
                              data[sid].astype(np.float32).astype(np.float64))


def test_hidden_states_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.svhs"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        formats.read_hidden_states(path)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    params = {"head.w0": rng.normal(size=(4, 3)), "head.b0": rng.normal(size=3),
              "gates.inner": np.array(0.25)}
    manifest = {"config": {"seed": 3}, "note": "x"}
    path = tmp_path / "c.svck"
    formats.write_checkpoint(path, params, manifest)
    back, mf = formats.read_checkpoint(path)
    assert set(back) == set(params)
    for name in params:
        assert back[name].shape == params[name].shape
        assert np.array_equal(back[name], params[name])
    assert mf["config"] == {"seed": 3}
    assert mf["note"] == "x"


def test_checkpoint_bytes_are_the_tensors_in_order(tmp_path):
    rng = np.random.default_rng(3)
    params = {"b": rng.normal(size=(2, 3)), "a": rng.normal(size=4), "g": np.array(0.5)}
    path = tmp_path / "c.svck"
    formats.write_checkpoint(path, params, {"k": 1})
    raw = path.read_bytes()
    tail = b"".join(arr.astype("<f8").tobytes() for arr in params.values())
    assert raw.endswith(tail)
    blob = json.dumps({"k": 1, "tensors": [{"name": n, "shape": list(a.shape)}
                                           for n, a in params.items()]}, sort_keys=True)
    assert len(raw) == 12 + len(blob.encode()) + len(tail)


def test_checkpoint_rejects_trailing_and_missing_bytes(tmp_path):
    params = {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)}
    path = tmp_path / "c.svck"
    formats.write_checkpoint(path, params, {})
    good = path.read_bytes()
    path.write_bytes(good + b"\0")
    with pytest.raises(ValueError, match="trailing bytes"):
        formats.read_checkpoint(path)
    path.write_bytes(good[:-1])
    with pytest.raises(ValueError, match="truncated"):
        formats.read_checkpoint(path)


def test_format_float_round_trips_exactly():
    rng = np.random.default_rng(3)
    values = list(rng.normal(scale=1e6, size=100)) + [0.0, 1.0, -1.0, 1e-308,
                                                      1e308, 1 / 3, np.pi]
    for v in values:
        assert float(formats.format_float(float(v))) == float(v)


def test_csv_table_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    formats.write_csv_table(path, ["id", "x"], [["a", "1.5"], ["b", "2"]])
    header, rows = formats.read_csv_table(path)
    assert header == ["id", "x"]
    assert rows == [{"id": "a", "x": "1.5"}, {"id": "b", "x": "2"}]


def test_csv_table_rejects_ragged_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id,x\na,1\nb\n")
    with pytest.raises(ValueError, match="expected 2 cells"):
        formats.read_csv_table(path)


def test_csv_table_rejects_duplicate_columns(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id,id\na,b\n")
    with pytest.raises(ValueError, match="duplicate"):
        formats.read_csv_table(path)


def test_curves_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 5.0, size=6))])
    curves = {}
    for i in range(4):
        values = np.concatenate([[1.0], np.sort(rng.uniform(size=6))[::-1]])
        curves[f"s{i}"] = SurvivalCurve(times=times, values=values)
    path = tmp_path / "c.csv"
    formats.write_curves_csv(path, list(curves), CurveSet.from_curves(curves.values()))
    ids, back = formats.read_curves_csv(path)
    assert ids == list(curves)
    for sid, curve in zip(ids, back):
        assert np.array_equal(curve.times, curves[sid].times)
        assert np.array_equal(curve.values, curves[sid].values)


def test_curves_csv_bytes_match_csv_writer(tmp_path):
    # ids that csv.writer must quote: a comma, a quote, newlines, an empty id
    ids = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rlf", "", " padded ", "ünï"]
    rng = np.random.default_rng(5)
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 5.0, size=9))])
    values = np.hstack([np.ones((len(ids), 1)),
                        np.sort(rng.uniform(size=(len(ids), 9)), axis=1)[:, ::-1]])
    curves = CurveSet(times=times, values=values)
    path = tmp_path / "c.csv"
    formats.write_curves_csv(path, ids, curves)
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "t", "S"])
        for sid, row in zip(ids, values):
            writer.writerows([sid, repr(float(t)), repr(float(s))] for t, s in zip(times, row))
    assert path.read_bytes() == expected.read_bytes()
    back_ids, back = formats.read_curves_csv(path)
    assert back_ids == ids
    assert np.array_equal(back.values, values)


def test_curves_csv_requires_one_grid(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("id,t,S\na,0.0,1.0\na,1.0,0.5\nb,0.0,1.0\nb,2.0,0.5\n")
    with pytest.raises(ValueError, match="different time grid"):
        formats.read_curves_csv(path)
    path.write_text("id,t,S\n")
    with pytest.raises(ValueError, match="no curves"):
        formats.read_curves_csv(path)


def test_curves_csv_rejects_truncated_and_split_curves(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("id,t,S\na,0.0,1.0\na,1.0,0.5\nb,0.0,1.0\n")
    with pytest.raises(ValueError, match="'b' has 1 points.*truncated"):
        formats.read_curves_csv(path)
    path.write_text("id,t,S\na,0.0,1.0\na,1.0,0.5\nb,0.0,1.0\nb,1.0,0.4\n"
                    "a,0.0,1.0\na,1.0,0.5\n")
    with pytest.raises(ValueError, match="not consecutive"):
        formats.read_curves_csv(path)
    path.write_text("id,t,S\na,0.0,1.0\na,1.0\n")
    with pytest.raises(ValueError, match="expected 3 cells"):
        formats.read_curves_csv(path)


def test_curves_csv_compares_grids_by_value_and_skips_blank_lines(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("id,t,S\na,0.0,1.0\na,1.0,0.5\n\nb,0,1.0\nb,1.00,0.25")
    ids, back = formats.read_curves_csv(path)
    assert ids == ["a", "b"]
    assert np.array_equal(back.times, [0.0, 1.0])
    assert np.array_equal(back.values, [[1.0, 0.5], [1.0, 0.25]])
    path.write_bytes(b"id,t,S\ra,0.0,1.0\ra,1.0,0.5\rb,0.0,1.0\rb,1.0,0.25\r")
    ids, back = formats.read_curves_csv(path)
    assert ids == ["a", "b"]
    assert np.array_equal(back.values, [[1.0, 0.5], [1.0, 0.25]])


def test_curves_csv_reads_mixed_line_endings(tmp_path):
    path = tmp_path / "c.csv"
    path.write_bytes(b"id,t,S\na,0,1\ra,1,.5\nb,0,1\rb,1,.4\n")
    ids, back = formats.read_curves_csv(path)
    assert ids == ["a", "b"]
    assert np.array_equal(back.times, [0.0, 1.0])
    assert np.array_equal(back.values, [[1.0, 0.5], [1.0, 0.4]])


def test_jsonl_round_trip(tmp_path):
    rows = [{"id": "a", "v": [1, 2]}, {"id": "b", "v": None}]
    path = tmp_path / "r.jsonl"
    formats.write_jsonl(path, rows)
    assert formats.read_jsonl(path) == rows


def test_jsonl_reports_bad_line(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text('{"ok": 1}\nnot json\n')
    with pytest.raises(ValueError, match=":2"):
        formats.read_jsonl(path)


def test_kv_file_parsing(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\n\nalpha = 0.5\nname= disc \n")
    assert formats.parse_kv_file(path) == {"alpha": "0.5", "name": "disc"}


def test_kv_file_rejects_duplicates_and_bad_lines(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("a = 1\na = 2\n")
    with pytest.raises(ValueError, match="duplicate"):
        formats.parse_kv_file(path)
    path.write_text("just words\n")
    with pytest.raises(ValueError, match="key = value"):
        formats.parse_kv_file(path)
