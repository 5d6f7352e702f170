import json
import os

import numpy as np
import pytest

from survfuse import formats
from survfuse.cli import _write_json
from survfuse.heads import CurveSet


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
    # one byte past the last matrix is an error, as in checkpoints
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="trailing bytes"):
        formats.read_hidden_states(path)


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
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="trailing bytes"):
        formats.read_pooled(path)


@pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
def test_hidden_states_rejects_an_empty_matrix(tmp_path, shape):
    path = tmp_path / "h.svhs"
    formats.write_hidden_states(path, {"a": np.zeros((2, 3)), "b": np.zeros(shape)})
    with pytest.raises(ValueError, match=f"{path}: sample 'b' has empty matrix"):
        formats.read_hidden_states(path)


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


def test_npy_round_trip_and_checks(tmp_path):
    path = tmp_path / "a.npy"
    values = np.arange(12.0).reshape(4, 3)
    formats.write_npy(path, values)
    back = formats.read_npy(path, "<f8", (4, None))
    assert np.array_equal(back, values) and back.flags.writeable
    assert not list(tmp_path.glob("*.tmp"))
    with pytest.raises(ValueError, match="a.npy: dtype <f8, expected <f4"):
        formats.read_npy(path, "<f4", (4, None))
    with pytest.raises(ValueError, match="a.npy: shape"):
        formats.read_npy(path, "<f8", (5, None))
    with pytest.raises(ValueError, match="a.npy: shape"):
        formats.read_npy(path, "<f8", (4,))
    good = path.read_bytes()
    path.write_bytes(good + b"\0")
    with pytest.raises(ValueError, match="trailing bytes"):
        formats.read_npy(path, "<f8", (4, 3))
    # a Fortran-ordered array reads back in its own order
    np.save(path, np.asfortranarray(values), allow_pickle=False)
    assert np.array_equal(formats.read_npy(path, "<f8", (4, 3)), values)


def test_atomic_open_replaces_only_on_success(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("old")
    with pytest.raises(RuntimeError):
        with formats.atomic_open(path, "w") as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
    assert path.read_text() == "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.txt"]
    with formats.atomic_open(path, "w") as fh:
        fh.write("new")
    assert path.read_text() == "new"


class _Unprintable:
    def __str__(self):
        raise RuntimeError("interrupted")


@pytest.mark.parametrize("write", [
    lambda path: formats.write_checkpoint(
        path, {"a": np.zeros(2), "b": np.array(["x"], dtype=object)}, {"step": 1}),
    lambda path: _write_json(path, {"a": 1, "b": object()}),
    lambda path: formats.write_csv_table(path, ["id", "x"], [["a", "1"], ["b", _Unprintable()]]),
    lambda path: formats.write_jsonl(path, [{"a": 1}, {"b": object()}]),
    lambda path: formats.write_hidden_states(path, {"a": np.zeros((2, 3)), "b": np.zeros(3)}),
    lambda path: formats.write_pooled(path, {"a": np.zeros(3), "b": np.zeros((2, 3))}),
], ids=["checkpoint", "json", "csv", "jsonl", "hidden", "pooled"])
def test_writers_keep_the_old_file_when_a_write_fails(tmp_path, write):
    path = tmp_path / "out"
    path.write_bytes(b"old")
    # each write fails after its first bytes are out
    with pytest.raises((ValueError, RuntimeError, TypeError)):
        write(str(path))
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_format_float_round_trips_exactly():
    rng = np.random.default_rng(3)
    values = list(rng.normal(scale=1e6, size=100)) + [0.0, 1.0, -1.0, 1e-308,
                                                      1e308, 1 / 3, np.pi]
    for v in values:
        assert float(formats.format_floats([v])[0]) == float(v)


def test_csv_table_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    formats.write_csv_table(path, ["id", "x"], [["a", "1.5"], ["b", "2"]])
    header, rows, lines = formats.read_csv_table(path)
    assert header == ["id", "x"]
    assert rows == [{"id": "a", "x": "1.5"}, {"id": "b", "x": "2"}]
    assert lines == [2, 3]


def test_csv_table_rejects_ragged_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id,x\na,1\nb\n")
    with pytest.raises(ValueError, match="expected 2 cells"):
        formats.read_csv_table(path)


def test_csv_errors_name_the_file_line_after_blank_lines(tmp_path):
    from survfuse.cohort import read_outcomes

    percents = tmp_path / "p.csv"
    percents.write_text("id,percent\n\na,50\nb,x\n")
    with pytest.raises(ValueError, match=f"{percents}:4: percent 'x'"):
        formats.read_percents(percents, ["a", "b"])
    outcomes = tmp_path / "o.csv"
    outcomes.write_text("id,time_years,event\n\na,1.0,1\nb,x,1\n")
    with pytest.raises(ValueError, match=r"id 'b' \(line 4\)"):
        read_outcomes(str(outcomes))
    ragged = tmp_path / "r.csv"
    ragged.write_text('id,x\n\na,"1\n2"\nb\n')
    with pytest.raises(ValueError, match=f"{ragged}:5: expected 2 cells"):
        formats.read_csv_rows(ragged)


def test_csv_table_rejects_duplicate_columns(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id,id\na,b\n")
    with pytest.raises(ValueError, match="duplicate"):
        formats.read_csv_table(path)


def random_curves(seed, n, n_times):
    rng = np.random.default_rng(seed)
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 5.0, size=n_times - 1))])
    values = np.hstack([np.ones((n, 1)),
                        np.sort(rng.uniform(size=(n, n_times - 1)), axis=1)[:, ::-1]])
    return CurveSet(times=times, values=values)


def test_curve_directory_round_trip(tmp_path):
    curves = random_curves(4, 4, 7)
    ids = [f"s{i}" for i in range(4)]
    formats.write_curves(tmp_path / "c", ids, curves)
    assert sorted(p.name for p in (tmp_path / "c").iterdir()) == [
        "meta.json", "times.npy", "values.npy"]
    meta = json.loads((tmp_path / "c" / "meta.json").read_text())
    assert meta == {"curves_version": 1, "ids": ids}
    back_ids, back = formats.read_curves(tmp_path / "c")
    assert back_ids == ids
    assert np.array_equal(back.times, curves.times)
    assert np.array_equal(back.values, curves.values)
    # a second write replaces every file; no temporary file is left
    formats.write_curves(tmp_path / "c", ids[:2], random_curves(5, 2, 3))
    back_ids, back = formats.read_curves(tmp_path / "c")
    assert back_ids == ids[:2] and back.values.shape == (2, 3)
    assert not list((tmp_path / "c").glob("*.tmp"))


def test_curve_directory_keeps_any_string_id(tmp_path):
    # ids a CSV must quote: a comma, a quote, newlines, an empty id
    ids = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rlf", "", " padded ", "ünï"]
    curves = random_curves(5, len(ids), 10)
    formats.write_curves(tmp_path / "c", ids, curves)
    back_ids, back = formats.read_curves(tmp_path / "c")
    assert back_ids == ids
    assert np.array_equal(back.values, curves.values)
    # the writer refuses what the reader would reject, and writes nothing
    for bad in (ids[:-1], ["a"] * len(ids), [*ids[:-1], 7]):
        with pytest.raises(ValueError, match="one distinct string id per curve"):
            formats.write_curves(tmp_path / "d", bad, curves)
    assert not (tmp_path / "d").exists()


def write_meta(path, meta):
    (path / "meta.json").write_text(json.dumps(meta))


def test_curve_directory_rejects_a_file_and_a_bad_meta(tmp_path):
    old = tmp_path / "curves.csv"
    old.write_text("id,t,S\na,0.0,1.0\n")
    with pytest.raises(ValueError, match="curves.csv: no curves directory.*survfuse eval"):
        formats.read_curves(old)
    path = tmp_path / "c"
    formats.write_curves(path, ["a", "b"], random_curves(6, 2, 4))
    (path / "meta.json").unlink()
    with pytest.raises(ValueError, match="c: curves is incomplete.*survfuse eval"):
        formats.read_curves(path)
    for meta, match in [({"curves_version": 2, "ids": ["a", "b"]}, "unsupported curves version 2"),
                        ({"ids": ["a", "b"]}, "unsupported curves version None"),
                        (["a", "b"], "unsupported curves version None"),
                        ({"curves_version": 1, "ids": ["a", "a"]}, "distinct string ids"),
                        ({"curves_version": 1, "ids": ["a", 2]}, "distinct string ids"),
                        ({"curves_version": 1, "ids": "ab"}, "distinct string ids"),
                        ({"curves_version": 1}, "distinct string ids")]:
        write_meta(path, meta)
        with pytest.raises(ValueError, match=match) as info:
            formats.read_curves(path)
        assert str(path) in str(info.value)
    (path / "meta.json").write_text('{"curves_version": 1, "ids": ["a", "b"]')
    with pytest.raises(ValueError, match="meta.json: not readable JSON"):
        formats.read_curves(path)


def test_curve_directory_rejects_values_off_the_grid(tmp_path):
    path = tmp_path / "c"
    curves = random_curves(7, 3, 5)
    formats.write_curves(path, ["a", "b", "c"], curves)
    # values not (len(ids), len(times))
    write_meta(path, {"curves_version": 1, "ids": ["a", "b"]})
    with pytest.raises(ValueError, match=r"values.npy: shape \(3, 5\), expected \(2, 5\)"):
        formats.read_curves(path)
    write_meta(path, {"curves_version": 1, "ids": ["a", "b", "c"]})
    formats.write_npy(path / "times.npy", curves.times[:4])
    with pytest.raises(ValueError, match=r"values.npy: shape \(3, 5\), expected \(3, 4\)"):
        formats.read_curves(path)
    formats.write_npy(path / "times.npy", curves.times.astype(np.float32))
    with pytest.raises(ValueError, match="times.npy: dtype <f4, expected <f8"):
        formats.read_curves(path)


def test_curve_directory_rejects_truncated_and_trailing_bytes(tmp_path):
    path = tmp_path / "c"
    curves = random_curves(7, 3, 5)
    formats.write_curves(path, ["a", "b", "c"], curves)
    good = (path / "values.npy").read_bytes()
    (path / "values.npy").write_bytes(good[:-1])
    with pytest.raises(ValueError, match="values.npy: truncated"):
        formats.read_curves(path)
    (path / "values.npy").write_bytes(good + b"\0")
    with pytest.raises(ValueError, match="values.npy: trailing bytes"):
        formats.read_curves(path)
    (path / "values.npy").write_bytes(good)
    assert np.array_equal(formats.read_curves(path)[1].values, curves.values)


@pytest.mark.parametrize("times, values, match", [
    ([0.0, 1.0, 1.0], [[1.0, 0.5, 0.4]], "strictly increasing"),
    ([0.0, np.nan, 2.0], [[1.0, 0.5, 0.4]], "strictly increasing"),
    ([0.5, 1.0, 2.0], [[1.0, 0.5, 0.4]], "start at"),
    ([0.0, 1.0, 2.0], [[0.9, 0.5, 0.4]], "start at"),
    ([0.0, 1.0, 2.0], [[1.0, 0.4, 0.5]], "non-increasing"),
    ([0.0, 1.0, 2.0], [[1.0, 0.5, np.nan]], r"lie in \[0, 1\]"),
    ([0.0, 1.0, 2.0], [[1.0, 0.5, -0.1]], r"lie in \[0, 1\]"),
])
def test_curve_directory_rejects_invalid_curves(tmp_path, times, values, match):
    path = tmp_path / "c"
    formats.write_curves(path, ["a"], random_curves(8, 1, 3))
    formats.write_npy(path / "times.npy", np.array(times))
    formats.write_npy(path / "values.npy", np.array(values))
    with pytest.raises(ValueError, match=match) as info:
        formats.read_curves(path)
    assert str(path) in str(info.value)


def test_a_curve_write_that_fails_partway_reads_as_incomplete(tmp_path, monkeypatch):
    path = tmp_path / "c"
    formats.write_curves(path, ["old0", "old1"], random_curves(9, 2, 4))
    write_npy = formats.write_npy

    def fail_on_values(target, arr):
        if str(target).endswith("values.npy"):
            raise OSError("disk full")
        write_npy(target, arr)

    monkeypatch.setattr(formats, "write_npy", fail_on_values)
    with pytest.raises(OSError, match="disk full"):
        formats.write_curves(path, ["new0", "new1", "new2"], random_curves(10, 3, 4))
    # the new times sit beside the old values, but without meta.json
    # neither the old ids nor any values can be read
    assert not (path / "meta.json").exists()
    with pytest.raises(ValueError, match="incomplete"):
        formats.read_curves(path)
    monkeypatch.setattr(formats, "write_npy", write_npy)
    formats.write_curves(path, ["new0", "new1", "new2"], random_curves(10, 3, 4))
    assert formats.read_curves(path)[0] == ["new0", "new1", "new2"]


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


def test_dataclass_from_kv_parses_by_annotation():
    from dataclasses import dataclass

    @dataclass
    class Settings:
        name: str = ""
        flag: bool = False
        count: int = 0
        rate: float | None = None
        sizes: tuple[int, ...] = ()
        tags: tuple[str, ...] = ()

    got = formats.dataclass_from_kv(Settings, {
        "name": " disc ", "flag": "True", "count": " 3", "rate": "0.25",
        "sizes": "4, 2,", "tags": " a ,b"})
    assert got == Settings(name="disc", flag=True, count=3, rate=0.25,
                           sizes=(4, 2), tags=("a", "b"))
    assert type(got.count) is int and type(got.rate) is float
    # an optional field takes the word none
    assert formats.dataclass_from_kv(Settings, {"rate": " None"}).rate is None
    with pytest.raises(ValueError, match="unknown config key 'size'"):
        formats.dataclass_from_kv(Settings, {"size": "1"})
    with pytest.raises(ValueError, match="flag must be true or false"):
        formats.dataclass_from_kv(Settings, {"flag": "1"})
    with pytest.raises(ValueError):
        formats.dataclass_from_kv(Settings, {"count": "2.5"})
