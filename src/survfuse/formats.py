"""On-disk formats: hidden-state and pooled-vector binaries, checkpoints,
checked .npy arrays with atomic writes, directories of them (curves), CSV/JSONL,
teacher percents (`percents.csv`)."""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import struct
import typing
from pathlib import Path

import numpy as np

from .heads import CurveSet

HIDDEN_MAGIC = b"SVHS"
POOLED_MAGIC = b"SVPV"
CHECKPOINT_MAGIC = b"SVCK"
FORMAT_VERSION = 1
CURVES_VERSION = 1
META = "meta.json"


def _write_u32(fh, value: int) -> None:
    fh.write(struct.pack("<I", value))


def _read_u32(fh) -> int:
    raw = fh.read(4)
    if len(raw) != 4:
        raise ValueError("truncated file: expected 4-byte unsigned integer")
    return struct.unpack("<I", raw)[0]


def _read_exact(fh, n: int) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise ValueError(f"truncated file: expected {n} bytes, got {len(raw)}")
    return raw


def _check_end(fh, path) -> None:
    if fh.read(1):
        raise ValueError(f"{path}: trailing bytes after the data")


def _check_header(fh, magic: bytes, path) -> int:
    """Check the magic and version; return the header's third u32 (a sample
    count, or a checkpoint's manifest length)."""
    got = fh.read(4)
    if got != magic:
        raise ValueError(f"{path}: bad magic {got!r}, expected {magic!r}")
    version = _read_u32(fh)
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    return _read_u32(fh)


def id_rows(keys, ids) -> np.ndarray:
    """The row of `keys` holding each of `ids` (int64), -1 where none does."""
    index = {key: k for k, key in enumerate(keys)}
    return np.array([index.get(sid, -1) for sid in ids], dtype=np.int64)


def _write_id_arrays(path, magic: bytes, arrays: dict[str, np.ndarray], ndim: int) -> None:
    """Write {id: array of `ndim` axes} atomically as the magic, the version and
    the count, then per sample its UTF-8 id (length first), each axis length
    and the float32 data, all little-endian."""
    with atomic_open(path, "wb") as fh:
        fh.write(magic)
        _write_u32(fh, FORMAT_VERSION)
        _write_u32(fh, len(arrays))
        for sample_id, arr in arrays.items():
            arr = np.ascontiguousarray(arr, dtype="<f4")
            if arr.ndim != ndim:
                raise ValueError(f"array for {sample_id!r} must be {ndim}-D")
            encoded = sample_id.encode("utf-8")
            _write_u32(fh, len(encoded))
            fh.write(encoded)
            for length in arr.shape:
                _write_u32(fh, length)
            fh.write(arr.tobytes())


def _read_id_arrays(path, magic: bytes, ndim: int) -> dict[str, np.ndarray]:
    """Read a file written by `_write_id_arrays` into {id: float64 array}."""
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        count = _check_header(fh, magic, path)
        for _ in range(count):
            sample_id = _read_exact(fh, _read_u32(fh)).decode("utf-8")
            shape = tuple(_read_u32(fh) for _ in range(ndim))
            raw = _read_exact(fh, 4 * math.prod(shape))
            if sample_id in out:
                raise ValueError(f"{path}: duplicate id {sample_id!r}")
            out[sample_id] = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float64)
        _check_end(fh, path)
    return out


def write_hidden_states(path, matrices: dict[str, np.ndarray]) -> None:
    """Write per-sample token hidden-state matrices (rows are tokens), atomically."""
    _write_id_arrays(path, HIDDEN_MAGIC, matrices, 2)


def read_hidden_states(path) -> dict[str, np.ndarray]:
    """Read a hidden-state file into {id: float64 matrix of shape (L, d)};
    a matrix without a row or a column is an error."""
    out = _read_id_arrays(path, HIDDEN_MAGIC, 2)
    empty = [sid for sid, mat in out.items() if not mat.size]
    if empty:
        raise ValueError(f"{path}: sample {empty[0]!r} has empty matrix")
    return out


def write_pooled(path, vectors: dict[str, np.ndarray]) -> None:
    """Write per-sample pooled text vectors, atomically."""
    _write_id_arrays(path, POOLED_MAGIC, vectors, 1)


def read_pooled(path) -> dict[str, np.ndarray]:
    """Read a pooled-vector file into {id: float64 vector}."""
    return _read_id_arrays(path, POOLED_MAGIC, 1)


def write_checkpoint(path, params: dict[str, np.ndarray], manifest: dict) -> None:
    """Write named float64 tensors with a JSON manifest (shapes, seed, step, config).

    The tensors follow the manifest as one little-endian float64 block, each
    raveled in C order, in the order of `params`.
    """
    tensors = [{"name": name, "shape": list(arr.shape)} for name, arr in params.items()]
    header = dict(manifest)
    header["tensors"] = tensors
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        _write_u32(fh, FORMAT_VERSION)
        _write_u32(fh, len(blob))
        fh.write(blob)
        fh.write(b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes()
                          for arr in params.values()))


def read_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Tensors (views of one new float64 vector) and the manifest of a checkpoint."""
    with open(path, "rb") as fh:
        manifest_length = _check_header(fh, CHECKPOINT_MAGIC, path)
        manifest = json.loads(_read_exact(fh, manifest_length).decode("utf-8"))
        specs = manifest["tensors"]
        names = [spec["name"] for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"{path}: duplicate tensor names")
        if any(not isinstance(d, int) or d < 0 for spec in specs for d in spec["shape"]):
            raise ValueError(f"{path}: tensor shapes must be non-negative integers")
        shapes = [tuple(spec["shape"]) for spec in specs]
        offsets = list(itertools.accumulate(map(math.prod, shapes), initial=0))
        raw = _read_exact(fh, 8 * offsets[-1])
        _check_end(fh, path)
    flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return {name: flat[start:stop].reshape(shape)
            for name, shape, start, stop in zip(names, shapes, offsets, offsets[1:])}, manifest


@contextlib.contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open a temporary file beside `path`; on a clean exit, rename it onto `path`.

    Readers see the old file or the complete new one, never a partial write
    (the rename is atomic; the data is not fsynced, so this guards against
    interrupted processes, not power loss). On an error the temporary file
    is removed.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_npy(path, arr: np.ndarray) -> None:
    """Write one array as a .npy file (no pickles), atomically."""
    with atomic_open(path, "wb") as fh:
        np.save(fh, np.ascontiguousarray(arr), allow_pickle=False)


_NPY_HEADER_READERS = {(1, 0): np.lib.format.read_array_header_1_0,
                       (2, 0): np.lib.format.read_array_header_2_0}


def read_npy(path, dtype, shape: tuple[int | None, ...]) -> np.ndarray:
    """Read a .npy file written by `write_npy`, checked against what the caller expects.

    `shape` gives the expected length of each axis, None for any length. A
    wrong dtype, number of axes or length, a truncated file and trailing
    bytes are ValueErrors naming the file.
    """
    dtype = np.dtype(dtype)
    with open(path, "rb") as fh:
        try:
            version = np.lib.format.read_magic(fh)
            if version not in _NPY_HEADER_READERS:
                raise ValueError(f"unsupported .npy version {version}")
            got_shape, fortran, got_dtype = _NPY_HEADER_READERS[version](fh)
        except (ValueError, SyntaxError) as exc:
            raise ValueError(f"{path}: not a readable .npy file ({exc})") from None
        if got_dtype != dtype:
            raise ValueError(f"{path}: dtype {got_dtype.str}, expected {dtype.str}")
        if len(got_shape) != len(shape) or any(want is not None and got != want
                                               for got, want in zip(got_shape, shape)):
            want = tuple("any" if w is None else w for w in shape)
            raise ValueError(f"{path}: shape {got_shape}, expected {want}")
        arr = np.empty(math.prod(got_shape), dtype=dtype)
        got = fh.readinto(arr.view(np.uint8))
        if got != arr.nbytes:
            raise ValueError(f"{path}: truncated file: expected {arr.nbytes} data bytes, "
                             f"got {got}")
        _check_end(fh, path)
    return arr.reshape(got_shape, order="F" if fortran else "C")


def read_meta(directory, key: str, version: int, remedy: str) -> dict:
    """The meta.json of a directory of .npy arrays, whose `key` must be `version`.

    A path that is not a directory, a missing meta.json (it is written last,
    so an interrupted write has none), unreadable JSON and another version
    are ValueErrors naming the path; all but the JSON error end in `remedy`.
    """
    kind = key.removesuffix("_version")
    if not os.path.isdir(directory):
        raise ValueError(f"{directory}: no {kind} directory; {remedy}")
    path = os.path.join(directory, META)
    try:
        with open(path, encoding="utf-8") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"{directory}: {kind} is incomplete (no {META}); {remedy}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: not readable JSON ({exc})") from None
    got = meta.get(key) if isinstance(meta, dict) else None
    if got != version:
        raise ValueError(f"{directory}: unsupported {kind} version {got} (this survfuse "
                         f"reads version {version}); {remedy}")
    return meta


def _distinct_strings(ids) -> bool:
    return all(isinstance(sid, str) for sid in ids) and len(set(ids)) == len(ids)


def write_curves(out_dir, ids: list[str], curves: CurveSet) -> None:
    """Write curves as a directory: `times.npy` (T,), `values.npy` (N, T) and
    a meta.json with the version and the N ids.

    The old meta.json is removed first and the new one written last, so an
    interrupted write leaves a directory that reads as incomplete, never old
    ids over new values.
    """
    if len(ids) != len(curves) or not _distinct_strings(ids):
        raise ValueError("one distinct string id per curve required")
    os.makedirs(out_dir, exist_ok=True)
    meta_path = os.path.join(out_dir, META)
    with contextlib.suppress(FileNotFoundError):
        os.remove(meta_path)
    write_npy(os.path.join(out_dir, "times.npy"), np.asarray(curves.times, dtype="<f8"))
    write_npy(os.path.join(out_dir, "values.npy"), np.asarray(curves.values, dtype="<f8"))
    with atomic_open(meta_path, "w", encoding="utf-8") as fh:
        json.dump({"curves_version": CURVES_VERSION, "ids": list(ids)}, fh, indent=1)


def read_curves(curve_dir) -> tuple[list[str], CurveSet]:
    """The ids and curves of a directory written by `write_curves`.

    meta.json must hold distinct string ids; each array is read through
    `read_npy` with the shape they imply, then checked as a CurveSet. Any
    failure is a ValueError naming the path.
    """
    meta = read_meta(curve_dir, "curves_version", CURVES_VERSION,
                     "re-run `survfuse eval`, which writes curves as a directory")
    ids = meta.get("ids")
    if not isinstance(ids, list) or not _distinct_strings(ids):
        raise ValueError(f"{curve_dir}: {META} must list distinct string ids")
    times = read_npy(os.path.join(curve_dir, "times.npy"), "<f8", (None,))
    values = read_npy(os.path.join(curve_dir, "values.npy"), "<f8", (len(ids), times.size))
    try:
        return ids, CurveSet(times=times, values=values)
    except ValueError as exc:
        raise ValueError(f"{curve_dir}: {exc}") from None


def format_floats(values) -> list[str]:
    """The shortest decimal that round-trips each float64 element of a 1-D
    array exactly (its `repr`), in one pass."""
    return list(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def read_csv_rows(path) -> tuple[list[str], list[list[str]], list[int]]:
    """Read a headered CSV into (header, rows as lists of cells, each row's line).

    A row's line is the file line it starts on, counting the blank lines,
    which are skipped, and the line breaks inside quoted cells. Duplicate
    column names and a row with the wrong number of cells (named by its
    line) are errors.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if len(set(header)) != len(header):
            raise ValueError(f"{path}: duplicate column names")
        rows, lines = [], []
        start = reader.line_num + 1
        for row in reader:
            if row:
                if len(row) != len(header):
                    raise ValueError(f"{path}:{start}: expected {len(header)} cells, "
                                     f"got {len(row)}")
                rows.append(row)
                lines.append(start)
            start = reader.line_num + 1
    return header, rows, lines


def read_csv_table(path) -> tuple[list[str], list[dict[str, str]], list[int]]:
    """Read a headered CSV into (header, rows as column-name dicts, each row's line)."""
    header, rows, lines = read_csv_rows(path)
    return header, [dict(zip(header, row)) for row in rows], lines


def _csv_line(row) -> str:
    """One record, byte for byte as `csv.writer` (excel dialect) writes it.

    A row of strings that needs no quoting (no comma, quote, CR or LF in a
    cell, and not one empty cell alone) is joined directly; any other row
    goes through `csv.writer`.
    """
    try:
        line = ",".join(row)
    except TypeError:  # a cell that is not a string: csv.writer converts it
        line = None
    if (line is None or line.count(",") != len(row) - 1 or '"' in line
            or "\r" in line or "\n" in line or (not line and len(row) == 1)):
        buf = io.StringIO()
        csv.writer(buf).writerow(row)
        return buf.getvalue()
    return line + "\r\n"


def write_csv_table(path, header: list[str], rows) -> None:
    """Write a headered CSV atomically, with the bytes of `csv.writer`.

    `rows` is an iterable of sequences of cells.
    """
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_line(header))
        fh.writelines(map(_csv_line, rows))


def write_percents(path, ids: list[str], percents) -> None:
    """Write `percents.csv` (`id,percent`): a whole percent without a fraction,
    any other as its shortest exact decimal, NaN as an empty cell."""
    cells = ["" if math.isnan(p) else str(int(p)) if p.is_integer() else repr(p)
             for p in np.asarray(percents, dtype=np.float64).tolist()]
    write_csv_table(path, ["id", "percent"], zip(ids, cells, strict=True))


def read_percents(path, ids: list[str]) -> np.ndarray:
    """The percents of a `percents.csv` in the order of `ids`, NaN for an empty cell.

    A file not ending in a line break (cut short), a missing column, a
    repeated id, a cell that is not a number in [0, 100] (`nan` included)
    and an id with no row are ValueErrors naming the file (and line).
    """
    if not Path(path).read_bytes().endswith(b"\n"):  # an empty file fails here too
        raise ValueError(f"{path}: truncated file: no line break at the end")
    header, rows, lines = read_csv_table(path)
    if "id" not in header or "percent" not in header:
        raise ValueError(f"{path}: expected columns id and percent, got {header}")
    percents: dict[str, float] = {}
    for lineno, row in zip(lines, rows):
        if row["id"] in percents:
            raise ValueError(f"{path}:{lineno}: duplicate id {row['id']!r}")
        text = row["percent"].strip()
        try:
            value = float(text) if text else math.nan
        except ValueError:
            value = math.nan  # reported with the out-of-range values below
        if text and not 0.0 <= value <= 100.0:  # NaN fails too
            raise ValueError(f"{path}:{lineno}: percent {text!r} is not a number in [0, 100]")
        percents[row["id"]] = value
    missing = [sid for sid in ids if sid not in percents]
    if missing:
        raise ValueError(f"{path}: no percent rows for ids {missing[:5]}")
    return np.array([percents[sid] for sid in ids], dtype=np.float64)


def read_jsonl(path) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({exc})") from None
    return records


def write_jsonl(path, records) -> None:
    """One JSON object per line, written atomically."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def parse_kv_file(path) -> dict[str, str]:
    """Parse a flat ``key = value`` config file. '#' starts a comment line."""
    out: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def dataclass_from_kv(cls, kv: dict[str, str]):
    """An instance of dataclass `cls` from a flat key=value mapping.

    Keys are the field names. Each value is parsed by its field's annotation:
    `str` is stripped, `bool` is true/false, `tuple[X, ...]` is split on
    commas into X values, and `int` and `float` parse as such. A field
    annotated `X | None` takes `none` (any case) for None, else parses as X.
    """
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, raw in kv.items():
        if key not in cls.__dataclass_fields__:
            raise ValueError(f"unknown config key {key!r}")
        kwargs[key] = _parse_field(key, hints[key], raw)
    return cls(**kwargs)


def _parse_field(key: str, anno, raw: str):
    if typing.get_origin(anno) is tuple:
        item = typing.get_args(anno)[0]
        return tuple(_parse_field(key, item, part)
                     for part in raw.split(",") if part.strip())
    # `X | None` parses as X, except for the word none
    args = typing.get_args(anno)
    if type(None) in args:
        if raw.strip().lower() == "none":
            return None
        anno = next(a for a in args if a is not type(None))
    if anno is bool:
        if raw.strip().lower() not in ("true", "false"):
            raise ValueError(f"{key} must be true or false, got {raw!r}")
        return raw.strip().lower() == "true"
    if anno is str:
        return raw.strip()
    return anno(raw)
