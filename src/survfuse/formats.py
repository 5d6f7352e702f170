"""On-disk formats: hidden-state and pooled-vector binaries, checkpoints, CSV/JSONL."""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import operator
import struct
from pathlib import Path

import numpy as np

from .heads import CurveSet

HIDDEN_MAGIC = b"SVHS"
POOLED_MAGIC = b"SVPV"
CHECKPOINT_MAGIC = b"SVCK"
FORMAT_VERSION = 1


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


def _check_header(fh, magic: bytes, path) -> int:
    got = fh.read(4)
    if got != magic:
        raise ValueError(f"{path}: bad magic {got!r}, expected {magic!r}")
    version = _read_u32(fh)
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    return _read_u32(fh)


def write_hidden_states(path, matrices: dict[str, np.ndarray]) -> None:
    """Write per-sample token hidden-state matrices (rows are tokens, float32)."""
    with open(path, "wb") as fh:
        fh.write(HIDDEN_MAGIC)
        _write_u32(fh, FORMAT_VERSION)
        _write_u32(fh, len(matrices))
        for sample_id, mat in matrices.items():
            mat = np.ascontiguousarray(mat, dtype="<f4")
            if mat.ndim != 2:
                raise ValueError(f"hidden states for {sample_id!r} must be 2-D")
            encoded = sample_id.encode("utf-8")
            _write_u32(fh, len(encoded))
            fh.write(encoded)
            _write_u32(fh, mat.shape[0])
            _write_u32(fh, mat.shape[1])
            fh.write(mat.tobytes())


def read_hidden_states(path) -> dict[str, np.ndarray]:
    """Read a hidden-state file into {id: float64 matrix of shape (L, d)}."""
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        count = _check_header(fh, HIDDEN_MAGIC, path)
        for _ in range(count):
            sample_id = _read_exact(fh, _read_u32(fh)).decode("utf-8")
            n_rows = _read_u32(fh)
            n_cols = _read_u32(fh)
            if n_rows < 1 or n_cols < 1:
                raise ValueError(f"{path}: sample {sample_id!r} has empty matrix")
            raw = _read_exact(fh, 4 * n_rows * n_cols)
            mat = np.frombuffer(raw, dtype="<f4").reshape(n_rows, n_cols)
            if sample_id in out:
                raise ValueError(f"{path}: duplicate id {sample_id!r}")
            out[sample_id] = mat.astype(np.float64)
    return out


def write_pooled(path, vectors: dict[str, np.ndarray]) -> None:
    """Write per-sample pooled text vectors (float32)."""
    with open(path, "wb") as fh:
        fh.write(POOLED_MAGIC)
        _write_u32(fh, FORMAT_VERSION)
        _write_u32(fh, len(vectors))
        for sample_id, vec in vectors.items():
            vec = np.ascontiguousarray(vec, dtype="<f4")
            if vec.ndim != 1:
                raise ValueError(f"pooled vector for {sample_id!r} must be 1-D")
            encoded = sample_id.encode("utf-8")
            _write_u32(fh, len(encoded))
            fh.write(encoded)
            _write_u32(fh, vec.shape[0])
            fh.write(vec.tobytes())


def read_pooled(path) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        count = _check_header(fh, POOLED_MAGIC, path)
        for _ in range(count):
            sample_id = _read_exact(fh, _read_u32(fh)).decode("utf-8")
            dim = _read_u32(fh)
            raw = _read_exact(fh, 4 * dim)
            if sample_id in out:
                raise ValueError(f"{path}: duplicate id {sample_id!r}")
            out[sample_id] = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    return out


def write_checkpoint(path, params: dict[str, np.ndarray], manifest: dict) -> None:
    """Write named float64 tensors with a JSON manifest (shapes, seed, step, config).

    The tensors follow the manifest as one little-endian float64 block, each
    raveled in C order, in the order of `params`.
    """
    tensors = [{"name": name, "shape": list(arr.shape)} for name, arr in params.items()]
    header = dict(manifest)
    header["tensors"] = tensors
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        _write_u32(fh, FORMAT_VERSION)
        _write_u32(fh, len(blob))
        fh.write(blob)
        fh.write(b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes()
                          for arr in params.values()))


def read_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Tensors (views of one new float64 vector) and the manifest of a checkpoint."""
    with open(path, "rb") as fh:
        got = fh.read(4)
        if got != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: bad magic {got!r}, expected {CHECKPOINT_MAGIC!r}")
        version = _read_u32(fh)
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        manifest = json.loads(_read_exact(fh, _read_u32(fh)).decode("utf-8"))
        specs = manifest["tensors"]
        names = [spec["name"] for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"{path}: duplicate tensor names")
        if any(not isinstance(d, int) or d < 0 for spec in specs for d in spec["shape"]):
            raise ValueError(f"{path}: tensor shapes must be non-negative integers")
        shapes = [tuple(spec["shape"]) for spec in specs]
        offsets = list(itertools.accumulate(map(math.prod, shapes), initial=0))
        raw = _read_exact(fh, 8 * offsets[-1])
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the tensor data")
    flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return {name: flat[start:stop].reshape(shape)
            for name, shape, start, stop in zip(names, shapes, offsets, offsets[1:])}, manifest


def format_float(x: float) -> str:
    """Shortest decimal that round-trips the exact float64 value."""
    return repr(float(x))


def read_csv_table(path) -> tuple[list[str], list[dict[str, str]]]:
    """Read a headered CSV into (header, rows as column-name dicts)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if len(set(header)) != len(header):
            raise ValueError(f"{path}: duplicate column names")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} cells, "
                                 f"got {len(row)}")
            rows.append(dict(zip(header, row)))
    return header, rows


def write_csv_table(path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _csv_cell(value) -> str:
    """One cell of a multi-cell row, quoted exactly as `csv.writer` quotes it."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[:-len(",\r\n")]


def write_curves_csv(path, ids: list[str], curves: CurveSet) -> None:
    """Export survival curves in long format: id, t, S (one row per grid point).

    Each curve's rows are joined into one string; the bytes are those
    `csv.writer` writes row by row.
    """
    if len(ids) != len(curves):
        raise ValueError("one id per curve required")
    tails = [f",{format_float(t)}," for t in curves.times]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["id", "t", "S"])
        for sample_id, row in zip(ids, curves.values):
            cell = _csv_cell(sample_id)
            fh.write("".join([f"{cell}{tail}{s}\r\n"
                              for tail, s in zip(tails, map(repr, row.tolist()))]))


def read_curves_csv(path) -> tuple[list[str], CurveSet]:
    """Read curves written by `write_curves_csv`; every id must use one grid.

    One `csv.reader` pass: the first id's rows fix the grid, each id's values
    become one float64 row, and the rows are stacked once at the end. An id
    whose rows are not all consecutive, an id with fewer or more rows than
    the grid, or an id on a different grid is an error.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if header[:3] != ["id", "t", "S"]:
            raise ValueError(f"{path}: expected header id,t,S")
        width = len(header)
        ids: list[str] = []
        rows: list[np.ndarray] = []
        grid = grid_cells = None
        get_t, get_s = operator.itemgetter(1), operator.itemgetter(2)
        # filter(None, ...) skips blank lines, as read_csv_table does
        for sample_id, group in itertools.groupby(filter(None, reader),
                                                  key=operator.itemgetter(0)):
            group = list(group)
            if set(map(len, group)) != {width}:
                raise ValueError(f"{path}: curve {sample_id!r}: expected {width} cells per row")
            cells = list(map(get_t, group))
            if grid is None:
                grid_cells = cells
                grid = np.array(list(map(float, cells)))
            elif len(cells) != grid.size:
                raise ValueError(f"{path}: curve {sample_id!r} has {len(cells)} points, "
                                 f"the first curve has {grid.size} (truncated?)")
            elif cells != grid_cells and not np.array_equal(list(map(float, cells)), grid):
                raise ValueError(f"{path}: curve {sample_id!r} uses a different time grid")
            rows.append(np.array(list(map(float, map(get_s, group)))))
            ids.append(sample_id)
    if not ids:
        raise ValueError(f"{path}: no curves")
    if len(set(ids)) != len(ids):
        raise ValueError(f"{path}: the rows of a curve are not consecutive "
                         f"(an id appears again after another id)")
    return ids, CurveSet(times=grid, values=np.stack(rows))


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
    with open(path, "w", encoding="utf-8") as fh:
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
