"""On-disk formats: hidden-state and pooled-vector binaries, checkpoints, CSV/JSONL."""

from __future__ import annotations

import csv
import json
import struct
from itertools import repeat
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
    """Write named float64 tensors with a JSON manifest (shapes, seed, step, config)."""
    tensors = [{"name": name, "shape": list(arr.shape)} for name, arr in params.items()]
    header = dict(manifest)
    header["tensors"] = tensors
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        _write_u32(fh, FORMAT_VERSION)
        _write_u32(fh, len(blob))
        fh.write(blob)
        for arr in params.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        got = fh.read(4)
        if got != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: bad magic {got!r}, expected {CHECKPOINT_MAGIC!r}")
        version = _read_u32(fh)
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        manifest = json.loads(_read_exact(fh, _read_u32(fh)).decode("utf-8"))
        params: dict[str, np.ndarray] = {}
        for spec in manifest["tensors"]:
            shape = tuple(spec["shape"])
            n = int(np.prod(shape)) if shape else 1
            raw = _read_exact(fh, 8 * n)
            params[spec["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    return params, manifest


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


def write_curves_csv(path, ids: list[str], curves: CurveSet) -> None:
    """Export survival curves in long format: id, t, S (one row per grid point)."""
    if len(ids) != len(curves):
        raise ValueError("one id per curve required")
    t_text = [format_float(t) for t in curves.times]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "t", "S"])
        for sample_id, row in zip(ids, curves.values):
            writer.writerows(zip(repeat(sample_id), t_text, map(repr, row.tolist())))


def read_curves_csv(path) -> tuple[list[str], CurveSet]:
    """Read curves written by `write_curves_csv`; every id must use one grid."""
    header, rows = read_csv_table(path)
    if header[:3] != ["id", "t", "S"]:
        raise ValueError(f"{path}: expected header id,t,S")
    grouped: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        grouped.setdefault(row["id"], []).append((float(row["t"]), float(row["S"])))
    if not grouped:
        raise ValueError(f"{path}: no curves")
    ids = list(grouped)
    points = [np.array(grouped[sid]).reshape(-1, 2) for sid in ids]
    times = points[0][:, 0]
    for sid, p in zip(ids, points):
        if not np.array_equal(p[:, 0], times):
            raise ValueError(f"{path}: curve {sid!r} uses a different time grid")
    return ids, CurveSet(times=times, values=np.stack([p[:, 1] for p in points]))


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
