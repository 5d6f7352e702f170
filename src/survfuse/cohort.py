"""Cohort loading, validation, covariate preprocessing, splitting, and bundles.

A `Cohort` is columnar: one row per sample in every array, and it holds
exactly what a bundle stores, its split included. `load_cohort` builds one
from the raw files an `IngestConfig` names; the raw inputs only ingest needs
(ragged token states, clinical text fields) never leave it.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import formats
from .distill import HORIZONS, parse_teacher_file
from .fusion import MODALITY_ORDER
from .pooling import pool_many
from .timing import stage

HORIZON_YEARS = 5.0

CANCER_FAMILIES = ("gastrointestinal", "gynecological", "genitourinary",
                   "respiratory", "skin", "brain", "other")

# best-effort TCGA project-code mapping; direct family names always work
_FAMILY_BY_CODE = {
    "COAD": "gastrointestinal", "READ": "gastrointestinal", "STAD": "gastrointestinal",
    "ESCA": "gastrointestinal", "LIHC": "gastrointestinal", "PAAD": "gastrointestinal",
    "CHOL": "gastrointestinal",
    "OV": "gynecological", "UCEC": "gynecological", "CESC": "gynecological",
    "UCS": "gynecological",
    "BLCA": "genitourinary", "KIRC": "genitourinary", "KIRP": "genitourinary",
    "KICH": "genitourinary", "PRAD": "genitourinary", "TGCT": "genitourinary",
    "LUAD": "respiratory", "LUSC": "respiratory", "MESO": "respiratory",
    "SKCM": "skin",
    "GBM": "brain", "LGG": "brain",
}

_STAGE_CODES = {"I": 1.0, "II": 2.0, "III": 3.0, "IV": 4.0,
                "1": 1.0, "2": 2.0, "3": 3.0, "4": 4.0}

CLINICAL_FIELDS = ("age", "sex", "race", "stage", "cancer_type")


@dataclass
class Modality:
    """One modality over the cohort: an (N, d) float64 matrix (NaN rows where
    absent) and the (N,) mask of samples that carry it."""

    values: np.ndarray
    present: np.ndarray

    @classmethod
    def empty(cls, n: int, width: int) -> "Modality":
        return cls(values=np.full((n, width), np.nan), present=np.zeros(n, dtype=bool))


@dataclass
class CohortSplit:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


@dataclass
class Cohort:
    """Samples as columns: ids, outcomes, the split ingest drew (row indices;
    clinical covariates are encoded with its training rows' statistics), a
    `Modality` per available input, and the teacher's extracted (N, 3)
    horizon probabilities (NaN where missing; None without a teacher file).
    """

    ids: list[str]
    times: np.ndarray
    events: np.ndarray
    split: CohortSplit
    modalities: dict[str, Modality] = field(default_factory=dict)
    teacher_probs: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.ids)
        self.times = np.asarray(self.times, dtype=np.float64)
        self.events = np.asarray(self.events, dtype=bool)
        if self.times.shape != (n,) or self.events.shape != (n,):
            raise ValueError(f"times and events must have shape ({n},)")
        for name, mod in self.modalities.items():
            if name not in MODALITY_ORDER:
                raise ValueError(f"unknown modality {name!r}")
            if mod.values.ndim != 2 or mod.values.shape[0] != n or mod.present.shape != (n,):
                raise ValueError(f"{name} matrix and mask must have {n} rows")
        if self.teacher_probs is not None and self.teacher_probs.shape != (n, len(HORIZONS)):
            raise ValueError(f"teacher probabilities must have shape ({n}, {len(HORIZONS)})")

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class IngestConfig:
    """The keys of an ingest config file, parsed by `formats.dataclass_from_kv`.

    `outcomes` is required, and `covariates` with `schema=clinical`. Input
    paths are relative to the config file; `horizon` is positive and finite,
    or `none`, which disables administrative censoring.
    """

    INPUTS: ClassVar[tuple[str, ...]] = ("outcomes", "covariates", "ge", "hidden",
                                         "pooled", "teacher")
    SCHEMAS: ClassVar[tuple[str, ...]] = ("numeric", "clinical")

    outcomes: str | None = None
    covariates: str | None = None
    ge: str | None = None
    hidden: str | None = None
    pooled: str | None = None
    teacher: str | None = None
    schema: str = "numeric"
    horizon: float | None = HORIZON_YEARS
    allow_other: bool = True
    split_seed: int = 0
    ratios: tuple[float, ...] = (0.70, 0.10, 0.20)

    def __post_init__(self):
        if self.outcomes is None:
            raise ValueError("ingest config needs an 'outcomes' path")
        if self.schema not in self.SCHEMAS:
            raise ValueError(f"unknown schema {self.schema!r}")
        if self.schema == "clinical" and self.covariates is None:
            raise ValueError("schema 'clinical' needs a 'covariates' path")
        if self.horizon is not None and not 0.0 < self.horizon < math.inf:  # NaN fails too
            raise ValueError(f"horizon must be positive and finite or none, got {self.horizon}")
        if len(self.ratios) != 3 or not all(r >= 0 for r in self.ratios):
            raise ValueError("need three non-negative ratios")
        if not abs(sum(self.ratios) - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(f"ratios sum to {sum(self.ratios)}, expected 1")

    def input_paths(self, config_path: str) -> dict[str, str]:
        """The path of each input the config names, by key, resolved against
        the directory of the config file `config_path`."""
        base = os.path.dirname(os.path.abspath(config_path))
        return {key: os.path.join(base, getattr(self, key)) for key in self.INPUTS
                if getattr(self, key) is not None}


def read_outcomes(path: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The ids, float64 follow-up times and boolean events of an
    `id,time_years,event` CSV, in file order and as given (not censored)."""
    header, rows, lines = formats.read_csv_table(path)
    for col in ("id", "time_years", "event"):
        if col not in header:
            raise ValueError(f"{path}: outcomes file missing column {col!r}")
    if not rows:
        raise ValueError(f"no outcome rows in {path}")
    ids = [row["id"] for row in rows]
    times = np.empty(len(rows))
    events = np.empty(len(rows), dtype=bool)
    seen: set[str] = set()
    for k, (lineno, sid, row) in enumerate(zip(lines, ids, rows)):
        if sid in seen:
            raise ValueError(f"{path}: duplicate outcome id {sid!r} (line {lineno})")
        seen.add(sid)
        try:
            times[k] = float(row["time_years"])
            event_raw = row["event"].strip()
            if event_raw not in ("0", "1"):
                raise ValueError(f"event must be 0 or 1, got {event_raw!r}")
            if not 0 < times[k] < math.inf:  # NaN fails too
                raise ValueError(f"follow-up time must be positive and finite, got {times[k]}")
        except ValueError as exc:
            raise ValueError(f"{path}: outcomes row for id {sid!r} (line {lineno}): {exc}") from exc
        events[k] = event_raw == "1"
    return ids, times, events


def _parse_numeric_table(path: str, missing_to_zero: bool) -> tuple[list[str], np.ndarray]:
    """The ids and the (N, d) float64 matrix of a CSV whose first column is id.

    Every cell goes through `float()` in one pass. A table that pass rejects
    (an empty, malformed or non-finite cell, a duplicate id) is parsed again
    cell by cell: an empty cell becomes 0 when `missing_to_zero`, and
    otherwise the first bad row raises an error naming its id and line.
    """
    header, rows, lines = formats.read_csv_rows(path)
    if not header or header[0] != "id":
        raise ValueError(f"{path}: first column must be 'id'")
    ids = [row[0] for row in rows]
    shape = (len(rows), len(header) - 1)
    if len(set(ids)) == len(ids):
        with contextlib.suppress(ValueError):
            cells = itertools.chain.from_iterable([row[1:] for row in rows])
            values = np.fromiter(map(float, cells), dtype=np.float64, count=math.prod(shape))
            if np.isfinite(values).all():
                return ids, values.reshape(shape)
    values = np.empty(shape, dtype=np.float64)
    seen: set[str] = set()
    for lineno, vec, row in zip(lines, values, rows):
        sid = row[0]
        if sid in seen:
            raise ValueError(f"duplicate id {sid!r} in {path} (line {lineno})")
        seen.add(sid)
        for j, (col, cell) in enumerate(zip(header[1:], row[1:])):
            cell = cell.strip()
            if cell == "":
                if missing_to_zero:
                    vec[j] = 0.0
                    continue
                raise ValueError(f"{path} id {sid!r} (line {lineno}): empty cell in {col!r}")
            try:
                vec[j] = float(cell)
            except ValueError as exc:
                raise ValueError(f"{path} id {sid!r} (line {lineno}): {exc}") from exc
            if not math.isfinite(vec[j]):
                raise ValueError(f"{path} id {sid!r} (line {lineno}): "
                                 f"non-finite value {cell!r} in {col!r}")
    return ids, values


def _parse_clinical_table(path: str,
                          allow_other: bool) -> tuple[dict[str, dict[str, object]], set[str]]:
    """Clinical rows keyed by id, plus ids excluded for a missing field.

    A kept row holds its age as a finite float, its stage code and its
    cancer family (`cancer_family`), sex and race as given; a cell that does
    not parse is an error naming the file, id, line and column.
    """
    header, rows, lines = formats.read_csv_table(path)
    for col in ("id",) + CLINICAL_FIELDS:
        if col not in header:
            raise ValueError(f"{path}: covariates file missing column {col!r}")
    parsers = {"age": _age, "sex": str, "race": str, "stage": _stage_code,
               "cancer_type": lambda label: cancer_family(label, allow_other)}
    out: dict[str, dict[str, object]] = {}
    excluded: set[str] = set()
    for lineno, row in zip(lines, rows):
        sid = row["id"]
        if sid in out or sid in excluded:
            raise ValueError(f"{path}: duplicate covariate id {sid!r} (line {lineno})")
        cells = {c: row[c].strip() for c in CLINICAL_FIELDS}
        if "" in cells.values():
            excluded.add(sid)
            continue
        parsed = {}
        for col, parse in parsers.items():
            try:
                parsed[col] = parse(cells[col])
            except ValueError as exc:
                raise ValueError(f"{path} id {sid!r} (line {lineno}): "
                                 f"column {col!r}: {exc}") from exc
        out[sid] = parsed
    return out, excluded


def _age(label: str) -> float:
    age = float(label)
    if not math.isfinite(age):
        raise ValueError(f"non-finite value {label!r}")
    return age


def cancer_family(label: str, allow_other: bool = True) -> str:
    norm = label.strip().lower()
    if norm in CANCER_FAMILIES:
        return norm
    mapped = _FAMILY_BY_CODE.get(label.strip().upper())
    if mapped is not None:
        return mapped
    if allow_other:
        return "other"
    raise ValueError(f"unknown cancer type {label!r}")


def _stage_code(label: str) -> float:
    norm = label.strip().upper().removeprefix("STAGE").strip()
    if norm not in _STAGE_CODES:
        raise ValueError(f"unknown stage label {label!r}")
    return _STAGE_CODES[norm]


def _modality(table: tuple[list[str], np.ndarray] | None, ids: list[str]) -> Modality | None:
    """The rows of a (keys, matrix) table in cohort order (None for no or an empty table)."""
    if table is None or not table[0]:
        return None
    keys, values = table
    rows = formats.id_rows(keys, ids)
    mod = Modality(values=np.full((len(ids), values.shape[1]), np.nan), present=rows >= 0)
    mod.values[mod.present] = values[rows[mod.present]]
    return mod


def load_cohort(config: IngestConfig, config_path: str,
                timings: dict[str, float] | None = None) -> tuple[Cohort, int]:
    """The cohort of the ingest config read from `config_path` (input paths
    are relative to its directory, and a split left empty is an error naming
    it), and how many samples' token states were pooled.

    One row per outcome in file order, less clinical rows with a missing
    field, censored at `horizon`; clinical fields are encoded with the
    training split's statistics, and samples without a pooled vector get the
    attention pool of their token states. The time spent is added to
    `timings` under "read" and "pool".
    """
    paths = config.input_paths(config_path)
    clinical = config.schema == "clinical"
    with stage(timings, "read"):
        ids, times, events = read_outcomes(paths["outcomes"])
        cov_numeric, cov_clinical, excluded = None, {}, set()
        if "covariates" in paths and clinical:
            cov_clinical, excluded = _parse_clinical_table(paths["covariates"], config.allow_other)
        elif "covariates" in paths:
            cov_numeric = _parse_numeric_table(paths["covariates"], missing_to_zero=False)
        ge = _parse_numeric_table(paths["ge"], missing_to_zero=True) if "ge" in paths else None
        hidden = formats.read_hidden_states(paths["hidden"]) if "hidden" in paths else {}
        pooled = formats.read_pooled(paths["pooled"]) if "pooled" in paths else {}
        teacher = parse_teacher_file(paths["teacher"]) if "teacher" in paths else None

        for name, key, table in (("hidden states", "hidden", hidden),
                                 ("pooled vectors", "pooled", pooled)):
            widths = {v.shape[-1] for v in table.values()}
            if len(widths) > 1:
                raise ValueError(f"inconsistent {name} dimensions: {sorted(widths)}")
            bad = next((sid for sid, v in table.items() if not np.isfinite(v).all()), None)
            if bad is not None:
                raise ValueError(f"{paths[key]}: sample {bad!r} has non-finite {name}")

        kept = np.array([sid not in excluded for sid in ids], dtype=bool)
        ids = [sid for sid, keep in zip(ids, kept) if keep]
        times, events = times[kept], events[kept]
        if config.horizon is not None:
            over = times > config.horizon
            times = np.where(over, config.horizon, times)
            events &= ~over
        split = split_cohort(len(ids), config.ratios, config.split_seed)
        empty = [part for part, rows in vars(split).items() if not rows.size]
        if empty:
            raise ValueError(f"{config_path}: ratios={','.join(f'{r:g}' for r in config.ratios)} "
                             f"leave the {empty[0]} split of {len(ids)} samples empty")

        meta = {"schema": config.schema, "n_samples": len(ids),
                "excluded_missing_critical": len(excluded), "horizon_years": config.horizon,
                "allow_other_family": config.allow_other}
        cov = _modality(cov_numeric, ids)
        if clinical:
            cov, encoding = _clinical_modality([cov_clinical.get(sid) for sid in ids], split.train)
            meta.update(encoding)
        teacher_mod = _modality((teacher.ids, teacher.probs) if teacher is not None else None,
                                ids)
    with stage(timings, "pool"):
        text, n_pooled = _pool_text(ids, pooled, hidden)
    modalities = {name: mod for name, mod in (("text", text), ("cov", cov),
                                              ("ge", _modality(ge, ids)))
                  if mod is not None}
    teacher_probs = (teacher_mod.values
                     if teacher_mod is not None and teacher_mod.present.any() else None)
    cohort = Cohort(ids=ids, times=times, events=events, split=split, modalities=modalities,
                    teacher_probs=teacher_probs, metadata=meta)
    return cohort, n_pooled


def _pool_text(ids: list[str], pooled: dict[str, np.ndarray],
               hidden: dict[str, np.ndarray]) -> tuple[Modality | None, int]:
    """The text modality over `ids`: each sample's pooled vector, else the
    attention pool of its token states (None without either); and how many
    rows were pooled here."""
    text = _modality((list(pooled), np.stack(list(pooled.values()))) if pooled else None, ids)
    rows = [i for i, sid in enumerate(ids)
            if sid in hidden and (text is None or not text.present[i])]
    if not rows:
        return text, 0
    vectors = np.stack(pool_many([hidden[ids[i]] for i in rows]))
    if text is None:
        text = Modality.empty(len(ids), vectors.shape[1])
    elif text.values.shape[1] != vectors.shape[1]:
        raise ValueError(f"pooled token states have {vectors.shape[1]} dimensions, "
                         f"the pooled vectors {text.values.shape[1]}")
    text.values[rows] = vectors
    text.present[rows] = True
    return text, len(rows)


def _clinical_modality(clinical: list[dict[str, object] | None],
                       train_indices) -> tuple[Modality, dict]:
    """The cov modality of `_parse_clinical_table`'s rows (one entry per
    sample, None where absent), scaled with training statistics, and the
    metadata describing the encoding.

    Layout: [age, sex, race, stage, 7-way cancer-family one-hot]. Age and
    stage are min-max scaled with training extrema (test values may leave
    [0,1]; not clipped). Sex and race become majority-vs-other indicators,
    majority taken over the training split, ties to the lexicographically
    smallest label.
    """
    train_rows = [clinical[i] for i in train_indices if clinical[i] is not None]
    if not train_rows:
        raise ValueError("no raw clinical rows in the training split")

    ages = np.array([r["age"] for r in train_rows])
    stages = np.array([r["stage"] for r in train_rows])

    def majority(field_name: str) -> str:
        values = sorted(r[field_name] for r in train_rows)
        uniq, counts = np.unique(values, return_counts=True)
        return str(uniq[np.argmax(counts)])  # ties: first = lexicographic smallest

    sex_ref = majority("sex")
    race_ref = majority("race")
    stats = {
        "age_min": float(ages.min()), "age_max": float(ages.max()),
        "stage_min": float(stages.min()), "stage_max": float(stages.max()),
        "sex_majority": sex_ref, "race_majority": race_ref,
    }

    def scale(x: float, lo: float, hi: float) -> float:
        if hi == lo:
            return 0.0
        return (x - lo) / (hi - lo)

    cov = Modality.empty(len(clinical), 4 + len(CANCER_FAMILIES))
    for i, raw in enumerate(clinical):
        if raw is None:
            continue
        onehot = [1.0 if raw["cancer_type"] == f else 0.0 for f in CANCER_FAMILIES]
        cov.values[i] = [
            scale(raw["age"], stats["age_min"], stats["age_max"]),
            1.0 if raw["sex"] == sex_ref else 0.0,
            1.0 if raw["race"] == race_ref else 0.0,
            scale(raw["stage"], stats["stage_min"], stats["stage_max"]),
            *onehot,
        ]
        cov.present[i] = True
    layout = ["age", "sex", "race", "stage"] + [f"family_{f}" for f in CANCER_FAMILIES]
    return cov, {"cov_layout": layout, **stats}


def split_cohort(n: int, ratios=(0.70, 0.10, 0.20), seed: int = 0) -> CohortSplit:
    """Seeded shuffle of n samples, then floor sizes with the final split
    taking the remainder; `IngestConfig` checks the three ratios."""
    if n < 3:
        raise ValueError(f"cohort of {n} is too small to split")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(np.floor(ratios[0] * n))
    n_val = int(np.floor(ratios[1] * n))
    return CohortSplit(train=np.sort(perm[:n_train]),
                       val=np.sort(perm[n_train:n_train + n_val]),
                       test=np.sort(perm[n_train + n_val:]))


def outcome_arrays(cohort: Cohort, indices) -> tuple[np.ndarray, np.ndarray]:
    indices = np.asarray(indices, dtype=np.int64)
    return cohort.times[indices], cohort.events[indices]


def modality_matrix(cohort: Cohort, indices, modality: str) -> np.ndarray:
    """One modality's rows for `indices`; every selected sample must carry it."""
    indices = np.asarray(indices, dtype=np.int64)
    mod = cohort.modalities.get(modality)
    missing = indices if mod is None else indices[~mod.present[indices]]
    if mod is None or missing.size:
        who = f"sample {cohort.ids[missing[0]]!r}" if missing.size else "the cohort"
        raise ValueError(f"{who} lacks {modality}")
    return mod.values[indices]


# Bundle version 2: one .npy file per array and a meta.json written last.
BUNDLE_VERSION = 2
# On-disk dtype of each modality matrix. Text is stored in 32 bits, as the
# pooled-vector files it comes from are, and widened to float64 on load.
_MODALITY_DTYPES = {"text": "<f4", "cov": "<f8", "ge": "<f8"}
# What an error about a bundle's meta.json asks for.
_REINGEST = "re-ingest the raw files with `survfuse ingest`"


def _old_bundle_files(meta_path: str, keep: set[str]) -> list[str]:
    """Files the bundle described by an old meta.json holds beyond `keep`.

    Version 1 claims its "files" entries and outcomes.csv, version 2 its
    "arrays" entries as .npy files. Only plain file names are returned, so a
    meta.json cannot point outside its directory; an unreadable one claims
    nothing.
    """
    try:
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, ValueError):
        return []
    if not isinstance(meta, dict):
        return []
    names: list = []
    if meta.get("bundle_version") == 1 and isinstance(meta.get("files"), dict):
        names = ["outcomes.csv", *meta["files"].values()]
    elif meta.get("bundle_version") == BUNDLE_VERSION and isinstance(meta.get("arrays"), list):
        names = [f"{name}.npy" for name in meta["arrays"] if isinstance(name, str)]
    return [name for name in names
            if isinstance(name, str) and name not in keep and name not in ("", ".", "..")
            and os.path.basename(name) == name]


def save_bundle(cohort: Cohort, out_dir: str) -> list[str]:
    """Write a cohort as a version-2 bundle; float64 arrays round-trip bit-exactly.

    Every file is written to a temporary name and renamed into place, and
    meta.json goes last (an old one is removed first), so an interrupted
    write leaves a bundle that loads as incomplete. The files an old bundle
    in `out_dir` claims in its meta.json and this one does not write are
    deleted; no other file is. The split is stored as ids; token states and
    raw clinical fields are not stored. Returns the paths written, meta.json last.
    """
    os.makedirs(out_dir, exist_ok=True)
    meta_path = os.path.join(out_dir, formats.META)
    arrays = {"times": np.asarray(cohort.times, dtype="<f8"), "events": cohort.events}
    for name in MODALITY_ORDER:
        mod = cohort.modalities.get(name)
        if mod is not None:
            arrays[name] = np.asarray(mod.values, dtype=_MODALITY_DTYPES[name])
            arrays[f"{name}_present"] = mod.present
    if cohort.teacher_probs is not None:
        arrays["teacher_probs"] = np.asarray(cohort.teacher_probs, dtype="<f8")
    written = [os.path.join(out_dir, f"{name}.npy") for name in arrays]
    if os.path.exists(meta_path):
        stale = _old_bundle_files(meta_path, {os.path.basename(p) for p in written})
        os.remove(meta_path)
        for name in stale:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, name))
    for path, arr in zip(written, arrays.values()):
        formats.write_npy(path, arr)

    ids = list(cohort.ids)
    meta = {
        "bundle_version": BUNDLE_VERSION,
        "ids": ids,
        "metadata": cohort.metadata,
        "arrays": list(arrays),
        "split": {part: [ids[i] for i in rows] for part, rows in vars(cohort.split).items()},
    }
    with formats.atomic_open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1)
    return written + [meta_path]


def _expected_arrays(n: int, names: list[str]) -> dict[str, tuple[str, tuple]]:
    """Array name -> (dtype, shape with None for any width) for a bundle of n rows."""
    expected = {"times": ("<f8", (n,)), "events": ("|b1", (n,))}
    for name in MODALITY_ORDER:
        if name in names or f"{name}_present" in names:
            expected[name] = (_MODALITY_DTYPES[name], (n, None))
            expected[f"{name}_present"] = ("|b1", (n,))
    if "teacher_probs" in names:
        expected["teacher_probs"] = ("<f8", (n, len(HORIZONS)))
    return expected


def load_bundle(bundle_dir: str) -> Cohort:
    """Read a version-2 bundle; every array and the split are checked against `meta.json`."""
    meta = formats.read_meta(bundle_dir, "bundle_version", BUNDLE_VERSION, _REINGEST)
    meta_path = os.path.join(bundle_dir, formats.META)
    ids = meta.get("ids")
    if not isinstance(ids, list) or not formats.distinct_strings(ids):
        raise ValueError(f"{meta_path}: ids must be distinct strings; {_REINGEST}")
    names = meta.get("arrays")
    if not isinstance(names, list):
        raise ValueError(f"{meta_path}: no list of arrays")
    expected = _expected_arrays(len(ids), names)
    if sorted(names) != sorted(expected):
        raise ValueError(f"{meta_path}: arrays {sorted(names)}, expected {sorted(expected)}")
    split = _read_split(meta_path, meta.get("split"), ids)
    arrays = {name: formats.read_npy(os.path.join(bundle_dir, f"{name}.npy"), dtype, shape)
              for name, (dtype, shape) in expected.items()}
    times = arrays["times"]
    bad = np.flatnonzero(~((times > 0) & (times < math.inf)))  # NaN fails too
    if bad.size:
        raise ValueError(f"{os.path.join(bundle_dir, 'times.npy')}: follow-up time must be "
                         f"positive and finite, got {times[bad[0]]} for id {ids[bad[0]]!r}")
    modalities = {name: Modality(values=np.asarray(arrays[name], dtype=np.float64),
                                 present=arrays[f"{name}_present"])
                  for name in MODALITY_ORDER if name in arrays}
    return Cohort(ids=ids, times=times, events=arrays["events"], split=split,
                  modalities=modalities, teacher_probs=arrays.get("teacher_probs"),
                  metadata=meta["metadata"])


def _read_split(meta_path: str, stored, ids: list[str]) -> CohortSplit:
    """The rows of a bundle's split: a non-empty train, val and test list of
    `ids` that name each id exactly once (else an error naming `meta_path`)."""
    parts = tuple(CohortSplit.__dataclass_fields__)
    if not (isinstance(stored, dict) and sorted(stored) == sorted(parts)
            and all(isinstance(stored[part], list) and stored[part] for part in parts)):
        raise ValueError(f"{meta_path}: split must map each of {', '.join(parts)} to a "
                         f"non-empty list of ids; {_REINGEST}")
    index = {sid: i for i, sid in enumerate(ids)}
    unknown = [sid for part in parts for sid in stored[part]
               if not isinstance(sid, str) or sid not in index]
    if unknown:
        raise ValueError(f"{meta_path}: split names unknown ids {unknown[:5]}; {_REINGEST}")
    split = CohortSplit(**{part: np.array([index[sid] for sid in stored[part]], dtype=np.int64)
                           for part in parts})
    named = np.bincount(np.concatenate(list(vars(split).values())), minlength=len(ids))
    repeated = np.flatnonzero(named > 1)
    if repeated.size:
        raise ValueError(f"{meta_path}: split names id {ids[repeated[0]]!r} more than once; "
                         f"{_REINGEST}")
    left_out = np.flatnonzero(named == 0)
    if left_out.size:
        raise ValueError(f"{meta_path}: split leaves id {ids[left_out[0]]!r} out of every "
                         f"part; {_REINGEST}")
    return split
