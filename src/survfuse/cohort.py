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
class CohortSplit:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


@dataclass
class Cohort:
    """Samples as columns: ids, outcomes, the split ingest drew (row indices;
    clinical covariates are encoded with its training rows' statistics), an
    (N, d) float64 matrix per available input, whose row is all NaN exactly
    where a sample lacks that input, and the teacher's extracted (N, 3)
    horizon probabilities (NaN where missing; None without a teacher file).
    """

    ids: list[str]
    times: np.ndarray
    events: np.ndarray
    split: CohortSplit
    modalities: dict[str, np.ndarray] = field(default_factory=dict)
    teacher_probs: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.ids)
        self.times = np.asarray(self.times, dtype=np.float64)
        self.events = np.asarray(self.events, dtype=bool)
        if self.times.shape != (n,) or self.events.shape != (n,):
            raise ValueError(f"times and events must have shape ({n},)")
        for name, values in self.modalities.items():
            if name not in MODALITY_ORDER:
                raise ValueError(f"unknown modality {name!r}")
            if values.ndim != 2 or values.shape[0] != n:
                raise ValueError(f"{name} matrix must have {n} rows")
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


def _parse_clinical_table(path: str, allow_other: bool
                          ) -> tuple[tuple[list[str], dict[str, tuple]], set[str]]:
    """The kept clinical rows as (keys, columns by field), plus the ids
    excluded for a missing field.

    A kept row's age is a finite float, its stage a code and its cancer
    type a family (`cancer_family`); sex and race stay as given. A cell
    that does not parse is an error naming the file, id, line and column.
    """
    header, rows, lines = formats.read_csv_table(path)
    for col in ("id",) + CLINICAL_FIELDS:
        if col not in header:
            raise ValueError(f"{path}: covariates file missing column {col!r}")
    parsers = {"age": _age, "sex": str, "race": str, "stage": _stage_code,
               "cancer_type": lambda label: cancer_family(label, allow_other)}
    kept: dict[str, list] = {}
    excluded: set[str] = set()
    for lineno, row in zip(lines, rows):
        sid = row["id"]
        if sid in kept or sid in excluded:
            raise ValueError(f"{path}: duplicate covariate id {sid!r} (line {lineno})")
        cells = {c: row[c].strip() for c in CLINICAL_FIELDS}
        if "" in cells.values():
            excluded.add(sid)
            continue
        parsed = []
        for col, parse in parsers.items():
            try:
                parsed.append(parse(cells[col]))
            except ValueError as exc:
                raise ValueError(f"{path} id {sid!r} (line {lineno}): "
                                 f"column {col!r}: {exc}") from exc
        kept[sid] = parsed
    return (list(kept), dict(zip(parsers, zip(*kept.values())))), excluded


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


def _modality(path: str, table: tuple[list[str], np.ndarray] | None,
              ids: list[str]) -> np.ndarray | None:
    """The rows of `path`'s (keys, matrix) table in cohort order, a NaN row
    for each id it lacks (None for no table). A table that names no id of the
    cohort, or has no column, is an error naming `path`."""
    if table is None:
        return None
    keys, values = table
    rows = formats.id_rows(keys, ids)
    if not (rows >= 0).any():
        raise ValueError(f"{path}: names no sample of the cohort ({len(keys)} rows)")
    if not values.shape[1]:
        raise ValueError(f"{path}: no values per sample (a modality needs at least one column)")
    out = np.full((len(ids), values.shape[1]), np.nan)
    out[rows >= 0] = values[rows[rows >= 0]]
    return out


def load_cohort(config: IngestConfig, config_path: str,
                timings: dict[str, float] | None = None) -> tuple[Cohort, int]:
    """The cohort of the ingest config read from `config_path` (input paths
    are relative to its directory, and a split left empty is an error naming
    it), and how many samples' token states were pooled.

    One row per outcome in file order, less clinical rows with a missing
    field, censored at `horizon`; `_modality` aligns each sample-keyed table
    to those rows (clinical fields encoded with the training split's
    statistics first), and samples without a pooled vector get the attention
    pool of their token states. The time spent is added to `timings` under
    "read" and "pool".
    """
    paths = config.input_paths(config_path)
    clinical = config.schema == "clinical"
    with stage(timings, "read"):
        ids, times, events = read_outcomes(paths["outcomes"])
        cov, excluded = None, set()
        if "covariates" in paths and clinical:
            cov, excluded = _parse_clinical_table(paths["covariates"], config.allow_other)
        elif "covariates" in paths:
            cov = _parse_numeric_table(paths["covariates"], missing_to_zero=False)
        ge = _parse_numeric_table(paths["ge"], missing_to_zero=True) if "ge" in paths else None
        hidden = formats.read_hidden_states(paths["hidden"]) if "hidden" in paths else {}
        pooled = formats.read_pooled(paths["pooled"]) if "pooled" in paths else {}
        teacher = parse_teacher_file(paths["teacher"]) if "teacher" in paths else None

        for name, key, table in (("hidden states", "hidden", hidden),
                                 ("pooled vectors", "pooled", pooled)):
            widths = {v.shape[-1] for v in table.values()}
            if len(widths) > 1:
                raise ValueError(f"{paths[key]}: inconsistent {name} dimensions: "
                                 f"{sorted(widths)}")
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
        if clinical:
            cov, encoding = _clinical_modality(paths["covariates"], cov,
                                               [ids[i] for i in split.train])
            meta.update(encoding)
        text = (list(pooled), np.array(list(pooled.values()))) if "pooled" in paths else None
        modalities = {"text": _modality(paths.get("pooled"), text, ids),
                      "cov": _modality(paths.get("covariates"), cov, ids),
                      "ge": _modality(paths.get("ge"), ge, ids)}
        # a teacher file that names no sample of the cohort adds nothing
        teacher_probs = (_modality(paths["teacher"], (teacher.ids, teacher.probs), ids)
                         if teacher is not None and not set(teacher.ids).isdisjoint(ids)
                         else None)
    with stage(timings, "pool"):
        modalities["text"], n_pooled = _pool_text(modalities["text"], ids, hidden, paths)
    cohort = Cohort(ids=ids, times=times, events=events, split=split,
                    modalities={name: values for name, values in modalities.items()
                                if values is not None},
                    teacher_probs=teacher_probs, metadata=meta)
    return cohort, n_pooled


def _pool_text(text: np.ndarray | None, ids: list[str], hidden: dict[str, np.ndarray],
               paths: dict[str, str]) -> tuple[np.ndarray | None, int]:
    """The text matrix over `ids` (None without a pooled file) with each NaN
    row of a sample with token states filled, in place, with their attention
    pool (None still without either); and how many rows were pooled here."""
    rows = [i for i, sid in enumerate(ids)
            if sid in hidden and (text is None or np.isnan(text[i, 0]))]
    if not rows:
        return text, 0
    vectors = np.stack(pool_many([hidden[ids[i]] for i in rows]))
    if text is None:
        text = np.full((len(ids), vectors.shape[1]), np.nan)
    elif text.shape[1] != vectors.shape[1]:
        raise ValueError(f"{paths['hidden']}: pooled token states have {vectors.shape[1]} "
                         f"dimensions, the pooled vectors of {paths['pooled']} {text.shape[1]}")
    text[rows] = vectors
    return text, len(rows)


def _clinical_modality(path: str, table: tuple[list[str], dict[str, tuple]],
                       train_ids: list[str]) -> tuple[tuple[list[str], np.ndarray], dict]:
    """The cov table (keys, (K, 11) matrix) of `_parse_clinical_table`'s
    (keys, columns) of the file `path`, scaled with the statistics of the rows
    of `train_ids`, and the metadata describing the encoding; a table with no
    such row is an error naming `path`.

    Layout: [age, sex, race, stage, 7-way cancer-family one-hot]. Age and
    stage are min-max scaled with training extrema (test values may leave
    [0,1]; not clipped). Sex and race become majority-vs-other indicators,
    majority taken over the training split, ties to the lexicographically
    smallest label.
    """
    keys, columns = table
    train = formats.id_rows(train_ids, keys) >= 0
    if not train.any():
        raise ValueError(f"{path}: no clinical row names a sample of the training split")
    cols = {name: np.array(values) for name, values in columns.items()}

    def majority(name: str) -> str:
        uniq, counts = np.unique(cols[name][train], return_counts=True)
        return str(uniq[np.argmax(counts)])  # ties: first = lexicographic smallest

    ages, stages = cols["age"][train], cols["stage"][train]
    stats = {"age_min": float(ages.min()), "age_max": float(ages.max()),
             "stage_min": float(stages.min()), "stage_max": float(stages.max()),
             "sex_majority": majority("sex"), "race_majority": majority("race")}

    def scale(name: str) -> np.ndarray:
        lo, hi = stats[f"{name}_min"], stats[f"{name}_max"]
        return np.zeros(len(cols[name])) if hi == lo else (cols[name] - lo) / (hi - lo)

    matrix = np.column_stack([scale("age"), cols["sex"] == stats["sex_majority"],
                              cols["race"] == stats["race_majority"], scale("stage"),
                              cols["cancer_type"][:, None] == np.array(CANCER_FAMILIES)])
    layout = ["age", "sex", "race", "stage"] + [f"family_{f}" for f in CANCER_FAMILIES]
    return (keys, matrix), {"cov_layout": layout, **stats}


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
    """One modality's rows for `indices`; each selected sample must carry it (a row not NaN)."""
    indices = np.asarray(indices, dtype=np.int64)
    values = cohort.modalities.get(modality)
    missing = indices if values is None else indices[np.isnan(values[indices, 0])]
    if values is None or missing.size:
        who = f"sample {cohort.ids[missing[0]]!r}" if missing.size else "the cohort"
        raise ValueError(f"{who} lacks {modality}")
    return values[indices]


# Bundle version 3: one .npy file per array and a meta.json written last; a
# modality is one matrix, all NaN in the rows of the samples that lack it.
BUNDLE_VERSION = 3
# On-disk dtype of each modality matrix. Text is stored in 32 bits, as the
# pooled-vector files it comes from are, and widened to float64 on load.
_MODALITY_DTYPES = {"text": "<f4", "cov": "<f8", "ge": "<f8"}
# What an error about a bundle's meta.json asks for.
_REINGEST = "re-ingest the raw files with `survfuse ingest`"


def _old_bundle_files(meta_path: str, keep: set[str]) -> list[str]:
    """Files the bundle described by an old meta.json holds beyond `keep`.

    Version 1 claims its "files" entries and outcomes.csv, versions 2 and 3
    their "arrays" entries as .npy files. Only plain file names are returned, so a
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
    elif meta.get("bundle_version") in (2, 3) and isinstance(meta.get("arrays"), list):
        names = [f"{name}.npy" for name in meta["arrays"] if isinstance(name, str)]
    return [name for name in names
            if isinstance(name, str) and name not in keep and name not in ("", ".", "..")
            and os.path.basename(name) == name]


def save_bundle(cohort: Cohort, out_dir: str) -> list[str]:
    """Write a cohort as a version-3 bundle; float64 arrays round-trip bit-exactly.

    Every file is written to a temporary name and renamed into place, and
    meta.json goes last (an old one is removed first), so an interrupted
    write leaves a bundle that loads as incomplete. The files an old bundle
    in `out_dir` claims in its meta.json and this one does not write are
    deleted; no other file is. The split is stored as ids; token states and
    raw clinical fields are not stored. Returns the paths written, meta.json last.
    """
    meta_path = os.path.join(out_dir, formats.META)
    arrays = {"times": np.asarray(cohort.times, dtype="<f8"), "events": cohort.events}
    for name in MODALITY_ORDER:
        if name in cohort.modalities:
            arrays[name] = np.asarray(cohort.modalities[name], dtype=_MODALITY_DTYPES[name])
    if cohort.teacher_probs is not None:
        arrays["teacher_probs"] = np.asarray(cohort.teacher_probs, dtype="<f8")
    if os.path.exists(meta_path):
        stale = _old_bundle_files(meta_path, {f"{name}.npy" for name in arrays})
        os.remove(meta_path)
        for name in stale:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, name))
    ids = list(cohort.ids)
    return formats.write_arrays(out_dir, arrays, {
        "bundle_version": BUNDLE_VERSION,
        "ids": ids,
        "metadata": cohort.metadata,
        "arrays": list(arrays),
        "split": {part: [ids[i] for i in rows] for part, rows in vars(cohort.split).items()},
    })


def load_bundle(bundle_dir: str) -> Cohort:
    """Read a version-3 bundle; every array and the split are checked against
    `meta.json`, each modality row is all finite or all NaN, and each teacher
    probability is NaN or in [0, 1] (else an error naming the file and id)."""
    meta = formats.read_meta(bundle_dir, "bundle_version", BUNDLE_VERSION, _REINGEST)
    meta_path = os.path.join(bundle_dir, formats.META)
    ids = meta.get("ids")
    if not isinstance(ids, list) or not formats.distinct_strings(ids):
        raise ValueError(f"{meta_path}: ids must be distinct strings; {_REINGEST}")
    names = meta.get("arrays")
    if not isinstance(names, list):
        raise ValueError(f"{meta_path}: no list of arrays")
    # array name -> (dtype, shape with None for any width)
    n = len(ids)
    expected = {"times": ("<f8", (n,)), "events": ("|b1", (n,)),
                **{name: (_MODALITY_DTYPES[name], (n, None)) for name in MODALITY_ORDER
                   if name in names}}
    if "teacher_probs" in names:
        expected["teacher_probs"] = ("<f8", (n, len(HORIZONS)))
    if sorted(names) != sorted(expected):
        raise ValueError(f"{meta_path}: arrays {sorted(names)}, expected {sorted(expected)}")
    split = _read_split(meta_path, meta.get("split"), ids)
    arrays = {name: formats.read_npy(os.path.join(bundle_dir, f"{name}.npy"), dtype, shape)
              for name, (dtype, shape) in expected.items()}
    times, probs = arrays["times"], arrays.get("teacher_probs")
    bad = np.flatnonzero(~((times > 0) & (times < math.inf)))  # NaN fails too
    if bad.size:
        raise ValueError(f"{os.path.join(bundle_dir, 'times.npy')}: follow-up time must be "
                         f"positive and finite, got {times[bad[0]]} for id {ids[bad[0]]!r}")
    bad = np.argwhere((probs < 0) | (probs > 1)) if probs is not None else ()  # NaN passes
    if len(bad):
        raise ValueError(f"{os.path.join(bundle_dir, 'teacher_probs.npy')}: a teacher probability "
                         f"must be NaN or lie in [0, 1], got {probs[tuple(bad[0])]} for id "
                         f"{ids[bad[0][0]]!r}")
    modalities = {name: np.asarray(arrays[name], dtype=np.float64)
                  for name in MODALITY_ORDER if name in arrays}
    for name, values in modalities.items():
        _check_rows(os.path.join(bundle_dir, f"{name}.npy"), values, ids)
    return Cohort(ids=ids, times=times, events=arrays["events"], split=split,
                  modalities=modalities, teacher_probs=probs,
                  metadata=meta["metadata"])


def _check_rows(path: str, values: np.ndarray, ids: list[str]) -> None:
    """Refuse a matrix without columns, and a row that is neither all finite
    nor all NaN, naming `path` and the row's id; blocks of about 2**16
    values keep the temporaries small."""
    width = values.shape[1]
    if not width:
        raise ValueError(f"{path}: no columns, so no row can mark a sample that lacks it")
    step = max(1, (1 << 16) // width)
    for start in range(0, len(values), step):
        block = values[start:start + step]
        bad = np.flatnonzero(~np.isfinite(block).all(axis=1) & ~np.isnan(block).all(axis=1))
        if bad.size:
            raise ValueError(f"{path}: the row of id {ids[start + bad[0]]!r} must be all "
                             f"finite, or all NaN where the sample lacks this input")


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
