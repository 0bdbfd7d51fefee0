"""Datasets: normalization, synthetic generators, and file formats (the
labeled and panel CSVs and the learned model's JSON).

All randomness flows from one 64-bit seed: generators spawn child
SeedSequences (one per logical stream, in a fixed documented order) so that
adding a stream never perturbs the others.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import operator
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import ConfigError, DimensionMismatchError, require_keys
from .manifold import SpdMatrix

if TYPE_CHECKING:
    from .solver import RunTrace

logger = logging.getLogger(__name__)

Array = np.ndarray


def positions_by_key(keys: Iterable) -> dict[object, list[int]]:
    """``{key: [positions]}`` of equal keys, in order of first appearance."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


@dataclass(frozen=True, eq=False)
class NormalizationStats:
    """Per-column mean/std fitted on a training window, or (B, d) ones fitted
    on each window of a stack.

    Columns flagged degenerate (std below 1e-12) are centered only.
    """

    mean: Array
    std: Array
    degenerate: Array

    def apply(self, features: Array) -> Array:
        f = np.atleast_2d(np.asarray(features, dtype=float))
        if f.shape[-1] != self.mean.shape[-1]:
            raise DimensionMismatchError(
                f"feature dim {f.shape[-1]} != fitted dim {self.mean.shape[-1]}"
            )
        out = f - self.mean[..., None, :]
        out /= np.where(self.degenerate, 1.0, self.std)[..., None, :]  # centered only: divided by 1
        return out


def normalize_features(features: Array) -> tuple[Array, NormalizationStats]:
    """Center and scale each column to zero mean, unit (population) variance.

    Returns the transformed matrix and the fitted statistics, so test
    windows can be transformed with training statistics only.  With a
    leading window axis each window gets its own statistics, as alone.
    """
    f = np.atleast_2d(np.asarray(features, dtype=float))
    if f.size == 0 or f.shape[-2] < 2:
        raise ConfigError("need at least two samples to normalize")
    mean = f.mean(axis=-2)
    std = f.std(axis=-2)
    degenerate = std < 1e-12
    for count in np.atleast_1d(degenerate.sum(axis=-1)):
        if count:
            logger.warning("%d constant feature column(s) left centered-only", count)
    stats = NormalizationStats(mean=mean, std=std, degenerate=degenerate)
    return stats.apply(f), stats


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Class-labeled samples with a real-valued regression target."""

    features: Array
    labels: Array
    targets: Array

    def __post_init__(self):
        f = np.atleast_2d(np.asarray(self.features, dtype=float))
        if f.shape[0] != len(self.labels) or f.shape[0] != len(self.targets):
            raise DimensionMismatchError("features/labels/targets disagree on sample count")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", np.asarray(self.labels))
        object.__setattr__(self, "targets", np.asarray(self.targets, dtype=float))


@dataclass(frozen=True, eq=False)
class PanelPeriod:
    label: str
    asset_ids: list[str]
    features: Array
    next_returns: Array

    def __post_init__(self):
        f = np.atleast_2d(np.asarray(self.features, dtype=float))
        r = np.asarray(self.next_returns, dtype=float)
        if f.shape[0] != len(self.asset_ids) or r.shape != (len(self.asset_ids),):
            raise DimensionMismatchError(
                f"period {self.label!r}: {len(self.asset_ids)} assets, "
                f"features {f.shape}, returns {r.shape}"
            )
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "next_returns", r)


@dataclass(frozen=True, eq=False)
class PanelDataset:
    """Ordered panel of periods, each with assets, features, and next returns."""

    periods: list[PanelPeriod]

    def __post_init__(self):
        labels = [p.label for p in self.periods]
        if sorted(labels) != labels or len(set(labels)) != len(labels):
            raise ConfigError("period labels must be strictly increasing")


# ---------------------------------------------------------------------------
# CSV formats.

def write_labeled_csv(data: LabeledDataset, path: str | Path) -> None:
    dim = data.features.shape[1]
    header = ["label", "target"] + [f"f_{i}" for i in range(dim)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for lab, tgt, row in zip(data.labels, data.targets, data.features):
            writer.writerow([lab, repr(float(tgt))] + [repr(float(x)) for x in row])


def _csv_rows(reader, path: str | Path):
    """The rows of a ``csv.reader``; a fault ``csv`` raises on, such as a field
    over its size limit, is an input error naming the file and line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ConfigError(f"{path}: line {reader.line_num}: {exc}") from exc


def _read_header(reader, path: str | Path, required: tuple[str, ...]) -> list[str]:
    """The CSV header row, checked to hold the required columns and at least
    one feature column ``f_*``."""
    header = next(_csv_rows(reader, path), None)
    if header is None:
        raise ConfigError(f"{path}: empty file, expected columns {', '.join(required)}")
    missing = [c for c in required if c not in header]
    if missing:
        raise ConfigError(f"{path}: missing column(s) {', '.join(missing)}")
    if not _feature_cols(header):
        raise ConfigError(f"{path}: no feature column (f_0, f_1, ...)")
    return header


def _feature_cols(header: list[str]) -> list[int]:
    return [i for i, c in enumerate(header) if c.startswith("f_")]


#: The ASCII information separators U+001C..U+001F: numpy's float parser
#: strips them around a number as whitespace, Python's ``float`` rejects them.
_SEPARATORS = b"\x1c\x1d\x1e\x1f"


def _holds_separator(path: str | Path) -> bool:
    with open(path, "rb") as fh:
        return any(sep in chunk for chunk in iter(partial(fh.read, 1 << 16), b"")
                   for sep in _SEPARATORS)


def _raise_first_fault(path: str | Path, header: list[str], cols: list[int],
                       key_names: tuple[str, ...], unique_keys: bool) -> tuple[list, Array]:
    """The exact reader that ``_read_rows`` falls back to: walk the data rows
    one at a time, as ``csv`` and Python's ``float`` read them, and raise the
    first fault in file order: a row whose field count differs from the
    header's, a ``cols`` cell that is not a finite number (nan, inf or
    unparseable), or, when ``unique_keys``, a row whose ``key_names`` fields
    an earlier row had.  A file without a fault (one whose cells use a
    spelling only ``float`` reads, such as ``1_0`` or ``١٢``) gives
    ``(keys, values)`` as ``_read_rows`` returns them."""
    key = operator.itemgetter(*map(header.index, key_names))
    first_line, keys, values = {}, [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in filter(None, _csv_rows(reader, path)):
            line = reader.line_num
            if len(row) != len(header):
                raise ConfigError(
                    f"{path}: line {line} has {len(row)} fields, header has {len(header)}"
                )
            for i in cols:
                try:
                    value = float(row[i])
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise ConfigError(
                        f"{path}: line {line}, column {header[i]}: {row[i]!r} is not a finite number"
                    )
                values.append(value)
            keys.append(key(row))
            if unique_keys and first_line.setdefault(key(row), line) != line:
                held = ", ".join(f"{n} {v!r}" for n, v in zip(key_names, key(row)))
                raise ConfigError(f"{path}: lines {first_line[key(row)]} and {line} both hold {held}")
    return keys, np.array(values, dtype=float).reshape(-1, len(cols))


def _read_rows(path: str | Path, required: tuple[str, ...], key_names: tuple[str, ...],
               value_cols, unique_keys: bool = False) -> tuple[list, Array]:
    """(keys, values) of a CSV file's data rows, in file order: ``keys`` holds
    each row's fields in the ``key_names`` columns (one field for one name, a
    tuple for more), ``values`` the (n_rows, n_cols) floats of the columns
    ``value_cols(header)``.  Blank lines are skipped.

    One C-level parse: ``np.loadtxt`` reads the rows after the header into a
    structured array, a float field for each value column and an object
    field (the cell's text) for every other column.  Its doubles are bitwise
    those of Python's ``float``, but it rejects some spellings ``float``
    reads.  So on any failure (it raises, a value is not finite, a key
    repeats when ``unique_keys``, or the file holds one of ``_SEPARATORS``)
    the exact walk ``_raise_first_fault`` reads the file again: it raises the
    first fault in file order, or returns the rows.  A file without data rows
    is rejected.
    """
    with open(path, newline="") as fh:
        header = _read_header(csv.reader(fh), path, required)
        cols = value_cols(header)
        names = [str(header.index(n)) for n in key_names]
        fields = np.dtype([(str(i), float if i in cols else object) for i in range(len(header))])
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", ".*contained no data", UserWarning)
                table = np.loadtxt(fh, dtype=fields, delimiter=",", quotechar='"',
                                   comments=None, ndmin=1)
        except ValueError:  # a ragged row or a cell the C parser cannot read
            table = None
    if table is not None:
        keys = table[names].tolist() if len(names) > 1 else table[names[0]].tolist()
        values = np.column_stack([table[str(i)] for i in cols])
    if (table is None or (unique_keys and len(set(keys)) < len(keys))
            or not np.isfinite(values).all() or _holds_separator(path)):
        keys, values = _raise_first_fault(path, header, cols, key_names, unique_keys)
    if not keys:
        raise ConfigError(f"{path}: no data rows")
    return keys, values


def read_labeled_csv(path: str | Path) -> LabeledDataset:
    """Load columns (label, target, f_0..); a target or feature that is not a
    finite number is rejected."""
    labels, values = _read_rows(path, ("label", "target"), ("label",),
                                lambda h: [h.index("target")] + _feature_cols(h))
    return LabeledDataset(values[:, 1:].copy(), np.array(labels), values[:, 0].copy())


def write_panel_csv(data: PanelDataset, path: str | Path) -> None:
    dim = data.periods[0].features.shape[1]
    header = ["period", "asset_id"] + [f"f_{i}" for i in range(dim)] + ["next_return"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for p in data.periods:
            for i, aid in enumerate(p.asset_ids):
                writer.writerow(
                    [p.label, aid]
                    + [repr(float(x)) for x in p.features[i]]
                    + [repr(float(p.next_returns[i]))]
                )


def read_panel_csv(path: str | Path) -> PanelDataset:
    """Load a panel from CSV columns (period, asset_id, f_0.., next_return);
    a feature or next return that is not a finite number, or a second row
    for one (period, asset_id), is rejected."""
    keys, values = _read_rows(path, ("period", "asset_id", "next_return"), ("period", "asset_id"),
                              lambda h: _feature_cols(h) + [h.index("next_return")],
                              unique_keys=True)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    values = values[order]
    periods, start = [], 0
    for label, group in groupby((keys[i] for i in order), key=operator.itemgetter(0)):
        asset_ids = [asset for _, asset in group]
        block = values[start:start + len(asset_ids)]
        start += len(asset_ids)
        periods.append(PanelPeriod(
            label=label,
            asset_ids=asset_ids,
            features=block[:, :-1].copy(),
            next_returns=block[:, -1].copy(),
        ))
    return PanelDataset(periods)


# ---------------------------------------------------------------------------
# Model JSON (written by ``train``, read by ``--metric learned``).

@dataclass(frozen=True, eq=False)
class MetricModel:
    """A learned metric with its reference point and bounds; ``trace``, the
    run's records, is set by ``train`` and is None on a model read by ``load``."""

    w: SpdMatrix
    w0: SpdMatrix
    u: float
    l: float
    trace: RunTrace | None = None

    def to_json_dict(self) -> dict:
        return {
            "dim": self.w.dim,
            "w": [float(x) for x in self.w.mat.ravel()],
            "w0": [float(x) for x in self.w0.mat.ravel()],
            "u": self.u,
            "l": self.l,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "MetricModel":
        obj = json.loads(Path(path).read_text())
        require_keys(obj, ("dim", "w", "w0", "u", "l"), f"model file {path}")
        n = obj["dim"]
        if type(n) is not int or n < 1:  # excludes a JSON true, whose type is bool
            raise ConfigError(f"model file {path}: dim must be an integer >= 1, got {n!r}")

        def number(x, key: str) -> float:
            if type(x) not in (int, float):  # a JSON bool, string, null, list or object
                raise ConfigError(f"model file {path}: {key} must hold numbers only, got {x!r}")
            return float(x)

        def matrix(key: str) -> SpdMatrix:
            # Row-major entries of an n x n matrix, validated as SPD.
            entries = obj[key] if type(obj[key]) is list else [obj[key]]
            data = np.array([number(x, key) for x in entries])
            if data.size != n * n:
                raise DimensionMismatchError(f"{key}: expected {n * n} entries, got {data.size}")
            return SpdMatrix(data.reshape(n, n))

        return cls(w=matrix("w"), w0=matrix("w0"), u=number(obj["u"], "u"), l=number(obj["l"], "l"))


# ---------------------------------------------------------------------------
# Synthetic generators.

@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic dataset that deliberately misleads the
    Euclidean metric: class structure lives in a few informative dimensions
    while the remaining dimensions carry higher-variance pure noise."""

    classes: int = 2
    samples: int = 200
    dim: int = 20
    informative_dims: int = 4
    noise_scale: float = 3.0
    seed: int = 0
    cluster_sep: float = 2.0
    target_noise: float = 0.1

    def __post_init__(self):
        if self.informative_dims > self.dim:
            raise ConfigError("informative_dims must not exceed dim")
        if self.classes < 1 or self.samples < 1 or self.dim < 1 or self.informative_dims < 1:
            raise ConfigError("counts must be positive")
        if not 0 <= self.noise_scale < math.inf:
            raise ConfigError(f"noise_scale must be finite and nonnegative, got {self.noise_scale}")
        if not (math.isfinite(self.cluster_sep) and math.isfinite(self.target_noise)):
            raise ConfigError(f"cluster_sep and target_noise must be finite, got "
                              f"{self.cluster_sep} and {self.target_noise}")


def generate_synthetic(spec: SyntheticSpec) -> LabeledDataset:
    """Gaussian class clusters separated only in the informative dims.

    Noise dims are N(0, noise_scale^2) for every class.  The regression
    target is a fixed linear function of the informative dims plus noise.
    Everything derives deterministically from the seed.
    """
    ss = np.random.SeedSequence(spec.seed)
    ss_centers, ss_labels, ss_info, ss_noise, ss_target = ss.spawn(5)

    rng_centers = np.random.default_rng(ss_centers)
    centers = rng_centers.normal(size=(spec.classes, spec.informative_dims))
    centers *= spec.cluster_sep / np.maximum(np.linalg.norm(centers, axis=1, keepdims=True), 1e-12)

    labels = np.random.default_rng(ss_labels).integers(0, spec.classes, size=spec.samples)
    info = centers[labels] + np.random.default_rng(ss_info).normal(
        size=(spec.samples, spec.informative_dims)
    )
    n_noise = spec.dim - spec.informative_dims
    noise = np.random.default_rng(ss_noise).normal(
        scale=max(spec.noise_scale, 1e-12), size=(spec.samples, n_noise)
    )
    features = np.hstack([info, noise]) if n_noise else info

    rng_t = np.random.default_rng(ss_target)
    coef = rng_t.normal(size=spec.informative_dims)
    targets = info @ coef + spec.target_noise * rng_t.normal(size=spec.samples)
    return LabeledDataset(features, labels, targets)


def generate_synthetic_panel(spec: SyntheticSpec, periods: int,
                             assets_per_period: int) -> PanelDataset:
    """Panel whose next-period returns are a linear function of the
    informative dims plus noise, with fresh assets every period.

    Period labels are quarters from ``2017Q1`` on, so annual grouping works.
    """
    if periods < 1 or assets_per_period < 1:
        raise ConfigError(f"a panel needs at least one period and one asset, got "
                          f"periods={periods}, assets_per_period={assets_per_period}")
    ss = np.random.SeedSequence(spec.seed)
    ss_coef, *period_seeds = ss.spawn(1 + periods)
    coef = np.random.default_rng(ss_coef).normal(size=spec.informative_dims)
    coef *= 0.05 / max(np.linalg.norm(coef), 1e-12)

    out = []
    n_noise = spec.dim - spec.informative_dims
    for p in range(periods):
        rng = np.random.default_rng(period_seeds[p])
        info = rng.normal(size=(assets_per_period, spec.informative_dims))
        noise = rng.normal(scale=max(spec.noise_scale, 1e-12), size=(assets_per_period, n_noise))
        features = np.hstack([info, noise]) if n_noise else info
        returns = info @ coef + spec.target_noise * 0.05 * rng.normal(size=assets_per_period)
        out.append(PanelPeriod(
            label=f"{2017 + p // 4}Q{p % 4 + 1}",
            asset_ids=[f"A{i:03d}" for i in range(assets_per_period)],
            features=features,
            next_returns=returns,
        ))
    return PanelDataset(out)
