"""Datasets: normalization, synthetic generators, and file formats.

All randomness flows from one 64-bit seed: generators spawn child
SeedSequences (one per logical stream, in a fixed documented order) so that
adding a stream never perturbs the others.
"""

from __future__ import annotations

import csv
import logging
import math
import operator
from dataclasses import dataclass
from itertools import chain, groupby
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionMismatchError

logger = logging.getLogger(__name__)

Array = np.ndarray


@dataclass(frozen=True, eq=False)
class NormalizationStats:
    """Per-column mean/std fitted on a training window.

    Columns flagged degenerate (std below 1e-12) are centered only.
    """

    mean: Array
    std: Array
    degenerate: Array

    def apply(self, features: Array) -> Array:
        f = np.atleast_2d(np.asarray(features, dtype=float))
        if f.shape[1] != self.mean.size:
            raise DimensionMismatchError(
                f"feature dim {f.shape[1]} != fitted dim {self.mean.size}"
            )
        out = f - self.mean
        out[:, ~self.degenerate] /= self.std[~self.degenerate]
        return out


def normalize_features(features: Array) -> tuple[Array, NormalizationStats]:
    """Center and scale each column to zero mean, unit (population) variance.

    Returns the transformed matrix and the fitted statistics, so test
    windows can be transformed with training statistics only.
    """
    f = np.atleast_2d(np.asarray(features, dtype=float))
    if f.size == 0 or f.shape[0] < 2:
        raise ConfigError("need at least two samples to normalize")
    mean = f.mean(axis=0)
    std = f.std(axis=0)
    degenerate = std < 1e-12
    if degenerate.any():
        logger.warning(
            "%d constant feature column(s) left centered-only", int(degenerate.sum())
        )
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

    def __len__(self):
        return len(self.periods)


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


def _read_header(reader, path: str | Path, required: tuple[str, ...]) -> list[str]:
    """The CSV header row, checked to hold the required columns."""
    header = next(reader, None)
    if header is None:
        raise ConfigError(f"{path}: empty file, expected columns {', '.join(required)}")
    missing = [c for c in required if c not in header]
    if missing:
        raise ConfigError(f"{path}: missing column(s) {', '.join(missing)}")
    return header


def _feature_cols(header: list[str]) -> list[int]:
    return [i for i, c in enumerate(header) if c.startswith("f_")]


def _raise_first_fault(path: str | Path, header: list[str], cols: list[int],
                       key_names: tuple[str, ...] | None = None):
    """Walk the data rows again, one at a time, and raise the first fault in
    file order: a row whose field count differs from the header's, a ``cols``
    cell that is not a finite number (nan, inf or unparseable), or, given
    ``key_names``, a row whose fields in those columns an earlier row had."""
    key = operator.itemgetter(*map(header.index, key_names)) if key_names else None
    first_line = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in filter(None, reader):
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
            if key and first_line.setdefault(key(row), line) != line:
                held = ", ".join(f"{n} {v!r}" for n, v in zip(key_names, key(row)))
                raise ConfigError(f"{path}: lines {first_line[key(row)]} and {line} both hold {held}")
    raise ConfigError(f"{path}: changed while it was read")


def _read_rows(path: str | Path, required: tuple[str, ...], key_names: tuple[str, ...],
               value_cols, unique_keys: bool = False) -> tuple[list, Array]:
    """(keys, values) of a CSV file's data rows, in file order: ``keys`` holds
    each row's fields in the ``key_names`` columns (one field for one name, a
    tuple for more), ``values`` the (n_rows, n_cols) floats of the columns
    ``value_cols(header)``.  Blank lines are skipped.

    One streamed pass: each row's cells are picked by an ``itemgetter`` and
    chained into one ``map(float, ...)`` that ``np.fromiter`` collects, then
    one ``np.isfinite`` checks them all.  Only the keys are kept, not the
    rows.  On any fault, or a repeated key when ``unique_keys``, the file is
    walked again (``_raise_first_fault``) to name the first fault in file
    order; a file without data rows is rejected.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path, required)
        cols = value_cols(header)
        width = len(header)
        key = operator.itemgetter(*map(header.index, key_names))
        pick = operator.itemgetter(*cols) if len(cols) > 1 else lambda row: (row[cols[0]],)
        keys = []

        def picked():
            for row in filter(None, reader):
                if len(row) != width:
                    raise ValueError("ragged row")
                keys.append(key(row))
                yield pick(row)

        try:
            values = np.fromiter(map(float, chain.from_iterable(picked())), dtype=float)
        except ValueError:  # a ragged row or a cell float() cannot read
            values = None
    repeated = unique_keys and len(set(keys)) < len(keys)
    if values is None or repeated or not np.isfinite(values).all():
        _raise_first_fault(path, header, cols, key_names if unique_keys else None)
    if not keys:
        raise ConfigError(f"{path}: no data rows")
    return keys, values.reshape(-1, len(cols))


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
        if self.noise_scale < 0:
            raise ConfigError("noise_scale must be nonnegative")


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


def generate_synthetic_panel(
    spec: SyntheticSpec,
    periods: int = 12,
    assets_per_period: int = 30,
    start_year: int = 2017,
) -> PanelDataset:
    """Panel whose next-period returns are a linear function of the
    informative dims plus noise, with fresh assets every period.

    Period labels look like quarters (``2017Q1``) so annual grouping works.
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
        label = f"{start_year + p // 4}Q{p % 4 + 1}"
        out.append(PanelPeriod(
            label=label,
            asset_ids=[f"A{i:03d}" for i in range(assets_per_period)],
            features=features,
            next_returns=returns,
        ))
    return PanelDataset(out)
