"""Baselines, k-NN prediction, rank correlation, and the rolling backtest.

The panel protocol: at each trading period q (q >= 1), a metric is fit on
period q-1's features with that period's realized next-period returns as
targets, every asset's next return is predicted as the mean target of its k
nearest training assets under the metric, and the top-N predicted assets
form an equal-weight portfolio whose realized return is compounded.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import stats

from .data import PanelDataset, PanelPeriod, normalize_features
from .errors import ConfigError, DimensionMismatchError, NumericError
from .manifold import SpdMatrix, rowwise_quadratic
from .metric import inverse_covariance_metric as mahalanobis_metric

Array = np.ndarray

#: Builds a metric from one training window: (features, targets) -> SpdMatrix.
MetricProvider = Callable[[Array, Array], SpdMatrix]


@dataclass(frozen=True, eq=False)
class PortfolioResult:
    """Backtest output: per-period portfolio returns and derived series."""

    period_labels: list[str]
    period_returns: Array
    cumulative: Array
    rolling_mdd: Array
    annual_returns: dict[str, float]
    skipped_periods: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "periods": self.period_labels,
            "period_returns": [float(x) for x in self.period_returns],
            "cumulative": [float(x) for x in self.cumulative],
            "rolling_mdd": [float(x) for x in self.rolling_mdd],
            "annual_returns": {k: float(v) for k, v in self.annual_returns.items()},
            "skipped_periods": self.skipped_periods,
            "final_return": float(self.cumulative[-1]) if self.cumulative.size else 0.0,
            "max_drawdown": float(np.max(self.rolling_mdd)) if self.rolling_mdd.size else 0.0,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()) + "\n")


def euclidean_metric(features: Array) -> SpdMatrix:
    return SpdMatrix.identity(np.atleast_2d(features).shape[1])


def _metric_distances(w: SpdMatrix, train_features: Array, query: Array) -> Array:
    diffs = np.atleast_2d(train_features) - np.asarray(query, dtype=float)[None, :]
    return rowwise_quadratic(w.mat, diffs)


def knn_predict(
    w: SpdMatrix,
    train_features: Array,
    train_targets: Array,
    query: Array,
    k: int,
) -> float:
    """Mean target of the k nearest training rows under metric w.

    Distance ties break toward the lower row index.
    """
    train_features = np.atleast_2d(np.asarray(train_features, dtype=float))
    train_targets = np.asarray(train_targets, dtype=float)
    if train_features.shape[0] == 0:
        raise ConfigError("training set is empty")
    if k < 1 or k > train_features.shape[0]:
        raise ConfigError(f"k={k} out of range for {train_features.shape[0]} training rows")
    d = _metric_distances(w, train_features, query)
    nearest = np.argsort(d, kind="stable")[:k]
    return float(np.mean(train_targets[nearest]))


def knn_classify(
    w: SpdMatrix,
    train_features: Array,
    train_labels: Array,
    query: Array,
    k: int,
) -> object:
    """Majority vote of the k nearest neighbors; vote ties break toward the
    class whose nearest member is closest."""
    train_features = np.atleast_2d(np.asarray(train_features, dtype=float))
    train_labels = np.asarray(train_labels)
    if k < 1 or k > train_features.shape[0]:
        raise ConfigError(f"k={k} out of range for {train_features.shape[0]} training rows")
    d = _metric_distances(w, train_features, query)
    nearest = np.argsort(d, kind="stable")[:k]
    votes: dict = {}
    for rank, idx in enumerate(nearest):
        lab = train_labels[idx]
        cnt, first_rank = votes.get(lab, (0, rank))
        votes[lab] = (cnt + 1, first_rank)
    return max(votes, key=lambda lab: (votes[lab][0], -votes[lab][1]))


def knn_accuracy(
    w: SpdMatrix,
    train_features: Array,
    train_labels: Array,
    test_features: Array,
    test_labels: Array,
    k: int,
) -> float:
    test_features = np.atleast_2d(np.asarray(test_features, dtype=float))
    hits = sum(
        knn_classify(w, train_features, train_labels, q, k) == lab
        for q, lab in zip(test_features, np.asarray(test_labels))
    )
    return hits / len(test_features)


def spearman_ic(pred: Array, actual: Array) -> float:
    """Rank correlation (mean-rank ties) between predictions and realizations."""
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if pred.shape != actual.shape or pred.ndim != 1 or pred.size < 2:
        raise DimensionMismatchError("need two equal-length vectors of size >= 2")
    if np.ptp(pred) == 0 or np.ptp(actual) == 0:
        raise NumericError("rank correlation undefined for a constant vector")
    rho = stats.spearmanr(pred, actual).statistic
    return float(rho)


def accumulated_return(period_returns: Array) -> Array:
    """Compounded cumulative return series: c_k = prod(1 + r_i) - 1."""
    r = np.asarray(period_returns, dtype=float)
    if np.any(r <= -1):
        raise ConfigError("period returns must exceed -1")
    return np.cumprod(1.0 + r) - 1.0


def max_drawdown(cumulative_values: Array) -> float:
    """Largest peak-to-trough relative decline of a positive value series."""
    v = np.asarray(cumulative_values, dtype=float)
    if v.size == 0:
        raise ConfigError("empty value series")
    if np.any(v <= 0):
        raise ConfigError("values must be positive")
    peaks = np.maximum.accumulate(v)
    return float(np.max((peaks - v) / peaks))


def rolling_max_drawdown(cumulative_values: Array, window: int = 4) -> Array:
    """max_drawdown over a trailing window, evaluated at every index."""
    v = np.asarray(cumulative_values, dtype=float)
    if window < 1:
        raise ConfigError("window must be >= 1")
    return np.array([
        max_drawdown(v[max(0, i - window + 1): i + 1]) for i in range(v.size)
    ])


def _annual_groups(labels: Sequence[str], periods_per_year: int) -> dict[str, list[int]]:
    """Group period indices by the year embedded in the label, or by
    consecutive chunks when no year is recognizable."""
    years = [re.search(r"\d{4}", str(lab)) for lab in labels]
    groups: dict[str, list[int]] = {}
    if all(y is not None for y in years):
        for i, y in enumerate(years):
            groups.setdefault(y.group(), []).append(i)
    else:
        for i in range(len(labels)):
            groups.setdefault(f"year_{i // periods_per_year + 1}", []).append(i)
    return groups


def window_predictions(
    data: PanelDataset,
    metric_source: MetricProvider,
    k: int,
    normalize: bool = True,
):
    """Yield (period, predictions, skipped) for every tradable period.

    Training features are normalized with statistics fit on the training
    window only; the same statistics transform the prediction window.
    """
    for q in range(1, len(data.periods)):
        train_p = data.periods[q - 1]
        cur_p = data.periods[q]
        if train_p.features.shape[0] < k:
            yield cur_p, None, True
            continue
        feats = train_p.features
        query_feats = cur_p.features
        if normalize:
            feats, stats_ = normalize_features(feats)
            query_feats = stats_.apply(query_feats)
        w = metric_source(feats, train_p.next_returns)
        preds = np.array([
            knn_predict(w, feats, train_p.next_returns, qf, k) for qf in query_feats
        ])
        yield cur_p, preds, False


def backtest_from_predictions(
    data: PanelDataset,
    predictions: Sequence[tuple[PanelPeriod, Array | None, bool]],
    top_n: int,
    mdd_window: int = 4,
    periods_per_year: int = 4,
) -> PortfolioResult:
    """Form equal-weight top-N portfolios from per-period predictions.

    Prediction ties break toward the smaller asset id.  Periods whose
    predictions are missing are recorded as skipped.
    """
    labels, returns, skipped = [], [], []
    for period, preds, skip in predictions:
        if skip or preds is None:
            skipped.append(period.label)
            continue
        if top_n > len(period.asset_ids):
            raise ConfigError(f"top_n={top_n} exceeds {len(period.asset_ids)} assets")
        order = sorted(
            range(len(period.asset_ids)),
            key=lambda i: (-preds[i], period.asset_ids[i]),
        )
        chosen = order[:top_n]
        labels.append(period.label)
        returns.append(float(np.mean(period.next_returns[chosen])))
    returns = np.asarray(returns)
    cumulative = accumulated_return(returns) if returns.size else np.array([])
    wealth = 1.0 + cumulative
    mdd = rolling_max_drawdown(wealth, mdd_window) if returns.size else np.array([])
    annual = {}
    for year, idxs in _annual_groups(labels, periods_per_year).items():
        annual[year] = float(np.prod(1.0 + returns[idxs]) - 1.0)
    return PortfolioResult(
        period_labels=labels,
        period_returns=returns,
        cumulative=cumulative,
        rolling_mdd=mdd,
        annual_returns=annual,
        skipped_periods=skipped,
    )


def rolling_backtest(
    data: PanelDataset,
    metric_source: MetricProvider,
    k: int = 10,
    top_n: int = 10,
    mdd_window: int = 4,
    periods_per_year: int = 4,
    normalize: bool = True,
) -> PortfolioResult:
    """Walk the panel: fit a metric per window, predict with k-NN, trade top-N."""
    if len(data.periods) < 2:
        raise ConfigError("need at least two periods")
    preds = list(window_predictions(data, metric_source, k, normalize))
    return backtest_from_predictions(data, preds, top_n, mdd_window, periods_per_year)


def rolling_ic(
    predictions: Iterable[tuple[PanelPeriod, Array | None, bool]],
) -> list[tuple[str, float]]:
    """Per-period rank correlation between predictions and realizations.

    Takes the ``window_predictions`` output, as ``backtest_from_predictions``
    does; skipped periods are left out.
    """
    return [
        (period.label, spearman_ic(preds, period.next_returns))
        for period, preds, skip in predictions
        if not (skip or preds is None)
    ]


def ic_summary(ics: Sequence[tuple[str, float]]) -> dict:
    vals = np.array([v for _, v in ics], dtype=float)
    return {
        "n_periods": int(vals.size),
        "ic_mean": float(np.mean(vals)) if vals.size else float("nan"),
        "ic_std": float(np.std(vals)) if vals.size else float("nan"),
    }
