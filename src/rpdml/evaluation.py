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

from .data import PanelDataset, PanelPeriod, normalize_features
from .errors import ConfigError, DimensionMismatchError, NumericError
from .manifold import SpdMatrix
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


#: Queries screened together by ``knn_neighbors``: one (block, n_train)
#: distance screen at a time, so its memory does not grow with the batch.
KNN_BLOCK = 32


def _sq_distances(rows: Array, z_q: Array) -> Array:
    """Squared Euclidean distance of every gathered row to z_q (broadcast),
    each row summed on its own: ``rows`` (a copy) is overwritten by the
    differences, which one 2-D row-wise ``einsum`` then sums, flattened."""
    rows -= z_q
    diffs = rows.reshape(-1, rows.shape[-1])
    return np.einsum("ij,ij->i", diffs, diffs)


def _k_smallest(dist: Array, k: int) -> Array:
    """Positions of the k smallest distances, nearest first; a tie goes to the
    lower position, even when more than k positions tie at the k-th distance."""
    cand = (dist <= np.partition(dist, k - 1)[k - 1]).nonzero()[0]
    return cand[dist[cand].argsort(kind="stable")[:k]]


def _partition(screen: Array, k: int) -> tuple[Array, Array]:
    """Positions of each row's k smallest values, ascending, and the row's
    (k + 1)-th smallest value, from one ``argpartition`` at ``kth=k``."""
    part = np.argpartition(screen, k, axis=1)
    return np.sort(part[:, :k], axis=1), screen[np.arange(screen.shape[0]), part[:, k]]


def knn_neighbors(w: SpdMatrix, train_features: Array, queries: Array, k: int) -> Array:
    """Row indices of the k nearest training rows of every query, nearest first.

    With W = L L^T, the squared distance (x - q)^T W (x - q) is the squared
    Euclidean norm of x L - q L, so the training and query rows are
    transformed once by the Cholesky factor (``einsum``, row by row).  The
    answer is fixed by the exact distances, each a row-wise ``subtract`` and
    ``einsum`` of one row pair: the k rows that come first in (distance, row
    index) order, ranked in that order, so distance ties break toward the
    lower row index even when more than k rows tie at the k-th distance.

    Queries are ranked in blocks of ``KNN_BLOCK``.  A block's screen is one
    BLAS product, into one reused buffer, of the rows [-2 q, 1] with the
    (d + 1, n_train) basis [x^T; |x|^2], built once per call and also where
    the transformed training rows are kept.  It gives s(x) = |x|^2 - 2 q.x
    (the scaling by -2 is exact): the distance less |q|^2, which is the same
    along a query's row.  One partition at ``kth=k`` gives each query its k
    screened rows and its (k + 1)-th screen value.  The screened rows' exact
    distances are computed, and tau is the largest.

    The margin.  With u = eps / 2 and R = (|q| + max |x|)^2, a rounded sum of
    n products, in any order and with FMA or not, errs by at most n u times
    the sum of the terms' sizes, plus n half-subnormals of underflow.  The
    screen (d + 1 terms, one of them |x|^2 rounded over d terms) and the
    rounded |q|^2 (d terms) err from the true distance by about (2 d + 1) u R;
    the exact distance (d + 2 roundings of nonnegative terms) by (d + 2) u R;
    the threshold tau - |q|^2 + m by 2 u R, one rounding per operation.
    Underflow adds at most 2 d smallest subnormals.  So m = 8 (d + 4)
    (eps R + the smallest subnormal) covers the (3 d + 5) u R of the three:
    a row screened above the threshold has an exact distance above tau, and
    cannot be among the k.

    When the (k + 1)-th screen value is above the threshold, the k screened
    rows are the answer, ranked by exact distance (with k equal to n_train
    every row is, and there is no screen).  Otherwise (ties or near-ties at
    the k-th distance) the query ranks on its own the exact distances of the
    rows screened at or below the threshold, or of every row when R is not
    below a quarter of the largest float (a screen that could overflow, from
    |z| ~ 1e154 on).  The screen only chooses which exact distances are
    ranked, never the answer, so a query's neighbors do not depend on the
    other queries of the batch or on the BLAS.

    A transformed row that is not finite raises ``NumericError``.  Returns an
    (n_queries, k) int array.
    """
    train_features = np.atleast_2d(np.asarray(train_features, dtype=float))
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    n_train, dim = train_features.shape
    if k < 1 or k > n_train:
        raise ConfigError(f"k={k} out of range for {n_train} training rows")
    if dim != w.dim or queries.shape[1] != w.dim:
        raise DimensionMismatchError(
            f"train dim {dim} and query dim {queries.shape[1]} must equal metric dim {w.dim}"
        )
    try:
        chol = np.linalg.cholesky(w.mat)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"metric has no Cholesky factor: {exc}") from exc
    z_train = np.einsum("ij,jk->ik", train_features, chol)
    z_queries = np.einsum("ij,jk->ik", queries, chol)
    if not (np.isfinite(z_train).all() and np.isfinite(z_queries).all()):
        raise NumericError("k-NN input has a nan or inf after the metric transform")
    sq_train = np.einsum("ij,ij->i", z_train, z_train)
    sq_queries = np.einsum("ij,ij->i", z_queries, z_queries)
    finfo = np.finfo(float)
    # The screen's basis [x^T; |x|^2] holds the transformed training rows
    # once: z_train becomes a view of it.
    basis = np.empty((dim + 1, n_train))
    basis[:dim] = z_train.T
    basis[dim] = sq_train
    z_train = basis[:dim].T
    augmented = np.ones((KNN_BLOCK, dim + 1))
    screen = np.empty((KNN_BLOCK, n_train))
    lanes = np.arange(KNN_BLOCK)
    out = np.empty((z_queries.shape[0], k), dtype=np.intp)
    # A query whose screen could overflow is ranked over every row instead.
    with np.errstate(over="ignore", invalid="ignore"):
        reach = (np.sqrt(sq_queries) + np.sqrt(sq_train.max())) ** 2
        offsets = 8 * (dim + 4) * (finfo.eps * reach + finfo.smallest_subnormal) - sq_queries
        screenable = reach < finfo.max / 4
        for start in range(0, z_queries.shape[0], KNN_BLOCK):
            block = slice(start, start + KNN_BLOCK)
            z_q = z_queries[block]
            n_q = z_q.shape[0]
            if k == n_train:
                screened = np.broadcast_to(np.arange(n_train), (n_q, k))
            else:
                np.multiply(z_q, -2.0, out=augmented[:n_q, :dim])
                np.matmul(augmented[:n_q], basis, out=screen[:n_q])
                screened, following = _partition(screen[:n_q], k)
            exact = _sq_distances(z_train[screened], z_q[:, None]).reshape(screened.shape)
            out[block] = screened[lanes[:n_q, None], exact.argsort(axis=1, kind="stable")]
            if k == n_train:
                continue
            threshold = exact.max(axis=1) + offsets[block]
            for i in (~(screenable[block] & (following > threshold))).nonzero()[0]:
                rows = ((screen[i] <= threshold[i]).nonzero()[0] if screenable[start + i]
                        else np.arange(n_train))
                out[start + i] = rows[_k_smallest(_sq_distances(z_train[rows], z_q[i]), k)]
    return out


def knn_predict(train_targets: Array, neighbors: Array) -> Array:
    """Mean target of each query's neighbors (a ``knn_neighbors`` result).

    The mean runs over the neighbor indices in ascending order, so the same
    neighbor set gives a bitwise-equal prediction whatever its ranking.
    """
    return np.asarray(train_targets, dtype=float)[np.sort(neighbors, axis=1)].mean(axis=1)


def knn_classify(train_labels: Array, neighbors: Array) -> list:
    """Majority vote of each query's neighbors (a ``knn_neighbors`` result);
    vote ties break toward the class whose nearest member is closest.

    Votes and each class's nearest rank are counted in (n_queries, n_classes)
    arrays; a class absent from a query's neighbors keeps rank k.  With
    votes <= k and ranks in [0, k], ``votes * (k + 1) - nearest_rank``
    orders classes by votes first, then by the nearer first member.
    """
    classes, codes = np.unique(np.asarray(train_labels), return_inverse=True)
    neighbors = np.asarray(neighbors)
    n_queries, k = neighbors.shape
    cells = (np.arange(n_queries)[:, None], codes[neighbors])
    votes = np.zeros((n_queries, classes.size), dtype=np.intp)
    np.add.at(votes, cells, 1)
    first_rank = np.full_like(votes, k)
    np.minimum.at(first_rank, cells, np.arange(k))
    return list(classes[np.argmax(votes * (k + 1) - first_rank, axis=1)])


def knn_accuracy(train_labels: Array, neighbors: Array, test_labels: Array) -> float:
    """Share of queries whose ``knn_classify`` vote equals their label."""
    test_labels = np.asarray(test_labels)
    hits = np.count_nonzero(np.asarray(knn_classify(train_labels, neighbors)) == test_labels)
    return hits / len(test_labels)


def _average_ranks(v: Array) -> Array:
    """1-based ranks of v; each run of tied values shares the mean of its ranks."""
    _, inv, counts = np.unique(v, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((2 * ends - counts + 1) / 2.0)[inv]


def spearman_ic(pred: Array, actual: Array) -> float:
    """Rank correlation between predictions and realizations: average ranks
    for ties, then the Pearson correlation of the ranks on their (n, 2)
    column layout, ``scipy.stats.spearmanr``'s own path (bitwise equal).
    A constant vector, or one holding a nan, raises ``NumericError``.
    """
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if pred.shape != actual.shape or pred.ndim != 1 or pred.size < 2:
        raise DimensionMismatchError("need two equal-length vectors of size >= 2")
    if not (np.ptp(pred) > 0 and np.ptp(actual) > 0):  # a nan spread also fails
        raise NumericError("rank correlation undefined for a constant vector or a nan")
    ranks = np.column_stack([_average_ranks(pred), _average_ranks(actual)])
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


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
    window only; the same statistics transform the prediction window.  A
    panel with fewer than two periods has no window and is rejected.
    """
    if len(data.periods) < 2:
        raise ConfigError("need at least two periods")
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
        preds = knn_predict(train_p.next_returns, knn_neighbors(w, feats, query_feats, k))
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


def rolling_ic(
    predictions: Iterable[tuple[PanelPeriod, Array | None, bool]],
) -> list[tuple[str, float | None]]:
    """Per-period rank correlation between predictions and realizations.

    Takes the ``window_predictions`` output, as ``backtest_from_predictions``
    does; skipped periods are left out.  A period whose IC is undefined
    (constant predictions or realizations) is kept with the value None.
    """
    out = []
    for period, preds, skip in predictions:
        if skip or preds is None:
            continue
        try:
            ic = spearman_ic(preds, period.next_returns)
        except NumericError:
            ic = None
        out.append((period.label, ic))
    return out


def ic_summary(ics: Sequence[tuple[str, float | None]]) -> dict:
    """Count, mean and standard deviation of the defined ICs (None is left out).

    With no defined IC the mean and standard deviation are None.
    """
    vals = np.array([v for _, v in ics if v is not None], dtype=float)
    return {
        "n_periods": int(vals.size),
        "ic_mean": float(np.mean(vals)) if vals.size else None,
        "ic_std": float(np.std(vals)) if vals.size else None,
    }
