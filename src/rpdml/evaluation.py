"""Baselines, k-NN prediction, rank correlation, and the rolling backtest.

The panel protocol: at each trading period q (q >= 1), a metric is fit on
period q-1's features with that period's realized next-period returns as
targets, every asset's next return is predicted as the mean target of its k
nearest training assets under the metric, and the top-N predicted assets
form an equal-weight portfolio whose realized return is compounded.  The
metrics of all windows come from one call of the metric provider, so a
learned metric can fit them together (``metric.train_many``).  When that
call fails, each window is fit alone, and the error names each failing
window by the period it trades.  The windows of one shape are normalized
and ranked as one stack; the periods of one asset count are scored as one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .data import PanelDataset, PanelPeriod, normalize_features, positions_by_key
from .errors import ConfigError, DimensionMismatchError, NumericError, RpdmlError
from .manifold import SpdMatrix
from .metric import inverse_covariance_metric as mahalanobis_metric

Array = np.ndarray

#: Builds the metrics of all training windows in one call: a list of
#: (features, targets) windows -> one SpdMatrix per window, in order.
MetricProvider = Callable[[list[tuple[Array, Array]]], list[SpdMatrix]]


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


def euclidean_metric(features: Array) -> SpdMatrix:
    return SpdMatrix.identity(np.atleast_2d(features).shape[1])


#: Queries per window, and training rows over the windows, that ``knn_neighbors`` screens
#: at a time: its screen holds at most KNN_BLOCK x max(KNN_ROWS, n_train) values.
KNN_BLOCK, KNN_ROWS = 32, 2048


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

    With a leading window axis ((B, d, d) metrics, (B, n_train, d) rows,
    (B, n_queries, d) queries; (B, n_queries, k) result) each window ranks its
    queries among its own rows by its own metric, as alone.  Windows are ranked
    in chunks of at most ``KNN_ROWS`` training rows (or one window); a chunk's
    rows form one flat list, so each step below runs once for its windows.

    Queries are ranked in blocks of ``KNN_BLOCK`` per window.  A block's
    screen is one BLAS product per window, into one reused buffer, of the rows
    [-2 q, 1] with the window's (d + 1, n_train) basis [x^T; |x|^2], built
    once per call and also where the transformed training rows are kept.  It
    gives s(x) = |x|^2 - 2 q.x (the scaling by -2 is exact): the distance less
    |q|^2, which is the same along a query's row.  One partition at ``kth=k``
    gives each query its k screened rows and its (k + 1)-th screen value.  The
    screened rows' exact distances are computed, and tau is the largest.

    The margin.  With u = eps / 2 and R = (|q| + max |x|)^2 (x over the
    window), a rounded sum of n products, in any order and with FMA or not,
    errs by at most n u times the sum of the terms' sizes, plus n
    half-subnormals of underflow.  The screen (d + 1 terms, one of them |x|^2
    rounded over d terms) and the rounded |q|^2 (d terms) err from the true
    distance by about (2 d + 1) u R; the exact distance (d + 2 roundings of
    nonnegative terms) by (d + 2) u R; the threshold tau - |q|^2 + m by 2 u R,
    one rounding per operation.  Underflow adds at most 2 d smallest
    subnormals.  So m = 8 (d + 4) (eps R + the smallest subnormal) covers the
    (3 d + 5) u R of the three: a row screened above the threshold has an
    exact distance above tau, and cannot be among the k.

    When the (k + 1)-th screen value is above the threshold, the k screened
    rows are the answer, ranked by exact distance (with k equal to n_train
    every row is, and there is no screen).  Otherwise (ties or near-ties at
    the k-th distance) the query ranks on its own the exact distances of the
    rows screened at or below the threshold, or of every row when R is not
    below a quarter of the largest float (a screen that could overflow, from
    |z| ~ 1e154 on).  The screen only chooses which exact distances are
    ranked, never the answer, so a query's neighbors do not depend on the
    other queries or windows of the batch or on the BLAS.

    A transformed row that is not finite raises ``NumericError``.  Returns an
    (n_queries, k) int array, or (B, n_queries, k) for a window stack.
    """
    train_features = np.asarray(train_features, dtype=float)
    queries = np.asarray(queries, dtype=float)
    mats = w.mat.reshape(-1, w.dim, w.dim)
    one = w.mat.ndim == 2
    if one:
        train_features, queries = np.atleast_2d(train_features)[None], np.atleast_2d(queries)[None]
    (n_wins, n_train, dim), n_queries = train_features.shape, queries.shape[1]
    if k < 1 or k > n_train:
        raise ConfigError(f"k={k} out of range for {n_train} training rows")
    if dim != w.dim or queries.shape[2] != w.dim:
        raise DimensionMismatchError(
            f"train dim {dim} and query dim {queries.shape[2]} must equal metric dim {w.dim}"
        )
    chunk = max(1, KNN_ROWS // n_train)  # windows screened together
    if n_wins > chunk:
        return np.concatenate([knn_neighbors(SpdMatrix._trusted(mats[s:s + chunk]),
                                             train_features[s:s + chunk], queries[s:s + chunk], k)
                               for s in range(0, n_wins, chunk)])
    try:
        chol = np.linalg.cholesky(mats)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"metric has no Cholesky factor: {exc}") from exc
    z_train = np.einsum("...ij,...jk->...ik", train_features, chol).reshape(-1, dim)
    z_queries = np.einsum("...ij,...jk->...ik", queries, chol)
    if not (np.isfinite(z_train).all() and np.isfinite(z_queries).all()):
        raise NumericError("k-NN input has a nan or inf after the metric transform")
    sq_train = np.einsum("ij,ij->i", z_train, z_train)
    sq_queries = np.einsum("...ij,...ij->...i", z_queries, z_queries)
    finfo = np.finfo(float)
    # The screen's basis [x^T; |x|^2] holds the transformed training rows
    # once: z_train becomes a view of it.
    basis = np.empty((dim + 1, n_wins * n_train))
    basis[:dim] = z_train.T
    basis[dim] = sq_train
    z_train = basis[:dim].T
    augmented = np.ones((n_wins, KNN_BLOCK, dim + 1))
    screen = np.empty((n_wins, KNN_BLOCK, n_train))
    bases = basis.reshape(dim + 1, n_wins, n_train).swapaxes(0, 1)
    first_rows = np.arange(0, n_wins * n_train, n_train)[:, None, None]
    out = np.empty((n_wins, n_queries, k), dtype=np.intp)
    # A query whose screen could overflow is ranked over every row instead.
    with np.errstate(over="ignore", invalid="ignore"):
        widest = np.sqrt(sq_train.reshape(n_wins, n_train).max(axis=1))
        reach = (np.sqrt(sq_queries) + widest[:, None]) ** 2
        offsets = 8 * (dim + 4) * (finfo.eps * reach + finfo.smallest_subnormal) - sq_queries
        screenable = reach < finfo.max / 4
        for start in range(0, n_queries, KNN_BLOCK):
            block = slice(start, start + KNN_BLOCK)
            z_q = z_queries[:, block]
            n_q = z_q.shape[1]
            if k == n_train:
                screened = np.broadcast_to(np.arange(n_train), (n_wins * n_q, k))
            else:
                np.multiply(z_q, -2.0, out=augmented[:, :n_q, :dim])
                np.matmul(augmented[:, :n_q], bases, out=screen[:, :n_q])
                block_screen = screen[:, :n_q].reshape(-1, n_train)
                screened, following = _partition(block_screen, k)
            # Window b's screened rows are its flat training rows from b * n_train.
            exact = _sq_distances(z_train[screened.reshape(n_wins, n_q, k) + first_rows],
                                  z_q[:, :, None]).reshape(screened.shape)
            found = screened[np.arange(n_wins * n_q)[:, None], exact.argsort(axis=1, kind="stable")]
            if k < n_train:
                threshold = exact.max(axis=1) + offsets[:, block].ravel()
                for i in (~(screenable[:, block].ravel() & (following > threshold))).nonzero()[0]:
                    win, query = divmod(i, n_q)
                    rows = ((block_screen[i] <= threshold[i]).nonzero()[0]
                            if screenable[win, start + query] else np.arange(n_train))
                    dist = _sq_distances(z_train[rows + win * n_train], z_q[win, query])
                    found[i] = rows[_k_smallest(dist, k)]
            out[:, block] = found.reshape(n_wins, n_q, k)
    return out[0] if one else out


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


def spearman_ic(pred: Array, actual: Array) -> float | list[float | None]:
    """Rank correlation of predictions and realizations: average ranks (-0.0
    ties 0.0), then their Pearson correlation by ``np.corrcoef``'s steps, as
    ``scipy.stats.spearmanr``.  Vectors give a float (constant or nan: raises
    ``NumericError``); (B, n) stacks, ranked by one ``argsort``, a list with
    None for such rows.  Ranks are multiples of 1/2, so every sum is exact
    for n <= 2^18: bitwise scipy's there, within round-off above."""
    pred, actual = np.asarray(pred, dtype=float), np.asarray(actual, dtype=float)
    if pred.shape != actual.shape or pred.ndim not in (1, 2) or pred.shape[-1] < 2:
        raise DimensionMismatchError("need two equal-length vectors of size >= 2")
    n = pred.shape[-1]
    v = np.stack([pred, actual]).reshape(2, -1, n)
    order = v.argsort(axis=-1)  # any order of tied values: they share a rank
    ranked = np.take_along_axis(v, order, -1)
    starts, ends = np.ones((2, *v.shape), dtype=bool)  # where runs of tied values start, end
    starts[..., 1:] = ends[..., :-1] = ranked[..., 1:] != ranked[..., :-1]
    first = np.maximum.accumulate(np.where(starts, np.arange(n), 0), -1)
    last = np.minimum.accumulate(np.where(ends, np.arange(n), n)[..., ::-1], -1)[..., ::-1]
    centered = np.empty_like(v)  # each value's mean rank less (n + 1) / 2
    np.put_along_axis(centered, order, (first + last - (n - 1)) / 2.0, -1)
    c = np.einsum("kbi,lbi->klb", centered, centered) * np.true_divide(1, n - 1)
    with np.errstate(divide="ignore", invalid="ignore"):  # undefined rows: None below
        ic = np.clip(c[0, 1] / np.sqrt(c[1, 1]) / np.sqrt(c[0, 0]), -1, 1).tolist()
    defined = (ranked[..., 0] < ranked[..., -1]).all(0).tolist()  # a nan sorts last
    ics = [x if ok else None for x, ok in zip(ic, defined)]
    if pred.ndim == 2:
        return ics
    if ics[0] is None:
        raise NumericError("rank correlation undefined for a constant vector or a nan")
    return ics[0]


def accumulated_return(period_returns: Array) -> Array:
    """Compounded cumulative return series: c_k = prod(1 + r_i) - 1."""
    r = np.asarray(period_returns, dtype=float)
    if np.any(r <= -1):
        raise ConfigError("period returns must exceed -1")
    return np.cumprod(1.0 + r) - 1.0


def max_drawdown(cumulative_values: Array) -> float | Array:
    """Largest peak-to-trough relative decline of a positive value series, or
    of each row of a stack of them."""
    v = np.asarray(cumulative_values, dtype=float)
    if v.size == 0:
        raise ConfigError("empty value series")
    if np.any(v <= 0):
        raise ConfigError("values must be positive")
    peaks = np.maximum.accumulate(v, axis=-1)
    out = np.max((peaks - v) / peaks, axis=-1)
    return out if out.ndim else float(out)


def rolling_max_drawdown(cumulative_values: Array, window: int = 4) -> Array:
    """max_drawdown over a trailing window at every index: one ``max_drawdown``
    of the sliding windows, the front padded with the first value."""
    v = np.asarray(cumulative_values, dtype=float)
    if window < 1:
        raise ConfigError("window must be >= 1")
    if v.size == 0:
        return v
    padded = np.concatenate([np.repeat(v[:1], window - 1), v])
    return max_drawdown(np.lib.stride_tricks.sliding_window_view(padded, window))


def _annual_groups(labels: Sequence[str]) -> dict[str, list[int]]:
    """Group period indices by the year embedded in the label (a label
    without one is its own group), or by consecutive chunks of four
    (quarterly) periods when no year is recognizable."""
    years = [re.search(r"\d{4}", str(lab)) for lab in labels]
    if any(years):
        return positions_by_key(y.group() if y else str(lab) for y, lab in zip(years, labels))
    return positions_by_key(f"year_{i // 4 + 1}" for i in range(len(labels)))


def window_predictions(
    data: PanelDataset,
    metric_source: MetricProvider,
    k: int,
    normalize: bool = True,
) -> list[tuple[PanelPeriod, Array | None]]:
    """The list of (period, predictions) of every period after the first, in order.

    Training features are normalized with statistics fit on the training
    window only; the same statistics transform the prediction window.  The
    metrics of every window with at least k training rows come from one
    ``metric_source`` call; the others are skipped, with predictions None.
    If that call raises an ``RpdmlError``, each window is fit alone, and an
    error of the same class names every window that fails, in period order,
    by the period it trades, with its own message.  Windows of one shape
    (training rows, traded rows, dimension) are normalized and ranked as one
    stack, each window as alone: one ``normalize_features`` and one
    ``knn_neighbors`` call per shape.  A panel with fewer than two periods
    has no window and is rejected.
    """
    if len(data.periods) < 2:
        raise ConfigError("need at least two periods")
    windows = list(zip(data.periods, data.periods[1:]))  # (training, traded) periods
    tradable = [i for i, (train_p, _) in enumerate(windows) if train_p.features.shape[0] >= k]
    # Windows of one shape are normalized and ranked together, as one stack.
    stacks, feats = [], {}
    for pos in positions_by_key(tuple(p.features.shape for p in windows[i]) for i in tradable).values():
        idx = [tradable[j] for j in pos]
        train_feats, query_feats = (np.stack([windows[i][side].features for i in idx]) for side in (0, 1))
        if normalize:
            train_feats, stats_ = normalize_features(train_feats)
            query_feats = stats_.apply(query_feats)
        stacks.append((idx, train_feats, query_feats))
        feats.update(zip(idx, train_feats))
    try:
        metrics = metric_source([(feats[i], windows[i][0].next_returns) for i in tradable])
    except RpdmlError as exc:
        failures = []
        for i in tradable:
            train_p, cur_p = windows[i]
            try:
                metric_source([(feats[i], train_p.next_returns)])
            except RpdmlError as alone:
                failures.append(f"window {cur_p.label}: {alone}")
        if not failures:
            raise
        raise type(exc)("; ".join(failures)) from exc
    metric_of = dict(zip(tradable, metrics))
    neighbors = {}
    for idx, train_feats, query_feats in stacks:
        mats = SpdMatrix._trusted(np.stack([metric_of[i].mat for i in idx]))
        neighbors.update(zip(idx, knn_neighbors(mats, train_feats, query_feats, k)))
    return [(cur_p, knn_predict(train_p.next_returns, neighbors[i]) if i in neighbors else None)
            for i, (train_p, cur_p) in enumerate(windows)]


def _by_asset_count(predictions: Sequence[tuple[PanelPeriod, Array | None]]) -> tuple[list, list]:
    """Traded (period, predictions), and per asset count the positions and
    (B, n) predictions and next returns of its periods."""
    traded = [(period, preds) for period, preds in predictions if preds is not None]
    groups = positions_by_key(len(period.asset_ids) for period, _ in traded)
    return traded, [(idx, np.array([traded[i][1] for i in idx]),
                     np.array([traded[i][0].next_returns for i in idx])) for idx in groups.values()]


def backtest_from_predictions(
    predictions: Sequence[tuple[PanelPeriod, Array | None]],
    top_n: int,
    mdd_window: int = 4,
) -> PortfolioResult:
    """Form equal-weight top-N portfolios from a sequence of per-period predictions.

    Prediction ties break toward the smaller asset id (-0.0 ties 0.0).
    Periods whose predictions are missing are recorded as skipped.  Periods
    of one asset count are ranked by one ``lexsort``.
    """
    skipped = [period.label for period, preds in predictions if preds is None]
    traded, stacks = _by_asset_count(predictions)
    for period, _ in traded:  # the first period too small for top_n
        if not 1 <= top_n <= len(period.asset_ids):
            raise ConfigError(f"top_n={top_n} out of range for {len(period.asset_ids)} assets")
    returns = np.empty(len(traded))
    for idx, preds, next_returns in stacks:
        ids = np.array([traded[i][0].asset_ids for i in idx])
        chosen = np.lexsort((ids, -preds), axis=1)[:, :top_n]
        returns[idx] = np.take_along_axis(next_returns, chosen, 1).mean(axis=1)
    labels = [period.label for period, _ in traded]
    cumulative = accumulated_return(returns) if returns.size else np.array([])
    mdd = rolling_max_drawdown(1.0 + cumulative, mdd_window)
    annual = {}
    for year, idxs in _annual_groups(labels).items():
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
    predictions: Sequence[tuple[PanelPeriod, Array | None]],
) -> list[tuple[str, float | None]]:
    """Per-period rank correlation between predictions and realizations.

    Takes the ``window_predictions`` sequence, as ``backtest_from_predictions``
    does; skipped periods are left out.  A period whose IC is undefined
    (constant predictions or realizations) is kept with the value None.
    Periods of one asset count share one ``spearman_ic`` call.
    """
    traded, stacks = _by_asset_count(predictions)
    ics: list[float | None] = [None] * len(traded)
    for idx, preds, next_returns in stacks:
        for i, ic in zip(idx, spearman_ic(preds, next_returns)):
            ics[i] = ic
    return [(period.label, ic) for (period, _), ic in zip(traded, ics)]


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
