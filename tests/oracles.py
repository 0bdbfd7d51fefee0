"""Oracles: the W subproblem, for checking ``metric.inner_solve_w``; the
pair enumeration that ``metric.build_pairs`` reproduces without enumerating;
one window's pairs from its two sides, and their per-window stacking; and
the per-period rank IC, portfolio and drawdown loops that ``evaluation``
runs once per stack.

The subproblem at prox anchor W_t, dual lam and step eta_t is

    J(W) = d2(W, W0)/2 + <lam, h(W, 0)> + d2(W, W_t)/(2 eta_t),

with d2 the LogDet divergence.  The functions here evaluate J and its
analytic gradient on raw matrices (possibly slightly asymmetric), so that J
can also be differentiated numerically.
"""

import math

import numpy as np

from rpdml.errors import ConfigError, ConstraintBuildError, DimensionMismatchError, NumericError
from rpdml.manifold import rowwise_quadratic, spd_inverse, spd_logdet
from rpdml.metric import BoundedPairs, PairConstraints, grad_h_contraction


def logdet_divergence_raw(w, ref_inv, ref_logdet):
    """d2(W, ref) of a raw matrix W, given the reference's inverse and logdet.

    W need not be symmetric or SPD; a nonpositive determinant gives inf.
    """
    sign, logdet_w = np.linalg.slogdet(w)
    if sign <= 0:
        return math.inf
    return float(np.einsum("ij,ji->", w, ref_inv)) - (logdet_w - ref_logdet) - w.shape[0]


def inner_objective(w_mat, w_t, lam, w0, eta_t, pc):
    """J(W) for a raw matrix W."""
    b = pc.bounds
    h0 = pc.signs * (rowwise_quadratic(w_mat, pc.diffs) - b)
    val = 0.5 * logdet_divergence_raw(w_mat, spd_inverse(w0).mat, spd_logdet(w0))
    val += float(np.asarray(lam, dtype=float) @ h0)
    val += logdet_divergence_raw(w_mat, spd_inverse(w_t).mat, spd_logdet(w_t)) / (2.0 * eta_t)
    return val


def inner_gradient(w_mat, w_t, lam, w0, eta_t, pc):
    """Analytic gradient of J at W."""
    w_inv = np.linalg.inv(w_mat)
    grad = 0.5 * (spd_inverse(w0).mat - w_inv)
    grad = grad + grad_h_contraction(lam, pc)
    return grad + (spd_inverse(w_t).mat - w_inv) / (2.0 * eta_t)


def build_pairs(features, labels, max_pairs, seed):
    """Reference ``metric.build_pairs``: enumerate every window's whole upper
    triangle of pairs (i < j) and its label mask, then take, per side, every
    pair or the seeded draw of ``max_pairs`` positions among the side's pairs
    in (i, j) order.  It needs O(n^2) memory for n rows."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    if features.shape[:2] != labels.shape:
        raise DimensionMismatchError("features and labels disagree on sample count")
    if features.shape[1] < 2:
        raise ConstraintBuildError("need at least two samples")

    iu, ju = np.triu_indices(labels.shape[1], k=1)
    same = labels.take(iu, axis=1) == labels.take(ju, axis=1)
    seeds = np.random.SeedSequence(seed).spawn(2)

    def pick(idx, side):
        if idx.size <= max_pairs:
            return idx
        rng = np.random.default_rng(seeds[side])
        return idx[np.sort(rng.choice(idx.size, size=max_pairs, replace=False))]

    out = []
    for window, window_labels, window_same in zip(features, labels, same):
        if np.unique(window_labels).size < 2:
            raise ConstraintBuildError("need at least two distinct labels")
        sim_idx = np.flatnonzero(window_same)
        if sim_idx.size == 0:
            raise ConstraintBuildError("no same-label pair exists (all classes are singletons)")
        sim_idx, dis_idx = pick(sim_idx, 0), pick(np.flatnonzero(~window_same), 1)
        out.append(window_pairs(window[iu[sim_idx]] - window[ju[sim_idx]],
                                window[iu[dis_idx]] - window[ju[dis_idx]]))
    return out


def window_pairs(similar, dissimilar):
    """One window's ``PairConstraints`` from its similar and its dissimilar
    difference rows, similar rows first."""
    sd, dd = (np.atleast_2d(np.asarray(x, dtype=float)) for x in (similar, dissimilar))
    return PairConstraints(np.vstack([sd, dd]), np.array([[len(sd), len(dd)]]))


def bounded_window(pc, u, l):
    """One window's pairs under scalar bounds u, l, as ``metric.train`` runs
    them: its ``BoundedPairs`` without the leading window axis."""
    pairs = pc.bounded(np.array([u]), np.array([l]))
    return BoundedPairs(pairs.diffs[0], pairs.signs[0], pairs.bounds[0])


def sides(pc):
    """Window 0's similar and dissimilar difference rows."""
    n_s, n_d = pc.counts[0].tolist()
    return pc.diffs[:n_s], pc.diffs[n_s:n_s + n_d]


def stack_pairs(windows):
    """Bounded pairs of B windows of one pair count, stacked on a leading
    window axis (read-only), as ``metric._prepare`` lays out a group."""
    arrays = [np.stack([getattr(p, name) for p in windows]) for name in ("diffs", "signs", "bounds")]
    for a in arrays:
        a.flags.writeable = False
    return BoundedPairs(*arrays)


def average_ranks(v):
    """1-based ranks of v; each run of tied values shares the mean of its ranks."""
    _, inv, counts = np.unique(v, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((2 * ends - counts + 1) / 2.0)[inv]


def spearman_ic(pred, actual):
    """Reference one-window ``evaluation.spearman_ic``: ``np.unique`` average
    ranks and ``np.corrcoef`` on their (n, 2) column layout."""
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if pred.shape != actual.shape or pred.ndim != 1 or pred.size < 2:
        raise DimensionMismatchError("need two equal-length vectors of size >= 2")
    if not (np.ptp(pred) > 0 and np.ptp(actual) > 0):  # a nan spread also fails
        raise NumericError("rank correlation undefined for a constant vector or a nan")
    ranks = np.column_stack([average_ranks(pred), average_ranks(actual)])
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def rolling_ic(predictions):
    """Reference ``evaluation.rolling_ic``: one ``spearman_ic`` per period."""
    out = []
    for period, preds in predictions:
        if preds is None:
            continue
        try:
            ic = spearman_ic(preds, period.next_returns)
        except NumericError:
            ic = None
        out.append((period.label, ic))
    return out


def max_drawdown(v):
    """Largest peak-to-trough relative decline of a positive value series."""
    peaks = np.maximum.accumulate(v)
    return float(np.max((peaks - v) / peaks))


def rolling_max_drawdown(cumulative_values, window=4):
    """Reference ``evaluation.rolling_max_drawdown``: one ``max_drawdown`` per index."""
    v = np.asarray(cumulative_values, dtype=float)
    if window < 1:
        raise ConfigError("window must be >= 1")
    if np.any(v <= 0):
        raise ConfigError("values must be positive")
    return np.array([max_drawdown(v[max(0, i - window + 1): i + 1]) for i in range(v.size)])


def portfolio_returns(predictions, top_n):
    """Reference top-N selection of ``evaluation.backtest_from_predictions``:
    per period, a Python ``sorted`` by (-prediction, asset id) and the mean of
    the chosen assets' next returns, in rank order; skipped periods are left out."""
    returns = []
    for period, preds in predictions:
        if preds is None:
            continue
        if not 1 <= top_n <= len(period.asset_ids):
            raise ConfigError(f"top_n={top_n} out of range for {len(period.asset_ids)} assets")
        order = sorted(range(len(period.asset_ids)), key=lambda i: (-preds[i], period.asset_ids[i]))
        returns.append(float(np.mean(period.next_returns[order[:top_n]])))
    return np.asarray(returns)
