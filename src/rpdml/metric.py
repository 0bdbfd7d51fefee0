"""Metric learning on the SPD manifold via the primal-dual proximal scheme.

Learns a metric W (an SPD matrix) from labeled data under pairwise distance
constraints: squared distances of same-label pairs should fall below an
upper bound u, distances of different-label pairs should exceed a lower
bound l, both softened by nonnegative slacks.  With pair difference rows
x_i, the constraint vector is

    h(W, xi) = [ diag(Xp W Xp.T) - u (1 + xi_p) ;
                -diag(Xn W Xn.T) + l (1 - xi_n) ]      (entry <= 0: satisfied)

The constraint layer works on one stacked pair matrix X = [Xp; Xn] with
signs s = [+1; -1] and bounds b = [u; l], fixed for the whole train:
h = s * (diag(X W X.T) - b) - b * xi is one quadratic form over all rows,
and its dual contraction <lam, dh/dW> = X.T diag(s * lam) X is one GEMM.

Training is one run of ``iters`` iterations of the generic primal-dual
loop (``solver.run``) on the primal point x = (W, xi) with objective and
constraints

    f(x) = d2(W, W0)/2 + c1/2 ||xi||^2,        h(W, xi) <= 0,   xi >= 0,

one dual lam for the distance constraints and dual regularizer alpha = c2.
The proximal primal step is closed form in both blocks, and the dual step
is the solver's projected ascent:

    W      <- argmin  d2(W, W0)/2 + <lam, h(W)> + d2(W, W_t)/(2 eta_t)
    xi     <- [ (eta_t xi_t + lam * (u;l)) / (c1 + eta_t) ]_+
    lam    <- [ (1 - c2 eta_t) lam + eta_t h(W, xi) ]_+

The bound xi >= 0 needs no multiplier: one for -xi <= 0 would start at
gamma_0 = 0 and step to [(1 - c2 eta_t) gamma_t - eta_t xi_{t+1}]_+, which
is [-eta_t xi_{t+1}]_+ = 0 when gamma_t = 0 because the slack step projects
xi_{t+1} >= 0.  By induction gamma stays 0; the projection keeps the bound.

Dual and slack vectors are plain nonnegative ndarrays; nonnegativity is
maintained by the updates themselves and recorded in the trace.

``PairConstraints`` holds B windows' pairs; ``bounded(u, l)`` with (B,)
bounds gives the ``BoundedPairs`` (rows, signs and bounds) that the
constraint kernels take.  ``train_many`` fits many windows' problems as one:
their product, B SPD matrices with the windows' constraints side by side, is
again this saddle problem, and its steps separate by window.  The windows'
pairs stay one stack from the draw to the ``BoundedPairs`` of each pair
count, with a leading window axis that the kernels take (``_prepare``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import MetricModel, positions_by_key
from .errors import (
    BoundsError,
    ConfigError,
    ConstraintBuildError,
    DimensionMismatchError,
    InnerSolveError,
)
from .manifold import (
    EPS_PD,
    SpdMatrix,
    inverse_logdet,
    spd_inverse,
    spd_logdet,
    sym,
)
from .solver import (
    RunTrace,
    SaddleProblem,
    SolverConfig,
    dual_ascent_step,
    positive_part,
    run,
)

logger = logging.getLogger(__name__)

Array = np.ndarray

#: Initial-metric modes of ``RpdmlConfig.w0`` (train's ``--w0`` choices).
W0_MODES = ("identity", "inverse_covariance")
DEGENERATE_ROW_TOL = 1e-12
COVARIANCE_RIDGE = 1e-6


@dataclass(frozen=True, eq=False)
class BoundedPairs:
    """Pair constraints with their bounds: read-only difference rows
    ``diffs`` (similar rows first), ``signs`` (+1 similar, -1 dissimilar) and
    ``bounds`` (u on similar rows, l on dissimilar ones).  With a leading
    window axis, (B, m, d) rows and (B, m) signs and bounds, they hold B
    windows of one pair count m side by side."""

    diffs: Array
    signs: Array
    bounds: Array


class PairConstraints:
    """Differences x_i - x_j of the similar / dissimilar pairs of B windows:
    read-only rows ``diffs``, window after window and similar rows first,
    read-only ``signs`` (+1 / -1) and the (B, 2) side ``counts``.  ``pcs[b]``
    is window b's, ``pcs[index_array]`` those windows'."""

    def __init__(self, diffs: Array, counts: Array):
        diffs.flags.writeable = False
        self.diffs, self.counts = diffs, counts
        self.signs = np.repeat([1.0, -1.0] * len(counts), counts.ravel())
        self.signs.flags.writeable = False

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, b) -> "PairConstraints":
        b = np.atleast_1d(b)  # an index past the last window raises IndexError
        sizes = self.counts.sum(1)
        rows = np.arange(sizes[b].sum()) + np.repeat(sizes.cumsum()[b] - sizes[b].cumsum(), sizes[b])
        return PairConstraints(self.diffs[rows], self.counts[b])

    def bounded(self, u: Array, l: Array) -> BoundedPairs:
        """These pairs, B windows of one pair count, with (B,) bounds 0 < u < l
        on a leading window axis, sharing the read-only rows."""
        if not np.all((0 < u) & (u < l)):  # nan fails
            raise ConfigError(f"bounds must satisfy 0 < u < l, got u={u}, l={l}")
        signs = self.signs.reshape(len(u), -1)
        bounds = np.where(signs > 0, u[:, None], l[:, None])
        bounds.flags.writeable = False
        return BoundedPairs(self.diffs.reshape(*signs.shape, -1), signs, bounds)

    def without_degenerate_rows(self) -> "PairConstraints":
        """Drop difference rows of norm at most ``DEGENERATE_ROW_TOL`` (duplicate
        points) in one pass; a window that has one loses pairs."""
        keep = np.einsum("ij,ij->i", self.diffs, self.diffs) > DEGENERATE_ROW_TOL**2
        if keep.all():
            return self
        kept = np.add.reduceat(keep, np.r_[0, self.counts.cumsum()[:-1]], dtype=int).reshape(-1, 2)
        if not kept.all():
            raise ConstraintBuildError("all pairs on one side are degenerate (zero difference)")
        for dropped in filter(None, (self.counts - kept).sum(1).tolist()):
            logger.warning("dropping %d degenerate zero-difference pair rows", dropped)
        return PairConstraints(self.diffs[keep], kept)


@dataclass(frozen=True)
class RpdmlConfig:
    """Hyperparameters of the metric-learning run; each init field but ``seed``
    is the train/backtest option of that name.  ``solver`` is the checked
    ``SolverConfig`` (alpha = c2, eta0, iters) that the run uses."""

    c1: float = 2.0
    c2: float = 1.0
    eta0: float = 0.003
    iters: int = 200
    w0: str = "identity"
    max_pairs: int = 200
    percentile_lo: float = 5.0
    percentile_hi: float = 95.0
    seed: int = 0
    solver: SolverConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.c1 > 0:
            raise ConfigError(f"c1 must be positive, got {self.c1}")
        try:
            solver = SolverConfig(self.c2, self.eta0, self.iters)
        except ConfigError as exc:
            raise ConfigError(f"{exc} (alpha is c2)") from exc
        object.__setattr__(self, "solver", solver)
        if not (0 < self.percentile_lo < self.percentile_hi < 100):
            raise ConfigError("percentiles must satisfy 0 < lo < hi < 100")
        if self.w0 not in W0_MODES:
            raise ConfigError(f"unknown w0 {self.w0!r}")
        if self.max_pairs < 1:
            raise ConfigError("max_pairs must be >= 1")


def build_pairs(features: Array, labels: Array, max_pairs: int, seed: int) -> PairConstraints:
    """Each window's same-label and different-label pair differences x_i - x_j.

    Takes (B, n, d) features and (B, n) labels and returns the B windows'
    pairs side by side, each as the window alone gets them: all of a side's
    pairs (i < j) under the cap, else a seeded draw of ``max_pairs`` positions
    in (i, j) order that depends only on the seed, the side, its pair count and
    ``max_pairs``, each unranked to its pair in O(n + m) memory for m pairs,
    with no triangle."""
    features, labels = np.asarray(features, dtype=float), np.asarray(labels)
    if features.shape[:2] != labels.shape:
        raise DimensionMismatchError("features and labels disagree on sample count")
    n = labels.shape[1]
    if n < 2:
        raise ConstraintBuildError("need at least two samples")
    # Member s of the class-sorted stack is row order[s] of the flat stack, s = pos[row].
    members = np.arange(labels.size)
    order = labels.argsort(kind="stable").ravel() + members - members % n
    sorted_labels, pos = labels.ravel()[order], order.argsort()
    cls = ((sorted_labels != sorted_labels[members - 1]) | (members % n == 0)).cumsum()
    later = (np.bincount(cls).cumsum()[cls] - members - 1)[pos]  # same-label rows after a row
    keys = 2 * n * cls + order - members  # ascending: 2n class + (outside rows below) - (class start)
    for same in later.reshape(-1, n).sum(1).tolist():  # every pair same-label: one label
        if not 0 < same < n * (n - 1) // 2:
            raise ConstraintBuildError("need at least two distinct labels" if same else
                                       "no same-label pair exists (all classes are singletons)")
    seeds = np.random.SeedSequence(seed).spawn(2)
    sides, rows = [], features.reshape(labels.size, -1)
    for side, counts in enumerate((later, n - 1 - members % n - later)):
        cum = counts.cumsum()
        first, ends = cum - counts, cum[n - 1::n].tolist()
        spans = [*zip([0, *ends], ends)]  # each window's positions
        drawn = {m: np.sort(np.random.default_rng(seeds[side]).choice(m, max_pairs, replace=False))
                 if m > max_pairs else np.arange(m) for m in {b - a for a, b in spans}}
        p = np.concatenate([drawn[b - a] + a for a, b in spans])
        i = cum.searchsorted(p, "right")  # position p is pair r of row i, member s of its class
        r, s = p - first[i], pos[i]
        # Same side: j is the r-th later member of i's class.  Other side: the q-th row outside the
        # class, q + (members with at most q outside rows below), q = (outside rows before i) + r.
        j = order[s + 1 + r] if side == 0 else i - s + r + keys.searchsorted(keys[s] + r, "right")
        sides.append(np.split(np.array([i, j]), p.searchsorted(ends[:-1]), axis=1))
    pairs = [ij for window in zip(*sides) for ij in window]  # window after window, similar first
    i, j = np.concatenate(pairs, axis=1)
    diffs = np.empty((i.size, rows.shape[1]))
    step = max(1, 8192 // rows.shape[1])  # gathers of at most 64 KB, not stack-sized
    for s in range(0, i.size, step):
        np.subtract(rows.take(i[s:s + step], 0), rows.take(j[s:s + step], 0), out=diffs[s:s + step])
    return PairConstraints(diffs, np.array([ij.shape[1] for ij in pairs]).reshape(-1, 2))


def compute_bounds(distances: Array, p_lo: float, p_hi: float) -> tuple[Array, Array]:
    """Nearest-rank percentiles u, l, as (B,) arrays, of each row of a (B, m)
    stack of observed distance distributions."""
    d = np.sort(np.asarray(distances, dtype=float), axis=1)
    if d.shape[1] == 0:
        raise BoundsError("distance sample is empty")
    if not (0 < p_lo < p_hi < 100):
        raise ConfigError("percentiles must satisfy 0 < lo < hi < 100")
    u, l = (d[:, max(1, math.ceil(p / 100.0 * d.shape[1])) - 1] for p in (p_lo, p_hi))  # nearest rank
    if not np.all(u < l):
        u = u[np.argmin(u < l)]  # the first degenerate window's
        raise BoundsError(f"degenerate distance distribution (u = l = {u:g}); provide more varied data")
    return u, l


def eval_h(w: SpdMatrix, xi: Array, pairs: BoundedPairs) -> Array:
    """h = signs * (diag(X W X^T) - b) - b * xi over the stacked pair rows X,
    of one window or of each window of a stack (one batched BLAS product X @ W
    and one row-wise ``einsum``: a window's values are those it gets alone)."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != pairs.signs.shape:
        raise DimensionMismatchError(f"slack shape {xi.shape}, expected {pairs.signs.shape}")
    b, x = pairs.bounds, pairs.diffs
    if x.shape[-1] != w.dim:
        raise DimensionMismatchError(f"pair dim {x.shape[-1]} != metric dim {w.dim}")
    return pairs.signs * (np.einsum("...ij,...ij->...i", x @ w.mat, x) - b) - b * xi


def grad_h_contraction(lam: Array, pairs: BoundedPairs) -> Array:
    """<lam, dh/dW> = X^T diag(signs * lam) X over the stacked pair rows X
    (one GEMM per window)."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != pairs.signs.shape:
        raise DimensionMismatchError(f"dual shape {lam.shape}, expected {pairs.signs.shape}")
    x = pairs.diffs
    return sym((x * (pairs.signs * lam)[..., None]).swapaxes(-1, -2) @ x)


def inner_solve_w(
    w_t_inv: Array,
    lam: Array,
    w0_inv: Array,
    eta_t: float,
    pairs: BoundedPairs,
) -> tuple[SpdMatrix, Array, float | Array]:
    """Closed-form inner solve: the exact minimizer of the W subproblem.

    The inner objective collapses to J(W) = tr(W M) - c logdet(W) + const,
    where M folds the reference inverse ``w0_inv``, the dual contraction and
    the prox anchor's ``w_t_inv``.  J has the unique minimizer W* = c inv(M)
    if M is positive definite and is unbounded below otherwise.  One Cholesky
    W*^-1 = M / c = L L^T (``inverse_logdet``) is that test and gives W* and
    log det W*; W*^-1 comes back beside them.  Since lambda_min(W*) >=
    1 / tr(W*^-1) >= EPS_PD while the trace is at most 1 / EPS_PD, a step with
    a larger trace is refused, never clipped.

    With stacked pairs every array has a leading window axis and each
    window's step is its own: the stacked kernels run the same LAPACK/BLAS
    call on every slice, so its bits equal the one-window step's.  A step is
    refused when any window's is.
    """
    m_lin = 0.5 * w0_inv + grad_h_contraction(lam, pairs) + w_t_inv / (2.0 * eta_t)
    w_inv = m_lin / (0.5 + 1.0 / (2.0 * eta_t))
    try:
        w, logdet_inv = inverse_logdet(w_inv)
    except np.linalg.LinAlgError:
        # A nonpositive direction of M is a descent ray: no minimizer exists.
        raise InnerSolveError("inner objective is unbounded below (dual pull exceeds the "
                              "log barrier); use a smaller step size") from None
    trace = np.trace(w_inv, axis1=-2, axis2=-1)
    if (trace > 1.0 / EPS_PD).any():
        raise InnerSolveError(f"W step refused: tr(W*^-1) = {trace.max():.3e} > 1/EPS_PD, "
                              f"so W* could cross the eigenvalue floor {EPS_PD:.1e}; "
                              "use a smaller step size")
    return SpdMatrix._trusted(w), w_inv, -logdet_inv


def update_slack(
    xi_t: Array,
    lam: Array,
    eta_t: float,
    c1: float,
    pairs: BoundedPairs,
) -> Array:
    """Closed-form prox step for the slacks (projected to nonnegative)."""
    xi_t = np.asarray(xi_t, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if not (xi_t.shape == lam.shape == pairs.signs.shape):
        raise DimensionMismatchError("slack/dual vectors disagree with constraint count")
    if c1 + eta_t <= 0:
        raise ConfigError("c1 + eta_t must be positive")
    return positive_part((eta_t * xi_t + lam * pairs.bounds) / (c1 + eta_t))


def update_lambda(lam_t: Array, h_val: Array, eta_t: float, c2: float) -> Array:
    """Projected dual ascent for the distance constraints; unused here, the tracer names it."""
    return dual_ascent_step(lam_t, h_val, eta_t, c2)


def update_gamma(gamma_t: Array, xi_next: Array, eta_t: float, c2: float) -> Array:
    """Projected ascent for slack nonnegativity (h = -xi); unused here, the tracer names it."""
    return dual_ascent_step(gamma_t, -np.asarray(xi_next, dtype=float), eta_t, c2)


def _ridged_covariance(features: Array) -> SpdMatrix:
    """Sample covariance plus ``COVARIANCE_RIDGE`` on the diagonal."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if features.shape[0] < 2:
        raise ConfigError("need at least two samples for a covariance estimate")
    cov = np.cov(features, rowvar=False)
    cov = np.atleast_2d(cov) + COVARIANCE_RIDGE * np.eye(features.shape[1])
    return SpdMatrix(sym(cov))


def inverse_covariance_metric(features: Array) -> SpdMatrix:
    """Ridge-regularized inverse covariance of the samples."""
    return spd_inverse(_ridged_covariance(features))


def _reference(features: Array, config: RpdmlConfig) -> tuple[Array, Array, float]:
    """A window's W0, W0^-1 and log det W0: I (inverse I, log det 0) in closed
    form, or one ``spd_inverse`` of the ridged covariance, which is W0^-1 itself."""
    if config.w0 == "identity":
        eye = np.eye(features.shape[1])
        return eye, eye, 0.0
    cov = _ridged_covariance(features)
    w0 = spd_inverse(cov)
    return w0.mat, cov.mat, spd_logdet(w0)


def _prepare(windows: Sequence[tuple[Array, Array]], config: RpdmlConfig) -> list[tuple]:
    """By pair count m, a list of (window indices, their (B, m, d) bounded
    pairs, (B, d, d) W0 and W0^-1, and (B,) log det W0 and bounds u and l:
    percentiles of the pair distances under W0).  Windows of one shape share
    a ``build_pairs`` call, and those of one m a gather (none if that is all),
    a batched distance product and a ``compute_bounds`` call."""
    windows = [(np.atleast_2d(np.asarray(f, dtype=float)), np.asarray(y)) for f, y in windows]
    shapes = positions_by_key((f.shape, y.shape) for f, y in windows).values()
    built = [build_pairs(*map(np.array, zip(*(windows[i] for i in idx))), config.max_pairs,
                         config.seed).without_degenerate_rows() for idx in shapes]
    if not built:
        return []
    pcs = built[0] if len(built) == 1 else PairConstraints(
        *(np.concatenate([getattr(pc, a) for pc in built]) for a in ("diffs", "counts")))
    order = [i for idx in shapes for i in idx]  # the windows of pcs
    prepared = []
    for sel in positions_by_key(pcs.counts.sum(1).tolist()).values():
        idx = [order[b] for b in sel]
        w0, w0_inv, w0_logdet = map(np.array, zip(*(_reference(windows[i][0], config) for i in idx)))
        pairs = pcs if len(sel) == len(pcs) else pcs[sel]
        x = pairs.diffs.reshape(len(sel), -1, w0.shape[-1])
        # x @ I is x but for zeros' signs, which no kept row's distance shows.
        xw = x if config.w0 == "identity" else x @ w0
        u, l = compute_bounds(np.einsum("...ij,...ij->...i", xw, x), config.percentile_lo, config.percentile_hi)
        prepared.append((idx, pairs.bounded(u, l), SpdMatrix._trusted(w0), w0_inv, w0_logdet, u, l))
    return prepared


def _run(pairs: BoundedPairs, w0: SpdMatrix, w0_inv: Array,
         w0_logdet: float | Array, config: RpdmlConfig) -> RunTrace:
    """``solver.run`` on the saddle problem of the module docstring from
    (W0, 0), with ``inner_solve_w`` and ``update_slack`` as the proximal
    primal step; for one window, or for a stack of windows (each array with
    a leading window axis), whose objective is the sum of theirs.  A point
    is (W, xi, W^-1, log det W): each step's inverse and log-determinant
    ride with its W, so the objective holds at any point."""
    n = w0.dim

    def objective(x) -> float:
        w, xi, _, w_logdet = x
        d2 = np.einsum("...ij,...ji->...", w.mat, w0_inv) - (w_logdet - w0_logdet) - n
        # xi @ xi of each window, by the BLAS dot that one window's xi @ xi makes.
        slack_sq = (xi[..., None, :] @ xi[..., None])[..., 0, 0]
        return float((0.5 * d2 + 0.5 * config.c1 * slack_sq).sum())

    def inner_minimizer(x, lam: Array, eta: float):
        w, w_inv, w_logdet = inner_solve_w(x[2], lam, w0_inv, eta, pairs)
        return w, update_slack(x[1], lam, eta, config.c1, pairs), w_inv, w_logdet

    def record_extras(x, lam: Array) -> dict:
        # The slack multiplier is identically 0 (module docstring); its keys stay.
        return {"slack_norm": float(np.linalg.norm(x[1])), "gamma_norm": 0.0,
                "slack_min": float(x[1].min()), "gamma_min": 0.0}

    problem = SaddleProblem(objective, lambda x: eval_h(x[0], x[1], pairs), inner_minimizer, record_extras)
    return run(problem, (w0, np.zeros(pairs.signs.shape), w0_inv, w0_logdet), config.solver)


def train(features: Array, labels: Array, config: RpdmlConfig) -> MetricModel:
    """Learn a metric from labeled samples.

    Prepares the window (``_prepare``: pairs, bounds and W0), then runs
    ``solver.run`` for ``iters`` iterations on the saddle problem of the
    module docstring, starting from (W0, 0).  The returned model carries the
    last iterate's W and the trace, scalars only.  An unbounded W subproblem,
    or a W step refused at the eigenvalue floor, raises ``DivergedError``
    carrying the partial trace.
    """
    [(_, pairs, w0, w0_inv, w0_logdet, [u], [l])] = _prepare([(features, labels)], config)
    w0 = SpdMatrix._trusted(w0.mat[0])  # the one window, unstacked
    pairs = BoundedPairs(pairs.diffs[0], pairs.signs[0], pairs.bounds[0])
    trace = _run(pairs, w0, w0_inv[0], w0_logdet[0], config)
    return MetricModel(w=trace.final_point[0], w0=w0, u=float(u), l=float(l), trace=trace)


def train_many(windows: Sequence[tuple[Array, Array]], config: RpdmlConfig) -> list[SpdMatrix]:
    """The metric ``train`` learns on each (features, labels) window, bitwise.

    The windows are prepared together (``_prepare``), each as ``train``
    prepares it alone.  Windows of one pair count m are fit by one
    ``solver.run`` on their product problem: a (B, d, d) W stack with (B, m)
    slacks and duals, on which the W/slack step and the dual step separate
    by window.  A run stops, raising ``DivergedError``, at the first
    iteration at which any of its windows fails; the error does not say
    which (``evaluation.window_predictions`` finds them).
    """
    out: list[SpdMatrix | None] = [None] * len(windows)
    groups = _prepare(windows, config)
    while groups:  # a group's pairs live on only while it is fitted
        idx, *prepared, _, _ = groups.pop(0)
        final = _run(*prepared, config).final_point[0]
        for j, i in enumerate(idx):
            out[i] = SpdMatrix._trusted(final.mat[j])
    return out
