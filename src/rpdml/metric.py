"""Metric learning on the SPD manifold via the primal-dual proximal scheme.

Learns a metric W (an SPD matrix) from labeled data under pairwise distance
constraints: squared distances of same-label pairs should fall below an
upper bound u, distances of different-label pairs should exceed a lower
bound l, both softened by nonnegative slacks.  With pair difference rows
x_i, the constraint vector is

    h(W, xi) = [ diag(Xp W Xp.T) - u (1 + xi_p) ;
                -diag(Xn W Xn.T) + l (1 - xi_n) ]      (entry <= 0: satisfied)

Training is one run of the generic primal-dual loop (``solver.run``) on
the primal point x = (W, xi) with objective and constraints

    f(x) = d2(W, W0)/2 + c1/2 ||xi||^2,        [ h(W, xi) ; -xi ] <= 0,

dual [lam; gamma] (lam for the distance constraints, gamma for slack
nonnegativity) and dual regularizer alpha = c2.  The proximal primal step
is closed form in both blocks, and the dual step is the solver's projected
ascent:

    W      <- argmin  d2(W, W0)/2 + <lam, h(W)>  [+ d2(W, W_t)/(2 eta_t)]
    xi     <- [ (eta_t xi_t + gamma + lam * (u;l)) / (c1 + eta_t) ]_+
    lam    <- [ (1 - c2 eta_t) lam + eta_t h(W, xi) ]_+
    gamma  <- [ (1 - c2 eta_t) gamma - eta_t xi ]_+

Dual and slack vectors are plain nonnegative ndarrays; nonnegativity is
maintained by the updates themselves and recorded in the trace.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BoundsError,
    ConfigError,
    ConstraintBuildError,
    DimensionMismatchError,
    InnerSolveError,
)
from .manifold import (
    SpdMatrix,
    clip_spectrum,
    logdet_divergence,
    matrix_from_json_dict,
    matrix_to_json_dict,
    rowwise_quadratic,
    spd_inverse,
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

@dataclass(frozen=True, eq=False)
class PairConstraints:
    """Difference vectors of similar / dissimilar sample pairs with bounds."""

    similar_diffs: Array
    dissimilar_diffs: Array
    u: float | None = None
    l: float | None = None

    def __post_init__(self):
        sd = np.atleast_2d(np.array(self.similar_diffs, dtype=float))
        dd = np.atleast_2d(np.array(self.dissimilar_diffs, dtype=float))
        if sd.shape[0] < 1 or dd.shape[0] < 1:
            raise ConstraintBuildError("need at least one pair on each side")
        if sd.shape[1] != dd.shape[1]:
            raise DimensionMismatchError(
                f"feature dims differ: {sd.shape[1]} vs {dd.shape[1]}"
            )
        if self.u is not None or self.l is not None:
            if self.u is None or self.l is None:
                raise ConfigError("set both bounds or neither")
            if not (self.u > 0 and self.l > 0 and self.u < self.l):
                raise ConfigError(f"bounds must satisfy 0 < u < l, got u={self.u}, l={self.l}")
        sd.flags.writeable = False
        dd.flags.writeable = False
        object.__setattr__(self, "similar_diffs", sd)
        object.__setattr__(self, "dissimilar_diffs", dd)

    @property
    def n_similar(self) -> int:
        return self.similar_diffs.shape[0]

    @property
    def n_dissimilar(self) -> int:
        return self.dissimilar_diffs.shape[0]

    @property
    def n_constraints(self) -> int:
        return self.n_similar + self.n_dissimilar

    @property
    def dim(self) -> int:
        return self.similar_diffs.shape[1]

    def bound_vector(self) -> Array:
        """Per-constraint bound (u for similar rows, l for dissimilar rows)."""
        if self.u is None:
            raise ConfigError("bounds are unset")
        return np.concatenate([
            np.full(self.n_similar, self.u),
            np.full(self.n_dissimilar, self.l),
        ])

    def with_bounds(self, u: float, l: float) -> "PairConstraints":
        return PairConstraints(self.similar_diffs, self.dissimilar_diffs, u=u, l=l)

    def without_degenerate_rows(self, tol: float = 1e-12) -> "PairConstraints":
        """Drop all-zero difference rows (duplicate points in a pair)."""
        keep_s = np.linalg.norm(self.similar_diffs, axis=1) > tol
        keep_d = np.linalg.norm(self.dissimilar_diffs, axis=1) > tol
        dropped = int((~keep_s).sum() + (~keep_d).sum())
        if dropped == 0:
            return self
        if not keep_s.any() or not keep_d.any():
            raise ConstraintBuildError("all pairs on one side are degenerate (zero difference)")
        logger.warning("dropping %d degenerate zero-difference pair rows", dropped)
        return PairConstraints(
            self.similar_diffs[keep_s], self.dissimilar_diffs[keep_d], u=self.u, l=self.l
        )


@dataclass(frozen=True)
class RpdmlConfig:
    """Hyperparameters of the metric-learning run.

    ``prox_term_mode`` selects whether the inner objective carries the
    proximal anchor d2(W, W_t)/(2 eta_t): 'include' is the faithful proximal
    step, 'omit' drops it so the inner solve minimizes the bare Lagrangian.
    """

    c1: float = 2.0
    c2: float = 1.0
    eta0: float = 0.003
    outer_iters: int = 200
    percentile_lo: float = 5.0
    percentile_hi: float = 95.0
    prox_term_mode: str = "include"
    w0_mode: str = "identity"
    max_pairs_per_side: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.c1 <= 0 or self.c2 <= 0:
            raise ConfigError("c1 and c2 must be positive")
        if self.eta0 <= 0:
            raise ConfigError("eta0 must be positive")
        if self.c2 * self.eta0 > 1.0 + 1e-15:
            raise ConfigError(
                f"c2 * eta0 = {self.c2 * self.eta0:.4g} exceeds 1; dual steps would overshoot"
            )
        if not (0 < self.percentile_lo < self.percentile_hi < 100):
            raise ConfigError("percentiles must satisfy 0 < lo < hi < 100")
        if self.prox_term_mode not in ("include", "omit"):
            raise ConfigError(f"unknown prox_term_mode {self.prox_term_mode!r}")
        if self.w0_mode not in ("identity", "inverse_covariance"):
            raise ConfigError(f"unknown w0_mode {self.w0_mode!r}")
        if self.outer_iters < 0:
            raise ConfigError("outer_iters must be >= 0")
        if self.max_pairs_per_side < 1:
            raise ConfigError("max_pairs_per_side must be >= 1")


@dataclass(frozen=True, eq=False)
class MetricModel:
    """A learned metric with its reference point, bounds, and run history."""

    w: SpdMatrix
    w0: SpdMatrix
    u: float
    l: float
    trace: RunTrace

    def to_json_dict(self) -> dict:
        return {
            "dim": self.w.dim,
            "w": matrix_to_json_dict(self.w)["data"],
            "w0": matrix_to_json_dict(self.w0)["data"],
            "u": self.u,
            "l": self.l,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "MetricModel":
        obj = json.loads(Path(path).read_text())
        n = int(obj["dim"])
        w = matrix_from_json_dict({"dim": n, "data": obj["w"]})
        w0 = matrix_from_json_dict({"dim": n, "data": obj["w0"]})
        empty = RunTrace([], w, 0, 0.0, 0.0)
        return cls(w=w, w0=w0, u=float(obj["u"]), l=float(obj["l"]), trace=empty)


def build_pairs(
    features: Array,
    labels: Array,
    max_pairs_per_side: int = 200,
    seed: int = 0,
) -> PairConstraints:
    """Enumerate same-label and different-label pair differences.

    All pairs (i < j) are used when their count fits under the cap;
    otherwise a seeded subsample is drawn.  Bounds are left unset.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    labels = np.asarray(labels)
    if features.shape[0] != labels.shape[0]:
        raise DimensionMismatchError("features and labels disagree on sample count")
    if features.shape[0] < 2:
        raise ConstraintBuildError("need at least two samples")
    if np.unique(labels).size < 2:
        raise ConstraintBuildError("need at least two distinct labels")

    same = labels[:, None] == labels[None, :]
    iu, ju = np.triu_indices(labels.size, k=1)
    sim_idx = np.flatnonzero(same[iu, ju])
    dis_idx = np.flatnonzero(~same[iu, ju])
    if sim_idx.size == 0:
        raise ConstraintBuildError("no same-label pair exists (all classes are singletons)")

    ss_sim, ss_dis = np.random.SeedSequence(seed).spawn(2)

    def pick(idx: Array, ss) -> Array:
        if idx.size <= max_pairs_per_side:
            return idx
        rng = np.random.default_rng(ss)
        return np.sort(rng.choice(idx, size=max_pairs_per_side, replace=False))

    sim_idx = pick(sim_idx, ss_sim)
    dis_idx = pick(dis_idx, ss_dis)
    sim_diffs = features[iu[sim_idx]] - features[ju[sim_idx]]
    dis_diffs = features[iu[dis_idx]] - features[ju[dis_idx]]
    return PairConstraints(sim_diffs, dis_diffs)


def compute_bounds(distances: Array, p_lo: float = 5.0, p_hi: float = 95.0) -> tuple[float, float]:
    """Nearest-rank percentiles of an observed distance distribution."""
    d = np.sort(np.asarray(distances, dtype=float))
    if d.size == 0:
        raise BoundsError("distance sample is empty")
    if not (0 < p_lo < p_hi < 100):
        raise ConfigError("percentiles must satisfy 0 < lo < hi < 100")
    n = d.size

    def nearest_rank(p: float) -> float:
        rank = max(1, math.ceil(p / 100.0 * n))
        return float(d[rank - 1])

    u, l = nearest_rank(p_lo), nearest_rank(p_hi)
    if not u < l:
        raise BoundsError(
            f"degenerate distance distribution (u = l = {u:g}); provide more varied data"
        )
    return u, l


def eval_h(w: SpdMatrix, xi: Array, pc: PairConstraints) -> Array:
    """Constraint vector [h_plus; h_minus] at metric w and slacks xi."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (pc.n_constraints,):
        raise DimensionMismatchError(
            f"slack shape {xi.shape}, expected ({pc.n_constraints},)"
        )
    if pc.dim != w.dim:
        raise DimensionMismatchError(f"pair dim {pc.dim} != metric dim {w.dim}")
    xi_p, xi_n = xi[: pc.n_similar], xi[pc.n_similar:]
    h_plus = rowwise_quadratic(w.mat, pc.similar_diffs) - pc.u * (1.0 + xi_p)
    h_minus = -rowwise_quadratic(w.mat, pc.dissimilar_diffs) + pc.l * (1.0 - xi_n)
    return np.concatenate([h_plus, h_minus])


def grad_h_contraction(lam: Array, pc: PairConstraints) -> Array:
    """<lam, dh/dW>: weighted sum of pair outer products, sign-split by side."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (pc.n_constraints,):
        raise DimensionMismatchError(
            f"dual shape {lam.shape}, expected ({pc.n_constraints},)"
        )
    lam_p, lam_n = lam[: pc.n_similar], lam[pc.n_similar:]
    xp, xn = pc.similar_diffs, pc.dissimilar_diffs
    out = (xp * lam_p[:, None]).T @ xp - (xn * lam_n[:, None]).T @ xn
    return sym(out)


def _logdet_div_raw(w: Array, ref_inv: Array, ref_logdet: float) -> float:
    """d2(W, ref) given a precomputed inverse/logdet of the reference."""
    n = w.shape[0]
    sign, logdet_w = np.linalg.slogdet(w)
    if sign <= 0:
        return math.inf
    return float(np.einsum("ij,ji->", w, ref_inv)) - (logdet_w - ref_logdet) - n


def inner_objective(
    w_mat: Array,
    w_t: SpdMatrix,
    lam: Array,
    w0: SpdMatrix,
    eta_t: float,
    pc: PairConstraints,
    prox_term_mode: str = "include",
) -> float:
    """Inner objective J(W) = d2(W, W0)/2 + <lam, h(W, 0)> [+ prox anchor].

    Accepts a raw (possibly slightly asymmetric) matrix so that numerical
    differentiation of J is well defined.
    """
    w0_inv = spd_inverse(w0).mat
    w0_logdet = float(np.sum(np.log(np.linalg.eigvalsh(w0.mat))))
    val = 0.5 * _logdet_div_raw(w_mat, w0_inv, w0_logdet)
    lam = np.asarray(lam, dtype=float)
    lam_p, lam_n = lam[: pc.n_similar], lam[pc.n_similar:]
    h_plus = rowwise_quadratic(w_mat, pc.similar_diffs) - pc.u
    h_minus = -rowwise_quadratic(w_mat, pc.dissimilar_diffs) + pc.l
    val += float(lam_p @ h_plus + lam_n @ h_minus)
    if prox_term_mode == "include":
        wt_inv = spd_inverse(w_t).mat
        wt_logdet = float(np.sum(np.log(np.linalg.eigvalsh(w_t.mat))))
        val += _logdet_div_raw(w_mat, wt_inv, wt_logdet) / (2.0 * eta_t)
    return val


def inner_gradient(
    w_mat: Array,
    w_t: SpdMatrix,
    lam: Array,
    w0: SpdMatrix,
    eta_t: float,
    pc: PairConstraints,
    prox_term_mode: str = "include",
) -> Array:
    """Analytic gradient of the inner objective at W."""
    w_inv = np.linalg.inv(w_mat)
    grad = 0.5 * (spd_inverse(w0).mat - w_inv)
    grad = grad + grad_h_contraction(lam, pc)
    if prox_term_mode == "include":
        grad = grad + (spd_inverse(w_t).mat - w_inv) / (2.0 * eta_t)
    return grad


def inner_solve_w(
    w_t: SpdMatrix,
    lam: Array,
    w0: SpdMatrix,
    eta_t: float,
    pc: PairConstraints,
    config: RpdmlConfig,
) -> SpdMatrix:
    """Closed-form inner solve: the exact minimizer of the W subproblem.

    The inner objective collapses to J(W) = tr(W M) - c logdet(W) + const,
    where M folds the reference inverse, the dual contraction, and (in
    'include' mode) the prox anchor.  For M positive definite J is strictly
    convex with the unique minimizer W* = c inv(M), taken from one
    eigendecomposition of M and floored at EPS_PD like a retraction.  An M
    that is not positive definite leaves J unbounded below.
    """
    include_prox = config.prox_term_mode == "include"
    m_lin = 0.5 * spd_inverse(w0).mat + grad_h_contraction(lam, pc)
    c_log = 0.5
    if include_prox:
        m_lin = m_lin + spd_inverse(w_t).mat / (2.0 * eta_t)
        c_log += 1.0 / (2.0 * eta_t)
    vals, vecs = np.linalg.eigh(sym(m_lin))
    # A nonpositive direction of M is a descent ray: no minimizer exists.
    if float(vals[0]) <= 0.0:
        raise InnerSolveError(
            "inner objective is unbounded below (dual pull exceeds the log barrier); "
            "use a smaller step size"
        )
    return SpdMatrix._trusted(sym((vecs * clip_spectrum(c_log / vals)) @ vecs.T))


def update_slack(
    xi_t: Array,
    lam: Array,
    gamma: Array,
    eta_t: float,
    c1: float,
    pc: PairConstraints,
) -> Array:
    """Closed-form prox step for the slacks (projected to nonnegative)."""
    xi_t = np.asarray(xi_t, dtype=float)
    lam = np.asarray(lam, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    m = pc.n_constraints
    if not (xi_t.shape == lam.shape == gamma.shape == (m,)):
        raise DimensionMismatchError("slack/dual vectors disagree with constraint count")
    if c1 + eta_t <= 0:
        raise ConfigError("c1 + eta_t must be positive")
    return positive_part((eta_t * xi_t + gamma + lam * pc.bound_vector()) / (c1 + eta_t))


def update_lambda(lam_t: Array, h_val: Array, eta_t: float, c2: float) -> Array:
    """Projected dual ascent for the distance constraints."""
    return dual_ascent_step(lam_t, h_val, eta_t, c2)


def update_gamma(gamma_t: Array, xi_next: Array, eta_t: float, c2: float) -> Array:
    """Projected dual ascent for the slack-nonnegativity constraints (h = -xi)."""
    return dual_ascent_step(gamma_t, -np.asarray(xi_next, dtype=float), eta_t, c2)


def inverse_covariance_metric(features: Array, ridge: float = 1e-6) -> SpdMatrix:
    """Ridge-regularized inverse covariance of the samples."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if features.shape[0] < 2:
        raise ConfigError("need at least two samples for a covariance estimate")
    cov = np.cov(features, rowvar=False)
    cov = np.atleast_2d(cov) + ridge * np.eye(features.shape[1])
    return spd_inverse(SpdMatrix(sym(cov)))


def train(features: Array, labels: Array, config: RpdmlConfig) -> MetricModel:
    """Learn a metric from labeled samples.

    Builds pair constraints (seeded subsample under the cap) and sets the
    distance bounds from percentiles of the pair distances under the initial
    metric.  Then runs ``solver.run`` for ``outer_iters`` iterations on the
    saddle problem of the module docstring, starting from (W0, 0), with
    ``inner_solve_w`` and ``update_slack`` as the proximal primal step.  The
    returned model carries the final W and the full trace, whose points are
    (W, xi) pairs.  An unbounded W subproblem raises ``DivergedError``
    carrying the partial trace.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    pc = build_pairs(features, labels, config.max_pairs_per_side, config.seed)
    pc = pc.without_degenerate_rows()

    if config.w0_mode == "identity":
        w0 = SpdMatrix.identity(features.shape[1])
    else:
        w0 = inverse_covariance_metric(features)

    all_diffs = np.vstack([pc.similar_diffs, pc.dissimilar_diffs])
    init_dists = rowwise_quadratic(w0.mat, all_diffs)
    u, l = compute_bounds(init_dists, config.percentile_lo, config.percentile_hi)
    pc = pc.with_bounds(u, l)

    m = pc.n_constraints
    w0_inv = spd_inverse(w0).mat
    w0_logdet = float(np.sum(np.log(np.linalg.eigvalsh(w0.mat))))

    def objective(x) -> float:
        w, xi = x
        return 0.5 * _logdet_div_raw(w.mat, w0_inv, w0_logdet) + 0.5 * config.c1 * float(xi @ xi)

    def constraints(x) -> Array:
        w, xi = x
        return np.concatenate([eval_h(w, xi, pc), -xi])

    def inner_minimizer(x, dual: Array, eta: float):
        w, xi = x
        lam, gamma = dual[:m], dual[m:]
        return (inner_solve_w(w, lam, w0, eta, pc, config),
                update_slack(xi, lam, gamma, eta, config.c1, pc))

    def distance_sq(a, b) -> float:
        return logdet_divergence(a[0], b[0]) + float(np.sum((a[1] - b[1]) ** 2))

    def record_extras(x, dual: Array) -> dict:
        xi, gamma = x[1], dual[m:]
        return {
            "slack_norm": float(np.linalg.norm(xi)),
            "gamma_norm": float(np.linalg.norm(gamma)),
            "slack_min": float(xi.min()),
            "gamma_min": float(gamma.min()),
        }

    problem = SaddleProblem(objective, constraints, 2 * m, inner_minimizer, distance_sq,
                            record_extras)
    solver_config = SolverConfig(alpha=config.c2, eta0=config.eta0,
                                 max_outer_iters=config.outer_iters)
    trace = run(problem, (w0, np.zeros(m)), solver_config)
    return MetricModel(w=trace.final_point[0], w0=w0, u=u, l=l, trace=trace)


def metric_distance(model: MetricModel, a: Array, b: Array) -> float:
    """Squared distance (a - b).T W (a - b) under the learned metric."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.shape != (model.w.dim,):
        raise DimensionMismatchError(
            f"vector shapes {a.shape}, {b.shape} incompatible with dim {model.w.dim}"
        )
    d = a - b
    return float(d @ model.w.mat @ d)
