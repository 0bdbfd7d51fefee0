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

Training is one run of the generic primal-dual loop (``solver.run``) on
the primal point x = (W, xi) with objective and constraints

    f(x) = d2(W, W0)/2 + c1/2 ||xi||^2,        [ h(W, xi) ; -xi ] <= 0,

dual [lam; gamma] (lam for the distance constraints, gamma for slack
nonnegativity) and dual regularizer alpha = c2.  The proximal primal step
is closed form in both blocks, and the dual step is the solver's projected
ascent:

    W      <- argmin  d2(W, W0)/2 + <lam, h(W)> + d2(W, W_t)/(2 eta_t)
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
from dataclasses import dataclass, field
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
    eigendecompose,
    from_spectrum,
    logdet_divergence,
    logdet_divergence_raw,
    rowwise_quadratic,
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

@dataclass(frozen=True, eq=False)
class PairConstraints:
    """Difference vectors of similar / dissimilar sample pairs with bounds.

    One read-only stacked matrix ``diffs`` (similar rows first) with its
    ``signs`` (+1 similar, -1 dissimilar) and, once u and l are set, its
    bound vector; ``similar_diffs`` and ``dissimilar_diffs`` are views.
    """

    similar_diffs: Array
    dissimilar_diffs: Array
    u: float | None = None
    l: float | None = None
    diffs: Array = field(init=False, repr=False)
    signs: Array = field(init=False, repr=False)
    _bounds: Array | None = field(init=False, repr=False)

    def __post_init__(self):
        sd = np.atleast_2d(np.asarray(self.similar_diffs, dtype=float))
        dd = np.atleast_2d(np.asarray(self.dissimilar_diffs, dtype=float))
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
        n_s = sd.shape[0]
        diffs = np.vstack([sd, dd])
        signs = np.ones(diffs.shape[0])
        signs[n_s:] = -1.0
        bounds = None
        if self.u is not None:
            bounds = np.where(signs > 0, self.u, self.l)
            bounds.flags.writeable = False
        diffs.flags.writeable = False
        signs.flags.writeable = False
        object.__setattr__(self, "diffs", diffs)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "_bounds", bounds)
        object.__setattr__(self, "similar_diffs", diffs[:n_s])
        object.__setattr__(self, "dissimilar_diffs", diffs[n_s:])

    @property
    def n_similar(self) -> int:
        return self.similar_diffs.shape[0]

    @property
    def n_dissimilar(self) -> int:
        return self.dissimilar_diffs.shape[0]

    @property
    def n_constraints(self) -> int:
        return self.diffs.shape[0]

    @property
    def dim(self) -> int:
        return self.diffs.shape[1]

    def bound_vector(self) -> Array:
        """Per-constraint bound (u for similar rows, l for dissimilar rows), read-only."""
        if self._bounds is None:
            raise ConfigError("bounds are unset")
        return self._bounds

    def with_bounds(self, u: float, l: float) -> "PairConstraints":
        return PairConstraints(self.similar_diffs, self.dissimilar_diffs, u=u, l=l)

    def without_degenerate_rows(self, tol: float = 1e-12) -> "PairConstraints":
        """Drop all-zero difference rows (duplicate points in a pair)."""
        keep = np.linalg.norm(self.diffs, axis=1) > tol
        dropped = int((~keep).sum())
        if dropped == 0:
            return self
        keep_s, keep_d = keep[: self.n_similar], keep[self.n_similar:]
        if not keep_s.any() or not keep_d.any():
            raise ConstraintBuildError("all pairs on one side are degenerate (zero difference)")
        logger.warning("dropping %d degenerate zero-difference pair rows", dropped)
        return PairConstraints(
            self.similar_diffs[keep_s], self.dissimilar_diffs[keep_d], u=self.u, l=self.l
        )


@dataclass(frozen=True)
class RpdmlConfig:
    """Hyperparameters of the metric-learning run."""

    c1: float = 2.0
    c2: float = 1.0
    eta0: float = 0.003
    outer_iters: int = 200
    percentile_lo: float = 5.0
    percentile_hi: float = 95.0
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
        n = int(obj["dim"])

        def matrix(key: str) -> SpdMatrix:
            # Row-major entries of an n x n matrix, validated as SPD.
            data = np.asarray(obj[key], dtype=float)
            if data.size != n * n:
                raise DimensionMismatchError(f"{key}: expected {n * n} entries, got {data.size}")
            return SpdMatrix(data.reshape(n, n))

        w, w0 = matrix("w"), matrix("w0")
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


def _constraint_values(w_mat: Array, xi: Array | float, pc: PairConstraints) -> Array:
    """signs * (diag(X W X^T) - b) - b * xi over the stacked pair rows X."""
    b = pc.bound_vector()
    return pc.signs * (rowwise_quadratic(w_mat, pc.diffs) - b) - b * xi


def eval_h(w: SpdMatrix, xi: Array, pc: PairConstraints) -> Array:
    """Constraint vector [h_plus; h_minus] at metric w and slacks xi."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (pc.n_constraints,):
        raise DimensionMismatchError(
            f"slack shape {xi.shape}, expected ({pc.n_constraints},)"
        )
    if pc.dim != w.dim:
        raise DimensionMismatchError(f"pair dim {pc.dim} != metric dim {w.dim}")
    return _constraint_values(w.mat, xi, pc)


def grad_h_contraction(lam: Array, pc: PairConstraints) -> Array:
    """<lam, dh/dW> = X^T diag(signs * lam) X over the stacked pair rows X."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (pc.n_constraints,):
        raise DimensionMismatchError(
            f"dual shape {lam.shape}, expected ({pc.n_constraints},)"
        )
    x = pc.diffs
    return sym((x * (pc.signs * lam)[:, None]).T @ x)


def inner_objective(
    w_mat: Array,
    w_t: SpdMatrix,
    lam: Array,
    w0: SpdMatrix,
    eta_t: float,
    pc: PairConstraints,
) -> float:
    """Inner objective J(W) = d2(W, W0)/2 + <lam, h(W, 0)> + d2(W, W_t)/(2 eta_t).

    Accepts a raw (possibly slightly asymmetric) matrix so that numerical
    differentiation of J is well defined.
    """
    val = 0.5 * logdet_divergence_raw(w_mat, spd_inverse(w0).mat, spd_logdet(w0))
    val += float(np.asarray(lam, dtype=float) @ _constraint_values(w_mat, 0.0, pc))
    val += logdet_divergence_raw(w_mat, spd_inverse(w_t).mat, spd_logdet(w_t)) / (2.0 * eta_t)
    return val


def inner_gradient(
    w_mat: Array,
    w_t: SpdMatrix,
    lam: Array,
    w0: SpdMatrix,
    eta_t: float,
    pc: PairConstraints,
) -> Array:
    """Analytic gradient of the inner objective at W."""
    w_inv = np.linalg.inv(w_mat)
    grad = 0.5 * (spd_inverse(w0).mat - w_inv)
    grad = grad + grad_h_contraction(lam, pc)
    return grad + (spd_inverse(w_t).mat - w_inv) / (2.0 * eta_t)


def inner_solve_w(
    w_t_inv: Array,
    lam: Array,
    w0_inv: Array,
    eta_t: float,
    pc: PairConstraints,
) -> tuple[SpdMatrix, Array]:
    """Closed-form inner solve: the exact minimizer of the W subproblem.

    The inner objective collapses to J(W) = tr(W M) - c logdet(W) + const,
    where M folds the reference inverse ``w0_inv``, the dual contraction and
    the prox anchor's ``w_t_inv``.  One ``eigendecompose`` gives
    M = V diag(vals) V^T.  For M positive definite, J has the unique minimizer
    W* = c inv(M) = V diag(s) V^T (``from_spectrum``) with s = c / vals
    floored at EPS_PD like a retraction; W*^-1 = V diag(1/s) V^T comes back
    beside it.  An M that is not positive definite leaves J unbounded below.
    """
    m_lin = 0.5 * w0_inv + grad_h_contraction(lam, pc) + w_t_inv / (2.0 * eta_t)
    c_log = 0.5 + 1.0 / (2.0 * eta_t)
    vals, vecs = eigendecompose(m_lin)
    # A nonpositive direction of M is a descent ray: no minimizer exists.
    if float(vals[0]) <= 0.0:
        raise InnerSolveError(
            "inner objective is unbounded below (dual pull exceeds the log barrier); "
            "use a smaller step size"
        )
    s = clip_spectrum(c_log / vals)
    # Divide, not from_spectrum(vecs, 1 / s): the reciprocal moves the trace at round-off.
    return SpdMatrix._trusted(from_spectrum(vecs, s)), sym((vecs / s) @ vecs.T)


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


def _ridged_covariance(features: Array, ridge: float = 1e-6) -> SpdMatrix:
    """Sample covariance plus ``ridge`` on the diagonal."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if features.shape[0] < 2:
        raise ConfigError("need at least two samples for a covariance estimate")
    cov = np.cov(features, rowvar=False)
    cov = np.atleast_2d(cov) + ridge * np.eye(features.shape[1])
    return SpdMatrix(sym(cov))


def inverse_covariance_metric(features: Array, ridge: float = 1e-6) -> SpdMatrix:
    """Ridge-regularized inverse covariance of the samples."""
    return spd_inverse(_ridged_covariance(features, ridge))


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

    # W0 and W0^-1 from one spd_inverse: the ridged covariance is W0^-1 itself.
    if config.w0_mode == "identity":
        w0 = SpdMatrix.identity(features.shape[1])
        w0_inv = spd_inverse(w0).mat
    else:
        cov = _ridged_covariance(features)
        w0, w0_inv = spd_inverse(cov), cov.mat

    init_dists = rowwise_quadratic(w0.mat, pc.diffs)
    u, l = compute_bounds(init_dists, config.percentile_lo, config.percentile_hi)
    pc = pc.with_bounds(u, l)

    m = pc.n_constraints
    w0_logdet = spd_logdet(w0)

    def objective(x) -> float:
        w, xi = x
        return (0.5 * logdet_divergence_raw(w.mat, w0_inv, w0_logdet)
                + 0.5 * config.c1 * float(xi @ xi))

    def constraints(x) -> Array:
        w, xi = x
        return np.concatenate([eval_h(w, xi, pc), -xi])

    # Inverse of the current W, carried from each solve to the next.
    w_inv = w0_inv

    def inner_minimizer(x, dual: Array, eta: float):
        nonlocal w_inv
        lam, gamma = dual[:m], dual[m:]
        w, w_inv = inner_solve_w(w_inv, lam, w0_inv, eta, pc)
        return w, update_slack(x[1], lam, gamma, eta, config.c1, pc)

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
