"""Generic primal-dual proximal solver for inequality-constrained problems.

The solver alternates a proximal primal minimization with a projected dual
ascent step on the regularized Lagrangian

    L(x, lam) = f(x) + <lam, h(x)> - (alpha / 2) * ||lam||^2.

Each of a run's ``iters`` iterations solves

    x_{t+1} = argmin_x { L(x, lam_t) + 1/(2 eta_t) d2(x_t, x) }

through a problem-supplied inner minimizer, then updates the dual with

    lam_{t+1} = [(1 - alpha eta_t) lam_t + eta_t h(x_{t+1})]_+ .

Points are opaque to this module: a problem supplies the objective,
constraints and the inner minimizer, so scalar toy problems and SPD matrix
problems run through the same loop, which keeps only the current iterate.
``prefix_bounds`` turns a run's records into the paper's suboptimality
bound for every prefix of the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    DivergedError,
    InnerSolveError,
    InvariantViolationError,
)

Array = np.ndarray

#: An iterate counts as feasible when its aggregate violation is below this.
FEASIBILITY_TOL = 1e-8


def step_size(t: int, eta0: float) -> float:
    """Decreasing schedule eta0 / sqrt(t + 1)."""
    if t < 0:
        raise ConfigError(f"iteration index must be >= 0, got {t}")
    if not eta0 > 0:
        raise ConfigError(f"base step size must be positive, got {eta0}")
    return eta0 / math.sqrt(t + 1.0)


def positive_part(v: Array) -> Array:
    """Elementwise max(v, 0)."""
    return np.maximum(np.asarray(v, dtype=float), 0.0)


def aggregate_violation(h_val: Array) -> float:
    """L1 norm of the positive part of the constraint vector."""
    return float(np.sum(positive_part(h_val)))


@dataclass(frozen=True)
class SaddleProblem:
    """A constrained minimization problem in saddle-point form.

    ``constraints(x)`` returns h(x); its length at x0 sizes the dual.
    ``inner_minimizer(x, lam, eta)`` must return the solution of the
    proximal subproblem at x with dual lam and step eta.
    ``record_extras(x, lam)``, if given, returns extra per-iteration trace
    fields for the new iterate x and the dual lam it was computed with.
    """

    objective: Callable[[Any], float]
    constraints: Callable[[Any], Array]
    inner_minimizer: Callable[[Any, Array, float], Any]
    record_extras: Callable[[Any, Array], dict] | None = None


@dataclass(frozen=True)
class SolverConfig:
    """Dual regularizer alpha, base step eta0 and iteration count; NaN fails every check."""

    alpha: float
    eta0: float = 1.0
    iters: int = 100

    def __post_init__(self):
        if not self.alpha > 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if not self.eta0 > 0:
            raise ConfigError(f"eta0 must be positive, got {self.eta0}")
        # eta_t is decreasing, so validating at eta_0 covers the whole run.
        if not self.alpha * self.eta0 <= 1.0 + 1e-15:
            raise ConfigError(
                f"alpha * eta0 = {self.alpha * self.eta0:.4g} exceeds 1; "
                "shrink the step size or the dual regularizer"
            )
        if self.iters < 0:
            raise ConfigError(f"iters must be >= 0, got {self.iters}")


@dataclass(frozen=True)
class IterationRecord:
    t: int
    eta: float
    objective: float
    h_max: float  # max |h|, for prefix_bounds
    violation: float
    dual_norm: float
    dual_min: float
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        rec = {
            "t": self.t,
            "eta": self.eta,
            "f": self.objective,
            "h_violation": self.violation,
            "dual_norm": self.dual_norm,
        }
        rec.update(self.extras)
        return rec


@dataclass(frozen=True)
class RunTrace:
    """Per-iteration records of a solver or training run and its last point."""

    records: list[IterationRecord]
    final_point: Any
    best_index: int
    initial_objective: float
    initial_violation: float

    def __len__(self):
        return len(self.records)


def best_iterate_key(rec: IterationRecord, i: int) -> tuple:
    """Sort key of the best-iterate rule, ending in the index i.

    Feasible iterates (violation at most ``FEASIBILITY_TOL``) come first, by
    objective; the rest by violation.  Ties break toward the other quantity,
    then the earlier index.
    """
    if rec.violation <= FEASIBILITY_TOL:
        return (0, rec.objective, rec.violation, i)
    return (1, rec.violation, rec.objective, i)


def select_best_index(records: Sequence[IterationRecord]) -> int:
    """Pick the reported solution: best objective among feasible iterates,
    else the least violating one (``best_iterate_key``)."""
    if not records:
        raise ConfigError("cannot select best index from an empty trace")
    return min(best_iterate_key(r, i) for i, r in enumerate(records))[-1]


def dual_ascent_step(lam: Array, h_val: Array, eta: float, alpha: float) -> Array:
    """Projected ascent lam <- [(1 - eta*alpha) lam + eta h]_+ ."""
    lam = np.asarray(lam, dtype=float)
    h_val = np.asarray(h_val, dtype=float)
    if lam.shape != h_val.shape:
        raise DimensionMismatchError(f"dual shape {lam.shape} != constraint shape {h_val.shape}")
    if not eta > 0:
        raise ConfigError(f"step size must be positive, got {eta}")
    if not alpha * eta <= 1.0 + 1e-15:
        raise ConfigError(f"alpha * eta = {alpha * eta:.4g} exceeds 1")
    if np.any(lam < 0):
        raise InvariantViolationError("dual vector has negative entries")
    step = (1.0 - alpha * eta) * lam
    step += eta * h_val
    return np.maximum(step, 0.0, out=step)  # positive_part, in place


def run(problem: SaddleProblem, x0, config: SolverConfig) -> RunTrace:
    """Alternate proximal primal steps and projected dual ascent.

    Each iteration leaves one ``IterationRecord`` of scalars; only the current
    iterate is held.  ``final_point`` is the last iterate (the ``w`` that
    ``train`` saves).  ``best_index`` picks the best objective among feasible
    (or least-violating) iterates: the convergence guarantee certifies that
    iterate, not the last one, and ``bench-convergence`` reports it.
    """
    records: list[IterationRecord] = []
    initial_objective = float(problem.objective(x0))
    h0 = np.atleast_1d(np.asarray(problem.constraints(x0), dtype=float))
    initial_violation = aggregate_violation(h0)
    lam = np.zeros(h0.shape)

    def partial_trace(final_point) -> RunTrace:
        best = select_best_index(records) if records else 0
        return RunTrace(records, final_point, best, initial_objective, initial_violation)

    x = x0
    for t in range(config.iters):
        eta = step_size(t, config.eta0)
        try:
            x_next = problem.inner_minimizer(x, lam, eta)
        except InnerSolveError as exc:
            raise DivergedError(f"inner minimizer failed at t={t}: {exc}", partial_trace(x)) from exc
        f_val = float(problem.objective(x_next))
        h_val = np.atleast_1d(np.asarray(problem.constraints(x_next), dtype=float))
        if h_val.shape != h0.shape:
            raise DimensionMismatchError(
                f"constraints returned shape {h_val.shape} at t={t}, {h0.shape} at x0")
        # A nan or an infinity in h makes max |h| nan or inf.
        h_max = float(np.max(np.abs(h_val), initial=0.0))
        if not (math.isfinite(f_val) and math.isfinite(h_max)):
            raise DivergedError(f"non-finite objective/constraints at t={t}", partial_trace(x))
        records.append(IterationRecord(
            t=t,
            eta=eta,
            objective=f_val,
            h_max=h_max,
            violation=aggregate_violation(h_val),
            dual_norm=float(np.linalg.norm(lam)),
            dual_min=float(lam.min()) if lam.size else 0.0,
            extras=problem.record_extras(x_next, lam) if problem.record_extras else {},
        ))
        lam = dual_ascent_step(lam, h_val, eta, config.alpha)
        x = x_next

    return partial_trace(x)


def prefix_bounds(
    records: Sequence[IterationRecord],
    d0_sq: Sequence[float],
    m: int,
    alpha: float,
) -> list[tuple[int, float]]:
    """Best index and guaranteed gap of every prefix ``records[:t + 1]``.

    The gap is the paper's rate for the steps taken so far,

        (d0_sq / 2 + 2 m g^2 sum eta_t^2) / sum eta_t,

    with constants estimated from the prefix: d0_sq is ``d0_sq[i]``, the
    squared distance from x0 of the best iterate i (``best_iterate_key``),
    standing in for the unknown optimum; g is the largest observed |h| plus
    alpha * max ||lam||, which also covers the dual gradient h - alpha*lam;
    m is the number of constraints.  One pass over the records.
    """
    out = []
    best_key = (math.inf,)  # sorts after every best_iterate_key
    sum_eta = sum_eta_sq = max_abs_h = max_dual = 0.0
    for i, rec in enumerate(records):
        sum_eta += rec.eta
        sum_eta_sq += rec.eta ** 2
        max_abs_h = max(max_abs_h, rec.h_max)
        max_dual = max(max_dual, rec.dual_norm)
        key = best_iterate_key(rec, i)
        if key < best_key:
            best_key = key
            d0 = d0_sq[i]
        g = max_abs_h + alpha * max_dual
        bound = (0.5 * d0 + 2.0 * m * g ** 2 * sum_eta_sq) / sum_eta
        out.append((best_key[-1], bound))
    return out


def step_sum_bounds(T: int) -> tuple[float, float]:
    """Closed-form envelope for the 1/sqrt(t+1) schedule over t in [0, T).

    Returns (lower bound on sum eta_t, upper bound on sum eta_t^2):
    2 (sqrt(T) - 1) and 1 + log(T).
    """
    if T < 1:
        raise ConfigError(f"T must be >= 1, got {T}")
    return 2.0 * (math.sqrt(T) - 1.0), 1.0 + math.log(T)
