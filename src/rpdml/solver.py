"""Generic primal-dual proximal solver for inequality-constrained problems.

The solver alternates a proximal primal minimization with a projected dual
ascent step on the regularized Lagrangian

    L(x, lam) = f(x) + <lam, h(x)> - (alpha / 2) * ||lam||^2.

Each outer iteration solves

    x_{t+1} = argmin_x { L(x, lam_t) + 1/(2 eta_t) d2(x_t, x) }

through a problem-supplied inner minimizer, then updates the dual with

    lam_{t+1} = [(1 - alpha eta_t) lam_t + eta_t h(x_{t+1})]_+ .

Points are opaque to this module: a problem supplies the objective,
constraints, squared prox distance, and the inner minimizer, so scalar toy
problems and SPD matrix problems run through the same loop.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
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
    if eta0 <= 0:
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

    ``inner_minimizer(x, lam, eta)`` must return the solution of the
    proximal subproblem at x with dual lam and step eta.  ``distance_sq`` is
    the squared prox distance d2(a, b) measured from reference point b.
    ``record_extras(x, lam)``, if given, returns extra per-iteration trace
    fields for the new iterate x and the dual lam it was computed with.
    """

    objective: Callable[[Any], float]
    constraints: Callable[[Any], Array]
    constraint_count: int
    inner_minimizer: Callable[[Any, Array, float], Any]
    distance_sq: Callable[[Any, Any], float]
    record_extras: Callable[[Any, Array], dict] | None = None

    def eval_constraints(self, x) -> Array:
        h = np.atleast_1d(np.asarray(self.constraints(x), dtype=float))
        if h.shape != (self.constraint_count,):
            raise DimensionMismatchError(
                f"constraints returned shape {h.shape}, expected ({self.constraint_count},)"
            )
        return h

    def check_consistency(self, probe_points: Sequence[Any], tol: float = 1e-9) -> None:
        """Check d2(x, x) == 0 and symmetry of d2 on the given probe points."""
        for x in probe_points:
            dxx = self.distance_sq(x, x)
            if abs(dxx) > tol:
                raise InvariantViolationError(f"distance_sq(x, x) = {dxx:.3e} != 0")
        for x in probe_points:
            for y in probe_points:
                dxy = self.distance_sq(x, y)
                dyx = self.distance_sq(y, x)
                if abs(dxy - dyx) > tol:
                    raise InvariantViolationError(
                        f"distance_sq asymmetric on probes: {dxy:.6e} vs {dyx:.6e}"
                    )


@dataclass(frozen=True)
class SolverConfig:
    alpha: float
    eta0: float = 1.0
    max_outer_iters: int = 100

    def __post_init__(self):
        if self.alpha <= 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if self.eta0 <= 0:
            raise ConfigError(f"eta0 must be positive, got {self.eta0}")
        # eta_t is decreasing, so validating at eta_0 covers the whole run.
        if self.alpha * self.eta0 > 1.0 + 1e-15:
            raise ConfigError(
                f"alpha * eta0 = {self.alpha * self.eta0:.4g} exceeds 1; "
                "shrink the step size or the dual regularizer"
            )
        if self.max_outer_iters < 0:
            raise ConfigError("max_outer_iters must be >= 0")


@dataclass(frozen=True)
class BoundParams:
    """Constants entering the suboptimality bound.

    ``d0_sq`` is (an estimate of) the squared distance from the solution to
    the start point, ``g`` bounds the constraint magnitudes, ``m`` is the
    number of constraints.  ``r`` (manifold diameter) and ``c`` (gradient
    bound) are recorded for reporting but do not enter the bound value.
    """

    d0_sq: float
    g: float
    m: int
    r: float = 0.0
    c: float = 0.0

    def __post_init__(self):
        for name in ("d0_sq", "g", "r", "c"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.m < 0:
            raise ConfigError("m must be nonnegative")


@dataclass(frozen=True)
class IterationRecord:
    t: int
    eta: float
    objective: float
    h: Array
    violation: float
    dual_norm: float
    dual_min: float
    point: Any
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
    """Per-iteration history of a solver or training run."""

    records: list[IterationRecord]
    final_point: Any
    best_index: int
    initial_objective: float
    initial_violation: float

    def __len__(self):
        return len(self.records)

    def objectives(self) -> Array:
        return np.array([r.objective for r in self.records])

    def violations(self) -> Array:
        return np.array([r.violation for r in self.records])

    def dual_norms(self) -> Array:
        return np.array([r.dual_norm for r in self.records])

    def etas(self) -> Array:
        return np.array([r.eta for r in self.records])

    @property
    def best_record(self) -> IterationRecord:
        return self.records[self.best_index]

    def to_dicts(self) -> list[dict]:
        return [r.to_dict() for r in self.records]

    def write_jsonl(self, path: str | Path, rows: list[dict] | None = None) -> None:
        rows = self.to_dicts() if rows is None else rows
        with open(path, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")


def select_best_index(records: Sequence[IterationRecord], feas_tol: float = FEASIBILITY_TOL) -> int:
    """Pick the reported solution: best objective among feasible iterates.

    If no iterate is feasible within ``feas_tol``, falls back to the least
    violating one.  Ties break toward smaller violation, then earlier t.
    """
    if not records:
        raise ConfigError("cannot select best index from an empty trace")
    feasible = [i for i, r in enumerate(records) if r.violation <= feas_tol]
    if feasible:
        return min(feasible, key=lambda i: (records[i].objective, records[i].violation, i))
    return min(range(len(records)), key=lambda i: (records[i].violation, records[i].objective, i))


def lagrangian(problem: SaddleProblem, x, lam: Array, alpha: float) -> float:
    """L(x, lam) = f(x) + <lam, h(x)> - alpha/2 ||lam||^2."""
    lam = np.asarray(lam, dtype=float)
    h = problem.eval_constraints(x)
    if lam.shape != h.shape:
        raise DimensionMismatchError(f"dual shape {lam.shape} != constraint shape {h.shape}")
    return float(problem.objective(x) + lam @ h - 0.5 * alpha * float(lam @ lam))


def dual_ascent_step(lam: Array, h_val: Array, eta: float, alpha: float) -> Array:
    """Projected ascent lam <- [(1 - eta*alpha) lam + eta h]_+ ."""
    lam = np.asarray(lam, dtype=float)
    h_val = np.asarray(h_val, dtype=float)
    if lam.shape != h_val.shape:
        raise DimensionMismatchError(f"dual shape {lam.shape} != constraint shape {h_val.shape}")
    if eta <= 0:
        raise ConfigError(f"step size must be positive, got {eta}")
    if alpha * eta > 1.0 + 1e-15:
        raise ConfigError(f"alpha * eta = {alpha * eta:.4g} exceeds 1")
    if np.any(lam < 0):
        raise InvariantViolationError("dual vector has negative entries")
    return positive_part((1.0 - alpha * eta) * lam + eta * h_val)


def run(problem: SaddleProblem, x0, config: SolverConfig) -> RunTrace:
    """Alternate proximal primal steps and projected dual ascent.

    The trace records every iterate; the reported solution is the best
    objective among feasible (or least-violating) iterates, since the
    convergence guarantee controls the minimum over the run rather than the
    last point.
    """
    lam = np.zeros(problem.constraint_count)
    records: list[IterationRecord] = []
    initial_objective = float(problem.objective(x0))
    initial_violation = aggregate_violation(problem.eval_constraints(x0))

    def partial_trace(final_point) -> RunTrace:
        best = select_best_index(records) if records else 0
        return RunTrace(records, final_point, best, initial_objective, initial_violation)

    x = x0
    for t in range(config.max_outer_iters):
        eta = step_size(t, config.eta0)
        try:
            x_next = problem.inner_minimizer(x, lam, eta)
        except InnerSolveError as exc:
            raise DivergedError(f"inner minimizer failed at t={t}: {exc}", partial_trace(x)) from exc
        f_val = float(problem.objective(x_next))
        h_val = problem.eval_constraints(x_next)
        if not (np.isfinite(f_val) and np.all(np.isfinite(h_val))):
            raise DivergedError(f"non-finite objective/constraints at t={t}", partial_trace(x))
        records.append(IterationRecord(
            t=t,
            eta=eta,
            objective=f_val,
            h=h_val,
            violation=aggregate_violation(h_val),
            dual_norm=float(np.linalg.norm(lam)),
            dual_min=float(lam.min()) if lam.size else 0.0,
            point=x_next,
            extras=problem.record_extras(x_next, lam) if problem.record_extras else {},
        ))
        lam = dual_ascent_step(lam, h_val, eta, config.alpha)
        x = x_next

    best = select_best_index(records) if records else 0
    return RunTrace(records, x, best, initial_objective, initial_violation)


def suboptimality_bound(params: BoundParams, etas: Sequence[float]) -> float:
    """Guaranteed gap after running with the given step sizes:

        (1 / sum eta_t) * (d0_sq / 2 + 2 m g^2 sum eta_t^2).
    """
    etas = np.asarray(etas, dtype=float)
    if etas.size == 0:
        raise ConfigError("step size sequence must be nonempty")
    s1 = float(np.sum(etas))
    s2 = float(np.sum(etas ** 2))
    return (0.5 * params.d0_sq + 2.0 * params.m * params.g ** 2 * s2) / s1


def step_sum_bounds(T: int) -> tuple[float, float]:
    """Closed-form envelope for the 1/sqrt(t+1) schedule over t in [0, T).

    Returns (lower bound on sum eta_t, upper bound on sum eta_t^2):
    2 (sqrt(T) - 1) and 1 + log(T).
    """
    if T < 1:
        raise ConfigError(f"T must be >= 1, got {T}")
    return 2.0 * (math.sqrt(T) - 1.0), 1.0 + math.log(T)


def estimate_bound_params(trace: RunTrace, problem: SaddleProblem, x0, alpha: float) -> BoundParams:
    """Estimate bound constants from an observed run.

    The constraint bound is taken as the largest observed |h| plus
    alpha * max ||lam||, which also covers the dual gradient h - alpha*lam;
    the initial distance uses the best iterate in place of the unknown
    optimum.
    """
    if not trace.records:
        raise ConfigError("trace is empty")
    g_h = max(float(np.max(np.abs(r.h))) for r in trace.records)
    g = g_h + alpha * float(np.max(trace.dual_norms()))
    d0_sq = float(problem.distance_sq(trace.best_record.point, x0))
    return BoundParams(d0_sq=d0_sq, g=g, m=problem.constraint_count)
