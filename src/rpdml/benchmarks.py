"""Scalar benchmark problem for convergence checks.

The 1x1 SPD manifold is the positive half-line, so points here are plain
positive floats.  The benchmark minimizes (x - target)^2 subject to
x - bound <= 0, whose constrained optimum sits on the boundary whenever
target > bound.  The proximal subproblem has a closed-form solution (a
quadratic in x after clearing denominators), which makes runs fast and
exactly reproducible.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .solver import RunTrace, SaddleProblem, SolverConfig, prefix_bounds, run

#: Defaults used by the convergence benchmark and its acceptance checks.
#: Starting at the unconstrained minimizer makes the dual do all the work;
#: eta0 = 2 gives the dual enough early momentum that the iterates oscillate
#: across the boundary, so feasible iterates exist throughout the run.
TOY_TARGET = 2.0
TOY_BOUND = 1.0
TOY_X0 = 2.0
TOY_ALPHA = 0.001
TOY_ETA0 = 2.0
#: The toy optimum: with target > bound it sits on the boundary x = bound.
TOY_OPTIMUM = (TOY_BOUND - TOY_TARGET) ** 2


def scalar_distance_sq(a: float, b: float) -> float:
    """LogDet divergence on the positive half-line: a/b - log(a/b) - 1."""
    r = a / b
    return r - math.log(r) - 1.0


def scalar_toy_problem(target: float = TOY_TARGET, bound: float = TOY_BOUND) -> SaddleProblem:
    """Constrained scalar problem min (x - target)^2 s.t. x <= bound, x > 0."""

    def objective(x: float) -> float:
        return (x - target) ** 2

    def constraints(x: float) -> np.ndarray:
        return np.array([x - bound])

    def inner_minimizer(x_t: float, lam: np.ndarray, eta: float) -> float:
        # Stationarity of (x - target)^2 + lam (x - bound) + d2(x_t, x)/(2 eta)
        # multiplied through by x gives 2 x^2 + b x - 1/(2 eta) = 0.
        lam0 = float(lam[0])
        b = lam0 - 2.0 * target + 1.0 / (2.0 * eta * x_t)
        c = 1.0 / (2.0 * eta)
        return (-b + math.sqrt(b * b + 8.0 * c)) / 4.0

    return SaddleProblem(
        objective=objective,
        constraints=constraints,
        inner_minimizer=inner_minimizer,
    )


def run_toy(T: int, alpha: float = TOY_ALPHA, eta0: float = TOY_ETA0,
            x0: float = TOY_X0) -> tuple[RunTrace, list[float]]:
    """The toy run and each iterate's ``scalar_distance_sq`` from x0, in order."""
    problem, d0_sq = scalar_toy_problem(), []

    def inner_minimizer(x_t: float, lam: np.ndarray, eta: float) -> float:
        x = problem.inner_minimizer(x_t, lam, eta)
        d0_sq.append(scalar_distance_sq(x, x0))
        return x

    config = SolverConfig(alpha=alpha, eta0=eta0, iters=T)
    return run(replace(problem, inner_minimizer=inner_minimizer), x0, config), d0_sq


def convergence_rows(trace: RunTrace, d0_sq: list[float], f_star: float, alpha: float) -> list[dict]:
    """Trace rows augmented with a cumulative bound check.

    For every prefix [0..t] the row carries the guaranteed gap from
    ``prefix_bounds`` (with ``run_toy``'s LogDet distances ``d0_sq``), the
    gap of the prefix's best iterate (``min_gap``; the iterate the bound
    certifies) and whether that gap respects the bound.
    """
    rows = []
    for rec, (best, bound) in zip(trace.records, prefix_bounds(trace.records, d0_sq, 1, alpha)):
        gap = trace.records[best].objective - f_star
        rows.append({**rec.to_dict(), "min_gap": gap, "bound": bound, "bound_ok": bool(gap <= bound)})
    return rows
