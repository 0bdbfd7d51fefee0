"""Closed-form oracle of the W subproblem, for checking ``metric.inner_solve_w``.

The subproblem at prox anchor W_t, dual lam and step eta_t is

    J(W) = d2(W, W0)/2 + <lam, h(W, 0)> + d2(W, W_t)/(2 eta_t),

with d2 the LogDet divergence.  The functions here evaluate J and its
analytic gradient on raw matrices (possibly slightly asymmetric), so that J
can also be differentiated numerically.
"""

import math

import numpy as np

from rpdml.manifold import rowwise_quadratic, spd_inverse, spd_logdet
from rpdml.metric import grad_h_contraction


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
