"""Primal-dual proximal optimization on the SPD manifold, with metric learning.

Import names from their modules (``rpdml.manifold``, ``rpdml.solver``,
``rpdml.metric``, ``rpdml.data``, ``rpdml.evaluation``, ``rpdml.cli``), so
that loading one layer does not load the others.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
