"""Deterministic Gauss-Legendre panel rules.

One-dimensional panel rules, optionally geometrically graded toward the
origin for integrands with an integrable singularity at 0.  Everything is
pure numpy; no adaptive or stochastic integration anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError

#: ratio of successive edges of the graded panels toward the origin
GRADED_EDGE_RATIO = 2.0


@lru_cache(maxsize=None)
def legendre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], built once per node count (read-only)."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre_segment(a: float, b: float, nodes: int):
    x, w = legendre_rule(nodes)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def gauss_legendre_panels(a: float, b: float, panels: int, nodes: int):
    """Composite Gauss-Legendre rule on [a, b]: (nodes*panels,) nodes/weights."""
    return gauss_legendre_edges(np.linspace(a, b, panels + 1), nodes)


@lru_cache(maxsize=None)
def panel_rule(a: float, b: float, panels: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """``gauss_legendre_panels``, built once per argument tuple; both arrays are read-only."""
    pts, wts = gauss_legendre_panels(a, b, panels, nodes)
    pts.flags.writeable = False
    wts.flags.writeable = False
    return pts, wts


def gauss_legendre_edges(edges, nodes: int):
    """Composite Gauss-Legendre rule with `nodes` nodes on each panel between
    consecutive ``edges`` along the last axis: edges (..., panels + 1) give
    (..., nodes * panels) nodes/weights, one rule per leading index."""
    x, w = legendre_rule(nodes)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    shape = np.shape(edges)[:-1] + (-1,)
    pts = (mid[..., None] + half[..., None] * x).reshape(shape)
    wts = (half[..., None] * w).reshape(shape)
    return pts, wts


@dataclass(frozen=True)
class Rule1D:
    """Nodes/weights on the half-line [0, p_max], with 0 a panel edge."""

    nodes: np.ndarray
    weights: np.ndarray
    p_max: float
    key: tuple

    def __len__(self) -> int:
        return len(self.nodes)


@lru_cache(maxsize=None)
def half_panel_rule(
    p_max: float,
    panels: int,
    nodes_per_panel: int,
    graded_levels: int = 0,
) -> Rule1D:
    """Composite GL rule on [0, p_max] with uniform panels, built once per
    argument tuple; both arrays are read-only.

    With graded_levels > 0 the innermost panel is subdivided geometrically
    toward 0 (edges at p_max/panels * GRADED_EDGE_RATIO**-j), which keeps
    integrable power singularities at the origin accurate without touching
    the outer panels.
    """
    if p_max <= 0 or panels < 1 or nodes_per_panel < 2:
        raise InvalidArgumentError("invalid quadrature rule parameters")
    base = np.linspace(0.0, p_max, panels + 1)
    if graded_levels > 0:
        inner = base[1] * GRADED_EDGE_RATIO ** (-np.arange(1, graded_levels + 1, dtype=float))
        edges = np.concatenate([[0.0], inner[::-1], base[1:]])
    else:
        edges = base
    pts, wts = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = gauss_legendre_segment(a, b, nodes_per_panel)
        pts.append(x)
        wts.append(w)
    nodes = np.concatenate(pts)
    weights = np.concatenate(wts)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    key = (float(p_max), panels, nodes_per_panel, graded_levels)
    return Rule1D(nodes=nodes, weights=weights, p_max=float(p_max), key=key)
