"""Deterministic panel quadrature with explicit divergence flagging.

This is the one home of the Gauss-Legendre rule: `leggauss` caches the
nodes and weights per order, and `panel_rule` / `gauss_panels` lay them
over composite panels.  Integrals of nonnegative weights over (0, inf)
are computed as a core region resolved by fixed-order panels plus dyadic
slabs marching toward 0 and toward infinity.  A slab sequence whose
contributions stop decaying geometrically is declared divergent and the
integral is reported as +inf instead of a silently truncated number.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureBudgetError

_GL_ORDER = 32

# Slab contributions whose successive ratios stay above this are treated
# as non-decaying (log-divergent or worse).
_DIVERGENCE_RATIO = 0.97
_DIVERGENCE_RUN = 4
# Slabs each march may take before it reports a budget error.
_IR_BUDGET = 160
_UV_BUDGET = 400


@lru_cache(maxsize=None)
def leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def panel_rule(edges, order: int = _GL_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (panels, order) of the composite rule and each panel's half-width.

    Panel p's weights are ``halfs[p] * leggauss(order)[1]``.
    """
    edges = np.asarray(edges, dtype=float)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    return mids[:, None] + halfs[:, None] * leggauss(order)[0], halfs


def gauss_panels(f, edges, order: int = _GL_ORDER) -> float:
    """Composite Gauss-Legendre integral of vectorized f over the edges."""
    nodes, halfs = panel_rule(edges, order)
    vals = f(nodes.ravel()).reshape(nodes.shape)
    return float(np.sum(halfs * (vals @ leggauss(order)[1])))


def _march(f, start: float, factor: float, accum: float, tol: float,
           budget: int) -> tuple[float, bool]:
    """Sum dyadic slabs from `start`, shrinking (factor<1) or growing.

    Returns (sum, diverged).  Divergence means the slab contributions
    failed to decay; the caller maps that to +inf.  A march that neither
    settles nor diverges within `budget` slabs raises.
    """
    x, w = leggauss(_GL_ORDER)
    total = 0.0
    prev = None
    high_ratio_run = 0
    small_run = 0
    edge = start
    for k in range(budget):
        nxt = edge * factor
        lo, hi = (nxt, edge) if factor < 1.0 else (edge, nxt)
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        slab = float(half * np.dot(w, f(mid + half * x)))
        total += slab
        scale = max(abs(accum) + abs(total), 1e-300)
        if prev is not None and prev > 0.0:
            ratio = slab / prev
            if ratio > _DIVERGENCE_RATIO and slab > tol * scale:
                high_ratio_run += 1
            else:
                high_ratio_run = 0
            if high_ratio_run >= _DIVERGENCE_RUN:
                return total, True
        if slab <= tol * scale:
            small_run += 1
            if small_run >= 2:
                return total, False
        else:
            small_run = 0
        prev = slab
        edge = nxt
    side = "infrared" if factor < 1.0 else "ultraviolet"
    raise QuadratureBudgetError(
        f"quadrature-budget-exceeded: {side} march did not settle",
        achieved_error=total, slabs=budget)


def flagged_integral(f, core_edges, tol: float = 1e-10) -> float:
    """Integrate nonnegative f over (0, inf); +inf on detected divergence.

    `core_edges` must bracket any interior structure (peaks, kinks); the
    dyadic marches only see the monotone-ish tails.
    """
    core_edges = np.asarray(core_edges, dtype=float)
    total = gauss_panels(f, core_edges)
    for start, factor, budget in ((core_edges[0], 0.5, _IR_BUDGET),
                                  (core_edges[-1], 2.0, _UV_BUDGET)):
        s, diverged = _march(f, float(start), factor, total, tol, budget)
        if diverged:
            return math.inf
        total += s
    return total
