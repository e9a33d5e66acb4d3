"""Brute-force constrained rate minimization.

This module is the package's independent check on the closed forms: it
never calls them. Neither oracle starts a thread: the ``workers``
argument is accepted for compatibility and has no effect.

Binary channels are searched over the whole square (p_a, p_b) in
[0,1]^2 by a branch-and-bound (Horst & Tuy, *Global Optimization*,
1996) that rests on two facts: I(X; Xhat) is convex in the channel, and
H(S | Xhat) is concave in it (the fact behind Mrs. Gerber's lemma). On a
cell, a tangent plane of I and a secant plane of H(S | Xhat) give a
lower bound on the rate, at least 0 as I is, or prove that nothing there
meets the bounds; cells whose bound cannot beat the best witness by 1e-5
bits are closed, the rest are split. So once a witness is within 1e-5
bits of 0, every cell closes. Concavity also yields witnesses: a point
moved along the gradient of H(S | Xhat) onto the level C of its tangent
plane meets C, so the best witness nears the C boundary at O(h^2) in the
cell width h, as fast as the bounds tighten. The answer's witness meets
each bound within ``_TIGHT`` (1e-9), and [rate - grid_resolution, rate]
is a certified bracket on the minimum of the problem with every bound
loosened by ``_TIGHT``, up to float rounding, which that loosening
dominates.

The search takes few, wide levels (``binary_min_rate``), as a level costs
about the same up to 256 cells: its count of numpy calls (a few hundred,
on arrays of tens to hundreds of elements) sets its time, not their
arithmetic, so each step of a level is one call over all its cells. The
first level does not depend on the bounds, and the last 16 sources' first
levels are kept (``_first_level``). It also tries the product channel
p_a = p_b = 1 - b, Xhat independent of X with X's marginal (I = 0, TV =
0), so a zero-rate query under P and C bounds alone ends after it. The
first split measured no faster at 4 x 4 or 16 x 16, and 1024-cell levels
(``_LEVEL_CELLS``) 5-6% slower; either moves the pinned answers.

A Gaussian reconstruction reduces to its correlation with the source,
set by a bisection whose witness meets every bound with no slack
(``gaussian_min_rate`` gives the argument).

Infinite rates: where only the exact copy of the source meets the bounds
(D = 0, or C = -inf at |rho| = 1) the closed forms report a feasible
point of rate +inf, and the Gaussian oracle on the same bounds reports
infeasible: it takes correlation 1 for infeasible. ``rate_given_pcd`` at
C = -inf is infeasible too: a pinned D > 0 excludes the exact copy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Mapping

import numpy as np

from .entropy import _binary_entropy_inv_arr, _gaussian_kl, _h2_bits_arr, _xlog2x
from .errors import DomainError
from .optimize import bisect_predicate
from .results import BinaryChannel, GaussianReconstruction, OracleResult, Unit
from .sources import (
    BinaryPairSource,
    GaussianPairSource,
    _gaussian_stats,
    binary_channel_stats,
    gaussian_recon_stats,
)

# 0, 1 and inf as 0-d arrays, which numpy pairs with arrays faster than floats (NEP 50)
_TIGHT, _ZERO, _ONE, _INF = 1e-9, np.array(0.0), np.array(1.0), np.array(np.inf)
# a requested P = 0 is executed as this tolerance; exact equality is
# measure-zero on a continuous parameter grid
_P_ZERO_TOL = 1e-6
# the binary search closes a cell whose bound is within _GAP bits of the
# best witness, and stops after evaluating _CELL_BUDGET cells
_GAP = 1e-5
_CELL_BUDGET = 40_000
# a cell's corners A, B, C, B' in cell widths from A = (p_a, p_b) = (x0, y0)
_CORNERS = np.array([[0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
# the edges a u + b v <= r of a cell's triangles A B C and A B' C, in
# (u, v) = (p_a, p_b) - A, indexed [a, b or r / h][edge][triangle]
_EDGES = np.array([[[0.0, -1.0], [1.0, 0.0], [-1.0, 1.0]],
                   [[-1.0, 0.0], [0.0, 1.0], [1.0, -1.0]],
                   [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]]])[..., None]
# how far a vertex may lie outside a line and still count as on it
_VERTEX_TOL = np.array(1e-12)
# for the pairs i < j of 4 to 7 lines, the rows of lines.reshape(3 * count, 2, n)
# (row c * count + l is a, b or r of line l) whose products are Cramer's terms
# (a_i b_j, r_i b_j, a_i r_j) and (a_j b_i, r_j b_i, a_j r_i)
_PAIR_ROWS = {
    count: (np.stack([i, 2 * count + i, i, j, 2 * count + j, j]),
            np.stack([count + j, count + j, 2 * count + j, count + i, count + i, 2 * count + i]))
    for count in range(4, 8) for i, j in [np.triu_indices(count, 1)]
}
# _binary_joint_arr works in slices of _SLICE elements, _lp_bounds in
# slices of _CELL_SLICE cells and _mgl_margins in slices of _MGL_SLICE
# channels, which bounds their temporaries
_SLICE, _CELL_SLICE, _MGL_SLICE = 2**12, 2**8, 2**14


def _binary_joint_arr(b1, p1, pa, pb) -> tuple[np.ndarray, np.ndarray]:
    """(I(X; Xhat), H(S | Xhat)) in bits of binary channels, elementwise.

    The formulas of ``_binary_point`` on broadcast arrays, for callers
    that need many channels at once: ``b1`` is P(X = 1), ``p1`` the label
    flip probability and (pa, pb) the channel.
    """
    shape = np.broadcast(b1, p1, pa, pb).shape
    if math.prod(shape) > _SLICE:
        flat = [np.broadcast_to(v, shape).reshape(-1) for v in (b1, p1, pa, pb)]
        parts = zip(*(_binary_joint_arr(*(v[lo:lo + _SLICE] for v in flat))
                      for lo in range(0, flat[0].size, _SLICE)))
        return tuple(np.concatenate(part).reshape(shape) for part in parts)
    # x[0]: the two label conditionals, q0, pa and pb, and x[1] one minus
    # each, the pairs whose entropies one call takes
    x, b1, w = np.empty((2, 5, *shape)), np.array(b1), np.array(1.0 - b1)
    x[0, 3], x[0, 4] = pa, pb
    np.multiply(b1, x[0, 4], out=x[0, 0])
    np.add(np.multiply(w, x[0, 3], out=x[0, 2]), x[0, 0], out=x[0, 2])
    np.subtract(_ONE, x[0, 2:], out=x[1, 2:])
    np.multiply(x[1, 4], b1, out=x[0, 1])
    # each value of Xhat adds its probability times h(p1 * P(X=1 | Xhat)),
    # the backward conditional clipped to [0, 1]; (1 - q0) > 0 iff q0 < 1
    weight, cond = x[:, 2].copy(), np.zeros((2, *shape))
    np.divide(x[0, :2], weight, out=cond, where=weight > _ZERO)
    np.minimum(np.maximum(cond, _ZERO, out=cond), _ONE, out=cond)
    np.add(cond * (1.0 - p1), (_ONE - cond) * p1, out=x[0, :2])
    np.subtract(_ONE, x[0, :2], out=x[1, :2])
    neg = np.add(*_xlog2x(x, np.zeros(x.shape)))  # minus each entropy
    neg[:2] *= weight
    hs = _ZERO - (neg[0] + neg[1])  # the sum from 0.0: a -0.0 becomes 0.0
    return np.maximum((w * neg[3] + b1 * neg[4]) - neg[2], _ZERO), hs


# ---------------------------------------------------------------------------
# binary channels
# ---------------------------------------------------------------------------

def _normalize_constraints(constraints: Mapping[str, float]) -> dict[str, float]:
    """The bounds by upper-case key, each a float: a +inf bound is dropped
    and P = 0 runs as ``_P_ZERO_TOL``. A key other than D, P or C, a key
    given twice, a value that is not a real number (bools included), a
    NaN bound and a negative D or P raise ``DomainError``."""
    out: dict[str, float] = {}
    seen = set()
    for key, value in constraints.items():
        k = key.upper() if isinstance(key, str) else None
        if k not in ("D", "P", "C"):
            raise DomainError(f"unknown constraint {key!r}; use D, P, or C")
        if k in seen:
            raise DomainError(f"constraint {k} is given twice")
        seen.add(k)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise DomainError(f"constraint {k} must be a real number, not {value!r}")
        try:
            v = float(value)
        except OverflowError:
            raise DomainError(f"constraint {k} overflows a float: {value!r}") from None
        if math.isnan(v):
            raise DomainError(f"constraint {k} is NaN")
        if k in ("D", "P") and v < 0.0:
            raise DomainError(f"constraint {k} must be nonnegative: {v}")
        if k == "P" and v == 0.0:
            v = _P_ZERO_TOL
        if v == math.inf:
            continue  # a +inf bound is no constraint at all; -inf is one
        out[k] = v
    if not out:
        raise DomainError("at least one constraint below +inf is required")
    return out


def _met(b1: float, cons: Mapping[str, float], pa, pb, hs) -> np.ndarray:
    """Whether each side of each bound is met within ``_TIGHT`` at the
    channels (pa, pb) whose H(S | Xhat) is ``hs``, in the arithmetic of
    ``_binary_point``: one row per side, D, then P above and below the
    band, then C."""
    w, bpb, k = np.array(1.0 - b1), b1 * pb, int("D" in cons)
    gap = np.empty((k + 2 * ("P" in cons) + ("C" in cons), *hs.shape))
    if k:
        np.subtract(w * (_ONE - pa) + bpb, cons["D"], out=gap[0])
    if "P" in cons:
        np.subtract(w * pa + bpb, w, out=gap[k])
        np.negative(gap[k], out=gap[k + 1])
        gap[k:k + 2] -= cons["P"]
    if "C" in cons:  # the last row
        np.subtract(hs, cons["C"], out=gap[-1])
    return gap <= _TIGHT


def _centre_terms(b1: float, p1: float, c: np.ndarray) -> np.ndarray:
    """I = I(X; Xhat) and H = H(S | Xhat) in bits at the channels ``c`` =
    (p_a, p_b) inside the square, shape (2, n), with their gradients: rows
    I, H, dI/dp_a, dI/dp_b, dH/dp_a, dH/dp_b.

    I = h(q0) - (1 - b1) h(p_a) - b1 h(p_b), with q0 = P(Xhat = 0) and
    h'(x) = log2((1 - x) / x). H = f(m, q0) + f(b1 - m, 1 - q0) with m =
    b1 p_b = P(X = 1, Xhat = 0) and f(m, q) = q h(s), s = p1 + (1 - 2 p1)
    m / q the label posterior. The partials of f are (1 - 2 p1)
    log2((1 - s) / s) in m and -((1 - p1) log2(1 - s) + p1 log2(s)) in q.
    Along p_b, m and q0 move together, so f moves by the sum of its
    partials, -(p1 log2(1 - s) + (1 - p1) log2(s)). Both gradients are thus
    linear in the logarithms. Arguments below 1e-300 are taken as 1e-300
    (only a posterior of a source with b1 = p1 = 0).
    """
    w, k = 1.0 - b1, 1.0 - 2.0 * p1
    # rows q0, p_a, p_b, s given Xhat = 0 and 1, then one minus each
    x = np.empty((10, c.shape[1]))
    np.dot((w, b1), c, out=x[0])
    x[1:3] = c
    np.subtract(_ONE, x[:3], out=x[5:8])
    # (1 - 2 p1) times P(X = 1 | Xhat) is m / q0 and (b1 - m) / (1 - q0)
    np.multiply(k * b1, x[2:8:5], out=x[3:5])
    np.divide(x[3:5], x[0:6:5], out=x[3:5])
    x[3:5] += p1
    np.subtract(_ONE, x[3:5], out=x[8:10])
    logs = np.log2(np.maximum(x, 1e-300, out=x))
    neg = x * logs
    neg = neg[:5] + neg[5:]  # minus the binary entropy of each row
    out = np.empty((6, c.shape[1]))
    np.dot((-1.0, w, b1), neg[:3], out=out[0])
    np.negative((x[0:6:5] * neg[3:5]).sum(axis=0), out=out[1])
    np.dot(np.array([
        [-w, w, 0.0, 0.0, 0.0, w, -w, 0.0, 0.0, 0.0],
        [-b1, 0.0, b1, 0.0, 0.0, b1, 0.0, -b1, 0.0, 0.0],
        [0.0, 0.0, 0.0, -w * p1, w * p1, 0.0, 0.0, 0.0, -w * (1.0 - p1), w * (1.0 - p1)],
        [0.0, 0.0, 0.0, -b1 * (1.0 - p1), b1 * (1.0 - p1), 0.0, 0.0, 0.0, -b1 * p1, b1 * p1],
    ]), logs, out=out[2:])
    return out


def _lp_bounds(b1: float, cons: Mapping[str, float], xy: np.ndarray, h: float, hs: np.ndarray,
               g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least value of the plane g . (p - A) over the part of each cell
    that can meet the bounds, and where it sits.

    Cell i has width ``h`` and corner A = (x0, y0) = ``xy[:, i]``;
    ``hs[:, i]`` is H(S | Xhat) at its corners A, B, C, B' (``_CORNERS``)
    and ``g[:, i]`` the plane's slope. The diagonal A C splits the cell
    into the triangles A B C and A B' C. On each, the concave H(S | Xhat)
    lies above its secant plane through the corners, so every point that
    meets each bound within ``_TIGHT`` lies in the polygon cut from the
    triangle by D, both sides of |q0 - (1 - b1)| and the secant. The least
    value of the plane over the polygon lies at one of the pairwise
    intersections of its at most 7 lines; an empty polygon, which no such
    point can lie in, gives +inf. Returns the lesser of the two triangles'
    values and their minimizing vertices, indexed [p_a or p_b][triangle]
    [cell]; an empty polygon's is A. Parallel lines make quotients by zero,
    so the caller turns floating-point warnings off (``_cell_bounds``).
    """
    n, w = xy.shape[1], np.array(1.0 - b1)
    if n > _CELL_SLICE:
        parts = [_lp_bounds(b1, cons, xy[:, c], h, hs[:, c], g[:, c])
                 for c in (slice(lo, lo + _CELL_SLICE) for lo in range(0, n, _CELL_SLICE))]
        return tuple(np.concatenate(part, axis=-1) for part in zip(*parts))
    count = 3 + ("D" in cons) + 2 * ("P" in cons) + ("C" in cons)
    # the lines a u + b v <= r in (u, v) = (p_a - x0, p_b - y0), shape
    # (3, lines, 2, n): on axis 2, 0 is the triangle A B C and 1 is A B' C
    lines = np.empty((3, count, 2, n))
    lines[:2, :3], r = _EDGES[:2], lines[2]
    np.multiply(_EDGES[2], h, out=r[:3])
    wx, by = w * xy[0], b1 * xy[1]
    k = 3
    if "D" in cons:  # D = (w - w x0 + b1 y0) - w u + b1 v
        lines[0, k], lines[1, k] = -w, b1
        np.subtract(cons["D"] + _TIGHT, (w - wx) + by, out=r[k])
        k += 1
    if "P" in cons:  # q0 - (1 - b1) = shift + w u + b1 v
        shift = (wx + by) - w
        lines[:2, k:k + 2] = np.array([[w, -w], [b1, -b1]])[..., None, None]
        np.subtract(cons["P"] + _TIGHT, shift, out=r[k])
        np.add(cons["P"] + _TIGHT, shift, out=r[k + 1])
        k += 2
    if "C" in cons:  # a = (hb - ha, hc - hb2) / h and b = (hc - hb, hb2 - ha) / h
        ends = hs.take([[[1, 2], [2, 3]], [[0, 3], [1, 0]]], axis=0)
        np.divide(np.subtract(ends[0], ends[1], out=lines[:2, k]), h, out=lines[:2, k])
        np.subtract(cons["C"] + _TIGHT, hs[0], out=r[k])
    flat = lines.reshape(3 * count, 2, n)
    prod = flat.take(_PAIR_ROWS[count][0], axis=0)
    prod *= flat.take(_PAIR_ROWS[count][1], axis=0)
    # (det, u det, v det) by Cramer's rule, then (det, u, v)
    np.subtract(prod[:3], prod[3:], out=prod[:3])
    uv, term = prod[1:3], prod[3:5]
    np.divide(uv, prod[0], out=uv)
    # a u + b v <= r + _VERTEX_TOL, indexed [line][pair][triangle][cell]: a
    # vertex that is not finite fails a triangle edge whose a or b is 0
    side = lines[:2, :, None] * uv[:, None]
    np.add(side[0], side[1], out=side[0])
    inside = np.logical_and.reduce(side[0] <= r[:, None] + _VERTEX_TOL)
    # in the place of det, g . (u, v) at the vertices inside, else +inf
    plane = prod[0]
    plane.fill(np.inf)
    np.multiply(g[:, None, None], uv, out=term)
    np.add(term[0], term[1], out=plane, where=inside)
    # the least plane value, with its vertex (u, v), by triangle and cell
    pick = plane.reshape(-1, 2 * n).argmin(axis=0) * (2 * n) + np.arange(2 * n)
    picked = prod[:3].reshape(3, -1).take(pick, axis=1)
    vert = np.where(np.isfinite(picked[0]), picked[1:], _ZERO).reshape(2, 2, n) + xy[:, None]
    low = picked[0].reshape(2, n)
    return (np.minimum(low[0], low[1]),
            np.minimum(np.maximum(vert, _ZERO, out=vert), _ONE, out=vert))


def _cell_bounds(b1: float, cons: Mapping[str, float], xy: np.ndarray, h: float, hs: np.ndarray,
                 met: np.ndarray, terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower bounds on I(X; Xhat) over square cells, and witness candidates.

    Cell i has width ``h`` and corner A = ``xy[:, i]``; ``hs[:, i]`` is
    H(S | Xhat) at its corners A, B, C, B' (``_CORNERS``), ``met[:, :,
    i]`` the ``_met`` rows there and ``terms[:, i]`` the ``_centre_terms``
    at its centre. The convex I lies above its tangent plane at the cell
    centre, and I >= 0, so a bound is at least 0. D and both sides of the
    P band are linear in the channel and H(S | Xhat) is concave, so each
    takes its least value over a cell at a corner, and the corners screen
    the cells:
    - a side broken at all four corners is broken on the whole cell, which
      holds no point that meets the bounds: its bound is +inf;
    - where every side is met at every corner no bound line crosses the
      cell, and its bound is the least corner value of the tangent plane;
    - every other cell goes through the pairwise LP of ``_lp_bounds``.
    Each LP cell adds its two triangles' minimizing vertices to the
    candidates and, under a C bound, those vertices moved along the
    gradient of H(S | Xhat) onto the level C of its tangent plane T at the
    cell centre: H <= T by concavity, so a moved point meets C, and it lies
    within O(h^2) of the C boundary. Returns each cell's bound and the
    candidates, shape (2, k), clipped to the square.
    """
    live = np.logical_and.reduce(np.logical_or.reduce(met, axis=1))
    cross = (live & ~np.logical_and.reduce(met.reshape(-1, met.shape[-1]))).nonzero()[0]
    centre = xy + 0.5 * h
    # the least corner value of I's tangent plane is I - h (|dI/dp_a| + |dI/dp_b|) / 2
    bound = np.where(live, terms[0] - 0.5 * h * np.add(*np.abs(terms[2:4])), _INF)
    if not cross.size:
        return np.maximum(bound, _ZERO, out=bound), np.empty((2, 0))
    # the LP cells' rows: their terms, centres, corners A and corner values of H
    rows = np.concatenate((terms, centre, xy, hs)).take(cross, axis=1)
    terms, centre, xy, hs = rows[:6], rows[6:8], rows[8:10], rows[10:]
    # parallel lines meet nowhere, nor a line at C = -inf; a subnormal b1 makes
    # a quotient overflow; where grad H vanishes a pull-back is not finite
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        low, vert = _lp_bounds(b1, cons, xy, h, hs, terms[2:4])
        # the LP's plane is I's tangent plane less its value at A
        bound[cross] = (terms[0] - 0.5 * h * terms[2:4].sum(axis=0)) + low
        if "C" in cons:
            # T(v) - C over |grad H|^2 is the step back along grad H; where
            # it is not finite, _met drops the point
            grad = terms[4:, None]
            lift = (terms[1] - cons["C"]) + (grad * (vert - centre[:, None])).sum(axis=0)
            moved = vert - lift / (grad * grad).sum(axis=0) * grad
            np.minimum(np.maximum(moved, _ZERO, out=moved), _ONE, out=moved)
            vert = np.concatenate((vert, moved), axis=1)
    return np.maximum(bound, _ZERO, out=bound), vert.reshape(2, -1)


def _split_tables(s: int) -> tuple[np.ndarray, np.ndarray]:
    """For a split of a cell into s x s children: the (s + 1)^2 lattice
    points (i, j) in child widths, row by row, and the lattice index of
    each child's corners A, B, C, B', shape (4, s^2)."""
    i, j = np.divmod(np.arange((s + 1) ** 2), s + 1)
    ci, cj = np.divmod(np.arange(s * s), s)
    di, dj = _CORNERS.astype(int)[..., None]
    return np.stack((i, j)).astype(float), (ci + di) * (s + 1) + (cj + dj)


# a level splits each open cell into s x s children, the widest s that
# keeps the level at most _LEVEL_CELLS cells (s = 2 once none does)
_SPLITS = {s: _split_tables(s) for s in (8, 4, 2)}
_LEVEL_CELLS = 256


def _level(b1: float, p1: float, xy: np.ndarray, h: float, s: int) -> tuple[np.ndarray, ...]:
    """A level that splits the cells with corners A = ``xy`` into s x s
    children of width ``h``: the cells' lattice points, shape (2, n), the
    lattice index of each child's corners A, B, C, B' (shape (4, k)), I and
    H(S | Xhat) at the points (``_binary_joint_arr``) and the
    ``_centre_terms`` of the children."""
    grid, local = _SPLITS[s]
    points = (xy[:, :, None] + h * grid[:, None]).reshape(2, -1)
    corners = (local[:, None] + grid.shape[1] * np.arange(xy.shape[1])[:, None]).reshape(4, -1)
    info, hs = _binary_joint_arr(b1, p1, points[0], points[1])
    terms = _centre_terms(b1, p1, points.take(corners[0], axis=1) + 0.5 * h)
    return points, corners, info, hs, terms


@lru_cache(maxsize=16)
def _first_level(b1: float, p1: float) -> tuple[np.ndarray, ...]:
    """The first level of every search on a source, ``_level`` on the
    whole square split 8 x 8, read-only: it does not depend on the bounds.
    After the lattice comes one more point, the product channel p_a = p_b
    = 1 - b1, under which Xhat is independent of X with X's marginal: I =
    0 and TV = 0, so it is a witness wherever the rate is 0 under P and C
    bounds alone. -0.0 and 0.0 share a key, so both are computed as 0.0."""
    b1, p1 = b1 + 0.0, p1 + 0.0
    points, corners, info, hs, terms = _level(b1, p1, np.zeros((2, 1)), 1.0 / 8, 8)
    product = np.full((2, 1), 1.0 - b1)
    pinfo, phs = _binary_joint_arr(b1, p1, product[0], product[1])
    out = (np.hstack((points, product)), corners, np.concatenate((info, pinfo)),
           np.concatenate((hs, phs)), terms)
    for array in out:
        array.flags.writeable = False
    return out


def binary_min_rate(
    src: BinaryPairSource,
    constraints: Mapping[str, float],
    resolution: float = 1e-3,
    refine: bool = True,
    workers: int = 1,
) -> OracleResult:
    """Exhaustive minimal mutual information over binary channels.

    ``constraints`` maps any non-empty subset of {"D", "P", "C"} to bounds
    (Hamming distortion, total variation, label conditional entropy in
    bits). A branch-and-bound covers all of [0,1]^2: it splits the square
    into an 8 x 8 grid of cells and, level by level, splits each open cell
    into s x s children, s in {2, 4, 8} the widest that keeps a level at
    most 256 cells (2 when none does). A level evaluates each open cell's
    (s + 1)^2 lattice points once (the first level comes from
    ``_first_level``, with the product channel after its lattice);
    ``_cell_bounds`` screens the cells by their corners and bounds the
    rate on each from below, or proves that no point of it meets the
    bounds within ``_TIGHT``. The lattice points, then the LP cells'
    vertices and pulled-back vertices, that meet every bound within
    ``_TIGHT`` are the witnesses, the least I winning, ties to the first.
    A cell closes once its bound, at least 0, is at least the best
    witness's rate less ``_GAP``.

    The witness's exact I is the rate, and ``grid_resolution`` is rate -
    lower, where lower, the least bound of the closed cells capped at the
    rate, is at most the minimum of the problem with each bound loosened
    by ``_TIGHT``. It is in [0, ``_GAP``] (1e-5 bits) unless the search
    stopped after ``_CELL_BUDGET`` cells, when lower also takes the open
    cells' bounds.
    Where no witness is found the result is infeasible (rate NaN, no
    argmin): ``grid_resolution`` is 0 when every cell was excluded, and
    +inf when the budget ran out first. A bad bound raises
    ``DomainError``, as does a ``resolution`` that is not a real number in
    [1e-4, 1e-1]; ``resolution``, ``refine`` and ``workers`` are accepted
    and have no effect.
    """
    # a bool is a real number, but neither True nor False is in range
    if not isinstance(resolution, numbers.Real) or not 1e-4 <= resolution <= 1e-1:
        raise DomainError(f"resolution {resolution!r} is not a real number in [1e-4, 1e-1]")
    cons = _normalize_constraints(constraints)
    b1, p1 = src.b, src.p1
    # the open cells' corners A, their width and the next level's split:
    # first the whole square, split 8 x 8
    xy, h, s = np.zeros((2, 1)), 1.0, 8
    best, argmin, lower, cells = math.inf, None, math.inf, 0
    while xy.shape[1] and cells + xy.shape[1] * s * s <= _CELL_BUDGET:
        # the open cells' lattices, and each child's corners in them
        h /= s
        points, corners, info, hs, terms = (
            _level(b1, p1, xy, h, s) if cells else _first_level(b1, p1))
        cells += corners.shape[1]
        met = _met(b1, cons, points[0], points[1], hs)
        xy = points.take(corners[0], axis=1)
        bound, cand = _cell_bounds(b1, cons, xy, h, hs.take(corners),
                                   met.take(corners, axis=1), terms)
        cinfo, chs = _binary_joint_arr(b1, p1, cand[0], cand[1])
        met = np.concatenate((met, _met(b1, cons, cand[0], cand[1], chs)), axis=1)
        value = np.where(np.logical_and.reduce(met), np.concatenate((info, cinfo)), _INF)
        k = value.argmin()
        if value.item(k) < best:
            best, argmin = value.item(k), tuple(np.hstack((points, cand))[:, k].tolist())
        closed = bound >= best - _GAP
        lower = min(lower, float(np.minimum.reduce(bound, where=closed, initial=np.inf)))
        kept = ~closed
        xy = xy.compress(kept, axis=1)
        s = next((s for s in _SPLITS if xy.shape[1] * s * s <= _LEVEL_CELLS), 2)
    result = partial(OracleResult, unit=Unit.BITS, refined=False, constraints=cons)
    if argmin is None:
        return result(rate=math.nan, argmin=None,
                      grid_resolution=0.0 if xy.shape[1] == 0 else math.inf)
    lower = min(lower, float(np.minimum.reduce(bound, where=kept, initial=np.inf)))  # open cells
    ch = BinaryChannel(*argmin)
    rate = binary_channel_stats(src, ch).mutual_info
    # the witness meets every loosened bound, so the loosened minimum is at
    # most its I, whatever rounding a cell bound took
    return result(rate=rate, argmin=ch, grid_resolution=rate - min(lower, rate))


# ---------------------------------------------------------------------------
# Gaussian reconstructions
# ---------------------------------------------------------------------------

def gaussian_min_rate(
    src: GaussianPairSource,
    constraints: Mapping[str, float],
    sigma_steps: int = 801,
    theta_steps: int = 801,
    refine: bool = True,
    workers: int = 1,
) -> OracleResult:
    """Minimal rate over jointly Gaussian reconstructions, by bisection.

    A reconstruction with the source's mean, standard deviation s and
    correlation t with the source has rate -0.5 ln(1 - t^2), MSE var_x +
    s^2 - 2 sigma_x s t, a KL that depends on s alone (0 at s = sigma_x,
    rising away from it) and H(S | Xhat) = h(S) + 0.5 ln(1 - rho^2 t^2).
    A mean shift only adds to the MSE and the KL, and a negative t only to
    the MSE, so t ranges over [0, 1], where the rate rises and H(S | Xhat)
    falls. A P bound admits the s of an interval around sigma_x, whose
    lower end s_lo a bisection finds; its upper end never binds, as the
    MSE is convex in s and least at sigma_x t <= sigma_x. So the least MSE
    at t, at s = max(sigma_x t, s_lo), falls in t as the MSE at each s
    does, the feasible t form an interval [t*, 1], and a bisection on
    [0, 1] finds t* to a bracket 2^-50 wide. Without a D bound a P bound
    takes s = sigma_x, so the KL is 0. Bounds are checked through
    ``_gaussian_stats`` with no slack: the witness meets each of them in
    the arithmetic of ``gaussian_recon_stats``.

    Where t = 0 is feasible the rate is 0, and without a P bound the
    witness is the constant (mu_x, 0, 0). Where only t = 1 is, the exact
    copy at rate +inf or a rate above about 17 nats (1 - t below 2^-50),
    the result is infeasible. Restricting to jointly Gaussian
    reconstructions is an assumption the search cannot test, and results
    should be read under it. A NaN bound, or a step count that is not an
    integer of at least 2, raises ``DomainError``; the step counts,
    ``refine`` and ``workers`` are accepted and have no effect.
    """
    if not all(isinstance(k, (int, np.integer)) for k in (sigma_steps, theta_steps)):
        raise DomainError(f"grid steps must be integers: {sigma_steps!r}, {theta_steps!r}")
    if sigma_steps < 2 or theta_steps < 2:
        raise DomainError("need at least 2 grid steps per axis")
    cons = _normalize_constraints(constraints)
    vx, sx = src.var_x, math.sqrt(src.var_x)
    # (position in the values of _gaussian_stats, bound) of each constraint
    checks = [(i, cons[k]) for i, k in enumerate("DPC", 1) if k in cons]

    def kl_met(s: float) -> bool:
        var = s * s
        return var > 0.0 and _gaussian_kl(vx, var, 0.0) <= cons["P"]

    s_lo = 0.0
    if "P" in cons and kl_met(sx):  # the KL falls on (0, sigma_x]
        s_lo = bisect_predicate(kl_met, 0.0, sx, xtol=1e-15 * sx)

    def deviation(t: float) -> float:
        return sx if "P" in cons and "D" not in cons else max(sx * t, s_lo)

    def met(t: float) -> bool:
        s = deviation(t)
        values = _gaussian_stats(src, s * s, sx * s * t, 0.0)
        return all(values[i] <= bound for i, bound in checks)

    result = partial(OracleResult, unit=Unit.NATS, grid_resolution=2.0**-50,
                     refined=False, constraints=cons)
    # [0, 1] halves until the bracket is narrower than 1e-15, i.e. 2^-50 wide
    t = bisect_predicate(met, 0.0, 1.0, xtol=1e-15) if met(1.0) else 1.0
    if t == 1.0:  # nothing meets the bounds, or only t within 2^-50 of 1
        return result(rate=math.nan, argmin=None)
    s = deviation(t)
    rec = GaussianReconstruction(src.mu_x, s * s, sx * s * t)
    return result(rate=gaussian_recon_stats(src, rec).mutual_info, argmin=rec)


# ---------------------------------------------------------------------------
# entropy-power style inequality check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MglCheck:
    lhs: float
    rhs: float
    holds: bool


def _mgl_margins(sources, channels, n: int, each=None) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of Mrs. Gerber's lemma, H(S | Xhat) >= h(p1 * Hinv(H(X | Xhat))),
    for n channels, from ``_binary_joint_arr`` and the array entropy
    inverse. For each slice s of them, ``sources(s)`` gives the label
    marginals ``a`` and label flip probabilities ``p1`` and
    ``channels(s)`` the channels (pa, pb), as arrays or numbers that
    broadcast to the slice.

    One pass over slices of ``_MGL_SLICE`` channels: each slice reads its
    sources and channels, writes lhs, inverts H(X | Xhat), writes
    rhs = h(p1 * eps) and hands ``each``, if given, the slice's p1, lhs
    and rhs. Every step is elementwise, so the outputs do not depend on
    the cut, and they are the only full-length arrays."""
    lhs, rhs = np.empty(n), np.empty(n)
    for lo in range(0, n, _MGL_SLICE):
        s = slice(lo, lo + _MGL_SLICE)
        a, p1 = sources(s)
        b1 = (a - p1) / (1.0 - 2.0 * p1)
        info, lhs[s] = _binary_joint_arr(b1, p1, *channels(s))
        eps = _binary_entropy_inv_arr(np.clip(_h2_bits_arr(b1) - info, 0.0, 1.0))
        rhs[s] = _h2_bits_arr(p1 * (1.0 - eps) + eps * (1.0 - p1))
        if each is not None:
            each(p1, lhs[s], rhs[s])
    return lhs, rhs


def mrs_gerber_check(src: BinaryPairSource, ch: BinaryChannel) -> MglCheck:
    """Mrs. Gerber's lemma instance: H(S|Xhat) vs H(p1 * Hinv(H(X|Xhat))),
    the one-channel call of ``_mgl_margins``.

    Equality requires the backward conditionals of the channel to be
    complementary; everything else should be strictly above the bound.
    """
    lhs, rhs = _mgl_margins(lambda s: (np.array([src.a]), src.p1), lambda s: (ch.p_a, ch.p_b), 1)
    lhs, rhs = float(lhs[0]), float(rhs[0])
    return MglCheck(lhs=lhs, rhs=rhs, holds=lhs >= rhs - 1e-10)
