"""Brute-force constrained rate minimization.

This module is the package's independent check on the closed forms: it
never calls them. Binary channels are exhausted over the conditional
square (p_a, p_b) in [0,1]^2: a grid search keeps every feasible cell
(with a half-step slack so optima between grid points are not screened
out), then a pattern search tightens the best candidates to constraint
tolerance 1e-9 with steps shrinking to 1e-7. A Gaussian reconstruction
reduces to its correlation with the source, set by a bisection whose
witness meets every bound with no slack (``gaussian_min_rate`` gives
the argument). Neither oracle starts a thread: the ``workers`` argument
is accepted for compatibility and has no effect.

The contracts below are the binary oracle's. Determinism: each screen
walks its grid in one thread, in blocks of ``_BLOCK_ROWS`` rows, with
the same per-element arithmetic whatever the block size. A block
replaces the running best cell only when its value is strictly less, so
ties resolve to the lexicographically first cell (smallest row, then
column), as in one pass over the whole grid.

Windows: each block is screened only on its window, the sub-rectangle
of rows and columns that its D and P bounds can admit. A window may
leave out only cells that a 1-D evaluation of the same float expression
proves to fail the slack screen: IEEE rounding is monotone, so a field
that is monotone along a row or column stays so once computed, and its
extreme over the block lies on a known row or column. Tight passes are
a subset of slack passes, so every cell a screen could count or pick
lies inside the window, and no comparison changes.

Memory: a binary source caches its two logarithmic n x n fields, I(X;
Xhat) and H(S | Xhat), for the two most recent (source, resolution)
pairs, and computes D and P per window.

Infinite rates: where only the exact copy of the source meets the bounds
(D = 0, or C = -inf at |rho| = 1) the closed forms report a feasible
point of rate +inf, and the Gaussian oracle on the same bounds reports
infeasible: it takes correlation 1 for infeasible, as the binary oracle
takes a best cell to need a finite objective. ``rate_given_pcd`` at
C = -inf is infeasible too: a pinned D > 0 excludes the exact copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from math import log2
from typing import Callable, Mapping

import numpy as np

from .entropy import (
    _TINY,
    _gaussian_kl,
    _h2_bits_arr,
    binary_convolution,
    binary_entropy,
    binary_entropy_inv,
)
from .errors import DomainError
from .optimize import bisect_predicate
from .results import (
    BinaryChannel,
    ChannelStats,
    GaussianReconstruction,
    OracleResult,
    Unit,
)
from .sources import BinaryPairSource, GaussianPairSource

_TIGHT = 1e-9
_MIN_STEP = 1e-7
_EVAL_BUDGET = 60_000
# a requested P = 0 is executed as this tolerance; exact equality is
# measure-zero on a continuous parameter grid
_P_ZERO_TOL = 1e-6
# rows per block of a grid screen (and of the binary lattice build)
_BLOCK_ROWS = 64

Cell = tuple[float, int, int]  # (objective value, row, col) of a grid cell
# (tight, slack) pass masks of one constraint over the window of a block
Passes = tuple[np.ndarray, np.ndarray]
# (r0, r1, c0, c1): rows r0..r1 and columns c0..c1 of a grid, ends exclusive
Window = tuple[int, int, int, int]


def _binary_joint_arr(
    b1, p1, pa: np.ndarray, pb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(I(X; Xhat), H(S | Xhat)) in bits of binary channels, elementwise.

    The formulas of ``_binary_point`` on broadcast arrays: ``b1`` is
    P(X = 1), ``p1`` the label flip probability and (pa, pb) the channel.
    Besides its results it allocates q0 = P(Xhat = 0) and two scratch
    arrays.
    """
    shape = np.broadcast_shapes(*(np.shape(v) for v in (b1, p1, pa, pb)))
    q0 = np.add((1.0 - b1) * pa, b1 * pb, out=np.empty(shape))
    # each value of Xhat adds its probability times h(p1 * P(X=1 | Xhat)),
    # the backward conditional clipped to [0, 1]; (1 - q0) > 0 iff q0 < 1
    hs, cond, term = np.zeros(shape), np.empty(shape), np.empty(shape)
    for num, weight in ((b1 * pb, q0), (b1 * (1.0 - pb), 1.0 - q0)):
        cond.fill(0.0)
        np.divide(num, weight, out=cond, where=weight > 0.0)
        np.clip(cond, 0.0, 1.0, out=cond)
        np.subtract(1.0, cond, out=term)
        term *= p1
        cond *= 1.0 - p1
        cond += term
        _h2_bits_arr(cond, out=term)
        term *= weight
        hs += term
    info = _h2_bits_arr(q0, out=cond)
    np.add((1.0 - b1) * _h2_bits_arr(pa), b1 * _h2_bits_arr(pb), out=term)
    info -= term
    np.clip(info, 0.0, None, out=info)
    return info, hs


# ---------------------------------------------------------------------------
# binary channels
# ---------------------------------------------------------------------------

def _binary_hs(b1: float, p1: float, q0: float, p_b: float) -> float:
    """H(S | Xhat) in bits of the channel with P(Xhat = 0) = q0.

    Here and in ``_binary_point``, ``binary_entropy`` (0 log 0 guard
    included) and ``binary_convolution`` are written out with the same float
    operations: the pattern search calls them 10^5 times per query.
    """
    if not 0.0 <= q0 <= 1.0:
        raise DomainError(f"probability out of range: {q0}")
    hs = 0.0
    if q0 > 0.0:
        c = min(max(b1 * p_b / q0, 0.0), 1.0)
        x = p1 * (1.0 - c) + c * (1.0 - p1)
        r = 1.0 - x
        h = -(0.0 if x < _TINY else x * log2(x)) - (0.0 if r < _TINY else r * log2(r))
        hs += q0 * h
    if q0 < 1.0:
        c = min(max(b1 * (1.0 - p_b) / (1.0 - q0), 0.0), 1.0)
        x = p1 * (1.0 - c) + c * (1.0 - p1)
        r = 1.0 - x
        h = -(0.0 if x < _TINY else x * log2(x)) - (0.0 if r < _TINY else r * log2(r))
        hs += (1.0 - q0) * h
    return hs


def _binary_point(
    b1: float, p1: float, p_a: float, p_b: float
) -> tuple[float, float, float, float]:
    """(mutual_info, distortion, tv, cond_entropy_S) for one channel."""
    q0 = (1.0 - b1) * p_a + b1 * p_b
    hs = _binary_hs(b1, p1, q0, p_b)
    r, ra, rb = 1.0 - q0, 1.0 - p_a, 1.0 - p_b
    h_q0 = -(0.0 if q0 < _TINY else q0 * log2(q0)) - (0.0 if r < _TINY else r * log2(r))
    h_a = -(0.0 if p_a < _TINY else p_a * log2(p_a)) - (0.0 if ra < _TINY else ra * log2(ra))
    h_b = -(0.0 if p_b < _TINY else p_b * log2(p_b)) - (0.0 if rb < _TINY else rb * log2(rb))
    info = h_q0 - ((1.0 - b1) * h_a + b1 * h_b)
    dist = (1.0 - b1) * (1.0 - p_a) + b1 * p_b
    return max(info, 0.0), dist, abs(q0 - (1.0 - b1)), hs


def binary_channel_stats(src: BinaryPairSource, ch: BinaryChannel) -> ChannelStats:
    """Exact rate/distortion/perception/classification of one channel.

    All four quantities come from the explicit joint distribution of
    (S, X, Xhat); distortion is Hamming, perception is total variation
    between the X and Xhat marginals, everything entropic is in bits.
    """
    info, dist, tv, hs = _binary_point(src.b, src.p1, ch.p_a, ch.p_b)
    return ChannelStats(
        mutual_info=info, distortion=dist, perception=tv,
        cond_entropy_s=hs, unit=Unit.BITS,
    )


@lru_cache(maxsize=2)
def _binary_grid(a: float, p1: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(I(X; Xhat), H(S | Xhat)) in bits over the (p_a, p_b) lattice,
    built block by block and cached.

    Caching is per source and resolution so a sweep over many (D, P, C)
    instances of the same source pays the logarithms once. Distortion and
    total variation are affine in the channel, so the screen recomputes
    them per block instead of caching them.
    """
    b1 = BinaryPairSource(a, p1).b
    axis = np.linspace(0.0, 1.0, n)
    info, hs = np.empty((n, n)), np.empty((n, n))
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        info[lo:hi], hs[lo:hi] = _binary_joint_arr(b1, p1, axis[lo:hi, None], axis)
    return info, hs


def _window(lo: int, keep_rows: np.ndarray, keep_cols: np.ndarray) -> Window | None:
    """The window spanning the kept rows lo + i and the kept columns of a
    block, or None when either mask keeps nothing."""
    r, c = np.flatnonzero(keep_rows), np.flatnonzero(keep_cols)
    if not (r.size and c.size):
        return None
    return lo + int(r[0]), lo + int(r[-1]) + 1, int(c[0]), int(c[-1]) + 1


def _blocked_screen(
    shape: tuple[int, int],
    window: Callable[[int, int], Window | None],
    fields: Callable[[slice, slice], list[Passes]],
    objective: Callable[[slice, slice], np.ndarray],
) -> tuple[int, Cell | None, Cell | None]:
    """(slack-feasible count, best tight cell, best slack cell) of a grid.

    The grid is walked in blocks of ``_BLOCK_ROWS`` rows. For rows lo..hi,
    ``window(lo, hi)`` gives the sub-rectangle (r0, r1, c0, c1) of the
    block outside which no cell is slack feasible, or None when no cell
    is. Over its rows r0..r1 and columns c0..c1, ``fields(rows, cols)``
    gives the ``Passes`` of every constraint and ``objective(rows, cols)``
    the values to minimize, all broadcasting to the window; a cell is
    tight (slack) feasible when it passes every tight (slack) screen. A
    best cell is None when no such cell has a finite objective; ties go to
    the lexicographically first cell.
    """
    rows, cols = shape
    tight_buf = np.empty(_BLOCK_ROWS * cols, dtype=bool)
    slack_buf = np.empty_like(tight_buf)
    value_buf = np.empty(_BLOCK_ROWS * cols)
    count, best = 0, [None, None]
    for lo in range(0, rows, _BLOCK_ROWS):
        win = window(lo, min(lo + _BLOCK_ROWS, rows))
        if win is None:
            continue
        r0, r1, c0, c1 = win
        height, width = r1 - r0, c1 - c0
        tight, slack, value = (buf[: height * width].reshape(height, width)
                               for buf in (tight_buf, slack_buf, value_buf))
        tight.fill(True)
        slack.fill(True)
        for tight_pass, slack_pass in fields(slice(r0, r1), slice(c0, c1)):
            tight &= tight_pass
            slack &= slack_pass
        count += int(np.count_nonzero(slack))
        obj = objective(slice(r0, r1), slice(c0, c1))
        for k, mask in enumerate((tight, slack)):
            if not mask.any():
                continue
            value.fill(np.inf)
            np.copyto(value, obj, where=mask)
            flat = int(np.argmin(value))
            val = float(value.flat[flat])
            if math.isfinite(val) and (best[k] is None or val < best[k][0]):
                row, col = divmod(flat, width)
                best[k] = (val, r0 + row, c0 + col)
    return count, best[0], best[1]


def _normalize_constraints(constraints: Mapping[str, float]) -> dict[str, float]:
    out: dict[str, float] = {}
    for key, value in constraints.items():
        k = key.upper()
        if k not in ("D", "P", "C"):
            raise DomainError(f"unknown constraint {key!r}; use D, P, or C")
        v = float(value)
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


def _pattern_search(
    x0: tuple[float, float],
    stats_at: Callable[[float, float], tuple[float, float, float, float]],
    bounds: Mapping[str, float],
    box: tuple[tuple[float, float], tuple[float, float]],
    fixed_dirs: list[tuple[float, float]],
    moving_tangent: Callable[[tuple[float, float]], tuple[float, float] | None] | None,
    step0: float,
) -> tuple[float, float, float] | None:
    """Constrained coordinate/tangent descent on the rate.

    stats_at returns (rate, D-value, P-value, C-value); bounds maps the
    constraint letters to their limits. If the start is infeasible (it may
    come from the slack-widened grid screen) a restoration phase first
    walks down the total violation; descent then only ever accepts
    feasible strictly-improving moves, so the refined point can never be
    worse than a feasible start.
    """
    (lo0, hi0), (lo1, hi1) = box
    budget = [_EVAL_BUDGET]

    def clamp(y: tuple[float, float]) -> tuple[float, float]:
        return (min(max(y[0], lo0), hi0), min(max(y[1], lo1), hi1))

    def violation(vals: tuple[float, float, float, float]) -> float:
        _, dv, pv, cv = vals
        total = 0.0
        if "D" in bounds:
            total += max(0.0, dv - bounds["D"] - _TIGHT)
        if "P" in bounds:
            total += max(0.0, pv - bounds["P"] - _TIGHT)
        if "C" in bounds:
            total += max(0.0, cv - bounds["C"] - _TIGHT)
        return total

    def evaluate(y: tuple[float, float]) -> tuple[float, float, float, float]:
        budget[0] -= 1
        return stats_at(y[0], y[1])

    def directions(x: tuple[float, float]) -> list[tuple[float, float]]:
        dirs = list(fixed_dirs)
        if moving_tangent is not None:
            tangent = moving_tangent(x)
            if tangent is not None:
                dirs.append(tangent)
                dirs.append((-tangent[0], -tangent[1]))
        return dirs

    def walk(x, objective, current) -> tuple[tuple[float, float], float]:
        step = step0
        dirs = directions(x)  # recomputed only when x moves
        while step > _MIN_STEP and budget[0] > 0:
            best_y, best_val = None, current
            for d in dirs:
                y = clamp((x[0] + step * d[0], x[1] + step * d[1]))
                if y == x:
                    continue
                val = objective(y)
                if val < best_val - 1e-15:
                    best_y, best_val = y, val
                if budget[0] <= 0:
                    break
            if best_y is None:
                step *= 0.5
            else:
                x, current = best_y, best_val
                dirs = directions(x)
        return x, current

    x = x0
    vals = evaluate(x)
    if violation(vals) > 0.0:
        x, remaining = walk(x, lambda y: violation(evaluate(y)), violation(vals))
        if remaining > 0.0:
            return None
        vals = evaluate(x)

    def rate_or_inf(y: tuple[float, float]) -> float:
        v = evaluate(y)
        return v[0] if violation(v) == 0.0 else math.inf

    x, rate = walk(x, rate_or_inf, vals[0])
    return rate, x[0], x[1]


def _screened_min(
    result: Callable[..., OracleResult],
    screen: tuple[int, Cell | None, Cell | None],
    axes: tuple[np.ndarray, np.ndarray],
    search: Callable[[tuple[float, float]], tuple[float, float, float] | None] | None,
    witness: Callable[[float, float], tuple[BinaryChannel, float]],
) -> OracleResult:
    """The oracle's answer from its ``_blocked_screen`` result.

    The candidates are the best tight cell (the best slack cell when there
    is no refinement, i.e. ``search`` is None) and the end of every
    feasible pattern search started from either; the least (rate, x, y)
    wins and ``witness`` turns it into the argmin and its exact rate;
    ``axes`` are the grid coordinates of the rows and the columns.
    """

    def point(cell: Cell) -> tuple[float, float]:
        return float(axes[0][cell[1]]), float(axes[1][cell[2]])

    feasible_points, best_tight, best_slack = screen
    if feasible_points == 0:
        return result(rate=math.nan, argmin=None, refined=False, feasible_points=0)
    candidates: list[tuple[float, float, float]] = []
    if best_tight is not None:
        candidates.append((best_tight[0], *point(best_tight)))
    elif search is None and best_slack is not None:
        # without refinement the half-step screen is the declared tolerance
        candidates.append((best_slack[0], *point(best_slack)))

    refined = False
    if search is not None:
        starts: list[tuple[float, float]] = []
        for cell in (best_tight, best_slack):
            if cell is not None and point(cell) not in starts:
                starts.append(point(cell))
        for pt in starts:
            out = search(pt)
            if out is not None:
                candidates.append(out)
                refined = True

    if not candidates:
        return result(rate=math.nan, argmin=None, refined=refined,
                      feasible_points=feasible_points)
    _, x, y = min(candidates)
    argmin, rate = witness(x, y)
    return result(rate=rate, argmin=argmin, refined=refined,
                  feasible_points=feasible_points)


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
    bits). The grid covers all of [0,1]^2 at the requested resolution; the
    feasibility screen widens distortion/perception bounds by half a grid
    step and the entropy bound by a matching continuity modulus, and
    refinement re-checks everything at 1e-9. Returns an infeasible result
    (rate NaN, no argmin) rather than raising when nothing qualifies; a NaN
    bound raises ``DomainError``. ``workers`` is accepted and has no effect.
    """
    if not 1e-4 <= resolution <= 1e-1:
        raise DomainError(f"resolution {resolution} outside [1e-4, 1e-1]")
    cons = _normalize_constraints(constraints)
    n = int(round(1.0 / resolution)) + 1
    step = 1.0 / (n - 1)
    info, hs = _binary_grid(src.a, src.p1, n)
    b1, p1 = src.b, src.p1

    half = 0.5 * step
    slack = {
        "D": half + _TIGHT,
        "P": half + _TIGHT,
        # entropy is not Lipschitz at the simplex boundary; a binary
        # entropy of the half-step bounds how far H(S|Xhat) can move
        # between neighboring cells (two atoms, hence the factor 2)
        "C": 2.0 * binary_entropy(min(half, 0.5)) + _TIGHT,
    }
    widened = {k: bound + slack[k] for k, bound in cons.items()}
    axis = np.linspace(0.0, 1.0, n)

    def dist(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
        return (1.0 - b1) * (1.0 - pa) + b1 * pb

    def shift(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
        """q0 - (1 - b1), whose magnitude is the total variation."""
        out = np.add((1.0 - b1) * pa, b1 * pb)
        out -= 1.0 - b1
        return out

    def window(lo: int, hi: int) -> Window | None:
        # rounding keeps these monotone: D falls in p_a and rises in p_b, so
        # a row's least value is in column 0 and a column's in the last row;
        # q0 - (1 - b1) rises in both, so a column's values lie between its
        # first and last rows
        pa = axis[lo:hi, None]
        keep_rows, keep_cols = np.ones(hi - lo, dtype=bool), np.ones(n, dtype=bool)
        if "D" in cons:
            keep_rows &= dist(pa, axis[:1])[:, 0] <= widened["D"]
            keep_cols &= dist(axis[hi - 1], axis) <= widened["D"]
        if "P" in cons:
            keep_cols &= shift(axis[hi - 1], axis) >= -widened["P"]
            keep_cols &= shift(axis[lo], axis) <= widened["P"]
        return _window(lo, keep_rows, keep_cols)

    def fields(rows: slice, cols: slice) -> list[Passes]:
        pa, pb = axis[rows, None], axis[cols]
        block = {}
        if "D" in cons:
            block["D"] = dist(pa, pb)
        if "P" in cons:
            tv = shift(pa, pb)
            block["P"] = np.abs(tv, out=tv)
        if "C" in cons:
            block["C"] = hs[rows, cols]
        return [(block[k] <= bound + _TIGHT, block[k] <= widened[k])
                for k, bound in cons.items()]

    def witness(pa: float, pb: float) -> tuple[BinaryChannel, float]:
        ch = BinaryChannel(pa, pb)
        return ch, binary_channel_stats(src, ch).mutual_info

    norm = math.hypot(b1, 1.0 - b1)
    fixed = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    if "D" in cons:
        fixed += [(b1 / norm, (1.0 - b1) / norm), (-b1 / norm, -(1.0 - b1) / norm)]
    if "P" in cons:
        fixed += [(b1 / norm, -(1.0 - b1) / norm), (-b1 / norm, (1.0 - b1) / norm)]

    def hs_at(pa: float, pb: float) -> float:
        return _binary_hs(b1, p1, (1.0 - b1) * pa + b1 * pb, pb)

    def c_tangent(x: tuple[float, float]) -> tuple[float, float] | None:
        h = 1e-6
        pa, pb = x
        ga = (
            hs_at(min(pa + h, 1.0), pb) - hs_at(max(pa - h, 0.0), pb)
        ) / (min(pa + h, 1.0) - max(pa - h, 0.0))
        gb = (
            hs_at(pa, min(pb + h, 1.0)) - hs_at(pa, max(pb - h, 0.0))
        ) / (min(pb + h, 1.0) - max(pb - h, 0.0))
        nrm = math.hypot(ga, gb)
        if nrm < 1e-14:
            return None
        return (-gb / nrm, ga / nrm)

    search = partial(
        _pattern_search, stats_at=partial(_binary_point, b1, p1), bounds=cons,
        box=((0.0, 1.0), (0.0, 1.0)), fixed_dirs=fixed,
        moving_tangent=c_tangent if "C" in cons else None, step0=step)
    result = partial(OracleResult, unit=Unit.BITS, grid_resolution=step, constraints=cons)
    screen = _blocked_screen((n, n), window, fields, lambda rows, cols: info[rows, cols])
    return _screened_min(result, screen, (axis, axis), search if refine else None, witness)


# ---------------------------------------------------------------------------
# Gaussian reconstructions
# ---------------------------------------------------------------------------

def _corr2(vx: float, var_xh: float, cov: float) -> float:
    """The squared correlation cov^2 / (vx * var_xh) of variances > 0,
    unclamped: +inf when cov^2 overflows. When vx * var_xh underflows to
    0, cov is divided by both deviations before it is squared."""
    denom = vx * var_xh
    try:
        if denom == 0.0:
            return (cov / math.sqrt(vx) / math.sqrt(var_xh)) ** 2
        return cov**2 / denom
    except OverflowError:  # a Python float raises where numpy gives inf
        return math.inf


def _gaussian_stats(
    src: GaussianPairSource, var_xh: float, cov: float, shift2: float
) -> tuple[float, float, float, float]:
    """(rate, mse, kl, cond_entropy_s) of a jointly Gaussian reconstruction
    of variance ``var_xh`` > 0, covariance ``cov`` with the source and
    squared mean shift ``shift2``: the one formula behind
    ``gaussian_recon_stats`` and ``rpc_given_d.eval_at``, which own the
    checks. The squared correlation (``_corr2``) is clamped at 1, where
    the rate is +inf.
    """
    vx = src.var_x
    ratio = min(_corr2(vx, var_xh, cov), 1.0)
    rate = math.inf if ratio >= 1.0 else -0.5 * math.log1p(-ratio)
    label = min(src.rho**2 * ratio, 1.0)
    info_s = math.inf if label >= 1.0 else -0.5 * math.log1p(-label)
    mse = shift2 + vx + var_xh - 2.0 * cov
    return rate, mse, _gaussian_kl(vx, var_xh, shift2), src.h_s - info_s


def gaussian_recon_stats(
    src: GaussianPairSource, rec: GaussianReconstruction
) -> ChannelStats:
    """Rate/MSE/KL/classification of a jointly Gaussian reconstruction.

    Sentinels at the degenerate corners: an exact copy (correlation 1)
    reports infinite rate; a constant reconstruction reports infinite KL
    and the unconditional label entropy. A mean difference or covariance
    whose square overflows, or a covariance that breaks Cauchy-Schwarz
    (any nonzero one at var_xh = 0), raises ``DomainError``.
    """
    vx = src.var_x
    try:
        shift2 = (src.mu_x - rec.mu_xh) ** 2
        cov2 = rec.cov_xxh**2
    except OverflowError:  # a Python float raises where numpy gives inf
        raise DomainError(
            f"a square overflows at mu_xh={rec.mu_xh}, cov_xxh={rec.cov_xxh}"
        ) from None
    if rec.var_xh == 0.0 and rec.cov_xxh == 0.0:
        return ChannelStats(0.0, shift2 + vx, math.inf, src.h_s, Unit.NATS)
    if rec.var_xh == 0.0 or _corr2(vx, rec.var_xh, rec.cov_xxh) > 1.0 + 1e-12:
        raise DomainError(f"cov^2={cov2} exceeds var_x*var_xh={vx * rec.var_xh}")
    return ChannelStats(*_gaussian_stats(src, rec.var_xh, rec.cov_xxh, shift2), Unit.NATS)


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
        var = s * s
        # a constant reconstruction has the values gaussian_recon_stats gives it
        values = (_gaussian_stats(src, var, sx * s * t, 0.0) if var > 0.0
                  else (0.0, vx, math.inf, src.h_s))
        return all(values[i] <= bound for i, bound in checks)

    result = partial(OracleResult, unit=Unit.NATS, grid_resolution=2.0**-50,
                     refined=False, constraints=cons)
    # [0, 1] halves until the bracket is narrower than 1e-15, i.e. 2^-50 wide
    t = bisect_predicate(met, 0.0, 1.0, xtol=1e-15) if met(1.0) else 1.0
    if t == 1.0:  # nothing meets the bounds, or only t within 2^-50 of 1
        return result(rate=math.nan, argmin=None, feasible_points=0)
    s = deviation(t)
    rec = GaussianReconstruction(src.mu_x, s * s, sx * s * t)
    return result(rate=gaussian_recon_stats(src, rec).mutual_info, argmin=rec,
                  feasible_points=1)


# ---------------------------------------------------------------------------
# entropy-power style inequality check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MglCheck:
    lhs: float
    rhs: float
    holds: bool


def mrs_gerber_check(src: BinaryPairSource, ch: BinaryChannel) -> MglCheck:
    """Mrs. Gerber's lemma instance: H(S|Xhat) vs H(p1 * Hinv(H(X|Xhat))).

    Equality requires the backward conditionals of the channel to be
    complementary; everything else should be strictly above the bound.
    """
    stats = binary_channel_stats(src, ch)
    h_x = binary_entropy(src.b)
    h_x_given = min(max(h_x - stats.mutual_info, 0.0), 1.0)
    rhs = binary_entropy(
        binary_convolution(src.p1, binary_entropy_inv(h_x_given))
    )
    return MglCheck(
        lhs=stats.cond_entropy_s,
        rhs=rhs,
        holds=stats.cond_entropy_s >= rhs - 1e-10,
    )
