"""Minimal Gaussian rate with the mean-squared error pinned to equality.

A Gaussian reconstruction of variance u meeting MSE = D exactly has rate,
KL and label entropy that depend on u alone, through the squared
correlation ratio(u) = (a + u)^2 / (4 var_x u), a = var_x - D. It is
convex and least at u = |a|; the rate -0.5*log1p(-ratio) rises with it,
the C bound is ratio >= k, and the P bound an interval of u around var_x,
so both programs are closed forms. Pinned distortions do not nest: the
rate is monotone in D only when P is off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .closed_form import _check_bounds, _gaussian_k
from .errors import DomainError
from .results import GaussianReconstruction, Region, TradeoffPoint, Unit
from .sources import GaussianPairSource, _gaussian_stats

# a frontier row is live while its rate is within this of the budget
_RATE_SLACK = 1e-9
# ln of the largest float: math.expm1 overflows above it
_V_MAX = 709.782712893384


@dataclass(frozen=True)
class PCFrontierPoint:
    """One row of a perception/classification frontier at fixed (R, D)."""

    c: float
    min_p: float
    rate: float
    sigma_xh: float
    feasible: bool


def _roots(vx: float, a: float, q: float) -> tuple[float, float]:
    """The u with ratio(u) = q >= max(a, 0) / var_x, monotone in q; the
    smaller is a^2 over the larger (0 if that is 0), which keeps its precision."""
    disc = vx * q * (vx * q - a)
    big = (2.0 * vx * q - a) + 2.0 * math.sqrt(0.0 if 0.0 > disc else disc)
    return (a / big * a if big else 0.0), big


def _kl_interval(p: float) -> tuple[float, float]:
    """Ends of {t = u / var_x : KL <= p}. In v = -ln t the KL is (e^v - 1
    - v) / 2, convex, so Newton runs monotonically to each root from a
    start outside it; by e^v >= 1 + v + v^2/2 + v^3/6, 2 sqrt(p) and
    -(2p + min(1, 2 sqrt(p))) are such starts. Where e^(2 sqrt(p))
    overflows (p above about 1.26e5) the first start is ln(4p), as
    4p - 1 - ln(4p) >= 2p there; the lower end is then about 1 / (2p).
    Past p = 4.5e307 the product 4p overflows, the gap at v = inf is NaN,
    Newton stops at once and the lower end is 0.0."""
    if p == math.inf:
        return 0.0, math.inf
    ends, root = [], 2.0 * math.sqrt(p)
    for v in (root if root <= _V_MAX else math.log(4.0 * p),
              -2.0 * p - (root if root < 1.0 else 1.0)):
        while (g := math.expm1(v) - v - 2.0 * p) > 0.0:
            if v == (v := v - g / math.expm1(v)):
                break
        ends.append(math.exp(-v) if v > -709.0 else math.inf)  # e^709: overflow
    return ends[0], ends[1]


def _check_d(d: float) -> None:
    if not 0.0 < d < math.inf:
        raise DomainError(f"pinned distortion must be positive and finite: {d}")


def _witness(src: GaussianPairSource, d: float, k: float, target: float,
             lo: float, hi: float) -> tuple[float, float, float, float] | None:
    """``target`` clamped into [lo, hi] if it meets ratio >= k, else the
    roots of ratio = k in [lo, hi] (u = 0 at D = var_x is spurious, with
    KL +inf); of these the point of least KL, as (s, rate, kl,
    cond_entropy_s) at spread s = sqrt(u) from ``_gaussian_stats``. Its
    u = s * s is off the arc (all inf) if it under- or overflows, save
    u = 0 at D = var_x, the constant reconstruction; the label entropy is
    inf wherever the rate is."""
    vx, a = src.var_x, src.var_x - d
    u = lo if lo > target else target
    u = hi if hi < u else u
    spreads = [u]
    if k > (0.0 if 0.0 > a else a) / vx:
        r_lo, r_hi = _roots(vx, a, k)
        if not (0.0 < u <= r_lo or u >= r_hi):
            spreads = [r for r in (r_lo, r_hi) if lo <= r <= hi]
    best = None
    for w in spreads:  # the first of least KL, as min(..., key=) keeps
        s = math.sqrt(w)
        u = s * s
        rate = kl = hs = math.inf
        if 0.0 < u < math.inf or u == 0.0 and d == vx:
            rate, _, kl, hs = _gaussian_stats(src, u, 0.5 * (vx + u - d), 0.0)
        if best is None or kl < best[2]:
            best = (s, rate, kl, math.inf if rate == math.inf else hs)
    return best


def _classify(src: GaussianPairSource, d: float, p: float, c: float,
              best: tuple[float, float, float, float]) -> Region:
    _, rate, kl, hs = best
    floor = 0.5 * math.log(src.var_x / d) if d < src.var_x else 0.0
    if rate <= floor + 1e-9:
        return Region.DISTORTION_LIMITED if floor > 1e-12 else Region.ZERO_RATE
    if hs >= c - 1e-7:
        return Region.CLASSIFICATION_LIMITED
    if kl >= p - 1e-7:
        return Region.PERCEPTION_LIMITED
    return Region.DISTORTION_LIMITED


def rate_given_pcd(src: GaussianPairSource, d: float, p: float,
                   c: float) -> TradeoffPoint:
    """Minimal rate at pinned distortion ``d``, KL bound ``p`` (nats, +inf
    for none) and label-entropy bound ``c`` (nats): -0.5*log1p(-max(m, k)),
    m the least ratio on the arc ratio <= 1 cut to {KL <= p}. The witness
    (with the pinned covariance) is where m is reached, or if k > m the
    root of ratio = k there, of smaller perception if both roots are."""
    _check_d(d)
    _check_bounds(c, 0.0, p)
    vx, a, k = src.var_x, src.var_x - d, _gaussian_k(src, c)
    arc_lo, arc_hi = _roots(vx, a, 1.0)
    t_lo, t_hi = _kl_interval(p)
    lo, hi = vx * t_lo, vx * t_hi
    lo, hi = lo if lo > arc_lo else arc_lo, hi if hi < arc_hi else arc_hi
    best = _witness(src, d, k, abs(a), lo, hi) if lo <= hi and k < 1.0 else None
    if best is None or not math.isfinite(best[1]):
        return TradeoffPoint(math.nan, Unit.NATS, Region.INFEASIBLE, c, d, p)
    s, rate, _, _ = best
    var_xh = s * s
    return TradeoffPoint(
        rate, Unit.NATS, _classify(src, d, p, c, best), c, d, p,
        GaussianReconstruction(src.mu_x, var_xh, 0.5 * (vx + var_xh - d)),
    )


def pc_frontier_given_rd(
    src: GaussianPairSource, d: float, rate_level: float, c_grid: Sequence[float],
) -> list[PCFrontierPoint]:
    """Minimal perception per classification bound at a fixed rate budget.

    A row is dead (NaN) if its P = +inf ratio max(max(a, 0) / var_x, k)
    exceeds 1 - e^{-2(rate_level + _RATE_SLACK)}. Otherwise its witness is
    the point nearest var_x of {k <= ratio <= q}, q = 1 - e^{-2 rate_level}
    or the P = +inf ratio if larger; min P is the KL there, floored at 0.
    """
    if not rate_level >= 0.0:
        raise DomainError(f"rate level must be >= 0: {rate_level}")
    _check_d(d)
    vx, a = src.var_x, src.var_x - d
    budget = -math.expm1(-2.0 * rate_level)
    live = -math.expm1(-2.0 * (rate_level + _RATE_SLACK))
    out: list[PCFrontierPoint] = []
    for c in map(float, c_grid):
        _check_bounds(c)
        k, floor = _gaussian_k(src, c), (0.0 if 0.0 > a else a) / vx
        best = None
        if (k if k > floor else floor) <= live:
            q = floor if floor > budget else budget
            best = _witness(src, d, k, vx, *_roots(vx, a, k if k > q else q))
        # a witness that misses the budget (round-off at D >> var_x) is none
        if best is None or not best[1] <= rate_level + _RATE_SLACK:
            out.append(PCFrontierPoint(c, math.nan, math.nan, math.nan, False))
            continue
        s, rate, kl, _ = best
        out.append(PCFrontierPoint(c, 0.0 if 0.0 > kl else kl, rate, s, True))
    return out
