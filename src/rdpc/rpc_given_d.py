"""Minimal Gaussian rate with the mean-squared error pinned to equality.

Inside the jointly Gaussian reconstruction family, requiring
E[(X - Xhat)^2] = D exactly ties the source/reconstruction covariance to
the reconstruction spread: theta2 = (var_x + s^2 - D) / 2 with s the
reconstruction standard deviation. The three-constraint rate program then
collapses to one dimension: the rate -0.5*ln(1 - theta2^2/(var_x s^2))
has a single dip in s, the perception bound (KL of the source law from
the reconstruction law) carves out an interval around s = sigma_x, and
the classification bound removes a middle band where the implied
source/label/reconstruction correlation is too weak. The feasible set is
a union of at most a few intervals.

The solver scans the admissible arc |theta2| <= sigma_x*s on a dense
grid, trims each contiguous feasible run to the exact constraint
boundary by bisection, and finishes each run with a golden-section pass.
Near-equal rates across runs (a binding classification bound admits two
boundary roots with identical rate) are broken toward the smaller
attained perception. Two analytic seed points, s = sigma_x (zero
perception) and the rate dip, are always tried as well so that
constraint bands thinner than the grid step cannot be missed.

The scan depends only on (source, D) and is cached. The classification
bound is applied to it once per (D, C): a frontier row screens its cells
once, and each perception bound its bisection tries re-screens only the
KL column of the cells that survived.

Because the distortion is pinned to equality rather than bounded, the
feasible sets at two distortion levels are not nested; the rate is
monotone in P and C but only monotone in D when the perception bound is
off. Demands met only by a perfectly correlated reconstruction
(|theta2| = sigma_x*s, infinite rate) are reported infeasible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .optimize import bisect_predicate, golden_min
from .results import GaussianReconstruction, Region, TradeoffPoint, Unit
from .sources import GaussianPairSource

_SCAN_POINTS = 100_000
_CONSTRAINT_SLACK = 1e-12
_RATE_TIE = 1e-9


@dataclass(frozen=True)
class ScanPoint:
    """Pinned-distortion quantities at one reconstruction spread (nats)."""

    sigma_xh: float
    rate: float
    perception_kl: float
    cond_entropy_s: float

    def feasible_for(self, p: float, c: float) -> bool:
        return (
            math.isfinite(self.rate)
            and self.perception_kl <= p + _CONSTRAINT_SLACK
            and self.cond_entropy_s <= c + _CONSTRAINT_SLACK
        )


@dataclass(frozen=True)
class PCFrontierPoint:
    """One row of a perception/classification frontier at fixed (R, D)."""

    c: float
    min_p: float
    rate: float
    sigma_xh: float
    feasible: bool


def eval_at(src: GaussianPairSource, d: float, s: float) -> ScanPoint:
    """Rate, perception, and conditional label entropy at spread ``s``.

    Inadmissible spreads (s <= 0, or an implied correlation of magnitude
    1 or more) come back with infinite rate and constraint values so they
    never test feasible.
    """
    if s <= 0.0:
        return ScanPoint(s, math.inf, math.inf, math.inf)
    theta2 = 0.5 * (src.var_x + s * s - d)
    ratio = (theta2 * theta2) / (src.var_x * s * s)
    kl = 0.5 * math.log(s * s / src.var_x) + (src.var_x - s * s) / (2.0 * s * s)
    if ratio >= 1.0:
        return ScanPoint(s, math.inf, kl, math.inf)
    rate = -0.5 * math.log1p(-ratio)
    rho = src.rho
    hs = src.h_s + 0.5 * math.log1p(-rho * rho * ratio)
    return ScanPoint(s, rate, kl, hs)


@functools.lru_cache(maxsize=8)
def _scan(src: GaussianPairSource, d: float, n: int):
    """Vectorized ``eval_at`` over the admissible arc. Cached because the
    arrays depend only on (source, D): frontier bisections re-mask them."""
    sx = math.sqrt(src.var_x)
    root = math.sqrt(d)
    s = np.linspace(max(0.0, sx - root), sx + root, n)
    theta2 = 0.5 * (src.var_x + s * s - d)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (theta2 * theta2) / (src.var_x * s * s)
        rate = -0.5 * np.log1p(-ratio)
        kl = 0.5 * np.log(s * s / src.var_x) + (src.var_x - s * s) / (2.0 * s * s)
        rho2 = src.rho**2
        hs = src.h_s + 0.5 * np.log1p(-rho2 * ratio)
    bad = ~np.isfinite(rate) | (ratio >= 1.0) | (s <= 0.0)
    rate = np.where(bad, np.inf, rate)
    kl = np.where(np.isfinite(kl), kl, np.inf)
    hs = np.where(bad | ~np.isfinite(hs), np.inf, hs)
    return s, rate, kl, hs


def _pinned_rate_floor(src: GaussianPairSource, d: float) -> float:
    """Rate with only the distortion pin active: the classical
    rate-distortion value below var_x, zero at or beyond it."""
    if d < src.var_x:
        return 0.5 * math.log(src.var_x / d)
    return 0.0


def _seed_spreads(src: GaussianPairSource, d: float, c: float) -> tuple[float, ...]:
    """Spreads that anchor feasible bands thinner than the scan step: the
    zero-perception spread, the rate-dip spread, and the boundary roots
    where the classification bound binds exactly. Any of them may still
    be inadmissible (off the arc, or at unit correlation), which
    ``eval_at`` reports as infinite rate."""
    sx = math.sqrt(src.var_x)
    seeds = [sx, math.sqrt(abs(src.var_x - d))]
    rho2 = src.rho**2
    if rho2 > 0.0 and c < src.h_s:
        k = (1.0 - math.exp(2.0 * (c - src.h_s))) / rho2
        disc = src.var_x * k - src.var_x + d
        if k > 0.0 and disc >= 0.0:
            half_width = math.sqrt(disc)
            center = sx * math.sqrt(k)
            # one quadratic per sign of the pinned covariance
            for cand in (
                center - half_width, center + half_width, half_width - center
            ):
                if cand > 0.0:
                    seeds.append(cand)
    return tuple(seeds)


def _classify(
    src: GaussianPairSource, d: float, p: float, c: float, best: ScanPoint
) -> Region:
    floor = _pinned_rate_floor(src, d)
    if best.rate <= floor + 1e-9:
        return Region.DISTORTION_LIMITED if floor > 1e-12 else Region.ZERO_RATE
    if best.cond_entropy_s >= c - 1e-7:
        return Region.CLASSIFICATION_LIMITED
    if best.perception_kl >= p - 1e-7:
        return Region.PERCEPTION_LIMITED
    return Region.DISTORTION_LIMITED


def _check_args(d: float, p: float, c: float, scan_points: int) -> None:
    if math.isnan(d) or d <= 0.0:
        raise DomainError(f"pinned distortion must be positive: {d}")
    if math.isnan(p) or p < 0.0:
        raise DomainError(f"perception bound must be >= 0 (inf allowed): {p}")
    if math.isnan(c):
        raise DomainError("classification bound is NaN")
    if scan_points < 2:
        raise DomainError(f"scan needs at least 2 points: {scan_points}")


@dataclass(frozen=True)
class _Screen:
    """The scan at one (source, D, C, scan size) with the classification
    bound already applied: ``base`` indexes the admissible cells with
    hs <= C + slack, ``kl`` is their perception column. A perception
    bound then re-screens only ``kl``."""

    src: GaussianPairSource
    d: float
    c: float
    s: np.ndarray
    rate: np.ndarray
    base: np.ndarray
    kl: np.ndarray
    seeds: tuple[float, ...]


def _screen(src: GaussianPairSource, d: float, c: float, scan_points: int) -> _Screen:
    s, rate, kl, hs = _scan(src, float(d), int(scan_points))
    base = np.flatnonzero((hs <= c + _CONSTRAINT_SLACK) & np.isfinite(rate))
    return _Screen(src, d, c, s, rate, base, kl[base], _seed_spreads(src, d, c))


def _solve(screen: _Screen, p: float) -> TradeoffPoint:
    """Minimal rate on a screened scan under perception bound ``p``."""
    src, d, c, s, rate = screen.src, screen.d, screen.c, screen.s, screen.rate

    def feas(x: float) -> bool:
        return eval_at(src, d, x).feasible_for(p, c)

    candidates: list[ScanPoint] = []
    idx = screen.base[screen.kl <= p + _CONSTRAINT_SLACK]
    if idx.size:
        runs = np.split(idx, np.where(np.diff(idx) != 1)[0] + 1)
        for run in runs:
            i = int(run[np.argmin(rate[run])])
            lo = float(s[run[0]])
            if run[0] > 0:
                lo = bisect_predicate(feas, float(s[run[0] - 1]), lo, xtol=1e-10)
            hi = float(s[run[-1]])
            if run[-1] < len(s) - 1:
                # mirror the axis so the feasible side is the upper end
                hi = -bisect_predicate(
                    lambda u: feas(-u), -float(s[run[-1] + 1]), -hi, xtol=1e-10
                )
            s_star, _ = golden_min(
                lambda x: eval_at(src, d, x).rate, lo, hi, xtol=1e-10
            )
            options = [eval_at(src, d, float(s[i]))]
            refined = eval_at(src, d, s_star)
            if refined.feasible_for(p, c):
                options.append(refined)
            candidates.append(
                min(options, key=lambda q: (q.rate, q.perception_kl))
            )
    # analytic seeds rescue feasible bands thinner than the grid step
    for s_seed in screen.seeds:
        q = eval_at(src, d, s_seed)
        if q.feasible_for(p, c):
            candidates.append(q)

    if not candidates:
        return TradeoffPoint(
            rate=math.nan, unit=Unit.NATS, feasible=False,
            region=Region.INFEASIBLE, c=c, d=d, p=p,
        )
    best_rate = min(q.rate for q in candidates)
    best = min(
        (q for q in candidates if q.rate <= best_rate + _RATE_TIE),
        key=lambda q: (q.perception_kl, q.sigma_xh),
    )
    theta2 = 0.5 * (src.var_x + best.sigma_xh**2 - d)
    return TradeoffPoint(
        rate=best.rate,
        unit=Unit.NATS,
        feasible=True,
        region=_classify(src, d, p, c, best),
        c=c,
        d=d,
        p=p,
        witness=GaussianReconstruction(src.mu_x, best.sigma_xh**2, theta2),
    )


def rate_given_pcd(
    src: GaussianPairSource,
    d: float,
    p: float,
    c: float,
    *,
    scan_points: int = _SCAN_POINTS,
) -> TradeoffPoint:
    """Minimal rate at pinned distortion ``d`` under perception bound
    ``p`` (KL, nats; +inf means unconstrained) and classification bound
    ``c`` (conditional label entropy, nats).

    The witness carries the argmin reconstruction; its covariance is the
    pinned theta2 at the returned spread. When the classification bound
    is tight at both of its boundary roots the returned point is the one
    with the smaller perception.
    """
    _check_args(d, p, c, scan_points)
    return _solve(_screen(src, d, c, scan_points), p)


def pc_frontier_given_rd(
    src: GaussianPairSource,
    d: float,
    rate_level: float,
    c_grid: Sequence[float],
    *,
    scan_points: int = _SCAN_POINTS,
    rate_slack: float = 1e-9,
) -> list[PCFrontierPoint]:
    """Minimal perception per classification bound at a fixed rate budget.

    For each C the perception bound is bisected down from the perception
    attained by the unconstrained-P optimum; rows where even P = +inf
    cannot reach ``rate_level`` are marked infeasible (NaN columns).
    Each row checks its arguments and screens the scan against its C
    once; every perception step of the row then re-screens only the KL
    column of those cells.
    """
    if math.isnan(rate_level) or rate_level < 0.0:
        raise DomainError(f"rate level must be >= 0: {rate_level}")
    out: list[PCFrontierPoint] = []
    for c_raw in c_grid:
        c = float(c_raw)
        _check_args(d, math.inf, c, scan_points)
        screen = _screen(src, d, c, scan_points)
        relaxed = _solve(screen, math.inf)
        if not relaxed.feasible or relaxed.rate > rate_level + rate_slack:
            out.append(PCFrontierPoint(c, math.nan, math.nan, math.nan, False))
            continue

        def meets(p_bound: float) -> bool:
            tp = _solve(screen, p_bound)
            return tp.feasible and tp.rate <= rate_level + rate_slack

        assert relaxed.witness is not None
        s_star = math.sqrt(relaxed.witness.var_xh)
        cap = eval_at(src, d, s_star).perception_kl
        if not meets(cap):
            # absorb refinement round-off at the relaxed optimum
            cap = cap * (1.0 + 1e-9) + 1e-12
        if meets(0.0):
            min_p = 0.0
        elif meets(cap):
            min_p = bisect_predicate(meets, 0.0, cap, xtol=1e-10)
        else:  # pragma: no cover - round-off guard, conservative upper bound
            min_p = cap
        final = _solve(screen, min_p)
        assert final.witness is not None
        out.append(
            PCFrontierPoint(
                c, min_p, final.rate, math.sqrt(final.witness.var_xh), True
            )
        )
    return out
