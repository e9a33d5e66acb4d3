"""Brute-force constrained rate minimization on parameter grids.

This module is the package's independent check on the closed forms: it
never calls them. Binary channels are exhausted over the conditional
square (p_a, p_b) in [0,1]^2; Gaussian reconstructions over standard
deviation and normalized correlation (s, t). Grid search keeps every
feasible cell (with a half-step slack so optima between grid points are
not screened out), then a pattern search tightens the best candidates to
constraint tolerance 1e-9 with steps shrinking to 1e-7.

Determinism contract: grids are evaluated as whole arrays, the argmin
reduction runs over disjoint row chunks (one per worker) and merges
(value, row, col) tuples, so ties always resolve to the lexicographically
first grid cell no matter how many workers participate.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .entropy import (
    binary_convolution,
    binary_entropy,
    binary_entropy_inv,
    gaussian_kl,
)
from .errors import DomainError
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

_LN2 = math.log(2.0)


def _h2_bits_arr(x: np.ndarray) -> np.ndarray:
    """Vectorized binary entropy in bits; entr handles the 0 log 0 ends."""
    # imported here so that `import rdpc` does not load scipy.special
    from scipy.special import entr

    return (entr(x) + entr(1.0 - x)) / _LN2


# ---------------------------------------------------------------------------
# binary channels
# ---------------------------------------------------------------------------

def _binary_point(
    b1: float, p1: float, p_a: float, p_b: float
) -> tuple[float, float, float, float]:
    """(mutual_info, distortion, tv, cond_entropy_S) for one channel."""
    q0 = (1.0 - b1) * p_a + b1 * p_b
    dist = (1.0 - b1) * (1.0 - p_a) + b1 * p_b
    tv = abs(q0 - (1.0 - b1))
    info = binary_entropy(q0) - (
        (1.0 - b1) * binary_entropy(p_a) + b1 * binary_entropy(p_b)
    )
    info = max(info, 0.0)
    hs = 0.0
    if q0 > 0.0:
        x1_given_0 = min(max(b1 * p_b / q0, 0.0), 1.0)
        hs += q0 * binary_entropy(binary_convolution(p1, x1_given_0))
    if q0 < 1.0:
        x1_given_1 = min(max(b1 * (1.0 - p_b) / (1.0 - q0), 0.0), 1.0)
        hs += (1.0 - q0) * binary_entropy(binary_convolution(p1, x1_given_1))
    return info, dist, tv, hs


def binary_channel_stats(src: BinaryPairSource, ch: BinaryChannel) -> ChannelStats:
    """Exact rate/distortion/perception/classification of one channel.

    All four quantities come from the explicit joint distribution of
    (S, X, Xhat); distortion is Hamming, perception is total variation
    between the X and Xhat marginals, everything entropic is in bits.
    """
    info, dist, tv, hs = _binary_point(src.marginal_x1, src.p1, ch.p_a, ch.p_b)
    return ChannelStats(
        mutual_info=info, distortion=dist, perception=tv,
        cond_entropy_s=hs, unit=Unit.BITS,
    )


@lru_cache(maxsize=2)
def _binary_grid(a: float, p1: float, n: int) -> dict:
    """Channel statistics over the full (p_a, p_b) lattice, cached.

    Caching is per source and resolution so a sweep over many (D, P, C)
    instances of the same source pays the array cost once.
    """
    src = BinaryPairSource(a, p1)
    b1 = src.marginal_x1
    axis = np.linspace(0.0, 1.0, n)
    pa = axis[:, None]
    pb = axis[None, :]
    q0 = (1.0 - b1) * pa + b1 * pb
    dist = (1.0 - b1) * (1.0 - pa) + b1 * pb
    tv = np.abs(q0 - (1.0 - b1))
    info = _h2_bits_arr(q0) - (
        (1.0 - b1) * _h2_bits_arr(pa) + b1 * _h2_bits_arr(pb)
    )
    np.clip(info, 0.0, None, out=info)
    with np.errstate(divide="ignore", invalid="ignore"):
        c_given_0 = np.where(q0 > 0.0, b1 * pb / np.where(q0 > 0.0, q0, 1.0), 0.0)
        c_given_1 = np.where(
            q0 < 1.0, b1 * (1.0 - pb) / np.where(q0 < 1.0, 1.0 - q0, 1.0), 0.0
        )
    np.clip(c_given_0, 0.0, 1.0, out=c_given_0)
    np.clip(c_given_1, 0.0, 1.0, out=c_given_1)
    conv0 = p1 * (1.0 - c_given_0) + c_given_0 * (1.0 - p1)
    conv1 = p1 * (1.0 - c_given_1) + c_given_1 * (1.0 - p1)
    hs = q0 * _h2_bits_arr(conv0) + (1.0 - q0) * _h2_bits_arr(conv1)
    return {"info": info, "dist": dist, "tv": tv, "hs": hs}


def _chunked_masked_argmin(
    obj: np.ndarray, mask: np.ndarray, workers: int
) -> tuple[float, int, int] | None:
    """Deterministic argmin of obj over mask, chunked by rows.

    Each chunk reports (value, row, col); the merge takes the tuple
    minimum, i.e. smallest value with lexicographic index tie-break, which
    is independent of the chunk layout. At most ``os.cpu_count()`` threads
    run (one when that is unknown), whatever ``workers`` asks for.
    """
    rows = obj.shape[0]
    k = max(1, min(int(workers), rows, os.cpu_count() or 1))
    bounds = [round(i * rows / k) for i in range(k + 1)]

    def one(i: int) -> tuple[float, int, int] | None:
        r0, r1 = bounds[i], bounds[i + 1]
        if r0 >= r1:
            return None
        sub = np.where(mask[r0:r1], obj[r0:r1], np.inf)
        flat = int(np.argmin(sub))
        val = float(sub.flat[flat])
        if not math.isfinite(val):
            return None
        ia, ib = divmod(flat, sub.shape[1])
        return (val, r0 + ia, ib)

    if k == 1:
        parts = [one(0)]
    else:
        with ThreadPoolExecutor(max_workers=k) as pool:
            parts = list(pool.map(one, range(k)))
    found = [p for p in parts if p is not None]
    return min(found) if found else None


def _normalize_constraints(constraints: Mapping[str, float]) -> dict[str, float]:
    out: dict[str, float] = {}
    for key, value in constraints.items():
        k = key.upper()
        if k not in ("D", "P", "C"):
            raise DomainError(f"unknown constraint {key!r}; use D, P, or C")
        v = float(value)
        if k in ("D", "P") and v < 0.0:
            raise DomainError(f"constraint {k} must be nonnegative: {v}")
        if k == "P" and v == 0.0:
            v = _P_ZERO_TOL
        if math.isinf(v):
            continue  # an infinite bound is no constraint at all
        out[k] = v
    if not out:
        raise DomainError("at least one finite constraint is required")
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
        while step > _MIN_STEP and budget[0] > 0:
            best_y, best_val = None, current
            for d in directions(x):
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
    (rate NaN, no argmin) rather than raising when nothing qualifies.
    """
    if not 1e-4 <= resolution <= 1e-1:
        raise DomainError(f"resolution {resolution} outside [1e-4, 1e-1]")
    cons = _normalize_constraints(constraints)
    n = int(round(1.0 / resolution)) + 1
    step = 1.0 / (n - 1)
    grid = _binary_grid(src.a, src.p1, n)
    b1 = src.marginal_x1
    p1 = src.p1

    half = 0.5 * step
    slack = {
        "D": half + _TIGHT,
        "P": half + _TIGHT,
        # entropy is not Lipschitz at the simplex boundary; a binary
        # entropy of the half-step bounds how far H(S|Xhat) can move
        # between neighboring cells (two atoms, hence the factor 2)
        "C": 2.0 * binary_entropy(min(half, 0.5)) + _TIGHT,
    }
    field = {"D": "dist", "P": "tv", "C": "hs"}

    tight_mask = np.ones_like(grid["info"], dtype=bool)
    slack_mask = np.ones_like(grid["info"], dtype=bool)
    for key, bound in cons.items():
        values = grid[field[key]]
        tight_mask &= values <= bound + _TIGHT
        slack_mask &= values <= bound + slack[key]

    feasible_points = int(slack_mask.sum())
    if feasible_points == 0:
        return OracleResult(
            rate=math.nan, unit=Unit.BITS, argmin=None, grid_resolution=step,
            refined=False, feasible=False, feasible_points=0, constraints=cons,
        )

    axis = np.linspace(0.0, 1.0, n)
    best_tight = _chunked_masked_argmin(grid["info"], tight_mask, workers)
    best_slack = _chunked_masked_argmin(grid["info"], slack_mask, workers)

    def stats_at(pa: float, pb: float) -> tuple[float, float, float, float]:
        return _binary_point(b1, p1, pa, pb)

    candidates: list[tuple[float, float, float]] = []
    if best_tight is not None:
        candidates.append(
            (best_tight[0], float(axis[best_tight[1]]), float(axis[best_tight[2]]))
        )
    elif not refine and best_slack is not None:
        # without refinement the half-step screen is the declared tolerance
        candidates.append(
            (best_slack[0], float(axis[best_slack[1]]), float(axis[best_slack[2]]))
        )

    refined = False
    if refine:
        norm = math.hypot(b1, 1.0 - b1)
        fixed = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
        if "D" in cons:
            fixed += [(b1 / norm, (1.0 - b1) / norm), (-b1 / norm, -(1.0 - b1) / norm)]
        if "P" in cons:
            fixed += [(b1 / norm, -(1.0 - b1) / norm), (-b1 / norm, (1.0 - b1) / norm)]

        c_tangent = None
        if "C" in cons:

            def c_tangent(x: tuple[float, float]) -> tuple[float, float] | None:
                h = 1e-6
                pa, pb = x
                ga = (
                    stats_at(min(pa + h, 1.0), pb)[3]
                    - stats_at(max(pa - h, 0.0), pb)[3]
                ) / (min(pa + h, 1.0) - max(pa - h, 0.0))
                gb = (
                    stats_at(pa, min(pb + h, 1.0))[3]
                    - stats_at(pa, max(pb - h, 0.0))[3]
                ) / (min(pb + h, 1.0) - max(pb - h, 0.0))
                nrm = math.hypot(ga, gb)
                if nrm < 1e-14:
                    return None
                return (-gb / nrm, ga / nrm)

        starts = []
        for cand in (best_tight, best_slack):
            if cand is not None:
                pt = (float(axis[cand[1]]), float(axis[cand[2]]))
                if pt not in starts:
                    starts.append(pt)
        for pt in starts:
            out = _pattern_search(
                pt, stats_at, cons, ((0.0, 1.0), (0.0, 1.0)),
                fixed, c_tangent, step,
            )
            if out is not None:
                candidates.append(out)
                refined = True

    if not candidates:
        return OracleResult(
            rate=math.nan, unit=Unit.BITS, argmin=None, grid_resolution=step,
            refined=refined, feasible=False, feasible_points=feasible_points,
            constraints=cons,
        )

    _, pa_best, pb_best = min(candidates, key=lambda c: (c[0], c[1], c[2]))
    argmin = BinaryChannel(pa_best, pb_best)
    rate = binary_channel_stats(src, argmin).mutual_info
    return OracleResult(
        rate=rate, unit=Unit.BITS, argmin=argmin, grid_resolution=step,
        refined=refined, feasible=True, feasible_points=feasible_points,
        constraints=cons,
    )


# ---------------------------------------------------------------------------
# Gaussian reconstructions
# ---------------------------------------------------------------------------

def gaussian_recon_stats(
    src: GaussianPairSource, rec: GaussianReconstruction
) -> ChannelStats:
    """Rate/MSE/KL/classification of a jointly Gaussian reconstruction.

    Sentinels at the degenerate corners: an exact copy (correlation 1)
    reports infinite rate; a constant reconstruction reports infinite KL
    and the unconditional label entropy.
    """
    vx = src.var_x
    if rec.var_xh == 0.0:
        mse = (src.mu_x - rec.mu_xh) ** 2 + vx
        return ChannelStats(
            mutual_info=0.0, distortion=mse, perception=math.inf,
            cond_entropy_s=src.h_s, unit=Unit.NATS,
        )
    ratio = rec.cov_xxh**2 / (vx * rec.var_xh)
    if ratio > 1.0 + 1e-12:
        raise DomainError(
            f"cov^2={rec.cov_xxh**2} exceeds var_x*var_xh={vx * rec.var_xh}"
        )
    ratio = min(ratio, 1.0)
    info = math.inf if ratio >= 1.0 else -0.5 * math.log1p(-ratio)
    mse = (src.mu_x - rec.mu_xh) ** 2 + vx + rec.var_xh - 2.0 * rec.cov_xxh
    kl = gaussian_kl(src.mu_x, vx, rec.mu_xh, rec.var_xh)
    label_ratio = min(src.rho**2 * ratio, 1.0)
    info_s = math.inf if label_ratio >= 1.0 else -0.5 * math.log1p(-label_ratio)
    return ChannelStats(
        mutual_info=info, distortion=mse, perception=kl,
        cond_entropy_s=src.h_s - info_s, unit=Unit.NATS,
    )


def _gauss_point(
    src: GaussianPairSource, s: float, t: float
) -> tuple[float, float, float, float]:
    """(rate, mse, kl, cond_entropy_S) at sigma_xh = s, correlation t."""
    vx = src.var_x
    sx = math.sqrt(vx)
    t2 = min(t * t, 1.0)
    rate = math.inf if t2 >= 1.0 - 1e-15 else -0.5 * math.log1p(-t2)
    mse = vx + s * s - 2.0 * sx * s * t
    if s == 0.0:
        kl = math.inf
        hs = src.h_s
        rate = 0.0  # zero-variance reconstruction carries no information
    else:
        kl = 0.5 * math.log(s * s / vx) + (vx - s * s) / (2.0 * s * s)
        arg = 1.0 - src.rho**2 * t2
        hs = src.h_s + (0.5 * math.log(arg) if arg > 0.0 else -math.inf)
    return rate, mse, kl, hs


@lru_cache(maxsize=4)
def _gaussian_grid(
    vx: float, rho2: float, h_s: float, s_hi: float, ns: int, nt: int
) -> dict:
    """Objective and constraint arrays over the (s, t) lattice plus the
    per-point half-step feasibility slacks (analytic derivative bounds).

    The s = 0 row is special-cased: a zero-variance reconstruction is the
    same constant regardless of t, so its rate is 0 and its label entropy
    is the unconditional h(S), not the values the t-formulas suggest.
    """
    s = np.linspace(0.0, s_hi, ns)
    t = np.linspace(-1.0, 1.0, nt)
    ds = s[1] - s[0]
    dt = t[1] - t[0]
    sx = math.sqrt(vx)

    t2 = np.minimum(t * t, 1.0)
    with np.errstate(divide="ignore"):
        rate_t = -0.5 * np.log1p(-t2)
        arg = 1.0 - rho2 * t2
        hs_t = h_s + 0.5 * np.where(arg > 0.0, np.log(np.where(arg > 0, arg, 1.0)), -np.inf)
        kl_s = np.where(
            s > 0.0,
            0.5 * np.log(np.where(s > 0, s * s / vx, 1.0))
            + (vx - s * s) / np.where(s > 0, 2.0 * s * s, 1.0),
            np.inf,
        )
    mse = vx + (s * s)[:, None] - 2.0 * sx * np.outer(s, t)
    rate = np.tile(rate_t[None, :], (ns, 1))
    hs = np.tile(hs_t[None, :], (ns, 1))

    # half-step movement bounds for the screen: |d mse| <= ds|2s-2 sx t| + dt 2 sx s,
    # |d kl/ds| = |1/s - vx/s^3|, |d hs/dt| = rho^2 |t| / (1 - rho^2 t^2)
    slack_mse = 0.5 * (
        ds * np.abs(2.0 * s[:, None] - 2.0 * sx * t[None, :])
        + dt * 2.0 * sx * s[:, None]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        slack_kl = 0.5 * ds * np.where(s > 0.0, np.abs(1.0 / s - vx / s**3), np.inf)
        slack_hs_t = 0.5 * dt * np.where(arg > 0.0, rho2 * np.abs(t) / arg, np.inf)
    slack_hs = np.tile(slack_hs_t[None, :], (ns, 1))

    if s[0] == 0.0:
        rate[0, :] = 0.0
        hs[0, :] = h_s
        slack_hs[0, :] = 0.0

    return {
        "s": s, "t": t, "ds": float(ds), "dt": float(dt),
        "rate": rate, "mse": mse, "kl_s": kl_s, "hs": hs,
        "slack_mse": slack_mse, "slack_kl": slack_kl, "slack_hs": slack_hs,
    }


def gaussian_min_rate(
    src: GaussianPairSource,
    constraints: Mapping[str, float],
    sigma_steps: int = 801,
    theta_steps: int = 801,
    refine: bool = True,
    workers: int = 1,
) -> OracleResult:
    """Minimal rate over jointly Gaussian reconstructions.

    The search space is sigma_xh in [0, sigma_x (1 + max(3, 2 sqrt(D)))]
    (sqrt(var_x) standing in for sqrt(D) when no distortion bound is
    given) times normalized correlation in [-1, 1]; the covariance is
    their product scaled by sigma_x, which spans every admissible value.
    Restricting to jointly Gaussian reconstructions is an assumption the
    search cannot test, and results should be read under it.
    """
    if sigma_steps < 2 or theta_steps < 2:
        raise DomainError("need at least 2 grid steps per axis")
    cons = _normalize_constraints(constraints)
    vx = src.var_x
    sx = math.sqrt(vx)
    d_for_span = cons.get("D", vx)
    s_hi = sx * (1.0 + max(3.0, 2.0 * math.sqrt(d_for_span)))
    grid = _gaussian_grid(vx, src.rho**2, src.h_s, s_hi, sigma_steps, theta_steps)
    ns, nt = sigma_steps, theta_steps
    step = max(grid["ds"], grid["dt"])

    def cap(arr: np.ndarray, bound: float) -> np.ndarray:
        return np.minimum(arr, 0.5 * (1.0 + abs(bound)))

    tight = np.ones((ns, nt), dtype=bool)
    slackm = np.ones((ns, nt), dtype=bool)
    if "D" in cons:
        tight &= grid["mse"] <= cons["D"] + _TIGHT
        slackm &= grid["mse"] <= cons["D"] + cap(grid["slack_mse"], cons["D"]) + _TIGHT
    if "P" in cons:
        finite = np.isfinite(grid["kl_s"])
        tight &= finite[:, None] & (grid["kl_s"][:, None] <= cons["P"] + _TIGHT)
        widened = cons["P"] + cap(grid["slack_kl"], cons["P"]) + _TIGHT
        slackm &= finite[:, None] & (grid["kl_s"][:, None] <= widened[:, None])
    if "C" in cons:
        tight &= grid["hs"] <= cons["C"] + _TIGHT
        slackm &= grid["hs"] <= cons["C"] + cap(grid["slack_hs"], cons["C"]) + _TIGHT

    feasible_points = int(slackm.sum())
    if feasible_points == 0:
        return OracleResult(
            rate=math.nan, unit=Unit.NATS, argmin=None, grid_resolution=step,
            refined=False, feasible=False, feasible_points=0, constraints=cons,
        )

    best_tight = _chunked_masked_argmin(grid["rate"], tight, workers)
    best_slack = _chunked_masked_argmin(grid["rate"], slackm, workers)

    def stats_at(s: float, t: float) -> tuple[float, float, float, float]:
        return _gauss_point(src, s, t)

    candidates: list[tuple[float, float, float]] = []
    if best_tight is not None:
        candidates.append(
            (
                best_tight[0],
                float(grid["s"][best_tight[1]]),
                float(grid["t"][best_tight[2]]),
            )
        )
    elif not refine and best_slack is not None:
        candidates.append(
            (
                best_slack[0],
                float(grid["s"][best_slack[1]]),
                float(grid["t"][best_slack[2]]),
            )
        )

    refined = False
    if refine:
        fixed = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]

        def mse_tangent(x: tuple[float, float]) -> tuple[float, float] | None:
            s, t = x
            gs = 2.0 * s - 2.0 * sx * t
            gt = -2.0 * sx * s
            nrm = math.hypot(gs, gt)
            if nrm < 1e-14:
                return None
            return (-gt / nrm, gs / nrm)

        tangent = mse_tangent if "D" in cons else None

        starts = []
        for cand in (best_tight, best_slack):
            if cand is not None:
                pt = (float(grid["s"][cand[1]]), float(grid["t"][cand[2]]))
                if pt not in starts:
                    starts.append(pt)
        for pt in starts:
            out = _pattern_search(
                pt, stats_at, cons, ((0.0, s_hi), (-1.0, 1.0)),
                fixed, tangent, step,
            )
            if out is not None:
                candidates.append(out)
                refined = True

    if not candidates:
        return OracleResult(
            rate=math.nan, unit=Unit.NATS, argmin=None, grid_resolution=step,
            refined=refined, feasible=False, feasible_points=feasible_points,
            constraints=cons,
        )

    _, s_best, t_best = min(candidates, key=lambda c: (c[0], c[1], c[2]))
    argmin = GaussianReconstruction(src.mu_x, s_best**2, sx * s_best * t_best)
    rate = gaussian_recon_stats(src, argmin).mutual_info
    return OracleResult(
        rate=rate, unit=Unit.NATS, argmin=argmin, grid_resolution=step,
        refined=refined, feasible=True, feasible_points=feasible_points,
        constraints=cons,
    )


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
    h_x = binary_entropy(src.marginal_x1)
    h_x_given = min(max(h_x - stats.mutual_info, 0.0), 1.0)
    rhs = binary_entropy(
        binary_convolution(src.p1, binary_entropy_inv(h_x_given))
    )
    return MglCheck(
        lhs=stats.cond_entropy_s,
        rhs=rhs,
        holds=stats.cond_entropy_s >= rhs - 1e-10,
    )
