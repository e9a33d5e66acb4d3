"""Information-theoretic primitives.

Conventions used throughout the package:

* Discrete (binary) quantities are measured in **bits**, differential
  quantities in **nats**. Public functions here return plain floats; unit
  tags are attached by the result objects one level up. The private
  ``_arr`` forms of the binary entropy and its inverse work elementwise on
  numpy arrays for the oracle grids and the verify suites.
* ``0 * log 0 == 0`` everywhere, implemented by guarding arguments below
  1e-300 rather than by special-casing exact zeros, so denormals do not
  produce spurious infinities.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, IntegrationError

_TINY = 1e-300

# Gauss-Kronrod G10/K21 pair (QUADPACK qk21; Piessens et al., 1983): the
# Kronrod abscissae on [0, 1] from the outermost in, their weights, and the
# 10-point Gauss weights of the odd-indexed abscissae, rounded to float64.
_K21_X = (
    0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
    0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
    0.2943928627014602, 0.14887433898163122, 0.0,
)
_K21_W = (
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
    0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
    0.14277593857706009, 0.14773910490133849, 0.1494455540029169,
)
_G10_W = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
          0.26926671930999635, 0.29552422471475287)
# the 21 nodes on [-1, 1] in ascending order, with both weight vectors
_NODES = np.array([-x for x in _K21_X[:-1]] + list(reversed(_K21_X)))
_WK = np.array(list(_K21_W[:-1]) + list(reversed(_K21_W)))
_WG = np.zeros(21)
_WG[1::2] = _G10_W + _G10_W[::-1]
_ROUNDING = 50.0 * float(np.finfo(float).eps)  # qk21's rounding floor, per |f|

# Intervals one integral may evaluate. It also bounds a round's arrays:
# 4096 intervals of 21 nodes are 0.7 MB of float64 each.
_MAX_INTERVALS = 4096


def _xlog2x(x: float) -> float:
    if x < _TINY:
        return 0.0
    return x * math.log2(x)


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) variable, in bits."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability out of range: {p}")
    return -_xlog2x(p) - _xlog2x(1.0 - p)


def _h2_bits_arr(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Binary entropy in bits, elementwise: -(x log2 x + (1-x) log2(1-x)).

    The formula of the scalar ``binary_entropy``, with its guard: a term
    whose argument is below 1e-300 is 0, so 0 log 0 = 0 without NaN or
    warnings. ``out``, if given, receives the result and must not be ``x``.
    """
    x = np.asarray(x, dtype=float)
    rest = 1.0 - x
    out = np.empty_like(rest) if out is None else out
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 * log2(0), zeroed below
        np.log2(rest, out=out)
        out *= rest
        np.copyto(out, 0.0, where=rest < _TINY)
        np.log2(x, out=rest)
        rest *= x
    np.copyto(rest, 0.0, where=x < _TINY)
    out += rest
    return np.negative(out, out=out)


@lru_cache(maxsize=256)
def binary_entropy_inv(h: float) -> float:
    """The unique p in [0, 1/2] with ``binary_entropy(p) == h``.

    Bisection on the increasing branch of ``binary_entropy(p) - h`` over
    [0, 1/2]: it returns the midpoint at which that difference is exactly
    0 or the half-width of the bracket falls below 1e-14, so the result is
    within 1e-14 of the root. Results are memoized (256 entries, least
    recently used first out); out-of-range and NaN ``h`` raise
    ``DomainError`` on every call.
    """
    if not 0.0 <= h <= 1.0:
        raise DomainError(f"binary entropy out of range: {h}")
    if h == 0.0:
        return 0.0
    if h == 1.0:
        return 0.5
    # optimize.bisect_root(lambda p: binary_entropy(p) - h, 0, 1/2,
    # xtol=1e-14) written out with the same float operations: f(0) is -h,
    # and mid stays above 2**-47, so the 0 log 0 guard never applies.
    lo, hi, flo = 0.0, 0.5, -h
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        rest = 1.0 - mid
        fmid = -(mid * math.log2(mid)) - rest * math.log2(rest) - h
        if fmid == 0.0 or (hi - lo) * 0.5 < 1e-14:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _binary_entropy_inv_arr(h) -> np.ndarray:
    """``binary_entropy_inv`` elementwise, by the same bisection in lockstep.

    Every element takes the scalar's midpoints and sign test and stops
    under its rule: at fmid == 0 it stays at that midpoint, and the
    half-width falls below 1e-14 at the same step for every element,
    because the bracket ends are dyadic and halve exactly. numpy's log2
    can differ from ``math.log2`` in the last bit, so a result may differ
    from the scalar one by the root's width at that precision, 1e-14 or
    less away from h = 1. Out-of-range and NaN ``h`` raise ``DomainError``.
    """
    h = np.asarray(h, dtype=float)
    bad = ~((h >= 0.0) & (h <= 1.0))
    if np.any(bad):
        raise DomainError(f"binary entropy out of range: {h[bad].flat[0]}")
    # mid stays strictly inside (0, 1/2), so both logs are finite
    lo, hi, flo = np.zeros_like(h), np.full_like(h, 0.5), -h
    for step in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 ** (step + 2) < 1e-14:  # (hi - lo) * 0.5 at this step
            break
        rest = 1.0 - mid
        fmid = -(mid * np.log2(mid)) - rest * np.log2(rest) - h
        up = flo * fmid < 0.0
        hi = np.where(up | (fmid == 0.0), mid, hi)
        lo = np.where(up, lo, mid)
        flo = np.where(up, flo, fmid)
    return np.where(h == 0.0, 0.0, np.where(h == 1.0, 0.5, mid))


def binary_convolution(p: float, q: float) -> float:
    """Crossover probability of two cascaded binary symmetric channels."""
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise DomainError(f"probabilities out of range: ({p}, {q})")
    return p * (1.0 - q) + q * (1.0 - p)


def discrete_entropy_bits(probs: Sequence[float]) -> float:
    """Shannon entropy of a small probability vector, in bits.

    Only used internally for the four-atom joint distribution that appears
    in the zero-divergence channel analysis; tolerates tiny negative
    entries from float cancellation.
    """
    total = 0.0
    for w in probs:
        if w < -1e-12:
            raise DomainError(f"negative probability: {w}")
        total -= _xlog2x(max(w, 0.0))
    return total


def gaussian_diff_entropy(variance: float) -> float:
    """Differential entropy of a Gaussian with the given variance, in nats."""
    if variance <= 0.0:
        raise DomainError(f"variance must be positive: {variance}")
    return 0.5 * math.log(2.0 * math.pi * math.e * variance)


def gaussian_kl(mean1: float, var1: float, mean2: float, var2: float) -> float:
    """KL divergence N(mean1, var1) || N(mean2, var2), in nats. A mean
    difference whose square overflows raises ``DomainError``."""
    if var1 <= 0.0 or var2 <= 0.0:
        raise DomainError(f"variances must be positive: ({var1}, {var2})")
    try:
        shift2 = (mean1 - mean2) ** 2
    except OverflowError:  # a Python float raises where numpy gives inf
        raise DomainError(f"(mean1 - mean2)^2 overflows: ({mean1}, {mean2})") from None
    return (
        0.5 * math.log(var2 / var1)
        + shift2 / (2.0 * var2)
        + (var1 - var2) / (2.0 * var2)
    )


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    atol: float,
    points: Sequence[float] | None,
) -> float:
    """Integral of ``f`` over [lo, hi] by adaptive G10/K21 quadrature.

    The initial intervals end at the ``points`` inside (lo, hi). Each
    round evaluates ``f`` once, on the 21 nodes of every pending interval,
    and estimates each interval's error as QUADPACK's qk21 does. An
    interval is accepted when that error is at most ``atol * width /
    (hi - lo)``, so the accepted errors sum to at most ``atol``, or at
    most the rounding floor ``50 * eps * integral of |f|``, which a tall,
    narrow peak cannot get below; every other interval is split in two.
    ``IntegrationError`` is raised when ``f`` is not finite at a node or
    when more than ``_MAX_INTERVALS`` intervals are needed.
    """
    edges = np.array([lo, *sorted(p for p in (points or ()) if lo < p < hi), hi])
    a, b = edges[:-1], edges[1:]
    total, used = 0.0, 0
    while a.size:
        used += a.size
        if used > _MAX_INTERVALS:
            raise IntegrationError(f"quadrature did not reach atol={atol} "
                                   f"within {_MAX_INTERVALS} intervals")
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        fx = f((mid[:, None] + half[:, None] * _NODES).ravel()).reshape(-1, 21)
        if not np.all(np.isfinite(fx)):
            raise IntegrationError("integrand is not finite on the integration range")
        resk = fx @ _WK
        resabs = np.abs(fx) @ _WK * half
        resasc = np.abs(fx - 0.5 * resk[:, None]) @ _WK * half
        err = np.abs((resk - fx @ _WG) * half)
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
        err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
        done = err <= np.maximum(atol * (b - a) / (hi - lo), _ROUNDING * resabs)
        total += float(np.sum(resk[done] * half[done]))
        a, b, mid = a[~done], b[~done], mid[~done]
        a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
    return total


def _probe(density: Callable, grid: np.ndarray, name: str) -> np.ndarray:
    """One array call of ``density`` on the probe grid, checked for shape."""
    try:
        vals = density(grid)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must accept a numpy array: {exc}") from exc
    if not isinstance(vals, np.ndarray) or vals.shape != grid.shape:
        raise DomainError(f"{name} must return an array shaped like its argument")
    return vals


def numeric_kl(
    density_p: Callable,
    density_q: Callable,
    support: tuple[float, float],
    *,
    atol: float = 1e-8,
    points: Sequence[float] | None = None,
    log_p: Callable | None = None,
    log_q: Callable | None = None,
) -> float:
    """KL divergence between two densities by adaptive quadrature, in nats.

    Both densities must integrate to 1 over ``support`` (checked to 1e-8),
    and ``density_q`` must be strictly positive wherever ``density_p`` is
    nonnegligible; that is probed on a fixed 4097-point grid before
    integrating, where a negative or NaN density raises ``DomainError``.
    The integration range is truncated to where p exceeds 1e-300.

    Every density and log density must accept a numpy array: the probe
    calls the densities and ``log_q`` once on the whole grid and raises
    ``DomainError`` unless each returns an array of the grid's shape. The
    integrals (the two masses and the divergence) are adaptive G10/K21
    quadrature, which calls its integrand once per round on the nodes of
    every pending interval; it raises ``IntegrationError`` when the
    integrand is not finite or the interval budget runs out.

    ``points`` may list known non-smooth spots (e.g. mixture component
    means); each integration range is split there first. When the
    densities span more dynamic range than float64 (a sharply
    concentrated q under a broad p makes the ratio overflow long before
    the divergence does), pass ``log_p`` and ``log_q``; the log-ratio is
    then evaluated directly and only a true ``log_q = -inf`` counts as
    vanishing support.
    """
    lo, hi = support
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise DomainError(f"bad support interval: {support}")
    if (log_p is None) != (log_q is None):
        raise DomainError("log_p and log_q must be supplied together")

    grid = np.linspace(lo, hi, 4097)
    p_vals = _probe(density_p, grid, "density_p")
    q_vals = _probe(density_q, grid, "density_q")
    if not (np.all(p_vals >= 0.0) and np.all(q_vals >= 0.0)):  # NaN fails too
        raise DomainError("densities must be nonnegative numbers")
    live = p_vals >= _TINY
    if not np.any(live):
        return 0.0
    if log_q is not None:
        if np.any(_probe(log_q, grid, "log_q")[live] == -math.inf):
            raise DomainError("q vanishes where p does not; KL is undefined")
    elif np.any(q_vals[live] <= 0.0):
        raise DomainError("q vanishes where p does not; KL is undefined")

    for name, dens in (("p", density_p), ("q", density_q)):
        mass = _integrate(dens, lo, hi, 1e-9, points)
        if abs(mass - 1.0) > 1e-8:
            raise DomainError(f"density {name} integrates to {mass}, not 1")

    idx = np.nonzero(live)[0]
    step = float(grid[1] - grid[0])
    lo_eff = max(lo, float(grid[idx[0]]) - step)
    hi_eff = min(hi, float(grid[idx[-1]]) + step)

    def integrand(x: np.ndarray) -> np.ndarray:
        # p counts as 0 below 1e-300; the errstate covers the 0 * inf and
        # log(0) discarded there, and an overflowing p / q, which
        # _integrate reports as a non-finite integrand
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if log_p is not None and log_q is not None:
                lp = log_p(x)
                p, log_ratio = np.exp(lp), lp - log_q(x)
            else:
                p = density_p(x)
                log_ratio = np.log(p / np.maximum(density_q(x), 5e-324))
            return np.where(p < _TINY, 0.0, p * log_ratio)

    return _integrate(integrand, lo_eff, hi_eff, atol, points)
