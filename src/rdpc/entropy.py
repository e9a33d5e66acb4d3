"""Scalar information-theoretic primitives.

Conventions used throughout the package:

* Discrete (binary) quantities are measured in **bits**, differential
  quantities in **nats**. Functions here return plain floats; unit tags are
  attached by the result objects one level up.
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

_LN2 = math.log(2.0)
_TINY = 1e-300

# Subdivision budget for adaptive quadrature. Retries double the interval
# limit until it passes this cap, then give up loudly.
_QUAD_LIMIT_BUDGET = 1_000_000


def _xlog2x(x: float) -> float:
    if x < _TINY:
        return 0.0
    return x * math.log2(x)


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) variable, in bits."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability out of range: {p}")
    return -_xlog2x(p) - _xlog2x(1.0 - p)


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
    """KL divergence N(mean1, var1) || N(mean2, var2), in nats."""
    if var1 <= 0.0 or var2 <= 0.0:
        raise DomainError(f"variances must be positive: ({var1}, {var2})")
    return (
        0.5 * math.log(var2 / var1)
        + (mean1 - mean2) ** 2 / (2.0 * var2)
        + (var1 - var2) / (2.0 * var2)
    )


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _quad_with_budget(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    atol: float,
    points: Sequence[float] | None,
) -> float:
    """quad() with an escalating subdivision limit.

    scipy reports a nonzero ``ier`` when its interval store is exhausted;
    we retry with double the limit instead of silently accepting the
    flagged estimate.
    """
    # imported here: scipy.integrate is most of `import rdpc`, and only
    # numeric_kl integrates
    from scipy.integrate import quad

    limit = 50
    while limit <= _QUAD_LIMIT_BUDGET:
        pts = [p for p in (points or []) if lo < p < hi] or None
        value, abserr, *rest = quad(
            f, lo, hi, limit=limit, epsabs=atol, epsrel=0.0,
            points=pts, full_output=1,
        )
        ier_ok = len(rest) == 1  # full_output appends a message on failure
        if ier_ok and abserr <= max(atol, abs(value) * 1e-12):
            return value
        limit *= 4
    raise IntegrationError(
        f"quadrature did not reach atol={atol} within the subdivision budget"
    )


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
    integrating. The integration range is truncated to where p exceeds
    1e-300.

    Every density (and ``log_q``) must accept a numpy array as well as a
    float: the probe calls each once on the whole grid and raises
    ``DomainError`` unless it returns an array of the grid's shape.
    ``quad`` then calls them on floats, so it is their float arithmetic
    (``math``, not numpy, in the rdpc densities) that fixes the returned
    value, and with it the verify report bytes, to the last bit.

    ``points`` may list known non-smooth spots (e.g. mixture component
    means) to help the subdivision. When the densities span more dynamic
    range than float64 (a sharply concentrated q under a broad p makes
    the ratio overflow long before the divergence does), pass ``log_p``
    and ``log_q``; the log-ratio is then evaluated directly and only a
    true ``log_q = -inf`` counts as vanishing support.
    """
    lo, hi = support
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise DomainError(f"bad support interval: {support}")
    if (log_p is None) != (log_q is None):
        raise DomainError("log_p and log_q must be supplied together")

    grid = np.linspace(lo, hi, 4097)
    p_vals = _probe(density_p, grid, "density_p")
    q_vals = _probe(density_q, grid, "density_q")
    if np.any(p_vals < 0.0) or np.any(q_vals < 0.0):
        raise DomainError("densities must be nonnegative")
    live = p_vals >= _TINY
    if not np.any(live):
        return 0.0
    if log_q is not None:
        if np.any(_probe(log_q, grid, "log_q")[live] == -math.inf):
            raise DomainError("q vanishes where p does not; KL is undefined")
    elif np.any(q_vals[live] <= 0.0):
        raise DomainError("q vanishes where p does not; KL is undefined")

    for name, dens in (("p", density_p), ("q", density_q)):
        mass = _quad_with_budget(dens, lo, hi, 1e-9, points)
        if abs(mass - 1.0) > 1e-8:
            raise DomainError(f"density {name} integrates to {mass}, not 1")

    idx = np.nonzero(live)[0]
    step = float(grid[1] - grid[0])
    lo_eff = max(lo, float(grid[idx[0]]) - step)
    hi_eff = min(hi, float(grid[idx[-1]]) + step)

    if log_p is not None and log_q is not None:
        lp_fn, lq_fn = log_p, log_q

        def integrand(x: float) -> float:
            lp = lp_fn(x)
            p = math.exp(lp)
            if p < _TINY:
                return 0.0
            return p * (lp - lq_fn(x))

    else:

        def integrand(x: float) -> float:
            p = density_p(x)
            if p < _TINY:
                return 0.0
            q = max(density_q(x), 5e-324)
            return p * math.log(p / q)

    return _quad_with_budget(integrand, lo_eff, hi_eff, atol, points)
