"""Small deterministic 1-D search routines.

A bracketing bisection for roots, a predicate bisection for the edge of a
monotone boolean test, and Brent's bounded minimizer for a unimodal
function, all with fixed caps on their iterations or evaluations so
callers get predictable runtimes. ``brent_min`` is a pure-Python port
of SciPy's bounded ``minimize_scalar``, so numpy stays the only runtime
dependency. All are safe to call from any number of threads.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import DomainError

_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
# the most midpoints either bisection tries
_MAX_HALVINGS = 200


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float = 1e-12,
) -> float:
    """Root of ``f`` on ``[lo, hi]`` by bisection.

    Requires a sign change (an endpoint value of exactly 0 is accepted).
    Bisection needs no derivative, which suits targets whose slope is
    unbounded at one end of the bracket, such as the conditional entropy
    along a zero-divergence line. The binary entropy near 0 is another:
    ``entropy.binary_entropy_inv`` gets this bisection's answer from a
    Newton estimate and a certificate, and bisects only where that fails.
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise DomainError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}"
        )
    for _ in range(_MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or (hi - lo) * 0.5 < xtol:
            return mid
        if flo < 0.0 < fmid or fmid < 0.0 < flo:  # flo * fmid can underflow to 0
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def bisect_predicate(
    pred: Callable[[float], bool],
    lo: float,
    hi: float,
    *,
    xtol: float = 1e-12,
) -> float:
    """Boundary of a monotone boolean predicate.

    ``pred(hi)`` must be True and ``pred(lo)`` False; returns a point where
    the predicate holds, within ``xtol`` of the switch. Used to trim
    feasible intervals whose edge is defined by a constraint rather than
    by a smooth function value. ``pred`` sees ``hi``, then ``lo`` (which
    is returned if it holds), then the midpoints, until the bracket is
    narrower than ``xtol`` or ``_MAX_HALVINGS`` midpoints have been tried.
    """
    lo, hi = float(lo), float(hi)
    if not pred(hi):
        raise DomainError("predicate must hold at the upper end of the bracket")
    if pred(lo):
        return lo
    for _ in range(_MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo < xtol:
            break
    return hi


def brent_min(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float = 1e-5,
    max_iter: int = 500,
) -> tuple[float, float]:
    """Minimize a unimodal ``f`` on ``[lo, hi]`` by Brent's method.

    Returns ``(argmin, value)``. Parabolic interpolation through the three
    best points so far, with a golden-section step whenever the parabola
    is not trusted (Brent 1973, ch. 5); ``f`` is never called at the ends.
    A port of SciPy's bounded ``minimize_scalar``: with ``xatol=xtol`` and
    ``maxiter=max_iter`` it calls ``f`` at the same points, in the same
    order and as often, and returns the same ``x`` and ``fun``. At most
    ``max_iter`` calls. A non-finite or empty bracket raises
    ``DomainError`` before any call.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"bracket ends must be finite: [{lo}, {hi}]")
    if hi < lo:
        raise DomainError(f"empty bracket [{lo}, {hi}]")
    a, b = lo, hi
    # x is the best point so far, w the second best, v the previous w
    x = w = v = a + _GOLDEN_MEAN * (b - a)
    fx = fw = fv = float(f(x))
    calls = 1
    step = e = 0.0  # the last step, and the one before it
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(x) + xtol / 3.0
    tol2 = 2.0 * tol1
    while abs(x - xm) > tol2 - 0.5 * (b - a):
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, step
            # take the parabola's vertex if it is inside the bracket and
            # moves less than half the step before last
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                parabolic = True
                step = p / q
                u = x + step
                if u - a < tol2 or b - u < tol2:
                    step = tol1 if xm >= x else -tol1
        if not parabolic:  # a golden-section step into the larger part
            e = a - x if x >= xm else b - x
            step = _GOLDEN_MEAN * e
        u = x + (-1.0 if step < 0.0 else 1.0) * max(abs(step), tol1)
        fu = float(f(u))
        calls += 1
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv = w, fw
            w, fw = x, fx
            x, fx = u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv = w, fw
                w, fw = u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + xtol / 3.0
        tol2 = 2.0 * tol1
        if calls >= max_iter:
            break
    return x, fx
