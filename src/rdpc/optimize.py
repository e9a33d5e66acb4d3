"""Small deterministic 1-D search routines.

Nothing here is clever: a bracketing bisection and a golden-section
minimizer, both with fixed iteration caps so callers get predictable
runtimes, and a predicate bisection. The predicate bisection and the
golden-section search also run on many brackets in lockstep
(``bisect_predicates``, ``golden_mins``), one batched evaluation per
step; their one-bracket calls are the scalar functions. All are safe to
call from any number of threads.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Root of ``f`` on ``[lo, hi]`` by bisection.

    Requires a sign change (an endpoint value of exactly 0 is accepted).
    Bisection is deliberately preferred over faster derivative-based
    methods: several of our targets (binary entropy near 0, the conditional
    entropy along a zero-divergence line) have unbounded slope at one end
    of the bracket.
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
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or (hi - lo) * 0.5 < xtol:
            return mid
        if flo < 0.0 < fmid or fmid < 0.0 < flo:  # flo * fmid can underflow to 0
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def bisect_predicates(
    pred: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: Sequence[float],
    hi: Sequence[float],
    *,
    xtol: float = 1e-12,
    max_iter: int = 200,
) -> np.ndarray:
    """``bisect_predicate`` on many brackets in lockstep.

    ``pred(x, idx)`` gets points ``x`` of the brackets ``idx`` and returns
    the predicate at each, so a step is one call for all brackets. Every
    bracket takes the midpoints and the stopping rule of its one-bracket
    search, which ends it at its own step; the search stops when all have
    ended. The first call checks all upper ends and then all lower ends;
    with no brackets there is no call.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    n = lo.size
    if not n:
        return hi
    idx = np.arange(n)
    ends = np.asarray(pred(np.concatenate((hi, lo)), np.concatenate((idx, idx))), dtype=bool)
    if not np.all(ends[:n]):
        raise DomainError("predicate must hold at the upper end of the bracket")
    at_lo = ends[n:]
    active = ~at_lo
    for _ in range(max_iter):
        i = np.flatnonzero(active)
        if not i.size:
            break
        mid = 0.5 * (lo[i] + hi[i])
        holds = np.asarray(pred(mid, i), dtype=bool)
        hi[i] = np.where(holds, mid, hi[i])
        lo[i] = np.where(holds, lo[i], mid)
        active[i] = ~(hi[i] - lo[i] < xtol)
    return np.where(at_lo, lo, hi)


def bisect_predicate(
    pred: Callable[[float], bool],
    lo: float,
    hi: float,
    *,
    xtol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Boundary of a monotone boolean predicate.

    ``pred(hi)`` must be True and ``pred(lo)`` False; returns a point where
    the predicate holds, within ``xtol`` of the switch. Used to trim
    feasible intervals whose edge is defined by a constraint rather than
    by a smooth function value. The one-bracket call of
    ``bisect_predicates``: ``pred`` sees ``hi``, then ``lo``, then the
    midpoints.
    """
    return float(bisect_predicates(
        lambda x, _: [pred(v) for v in x.tolist()], [lo], [hi], xtol=xtol, max_iter=max_iter
    )[0])


def golden_mins(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: Sequence[float],
    hi: Sequence[float],
    *,
    xtol: float = 1e-10,
    max_iter: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """``golden_min`` on many brackets in lockstep.

    ``f(x, idx)`` gets points ``x`` of the brackets ``idx`` and returns
    the values there, so a step is one call for all brackets: the two
    interior points first, then one new point per open bracket, then both
    ends. Every bracket takes the iterates of its one-bracket search, ends
    at its own step, and picks its argmin by the same rule. With no
    brackets there is no call.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    empty = np.flatnonzero(b < a)
    if empty.size:
        raise DomainError(f"empty bracket [{a[empty[0]]}, {b[empty[0]]}]")
    n = a.size
    if not n:
        return a, b
    idx = np.arange(n)
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f12 = np.asarray(f(np.concatenate((x1, x2)), np.concatenate((idx, idx))), dtype=float)
    f1, f2 = f12[:n], f12[n:]
    active = np.ones(n, dtype=bool)
    for _ in range(max_iter):
        active &= ~(b - a <= xtol)
        i = np.flatnonzero(active)
        if not i.size:
            break
        left = f1[i] <= f2[i]
        # left: the minimum is in [a, x2]; x1 moves to x2 and a new x1 is
        # taken. Right: the minimum is in [x1, b]; x2 moves to x1.
        l, r = i[left], i[~left]
        b[l], x2[l], f2[l] = x2[l], x1[l], f1[l]
        x1[l] = b[l] - _INV_GOLDEN * (b[l] - a[l])
        a[r], x1[r], f1[r] = x1[r], x2[r], f2[r]
        x2[r] = a[r] + _INV_GOLDEN * (b[r] - a[r])
        new = np.where(left, x1[i], x2[i])
        vals = np.asarray(f(new, i), dtype=float)
        f1[l], f2[r] = vals[left], vals[~left]
    fab = np.asarray(f(np.concatenate((a, b)), np.concatenate((idx, idx))), dtype=float)
    # include the endpoints: constrained minima often sit on the bracket edge
    best = [
        min(cands, key=lambda t: (t[0], t[1]))
        for cands in zip(zip(fab[:n].tolist(), a.tolist()), zip(f1.tolist(), x1.tolist()),
                         zip(f2.tolist(), x2.tolist()), zip(fab[n:].tolist(), b.tolist()))
    ]
    return np.array([x for _, x in best]), np.array([v for v, _ in best])


def golden_min(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float = 1e-10,
    max_iter: int = 200,
) -> tuple[float, float]:
    """Minimize a unimodal ``f`` on ``[lo, hi]`` by golden-section search.

    Returns ``(argmin, value)``. The interval shrinks by the inverse golden
    ratio each step, reusing one interior evaluation, so the cost is one
    call per iteration after the first two. The one-bracket call of
    ``golden_mins``.
    """
    x, v = golden_mins(
        lambda x, _: [f(t) for t in x.tolist()], [lo], [hi], xtol=xtol, max_iter=max_iter
    )
    return float(x[0]), float(v[0])
