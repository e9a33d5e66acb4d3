"""Exact tradeoff rates for the four constrained programs, with witnesses.

Two source families (binary pair, jointly Gaussian pair) times two
constraint pairs: distortion+classification and perception+classification.
Each solver returns a :class:`~rdpc.results.TradeoffPoint` carrying the
minimal rate, the active-constraint region label, and an explicit
achievability witness that the oracle module can re-evaluate.

Units follow the package convention: bits for binary sources, nats for
Gaussian ones. Boundary comparisons use a 1e-12 slack so exact-boundary
inputs classify as feasible.

The private ``_rdc_*_rates`` kernels give the RDC rates alone over numpy
arrays of bounds, for callers that need thousands of them at once; the
scalar entry points stay plain Python: on Python 3.11 they take 2.1-2.8 us
per point, result objects included, where a kernel call on one-element
arrays takes 26 us (Gaussian) to 115 us (binary).

The scalar code is straight-line float code. A two-argument ``max(a, b)``
is written ``b if b > a else a`` and ``min(a, b)`` is ``b if b < a else
a``: the builtins' own comparisons, so the result is the same float, NaN
and -0.0 included, and the argument order matters. A clamp
``min(max(x, lo), hi)`` with lo <= hi is ``lo if lo > x else hi if hi < x
else x``: 50 ns against 300 ns for the builtin calls. Results are built
positionally, and each public entry point checks each argument once.
"""

from __future__ import annotations

import math

import numpy as np

from .entropy import (
    _binary_entropy_inv_arr,
    _binary_point,
    _h2_bits_arr,
    binary_entropy,
    binary_entropy_inv,
)
from .errors import DomainError
from .optimize import bisect_root
from .results import (
    BinaryChannel,
    GaussianReconstruction,
    Region,
    TradeoffPoint,
    Unit,
)
from .sources import _NORMAL_MIN, BinaryPairSource, GaussianPairSource

_TOL = 1e-12
# Each Region.X or Unit.X lookup costs 80-90 ns on Python 3.11 (14 ns on
# 3.13) against 6 ns for a module global, and a call makes 3-4 of them.
_BITS, _NATS = Unit.BITS, Unit.NATS
_DISTORTION, _CLASSIFICATION = Region.DISTORTION_LIMITED, Region.CLASSIFICATION_LIMITED
_ZERO_RATE, _INFEASIBLE = Region.ZERO_RATE, Region.INFEASIBLE


def _check_bounds(c: float, d: float = 0.0, p: float = 0.0) -> None:
    """Argument checks shared by every entry point: d, p >= 0, c not NaN."""
    if not d >= 0.0:
        raise DomainError(f"distortion bound must be nonnegative: {d}")
    if not p >= 0.0:
        raise DomainError(f"perception bound must be nonnegative: {p}")
    if math.isnan(c):
        raise DomainError("classification bound is NaN")


def _bound_arrays(d, c) -> tuple[np.ndarray, np.ndarray]:
    """``_check_bounds`` on arrays of distortion and classification bounds."""
    d, c = np.asarray(d, dtype=float), np.asarray(c, dtype=float)
    if not np.all(d >= 0.0):
        raise DomainError(f"distortion bound must be nonnegative: {d[~(d >= 0.0)].flat[0]}")
    if np.any(np.isnan(c)):
        raise DomainError("classification bound is NaN")
    return d, c


# ---------------------------------------------------------------------------
# binary pair source
# ---------------------------------------------------------------------------

def _c1(src: BinaryPairSource, c: float) -> float:
    """Distortion-equivalent level of a classification bound C (bits).

    Inverts the label entropy constraint into a crossover probability:
    c1 = (Hinv(C) - p1) / (1 - 2 p1), with C clamped to [0, 1] (a C
    inside the feasibility slack below a floor of 0 is negative), and c1
    clamped at 0 for C within rounding of the floor H(p1). Always <= 1/2.
    """
    c_eff = 0.0 if 0.0 > c else 1.0 if 1.0 < c else c
    raw = (binary_entropy_inv(c_eff) - src.p1) / (1.0 - 2.0 * src.p1)
    return 0.0 if 0.0 > raw else raw


def _backward_witness(src: BinaryPairSource, eps: float) -> BinaryChannel:
    """Channel realizing X = Xhat xor Bern(eps) with the correct X marginal.

    The reconstruction weight w = P(Xhat=0) = (1 - eps - b) / (1 - 2 eps)
    is solved from the marginal constraint; the forward conditionals are
    then read off the joint. Conditionals of X given Xhat come out
    complementary (eps, 1-eps), which is what makes the label-entropy
    bound tight. For 0 < eps <= b <= 1/2, w = 1 - (b - eps) / (1 - 2 eps)
    lies in [1/2, 1]; the quotient can round past 1 near b = 1/2 (to
    1 + 2.8e-8 at b = eps = 1/2 - 1e-9), and the clamp takes it back.
    """
    b1 = src.b
    if b1 < 1e-15:
        # degenerate source: X is constant, the constant channel is exact
        return BinaryChannel(1.0, 1.0)
    if eps <= 1e-15:
        return BinaryChannel(1.0, 0.0)
    if eps >= 0.5 - _TOL:
        return BinaryChannel(1.0, 1.0)
    w = (1.0 - eps - b1) / (1.0 - 2.0 * eps)
    w = 1.0 if 1.0 < w else w
    p_a = w * (1.0 - eps) / (1.0 - b1)
    p_b = w * eps / b1
    return BinaryChannel(0.0 if 0.0 > p_a else 1.0 if 1.0 < p_a else p_a,
                         0.0 if 0.0 > p_b else 1.0 if 1.0 < p_b else p_b)


def rdc_binary(src: BinaryPairSource, d: float, c: float) -> TradeoffPoint:
    """Minimal rate under Hamming distortion <= d and H(S|Xhat) <= c bits.

    Three branches: the classification bound dominates when its
    distortion-equivalent level c1 is the smaller requirement (ties at
    d == c1 are labelled classification-limited; the rates agree), the
    distortion bound dominates when d < c1, and the rate is zero once the
    looser of the two exceeds the source marginal b. Infeasible iff
    c < H(p1), the source's ``floor_c``.
    """
    _check_bounds(c, d)
    if c < src.floor_c - _TOL:
        return TradeoffPoint(math.nan, _BITS, _INFEASIBLE, c, d)
    b = src.b
    c1 = _c1(src, c)
    if c1 <= b + _TOL and d >= c1 - _TOL:
        region, eps = _CLASSIFICATION, b if b < c1 else c1
    elif d <= b + _TOL and d < c1:
        region, eps = _DISTORTION, b if b < d else d
    else:
        return TradeoffPoint(0.0, _BITS, _ZERO_RATE, c, d, None, BinaryChannel(1.0, 1.0))
    rate = src.h_b - binary_entropy(eps)
    return TradeoffPoint(rate if rate > 0.0 else 0.0, _BITS, region, c, d, None,
                         _backward_witness(src, eps))


def _rdc_binary_rates(src: BinaryPairSource, d, c) -> np.ndarray:
    """``rdc_binary(src, d, c).rate`` over d and c broadcast together.

    The branches of ``rdc_binary`` with the same slack; an infeasible
    entry is NaN. c1 comes from the array entropy inverse, so an entry can
    differ from the scalar rate in its last bits.
    """
    d, c = _bound_arrays(d, c)
    b, p1 = src.b, src.p1
    raw = (_binary_entropy_inv_arr(np.clip(c, 0.0, 1.0)) - p1) / (1.0 - 2.0 * p1)
    c1 = np.maximum(raw, 0.0)
    by_c = (c1 <= b + _TOL) & (d >= c1 - _TOL)
    by_d = ~by_c & (d <= b + _TOL) & (d < c1)
    eps = np.where(by_c, np.minimum(c1, b), np.minimum(d, b))
    rate = np.where(by_c | by_d, np.maximum(0.0, src.h_b - _h2_bits_arr(eps)), 0.0)
    return np.where(c >= src.floor_c - _TOL, rate, np.nan)


def _line_entropy(src: BinaryPairSource, p_a: float) -> float:
    """Label conditional entropy H(S|Xhat) along the zero-divergence line.

    On the line the reconstruction marginal matches the source, forcing
    p_b = (1-b)(1-p_a)/b, clamped to [0, 1]. The value is the H(S|Xhat)
    of ``entropy._binary_point`` at that channel, the formula the oracle's
    channel statistics use; it decreases from H(a) at p_a = 1-b down to
    H(p1) at p_a = 1. Unchecked: ``_zero_tv`` calls it only with b >= 1e-15
    and p_a in [1-b, 1], where p_b lies in [0, 1-b].
    """
    b = src.b
    p_b = (1.0 - b) * (1.0 - p_a) / b
    return _binary_point(b, src.p1, p_a, 0.0 if 0.0 > p_b else 1.0 if 1.0 < p_b else p_b)[3]


def _zero_tv(src: BinaryPairSource, c: float) -> BinaryChannel:
    """The zero-TV channel with H(S|Xhat) = c, at the c < H(a) - 1e-12
    that ``rpc_binary`` passes: H(S|Xhat) falls along the zero-divergence
    line from H(a) at p_a = 1-b to H(p1) at p_a = 1, and bisection on p_a
    finds where it crosses c."""
    b = src.b
    if b < 1e-15:
        return BinaryChannel(1.0, 1.0)
    if c <= src.floor_c + _TOL:
        return BinaryChannel(1.0, 0.0)
    p_a = bisect_root(lambda x: _line_entropy(src, x) - c, 1.0 - b, 1.0, xtol=1e-13)
    p_b = (1.0 - b) * (1.0 - p_a) / b
    return BinaryChannel(p_a, 0.0 if 0.0 > p_b else 1.0 if 1.0 < p_b else p_b)


def rpc_binary(src: BinaryPairSource, p: float, c: float) -> TradeoffPoint:
    """Rate under TV(p_X, p_Xhat) <= p and H(S|Xhat) <= c bits.

    The returned rate does not depend on p: it is the classification-limited
    rate H(b) - H(c1) of ``rdc_binary``, zero for c >= H(a), infeasible for
    c < H(p1). That is the minimum only for p >= TV*(c), the total variation
    of the backward channel that attains it. Below TV*(c) the perception
    bound binds and the value returned is below the true minimum: at a=0.3,
    p1=0.1, c=0.6 it is 0.493322 for every p, where the oracle gives 0.498469
    at p = 0 and meets it from TV*(0.6) = 0.0326 up. The witness has zero TV
    for every p, so it is also the P = 0 witness: X's marginal (1-b, 1-b) at
    c >= H(a), else where the zero-divergence line crosses H(S|Xhat) = c
    (``_zero_tv``). Its mutual information can exceed the rate returned.
    """
    _check_bounds(c, 0.0, p)
    if c < src.floor_c - _TOL:
        return TradeoffPoint(math.nan, _BITS, _INFEASIBLE, c, None, p)
    if c >= src.h_a - _TOL:
        b = src.b
        return TradeoffPoint(0.0, _BITS, _ZERO_RATE, c, None, p, BinaryChannel(1.0 - b, 1.0 - b))
    rate = src.h_b - binary_entropy(_c1(src, c))
    return TradeoffPoint(rate if rate > 0.0 else 0.0, _BITS, _CLASSIFICATION, c, None, p,
                         _zero_tv(src, c))


# ---------------------------------------------------------------------------
# Gaussian pair source
# ---------------------------------------------------------------------------

def _gaussian_k(src: GaussianPairSource, c: float) -> float:
    """Correlation budget implied by a classification bound c (nats).

    k = (1 - e^{2(c - h(S))}) / rho^2 is the squared source-reconstruction
    correlation needed to push H(S|Xhat) down to c; clamped to 1 at the
    feasibility floor. It is -inf where the bound is vacuous (c >= h(S); the
    formula gives k <= 0 there, which every use of k treats alike, and
    overflows past h(S) + 354.9) and +inf where it is unmeetable (rho^2 = 0).
    """
    if c >= src.h_s:
        return -math.inf
    rho2 = src.rho**2
    if rho2 == 0.0:
        return math.inf
    k = (1.0 - math.exp(2.0 * (c - src.h_s))) / rho2
    return 1.0 if 1.0 < k else k


def _rdc_gaussian_core(
    src: GaussianPairSource, d: float, c: float
) -> tuple[float, Region, float]:
    """Returns (rate, region, v), where the witness is (mu_x, v, v), a
    variance equal to the covariance; NaN, INFEASIBLE and NaN below the
    source's ``floor_c``. The callers check the bounds."""
    if c < src.floor_c - _TOL:
        return math.nan, _INFEASIBLE, math.nan
    vx = src.var_x
    # at c >= h(S) the classification constraint is vacuous: k = 0, and
    # above d* = var_x the constant reconstruction costs nothing
    vacuous = c >= src.h_s - _TOL
    k = 0.0 if vacuous else _gaussian_k(src, c)
    if d <= vx * (1.0 - k + _TOL):
        rate = math.inf if d == 0.0 else 0.5 * math.log(vx / d)
        v = vx - d
        return rate if rate > 0.0 else 0.0, _DISTORTION, 0.0 if 0.0 > v else v
    if vacuous:
        return 0.0, _ZERO_RATE, 0.0
    one_minus_k = 1.0 - k
    rate = math.inf if one_minus_k <= 0.0 else -0.5 * math.log(one_minus_k)
    return rate, _CLASSIFICATION, vx * k


def _rdc_gaussian_rates(src: GaussianPairSource, d, c) -> np.ndarray:
    """``rdc_gaussian(src, d, c).rate`` over d and c broadcast together.

    The branches of ``_rdc_gaussian_core`` with the same slack; an
    infeasible entry is NaN and d = 0 keeps the +inf sentinel. k uses
    ``math.exp`` per element: numpy's exp can differ from it in the last
    bit, and at the feasibility floor that bit decides between k = 1 (an
    infinite rate) and a finite one.
    """
    d, c = _bound_arrays(d, c)
    vx = src.var_x
    vacuous = c >= src.h_s - _TOL
    # rho = 0 divides by zero (vacuous entries only), |c| near the float
    # limit overflows 2 (c - h), and a d of 0 or a subnormal d gives vx / d = inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # clipped at 0, which only vacuous entries reach, so math.exp cannot overflow
        arg = np.minimum(2.0 * (c - src.h_s), 0.0)
        shrink = np.fromiter(map(math.exp, arg.ravel().tolist()), float, arg.size)
        k = np.minimum((1.0 - shrink.reshape(arg.shape)) / src.rho**2, 1.0)
        k = np.where(vacuous, 0.0, k)
        by_d = d <= vx * (1.0 - k + _TOL)
        rate = np.where(
            by_d, np.maximum(0.0, 0.5 * np.log(vx / d)),
            np.where(vacuous, 0.0, -0.5 * np.log(1.0 - k)),
        )
    return np.where(c >= src.floor_c - _TOL, rate, np.nan)


def rdc_gaussian(src: GaussianPairSource, d: float, c: float) -> TradeoffPoint:
    """Minimal rate under MSE <= d and H(S|Xhat) <= c nats.

    The crossover distortion d* = var_x (1 - k) splits the surface: below
    it the program is plain rate-distortion (rate 0.5 ln(var_x/d), +inf
    sentinel at d = 0), above it the classification bound pins the rate at
    -0.5 ln(1 - k) independent of d. Zero rate once both constraints are
    slack at the constant reconstruction. Infeasible below the floor
    0.5 ln(1 - rho^2) + h(S), the source's ``floor_c``.
    """
    _check_bounds(c, d)
    rate, region, v = _rdc_gaussian_core(src, d, c)
    wit = None if region is _INFEASIBLE else GaussianReconstruction(src.mu_x, v, v)
    return TradeoffPoint(rate, _NATS, region, c, d, None, wit)


def _tilt(src: GaussianPairSource, c: float) -> GaussianReconstruction:
    """Distribution-matching reconstruction attaining the Gaussian rate at
    a c its caller has checked.

    Keeps the source law exactly (mu_xh = mu_x, var_xh = var_x, so KL = 0)
    and tilts only the covariance; at the feasibility floor the covariance
    saturates Cauchy-Schwarz and the rate diverges.
    """
    vx = src.var_x
    if src.cov == 0.0 or c >= src.h_s:
        return GaussianReconstruction(src.mu_x, vx, 0.0)
    inner = 1.0 - math.exp(2.0 * (c - src.h_s))
    inner = inner if inner > 0.0 else 0.0
    try:
        product = src.var_s * vx**3 * inner
    except OverflowError:  # vx**3 of a Python float raises
        product = math.inf
    # theta2 = sqrt(var_s vx^3 inner) / |cov| = vx sqrt(inner) / |rho|; the
    # second form where the product underflows or overflows
    theta2 = (math.sqrt(product) / abs(src.cov) if _NORMAL_MIN <= product < math.inf
              else vx * math.sqrt(inner) / abs(src.rho))
    return GaussianReconstruction(src.mu_x, vx, vx if vx < theta2 else theta2)


def rpc_gaussian(src: GaussianPairSource, p: float, c: float) -> TradeoffPoint:
    """Minimal rate under KL(p_X || p_Xhat) <= p and H(S|Xhat) <= c nats.

    The answer ignores p: matching the source distribution costs nothing
    in rate here, so the rate and region are those of ``rdc_gaussian``
    with no distortion bound, and the witness keeps the source law (KL = 0).
    Zero rate for c >= h(S); infeasible below the floor.
    """
    _check_bounds(c, 0.0, p)
    rate, region, _ = _rdc_gaussian_core(src, math.inf, c)
    if region is _INFEASIBLE:
        wit = None
    elif region is _ZERO_RATE:
        wit = GaussianReconstruction(src.mu_x, src.var_x, 0.0)
    else:
        wit = _tilt(src, c)
    return TradeoffPoint(rate, _NATS, region, c, None, p, wit)
