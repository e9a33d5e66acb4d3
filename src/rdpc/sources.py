"""Source models and their derived information quantities.

Three fixed families: a binary pair (source bit X with a hidden label S
reached through a binary symmetric channel), a jointly Gaussian pair, and
a two-component Gaussian mixture used by the restoration example. All are
immutable after construction and freely shareable across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .entropy import _binary_point, _gaussian_kl, binary_entropy, gaussian_diff_entropy
from .errors import DegenerateSourceError, DomainError
from .results import BinaryChannel, ChannelStats, GaussianReconstruction, Unit

_DEGENERATE_EPS = 1e-12

FloatOrArray = float | np.ndarray

@dataclass(frozen=True)
class BinaryPairSource:
    """X ~ Bern(b) observed through S = X xor Bern(p1), S ~ Bern(a).

    The admissible regime is ``0 <= p1 <= a <= 1/2`` with ``p1 < 1/2``
    strictly. ``a > 1/2`` is rejected rather than folded: the closed forms
    below assume the stated regime and silently folding the label marginal
    would change the meaning of the inputs.

    The source marginal ``b`` = P(X=1) = (a - p1) / (1 - 2 p1) and the
    classification floor ``floor_c`` = H(p1) (bits) are computed once, at
    construction. The regime keeps b in [0, 1/2], in floats too (1 - 2 p1
    rounds to twice 1/2 - p1, so a = 1/2 gives exactly 1/2); by data
    processing no reconstruction drives H(S|Xhat) below the label-channel
    noise entropy.
    """

    a: float
    p1: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p1 <= 1.0 and 0.0 <= self.a <= 1.0):
            raise DomainError(f"probabilities out of range: {self}")
        if 1.0 - 2.0 * self.p1 < _DEGENERATE_EPS:
            raise DegenerateSourceError(
                "label channel crossover at or above 1/2: the label carries "
                "no usable information and the classification constraint "
                "degenerates"
            )
        if self.a > 0.5:
            raise DomainError(f"label probability a={self.a} must be <= 1/2")
        if self.a < self.p1:
            raise DomainError(
                f"need p1 <= a <= 1/2, got a={self.a}, p1={self.p1}"
            )
        # plain attributes, not fields: they stay out of eq, hash and repr
        object.__setattr__(self, "b", (self.a - self.p1) / (1.0 - 2.0 * self.p1))
        object.__setattr__(self, "floor_c", binary_entropy(self.p1))


@dataclass(frozen=True)
class GaussianPairSource:
    """Jointly Gaussian (X, S) with covariance ``cov`` between them.

    Every field must be finite. Variances are strict; |cov| up to the
    Cauchy-Schwarz bound is allowed, with the fully correlated case
    reported through a -inf feasibility floor rather than rejected.

    The correlation ``rho`` (clamped to [-1, 1]), the label's
    differential entropy ``h_s`` and the classification floor ``floor_c``
    = h(S) + 0.5 ln(1 - rho^2) (nats; -inf when |rho| = 1, where the label
    is a function of the source and any C is reachable) are computed once,
    at construction, not on every access.
    """

    mu_x: float
    mu_s: float
    var_x: float
    var_s: float
    cov: float

    def __post_init__(self) -> None:
        params = (self.mu_x, self.mu_s, self.var_x, self.var_s, self.cov)
        if not all(math.isfinite(v) for v in params):
            raise DomainError(f"source parameters must be finite: {self}")
        if self.var_x <= 0.0 or self.var_s <= 0.0:
            raise DomainError(f"variances must be positive: {self}")
        bound = math.sqrt(self.var_s * self.var_x)
        if abs(self.cov) > bound * (1.0 + 1e-12):
            raise DomainError(
                f"|cov|={abs(self.cov)} exceeds Cauchy-Schwarz bound {bound}"
            )
        # plain attributes, not fields: they stay out of eq, hash and repr
        rho = max(-1.0, min(1.0, self.cov / bound))
        h_s = gaussian_diff_entropy(self.var_s)
        one_minus = 1.0 - rho * rho
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "h_s", h_s)
        object.__setattr__(self, "floor_c", 0.5 * math.log(one_minus) + h_s
                           if one_minus > 0.0 else -math.inf)


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


def binary_channel_stats(src: BinaryPairSource, ch: BinaryChannel) -> ChannelStats:
    """Exact rate/distortion/perception/classification of one channel.

    All four quantities come from the explicit joint distribution of
    (S, X, Xhat); distortion is Hamming, perception is total variation
    between the X and Xhat marginals, everything entropic is in bits.
    """
    info, dist, tv, hs = _binary_point(src.b, src.p1, ch.p_a, ch.p_b)
    return ChannelStats(mutual_info=info, distortion=dist, perception=tv, cond_entropy_s=hs,
                        unit=Unit.BITS)


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


class _Component(NamedTuple):
    """One weighted Gaussian term of a mixture, with its normalizers.

    ``norm`` is sqrt(2 pi v), ``log_norm`` 0.5 log(2 pi v) and ``log_w``
    log w (-inf for w = 0), all taken once with ``math``: numpy's log can
    differ from it in the last bit, which would move the densities' last
    bits.
    """

    w: float
    m: float
    v: float
    norm: float
    log_norm: float
    log_w: float


def _component(w: float, m: float, v: float) -> _Component:
    two_pi_v = 2.0 * math.pi * v
    return _Component(w, m, v, math.sqrt(two_pi_v), 0.5 * math.log(two_pi_v),
                      math.log(w) if w > 0.0 else -math.inf)


def mixture_density(
    x: FloatOrArray, comps: tuple[_Component, _Component], *, log: bool = False
) -> FloatOrArray:
    """Density of the two-component mixture ``comps`` elementwise at x, or
    with ``log`` its log, which stays finite far into the tails where the
    density underflows to zero.

    A component whose squared distance from x overflows contributes 0 to
    the density and a -inf term to the log (so does a zero weight); with
    both terms -inf the log is -inf. This is the one formula behind
    ``GaussianMixture2.density`` and ``log_density``.
    """
    c1, c2 = comps
    with np.errstate(over="ignore"):
        q1, q2 = np.square(x - c1.m), np.square(x - c2.m)
    if log:
        return np.logaddexp(c1.log_w - 0.5 * q1 / c1.v - c1.log_norm,
                            c2.log_w - 0.5 * q2 / c2.v - c2.log_norm)
    d1 = np.exp(-0.5 * q1 / c1.v) / c1.norm
    d2 = np.exp(-0.5 * q2 / c2.v) / c2.norm
    return c1.w * d1 + c2.w * d2


@dataclass(frozen=True)
class GaussianMixture2:
    """Two-component Gaussian mixture w1*N(m1,v1) + w2*N(m2,v2).

    Every field must be finite and both variances positive.

    The components with their normalizers (``_component``) are built
    once, at construction, not on every density call.
    """

    w1: float
    w2: float
    m1: float
    m2: float
    v1: float
    v2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m1) and math.isfinite(self.m2)):
            raise DomainError(f"means must be finite: ({self.m1}, {self.m2})")
        if not (0.0 <= self.w1 <= 1.0 and 0.0 <= self.w2 <= 1.0):
            raise DomainError(f"weights out of range: ({self.w1}, {self.w2})")
        if abs(self.w1 + self.w2 - 1.0) > 1e-12:
            raise DomainError(f"weights must sum to 1: {self.w1 + self.w2}")
        if not (0.0 < self.v1 < math.inf and 0.0 < self.v2 < math.inf):
            raise DomainError(f"variances must be positive and finite: ({self.v1}, {self.v2})")
        # a plain attribute, not a field: it stays out of eq, hash and repr
        object.__setattr__(self, "_comps", (_component(self.w1, self.m1, self.v1),
                                            _component(self.w2, self.m2, self.v2)))

    def density(self, x: FloatOrArray) -> FloatOrArray:
        """Mixture density at a float or elementwise on a numpy array
        (``mixture_density``)."""
        out = mixture_density(x, self._comps)
        return out if isinstance(x, np.ndarray) else float(out)

    def log_density(self, x: FloatOrArray) -> FloatOrArray:
        """Log of ``density``, stable far into the tails where the plain
        density underflows to zero (``mixture_density`` with ``log``)."""
        out = mixture_density(x, self._comps, log=True)
        return out if isinstance(x, np.ndarray) else float(out)

    def second_moment(self) -> float:
        return self.w1 * (self.m1**2 + self.v1) + self.w2 * (self.m2**2 + self.v2)

    def widest_sd(self) -> float:
        return math.sqrt(max(self.v1, self.v2))

    def support_12sd(self) -> tuple[float, float]:
        """Interval covering both components out to 12 widest-component
        standard deviations; the quadrature default."""
        spread = 12.0 * self.widest_sd()
        return (min(self.m1, self.m2) - spread, max(self.m1, self.m2) + spread)

