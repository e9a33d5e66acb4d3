"""Source models and their derived information quantities.

Three fixed families: a binary pair (source bit X with a hidden label S
reached through a binary symmetric channel), a jointly Gaussian pair, and
a two-component Gaussian mixture used by the restoration example. All are
immutable after construction and freely shareable across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import binary_entropy, gaussian_diff_entropy
from .errors import DegenerateSourceError, DomainError

_DEGENERATE_EPS = 1e-12

FloatOrArray = float | np.ndarray

@dataclass(frozen=True)
class BinaryPairSource:
    """X ~ Bern(marginal) observed through S = X xor Bern(p1), S ~ Bern(a).

    The admissible regime is ``0 <= p1 <= a <= 1/2`` with ``p1 < 1/2``
    strictly. ``a > 1/2`` is rejected rather than folded: the closed forms
    below assume the stated regime and silently folding the label marginal
    would change the meaning of the inputs.
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

    @property
    def marginal_x1(self) -> float:
        """Raw P(X=1) implied by (a, p1), before any folding."""
        return (self.a - self.p1) / (1.0 - 2.0 * self.p1)

    @property
    def b(self) -> float:
        """Folded source marginal min{P(X=1), 1-P(X=1)}, in [0, 1/2]."""
        raw = self.marginal_x1
        return min(raw, 1.0 - raw)


@dataclass(frozen=True)
class BinaryDerived:
    b: float
    h_a: float
    h_p1: float
    feasibility_floor_c: float


def binary_derived(src: BinaryPairSource) -> BinaryDerived:
    """Marginal and entropy summary of a binary pair source (bits).

    The feasibility floor is H(p1): by data processing no reconstruction
    can drive H(S|Xhat) below the label-channel noise entropy.
    """
    h_p1 = binary_entropy(src.p1)
    return BinaryDerived(
        b=src.b,
        h_a=binary_entropy(src.a),
        h_p1=h_p1,
        feasibility_floor_c=h_p1,
    )


@dataclass(frozen=True)
class GaussianPairSource:
    """Jointly Gaussian (X, S) with covariance ``cov`` between them.

    Every field must be finite. Variances are strict; |cov| up to the
    Cauchy-Schwarz bound is allowed, with the fully correlated case
    reported through a -inf feasibility floor rather than rejected.

    The correlation ``rho`` (clamped to [-1, 1]) and the label's
    differential entropy ``h_s`` (nats) are computed once, at
    construction, not on every access.
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
        r = self.cov / math.sqrt(self.var_s * self.var_x)
        object.__setattr__(self, "rho", max(-1.0, min(1.0, r)))
        object.__setattr__(self, "h_s", gaussian_diff_entropy(self.var_s))


@dataclass(frozen=True)
class GaussianDerived:
    rho: float
    h_s: float
    feasibility_floor_c: float


def gaussian_derived(src: GaussianPairSource) -> GaussianDerived:
    """Correlation, label entropy, and the classification feasibility floor.

    Floor = 0.5*ln(1-rho^2) + h(S) in nats; -inf when |rho| = 1 (the label
    is a deterministic function of the source, so any C is reachable).
    """
    rho = src.rho
    one_minus = 1.0 - rho * rho
    if one_minus <= 0.0:
        floor = -math.inf
    else:
        floor = 0.5 * math.log(one_minus) + src.h_s
    return GaussianDerived(rho=rho, h_s=src.h_s, feasibility_floor_c=floor)


@dataclass(frozen=True)
class GaussianMixture2:
    """Two-component Gaussian mixture w1*N(m1,v1) + w2*N(m2,v2).

    Every field must be finite and both variances positive.

    Each component's normalizer sqrt(2*pi*v), its log 0.5*log(2*pi*v) and
    the log weight (-inf for a zero weight) are computed once, at
    construction, not on every density call.
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
        # plain attributes, not fields: they stay out of eq, hash and repr
        two_pi_v = (2.0 * math.pi * self.v1, 2.0 * math.pi * self.v2)
        object.__setattr__(self, "_norm", tuple(math.sqrt(t) for t in two_pi_v))
        object.__setattr__(self, "_log_norm", tuple(0.5 * math.log(t) for t in two_pi_v))
        object.__setattr__(
            self, "_log_w",
            tuple(math.log(w) if w > 0.0 else -math.inf for w in (self.w1, self.w2)),
        )

    def _squares(self, x: FloatOrArray) -> tuple[FloatOrArray, FloatOrArray]:
        """(x - m1) ** 2 and (x - m2) ** 2; +inf where a square overflows."""
        with np.errstate(over="ignore"):
            return np.square(x - self.m1), np.square(x - self.m2)

    def density(self, x: FloatOrArray) -> FloatOrArray:
        """Mixture density at a float or elementwise on a numpy array. A
        component whose squared distance from x overflows contributes 0."""
        q1, q2 = self._squares(x)
        d1 = np.exp(-0.5 * q1 / self.v1) / self._norm[0]
        d2 = np.exp(-0.5 * q2 / self.v2) / self._norm[1]
        out = self.w1 * d1 + self.w2 * d2
        return out if isinstance(x, np.ndarray) else float(out)

    def log_density(self, x: FloatOrArray) -> FloatOrArray:
        """Log of ``density``, stable far into the tails where the plain
        density underflows to zero. A zero-weight component, or one whose
        squared distance from x overflows, is a -inf term; with both terms
        -inf the result is -inf."""
        q1, q2 = self._squares(x)
        (log_w1, log_w2), (log_n1, log_n2) = self._log_w, self._log_norm
        out = np.logaddexp(log_w1 - 0.5 * q1 / self.v1 - log_n1,
                           log_w2 - 0.5 * q2 / self.v2 - log_n2)
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
