"""Linear denoising of a noisy two-component Gaussian mixture.

The degradation is Y = X + N with N ~ N(0, sigma_n^2); the restoration
family is Xhat = a*Y for a scalar gain a. Three figures of merit are
tracked as functions of the gain:

* mean-squared error E[(X - aY)^2] (closed form),
* KL divergence between the clean and restored densities (quadrature),
* misclassification rate of a threshold classifier whose threshold is
  frozen at the clean-source Bayes plane.

Freezing the classifier is the whole point: if the threshold were
re-derived per gain, scaling by a > 0 would be invertible and the error
rate would be constant (that control is implemented too, as
``error_rate_reoptimized``). Only the fixed classifier exhibits a
tradeoff against MSE and KL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .entropy import numeric_kl, std_normal_cdf
from .errors import DomainError, NoCrossingError
from .optimize import bisect_predicate, bisect_root, golden_min
from .sources import GaussianMixture2

_METRICS = ("mse", "kl", "error_rate")


def _check_gain(a: float) -> None:
    if not math.isfinite(a):
        raise DomainError(f"gain must be finite: {a}")


@dataclass(frozen=True)
class RestorationModel:
    mixture: GaussianMixture2
    sigma_n: float
    threshold_c0: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma_n) and self.sigma_n >= 0.0):
            raise DomainError(f"noise level must be finite and nonnegative: {self.sigma_n}")
        if not math.isfinite(self.threshold_c0):
            raise DomainError(f"threshold must be finite: {self.threshold_c0}")


@dataclass(frozen=True)
class DenoiseCurvePoint:
    a: float
    mse: float
    kl: float
    error_rate: float


@dataclass(frozen=True)
class FrontierPoint:
    """One bound/value pair of a constrained frontier; ``feasible`` is
    False (value and gain NaN) when no gain meets the bound."""

    bound: float
    value: float
    gain: float
    feasible: bool


def bayes_threshold_clean(mixture: GaussianMixture2) -> float:
    """Decision threshold where the two weighted component densities cross.

    Closed form for equal variances, otherwise a bisection on the density
    difference over the segment between the means. Components with equal
    means have no threshold (domain error); unequal-variance pairs whose
    densities do not cross between the means raise ``NoCrossingError``.
    """
    m1, m2 = mixture.m1, mixture.m2
    if m1 == m2:
        raise DomainError("components share a mean; no threshold between them")
    if mixture.v1 == mixture.v2:
        return 0.5 * (m1 + m2) + mixture.v1 * math.log(mixture.w1 / mixture.w2) / (
            m2 - m1
        )

    def diff(x: float) -> float:
        d1 = mixture.w1 * math.exp(-0.5 * (x - m1) ** 2 / mixture.v1) / math.sqrt(
            2.0 * math.pi * mixture.v1
        )
        d2 = mixture.w2 * math.exp(-0.5 * (x - m2) ** 2 / mixture.v2) / math.sqrt(
            2.0 * math.pi * mixture.v2
        )
        return d1 - d2

    lo, hi = min(m1, m2), max(m1, m2)
    if diff(lo) * diff(hi) > 0.0:
        raise NoCrossingError("component densities do not cross between the means")
    return bisect_root(diff, lo, hi, xtol=1e-13)


def default_model(sigma_n: float = 1.0) -> RestorationModel:
    """The 0.7 N(-1,1) + 0.3 N(1,1) mixture with its clean Bayes threshold."""
    mixture = GaussianMixture2(w1=0.7, w2=0.3, m1=-1.0, m2=1.0, v1=1.0, v2=1.0)
    return RestorationModel(
        mixture=mixture, sigma_n=sigma_n,
        threshold_c0=bayes_threshold_clean(mixture),
    )


def scaled_mixture(model: RestorationModel, a: float) -> GaussianMixture2:
    """Law of the restored signal a*(X+N): component means scale by a,
    variances by a^2 after adding the noise."""
    _check_gain(a)
    if a == 0.0:
        raise DomainError("gain 0 collapses the restored law to a point mass")
    mix = model.mixture
    bump = model.sigma_n**2
    return GaussianMixture2(
        w1=mix.w1, w2=mix.w2, m1=a * mix.m1, m2=a * mix.m2,
        v1=a * a * (mix.v1 + bump), v2=a * a * (mix.v2 + bump),
    )


def mse_of_gain(model: RestorationModel, a: float) -> float:
    """E[(X - aY)^2] = (1-a)^2 E[X^2] + a^2 sigma_n^2 exactly."""
    _check_gain(a)
    return (1.0 - a) ** 2 * model.mixture.second_moment() + (a * model.sigma_n) ** 2


def error_rate_of_gain(
    model: RestorationModel, a: float, threshold: float | None = None
) -> float:
    """Misclassification rate of the frozen threshold rule applied to a*Y.

    The rule declares the component with the larger clean mean whenever
    the restored value exceeds the threshold; each term is a normal tail
    of the corresponding restored component law.
    """
    _check_gain(a)
    if a == 0.0:
        raise DomainError("classifier is undefined at gain 0")
    c0 = model.threshold_c0 if threshold is None else threshold
    mix = model.mixture
    if mix.m1 == mix.m2:
        raise DomainError("equal component means; classes are indistinguishable")
    if mix.m1 < mix.m2:
        w_lo, m_lo, v_lo = mix.w1, mix.m1, mix.v1
        w_hi, m_hi, v_hi = mix.w2, mix.m2, mix.v2
    else:
        w_lo, m_lo, v_lo = mix.w2, mix.m2, mix.v2
        w_hi, m_hi, v_hi = mix.w1, mix.m1, mix.v1
    bump = model.sigma_n**2
    scale = abs(a)
    z_hi = (c0 - a * m_hi) / (scale * math.sqrt(v_hi + bump))
    z_lo = (c0 - a * m_lo) / (scale * math.sqrt(v_lo + bump))
    return w_hi * std_normal_cdf(z_hi) + w_lo * std_normal_cdf(-z_lo)


def error_rate_reoptimized(model: RestorationModel, a: float) -> float:
    """Control curve: re-derive the Bayes threshold of a*Y per gain.

    For a > 0 scaling is invertible, so this is constant in a; its
    flatness is what certifies that the fixed-threshold curve's shape
    comes from the frozen classifier and not from the restoration itself.
    """
    if a <= 0.0:
        raise DomainError("the control is defined for positive gains only")
    restored = scaled_mixture(model, a)
    c_star = bayes_threshold_clean(restored)
    return error_rate_of_gain(model, a, threshold=c_star)


def kl_of_gain(model: RestorationModel, a: float) -> float:
    """KL(clean mixture || restored mixture) in nats, by quadrature."""
    if a == 0.0:
        raise DomainError("restored law at gain 0 is a point mass; KL diverges")
    clean = model.mixture
    restored = scaled_mixture(model, a)
    lo1, hi1 = clean.support_12sd()
    lo2, hi2 = restored.support_12sd()
    support = (min(lo1, lo2), max(hi1, hi2))
    marks = sorted({clean.m1, clean.m2, restored.m1, restored.m2})
    # log densities: a strongly contracting gain leaves the restored law
    # so narrow that its plain density underflows under the clean tails
    return numeric_kl(
        clean.density, restored.density, support, atol=1e-7, points=marks,
        log_p=clean.log_density, log_q=restored.log_density,
    )


def sweep(model: RestorationModel, a_grid: Sequence[float]) -> list[DenoiseCurvePoint]:
    """All three metrics on a grid of gains; zero gains are rejected."""
    gains = [float(a) for a in a_grid]
    if not gains:
        raise DomainError("empty gain grid")
    if any(abs(a) < 1e-12 for a in gains):
        raise DomainError("gain grid must exclude 0")
    return [
        DenoiseCurvePoint(
            a=a,
            mse=mse_of_gain(model, a),
            kl=kl_of_gain(model, a),
            error_rate=error_rate_of_gain(model, a),
        )
        for a in gains
    ]


def _metric_fn(model: RestorationModel, name: str) -> Callable[[float], float]:
    if name == "mse":
        return lambda a: mse_of_gain(model, a)
    if name == "kl":
        return lambda a: kl_of_gain(model, a)
    if name == "error_rate":
        return lambda a: error_rate_of_gain(model, a)
    raise DomainError(f"unknown metric {name!r}; expected one of {_METRICS}")


def frontier(
    model: RestorationModel,
    minimize: str,
    subject_to: str,
    bound_grid: Sequence[float],
    a_lo: float = 0.05,
    a_hi: float = 1.5,
    grid_points: int = 146,
) -> list[FrontierPoint]:
    """Constrained frontier: min over a of one metric per bound on another.

    For each bound the feasible gains are screened on a grid, the
    contiguous feasible run around the best grid point is trimmed to the
    exact constraint boundary by bisection, and a golden-section search
    finishes the job. Metrics are unimodal in the gain on the ranges of
    interest, which is what makes the interval-based refinement sound.
    """
    if minimize == subject_to:
        raise DomainError("objective and constraint metrics must differ")
    f_obj = _metric_fn(model, minimize)
    f_con = _metric_fn(model, subject_to)
    if a_lo <= 0.0 or a_hi <= a_lo:
        raise DomainError(f"bad gain range [{a_lo}, {a_hi}]")
    bounds = [float(b) for b in bound_grid]
    if bounds != sorted(bounds):
        raise DomainError("bound grid must be sorted ascending")

    grid = np.linspace(a_lo, a_hi, grid_points)
    con_vals = np.array([f_con(float(a)) for a in grid])
    obj_vals = np.array([f_obj(float(a)) for a in grid])

    out: list[FrontierPoint] = []
    for bound in bounds:
        ok = con_vals <= bound + 1e-12
        if not np.any(ok):
            out.append(FrontierPoint(bound, math.nan, math.nan, False))
            continue
        masked = np.where(ok, obj_vals, np.inf)
        idx = int(np.argmin(masked))
        run_lo = idx
        while run_lo > 0 and ok[run_lo - 1]:
            run_lo -= 1
        run_hi = idx
        while run_hi < len(grid) - 1 and ok[run_hi + 1]:
            run_hi += 1

        def feas(x: float) -> bool:
            return f_con(x) <= bound + 1e-12

        lo_edge = float(grid[run_lo])
        if run_lo > 0:
            lo_edge = bisect_predicate(feas, float(grid[run_lo - 1]), lo_edge, xtol=1e-10)
        hi_edge = float(grid[run_hi])
        if run_hi < len(grid) - 1:
            # mirror the bracket so the predicate is monotone increasing
            hi_edge = -bisect_predicate(
                lambda u: feas(-u), -float(grid[run_hi + 1]), -hi_edge, xtol=1e-10
            )
        gain, value = golden_min(f_obj, lo_edge, hi_edge, xtol=1e-8)
        out.append(FrontierPoint(bound, value, gain, True))
    return out


def monte_carlo_mse(
    model: RestorationModel, a: float, n: int, seed: int = 0
) -> tuple[float, float]:
    """Sample estimate of the restoration MSE and its standard error.

    Chunked so 10^7 samples stay inside a modest memory budget; fully
    determined by the seed. Each chunk is computed in two reused float
    buffers, in the same draw and operation order as the expression
    ``(x - a*(x + noise))**2`` with ``x = where(pick1, m1 + s1*z, m2 + s2*z)``
    and ``noise = sigma_n * normal``, so the result is that expression's.
    """
    if n <= 1:
        raise DomainError(f"need at least 2 samples: {n}")
    mix = model.mixture
    s1, s2 = math.sqrt(mix.v1), math.sqrt(mix.v2)
    rng = np.random.default_rng(seed)
    size = min(n, 1_000_000)
    buf_u, buf_x, buf_pick = np.empty(size), np.empty(size), np.empty(size, bool)
    total = 0.0
    total_sq = 0.0
    remaining = n
    while remaining > 0:
        m = min(remaining, size)
        u, x, pick1 = buf_u[:m], buf_x[:m], buf_pick[:m]
        np.less(rng.random(out=u), mix.w1, out=pick1)
        rng.standard_normal(out=x)
        np.multiply(x, s1, out=u)
        u += mix.m1
        x *= s2
        x += mix.m2
        np.copyto(x, u, where=pick1)
        rng.standard_normal(out=u)
        u *= model.sigma_n  # noise
        u += x
        u *= a
        np.subtract(x, u, out=u)
        u *= u  # err
        total += float(u.sum())
        total_sq += float(np.multiply(u, u, out=x).sum())
        remaining -= m
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)
