"""Linear denoising of a noisy two-component Gaussian mixture.

The degradation is Y = X + N with N ~ N(0, sigma_n^2); the restoration
family is Xhat = a*Y for a scalar gain a. Three figures of merit are
tracked as functions of the gain:

* mean-squared error E[(X - aY)^2] (closed form),
* KL divergence between the clean and restored densities (closed form
  but for one Gaussian expectation of softplus),
* misclassification rate of a threshold classifier whose threshold is
  frozen at the clean-source Bayes plane.

Freezing the classifier is the whole point: if the threshold were
re-derived per gain, scaling by a > 0 would be invertible and the error
rate would be constant (that control is implemented too, as
``error_rate_reoptimized``). Only the fixed classifier exhibits a
tradeoff against MSE and KL.

A constrained frontier (``frontier``) minimizes one metric under bounds
on another: a grid screen, one Brent search for the objective's
minimizer, and per bound a clip of it to the bound's feasible run, the
run's end that a* lies beyond (if any) trimmed to the constraint boundary.
The objective must be unimodal in the gain on the searched range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .entropy import _mean_softplus, _mean_softplus_quadratic, _std_normal_cdf
from .errors import DomainError, NoCrossingError
from .optimize import bisect_predicate, brent_min
from .sources import GaussianMixture2

_METRICS = ("mse", "kl", "error_rate")
# the u^2 coefficient past which ``_mean_log_mixture`` takes the vertex form
_STEEP = 1e10


def _check_gain(a: float) -> None:
    if not math.isfinite(a):
        raise DomainError(f"gain must be finite: {a}")


@dataclass(frozen=True)
class RestorationModel:
    mixture: GaussianMixture2
    sigma_n: float
    threshold_c0: float

    def __post_init__(self) -> None:
        # the metrics take sigma_n**2, which raises OverflowError past 1.34e154
        if not (math.isfinite(self.sigma_n * self.sigma_n) and self.sigma_n >= 0.0):
            raise DomainError(
                f"noise level must be finite and nonnegative with a finite square: {self.sigma_n}")
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

    Equal variances v: (m1 + m2) / 2 + v (log w1 - log w2) / (m2 - m1). Else,
    with b the narrower component, x = m_a + t g and g = m_b - m_a, the log
    densities meet where A t^2 - 2 t + c = 0: A = 1 - v_b / v_a and
    c = 1 - 2 (v_b / g^2) (log(w_b / w_a) + log(v_a / v_b) / 2). Its vertex
    1 / A lies beyond m_b, so t = c / (1 + sqrt(1 - A c)), a form in which
    nothing cancels, is the only crossing between the means. Equal means or
    a zero weight raise ``DomainError``, no crossing ``NoCrossingError``.
    """
    w1, w2, m1, m2, v1, v2 = mixture.w1, mixture.w2, mixture.m1, mixture.m2, mixture.v1, mixture.v2
    if m1 == m2:
        raise DomainError("components share a mean; no threshold between them")
    if w1 == 0.0 or w2 == 0.0:
        raise DomainError("a component has zero weight; no threshold between them")
    if v1 == v2:
        return 0.5 * (m1 + m2) + v1 * (math.log(w1) - math.log(w2)) / (m2 - m1)
    (w_a, m_a, v_a), (w_b, m_b, v_b) = sorted(((w1, m1, v1), (w2, m2, v2)), key=lambda c: -c[2])
    g = m_b - m_a
    sd_b = math.sqrt(v_b)
    ratio = sd_b / abs(g)
    # a log of the deviations' ratio, which neither cancels at extreme scales nor overflows
    L = math.log(w_b) - math.log(w_a) - math.log(sd_b / math.sqrt(v_a))
    c = 1.0 - 2.0 * (ratio * (ratio * L))  # 0, not NaN, where ratio^2 overflows and L = 0
    disc = 1.0 - (1.0 - v_b / v_a) * c
    t = c / (1.0 + math.sqrt(disc)) if disc >= 0.0 else math.nan
    if not 0.0 <= t <= 1.0:
        raise NoCrossingError("component densities do not cross between the means")
    return m_a + t * g if math.isfinite(g) else (1.0 - t) * m_a + t * m_b


def default_model(sigma_n: float = 1.0) -> RestorationModel:
    """The 0.7 N(-1,1) + 0.3 N(1,1) mixture with its clean Bayes threshold."""
    mixture = GaussianMixture2(w1=0.7, w2=0.3, m1=-1.0, m2=1.0, v1=1.0, v2=1.0)
    return RestorationModel(
        mixture=mixture, sigma_n=sigma_n,
        threshold_c0=bayes_threshold_clean(mixture),
    )


def _scaled_mixture(model: RestorationModel, a: float) -> GaussianMixture2:
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
    """E[(X - aY)^2] = (1-a)^2 E[X^2] + a^2 sigma_n^2 exactly; inf where a
    square overflows."""
    _check_gain(a)
    try:
        return (1.0 - a) ** 2 * model.mixture.second_moment() + (a * model.sigma_n) ** 2
    except OverflowError:
        return math.inf


def error_rate_of_gain(
    model: RestorationModel, a: float, threshold: float | None = None
) -> float:
    """Misclassification rate of the frozen threshold rule applied to a*Y.

    The rule declares the component with the larger clean mean whenever
    the restored value exceeds the threshold; each term is a normal tail
    of the corresponding restored component law. A non-finite threshold
    raises ``DomainError``, as it does in ``RestorationModel``.
    """
    _check_gain(a)
    if a == 0.0:
        raise DomainError("classifier is undefined at gain 0")
    c0 = model.threshold_c0 if threshold is None else threshold
    if not math.isfinite(c0):
        raise DomainError(f"threshold must be finite: {c0}")
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
    z_hi = _standardized(c0 - a * m_hi, scale, math.sqrt(v_hi + bump))
    z_lo = _standardized(c0 - a * m_lo, scale, math.sqrt(v_lo + bump))
    return w_hi * _std_normal_cdf(z_hi) + w_lo * _std_normal_cdf(-z_lo)


def _standardized(x: float, scale: float, sd: float) -> float:
    """x / (scale sd), one factor at a time where the product underflows to 0."""
    den = scale * sd
    return x / den if den > 0.0 else x / scale / sd


def error_rate_reoptimized(model: RestorationModel, a: float) -> float:
    """Control curve: re-derive the Bayes threshold of a*Y per gain.

    For a > 0 scaling is invertible, so this is constant in a; its
    flatness is what certifies that the fixed-threshold curve's shape
    comes from the frozen classifier and not from the restoration itself.
    """
    if a <= 0.0:
        raise DomainError("the control is defined for positive gains only")
    restored = _scaled_mixture(model, a)
    c_star = bayes_threshold_clean(restored)
    return error_rate_of_gain(model, a, threshold=c_star)


def _mean_log_mixture(
    w: tuple, mu: tuple, var: float | np.ndarray | tuple, m: np.ndarray, v: float | np.ndarray
) -> np.ndarray:
    """E log(w[0] N(mu[0], var[0]) + w[1] N(mu[1], var[1]))(x) for x ~ N(m, v),
    elementwise over the broadcast of ``mu``, ``var``, ``m`` and ``v``;
    w[0] > 0. ``var`` is one variance shared by both terms, or a pair with
    var[0] >= var[1] unless w[1] = 0.

    The log density is l(x) + softplus(r(x)), l the log of the first term
    and r the log of the second over the first: E l is closed form. With
    one variance r is alpha (x - (mu[0] + mu[1]) / 2) + log(w[1] / w[0]),
    alpha = (mu[1] - mu[0]) / var, whose argument is Gaussian
    (``_mean_softplus``). With a pair, r(m + sqrt(v) u) is a quadratic in
    u that opens downward (``_mean_softplus_quadratic``). With w[1] = 0
    only l is left.

    A steep quadratic, r = r0 - A (u - u0)^2 with A > ``_STEEP``, is a
    narrow window about its vertex u0, where the expanded coefficients
    cancel by about 1e-16 A u0^2. Its mean is taken in that vertex form:
    as phi(u0 + t) = e^(-u0^2 / 2) phi(t) e^(-u0 t),
    whose odd part drops out, it is e^(-u0^2 / 2) times the mean of
    softplus(r0 - A t^2), cosh(u0 t) taken as 1, which errs by
    u0^2 (r0 + 40) / (2 A) where r > -40. Both rules are within 1e-10 of
    mpmath at A = 1e10 (r0 up to 350, u0 from 0.2 to 3).
    """
    (w_b, w_o), (mu_b, mu_o) = w, mu
    pair = isinstance(var, tuple)
    var_b, var_o = var if pair else (var, var)
    out = math.log(w_b) - 0.5 * np.log(2.0 * math.pi * var_b)
    # a subnormal var_b (a restored law at a gain below about 1e-154)
    # overflows this term: E l is -inf and the KL +inf
    with np.errstate(over="ignore"):
        out = out - ((m - mu_b) ** 2 + v) / (2.0 * var_b)
    if w_o == 0.0:
        return out
    if not pair:
        alpha = (mu_o - mu_b) / var
        z_mean = alpha * (m - 0.5 * (mu_b + mu_o)) + math.log(w_o / w_b)
        return out + _mean_softplus(*np.broadcast_arrays(z_mean, np.abs(alpha) * math.sqrt(v)))
    # where E l is -inf so is the mean: unit variances keep the rest finite
    var_b, var_o = (np.where(np.isneginf(out), 1.0, var) for var in (var_b, var_o))
    d_b, d_o = m - mu_b, m - mu_o
    # a subnormal var_o overflows 1 / var_o: the quadratic is steep
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        quad = 0.5 * v * (1.0 / var_b - 1.0 / var_o)
        lin = np.sqrt(v) * (d_b / var_b - d_o / var_o)
        log_ratios = math.log(w_o / w_b) + 0.5 * (np.log(var_b) - np.log(var_o))
        const = log_ratios + d_b * d_b / (2.0 * var_b) - d_o * d_o / (2.0 * var_o)
        gap = var_b - var_o
        r0 = log_ratios + (mu_o - mu_b) ** 2 / (2.0 * gap)
        tilt = np.exp(-0.5 * ((var_o * (mu_o - mu_b) / gap - d_o) ** 2 / v))
    steep = quad < -_STEEP
    mean = _mean_softplus_quadratic(*np.broadcast_arrays(
        np.where(steep, np.maximum(quad, -1e300), quad), np.where(steep, 0.0, lin),
        np.where(steep, r0, const)))
    return out + np.where(steep, tilt * mean, mean)


def kl_of_gains(model: RestorationModel, gains: Sequence[float]) -> np.ndarray:
    """KL(clean mixture || restored mixture) in nats at each gain.

    KL is sum_i w_i (E log p - E log q) over x ~ N(m_i, v_i), each
    expectation a ``_mean_log_mixture``. With equal clean variances (so
    equal restored ones) it is expanded about the heavier component, and
    otherwise about the wider one, so that the log ratio of the other to
    it opens downward; a zero weight leaves the other component alone.
    A gain's value is worked elementwise, so it does not depend on the
    other gains.

    Every gain is checked before any work: a zero, NaN or infinite gain
    anywhere raises ``DomainError``, as does one whose restored variance
    or means leave the float range or, as in ``gaussian_kl``, whose mean
    gaps square past it. With no gains the result is empty.
    """
    gains = np.asarray(gains, dtype=float).reshape(-1)
    if not gains.size:
        return gains
    # the restored variances grow with |a| and the spread of the means (m1, m2,
    # a m1, a m2) is convex in a: if both are in float range at the smallest
    # |a| and at the smallest and largest a, they are at every gain. These
    # indices also land on the first NaN and on any zero or infinity, which
    # ``_scaled_mixture`` refuses
    for k in {int(np.argmin(np.abs(gains))), int(np.argmin(gains)), int(np.argmax(gains))}:
        law = _scaled_mixture(model, float(gains[k]))
        means = (model.mixture.m1, model.mixture.m2, law.m1, law.m2)
        spread = max(means) - min(means)
        if not spread * spread < math.inf:
            raise DomainError(f"a squared gap of the means overflows at gain {gains[k]}: {means}")
    mix, bump, g2 = model.mixture, model.sigma_n**2, gains * gains
    w, mu, m = (mix.w1, mix.w2), (mix.m1, mix.m2), np.array([[mix.m1], [mix.m2]])
    if mix.v1 == mix.v2:
        if w[1] > w[0]:
            w, mu = w[::-1], mu[::-1]
        v = var = mix.v1
        restored = g2 * (v + bump)
    else:
        var = (mix.v1, mix.v2)
        if w[0] == 0.0 or (w[1] > 0.0 and var[1] > var[0]):
            w, mu, var = w[::-1], mu[::-1], var[::-1]
        v = np.array([[mix.v1], [mix.v2]])
        restored = (g2 * (var[0] + bump), g2 * (var[1] + bump))
    diff = _mean_log_mixture(w, mu, var, m, v) - _mean_log_mixture(
        w, (gains * mu[0], gains * mu[1]), restored, m, v)
    diff[[mix.w1 == 0.0, mix.w2 == 0.0]] = 0.0  # a zero weight adds 0, not 0 * inf
    return mix.w1 * diff[0] + mix.w2 * diff[1]


def kl_of_gain(model: RestorationModel, a: float) -> float:
    """KL(clean mixture || restored mixture) in nats at one gain: the
    one-gain call of ``kl_of_gains``."""
    return float(kl_of_gains(model, [a])[0])


def sweep(model: RestorationModel, a_grid: Sequence[float]) -> list[DenoiseCurvePoint]:
    """All three metrics on a grid of gains; zero gains are rejected.

    The KL column is one ``kl_of_gains`` call over the whole grid; MSE
    and error rate are closed forms per gain.
    """
    gains = [float(a) for a in a_grid]
    if not gains:
        raise DomainError("empty gain grid")
    if any(abs(a) < 1e-12 for a in gains):
        raise DomainError("gain grid must exclude 0")
    kls = kl_of_gains(model, gains).tolist()
    return [
        DenoiseCurvePoint(
            a=a,
            mse=mse_of_gain(model, a),
            kl=kl,
            error_rate=error_rate_of_gain(model, a),
        )
        for a, kl in zip(gains, kls)
    ]


def _metric_fn(model: RestorationModel, name: str) -> Callable[[np.ndarray], np.ndarray]:
    """The metric on an array of gains: KL is one batched kernel call; MSE
    and the error rate are ``math`` closed forms per gain (numpy has no
    erfc)."""
    if name == "mse":
        return lambda a: np.array([mse_of_gain(model, x) for x in a.tolist()])
    if name == "kl":
        return lambda a: kl_of_gains(model, a)
    if name == "error_rate":
        return lambda a: np.array([error_rate_of_gain(model, x) for x in a.tolist()])
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

    The objective must be unimodal in the gain on ``[a_lo, a_hi]``.

    1. Screen: both metrics on a grid of ``grid_points`` gains, one call
       per metric for all bounds. A screened objective that rises before
       its argmin or falls after it by more than 1e-12 breaks the
       contract and raises ``DomainError``.
    2. Search: one Brent search (``brent_min``, xtol 1e-8) for the
       unconstrained minimizer a* in the two grid cells around the
       screen's argmin. The screen's values at the ends of those cells
       are candidates too, so a minimum at the range's end is found.
    3. Trim: for each bound, take the contiguous feasible run [l, h]
       around the best feasible grid point. By unimodality the minimum
       on the run is at clip(a*, l, h), so an end can set the row only
       when a* lies beyond it: that one end, if inside the grid, is
       trimmed to the exact constraint boundary by one
       ``bisect_predicate`` (xtol 1e-10), one constraint call per step.
       A run that holds a* is not trimmed at all.
    4. Clip: rows whose interval holds a* share its (gain, value); the
       clipped edges of the others are evaluated in one batched call.

    So a frontier makes a fixed number of objective calls however many
    bounds it has, and one constraint bisection per feasible bound at
    most. Non-finite bounds or gain-range ends, and a
    ``grid_points`` that is not an integer of at least 2, raise
    ``DomainError`` before any work.
    """
    if minimize == subject_to:
        raise DomainError("objective and constraint metrics must differ")
    f_obj = _metric_fn(model, minimize)
    f_con = _metric_fn(model, subject_to)
    for name, val in (("a_lo", a_lo), ("a_hi", a_hi)):
        if not math.isfinite(val):
            raise DomainError(f"{name} must be finite: {val}")
    if a_lo <= 0.0 or a_hi <= a_lo:
        raise DomainError(f"bad gain range [{a_lo}, {a_hi}]")
    if not isinstance(grid_points, (int, np.integer)):
        raise DomainError(f"grid_points must be an integer: {grid_points!r}")
    if grid_points < 2:
        raise DomainError(f"grid_points must be at least 2: {grid_points}")
    bounds = [float(b) for b in bound_grid]
    for b in bounds:
        if not math.isfinite(b):
            raise DomainError(f"bound must be finite: {b}")
    if bounds != sorted(bounds):
        raise DomainError("bound grid must be sorted ascending")

    grid = np.linspace(a_lo, a_hi, grid_points)
    con_vals = f_con(grid)
    obj_vals = f_obj(grid)
    k = int(np.argmin(obj_vals))
    steps = np.diff(obj_vals)
    if np.any(steps[:k] > 1e-12) or np.any(steps[k:] < -1e-12):
        raise DomainError(
            f"{minimize} is not unimodal in the gain on [{a_lo}, {a_hi}]"
        )

    # per feasible bound, the feasible grid run around its best grid point
    runs: dict[int, tuple[int, int]] = {}
    for j, bound in enumerate(bounds):
        ok = con_vals <= bound + 1e-12
        if not np.any(ok):
            continue
        idx = int(np.argmin(np.where(ok, obj_vals, np.inf)))
        run_lo = idx
        while run_lo > 0 and ok[run_lo - 1]:
            run_lo -= 1
        run_hi = idx
        while run_hi < len(grid) - 1 and ok[run_hi + 1]:
            run_hi += 1
        runs[j] = (run_lo, run_hi)
    if not runs:
        return [FrontierPoint(b, math.nan, math.nan, False) for b in bounds]

    # a*: Brent between the screen's neighbours of its argmin, which are
    # candidates too (the search never evaluates its bracket's ends)
    k_lo, k_hi = max(k - 1, 0), min(k + 1, len(grid) - 1)
    x, v = brent_min(lambda a: f_obj(np.array([a]))[0],
                     float(grid[k_lo]), float(grid[k_hi]), xtol=1e-8)
    v_star, a_star = min([(v, x)] + [(float(obj_vals[i]), float(grid[i])) for i in (k_lo, k_hi)])

    # a row is clip(a*, l, h), so only a run's end that a* lies beyond can
    # set it: that end, if inside the grid, is trimmed to the constraint
    # boundary; an upper end is searched mirrored, so that its predicate
    # is monotone increasing
    edges = {}
    for j, (lo, hi) in runs.items():
        cap = bounds[j] + 1e-12
        ends = [float(grid[lo]), float(grid[hi])]
        if a_star < ends[0] and lo > 0:
            ends[0] = bisect_predicate(lambda u: f_con(np.array([u]))[0] <= cap,
                                       grid[lo - 1], grid[lo], xtol=1e-10)
        elif a_star > ends[1] and hi < len(grid) - 1:
            ends[1] = -bisect_predicate(lambda u: f_con(np.array([-u]))[0] <= cap,
                                        -grid[hi + 1], -grid[hi], xtol=1e-10)
        edges[j] = ends

    best = {j: (a_star, v_star) for j, (l, h) in edges.items() if l <= a_star <= h}
    clipped = [j for j in edges if j not in best]
    if clipped:
        at = [min(max(a_star, edges[j][0]), edges[j][1]) for j in clipped]
        for j, a, v in zip(clipped, at, f_obj(np.array(at)).tolist()):
            best[j] = (a, v)
    return [
        FrontierPoint(bound, best[j][1], best[j][0], True) if j in best
        else FrontierPoint(bound, math.nan, math.nan, False)
        for j, bound in enumerate(bounds)
    ]


# Samples per chunk. The three float64 rows of a chunk share one block:
# freeing a block larger than the mgl suite's 800 kB arrays (its four draws,
# two margins and entropy inverse; its slices are 128 kB) raises glibc's
# mmap threshold, so a later `verify` in the same process takes those arrays
# from reused heap pages. Separate 512 kB rows (chunks of 2**16) made
# repeated verify runs 3-6% slower; one block of 2**16 rows did not. The
# component 1 samples come first, so at most one chunk holds both components.
_CHUNK = 1 << 18


def monte_carlo_mses(
    model: RestorationModel, gains: Sequence[float], n: int, seed: int = 0
) -> list[tuple[float, float]]:
    """Sample estimates of the restoration MSE and their standard errors,
    one (estimate, standard error) pair per gain, all from one draw.

    The mixture is sampled by composition (Devroye, Non-Uniform Random
    Variate Generation, 1986): one binomial draw gives the count n1 of
    component 1's samples, which come first. The sample, fully determined
    by the seed, is then drawn in chunks of 2^18 (three float64 rows,
    6.3 MB, whatever the number of gains): per chunk m normals z give the
    clean signal x = m1 + s1*z below sample n1 and m2 + s2*z from there,
    and m normals the noise. Every gain sums ``(x - a*(x + noise))**2``
    and its square over each chunk, so its pair is the one
    ``monte_carlo_mse`` gives it alone.

    Every argument is checked before any draw: a non-finite gain anywhere,
    a sample count that is not an integer of at least 2 and a seed that is
    not a nonnegative integer (a bool included) raise ``DomainError``.
    With no gains nothing is drawn and the result is empty.
    """
    gains = list(gains)
    for a in gains:
        _check_gain(a)
    if not isinstance(n, (int, np.integer)) or n <= 1:
        raise DomainError(f"need an integer number of at least 2 samples: {n!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer: {seed!r}")
    if not gains:
        return []
    mix = model.mixture
    s1, s2, sigma = math.sqrt(mix.v1), math.sqrt(mix.v2), model.sigma_n
    rng = np.random.default_rng(seed)
    n1 = int(rng.binomial(n, mix.w1))
    size = min(n, _CHUNK)
    block = np.empty((3, size))
    totals = np.zeros((len(gains), 2))
    for start in range(0, n, size):
        m = min(n - start, size)
        x, y, t = block[:, :m]
        rng.standard_normal(out=x)
        j = max(n1 - start, 0)  # component 1's samples come first
        for part, s, mean in ((x[:j], s1, mix.m1), (x[j:], s2, mix.m2)):
            part *= s
            part += mean
        rng.standard_normal(out=y)
        y *= sigma  # noise
        y += x
        for k, a in enumerate(gains):
            np.multiply(y, a, out=t)
            np.subtract(x, t, out=t)
            t *= t  # err
            totals[k, 0] += t.sum()
            t *= t  # err * err
            totals[k, 1] += t.sum()
    mean = totals[:, 0] / n
    var = np.maximum(totals[:, 1] / n - mean * mean, 0.0)
    return list(zip(mean.tolist(), np.sqrt(var / n).tolist()))


def monte_carlo_mse(
    model: RestorationModel, a: float, n: int, seed: int = 0
) -> tuple[float, float]:
    """Sample estimate of the restoration MSE at one gain and its standard
    error: the one-gain call of ``monte_carlo_mses``, with its checks."""
    return monte_carlo_mses(model, [a], n, seed)[0]
