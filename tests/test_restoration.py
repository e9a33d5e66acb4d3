import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import rdpc.restoration as restoration
from rdpc import (
    DomainError,
    GaussianMixture2,
    NoCrossingError,
    RestorationModel,
    bayes_threshold_clean,
    default_model,
    error_rate_of_gain,
    error_rate_reoptimized,
    frontier,
    gaussian_kl,
    kl_of_gain,
    kl_of_gains,
    monte_carlo_mse,
    monte_carlo_mses,
    mse_of_gain,
    sweep,
)
from rdpc.restoration import _scaled_mixture

MODEL = default_model()
BAYES_ERROR = 0.204117333467254  # min over thresholds, invariant under gain


def test_clean_bayes_threshold():
    assert MODEL.threshold_c0 == pytest.approx(math.log(7.0 / 3.0) / 2.0, abs=1e-12)
    assert MODEL.threshold_c0 == pytest.approx(0.423648930193602, abs=1e-12)


def test_symmetric_mixture_threshold_is_zero():
    mix = GaussianMixture2(w1=0.5, w2=0.5, m1=-1.0, m2=1.0, v1=1.0, v2=1.0)
    assert bayes_threshold_clean(mix) == pytest.approx(0.0, abs=1e-12)


def test_equal_variance_threshold_at_a_subnormal_weight():
    # 0.5 + ln(1 / 5e-324): the weight ratio overflows, its log does not
    mix = GaussianMixture2(1.0, 5e-324, 0.0, 1.0, 1.0, 1.0)
    assert bayes_threshold_clean(mix) == 744.9400719213812


# mixture parameters and the float.hex of their threshold, within 2 ulps of
# mpmath's 0.57428115887218712, 0.13927292153328392 and 0.30356532385233976
_UNEQUAL_THRESHOLD_BITS = {
    "params0": ((0.7, 0.3, -1.0, 1.0, 1.0, 2.0), "0x1.26082e18214aep-1"),
    "params1": ((0.4, 0.6, -1.0, 2.0, 0.5, 1.5), "0x1.1d3b1f19a1710p-3"),
    "params2": ((0.5, 0.5, 0.0, 1.0, 0.01, 100.0), "0x1.36d9d40894f06p-2"),
}


@pytest.mark.parametrize("params, bits", _UNEQUAL_THRESHOLD_BITS.values(),
                         ids=_UNEQUAL_THRESHOLD_BITS)
def test_unequal_variance_threshold_keeps_its_bits(params, bits):
    # the closed-form root, where the two weighted log densities meet
    mix = GaussianMixture2(*params)
    t = bayes_threshold_clean(mix)
    assert float.hex(t) == bits
    w1, w2, m1, m2, v1, v2 = params
    logs = [math.log(w) - 0.5 * (t - m) ** 2 / v - 0.5 * math.log(2.0 * math.pi * v)
            for w, m, v in ((w1, m1, v1), (w2, m2, v2))]
    assert abs(logs[0] - logs[1]) <= 1e-11


def test_unequal_variance_threshold_at_a_tiny_gap():
    # both weighted densities are about 1e20 at the means; mpmath gives
    # 6.3705984770714034e-22 (the bisection's absolute tolerance 1e-13 gave 0.0)
    mix = GaussianMixture2(0.5, 0.5, -1e-20, 1e-20, 1e-40, 2e-40)
    assert bayes_threshold_clean(mix) == pytest.approx(6.3705984770714034e-22, rel=1e-15, abs=0.0)
    # weights in the deviations' ratio, so that the log-ratio constant is
    # exactly 0 while its factor (sd / gap)^2 = 1e320 overflows: t = 1 / (1 + 1 / 4)
    mix = GaussianMixture2(0.8, 0.2, 0.0, 1e-160, 16.0, 1.0)
    assert bayes_threshold_clean(mix) == pytest.approx(0.8e-160, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("params", [p for p, _ in _UNEQUAL_THRESHOLD_BITS.values()],
                         ids=_UNEQUAL_THRESHOLD_BITS)
@pytest.mark.parametrize("s", [2.0**-500, 1.0, 2.0**500], ids=["2^-500", "1", "2^500"])
def test_unequal_variance_threshold_scales_with_the_mixture(params, s):
    w1, w2, m1, m2, v1, v2 = params
    base = bayes_threshold_clean(GaussianMixture2(*params))
    scaled = bayes_threshold_clean(GaussianMixture2(w1, w2, m1 * s, m2 * s, v1 * s * s, v2 * s * s))
    assert abs(scaled / s - base) <= 1e-12 * abs(base)


def _log_ratio_in_units(w, mu, var, u):
    """log(w[0] N(u; mu[0], var[0])) - log(w[1] N(u; mu[1], var[1])), and the
    sum of its terms' magnitudes, for O(1) arguments."""
    terms = [(math.log(wi), -0.5 * math.log(vi), -0.5 * (u - mi) ** 2 / vi)
             for wi, mi, vi in zip(w, mu, var)]
    return (sum(terms[0]) - sum(terms[1]),
            sum(abs(x) for x in terms[0]) + sum(abs(x) for x in terms[1]))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    w1=st.floats(1e-3, 1.0 - 1e-3, exclude_min=True, exclude_max=True),
    exponent=st.floats(-150.0, 150.0),
    mu=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    log_var=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
)
def test_unequal_variance_threshold_at_extreme_scales(w1, exponent, mu, log_var):
    # the mixture is an O(1) one scaled by s = 10^exponent; its checks are
    # worked in units of s, where no square overflows
    s = 10.0**exponent
    w = (w1, 1.0 - w1)
    mix = GaussianMixture2(*w, mu[0] * s, mu[1] * s,
                           math.exp(log_var[0]) * s * s, math.exp(log_var[1]) * s * s)
    assume(mix.m1 != mix.m2 and mix.v1 != mix.v2)
    mu, var = (mix.m1 / s, mix.m2 / s), (mix.v1 / s / s, mix.v2 / s / s)
    ends = [_log_ratio_in_units(w, mu, var, m) for m in mu]
    assume(all(abs(r) > 1e-12 * size for r, size in ends))  # not a knife edge
    try:
        t = bayes_threshold_clean(mix)
    except NoCrossingError:
        assert ends[0][0] * ends[1][0] > 0.0
        return
    assert ends[0][0] * ends[1][0] < 0.0
    assert min(mix.m1, mix.m2) <= t <= max(mix.m1, mix.m2)
    r, size = _log_ratio_in_units(w, mu, var, t / s)
    assert abs(r) <= 1e-12 * size


def test_unequal_variance_densities_that_do_not_cross_have_no_threshold():
    # the narrow light component stays under the wide heavy one between the means
    with pytest.raises(NoCrossingError):
        bayes_threshold_clean(GaussianMixture2(0.9, 0.1, 0.0, 1.0, 1.0, 0.05))


@pytest.mark.parametrize("v2", [1.0, 2.0])
@pytest.mark.parametrize("w1", [0.0, 1.0])
def test_zero_weight_component_has_no_threshold(w1, v2):
    # a component with no weight has no density to cross, whatever the variances
    mix = GaussianMixture2(w1, 1.0 - w1, -1.0, 1.0, 1.0, v2)
    with pytest.raises(DomainError, match="zero weight"):
        bayes_threshold_clean(mix)
    with pytest.raises(DomainError, match="zero weight"):
        error_rate_reoptimized(RestorationModel(mix, 1.0, 0.0), 0.7)


def test_mse_formula():
    # E[X^2] = 2 for the default mixture, sigma_n = 1
    for a in (0.05, 0.5, 2.0 / 3.0, 1.0, 1.4):
        assert mse_of_gain(MODEL, a) == pytest.approx(
            (1 - a) ** 2 * 2.0 + a * a, abs=1e-14
        )
    assert mse_of_gain(MODEL, 2.0 / 3.0) == pytest.approx(2.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize(
    "a, expected",
    [
        (0.5, 0.204117333467254),
        (2.0 / 3.0, 0.206112288883806),
        (0.81, 0.20891407153564),
        (1.0, 0.212473899746483),
    ],
)
def test_fixed_threshold_error_rate(a, expected):
    assert error_rate_of_gain(MODEL, a) == pytest.approx(expected, abs=1e-12)


def test_error_rate_is_scale_invariant_with_scaled_threshold():
    base = error_rate_of_gain(MODEL, 0.7)
    for lam in (0.5, 2.0, 3.0):
        moved = error_rate_of_gain(
            MODEL, lam * 0.7, threshold=lam * MODEL.threshold_c0
        )
        assert moved == pytest.approx(base, abs=1e-12)


def test_reoptimized_threshold_is_flat_in_gain():
    values = [error_rate_reoptimized(MODEL, a) for a in (0.3, 0.7, 1.0, 1.4)]
    assert max(values) - min(values) <= 1e-9
    assert values[0] == pytest.approx(BAYES_ERROR, abs=1e-9)


def test_reoptimized_threshold_is_flat_at_extreme_gains():
    # the restored law's threshold is found by the closed form at every scale;
    # the bisection read 0.2056 at gain 1e-100 and 0.17115397 at 1e-10
    mix = GaussianMixture2(0.7, 0.3, -1.0, 1.0, 1.0, 2.0)
    model = RestorationModel(mix, 0.5, bayes_threshold_clean(mix))
    values = [error_rate_reoptimized(model, a) for a in (1e-100, 1e-10, 1e-5, 1.0, 1e100)]
    assert max(values) - min(values) <= 1e-15


@pytest.mark.parametrize(
    "a, expected, tol",
    [
        (0.81, 0.00620289845785, 1e-9),
        (1.0, 0.0504405911834, 1e-9),
        (2.0 / 3.0, 0.0567370441243, 1e-9),
        (0.05, 185.7834, 1e-3),
    ],
)
def test_kl_of_gain_values(a, expected, tol):
    assert kl_of_gain(MODEL, a) == pytest.approx(expected, abs=tol)


def test_scaled_mixture_moments():
    # E[(aY)^2] = a^2 (E[X^2] + sigma_n^2) = 3 a^2
    assert _scaled_mixture(MODEL, 0.5).second_moment() == pytest.approx(
        0.75, abs=1e-12
    )


def test_domain_rejections():
    with pytest.raises(DomainError):
        kl_of_gain(MODEL, 0.0)
    with pytest.raises(DomainError):
        error_rate_reoptimized(MODEL, -0.1)
    with pytest.raises(DomainError):
        _scaled_mixture(MODEL, 0.0)
    with pytest.raises(DomainError):
        sweep(MODEL, [])
    with pytest.raises(DomainError):
        sweep(MODEL, [0.3, 1e-13])
    with pytest.raises(DomainError):
        monte_carlo_mse(MODEL, 0.5, 1)
    with pytest.raises(DomainError):
        frontier(MODEL, "mse", "mse", [1.0])
    with pytest.raises(DomainError):
        frontier(MODEL, "kl", "mse", [1.0, 0.5])


def test_sweep_carries_all_three_metrics():
    rows = sweep(MODEL, [0.5, 0.81, 1.0])
    assert [r.a for r in rows] == [0.5, 0.81, 1.0]
    assert rows[0].error_rate == pytest.approx(BAYES_ERROR, abs=1e-12)
    assert rows[1].kl == pytest.approx(0.00620289845785, abs=1e-9)
    assert rows[2].mse == pytest.approx(1.0, abs=1e-12)


def test_monte_carlo_agrees_with_formula():
    mean, se = monte_carlo_mse(MODEL, 2.0 / 3.0, 200_000, seed=1)
    assert se < 0.01
    assert abs(mean - 2.0 / 3.0) <= 4.0 * se


def test_monte_carlo_is_seed_deterministic():
    assert monte_carlo_mse(MODEL, 0.8, 10_000, seed=3) == monte_carlo_mse(
        MODEL, 0.8, 10_000, seed=3
    )


def test_noise_free_model_has_trivial_optimum():
    clean = default_model(sigma_n=0.0)
    assert mse_of_gain(clean, 1.0) == 0.0
    assert error_rate_of_gain(clean, 1.0) == pytest.approx(
        0.138748529970866, abs=1e-12
    )
    assert kl_of_gain(clean, 1.0) == pytest.approx(0.0, abs=1e-8)


def test_frontier_monotone_and_marks_infeasible():
    pts = frontier(MODEL, "error_rate", "mse", [0.5, 0.7, 1.0, 1.3], grid_points=60)
    assert not pts[0].feasible and math.isnan(pts[0].value)
    feasible = [p for p in pts if p.feasible]
    assert len(feasible) == 3
    values = [p.value for p in feasible]
    assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))
    # loose-bound end reaches the unconstrained fixed-threshold optimum
    assert values[-1] == pytest.approx(error_rate_of_gain(MODEL, 0.5), abs=1e-4)


def _log_mixture(mix, x):
    """Scalar log density of a two-component mixture with positive weights."""
    terms = [
        math.log(w) - 0.5 * (x - m) ** 2 / v - 0.5 * math.log(2.0 * math.pi * v)
        for w, m, v in ((mix.w1, mix.m1, mix.v1), (mix.w2, mix.m2, mix.v2))
    ]
    top = max(terms)
    return top + math.log1p(math.exp(min(terms) - top))


def _support_12sd(mix):
    """Both components out to 12 standard deviations of the wider one."""
    spread = 12.0 * math.sqrt(max(mix.v1, mix.v2))
    return min(mix.m1, mix.m2) - spread, max(mix.m1, mix.m2) + spread


def _quad_kl(model, a, epsrel=0.0):
    """Reference: KL(clean || restored) by scipy's quad on scalar log
    densities, over the union of both laws' 12-sd supports, split at the
    four component means and at the restored support's ends, so a
    restored law far narrower than the range is not missed."""
    clean, restored = model.mixture, _scaled_mixture(model, a)
    (c_lo, c_hi), (r_lo, r_hi) = _support_12sd(clean), _support_12sd(restored)
    lo, hi = min(c_lo, r_lo), max(c_hi, r_hi)

    def integrand(x):
        lp = _log_mixture(clean, x)
        return math.exp(lp) * (lp - _log_mixture(restored, x))

    marks = sorted({clean.m1, clean.m2, restored.m1, restored.m2, r_lo, r_hi}
                   - {lo, hi})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an IntegrationWarning fails the test
        value, _ = quad(integrand, lo, hi, points=marks, epsabs=1e-10, epsrel=epsrel,
                        limit=200)
    return value


@pytest.mark.parametrize("sigma_n", [0.0, 0.3, 1.0, 2.0, 5.0])
def test_sweep_kl_agrees_with_scipy_quad(sigma_n):
    model = default_model(sigma_n=sigma_n)
    for row in sweep(model, np.linspace(0.05, 1.5, 146)):
        assert abs(row.kl - _quad_kl(model, row.a)) <= 1e-9


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    w1=st.floats(0.01, 0.99),
    means=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    v1=st.floats(0.05, 5.0),
    v2=st.one_of(st.none(), st.floats(0.05, 5.0)),
    sigma_n=st.floats(0.0, 5.0),
    gains=st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 0.2)),
                   min_size=1, max_size=3),
)
def test_kl_agrees_with_scipy_quad(w1, means, v1, v2, sigma_n, gains):
    # equal (v2 None) and unequal variances, and gains down to |a| = 1e-3,
    # where the KL reaches about 1e8 nats and float64 holds it only to
    # relative precision; quad is then also asked for 1e-12 relative
    mix = GaussianMixture2(w1, 1.0 - w1, *means, v1, v1 if v2 is None else v2)
    model = RestorationModel(mix, sigma_n, 0.0)
    gains = [sign * 10.0**e for sign, e in gains]
    for a, kl in zip(gains, kl_of_gains(model, gains).tolist()):
        ref = _quad_kl(model, a, epsrel=1e-12)
        assert abs(kl - ref) <= 1e-9 * max(1.0, ref)


def test_unequal_variance_kl_at_a_tiny_gain():
    # the restored law is about 4e-4 wide on a range about 43 wide: the
    # softplus rule resolves it at its own edges, the roots of r = -40, 0
    # and 40 and the vertex
    mix = GaussianMixture2(0.50196, 0.49804, 0.34314, 0.63670, 2.31200, 3.23738)
    kl = kl_of_gain(RestorationModel(mix, 2.0, 0.0), -2.07e-4)
    # scipy's quad, split at the restored law's 12-sd ends, gives 4891745.881354319
    assert kl == pytest.approx(4891745.881354319, rel=1e-12)


# KL of GaussianMixture2(0.5, 0.5, -1, 1, 1, v2) by (v2, a, sigma_n), from
# mpmath at 40 digits, each Gaussian term in the coordinate of the component
# the expectation is over: a narrow clean or restored component makes the
# log ratio a parabola whose expanded coefficients cancel near its vertex
_NARROW_KL = [
    (1e-20, 0.5, 0.0, 13.819778284321857),
    (1e-30, 0.5, 0.0, 19.576241016895396),
    (1e-40, -0.8, 0.0, 23.974582378626247),
    (1e-120, 0.5, 0.0, 71.38440560926143),
    (1e-300, 0.5, 0.0, 175.00073479399348),
    (1e-300, 1e-5, 0.0, 7500000161.180955),
    (1e-30, 0.5, 1.0, 16.90968332302685),
    (1e-300, 0.5, 1.0, 172.33417710012492),
]


@pytest.mark.parametrize("v2, a, sigma_n, ref", _NARROW_KL)
def test_kl_with_a_narrow_clean_component_is_right(v2, a, sigma_n, ref):
    mix = GaussianMixture2(0.5, 0.5, -1.0, 1.0, 1.0, v2)
    kl = kl_of_gain(RestorationModel(mix, sigma_n, 0.0), a)
    assert kl >= 0.0
    assert kl == pytest.approx(ref, rel=1e-12)


# float.hex of kl_of_gains at gains -0.8, 0.3, 0.81 and 1.4 for the clean
# mixture GaussianMixture2(0.7, 0.3, -1, 1, 1, v2), by (v2, sigma_n): the
# unequal-variance path, the composite rule of _mean_softplus_quadratic
_UNEQUAL_KL_BITS = {
    (0.5, 0.0): ["0x1.daec7c2004d7ep-2", "0x1.c227c07c23764p+2",
                 "0x1.52cc856ca2aeap-4", "0x1.122be08aa5c2ap-3"],
    (0.5, 0.3): ["0x1.86fb14e0335e1p-2", "0x1.9012bd0955204p+2",
                 "0x1.dc829a90a6866p-5", "0x1.2e75074fc66dcp-3"],
    (0.5, 1.0): ["0x1.4d33819e417eep-3", "0x1.586e7ebaf9b23p+1",
                 "0x1.9f8481c1afb58p-7", "0x1.133c950ed3098p-2"],
    (2.0, 0.0): ["0x1.7340b12c722b9p-2", "0x1.585153dabbaa1p+2",
                 "0x1.1c2b04fdbb8fdp-4", "0x1.d77be703ac54ep-4"],
    (2.0, 0.3): ["0x1.59dfddbadd74dp-2", "0x1.41ecdcb8ff175p+2",
                 "0x1.b6f41f494b940p-5", "0x1.02b4a1d7c77f3p-3"],
    (2.0, 1.0): ["0x1.b33c89f12bd56p-3", "0x1.67b7bc3f48a9fp+1",
                 "0x1.56276316f4132p-7", "0x1.de5f03a3490f4p-3"],
    (4.0, 0.0): ["0x1.0bc584bb80174p-1", "0x1.c15d6c2a3096cp+1",
                 "0x1.f84ec09f083ccp-5", "0x1.c37e373dbe640p-4"],
    (4.0, 0.3): ["0x1.fe7e1efdb9faep-2", "0x1.b279b461fb303p+1",
                 "0x1.96611d22cb05ap-5", "0x1.edfbd9748d2a1p-4"],
    (4.0, 1.0): ["0x1.56da5c889c6f6p-2", "0x1.3b0965747eb7cp+1",
                 "0x1.0732c25644620p-6", "0x1.c6bad93409fcep-3"],
}
# the same where numpy takes no AVX-512 kernels: no pinned value's last
# bits move there
_UNEQUAL_KL_BITS_WITHOUT_AVX512 = _UNEQUAL_KL_BITS
_UNEQUAL_KL_CODE = """
import json
from rdpc import GaussianMixture2, RestorationModel, kl_of_gains
print(json.dumps([[float.hex(x) for x in kl_of_gains(RestorationModel(
    GaussianMixture2(0.7, 0.3, -1.0, 1.0, 1.0, v2), sigma_n, 0.0), [-0.8, 0.3, 0.81, 1.4]).tolist()]
    for v2, sigma_n in %r]))
"""


@pytest.mark.parametrize("v2, sigma_n", list(_UNEQUAL_KL_BITS))
def test_unequal_variance_kl_keeps_its_bits(v2, sigma_n):
    model = RestorationModel(GaussianMixture2(0.7, 0.3, -1.0, 1.0, 1.0, v2), sigma_n, 0.0)
    got = kl_of_gains(model, [-0.8, 0.3, 0.81, 1.4])
    pins = _UNEQUAL_KL_BITS if _dispatches_avx512() else _UNEQUAL_KL_BITS_WITHOUT_AVX512
    assert [float.hex(x) for x in got.tolist()] == pins[(v2, sigma_n)]


def _kl_triples() -> np.ndarray:
    """The (a, b, c) rows that kl_of_gains hands the quadratic rule, on
    the 146-gain case, a narrow clean component and the tiny-gain case."""
    seen = []
    real = restoration._mean_softplus_quadratic

    def record(a, b, c):
        seen.append(np.stack([np.ravel(t) for t in (a, b, c)], axis=1))
        return real(a, b, c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(restoration, "_mean_softplus_quadratic", record)
        for mix, sigma_n, gains in [
            (GaussianMixture2(0.4, 0.6, -1.0, 2.0, 0.5, 1.5), 0.7, GRID),
            (GaussianMixture2(0.5, 0.5, -1.0, 1.0, 1.0, 1e-30), 1.0, [0.5, -0.8]),
            (GaussianMixture2(0.50196, 0.49804, 0.34314, 0.63670, 2.31200, 3.23738), 2.0,
             [-2.07e-4, 1e-3, 3.0]),
        ]:
            kl_of_gains(RestorationModel(mix, sigma_n, 0.0), gains)
    return np.concatenate(seen)


def _softplus_quadratic_pool(kind: str) -> np.ndarray:
    rng = np.random.default_rng(48)
    n = 8
    sign = rng.choice([-1.0, 1.0], n)
    if kind == "kl":
        rows = _kl_triples()
        return rows[rng.choice(len(rows), 12, replace=False)]
    if kind == "linear":  # a = 0: one root per level
        return np.stack([np.zeros(n), sign * 10.0 ** rng.uniform(-3, 2, n),
                         rng.uniform(-60, 60, n)], axis=1)
    if kind == "steep":  # as the vertex form of _mean_log_mixture passes it
        return np.stack([-(10.0 ** rng.uniform(10, 300, n)), np.zeros(n),
                         rng.uniform(-50, 350, n)], axis=1)
    if kind == "far":  # a shallow parabola whose level roots lie beyond +-12
        return np.stack([-(10.0 ** rng.uniform(-4, -1, n)), rng.uniform(-1, 1, n),
                         rng.uniform(20, 80, n)], axis=1)
    # a narrow vertex just under r = 40, where 32 nodes a piece err by up to 3.4e-12
    return np.stack([-(10.0 ** rng.uniform(3, 5, n)), sign * 10.0 ** rng.uniform(-2, 0, n),
                     rng.uniform(25, 45, n)], axis=1)


@pytest.mark.parametrize("kind", ["kl", "linear", "steep", "far", "vertex"])
def test_softplus_quadratic_rule_agrees_with_mpmath(kind):
    # mpmath's tanh-sinh quadrature split at the same edges: 0, +-4, +-8,
    # +-12, the vertex and the real roots of r = -40, 0 and 40 within [-12, 12]
    mpmath = pytest.importorskip("mpmath")
    from rdpc.entropy import _mean_softplus_quadratic

    pool = _softplus_quadratic_pool(kind)
    got = _mean_softplus_quadratic(pool[:, 0], pool[:, 1], pool[:, 2])
    with mpmath.workdps(20):
        for (a, b, c), value in zip(pool.tolist(), got.tolist()):
            a, b, c = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
            edges = {mpmath.mpf(e) for e in (-12, -8, -4, 0, 4, 8, 12)}
            for level in (-40, 0, 40):
                if a < 0:
                    disc = b * b - 4 * a * (c - level)
                    if disc >= 0:
                        edges |= {(-b + s * mpmath.sqrt(disc)) / (2 * a) for s in (-1, 1)}
                elif b != 0:
                    edges.add((level - c) / b)
            if a < 0:
                edges.add(-b / (2 * a))

            def f(u):
                r = (a * u + b) * u + c
                soft = r + mpmath.log1p(mpmath.exp(-r)) if r > 0 else mpmath.log1p(mpmath.exp(r))
                return soft * mpmath.npdf(u)

            ref = mpmath.quad(f, sorted(e for e in edges if -12 <= e <= 12))
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (a, b, c)


@pytest.mark.parametrize("params", [
    (0.7, 0.3, -1.0, 1.0, 1.0, 2.0),
    (1e-300, 1.0, -1e100, -1e100, 1e-300, 1e100),  # was NaN: the variance ratio overflowed
])
def test_identity_restoration_has_zero_kl(params):
    # gain 1 without noise restores the clean law: both log-mixture means
    # are the same arithmetic
    model = RestorationModel(GaussianMixture2(*params), 0.0, 0.0)
    assert kl_of_gain(model, 1.0) == 0.0


@pytest.mark.parametrize("sigma_n", [0.0, 0.7])
@pytest.mark.parametrize("w1", [0.0, 1.0])
def test_kl_with_one_live_component_is_the_gaussian_kl(w1, sigma_n):
    # a zero weight makes the log weight ratio infinite: the expansion is
    # taken about the other component, also when the dead one is the wider
    gains = [-1.3, -0.6, -0.2, 0.2, 0.6, 1.3]
    for v1, v2 in ((0.8, 0.8), (0.8, 2.5), (2.5, 0.8)):
        mix = GaussianMixture2(w1, 1.0 - w1, -1.5, 2.0, v1, v2)
        m, v = (mix.m1, v1) if w1 else (mix.m2, v2)
        got = kl_of_gains(RestorationModel(mix, sigma_n, 0.0), gains)
        for a, kl in zip(gains, got.tolist()):
            assert abs(kl - gaussian_kl(m, v, a * m, a * a * (v + sigma_n**2))) <= 1e-12
    # equal means: one Gaussian again, with finite values
    same = RestorationModel(GaussianMixture2(0.3, 0.7, 1.2, 1.2, 0.8, 0.8), 0.5, 0.0)
    got = kl_of_gains(same, gains)
    assert np.all(np.isfinite(got))
    for a, kl in zip(gains, got.tolist()):
        assert abs(kl - gaussian_kl(1.2, 0.8, 1.2 * a, a * a * 1.05)) <= 1e-12


@pytest.mark.parametrize(
    "entry", [kl_of_gain, mse_of_gain, error_rate_of_gain, error_rate_reoptimized,
              pytest.param(_scaled_mixture, id="scaled_mixture")]
)
@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
def test_non_finite_gain_is_refused(entry, a):
    t0 = time.perf_counter()
    with pytest.raises(DomainError):
        entry(MODEL, a)
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("call", [
    lambda: monte_carlo_mse(MODEL, math.nan, 100),
    lambda: monte_carlo_mse(MODEL, math.inf, 100),
    lambda: monte_carlo_mse(MODEL, 0.7, 1e7),
    lambda: monte_carlo_mse(MODEL, 0.7, 2.5),
    lambda: monte_carlo_mse(MODEL, 0.7, 100, seed=-1),
    lambda: monte_carlo_mse(MODEL, 0.7, 100, seed=0.5),
    lambda: monte_carlo_mses(MODEL, [math.nan, 0.5, 0.8], 100),
    lambda: monte_carlo_mses(MODEL, [0.5, math.inf, 0.8], 100),
    lambda: monte_carlo_mses(MODEL, [0.5, 0.8, -math.inf], 100),
    lambda: error_rate_of_gain(MODEL, 0.7, threshold=math.nan),
], ids=["mc-nan-gain", "mc-inf-gain", "mc-float-n", "mc-fractional-n", "mc-negative-seed",
        "mc-fractional-seed", "mcs-nan-first-gain", "mcs-inf-middle-gain",
        "mcs-minus-inf-last-gain", "nan-threshold"])
def test_restoration_inputs_are_refused_up_front(monkeypatch, call):
    def no_draws(*args, **kwargs):
        raise AssertionError("a refused input reached the generator")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("sigma_n", [math.nan, math.inf])
def test_non_finite_noise_is_refused(sigma_n):
    with pytest.raises(DomainError):
        default_model(sigma_n)
    with pytest.raises(DomainError):
        RestorationModel(MODEL.mixture, sigma_n, MODEL.threshold_c0)


def test_noise_whose_square_overflows_is_refused():
    # every metric takes sigma_n**2, which overflows past 1.34e154
    with pytest.raises(DomainError, match="finite square"):
        default_model(1e160)
    assert default_model(1.3407807929942596e154).sigma_n == 1.3407807929942596e154


@pytest.mark.parametrize("a", [1e154, 1e200, -1e200])
def test_mse_of_a_huge_gain_is_inf(a):
    assert mse_of_gain(MODEL, a) == math.inf


def _reference_monte_carlo_mse(model, a, n, seed):
    # the mixture by composition: a binomial count of component 1's
    # samples, which come first, then per 2**16-sample chunk the clean
    # signal's normals and the noise's
    mix = model.mixture
    rng = np.random.default_rng(seed)
    n1 = rng.binomial(n, mix.w1)
    total = 0.0
    total_sq = 0.0
    for start in range(0, n, 2**16):
        index = np.arange(start, min(start + 2**16, n))
        z = rng.standard_normal(index.size)
        x = np.where(
            index < n1,
            mix.m1 + math.sqrt(mix.v1) * z,
            mix.m2 + math.sqrt(mix.v2) * z,
        )
        noise = model.sigma_n * rng.standard_normal(index.size)
        err = (x - a * (x + noise)) ** 2
        total += float(err.sum())
        total_sq += float((err * err).sum())
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


_MC_MODELS = {
    "default": MODEL,
    "noise-free": default_model(sigma_n=0.0),
    "unequal-variance": RestorationModel(GaussianMixture2(0.4, 0.6, -1.0, 2.0, 0.5, 1.5), 0.7, 0.0),
    "zero-weight": RestorationModel(GaussianMixture2(0.0, 1.0, -1.0, 2.0, 0.5, 1.5), 1.0, 0.0),
    "one-weight": RestorationModel(GaussianMixture2(1.0, 0.0, -1.0, 2.0, 0.5, 1.5), 1.0, 0.0),
}


# inside one chunk, one whole chunk and one more sample, four whole chunks
# and one more sample, sixteen chunks
@pytest.mark.parametrize("n", [2, 10, 65_536, 65_537, 262_144, 262_145, 1_000_003])
def test_monte_carlo_is_bit_identical_to_seed_formula(n):
    # one draw for all gains: each pair keeps the bits of a draw of its
    # own, a repeated or negative gain too; component counts of 0 and n
    # come from the zero- and one-weight models
    gains = (0.8, -0.3, 0.8)
    for model in _MC_MODELS.values():
        ref = {a: _reference_monte_carlo_mse(model, a, n, seed=5) for a in gains}
        assert monte_carlo_mses(model, gains, n, seed=5) == [ref[a] for a in gains]
        assert monte_carlo_mse(model, 0.8, n, seed=5) == ref[0.8]


# float.hex of monte_carlo_mses(default_model(), (0.8, -0.3), n, seed=5):
# one chunk, and sixteen chunks whose eleventh straddles the two components
_MC_BITS = {
    65_536: [
        ["0x1.716fde804e2f6p-1", "0x1.04c6df604f6bfp-8"],
        ["0x1.b8b11b8b1c1b8p+1", "0x1.0fc589c63cc58p-6"],
    ],
    1_000_003: [
        ["0x1.704563141e792p-1", "0x1.0a4f76b74de65p-10"],
        ["0x1.bb8c4358bce3cp+1", "0x1.188940889a979p-8"],
    ],
}
_MC_BITS_CODE = """
import json
from rdpc import default_model, monte_carlo_mses
print(json.dumps({n: [[float.hex(v) for v in pair]
                      for pair in monte_carlo_mses(default_model(), (0.8, -0.3), n, seed=5)]
                  for n in (65_536, 1_000_003)}))
"""


def test_monte_carlo_keeps_its_bits_within_one_chunk():
    got = monte_carlo_mses(default_model(), (0.8, -0.3), 65_536, seed=5)
    assert [list(map(float.hex, pair)) for pair in got] == _MC_BITS[65_536]


def test_monte_carlo_keeps_its_bits_across_chunks():
    got = monte_carlo_mses(default_model(), (0.8, -0.3), 1_000_003, seed=5)
    assert [list(map(float.hex, pair)) for pair in got] == _MC_BITS[1_000_003]


# numpy's AVX-512 kernels, turned off for a child process by numpy's own
# runtime variable; the child then takes the kernels of an AVX2-only CPU
_NO_AVX512 = ("AVX512_SPR", "AVX512_ICL", "X86_V4")


def _dispatches_avx512() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return False
    return all(f in __cpu_dispatch__ and __cpu_features__.get(f) for f in _NO_AVX512)


@pytest.mark.skipif(not _dispatches_avx512(), reason="numpy dispatches no AVX-512 kernels here")
def test_monte_carlo_keeps_its_bits_without_avx512():
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(_NO_AVX512),
               PYTHONPATH=str(Path(restoration.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _MC_BITS_CODE], capture_output=True,
                         text=True, env=env, timeout=120, check=True)
    assert {int(n): bits for n, bits in json.loads(out.stdout).items()} == _MC_BITS


@pytest.mark.skipif(not _dispatches_avx512(), reason="numpy dispatches no AVX-512 kernels here")
def test_unequal_variance_kl_keeps_its_bits_without_avx512():
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(_NO_AVX512),
               PYTHONPATH=str(Path(restoration.__file__).parents[1]))
    keys = list(_UNEQUAL_KL_BITS_WITHOUT_AVX512)
    out = subprocess.run([sys.executable, "-c", _UNEQUAL_KL_CODE % keys], capture_output=True,
                         text=True, env=env, timeout=120, check=True)
    assert json.loads(out.stdout) == [_UNEQUAL_KL_BITS_WITHOUT_AVX512[k] for k in keys]


GRID = np.linspace(0.05, 1.5, 146)


def test_monte_carlo_mses_of_no_gains_is_empty_without_a_draw(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew for no gains")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    assert monte_carlo_mses(MODEL, [], 1_000_000, seed=0) == []


def test_monte_carlo_mses_hold_one_chunk_whatever_the_gains():
    # three float64 rows of a chunk, plus the generator's and numpy's small
    # working buffers, however many gains share them
    chunk = 2**16
    peaks = []
    for gains in ([0.8], [0.5, 0.8]):
        tracemalloc.start()
        try:
            monte_carlo_mses(MODEL, gains, 1_000_003, seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert 3 * 8 * chunk <= peaks[0] <= 3 * 8 * chunk + 2**17
    assert peaks[1] <= peaks[0] + 4096


@pytest.mark.parametrize("sigma_n", [0.0, 1.0])
def test_kl_row_does_not_depend_on_its_batch(sigma_n):
    model = default_model(sigma_n=sigma_n)
    batch = kl_of_gains(model, GRID)
    for i, a in enumerate(GRID.tolist()):
        assert kl_of_gains(model, [a])[0] == batch[i]
        assert kl_of_gain(model, a) == batch[i]
    order = np.random.default_rng(7).permutation(GRID.size)
    assert np.array_equal(kl_of_gains(model, GRID[order]), batch[order])


@pytest.mark.parametrize("bad", [0.0, math.nan, math.inf, -math.inf, 1e-170, -1e160])
@pytest.mark.parametrize("at", [0, 70, 145])
def test_kl_of_gains_refuses_a_bad_gain_anywhere(bad, at):
    # 1e-170 and -1e160 square to a restored variance of 0 and inf
    gains = GRID.copy()
    gains[at] = bad
    t0 = time.perf_counter()
    with pytest.raises(DomainError):
        kl_of_gains(MODEL, gains)
    assert time.perf_counter() - t0 < 0.05  # before any quadrature


@pytest.mark.parametrize("bad", [0.0, math.nan, math.inf, -math.inf])
def test_kl_of_gains_checks_each_gain_once(monkeypatch, bad):
    # the range check's probes at the smallest |a|, the smallest and the
    # largest gain land on a zero, a NaN or an infinity mid-array, so no
    # pass over every gain runs before them
    checked = []
    real = restoration._check_gain
    monkeypatch.setattr(restoration, "_check_gain", lambda a: checked.append(a) or real(a))
    kl_of_gains(MODEL, GRID)
    assert len(checked) <= 3
    gains = GRID.copy()
    gains[GRID.size // 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="gain"):
            kl_of_gains(MODEL, gains)


@pytest.mark.parametrize("a", [1e-155, 1e-160])
@pytest.mark.parametrize("sigma_n", [0.0, 1.0])
def test_kl_at_a_subnormal_restored_variance_is_inf(sigma_n, a):
    # the restored variance a^2 (1 + sigma_n^2) is subnormal: the KL is past
    # the float range, with no overflow warning (warnings fail the test)
    assert kl_of_gains(default_model(sigma_n), [a])[0] == math.inf


@pytest.mark.parametrize("w1", [0.5, 1.0, 0.0])
@pytest.mark.parametrize("sigma_n", [0.0, 1.0])
def test_unequal_variance_kl_at_a_subnormal_restored_variance_is_inf(sigma_n, w1):
    # as with equal variances; a zero-weight component adds 0, not 0 * inf
    model = RestorationModel(GaussianMixture2(w1, 1.0 - w1, -1.0, 1.0, 1.0, 2.0), sigma_n, 0.0)
    assert kl_of_gains(model, [1e-160, 0.5])[0] == math.inf


@pytest.mark.parametrize("means, v2, gains", [
    ((0.0, 1e155), 1.0, [0.7]),  # was NaN, with 6 RuntimeWarnings
    ((0.0, 1e155), 2.0, [0.7]),  # was a bare OverflowError
    ((1e300, 1e300), 2.0, [0.7]),  # was NaN from logaddexp
    ((0.0, 1e154), 1.0, [0.5, -1.0]),  # the gap 2e154 between 1e154 and -1e154
])
def test_kl_where_a_squared_mean_gap_overflows_is_refused(means, v2, gains):
    model = RestorationModel(GaussianMixture2(0.5, 0.5, *means, 1.0, v2), 1.0, 0.0)
    for call in (kl_of_gains, sweep):
        with pytest.raises(DomainError, match="squared gap"):
            call(model, gains)


@pytest.mark.parametrize("v2", [1.0, 2.0])
def test_kl_where_every_squared_mean_gap_is_finite_is_answered(v2):
    # the far component's restored mean is 3e153 off its clean one: KL is
    # about w2 (3e153)^2 / (2 * 0.7^2 * (v2 + 1)), past which every term is O(1)
    model = RestorationModel(GaussianMixture2(0.5, 0.5, 0.0, 1e154, 1.0, v2), 1.0, 0.0)
    got = kl_of_gains(model, [0.7])[0]
    assert got == pytest.approx(0.5 * 3e153 * 3e153 / (2.0 * 0.49 * (v2 + 1.0)), rel=1e-12)


def test_bayes_threshold_where_the_squared_mean_gap_overflows():
    # neither closed form squares the gap: the densities cross where
    # |x - m1| = |x - m2| / sqrt(2), about -0.1716 m; mpmath gives
    # -1.71572875253809899e149 and -1.71572875253809904e159 (the bisection
    # gave 0.0 at 1e150, where both densities underflow, and refused 1e160)
    for m, want in ((1e150, -1.7157287525380984e+149), (1e160, -1.7157287525380994e+159)):
        assert bayes_threshold_clean(GaussianMixture2(0.5, 0.5, -m, m, 1.0, 2.0)) == want
    # the gap itself overflows; mpmath gives 1.183766184073566e307
    got = bayes_threshold_clean(GaussianMixture2(0.5, 0.5, -1e308, 1.7e308, 1.0, 2.0))
    assert got == pytest.approx(1.183766184073566e307, rel=1e-15)
    assert bayes_threshold_clean(GaussianMixture2(0.5, 0.5, -1e160, 1e160, 1.0, 1.0)) == 0.0


@pytest.mark.parametrize("a, rate", [(1e-150, 0.0), (1e-200, 0.0), (5e-324, 0.0), (-1e-200, 1.0)])
def test_error_rate_where_the_restored_spread_underflows(a, rate):
    # |a| sqrt(v) is 1e-300 at a = 1e-150 and underflows to 0 below: each
    # restored law is a point mass a * m, on its own side of the threshold 0
    # for a > 0 and on the other for a < 0 (was a ZeroDivisionError)
    model = RestorationModel(GaussianMixture2(0.5, 0.5, -1.0, 1.0, 1e-300, 1e-300), 0.0, 0.0)
    assert error_rate_of_gain(model, a) == rate


def test_kl_of_146_gains_at_high_noise_is_finite_and_nonnegative():
    kl = kl_of_gains(default_model(sigma_n=5.0), GRID)
    assert np.all(np.isfinite(kl)) and np.all(kl >= 0.0)


def test_unequal_variance_kl_of_146_gains_holds_under_5_mb():
    # 13 pieces of 48 nodes per element of the quadratic rule: about 3.2 MB
    model = RestorationModel(GaussianMixture2(0.4, 0.6, -1.0, 2.0, 0.5, 1.5), 0.7, 0.0)
    kl_of_gains(model, GRID[:1])  # builds the cached node table
    tracemalloc.start()
    try:
        kl_of_gains(model, GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def _counting_kernel(monkeypatch):
    sizes = []
    real = restoration.kl_of_gains

    def counted(model, gains):
        sizes.append(len(gains))
        return real(model, gains)

    monkeypatch.setattr(restoration, "kl_of_gains", counted)
    return sizes


def test_kl_of_no_gains_is_empty_without_a_kernel_call(monkeypatch):
    def kernel(*args, **kwargs):
        raise AssertionError("kernel called")

    monkeypatch.setattr(restoration, "_mean_softplus", kernel)
    monkeypatch.setattr(restoration, "_mean_softplus_quadratic", kernel)
    unequal = RestorationModel(GaussianMixture2(0.4, 0.6, -1.0, 2.0, 0.5, 1.5), 0.7, 0.0)
    for model in (MODEL, unequal):
        for gains in ([], np.array([])):
            kl = kl_of_gains(model, gains)
            assert kl.dtype == float and kl.shape == (0,)


def test_sweep_makes_one_kernel_call(monkeypatch):
    sizes = _counting_kernel(monkeypatch)
    sweep(MODEL, GRID)
    assert sizes == [146]


@pytest.mark.parametrize("bounds", [[0.8], [0.5, 0.7, 0.8, 1.0, 1.3], np.linspace(0.7, 1.6, 12)])
def test_kl_frontier_calls_do_not_grow_with_bounds(monkeypatch, bounds):
    sizes = _counting_kernel(monkeypatch)
    frontier(MODEL, "kl", "mse", bounds, grid_points=73)
    # the screen, nine one-gain Brent steps, at most one batch of clipped edges
    assert sizes[0] == 73 and sizes[1:10] == [1] * 9
    assert len(sizes) <= 1 + 9 + 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"bound_grid": [0.7, math.nan]},
        {"bound_grid": [0.7, math.inf]},
        {"bound_grid": [-math.inf, 0.7]},
        {"a_lo": math.nan},
        {"a_lo": -math.inf},
        {"a_hi": math.inf},
        {"a_hi": math.nan},
        {"grid_points": 0},
        {"grid_points": 1},
        {"grid_points": 2.5},
    ],
    ids=["nan-bound", "inf-bound", "minus-inf-bound", "nan-a_lo", "minus-inf-a_lo",
         "inf-a_hi", "nan-a_hi", "no-grid", "one-point-grid", "fractional-grid"],
)
def test_frontier_refuses_bad_inputs_up_front(monkeypatch, kwargs):
    sizes = _counting_kernel(monkeypatch)
    args = {"bound_grid": [0.7, 1.0], **kwargs}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as info:
            frontier(MODEL, "kl", "mse", **args)
    assert sizes == []  # before any work
    named = next(iter(kwargs))
    assert ("bound" if named == "bound_grid" else named) in str(info.value)


def test_binding_rows_sit_on_their_edge_and_free_rows_share_the_minimizer():
    pts = frontier(MODEL, "kl", "mse", [0.7, 0.8, 1.0, 1.3], grid_points=73)
    # mse = 3a^2 - 4a + 2 <= 0.7 on [(4 - sqrt(0.4)) / 6, (4 + sqrt(0.4)) / 6],
    # below the KL minimizer near 0.81: the bound binds at the upper edge
    edge = (4.0 + math.sqrt(0.4)) / 6.0
    bound = pts[0]
    assert abs(bound.gain - edge) <= 1e-10 and mse_of_gain(MODEL, bound.gain) <= 0.7 + 1e-12
    assert bound.value == kl_of_gain(MODEL, bound.gain)
    free = {(p.gain, p.value) for p in pts[1:]}
    assert len(free) == 1
    (a_star, v_star), = free
    assert v_star == kl_of_gain(MODEL, a_star) < bound.value


# float.hex of (gain, value) of each row of a frontier constrained by KL, at
# bounds 0.005 (below the least KL, so infeasible), 0.02, 0.05, 0.1, 0.3
# and 1.0 on a 73-point screen, recorded before the trims lost their
# lockstep bisection
_KL_BOUNDS = [0.005, 0.02, 0.05, 0.1, 0.3, 1.0]
_KL_FRONTIER_BITS = {
    "mse": [
        None,
        ("0x1.7519885eb60b6p-1", "0x1.5b3efd6d0644cp-1"),
        ("0x1.599f1d3ed27d1p-1", "0x1.5570ea99b61c8p-1"),
        ("0x1.5555555555540p-1", "0x1.5555555555556p-1"),
        ("0x1.5555555555540p-1", "0x1.5555555555556p-1"),
        ("0x1.5555555555540p-1", "0x1.5555555555556p-1"),
    ],
    "error_rate": [
        None,
        ("0x1.7519885eb60b6p-1", "0x1.a88dc4a0a5a48p-3"),
        ("0x1.599f1d3ed27d1p-1", "0x1.a66fa1f8c9848p-3"),
        ("0x1.40510c02c71c8p-1", "0x1.a4a423dc08af3p-3"),
        ("0x1.0f01f06fc16c1p-1", "0x1.a239767e3ff6cp-3"),
        ("0x1.ffffffece86a7p-2", "0x1.a20844be4f032p-3"),
    ],
}


@pytest.mark.parametrize("objective", list(_KL_FRONTIER_BITS))
def test_kl_constrained_frontier_keeps_its_bits(objective):
    pts = frontier(MODEL, objective, "kl", _KL_BOUNDS, grid_points=73)
    got = [(float.hex(p.gain), float.hex(p.value)) if p.feasible else None for p in pts]
    assert got == _KL_FRONTIER_BITS[objective]
    for p in pts[1:]:
        assert kl_of_gain(MODEL, p.gain) <= p.bound + 1e-12


def test_kl_constrained_frontier_bisects_only_ends_beyond_the_minimizer(monkeypatch):
    # a row is clip(a*, l, h): only the runs of the two lowest feasible
    # bounds start above a* = 2/3, and each is trimmed at its lower end alone
    calls = []
    real = restoration.bisect_predicate

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(restoration, "bisect_predicate", counted)
    pts = frontier(MODEL, "mse", "kl", _KL_BOUNDS, grid_points=146)
    assert len(calls) <= 2 and all(lo > 0.0 for lo, _ in calls)  # not mirrored
    assert [p.feasible for p in pts] == [False] + [True] * 5


def test_noise_free_kl_mse_frontier_collapses_exactly():
    pts = frontier(default_model(sigma_n=0.0), "kl", "mse", [0.1, 0.5, 1.0], grid_points=73)
    values = [p.value for p in pts]
    assert all(p.feasible for p in pts)
    assert max(values) - min(values) == 0.0
    assert abs(pts[0].gain - 1.0) <= 1e-8 and values[0] <= 1e-12


def test_frontier_refuses_an_objective_that_is_not_unimodal(monkeypatch):
    real = restoration._metric_fn

    def metric(model, name):
        if name == "kl":
            return lambda a: np.cos(8.0 * np.asarray(a))  # two minima on [0.05, 1.5]
        return real(model, name)

    monkeypatch.setattr(restoration, "_metric_fn", metric)
    with pytest.raises(DomainError, match="unimodal"):
        frontier(MODEL, "kl", "mse", [0.8, 1.0], grid_points=73)


def test_frontier_loads_no_scipy():
    code = (
        "import sys, rdpc; "
        "rdpc.frontier(rdpc.default_model(), 'kl', 'mse', [0.7, 1.0], grid_points=20); "
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(restoration.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.split() == ["False"]


@pytest.mark.parametrize("a_lo, a_hi, end", [(1.0, 1.5, 1.0), (0.1, 0.5, 0.5)])
def test_frontier_finds_a_minimum_on_the_range_end(a_lo, a_hi, end):
    # MSE is least at a = 2/3, outside both ranges; the loose bound leaves
    # the whole range feasible, so the row is the range's end itself
    (row,) = frontier(MODEL, "mse", "error_rate", [0.5], a_lo=a_lo, a_hi=a_hi, grid_points=11)
    assert (row.gain, row.value) == (end, mse_of_gain(MODEL, end))


def test_error_rate_with_the_larger_mean_first_is_the_swapped_mixture_s():
    model = RestorationModel(GaussianMixture2(0.7, 0.3, 1.0, -1.0, 1.0, 2.0), 0.5, 0.1)
    swapped = RestorationModel(GaussianMixture2(0.3, 0.7, -1.0, 1.0, 2.0, 1.0), 0.5, 0.1)
    for a in (0.3, 0.8, 1.2, -0.5):
        assert error_rate_of_gain(model, a).hex() == error_rate_of_gain(swapped, a).hex()


def test_kl_frontier_under_mse_bounds_below_the_grid_s_is_infeasible():
    rows = frontier(default_model(), "kl", "mse", [0.01, 0.02], grid_points=20)
    assert [(r.bound, r.feasible) for r in rows] == [(0.01, False), (0.02, False)]
    assert all(math.isnan(r.value) and math.isnan(r.gain) for r in rows)
