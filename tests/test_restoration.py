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
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import rdpc.restoration as restoration
from rdpc import (
    DomainError,
    GaussianMixture2,
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
    scaled_mixture,
    sweep,
)

MODEL = default_model()
BAYES_ERROR = 0.204117333467254  # min over thresholds, invariant under gain


def test_clean_bayes_threshold():
    assert MODEL.threshold_c0 == pytest.approx(math.log(7.0 / 3.0) / 2.0, abs=1e-12)
    assert MODEL.threshold_c0 == pytest.approx(0.423648930193602, abs=1e-12)


def test_symmetric_mixture_threshold_is_zero():
    mix = GaussianMixture2(w1=0.5, w2=0.5, m1=-1.0, m2=1.0, v1=1.0, v2=1.0)
    assert bayes_threshold_clean(mix) == pytest.approx(0.0, abs=1e-12)


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
    assert scaled_mixture(MODEL, 0.5).second_moment() == pytest.approx(
        0.75, abs=1e-12
    )


def test_domain_rejections():
    with pytest.raises(DomainError):
        kl_of_gain(MODEL, 0.0)
    with pytest.raises(DomainError):
        error_rate_reoptimized(MODEL, -0.1)
    with pytest.raises(DomainError):
        scaled_mixture(MODEL, 0.0)
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


def _quad_kl(model, a, epsrel=0.0):
    """Reference: KL(clean || restored) by scipy's quad on scalar log
    densities, over the union of both laws' 12-sd supports, split at the
    four component means and at the restored support's ends, so a
    restored law far narrower than the range is not missed."""
    clean, restored = model.mixture, scaled_mixture(model, a)
    lo = min(clean.support_12sd()[0], restored.support_12sd()[0])
    hi = max(clean.support_12sd()[1], restored.support_12sd()[1])

    def integrand(x):
        lp = _log_mixture(clean, x)
        return math.exp(lp) * (lp - _log_mixture(restored, x))

    marks = sorted({clean.m1, clean.m2, restored.m1, restored.m2, *restored.support_12sd()}
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
    # the restored law is about 4e-4 wide on a range about 43 wide: it sits
    # far inside one 0.25-wide panel of the clean laws' u range, where the
    # breakpoint ladders of the softplus rule resolve it
    mix = GaussianMixture2(0.50196, 0.49804, 0.34314, 0.63670, 2.31200, 3.23738)
    kl = kl_of_gain(RestorationModel(mix, 2.0, 0.0), -2.07e-4)
    # scipy's quad, split at the restored law's 12-sd ends, gives 4891745.881354319
    assert kl == pytest.approx(4891745.881354319, rel=1e-12)


# float.hex of kl_of_gains at gains -0.8, 0.3, 0.81 and 1.4 for the clean
# mixture GaussianMixture2(0.7, 0.3, -1, 1, 1, v2), by (v2, sigma_n): the
# unequal-variance path, the graded composite rule of
# _mean_softplus_quadratic
_UNEQUAL_KL_BITS = {
    (0.5, 0.0): ["0x1.daec7c2004e7ap-2", "0x1.c227c07c2376ap+2",
                 "0x1.52cc856ca2bc1p-4", "0x1.122be08aa5bd7p-3"],
    (0.5, 0.3): ["0x1.86fb14e0336d0p-2", "0x1.9012bd095520ap+2",
                 "0x1.dc829a90a6972p-5", "0x1.2e75074fc6674p-3"],
    (0.5, 1.0): ["0x1.4d33819e4188bp-3", "0x1.586e7ebaf9b29p+1",
                 "0x1.9f8481c1af6f3p-7", "0x1.133c950ed3052p-2"],
    (2.0, 0.0): ["0x1.7340b12c721ebp-2", "0x1.585153dabba9dp+2",
                 "0x1.1c2b04fdbb95cp-4", "0x1.d77be703ac5acp-4"],
    (2.0, 0.3): ["0x1.59dfddbadd681p-2", "0x1.41ecdcb8ff173p+2",
                 "0x1.b6f41f494bb86p-5", "0x1.02b4a1d7c7850p-3"],
    (2.0, 1.0): ["0x1.b33c89f12bc12p-3", "0x1.67b7bc3f48aa6p+1",
                 "0x1.56276316f3a5ap-7", "0x1.de5f03a3490e2p-3"],
    (4.0, 0.0): ["0x1.0bc584bb800f2p-1", "0x1.c15d6c2a3094ep+1",
                 "0x1.f84ec09f08306p-5", "0x1.c37e373dbe5c5p-4"],
    (4.0, 0.3): ["0x1.fe7e1efdb9ebcp-2", "0x1.b279b461fb2e6p+1",
                 "0x1.96611d22cad62p-5", "0x1.edfbd9748d2c6p-4"],
    (4.0, 1.0): ["0x1.56da5c889c655p-2", "0x1.3b0965747eb66p+1",
                 "0x1.0732c25644720p-6", "0x1.c6bad93409f80p-3"],
}


@pytest.mark.parametrize("v2, sigma_n", list(_UNEQUAL_KL_BITS))
def test_unequal_variance_kl_keeps_its_bits(v2, sigma_n):
    model = RestorationModel(GaussianMixture2(0.7, 0.3, -1.0, 1.0, 1.0, v2), sigma_n, 0.0)
    got = kl_of_gains(model, [-0.8, 0.3, 0.81, 1.4])
    assert [float.hex(x) for x in got.tolist()] == _UNEQUAL_KL_BITS[(v2, sigma_n)]


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
              scaled_mixture]
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


def _seed_monte_carlo_mse(model, a, n, seed):
    mix = model.mixture
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    remaining = n
    while remaining > 0:
        m = min(remaining, 2**18)
        pick1 = rng.random(m) < mix.w1
        z = rng.standard_normal(m)
        x = np.where(
            pick1,
            mix.m1 + math.sqrt(mix.v1) * z,
            mix.m2 + math.sqrt(mix.v2) * z,
        )
        noise = model.sigma_n * rng.standard_normal(m)
        err = (x - a * (x + noise)) ** 2
        total += float(err.sum())
        total_sq += float((err * err).sum())
        remaining -= m
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


_MC_MODELS = {
    "default": MODEL,
    "noise-free": default_model(sigma_n=0.0),
    "unequal-variance": RestorationModel(GaussianMixture2(0.4, 0.6, -1.0, 2.0, 0.5, 1.5), 0.7, 0.0),
    "zero-weight": RestorationModel(GaussianMixture2(0.0, 1.0, -1.0, 2.0, 0.5, 1.5), 1.0, 0.0),
}


# inside one chunk (at 2**16 too), the chunk's edge, two chunks, four
@pytest.mark.parametrize("n", [2, 10, 65_536, 65_537, 262_144, 262_145, 1_000_003])
def test_monte_carlo_is_bit_identical_to_seed_formula(n):
    # one draw for all gains: each pair keeps the bits of a draw of its
    # own, a repeated or negative gain too
    gains = (0.8, -0.3, 0.8)
    for model in _MC_MODELS.values():
        seed = {a: _seed_monte_carlo_mse(model, a, n, seed=5) for a in gains}
        assert monte_carlo_mses(model, gains, n, seed=5) == [seed[a] for a in gains]
        assert monte_carlo_mse(model, 0.8, n, seed=5) == seed[0.8]


def test_monte_carlo_keeps_its_bits_within_one_chunk():
    # recorded with 10**6-sample chunks: a draw that fits one chunk keeps them
    got = monte_carlo_mses(default_model(), (0.8, -0.3), 262_144, seed=5)
    assert [tuple(map(float.hex, pair)) for pair in got] == [
        ("0x1.723e53a7e7962p-1", "0x1.0573ba7218fbep-9"),
        ("0x1.baec32c7fa34ep+1", "0x1.11d17cb16532ap-7"),
    ]


GRID = np.linspace(0.05, 1.5, 146)


def test_monte_carlo_mses_of_no_gains_is_empty_without_a_draw(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew for no gains")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    assert monte_carlo_mses(MODEL, [], 1_000_000, seed=0) == []


def test_monte_carlo_mses_hold_one_chunk_whatever_the_gains():
    # three float64 rows and one int8 array of a chunk, plus the generator's
    # and numpy's small working buffers, however many gains share them
    chunk = 2**18
    peaks = []
    for gains in ([0.8], [0.5, 0.8]):
        tracemalloc.start()
        try:
            monte_carlo_mses(MODEL, gains, 1_000_003, seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert 3 * 8 * chunk <= peaks[0] <= 3 * 8 * chunk + chunk + 2**17
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


def test_kl_of_146_gains_at_high_noise_is_finite_and_nonnegative():
    kl = kl_of_gains(default_model(sigma_n=5.0), GRID)
    assert np.all(np.isfinite(kl)) and np.all(kl >= 0.0)


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
