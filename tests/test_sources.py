import math

import numpy as np
import pytest

from rdpc import (
    BinaryPairSource,
    DegenerateSourceError,
    DomainError,
    GaussianMixture2,
    GaussianPairSource,
    binary_derived,
    gaussian_derived,
)


def test_binary_marginal_and_entropies():
    src = BinaryPairSource(a=0.3, p1=0.1)
    assert src.marginal_x1 == pytest.approx(0.25, abs=1e-15)
    assert src.b == pytest.approx(0.25, abs=1e-15)
    derived = binary_derived(src)
    assert derived.h_a == pytest.approx(0.881290899230693, abs=1e-12)
    assert derived.h_p1 == pytest.approx(0.468995593589281, abs=1e-12)
    assert derived.feasibility_floor_c == derived.h_p1


def test_binary_marginal_folding():
    # raw P(X=1) above 1/2 folds onto the lower symmetric value
    src = BinaryPairSource(a=0.5, p1=0.05)
    assert src.marginal_x1 == pytest.approx(0.5, abs=1e-15)
    assert src.b <= 0.5


def test_binary_rejections():
    with pytest.raises(DomainError):
        BinaryPairSource(a=0.6, p1=0.1)
    with pytest.raises(DomainError):
        BinaryPairSource(a=0.1, p1=0.2)
    with pytest.raises(DegenerateSourceError):
        BinaryPairSource(a=0.5, p1=0.5)
    with pytest.raises(DomainError):
        BinaryPairSource(a=0.3, p1=-0.1)


def test_gaussian_derived_quantities():
    src = GaussianPairSource(0.0, 0.0, 1.0, 0.49, 0.63)
    assert src.rho == pytest.approx(0.9, abs=1e-15)
    assert src.h_s == pytest.approx(1.06226358926594, abs=1e-12)
    derived = gaussian_derived(src)
    assert derived.feasibility_floor_c == pytest.approx(
        0.231897985855115, abs=1e-12
    )
    # floor = h(S) + half the log residual variance share
    expected = src.h_s + 0.5 * math.log(1.0 - 0.81)
    assert derived.feasibility_floor_c == pytest.approx(expected, abs=1e-14)


def test_gaussian_fully_correlated_floor_is_minus_inf():
    src = GaussianPairSource(0.0, 0.0, 1.0, 1.0, 1.0)
    assert gaussian_derived(src).feasibility_floor_c == -math.inf


def test_gaussian_rejections():
    with pytest.raises(DomainError):
        GaussianPairSource(0.0, 0.0, 0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        GaussianPairSource(0.0, 0.0, 1.0, 1.0, 1.5)


def test_mixture_density_normalizes_and_logs_agree():
    mix = GaussianMixture2(w1=0.7, m1=-1.0, v1=1.0, w2=0.3, m2=1.0, v2=1.0)
    xs = [-3.0, -1.0, 0.0, 0.5, 2.0]
    for x in xs:
        dens = mix.density(x)
        assert dens > 0.0
        assert math.log(dens) == pytest.approx(mix.log_density(x), abs=1e-12)
    # trapezoid mass over a wide window
    lo, hi, n = -14.0, 14.0, 20001
    step = (hi - lo) / (n - 1)
    mass = sum(mix.density(lo + i * step) for i in range(n)) * step
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_mixture_weight_validation():
    with pytest.raises(DomainError):
        GaussianMixture2(w1=0.8, m1=-1.0, v1=1.0, w2=0.3, m2=1.0, v2=1.0)


MIXTURES = [
    GaussianMixture2(w1=0.7, m1=-1.0, v1=1.0, w2=0.3, m2=1.0, v2=1.0),
    GaussianMixture2(w1=0.2, m1=0.5, v1=3.5, w2=0.8, m2=-2.0, v2=1.3),
    GaussianMixture2(w1=1.0, m1=0.3, v1=2.0, w2=0.0, m2=4.0, v2=1.0),
]


def _seed_density(mix, x):
    d1 = math.exp(-0.5 * (x - mix.m1) ** 2 / mix.v1) / math.sqrt(
        2.0 * math.pi * mix.v1
    )
    d2 = math.exp(-0.5 * (x - mix.m2) ** 2 / mix.v2) / math.sqrt(
        2.0 * math.pi * mix.v2
    )
    return mix.w1 * d1 + mix.w2 * d2


def _seed_log_density(mix, x):
    parts = []
    for w, m, v in ((mix.w1, mix.m1, mix.v1), (mix.w2, mix.m2, mix.v2)):
        if w > 0.0:
            parts.append(
                math.log(w) - 0.5 * (x - m) ** 2 / v - 0.5 * math.log(2.0 * math.pi * v)
            )
    top = max(parts)
    i_top = parts.index(top)
    rest = sum(math.exp(t - top) for j, t in enumerate(parts) if j != i_top)
    return top + math.log1p(rest)


@pytest.mark.parametrize("mix", MIXTURES)
def test_mixture_float_path_is_the_math_formula(mix):
    xs = [float(x) for x in np.linspace(-40.0, 40.0, 4001)] + [-0.75, 0.0, 1e-9]
    # np.float64 is not an ndarray, so it takes the math path as well
    for x in xs + [np.float64(x) for x in xs]:
        assert type(mix.density(x)) is float
        assert mix.density(x) == _seed_density(mix, x)
        assert mix.log_density(x) == _seed_log_density(mix, x)


@pytest.mark.parametrize("mix", MIXTURES)
def test_mixture_array_path_matches_float_path(mix):
    # densities stay above 1e-300 here, so relative error is meaningful
    xs = np.linspace(-20.0, 20.0, 4097)
    logs = np.array([mix.log_density(float(x)) for x in xs])
    np.testing.assert_allclose(mix.log_density(xs), logs, rtol=1e-15, atol=0.0)
    # The float path squares with libm pow, which is one ulp off d*d on
    # about 0.1% of inputs; up to 2 ulps of the exponent t after the
    # division become a relative 2^-51 |t| after exp, on top of exp's own
    # last-bit disagreement, so the bound widens in the far tails.
    dens = np.array([mix.density(float(x)) for x in xs])
    t = np.maximum((xs - mix.m1) ** 2 / mix.v1, (xs - mix.m2) ** 2 / mix.v2) / 2
    gap = np.abs(mix.density(xs) - dens)
    assert np.all(gap <= (1e-15 + 2.0**-51 * t) * dens)
    assert np.all(gap[t <= 1.0] <= 1e-15 * dens[t <= 1.0])
