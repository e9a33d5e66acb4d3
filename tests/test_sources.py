import dataclasses
import math
import warnings

import numpy as np
import pytest

from rdpc import (
    BinaryPairSource,
    DegenerateSourceError,
    DomainError,
    GaussianMixture2,
    GaussianPairSource,
)
from rdpc.entropy import binary_entropy, gaussian_diff_entropy
from rdpc.sources import mixture_density


def test_binary_marginal_and_entropies():
    src = BinaryPairSource(a=0.3, p1=0.1)
    assert src.b == pytest.approx(0.25, abs=1e-15)
    assert binary_entropy(src.a) == pytest.approx(0.881290899230693, abs=1e-12)
    # the classification floor is H(p1)
    assert src.floor_c == pytest.approx(0.468995593589281, abs=1e-12)
    assert src.floor_c == binary_entropy(src.p1)


def test_binary_marginal_folding():
    # b = (a - p1) / (1 - 2 p1) never exceeds 1/2 in the admissible
    # regime, so no fold is needed: exactly 1/2 at a = 1/2, 0 at a = p1
    src = BinaryPairSource(a=0.5, p1=0.05)
    assert src.b == pytest.approx(0.5, abs=1e-15)
    assert src.b <= 0.5
    rng = np.random.default_rng(4)
    edges = [0.0, 0.05, 1 / 3, 0.49, math.nextafter(0.5, 0.0) - 1e-12]
    for p1 in [*edges, *rng.uniform(0.0, 0.5, 200)]:
        assert BinaryPairSource(0.5, p1).b == 0.5
        assert BinaryPairSource(p1, p1).b == 0.0
        for a in (math.nextafter(0.5, 0.0), *rng.uniform(p1, 0.5, 20)):
            assert 0.0 <= BinaryPairSource(a, p1).b <= 0.5


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
    assert src.floor_c == pytest.approx(0.231897985855115, abs=1e-12)
    # floor = h(S) + half the log residual variance share
    expected = src.h_s + 0.5 * math.log(1.0 - 0.81)
    assert src.floor_c == pytest.approx(expected, abs=1e-14)


def test_gaussian_fully_correlated_floor_is_minus_inf():
    src = GaussianPairSource(0.0, 0.0, 1.0, 1.0, 1.0)
    assert src.floor_c == -math.inf


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
def test_mixture_float_equals_the_array_element(mix):
    xs = np.concatenate([np.linspace(-40.0, 40.0, 4001), [-0.75, 0.0, 1e-9]])
    dens, logs = mix.density(xs), mix.log_density(xs)
    for x, d, log_d in zip(xs, dens, logs):
        for arg in (float(x), x):  # a Python float and an np.float64
            assert type(mix.density(arg)) is float
            assert type(mix.log_density(arg)) is float
            assert mix.density(arg) == d
            assert mix.log_density(arg) == log_d


@pytest.mark.parametrize("mix", MIXTURES)
def test_mixture_array_path_matches_float_path(mix):
    # densities stay above 1e-300 here, so relative error is meaningful
    xs = np.linspace(-20.0, 20.0, 4097)
    logs = np.array([_seed_log_density(mix, float(x)) for x in xs])
    np.testing.assert_allclose(mix.log_density(xs), logs, rtol=1e-15, atol=0.0)
    # The float formula squares with libm pow, which is one ulp off d*d on
    # about 0.1% of inputs; up to 2 ulps of the exponent t after the
    # division become a relative 2^-51 |t| after exp, on top of exp's own
    # last-bit disagreement, so the bound widens in the far tails.
    dens = np.array([_seed_density(mix, float(x)) for x in xs])
    t = np.maximum((xs - mix.m1) ** 2 / mix.v1, (xs - mix.m2) ** 2 / mix.v2) / 2
    gap = np.abs(mix.density(xs) - dens)
    assert np.all(gap <= (1e-15 + 2.0**-51 * t) * dens)
    assert np.all(gap[t <= 1.0] <= 1e-15 * dens[t <= 1.0])


MIX_FIELDS = ("w1", "w2", "m1", "m2", "v1", "v2")


@pytest.mark.parametrize("field", MIX_FIELDS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mixture_rejects_non_finite_fields(field, bad):
    args = dict(w1=0.7, w2=0.3, m1=-1.0, m2=1.0, v1=1.0, v2=1.0)
    args[field] = bad
    with pytest.raises(DomainError):
        GaussianMixture2(**args)


GAUSS_FIELDS = ("mu_x", "mu_s", "var_x", "var_s", "cov")


@pytest.mark.parametrize("field", GAUSS_FIELDS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gaussian_rejects_non_finite_fields(field, bad):
    args = dict(mu_x=0.0, mu_s=0.0, var_x=1.0, var_s=0.49, cov=0.63)
    args[field] = bad
    with pytest.raises(DomainError):
        GaussianPairSource(**args)


def _old_rho(src):
    r = src.cov / math.sqrt(src.var_s * src.var_x)
    return max(-1.0, min(1.0, r))


def _old_floor(src):
    """h(S) + 0.5 ln(1 - rho^2), -inf at |rho| = 1."""
    one_minus = 1.0 - src.rho * src.rho
    return 0.5 * math.log(one_minus) + src.h_s if one_minus > 0.0 else -math.inf


def _gaussian_sources(seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(200):
        var_x = float(10.0 ** rng.uniform(-3, 3))
        var_s = float(10.0 ** rng.uniform(-3, 3))
        bound = math.sqrt(var_x * var_s)
        cov = float(rng.uniform(-1.0, 1.0)) * bound
        out.append(GaussianPairSource(float(rng.normal()), 0.0, var_x, var_s, cov))
        # at and just past the Cauchy-Schwarz edge, where rho is clamped
        for scale in (1.0, 1.0 + 5e-13, -1.0, -(1.0 + 5e-13)):
            out.append(GaussianPairSource(0.0, 0.0, var_x, var_s, scale * bound))
    return out


def test_gaussian_constants_equal_the_property_formulas():
    clamped = 0
    for src in _gaussian_sources(seed=5):
        assert src.rho == _old_rho(src)
        assert src.h_s == gaussian_diff_entropy(src.var_s)
        assert src.floor_c == _old_floor(src)
        clamped += abs(src.cov / math.sqrt(src.var_s * src.var_x)) > 1.0
    assert clamped > 0
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = float(rng.uniform(0.0, 0.5))
        src = BinaryPairSource(a, a * float(rng.uniform(0.0, 1.0)))
        assert src.floor_c == binary_entropy(src.p1)


def test_gaussian_constants_follow_replace_and_stay_frozen():
    src = GaussianPairSource(0.0, 0.0, 1.0, 0.49, 0.63)
    moved = dataclasses.replace(src, var_s=2.0, cov=-0.5)
    assert moved.rho == _old_rho(moved) and moved.rho != src.rho
    assert moved.h_s == gaussian_diff_entropy(2.0)
    assert moved.floor_c == _old_floor(moved) and moved.floor_c != src.floor_c
    for name in ("rho", "h_s", "floor_c"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(src, name, 0.5)
    # not fields: equality, hashing and repr see only the five parameters
    assert [f.name for f in dataclasses.fields(src)] == list(GAUSS_FIELDS)
    twin = GaussianPairSource(0.0, 0.0, 1.0, 0.49, 0.63)
    assert twin == src and hash(twin) == hash(src)
    assert repr(src) == (
        "GaussianPairSource(mu_x=0.0, mu_s=0.0, var_x=1.0, var_s=0.49, cov=0.63)"
    )
    # the binary source's floor likewise
    bsrc = BinaryPairSource(0.3, 0.1)
    moved = dataclasses.replace(bsrc, p1=0.2)
    assert moved.floor_c == binary_entropy(0.2) != bsrc.floor_c
    with pytest.raises(dataclasses.FrozenInstanceError):
        bsrc.floor_c = 0.5
    assert [f.name for f in dataclasses.fields(bsrc)] == ["a", "p1"]
    assert BinaryPairSource(0.3, 0.1) == bsrc and hash(BinaryPairSource(0.3, 0.1)) == hash(bsrc)
    assert repr(bsrc) == "BinaryPairSource(a=0.3, p1=0.1)"


HALVES = GaussianMixture2(0.5, 0.5, 0.0, 1.0, 1.0, 1.0)


def test_mixture_far_from_both_means_is_zero_density():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e200, -1e200, math.inf):
            assert HALVES.density(x) == 0.0
            assert HALVES.log_density(x) == -math.inf
        xs = np.array([1e200, -1e200, 0.3])
        dens, logs = HALVES.density(xs), HALVES.log_density(xs)
    assert dens[:2].tolist() == [0.0, 0.0]
    assert logs[:2].tolist() == [-math.inf, -math.inf]
    # in range, the array path keeps its bits
    assert dens[2] == HALVES.density(np.array([0.3]))[0]
    assert logs[2] == HALVES.log_density(np.array([0.3]))[0]


def test_mixture_far_component_is_a_zero_term():
    # a zero-weight component and a weighted one, each 1e200 from x
    for w2 in (0.0, 0.5):
        mix = GaussianMixture2(1.0 - w2, w2, 0.0, 1e200, 1.0, 1.0)
        for x in (0.0, 0.3, -2.0):
            near = float(np.exp(-0.5 * x**2)) / math.sqrt(2.0 * math.pi)
            assert mix.density(x) == (1.0 - w2) * near
            assert mix.log_density(x) == (
                math.log(1.0 - w2) - 0.5 * x**2 - 0.5 * math.log(2.0 * math.pi)
            )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(mix.log_density(np.array([0.0, 0.3]))))


def test_mixture_density_never_writes_its_inputs():
    # zero weights in each component, and points that reach overflow
    rng = np.random.default_rng(17)
    w1 = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 10)])
    x = rng.normal(0.0, 20.0, (w1.size, 301))
    x[:, :4] = [1e200, -1e200, math.inf, -math.inf]
    x.flags.writeable = False
    before = x.copy()
    for w in w1.tolist():
        mix = GaussianMixture2(w, 1.0 - w, *rng.normal(0.0, 3.0, 2), *rng.uniform(0.05, 4.0, 2))
        for log in (False, True):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                mixture_density(x, mix._comps, log=log)
    assert x.tobytes() == before.tobytes()
