import dataclasses
import math

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


@pytest.mark.parametrize("scale", [1e-200, 1e200, 1e300])
def test_gaussian_correlation_where_the_variance_product_is_not_normal(scale):
    # var_x var_s underflows or overflows: the bound takes each deviation alone
    assert abs(GaussianPairSource(0.0, 0.0, scale, scale, 0.1 * scale).rho - 0.1) <= 1e-15
    assert GaussianPairSource(0.0, 0.0, scale, scale, 0.0).rho == 0.0


def test_mixture_weight_validation():
    with pytest.raises(DomainError):
        GaussianMixture2(w1=0.8, m1=-1.0, v1=1.0, w2=0.3, m2=1.0, v2=1.0)


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
