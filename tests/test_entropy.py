import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdpc import (
    BinaryPairSource,
    DomainError,
    GaussianPairSource,
    binary_entropy,
    binary_entropy_inv,
    gaussian_diff_entropy,
    gaussian_kl,
    gaussian_recon_stats,
    rdc_binary,
)
from rdpc import entropy
from rdpc.closed_form import _c1
from rdpc.entropy import _std_normal_cdf
from rdpc.optimize import bisect_root
from rdpc.results import GaussianReconstruction


@pytest.mark.parametrize(
    "p, expected",
    [
        (0.0, 0.0),
        (1.0, 0.0),
        (0.5, 1.0),
        (0.25, 0.811278124459133),
        (0.1, 0.468995593589281),
        (0.3, 0.881290899230693),
    ],
)
def test_binary_entropy_anchors(p, expected):
    assert binary_entropy(p) == pytest.approx(expected, abs=1e-12)


def test_binary_entropy_symmetric():
    for p in (0.03, 0.2, 0.41):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-15)


def test_inverse_anchor():
    assert binary_entropy_inv(0.6) == pytest.approx(0.146102403411887, abs=1e-11)


@given(st.floats(min_value=1e-6, max_value=0.5))
def test_inverse_roundtrip(p):
    assert binary_entropy_inv(binary_entropy(p)) == pytest.approx(p, abs=1e-10)


def _bisect_root_inverse(h):
    # the bisection whose answer the Newton estimate and certificate give
    if h == 0.0:
        return 0.0
    if h == 1.0:
        return 0.5
    return bisect_root(lambda p: binary_entropy(p) - h, 0.0, 0.5, xtol=1e-14)


def _grid_and_half_entropies(rng, entropy_of):
    """Entropies that test the certificate and its fallback, by the array
    entropy ``entropy_of``: H at random multiples k 2**-46 of the
    bisection's last bracket width (there F is 0 or within rounding of it)
    with their float neighbours, and H of points near 1/2, where H is too
    flat to certify."""
    grid = entropy_of(rng.integers(1, 2**45, 700) * 2.0**-46)
    half = entropy_of(0.5 - 10.0 ** -rng.uniform(1.0, 8.0, 300))
    return np.concatenate([grid, np.nextafter(grid, 0.0), np.nextafter(grid, 1.0), half])


def _margin_refused_entropies(rng, entropy_of):
    """Entropies whose roots only the certificate's margin refuses, by the
    array entropy ``entropy_of``: where two steps of W = 2**-46 move H by
    less than the margin, and, a little steeper, where one step does and
    the root sits a float away from a multiple of W, on either side."""
    on_grid = entropy_of(rng.integers(0.46 / 2**-46, 0.47 / 2**-46, 500) * 2.0**-46)
    return {
        "too flat": entropy_of(rng.uniform(0.48, 0.49, 500)),
        "below a grid point": np.nextafter(on_grid, 0.0),
        "above a grid point": np.nextafter(on_grid, 1.0),
    }


def test_inverse_is_bit_identical_to_bisect_root():
    rng = np.random.default_rng(20261018)
    hs = np.concatenate([
        rng.uniform(0.0, 1.0, 2000),
        10.0 ** rng.uniform(-300.0, 0.0, 2000),
        1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 2000),
        [0.0, 1.0, 5e-324, 1.0 - 1e-16],
        _grid_and_half_entropies(rng, np.vectorize(binary_entropy)),
    ])
    for h in hs.tolist():
        assert binary_entropy_inv(h) == _bisect_root_inverse(h), h


def test_array_entropy_takes_a_0d_input():
    """A 0-d x gives a 0-d result with the bits of the one-element call;
    array results keep their bits (pinned)."""
    x = np.array([0.0, 1e-300, 1e-12, 0.1, 0.3, 0.5, 0.9, 1.0])
    for v in (*x.tolist(), np.float64(0.3), np.array(0.7)):
        got = entropy._h2_bits_arr(v)
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert float(got).hex() == float(entropy._h2_bits_arr([v])[0]).hex()
    assert [v.hex() for v in entropy._h2_bits_arr(x).tolist()] == [
        "-0x0.0p+0", "0x1.4db3639c84769p-987", "0x1.6b5464b1eec73p-35",
        "0x1.e0406181bc7cep-2", "0x1.c3388f8ceaa0ap-1", "0x1.0000000000000p+0",
        "0x1.e0406181bc7ccp-2", "-0x0.0p+0",
    ]


def test_inverse_certificate_refuses_what_only_its_margin_can(monkeypatch):
    fallback, calls = entropy.bisect_root, []
    monkeypatch.setattr(entropy, "bisect_root", lambda *a, **k: calls.append(a) or fallback(*a, **k))
    rng = np.random.default_rng(20261021)
    for kind, hs in _margin_refused_entropies(rng, np.vectorize(binary_entropy)).items():
        del calls[:]
        for h in hs.tolist():
            assert binary_entropy_inv.__wrapped__(h) == _bisect_root_inverse(h), h
        assert len(calls) == hs.size, kind


@pytest.mark.parametrize("h", [5e-324, 1e-320, 1e-310])
def test_inverse_of_a_subnormal_entropy_is_near_zero(h):
    # -h times a midpoint's entropy underflows to -0.0 here, so a product
    # sign test would walk the bracket the wrong way
    for p in (binary_entropy_inv(h), float(entropy._binary_entropy_inv_arr(np.array([h]))[0])):
        assert 0.0 <= p <= 1e-14
        assert binary_entropy(p) <= 1e-12


@pytest.mark.parametrize("h", [math.nan, -0.01, 1.01, -math.inf, math.inf])
def test_inverse_rejects_every_time_and_caches_no_error(h):
    before = binary_entropy_inv.cache_info().currsize
    for _ in range(3):
        with pytest.raises(DomainError):
            binary_entropy_inv(h)
    assert binary_entropy_inv.cache_info().currsize == before


def test_array_inverse_follows_the_scalar_bisection():
    rng = np.random.default_rng(20261019)
    hs = np.concatenate([
        rng.uniform(0.0, 0.999, 3000),
        10.0 ** rng.uniform(-300.0, 0.0, 1000),
        [0.0, 1.0, 5e-324, 0.5],
    ])
    got = entropy._binary_entropy_inv_arr(hs.reshape(4, -1)).ravel()
    want = np.array([binary_entropy_inv(h) for h in hs.tolist()])
    assert np.max(np.abs(got - want)) <= 1e-14
    assert got[-4:-2].tolist() == [0.0, 0.5]
    # near h = 1 the root is flat, and a last-bit difference between numpy's
    # and math's log2 moves the midpoint further; both land on the same entropy
    near_one = 1.0 - 10.0 ** -rng.uniform(3.0, 16.0, 1000)
    got = entropy._binary_entropy_inv_arr(near_one)
    want = np.array([binary_entropy_inv(h) for h in near_one.tolist()])
    assert np.max(np.abs(entropy._h2_bits_arr(got) - entropy._h2_bits_arr(want))) <= 1e-15


def _lockstep_bisection(h):
    """The array inverse as the 46-step bisection in lockstep that it
    replaces, with numpy's log2: the reference its answers must equal."""
    lo, hi = np.zeros_like(h), np.full_like(h, 0.5)
    for step in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 ** (step + 2) < 1e-14:
            break
        rest = 1.0 - mid
        fmid = -(mid * np.log2(mid)) - rest * np.log2(rest) - h
        up = fmid > 0.0
        hi = np.where(up | (fmid == 0.0), mid, hi)
        lo = np.where(up, lo, mid)
    return np.where(h == 0.0, 0.0, np.where(h == 1.0, 0.5, mid))


def test_array_inverse_is_bit_identical_to_the_lockstep_bisection(monkeypatch):
    fallback = entropy._bisect_inv_arr
    sizes, ones = [], []

    def counted(h):
        sizes.append(h.size)
        ones.append(int(np.count_nonzero(h == 1.0)))
        return fallback(h)

    monkeypatch.setattr(entropy, "_bisect_inv_arr", counted)
    rng = np.random.default_rng(20261020)
    kinds = {
        "uniform": rng.uniform(0.0, 1.0, 30_000),
        "log-uniform": 10.0 ** rng.uniform(-300.0, 0.0, 10_000),
        "near 1": 1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 2000),
        "subnormal": rng.uniform(0.0, 2.0**-1022, 1000),
        "grid and near 1/2": _grid_and_half_entropies(rng, entropy._h2_bits_arr),
        "all ones": np.ones(1000),
        # as the convexity suite's clipped C grid: ones among other entropies
        "ones and uniform": np.where(rng.uniform(size=2000) < 0.1, 1.0,
                                     rng.uniform(0.0, 1.0, 2000)),
    }
    refused = _margin_refused_entropies(rng, entropy._h2_bits_arr)
    kinds |= refused
    fell_back = {}
    for kind, hs in kinds.items():
        del sizes[:]
        got = entropy._binary_entropy_inv_arr(hs.reshape(2, -1))
        assert got.shape == (2, hs.size // 2)
        assert np.array_equal(got.ravel(), _lockstep_bisection(hs)), kind
        fell_back[kind] = sum(sizes)
    total = sum(hs.size for hs in kinds.values())
    assert 0 < sum(fell_back.values()) < total / 2, fell_back
    assert fell_back["uniform"] < 0.02 * kinds["uniform"].size
    assert fell_back["log-uniform"] < 0.02 * kinds["log-uniform"].size
    assert all(fell_back[kind] == hs.size for kind, hs in refused.items()), fell_back
    # h = 1 is answered before the fallback, which sees none of them
    assert fell_back["all ones"] == 0 and sum(ones) == 0, (fell_back, ones)
    for h in (0.0, 1.0, 5e-324, 0.3, 1.0 - 1e-16):
        got = entropy._binary_entropy_inv_arr(np.float64(h))
        assert got.shape == () and got == _lockstep_bisection(np.array(h)), h
    for empty in (np.zeros(0), np.zeros((0, 3))):
        assert entropy._binary_entropy_inv_arr(empty).shape == empty.shape


def test_array_inverse_memory_stays_flat():
    # the 46-step bisection held about 5.6 MiB for 100k elements; the
    # certified inverse works in slices and must not need more than 6 MiB
    hs = np.random.default_rng(3).uniform(0.0, 1.0, 100_000)
    tracemalloc.start()
    try:
        entropy._binary_entropy_inv_arr(hs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


@pytest.mark.parametrize("h", [math.nan, -0.01, 1.01, -math.inf, math.inf])
def test_array_inverse_rejects_out_of_range(h):
    with pytest.raises(DomainError):
        entropy._binary_entropy_inv_arr(np.array([0.3, h, 0.6]))


def test_inverse_cache_serves_repeated_surfaces_and_stays_bounded():
    binary_entropy_inv.cache_clear()
    src = BinaryPairSource(a=0.3, p1=0.1)
    ds = np.linspace(0.0, 0.3, 20).tolist()
    cs = np.linspace(binary_entropy(0.1), 1.0, 20).tolist()
    first = [rdc_binary(src, d, c).rate for d in ds for c in cs]
    info = binary_entropy_inv.cache_info()
    assert info.misses <= len(cs) and info.hits > 0
    assert [rdc_binary(src, d, c).rate for d in ds for c in cs] == first
    again = binary_entropy_inv.cache_info()
    assert again.misses == info.misses and again.hits > info.hits
    for h in np.linspace(0.01, 0.99, 300).tolist():
        binary_entropy_inv(h)
    assert binary_entropy_inv.cache_info().currsize == 256


def test_convolution_edges():
    # the label noise p1 convolved with the classification-tight crossover
    # c1 lands on the entropy inverse of C: p1 at the floor C = H(p1), 1/2
    # at C = 1, and the inverse-entropy anchor at C = 0.6
    src = BinaryPairSource(0.3, 0.1)
    for c, expected in ((src.floor_c, 0.1), (1.0, 0.5), (0.6, 0.146102403411887)):
        c1 = _c1(src, c)
        assert 0.1 * (1.0 - c1) + c1 * (1.0 - 0.1) == pytest.approx(expected, abs=1e-12)


def test_gaussian_entropy_values():
    assert gaussian_diff_entropy(0.49) == pytest.approx(1.06226358926594, abs=1e-12)
    assert gaussian_diff_entropy(1.0 / (2 * math.pi * math.e)) == pytest.approx(
        0.0, abs=1e-14
    )


def test_gaussian_kl_matches_formula():
    assert gaussian_kl(0.0, 1.0, 0.0, 1.0) == 0.0
    expected = 0.5 * (math.log(1.21) + 0.09 / 1.21 + (1.0 - 1.21) / 1.21)
    assert gaussian_kl(0.0, 1.0, 0.3, 1.21) == pytest.approx(expected, rel=1e-14)


def test_gaussian_kl_refuses_an_overflowing_mean_shift():
    with pytest.raises(DomainError):
        gaussian_kl(0.0, 1.0, 1e200, 1.0)
    # just inside the float range the formula is unchanged
    shift = 1e153
    assert gaussian_kl(0.0, 1.0, shift, 1.0) == (
        0.5 * math.log(1.0) + shift**2 / 2.0 + 0.0 / 2.0
    )


def test_gaussian_kl_whose_variance_ratio_underflows_is_inf():
    # var2 / var1 underflows to 0: each variance takes its own log
    assert gaussian_kl(0.0, 1e150, 0.0, 8.3917e-320) == math.inf
    stats = gaussian_recon_stats(GaussianPairSource(0.0, 0.0, 1e150, 1.0, 0.0),
                                 GaussianReconstruction(0.0, 8.3917e-320, 5e-324))
    assert stats.perception == math.inf


@pytest.mark.parametrize("var1, var2, expected", [
    (1.0, 1e308, 354.0981043210830),  # 2 var2 overflows
    (1e-300, 1e300, 690.2755278982137),  # var2 / var1 overflows
    (1e-320, 1e300, 713.3013843945938),
])
def test_gaussian_kl_at_extreme_variance_ratios(var1, var2, expected):
    assert gaussian_kl(0.0, var1, 0.0, var2) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("args", [
    (math.nan, 1.0, 0.0, 1.0), (0.0, 1.0, 0.0, math.inf), (0.0, math.nan, 0.0, 1.0),
    (math.inf, 1.0, 0.0, 1.0), (0.0, 1.0, -math.inf, 1.0), (0.0, math.inf, 0.0, 1.0),
])
def test_gaussian_kl_refuses_non_finite_inputs(args):
    with pytest.raises(DomainError):
        gaussian_kl(*args)


@pytest.mark.parametrize("variance", [math.nan, math.inf, -math.inf])
def test_gaussian_entropy_refuses_non_finite_variances(variance):
    with pytest.raises(DomainError):
        gaussian_diff_entropy(variance)


def test_gaussian_kl_and_entropy_keep_their_bits_on_finite_inputs():
    assert float.hex(gaussian_kl(0.0, 1.0, 0.3, 1.21)) == "0x1.7690ed09ea2b8p-5"
    assert float.hex(gaussian_kl(-2.5, 1e-3, 4.0, 7.0)) == "0x1.bc76f809e179dp+2"
    assert float.hex(gaussian_diff_entropy(0.49)) == "0x1.0ff081afa0f87p+0"
    assert float.hex(gaussian_diff_entropy(5e-324)) == "-0x1.72cdad8ab7744p+8"


def test_std_normal_cdf():
    assert _std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert _std_normal_cdf(-1.30624) == pytest.approx(
        0.0957354770076356, abs=1e-12
    )
    assert _std_normal_cdf(3.0) + _std_normal_cdf(-3.0) == pytest.approx(
        1.0, abs=1e-15
    )


def test_domain_rejections():
    with pytest.raises(DomainError):
        binary_entropy(-0.01)
    with pytest.raises(DomainError):
        binary_entropy_inv(1.01)
    with pytest.raises(DomainError):
        gaussian_diff_entropy(0.0)
    with pytest.raises(DomainError):
        gaussian_kl(0.0, -1.0, 0.0, 1.0)


def test_softplus_rules_are_the_gauss_rules():
    # built by Newton on the recurrences; numpy.polynomial solves eigenproblems
    from numpy.polynomial.hermite_e import hermegauss
    from numpy.polynomial.legendre import leggauss

    h_x, h_w, t, l_w = entropy._softplus_rules()
    x, w = hermegauss(48)
    order = np.argsort(h_x)
    assert np.max(np.abs(h_x[order] - x)) <= 1e-13
    assert np.max(np.abs(h_w[order] / (w / w.sum()) - 1.0)) <= 1e-12
    x, w = leggauss(96)
    order = np.argsort(t)
    assert np.max(np.abs(t[order] - 20.0 * (x + 1.0))) <= 1e-13
    want = 20.0 * w * np.log1p(np.exp(-t[order]))
    assert np.max(np.abs(l_w[order] / want - 1.0)) <= 1e-11
    x, w = leggauss(48)
    p_x, p_w = entropy._panel_rule()
    order = np.argsort(p_x)
    assert np.max(np.abs(p_x[order] - x)) <= 1e-15
    assert np.max(np.abs(p_w[order] / (w / 2.0) - 1.0)) <= 1e-12
