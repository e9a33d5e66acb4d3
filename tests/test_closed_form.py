"""Closed-form tradeoff functions against hand-frozen anchors and their
own achievability witnesses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdpc import (
    BinaryChannel,
    BinaryPairSource,
    DomainError,
    GaussianPairSource,
    Region,
    TradeoffPoint,
    Unit,
    binary_channel_stats,
    gaussian_recon_stats,
    rdc_binary,
    rdc_gaussian,
    rpc_binary,
    rpc_gaussian,
)
from rdpc.closed_form import _line_entropy, _rdc_binary_rates, _rdc_gaussian_rates
from rdpc.entropy import binary_entropy

SRC = BinaryPairSource(a=0.3, p1=0.1)
GSRC = GaussianPairSource(0.0, 0.0, 1.0, 0.49, 0.63)
H_S = 1.06226358926594


# ---------------------------------------------------------------------------
# binary, distortion + classification
# ---------------------------------------------------------------------------

def test_rdc_binary_distortion_branch():
    pt = rdc_binary(SRC, 0.1, 0.85)
    assert pt.feasible
    assert pt.region is Region.DISTORTION_LIMITED
    assert pt.unit is Unit.BITS
    assert pt.rate == pytest.approx(0.342282530869852, abs=1e-12)


def test_rdc_binary_classification_branch():
    pt = rdc_binary(SRC, 0.3, 0.6)
    assert pt.region is Region.CLASSIFICATION_LIMITED
    assert pt.rate == pytest.approx(0.493322008226834, abs=1e-12)


def test_rdc_binary_tie_is_classification():
    c1 = (0.146102403411887 - 0.1) / 0.8  # distortion equivalent of C=0.6
    tied = rdc_binary(SRC, c1, 0.6)
    assert tied.region is Region.CLASSIFICATION_LIMITED
    assert tied.rate == pytest.approx(rdc_binary(SRC, c1 + 1e-9, 0.6).rate, abs=1e-6)


def test_rdc_binary_zero_rate_and_infeasible():
    free = rdc_binary(SRC, 0.3, 1.0)
    assert free.region is Region.ZERO_RATE
    assert free.rate == 0.0

    dead = rdc_binary(SRC, 0.3, 0.4)  # below H(p1) = 0.469
    assert not dead.feasible
    assert dead.region is Region.INFEASIBLE
    assert math.isnan(dead.rate)


def test_rdc_binary_witness_meets_bounds():
    for d, c in [(0.1, 0.85), (0.3, 0.6), (0.02, 0.95), (0.25, 0.5)]:
        pt = rdc_binary(SRC, d, c)
        stats = binary_channel_stats(SRC, pt.witness)
        assert stats.distortion <= d + 1e-12
        assert stats.cond_entropy_s <= c + 1e-9
        assert stats.mutual_info == pytest.approx(pt.rate, abs=1e-9)


@pytest.mark.parametrize("k", range(6, 13))
def test_rdc_binary_witness_at_the_marginal_near_one_half(k):
    # d = b with b near 1/2: (1 - eps - b) / (1 - 2 eps) rounds past 1
    # (1 + 2.8e-8 at k = 9); the clamped weight is the exact one
    src = BinaryPairSource(0.5 - 10.0**-k, 0.0)
    pt = rdc_binary(src, src.b, 1.0)
    assert pt.feasible
    stats = binary_channel_stats(src, pt.witness)
    assert stats.distortion <= src.b
    assert stats.mutual_info == pytest.approx(pt.rate, abs=1e-9)


def test_rdc_binary_rejects_negative_distortion():
    with pytest.raises(DomainError):
        rdc_binary(SRC, -0.05, 0.8)


@settings(max_examples=60)
@given(
    st.floats(min_value=0.0, max_value=0.6),
    st.floats(min_value=0.0, max_value=0.6),
    st.floats(min_value=0.47, max_value=1.0),
)
def test_rdc_binary_monotone_in_d(d1, d2, c):
    lo, hi = sorted((d1, d2))
    assert rdc_binary(SRC, hi, c).rate <= rdc_binary(SRC, lo, c).rate + 1e-12


@settings(max_examples=60)
@given(
    st.floats(min_value=0.47, max_value=1.0),
    st.floats(min_value=0.47, max_value=1.0),
    st.floats(min_value=0.0, max_value=0.6),
)
def test_rdc_binary_monotone_in_c(c1, c2, d):
    lo, hi = sorted((c1, c2))
    assert rdc_binary(SRC, d, hi).rate <= rdc_binary(SRC, d, lo).rate + 1e-12


# ---------------------------------------------------------------------------
# binary, perception + classification
# ---------------------------------------------------------------------------

def test_rpc_binary_ignores_perception_bound():
    rates = {rpc_binary(SRC, p, 0.6).rate for p in (0.0, 0.01, 0.05, 0.49)}
    assert len(rates) == 1
    assert rates.pop() == pytest.approx(0.493322008226834, abs=1e-12)


def test_rpc_binary_regions():
    assert rpc_binary(SRC, 0.1, 0.9).region is Region.ZERO_RATE
    assert rpc_binary(SRC, 0.1, 0.6).region is Region.CLASSIFICATION_LIMITED
    assert rpc_binary(SRC, 0.1, 0.4).region is Region.INFEASIBLE
    with pytest.raises(DomainError):
        rpc_binary(SRC, -0.01, 0.6)


def test_rpc_binary_zero_rate_witness_is_constantly_biased():
    pt = rpc_binary(SRC, 0.2, 0.95)
    stats = binary_channel_stats(SRC, pt.witness)
    assert stats.mutual_info == pytest.approx(0.0, abs=1e-12)
    assert stats.cond_entropy_s <= 0.95 + 1e-9


@pytest.mark.parametrize("c", [SRC.h_a, 1.0])
def test_rpc_binary_witness_at_and_above_h_a_is_the_constant_channel(c):
    assert rpc_binary(SRC, 0.0, c).witness == BinaryChannel(0.75, 0.75)


def test_rpc_binary_line_witness_pays_a_rate_premium():
    """The zero-divergence channel hits the classification level exactly
    but its mutual information sits strictly above the closed-form rate."""
    ch = rpc_binary(SRC, 0.0, 0.6).witness
    stats = binary_channel_stats(SRC, ch)
    assert stats.perception <= 1e-12
    assert stats.cond_entropy_s == pytest.approx(0.6, abs=1e-9)
    assert stats.mutual_info == pytest.approx(0.498469287691668, abs=1e-9)
    assert stats.mutual_info > rpc_binary(SRC, 0.0, 0.6).rate + 4e-3


def test_g_function_anchor():
    assert _line_entropy(SRC, 0.96) == pytest.approx(0.600637242235634, abs=1e-12)


def _four_atom_g(src, p_a):
    """H(S|Xhat) on the zero-divergence line as first written: the entropy
    of the four-atom joint of (S, Xhat) less H(b)."""
    b, p1 = src.b, src.p1
    one_b = 1.0 - b
    s = (1.0 - 2.0 * p1) * one_b * p_a
    atoms = [s + p1 * one_b, -s + p1 * b + one_b * (1.0 - 2.0 * p1),
             -s + (1.0 - p1) * one_b, s + (1.0 - p1) * b - one_b * (1.0 - 2.0 * p1)]
    total = 0.0
    for w in atoms:
        if w >= 1e-300:
            total -= w * math.log2(w)
    return total - binary_entropy(b)


def test_g_function_is_the_four_atom_formula():
    rng = np.random.default_rng(31)
    for a, frac in ((0.3, 1 / 3), (0.45, 0.44), (0.2, 0.0)):
        src = BinaryPairSource(a, a * frac)
        start = (1.0 - 2.0 * src.b) / (1.0 - src.b)
        for p_a in [start, 1.0, *rng.uniform(start, 1.0, 2_000).tolist()]:
            assert abs(_line_entropy(src, p_a) - _four_atom_g(src, p_a)) <= 4e-15


# float.hex of (p_a, p_b) of the P = 0 witness of rpc_binary, by ((a, p1), C)
_RPC_WITNESS_BITS = [
    ((0.3, 0.1), 0.6, ("0x1.eba2621e4ba00p-1", "0x1.e8c6cd28e9001p-4")),
    ((0.3, 0.1), 0.75, ("0x1.ca63189df3e00p-1", "0x1.41ad6c4c48c01p-2")),
    ((0.45, 0.2), 0.8, ("0x1.e073f57e9a200p-1", "0x1.6153a8dc74fffp-4")),
    ((0.2, 0.05), 0.5, ("0x1.e918d0e07d2aap-1", "0x1.ca0fae7638ab6p-3")),
    ((0.5, 0.3), 0.95, ("0x1.a784381e53a00p-1", "0x1.61ef1f86b1800p-3")),
    ((0.1, 0.01), 0.3, ("0x1.f07f2cb877924p-1", "0x1.329e8b86c3253p-2")),
]


@pytest.mark.parametrize("source, c, bits", _RPC_WITNESS_BITS)
def test_rpc_binary_witness_keeps_its_bits(source, c, bits):
    ch = rpc_binary(BinaryPairSource(*source), 0.0, c).witness
    assert (float.hex(ch.p_a), float.hex(ch.p_b)) == bits


@settings(derandomize=True, max_examples=200, deadline=None)
@given(a=st.floats(0.0, 0.5), share=st.floats(0.0, 0.98), t=st.floats(0.0, 1.0))
def test_rpc_binary_witness_has_zero_tv_and_meets_c(a, share, t):
    # below H(a) the witness lies on the zero-divergence line at H(S|Xhat) = C;
    # from H(a) up it is X's marginal, independent of X
    src = BinaryPairSource(a, a * share)
    c = src.floor_c + t * (src.h_a - src.floor_c)
    if c < src.h_a:
        stats = binary_channel_stats(src, rpc_binary(src, 0.0, c).witness)
        assert stats.perception <= 1e-12
        assert abs(stats.cond_entropy_s - c) <= 1e-9
    for c in (src.h_a, src.h_a + t * (1.0 - src.h_a)):
        assert rpc_binary(src, 0.0, c).witness == BinaryChannel(1.0 - src.b, 1.0 - src.b)


# ---------------------------------------------------------------------------
# Gaussian, distortion + classification
# ---------------------------------------------------------------------------

def test_rdc_gaussian_distortion_branch():
    pt = rdc_gaussian(GSRC, 0.1, H_S - 0.5)
    assert pt.unit is Unit.NATS
    assert pt.region is Region.DISTORTION_LIMITED
    assert pt.rate == pytest.approx(1.15129254649702, abs=1e-12)
    assert pt.rate == pytest.approx(0.5 * math.log(1.0 / 0.1), abs=1e-12)


def test_rdc_gaussian_classification_branch():
    pt = rdc_gaussian(GSRC, 0.5, H_S - 0.5)
    assert pt.region is Region.CLASSIFICATION_LIMITED
    assert pt.rate == pytest.approx(0.757964111816569, abs=1e-12)


def test_rdc_gaussian_boundary_distortion():
    # the region switches at d* = var_x (1 - k): the distortion constraint
    # binds just below it, the classification constraint just above
    d_star = 0.219604248359805
    assert rdc_gaussian(GSRC, d_star + 1e-6, H_S - 0.5).region is Region.CLASSIFICATION_LIMITED
    assert rdc_gaussian(GSRC, d_star - 1e-6, H_S - 0.5).region is Region.DISTORTION_LIMITED


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_gaussian_forms_at_huge_variances_answer_as_at_unit_scale(scale):
    unit = GaussianPairSource(0.0, 0.0, 1.0, 1.0, 0.1)
    src = GaussianPairSource(0.0, 0.0, scale, scale, 0.1 * scale)
    rdc = rdc_gaussian(src, 0.5 * scale, src.h_s - 0.004)
    rpc = rpc_gaussian(src, 0.1, src.h_s - 0.004)
    assert rdc.region is Region.CLASSIFICATION_LIMITED and rdc.witness is not None
    assert abs(rdc.rate - 0.7968032375) <= 1e-9 and abs(rpc.rate - 0.7968032375) <= 1e-9
    # the tilted witness keeps the source law and scales its covariance
    tilt = rpc_gaussian(unit, 0.1, unit.h_s - 0.004).witness.cov_xxh
    assert rpc.witness.var_xh == scale
    assert rpc.witness.cov_xxh / scale == pytest.approx(tilt, rel=1e-9)


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_gaussian_forms_and_their_witnesses_do_not_depend_on_the_scale(scale):
    """The distortion slack is relative to var_x, so a tiny source is not
    distortion-limited at every d below 1e-12; and the statistics take the
    correlation one deviation at a time where var_x * var_xh overflows, so
    a huge source's tilted witness certifies."""
    unit = GaussianPairSource(0.0, 0.0, 1.0, 1.0, 0.1)
    src = GaussianPairSource(0.0, 0.0, scale, scale, 0.1 * scale)
    d, p, c = 0.5 * scale, 0.5, src.h_s - 0.004
    for got, want in ((rdc_gaussian(src, d, c), rdc_gaussian(unit, 0.5, unit.h_s - 0.004)),
                      (rpc_gaussian(src, p, c), rpc_gaussian(unit, p, unit.h_s - 0.004))):
        assert got.region is want.region is Region.CLASSIFICATION_LIMITED
        assert abs(got.rate - want.rate) <= 1e-9
        stats = gaussian_recon_stats(src, got.witness)
        assert abs(stats.mutual_info - got.rate) <= 1e-9
        assert stats.cond_entropy_s - c <= 1e-9
        if got.d is not None:
            assert stats.distortion - d <= 1e-9 * scale
        else:
            assert stats.perception - p <= 1e-9


def test_rdc_gaussian_zero_rate_and_infeasible():
    free = rdc_gaussian(GSRC, 1.5, H_S + 0.1)
    assert free.region is Region.ZERO_RATE and free.rate == 0.0

    dead = rdc_gaussian(GSRC, 0.5, 0.2)  # floor is 0.2319
    assert not dead.feasible
    assert math.isnan(dead.rate)


def test_rdc_gaussian_witness_meets_bounds():
    for d, c in [(0.1, H_S - 0.5), (0.5, H_S - 0.5), (0.3, H_S - 0.2)]:
        pt = rdc_gaussian(GSRC, d, c)
        stats = gaussian_recon_stats(GSRC, pt.witness)
        assert stats.distortion <= d + 1e-9
        assert stats.cond_entropy_s <= c + 1e-9
        assert stats.mutual_info == pytest.approx(pt.rate, abs=1e-9)


# ---------------------------------------------------------------------------
# Gaussian, perception + classification
# ---------------------------------------------------------------------------

def test_rpc_gaussian_ignores_perception_bound():
    r1 = rpc_gaussian(GSRC, 1e-4, H_S - 0.5).rate
    r2 = rpc_gaussian(GSRC, 10.0, H_S - 0.5).rate
    assert r1 == r2 == pytest.approx(0.757964111816569, abs=1e-12)


def test_rpc_gaussian_witness_matches_source_law():
    wit = rpc_gaussian(GSRC, 0.0, H_S - 0.5).witness
    assert wit.mu_xh == 0.0
    assert wit.var_xh == 1.0
    assert wit.cov_xxh == pytest.approx(0.883400108467389, abs=1e-12)
    stats = gaussian_recon_stats(GSRC, wit)
    assert stats.perception <= 1e-12
    assert stats.cond_entropy_s == pytest.approx(H_S - 0.5, abs=1e-9)
    assert stats.mutual_info == pytest.approx(0.757964111816569, abs=1e-9)


def test_rpc_gaussian_regions():
    assert rpc_gaussian(GSRC, 0.1, H_S + 0.2).region is Region.ZERO_RATE
    assert rpc_gaussian(GSRC, 0.1, 0.2).region is Region.INFEASIBLE
    with pytest.raises(DomainError):
        rpc_gaussian(GSRC, -1.0, H_S - 0.2)


def test_rpc_gaussian_unit_correlation_rate_is_entropy_gap():
    # |rho| = 1 collapses the rate to h(S) - C exactly
    src = GaussianPairSource(0.0, 0.0, 1.0, 1.0, 1.0)
    c = src.h_s - 5.0
    assert rpc_gaussian(src, 0.5, c).rate == pytest.approx(5.0, abs=1e-12)


@settings(max_examples=60)
@given(
    st.floats(min_value=0.3, max_value=1.2),
    st.floats(min_value=0.3, max_value=1.2),
)
def test_rpc_gaussian_monotone_in_c(c1, c2):
    lo, hi = sorted((c1, c2))
    assert rpc_gaussian(GSRC, 0.1, hi).rate <= rpc_gaussian(GSRC, 0.1, lo).rate + 1e-12


# each refusal keyed by its test id, fixed when the case was added, so that
# removing a case renames no other
_NAN_BOUNDS = {
    "rdc_binary-args0":
        (rdc_binary, (SRC, math.nan, 0.6)),
    "rdc_binary-args1":
        (rdc_binary, (SRC, 0.1, math.nan)),
    "rpc_binary-args2":
        (rpc_binary, (SRC, math.nan, 0.6)),
    "rpc_binary-args3":
        (rpc_binary, (SRC, 0.1, math.nan)),
    "rdc_gaussian-args4":
        (rdc_gaussian, (GSRC, math.nan, H_S - 0.05)),
    "rdc_gaussian-args5":
        (rdc_gaussian, (GSRC, 0.5, math.nan)),
    "rpc_gaussian-args8":
        (rpc_gaussian, (GSRC, math.nan, H_S - 0.05)),
    "rpc_gaussian-args9":
        (rpc_gaussian, (GSRC, 0.1, math.nan)),
    "rpc_binary-args13":
        (rpc_binary, (SRC, -0.1, 0.6)),
    "_rdc_binary_rates-args14":
        (_rdc_binary_rates, (SRC, np.array([0.1, math.nan]), 0.6)),
    "_rdc_binary_rates-args15":
        (_rdc_binary_rates, (SRC, np.array([0.1, -0.1]), 0.6)),
    "_rdc_binary_rates-args16":
        (_rdc_binary_rates, (SRC, 0.1, np.array([0.6, math.nan]))),
    "_rdc_gaussian_rates-args17":
        (_rdc_gaussian_rates, (GSRC, np.array([0.5, math.nan]), H_S - 0.05)),
    "_rdc_gaussian_rates-args18":
        (_rdc_gaussian_rates, (GSRC, np.array([0.5, -0.5]), H_S - 0.05)),
    "_rdc_gaussian_rates-args19":
        (_rdc_gaussian_rates, (GSRC, 0.5, np.array([H_S, math.nan]))),
}


@pytest.mark.parametrize("solve, args", _NAN_BOUNDS.values(), ids=_NAN_BOUNDS)
def test_nan_bounds_are_refused(solve, args):
    with pytest.raises(DomainError):
        solve(*args)


def test_feasible_point_refuses_a_nan_rate():
    with pytest.raises(DomainError):
        TradeoffPoint(
            rate=math.nan, unit=Unit.NATS,
            region=Region.ZERO_RATE, c=0.1,
        )
    # exact reconstruction (D = 0) keeps its +inf sentinel
    assert rdc_gaussian(GSRC, 0.0, H_S).rate == math.inf


# ---------------------------------------------------------------------------
# array rate kernels against the scalar entry points
# ---------------------------------------------------------------------------

def _assert_kernel_matches(kernel, scalar, src, ds, cs):
    got = kernel(src, np.array(ds)[:, None], np.array(cs))
    assert got.shape == (len(ds), len(cs))
    for i, d in enumerate(ds):
        for j, c in enumerate(cs):
            want, rate = scalar(src, d, c).rate, float(got[i, j])
            assert math.isnan(rate) == math.isnan(want), (d, c, rate, want)
            assert math.isinf(rate) == math.isinf(want), (d, c, rate, want)
            if math.isfinite(want):
                assert abs(rate - want) <= 1e-9, (d, c, rate, want)


def test_rate_kernels_take_scalar_bounds():
    """A scalar d and c broadcast like one-element arrays, to a 0-d
    result with the same bits; array results keep their bits (pinned)."""
    for kernel, src, d, c in ((_rdc_binary_rates, SRC, 0.2, 0.6),
                              (_rdc_binary_rates, SRC, 0.0, 0.85),
                              (_rdc_gaussian_rates, GSRC, 0.3, H_S - 0.05)):
        got = kernel(src, d, c)
        assert got.shape == ()
        assert float(got).hex() == float(kernel(src, [d], [c])[0]).hex()
    got = _rdc_binary_rates(SRC, np.array([0.0, 0.05, 0.2, 0.4]),
                            np.array([[0.6], [0.85]]))
    assert [v.hex() for v in got.ravel().tolist()] == [
        "0x1.9f5fd8a9063e2p-1", "0x1.0cbd39700ced1p-1", "0x1.f929678eecd7fp-2",
        "0x1.f929678eecd7fp-2", "0x1.9f5fd8a9063e2p-1", "0x1.0cbd39700ced1p-1",
        "0x1.6dfa4bee84a80p-4", "0x1.a1ef077f49d80p-5",
    ]


_BOUNDS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(a=st.floats(0.01, 0.5), share=st.floats(0.0, 0.95), ds=_BOUNDS, cs=_BOUNDS)
def test_rdc_binary_rates_match_the_scalar_entry_point(a, share, ds, cs):
    src = BinaryPairSource(a, a * share)
    floor = binary_entropy(src.p1)
    # d = 0, the marginal and beyond; C at the floor, inside its slack, below
    # it, at H(S) and at 1 bit (with d = 1, the zero-rate corner)
    ds = [0.0, src.b, 1.0, *(0.7 * d for d in ds)]
    cs = [floor, floor - 5e-13, floor - 0.05, binary_entropy(a), 1.0, *(1.2 * c for c in cs)]
    _assert_kernel_matches(_rdc_binary_rates, rdc_binary, src, ds, cs)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    var_x=st.floats(0.05, 4.0), var_s=st.floats(0.05, 4.0), rho=st.floats(-0.99, 0.99),
    ds=_BOUNDS, cs=_BOUNDS,
)
def test_rdc_gaussian_rates_match_the_scalar_entry_point(var_x, var_s, rho, ds, cs):
    src = GaussianPairSource(0.0, 0.0, var_x, var_s, rho * math.sqrt(var_x * var_s))
    floor = src.floor_c
    # d = 0 (the +inf sentinel), var_x and beyond; C at the floor, inside its
    # slack, below it, at h(S) and above it (with d = 2 var_x, zero rate)
    ds = [0.0, var_x, 2.0 * var_x, *(5.0 * d for d in ds)]
    cs = [floor, floor - 5e-13, floor - 0.05, src.h_s, src.h_s + 0.5,
          *(floor - 0.2 + 2.0 * c for c in cs)]
    _assert_kernel_matches(_rdc_gaussian_rates, rdc_gaussian, src, ds, cs)


# ---------------------------------------------------------------------------
# every closed form switches feasibility at the source's floor_c
# ---------------------------------------------------------------------------

@settings(derandomize=True, max_examples=150, deadline=None)
@given(a=st.floats(0.0, 0.5), share=st.floats(0.0, 0.98),
       d=st.floats(0.0, 1.0), p=st.floats(0.0, 1.0))
def test_binary_forms_switch_feasibility_at_floor_c(a, share, d, p):
    src = BinaryPairSource(a, a * share)
    assert src.floor_c == binary_entropy(src.p1)
    for c, feasible in ((src.floor_c, True), (src.floor_c - 1e-9, False)):
        assert rdc_binary(src, d, c).feasible is feasible
        assert rpc_binary(src, p, c).feasible is feasible
        assert math.isnan(_rdc_binary_rates(src, [d], [c])[0]) is not feasible


@settings(derandomize=True, max_examples=150, deadline=None)
@given(var_x=st.floats(0.05, 4.0), var_s=st.floats(0.05, 4.0),
       rho=st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0)),
       d=st.floats(0.0, 5.0), p=st.floats(0.0, 2.0))
def test_gaussian_forms_switch_feasibility_at_floor_c(var_x, var_s, rho, d, p):
    src = GaussianPairSource(0.0, 0.0, var_x, var_s, rho * math.sqrt(var_x * var_s))
    if abs(rho) == 1.0:
        # the label is a function of the source: every C is reachable
        assert src.floor_c == -math.inf
    cases = [(src.floor_c, True)]
    if src.floor_c > -math.inf:
        cases.append((src.floor_c - 1e-9, False))
    for c, feasible in cases:
        assert rdc_gaussian(src, d, c).feasible is feasible
        pt = rpc_gaussian(src, p, c)
        assert pt.feasible is feasible
        assert (pt.witness is not None) is feasible
        assert math.isnan(_rdc_gaussian_rates(src, [d], [c])[0]) is not feasible
