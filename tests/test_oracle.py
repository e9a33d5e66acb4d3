import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdpc import (
    BinaryChannel,
    BinaryPairSource,
    DomainError,
    GaussianPairSource,
    GaussianReconstruction,
    binary_channel_stats,
    binary_min_rate,
    gaussian_min_rate,
    gaussian_recon_stats,
    mrs_gerber_check,
    rdc_binary,
    rdc_gaussian,
    rpc_binary,
    rpc_gaussian,
)
from rdpc import entropy, oracle, verify
from rdpc.entropy import (
    _h2_bits_arr,
    binary_entropy,
    binary_entropy_inv,
)
from rdpc.rpc_given_d import rate_given_pcd

SRC = BinaryPairSource(a=0.3, p1=0.1)
GSRC = GaussianPairSource(0.0, 0.0, 1.0, 0.49, 0.63)
H_S = 1.06226358926594
BOUND_SETS = (("D", "C"), ("P", "C"), ("D", "P", "C"), ("D",), ("P",), ("C",))


# ---------------------------------------------------------------------------
# channel statistics
# ---------------------------------------------------------------------------

def test_stats_of_constant_channel():
    # Xhat = 0 regardless of X: no information, distortion = P(X=1)
    stats = binary_channel_stats(SRC, BinaryChannel(1.0, 1.0))
    assert stats.mutual_info == pytest.approx(0.0, abs=1e-12)
    assert stats.distortion == pytest.approx(0.25, abs=1e-15)
    assert stats.perception == pytest.approx(0.25, abs=1e-15)
    assert stats.cond_entropy_s == pytest.approx(0.881290899230693, abs=1e-12)


def test_stats_of_identity_channel():
    stats = binary_channel_stats(SRC, BinaryChannel(1.0, 0.0))
    assert stats.mutual_info == pytest.approx(0.811278124459133, abs=1e-12)
    assert stats.distortion == 0.0
    assert stats.perception == pytest.approx(0.0, abs=1e-15)
    assert stats.cond_entropy_s == pytest.approx(0.468995593589281, abs=1e-12)


def test_zero_variance_reconstruction_stats():
    stats = gaussian_recon_stats(GSRC, GaussianReconstruction(0.0, 0.0, 0.0))
    assert stats.mutual_info == 0.0
    assert stats.cond_entropy_s == pytest.approx(GSRC.h_s, abs=1e-12)
    assert stats.perception == math.inf


# ---------------------------------------------------------------------------
# Mrs. Gerber bound
# ---------------------------------------------------------------------------

def test_mgl_equality_on_complementary_witness():
    check = mrs_gerber_check(SRC, rdc_binary(SRC, 0.3, 0.6).witness)
    assert check.holds
    assert check.lhs == pytest.approx(check.rhs, abs=1e-10)


def test_mgl_strict_on_generic_channel():
    check = mrs_gerber_check(SRC, BinaryChannel(0.96, 0.12))
    assert check.holds
    assert check.rhs == pytest.approx(0.598033239958528, abs=1e-12)
    assert check.lhs > check.rhs


@settings(max_examples=150)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_mgl_holds_everywhere(pa, pb):
    assert mrs_gerber_check(SRC, BinaryChannel(pa, pb)).holds


def _convolution(p, q):
    """Crossover probability of two cascaded binary symmetric channels."""
    return p * (1.0 - q) + q * (1.0 - p)


def _scalar_mgl(src, ch):
    """(lhs, rhs) of Mrs. Gerber's lemma as first written, with the scalar
    entropy functions: the reference ``mrs_gerber_check`` must match."""
    stats = binary_channel_stats(src, ch)
    h_x_given = min(max(binary_entropy(src.b) - stats.mutual_info, 0.0), 1.0)
    rhs = binary_entropy(_convolution(src.p1, binary_entropy_inv(h_x_given)))
    return stats.cond_entropy_s, rhs


@pytest.mark.parametrize("seed", [0, 3])
def test_mgl_check_is_the_scalar_formula_on_the_verify_draws(seed):
    # every 1000th of the mgl suite's 100,000 draws
    rng, n = verify._rng_for(seed, 1), 100_000
    a = rng.uniform(0.02, 0.5, size=n)
    p1 = a * rng.uniform(0.1, 0.95, size=n)
    pa, pb = rng.uniform(0.0, 1.0, size=n), rng.uniform(0.0, 1.0, size=n)
    for i in range(0, n, 1000):
        src = BinaryPairSource(float(a[i]), float(p1[i]))
        ch = BinaryChannel(float(pa[i]), float(pb[i]))
        got, (lhs, rhs) = mrs_gerber_check(src, ch), _scalar_mgl(src, ch)
        assert abs(got.lhs - lhs) <= 1e-12 and abs(got.rhs - rhs) <= 1e-9


@pytest.mark.parametrize("src, ch, lhs, rhs", [
    (SRC, BinaryChannel(0.96, 0.12), 0.6006372422356343, 0.5980332399585281),
    (SRC, BinaryChannel(0.5, 0.5), 0.8812908992306927, 0.8812908992306926),
    (SRC, BinaryChannel(1.0, 0.0), 0.4689955935892812, 0.4689955935892812),
    # H(X | Xhat) = 1, which the entropy inverse answers directly
    (BinaryPairSource(0.5, 0.1), BinaryChannel(0.5, 0.5), 1.0, 1.0),
])
def test_mgl_check_keeps_its_bits(src, ch, lhs, rhs):
    got = mrs_gerber_check(src, ch)
    assert (got.lhs, got.rhs) == (lhs, rhs)


def _bulk_mgl_margins(a, p1, pa, pb):
    """``_mgl_margins`` in one pass over the whole arrays, as first written:
    the reference its pass over slices must equal bit for bit."""
    b1 = (a - p1) / (1.0 - 2.0 * p1)
    info, lhs = oracle._binary_joint_arr(b1, p1, pa, pb)
    eps = entropy._binary_entropy_inv_arr(np.clip(_h2_bits_arr(b1) - info, 0.0, 1.0))
    return lhs, _h2_bits_arr(p1 * (1.0 - eps) + eps * (1.0 - p1))


def test_sliced_mgl_margins_equal_the_bulk_ones():
    # 10^5 + 7 = 97 * 1031 channels end in a partial slice; the kernel
    # reads each slice's sources and channels through two functions, whose
    # arrays or numbers broadcast to the slice, and hands each slice's
    # final margins, in order, to its ``each``
    rng, n = np.random.default_rng(20261021), 100_007
    a = rng.uniform(0.02, 0.5, n)
    p1 = a * rng.uniform(0.1, 0.95, n)
    pa, pb = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
    pa[:50], pb[:50] = 0.5, 0.5  # no information: H(X | Xhat) = h(b)
    cases = {
        "arrays": (lambda s: (a[s], p1[s]), lambda s: (pa[s], pb[s]), n, (a, p1, pa, pb)),
        "one source": (lambda s: (np.float64(0.5), 0.1), lambda s: (pa[s], pb[s]), n,
                       (np.float64(0.5), 0.1, pa, pb)),
        "one channel": (lambda s: (a[:7][s], p1[:7][s]), lambda s: (0.96, 0.12), 7,
                        (a[:7], p1[:7], 0.96, 0.12)),
    }
    for kind, (sources, channels, size, args) in cases.items():
        seen = []
        got = oracle._mgl_margins(sources, channels, size, lambda *parts: seen.append(parts))
        want = _bulk_mgl_margins(*args)
        for g, w, parts in zip(got, want, list(zip(*seen))[1:]):
            assert g.shape == w.shape == (size,) and g.tobytes() == w.tobytes(), kind
            assert np.concatenate(parts).tobytes() == g.tobytes(), kind


# ---------------------------------------------------------------------------
# binary oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d, c", [(0.1, 0.85), (0.3, 0.6), (0.02, 0.95)])
def test_binary_oracle_matches_closed_form(d, c):
    closed = rdc_binary(SRC, d, c)
    got = binary_min_rate(SRC, {"D": d, "C": c}, resolution=2e-3)
    assert got.feasible
    assert got.rate == pytest.approx(closed.rate, abs=1e-3)


def test_binary_oracle_argmin_is_self_consistent():
    got = binary_min_rate(SRC, {"D": 0.3, "C": 0.6}, resolution=2e-3)
    stats = binary_channel_stats(SRC, got.argmin)
    assert stats.distortion <= 0.3 + 1e-9
    assert stats.cond_entropy_s <= 0.6 + 1e-9
    assert stats.mutual_info == pytest.approx(got.rate, abs=1e-12)


def test_binary_oracle_infeasible_instance():
    got = binary_min_rate(SRC, {"C": 0.4}, resolution=5e-3)
    assert not got.feasible
    assert math.isnan(got.rate)
    assert got.argmin is None
    assert got.grid_resolution == 0.0  # every cell was excluded


def test_binary_oracle_worker_count_is_invisible():
    lone = binary_min_rate(SRC, {"D": 0.2, "C": 0.7}, resolution=2e-3, workers=1)
    team = binary_min_rate(SRC, {"D": 0.2, "C": 0.7}, resolution=2e-3, workers=4)
    assert lone.rate == team.rate
    assert lone.argmin == team.argmin


def test_binary_oracle_p_zero_runs_as_tiny_band():
    got = binary_min_rate(SRC, {"P": 0.0, "C": 0.6}, resolution=2e-3)
    assert got.constraints["P"] == pytest.approx(1e-6, abs=0)
    stats = binary_channel_stats(SRC, got.argmin)
    assert stats.perception <= 1e-6 + 1e-9


def test_binary_oracle_validates_inputs():
    with pytest.raises(DomainError):
        binary_min_rate(SRC, {}, resolution=2e-3)
    with pytest.raises(DomainError):
        binary_min_rate(SRC, {"D": 0.2}, resolution=0.5)
    with pytest.raises(DomainError):
        binary_min_rate(SRC, {"Q": 0.2}, resolution=2e-3)


@pytest.mark.parametrize("resolution", [
    0.5, 1e-5, math.nan, math.inf, "x", None, True, False, "1e-3", 1e-3 + 0j,
])
def test_binary_oracle_refuses_a_bad_resolution(monkeypatch, resolution):
    """A resolution outside [1e-4, 1e-1], or one that is not a real number
    (bools included), is refused before any search."""
    def no_work(*args, **kwargs):
        raise AssertionError("a bad resolution reached the search")

    monkeypatch.setattr(oracle, "_binary_joint_arr", no_work)
    with pytest.raises(DomainError):
        binary_min_rate(SRC, {"D": 0.2}, resolution=resolution)


TIGHT = 1e-9  # the oracles' constraint tolerance


@st.composite
def binary_sources(draw):
    a = draw(st.floats(1e-3, 0.5))
    return BinaryPairSource(a, a * draw(st.floats(0.0, 0.999)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(binary_sources(), st.integers(3, 14), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.sampled_from(BOUND_SETS), st.lists(st.floats(-0.5, 1.5), min_size=3, max_size=3),
       st.integers(0, 2**32 - 1))
def test_cell_bound_is_below_every_point_that_meets_the_bounds(src, depth, fx, fy, keys,
                                                               shares, seed):
    """A share in [0, 1] makes its bound a quantile of its values over the
    cell, so the polygon is cut by that line. A share outside it puts the
    bound beyond every value of the cell's corners and samples, by the
    share's excess times their spread: below them the bound excludes the
    cell at every corner, above them it is met at every corner, and a draw
    whose bounds all lie above reaches the corner screen's tangent bound."""
    h = 2.0**-depth
    x0, y0 = (np.array([min(math.floor(f / h), 2**depth - 1) * h]) for f in (fx, fy))
    b1, p1 = src.b, src.p1
    cx, cy = x0 + h * oracle._CORNERS[0][:, None], y0 + h * oracle._CORNERS[1][:, None]
    corners = oracle._binary_joint_arr(b1, p1, cx, cy)[1]
    rng = np.random.default_rng(seed)
    points = np.array([x0[0], y0[0]]) + h * rng.uniform(0.0, 1.0, (300, 2))
    points = np.concatenate((points, np.column_stack((cx[:, 0], cy[:, 0]))))
    stats = np.array([entropy._binary_point(b1, p1, pa, pb) for pa, pb in points])
    column = {"D": 1, "P": 2, "C": 3}
    cons = {}
    for k, share in zip(keys, shares):
        values, inner = stats[:, column[k]], min(max(share, 0.0), 1.0)
        spread = values.max() - values.min()
        cons[k] = float(np.quantile(values, inner) + (share - inner) * spread)
    met = oracle._met(b1, cons, cx, cy, corners)
    xy = np.array([x0, y0])
    terms = oracle._centre_terms(b1, p1, xy + 0.5 * h)
    bound = oracle._cell_bounds(b1, cons, xy, h, corners, met, terms)[0][0]
    met = np.logical_and.reduce([stats[:, column[k]] - v <= TIGHT for k, v in cons.items()])
    assert (stats[met, 0] >= bound - 1e-12).all()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(binary_sources(), st.floats(1e-12, 1.0 - 1e-12), st.floats(1e-12, 1.0 - 1e-12),
       st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=20))
def test_label_entropy_lies_below_its_tangent_planes(src, ca, cb, channels):
    """H(S | Xhat) is concave in the channel, so it lies at or below its
    tangent plane at any interior point, the plane the search pulls its
    witnesses back onto, built here by the search's own gradient code. The
    points keep 1e-12 from the edges; the search's cell centres keep far
    more."""
    terms = oracle._centre_terms(src.b, src.p1, np.array([[ca], [cb]]))[:, 0]
    pa, pb = np.array(channels + [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]).T
    hs = oracle._binary_joint_arr(src.b, src.p1, pa, pb)[1]
    plane = terms[1] + terms[4] * (pa - ca) + terms[5] * (pb - cb)
    assert (hs <= plane + 1e-12).all()


def _backward_tv(src, c):
    """TV*(c), the total variation of the backward witness at C = c: from
    there up ``rpc_binary`` is exact."""
    if c >= binary_entropy(src.a):
        return 0.0
    eps = max((binary_entropy_inv(c) - src.p1) / (1.0 - 2.0 * src.p1), 0.0)
    return eps * (1.0 - 2.0 * src.b) / (1.0 - 2.0 * eps)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(binary_sources(), st.booleans(), st.floats(0.0, 1.0), st.floats(0.0, 0.5),
       st.floats(0.0, 0.3))
def test_binary_bracket_holds_the_closed_form_at_the_loosened_bounds(src, rdc, share, d,
                                                                    p_over):
    """[rate - grid_resolution, rate] brackets the minimum with every bound
    loosened by 1e-9. RPC is checked only from TV*(C) up, where
    ``rpc_binary`` is right."""
    c = src.floor_c + share * (1.0 - src.floor_c)
    if rdc:
        cons = {"D": d, "C": c}
        closed = rdc_binary(src, d + TIGHT, c + TIGHT)
    else:
        cons = {"P": min(_backward_tv(src, min(c + TIGHT, 1.0)) + p_over, 1.0), "C": c}
        closed = rpc_binary(src, cons["P"] + TIGHT, c + TIGHT)
    got = binary_min_rate(src, cons)
    assert got.feasible and closed.feasible
    stats = binary_channel_stats(src, got.argmin)
    assert stats.mutual_info == got.rate
    values = {"D": stats.distortion, "P": stats.perception, "C": stats.cond_entropy_s}
    assert all(values[k] - bound <= TIGHT for k, bound in got.constraints.items())
    assert -1e-12 <= got.grid_resolution <= 1e-5
    assert got.rate - got.grid_resolution - 1e-12 <= closed.rate <= got.rate + 1e-12


def test_a_search_cut_short_by_its_budget_says_so(monkeypatch):
    # the first two levels, 64 and 128 cells, leave this query open with
    # 96 cells to go, so this budget stops the search before its third
    monkeypatch.setattr(oracle, "_CELL_BUDGET", 64 + 128)
    got = binary_min_rate(SRC, {"D": 0.3, "C": 0.6})
    stats = binary_channel_stats(SRC, got.argmin)
    assert stats.mutual_info == got.rate
    assert stats.distortion - 0.3 <= TIGHT and stats.cond_entropy_s - 0.6 <= TIGHT
    assert got.grid_resolution > 1e-5
    # rate - grid_resolution still bounds the loosened minimum from below
    closed = rdc_binary(SRC, 0.3 + TIGHT, 0.6 + TIGHT).rate
    assert got.rate - got.grid_resolution <= closed + 1e-12
    monkeypatch.setattr(oracle, "_CELL_BUDGET", 63)  # not even the first level
    dead = binary_min_rate(SRC, {"D": 0.3, "C": 0.6})
    assert not dead.feasible
    assert dead.grid_resolution == math.inf


SKEW = BinaryPairSource(a=0.45, p1=0.2)
OFF = BinaryPairSource(a=0.3, p1=0.05)  # b = 5/18


# float.hex of rate, argmin (p_a, p_b) and grid_resolution, as the search
# of commit f495af9 (fewer, wider levels with pulled-back witnesses) gave
# them; a change that moves them declares it and re-pins them. Keyed by
# test id, fixed when the case was pinned, so that removing a case renames
# no other
_PINNED = {
    "src0-cons0-None-want0":
        (SRC, {"D": 0.3, "C": 0.6}, None,
         ("0x1.f929bcfd199cep-2", "0x1.f753660b32a20p-1", "0x1.6fffc9bb40b33p-3",
          "0x1.28a96b4e18000p-17")),
    "src1-cons1-None-want1":
        (SRC, {"P": 0.01, "C": 0.65}, None,
         ("0x1.9afa371471d7ep-2", "0x1.e60001fe662b8p-1", "0x1.898b0fc97d318p-3",
          "0x1.08440661c8000p-17")),
    "src2-cons2-None-want2":
        (SRC, {"D": 0.25, "P": 0.02, "C": 0.65}, None,
         ("0x1.996be2fba9b60p-2", "0x1.e9d5ef47166eap-1", "0x1.adccd314e8294p-3",
          "0x1.ac09620e00000p-23")),
    "src3-cons3-None-want3":
        (SRC, {"D": 0.2}, None,
         ("0x1.6dfa66a1567d4p-4", "0x1.f493332205274p-1", "0x1.7753332205274p-1",
          "0x1.4799902540000p-21")),
    "src4-cons4-None-want4":
        (SRC, {"C": 0.7}, None,
         ("0x1.39d82b3e61614p-2", "0x1.b3c1d094a8300p-6", "0x1.444003a93d014p-1",
          "0x1.d41dbb9840000p-18")),
    "src5-cons5-None-want5":
        (SRC, {"P": 0.0, "C": 0.6}, None,
         ("0x1.fe6eaf6dd5568p-2", "0x1.eba2726608cbcp-1", "0x1.e8c7ffeabf01ep-4",
          "0x1.afd857d000000p-24")),
    "src6-cons6-None-want6":
        (SKEW, {"D": 0.1, "C": 0.9}, None,
         ("0x1.05912c6b96486p-1", "0x1.dd4ccc9942a93p-1", "0x1.293332650aa4dp-3",
          "0x1.8cfca53480000p-18")),
    "src7-cons7-None-want7":
        (SKEW, {"P": 0.02, "C": 0.88}, None,
         ("0x1.56397029520aep-2", "0x1.c03e39b5221dfp-1", "0x1.c74271b599633p-3",
          "0x1.66449c5150000p-18")),
    "src8-cons8-None-want8":
        (SRC, {"D": 0.2, "C": -math.inf}, None, ("nan", None, None, "0x0.0p+0")),
    "src9-cons9-None-want9":
        (SRC, {"C": 0.4}, None, ("nan", None, None, "0x0.0p+0")),  # every cell excluded
    "src10-cons10-320-want10":
        (SRC, {"D": 0.3, "C": 0.6}, 64 + 256,
         ("0x1.f92b9efcb646ap-2", "0x1.f75371db21e72p-1", "0x1.6ffc9b2e2b86dp-3",
          "0x1.050281153b800p-13")),
    "src11-cons11-63-want11":
        (SRC, {"D": 0.3, "C": 0.6}, 63, ("nan", None, None, "inf")),
    # zero rates, each settled by a witness of the first level: a lattice
    # point, or the product channel p_a = p_b = 1 - b where 1 - b = 13/18
    # is off the lattice
    "zero-rate-under-d-and-c":
        (SRC, {"D": 0.3, "C": 0.9}, None,
         ("0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0")),
    "zero-rate-under-c":
        (SRC, {"C": 0.9}, None, ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0")),
    "zero-rate-at-p-zero-off-the-lattice":
        (OFF, {"P": 0.0, "C": 0.9}, None,
         ("0x0.0p+0", "0x1.71c71c71c71c7p-1", "0x1.71c71c71c71c7p-1", "0x0.0p+0")),
    "zero-rate-under-p-off-the-lattice":
        (OFF, {"P": 0.02, "C": 0.95}, None,
         ("0x0.0p+0", "0x1.71c71c71c71c7p-1", "0x1.71c71c71c71c7p-1", "0x0.0p+0")),
}


@pytest.mark.parametrize("src, cons, budget, want", _PINNED.values(), ids=_PINNED)
def test_binary_oracle_answers_keep_their_bits(monkeypatch, src, cons, budget, want):
    if budget is not None:
        monkeypatch.setattr(oracle, "_CELL_BUDGET", budget)
    got = binary_min_rate(src, cons)
    p_a, p_b = (None, None) if got.argmin is None else (
        float.hex(got.argmin.p_a), float.hex(got.argmin.p_b))
    assert (float.hex(got.rate), p_a, p_b, float.hex(got.grid_resolution)) == want


def _count_cells(monkeypatch) -> list[int]:
    """The cell count of each level: the search calls ``_cell_bounds``
    once per level, with all of that level's cells."""
    levels, bounds = [], oracle._cell_bounds

    def counted(b1, cons, xy, *rest):
        levels.append(xy.shape[1])
        return bounds(b1, cons, xy, *rest)

    monkeypatch.setattr(oracle, "_cell_bounds", counted)
    return levels


# (levels, cells) of the search on each query above; the search is
# deterministic, so a return to many narrow levels fails here
_EFFORT = dict(zip(_PINNED, [
    (4, 384), (4, 384), (5, 448), (4, 560), (6, 784), (6, 848), (3, 448), (3, 512),
    (1, 64), (1, 64), (3, 288), (0, 0), (1, 64), (1, 64), (1, 64), (1, 64)], strict=True))


@pytest.mark.parametrize("src, cons, budget, effort", [
    (*_PINNED[key][:3], effort) for key, effort in _EFFORT.items()
], ids=[key.replace("-want", "-effort") for key in _EFFORT])
def test_binary_oracle_search_effort_is_pinned(monkeypatch, src, cons, budget, effort):
    if budget is not None:
        monkeypatch.setattr(oracle, "_CELL_BUDGET", budget)
    levels = _count_cells(monkeypatch)
    binary_min_rate(src, cons)
    assert (len(levels), sum(levels)) == effort


@pytest.mark.parametrize("budget", [oracle._CELL_BUDGET, 60_000])
def test_a_zero_perception_query_near_b_zero_says_when_its_budget_ran_out(monkeypatch,
                                                                          budget):
    """A natural input that uses up the default budget: at P = 0 on a source
    with b near 1e-5, lattice points seldom fall in the TV band, which is
    2e-6 wide. At either budget the witness meets its bounds and its I is
    the rate, and grid_resolution exceeds 1e-5 exactly when the search
    stopped with cells open, so that a larger budget evaluates more cells."""
    src, cons = BinaryPairSource(0.01, 0.00999), {"P": 0.0, "C": 0.0807467}
    levels = _count_cells(monkeypatch)

    def search(limit):
        monkeypatch.setattr(oracle, "_CELL_BUDGET", limit)
        levels.clear()
        return binary_min_rate(src, cons), sum(levels)

    got, used = search(budget)
    stopped = used < search(10**6)[1]
    stats = binary_channel_stats(src, got.argmin)
    assert stats.mutual_info == got.rate
    values = {"P": stats.perception, "C": stats.cond_entropy_s}
    assert all(values[k] - bound <= TIGHT for k, bound in got.constraints.items())
    assert (got.grid_resolution > 1e-5) == stopped


@pytest.mark.parametrize("key", [key for key in _PINNED if key.startswith("zero-rate")])
def test_a_zero_rate_ends_after_the_first_level(monkeypatch, key):
    """I >= 0 closes every cell once a witness is within 1e-5 bits of 0,
    and the first level holds a zero-rate witness for these bounds."""
    src, cons, _, _ = _PINNED[key]
    levels = _count_cells(monkeypatch)
    got = binary_min_rate(src, cons)
    assert levels == [64]
    assert 0.0 <= got.rate <= 1e-15 and 0.0 <= got.grid_resolution <= 1e-5
    stats = binary_channel_stats(src, got.argmin)
    values = {"D": stats.distortion, "P": stats.perception, "C": stats.cond_entropy_s}
    assert all(values[k] - bound <= TIGHT for k, bound in got.constraints.items())


def _crosscheck_like_queries(seed, n):
    """n binary queries of D and C or P and C, half of them at C from h(a)
    up, where the rate is 0."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        a = float(rng.uniform(0.05, 0.5))
        src = BinaryPairSource(a, a * float(rng.uniform(0.0, 0.9)))
        top = binary_entropy(a)
        c = float(rng.uniform(top, 1.0) if i % 2 else rng.uniform(src.floor_c, top))
        first = {"D": float(rng.uniform(0.02, 0.4))} if i % 4 < 2 else {
            "P": float(rng.uniform(0.0, 0.05))}
        yield src, first | {"C": c}


def test_a_bracket_is_never_negative():
    """A cell bound can exceed the witness's I by rounding; the loosened
    minimum is at most that I, so lower is capped there."""
    got = binary_min_rate(SRC, {"D": 0.26, "C": 1.0})
    assert (got.rate, got.grid_resolution) == (0.0, 0.0)
    got = binary_min_rate(BinaryPairSource(0.3249058232101367, 0.2338594685670405),
                          {"C": 0.9628875592347534, "P": 0.025})
    assert (got.rate, got.grid_resolution) == (0.0, 0.0)
    for src, cons in _crosscheck_like_queries(5, 200):
        got = binary_min_rate(src, cons)
        assert got.feasible and 0.0 <= got.grid_resolution <= 1e-5


def _answer(src, cons):
    got = binary_min_rate(src, cons)
    return (float.hex(got.rate), float.hex(got.grid_resolution),
            None if got.argmin is None else (float.hex(got.argmin.p_a),
                                             float.hex(got.argmin.p_b)))


def test_a_cached_first_level_gives_the_answers_of_a_fresh_one():
    """Blocks of 6 queries on three sources in turn, p1 = -0.0 after p1 =
    0.0 (one key), answer as they do with the cache cleared before each."""
    sources = (BinaryPairSource(0.3, 0.0), BinaryPairSource(0.45, 0.2),
               BinaryPairSource(0.3, -0.0))
    queries = [(src, cons) for _ in range(2) for src in sources
               for cons in ({"D": 0.2, "C": 0.7}, {"P": 0.01, "C": 0.8}, {"C": 0.95},
                            {"D": 0.3, "C": 1.0}, {"P": 0.0, "C": 0.75}, {"D": 0.1})]
    oracle._first_level.cache_clear()
    warm = [_answer(src, cons) for src, cons in queries]
    assert oracle._first_level.cache_info().hits == len(queries) - 2
    fresh = []
    for src, cons in queries:
        oracle._first_level.cache_clear()
        fresh.append(_answer(src, cons))
    assert warm == fresh


def test_the_first_level_cache_is_read_only_and_bounded():
    size = oracle._first_level.cache_info().maxsize
    assert size == 16
    for a in np.linspace(0.05, 0.5, 2 * size):
        binary_min_rate(BinaryPairSource(float(a), 0.01), {"D": 0.2, "C": 0.9})
        assert oracle._first_level.cache_info().currsize <= size
    for array in oracle._first_level(SRC.b, SRC.p1):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.reshape(-1)[0] = 0


def test_a_subnormal_source_solves_without_warnings():
    # at b = 5e-324 the LP's determinants are so small that a vertex
    # overflows; it is dropped as not finite, and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = binary_min_rate(BinaryPairSource(5e-324, 0.0), {"D": 0.1, "C": 0.5})
    assert got.feasible and got.rate == 0.0


# ---------------------------------------------------------------------------
# Gaussian oracle
# ---------------------------------------------------------------------------

def test_gaussian_oracle_matches_rdc():
    closed = rdc_gaussian(GSRC, 0.3, H_S - 0.2)
    got = gaussian_min_rate(GSRC, {"D": 0.3, "C": H_S - 0.2})
    assert got.feasible
    assert got.rate == pytest.approx(closed.rate, abs=1e-3)
    stats = gaussian_recon_stats(GSRC, got.argmin)
    assert stats.distortion <= 0.3 + 1e-6
    assert stats.cond_entropy_s <= H_S - 0.2 + 1e-6


def test_gaussian_oracle_matches_rpc_with_tight_divergence():
    p = 5e-4
    closed = rpc_gaussian(GSRC, p, H_S - 0.5)
    got = gaussian_min_rate(GSRC, {"P": p, "C": H_S - 0.5})
    assert got.rate == pytest.approx(closed.rate, abs=1e-3)
    stats = gaussian_recon_stats(GSRC, got.argmin)
    assert stats.perception <= p + 1e-9


def test_gaussian_oracle_zero_rate_and_infeasible():
    free = gaussian_min_rate(GSRC, {"D": 1.5, "C": H_S + 0.14})
    assert free.feasible
    assert free.rate == pytest.approx(0.0, abs=1e-3)

    dead = gaussian_min_rate(GSRC, {"D": 0.5, "C": 0.2})
    assert not dead.feasible
    assert dead.argmin is None


@pytest.mark.parametrize("steps", [
    {"sigma_steps": 2.5}, {"theta_steps": math.nan}, {"sigma_steps": 801.0},
    {"theta_steps": "801"}, {"sigma_steps": 1},
])
def test_gaussian_oracle_refuses_bad_step_counts(monkeypatch, steps):
    def no_work(*args):
        raise AssertionError("a refused step count reached the constraints")

    monkeypatch.setattr(oracle, "_normalize_constraints", no_work)
    with pytest.raises(DomainError):
        gaussian_min_rate(GSRC, {"D": 0.5}, **steps)


def test_infinite_rate_is_a_closed_form_answer_and_an_oracle_infeasibility():
    """Where only the exact copy of the source meets the bounds (D = 0, or
    C = -inf at |rho| = 1) the closed forms report a feasible +inf rate
    and the Gaussian oracle, which takes correlation 1 for infeasible,
    infeasible. A pinned D > 0 excludes the exact copy, so C = -inf is
    infeasible there."""
    exact = rdc_gaussian(GSRC, 0.0, H_S)
    assert exact.feasible and exact.rate == math.inf
    assert not gaussian_min_rate(GSRC, {"D": 0.0, "C": H_S}).feasible

    copy = GaussianPairSource(0.0, 0.0, 1.0, 1.0, 1.0)
    assert copy.floor_c == -math.inf
    for closed, bounds in ((rdc_gaussian(copy, 0.5, -math.inf), {"D": 0.5}),
                           (rpc_gaussian(copy, 0.2, -math.inf), {"P": 0.2})):
        assert closed.feasible and closed.rate == math.inf
        assert not gaussian_min_rate(copy, bounds | {"C": -math.inf}).feasible
    for p in (0.2, math.inf):
        assert not rate_given_pcd(copy, 0.5, p, -math.inf).feasible


def test_gaussian_oracle_worker_count_is_invisible():
    lone = gaussian_min_rate(GSRC, {"D": 0.5, "C": H_S - 0.3}, workers=1)
    team = gaussian_min_rate(GSRC, {"D": 0.5, "C": H_S - 0.3}, workers=8)
    assert lone.rate == team.rate
    assert lone.argmin == team.argmin


# the width of the Gaussian oracle's final bracket on the correlation t
T_BRACKET = 2.0**-50
# a rate the oracle reaches: its t stops 2^-50 short of 1, about 17 nats
REACHED = 16.0


@st.composite
def gaussian_queries(draw):
    """A source with |rho| near 0, anywhere, or near 1 (1 included), and
    bounds from one of ``BOUND_SETS``, each 1e-6 or more from where the
    closed form's rate is +inf."""
    var_x, var_s = draw(st.floats(0.25, 4.0)), draw(st.floats(0.25, 4.0))
    share = draw(st.one_of(st.floats(0.0, 1e-3), st.floats(0.0, 1.0),
                           st.floats(1.0 - 1e-6, 1.0)))
    cov = draw(st.sampled_from((1.0, -1.0))) * share * math.sqrt(var_x * var_s)
    src = GaussianPairSource(draw(st.floats(-2.0, 2.0)), 0.0, var_x, var_s, cov)
    keys = draw(st.sampled_from(BOUND_SETS))
    cons = {}
    if "D" in keys:
        cons["D"] = var_x * 10.0 ** draw(st.floats(-6.0, 0.2))
    if "P" in keys:
        cons["P"] = 10.0 ** draw(st.floats(-6.0, 0.7))
    if "C" in keys:
        # one branch of three lies below the floor, which nothing meets
        offset = draw(st.one_of(st.floats(-1.0, -1e-6), st.floats(1e-6, 3.0),
                                st.floats(1e-6, 0.5)))
        cons["C"] = max(src.floor_c, src.h_s - 25.0) + offset
    return src, cons


def _closed_gaussian(src, cons):
    """The closed-form point for bounds without both D and P, else None."""
    if "D" in cons and "P" in cons:
        return None
    if "D" in cons:
        return rdc_gaussian(src, cons["D"], cons.get("C", math.inf))
    return rpc_gaussian(src, cons.get("P", math.inf), cons.get("C", math.inf))


def _bracket_tol(rate):
    """What one step of the t bracket can move the rate: its width times
    the rate's slope t / (1 - t^2) <= e^(2 rate)."""
    return T_BRACKET * math.exp(2.0 * rate)


def _cheaper_grid_points(src, cons, rate):
    """How many reconstructions (mu_x, s^2, sigma_x s t) on a grid of s in
    (0, 3 sigma_x], at the t of a rate below ``rate``, meet the bounds.
    A mean shift or a negative t only adds to the MSE, so these are all
    the candidates at that rate."""
    vx, sx = src.var_x, math.sqrt(src.var_x)
    t = math.sqrt(-math.expm1(-2.0 * rate))
    s = np.linspace(0.0, 3.0 * sx, 3001)[1:]
    values = {"D": vx + s * s - 2.0 * sx * s * t,
              "P": 0.5 * np.log(s * s / vx) + (vx - s * s) / (2.0 * s * s),
              "C": np.full_like(s, src.h_s + 0.5 * math.log1p(-(src.rho * t) ** 2))}
    return int(np.logical_and.reduce([values[k] <= b for k, b in cons.items()]).sum())


@settings(derandomize=True, max_examples=400, deadline=None)
@given(gaussian_queries(), st.floats(0.0, 1.0), st.integers(0, 2))
def test_gaussian_oracle_meets_its_bounds_and_the_closed_forms(query, loosen, pick):
    src, cons = query
    got = gaussian_min_rate(src, cons)
    if got.feasible:
        stats = gaussian_recon_stats(src, got.argmin)
        assert stats.mutual_info == got.rate
        values = {"D": stats.distortion, "P": stats.perception, "C": stats.cond_entropy_s}
        assert all(values[k] <= bound for k, bound in cons.items())  # no slack
        cheaper = got.rate - 1e-6 - _bracket_tol(got.rate)
        if cheaper > 0.0:
            assert _cheaper_grid_points(src, cons, cheaper) == 0

    closed = _closed_gaussian(src, cons)
    # a rate beyond the oracle's reach, +inf included, is an oracle infeasibility
    if closed is not None and not (closed.feasible and closed.rate > REACHED):
        assert got.feasible == closed.feasible
        if got.feasible:
            assert abs(got.rate - closed.rate) <= 1e-6 + _bracket_tol(closed.rate)

    # loosen one bound, or drop it when another is left
    key = sorted(cons)[pick % len(cons)]
    looser = {**cons, key: cons[key] + loosen}
    if loosen == 0.0 and len(cons) > 1:
        del looser[key]
    if got.feasible:
        relaxed = gaussian_min_rate(src, looser)
        assert relaxed.feasible
        assert relaxed.rate <= got.rate + 2.0 * _bracket_tol(got.rate)


def test_oracles_start_no_thread(monkeypatch):
    def refuse(thread):
        raise AssertionError(f"the oracle started a thread: {thread}")

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    lone = binary_min_rate(SRC, {"D": 0.2, "C": 0.7}, resolution=2e-3, workers=8)
    team = gaussian_min_rate(GSRC, {"D": 0.5, "C": H_S - 0.3}, workers=8)
    assert lone.feasible and team.feasible


def test_a_minus_inf_bound_is_a_constraint():
    # only +inf means "no constraint"; C = -inf admits nothing, as in the
    # closed forms
    for oracle_min_rate, src, cons, closed in (
        (binary_min_rate, SRC, {"D": 0.2}, rdc_binary(SRC, 0.2, -math.inf)),
        (gaussian_min_rate, GSRC, {"P": 0.1}, rpc_gaussian(GSRC, 0.1, -math.inf)),
    ):
        dead = oracle_min_rate(src, {**cons, "C": -math.inf})
        assert not dead.feasible and not closed.feasible
        assert math.isnan(dead.rate) and dead.argmin is None
        assert dead.constraints == {**cons, "C": -math.inf}
        free = oracle_min_rate(src, {**cons, "C": math.inf})
        assert free.feasible and free.constraints == cons
    assert not rdc_gaussian(GSRC, 0.5, -math.inf).feasible
    assert not binary_min_rate(SRC, {"C": -math.inf}).feasible
    with pytest.raises(DomainError):
        binary_min_rate(SRC, {"C": math.inf})


def _traced_peak(query):
    tracemalloc.start()
    try:
        query()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_queries_hold_no_full_size_temporary():
    # one 1001 x 1001 float64 array is 7.6 MiB; the binary search holds
    # arrays over one level of cells, and no lattice, besides its cache of
    # first levels, 16 of about 4 KiB
    mib = 2**20
    cold = _traced_peak(lambda: binary_min_rate(SRC, {"D": 0.2, "C": 0.7}))
    warm = _traced_peak(lambda: binary_min_rate(SRC, {"P": 0.05, "C": 0.6}))
    gauss = _traced_peak(lambda: gaussian_min_rate(
        GSRC, {"D": 0.5, "P": 0.1, "C": H_S - 0.3}, sigma_steps=1001, theta_steps=1001))
    assert cold < 12 * mib
    assert warm < 6 * mib
    assert gauss < 64 * 2**10  # a Gaussian query holds no array at all


@pytest.mark.parametrize(
    "oracle_min_rate, src, cons",
    [
        (binary_min_rate, SRC, {"D": math.nan, "C": 0.8}),
        (binary_min_rate, SRC, {"D": 0.2, "C": math.nan}),
        (binary_min_rate, SRC, {"P": math.nan, "C": 0.8}),
        (gaussian_min_rate, GSRC, {"D": math.nan, "C": H_S}),
        (gaussian_min_rate, GSRC, {"P": math.nan, "C": H_S}),
        (gaussian_min_rate, GSRC, {"D": 0.5, "C": math.nan}),
    ],
)
def test_nan_constraints_are_refused(oracle_min_rate, src, cons):
    with pytest.raises(DomainError):
        oracle_min_rate(src, cons)


@pytest.mark.parametrize("oracle_min_rate, src", [(binary_min_rate, SRC),
                                                  (gaussian_min_rate, GSRC)])
@pytest.mark.parametrize("key", ["D", "P"])
def test_negative_distortion_and_perception_bounds_are_refused(oracle_min_rate, src, key):
    with pytest.raises(DomainError, match=f"constraint {key} must be nonnegative: -0.1"):
        oracle_min_rate(src, {key: -0.1, "C": 0.8})


@pytest.mark.parametrize("oracle_min_rate, src", [(binary_min_rate, SRC),
                                                  (gaussian_min_rate, GSRC)])
@pytest.mark.parametrize("cons", [
    {"D": 0.2, "d": 0.1}, {"C": math.inf, "c": 0.8}, {1: 0.2}, {None: 0.2},
    {"D": "abc"}, {"D": "0.2"}, {"D": None}, {"P": True}, {"C": False}, {"D": 10**400},
])
def test_malformed_constraints_are_refused(monkeypatch, oracle_min_rate, src, cons):
    """A key given twice, up to case, a key that is not a string and a
    value that is not a real number are refused before any search."""
    def no_work(*args, **kwargs):
        raise AssertionError("a malformed constraint reached the search")

    monkeypatch.setattr(oracle, "_binary_joint_arr", no_work)
    monkeypatch.setattr(oracle, "bisect_predicate", no_work)
    with pytest.raises(DomainError):
        oracle_min_rate(src, cons)


def test_recon_stats_refuse_an_overflowing_covariance():
    with pytest.raises(DomainError):
        gaussian_recon_stats(GSRC, GaussianReconstruction(0.0, 1e300, 1e155))
    # just inside the float range the statistics are still computed
    stats = gaussian_recon_stats(GSRC, GaussianReconstruction(0.0, 1e300, 1e149))
    assert stats.mutual_info == -0.5 * math.log1p(-(1e149**2 / 1e300))


@pytest.mark.parametrize("var_xh", [1.0, 0.0])
def test_recon_stats_refuse_an_overflowing_mean_shift(var_xh):
    with pytest.raises(DomainError):
        gaussian_recon_stats(GSRC, GaussianReconstruction(1e200, var_xh, 0.0))
    # in range, and just inside the float range, the distortion is the
    # same formula as before
    for mu_xh in (0.37, 1e153):
        stats = gaussian_recon_stats(GSRC, GaussianReconstruction(mu_xh, var_xh, 0.0))
        assert stats.distortion == (0.0 - mu_xh) ** 2 + 1.0 + var_xh - 2.0 * 0.0


@pytest.mark.parametrize("fields", [
    (0.0, math.nan, 0.0), (math.nan, 1.0, 0.5), (0.0, 1.0, math.nan),
    (math.inf, 1.0, 0.0), (0.0, math.inf, 0.0), (0.0, 1.0, -math.inf),
])
def test_recon_stats_refuse_non_finite_reconstructions(fields):
    # such a reconstruction is refused before it has statistics at all
    with pytest.raises(DomainError):
        GaussianReconstruction(*fields)


@pytest.mark.parametrize("cov", [0.5, -0.5, 1e-200])
def test_recon_stats_refuse_a_covariance_at_zero_variance(cov):
    # a constant reconstruction has no covariance with the source
    with pytest.raises(DomainError):
        gaussian_recon_stats(GSRC, GaussianReconstruction(0.0, 0.0, cov))
    stats = gaussian_recon_stats(GSRC, GaussianReconstruction(0.0, 0.0, 0.0))
    assert stats.mutual_info == 0.0 and stats.perception == math.inf
    assert stats.cond_entropy_s == GSRC.h_s
    # a subnormal var_xh, where var_x * var_xh underflows to 0 at var_x = 0.5:
    # Cauchy-Schwarz is still decided, without dividing by that 0
    half = GaussianPairSource(0.0, 0.0, 0.5, 1.0, 0.3)
    with pytest.raises(DomainError):
        gaussian_recon_stats(half, GaussianReconstruction(0.0, 5e-324, 1e-160))
    tiny = gaussian_recon_stats(half, GaussianReconstruction(0.0, 5e-324, 0.0))
    assert tiny.mutual_info == 0.0 and tiny.distortion == 0.5
    assert tiny.cond_entropy_s == half.h_s
    # a normal var_xh whose product with var_x underflows: the statistics of
    # the same correlation at unit scale
    small = GaussianPairSource(0.0, 0.0, 1e-200, 1.0, 0.0)
    stats = gaussian_recon_stats(small, GaussianReconstruction(0.0, 1e-200, 0.5e-200))
    assert stats.mutual_info == pytest.approx(-0.5 * math.log1p(-0.25), rel=1e-12)
    assert stats.perception == 0.0 and stats.cond_entropy_s == small.h_s


# ---------------------------------------------------------------------------
# array kernels and the screen against the formulas they replace
# ---------------------------------------------------------------------------

def test_h2_kernel_matches_scalar_binary_entropy():
    edges = [0.0, 1.0, 5e-324, 1e-300, 1.0 - 1e-16]
    x = np.concatenate([np.random.default_rng(11).uniform(0.0, 1.0, 20_000), edges])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = _h2_bits_arr(x)
    assert not np.isnan(got).any()
    worst = max(abs(g - binary_entropy(float(v))) for g, v in zip(got, x))
    assert worst <= 4.5e-16
    assert got[-5:].tolist() == [binary_entropy(v) for v in edges]


def _scalar_binary_point(b1, p1, p_a, p_b):
    """The channel statistics as first written, with the entropy module's
    scalar functions: the reference ``_binary_point`` must match."""
    q0 = (1.0 - b1) * p_a + b1 * p_b
    dist = (1.0 - b1) * (1.0 - p_a) + b1 * p_b
    tv = abs(q0 - (1.0 - b1))
    info = binary_entropy(q0) - (
        (1.0 - b1) * binary_entropy(p_a) + b1 * binary_entropy(p_b)
    )
    info = max(info, 0.0)
    hs = 0.0
    if q0 > 0.0:
        x1_given_0 = min(max(b1 * p_b / q0, 0.0), 1.0)
        hs += q0 * binary_entropy(_convolution(p1, x1_given_0))
    if q0 < 1.0:
        x1_given_1 = min(max(b1 * (1.0 - p_b) / (1.0 - q0), 0.0), 1.0)
        hs += (1.0 - q0) * binary_entropy(_convolution(p1, x1_given_1))
    return info, dist, tv, hs


def test_binary_point_is_the_scalar_formula_bit_for_bit():
    rng = np.random.default_rng(12)
    corners = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (1e-300, 5e-324)]
    for a, frac in ((0.3, 1 / 3), (0.45, 0.44), (0.2, 0.0)):
        src = BinaryPairSource(a, a * frac)
        b1 = src.b
        points = corners + [tuple(v) for v in rng.uniform(0.0, 1.0, (2_000, 2))]
        for p_a, p_b in points:
            want = _scalar_binary_point(b1, src.p1, p_a, p_b)
            assert entropy._binary_point(b1, src.p1, p_a, p_b) == want
    with pytest.raises(DomainError):
        entropy._binary_point(0.5, 0.1, 1.0 + 1e-9, 1.0)


def _sources_and_channels(rng, n, scalar_source):
    """(b1, p1, pa, pb) for n channels, the first four the corners of the
    square; one source for all of them, or one source each."""
    pa, pb = rng.uniform(0.0, 1.0, (2, n))
    pa[:4], pb[:4] = (0.0, 1.0, 0.0, 1.0), (0.0, 0.0, 1.0, 1.0)
    if scalar_source:
        return SRC.b, SRC.p1, pa, pb
    a = rng.uniform(0.02, 0.5, n)
    p1 = a * rng.uniform(0.0, 0.95, n)
    return (a - p1) / (1.0 - 2.0 * p1), p1, pa, pb


@pytest.mark.parametrize("scalar_source", [True, False])
def test_joint_kernel_gives_the_same_bits_whole_and_sliced(scalar_source):
    """Just above the slice length the kernel works in two slices: their
    bits are those of pieces that each fit in one, and of a 2-D call."""
    n = oracle._SLICE + 4
    b1, p1, pa, pb = _sources_and_channels(np.random.default_rng(21), n, scalar_source)
    info, hs = oracle._binary_joint_arr(b1, p1, pa, pb)
    assert info.shape == hs.shape == (n,)
    cuts = [0, 5, oracle._SLICE - 1, n]
    part = (lambda v, lo, hi: v) if scalar_source else (lambda v, lo, hi: v[lo:hi])
    pieces = [oracle._binary_joint_arr(part(b1, lo, hi), part(p1, lo, hi), pa[lo:hi], pb[lo:hi])
              for lo, hi in zip(cuts, cuts[1:])]
    for whole, cut in zip((info, hs), zip(*pieces)):
        assert whole.tobytes() == np.concatenate(cut).tobytes()
    shaped = (lambda v: v) if scalar_source else (lambda v: v.reshape(2, -1))
    grid = oracle._binary_joint_arr(shaped(b1), shaped(p1), pa.reshape(2, -1), pb.reshape(2, -1))
    assert grid[0].shape == (2, n // 2)
    assert grid[0].tobytes() == info.tobytes() and grid[1].tobytes() == hs.tobytes()
    # the scalar formula, within the tolerance of verify's mgl suite
    for i in list(range(8)) + list(range(8, n, 61)):
        src = (b1, p1) if scalar_source else (b1[i], p1[i])
        want = entropy._binary_point(*src, pa[i], pb[i])
        assert abs(info[i] - want[0]) <= 1e-12 and abs(hs[i] - want[3]) <= 1e-12
    # where both terms of H(S | Xhat) are -0.0, their sum from 0.0 is +0.0
    clean = BinaryPairSource(0.3, 0.0)
    corners = oracle._binary_joint_arr(clean.b, 0.0, pa[:4], pb[:4])[1]
    want = [entropy._binary_point(clean.b, 0.0, *ch)[3] for ch in zip(pa[:4], pb[:4])]
    assert corners.tobytes() == np.array(want).tobytes()


def test_joint_kernel_temporaries_stay_small():
    # verify's mgl suite passes 100,000 channels: the 0.8 MB results and
    # the slices' temporaries, not a dozen full-size scratch arrays
    args = _sources_and_channels(np.random.default_rng(22), 100_000, False)
    assert _traced_peak(lambda: oracle._binary_joint_arr(*args)) <= 8 * 2**20
