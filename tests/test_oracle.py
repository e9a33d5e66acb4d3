import functools
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
    rdc_binary_witness,
    rdc_gaussian,
    rpc_gaussian,
)
from rdpc import oracle
from rdpc.entropy import _h2_bits_arr, binary_convolution, binary_entropy
from rdpc.rpc_given_d import rate_given_pcd

SRC = BinaryPairSource(a=0.3, p1=0.1)
GSRC = GaussianPairSource(0.0, 0.0, 1.0, 0.49, 0.63)
H_S = 1.06226358926594


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
    check = mrs_gerber_check(SRC, rdc_binary_witness(SRC, 0.3, 0.6))
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
    assert got.feasible_points == 0


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
BOUND_SETS = (("D", "C"), ("P", "C"), ("D", "P", "C"), ("D",), ("P",), ("C",))


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
    assert got.feasible_points == int(got.feasible)
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


def test_a_window_leaves_the_screen_unchanged(monkeypatch):
    """Windows that skip a block, rows and columns, holding none of the
    slack-feasible cells they skip, give the screen of the whole grid,
    with the best cells' offsets added back and ties on the window edges
    resolved to the first cell."""
    monkeypatch.setattr(oracle, "_BLOCK_ROWS", 3)
    obj = np.full((9, 5), 5.0)
    slack = np.zeros((9, 5), dtype=bool)
    slack[4:6, 1:3] = slack[6:9, 2:5] = True
    tight = np.zeros_like(slack)
    tight[5, 2] = tight[6, 2] = tight[8, 4] = True
    obj[0, 0], obj[3, 0] = -1.0, 0.0  # skipped, and slack infeasible
    obj[4, 1] = obj[5, 1] = 0.0  # a tie in a window's first column
    obj[5, 2] = obj[6, 2] = 1.0  # a tie across two windows' edges

    def fields(rows, cols):
        return [(tight[rows, cols], slack[rows, cols])]

    def objective(rows, cols):
        return obj[rows, cols]

    windows = {0: None, 3: (4, 6, 1, 3), 6: (6, 9, 2, 5)}
    whole = oracle._blocked_screen(obj.shape, lambda lo, hi: (lo, hi, 0, 5), fields, objective)
    got = oracle._blocked_screen(obj.shape, lambda lo, hi: windows[lo], fields, objective)
    assert got == whole == (13, (1.0, 5, 2), (0.0, 4, 1))


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
    # one 1001 x 1001 float64 array is 7.6 MiB; a binary source caches two
    mib = 2**20
    lattice = 1001 * 1001 * 8
    oracle._binary_grid.cache_clear()
    cold = _traced_peak(lambda: binary_min_rate(SRC, {"D": 0.2, "C": 0.7}))
    warm = _traced_peak(lambda: binary_min_rate(SRC, {"P": 0.05, "C": 0.6}))
    gauss = _traced_peak(lambda: gaussian_min_rate(
        GSRC, {"D": 0.5, "P": 0.1, "C": H_S - 0.3}, sigma_steps=1001, theta_steps=1001))
    assert cold < 2 * lattice + 6 * mib
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


# ---------------------------------------------------------------------------
# array kernels and the screen against the formulas they replace
# ---------------------------------------------------------------------------

def test_h2_kernel_matches_scalar_binary_entropy():
    edges = [0.0, 1.0, 5e-324, 1e-300, 1.0 - 1e-16]
    x = np.concatenate([np.random.default_rng(11).uniform(0.0, 1.0, 20_000), edges])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = _h2_bits_arr(x)
        into = _h2_bits_arr(x, out=np.full_like(x, np.nan))
    assert not np.isnan(got).any()
    assert np.array_equal(got, into)
    worst = max(abs(g - binary_entropy(float(v))) for g, v in zip(got, x))
    assert worst <= 4.5e-16
    assert got[-5:].tolist() == [binary_entropy(v) for v in edges]


def _scalar_binary_point(b1, p1, p_a, p_b):
    """The channel statistics as first written, with the entropy module's
    scalar functions (reference for the written-out fast path)."""
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
        hs += q0 * binary_entropy(binary_convolution(p1, x1_given_0))
    if q0 < 1.0:
        x1_given_1 = min(max(b1 * (1.0 - p_b) / (1.0 - q0), 0.0), 1.0)
        hs += (1.0 - q0) * binary_entropy(binary_convolution(p1, x1_given_1))
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
            assert oracle._binary_point(b1, src.p1, p_a, p_b) == want
            q0 = (1.0 - b1) * p_a + b1 * p_b
            assert oracle._binary_hs(b1, src.p1, q0, p_b) == want[3]
    with pytest.raises(DomainError):
        oracle._binary_point(0.5, 0.1, 1.0 + 1e-9, 1.0)


def _recording_screen(monkeypatch):
    """Patch ``_blocked_screen`` to record what it returns; the list it
    records into."""
    screens = []
    real_screen = oracle._blocked_screen

    def recording_screen(*args):
        screens.append(real_screen(*args))
        return screens[-1]

    monkeypatch.setattr(oracle, "_blocked_screen", recording_screen)
    return screens


def _whole_binary_fields(src, n):
    """(info, {"D": dist, "P": tv, "C": hs}) over the whole (p_a, p_b)
    lattice, each field one n x n array."""
    b1 = src.b
    axis = np.linspace(0.0, 1.0, n)
    pa, pb = axis[:, None], axis[None, :]
    info, hs = oracle._binary_joint_arr(b1, src.p1, pa, pb)
    q0 = (1.0 - b1) * pa + b1 * pb
    dist = (1.0 - b1) * (1.0 - pa) + b1 * pb
    return info, {"D": dist, "P": np.abs(q0 - (1.0 - b1)), "C": hs}


def _whole_binary_screen(info, fields, cons, n):
    """(feasible_points, best tight cell, best slack cell) from the binary
    screen as first written: one whole-lattice mask per screen and one
    masked argmin over each."""
    half = 0.5 * (1.0 / (n - 1))
    slack = {"D": half + 1e-9, "P": half + 1e-9,
             "C": 2.0 * binary_entropy(min(half, 0.5)) + 1e-9}
    tight = np.ones((n, n), dtype=bool)
    slackm = np.ones((n, n), dtype=bool)
    for key, bound in cons.items():
        tight &= fields[key] <= bound + 1e-9
        slackm &= fields[key] <= bound + slack[key]

    def argmin(mask):
        sub = np.where(mask, info, np.inf)
        flat = int(np.argmin(sub))
        val = float(sub.flat[flat])
        return (val, *divmod(flat, n)) if math.isfinite(val) else None

    return int(slackm.sum()), argmin(tight), argmin(slackm)


@functools.cache
def _whole_binary_screens(src, n, conses):
    """``_whole_binary_screen`` of each of ``conses`` (tuples of items),
    computed once per case for every block size."""
    info, fields = _whole_binary_fields(src, n)
    return [_whole_binary_screen(info, fields, dict(cons), n) for cons in conses]


def _check_binary_screens(monkeypatch):
    oracle._binary_grid.cache_clear()  # the lattices are built at this block size
    screens = _recording_screen(monkeypatch)
    rng = np.random.default_rng(14)
    kinds = set()
    for _ in range(3):
        a = rng.uniform(0.1, 0.5)
        src = BinaryPairSource(a, a * rng.uniform(0.0, 0.9))
        floor, top = binary_entropy(src.p1), binary_entropy(a)
        for n in (1001, 501, 1251):
            conses = (
                (("D", rng.uniform(0.02, 0.4)), ("C", rng.uniform(floor, top))),
                (("P", rng.uniform(0.005, 0.2)), ("C", rng.uniform(floor - 0.05, top))),
                (("D", rng.uniform(0.02, 0.4)), ("P", rng.uniform(0.0, 0.1))),
            )
            for cons, want in zip(conses, _whole_binary_screens(src, n, conses)):
                screens.clear()
                got = binary_min_rate(src, dict(cons), resolution=1.0 / (n - 1),
                                      refine=False)
                assert got.feasible_points == want[0]
                assert screens == [want]
                kinds.add(want[1] is not None)
    assert kinds == {True, False}  # feasible and infeasible tight screens both ran
    # b = 0 (p1 = a), where D and P are constant in p_b; a = 1/2; D = 0
    for src, conses in (
        (BinaryPairSource(0.3, 0.3), ((("D", 0.2), ("C", 0.9)), (("P", 0.05), ("C", 0.9)),
                                      (("D", 0.3), ("P", 0.02)))),
        (BinaryPairSource(0.5, 0.2), ((("D", 0.2), ("C", 0.85)), (("P", 0.05), ("C", 0.9)),
                                      (("D", 0.1), ("P", 0.03)))),
        (SRC, ((("D", 0.0), ("C", 0.9)), (("D", 0.0), ("P", 0.05)))),
    ):
        for cons, want in zip(conses, _whole_binary_screens(src, 501, conses)):
            screens.clear()
            got = binary_min_rate(src, dict(cons), resolution=1.0 / 500, refine=False)
            assert got.feasible_points == want[0] > 0
            assert screens == [want]


def test_pattern_search_asks_each_point_for_its_tangent_once():
    asked = []

    def tangent(x):
        asked.append(x)
        return (0.6, 0.8)

    def stats_at(a, b):
        return ((a - 0.3) ** 2 + (b - 0.7) ** 2, a + b, 0.0, 0.0)

    box = ((0.0, 1.0), (0.0, 1.0))
    fixed = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    rate, a, b = oracle._pattern_search((0.0, 0.0), stats_at, {"D": 1.5}, box, fixed,
                                        tangent, 0.25)
    assert rate < 1e-12 and len(asked) > 1
    assert all(x != y for x, y in zip(asked, asked[1:]))  # step halvings ask none


def test_binary_d_screen_skips_most_cells(monkeypatch):
    screened = []
    real_screen = oracle._blocked_screen

    def counting_screen(shape, window, fields, objective):
        def counted(rows, cols):
            screened.append((rows.stop - rows.start) * (cols.stop - cols.start))
            return fields(rows, cols)

        return real_screen(shape, window, counted, objective)

    monkeypatch.setattr(oracle, "_blocked_screen", counting_screen)
    assert binary_min_rate(SRC, {"D": 0.2, "C": 0.7}, resolution=1e-3, refine=False).feasible
    assert 0 < sum(screened) < 1001**2 / 2


def test_binary_screen_equals_the_whole_array_screen(monkeypatch):
    _check_binary_screens(monkeypatch)


@pytest.mark.parametrize("block_rows", [1, 7])
def test_screens_are_independent_of_the_block_size(monkeypatch, block_rows):
    # every row (or every seventh) is a block edge, so edges and ties across
    # blocks fall inside the feasible regions
    monkeypatch.setattr(oracle, "_BLOCK_ROWS", block_rows)
    try:
        _check_binary_screens(monkeypatch)
    finally:
        oracle._binary_grid.cache_clear()
