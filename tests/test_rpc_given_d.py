"""Pinned-distortion program: the closed-form solver and frontier, checked
against an independent scan/refine reference solver kept in this file."""

import math
from dataclasses import astuple
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdpc import (
    DomainError,
    GaussianPairSource,
    PCFrontierPoint,
    Region,
    gaussian_recon_stats,
    pc_frontier_given_rd,
    rate_given_pcd,
    rdc_gaussian,
    rpc_given_d,
)
from rdpc.optimize import bisect_predicate
from rdpc.results import GaussianReconstruction, TradeoffPoint, Unit

SRC = GaussianPairSource(0.0, 0.0, 1.0, 0.49, 0.63)
H_S = SRC.h_s


def _k_of(c):
    return (1.0 - math.exp(2.0 * (c - H_S))) / SRC.rho**2


def _kl_of_spread(s):
    # KL(N(0, 1) || N(0, s^2)) for the unit-variance source, halved after
    # dividing, so the -1/2 term survives where 2 s^2 would overflow
    return 0.5 * (math.log(s * s) + (1.0 - s * s) / (s * s))


class _Pinned(NamedTuple):
    sigma_xh: float
    rate: float
    perception_kl: float
    cond_entropy_s: float


def _pinned(src, d, s):
    """The reconstruction of spread s with the covariance that pins MSE = d,
    through ``gaussian_recon_stats``; all inf off the arc, where the
    covariance breaks Cauchy-Schwarz or s * s leaves the float range."""
    u = s * s
    try:
        stats = gaussian_recon_stats(
            src, GaussianReconstruction(src.mu_x, u, 0.5 * (src.var_x + u - d)))
    except DomainError:
        return _Pinned(s, math.inf, math.inf, math.inf)
    rate = stats.mutual_info
    return _Pinned(s, rate, stats.perception,
                   math.inf if rate == math.inf else stats.cond_entropy_s)


def test_unconstrained_perception_spot_value():
    pt = rate_given_pcd(SRC, 0.5, math.inf, H_S - 0.3)
    assert pt.feasible
    assert pt.region is Region.CLASSIFICATION_LIMITED
    assert pt.rate == pytest.approx(0.407118343711173, abs=1e-6)
    assert math.sqrt(pt.witness.var_xh) == pytest.approx(
        0.98513371810627, abs=1e-6
    )
    # covariance is pinned by the exact-distortion requirement
    assert pt.witness.cov_xxh == pytest.approx(
        (1.0 + pt.witness.var_xh - 0.5) / 2.0, abs=1e-12
    )


def test_binding_window_roots_share_the_rate():
    k = _k_of(H_S - 0.3)
    half_width = math.sqrt(k - 1.0 + 0.5)
    lo = math.sqrt(k) - half_width
    hi = math.sqrt(k) + half_width
    assert lo == pytest.approx(0.507545311677235, abs=1e-12)
    assert hi == pytest.approx(0.98513371810627, abs=1e-12)
    at_lo = _pinned(SRC, 0.5, lo)
    at_hi = _pinned(SRC, 0.5, hi)
    assert at_lo.rate == pytest.approx(at_hi.rate, abs=1e-9)
    assert at_lo.perception_kl == pytest.approx(0.762807597141059, abs=1e-9)
    assert at_hi.perception_kl == pytest.approx(0.000226594209846093, abs=1e-9)


def test_tie_breaks_toward_lower_perception():
    pt = rate_given_pcd(SRC, 0.5, math.inf, H_S - 0.3)
    # of the two equal-rate roots the solver must report the mild one
    assert math.sqrt(pt.witness.var_xh) > 0.9


def test_perception_budget_raises_the_rate():
    free = rate_given_pcd(SRC, 0.5, math.inf, H_S - 0.3)
    tight = rate_given_pcd(SRC, 0.5, 1e-4, H_S - 0.3)
    assert tight.region is Region.PERCEPTION_LIMITED
    assert tight.rate > free.rate
    rates = [
        rate_given_pcd(SRC, 0.5, p, H_S - 0.3).rate
        for p in (1e-4, 1e-3, 1e-2, math.inf)
    ]
    assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:]))


def test_witness_meets_all_three_constraints():
    for d, p, c in [(0.5, 0.0001, H_S - 0.3), (0.5, math.inf, H_S - 0.3),
                    (1.2, 0.01, H_S)]:
        pt = rate_given_pcd(SRC, d, p, c)
        stats = gaussian_recon_stats(SRC, pt.witness)
        assert stats.distortion == pytest.approx(d, abs=1e-9)
        assert stats.perception <= p + 1e-9
        assert stats.cond_entropy_s <= c + 1e-7
        assert stats.mutual_info == pytest.approx(pt.rate, abs=1e-9)


def test_relaxing_the_pin_recovers_the_distortion_program():
    # with P unconstrained, pinning the distortion at its bound costs
    # nothing whenever that bound is active in the relaxed program
    for d, c in [(0.2, H_S - 0.5), (0.5, H_S - 0.2), (1.0, H_S - 0.5)]:
        pinned = rate_given_pcd(SRC, d, math.inf, c)
        relaxed = rdc_gaussian(SRC, d, c)
        assert pinned.feasible == relaxed.feasible
        assert pinned.rate >= relaxed.rate - 1e-6


def test_zero_rate_needs_inflated_spread():
    pt = rate_given_pcd(SRC, 1.5, math.inf, H_S + 0.1)
    assert pt.region is Region.ZERO_RATE
    assert pt.rate == pytest.approx(0.0, abs=1e-9)
    assert pt.witness.cov_xxh == pytest.approx(0.0, abs=1e-9)
    assert pt.witness.var_xh == pytest.approx(0.5, abs=1e-6)


def test_doubled_variance_is_free_in_every_sense():
    pt = rate_given_pcd(SRC, 2.0, 0.0, H_S + 0.1)
    assert pt.rate == pytest.approx(0.0, abs=1e-9)
    assert pt.witness.var_xh == pytest.approx(1.0, abs=1e-6)
    rows = pc_frontier_given_rd(SRC, 2.0, 0.0, [H_S + 0.1])
    assert rows[0].feasible
    assert rows[0].min_p <= 1e-9


def test_overconstrained_instances_are_infeasible():
    starved = rate_given_pcd(SRC, 0.5, 0.0, 0.3)
    assert not starved.feasible
    assert starved.region is Region.INFEASIBLE
    assert math.isnan(starved.rate)
    with pytest.raises(DomainError):
        rate_given_pcd(SRC, -0.1, math.inf, H_S)
    with pytest.raises(DomainError):
        rate_given_pcd(SRC, 0.5, -1.0, H_S)
    with pytest.raises(DomainError):
        rate_given_pcd(SRC, math.inf, math.inf, H_S)
    # at D = 1e300 var_x the pinned covariance is lost to round-off: the
    # answer is a result, not an OverflowError
    assert rate_given_pcd(SRC, 1e300, math.inf, H_S).region in Region


def test_frontier_row_matches_window_root_formula():
    # min P at a loose C is the divergence at the upper edge of the
    # rate-capped window: ratio == 1 - e^{-2 R}
    cap = 1.0 - math.exp(-0.8)
    s_hi = math.sqrt(cap) + math.sqrt(cap - 0.5)
    rows = pc_frontier_given_rd(SRC, 0.5, 0.4, [H_S - 0.1])
    assert rows[0].feasible
    assert rows[0].min_p == pytest.approx(_kl_of_spread(s_hi), abs=1e-6)
    assert rows[0].sigma_xh == pytest.approx(s_hi, abs=1e-5)
    assert rows[0].rate <= 0.4 + 1e-9


def test_frontier_narrow_band_rows_are_found():
    # the feasible spread band at this (D, C, R) is thinner than the scan
    # step; the boundary-root seeds must keep the row alive
    k = _k_of(H_S - 0.68)
    root = math.sqrt(k) + math.sqrt(k - 1.0 + 0.1)
    rows = pc_frontier_given_rd(SRC, 0.1, 1.3, [H_S - 0.68])
    assert rows[0].feasible
    assert rows[0].min_p == pytest.approx(_kl_of_spread(root), abs=1e-6)


def test_frontier_relaxes_with_c_and_marks_dead_rows():
    # C where k = 0.6: tighter than the zero-divergence level (0.5625)
    # but inside the rate cap, so min P is positive; looser C rows fall
    # to zero once s = sigma_x re-enters the window
    c_mid = H_S + 0.5 * math.log(1.0 - 0.81 * 0.6)
    c_grid = [H_S - 1.0, c_mid, H_S - 0.2, H_S - 0.05]
    rows = pc_frontier_given_rd(SRC, 0.5, 0.5, c_grid)
    assert not rows[0].feasible and math.isnan(rows[0].min_p)
    live = [r.min_p for r in rows if r.feasible]
    assert len(live) == 3
    assert live[0] == pytest.approx(
        _kl_of_spread(math.sqrt(0.6) + math.sqrt(0.1)), abs=1e-6
    )
    assert live[1] <= 1e-9 and live[2] <= 1e-9
    assert all(b <= a + 1e-9 for a, b in zip(live, live[1:]))


# The reference solver: the scan/refine search the closed form replaced. It
# scans the admissible arc on a dense grid, trims each feasible run to the
# constraint boundary by bisection, refines it by golden section, and always
# tries the analytic seed spreads. Its constraint slack lets it move a little
# off sigma_x at P = 0, so it agrees with the closed form within _REF_RATE_TOL
# in rate; its frontier bisects P to 1e-10.
_REF_SCAN_POINTS = 100_000
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REF_SLACK = 1e-12
_REF_RATE_TIE = 1e-9
_REF_RATE_TOL = 1e-6
_REF_MIN_P_TOL = 1e-9


def _golden_min(f, lo, hi, xtol):
    """Golden-section search on [lo, hi]; returns (argmin, value), with the
    bracket's ends among the candidates."""
    a, b = lo, hi
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(200):
        if b - a <= xtol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(x2)
    best = min([(f(a), a), (f1, x1), (f2, x2), (f(b), b)], key=lambda t: (t[0], t[1]))
    return best[1], best[0]


def _ref_scan(src, d):
    sx = math.sqrt(src.var_x)
    root = math.sqrt(d)
    s = np.linspace(max(0.0, sx - root), sx + root, _REF_SCAN_POINTS)
    theta2 = 0.5 * (src.var_x + s * s - d)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (theta2 * theta2) / (src.var_x * s * s)
        rate = -0.5 * np.log1p(-ratio)
        kl = 0.5 * np.log(s * s / src.var_x) + (src.var_x - s * s) / (2.0 * s * s)
        hs = src.h_s + 0.5 * np.log1p(-src.rho**2 * ratio)
    bad = ~np.isfinite(rate) | (ratio >= 1.0) | (s <= 0.0)
    rate = np.where(bad, np.inf, rate)
    kl = np.where(np.isfinite(kl), kl, np.inf)
    hs = np.where(bad | ~np.isfinite(hs), np.inf, hs)
    return s, rate, kl, hs


def _ref_seed_spreads(src, d, c):
    sx = math.sqrt(src.var_x)
    seeds = [sx, math.sqrt(abs(src.var_x - d))]
    rho2 = src.rho**2
    if rho2 > 0.0 and c < src.h_s:
        k = (1.0 - math.exp(2.0 * (c - src.h_s))) / rho2
        disc = src.var_x * k - src.var_x + d
        if k > 0.0 and disc >= 0.0:
            half_width = math.sqrt(disc)
            center = sx * math.sqrt(k)
            for cand in (center - half_width, center + half_width, half_width - center):
                if cand > 0.0:
                    seeds.append(cand)
    return seeds


def _ref_ok(q, p, c):
    return (
        math.isfinite(q.rate)
        and q.perception_kl <= p + _REF_SLACK
        and q.cond_entropy_s <= c + _REF_SLACK
    )


def _full_mask_rate(src, d, p, c):
    """Reference minimal rate: a full (kl, hs, rate) mask of the scan, each
    feasible run refined, the seed spreads tried."""
    ev = _pinned
    s, rate, kl, hs = _ref_scan(src, float(d))
    ok = (kl <= p + _REF_SLACK) & (hs <= c + _REF_SLACK) & np.isfinite(rate)

    def feas(x):
        return _ref_ok(ev(src, d, x), p, c)

    candidates = []
    idx = np.flatnonzero(ok)
    if idx.size:
        for run in np.split(idx, np.where(np.diff(idx) != 1)[0] + 1):
            i = int(run[np.argmin(rate[run])])
            lo = float(s[run[0]])
            if run[0] > 0:
                lo = bisect_predicate(feas, float(s[run[0] - 1]), lo, xtol=1e-10)
            hi = float(s[run[-1]])
            if run[-1] < len(s) - 1:
                hi = -bisect_predicate(
                    lambda u: feas(-u), -float(s[run[-1] + 1]), -hi, xtol=1e-10
                )
            s_star, _ = _golden_min(lambda x: ev(src, d, x).rate, lo, hi, xtol=1e-10)
            options = [ev(src, d, float(s[i]))]
            refined = ev(src, d, s_star)
            if _ref_ok(refined, p, c):
                options.append(refined)
            candidates.append(min(options, key=lambda q: (q.rate, q.perception_kl)))
    for s_seed in _ref_seed_spreads(src, d, c):
        q = ev(src, d, s_seed)
        if _ref_ok(q, p, c):
            candidates.append(q)
    if not candidates:
        return TradeoffPoint(
            rate=math.nan, unit=Unit.NATS,
            region=Region.INFEASIBLE, c=c, d=d, p=p,
        )
    best_rate = min(q.rate for q in candidates)
    best = min(
        (q for q in candidates if q.rate <= best_rate + _REF_RATE_TIE),
        key=lambda q: (q.perception_kl, q.sigma_xh),
    )
    return TradeoffPoint(
        rate=best.rate, unit=Unit.NATS,
        region=rpc_given_d._classify(src, d, p, c, best), c=c, d=d, p=p,
        witness=GaussianReconstruction(
            src.mu_x, best.sigma_xh**2, 0.5 * (src.var_x + best.sigma_xh**2 - d)
        ),
    )


def _full_mask_frontier(src, d, rate_level, c_grid, rate_slack=1e-9):
    """Reference frontier: P bisected on reference solves for each row."""
    out = []
    for c_raw in c_grid:
        c = float(c_raw)
        relaxed = _full_mask_rate(src, d, math.inf, c)
        if not relaxed.feasible or relaxed.rate > rate_level + rate_slack:
            out.append(
                rpc_given_d.PCFrontierPoint(c, math.nan, math.nan, math.nan, False)
            )
            continue

        def meets(p_bound):
            tp = _full_mask_rate(src, d, p_bound, c)
            return tp.feasible and tp.rate <= rate_level + rate_slack

        cap = _pinned(src, d, math.sqrt(relaxed.witness.var_xh)).perception_kl
        if not meets(cap):
            cap = cap * (1.0 + 1e-9) + 1e-12
        if meets(0.0):
            min_p = 0.0
        elif meets(cap):
            min_p = bisect_predicate(meets, 0.0, cap, xtol=1e-10)
        else:
            min_p = cap
        final = _full_mask_rate(src, d, min_p, c)
        out.append(rpc_given_d.PCFrontierPoint(
            c, min_p, final.rate, math.sqrt(final.witness.var_xh), True
        ))
    return out


def _seeded_sources(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        var_x = float(rng.uniform(0.3, 3.0))
        var_s = float(rng.uniform(0.2, 2.0))
        rho = float(rng.uniform(0.3, 0.95)) * (1.0 if rng.random() < 0.5 else -1.0)
        out.append(GaussianPairSource(
            float(rng.normal()), float(rng.normal()), var_x, var_s,
            rho * math.sqrt(var_x * var_s),
        ))
    return out


def _c_values(src):
    floor = src.h_s + 0.5 * math.log(1.0 - src.rho**2)
    return [floor + 0.05, 0.5 * (floor + src.h_s), src.h_s + 0.1]


@pytest.mark.parametrize("src", _seeded_sources(3, seed=11))
def test_rate_given_pcd_equals_the_full_mask_solver(src):
    # equal up to the reference's resolution: same feasibility and region,
    # rate within _REF_RATE_TOL
    for share in (0.5, 0.8, 2.0):
        d = share * src.var_x
        for c in _c_values(src):
            for p in (0.0, 1e-6, 1e-3, 0.1, math.inf):
                new, ref = rate_given_pcd(src, d, p, c), _full_mask_rate(src, d, p, c)
                assert new.feasible == ref.feasible
                assert new.region is ref.region
                if new.feasible:
                    assert new.rate == pytest.approx(ref.rate, abs=_REF_RATE_TOL)


@pytest.mark.parametrize("src", _seeded_sources(2, seed=23) + [SRC])
def test_frontier_rows_equal_the_full_mask_frontier(src):
    # equal up to the reference's resolution: same feasibility, min P
    # within _REF_MIN_P_TOL, rate within _REF_RATE_TOL
    for share in (0.5, 0.8, 2.0):
        d = share * src.var_x
        for level in (0.3, 0.9):
            new = pc_frontier_given_rd(src, d, level, _c_values(src))
            ref = _full_mask_frontier(src, d, level, _c_values(src))
            assert len(new) == len(ref)
            for a, b in zip(new, ref):
                assert a.c == b.c and a.feasible == b.feasible
                if a.feasible:
                    assert a.min_p == pytest.approx(b.min_p, abs=_REF_MIN_P_TOL)
                    assert a.rate == pytest.approx(b.rate, abs=_REF_RATE_TOL)


def test_frontier_rows_evaluate_at_most_eight_spreads(monkeypatch):
    calls = []
    original = rpc_given_d._gaussian_stats

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(rpc_given_d, "_gaussian_stats", counted)
    # a dead row, a row bounded away from sigma_x and a row with min P = 0
    c_grid = [H_S - 1.0, H_S + 0.5 * math.log(1.0 - 0.81 * 0.6), H_S - 0.05]
    rows = []
    for c in c_grid:
        calls.clear()
        rows += pc_frontier_given_rd(SRC, 0.5, 0.5, [c])
        assert len(calls) <= 8
    assert not rows[0].feasible
    assert rows[1].min_p > 1e-3 and rows[2].min_p == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(d=0.0), dict(d=-0.5), dict(d=math.nan),
        dict(c_grid=[H_S - 0.1, math.nan]),
        dict(rate_level=math.nan), dict(rate_level=-0.1),
    ],
)
def test_frontier_still_validates_its_arguments(kwargs):
    args = dict(d=0.5, rate_level=0.5, c_grid=[H_S - 0.1])
    args.update(kwargs)
    with pytest.raises(DomainError):
        pc_frontier_given_rd(SRC, args["d"], args["rate_level"], args["c_grid"])


@pytest.mark.parametrize("d", [-0.5, math.nan])
def test_frontier_checks_d_once_before_any_row(monkeypatch, d):
    # an empty grid has no row, and an n-row frontier checks d once
    with pytest.raises(DomainError):
        pc_frontier_given_rd(GaussianPairSource(0.0, 0.0, 1.0, 1.0, 0.5), d, 1.0, [])
    calls, check = [], rpc_given_d._check_d
    monkeypatch.setattr(rpc_given_d, "_check_d", lambda v: calls.append(v) or check(v))
    assert len(pc_frontier_given_rd(SRC, 0.5, 0.5, [H_S - 0.3, H_S - 0.2, H_S - 0.1])) == 3
    assert calls == [0.5]


def test_frontier_row_with_round_off_negative_cap():
    # at D = 2 var_x the relaxed optimum sits at s = sigma_x, where the KL
    # formula can round below 0 (the scan solver saw -4.7e-18 here); the
    # row must still report min P = 0
    src = GaussianPairSource(
        0.4314941677088505, -2.126279784450882, 2.1736193177748837,
        1.354624797580815, 0.6582654702003291,
    )
    d, c = 2.0 * src.var_x, 1.6707007901210749
    (row,) = pc_frontier_given_rd(src, d, 0.9, [c])
    assert row.feasible and row.min_p == 0.0
    assert row.rate == pytest.approx(0.0, abs=1e-12)


def test_frontier_row_whose_refined_cap_fell_below_round_off():
    # the scan solver's relaxed optimum here has a KL 2.9e-10 below the one
    # recomputed from its spread, and the row raised AssertionError
    src = GaussianPairSource(
        0.0, 0.0, 0.4069007669933477, 1.7271910108020585, -0.06477081879683703
    )
    d, level, c = 0.8635955054010293, 0.9799258452520937, 1.6915894355194954
    (row,) = pc_frontier_given_rd(src, d, level, [c])
    assert row.feasible
    assert row.min_p == pytest.approx(0.159711, abs=1e-6)
    assert row.rate <= level + 1e-9
    s = row.sigma_xh
    stats = gaussian_recon_stats(
        src, GaussianReconstruction(src.mu_x, s * s, 0.5 * (src.var_x + s * s - d))
    )
    assert stats.perception <= row.min_p + 1e-9
    assert stats.cond_entropy_s <= c + 1e-9
    assert stats.mutual_info == pytest.approx(row.rate, abs=1e-9)


@pytest.mark.parametrize("share", [1e25, 1e100, 1e300])
def test_frontier_rows_far_beyond_the_source_variance_meet_the_budget(share):
    # at D >> var_x the pinned covariance drowns in round-off; a row is
    # feasible only with a witness inside its rate budget
    rows = pc_frontier_given_rd(SRC, share * SRC.var_x, 0.5, [H_S - 0.3, H_S])
    assert all(r.rate <= 0.5 + 1e-9 for r in rows if r.feasible)
    with pytest.raises(DomainError):
        pc_frontier_given_rd(SRC, math.inf, 0.5, [H_S])


@pytest.mark.parametrize("d, u, point", [
    (0.5, 0.0, (0.0, math.inf, math.inf, math.inf)),
    (SRC.var_x, 0.0, (0.0, 0.0, math.inf, H_S)),
    (0.5, math.inf, (math.inf, math.inf, math.inf, math.inf)),
    (0.5, 1e308, (1e154, math.inf, _kl_of_spread(1e154), math.inf)),
])
def test_witness_sentinels_at_the_ends_of_the_float_range(d, u, point):
    # u = 0 is the constant reconstruction only at D = var_x, and off the
    # arc otherwise; u = inf is off the arc; at u = 1e308 the pinned
    # covariance's square overflows: off the arc, with the spread's own KL
    assert rpc_given_d._witness(SRC, d, -math.inf, u, u, u) == point


def test_a_spread_whose_square_underflows_is_off_the_arc():
    # at D = 8e202 the witness spreads' squares underflow to 0. Only at
    # D = var_x is that the constant reconstruction: here C = h(S) - 0.5
    # asks I(S; Xhat) >= 0.5, so every witness costs at least 0.5 nats
    src = GaussianPairSource(0.0, 0.0, 1e150, 1.0, -1e75)
    pt = rate_given_pcd(src, 8e202, math.inf, src.h_s - 0.5)
    assert pt.region is not Region.ZERO_RATE
    assert not pt.rate < 0.5


def test_distortion_at_the_source_variance():
    # at D = var_x the arc reaches s = 0: with P and C slack the constant
    # reconstruction meets D exactly at zero rate
    free = rate_given_pcd(SRC, SRC.var_x, math.inf, H_S + 0.1)
    assert free.feasible and free.region is Region.ZERO_RATE
    assert free.rate == 0.0
    assert free.witness.var_xh == 0.0 and free.witness.cov_xxh == 0.0
    stats = gaussian_recon_stats(SRC, free.witness)
    assert stats.distortion == SRC.var_x and stats.mutual_info == 0.0
    # a binding C bound costs what the distortion-bounded program charges
    tight = rate_given_pcd(SRC, SRC.var_x, math.inf, H_S - 0.2)
    assert tight.feasible
    relaxed = rdc_gaussian(SRC, SRC.var_x, H_S - 0.2)
    assert tight.rate == pytest.approx(relaxed.rate, abs=1e-9)


def test_frontier_at_the_source_variance_with_no_rate():
    # D = var_x, rate 0 and a vacuous C: both arc roots are 0 (no 0 / 0),
    # and the row is the constant reconstruction, as rate_given_pcd has it
    src = GaussianPairSource(0.0, 0.0, 1.0, 1.0, 0.5)
    (row,) = pc_frontier_given_rd(src, 1.0, 0.0, [src.h_s])
    assert row == PCFrontierPoint(src.h_s, math.inf, 0.0, 0.0, True)
    assert rate_given_pcd(src, 1.0, math.inf, src.h_s).region is Region.ZERO_RATE


_VARIANCE = st.floats(0.2, 3.0)


@st.composite
def _pinned_instances(draw):
    var_x, var_s = draw(_VARIANCE), draw(_VARIANCE)
    rho = draw(st.floats(-0.95, 0.95))
    src = GaussianPairSource(0.0, 0.0, var_x, var_s, rho * math.sqrt(var_x * var_s))
    d = draw(st.floats(1e-3, 2.0)) * var_x
    floor = src.h_s + 0.5 * math.log1p(-rho * rho)
    c = floor + draw(st.floats(0.0, 1.0)) * (src.h_s + 0.2 - floor)
    return src, d, c


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    _pinned_instances(),
    st.one_of(st.just(0.0), st.just(math.inf), st.floats(1e-9, 2.0)),
)
def test_feasible_witnesses_certify_the_rate(inst, p):
    src, d, c = inst
    tp = rate_given_pcd(src, d, p, c)
    if not tp.feasible:
        return
    stats = gaussian_recon_stats(src, tp.witness)
    assert stats.distortion == pytest.approx(d, abs=1e-9)
    assert stats.mutual_info == pytest.approx(tp.rate, abs=1e-9)
    assert stats.perception <= p + 1e-9
    assert stats.cond_entropy_s <= c + 1e-7


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_pinned_instances(), st.floats(0.0, 2.0))
def test_feasible_frontier_rows_meet_their_rate_budget(inst, level):
    src, d, c = inst
    (row,) = pc_frontier_given_rd(src, d, level, [c])
    if not row.feasible:
        return
    assert row.rate <= level + 1e-9
    s = row.sigma_xh
    wit = GaussianReconstruction(src.mu_x, s * s, 0.5 * (src.var_x + s * s - d))
    stats = gaussian_recon_stats(src, wit)
    assert stats.distortion == pytest.approx(d, abs=1e-9)
    assert stats.mutual_info == pytest.approx(row.rate, abs=1e-9)
    assert stats.perception <= row.min_p + 1e-9
    assert stats.cond_entropy_s <= c + 1e-9


@pytest.mark.parametrize("p", [1e5, 125947.0, 125948.0, 1e12, 1e300, 4e307])
def test_kl_interval_lower_end_at_large_p(p):
    # from p = 125947.9 on e^(2 sqrt(p)) overflows; the lower end t meets
    # KL = (1/t - 1 + ln t) / 2 = p, so t (1 - ln t + 2p) = 1, t about 1 / (2p)
    lo, hi = rpc_given_d._kl_interval(p)
    assert hi == math.inf
    assert lo * (1.0 - math.log(lo) + 2.0 * p) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("p", [5e307, 1.7976931348623157e308])
def test_kl_interval_lower_end_past_the_float_range_is_zero(p):
    assert rpc_given_d._kl_interval(p) == (0.0, math.inf)


@pytest.mark.parametrize("p", [1e12, 1e300, 1.7976931348623157e308])
def test_huge_kl_bounds_answer_like_no_bound(p):
    for d, c in ((0.5, H_S - 0.05), (0.8, H_S - 0.3), (0.5, 0.5)):
        got, free = rate_given_pcd(SRC, d, p, c), rate_given_pcd(SRC, d, math.inf, c)
        assert (got.rate, got.region, got.witness) == (free.rate, free.region, free.witness)


@pytest.mark.parametrize("c", [H_S + 354.0, H_S + 400.0, 1e300, math.inf])
def test_classification_bounds_above_h_s_are_vacuous(c):
    # math.exp(2 (C - h(S))) overflows past h(S) + 354.9; k is -inf from h(S) on
    for d, p in ((0.5, 0.1), (0.3, math.inf), (1.5, 0.0)):
        got, ref = rate_given_pcd(SRC, d, p, c), rate_given_pcd(SRC, d, p, H_S + 1.0)
        assert (got.rate, got.region, got.witness) == (ref.rate, ref.region, ref.witness)
    for d, level in ((0.5, 1.0), (0.5, 0.3), (2.0, 0.0)):
        (got,) = pc_frontier_given_rd(SRC, d, level, [c])
        (ref,) = pc_frontier_given_rd(SRC, d, level, [H_S + 1.0])
        # repr keeps every bit and lets NaN rows compare equal
        assert repr(astuple(got)[1:]) == repr(astuple(ref)[1:])


def test_an_uncorrelated_label_is_out_of_reach_below_h_s():
    # rho = 0: no reconstruction lowers H(S|Xhat), so k is +inf
    src = GaussianPairSource(0.0, 0.0, 1.0, 1.0, 0.0)
    pt = rate_given_pcd(src, 0.5, math.inf, src.h_s - 0.1)
    assert pt.region is Region.INFEASIBLE and math.isnan(pt.rate) and pt.witness is None
