"""Self-check suites: invariants, oracle cross-checks, and gap probes.

Each suite exercises one slice of the package at documented tolerances
and reports measured extremes next to the tolerance it compared against,
so a report is useful even when everything passes. Suites draw any
randomness from a generator seeded by (seed, fixed per-suite index);
results are therefore reproducible and independent of which other suites
run alongside. The worker count is accepted and has no effect, so reports
are byte-identical across worker counts.

One suite is special: the binary perception probe measures the distance
between the closed-form rate at C = 0.6 and the brute-force optimum on
the zero-total-variation line. That difference is a known defect of
``rpc_binary``, whose rate ignores P and so falls below the true minimum
when P is under the total variation of its backward channel. It is
reported as a gap probe and never fails the run.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .closed_form import (
    _rdc_binary_rates,
    _rdc_gaussian_rates,
    rdc_binary,
    rdc_gaussian,
    rpc_binary,
    rpc_gaussian,
)
from .entropy import (
    _h2_bits_arr,
    binary_entropy,
    binary_entropy_inv,
    gaussian_diff_entropy,
    gaussian_kl,
)
from .errors import DomainError
from .oracle import (
    _MGL_SLICE,
    _mgl_margins,
    binary_min_rate,
    gaussian_min_rate,
    mrs_gerber_check,
)
from .results import ChannelStats, GaussianReconstruction, Region
from .restoration import (
    bayes_threshold_clean,
    default_model,
    error_rate_of_gain,
    error_rate_reoptimized,
    frontier,
    monte_carlo_mses,
    mse_of_gain,
    sweep,
)
from .rpc_given_d import pc_frontier_given_rd, rate_given_pcd
from .sources import (
    BinaryPairSource,
    GaussianMixture2,
    GaussianPairSource,
    binary_channel_stats,
    gaussian_recon_stats,
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    measured: dict[str, float]
    tolerances: dict[str, float]

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class GapProbe:
    instance: str
    closed_form: float
    oracle: float
    gap: float

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class VerifyReport:
    seed: int
    suites: list[SuiteResult]
    gap_probes: list[GapProbe] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self) | {"all_passed": self.all_passed}


class _Recorder:
    """Accumulates named measurements against tolerances.

    ``worst(name, value, tol)`` keeps the largest value seen per name (a
    NaN, once seen, stays, so the report shows why the suite failed) and
    fails the suite if a value is NaN or exceeds the tolerance; ``flag``
    records a boolean condition as 0/1 with tolerance 0. Every suite
    returns its recorder; ``run_suites`` names the result and collects
    ``probes``.
    """

    def __init__(self) -> None:
        self.measured: dict[str, float] = {}
        self.tolerances: dict[str, float] = {}
        self.probes: list[GapProbe] = []
        self.ok = True

    def worst(self, name: str, value: float, tol: float) -> None:
        prev = self.measured.get(name, -math.inf)
        self.measured[name] = value if value > prev or math.isnan(value) else prev
        self.tolerances[name] = tol
        if not (value <= tol):
            self.ok = False

    def flag(self, name: str, condition: bool) -> None:
        self.worst(name, 0.0 if condition else 1.0, 0.0)

    def result(self, name: str) -> SuiteResult:
        return SuiteResult(
            name=name, passed=self.ok,
            measured=self.measured, tolerances=self.tolerances,
        )


def _rng_for(seed: int, suite_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, suite_index])


def _max_increase(values: Sequence[float]) -> float:
    """Largest step up along a sequence expected to be non-increasing.

    Consecutive infinities (an infeasible prefix) are not an increase.
    """
    worst = 0.0
    for left, right in zip(values, values[1:]):
        if math.isinf(left) and math.isinf(right):
            continue
        worst = max(worst, right - left)
    return worst


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _suite_entropy(seed: int) -> _Recorder:
    rec = _Recorder()
    rng = _rng_for(seed, 0)

    hs = rng.uniform(0.0, 1.0, size=2000)
    rt = max(abs(binary_entropy(binary_entropy_inv(float(h))) - h) for h in hs)
    rec.worst("entropy_inverse_roundtrip", rt, 1e-12)

    rec.worst("h2_quarter", abs(binary_entropy(0.25) - 0.811278124459133), 1e-12)
    rec.worst("h2_tenth", abs(binary_entropy(0.1) - 0.468995593589281), 1e-12)
    rec.worst(
        "hinv_0p6", abs(binary_entropy_inv(0.6) - 0.146102403411887), 1e-11
    )
    # convolving the label noise with the classification-tight crossover
    # must land exactly on the entropy inverse it was derived from
    c1 = (binary_entropy_inv(0.6) - 0.1) / 0.8
    rec.worst(
        "convolution_identity",
        abs(0.1 * (1.0 - c1) + c1 * (1.0 - 0.1) - binary_entropy_inv(0.6)),
        1e-12,
    )

    rec.worst(
        "gauss_h_s", abs(gaussian_diff_entropy(0.49) - 1.06226358926594), 1e-12
    )
    rec.worst(
        "gauss_h_unit_arg",
        abs(gaussian_diff_entropy(1.0 / (2.0 * math.pi * math.e))),
        1e-12,
    )
    rec.worst("gauss_kl_self", abs(gaussian_kl(0.3, 1.2, 0.3, 1.2)), 0.0)
    return rec


def _suite_mgl(seed: int) -> _Recorder:
    """Mrs. Gerber's lemma on 100,000 random sources and channels, through
    ``_mgl_margins``, the bulk kernel that ``mrs_gerber_check`` wraps, and
    its equality case on three backward witnesses."""
    rec = _Recorder()
    rng = _rng_for(seed, 1)
    n = 100_000
    a_vals = rng.uniform(0.02, 0.5, size=n)
    p1_vals = a_vals * rng.uniform(0.1, 0.95, size=n)
    pa_vals = rng.uniform(0.0, 1.0, size=n)
    pb_vals = rng.uniform(0.0, 1.0, size=n)

    lhs, rhs = _mgl_margins(a_vals, p1_vals, pa_vals, pb_vals)
    # slice by slice, so no difference is full length: the recorder keeps
    # the largest value, or a NaN
    for lo in range(0, n, _MGL_SLICE):
        s = slice(lo, lo + _MGL_SLICE)
        rec.worst("min_margin_deficit", float(np.max(rhs[s] - lhs[s])), 1e-10)
        rec.worst("label_floor_deficit", float(np.max(_h2_bits_arr(p1_vals[s]) - lhs[s])), 1e-12)

    # complementary backward conditionals are the equality case
    equality_instances = [
        (BinaryPairSource(0.3, 0.1), 0.3, 0.6),
        (BinaryPairSource(0.3, 0.1), 0.3, 0.8),
        (BinaryPairSource(0.2, 0.05), 0.4, 0.5),
    ]
    for src, d, c in equality_instances:
        chk = mrs_gerber_check(src, rdc_binary(src, d, c).witness)
        rec.worst("equality_gap", abs(chk.lhs - chk.rhs), 1e-10)
    return rec


def _suite_convexity(seed: int) -> _Recorder:
    rec = _Recorder()
    rng = _rng_for(seed, 2)
    n = 10_000

    def convexity(
        tag: str, src: BinaryPairSource | GaussianPairSource, rates: Callable, scalar: Callable,
        d_lo: float, d_hi: float, c_lo: float, c_hi: float,
    ) -> None:
        d1 = rng.uniform(d_lo, d_hi, n)
        d2 = rng.uniform(d_lo, d_hi, n)
        c1 = rng.uniform(c_lo, c_hi, n)
        c2 = rng.uniform(c_lo, c_hi, n)
        lam = rng.uniform(0.0, 1.0, n)
        dm = lam * d1 + (1 - lam) * d2
        cm = lam * c1 + (1 - lam) * c2
        rm = rates(src, dm, cm)
        chord = lam * rates(src, d1, c1) + (1 - lam) * rates(src, d2, c2)
        rec.worst(f"{tag}_convexity_violation", float(np.max(rm - chord)), 1e-9)
        # the kernel restates the scalar entry point users call
        for i in range(0, n, 100):
            got = scalar(src, float(dm[i]), float(cm[i])).rate
            rec.worst(f"{tag}_scalar_array_mismatch", abs(got - float(rm[i])), 1e-9)

    bsrc = BinaryPairSource(0.3, 0.1)
    convexity("binary", bsrc, _rdc_binary_rates, rdc_binary, 0.0, 0.6, bsrc.floor_c + 1e-6, 1.0)
    gsrc = GaussianPairSource(0.0, 0.0, 1.0, 0.49, 0.63)
    convexity(
        "gaussian", gsrc, _rdc_gaussian_rates, rdc_gaussian,
        0.05, 2.5, gsrc.floor_c + 1e-6, gsrc.h_s + 0.4,
    )

    def monotone_increase(rates: np.ndarray) -> float:
        return max(float(np.max(np.diff(rates, axis=0))), float(np.max(np.diff(rates, axis=1))))

    m = 200
    dgrid = np.linspace(0.0, 0.6, m)
    cgrid = np.linspace(bsrc.floor_c + 1e-9, 1.05, m)
    rates = _rdc_binary_rates(bsrc, dgrid[:, None], cgrid)
    rec.worst("binary_monotonicity_increase", monotone_increase(rates), 1e-12)

    dgrid = np.linspace(0.01, 2.5, m)
    cgrid = np.linspace(gsrc.floor_c + 1e-9, gsrc.h_s + 0.4, m)
    rates = _rdc_gaussian_rates(gsrc, dgrid[:, None], cgrid)
    rec.worst("gaussian_monotonicity_increase", monotone_increase(rates), 1e-12)
    return rec


_BINARY_ORACLE_SOURCES = (BinaryPairSource(0.3, 0.1), BinaryPairSource(0.45, 0.2))
_BINARY_ORACLE_DC = ((0.1, 0.85), (0.3, 0.6), (0.3, 1.0), (0.02, 0.95), (0.25, 0.5))
_GAUSSIAN_ORACLE_SOURCE = GaussianPairSource(0.0, 0.0, 1.0, 0.49, 0.63)
# each bound's ChannelStats field, and the report name of its argmin excess
_ARGMIN_EXCESS = {
    "D": ("distortion", "argmin_mse_excess"),
    "P": ("perception", "argmin_kl_excess_over_p"),
    "C": ("cond_entropy_s", "argmin_cond_entropy_excess"),
}


def _oracle_agreement(closed_form: Callable, min_rate: Callable, stats_of: Callable,
                      cases: Iterable[tuple[Any, dict[str, float]]],
                      d_name: str = "argmin_mse_excess") -> _Recorder:
    """A closed form against its oracle on each (source, bounds) case:
    feasibility agrees, the rates are within 1e-3, and the oracle's argmin
    meets each bound within 1e-9 (D's excess reported as ``d_name``). A
    P bound below 1e-3 also caps the argmin's KL at 1e-3."""
    rec = _Recorder()
    for src, bounds in cases:
        closed = closed_form(src, *bounds.values())
        got = min_rate(src, bounds)
        rec.flag("feasibility_agreement", closed.feasible == got.feasible)
        if closed.feasible and got.feasible:
            rec.worst("max_rate_diff", abs(closed.rate - got.rate), 1e-3)
            stats = stats_of(src, got.argmin)
            for key, bound in bounds.items():
                attr, name = _ARGMIN_EXCESS[key]
                value = getattr(stats, attr)
                rec.worst(d_name if key == "D" else name, value - bound, 1e-9)
                if key == "P" and bound < 1e-3:
                    rec.worst("tight_p_argmin_kl", value, 1e-3)
    return rec


def _suite_oracle_rdc_binary(seed: int) -> _Recorder:
    cases = [(src, {"D": d, "C": c}) for src in _BINARY_ORACLE_SOURCES
             for d, c in _BINARY_ORACLE_DC]
    return _oracle_agreement(rdc_binary, binary_min_rate, binary_channel_stats, cases,
                             "argmin_distortion_excess")


def _suite_oracle_rdc_gaussian(seed: int) -> _Recorder:
    src = _GAUSSIAN_ORACLE_SOURCE
    h = src.h_s
    cases = [
        (0.1, h - 0.5), (0.5, h - 0.5), (0.3, h - 0.2),
        (0.8, h - 0.7), (1.5, h + 0.14), (0.5, 0.2),
    ]
    return _oracle_agreement(rdc_gaussian, gaussian_min_rate, gaussian_recon_stats,
                             [(src, {"D": d, "C": c}) for d, c in cases])


def _suite_oracle_rpc_gaussian(seed: int) -> _Recorder:
    src = _GAUSSIAN_ORACLE_SOURCE
    h = src.h_s
    # the closed form ignores P entirely; the oracle must reproduce its
    # rate even when the divergence budget is squeezed to 5e-4 nats
    cases = [
        (0.0005, h - 0.5), (0.001, h - 0.3), (0.01, h - 0.5),
        (1.0, h - 0.5), (0.05, h + 0.1), (10.0, 0.2),
    ]
    return _oracle_agreement(rpc_gaussian, gaussian_min_rate, gaussian_recon_stats,
                             [(src, {"P": p, "C": c}) for p, c in cases])


def _suite_rpc_binary_gap_probe(seed: int) -> _Recorder:
    rec = _Recorder()
    src = BinaryPairSource(0.3, 0.1)
    c = 0.6

    closed_rate = rpc_binary(src, 0.05, c).rate
    relaxed = binary_min_rate(src, {"C": c, "P": 0.05})
    rec.worst("oracle_vs_closed_form_p0.05", abs(relaxed.rate - closed_rate), 1e-3)
    tv_at_relaxed = binary_channel_stats(src, relaxed.argmin).perception
    rec.worst("relaxed_argmin_tv", tv_at_relaxed, 0.05 + 1e-9)

    line_wit = rpc_binary(src, 0.0, c).witness
    line_stats = binary_channel_stats(src, line_wit)
    rec.worst("line_witness_tv", abs(line_stats.perception), 1e-12)
    rec.worst("line_witness_cond_entropy_err", abs(line_stats.cond_entropy_s - c), 1e-9)

    probe = binary_min_rate(src, {"C": c, "P": 0.0})
    rec.worst(
        "probe_vs_line_witness", abs(probe.rate - line_stats.mutual_info), 1e-3
    )
    probe_tv = binary_channel_stats(src, probe.argmin).perception
    rec.worst("probe_argmin_tv", probe_tv, 1e-6 + 1e-9)

    rec.probes.append(GapProbe(
        instance="binary a=0.3 p1=0.1 C=0.6, perception 0.05 vs <=1e-6",
        closed_form=closed_rate,
        oracle=probe.rate,
        gap=probe.rate - closed_rate,
    ))
    return rec


def _suite_restoration(seed: int) -> _Recorder:
    rec = _Recorder()
    rng = _rng_for(seed, 7)
    model = default_model()

    rec.worst(
        "bayes_threshold_err",
        abs(model.threshold_c0 - 0.423648930193602), 1e-12,
    )
    sym = GaussianMixture2(0.5, 0.5, -2.0, 2.0, 1.0, 1.0)
    rec.worst("symmetric_threshold", abs(bayes_threshold_clean(sym)), 1e-12)

    grid = [round(0.05 + 0.01 * k, 10) for k in range(146)]
    curve = sweep(model, grid)
    mse_arg = min(curve, key=lambda q: q.mse).a
    eps_best = min(curve, key=lambda q: q.error_rate)
    kl_arg = min(curve, key=lambda q: q.kl).a
    rec.worst("mse_argmin_err", abs(mse_arg - 2.0 / 3.0), 0.01)
    rec.worst("error_rate_argmin_err", abs(eps_best.a - 0.50), 0.02)
    rec.worst("error_rate_min_err", abs(eps_best.error_rate - 0.204), 0.003)
    rec.worst("kl_argmin_err", abs(kl_arg - 0.81), 0.02)

    # scaling gain and threshold together leaves the error rate alone
    for lam in (0.5, 2.0, 3.0):
        scaled = error_rate_of_gain(
            model, lam * 0.7, threshold=lam * model.threshold_c0
        )
        rec.worst(
            "threshold_homogeneity",
            abs(scaled - error_rate_of_gain(model, 0.7)), 1e-12,
        )

    control = [error_rate_reoptimized(model, a) for a in grid]
    rec.worst("reoptimized_control_spread", max(control) - min(control), 1e-9)

    gains = (0.5, float(rng.uniform(0.3, 1.2)))
    for a, (est, se) in zip(gains, monte_carlo_mses(model, gains, 1_000_000, seed=seed)):
        rec.worst(
            "monte_carlo_sigmas",
            abs(est - mse_of_gain(model, a)) / se, 4.0,
        )

    def shape_checks(tag: str, rows: Sequence, expect_tradeoff: bool) -> None:
        vals = [r.value for r in rows if r.feasible]
        rec.flag(f"{tag}_has_feasible", len(vals) >= 2)
        rec.worst(f"{tag}_monotone_increase", _max_increase(vals), 1e-10)
        if expect_tradeoff:
            rec.flag(f"{tag}_non_constant", max(vals) - min(vals) > 1e-6)
        else:
            rec.worst(f"{tag}_collapse_spread", max(vals) - min(vals), 1e-9)

    dp = frontier(model, "kl", "mse", [0.5, 0.7, 0.8, 1.0, 1.3], grid_points=73)
    rec.flag("dp_infeasible_below_mse_min", not dp[0].feasible)
    shape_checks("dp", dp[1:], expect_tradeoff=True)
    dc = frontier(model, "error_rate", "mse", [0.7, 0.8, 1.0, 1.3], grid_points=73)
    shape_checks("dc", dc, expect_tradeoff=True)
    pc = frontier(
        model, "kl", "error_rate", [0.2045, 0.206, 0.21, 0.3], grid_points=73
    )
    shape_checks("pc", pc, expect_tradeoff=True)

    clean = default_model(sigma_n=0.0)
    curve0 = sweep(clean, grid)
    rec.worst("clean_mse_argmin_err", abs(min(curve0, key=lambda q: q.mse).a - 1.0), 0.011)
    rec.worst("clean_eps_argmin_err", abs(min(curve0, key=lambda q: q.error_rate).a - 1.0), 0.011)
    rec.worst("clean_kl_argmin_err", abs(min(curve0, key=lambda q: q.kl).a - 1.0), 0.011)
    dp0 = frontier(clean, "kl", "mse", [0.1, 0.5, 1.0], grid_points=73)
    shape_checks("clean_dp", dp0, expect_tradeoff=False)
    return rec


def _suite_rpc_given_d(seed: int) -> _Recorder:
    rec = _Recorder()
    src = GaussianPairSource(0.0, 0.0, 1.0, 0.49, 0.63)
    h = src.h_s

    spot = rate_given_pcd(src, 0.5, math.inf, h - 0.3)
    rec.worst("spot_rate_err", abs(spot.rate - 0.407118343711173), 1e-6)
    rec.flag("spot_region", spot.region is Region.CLASSIFICATION_LIMITED)
    assert spot.witness is not None
    s_star = math.sqrt(spot.witness.var_xh)
    rec.worst("spot_spread_err", abs(s_star - 0.98513371810627), 1e-6)
    # both boundary roots of the binding classification constraint carry
    # the same rate; the solver must return the lower-perception one
    k = (1.0 - math.exp(2.0 * ((h - 0.3) - h))) / src.rho**2
    disc = math.sqrt(src.var_x * (k - 1.0) + 0.5)
    root_lo = math.sqrt(src.var_x * k) - disc
    root_hi = math.sqrt(src.var_x * k) + disc

    def pinned(s: float) -> ChannelStats:
        return gaussian_recon_stats(
            src, GaussianReconstruction(src.mu_x, s * s, 0.5 * (src.var_x + s * s - 0.5)))

    at_lo, at_hi = pinned(root_lo), pinned(root_hi)
    rec.worst("root_rate_asymmetry", abs(at_lo.mutual_info - at_hi.mutual_info), 1e-9)
    rec.flag("tie_breaks_to_lower_perception", pinned(s_star).perception <= at_lo.perception)

    for d in (0.2, 0.5, 1.0, 1.6):
        for c in (h - 0.5, h - 0.2, h + 0.1):
            pinned = rate_given_pcd(src, d, math.inf, c)
            free = rdc_gaussian(src, d, c)
            rec.flag("relaxation_feasibility", pinned.feasible == free.feasible)
            if pinned.feasible and free.feasible:
                rec.worst("relaxation_deficit", free.rate - pinned.rate, 1e-6)

    def rate_or_inf(d: float, p: float, c: float) -> float:
        tp = rate_given_pcd(src, d, p, c)
        return tp.rate if tp.feasible else math.inf

    p_grid = (0.001, 0.01, 0.1, math.inf)
    c_grid = (h - 0.4, h - 0.2, h)
    for c in c_grid:
        rates = [rate_or_inf(0.5, p, c) for p in p_grid]
        rec.worst("monotone_in_p_increase", _max_increase(rates), 1e-9)
    for p in p_grid:
        rates = [rate_or_inf(0.5, p, c) for c in c_grid]
        rec.worst("monotone_in_c_increase", _max_increase(rates), 1e-9)
    d_rates = [
        rate_or_inf(float(d), math.inf, h - 0.3) for d in np.linspace(0.2, 2.0, 8)
    ]
    rec.worst("monotone_in_d_increase_unbounded_p", _max_increase(d_rates), 1e-9)

    twice_var = rate_given_pcd(src, 2.0 * src.var_x, 0.0, h + 0.1)
    rec.worst("zero_rate_at_twice_variance", abs(twice_var.rate), 1e-9)
    rec.flag("zero_rate_region", twice_var.region is Region.ZERO_RATE)
    zero_row = pc_frontier_given_rd(src, 2.0 * src.var_x, 0.0, [h + 0.1])[0]
    rec.worst("zero_min_p_at_twice_variance", abs(zero_row.min_p), 1e-9)

    c_scan = [h - 0.68, h - 0.55, h - 0.4, h - 0.25, h - 0.1, h + 0.05]
    level = 1.3

    def spread(d: float) -> float:
        rows = pc_frontier_given_rd(src, d, level, c_scan)
        vals = [r.min_p for r in rows if r.feasible]
        rec.flag(f"frontier_feasible_d{d}", len(vals) >= 2)
        return max(vals) - min(vals) if vals else 0.0

    spread_half = spread(0.5)
    spread_tenth = spread(0.1)
    rec.flag("frontier_non_constant_d0.5", spread_half > 1e-6)
    rec.flag("frontier_shrinks_with_d", spread_tenth < spread_half)

    # witnesses satisfy what they claim
    for d, p, c in ((0.5, 0.0001, h - 0.3), (0.5, math.inf, h - 0.3), (1.2, 0.01, h)):
        tp = rate_given_pcd(src, d, p, c)
        if not tp.feasible:
            continue
        assert tp.witness is not None
        stats = gaussian_recon_stats(src, tp.witness)
        rec.worst("witness_mse_pin_err", abs(stats.distortion - d), 1e-9)
        rec.worst("witness_kl_excess", stats.perception - p, 1e-9)
        rec.worst("witness_cond_entropy_excess", stats.cond_entropy_s - c, 1e-7)
        rec.worst("witness_rate_err", abs(stats.mutual_info - tp.rate), 1e-9)
    return rec


# the suites in report order
_SUITES: dict[str, Callable[[int], _Recorder]] = {
    "entropy": _suite_entropy,
    "mgl": _suite_mgl,
    "convexity": _suite_convexity,
    "oracle-rdc-binary": _suite_oracle_rdc_binary,
    "oracle-rdc-gaussian": _suite_oracle_rdc_gaussian,
    "oracle-rpc-gaussian": _suite_oracle_rpc_gaussian,
    "rpc-binary-gap-probe": _suite_rpc_binary_gap_probe,
    "restoration": _suite_restoration,
    "rpc-given-d": _suite_rpc_given_d,
}

SUITE_NAMES = tuple(_SUITES)


def run_suites(
    names: Iterable[str] | None = None,
    *,
    seed: int = 0,
    workers: int = 1,
) -> VerifyReport:
    """Run the named suites (all of them by default) and build a report.

    ``workers`` is accepted and has no effect; the report captures the
    seed and not the worker count, so identical (suite selection, seed)
    yields identical reports. A seed that is not a nonnegative integer (a
    bool included) raises ``DomainError`` before any suite runs, whether
    or not the selected suites draw from it.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer: {seed!r}")
    selected = list(names) if names is not None else list(SUITE_NAMES)
    unknown = [n for n in selected if n not in SUITE_NAMES]
    if unknown:
        raise DomainError(f"unknown suites: {unknown}; choose from {SUITE_NAMES}")

    suites: list[SuiteResult] = []
    probes: list[GapProbe] = []
    for name in selected:
        rec = _SUITES[name](seed)
        suites.append(rec.result(name))
        probes.extend(rec.probes)
    return VerifyReport(seed=seed, suites=suites, gap_probes=probes)
