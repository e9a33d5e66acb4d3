import math

import numpy as np
import pytest

from rdpc import (
    DomainError,
    GaussianMixture2,
    bayes_threshold_clean,
    default_model,
    error_rate_of_gain,
    error_rate_reoptimized,
    frontier,
    kl_of_gain,
    monte_carlo_mse,
    mse_of_gain,
    scaled_mixture,
    sweep,
)
from rdpc import restoration
from rdpc.entropy import _quad_with_budget

MODEL = default_model()
BAYES_ERROR = 0.204117333467254  # min over thresholds, invariant under gain


def test_clean_bayes_threshold():
    assert MODEL.threshold_c0 == pytest.approx(math.log(7.0 / 3.0) / 2.0, abs=1e-12)
    assert MODEL.threshold_c0 == pytest.approx(0.423648930193602, abs=1e-12)


def test_symmetric_mixture_threshold_is_zero():
    mix = GaussianMixture2(w1=0.5, w2=0.5, m1=-1.0, m2=1.0, v1=1.0, v2=1.0)
    assert bayes_threshold_clean(mix) == pytest.approx(0.0, abs=1e-12)


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


def _scalar_probe_numeric_kl(
    density_p, density_q, support, *, atol=1e-8, points=None, log_p=None, log_q=None
):
    """Reference: numeric_kl as it was with a point-by-point probe."""
    lo, hi = support
    grid = np.linspace(lo, hi, 4097)
    p_vals = np.array([density_p(float(x)) for x in grid])
    q_vals = np.array([density_q(float(x)) for x in grid])
    if np.any(p_vals < 0.0) or np.any(q_vals < 0.0):
        raise DomainError("densities must be nonnegative")
    live = p_vals >= 1e-300
    if not np.any(live):
        return 0.0
    if log_q is not None:
        if any(log_q(float(x)) == -math.inf for x in grid[live]):
            raise DomainError("q vanishes where p does not; KL is undefined")
    elif np.any(q_vals[live] <= 0.0):
        raise DomainError("q vanishes where p does not; KL is undefined")

    for name, dens in (("p", density_p), ("q", density_q)):
        mass = _quad_with_budget(dens, lo, hi, 1e-9, points)
        if abs(mass - 1.0) > 1e-8:
            raise DomainError(f"density {name} integrates to {mass}, not 1")

    idx = np.nonzero(live)[0]
    step = float(grid[1] - grid[0])
    lo_eff = max(lo, float(grid[idx[0]]) - step)
    hi_eff = min(hi, float(grid[idx[-1]]) + step)

    if log_p is not None and log_q is not None:

        def integrand(x):
            lp = log_p(x)
            p = math.exp(lp)
            if p < 1e-300:
                return 0.0
            return p * (lp - log_q(x))

    else:

        def integrand(x):
            p = density_p(x)
            if p < 1e-300:
                return 0.0
            q = max(density_q(x), 5e-324)
            return p * math.log(p / q)

    return _quad_with_budget(integrand, lo_eff, hi_eff, atol, points)


@pytest.mark.parametrize("sigma_n", [1.0, 0.0])
def test_sweep_is_bit_identical_to_scalar_probe(monkeypatch, sigma_n):
    model = default_model(sigma_n=sigma_n)
    gains = np.linspace(0.05, 1.5, 15)
    rows = sweep(model, gains)
    monkeypatch.setattr(restoration, "numeric_kl", _scalar_probe_numeric_kl)
    assert sweep(model, gains) == rows


def _seed_monte_carlo_mse(model, a, n, seed):
    mix = model.mixture
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    remaining = n
    while remaining > 0:
        m = min(remaining, 1_000_000)
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


@pytest.mark.parametrize("n", [1_000_003, 10])
def test_monte_carlo_is_bit_identical_to_seed_formula(n):
    assert monte_carlo_mse(MODEL, 0.8, n, seed=5) == _seed_monte_carlo_mse(
        MODEL, 0.8, n, seed=5
    )
