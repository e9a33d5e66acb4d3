import math
import os

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


def test_gaussian_oracle_worker_count_is_invisible():
    lone = gaussian_min_rate(GSRC, {"D": 0.5, "C": H_S - 0.3}, workers=1)
    team = gaussian_min_rate(GSRC, {"D": 0.5, "C": H_S - 0.3}, workers=8)
    assert lone.rate == team.rate
    assert lone.argmin == team.argmin


@pytest.mark.parametrize("cpus, pools", [(2, [2]), (None, [])])
def test_argmin_threads_capped_at_cpu_count(monkeypatch, cpus, pools):
    made = []

    class RecordingPool:
        """Records the pool size and maps in this thread; starts none."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(oracle, "ThreadPoolExecutor", RecordingPool)
    obj = np.arange(12.0).reshape(6, 2)[::-1]
    mask = np.ones_like(obj, dtype=bool)
    assert oracle._chunked_masked_argmin(obj, mask, 1001) == (0.0, 5, 0)
    assert made == pools
