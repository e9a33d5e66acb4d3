"""Search routines: the predicate bisection returns what the scalar loop
kept here as the reference returns, and ``brent_min`` is SciPy's bounded
Brent bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from rdpc import DomainError, default_model, kl_of_gain, kl_of_gains
from rdpc.optimize import _MAX_HALVINGS, bisect_predicate, bisect_root, brent_min


def _loop_bisect_predicate(pred, lo, hi, xtol, max_iter=200):
    if not pred(hi):
        raise DomainError("predicate must hold at the upper end of the bracket")
    if pred(lo):
        return lo
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo < xtol:
            break
    return hi


brackets = st.lists(
    st.tuples(
        st.floats(-5.0, 5.0),  # lower end
        st.floats(0.0, 3.0),  # width
        st.floats(-0.5, 1.5),  # where the target sits, as a share of the width
    ),
    min_size=1,
    max_size=12,
)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(brackets, st.sampled_from([1e-12, 1e-10, 1e-6, 0.3]))
def test_bisect_predicate_equals_the_reference_loop(cases, xtol):
    for lo, width, share in cases:
        # the switch point; a share below 0 makes the predicate hold at lo
        t = lo + min(share, 1.0) * width
        want = _loop_bisect_predicate(lambda x: x >= t, lo, lo + width, xtol)
        assert bisect_predicate(lambda x: x >= t, lo, lo + width, xtol=xtol) == want


def test_bisect_predicate_refuses_a_bracket_whose_upper_end_fails():
    with pytest.raises(DomainError):
        bisect_predicate(lambda x: x > 0.5, 0.0, 0.2)


def _kl_case():
    """The KL at sigma_n = 1 on the bracket a KL-MSE frontier searches: the
    two grid cells around the screen's argmin."""
    model = default_model()
    grid = np.linspace(0.05, 1.5, 73)
    k = int(np.argmin(kl_of_gains(model, grid)))
    return (lambda x: kl_of_gain(model, x)), float(grid[k - 1]), float(grid[k + 1])


_CASES = {
    "quadratic": lambda: ((lambda x: (x - 0.3) * (x - 0.3) + 1.0), -1.0, 2.0),
    "cos": lambda: (math.cos, 2.0, 4.0),
    "increasing": lambda: ((lambda x: 2.0 * x - 1.0), 0.0, 1.0),
    "decreasing": lambda: ((lambda x: 1.0 - 2.0 * x), 0.0, 1.0),
    "kink": lambda: ((lambda x: abs(x - 0.5)), 0.0, 1.0),
    "kl": _kl_case,
}


@pytest.mark.parametrize("case", list(_CASES))
@pytest.mark.parametrize("xtol", [1e-8, 1e-5])
def test_brent_min_matches_scipy_bounded(case, xtol):
    f, lo, hi = _CASES[case]()
    ours, theirs = [], []
    x, fun = brent_min(lambda t: ours.append(t) or f(t), lo, hi, xtol=xtol)
    ref = minimize_scalar(lambda t: theirs.append(t) or f(t), bounds=(lo, hi),
                          method="bounded", options={"xatol": xtol})
    assert (x, fun) == (ref.x, ref.fun)
    assert ours == theirs and len(ours) == ref.nfev
    assert lo < x < hi


def test_brent_min_stops_at_max_iter_like_scipy():
    calls = []
    x, fun = brent_min(lambda t: calls.append(t) or math.cos(t), 2.0, 4.0,
                       xtol=1e-12, max_iter=5)
    ref = minimize_scalar(math.cos, bounds=(2.0, 4.0), method="bounded",
                          options={"xatol": 1e-12, "maxiter": 5})
    assert (x, fun, len(calls)) == (ref.x, ref.fun, ref.nfev) == (x, fun, 5)


@pytest.mark.parametrize(
    "lo, hi", [(1.0, 0.0), (math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0)]
)
def test_brent_min_refuses_bad_brackets(lo, hi):
    calls = []
    with pytest.raises(DomainError):
        brent_min(lambda t: calls.append(t) or t * t, lo, hi)
    assert calls == []


def test_bisect_root_sign_test_survives_underflow():
    # f(lo) * f(mid) underflows to -0.0 here; the bracket still closes on
    # the root instead of walking to the upper end
    assert 0.0 <= bisect_root(lambda x: x - 5e-324, 0.0, 1.0) <= 1e-12
    assert 0.0 <= bisect_root(lambda x: 5e-324 - x, 0.0, 1.0) <= 1e-12


def test_bisect_root_returns_an_end_whose_value_is_zero():
    assert bisect_root(lambda x: x, 0.0, 1.0) == 0.0
    assert bisect_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_bisect_root_refuses_a_bracket_without_a_sign_change():
    with pytest.raises(DomainError, match="no sign change"):
        bisect_root(lambda x: x + 1.0, 0.0, 1.0)


def test_bisect_root_stops_at_its_halving_cap():
    # with xtol 0 and no exact zero, only the cap ends the loop
    calls = []

    def step(x):
        calls.append(x)
        return -1.0 if x < 1.0 / 3.0 else 1.0

    root = bisect_root(step, 0.0, 1.0, xtol=0.0)
    assert len(calls) == 2 + _MAX_HALVINGS
    assert abs(root - 1.0 / 3.0) <= math.ulp(1.0 / 3.0)
