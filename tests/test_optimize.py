"""Lockstep searches: every bracket takes the iterates of its one-bracket
search, checked against the scalar loops kept here as the reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdpc import DomainError
from rdpc.optimize import (
    bisect_predicate,
    bisect_predicates,
    bisect_root,
    golden_min,
    golden_mins,
)

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


def _loop_golden_min(f, lo, hi, xtol, max_iter=200):
    a, b = lo, hi
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
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
    candidates = [(f(a), a), (f1, x1), (f2, x2), (f(b), b)]
    best = min(candidates, key=lambda t: (t[0], t[1]))
    return best[1], best[0]


brackets = st.lists(
    st.tuples(
        st.floats(-5.0, 5.0),  # lower end
        st.floats(0.0, 3.0),  # width
        st.floats(-0.5, 1.5),  # where the target sits, as a share of the width
        st.floats(0.0, 4.0),  # curvature
    ),
    min_size=1,
    max_size=12,
)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(brackets, st.sampled_from([1e-12, 1e-10, 1e-6, 0.3]))
def test_lockstep_golden_equals_one_bracket_searches(rows, xtol):
    lo = [r[0] for r in rows]
    hi = [r[0] + r[1] for r in rows]
    m = np.array([r[0] + r[2] * r[1] for r in rows])
    c = np.array([r[3] for r in rows])

    def f_vec(x, i):
        # a quadratic, flat when the curvature is 0: ties between iterates
        return c[i] * ((x - m[i]) * (x - m[i]))

    xs, vals = golden_mins(f_vec, lo, hi, xtol=xtol)
    for k in range(len(rows)):
        ck, mk = float(c[k]), float(m[k])

        def f(x):
            return ck * ((x - mk) * (x - mk))

        want = _loop_golden_min(f, lo[k], hi[k], xtol)
        assert (float(xs[k]), float(vals[k])) == want
        assert golden_min(f, lo[k], hi[k], xtol=xtol) == want


@settings(derandomize=True, max_examples=80, deadline=None)
@given(brackets, st.sampled_from([1e-12, 1e-10, 1e-6, 0.3]))
def test_lockstep_bisection_equals_one_bracket_searches(rows, xtol):
    lo = [r[0] for r in rows]
    hi = [r[0] + r[1] for r in rows]
    # the switch point; a share below 0 makes the predicate hold at lo
    t = np.array([r[0] + min(r[2], 1.0) * r[1] for r in rows])

    found = bisect_predicates(lambda x, i: x >= t[i], lo, hi, xtol=xtol)
    for k in range(len(rows)):
        tk = float(t[k])
        want = _loop_bisect_predicate(lambda x: x >= tk, lo[k], hi[k], xtol)
        assert float(found[k]) == want
        assert bisect_predicate(lambda x: x >= tk, lo[k], hi[k], xtol=xtol) == want


def test_lockstep_searches_call_once_per_step():
    sizes = []

    def f_vec(x, i):
        sizes.append(x.size)
        return (x - 0.3 * i) ** 2

    golden_mins(f_vec, [0.0, 0.0, -1.0], [1.0, 2.0, 1.0], xtol=1e-8)
    # both interior points, one point per open bracket, both ends
    assert sizes[0] == 6 and sizes[-1] == 6
    assert max(sizes[1:-1]) <= 3
    scalar_calls = []
    golden_min(lambda x: scalar_calls.append(x) or (x - 0.6) ** 2, 0.0, 2.0, xtol=1e-8)
    assert len(sizes) == len(scalar_calls) - 2  # the widest bracket sets the steps


def test_lockstep_searches_refuse_bad_brackets():
    with pytest.raises(DomainError):
        golden_mins(lambda x, i: x, [0.0, 1.0], [1.0, 0.5])
    with pytest.raises(DomainError):
        bisect_predicates(lambda x, i: x > 0.5, [0.0, 0.0], [1.0, 0.2])


def test_bisect_root_sign_test_survives_underflow():
    # f(lo) * f(mid) underflows to -0.0 here; the bracket still closes on
    # the root instead of walking to the upper end
    assert 0.0 <= bisect_root(lambda x: x - 5e-324, 0.0, 1.0) <= 1e-12
    assert 0.0 <= bisect_root(lambda x: 5e-324 - x, 0.0, 1.0) <= 1e-12
