"""Information-theoretic primitives.

Conventions used throughout the package:

* Discrete (binary) quantities are measured in **bits**, differential
  quantities in **nats**. Public functions here return plain floats; unit
  tags are attached by the result objects one level up. The private
  ``_arr`` forms of the binary entropy and its inverse work elementwise on
  numpy arrays for the oracle grids and the verify suites.
* ``0 * log 0 == 0`` everywhere, implemented by guarding arguments below
  1e-300 rather than by special-casing exact zeros, so denormals do not
  produce spurious infinities.
* The inverse of the binary entropy returns exactly what a 46-step
  bisection on [0, 1/2] returns, but mostly without running it: a few
  Newton steps find the bisection's last bracket, and a certificate of
  four entropy evaluations proves that the bisection would end there.
  Only the inputs that fail it, mostly entropies near 1, are bisected.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .optimize import bisect_root

_TINY = 1e-300
_INF = math.inf  # a module global reads faster than math.inf


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) variable, in bits."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability out of range: {p}")
    q = 1.0 - p
    return -(p * math.log2(p) if p >= _TINY else 0.0) - (q * math.log2(q) if q >= _TINY else 0.0)


def _h2_bits_arr(x: np.ndarray) -> np.ndarray:
    """Binary entropy in bits, elementwise: -(x log2 x + (1-x) log2(1-x)).

    The formula of the scalar ``binary_entropy``, with its guard: a term
    whose argument is below 1e-300 is 0, so 0 log 0 = 0 without NaN or
    warnings. Each logarithm is taken only where its argument clears the
    guard, so no warning state is switched per call. A NaN gives NaN, and
    an infinite ``x`` gives NaN with numpy's invalid-value warning. A 0-d
    ``x`` gives a 0-d array.
    """
    x = np.asarray(x, dtype=float)
    # into an array of its own: ``1.0 - x`` of a 0-d x is a numpy scalar,
    # which cannot take the second logarithm's ``out``
    rest = np.subtract(1.0, x, out=np.empty(x.shape))
    out = _xlog2x(rest, np.zeros(rest.shape))
    rest.fill(0.0)
    out += _xlog2x(x, rest)
    return np.negative(out, out=out)


def _xlog2x(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x log2 x elementwise into ``out``, which keeps its value where x < 1e-300."""
    np.log2(x, out=out, where=x >= _TINY)
    out *= x
    return out


# The entropy inverse returns what a bisection on [0, 1/2] returns when
# it stops at a half-width below 1e-14: that half-width is first reached
# in a bracket _W wide. _MARGIN is the certificate's M (see
# binary_entropy_inv), and Newton's iterates are held in [5e-324, _P_MAX]:
# at 1/2 the slope of H is 0, and above 0.49 it is too flat for the
# certificate to pass.
_W = 2.0 ** -46
_MARGIN = 4e-15
_LN4 = math.log(4.0)
_NEWTON_STEPS = 4
_P_MAX = 0.49
# the certificate's four points, lo - W to lo + 2W, as offsets from lo
_CERT_STEPS = np.array([[-_W], [0.0], [_W], [2.0 * _W]])
# Elements per slice of the array inverse: whatever the array's size, its
# largest temporaries are (4, 2**13) float64 arrays of 256 KiB, and those
# of one slice come to under 1 MiB.
_SLICE = 2 ** 13


def _entropy_gap(m: float, h: float) -> float:
    """``binary_entropy(m) - h`` in the bisection's arithmetic."""
    rest = 1.0 - m
    return -(m * math.log2(m)) - rest * math.log2(rest) - h


@lru_cache(maxsize=256)
def binary_entropy_inv(h: float) -> float:
    """The unique p in [0, 1/2] with ``binary_entropy(p) == h``.

    The result is that of a bisection on the increasing branch of
    F(p) = binary_entropy(p) - h over [0, 1/2] (``bisect_root``): it
    returns the midpoint at which F is exactly 0 or the half-width of the
    bracket falls below 1e-14, so the result is within 1e-14 of the root.
    That bisection takes 46 steps; most h get its answer without it:

    * Estimate: four Newton steps on F from p0 = (1 - sqrt(1 - x)) / 2
      with x = h**ln 4, the p at which (4 p (1 - p))**(1 / ln 4), a close
      approximation of H, equals h. It is computed as
      x / (2 (1 + sqrt(1 - x))), which does not cancel for small h. Each
      iterate is held in [5e-324, 0.49]. Where x underflows (h below
      about 1e-222), the iterates start at 5e-324 and, F being concave,
      rise towards the root without passing it; the root is below W
      there, so lo = 0 as it should be.
    * Certificate: let W = 2**-46 and lo = floor(p / W) W. The answer is
      lo + W/2, the midpoint of the bisection's last bracket [lo, lo + W],
      when these hold with F evaluated in the bisection's own arithmetic:
      F(lo) < 0 or lo = 0; F(lo + W) > 0; F(lo - W) < -M or lo <= W; and
      F(lo + 2W) > M, with M = 4e-15. (lo + 2W <= 1/2 because p <= 0.49.)
      The bracket ends start at 0 and 1/2 and halve, so every midpoint the
      bisection visits before its last is a multiple of W in (0, 1/2),
      where 1 - m is exact. At lo and lo + W the signs are checked
      directly. Every other such point lies outside (lo - W, lo + 2W), so,
      F being increasing, its true F is below -M/2 or above M/2. The
      computed F is within M/2 of the true one, so its sign is the same,
      no visited F is 0, and the bisection walks to [lo, lo + W].
    * M: let u = 2**-53 and let log2 be within c ULP, so within 2cu of its
      value relatively. Each of the products m log2 m and
      (1 - m) log2(1 - m) is then off by at most (2c + 1) u times its
      magnitude, to first order, and the two magnitudes sum to H(m) <= 1.
      The difference of the products and the subtraction of h each round
      by at most u. So the computed F is within (2c + 3) u of the true
      one, and M = 4e-15 is at least twice that for any c <= 7. glibc's
      log2 and numpy's float64 log2 (by numpy's own accuracy tests) are
      within 1 ULP.
    * Fallback: an h that fails the certificate runs the bisection. Near
      h = 1, where H is flat, every h fails by design; elsewhere an h
      fails when its root lies within rounding of a multiple of W. About
      0.8% of uniform h fall back.

    Results are memoized (256 entries, least recently used first out);
    out-of-range and NaN ``h`` raise ``DomainError`` on every call.
    """
    if not 0.0 <= h <= 1.0:
        raise DomainError(f"binary entropy out of range: {h}")
    if h == 0.0:
        return 0.0
    if h == 1.0:
        return 0.5
    x = h ** _LN4
    p = x / (2.0 * (1.0 + math.sqrt(1.0 - x)))
    for _ in range(_NEWTON_STEPS):
        p = 5e-324 if 5e-324 > p else _P_MAX if _P_MAX < p else p
        rest = 1.0 - p
        lp, lr = math.log2(p), math.log2(rest)
        p += (p * lp + rest * lr + h) / (lr - lp)
    lo = math.floor((5e-324 if 5e-324 > p else _P_MAX if _P_MAX < p else p) / _W) * _W
    if (
        (lo == 0.0 or _entropy_gap(lo, h) < 0.0)
        and _entropy_gap(lo + _W, h) > 0.0
        and (lo <= _W or _entropy_gap(lo - _W, h) < -_MARGIN)
        and _entropy_gap(lo + 2.0 * _W, h) > _MARGIN
    ):
        return lo + 0.5 * _W
    return bisect_root(lambda p: binary_entropy(p) - h, 0.0, 0.5, xtol=1e-14)


def _binary_entropy_inv_arr(h) -> np.ndarray:
    """``binary_entropy_inv`` elementwise, with numpy's log2.

    Each element gets the answer of the scalar's bisection run with
    ``np.log2`` (``_bisect_inv_arr``), by the scalar's Newton estimate and
    certificate, evaluated in that arithmetic; the elements that fail it
    run the bisection in lockstep. As in the scalar, h = 0 and h = 1 get
    0 and 1/2 directly; the certificate always fails at 1. numpy's log2
    can differ from ``math.log2`` in the last bit, so a result may differ
    from the scalar one by the root's width at that precision, 1e-14 or
    less away from h = 1. The array is worked in slices of ``_SLICE``
    elements, so the memory held stays a few MB. Out-of-range and NaN
    ``h`` raise ``DomainError``.
    """
    h = np.asarray(h, dtype=float)
    bad = ~((h >= 0.0) & (h <= 1.0))
    if np.any(bad):
        raise DomainError(f"binary entropy out of range: {h[bad].flat[0]}")
    flat = h.ravel()
    out, failed = np.empty(flat.shape), np.empty(flat.shape, dtype=bool)
    for s in range(0, flat.size, _SLICE):
        _certified_inv(flat[s:s + _SLICE], out[s:s + _SLICE], failed[s:s + _SLICE])
    out[flat == 0.0] = 0.0  # the certificate passes 2**-47 there
    top = flat == 1.0
    out[top], failed[top] = 0.5, False
    if np.any(failed):
        out[failed] = _bisect_inv_arr(flat[failed])
    return out.reshape(h.shape)


def _certified_inv(h: np.ndarray, out: np.ndarray, failed: np.ndarray) -> None:
    """The scalar's Newton estimate and certificate on one slice of h.

    ``out`` receives lo + W/2 and ``failed`` marks where the certificate
    does not hold. Every temporary is one slice long or four.
    """
    n = h.size
    p = np.power(h, _LN4)
    rest = np.subtract(1.0, p)
    np.sqrt(rest, out=rest)
    rest += 1.0
    rest *= 2.0
    p /= rest
    lp, lr = np.empty(n), np.empty(n)
    for _ in range(_NEWTON_STEPS):
        np.clip(p, 5e-324, _P_MAX, out=p)
        np.subtract(1.0, p, out=rest)
        np.log2(p, out=lp)
        np.log2(rest, out=lr)
        rest *= lr
        lr -= lp
        lp *= p
        lp += rest
        lp += h
        lp /= lr
        p += lp
    np.clip(p, 5e-324, _P_MAX, out=p)
    p /= _W
    lo = np.floor(p, out=p)
    lo *= _W
    # F at the four points with the bisection's float operations; the first
    # two are raised to W where they are not positive, and not read there
    m = np.add(lo, _CERT_STEPS)
    np.maximum(m[:2], _W, out=m[:2])
    rest = np.subtract(1.0, m)
    f = np.log2(m)
    f *= m
    np.negative(f, out=f)
    np.log2(rest, out=m)
    m *= rest
    f -= m
    f -= h
    ok = f[1] < 0.0
    ok |= lo == 0.0
    ok &= f[2] > 0.0
    ok &= (f[0] < -_MARGIN) | (lo <= _W)
    ok &= f[3] > _MARGIN
    np.logical_not(ok, out=failed)
    np.add(lo, 0.5 * _W, out=out)


def _bisect_inv_arr(h: np.ndarray) -> np.ndarray:
    """``binary_entropy_inv``'s fallback bisection elementwise with numpy's
    log2, in lockstep.

    Every element takes the scalar's midpoints and sign test and stops
    under its rule: at fmid == 0 it stays at that midpoint, and the
    half-width falls below 1e-14 at the same step for every element,
    because the bracket ends are dyadic and halve exactly.
    """
    # mid stays strictly inside (0, 1/2), so both logs are finite
    lo, hi = np.zeros_like(h), np.full_like(h, 0.5)
    for step in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 ** (step + 2) < 1e-14:  # (hi - lo) * 0.5 at this step
            break
        rest = 1.0 - mid
        fmid = -(mid * np.log2(mid)) - rest * np.log2(rest) - h
        up = fmid > 0.0
        hi = np.where(up | (fmid == 0.0), mid, hi)
        lo = np.where(up, lo, mid)
    return np.where(h == 0.0, 0.0, np.where(h == 1.0, 0.5, mid))


def _binary_point(
    b1: float, p1: float, p_a: float, p_b: float
) -> tuple[float, float, float, float]:
    """(mutual_info, distortion, tv, cond_entropy_S) in bits of one binary
    channel: ``b1`` is P(X = 1), ``p1`` the label flip probability and
    (p_a, p_b) the channel. The closed forms' zero-divergence line and
    ``sources.binary_channel_stats`` both evaluate it;
    ``oracle._binary_joint_arr`` is its array form."""
    q0 = (1.0 - b1) * p_a + b1 * p_b
    info = binary_entropy(q0) - ((1.0 - b1) * binary_entropy(p_a) + b1 * binary_entropy(p_b))
    hs = 0.0
    # each value of Xhat adds its probability times h(p1 * P(X=1 | Xhat))
    if q0 > 0.0:
        x1_given_0 = b1 * p_b / q0
        x1_given_0 = 0.0 if 0.0 > x1_given_0 else 1.0 if 1.0 < x1_given_0 else x1_given_0
        hs += q0 * binary_entropy(p1 * (1.0 - x1_given_0) + x1_given_0 * (1.0 - p1))
    if q0 < 1.0:
        x1_given_1 = b1 * (1.0 - p_b) / (1.0 - q0)
        x1_given_1 = 0.0 if 0.0 > x1_given_1 else 1.0 if 1.0 < x1_given_1 else x1_given_1
        hs += (1.0 - q0) * binary_entropy(p1 * (1.0 - x1_given_1) + x1_given_1 * (1.0 - p1))
    dist = (1.0 - b1) * (1.0 - p_a) + b1 * p_b
    return 0.0 if 0.0 > info else info, dist, abs(q0 - (1.0 - b1)), hs


def gaussian_diff_entropy(variance: float) -> float:
    """Differential entropy of a Gaussian with the given variance, in nats.
    A variance that is not positive and finite raises ``DomainError``."""
    if not 0.0 < variance < math.inf:
        raise DomainError(f"variance must be positive and finite: {variance}")
    return 0.5 * math.log(2.0 * math.pi * math.e * variance)


def gaussian_kl(mean1: float, var1: float, mean2: float, var2: float) -> float:
    """KL divergence N(mean1, var1) || N(mean2, var2), in nats. A mean that
    is not finite, a variance that is not positive and finite, and a mean
    difference whose square overflows raise ``DomainError``."""
    if not (0.0 < var1 < math.inf and 0.0 < var2 < math.inf):
        raise DomainError(f"variances must be positive and finite: ({var1}, {var2})")
    if not (math.isfinite(mean1) and math.isfinite(mean2)):
        raise DomainError(f"means must be finite: ({mean1}, {mean2})")
    try:
        shift2 = (mean1 - mean2) ** 2
    except OverflowError:  # a Python float raises where numpy gives inf
        raise DomainError(f"(mean1 - mean2)^2 overflows: ({mean1}, {mean2})") from None
    return _gaussian_kl(var1, var2, shift2)


def _gaussian_kl(var1: float, var2: float, shift2: float) -> float:
    """``gaussian_kl`` from the squared mean difference, unchecked."""
    try:
        log_ratio = math.log(var2 / var1)
    except ValueError:  # var2 / var1 underflows to 0
        log_ratio = math.log(var2) - math.log(var1)
    twice = 2.0 * var2
    if log_ratio + twice < _INF:  # one test for both, neither of which can be -inf
        return 0.5 * log_ratio + shift2 / twice + (var1 - var2) / twice
    # var2 / var1 or 2 var2 overflows: a log per variance, halved after dividing
    return 0.5 * (math.log(var2) - math.log(var1) + shift2 / var2 + (var1 - var2) / var2)


def _std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _gauss_rule(b: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights (summing to 1) of the Gauss rule of a symmetric
    weight whose orthonormal polynomials obey p_0 = 1 and
    sqrt(b[k+1]) p_{k+1} = x p_k - sqrt(b[k]) p_{k-1}: Newton on p_n,
    n = len(b) - 1 even, from the guesses ``x`` of the n/2 positive nodes,
    and the Christoffel weights 1 / (sqrt(b[n]) p_{n-1} p_n') from the
    recurrence at the final nodes."""
    r, n = np.sqrt(b), b.size - 1
    step = np.inf
    for _ in range(101):
        prev, cur = np.zeros_like(x), np.ones_like(x)
        dprev, dcur = np.zeros_like(x), np.zeros_like(x)
        for k in range(n):
            prev, cur = cur, (x * cur - r[k] * prev) / r[k + 1]
            dprev, dcur = dcur, (prev + x * dcur - r[k] * dprev) / r[k + 1]
        if np.max(np.abs(step)) < 1e-15 * np.max(np.abs(x)):
            break
        step = cur / dcur
        x = x - step
    w = 1.0 / (r[n] * prev * dcur)
    return np.concatenate((-x, x)), np.concatenate((w, w))


@lru_cache(maxsize=1)
def _softplus_rules() -> tuple[np.ndarray, ...]:
    """The rules of ``_mean_softplus``, built on first use without LAPACK
    or numpy.polynomial (either adds about 1 MB to the process): the
    48-node Gauss-Hermite rule of N(0, 1), its guesses from the WKB phase
    theta - sin(2 theta) / 2 = (4k - 1) pi / (4n + 2), n = 48, and the 96-node
    Gauss-Legendre rule on [0, 40] with log1p(e^-t) in its weights."""
    c = (4.0 * np.arange(1, 25) - 1.0) * math.pi / 194.0
    theta = np.full(24, 0.5 * math.pi)
    for _ in range(12):  # increasing and convex below pi/2: monotone from above
        theta -= (theta - 0.5 * np.sin(2.0 * theta) - c) / (2.0 * np.sin(theta) ** 2)
    h_x, h_w = _gauss_rule(np.arange(49.0), math.sqrt(194.0) * np.cos(theta))
    b = np.arange(97.0) ** 2
    l_x, l_w = _gauss_rule(b / (4.0 * b - 1.0), np.cos(math.pi * (np.arange(1, 49) - 0.25) / 96.5))
    t = 20.0 * (l_x + 1.0)
    rules = (h_x, h_w, t, 40.0 * l_w * np.log1p(np.exp(-t)))
    for arr in rules:
        arr.flags.writeable = False
    return rules


def _mean_softplus(mu: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """E log(1 + e^z) for z ~ N(mu, sd^2), elementwise (sd >= 0).

    For sd <= 1, Gauss-Hermite: softplus is analytic in |Im z| < pi. A
    wider law is split at the kink, as max(z, 0) + log1p(e^-|z|): E max(z, 0)
    = mu Phi(mu/sd) + sd phi(mu/sd), and E log1p(e^-|z|) is the integral of
    log1p(e^-t) (phi_sd(t - mu) + phi_sd(t + mu)) over [0, 40] (the rest
    is below 1e-17), by Gauss-Legendre. Each element is reduced over its
    own nodes by ``einsum`` (a BLAS matvec is not), so it does not depend
    on the other elements; a branch with no elements is skipped."""
    h_x, h_w, t, l_w = _softplus_rules()
    out = np.empty(mu.shape)
    narrow = sd <= 1.0
    if narrow.any():
        m, s = mu[narrow, None], sd[narrow, None]
        out[narrow] = np.einsum("ij,j->i", np.logaddexp(0.0, m + s * h_x), h_w)
    wide = ~narrow
    if wide.any():
        m, s = mu[wide], sd[wide]
        r = m / s
        ramp = m * np.array([_std_normal_cdf(u) for u in r.tolist()])
        ramp += s * np.exp(-0.5 * r * r) / math.sqrt(2.0 * math.pi)
        m, s = m[:, None], s[:, None]
        bumps = np.exp(-0.5 * ((t - m) / s) ** 2) + np.exp(-0.5 * ((t + m) / s) ** 2)
        bumps /= s * math.sqrt(2.0 * math.pi)
        out[wide] = ramp + np.einsum("ij,j->i", bumps, l_w)
    return out


# The fixed edges of ``_mean_softplus_quadratic``, and the levels of r
# whose roots are edges too.
_FIXED_EDGES = np.array([-12.0, -8.0, -4.0, 0.0, 4.0, 8.0, 12.0])
_LEVELS = np.array([-40.0, 0.0, 40.0])


@lru_cache(maxsize=1)
def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 48-node Gauss-Legendre rule on [-1, 1], weights summing to 1."""
    b = np.arange(49.0) ** 2
    rule = _gauss_rule(b / (4.0 * b - 1.0), np.cos(math.pi * (np.arange(1, 25) - 0.25) / 48.5))
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _mean_softplus_quadratic(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """E log(1 + e^r(u)) for u ~ N(0, 1), r(u) = a u^2 + b u + c with
    a <= 0, elementwise over arrays of one shape.

    A composite Gauss-Legendre rule (Davis & Rabinowitz, Methods of
    Numerical Integration, 2nd ed., 1984, ch. 2) on u in [-12, 12], outside
    which N(0, 1) puts 4e-33. It splits at each element's own 14 edges:
    0, +-4, +-8 and +-12 for the normal weight; r's vertex; and the real
    roots of r = -40, 0 and 40, where softplus(r) bends. Below -40
    softplus(r) is e^r within 4e-18 and above 40 it is r, so past those
    roots the integrand is smooth, and the r = 0 root holds the kink. Each
    of the 13 pieces takes 48 nodes; with 32, narrow vertices erred by up
    to 3.4e-12. A root that is not real, or not there (a = 0), takes the
    vertex's place, and edges are clipped to [-12, 12]; repeated edges make
    pieces of zero width. Each element is reduced over its own nodes by
    ``einsum``, so it does not depend on the others. No error estimate, no
    adaptivity.
    """
    shape = np.shape(a)
    a, b, c = (np.ravel(t) for t in (a, b, c))
    a2, b2 = a[:, None], b[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vertex = np.where(a < 0.0, -0.5 * b / a, 0.0)
        # the roots of r = level from the coefficients scaled to at most 1,
        # so b^2 cannot overflow, as the pair q / a, c / q, which does not cancel
        shift = c[:, None] - _LEVELS
        size = np.maximum(np.maximum(np.abs(a2), np.abs(b2)), np.abs(shift))
        size[size == 0.0] = 1.0
        qa, qb, qc = a2 / size, b2 / size, shift / size
        disc = qb * qb - 4.0 * qa * qc
        q = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(disc, 0.0)), qb))
        roots = np.concatenate((q / qa, qc / q), axis=1)
    real = np.tile(disc >= 0.0, 2) & np.isfinite(roots)
    edges = np.concatenate((
        np.broadcast_to(_FIXED_EDGES, (a.size, _FIXED_EDGES.size)), vertex[:, None],
        np.where(real, roots, vertex[:, None])), axis=1)
    np.clip(edges, -12.0, 12.0, out=edges)
    edges.sort(axis=1)
    x, w = _panel_rule()
    half = np.diff(edges, axis=1)
    half *= 0.5
    u = (edges[:, :-1] + half)[..., None] + half[..., None] * x
    r = u * a[:, None, None]
    r += b[:, None, None]
    r *= u
    r += c[:, None, None]
    np.logaddexp(0.0, r, out=r)
    np.square(u, out=u)
    u *= -0.5
    r *= np.exp(u, out=u)
    out = np.einsum("ijk,ij,k->i", r, half, w)
    out *= 2.0 / math.sqrt(2.0 * math.pi)
    return out.reshape(shape)
