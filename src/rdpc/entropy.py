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
* The inverse of the binary entropy is four Newton steps from a close
  start, in p below entropy 1/2 and in 1 - 2p above it, one formula for
  ``math`` and numpy; it is within a few ulp of the true inverse.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

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


_LN2, _LN4 = math.log(2.0), math.log(4.0)
_NEWTON_STEPS = 4
# Elements per slice of the array inverse: whatever the array's size, its
# temporaries are slice-long float64 arrays of 64 KiB.
_SLICE = 2 ** 13


def _inv_below_half(h, log, log1p, sqrt, maximum):
    """p in (0, 0.110] with H(p) = h in (0, 1/2]: Newton in p on
    F(p) = -(p ln p + (1 - p) log1p(-p)) / ln 2 - h, whose step
    p - F / F' is (h ln 2 + log1p(-p)) / (log1p(-p) - ln p), each iterate
    held at 5e-324 or above. The start is the p at which
    (4 p (1 - p))**(1 / ln 4), a close approximation of H, equals h:
    x / (2 (1 + sqrt(1 - x))) with x = h**ln 4, which does not cancel for
    small h. F is concave, so after the first step every iterate lies below
    the root and rises to it. ``binary_entropy_inv`` passes ``math``'s
    functions and ``max``, ``_binary_entropy_inv_arr`` numpy's."""
    x = h ** _LN4
    p = maximum(x / (2.0 * (1.0 + sqrt(1.0 - x))), 5e-324)
    hl = h * _LN2
    for _ in range(_NEWTON_STEPS):
        lq = log1p(-p)
        p = maximum((hl + lq) / (lq - log(p)), 5e-324)
    return p


def _inv_above_half(r, log1p, sqrt, expm1):
    """p in (0.110, 1/2) with 1 - H(p) = r = 1 - h, for h in (1/2, 1):
    Newton in u = 1 - 2p on
    g(u) = ((1 + u) log1p(u) + (1 - u) log1p(-u)) / (2 ln 2) = r. g is
    1 - H((1 - u) / 2), but computed without the cancellation of 1 - H
    where H is flat, so the root in u comes out within a few ulp; r is
    exact for h >= 1/2. The start is ``_inv_below_half``'s, as
    u0 = sqrt(1 - x) with 1 - x taken as -expm1(ln 4 log1p(-r)). g is
    convex, so after the first step every iterate lies above the root and
    falls to it."""
    u = sqrt(-expm1(_LN4 * log1p(-r)))
    c = 2.0 * _LN2 * r
    for _ in range(_NEWTON_STEPS):
        a, b = log1p(u), log1p(-u)
        u = u - ((1.0 + u) * a + (1.0 - u) * b - c) / (a - b)
    return 0.5 - 0.5 * u


@lru_cache(maxsize=256)
def binary_entropy_inv(h: float) -> float:
    """The unique p in [0, 1/2] with ``binary_entropy(p) == h``.

    Four Newton steps from a close start: in p for h <= 1/2
    (``_inv_below_half``) and in u = 1 - 2p for h > 1/2
    (``_inv_above_half``), with ``math``'s logarithms; h = 0 gives 0 and
    h = 1 gives 1/2. Below h of about 4e-234, where the start's h**ln 4
    underflows to 0, Newton starts from 5e-324; its first step lands at
    0.73 (h = 4e-234) to 0.97 (h = 1e-310) of the root.

    The answer is within 8 ulp of the true inverse; the tests hold the
    scalar and the array form to that against mpmath. Measured against
    Newton at 80 digits with mpmath, on both of numpy's dispatch paths
    (with and without its AVX-512 kernels): within 6.8 ulp on 20,000
    uniform h and 5,000 h in (1/2, 0.6], the worst just above 1/2; within
    2.3 ulp on 5,000 h from 1e-323 to 0.1 and 2.2 ulp on 5,000 h with
    1 - h from 1e-16 to 0.1; and within half an ulp on 2,000 subnormal h.

    Results are memoized (256 entries, least recently used first out);
    out-of-range and NaN ``h`` raise ``DomainError`` on every call.
    """
    if not 0.0 <= h <= 1.0:
        raise DomainError(f"binary entropy out of range: {h}")
    if h == 0.0:
        return 0.0
    if h == 1.0:
        return 0.5
    if h <= 0.5:
        return _inv_below_half(h, math.log, math.log1p, math.sqrt, max)
    return _inv_above_half(1.0 - h, math.log1p, math.sqrt, math.expm1)


def _binary_entropy_inv_arr(h) -> np.ndarray:
    """``binary_entropy_inv`` elementwise: the same Newton steps with
    numpy's logarithms, which can differ from ``math``'s in the last bit,
    so an element can differ from the scalar answer by a few ulp; both
    keep the scalar's bound. The array is worked in slices of ``_SLICE``
    elements. A 0-d ``h`` gives a 0-d result; out-of-range and NaN ``h``
    raise ``DomainError``.
    """
    h = np.asarray(h, dtype=float)
    bad = ~((h >= 0.0) & (h <= 1.0))
    if np.any(bad):
        raise DomainError(f"binary entropy out of range: {h[bad].flat[0]}")
    flat = h.ravel()
    out = np.empty(flat.shape)
    for s in range(0, flat.size, _SLICE):
        part, dst = flat[s:s + _SLICE], out[s:s + _SLICE]
        # 1/2 at h = 1 and 0 elsewhere, which leaves h = 0 its answer
        np.multiply(part == 1.0, 0.5, out=dst)
        # as indices: gathering and scattering through a random boolean mask
        # took several times longer
        low = np.flatnonzero((part > 0.0) & (part <= 0.5))
        high = np.flatnonzero((part > 0.5) & (part < 1.0))
        dst[low] = _inv_below_half(part[low], np.log, np.log1p, np.sqrt, np.maximum)
        dst[high] = _inv_above_half(1.0 - part[high], np.log1p, np.sqrt, np.expm1)
    return out.reshape(h.shape)


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
