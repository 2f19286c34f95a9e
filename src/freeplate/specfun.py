"""Ultraspherical Bessel functions and their derivatives.

j_l(z) = z^(-s) J_(s+l)(z) and i_l(z) = z^(-s) I_(s+l)(z) with s = (d-2)/2,
for integer dimension d >= 2, integer order l >= 0 and derivatives of
order k >= 0 with l + k <= 5 (the orders s..s+5), together with the series
coefficients d_k of j_1'' and i_1'', the first nontrivial zero of j_1', the
bracketed root finder (safeguarded Newton steps on f and f') that both it
and the ball's tone solve use, and the Gauss-Gegenbauer rule of membrane_C
and of geom's polar angles.

Every value comes from one backward (Miller) recurrence over the scaled
functions h_nu(z) = z^-nu C_nu(z), C = J or I, which are finite at z = 0:

    h_(nu-1) = 2 nu h_nu -+ z^2 h_(nu+1)      (- for J, + for I),

normalized at integer orders (even d) by J_0 + 2 sum J_2k = 1 or
e^z = I_0 + 2 sum I_k, and at half-integer orders (odd d) by the closed
forms at nu = -1/2 and 1/2 (Gautschi, SIAM Review 9, 1967; Olver & Sookne,
Math. Comp. 26, 1972). Then j_l = z^l h_(s+l) and h_nu' = -+ z h_(nu+1), so
every derivative is a sum of nonnegative powers of z times h's, each term
positive for i. There is no series branch and no power of 1/z. Every
sweep starts from above s+5, the highest order a table reads.

The sweep, the kernel tables and the root finder each have one body that
runs on a float or on an array, chosen by the argument's type: a scalar z
or a float bracket runs on Python floats, an array of any size in numpy,
with the same bits. The one-tension tone solve thus runs on floats from
its bracket on, and a batch of tensions in numpy.
"""

import contextlib
import math
import operator
import sys
from collections import namedtuple
from functools import lru_cache

import numpy as np

_J_Z_MAX = 1.0e4       # the sweep for j_l runs over O(z) orders
_I_Z_MAX = 690.0       # i_l exceeds double range beyond this
_TOP = 5               # l + deriv <= 5: the orders s..s+5, all that the
                       # program's tables (l = 1, deriv <= 4) read
_RESCALE = 32          # orders between rescalings of the sweep
_ROOT_STEP_RTOL = 1e-8  # relative Newton step below which a root is accepted
_ROOT_MAX_ITER = 2046   # evaluations; 2046 bisections span the doubles
_ROOT_STATUS = ("converged", "no sign change", "iteration budget")


def series_coeff_dk(k, d):
    """Coefficient d_k = (2k+1) / ((k-1)! Gamma(k+1+d/2)) 2^(1-2k-d/2),
    positive for every k >= 1, d >= 2."""
    if not (isinstance(k, int) and k >= 1):
        raise ValueError("index k must be an integer >= 1")
    if not (isinstance(d, int) and d >= 2):
        raise ValueError("dimension d must be an integer >= 2")
    if k + 1 + d / 2 < 170:
        return (2 * k + 1) / (math.factorial(k - 1) * math.gamma(k + 1 + d / 2)) \
            * 2.0 ** (1 - 2 * k - d / 2)
    return (2 * k + 1) * math.exp(-math.lgamma(k) - math.lgamma(k + 1 + d / 2)
                                  + (1 - 2 * k - d / 2) * math.log(2.0))


def _fdiv(a, b):
    # a / b on floats, with numpy's inf or nan where b is 0
    if b:
        return a / b
    if a != a or not a:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


# What a body that runs on a float or on an array calls, chosen by the
# input: _FLOATS or _ARRAYS. On floats each operation gives numpy's result,
# at a zero divisor, a negative root or a nan too, and raises nothing.
# ends gives the smallest and the largest int of as_int's result (for an
# empty array sys.maxsize, so no seed, and base, the floor of every start),
# value a numpy result as the body's type (the sweep's closed forms come
# from numpy on both, so that their bits agree), and quiet a context that
# silences numpy's warnings.
_Ops = namedtuple("_Ops", "frexp ldexp maximum minimum sqrt div where not_ "
                          "any_ as_int ends value quiet")
_FLOATS = _Ops(
    math.frexp, math.ldexp,
    lambda a, b: max(a, b) if a == a and b == b else math.nan,
    lambda a, b: min(a, b) if a == a and b == b else math.nan,
    lambda x: math.sqrt(x) if x >= 0 else math.nan, _fdiv,
    lambda c, a, b: a if c else b, operator.not_, bool, int,
    lambda n, base: (n, n), float, contextlib.nullcontext)
_ARRAYS = _Ops(
    np.frexp, np.ldexp, np.maximum, np.minimum, np.sqrt, np.divide, np.where,
    np.logical_not, np.any, lambda a: a.astype(int),
    lambda a, base: (int(a.min(initial=sys.maxsize)),
                     int(a.max(initial=base))), lambda v: v,
    lambda: np.errstate(all="ignore"))


def _sweep(kind, d, lo, hi, z, ops):
    """h at the kernel orders s+lo..s+hi, hi <= _TOP, from one body on a
    float z (ops _FLOATS) or on an array of points (_ARRAYS), by one sweep
    based above s + _TOP.

    Index n stands for the order nu = n + (d % 2)/2. The sweep carries h
    itself, h_(nu-1) = 2 nu h_nu -+ z^2 h_(nu+1). Every _RESCALE orders h
    sheds its binary exponent, exactly; in between |h| grows by at most
    nu + sqrt(nu^2 + z^2) an order, to below 1e142 for j (z <= 1e4) and
    1e96 for i (z <= 690). Each point starts at an index set by its own
    z, with h = 1 there and 0 above, so its bits do not depend on the
    other points (the seed is added down to the smallest start only, as
    below it, it would add 0.0 to an h that is never -0.0). Integer
    orders are normalized by a sum run by Horner in z (z^2 for j),
    half-integer ones by a least-squares fit of (h_(-1/2), z h_(1/2)) to
    sqrt(2/pi) (cos z, sin z), (cosh z, sinh z) for i, which no zero harms.
    """
    frexp, ldexp, maximum = ops.frexp, ops.ldexp, ops.maximum
    half = d % 2
    n_lo, n_hi = (d - 2) // 2 + lo, (d - 2) // 2 + hi
    # past the top order, by a margin for Miller's method and, for j, the
    # O(z) orders before J_n falls off
    base = (d - 2) // 2 + _TOP + 5
    start = ops.as_int(base + (
        8.0 * ops.sqrt(z) + (z if kind == "j" else 0.0)) // 1.0)
    low, high = ops.ends(start, base)
    every, even = kind == "i" and not half, kind == "j" and not half
    zz = z * z
    sz2 = -zz if kind == "j" else zz
    # augmented assignments update an array in place and rebind a float;
    # h takes h1's buffer, as sz2 h1 + 2 nu h, the recurrence's sum
    h, h1, S = (0.0 * z for _ in range(3))
    E = 0
    kept = []
    two_nu = 2.0 * high + 2.0 + half        # 2 nu_(n+1), a float: exact
    for n in range(high, -half - 1, -1):
        h1 *= sz2
        h1 += two_nu * h
        two_nu -= 2.0
        h, h1 = h1, h
        if n >= low:
            h += start == n
        if every:
            S *= z
            S += h
        elif even and not n & 1:
            S *= zz
            S += h
        if not n % _RESCALE:
            e = frexp(maximum(abs(h), abs(h1)))[1]
            h, h1, S, E = ldexp(h, -e), ldexp(h1, -e), ldexp(S, -e), E + e
        if n <= n_hi and n >= n_lo:     # one test above n_hi, most orders
            kept.append((1.0 * h, E))     # a copy: the buffer goes on
    if half:
        c, sn = (ops.value(f(z)) for f in ((np.cos, np.sin) if kind == "j"
                                           else (np.cosh, np.sinh)))
        a, b = h, z * h1
        f = math.sqrt(2.0 / math.pi) * (a * c + b * sn) / (a * a + b * b)
    else:
        # the sums weigh every order once, the identities order 0 once and
        # the others twice
        f = (ops.value(np.exp(z)) if kind == "i" else 1.0) / (S + S - h)
    return [ldexp(hn, En - E) * f for hn, En in reversed(kept)]


@lru_cache(maxsize=None)
def _deriv_terms(kind, order, k, over=0):
    # the k-th derivative of z^order h_(s+order), over z^over, as terms
    # (c, p, m) of c z^p h_(s+order+m); (z^p h_nu)' = p z^(p-1) h_nu -+
    # z^(p+1) h_(nu+1). A p < 0 would index the powers from their end
    sign = -1 if kind == "j" else 1
    c = [1]
    for kk in range(k):
        c = [(order - kk + 2 * m) * a + sign * b
             for m, (a, b) in enumerate(zip(c + [0], [0] + c))]
    terms = tuple((float(cm), order - k + 2 * m - over, m)
                  for m, cm in enumerate(c) if cm)
    if terms[0][1] < 0:
        raise ValueError(f"entry ({order}, {k}) has a term below z^{over}")
    return terms


def _combine(terms, pw, h, i):
    # one table entry from the powers pw of z and the h's from h[i] on
    total = None
    for c, p, m in terms:
        term = c * pw[p] * h[i + m]
        total = term if total is None else total + term
    return total


def _powers(z, p):
    # 1, z, .., z^p by repeated products, the same on a float or an array
    pw = [1.0]
    for _ in range(p):
        pw.append(pw[-1] * z)
    return pw


def _ultra_table(kind, l, d, z, deriv):
    """Table of j (kind "j") or i of orders l.. at z, for derivatives up to
    deriv, l + deriv <= _TOP; deriv also sets the span of orders,
    (order - l) + k <= deriv, so a table of l = 1 and deriv = 2 serves j_3
    as well.

    Validates z once, by its min and max, and runs one _sweep for h at the
    orders s+l..s+l+deriv: on Python floats for a scalar z (a float, an
    int, a numpy scalar or a 0-d array), in numpy for an array of any size
    or shape. Returns entry(order, k, over=0), the k-th derivative of that
    order over z^over, exact and finite at z = 0 as it lowers each term's
    power of z (ValueError where one would fall below z^0); at over=0 bit
    for bit the value ultra_j/ultra_i give. A scalar z gives floats, an
    array z a new array per entry, which the caller may write into.
    """
    if not (isinstance(l, int) and 0 <= l <= _TOP):
        raise ValueError(f"order l must be an integer in [0, {_TOP}]")
    if not (isinstance(d, int) and d >= 2):
        raise ValueError("dimension d must be an integer >= 2")
    if not (isinstance(deriv, int) and 0 <= deriv <= _TOP - l):
        raise ValueError(f"deriv must be an integer in [0, {_TOP} - l]")
    if isinstance(z, float) or np.ndim(z) == 0:
        z = lo = hi = float(z)
        ops = _FLOATS
    else:
        z, ops = np.asarray(z, dtype=float), _ARRAYS
        # nan propagates through min and max
        lo, hi = (float(z.min()), float(z.max())) if z.size else (0.0, 0.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("z must be finite")
    if lo < 0:
        raise ValueError("z must be nonnegative")
    zmax = _J_Z_MAX if kind == "j" else _I_Z_MAX
    if hi > zmax:
        raise OverflowError(f"{kind}_l argument beyond kernel range ({zmax:g})")
    h = _sweep(kind, d, l, l + deriv, z, ops)
    pw = _powers(z, l + deriv)
    return lambda order, k, over=0: _combine(
        _deriv_terms(kind, order, k, over), pw, h, order - l)


def ultra_j(l, d, z, deriv=0):
    """deriv-th derivative of j_l(z) in dimension d, for z >= 0.

    Accepts scalar or array z, up to _J_Z_MAX.
    """
    return _ultra_table("j", l, d, z, deriv)(l, deriv)


def ultra_i(l, d, z, deriv=0):
    """deriv-th derivative of i_l(z) in dimension d, for z >= 0.

    Same sweep as ultra_j with the modified recurrence signs; i_l and all
    of its derivatives are positive for z > 0. z up to _I_Z_MAX.
    """
    return _ultra_table("i", l, d, z, deriv)(l, deriv)


def _bracketed_root(f, lo, hi, *args):
    """Roots of the elementwise function f(x, *args), which returns f and
    f' at x, in the brackets [lo, hi] by a safeguarded Newton method.

    Each element starts at its bracket's midpoint, and neither end is
    evaluated up front. Every evaluation takes the root's side from the
    sign of the Newton step f/f' and shrinks the bracket to it. A step
    that leaves the bracket goes to the end it crosses if f is not yet
    known there, so a root close to an end of the bracket costs one
    evaluation there, and to the bracket's midpoint otherwise, so no point
    is evaluated twice. An element stops once |step| < _ROOT_STEP_RTOL |x|
    and returns x - step (within the final bracket), or once f at x is 0
    or subnormal and returns x; or, where the step at an end of the
    bracket points out of it, with no sign change.

    One body runs on a float bracket (lo a scalar: ops _FLOATS, with
    float args) or on arrays of brackets (ops _ARRAYS), with the same bits
    for each bracket; each array call evaluates only the elements still
    running (none of an empty array), and the arrays args run with x.
    Returns x (nan where no sign change), the status as an index into
    _ROOT_STATUS, and the final bracket and f at its ends (nan at an end
    never evaluated), each ordered left to right: floats and an int for a
    float bracket.
    """
    on_floats = isinstance(lo, float) or np.ndim(lo) == 0
    ops = _FLOATS if on_floats else _ARRAYS
    where, not_ = ops.where, ops.not_
    if on_floats:
        lo, hi, args = float(lo), float(hi), [float(arg) for arg in args]
        flo = fhi = math.nan
    else:
        lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
        args = [np.broadcast_to(arg, lo.shape) for arg in args]
        flo, fhi = np.full_like(lo, math.nan), np.full_like(lo, math.nan)
        act, out = np.arange(lo.size), np.empty((6, lo.size))
    x = lo + 0.5 * (hi - lo)
    for it in range(_ROOT_MAX_ITER):
        if not (on_floats or act.size):     # no element left running
            break
        fx, dfx = (ops.value(v) for v in f(x, *args))
        with ops.quiet():
            step = ops.div(fx, dfx)
        # x becomes the upper end where the root lies below it, the lower
        # end where above; at an end whose step points out, neither
        below = step > 0
        up, dn = below & (x > lo), not_(below) & (x < hi)
        lo, flo = where(dn, x, lo), where(dn | (x == lo), fx, flo)
        hi, fhi = where(up, x, hi), where(up | (x == hi), fx, fhi)
        zero = abs(fx) <= sys.float_info.min
        bad = not_(zero) & (not_(up | dn) | (step != step))
        conv = zero | (abs(step) < _ROOT_STEP_RTOL * abs(x))
        root = ops.minimum(ops.maximum(x - step, lo), hi)
        stop = bad | conv | (it == _ROOT_MAX_ITER - 1)
        if ops.any_(stop):
            done = (where(bad, math.nan, where(zero, x, root)),
                    where(bad, 1, where(conv, 0, 2)), lo, hi, flo, fhi)
            if on_floats:
                break
            out[:, act[stop]] = [v[stop] for v in done]
            go = not_(stop)
            act, args = act[go], [arg[go] for arg in args]
            lo, hi, flo, fhi, root = (v[go] for v in (lo, hi, flo, fhi,
                                                      root))
        # the Newton point, or past an end the end itself while f there
        # is unknown, else the midpoint
        mid = lo + 0.5 * (hi - lo)
        x = where(root <= lo, where(flo == flo, mid, lo),
                  where(root >= hi, where(fhi == fhi, mid, hi), root))
    x, status, xl, xr, fl, fr = done if on_floats else (
        out[0], out[1].astype(int), *out[2:])
    return x, status, (xl, xr), (fl, fr)


@lru_cache(maxsize=None)
def first_zero_j1prime(d):
    """First z > 0 with j_1'(z) = 0, to a few units in the last place.

    Bracketed by a fixed-step scan of (0, 20] with step 0.05, then refined
    by _bracketed_root's Newton steps on j_1' and j_1'', both from one
    table per point; raises if the scan window contains no sign change or
    the refinement fails.
    """
    zs = np.arange(0.05, 20.0 + 1e-9, 0.05)
    vals = ultra_j(1, d, zs, deriv=1)
    sgn = np.sign(vals)
    flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
    if flips.size == 0:
        raise RuntimeError(
            f"no sign change of j_1' in the scan window (0, 20], step 0.05, d={d}")
    i = flips[0]
    def f(z):
        J = _ultra_table("j", 1, d, z, 2)
        return J(1, 1), J(1, 2)

    root, status, _, _ = _bracketed_root(f, zs[i], zs[i + 1])
    if status:
        raise RuntimeError(f"j_1' zero in [{zs[i]:.2f}, {zs[i + 1]:.2f}] not "
                           f"refined, d={d}: {_ROOT_STATUS[status]}")
    return root


@lru_cache(maxsize=None)
def _gauss_gegenbauer(n, alpha):
    # n-node Gauss rule for the weight (1 - t^2)^(alpha - 1/2) on [-1, 1]
    # (Golub & Welsch, Math. Comp. 23, 1969): the nodes are the eigenvalues
    # of the Jacobi matrix of the orthonormal recurrence
    # t p_k = b_(k+1) p_(k+1) + b_k p_(k-1), polished by one Newton step on
    # p_n; the weights are the Christoffel numbers 1 / sum_(k<n) p_k(t)^2.
    # The weight is even, so the Jacobi matrix has a zero diagonal and, its
    # even indices first, is [[0, B], [B^T, 0]] with B the lower bidiagonal
    # (n+1)//2 x n//2 of the b's: the nodes are -+ the singular values of
    # B, and 0 for odd n, from an SVD of half the size on a side.
    # Cached: the rule is a constant table, and the recurrence is a Python
    # loop of n steps
    k = np.arange(1, n)
    b = np.sqrt(k * (k + 2 * alpha - 1) / (4 * (k + alpha) * (k + alpha - 1)))
    c = np.concatenate([[0.0], b, [1.0]])     # b_0 = 0; p_n left unscaled
    mu0 = math.sqrt(math.pi) * math.exp(math.lgamma(alpha + 0.5)
                                        - math.lgamma(alpha + 1.0))

    def recur(t):
        # p_n, p_n' and sum_(k<n) p_k^2 at t
        p0, p = np.zeros_like(t), np.full_like(t, mu0**-0.5)
        dp0, dp, ss = np.zeros_like(t), np.zeros_like(t), np.zeros_like(t)
        for j in range(n):
            ss += p * p
            p0, p, dp0, dp = p, (t * p - c[j] * p0) / c[j + 1], \
                dp, (p + t * dp - c[j] * dp0) / c[j + 1]
        return p, dp, ss

    B = np.zeros(((n + 1) // 2, n // 2))
    B[range(n // 2), range(n // 2)] = b[0::2]
    B[range(1, (n + 1) // 2), range((n - 1) // 2)] = b[1::2]
    sv = np.linalg.svd(B, compute_uv=False)
    t = np.concatenate([-sv, np.zeros(n % 2), sv[::-1]])
    p, dp, _ = recur(t)
    t = t - p / dp
    t = 0.5 * (t - t[::-1])
    w = 1.0 / recur(t)[2]
    return t, 0.5 * (w + w[::-1])
