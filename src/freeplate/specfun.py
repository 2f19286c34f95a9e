"""Ultraspherical Bessel functions and their derivatives.

j_l(z) = z^(-s) J_(s+l)(z) and i_l(z) = z^(-s) I_(s+l)(z) with s = (d-2)/2,
for integer dimension d >= 2 and integer order 0 <= l <= 8, together with
derivatives through fourth order, the series coefficients d_k of the
expansions of j_1'' and i_1'', the first nontrivial zero of j_1', the
bracketed root finder that both it and the ball's tone solve use, and the
Gauss-Gegenbauer rule of membrane_C and of geom's polar angles.

Every value comes from one backward (Miller) recurrence over the scaled
functions h_nu(z) = z^-nu C_nu(z), C = J or I, which are finite at z = 0:

    h_(nu-1) = 2 nu h_nu -+ z^2 h_(nu+1)      (- for J, + for I),

normalized at integer orders (even d) by J_0 + 2 sum J_2k = 1 or
e^z = I_0 + 2 sum I_k, and at half-integer orders (odd d) by the closed
forms at nu = -1/2 and 1/2 (Gautschi, SIAM Review 9, 1967; Olver & Sookne,
Math. Comp. 26, 1972). Then j_l = z^l h_(s+l) and h_nu' = -+ z h_(nu+1), so
every derivative is a sum of nonnegative powers of z times h's, each term
positive for i. There is no series branch and no power of 1/z.

Both the sweep and the root finder have one body that runs on a float or
on an array, chosen by the input: a float z, a table of at most
_PER_POINT points or a float bracket runs on Python floats, larger
arrays in numpy, with the same bits. The one-tension tone solve thus
runs on floats, and a batch of tensions in numpy.
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
MAX_ORDER = 8
MAX_DERIV = 4
_RESCALE = 32          # orders between rescalings of the sweep
_PER_POINT = 16        # z of at most this many points sweeps point by point
_ROOT_XRTOL = 1e-13    # relative bracket width at which a root is accepted
_ROOT_MAX_ITER = 2046  # bisections that span the normal doubles
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
# top_of is the largest int of as_int's result, value a numpy result as
# the body's type (the sweep's closed forms come from numpy on both, so
# that their bits agree), and quiet a context that silences numpy's
# warnings.
_Ops = namedtuple("_Ops", "frexp ldexp maximum minimum sqrt div sign where "
                          "not_ any_ as_int top_of value quiet")
_FLOATS = _Ops(
    math.frexp, math.ldexp,
    lambda a, b: max(a, b) if a == a and b == b else math.nan,
    lambda a, b: min(a, b) if a == a and b == b else math.nan,
    lambda x: math.sqrt(x) if x >= 0 else math.nan, _fdiv,
    lambda x: (x > 0) - (x < 0) if x == x else math.nan,
    lambda c, a, b: a if c else b, operator.not_, bool, int, int, float,
    contextlib.nullcontext)
_ARRAYS = _Ops(
    np.frexp, np.ldexp, np.maximum, np.minimum, np.sqrt, np.divide, np.sign,
    np.where, np.logical_not, np.any, lambda a: a.astype(int),
    lambda a: int(a.max()), lambda v: v, lambda: np.errstate(all="ignore"))


def _sweep(kind, d, lo, hi, z, ops):
    """h at the kernel orders s+lo..s+hi by one backward sweep, from one
    body on a float z (ops _FLOATS) or on an array of points (_ARRAYS).

    Index n stands for the order nu = n + (d % 2)/2. With t = 4^m > z (1
    below z = 1) and u = z/t, both exact, the sweep carries w_n = t^nu h_nu,
        w_n = (2 nu_(n+1) / t) w_(n+1) -+ u^2 w_(n+2),
    which neither divides by z nor overflows. Each point starts at an index
    set by its own z, with w = 1 there and 0 above, so its bits do not
    depend on the other points. Every _RESCALE orders w sheds its binary
    exponent, exactly. At integer orders the normalizing sum runs along by
    Horner in u (u^2 for j); at half-integer orders the last pair is fitted
    by least squares to (w_(-1/2), u w_(1/2)) = sqrt(2 / (pi t)) (cos z,
    sin z), (cosh z, sinh z) for i, so that a zero of either does no harm.
    """
    frexp, ldexp, maximum = ops.frexp, ops.ldexp, ops.maximum
    half = d % 2
    n_lo, n_hi = (d - 2) // 2 + lo, (d - 2) // 2 + hi
    m = maximum(0, (frexp(z)[1] + 1) // 2)
    step = ldexp(1.0, -2 * m)
    u = z * step
    # past the largest order any table reads, by a margin for Miller's
    # method and, for j, the O(z) orders before J_n falls off
    start = ops.as_int((d - 2) // 2 + MAX_ORDER + MAX_DERIV + 5 + (
        8.0 * ops.sqrt(z) + (z if kind == "j" else 0.0)) // 1.0)
    top = ops.top_of(start)
    every, even = kind == "i" and not half, kind == "j" and not half
    uu = u * u
    su2 = -uu if kind == "j" else uu
    st2 = step + step
    cs = (2.0 * top + 2.0 + half) * step       # 2 nu_(n+1) / t
    w = w1 = S = 0.0 * u
    E = 0
    kept = []
    for n in range(top, -half - 1, -1):
        w, w1 = cs * w + su2 * w1 + (start == n), w
        cs = cs - st2
        if every:
            S = u * S + w
        elif even and not n & 1:
            S = uu * S + w
        if not n % _RESCALE:
            e = frexp(maximum(abs(w), abs(w1)))[1]
            w, w1, S, E = ldexp(w, -e), ldexp(w1, -e), ldexp(S, -e), E + e
        if n_lo <= n <= n_hi:
            kept.append((n, w, E))
    if half:
        c, sn = (ops.value(f(z)) for f in ((np.cos, np.sin) if kind == "j"
                                           else (np.cosh, np.sinh)))
        a, b = w, u * w1
        f = math.sqrt(2.0 / math.pi) * (a * c + b * sn) / (a * a + b * b)
    else:
        # the sums weigh every order once, the identities order 0 once and
        # the others twice
        f = (ops.value(np.exp(z)) if kind == "i" else 1.0) / (S + S - w)
    # h_nu = t^-nu w_nu, and t^-1/2 more from the closed forms' factor
    return [ldexp(wn, En - E - 2 * m * (n + half)) * f
            for n, wn, En in reversed(kept)]


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
    deriv; deriv also sets the span of orders, (order - l) + k <= deriv,
    so a table of l = 1 and deriv = 2 serves j_3 as well.

    Validates z once, by its min and max, and runs one _sweep for h at the
    orders s+l..s+l+deriv: over the array at more than _PER_POINT points,
    point by point on floats otherwise. Returns entry(order, k, over=0),
    the k-th derivative of that order over z^over, exact and finite at
    z = 0 as it lowers each term's power of z (ValueError where one would
    fall below z^0); at over=0 bit for bit the value ultra_j/ultra_i give.
    A scalar z gives floats, an array z a new array per entry, which the
    caller may write into.
    """
    if not (isinstance(l, int) and 0 <= l <= MAX_ORDER):
        raise ValueError(f"order l must be an integer in [0, {MAX_ORDER}]")
    if not (isinstance(d, int) and d >= 2):
        raise ValueError("dimension d must be an integer >= 2")
    if not (isinstance(deriv, int) and 0 <= deriv <= MAX_DERIV):
        raise ValueError(f"deriv must be an integer in [0, {MAX_DERIV}]")
    if isinstance(z, float):
        shape, flat = (), [float(z)]
        lo = hi = flat[0]
    else:
        arr = np.asarray(z, dtype=float)
        shape, flat = arr.shape, arr.ravel()
        # nan propagates through min and max
        lo, hi = ((float(flat.min()), float(flat.max())) if flat.size
                  else (0.0, 0.0))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("z must be finite")
    if lo < 0:
        raise ValueError("z must be nonnegative")
    zmax = _J_Z_MAX if kind == "j" else _I_Z_MAX
    if hi > zmax:
        raise OverflowError(f"{kind}_l argument beyond kernel range ({zmax:g})")
    if len(flat) > _PER_POINT:
        h = _sweep(kind, d, l, l + deriv, flat, _ARRAYS)
        pw = _powers(flat, l + deriv)
        return lambda order, k, over=0: _combine(
            _deriv_terms(kind, order, k, over), pw, h, order - l).reshape(shape)
    points = [(_powers(zi, l + deriv), _sweep(kind, d, l, l + deriv, zi,
                                              _FLOATS))
              for zi in (flat if isinstance(z, float) else flat.tolist())]

    def entry(order, k, over=0):
        terms = _deriv_terms(kind, order, k, over)
        vals = [_combine(terms, pw, h, order - l) for pw, h in points]
        return np.array(vals).reshape(shape) if shape else vals[0]

    return entry


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
    """Roots of the elementwise function f(x, *args) in the brackets
    [lo, hi], each with a sign change of f, by Chandrupatla's method
    (Adv. Eng. Softw. 28, 1997): inverse quadratic interpolation where the
    last three points allow it, bisection otherwise.

    One body runs on a float bracket (lo a scalar: ops _FLOATS, with
    float args) or on arrays of brackets (ops _ARRAYS), with the same bits
    for each bracket. One call of f on lo and hi joined, as an array,
    starts every bracket; each later call evaluates only the elements
    still running, on a float x for a float bracket. Each element stops
    once its bracket is narrower than _ROOT_XRTOL times its end with the
    smaller |f|, or once f there is 0 or subnormal. The arrays args run
    with x. Returns x (nan where no sign change), the status as an index
    into _ROOT_STATUS, and the final bracket and f at its ends, each
    ordered left to right: floats and an int for a float bracket.
    """
    on_floats = np.ndim(lo) == 0
    ops = _FLOATS if on_floats else _ARRAYS
    div, sqrt, sign, where, not_ = ops.div, ops.sqrt, ops.sign, ops.where, \
        ops.not_
    if on_floats:
        x1, x2, args = float(lo), float(hi), [float(arg) for arg in args]
        f1, f2 = map(float, f(np.array([x1, x2]),
                              *(np.array([arg, arg]) for arg in args)))
    else:
        x1, x2 = np.array(lo, dtype=float), np.array(hi, dtype=float)
        args = [np.broadcast_to(arg, x1.shape) for arg in args]
        both = f(np.concatenate([x1, x2]),
                 *(np.concatenate([arg, arg]) for arg in args))
        f1, f2 = both[:x1.size], both[x1.size:]
        act, out = np.arange(x1.size), np.empty((6, x1.size))
    x3, f3 = x2, f2     # the previous point; set by every step
    t = 0.5
    for it in range(_ROOT_MAX_ITER + 1):
        if it:
            xn = x1 + t * (x2 - x1)
            fn = ops.value(f(xn, *args))
            same = sign(fn) == sign(f1)
            x3, f3 = where(same, x1, x2), where(same, f1, f2)
            x2, f2 = where(same, x2, x1), where(same, f2, f1)
            x1, f1 = xn, fn
        small = abs(f1) < abs(f2)
        xmin, fmin = where(small, x1, x2), where(small, f1, f2)
        dx = abs(x2 - x1)
        tol = abs(xmin) * _ROOT_XRTOL
        zero = abs(fmin) <= sys.float_info.min
        conv = zero | (dx < tol)
        bad = not_(zero | (sign(f1) * sign(f2) < 0))
        stop = conv | bad | (it == _ROOT_MAX_ITER)
        if ops.any_(stop):
            done = (where(bad, math.nan, xmin),
                    where(bad, 1, where(conv, 0, 2)), x1, x2, f1, f2)
            if on_floats:
                break
            out[:, act[stop]] = [v[stop] for v in done]
            go = not_(stop)
            act, args = act[go], [arg[go] for arg in args]
            x1, x2, x3, f1, f2, f3, dx, tol = (
                v[go] for v in (x1, x2, x3, f1, f2, f3, dx, tol))
        if not (on_floats or act.size):
            break
        if not it:
            continue
        # Chandrupatla's test: the inverse quadratic through the last three
        # points is monotone on the bracket; otherwise bisect
        with ops.quiet():
            xi = div(x1 - x2, x3 - x2)
            phi = div(f1 - f2, f3 - f2)
            alpha = div(x3 - x1, x2 - x1)
            t = where((1.0 - sqrt(1.0 - xi) < phi) & (phi < sqrt(xi)),
                      div(div(f1, f1 - f2) * f3, f3 - f2)
                      - div(div(alpha * f1, f3 - f1) * f2, f2 - f3), 0.5)
            tl = div(0.5 * tol, dx)
        t = ops.minimum(ops.maximum(t, tl), 1.0 - tl)
    x, status, xl, xr, fl, fr = done if on_floats else (
        out[0], out[1].astype(int), *out[2:])
    left = xl < xr
    return (x, status, (where(left, xl, xr), where(left, xr, xl)),
            (where(left, fl, fr), where(left, fr, fl)))


@lru_cache(maxsize=None)
def first_zero_j1prime(d):
    """First z > 0 with j_1'(z) = 0, to relative tolerance 1e-12.

    Bracketed by a fixed-step scan of (0, 20] with step 0.05, then refined
    by _bracketed_root; raises if the scan window contains no sign change
    or the refinement fails.
    """
    zs = np.arange(0.05, 20.0 + 1e-9, 0.05)
    vals = ultra_j(1, d, zs, deriv=1)
    sgn = np.sign(vals)
    flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
    if flips.size == 0:
        raise RuntimeError(
            f"no sign change of j_1' in the scan window (0, 20], step 0.05, d={d}")
    i = flips[0]
    root, status, _, _ = _bracketed_root(lambda t: ultra_j(1, d, t, deriv=1),
                                         zs[i], zs[i + 1])
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

    t = np.linalg.eigvalsh(np.diag(b, -1))
    p, dp, _ = recur(t)
    t = t - p / dp
    t = 0.5 * (t - t[::-1])
    w = 1.0 / recur(t)[2]
    return t, 0.5 * (w + w[::-1])
