"""Ultraspherical Bessel functions and their derivatives.

j_l(z) = z^(-s) J_(s+l)(z) and i_l(z) = z^(-s) I_(s+l)(z) with s = (d-2)/2,
for integer dimension d >= 2 and integer order 0 <= l <= 8, together with
derivatives through fourth order, the series coefficients d_k of the
expansions of j_1'' and i_1'', the first nontrivial zero of j_1', and the
bracketed root finder that both it and the ball's tone solve use.

At or below SMALL_Z the values and derivatives come from the ascending
series, truncated by a geometric tail bound, which has no cancellation at
small z. Above it the kernels J and I are scipy's jv and iv (the Amos
routines, ACM TOMS 644, 1986, with their asymptotic expansions at large z),
and exact order recurrences give the derivatives.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import zip_longest

import numpy as np
from scipy import special

SMALL_Z = 0.5          # power-series evaluation at or below this argument
_J_Z_MAX = 1.0e15      # jv loses its digits beyond this argument
_I_Z_MAX = 690.0       # i_l exceeds double range beyond this
MAX_ORDER = 8
MAX_DERIV = 4
_ROOT_XRTOL = 1e-13    # relative bracket width at which a root is accepted
_ROOT_MAX_ITER = 2046  # bisections that span the normal doubles
_ROOT_STATUS = ("converged", "no sign change", "iteration budget")


@dataclass(frozen=True)
class UltraBesselParams:
    """Order/dimension pair with the derived kernel order shift s = (d-2)/2."""

    l: int
    d: int
    s: float = field(init=False)

    def __post_init__(self):
        if not (isinstance(self.l, int) and 0 <= self.l <= MAX_ORDER):
            raise ValueError(f"order l must be an integer in [0, {MAX_ORDER}]")
        if not (isinstance(self.d, int) and self.d >= 2):
            raise ValueError("dimension d must be an integer >= 2")
        object.__setattr__(self, "s", (self.d - 2) / 2.0)


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


@lru_cache(maxsize=None)
def _series_plan(kind, l, d, deriv):
    # what _series_eval's sum for one order keeps from call to call: the
    # coefficient and power of z of its first term, and ratio(n), the ratio
    # of its term n+1 to term n without the factor (z^2/4), computed once
    # and only as far as the calls so far have needed
    s = (d - 2) / 2.0
    sign = -1.0 if kind == "j" else 1.0
    k = max(0, -((l - deriv) // 2))      # smallest k with l + 2k >= deriv
    m0 = l + 2 * k
    lognorm = -(s + m0) * math.log(2.0) - math.lgamma(k + 1) - math.lgamma(s + l + k + 1)
    fall = math.prod(range(m0 - deriv + 1, m0 + 1))
    ratios = []

    def ratio(n):
        while len(ratios) <= n:
            j = k + len(ratios)
            m = l + 2 * j
            ratios.append((m + 2.0) * (m + 1.0)
                          / ((m + 2.0 - deriv) * (m + 1.0 - deriv)
                             * (j + 1.0) * (s + l + j + 1.0)))
        return ratios[n]

    return sign**k * fall * math.exp(lognorm), m0 - deriv, ratio, ratios


def _series_eval(kind, l, d, deriv, z):
    """Term-differentiated ascending series for the deriv-th derivative of
    j_l (alternating signs) or i_l (positive signs) at 0 <= z <= SMALL_Z.

    The series for j_l is sum_k (-1)^k z^(l+2k) / (2^(s+l+2k) k! G(s+l+k+1));
    differentiation multiplies term k by the falling factorial of l+2k. Terms
    are built by ratio updates. The ratio q of term k+1 to term k, taken at
    the largest z, falls with k, so the tail after a term is at most
    |term| q / (1 - q). The term count is fixed before the sum, from these
    ratios at the largest z, so that the tail is below 1e-17 of the total
    at every point, which leaves the rounded total unchanged.

    l is one order, or a range of orders summed in one pass, a row each
    bit for bit its own sum: each keeps its term count and power of z.
    """
    sign = -1.0 if kind == "j" else 1.0
    z = np.asarray(z, dtype=float)
    zz = z * z / 4.0
    zz_max = float(np.max(zz, initial=0.0))
    one = isinstance(l, int)

    terms, ratios = [], []
    for l in [l] if one else l:
        coef, power, ratio, cached = _series_plan(kind, l, d, deriv)
        # |total| >= |term_0| (1 - q_0) for the alternating j series, whose
        # terms fall from the first on, and >= |term_0| for i; |term_n| is
        # at most |term_0| times the product of the q before n at every point
        floor = 1.0 - ratio(0) * zz_max if kind == "j" else 1.0
        if floor <= 0.0:
            raise ValueError("series used beyond its range of convergence")
        n, lead = 0, 1.0
        while True:
            q = ratio(n) * zz_max
            if q < 1.0 and lead * q <= 1e-17 * (1.0 - q) * floor:
                break
            n += 1
            lead *= q
        ratios.append(cached[:n])
        terms.append(coef * np.power(z, power))
    term = np.array(terms)
    total = term.copy()
    step = sign * zz
    # shorter sums pad with -0.0 ratios, whose +-0 terms leave every sum
    # as it was, a -0.0 one included
    steps = list(zip_longest(*ratios, fillvalue=-0.0))
    for r in np.reshape(steps, (-1, len(terms), 1)):
        term = term * step * r
        total += term
    return total[0] if one else total


def _kernel_table(kind, l, d, deriv, z):
    """row(k), the list T[k][m] of the k-th derivatives of the orders l+m,
    m <= deriv - k, at z > SMALL_Z (array).

    One call of scipy's jv or iv over the kernel orders s+l..s+l+deriv gives
    the row T[0]; the others, built on first request, follow by repeated
    exact application of w' = (m/z) w -/+ w_(m+1), with the Leibniz rule:
        T[k+1][m] = (l+m) sum_i C(k,i) (-1)^i i! z^-(i+1) T[k-i][m]
                    + sign T[k][m+1].
    """
    s = (d - 2) / 2.0
    sign = -1.0 if kind == "j" else 1.0
    bessel = special.jv if kind == "j" else special.iv
    orders = s + l + np.arange(deriv + 1, dtype=float)
    T = [list(bessel(orders[:, None], z) * np.power(z, -s))]
    inv = 1.0 / z
    pows = []       # pows[i] = inv ** (i + 1), made once, for the rows asked

    def row(k):
        for n in range(len(T) - 1, k):     # T[n + 1] from T[0..n]
            pows.extend(inv ** (i + 1) for i in range(len(pows), n + 1))
            c = [math.comb(n, i) * (-1.0) ** i * math.factorial(i)
                 for i in range(n + 1)]
            T.append([(l + m) * sum(c[i] * pows[i] * T[n - i][m]
                                    for i in range(n + 1))
                      + sign * T[n][m + 1] for m in range(deriv - n)])
        return T[k]

    return row


def _ultra_table(kind, l, d, z, deriv):
    """Table of j (kind "j") or i of orders l.. at z, for derivatives up to
    deriv; deriv also sets the span of orders, (order - l) + k <= deriv,
    so a table of l = 1 and deriv = 2 serves j_3 as well.

    Validates z once, by its min and max. Returns entry(order, k), the k-th
    derivative of that order, bit for bit the value ultra_j/ultra_i give.
    The first entry of each k builds its row: of the one _kernel_table
    above SMALL_Z, and of one _series_eval pass over the orders
    l..l+deriv-k at or below it. A scalar z gives floats, an array z a
    new array per entry, which the caller may write into.
    """
    UltraBesselParams(l, d)     # validates l, d
    if not (isinstance(deriv, int) and 0 <= deriv <= MAX_DERIV):
        raise ValueError(f"deriv must be an integer in [0, {MAX_DERIV}]")
    arr = np.asarray(z, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    # nan propagates through min and max; an empty z passes as all-small
    lo, hi = (float(arr.min()), float(arr.max())) if arr.size else (0.0, 0.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("z must be finite")
    if lo < 0:
        raise ValueError("z must be nonnegative")
    zmax = _J_Z_MAX if kind == "j" else _I_Z_MAX
    if hi > zmax:
        raise OverflowError(f"{kind}_l argument beyond kernel range ({zmax:g})")
    # the points at or below SMALL_Z and those above it; a scatter mask
    # only where z has points on both sides
    small = None
    if hi <= SMALL_Z:
        z_small, z_big = arr, None
    elif lo > SMALL_Z:
        z_small, z_big = None, arr
    else:
        small = arr <= SMALL_Z
        big = ~small
        z_small, z_big = arr[small], arr[big]
    T = None if z_big is None else _kernel_table(kind, l, d, deriv, z_big)
    series = {}

    def entry(order, k):
        if z_small is not None and k not in series:
            series[k] = _series_eval(
                kind, range(l, l + deriv - k + 1), d, k, z_small)
        if small is None:
            row = (T(k) if z_small is None else series[k])[order - l]
            return float(row[0]) if scalar else row.copy()
        out = np.empty(arr.shape)
        out[small] = series[k][order - l]
        out[big] = T(k)[order - l]
        return out

    return entry


def ultra_j(l, d, z, deriv=0):
    """deriv-th derivative of j_l(z) in dimension d, for z >= 0.

    Power series below SMALL_Z; kernel evaluation plus exact derivative
    recurrences above. Accepts scalar or array z.
    """
    return _ultra_table("j", l, d, z, deriv)(l, deriv)


def ultra_i(l, d, z, deriv=0):
    """deriv-th derivative of i_l(z) in dimension d, for z >= 0.

    Same scheme as ultra_j with the modified recurrence signs; i_l and all
    of its derivatives are positive for z > 0.
    """
    return _ultra_table("i", l, d, z, deriv)(l, deriv)


def _bracketed_root(f, lo, hi, *args):
    """Roots of the elementwise function f(x, *args) in the brackets
    [lo, hi], each with a sign change of f, by Chandrupatla's method
    (Adv. Eng. Softw. 28, 1997): inverse quadratic interpolation where the
    last three points allow it, bisection otherwise.

    One call of f on lo and hi joined starts every bracket. Each element
    stops once its bracket is narrower than _ROOT_XRTOL times its end with
    the smaller |f|, or once f there is 0 or subnormal; each later call
    evaluates only the elements still running. The arrays args run with x.
    Returns x (nan where no sign change), the status as an index into
    _ROOT_STATUS, and the final bracket and f at its ends, each ordered
    left to right.
    """
    x1, x2 = np.array(lo, dtype=float), np.array(hi, dtype=float)
    size = x1.size
    args = [np.broadcast_to(arg, x1.shape) for arg in args]
    both = f(np.concatenate([x1, x2]), *(np.concatenate([arg, arg]) for arg in args))
    f1, f2 = both[:size], both[size:]
    x3, f3 = x2, f2     # the previous point; set by every step
    act = np.arange(size)
    x, status = np.full(size, np.nan), np.zeros(size, dtype=int)
    ends = np.empty((4, size))
    t = 0.5
    for it in range(_ROOT_MAX_ITER + 1):
        if it:
            xn = x1 + t * (x2 - x1)
            fn = f(xn, *args)
            same = np.sign(fn) == np.sign(f1)
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1 = xn, fn
        small = np.abs(f1) < np.abs(f2)
        xmin, fmin = np.where(small, x1, x2), np.where(small, f1, f2)
        dx = np.abs(x2 - x1)
        tol = np.abs(xmin) * _ROOT_XRTOL
        zero = np.abs(fmin) <= np.finfo(float).tiny
        conv = zero | (dx < tol)
        bad = ~zero & ~(np.sign(f1) * np.sign(f2) < 0)
        stop = conv | bad | (it == _ROOT_MAX_ITER)
        if stop.any():
            i = act[stop]
            x[i] = np.where(bad, np.nan, xmin)[stop]
            status[i] = np.select([bad, conv], [1, 0], 2)[stop]
            ends[:, i] = x1[stop], x2[stop], f1[stop], f2[stop]
            go = ~stop
            act, args = act[go], [arg[go] for arg in args]
            x1, x2, x3, f1, f2, f3, dx, tol = (
                v[go] for v in (x1, x2, x3, f1, f2, f3, dx, tol))
        if not act.size:
            break
        if not it:
            continue
        # Chandrupatla's test: the inverse quadratic through the last three
        # points is monotone on the bracket; otherwise bisect
        xi = (x1 - x2) / (x3 - x2)
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = (f1 - f2) / (f3 - f2)
            alpha = (x3 - x1) / (x2 - x1)
            t = np.where((1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi)),
                         f1 / (f1 - f2) * f3 / (f3 - f2)
                         - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
        tl = 0.5 * tol / dx
        t = np.clip(t, tl, 1.0 - tl)
    xl, xr, fl, fr = ends
    left = xl < xr
    return (x, status, (np.where(left, xl, xr), np.where(left, xr, xl)),
            (np.where(left, fl, fr), np.where(left, fr, fl)))


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
                                         zs[i:i + 1], zs[i + 1:i + 2])
    if status[0]:
        raise RuntimeError(f"j_1' zero in [{zs[i]:.2f}, {zs[i + 1]:.2f}] not "
                           f"refined, d={d}: {_ROOT_STATUS[status[0]]}")
    return float(root[0])
