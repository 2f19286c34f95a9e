"""Ultraspherical Bessel functions and their derivatives.

j_l(z) = z^(-s) J_(s+l)(z) and i_l(z) = z^(-s) I_(s+l)(z) with s = (d-2)/2,
for integer dimension d >= 2 and integer order 0 <= l <= 8, together with
derivatives through fourth order, the series coefficients d_k of the
expansions of j_1'' and i_1'', and the first nontrivial zero of j_1'.

At or below SMALL_Z the values and derivatives come from the ascending
series, truncated by a geometric tail bound, which has no cancellation at
small z. Above it the kernels J and I are scipy's jv and iv (the Amos
routines, ACM TOMS 644, 1986, with their asymptotic expansions at large z),
and exact order recurrences give the derivatives.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import special
from scipy.optimize import brentq

SMALL_Z = 0.5          # power-series evaluation at or below this argument
_J_Z_MAX = 1.0e15      # jv loses its digits beyond this argument
_I_Z_MAX = 690.0       # i_l exceeds double range beyond this
MAX_ORDER = 8
MAX_DERIV = 4


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


@dataclass(frozen=True)
class SeriesCoeff:
    """Coefficient d_k = (2k+1) / ((k-1)! Gamma(k+1+d/2)) 2^(1-2k-d/2)."""

    k: int
    d: int
    value: float = field(init=False)

    def __post_init__(self):
        if not (isinstance(self.k, int) and self.k >= 1):
            raise ValueError("index k must be an integer >= 1")
        if not (isinstance(self.d, int) and self.d >= 2):
            raise ValueError("dimension d must be an integer >= 2")
        k, d = self.k, self.d
        if k + 1 + d / 2 < 170:
            value = (2 * k + 1) / (math.factorial(k - 1) * math.gamma(k + 1 + d / 2)) \
                * 2.0 ** (1 - 2 * k - d / 2)
        else:
            value = (2 * k + 1) * math.exp(
                -math.lgamma(k) - math.lgamma(k + 1 + d / 2)
                + (1 - 2 * k - d / 2) * math.log(2.0))
        object.__setattr__(self, "value", value)


def series_coeff_dk(k, d):
    """Series coefficient d_k, positive for every k >= 1, d >= 2."""
    return SeriesCoeff(k, d).value


def _series_eval(kind, l, d, deriv, z):
    """Term-differentiated ascending series for the deriv-th derivative of
    j_l (alternating signs) or i_l (positive signs) at 0 <= z <= SMALL_Z.

    The series for j_l is sum_k (-1)^k z^(l+2k) / (2^(s+l+2k) k! G(s+l+k+1));
    differentiation multiplies term k by the falling factorial of l+2k. Terms
    are built by ratio updates. The ratio q of term k+1 to term k, taken at
    the largest z, falls with k, so the tail after a term is at most
    |term| q / (1 - q); the sum stops once that is below 1e-17 of the total
    at every point, which leaves the rounded total unchanged.
    """
    s = (d - 2) / 2.0
    sign = -1.0 if kind == "j" else 1.0
    z = np.asarray(z, dtype=float)
    if z.size == 0:
        return np.empty(0)
    k = max(0, -((l - deriv) // 2))      # smallest k with l + 2k >= deriv
    m0 = l + 2 * k
    lognorm = -(s + m0) * math.log(2.0) - math.lgamma(k + 1) - math.lgamma(s + l + k + 1)
    fall = 1.0
    for i in range(deriv):
        fall *= m0 - i
    term = (sign**k * fall * math.exp(lognorm)) * np.power(z, m0 - deriv)
    total = term.copy()
    zz = z * z / 4.0
    zz_max = float(np.max(zz))
    while True:
        m = l + 2 * k
        ratio = (m + 2.0) * (m + 1.0) / ((m + 2.0 - deriv) * (m + 1.0 - deriv)
                                         * (k + 1.0) * (s + l + k + 1.0))
        q = ratio * zz_max
        if q < 1.0 and np.all(np.abs(term) * q <= 1e-17 * (1.0 - q) * np.abs(total)):
            return total
        term = term * (sign * zz) * ratio
        total += term
        k += 1


def _kernel_table(kind, l, d, deriv, z):
    """T[k][m], the k-th derivative of the order-(l+m) function for
    k + m <= deriv, at z > SMALL_Z (array).

    One call of scipy's jv or iv over the kernel orders s+l..s+l+deriv gives
    the row T[0]; repeated exact application of w' = (m/z) w -/+ w_(m+1),
    expanded with the Leibniz rule, gives the others:
        T[k+1][m] = (l+m) sum_i C(k,i) (-1)^i i! z^-(i+1) T[k-i][m]
                    + sign T[k][m+1].
    """
    s = (d - 2) / 2.0
    sign = -1.0 if kind == "j" else 1.0
    bessel = special.jv if kind == "j" else special.iv
    orders = s + l + np.arange(deriv + 1, dtype=float)
    T = [list(bessel(orders[:, None], z) * np.power(z, -s))]
    inv = 1.0 / z
    for k in range(deriv):
        row = []
        for m in range(deriv - k):
            acc = np.zeros_like(z)
            for i in range(k + 1):
                acc += (math.comb(k, i) * (-1.0) ** i * math.factorial(i)) * inv ** (i + 1) \
                    * T[k - i][m]
            row.append((l + m) * acc + sign * T[k][m + 1])
        T.append(row)
    return T


def _ultra_table(kind, l, d, z, deriv):
    """Table of j (kind "j") or i of orders l.. at z, for derivatives up to
    deriv.

    Validates z once and makes one _kernel_table call for the points above
    SMALL_Z. Returns entry(order, k), the k-th derivative of the function
    of that order, for l <= order and (order - l) + k <= deriv: bit for bit
    the value ultra_j/ultra_i give, with the points at or below SMALL_Z
    summed by _series_eval for that entry alone. A scalar z gives floats.
    """
    UltraBesselParams(l, d)     # validates l, d
    if not (isinstance(deriv, int) and 0 <= deriv <= MAX_DERIV):
        raise ValueError(f"deriv must be an integer in [0, {MAX_DERIV}]")
    arr = np.asarray(z, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(np.isfinite(arr)):
        raise ValueError("z must be finite")
    if np.any(arr < 0):
        raise ValueError("z must be nonnegative")
    zmax = _J_Z_MAX if kind == "j" else _I_Z_MAX
    if np.any(arr > zmax):
        raise OverflowError(f"{kind}_l argument beyond kernel range ({zmax:g})")
    small = arr <= SMALL_Z
    z_small = arr[small] if small.any() else None
    T = None if small.all() else _kernel_table(kind, l, d, deriv, arr[~small])

    def entry(order, k):
        out = np.empty(arr.shape)
        if z_small is not None:
            out[small] = _series_eval(kind, order, d, k, z_small)
        if T is not None:
            out[~small] = T[k][order - l]
        return float(out[0]) if scalar else out

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


@lru_cache(maxsize=None)
def first_zero_j1prime(d):
    """First z > 0 with j_1'(z) = 0, to relative tolerance 1e-12.

    Bracketed by a fixed-step scan of (0, 20] with step 0.05, then refined;
    raises if the scan window contains no sign change.
    """
    zs = np.arange(0.05, 20.0 + 1e-9, 0.05)
    vals = ultra_j(1, d, zs, deriv=1)
    sgn = np.sign(vals)
    flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
    if flips.size == 0:
        raise RuntimeError(
            f"no sign change of j_1' in the scan window (0, 20], step 0.05, d={d}")
    i = flips[0]
    root = brentq(lambda t: ultra_j(1, d, t, deriv=1), zs[i], zs[i + 1],
                  xtol=1e-15, rtol=1e-13)
    return float(root)
