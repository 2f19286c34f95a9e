"""Independent oracles used by the test suite.

Every routine here recomputes its target quantity from scratch (mpmath
series at high precision, finite differences, or a spectral discretization)
without calling into the package's own special-function kernels, so package
results are checked against genuinely independent arithmetic.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
from numpy.polynomial import chebyshev as ncheb
from scipy.linalg import eigh

mp.mp.dps = 40


def mp_ultra(kind, l, d, z, deriv=0, as_mpf=False):
    """High-precision ultraspherical Bessel value by direct series.

    j_l(z) = sum_k (-1)^k z^(l+2k) / (2^(s+l+2k) k! Gamma(s+l+k+1)),
    s = (d-2)/2; i_l is the same series with all positive signs. The
    deriv-th derivative is taken term by term. The sum runs past the largest
    term (k > z) until a term falls below 10^-dps of the total, at a working
    precision raised by z / ln(10) digits: the largest term is about e^z, so
    that is what the alternating j series loses to cancellation. Returns a
    float, or with as_mpf the sum itself, to combine in mpmath.
    """
    sign = -1 if kind == "j" else 1
    tol = mp.mpf(10) ** -mp.mp.dps
    with mp.workdps(mp.mp.dps + int(float(z) / 2.3) + 10):
        s = mp.mpf(d - 2) / 2
        z = mp.mpf(z)
        total = mp.mpf(0)
        k = 0
        while True:
            m = l + 2 * k
            if m >= deriv:
                coeff = mp.mpf(1) / (mp.power(2, s + m) * mp.factorial(k)
                                     * mp.gamma(s + l + k + 1))
                fall = mp.mpf(1)
                for q in range(deriv):
                    fall *= m - q
                term = sign**k * coeff * fall * mp.power(z, m - deriv)
                total += term
                if k > z and abs(term) <= tol * abs(total):
                    return total if as_mpf else float(total)
            k += 1


def first_sign_change(f, lo, hi, n):
    """Locate the first sign change of f on [lo, hi] with an n-point grid.

    Returns (z_left, z_right) bracketing the change, or None.
    """
    zs = np.linspace(lo, hi, n)
    vals = np.array([f(z) for z in zs])
    sign = np.sign(vals)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if idx.size == 0:
        return None
    i = idx[0]
    return zs[i], zs[i + 1]


def rayleigh_ritz_tone(d, tau, nbasis=40, nodes=160):
    """Lowest generalized eigenvalue of the plate quotient on the ball
    restricted to u = f(r) x_1/r, discretized with f_k(r) = r T_k(2r-1).

    Uses the closed-form Cartesian sums for such u,
        sum |u|^2 = f^2,  sum |Du|^2 = (d-1) f^2/r^2 + f'^2,
        sum |D^2 u|^2 = f''^2 + 3(d-1)(f - r f')^2 / r^4,
    which for this basis reduce to polynomials:
        f/r = T,  (f - r f')/r^2 = -2 T',  f' = T + 2 r T',  f'' = 4T' + 4rT''
    (primes on T with respect to its own argument x = 2r - 1). All integrals
    use Gauss-Legendre nodes with the r^(d-1) weight, so nothing here shares
    code with the package's Bessel evaluation or secular solve.
    """
    x_gl, w_gl = np.polynomial.legendre.leggauss(nodes)
    r = 0.5 * (x_gl + 1.0)
    w = 0.5 * w_gl * r ** (d - 1)
    x = 2.0 * r - 1.0

    T = np.empty((nbasis, nodes))
    T1 = np.empty((nbasis, nodes))
    T2 = np.empty((nbasis, nodes))
    for k in range(nbasis):
        c = np.zeros(k + 1)
        c[k] = 1.0
        T[k] = ncheb.chebval(x, c)
        T1[k] = ncheb.chebval(x, ncheb.chebder(c, 1)) if k >= 1 else 0.0
        T2[k] = ncheb.chebval(x, ncheb.chebder(c, 2)) if k >= 2 else 0.0

    f = r * T
    fp = T + 2.0 * r * T1
    fpp = 4.0 * T1 + 4.0 * r * T2
    ratio = -2.0 * T1          # (f - r f')/r^2
    f_over_r = T

    A = (fpp * w) @ fpp.T \
        + 3.0 * (d - 1) * (ratio * w) @ ratio.T \
        + tau * ((fp * w) @ fp.T + (d - 1) * (f_over_r * w) @ f_over_r.T)
    B = (f * w) @ f.T
    A = 0.5 * (A + A.T)
    B = 0.5 * (B + B.T)
    vals = eigh(A, B, eigvals_only=True)
    return float(vals[0])


def _richardson_d1(g, t, h):
    """First derivative of g at t by central differences with one
    Richardson step (error O(h^4))."""
    d1 = (g(t + h) - g(t - h)) / (2.0 * h)
    d2 = (g(t + h / 2) - g(t - h / 2)) / h
    return (4.0 * d2 - d1) / 3.0


def _fd_laplacian(u, x, h):
    """Cartesian Laplacian of scalar field u at point x, one Richardson step."""
    def lap(hh):
        total = 0.0
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = hh
            total += u(x + e) - 2.0 * u(x) + u(x - e)
        return total / hh**2
    return (4.0 * lap(h / 2) - lap(h)) / 3.0


def fd_boundary_V(radial_part, R, d, tau, h_lap=2e-3, h_r=1e-2):
    """Finite-difference application of the natural boundary operator

        V u = tau u_r - r^-2 Delta_S(u_r - u/r) - (Delta u)_r

    at radius R to u(x) = radial_part(|x|) x_1/|x|, divided by the angular
    factor x_1/|x| at the evaluation point.

    u_r and (Delta u)_r are radial derivatives along the ray through a
    generic sphere point; Delta_S g is obtained by extending g from the
    sphere as the degree-zero homogeneous field g(R x/|x|) and taking R^2
    times its Cartesian Laplacian (the radial part of the extension
    vanishes). Only textbook calculus enters, so this is an independent
    check of any closed-form reduction of V.
    """
    def u(x):
        r = float(np.linalg.norm(x))
        return radial_part(r) * x[0] / r

    raw = np.arange(1, d + 1, dtype=float)
    p_hat = raw / np.linalg.norm(raw)
    p = R * p_hat

    def u_r_at(x):
        x = np.asarray(x, dtype=float)
        ray = x / np.linalg.norm(x)
        return _richardson_d1(lambda t: u(x + t * ray), 0.0, h_r)

    u_r = u_r_at(p)

    def lap_u_at_radius(r):
        return _fd_laplacian(u, r * p_hat, h_lap)

    lap_u_r = _richardson_d1(lap_u_at_radius, R, h_r)

    def w_extended(x):
        x = np.asarray(x, dtype=float)
        y = R * x / np.linalg.norm(x)
        return u_r_at(y) - u(y) / R

    delta_s_w = R**2 * _fd_laplacian(w_extended, p, 5e-3)

    value = tau * u_r - delta_s_w / R**2 - lap_u_r
    return value / p_hat[0]


def fd_hessian_sq_norm_vec(field, X, h=1e-3):
    """Squared Frobenius norm of the Hessian of a scalar field at each row
    of X (shape (n, d)), by Richardson-extrapolated central differences.

    field maps an (n, d) array to an (n,) array; nothing is assumed about
    radial structure, so this checks Cartesian identities independently.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    out = np.zeros(n)

    def second(i, j, hh):
        ei = np.zeros(d); ei[i] = hh
        ej = np.zeros(d); ej[j] = hh
        if i == j:
            return (field(X + ei) - 2.0 * field(X) + field(X - ei)) / hh**2
        return (field(X + ei + ej) - field(X + ei - ej)
                - field(X - ei + ej) + field(X - ei - ej)) / (4.0 * hh**2)

    for i in range(d):
        for j in range(i, d):
            H = (4.0 * second(i, j, h / 2) - second(i, j, h)) / 3.0
            out += H**2 if i == j else 2.0 * H**2
    return out


def fd_gradient_sq_norm_vec(field, X, h=1e-4):
    """Squared gradient norm of a scalar field at each row of X, by
    Richardson-extrapolated central differences."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    out = np.zeros(n)
    for i in range(d):
        e = np.zeros(d); e[i] = 1.0
        d1 = (field(X + h * e) - field(X - h * e)) / (2.0 * h)
        d2 = (field(X + (h / 2) * e) - field(X - (h / 2) * e)) / h
        out += ((4.0 * d2 - d1) / 3.0) ** 2
    return out


def uniform_ball_samples(rng, n, d, radius=1.0):
    """n uniform samples in the d-ball by rejection from the bounding box."""
    out = np.empty((n, d))
    have = 0
    while have < n:
        cand = rng.uniform(-radius, radius, size=(2 * (n - have) + 64, d))
        keep = cand[np.einsum("ij,ij->i", cand, cand) <= radius**2]
        take = min(keep.shape[0], n - have)
        out[have:have + take] = keep[:take]
        have += take
    return out


def fd_gradient(field, x, h=1e-4):
    """Gradient of scalar field at x, Richardson-extrapolated central FD."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = 1.0
        g[i] = _richardson_d1(lambda t: field(x + t * e), 0.0, h)
    return g


def fd_hessian(field, x, h=1e-3):
    """Hessian of scalar field at x by Richardson-extrapolated central FD."""
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.empty((n, n))

    def second(i, j, hh):
        ei = np.zeros(n); ei[i] = hh
        ej = np.zeros(n); ej[j] = hh
        if i == j:
            return (field(x + ei) - 2.0 * field(x) + field(x - ei)) / hh**2
        return (field(x + ei + ej) - field(x + ei - ej)
                - field(x - ei + ej) + field(x - ei - ej)) / (4.0 * hh**2)

    for i in range(n):
        for j in range(i, n):
            v = (4.0 * second(i, j, h / 2) - second(i, j, h)) / 3.0
            H[i, j] = H[j, i] = v
    return H


def mp_quartic_min(dps=30):
    """Interior minimiser of Q(x)/x on (0, 12/7) and the minimum value,
    recomputed at high precision with mpmath alone (mu from mpmath's
    Bessel derivative zero). Returns (c, min) as floats.
    """
    with mp.workdps(dps):
        mu = mp.findroot(lambda z: mp.besselj(1, z, derivative=1),
                         mp.mpf("1.8")) ** 2

        def q_over_x(x):
            q = ((1 - 3 * x / (2 * mu)) * (mu - x) * (36 - 5 * x)
                 * (12 + 4 * x)
                 - (36 * mu + (6 * mu - 36) * x) * (12 - 7 * x))
            return q / x

        c = mp.findroot(lambda x: mp.diff(q_over_x, x), mp.mpf("1.4"))
        return float(c), float(q_over_x(c))


def _mp_ainf(d):
    # first zero of j_1'(z) = j_1(z)/z - j_2(z), z^-s J_(s+l) in mpmath
    s = mp.mpf(d - 2) / 2

    def j1p(z):
        return (mp.besselj(s + 1, z) / z - mp.besselj(s + 2, z)) * z ** (-s)

    z = mp.mpf("0.5")
    while j1p(z + mp.mpf("0.5")) > 0:
        z += mp.mpf("0.5")
    return mp.findroot(j1p, (z, z + mp.mpf("0.5")), solver="anderson")


def mp_membrane_C(d, dps=30):
    """C(B) = int |D^2 v|^2 / int v^2 for the membrane mode v = j_1(ainf r)
    Y_1 of the unit ball, by mpmath's tanh-sinh quadrature of the radial
    integrals with weight r^(d-1): numerator (rho'')^2 + 3(d-1)((rho - r
    rho')/r^2)^2, rho = j_1(ainf r), with j_1' = j_1/z - j_2 and j_1'' from
    the radial equation j_1'' = -(d-1) j_1'/z - (1 - (d-1)/z^2) j_1.
    Returns a float.
    """
    with mp.workdps(dps):
        s = mp.mpf(d - 2) / 2
        ainf = _mp_ainf(d)

        def parts(r):
            z = ainf * r
            j1, j2 = (mp.besselj(s + l, z) * z ** (-s) for l in (1, 2))
            j1p = j1 / z - j2
            j1pp = -(d - 1) * j1p / z - (1 - (d - 1) / z**2) * j1
            rho_pp = ainf**2 * j1pp
            ratio = (j1 - z * j1p) / r**2
            return (rho_pp**2 + 3 * (d - 1) * ratio**2) * r ** (d - 1), \
                j1**2 * r ** (d - 1)

        num = mp.quad(lambda r: parts(r)[0], [0, 1])
        den = mp.quad(lambda r: parts(r)[1], [0, 1])
        return float(num / den)


def mp_gauss_gegenbauer(n, alpha, guess, dps=30):
    """Nodes and weights of the n-node Gauss rule for the weight
    (1 - t^2)^(alpha - 1/2) on [-1, 1]: the zeros of C_n^alpha from the
    classical recurrence (k+1) C_(k+1) = 2(k+alpha) t C_k - (k+2alpha-1)
    C_(k-1), refined from the float guesses by Newton steps in mpmath, and
    the closed-form weights
        pi 2^(2-2 alpha) Gamma(n+2 alpha) / (n! Gamma(alpha)^2
        (1 - t^2) C_n^alpha'(t)^2),  C_n^alpha' = 2 alpha C_(n-1)^(alpha+1)
    (for n = 1 the weight is the total mass of the weight function).
    Returns two float arrays.
    """
    def gegenbauer(m, a, x):
        c0, c = mp.mpf(0), mp.mpf(1)
        for k in range(m):
            c0, c = c, (2 * (k + a) * x * c - (k + 2 * a - 1) * c0) / (k + 1)
        return c

    with mp.workdps(dps):
        a = mp.mpf(alpha)
        scale = mp.pi * 2 ** (2 - 2 * a) * mp.gamma(n + 2 * a) \
            / (mp.factorial(n) * mp.gamma(a) ** 2)
        t, w = [], []
        for x in guess:
            x = mp.mpf(float(x))
            for _ in range(4):
                x -= gegenbauer(n, a, x) / (2 * a * gegenbauer(n - 1, a + 1, x))
            t.append(x)
            w.append(scale / ((1 - x * x)
                              * (2 * a * gegenbauer(n - 1, a + 1, x)) ** 2))
        return np.array([float(x) for x in t]), np.array([float(x) for x in w])


def mp_tone(tau, d, dps=60):
    """Fundamental tone omega = a^2 (a^2 + tau) of the unit ball, in mpmath.

    j_l(z) = z^-s J_(s+l)(z) and i_l(z) = z^-s I_(s+l)(z), s = (d-2)/2, with
    first derivatives from j_1' = j_1/z - j_2, i_1' = i_1/z + i_2 and second
    derivatives from the radial equations
        j_1'' = -(d-1) j_1'/z - (1 - (d-1)/z^2) j_1,
        i_1'' = -(d-1) i_1'/z + (1 + (d-1)/z^2) i_1.
    gamma = -a^2 j_1''(a) / (b^2 i_1''(b)), b^2 = a^2 + tau, and a is the
    root on (a_lo, ainf) of the natural boundary condition
        (tau + d - 1) R'(1) - (d - 1) R(1) + a^3 j_1'(a) - gamma b^3 i_1'(b),
    R = j_1(a r) + gamma i_1(b r), with a_lo from omega = tau ainf^2 / 2.
    The working precision absorbs the cancellation of this form at small
    tension. Returns a float.
    """
    with mp.workdps(dps):
        tau = mp.mpf(tau)
        top = _mp_ainf(d)
        w = tau * top**2 / 2
        lo = mp.sqrt(2 * w / (tau + mp.sqrt(tau * tau + 4 * w)))
        a = mp.findroot(lambda a: mp_secular_V(a, tau, d),
                        (lo, top * (1 - mp.mpf(10) ** (-dps // 2))),
                        solver="anderson")
        return float(a * a * (a * a + tau))


def mp_secular_V(a, tau, d):
    """The natural boundary condition of mp_tone at the unit radius, at
    the working precision, as an mpf."""
    s = mp.mpf(d - 2) / 2
    a, tau = mp.mpf(a), mp.mpf(tau)
    b = mp.sqrt(a * a + tau)
    j1, j2 = (mp.besselj(s + l, a) * a ** (-s) for l in (1, 2))
    i1, i2 = (mp.besseli(s + l, b) * b ** (-s) for l in (1, 2))
    j1p, i1p = j1 / a - j2, i1 / b + i2
    j1pp = -(d - 1) * j1p / a - (1 - (d - 1) / a**2) * j1
    i1pp = -(d - 1) * i1p / b + (1 + (d - 1) / b**2) * i1
    g = -a * a * j1pp / (b * b * i1pp)
    return ((tau + d - 1) * (a * j1p + g * b * i1p)
            - (d - 1) * (j1 + g * i1) + a**3 * j1p - g * b**3 * i1p)


def legendre_to_power(n):
    """(n, n) matrix whose column k holds the power-basis coefficients of
    the Legendre polynomial P_k, from Rodrigues' formula
    P_k = d^k/dx^k (x^2 - 1)^k / (2^k k!) in exact rationals: each entry
    is an integer over a power of two, so the floats are exact."""
    out = np.zeros((n, n))
    for k in range(n):
        scale = Fraction(1, 2**k * math.factorial(k))
        # (x^2 - 1)^k = sum_i C(k, i) (-1)^(k - i) x^(2i), differentiated
        # k times term by term
        for i in range((k + 1) // 2, k + 1):
            out[2 * i - k, k] = float(scale * math.comb(k, i) * (-1) ** (k - i)
                                      * math.perm(2 * i, k))
    return out
