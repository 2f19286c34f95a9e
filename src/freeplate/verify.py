"""Grid certification of the auxiliary inequalities behind the quotient
bound: sign patterns of the radial Bessel functions, cubic bounds on their
second derivatives, the coupling-constant chain for small and large
tension, the pointwise facts about the trial profile (concavity of rho,
partial monotonicity of N[rho], rho^2 and h), and the two polynomials
whose positivity closes the small-tension case. Each row is the worst of
its sub-checks, (margin, point) pairs.
"""

import math
import numbers

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import trial
from .ball import fundamental_tones
from .report import VerificationReport
from .specfun import (_ultra_table, first_zero_j1prime, series_coeff_dk,
                      ultra_i, ultra_j)

P3_CRITICAL_REF = 79.0
DEFAULT_GRID = 4096
ENDPOINT_TOL = 1e-10
_EQ_SLACK = 1e-12
_NOISE_FLOOR = 1e-12
_TENSION_PTS = 64


def _least(vals, *coords):
    # the (margin, point) entry at the smallest value; each coordinate is a
    # scalar or an array aligned with vals
    i = int(np.argmin(vals))
    return float(vals[i]), tuple(float(c if np.ndim(c) == 0 else c[i])
                                 for c in coords)


def _reduce(lemma_id, entries, grid, tolerance=0.0):
    # entries: (margin, point) pairs; emit the worst as one report
    margin, point = min(entries, key=lambda c: c[0])
    return VerificationReport.one_sided(lemma_id, margin, point, grid,
                                        tolerance)


def _critical_points(c1, c2, c3):
    # real roots of c1 + 2 c2 x + 3 c3 x^2, the derivative of a cubic
    disc = (2 * c2) ** 2 - 12 * c3 * c1
    if disc < 0:
        return ()
    root = math.sqrt(disc)
    return tuple(sorted((float((-2 * c2 - root) / (6 * c3)),
                         float((-2 * c2 + root) / (6 * c3)))))


def _p_coeffs(d):
    return (24 * d**4 + 60 * d**3 - 120 * d**2 - 432 * d,
            -40 * d**3 - 119 * d**2 - 6 * d + 432,
            43 * d**2 + 113 * d + 54,
            -15 * d - 30)


def poly_P(x, d):
    """Cubic-in-x polynomial controlling the small-tension coupling bound.

    P(x, d) = 24 d^4 + 60 d^3 - 120 d^2 - 432 d
              + x (-40 d^3 - 119 d^2 - 6 d + 432)
              + x^2 (43 d^2 + 113 d + 54)
              + x^3 (-15 d - 30)

    Evaluated by Horner's rule in x; exact for integer arguments within
    double range.
    """
    p0, p1, p2, p3 = _p_coeffs(d)
    return p0 + x * (p1 + x * (p2 + x * p3))


def poly_P_critical_points(d):
    """Real roots of dP/dx(x, d), by the quadratic formula."""
    return _critical_points(*_p_coeffs(d)[1:])


def p_lower_bound(d):
    """Lower bound for P(. , d) on [0, 3]: each term of P is replaced by
    its minimum over x in [0, 3], leaving the quartic
    24 d^4 - 60 d^3 - 477 d^2 - 855 d - 810. Exact for integer d."""
    return 24 * d**4 - 60 * d**3 - 477 * d**2 - 855 * d - 810


def p_lower_bound_prime(d):
    return 96 * d**3 - 180 * d**2 - 954 * d - 855


def verify_P_nonneg(d_range=range(3, 31), grid_size=DEFAULT_GRID):
    """Check P(x, d) >= 0 on [0, 3(d+2)/(d+5)] for each d in d_range.

    The grid minimum is combined with exact evaluation at the interior
    critical points of the cubic.

    Returns
    -------
    VerificationReport
        worst_point = (x, d) of the smallest value seen.
    """
    d_list = [int(d) for d in d_range]
    if not d_list or min(d_list) < 3 or max(d_list) > 100:
        raise ValueError("d_range must be a nonempty subset of [3, 100]")
    entries = []
    scale = 0.0
    for d in d_list:
        xmax = 3.0 * (d + 2) / (d + 5)
        xs = np.linspace(0.0, xmax, grid_size + 1)
        xs = np.append(xs, [c for c in poly_P_critical_points(d)
                            if 0.0 <= c <= xmax])
        vals = poly_P(xs, float(d))
        scale = max(scale, float(np.max(np.abs(vals))))
        entries.append(_least(vals, xs, d))
    if len(d_list) == 1:
        lemma_id = f"P-nonneg[d={d_list[0]}]"
    else:
        lemma_id = f"P-nonneg[d={min(d_list)}..{max(d_list)}]"
    return _reduce(lemma_id, entries, f"{grid_size + 1} pts on "
                   "[0;3(d+2)/(d+5)] plus critical pts", -1e-9 * (1.0 + scale))


def poly_Q(x):
    """Quartic whose positivity on [0, 12/7] settles the two-dimensional
    coupling bound; the membrane tone of the disk enters as a coefficient.

    Q(x) = (1 - 3x/(2 mu))(mu - x)(36 - 5x)(12 + 4x)
           - (36 mu + (6 mu - 36) x)(12 - 7x),   mu = ainf(2)^2.
    """
    mu = first_zero_j1prime(2) ** 2
    return ((1.0 - 3.0 * x / (2.0 * mu)) * (mu - x) * (36.0 - 5.0 * x)
            * (12.0 + 4.0 * x)
            - (36.0 * mu + (6.0 * mu - 36.0) * x) * (12.0 - 7.0 * x))


def _q_over_x_coeffs():
    # expand Q and strip the root at x = 0
    mu = first_zero_j1prime(2) ** 2
    q = npoly.polymul([1.0, -1.5 / mu], [mu, -1.0])
    q = npoly.polymul(q, [36.0, -5.0])
    q = npoly.polymul(q, [12.0, 4.0])
    q = npoly.polysub(q, npoly.polymul([36.0 * mu, 6.0 * mu - 36.0],
                                       [12.0, -7.0]))
    return q[1:]


def poly_Q_critical_points():
    """Real roots of (Q(x)/x)', by the quadratic formula."""
    return _critical_points(*_q_over_x_coeffs()[1:])


def spot_values():
    """Reference numbers from the polynomial analyses.

    Returns
    -------
    dict
        Exact integer evaluations of the quartic lower bound g and its
        derivative at d = 7 and d = 5, plus the interior critical points
        of the two polynomial checks: for P(., 3) its own critical point
        and value; for the quartic Q the minimiser of Q(x)/x, with both Q
        and Q/x evaluated there.
    """
    c3 = [x for x in poly_P_critical_points(3) if 0.0 <= x <= 15.0 / 8.0][0]
    cq = [x for x in poly_Q_critical_points() if 0.0 < x <= 12.0 / 7.0][0]
    gq = float(npoly.polyval(cq, _q_over_x_coeffs()))
    return {
        "g-at-7": p_lower_bound(7),
        "g-prime-at-5": p_lower_bound_prime(5),
        "P3-critical-point": c3,
        "P3-critical-value": poly_P(c3, 3.0),
        "Q-critical-point": cq,
        "Q-critical-value": float(poly_Q(cq)),
        "Q-over-x-minimum": gq,
    }


def verify_Q_positive(grid_size=DEFAULT_GRID):
    """Check Q(x)/x > 0 on (0, 12/7], grid plus exact critical points."""
    xmax = 12.0 / 7.0
    xs = np.linspace(0.0, xmax, grid_size + 1)[1:]
    xs = np.append(xs, [c for c in poly_Q_critical_points()
                        if 0.0 < c <= xmax])
    return _reduce("Q-positive", [_least(poly_Q(xs) / xs, xs)],
                   f"{grid_size} pts on (0;12/7] plus critical pts")


def verify_ij_bounds(d, grid_size=DEFAULT_GRID):
    """Check the cubic Taylor-style bounds on the second derivatives:

    -d1 z + d2 z^3 >= j_1''(z) on [0, sqrt(3(d+2)/(d+5))] and
     d1 z + (6/5) d2 z^3 >= i_1''(z) on [0, sqrt(3)],

    with equality at z = 0. The tolerance absorbs the float noise floor of
    the near-equality region next to 0.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    d1 = series_coeff_dk(1, d)
    d2 = series_coeff_dk(2, d)
    zj = np.linspace(0.0, math.sqrt(3.0 * (d + 2) / (d + 5)),
                     grid_size + 1)[1:]
    mj = (-d1 * zj + d2 * zj**3) - ultra_j(1, d, zj, deriv=2)
    zi = np.linspace(0.0, math.sqrt(3.0), grid_size + 1)[1:]
    mi = (d1 * zi + 1.2 * d2 * zi**3) - ultra_i(1, d, zi, deriv=2)
    scale = max(float(np.max(np.abs(mj))), float(np.max(np.abs(mi))))
    return _reduce(f"ij-bounds[d={d}]", [_least(mj, 1.0, zj),
                                         _least(mi, 2.0, zi)],
                   f"{grid_size} pts per bound; open at the z=0 equality",
                   -_NOISE_FLOOR * (1.0 + scale))


def verify_bessel_signs(d):
    """Grid-check the five sign facts j_l > 0 (l = 1..5), j_1' > 0,
    j_2' > 0, j_1'' < 0 and j_1'''' > 0 on their intervals up to the
    first zero of j_1'. worst_point records (item, l, z)."""
    if d < 2:
        raise ValueError("d must be at least 2")
    n = 10**4
    ainf = first_zero_j1prime(d)
    closed = np.linspace(0.0, ainf, n + 1)[1:]
    J = _ultra_table("j", 1, d, closed, 4)
    # (item, order, values); item 2 is open at the right end, where j_1'
    # vanishes
    items = [(1.0, l, J(l, 0)) for l in range(1, 6)]
    items += [(2.0, 1, J(1, 1)[:-1]), (3.0, 2, J(2, 1)),
              (4.0, 1, -J(1, 2)), (5.0, 1, J(1, 4))]
    return _reduce(f"bessel-signs[d={d}]",
                   [_least(vals, item, l, closed) for item, l, vals in items],
                   f"5 items; {n} pts on (0;ainf] (item 2 open right)")


def gamma_star(a, d):
    """Rational lower threshold for the coupling constant:
    gamma* = (3(d+2) - a^2 (d+5)) / ((3 + a^2)(d + 2))."""
    return (3.0 * (d + 2) - a * a * (d + 5)) / ((3.0 + a * a) * (d + 2))


def _small_tau_checks(modes, d):
    # gamma >= gamma* plus the wavenumber regime bounds
    #   d a^2/(d - a^2) > b^2 > (d+2) a^2/(d+2-a^2)
    # at the modes of the small-tension regime tau <= 9/(d+5), solved by
    # full_suite's one call
    checks = []
    for m in modes:
        a2, b2 = m.a**2, m.b**2
        checks.append((m.gamma - gamma_star(m.a, d), (m.tau, m.a)))
        checks.append((b2 - (d + 2) * a2 / (d + 2 - a2), (m.tau, m.a)))
        checks.append((d * a2 / (d - a2) - b2, (m.tau, m.a)))
    return checks


def _large_tau_checks(modes, d):
    # tau >= 3 a^2/(d+2) at the modes of the large-tension regime, solved
    # by full_suite's one call
    return [(m.tau - 3.0 * m.a**2 / (d + 2), (m.tau, m.a)) for m in modes]


def default_small_tau_grid(d):
    edge = 9.0 / (d + 5)
    return np.logspace(math.log10(edge) - 3.0, math.log10(edge), _TENSION_PTS)


def default_large_tau_grid(d):
    edge = 9.0 / (d + 5)
    return np.logspace(math.log10(edge), 2.0, _TENSION_PTS + 1)[1:]


def _profile_checks(profile, inner, outer):
    """The four profile rows' sub-checks, {row: {name: (margin, point)}},
    from one profile pass, rho'''' included, on the inner grid in (0, 1),
    the outer grid in [1, inf), r = 1 and r = 0. Concavity: -rho'' inside,
    rho'' = 0 at both ends (equalities at ENDPOINT_TOL), and rho'''' > 0
    on the inner grid and r = 1, so that rho'' vanishes only at the ends.
    The partial monotonicity of N[rho]: N inside above N outside, and its
    ingredients, the last two rows' sub-checks among them: rho^2
    increasing over both grids, and 6 (rho - r rho')/r^2 + 3 rho''
    + tau rho > 0 on the inner grid and r = 1, which makes
    h(r) = 3 (rho - r rho')^2/r^4 + tau rho^2/r^2 decreasing.
    """
    m = profile.mode
    ni = inner.size
    combined = np.concatenate([inner, outer])
    nc = combined.size
    pc = trial._eval_pieces(profile, np.append(combined, [1.0, 0.0]), deriv=4)
    closed = np.append(inner, 1.0)

    d2 = pc["d2"]
    # rho''(0) = 0 as every term of the tables' rho'' carries a power of r,
    # rho''(1-) = 0 by the construction of gamma
    _, _, d2_end, d4_end = trial._edge_values(profile)
    concavity = {
        "concave": _least(-d2[:ni], inner),
        "flat-at-0": (ENDPOINT_TOL - abs(float(d2[nc + 1])), (0.0,)),
        "flat-at-1": (ENDPOINT_TOL - abs(d2_end), (1.0,)),
        "fourth-positive": _least(np.append(pc["d4"][:ni], d4_end), closed)}

    n = trial._numerator(m, pc)
    n_in, n_out = n[:ni], n[ni:nc]
    i, j = int(np.argmin(n_in)), int(np.argmax(n_out))
    grad = m.tau * pc["d1"][:nc] ** 2
    drop, point = _least(grad[:-1] - grad[1:], combined)
    h = 3.0 * pc["q"][:nc] ** 2 + m.tau * pc["p"][:nc] ** 2
    den = pc["rho"][:nc] ** 2
    rise = _least(den[1:] - den[:-1], combined)
    quant = 6.0 * pc["q"] + 3.0 * d2 + m.tau * pc["rho"]
    h_quantity = _least(np.append(quant[:ni], quant[nc]), closed)
    monotone = {
        "numerator-gap": (float(n_in[i] - n_out[j]), (inner[i], outer[j])),
        "curvature-inside": _least(d2[:ni] ** 2, inner),
        "curvature-outside": (_EQ_SLACK - float(np.max(d2[ni:nc] ** 2)),
                              (outer[0],)),
        "gradient-drop": (drop + _EQ_SLACK * float(np.max(grad)), point),
        "h-drop": _least(h[:-1] - h[1:], combined),
        "denominator-rise": rise,
        "denominator-gap": (float(np.min(den[ni:]) - np.max(den[:ni])),
                            (inner[-1], outer[0])),
        "h-quantity": h_quantity}
    return {"profile-concavity": concavity, "numerator-monotone": monotone,
            "denominator-increase": {"denominator-rise": rise},
            "h-decrease-condition": {"h-quantity": h_quantity}}


def full_suite(d, trial_tau_grid=None, include_global=True,
               grid_size=DEFAULT_GRID):
    """Run every lemma check for one dimension, one report per lemma.

    One fundamental_tones call solves the ball at every tension the
    dimension needs: the small- and large-tension grids of the regime
    rows and the profile tensions.

    Parameters
    ----------
    d : int
        Dimension, >= 2.
    trial_tau_grid : array_like, optional
        Finite positive tensions for the profile rows; defaults to 8
        log-spaced points in [1e-3, 100].
    include_global : bool, optional
        Also emit the dimension-independent rows (the polynomial lemmas
        over their full ranges and the scalar binomial estimate).
    grid_size : int, optional
        Points per grid, at least 1000.

    Returns
    -------
    list of VerificationReport
    """
    if not isinstance(grid_size, numbers.Integral) or grid_size < 1000:
        raise ValueError("grid_size must be an integer of at least 1000")
    taus = np.logspace(-3.0, 2.0, 8) if trial_tau_grid is None \
        else np.asarray(trial_tau_grid, dtype=float)
    if taus.ndim != 1 or taus.size == 0 \
            or not np.all(np.isfinite(taus) & (taus > 0)):
        raise ValueError("trial_tau_grid must be nonempty, finite, positive")
    reports = [verify_bessel_signs(d), verify_ij_bounds(d, grid_size)]
    if d >= 3:
        reports.append(verify_P_nonneg([d], grid_size))

    # one solve for the three tension grids: the root find is elementwise,
    # so each mode has the bits of a solve of its own grid
    small, large = default_small_tau_grid(d), default_large_tau_grid(d)
    modes = fundamental_tones(np.concatenate([small, large, taus]), d)
    reports.append(_reduce(f"gamma-lower-bound[d={d}]",
                           _small_tau_checks(modes[:small.size], d),
                           f"{_TENSION_PTS} log-spaced tension pts up to "
                           "9/(d+5)"))
    reports.append(_reduce(f"large-tension[d={d}]",
                           _large_tau_checks(modes[small.size:-taus.size], d),
                           f"{_TENSION_PTS} log-spaced tension pts above "
                           "9/(d+5)"))

    # one profile pass per tension, rho'''' included, feeds the four
    # profile rows
    profile_rows = {}
    inner = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    outer = np.linspace(1.0 + 1e-9, 10.0, grid_size)
    for mode in modes[-taus.size:]:
        rows = _profile_checks(trial.TrialProfile(mode), inner, outer)
        for lemma, checks in rows.items():
            margin, point = min(checks.values(), key=lambda c: c[0])
            profile_rows.setdefault(lemma, []).append(
                (margin, (mode.tau,) + point))
    tau_spec = f"{taus.size} tension pts in [{taus[0]:g};{taus[-1]:g}]"
    for lemma, grid in (
            ("profile-concavity", f"{grid_size} radial pts"),
            ("numerator-monotone", f"{grid_size} inner and outer pts"),
            ("denominator-increase", f"{2 * grid_size} radial pts"),
            ("h-decrease-condition", f"{grid_size} pts on (0;1]")):
        reports.append(_reduce(f"{lemma}[d={d}]", profile_rows[lemma],
                               f"{tau_spec}; {grid}"))

    if include_global:
        reports.append(verify_P_nonneg(range(3, 31), grid_size))
        reports.append(verify_Q_positive(grid_size))
        xs = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
        reports.append(_reduce(
            "binomial-three-halves",
            [_least((1.0 - xs) ** 1.5 - (1.0 - 1.5 * xs), xs)],
            f"{grid_size} pts on (0;1)"))
    return reports
