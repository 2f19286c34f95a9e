"""Radial trial profile for the quotient bound.

The profile rho equals the solved ball mode's radial part on [0, 1] and
continues linearly beyond r = 1. This module evaluates rho, its
derivatives, the quotient-numerator integrand N[rho], and the pointwise
sub-checks (concavity of rho, partial monotonicity of N) that the
isoperimetric argument relies on; `verify` reduces them to lemma rows.

On [0, 1), r = 0 included, every value comes from one Bessel path: one j
table at a r and one i table at b r. rho/r and (rho - r rho')/r^2 take
their power of r off the tables' terms exactly, with no division by r.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ball import BallMode
from .specfun import _ultra_table

ENDPOINT_TOL = 1e-10
_EQ_SLACK = 1e-12
# the names of _profile_checks' sub-checks of the concavity row
_CONCAVITY = ("concave", "flat-at-0", "flat-at-1", "fourth-positive")


@dataclass(frozen=True)
class TrialProfile:
    """Radial trial function built from a unit-ball mode: one Bessel path
    on [0, 1), r = 0 included and with no division by r, linear beyond.

    Parameters
    ----------
    mode : BallMode
        Solved fundamental mode of the unit ball (radius must be 1).
    """

    mode: BallMode

    def __post_init__(self):
        if self.mode.radius != 1.0:
            raise ValueError("trial profile requires a unit-ball mode (radius 1)")


def _bessel_pieces(m, r, deriv):
    # the pieces of _eval_pieces at r in [0, 1] from one j and one i table;
    # j_1 - z j_1' = z j_2 and i_1 - z i_1' = -z i_2 make the defect
    # (rho - r rho')/r^2 cancellation-free, and the entries over z (over=1)
    # give it and rho/r with no division by r
    J = _ultra_table("j", 1, m.d, m.a * r, deriv)
    I = _ultra_table("i", 1, m.d, m.b * r, deriv)
    out = {"rho": J(1, 0) + m.gamma * I(1, 0),
           "d1": m.a * J(1, 1) + m.gamma * m.b * I(1, 1),
           "d2": m.a**2 * J(1, 2) + m.gamma * m.b**2 * I(1, 2),
           "q": m.a**2 * J(2, 0, 1) - m.gamma * m.b**2 * I(2, 0, 1),
           "p": m.a * J(1, 0, 1) + m.gamma * m.b * I(1, 0, 1)}
    if deriv == 4:
        out["d4"] = m.a**4 * J(1, 4) + m.gamma * m.b**4 * I(1, 4)
    return out


@lru_cache(maxsize=32)
def _edge_values(profile):
    # rho(1), rho'(1), rho''(1-) and rho''''(1-) of the mode, from the
    # Bessel path at r = 1; the linear extension is rho(r) = c0 + slope * r
    # with c0 = rho(1) - rho'(1)
    pc = _bessel_pieces(profile.mode, 1.0, 4)
    return pc["rho"], pc["d1"], pc["d2"], pc["d4"]


def _eval_pieces(profile, r, deriv=2):
    """rho, rho', rho'', q = (rho - r rho')/r^2 and p = rho/r at the radii
    r, a 1-d array; deriv=4 adds rho'''' as "d4" from the same tables.

    r in [0, 1) takes the one Bessel path, where q and p carry no division
    by r (q = 0 and p = rho'(0) at r = 0); r >= 1 the linear extension.
    """
    r1, rp1 = _edge_values(profile)[:2]
    c0 = r1 - rp1
    names = ("rho", "d1", "d2", "q", "p") + (("d4",) if deriv == 4 else ())
    out = {name: np.empty_like(r) for name in names}
    inner, far = r < 1.0, r >= 1.0
    if np.any(inner):
        for name, vals in _bessel_pieces(profile.mode, r[inner], deriv).items():
            out[name][inner] = vals
    t = r[far]
    out["rho"][far] = c0 + rp1 * t
    out["d1"][far] = rp1
    out["d2"][far] = 0.0
    out["q"][far] = c0 / (t * t)
    out["p"][far] = c0 / t + rp1
    if deriv == 4:
        out["d4"][far] = 0.0
    return out


def _evaluate(profile, r, pick):
    # the public evaluators' common steps: validate r, one profile pass,
    # pick(mode, pieces), and a float back for a scalar r
    arr = np.asarray(r, dtype=float)
    if not (np.all(np.isfinite(arr)) and np.all(arr >= 0.0)):
        raise ValueError("r must be nonnegative and finite")
    vals = pick(profile.mode, _eval_pieces(profile, np.atleast_1d(arr)))
    return float(vals[0]) if arr.ndim == 0 else vals


def rho(profile, r, deriv=0):
    """Evaluate the trial profile or one of its first two derivatives.

    Parameters
    ----------
    profile : TrialProfile
    r : float or array_like
        Radii, >= 0 and finite.
    deriv : int, optional
        Derivative order, 0, 1 or 2.

    Returns
    -------
    float or ndarray
        rho^(deriv)(r); beyond r = 1 the profile is linear, so the second
        derivative is 0 there.
    """
    if deriv not in (0, 1, 2):
        raise ValueError("deriv must be 0, 1 or 2")
    name = ("rho", "d1", "d2")[deriv]
    return _evaluate(profile, r, lambda m, pc: pc[name])


def numerator_integrand(profile, r):
    """Radial integrand N[rho] of the quotient-bound numerator.

    N = (rho'')^2 + 3(d-1)(rho - r rho')^2 / r^4 + tau (rho')^2
        + tau (d-1) rho^2 / r^2,
    with the analytic limit tau * d * rho'(0)^2 at r = 0.

    Parameters
    ----------
    profile : TrialProfile
    r : float or array_like
        Radii, >= 0 and finite.

    Returns
    -------
    float or ndarray
    """
    return _evaluate(profile, r, _numerator)


def _numerator(m, pc):
    return (pc["d2"] ** 2 + 3.0 * (m.d - 1) * pc["q"] ** 2
            + m.tau * pc["d1"] ** 2 + m.tau * (m.d - 1) * pc["p"] ** 2)


def h_decrease_quantity(profile, r):
    """Quantity (6/r^2)(rho - r rho') + 3 rho'' + tau rho.

    Its positivity on (0, 1] makes h(r) = 3(rho - r rho')^2/r^4
    + tau rho^2/r^2 decreasing, the step that needs the gamma chain.
    """
    return _evaluate(profile, r, _h_quantity)


def _h_quantity(m, pc):
    return 6.0 * pc["q"] + 3.0 * pc["d2"] + m.tau * pc["rho"]


def _profile_checks(profile, inner, outer):
    """Named sub-checks, each (margin, point), from one evaluation of the
    profile, rho'''' included, on the inner grid in (0, 1), the outer grid
    in [1, inf), r = 1 and r = 0. First the four of concavity, named in
    _CONCAVITY: -rho'' inside; rho'' = 0 at both ends, as equalities at
    ENDPOINT_TOL; and rho'''' > 0 on the inner grid and r = 1, so that
    rho'' can vanish only at the ends. Then those of the partial
    monotonicity of N[rho] (N inside above N outside, and its three
    ingredients), among them "denominator-rise" (rho^2 increasing over both
    grids) and "h-quantity" (h_decrease_quantity on the inner grid and
    r = 1)."""
    m = profile.mode
    ni = inner.size
    combined = np.concatenate([inner, outer])
    nc = combined.size
    pc = _eval_pieces(profile, np.append(combined, [1.0, 0.0]), deriv=4)
    closed = np.append(inner, 1.0)
    checks = {}

    d2 = pc["d2"]
    i = int(np.argmin(-d2[:ni]))
    checks["concave"] = (float(-d2[i]), (inner[i],))
    # rho''(0) = 0 as every term of the tables' rho'' carries a power of r,
    # rho''(1-) = 0 by the construction of gamma
    _, _, d2_end, d4_end = _edge_values(profile)
    checks["flat-at-0"] = (ENDPOINT_TOL - abs(float(d2[nc + 1])), (0.0,))
    checks["flat-at-1"] = (ENDPOINT_TOL - abs(d2_end), (1.0,))
    d4 = np.append(pc["d4"][:ni], d4_end)
    i = int(np.argmin(d4))
    checks["fourth-positive"] = (float(d4[i]), (closed[i],))

    n = _numerator(m, pc)
    n_in, n_out = n[:ni], n[ni:nc]
    i, j = int(np.argmin(n_in)), int(np.argmax(n_out))
    checks["numerator-gap"] = (float(n_in[i] - n_out[j]), (inner[i], outer[j]))

    i = int(np.argmin(d2[:ni] ** 2))
    checks["curvature-inside"] = (float(d2[i] ** 2), (inner[i],))
    d2_out_max = float(np.max(d2[ni:nc] ** 2))
    checks["curvature-outside"] = (_EQ_SLACK - d2_out_max, (outer[0],))

    grad = m.tau * pc["d1"][:nc] ** 2
    drops = grad[:-1] - grad[1:]
    i = int(np.argmin(drops))
    checks["gradient-drop"] = (
        float(drops[i]) + _EQ_SLACK * float(np.max(grad)), (combined[i],))

    h = 3.0 * pc["q"][:nc] ** 2 + m.tau * pc["p"][:nc] ** 2
    drops = h[:-1] - h[1:]
    i = int(np.argmin(drops))
    checks["h-drop"] = (float(drops[i]), (combined[i],))

    den = pc["rho"][:nc] ** 2
    rises = den[1:] - den[:-1]
    i = int(np.argmin(rises))
    checks["denominator-rise"] = (float(rises[i]), (combined[i],))
    checks["denominator-gap"] = (float(np.min(den[ni:]) - np.max(den[:ni])),
                                 (inner[-1], outer[0]))

    quant = _h_quantity(m, pc)
    quant = np.append(quant[:ni], quant[nc])
    i = int(np.argmin(quant))
    checks["h-quantity"] = (float(quant[i]), (closed[i],))
    return checks
