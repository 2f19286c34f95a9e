"""Radial trial profile for the quotient bound.

The profile rho equals the solved ball mode's radial part on [0, 1] and
continues linearly beyond r = 1. This module only evaluates: rho, its
derivatives and the quotient-numerator integrand N[rho]. `geom` integrates
these pieces, and `verify` turns them into the profile lemma rows.

On [0, 1), r = 0 included, every value comes from one Bessel path: one j
table at a r and one i table at b r. rho/r and (rho - r rho')/r^2 take
their power of r off the tables' terms exactly, with no division by r.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ball import BallMode
from .specfun import _ultra_table


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


def rho(profile, r):
    """The trial profile at the radii r (float or array_like, >= 0 and
    finite), as a float or an ndarray; it is linear beyond r = 1."""
    return _evaluate(profile, r, lambda m, pc: pc["rho"])


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
