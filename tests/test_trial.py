import math

import mpmath as mp
import numpy as np
import pytest

from freeplate import ball, trial, verify
from freeplate.specfun import ultra_i, ultra_j

from oracles import fd_gradient, fd_hessian, mp_ultra


def profile(d=2, tau=1.0):
    return trial.TrialProfile(ball.fundamental_tone(tau, d))


def piece(prof, name, r):
    # one piece of _eval_pieces ("rho", "d1", "d2", "q", "p") at the radii
    # r: the profile pass of geom and verify, a float for a scalar r
    arr = np.asarray(r, dtype=float)
    vals = trial._eval_pieces(prof, np.atleast_1d(arr))[name]
    return float(vals[0]) if arr.ndim == 0 else vals


def test_smooth_join_at_unit_radius():
    prof = profile()
    r1 = piece(prof, "rho", 1.0)
    rp1 = piece(prof, "d1", 1.0)
    eps = 1e-8
    assert piece(prof, "rho", 1.0 - eps) == pytest.approx(r1 - eps * rp1,
                                                          abs=1e-12)
    assert piece(prof, "d1", 1.0 - eps) == pytest.approx(rp1, abs=1e-12)
    m = prof.mode
    curv_left = (m.a**2 * ultra_j(1, m.d, m.a, deriv=2)
                 + m.gamma * m.b**2 * ultra_i(1, m.d, m.b, deriv=2))
    assert abs(curv_left) <= 1e-12 * abs(m.a**2 * ultra_j(1, m.d, m.a, deriv=2))
    assert piece(prof, "d2", 1.0) == 0.0


def test_pieces_match_mpmath_from_r_zero():
    # the six pieces of _eval_pieces against 50-digit sums of the series,
    # across the old series branch's threshold 1e-3; rho'' and q cancel
    # between the j and the i term, so they are formed in mpmath, q as
    # (rho - r rho')/r^2 at the digits its own cancellation takes
    radii = (0.0, 1e-200, 1e-5, 1 / 4097, 9.99e-4, 1.001e-3, 0.5)
    tols = {"rho": 2e-15, "d1": 2e-15, "p": 2e-15, "d4": 2e-15,
            "d2": 5e-13, "q": 5e-13}
    for d in (2, 3, 11, 30):
        for tau in (1e-3, 1.0, 100.0):
            prof = profile(d, tau)
            m = prof.mode
            pc = trial._eval_pieces(prof, np.array(radii), deriv=4)
            for name in ("rho", "d2", "q", "d4"):
                assert pc[name][0] == 0.0, (d, tau, name)
            assert pc["p"][0] == pc["d1"][0], (d, tau)
            for i, r in enumerate(radii):
                with mp.workdps(50 + (2 * round(-math.log10(r)) if r else 0)):
                    a, b, g, t = (mp.mpf(x) for x in (m.a, m.b, m.gamma, r))

                    def part(k):
                        return (a**k * mp_ultra("j", 1, d, a * t, k, True)
                                + g * b**k * mp_ultra("i", 1, d, b * t, k, True))

                    ref = {"rho": part(0), "d1": part(1), "d2": part(2),
                           "d4": part(4)}
                    if r:
                        ref["q"] = (ref["rho"] - t * ref["d1"]) / t**2
                        ref["p"] = ref["rho"] / t
                    for name, val in ref.items():
                        if val:
                            err = abs((mp.mpf(pc[name][i]) - val) / val)
                            assert err <= tols[name], (d, tau, r, name, err)


def test_linear_extension_values():
    prof = profile()
    r1 = piece(prof, "rho", 1.0)
    rp1 = piece(prof, "d1", 1.0)
    assert piece(prof, "rho", 2.0) == pytest.approx(r1 + rp1, rel=1e-15)
    assert piece(prof, "d1", 3.7) == rp1
    assert piece(prof, "d2", 3.7) == 0.0


def test_slope_positive_inside():
    prof = profile()
    assert piece(prof, "d1", 0.5) > 0
    rs = np.linspace(1e-6, 1.0, 500)
    assert np.all(piece(prof, "d1", rs) > 0)


def test_defect_nonnegative():
    # rho - r rho' vanishes only at r = 0 and stays positive after
    for d, tau in ((2, 1.0), (3, 10.0), (7, 0.05)):
        prof = profile(d, tau)
        rs = np.linspace(1e-6, 10.0, 2000)
        defect = piece(prof, "rho", rs) - rs * piece(prof, "d1", rs)
        assert np.all(defect > 0)
        r0 = piece(prof, "rho", 0.0) - 0.0
        assert r0 == 0.0


def test_cartesian_sums_match_radial_formulas():
    # the d trial functions u_k = x_k rho(r)/r satisfy
    #   sum u_k^2               = rho^2
    #   sum |grad u_k|^2        = (d-1) rho^2/r^2 + (rho')^2
    #   sum |Hess u_k|^2        = (rho'')^2 + 3(d-1)(rho - r rho')^2/r^4
    # checked against finite differences at random points (kept away from
    # the C^2 interface at r = 1 where third derivatives jump)
    rng = np.random.default_rng(7)
    for d in (2, 3):
        prof = profile(d, 1.0)

        def u(x, k):
            r = float(np.sqrt(np.dot(x, x)))
            return x[k] * piece(prof, "rho", r) / r

        npts = 0
        while npts < 50:
            x = rng.uniform(-1.8, 1.8, size=d)
            r = float(np.sqrt(np.dot(x, x)))
            if r < 0.05 or abs(r - 1.0) < 0.01:
                continue
            npts += 1
            rho0 = piece(prof, "rho", r)
            rho1 = piece(prof, "d1", r)
            rho2 = piece(prof, "d2", r)
            defect = rho0 - r * rho1
            sq = sum(u(x, k) ** 2 for k in range(d))
            assert sq == pytest.approx(rho0**2, rel=1e-10)
            grad = sum(np.dot(g, g) for g in
                       (fd_gradient(lambda y: u(y, k), x) for k in range(d)))
            assert grad == pytest.approx((d - 1) * rho0**2 / r**2 + rho1**2,
                                         rel=1e-6)
            hess = sum(np.sum(H * H) for H in
                       (fd_hessian(lambda y: u(y, k), x) for k in range(d)))
            expected = rho2**2 + 3 * (d - 1) * defect**2 / r**4
            assert hess == pytest.approx(expected, rel=1e-6, abs=1e-9)


def test_numerator_limit_and_positivity():
    for d, tau in ((2, 1.0), (4, 0.3)):
        prof = profile(d, tau)
        slope0 = piece(prof, "d1", 0.0)
        assert trial.numerator_integrand(prof, 0.0) == pytest.approx(
            tau * d * slope0**2, rel=1e-14)
        rs = np.linspace(0.0, 10.0, 3000)
        assert np.all(trial.numerator_integrand(prof, rs) > 0)


def test_numerator_outside_has_no_curvature_term():
    prof = profile()
    m = prof.mode
    r = 1.5
    rho0 = piece(prof, "rho", r)
    rp1 = piece(prof, "d1", r)
    defect = rho0 - r * rp1
    expected = (3 * (m.d - 1) * defect**2 / r**4 + m.tau * rp1**2
                + m.tau * (m.d - 1) * rho0**2 / r**2)
    assert trial.numerator_integrand(prof, r) == pytest.approx(expected,
                                                               rel=1e-14)


def test_numerator_drops_across_boundary():
    prof = profile()
    assert (trial.numerator_integrand(prof, 0.5)
            > trial.numerator_integrand(prof, 1.5))


def profile_row(lemma, d, tau):
    rows = verify.full_suite(d, trial_tau_grid=[tau], include_global=False)
    return next(r for r in rows if r.lemma_id == f"{lemma}[d={d}]")


def test_concavity_scan_passes():
    for d, tau in ((2, 1.0), (5, 0.5)):
        rep = profile_row("profile-concavity", d, tau)
        assert rep.passed and rep.worst_margin > 0


def test_partial_monotonicity_scan_passes():
    for d, tau in ((2, 1.0), (3, 0.2), (6, 15.0)):
        rep = profile_row("numerator-monotone", d, tau)
        assert rep.passed and rep.worst_margin > 0


def test_h_decrease_quantity_positive():
    for d, tau in ((2, 1.0), (2, 1e-3), (9, 0.01)):
        prof = profile(d, tau)
        rs = np.linspace(0.0, 1.0, 4097)[1:]
        quant = (6.0 * piece(prof, "q", rs) + 3.0 * piece(prof, "d2", rs)
                 + prof.mode.tau * piece(prof, "rho", rs))
        assert np.all(quant > 0)


def test_vectorized_matches_scalar():
    prof = profile(3, 2.0)
    rs = np.array([0.0, 5e-4, 0.3, 0.999, 1.0, 2.5])
    for name in ("rho", "d1", "d2", "q", "p"):
        vec = piece(prof, name, rs)
        assert vec.tolist() == [piece(prof, name, float(r)) for r in rs]
    vec = trial.rho(prof, rs)
    assert vec.tolist() == [trial.rho(prof, float(r)) for r in rs]
    vec = trial.numerator_integrand(prof, rs)
    assert vec.tolist() == [trial.numerator_integrand(prof, float(r))
                            for r in rs]


def test_validation_errors():
    prof = profile()
    with pytest.raises(ValueError):
        trial.TrialProfile(ball.fundamental_tone(1.0, 2, radius=2.0))
    for fn in (trial.rho, trial.numerator_integrand):
        for bad in (-0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="nonnegative and finite"):
                fn(prof, bad)
            with pytest.raises(ValueError, match="nonnegative and finite"):
                fn(prof, np.array([0.5, bad, 2.0]))
