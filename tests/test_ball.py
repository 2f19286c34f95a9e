import math

import numpy as np
import pytest

from freeplate import ball, specfun
from freeplate.specfun import first_zero_j1prime, ultra_i, ultra_j

from oracles import (fd_boundary_V, fd_hessian_sq_norm_vec, mp_membrane_C,
                     mp_tone, mp_ultra, rayleigh_ritz_tone,
                     uniform_ball_samples)


def secular_term_scale(a, tau, d, radius):
    """Sum of absolute values of the four closed-form terms; the natural
    magnitude against which the boundary residual is measured."""
    b = math.sqrt(a * a + tau)
    g = ball.gamma_of(a, tau, d, radius)
    j1 = ultra_j(1, d, a * radius)
    i1 = ultra_i(1, d, b * radius)
    j1p = ultra_j(1, d, a * radius, deriv=1)
    i1p = ultra_i(1, d, b * radius, deriv=1)
    return (abs((tau + (d - 1) / radius**2) * (a * j1p + g * b * i1p))
            + abs((d - 1) / radius**3 * (j1 + g * i1))
            + abs(a**3 * j1p) + abs(g * b**3 * i1p))


def test_gamma_definition_rearranged():
    for d, tau, a, R in ((2, 1.0, 0.9, 1.0), (3, 0.3, 1.2, 1.0),
                         (5, 4.0, 0.4, 1.0), (2, 1.0, 1.1, 1.5)):
        g = ball.gamma_of(a, tau, d, R)
        b = math.sqrt(a * a + tau)
        t1 = a * a * ultra_j(1, d, a * R, deriv=2)
        t2 = g * b * b * ultra_i(1, d, b * R, deriv=2)
        assert abs(t1 + t2) <= 1e-13 * (abs(t1) + abs(t2))


def test_gamma_positive():
    for a in (0.5, 1.0, 1.5):
        assert ball.gamma_of(a, 1.0, 2, 1.0) > 0


def test_gamma_against_series_oracle():
    d, tau, a = 3, 1.0, 1.0
    b = math.sqrt(a * a + tau)
    expected = -a * a * mp_ultra("j", 1, d, a, 2) / (b * b * mp_ultra("i", 1, d, b, 2))
    assert ball.gamma_of(a, tau, d) == pytest.approx(expected, rel=1e-12)


def test_secular_zero_at_solved_root():
    mode = ball.fundamental_tone(1.0, 2)
    scale = secular_term_scale(mode.a, mode.tau, mode.d, mode.radius)
    assert abs(ball.secular_V(mode.a, 1.0, 2)) <= 1e-10 * scale


def test_secular_single_sign_change():
    for d in (2, 3):
        ainf = first_zero_j1prime(d)
        grid = np.linspace(0.05, ainf - 0.05, 4000)
        for tau in (0.1, 1.0, 10.0):
            vals = ball._secular_vec(grid, tau, d)
            sgn = np.sign(vals)
            flips = np.count_nonzero(sgn[:-1] * sgn[1:] < 0)
            assert flips == 1


def test_secular_closed_form_matches_fd_operator():
    # anti-derivation-error check: apply the raw boundary operator
    #   V u = tau u_r - r^-2 Delta_S(u_r - u/r) - (Delta u)_r
    # by finite differences on the sphere and compare with the closed form,
    # normalized by the operator's natural term-sum magnitude
    rng = np.random.default_rng(99)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        tau = float(rng.uniform(0.2, 5.0))
        R = float(rng.choice([1.0, 1.37]))
        a = float(rng.uniform(0.15, 0.95) * first_zero_j1prime(d) / R)
        b = math.sqrt(a * a + tau)
        g = ball.gamma_of(a, tau, d, R)
        fd = fd_boundary_V(lambda r: ultra_j(1, d, a * r) + g * ultra_i(1, d, b * r),
                           R, d, tau)
        cf = ball.secular_V(a, tau, d, R)
        assert abs(fd - cf) <= 1e-6 * secular_term_scale(a, tau, d, R)


def test_tone_within_linear_bounds():
    for d in (2, 3, 4):
        mu = first_zero_j1prime(d) ** 2
        for tau in (0.1, 1.0, 10.0, 100.0):
            omega = ball.fundamental_tone(tau, d).omega
            assert tau * mu < omega < tau * (d + 2)


def test_tone_against_rayleigh_ritz_oracle():
    mode = ball.fundamental_tone(1.0, 2)
    assert mode.omega == pytest.approx(rayleigh_ritz_tone(2, 1.0), rel=1e-6)


def test_tone_scaling_law():
    for d in (2, 3):
        for tau in (0.5, 5.0):
            w = ball.fundamental_tone(tau, d, 1.0).omega
            for s in (0.5, 2.0):
                w_s = ball.fundamental_tone(tau / s**2, d, s).omega
                assert abs(w - s**4 * w_s) / w <= 1e-9


def test_tone_bounds_values():
    lower, upper_coord, upper_membrane = ball.tone_bounds(1.0, 2)
    assert lower == pytest.approx(3.390, abs=1e-3)
    assert upper_coord == 4.0
    assert upper_membrane == pytest.approx(ball.membrane_C(2) + lower, rel=1e-14)


def test_tone_bounds_vanish_with_tension():
    for d in (2, 3):
        lower, upper_coord, upper_membrane = ball.tone_bounds(1e-12, d)
        assert lower < 1e-10 and upper_coord < 1e-10
        assert upper_membrane == pytest.approx(ball.membrane_C(d), rel=1e-10)


def test_membrane_constant_positive_and_bounding():
    for d in (2, 3, 4):
        assert ball.membrane_C(d) > 0
    mu = first_zero_j1prime(2) ** 2
    C = ball.membrane_C(2)
    for tau in (0.1, 1.0, 10.0):
        assert ball.fundamental_tone(tau, 2).omega <= C + tau * mu


def test_membrane_constant_against_monte_carlo():
    # Cartesian check: C(B) = int |D^2 v|^2 / int v^2 for the membrane mode
    # v = j_1(ainf r) x_1/r, with the Hessian taken by finite differences in
    # Cartesian coordinates at uniform ball samples
    d = 2
    ainf = first_zero_j1prime(d)

    def v(X):
        r = np.sqrt(np.einsum("ij,ij->i", X, X))
        return ultra_j(1, d, ainf * r) * X[:, 0] / np.where(r == 0, 1.0, r)

    X = uniform_ball_samples(np.random.default_rng(42), 1_000_000, d)
    mc_ratio = fd_hessian_sq_norm_vec(v, X).mean() / (v(X) ** 2).mean()
    assert mc_ratio == pytest.approx(ball.membrane_C(d), rel=1e-3)


def test_membrane_constant_against_mpmath_quadrature():
    for d in (2, 3, 5, 10):
        assert ball.membrane_C(d) == pytest.approx(mp_membrane_C(d), rel=1e-12)


def test_root_finder_matches_scipy_find_root(monkeypatch):
    # the in-repo Chandrupatla port against scipy's, on the tone solve's own
    # brackets and secular function, d x tension from 1e-14 to 4e5
    from scipy.optimize.elementwise import find_root
    seen = []
    real = ball._bracketed_root

    def spy(f, lo, hi, *args):
        out = real(f, lo, hi, *args)
        seen.append((f, lo, hi, args, out[:2]))
        return out

    monkeypatch.setattr(ball, "_bracketed_root", spy)
    taus = np.geomspace(1e-14, 4e5, 60)
    for d in (2, 3, 5, 10, 30):
        ball.fundamental_tones(taus, d)
    assert len(seen) == 5
    for f, lo, hi, args, (x, status) in seen:
        ref = find_root(f, (lo, hi), args=args,
                        tolerances={"xatol": 0.0, "xrtol": 1e-13})
        assert np.all(status == 0) and np.all(ref.status == 0)
        np.testing.assert_allclose(x, ref.x, rtol=1e-15, atol=0.0)


def test_infinite_tension_ratio():
    mu2 = first_zero_j1prime(2) ** 2
    C2 = ball.membrane_C(2)
    (r4,) = ball.infinite_tension_ratio(2, [1e4])
    assert mu2 <= r4 <= mu2 + C2 / 1e4
    (r3,) = ball.infinite_tension_ratio(2, [1e3])
    assert r3 >= mu2
    mu3 = first_zero_j1prime(3) ** 2
    (r5,) = ball.infinite_tension_ratio(3, [1e5])
    assert r5 - mu3 <= ball.membrane_C(3) / 1e5 + 1e-8


def test_tone_monotone_and_concave_in_tension():
    taus = np.logspace(-2, 4, 25)
    for d in (2, 3):
        omegas = np.array([ball.fundamental_tone(t, d).omega for t in taus])
        assert np.all(np.diff(omegas) > 0)
        slopes = np.diff(omegas) / np.diff(taus)
        assert np.all(np.diff(slopes) < 1e-10 * slopes[:-1])


def test_wavenumber_regime_bounds():
    for d in range(2, 8):
        tau_small = np.logspace(-3, math.log10(9 / (d + 5)), 12)
        for tau in tau_small:
            m = ball.fundamental_tone(float(tau), d)
            assert m.a**2 < 3 * (d + 2) / (d + 5)
            assert m.b**2 <= 3.0
        for tau in np.logspace(-2, 3, 12):
            m = ball.fundamental_tone(float(tau), d)
            a2 = m.a**2
            assert m.tau > a2**2 / (d + 2 - a2)
            if a2 < d:
                assert m.tau < a2**2 / (d - a2)


def test_mode_invariant_matrix():
    for d in range(2, 8):
        ainf = first_zero_j1prime(d)
        for tau in (1e-2, 1.0, 1e3):
            m = ball.fundamental_tone(tau, d)
            assert abs(m.b**2 - m.a**2 - tau) <= 1e-12 * (1 + tau)
            assert m.omega == pytest.approx(m.a**2 * m.b**2, rel=1e-14)
            assert m.gamma > 0
            assert 0 < m.a * m.radius < ainf
            m_res, m_scale, v_res, v_scale = ball._residual_scales(
                m.d, m.a * m.radius, m.b * m.radius, m.gamma,
                m.tau * m.radius**2)
            assert m_res <= 1e-9 * m_scale
            assert v_res <= 1e-9 * v_scale


def test_error_contracts():
    with pytest.raises(ValueError):
        ball.fundamental_tone(-1.0, 2)
    with pytest.raises(ValueError):
        ball.fundamental_tone(0.0, 2)
    with pytest.raises(ValueError):
        ball.fundamental_tone(float("nan"), 2)
    with pytest.raises(ValueError):
        ball.fundamental_tone(1.0, 2, radius=-2.0)
    with pytest.raises(ValueError):
        ball.gamma_of(5.0, 1.0, 2)      # beyond the first zero of j_1'
    with pytest.raises(ValueError):
        ball.gamma_of(0.5, -1.0, 2)
    with pytest.raises(ValueError):
        ball.secular_V(-0.5, 1.0, 2)


def test_tone_against_mpmath_oracle_across_tension():
    taus = np.array([1e-12, 1e-8, 1e-4, 1.0, 1e4])
    for d in (2, 5, 30):
        mu = first_zero_j1prime(d) ** 2
        for tau, m in zip(taus, ball.fundamental_tones(taus, d)):
            ref = mp_tone(tau, d)
            rtol = 1e-12 if tau >= 1e-8 else 1e-9
            assert abs(m.omega - ref) <= rtol * ref, (d, tau)
            assert max(ball.boundary_residuals(m)) <= ball.RESIDUAL_TOL
            if tau >= 1e-8:
                assert tau * mu < m.omega < tau * (d + 2), (d, tau)


def test_batched_solve_matches_one_tension_solves():
    taus = np.logspace(-6, 4, 9)
    for d, radius in ((2, 1.0), (7, 0.3)):
        batch = ball.fundamental_tones(taus, d, radius)
        for tau, m in zip(taus, batch):
            one = ball.fundamental_tone(float(tau), d, radius)
            assert (m.d, m.tau, m.radius) == (one.d, one.tau, one.radius)
            assert m.omega == pytest.approx(one.omega, rel=1e-13)
            assert m.gamma == pytest.approx(one.gamma, rel=1e-12)


def test_solver_failure_carries_its_trace(monkeypatch):
    monkeypatch.setattr(ball, "_secular_vec",
                        lambda a, tau, d: np.ones_like(a))
    with pytest.raises(RuntimeError) as info:
        ball.fundamental_tone(0.5, 3)
    msg = str(info.value)
    for part in ("tau=0.5", "d=3", "a*radius in [", "V=1 and V=1",
                 "no sign change"):
        assert part in msg


def test_solver_budget_failure_carries_its_trace(monkeypatch):
    first_zero_j1prime(3)       # cached before the budget shrinks
    monkeypatch.setattr(specfun, "_ROOT_MAX_ITER", 1)
    with pytest.raises(RuntimeError, match="iteration budget") as info:
        ball.fundamental_tone(0.5, 3)
    assert "tau=0.5" in str(info.value) and "a*radius in [" in str(info.value)


def test_tone_solve_call_budget(monkeypatch):
    # secular evaluations and kernel tables of one solve, with its gamma and
    # residual check: both bracket ends share the first evaluation, and
    # gamma comes from the residual check's tables, so a solve builds one
    # J and one I table per secular evaluation and one pair more, each to
    # the second derivative (orders 1..3); they hold the two bracket ends,
    # then one point each
    counts = dict.fromkeys(("secular", "j", "i", "work"), 0)
    parts, table = ball._secular_parts, ball._ultra_table

    def counted_parts(*args):
        counts["secular"] += 1
        return parts(*args)

    def counted_table(kind, l, d, z, deriv):
        counts[kind] += 1
        counts["work"] += np.size(z) * (deriv + 1)
        return table(kind, l, d, z, deriv)

    monkeypatch.setattr(ball, "_secular_parts", counted_parts)
    monkeypatch.setattr(ball, "_ultra_table", counted_table)
    # (d, tau): a and b below 1/2 (the first two), then a past 1/2 and far
    # past it
    budget = {(2, 1e-6): 5, (3, 1e-2): 5, (3, 2e-2): 6, (5, 1.0): 6,
              (30, 1e5): 5}
    for (d, tau), secular in budget.items():
        first_zero_j1prime(d)           # cached outside the count
        counts.update(dict.fromkeys(counts, 0))
        ball.fundamental_tone(tau, d)
        assert (counts["secular"], counts["j"], counts["i"]) == (
            secular, secular + 1, secular + 1), (d, tau)
        assert counts["work"] == 2 * 3 * (secular + 2), (d, tau)


def test_one_tension_solve_runs_on_floats(monkeypatch):
    # after the joint first evaluation, at both bracket ends as arrays,
    # every table of a one-tension solve is built at a float z, so a change
    # that routes the solve back through arrays fails here
    seen = []
    table = ball._ultra_table

    def spy(kind, l, d, z, deriv):
        seen.append(z)
        return table(kind, l, d, z, deriv)

    monkeypatch.setattr(ball, "_ultra_table", spy)
    for d, tau, radius in ((2, 1e-6, 1.0), (5, 1.0, 0.3), (30, 1e3, 10.0)):
        seen.clear()
        ball.fundamental_tone(tau, d, radius)
        assert [np.shape(z) for z in seen[:2]] == [(2,), (2,)], (d, tau)
        assert len(seen) > 2, (d, tau)
        assert all(type(z) is float for z in seen[2:]), (d, tau)


def test_overflow_propagates_from_the_batch():
    # i_l leaves double range past z = 690; the whole batch raises
    with pytest.raises(OverflowError):
        ball.fundamental_tones([1.0, 1e6], 2)
