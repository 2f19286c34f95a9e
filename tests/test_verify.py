import hashlib
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from freeplate import ball, geom, specfun, trial, verify
from freeplate.ball import fundamental_tone, fundamental_tones
from freeplate.report import CSV_HEADER, VerificationReport, reports_to_csv
from freeplate.specfun import first_zero_j1prime

from oracles import mp_quartic_min
from test_trial import piece


def product_form(x, d):
    # pre-division product form of the small-tension polynomial identity
    return ((2 * d - 3 * x) * (d - x) * (6 * (d + 4) - 5 * x) * (3 + x)
            * (d + 2)
            - 2 * d * (6 * d * (d + 4) - 24 * x)
            * (3 * (d + 2) - x * (d + 5)))


def test_quartic_identity_in_exact_integers():
    for d in range(2, 31):
        for x in range(0, 8):
            assert product_form(x, d) == x * verify.poly_P(x, d)


def test_poly_P_integer_evaluation_is_exact():
    # P(., 3) = 1188 - 1737 x + 780 x^2 - 75 x^3
    for x in range(0, 5):
        assert verify.poly_P(x, 3) == 1188 - 1737 * x + 780 * x**2 - 75 * x**3
    assert isinstance(verify.poly_P(2, 3), int)


def test_lower_bound_termwise_assembly():
    # negative-coefficient terms evaluated at x = 3, positive ones at
    # x = 0, the +432x contribution dropped at its minimum x = 0
    for d in range(2, 41):
        assembled = (24 * d**4 + 60 * d**3 - 120 * d**2 - 432 * d
                     + 3 * (-40 * d**3 - 119 * d**2 - 6 * d)
                     + 27 * (-15 * d - 30))
        assert verify.p_lower_bound(d) == assembled


def test_lower_bound_sits_below_P_on_the_interval():
    xs = np.linspace(0.0, 3.0, 2001)
    for d in (3, 5, 7, 12, 30):
        assert np.all(verify.poly_P(xs, float(d)) > verify.p_lower_bound(d))


def test_lower_bound_prime_is_the_derivative():
    # for a quartic g, g(d+1) - g(d-1) = 2 g'(d) + g'''(d)/3 exactly
    for d in range(2, 41):
        assert (verify.p_lower_bound(d + 1) - verify.p_lower_bound(d - 1)
                == 2 * verify.p_lower_bound_prime(d) + 192 * d - 120)


def test_lower_bound_closes_high_dimensions():
    # the bound is useless below d = 7 but positive and increasing beyond
    assert verify.p_lower_bound(6) < 0
    assert all(verify.p_lower_bound(d) > 0 for d in range(7, 101))
    assert all(verify.p_lower_bound_prime(d) > 0 for d in range(5, 101))


def test_spot_values():
    sv = verify.spot_values()
    assert sv["g-at-7"] == 6876
    assert sv["g-prime-at-5"] == 1875
    c = sv["P3-critical-point"]
    assert c == pytest.approx(min(verify.poly_P_critical_points(3)),
                              rel=1e-15)
    assert sv["P3-critical-value"] == pytest.approx(
        1188 - 1737 * c + 780 * c**2 - 75 * c**3, rel=1e-12)
    assert sv["Q-critical-value"] == pytest.approx(
        sv["Q-critical-point"] * sv["Q-over-x-minimum"], rel=1e-12)
    assert all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in sv.values())


def test_P3_critical_point_by_hand():
    # roots of -1737 + 1560 x - 225 x^2
    c = (1560.0 - math.sqrt(1560.0**2 - 4.0 * 225.0 * 1737.0)) / 450.0
    assert min(verify.poly_P_critical_points(3)) == pytest.approx(c,
                                                                  rel=1e-14)


def test_P_nonneg_reports():
    rep = verify.verify_P_nonneg([3])
    assert rep.passed and rep.lemma_id == "P-nonneg[d=3]"
    c = (1560.0 - math.sqrt(1560.0**2 - 4.0 * 225.0 * 1737.0)) / 450.0
    assert rep.worst_margin == pytest.approx(
        1188 - 1737 * c + 780 * c**2 - 75 * c**3, rel=1e-12)
    rep = verify.verify_P_nonneg(range(3, 31))
    assert rep.passed and rep.lemma_id == "P-nonneg[d=3..30]"
    assert rep.worst_point[1] == 3.0
    for bad in ([], [2], [101]):
        with pytest.raises(ValueError):
            verify.verify_P_nonneg(bad)


def test_Q_matches_independent_oracle():
    c_ref, g_ref = mp_quartic_min()
    crit = [x for x in verify.poly_Q_critical_points()
            if 0.0 < x < 12.0 / 7.0]
    assert len(crit) == 1
    assert crit[0] == pytest.approx(c_ref, rel=1e-12)
    assert verify.poly_Q(crit[0]) / crit[0] == pytest.approx(g_ref,
                                                             rel=1e-12)


def coupling_L(x, mu):
    # Q(x) >= 0 on (0, 12/7] is the statement L(x) >= gamma*(sqrt(x), 2)
    return ((1.0 - 1.5 * x / mu) * (mu - x) * (36.0 - 5.0 * x)
            / (36.0 * mu + (6.0 * mu - 36.0) * x))


def test_Q_is_the_cleared_gap_between_L_and_gamma_star():
    mu = first_zero_j1prime(2) ** 2
    xs = np.linspace(1e-3, 12.0 / 7.0, 101)
    cleared = ((coupling_L(xs, mu) - verify.gamma_star(np.sqrt(xs), 2))
               * (36.0 * mu + (6.0 * mu - 36.0) * xs) * (12.0 + 4.0 * xs))
    assert np.allclose(cleared, verify.poly_Q(xs), rtol=1e-12, atol=1e-9)


def test_small_tension_gamma_dominates_L():
    # the disk's small-tension modes keep a^2 inside (0, 12/7], where Q's
    # positivity gives L >= gamma*; the solved gamma sits above L itself
    mu = first_zero_j1prime(2) ** 2
    for tau in verify.default_small_tau_grid(2):
        m = fundamental_tone(float(tau), 2)
        a2 = m.a ** 2
        assert 0.0 < a2 <= 12.0 / 7.0
        assert m.gamma - coupling_L(a2, mu) > 0.0


def test_Q_product_and_expansion_agree():
    xs = np.linspace(1e-3, 12.0 / 7.0, 101)
    expanded = xs * npoly.polyval(xs, verify._q_over_x_coeffs())
    assert np.allclose(expanded, verify.poly_Q(xs), rtol=1e-12, atol=1e-9)


def test_Q_positive_report():
    rep = verify.verify_Q_positive()
    _, g_ref = mp_quartic_min()
    assert rep.passed
    assert rep.worst_margin == pytest.approx(g_ref, rel=1e-10)
    assert 0.0 < rep.worst_point[0] <= 12.0 / 7.0 + 1e-15


def test_ij_bound_reports():
    for d in (2, 6):
        rep = verify.verify_ij_bounds(d)
        assert rep.passed and rep.lemma_id == f"ij-bounds[d={d}]"
        assert rep.worst_point[0] in (1.0, 2.0)
    with pytest.raises(ValueError):
        verify.verify_ij_bounds(1)


def test_bessel_sign_reports():
    for d in (2, 4):
        rep = verify.verify_bessel_signs(d)
        assert rep.passed and rep.worst_margin > 0.0
        item, l, z = rep.worst_point
        assert item in (1.0, 2.0, 3.0, 4.0, 5.0)
        assert l in (1.0, 2.0, 3.0, 4.0, 5.0) and z > 0.0
    with pytest.raises(ValueError):
        verify.verify_bessel_signs(1)


def test_gamma_star_closed_form_in_2d():
    for a in (0.3, 0.9, 1.3):
        assert verify.gamma_star(a, 2) == pytest.approx(
            (12.0 - 7.0 * a * a) / (12.0 + 4.0 * a * a), rel=1e-14)


def test_gamma_rows_report():
    # full_suite's two rows over the solved modes' coupling constants
    for d in (2, 3):
        rows = {r.lemma_id: r for r in verify.full_suite(
            d, trial_tau_grid=[1.0], include_global=False, grid_size=1024)}
        for lemma in (f"gamma-lower-bound[d={d}]", f"large-tension[d={d}]"):
            rep = rows[lemma]
            assert rep.passed and rep.lemma_id == lemma
            assert rep.worst_margin > 0.0


def test_profile_rows_match_the_public_scans():
    # the rows full_suite takes from its one profile pass per tension equal
    # the worst of the profile's own evaluations on each row's grid
    n = 1024
    taus = np.logspace(-3.0, 2.0, 8)
    inner = np.linspace(0.0, 1.0, n + 2)[1:-1]
    outer = np.linspace(1.0 + 1e-9, 10.0, n)
    combined = np.concatenate([inner, outer])
    closed = np.append(inner, 1.0)
    for d in (2, 5):
        rows = {r.lemma_id: r for r in verify.full_suite(
            d, include_global=False, grid_size=n)}
        entries = {"profile-concavity": [], "numerator-monotone": [],
                   "denominator-increase": [], "h-decrease-condition": []}
        for tau, mode in zip(taus, fundamental_tones(taus, d)):
            prof = trial.TrialProfile(mode)
            neg = -piece(prof, "d2", inner)
            i = int(np.argmin(neg))
            checks = [(neg[i], (inner[i],))]
            # rho'' = 0 at both ends, and rho'''' > 0 on the inner grid and
            # r = 1, from the public kernels
            a, b, g = mode.a, mode.b, mode.gamma
            end1 = (a**2 * specfun.ultra_j(1, d, a, deriv=2)
                    + g * b**2 * specfun.ultra_i(1, d, b, deriv=2))
            checks += [(verify.ENDPOINT_TOL - abs(piece(prof, "d2", 0.0)),
                        (0.0,)), (verify.ENDPOINT_TOL - abs(end1), (1.0,))]
            fourth = (a**4 * specfun.ultra_j(1, d, a * closed, deriv=4)
                      + g * b**4 * specfun.ultra_i(1, d, b * closed, deriv=4))
            i = int(np.argmin(fourth))
            checks.append((fourth[i], (closed[i],)))
            monotone = verify._profile_checks(
                prof, inner, outer)["numerator-monotone"].values()
            for name, found in (("profile-concavity", checks),
                                ("numerator-monotone", monotone)):
                margin, point = min(found, key=lambda c: c[0])
                entries[name].append((margin, (tau,) + point))
            den = piece(prof, "rho", combined) ** 2
            rises = den[1:] - den[:-1]
            i = int(np.argmin(rises))
            entries["denominator-increase"].append((rises[i],
                                                    (tau, combined[i])))
            quant = (6.0 * piece(prof, "q", closed)
                     + 3.0 * piece(prof, "d2", closed)
                     + mode.tau * piece(prof, "rho", closed))
            i = int(np.argmin(quant))
            entries["h-decrease-condition"].append((quant[i],
                                                    (tau, closed[i])))
        for name, found in entries.items():
            margin, point = min(found, key=lambda c: c[0])
            row = rows[f"{name}[d={d}]"]
            assert row.worst_margin == margin, (d, name)
            assert row.worst_point == tuple(float(c) for c in point), (d, name)


@pytest.mark.parametrize("kwargs", [
    {"grid_size": 1.5}, {"grid_size": 3}, {"grid_size": 999},
    {"grid_size": "4096"}, {"trial_tau_grid": []},
    {"trial_tau_grid": [1.0, 0.0]}, {"trial_tau_grid": [-1.0]},
    {"trial_tau_grid": [math.nan]}, {"trial_tau_grid": [math.inf]},
    {"trial_tau_grid": [[1.0]]}])
def test_full_suite_rejects_bad_inputs(kwargs):
    with pytest.raises(ValueError):
        verify.full_suite(2, **kwargs)


def _count_kernel_work(monkeypatch):
    # the list that collects (points times kernel orders, deriv) of every
    # sweep: one per table over an array, one per point of a small one
    work = []
    sweep = specfun._sweep

    def counted(kind, d, lo, hi, z, lib):
        work.append((np.size(z) * (hi - lo + 1), hi - lo))
        return sweep(kind, d, lo, hi, z, lib)

    monkeypatch.setattr(specfun, "_sweep", counted)
    return work


def test_full_suite_kernel_work_is_bounded(monkeypatch):
    # points times kernel orders over every sweep of one full_suite(5);
    # one kernel table per argument array and one profile pass per tension
    # keep it far below the 1.21M of evaluating each entry on its own
    work = _count_kernel_work(monkeypatch)
    assert all(r.passed for r in verify.full_suite(5))
    assert 0 < sum(w for w, _ in work) <= 450_000


def test_profile_pass_kernel_budget(monkeypatch):
    # points times kernel orders of full_suite without the global rows,
    # from a cold edge-value cache: the one profile pass per tension gives
    # rho'''' too, at r = 0 and the radii below 1e-3 as well, and the edge
    # values come from one table pair. A quotient whose profile's edge
    # values are cached builds its tables to the second derivative only, so
    # geom's tables build no fourth derivatives; a centered quotient's
    # tables share its centering's pass, so the L-shape takes what the
    # ellipse does (8160 when each made its own). The suite's one tone
    # batch builds its secular tables to the third derivative, four orders
    # a point, in about half the evaluations of the bracketing solve
    # before it (409_040, 408_782 and 408_656 then)
    suite_budget = {2: 407_048, 5: 407_024, 10: 406_920}
    c = 0.05
    shapes = {"ellipse": geom.ellipsoid(2, (2.0, 1.0)),
              "l-shape": geom.implicit_domain(
                  2, f"(abs(x) <= 1) & (abs(y) <= 1) & ~((x > {c!r}) & "
                  f"(y > {c!r}))", (-1, 1, -1, 1), volume=4.0 - (1.0 - c) ** 2)}
    quotient_budget = {"ellipse": 4080, "l-shape": 4080}
    for d in suite_budget:
        first_zero_j1prime(d)           # cached outside the count
    mode = fundamental_tone(1.0, 2)
    work = _count_kernel_work(monkeypatch)
    for d, elements in suite_budget.items():
        trial._edge_values.cache_clear()
        work.clear()
        verify.full_suite(d, include_global=False)
        assert sum(w for w, _ in work) == elements, d
    for name, elements in quotient_budget.items():
        dom = geom.normalize_volume(shapes[name])
        trial._edge_values(trial.TrialProfile(mode))
        work.clear()
        geom._quotient(dom, mode, None)
        assert sum(w for w, _ in work) == elements, name
        assert max(deriv for _, deriv in work) == 2, name


# sha256 of reports_to_csv(full_suite(d, include_global=False)) for the
# dimensions past the verify fixture's 2..10, recorded with the kernels'
# backward recurrence (its orders up to s + 5 swept from a base above
# s + 5), the tone's safeguarded Newton solve and the trial profile's one
# Bessel path from r = 0
_SUITE_SHA256 = {
    11: "8cefabc4b0745704815c3aa8ced91df1"
        "a0baa928aa32421b656f741b63fb5bcc",
    12: "656bd59f7b7ba4a5f370e4619d83a8c1"
        "d5e7a125aaac3a324762ee1f04a9f801",
    13: "b8195ca257112f89d863ccd683c02113"
        "67d6ac345256358589b9ecfe15865c68",
    14: "322f178d076e92d755b9726a4d1c40e6"
        "8bcdb12a8d22a7309c0ca4cba1d8870a",
    15: "733fb08e1ce82c603697f9a3793d40d5"
        "6d258e12ec07fc87922fa4d9eb83513f",
    16: "f4c9daa3e45bfcba770fc65051780d8e"
        "ce6741ba6109beff0f8470487692bb34",
    17: "9b7967258d2f4ba8bcdbdf591a806827"
        "6e71c67f66a78d47142679b12c9aa8ce",
    18: "5982d978bc887356d1c527ee3b048124"
        "bba1b78d2097267b61b5eb392188d63c",
    19: "db24e2353d83488f657f94b8ec91f9f7"
        "1097100900258aa5b44c399cd1620f5f",
    20: "1f8f2d196282ebda2951d28983f13aa7"
        "d76daa8ab50c12c0cdff32ea3de0cbec",
    21: "80fbde3d226393e2f3080f5a6de72643"
        "8805ac2f6f1c2d55ba10633706fb9668",
    22: "8ab822d8f40cd37c94f4412c7096ee36"
        "13c4ae324e037eb0de5b70652aa285c4",
    23: "7f9c63aeb0f2fcfceece333af093ceb4"
        "2fa855935168e3f79e30ca82504d7e29",
    24: "0b7f94440d1c2e4e8e32d534c39eff73"
        "7f88451fa506990fc30d4dcd25c626ba",
    25: "50825878333c06b2d6b3ef8eca95a574"
        "287186566fce9472ac85ce5d4e84f03e",
    26: "3788e9bfa5aa41d613d13ea01e2beab0"
        "8bd333c1a91843aeb0b21608ef174ab4",
    27: "358d708390a51ab0b6ba48a252782fe4"
        "24bd07c2856264d50013fa162e82a0c0",
    28: "574045768221df4cb01181fb417e1e3f"
        "d39c0ecefeb459f5771136976c0aa0bf",
    29: "1213d75acd6c8006a4f7edceaf43fc86"
        "1fd9a6f3127a8b77df11dced2447a341",
    30: "f16cc8eb5dc1122d82f5f3e15bc99cfd"
        "2164a7b7660d2a8022d2a4975a86643d",
}


def test_suite_rows_past_the_fixture_are_pinned():
    for d, digest in _SUITE_SHA256.items():
        text = reports_to_csv(verify.full_suite(d, include_global=False))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, d


def test_full_suite_solves_once_per_dimension(monkeypatch):
    # the two tension grids and the profile tensions share one solve; the
    # pinned rows above and the CLI fixture show that no row moved
    calls = []

    def spy(taus, d, *args):
        calls.append((np.size(taus), d))
        return fundamental_tones(taus, d, *args)

    monkeypatch.setattr(verify, "fundamental_tones", spy)
    for d in (2, 5):
        verify.full_suite(d, include_global=False)
    assert calls == [(2 * verify._TENSION_PTS + 8, 2),
                     (2 * verify._TENSION_PTS + 8, 5)]


def test_full_suite_secular_evaluation_budget(monkeypatch):
    # the array secular evaluations of each dimension's one batch solve:
    # every call evaluates the tensions still running, all 136 of them
    # first, at their brackets' midpoints (the bracketing solve before the
    # Newton steps made 7 calls and 968 points at d = 2, 6 and 903 at d = 9)
    sizes = []
    parts = ball._secular_parts

    def counted(a, tau, d):
        sizes.append(np.size(a))
        return parts(a, tau, d)

    monkeypatch.setattr(ball, "_secular_parts", counted)
    budget = {2: [136, 136, 135, 70], 9: [136, 136, 135, 56]}
    for d, want in budget.items():
        first_zero_j1prime(d)           # cached outside the count
        sizes.clear()
        verify.full_suite(d, include_global=False)
        assert sizes == want, d


def test_full_suite_rows_and_determinism():
    taus = np.logspace(-2.0, 1.0, 3)
    rows = verify.full_suite(3, trial_tau_grid=taus, grid_size=1024)
    expected = ["bessel-signs[d=3]", "ij-bounds[d=3]", "P-nonneg[d=3]",
                "gamma-lower-bound[d=3]", "large-tension[d=3]",
                "profile-concavity[d=3]", "numerator-monotone[d=3]",
                "denominator-increase[d=3]", "h-decrease-condition[d=3]",
                "P-nonneg[d=3..30]", "Q-positive", "binomial-three-halves"]
    assert [r.lemma_id for r in rows] == expected
    assert all(r.passed for r in rows)
    again = verify.full_suite(3, trial_tau_grid=taus, grid_size=1024)
    assert [r.csv_line() for r in again] == [r.csv_line() for r in rows]
    local = verify.full_suite(3, trial_tau_grid=taus, include_global=False,
                              grid_size=1024)
    assert [r.lemma_id for r in local] == expected[:9]


def test_report_invariants():
    with pytest.raises(ValueError):
        VerificationReport("x", True, -1.0, (), "", 0.0, "one-sided")
    with pytest.raises(ValueError):
        VerificationReport("has,comma", True, 1.0, (), "", 0.0, "one-sided")
    assert VerificationReport.equality("eq", 1e-12, (0.0,), "exact",
                                       1e-10).passed
    assert not VerificationReport.equality("eq", 1.0, (0.0,), "exact",
                                           1e-10).passed


def test_reports_to_csv_round_trip():
    reps = [verify.verify_Q_positive(256), verify.verify_P_nonneg([4], 256)]
    lines = reports_to_csv(reps).strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert len(cells) == 6 and cells[1] == "true"
    assert float(cells[2]) == reps[0].worst_margin
