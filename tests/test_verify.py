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
            neg = -trial.rho(prof, inner, deriv=2)
            i = int(np.argmin(neg))
            checks = [(neg[i], (inner[i],))]
            # rho'' = 0 at both ends, and rho'''' > 0 on the inner grid and
            # r = 1, from the public kernels
            a, b, g = mode.a, mode.b, mode.gamma
            end1 = (a**2 * specfun.ultra_j(1, d, a, deriv=2)
                    + g * b**2 * specfun.ultra_i(1, d, b, deriv=2))
            checks += [(trial.ENDPOINT_TOL
                        - abs(trial.rho(prof, 0.0, deriv=2)), (0.0,)),
                       (trial.ENDPOINT_TOL - abs(end1), (1.0,))]
            fourth = (a**4 * specfun.ultra_j(1, d, a * closed, deriv=4)
                      + g * b**4 * specfun.ultra_i(1, d, b * closed, deriv=4))
            i = int(np.argmin(fourth))
            checks.append((fourth[i], (closed[i],)))
            sub = trial._profile_checks(prof, inner, outer)
            monotone = [c for name, c in sub.items()
                        if name not in trial._CONCAVITY]
            for name, found in (("profile-concavity", checks),
                                ("numerator-monotone", monotone)):
                margin, point = min(found, key=lambda c: c[0])
                entries[name].append((margin, (tau,) + point))
            den = trial.rho(prof, combined) ** 2
            rises = den[1:] - den[:-1]
            i = int(np.argmin(rises))
            entries["denominator-increase"].append((rises[i],
                                                    (tau, combined[i])))
            quant = trial.h_decrease_quantity(prof, closed)
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
# backward recurrence, the tone's safeguarded Newton solve and the trial
# profile's one Bessel path from r = 0
_SUITE_SHA256 = {
    11: "43cbecdba89453ef28a73f5843cfefc7"
        "9ff4b08b2c6d624d3db287b0b7166c04",
    12: "1856ccc040f4ed56a658a77a1ca009cd"
        "e10d02faec512c72c2a936cc5bb9829b",
    13: "83062da4614aefcb07af6fc3c4dc98b1"
        "a2e945d511c5887bc36c75c15a0ff1e0",
    14: "07633eefe8d76496b5f75f335c2c1ef3"
        "3efcd0003782cc4c116da84d7c009492",
    15: "133f21f2c33771a7847ba74b24071d92"
        "c0422b80950600e073f3f35b9e2b570f",
    16: "3fe6cec0e14253537c9c4f0de64bc506"
        "128ff74ab379435552b99e083768b3d6",
    17: "72d09860fe6bf5b93120ec7ea4086525"
        "ebe7045366f9a2cfca069ea8c49b1f62",
    18: "de554fa349c23bed6fcfad740008c433"
        "dfeaa22f9195dcbc9e7a4c0efc6e325b",
    19: "481660d74716c89a0b1c0283506edae1"
        "0b010dfc7069ac3751ef0b7b2fbbd5fe",
    20: "96e526a2d210b07f808e115c2346dd36"
        "72f90da782c66f029e3900b72e5d90d0",
    21: "985e5c0200396412349894b317b7c042"
        "01c9a9793d09153cda3c98a145b3fcb0",
    22: "8740d9555de541ee77620b9f5e573ef8"
        "9d83d2685b0ab6737c64ab55cceeb5c6",
    23: "daed83f023fddff73560de0f2425d133"
        "b444a5b8a3b636203f0c09bbd9f85cf7",
    24: "0b7bd4069bddac15b1b91e94d9392cb0"
        "212ae97a3e7db01e6337bb7b846f476e",
    25: "f27e6500fc0eb4211567f0d9bebb5e2e"
        "0e79203bc354c66afba2a87f0384f951",
    26: "9ad2c0cf919b1574bce310bdcc779f5a"
        "afaefc9ead2db6e10bb41550a2fb2c1d",
    27: "b6d720d25d8301e02077e4bb3a62a955"
        "890fa1c40ec3fe136d3207fd330a76ce",
    28: "c0a606e8acd8d3b6f68095c935291c95"
        "dd47e79a67d64d2053d515971a5cbdf1",
    29: "b40c75829588323b36d24b5b94aa56a3"
        "d7537c38f911c339323691a88ba522a1",
    30: "aed989a3d3631f631d58ea62ca07822e"
        "e478295c985462afaaa77a13c20401e1",
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
