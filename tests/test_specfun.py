import math

import mpmath as mp
import numpy as np
import pytest

from freeplate import specfun as sf

from oracles import _mp_ainf, mp_ultra


def test_zero_argument_second_derivatives_vanish():
    # the series of j_1'' and i_1'' have no constant term
    for d in (2, 3, 4, 7):
        assert sf.ultra_j(1, d, 0.0, deriv=2) == 0.0
        assert sf.ultra_i(1, d, 0.0, deriv=2) == 0.0


def test_first_derivative_zero_near_1_84118_in_2d():
    assert abs(sf.ultra_j(1, 2, 1.84118, deriv=1)) < 1e-4


def test_values_match_series_oracle():
    assert sf.ultra_j(1, 3, 0.7) == pytest.approx(mp_ultra("j", 1, 3, 0.7), rel=1e-12)
    assert sf.ultra_i(1, 2, 1.0) == pytest.approx(mp_ultra("i", 1, 2, 1.0), rel=1e-12)


def test_modified_derivative_recurrence_example():
    # i_3'(z) = (3/z) i_3(z) + i_4(z) at z = 0.5, d = 5
    z, d = 0.5, 5
    lhs = sf.ultra_i(3, d, z, deriv=1)
    rhs = (3 / z) * sf.ultra_i(3, d, z) + sf.ultra_i(4, d, z)
    assert abs(lhs - rhs) < 1e-12


def test_series_coefficients():
    assert sf.series_coeff_dk(1, 2) == pytest.approx(0.375, rel=1e-15)
    assert sf.series_coeff_dk(1, 4) == pytest.approx(0.0625, rel=1e-15)
    for d in (2, 3, 5, 11):
        ratio = sf.series_coeff_dk(2, d) / sf.series_coeff_dk(1, d)
        assert ratio == pytest.approx(5.0 / (6.0 * (d + 4)), rel=1e-13)
    assert all(sf.series_coeff_dk(k, d) > 0 for k in (1, 2, 3, 9) for d in (2, 3, 12))


def test_coefficients_match_termwise_differentiated_series():
    # j_1''(z) = sum (-1)^k d_k z^(2k-1), i_1'' the same with positive signs
    for d in (2, 3, 6):
        for z in (0.1, 0.3):
            truncated = sum((-1) ** k * sf.series_coeff_dk(k, d) * z ** (2 * k - 1)
                            for k in range(1, 25))
            assert sf.ultra_j(1, d, z, deriv=2) == pytest.approx(truncated, rel=1e-12)
            truncated = sum(sf.series_coeff_dk(k, d) * z ** (2 * k - 1)
                            for k in range(1, 25))
            assert sf.ultra_i(1, d, z, deriv=2) == pytest.approx(truncated, rel=1e-12)


def test_first_zero_values():
    assert abs(sf.first_zero_j1prime(2) - 1.84118) < 5e-6
    # sign change across the root, slope turning positive to negative
    for d in (2, 3):
        z = sf.first_zero_j1prime(d)
        eps = 1e-6
        assert sf.ultra_j(1, d, z - eps, deriv=1) > 0 > sf.ultra_j(1, d, z + eps, deriv=1)


def test_first_zero_is_past_small_argument_regime():
    # the squared zero is the free-membrane tone of the unit ball and sits in
    # (d, d+2) for every dimension
    for d in (2, 3, 4, 10, 30):
        mu = sf.first_zero_j1prime(d) ** 2
        assert d < mu < d + 2


def test_ode_residuals_random_sampling():
    rng = np.random.default_rng(20240815)
    for _ in range(200):
        z = float(rng.uniform(1e-3, 10.0))
        l = int(rng.integers(0, 6))
        d = int(rng.integers(2, 8))
        for fn, flip in ((sf.ultra_j, 1.0), (sf.ultra_i, -1.0)):
            w0 = fn(l, d, z)
            w1 = fn(l, d, z, deriv=1)
            w2 = fn(l, d, z, deriv=2)
            res = z * z * w2 + (d - 1) * z * w1 + flip * (z * z - flip * l * (l + d - 2)) * w0
            assert abs(res) <= 1e-9 * (1.0 + z * z * abs(w0))


def test_recurrence_residuals_random_sampling():
    rng = np.random.default_rng(20240815)
    for _ in range(200):
        z = float(rng.uniform(1e-3, 10.0))
        l = int(rng.integers(1, 6))
        d = int(rng.integers(2, 8))
        for fn, sgn in ((sf.ultra_j, -1.0), (sf.ultra_i, 1.0)):
            w = [fn(l + off, d, z) for off in (-1, 0, 1)]
            lhs = (d - 2 + 2 * l) / z * w[1]
            rhs = w[0] + w[2] if sgn < 0 else w[0] - w[2]
            scale = abs(lhs) + abs(w[0]) + abs(w[2])
            assert abs(lhs - rhs) <= 1e-11 * max(scale, 1e-300)
            d1 = fn(l, d, z, deriv=1)
            rec = (l / z) * w[1] + sgn * w[2]
            scale = abs(d1) + abs(w[1] * l / z) + abs(w[2])
            assert abs(d1 - rec) <= 1e-11 * max(scale, 1e-300)


def test_series_and_kernel_agree_on_small_arguments():
    zs = np.linspace(1e-4, 0.5, 200)
    for d in (2, 3, 5, 9):
        for l in (0, 1, 2):
            for deriv in (0, 1):
                series = sf._series_eval("j", l, d, deriv, zs)
                kernel = sf._kernel_table("j", l, d, deriv, zs)(deriv)[0]
                rel = np.abs(series - kernel) / np.maximum(np.abs(series), 1e-300)
                assert float(rel.max()) < 1e-12


def test_table_entries_match_single_kernels_bit_for_bit():
    # z from 0 across SMALL_Z, where the series hands over to the kernels
    zs = np.concatenate([[0.0], np.geomspace(1e-3, sf.SMALL_Z, 6),
                         sf.SMALL_Z + np.geomspace(1e-9, 20.0, 7)])
    for kind, fn in (("j", sf.ultra_j), ("i", sf.ultra_i)):
        for d in (2, 3, 8, 30):
            for l in range(sf.MAX_ORDER + 1):
                for deriv in range(sf.MAX_DERIV + 1):
                    table = sf._ultra_table(kind, l, d, zs, deriv)
                    for order in range(l, min(l + deriv, sf.MAX_ORDER) + 1):
                        for k in range(deriv - (order - l) + 1):
                            np.testing.assert_array_equal(
                                table(order, k), fn(order, d, zs, k))
            for z in (0.3, 2.0):
                table = sf._ultra_table(kind, 1, d, z, 4)
                assert table(3, 2) == fn(3, d, z, 2)
                assert isinstance(table(3, 2), float)


def test_multi_order_series_rows_match_single_orders_bit_for_bit():
    # one pass over the orders l..l+deriv pads the shorter sums with zero
    # ratios; every row must still be that order's own sum, sign of zero
    # included
    straddle = np.concatenate([[0.0], np.geomspace(1e-3, sf.SMALL_Z, 6),
                               sf.SMALL_Z + np.geomspace(1e-9, 20.0, 7)])
    small = straddle[straddle <= sf.SMALL_Z]
    for kind in ("j", "i"):
        for d in (2, 3, 8, 30):
            for l in range(sf.MAX_ORDER + 1):
                for deriv in range(sf.MAX_DERIV + 1):
                    # [0, 6e-9]: at 0 the sum of an order without terms
                    # past its first stays -0.0 beside longer sums
                    for zs in (small, np.array([0.3]), np.array([1e-7]),
                               np.array([0.0, 6e-9])):
                        rows = sf._series_eval(kind, range(l, l + deriv + 1),
                                               d, deriv, zs)
                        assert rows.shape == (deriv + 1, zs.size)
                        for m, row in enumerate(rows):
                            ref = sf._series_eval(kind, l + m, d, deriv, zs)
                            assert row.tobytes() == ref.tobytes()
    assert sf._series_eval("j", 1, 2, 0, np.empty(0)).shape == (0,)


def _written_out_series(kind, l, d, deriv, z):
    # _series_eval for one order with every factor made afresh in the call:
    # the reference for the plans that it caches
    s = (d - 2) / 2.0
    sign = -1.0 if kind == "j" else 1.0
    zz = z * z / 4.0
    zz_max = float(np.max(zz, initial=0.0))
    k = max(0, -((l - deriv) // 2))
    m0 = l + 2 * k

    def ratio(j):
        m = l + 2 * j
        return (m + 2.0) * (m + 1.0) / ((m + 2.0 - deriv) * (m + 1.0 - deriv)
                                        * (j + 1.0) * (s + l + j + 1.0))

    floor = 1.0 - ratio(k) * zz_max if kind == "j" else 1.0
    rs, lead = [], 1.0
    while True:
        r = ratio(k + len(rs))
        q = r * zz_max
        if q < 1.0 and lead * q <= 1e-17 * (1.0 - q) * floor:
            break
        rs.append(r)
        lead *= q
    lognorm = -(s + m0) * math.log(2.0) - math.lgamma(k + 1) \
        - math.lgamma(s + l + k + 1)
    fall = math.prod(range(m0 - deriv + 1, m0 + 1))
    term = sign**k * fall * math.exp(lognorm) * np.power(z, m0 - deriv)
    total = term.copy()
    for r in rs:
        term = term * (sign * zz) * r
        total += term
    return total


def test_series_from_warm_plans_match_cold_calls_and_the_written_out_series():
    # a plan's ratios, extended by an earlier call at a larger z, must give
    # the sum that a cold call and the written-out series give, as bytes
    warmers = (np.array([sf.SMALL_Z]), np.array([0.0, 1e-4]))
    for kind in ("j", "i"):
        for d in (2, 3, 30):
            for l in range(sf.MAX_ORDER + 1):
                for deriv in range(sf.MAX_DERIV + 1):
                    for zs in (np.array([0.0, 1e-7, 0.3]), np.array([0.49]),
                               np.array([1e-3, 0.2])):
                        ref = _written_out_series(kind, l, d, deriv, zs)
                        sf._series_plan.cache_clear()
                        cold = sf._series_eval(kind, l, d, deriv, zs)
                        for warm in warmers:
                            sf._series_eval(kind, l, d, deriv, warm)
                        warm = sf._series_eval(kind, l, d, deriv, zs)
                        rows = sf._series_eval(
                            kind, range(l, l + deriv + 1), d, deriv, zs)
                        assert cold.tobytes() == ref.tobytes()
                        assert warm.tobytes() == ref.tobytes()
                        assert rows[0].tobytes() == ref.tobytes()


def test_table_entries_match_the_mixed_path_bit_for_bit():
    # z all at or below SMALL_Z, all above it, on both sides, a scalar and
    # an empty array: each entry equals, as bytes with -0.0 kept, the
    # written-out series or kernel row, or their scatter where z is mixed;
    # at [0, 6e-9] the sums of j_1'' and others stay at their first term,
    # -0.0 at z = 0
    negative_zeros = 0
    for kind in ("j", "i"):
        for d in (2, 3, 30):
            for l in (0, 1, sf.MAX_ORDER):
                for deriv in range(sf.MAX_DERIV + 1):
                    for zs in (np.array([0.0, 1e-7, 0.3, sf.SMALL_Z]),
                               np.array([0.0, 6e-9]),
                               sf.SMALL_Z + np.array([1e-9, 1.0, 20.0]),
                               np.array([2.0, 0.0, 0.3, 20.0, sf.SMALL_Z]),
                               np.array([2.0, 0.0, 6e-9]), np.empty(0)):
                        table = sf._ultra_table(kind, l, d, zs, deriv)
                        lo = zs <= sf.SMALL_Z
                        kernel = sf._kernel_table(kind, l, d, deriv, zs[~lo])
                        for order in range(l, l + deriv + 1):
                            for k in range(deriv - (order - l) + 1):
                                want = np.empty(zs.shape)
                                want[lo] = _written_out_series(
                                    kind, order, d, k, zs[lo])
                                want[~lo] = kernel(k)[order - l]
                                got = table(order, k)
                                assert got.tobytes() == want.tobytes()
                                negative_zeros += int(np.sum(
                                    (got == 0.0) & np.signbit(got)))
                    for z in (0.0, 0.3, 2.0):
                        want = sf._ultra_table(kind, l, d, np.array([z]), deriv)
                        table = sf._ultra_table(kind, l, d, z, deriv)
                        got = table(l, deriv)
                        assert isinstance(got, float)
                        assert np.float64(got).tobytes() == \
                            want(l, deriv).tobytes()
    assert negative_zeros > 0


def test_table_entries_are_the_callers_own():
    for zs in (np.array([0.0, 0.3]), np.array([1.0, 2.0]),
               np.array([0.3, 2.0])):
        for kind in ("j", "i"):
            table = sf._ultra_table(kind, 1, 3, zs, 4)
            first = table(1, 2)
            kept = first.copy()
            first[:] = np.nan
            assert table(1, 2).tobytes() == kept.tobytes()


def _all_rows_kernel_table(kind, l, d, deriv, z):
    # every row of the derivative recurrence at once, as a reference for the
    # rows that _kernel_table builds on request
    s = (d - 2) / 2.0
    sign = -1.0 if kind == "j" else 1.0
    bessel = sf.special.jv if kind == "j" else sf.special.iv
    orders = s + l + np.arange(deriv + 1, dtype=float)
    T = [list(bessel(orders[:, None], z) * np.power(z, -s))]
    inv = 1.0 / z
    for k in range(deriv):
        row = []
        for m in range(deriv - k):
            acc = np.zeros_like(z)
            for i in range(k + 1):
                acc += (math.comb(k, i) * (-1.0) ** i * math.factorial(i)) \
                    * inv ** (i + 1) * T[k - i][m]
            row.append((l + m) * acc + sign * T[k][m + 1])
        T.append(row)
    return T


def test_kernel_rows_built_on_request_match_the_all_rows_table():
    zs = sf.SMALL_Z + np.geomspace(1e-9, 20.0, 9)
    for kind in ("j", "i"):
        for d in (2, 3, 8, 30):
            for l in range(sf.MAX_ORDER + 1):
                for deriv in range(sf.MAX_DERIV + 1):
                    ref = _all_rows_kernel_table(kind, l, d, deriv, zs)
                    # rows asked for from the top down and from the bottom up
                    down = sf._kernel_table(kind, l, d, deriv, zs)
                    up = sf._kernel_table(kind, l, d, deriv, zs)
                    got_down = [down(k) for k in reversed(range(deriv + 1))]
                    got_up = [up(k) for k in range(deriv + 1)]
                    for k in range(deriv + 1):
                        assert len(got_up[k]) == len(ref[k]) == deriv - k + 1
                        for m in range(deriv - k + 1):
                            want = ref[k][m].tobytes()
                            assert got_up[k][m].tobytes() == want
                            assert got_down[deriv - k][m].tobytes() == want


def test_table_error_contracts():
    for kind in ("j", "i"):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                sf._ultra_table(kind, 1, 2, np.array([0.3, bad]), 2)
        with pytest.raises(ValueError):
            sf._ultra_table(kind, 1, 2, 1.0, sf.MAX_DERIV + 1)
        with pytest.raises(ValueError):
            sf._ultra_table(kind, sf.MAX_ORDER + 1, 2, 1.0, 0)
    with pytest.raises(OverflowError):
        sf._ultra_table("i", 1, 2, np.array([1.0, 700.0]), 2)
    with pytest.raises(OverflowError):
        sf._ultra_table("j", 1, 2, np.array([1.0, 2.0e15]), 2)
    # not finite before negative before beyond range, whatever the order
    with pytest.raises(ValueError, match="finite"):
        sf._ultra_table("i", 1, 2, np.array([-1.0, 700.0, np.nan]), 2)
    with pytest.raises(ValueError, match="nonnegative"):
        sf._ultra_table("i", 1, 2, np.array([700.0, -1.0]), 2)
    assert sf._ultra_table("j", 1, 2, np.empty(0), 2)(2, 1).shape == (0,)


def test_modified_function_positivity():
    zs = np.linspace(1e-6, 30.0, 1000)
    for d in (2, 3, 5):
        for l in (1, 2, 3):
            assert np.all(sf.ultra_i(l, d, zs) > 0)
        for deriv in range(5):
            assert np.all(sf.ultra_i(1, d, zs, deriv) > 0)


def test_high_precision_agreement_across_paths():
    # spot checks on both sides of SMALL_Z (series and scipy kernels), every
    # derivative order
    for kind, fn in (("j", sf.ultra_j), ("i", sf.ultra_i)):
        for d in (2, 3, 5, 8):
            for l in (0, 1, 5):
                for deriv in range(5):
                    for z in (0.05, 0.5, 0.9, 3.2, 6.1, 9.7, 14.0):
                        ref = mp_ultra(kind, l, d, z, deriv)
                        got = fn(l, d, z, deriv)
                        assert got == pytest.approx(ref, rel=5e-12, abs=1e-13)


def test_vectorized_matches_scalar():
    zs = np.array([0.0, 0.2, 0.5, 0.7, 2.0, 6.5, 11.0])
    for fn in (sf.ultra_j, sf.ultra_i):
        vec = fn(1, 3, zs, deriv=2)
        scal = np.array([fn(1, 3, z, deriv=2) for z in zs])
        np.testing.assert_array_equal(vec, scal)


def test_params_type_invariant():
    p = sf.UltraBesselParams(2, 5)
    assert p.s == (5 - 2) / 2
    with pytest.raises(ValueError):
        sf.UltraBesselParams(-1, 5)
    with pytest.raises(ValueError):
        sf.UltraBesselParams(1, 1)


def test_error_contracts():
    with pytest.raises(ValueError):
        sf.ultra_j(1, 2, 1.0, deriv=5)
    with pytest.raises(ValueError):
        sf.ultra_j(9, 2, 1.0)
    with pytest.raises(ValueError):
        sf.ultra_j(1, 2, -1.0)
    with pytest.raises(ValueError):
        sf.ultra_j(1, 2, float("nan"))
    with pytest.raises(OverflowError):
        sf.ultra_i(1, 2, 700.0)
    with pytest.raises(OverflowError):
        sf.ultra_j(1, 2, 2.0e15)
    # z = 2000 is an ordinary argument for j_l; compare relative to the
    # envelope sqrt(J^2 + Y^2) (s = 0 in d = 2)
    J, Y = mp.besselj(1, 2000), mp.bessely(1, 2000)
    assert abs(sf.ultra_j(1, 2, 2000.0) - J) < 1e-14 * mp.sqrt(J**2 + Y**2)
    with pytest.raises(RuntimeError):
        sf.first_zero_j1prime(500)


def _mp_ultra_fn(kind, l, d):
    s = mp.mpf(d - 2) / 2
    bessel = mp.besselj if kind == "j" else mp.besseli
    return (lambda t: bessel(s + l, t) * t ** (-s)), s


def test_kernels_match_mpmath_over_the_kernel_range():
    # up to the advertised ends of the range; j is compared relative to its
    # envelope sqrt(J^2 + Y^2) z^-s (it has zeros), i relative to itself
    for kind, fn, zmax in (("j", sf.ultra_j, 1.0e3), ("i", sf.ultra_i, 690.0)):
        zs = np.geomspace(1e-2, zmax, 12)
        for d in (2, 3, 8, 30):
            for l in (0, 1, 5, 8):
                f, s = _mp_ultra_fn(kind, l, d)
                got = np.array([fn(l, d, zs, deriv) for deriv in range(5)])
                for k, z in enumerate(zs):
                    zm = mp.mpf(float(z))
                    refs = list(mp.diffs(f, zm, 4))
                    if kind == "j":
                        nu = s + l
                        env = mp.sqrt(mp.besselj(nu, zm) ** 2 + mp.bessely(nu, zm) ** 2) \
                            * zm ** (-s)
                    for deriv, ref in enumerate(refs):
                        scale = env if kind == "j" else abs(ref)
                        err = float(abs(got[deriv, k] - ref) / scale)
                        assert err < 1e-12, (kind, d, l, deriv, float(z), err)


def test_series_tail_bound_matches_mpmath():
    # the tail-bounded small-z series at both ends of its range
    for kind in ("j", "i"):
        for d in (2, 30):
            for l in range(sf.MAX_ORDER + 1):
                f, _ = _mp_ultra_fn(kind, l, d)
                for z in (sf.SMALL_Z, 1e-6):
                    refs = list(mp.diffs(f, mp.mpf(z), sf.MAX_DERIV))
                    for deriv, ref in enumerate(refs):
                        got = sf._series_eval(kind, l, d, deriv, np.array([z]))[0]
                        err = float(abs(got - ref) / abs(ref))
                        assert err < 1e-14, (kind, d, l, deriv, z, err)


def test_series_oracle_holds_at_large_arguments():
    # the oracle sums until its terms are negligible, at a working precision
    # that absorbs the cancellation of the alternating j series
    ref = mp.besseli(10, 648) * mp.mpf(648) ** -3
    assert mp_ultra("i", 7, 8, 648.0) == pytest.approx(float(ref), rel=1e-14)
    ref = mp.besselj(2.5, 900) * mp.mpf(900) ** -1.5
    assert mp_ultra("j", 1, 5, 900.0) == pytest.approx(float(ref), rel=1e-12)


def test_first_zero_j1prime_against_mpmath():
    for d in range(2, 31):
        ref = _mp_ainf(d)
        assert abs(sf.first_zero_j1prime(d) - ref) <= 1e-13 * ref, d


def test_bracketed_root_statuses_and_brackets():
    # a cubic with its root at c, a bracket without a sign change, and two
    # whose end is the root; only running elements are evaluated, each
    # with its own c
    calls = []

    def f(x, c):
        calls.append(x.size)
        return (x - c) ** 3 + (x - c)

    lo, hi = np.array([0.0, 2.0, 0.0, 1.0]), np.array([3.0, 3.0, 1.0, 5.0])
    c = np.array([1.7, 1.0, 1.0, 1.0])
    x, status, (xl, xr), (fl, fr) = sf._bracketed_root(f, lo, hi, c)
    names = [sf._ROOT_STATUS[k] for k in status]
    assert names == ["converged", "no sign change", "converged", "converged"]
    assert x[0] == pytest.approx(1.7, rel=1e-13) and np.isnan(x[1])
    assert x[2] == x[3] == 1.0
    assert np.all(xl <= xr) and (xl[1], xr[1]) == (2.0, 3.0)
    assert np.all(fl[[0, 2, 3]] <= 0) and np.all(fr[[0, 2, 3]] >= 0)
    assert calls[0] == 8 and all(n == 1 for n in calls[1:])


def test_bracketed_root_reports_the_iteration_budget(monkeypatch):
    monkeypatch.setattr(sf, "_ROOT_MAX_ITER", 2)
    x, status, (xl, xr), _ = sf._bracketed_root(
        lambda x: np.tanh(x - 0.3), np.array([-1.0]), np.array([4.0]))
    assert sf._ROOT_STATUS[status[0]] == "iteration budget"
    assert xl[0] < 0.3 < xr[0] and xl[0] <= x[0] <= xr[0]
