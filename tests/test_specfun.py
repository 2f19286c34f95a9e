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
    # the sweep against the oracle's ascending series, where that series
    # converges fastest
    for kind, fn in (("j", sf.ultra_j), ("i", sf.ultra_i)):
        for d in (2, 3, 5, 9):
            for l in (0, 1, 2):
                for deriv in (0, 1):
                    for z in (1e-4, 0.1, 0.3, 0.5):
                        ref = mp_ultra(kind, l, d, z, deriv)
                        assert fn(l, d, z, deriv) == pytest.approx(ref, rel=1e-13)


def test_table_entries_match_single_kernels_bit_for_bit():
    # z from 0 across 1/2 and 1, where the sweep's scale t changes, swept
    # point by point (14 points) and over the array (19 points)
    small = np.concatenate([[0.0], np.geomspace(1e-3, 0.5, 6),
                            0.5 + np.geomspace(1e-9, 20.0, 7)])
    for zs, kind, fn in ((zs, kind, fn) for zs in (
            small, np.concatenate([small, np.linspace(0.7, 20.0, 5)]))
            for kind, fn in (("j", sf.ultra_j), ("i", sf.ultra_i))):
        assert (zs.size > sf._PER_POINT) == (zs.size == 19)
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


def test_table_entries_match_across_batch_sizes_bit_for_bit():
    # a point's bits depend on its z alone: alone, in the point-by-point
    # sweep of a small array and in the array sweep of a large one, every
    # entry is the same bytes, -0.0 included; z at 0, at the powers of 4
    # where the sweep's scale changes, and at the ends of the range; the
    # entries over z (over=1) as well
    pts = np.array([0.0, 1e-300, 6e-9, 0.3, 0.5, 1.0, 4.0, 4.0000000000000009,
                    16.0, 20.0, 64.0, 300.0, 689.9])
    big = np.resize(pts, 3 * sf._PER_POINT + 5)
    for kind, top in (("j", sf._J_Z_MAX), ("i", 689.9)):
        zs = np.append(pts[pts <= top], top)
        for d in (2, 3, 30):
            for l, deriv in ((0, 4), (1, 2), (sf.MAX_ORDER, 4)):
                keys = [(l + m, k) for m in range(deriv + 1)
                        for k in range(deriv - m + 1)]
                keys += [(l + m, 0, 1) for m in range(deriv + 1) if l + m]
                wide = sf._ultra_table(kind, l, d, np.resize(zs, big.size), deriv)
                few = sf._ultra_table(kind, l, d, zs[:sf._PER_POINT], deriv)
                for key in keys:
                    got = wide(*key)
                    for i, z in enumerate(zs):
                        alone = sf._ultra_table(kind, l, d, float(z), deriv)(*key)
                        assert isinstance(alone, float)
                        assert np.float64(alone).tobytes() == got[i].tobytes()
                        if i < sf._PER_POINT:
                            assert few(*key)[i].tobytes() == got[i].tobytes()


def test_table_entries_are_the_callers_own():
    for zs in (np.array([0.0, 0.3]), np.array([1.0, 2.0]),
               np.linspace(0.0, 3.0, 2 * sf._PER_POINT)):
        for kind in ("j", "i"):
            table = sf._ultra_table(kind, 1, 3, zs, 4)
            first = table(1, 2)
            kept = first.copy()
            first[:] = np.nan
            assert table(1, 2).tobytes() == kept.tobytes()


def test_kernel_rows_built_on_request_match_the_all_rows_table():
    # a table's entries do not depend on which it served before: read top
    # down, and twice, each is the entry of a table read bottom up, as
    # bytes, over both batchings
    for zs in (0.5 + np.geomspace(1e-9, 20.0, 9), np.linspace(0.0, 20.0, 33)):
        for kind in ("j", "i"):
            for d in (2, 3, 8, 30):
                for l in range(sf.MAX_ORDER + 1):
                    for deriv in range(sf.MAX_DERIV + 1):
                        keys = [(l + m, k) for m in range(deriv + 1)
                                for k in range(deriv - m + 1)]
                        up = sf._ultra_table(kind, l, d, zs, deriv)
                        ref = {key: up(*key).tobytes() for key in keys}
                        down = sf._ultra_table(kind, l, d, zs, deriv)
                        for key in reversed(keys):
                            assert down(*key).tobytes() == ref[key]
                            assert down(*key).tobytes() == ref[key]


def test_table_error_contracts():
    for kind in ("j", "i"):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                sf._ultra_table(kind, 1, 2, np.array([0.3, bad]), 2)
        with pytest.raises(ValueError):
            sf._ultra_table(kind, 1, 2, 1.0, sf.MAX_DERIV + 1)
        with pytest.raises(ValueError):
            sf._ultra_table(kind, sf.MAX_ORDER + 1, 2, 1.0, 0)
        # over z^over only where every term keeps a nonnegative power
        for zs in (0.5, np.linspace(0.0, 1.0, 2 * sf._PER_POINT)):
            table = sf._ultra_table(kind, 1, 2, zs, 2)
            for order, k, over in ((1, 1, 1), (1, 0, 2), (2, 0, 3)):
                with pytest.raises(ValueError):
                    table(order, k, over)
    with pytest.raises(OverflowError):
        sf._ultra_table("i", 1, 2, np.array([1.0, 700.0]), 2)
    with pytest.raises(OverflowError):
        sf._ultra_table("j", 1, 2, np.array([1.0, 2.0e15]), 2)
    with pytest.raises(OverflowError):
        sf._ultra_table("j", 1, 2, np.array([1.0, 2.0 * sf._J_Z_MAX]), 2)
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
    # spot checks on both sides of z = 1/2, where the kernels used to switch
    # from a series to scipy's, every derivative order
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


def test_order_and_dimension_validation():
    # l must be an int in [0, MAX_ORDER] and d an int >= 2; 1.0 == 1 is no
    # integer order
    for fn in (sf.ultra_j, sf.ultra_i):
        with pytest.raises(ValueError, match="order l must be an integer"):
            fn(-1, 5, 1.0)
        with pytest.raises(ValueError, match="dimension d must be"):
            fn(1, 1, 1.0)
        with pytest.raises(ValueError, match="order l must be an integer"):
            fn(1.0, 5, 1.0)


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


def test_kernels_match_mpmath_where_the_old_paths_met():
    # against 50-digit mpmath on z in (0.5, 5], where a recurrence in powers
    # of 1/z used to lose digits, to 1e-13, and at 1e-6 and 0.5, where a
    # series used to serve, to 1e-14: i relative to itself, j relative to
    # itself up to 0.5 (no zeros there) and to its envelope
    # sqrt(J^2 + Y^2) z^-s above
    zs = [1e-6, 0.5, 0.501, 0.55, 0.75, 1.0, 1.58, 2.2, 3.1, 4.05, 5.0]
    with mp.workdps(50):
        for kind, fn in (("j", sf.ultra_j), ("i", sf.ultra_i)):
            for d in (2, 3, 17, 30):
                for l in range(sf.MAX_ORDER + 1):
                    f, s = _mp_ultra_fn(kind, l, d)
                    got = np.array([fn(l, d, np.array(zs), k)
                                    for k in range(sf.MAX_DERIV + 1)])
                    for n, z in enumerate(zs):
                        zm = mp.mpf(z)
                        refs = list(mp.diffs(f, zm, sf.MAX_DERIV))
                        env = None
                        if kind == "j" and z > 0.5:
                            nu = s + l
                            env = mp.sqrt(mp.besselj(nu, zm) ** 2
                                          + mp.bessely(nu, zm) ** 2) * zm ** (-s)
                        for k, ref in enumerate(refs):
                            scale = abs(ref) if env is None else env
                            err = float(abs(got[k, n] - ref) / scale)
                            bound = 1e-14 if z <= 0.5 else 1e-13
                            assert err < bound, (kind, d, l, k, z, err)


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


def test_bracketed_root_on_a_float_matches_a_one_element_array(monkeypatch):
    # one body for a float bracket and an array of them: the points f is
    # called at, x, the status, the final bracket and f at its ends agree
    # bit for bit. f = y^3 - y, y = x - c, as products: Python's x**3 and
    # numpy's array x**3 can round apart
    calls = []

    def f(x, c):
        calls.append(bits(x))
        y = x - c
        return y * y * y - y

    def bits(v):
        return np.asarray(v, dtype=float).tobytes()

    def both(lo, hi, c):
        calls.clear()
        x, status, ends, vals = sf._bracketed_root(f, lo, hi, c)
        assert type(x) is float and type(status) is int
        on_floats = calls[:]
        calls.clear()
        one = sf._bracketed_root(f, np.array([lo]), np.array([hi]),
                                 np.array([c]))
        assert on_floats == calls
        assert bits(x) == bits(one[0]) and status == one[1][0]
        for pair, arrays in ((ends, one[2]), (vals, one[3])):
            assert all(bits(u) == bits(v) for u, v in zip(pair, arrays))
        return sf._ROOT_STATUS[status], x, ends

    for c in np.linspace(-3.0, 5.0, 17):
        # the root at y = 1
        name, x, (xl, xr) = both(c + 0.2, c + 3.0, float(c))
        assert name == "converged" and xl <= x <= xr
        assert x == pytest.approx(c + 1.0, rel=1e-12, abs=1e-12)
    name, x, ends = both(-0.25, 2.25, 0.25)      # f > 0 at both ends
    assert name == "no sign change" and np.isnan(x) and ends == (-0.25, 2.25)
    name, x, _ = both(-0.75, 1.25, 0.25)         # f = 0 at both ends
    assert name == "converged" and x == 1.25
    monkeypatch.setattr(sf, "_ROOT_MAX_ITER", 2)
    name, x, (xl, xr) = both(0.45, 3.25, 0.25)
    assert name == "iteration budget" and xl < 1.25 < xr
