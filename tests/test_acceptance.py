"""Acceptance gate: eight criteria, one test and one printed line each.

Each test prints `criterion N [slug]: PASS/FAIL (detail)` before asserting,
so the harness output lists every criterion verdict.

Criterion 7 takes its reference for the quartic Q from
`oracles.mp_quartic_min`, a 30-digit mpmath computation of the minimum of
Q(x)/x on (0, 12/7] from the definition in `verify.poly_Q`, with
mu = ainf(2)^2 found by mpmath alone. It used to pin 177.8, a spot value
transcribed with the lemma. No quantity of the documented definition has
that value: the minimum of Q(x)/x is 118.650236 (at x = 1.442807), Q there
is 171.189398, Q(12/7) is 209.270475 and Q/x at 12/7 is 122.074444. The
minimum would be 177.8 only with mu near 3.680 instead of 3.389958. The
paper's own text for this lemma is not in the repository, so whether it
prints 177.8 for some other quantity cannot be checked here.
"""
import math
import time

import numpy as np
import pytest

from freeplate import ball, geom, verify
from freeplate import specfun as sf
from freeplate.geom import QuadratureSpec

from oracles import mp_quartic_min, rayleigh_ritz_tone


def record(n, slug, ok, detail):
    print(f"criterion {n} [{slug}]: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_bound_sandwich():
    t0 = time.perf_counter()
    worst = math.inf
    for d in (2, 3, 4):
        mu = sf.first_zero_j1prime(d) ** 2
        for tau in (0.1, 1.0, 10.0, 100.0):
            omega = ball.fundamental_tone(tau, d).omega
            lower, upper = tau * mu, tau * (d + 2)
            assert lower < omega < upper
            worst = min(worst, omega - lower, upper - omega)
    elapsed = time.perf_counter() - t0
    ok = worst > 0.0 and elapsed < 5.0
    record(1, "bound sandwich", ok,
           f"12 cases strict, smallest gap {worst:.3e}, {elapsed:.2f} s")
    assert ok
    assert elapsed < 5.0


def test_criterion_2_membrane_limit():
    d = 2
    mu = sf.first_zero_j1prime(d) ** 2
    C = ball.membrane_C(d)
    margins = []
    for tau in (1e3, 1e4):
        ratio = ball.fundamental_tone(tau, d).omega / tau
        margins += [ratio - mu, mu + C / tau - ratio]
    ok = all(m > 0.0 for m in margins)
    record(2, "membrane limit", ok,
           f"ratio-mu in (0, C/tau) at tau=1e3,1e4; "
           f"min margin {min(margins):.3e}, C(B)={C:.6f}")
    assert ok


def test_criterion_3_scaling_law():
    worst = 0.0
    for d in (2, 3):
        for tau in (0.5, 5.0):
            base = ball.fundamental_tone(tau, d, 1.0).omega
            for s in (0.5, 2.0):
                other = ball.fundamental_tone(tau / s**2, d, s).omega
                worst = max(worst, abs(base - s**4 * other) / base)
    ok = worst <= 1e-9
    record(3, "scaling law", ok, f"max relative defect {worst:.3e} <= 1e-9")
    assert ok


def test_criterion_4_quotient_equality_on_the_ball():
    worst = 0.0
    for d in (2, 3):
        for tau in (0.5, 2.0):
            omega = ball.fundamental_tone(tau, d).omega
            Q, _ = geom.quotient_bound(geom.ball(d), tau,
                                       quad=QuadratureSpec("radial", 1024))
            worst = max(worst, abs(Q - omega) / omega)
    ok = worst <= 1e-8
    record(4, "quotient equality on the ball", ok,
           f"max relative gap {worst:.3e} <= 1e-8")
    assert ok


def test_criterion_5_rayleigh_ritz_oracle():
    worst = 0.0
    for tau in (0.1, 1.0, 10.0):
        omega = ball.fundamental_tone(tau, 2).omega
        rr = rayleigh_ritz_tone(2, tau, nbasis=40)
        worst = max(worst, abs(rr - omega) / omega)
    ok = worst <= 1e-6
    record(5, "independent discretization agreement", ok,
           f"max relative gap {worst:.3e} <= 1e-6 (40 basis functions)")
    assert ok


def test_criterion_6_strict_inequality_at_desk_scale():
    t0 = time.perf_counter()
    side = math.sqrt(math.pi)
    domains = [geom.normalize_volume(geom.ellipsoid(2, (2.0, 0.5))),
               geom.box(2, (side, side)),
               geom.annulus(2, 0.6, math.sqrt(1.36))]
    omega = ball.fundamental_tone(1.0, 2).omega
    least = math.inf
    for dom in domains:
        Q, err = geom.quotient_bound(dom, 1.0)
        assert Q < omega
        assert omega - Q > 5.0 * err
        least = min(least, (omega - Q) / err)
    elapsed = time.perf_counter() - t0
    ok = least > 5.0 and elapsed < 60.0
    record(6, "strict inequality off the ball", ok,
           f"ellipse/square/annulus separated by >= {least:.0f} standard "
           f"errors, {elapsed:.2f} s")
    assert ok
    assert elapsed < 60.0


def test_criterion_7_lemma_suite_and_spot_values():
    t0 = time.perf_counter()
    failing = []
    for k, d in enumerate(range(2, 11)):
        for rep in verify.full_suite(d, include_global=(k == 0)):
            if not rep.passed:
                failing.append(rep.lemma_id)
    elapsed = time.perf_counter() - t0
    sv = verify.spot_values()
    g7, gp5 = sv["g-at-7"], sv["g-prime-at-5"]
    p3 = sv["P3-critical-value"]
    cq, qmin = sv["Q-critical-point"], sv["Q-over-x-minimum"]
    qval = sv["Q-critical-value"]
    c_ref, q_ref = mp_quartic_min()
    # the minimiser, the minimum from the expanded Q(x)/x, and the minimum
    # from Q itself, each against the mpmath oracle
    q_gap = max(abs(cq / c_ref - 1.0), abs(qmin / q_ref - 1.0),
                abs(qval / cq / q_ref - 1.0))
    ok_suite = not failing and elapsed < 120.0
    ok_exact = g7 == 6876 and gp5 == 1875
    ok_p3 = abs(p3 / verify.P3_CRITICAL_REF - 1.0) <= 0.05
    ok_q = q_gap <= 1e-9
    ok = ok_suite and ok_exact and ok_p3 and ok_q
    record(7, "lemma suite", ok,
           f"d=2..10 all rows pass={not failing}, {elapsed:.1f} s; "
           f"g(7)={g7}, g'(5)={gp5}, P3 critical {p3:.6f} vs ref "
           f"{verify.P3_CRITICAL_REF}; Q(x)/x minimum {qmin:.6f} at "
           f"x={cq:.6f} vs mpmath oracle {q_ref:.6f} at x={c_ref:.6f}, "
           f"max relative gap {q_gap:.3e} <= 1e-9")
    assert not failing
    assert elapsed < 120.0
    assert g7 == 6876
    assert gp5 == 1875
    assert ok_p3
    assert ok_q, (
        f"Q(x)/x minimum {qmin:.12g} at x={cq:.12g} (Q there {qval:.12g}) "
        f"differs from the oracle's {q_ref:.12g} at x={c_ref:.12g} by "
        f"{q_gap:.3e} > 1e-9")


def test_criterion_8_kernel_identities():
    rng = np.random.default_rng(20240815)
    worst_ode = 0.0
    worst_rec = 0.0
    for _ in range(200):
        z = float(rng.uniform(1e-3, 10.0))
        l = int(rng.integers(0, sf._TOP - 1))     # l + 2 <= _TOP
        d = int(rng.integers(2, 8))
        for fn, flip in ((sf.ultra_j, 1.0), (sf.ultra_i, -1.0)):
            w0 = fn(l, d, z)
            w1 = fn(l, d, z, deriv=1)
            w2 = fn(l, d, z, deriv=2)
            res = (z * z * w2 + (d - 1) * z * w1
                   + flip * (z * z - flip * l * (l + d - 2)) * w0)
            worst_ode = max(worst_ode,
                            abs(res) / (1.0 + z * z * abs(w0)))
        lr = max(l, 1)
        for fn, sgn in ((sf.ultra_j, -1.0), (sf.ultra_i, 1.0)):
            w = [fn(lr + off, d, z) for off in (-1, 0, 1)]
            lhs = (d - 2 + 2 * lr) / z * w[1]
            rhs = w[0] + w[2] if sgn < 0 else w[0] - w[2]
            scale = max(abs(lhs) + abs(w[0]) + abs(w[2]), 1e-300)
            worst_rec = max(worst_rec, abs(lhs - rhs) / scale)
            d1 = fn(lr, d, z, deriv=1)
            rec = (lr / z) * w[1] + sgn * w[2]
            scale = max(abs(d1) + abs(w[1] * lr / z) + abs(w[2]), 1e-300)
            worst_rec = max(worst_rec, abs(d1 - rec) / scale)
    ok = worst_ode <= 1e-9 and worst_rec <= 1e-11
    record(8, "kernel identities", ok,
           f"200 samples: max ODE residual {worst_ode:.3e} <= 1e-9, "
           f"max recurrence residual {worst_rec:.3e} <= 1e-11")
    assert worst_ode <= 1e-9
    assert worst_rec <= 1e-11
