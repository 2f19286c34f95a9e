"""Property tests of the radial-reduction quadrature against closed forms,
finer radial rules and Monte Carlo."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeplate import ball as ballmod
from freeplate import geom, trial
from freeplate.geom import QuadratureSpec

from test_geom import integrate_radial, series_reference

SETTINGS = settings(max_examples=100, deadline=None)


def second_moment(dom, center):
    return integrate_radial(dom, lambda r: r**2,
                            QuadratureSpec("radial"), center)


@st.composite
def ellipsoids(draw):
    d = draw(st.sampled_from((2, 3)))
    ax = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=d,
                                max_size=d)))
    z = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d,
                               max_size=d)))
    z *= draw(st.floats(0.0, 0.9)) / max(np.linalg.norm(z), 1.0)
    return geom.ellipsoid(d, ax), z * ax


@st.composite
def boxes(draw):
    d = draw(st.sampled_from((2, 3)))
    sides = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=d,
                                   max_size=d)))
    z = np.array(draw(st.lists(st.floats(-0.499, 0.499), min_size=d,
                               max_size=d)))
    return geom.box(d, sides), z * sides


@SETTINGS
@given(ellipsoids())
def test_ellipsoid_second_moments_match_the_closed_form(case):
    # the integrand is smooth about any interior point, so the rule
    # converges spectrally: within 1e-9 for semiaxis ratios up to 4
    dom, c = case
    ax = np.asarray(dom.params["semiaxes"])
    vol = dom.volume
    exact = vol * float(np.sum(ax**2)) / (dom.d + 2) + vol * float(c @ c)
    val, err = second_moment(dom, c)
    assert val == pytest.approx(exact, rel=1e-9)
    assert abs(val - exact) <= err


@SETTINGS
@given(boxes())
def test_box_second_moments_lie_within_the_reported_bar(case):
    # corners make the rule's error O(h^2) and oscillating; the estimate
    # must still cover it (side ratios up to 4: in 3-d a needle of ratio
    # 6-10 seen from near an edge is unresolved by 8192 directions, and
    # every companion rule can miss its error alike)
    dom, c = case
    sides = np.asarray(dom.params["sides"])
    vol = dom.volume
    exact = vol * float(np.sum(sides**2)) / 12 + vol * float(c @ c)
    val, err = second_moment(dom, c)
    assert abs(val - exact) <= err


@pytest.mark.parametrize("dom, center", [
    (geom.annulus(2, 0.6, 1.2), (0.1, -0.3)),
    (geom.annulus(3, 0.5, 1.0), (0.0, 0.7, 0.2)),
    (geom.two_balls(2, (0.5, 0.6), ((-0.8, 0.0), (0.7, 0.1))), (0.0, 0.0)),
    (geom.two_balls(2, (1.0, 0.9), ((-0.3, 0.0), (0.3, 0.0))), (0.0, 0.0)),
    (geom.two_balls(3, (1.0, 0.7), ((0.0, 0.0, 0.0), (0.5, 0.0, 0.0))),
     (0.9, 0.2, 0.0)),
])
def test_radial_volumes_of_holes_and_unions(dom, center):
    # segments add with their signs, so origins in a hole, between two
    # balls or outside a union all give the closed-form volume
    val, err = integrate_radial(dom, np.ones_like,
                                QuadratureSpec("radial"), center)
    assert abs(val - dom.volume) <= err


def l_shape(c):
    expr = f"(abs(x) <= 1) & (abs(y) <= 1) & ~((x > {c!r}) & (y > {c!r}))"
    return geom.implicit_domain(2, expr, (-1, 1, -1, 1),
                                volume=4.0 - (1.0 - c) ** 2)


@settings(max_examples=6, deadline=None)
@given(kind=st.sampled_from(("two-balls", "l-shape")),
       p=st.floats(0.0, 1.0), tau=st.floats(0.3, 3.0))
def test_radial_quotient_on_tangent_rays_and_corners(kind, p, tau):
    # with one center for every rule only the quadratures differ: the
    # rule's estimate covers its gap to a rule with 16 times the
    # directions, and Monte Carlo (its standard error is statistically
    # honest, unlike the grid's |full - half| bar) agrees within 4 sigma
    if kind == "two-balls":
        gap = 0.2 + 0.3 * p
        dom = geom.two_balls(2, (0.55, 0.5),
                             ((-0.55 - gap / 2, 0.0), (0.5 + gap / 2, 0.05)))
    else:
        dom = l_shape(0.1 * p)
    dom = geom.normalize_volume(dom)
    radial = QuadratureSpec("radial", samples=2048)
    v = geom.center_trial(
        dom, trial.TrialProfile(ballmod.fundamental_tone(tau, 2)),
        radial).center
    q, e = geom.quotient_bound(dom, tau, quad=radial, center=v)
    fine, _ = geom.quotient_bound(
        dom, tau, quad=QuadratureSpec("radial", samples=32768), center=v)
    assert abs(q - fine) <= e
    qm, em = geom.quotient_bound(
        dom, tau, quad=QuadratureSpec("mc", samples=10**6, seed=3), center=v)
    assert abs(q - qm) <= e + 4.0 * em


@st.composite
def centering_cases(draw):
    # (domain, whether its symmetry axis is the x-axis)
    if draw(st.booleans()):
        return l_shape(draw(st.floats(-0.8, 0.8))), False
    d = draw(st.sampled_from((2, 3)))
    on_axis = draw(st.booleans())
    keep = np.arange(d) == 0 if on_axis else np.ones(d, dtype=bool)
    centers = [np.where(keep, draw(st.lists(st.floats(-1.0, 1.0), min_size=d,
                                            max_size=d)), 0.0)
               for _ in range(2)]
    radii = draw(st.lists(st.floats(0.3, 1.0), min_size=2, max_size=2))
    return geom.two_balls(d, radii, centers), on_axis


@settings(max_examples=8, deadline=None)
@given(case=centering_cases(), log_tau=st.floats(-3.0, 3.0))
def test_newton_centering_converges_and_keeps_the_symmetry(case, log_tau):
    # the rule's directions share the domains' mirror symmetries and the
    # iteration starts on the mirror, so the center stays on it: the
    # diagonal y = x of the L-shape, the x-axis of two balls centered on it
    dom, on_axis = case
    dom = geom.normalize_volume(dom)
    prof = trial.TrialProfile(ballmod.fundamental_tone(10.0**log_tau, dom.d))
    v = geom.center_trial(dom, prof,
                          QuadratureSpec("radial", samples=2048)).center
    if dom.shape == "implicit":
        assert abs(v[0] - v[1]) <= 1e-6 * dom.diameter()
    elif on_axis:
        assert np.all(np.abs(v[1:]) <= 1e-9)


def test_implicit_volume_from_the_radial_rule():
    # the L-shape's volume is 4 - (1 - c)^2; its re-entrant corner and the
    # bbox edges are crossings the ray cast must find
    for c in (0.0, 0.05, 0.1):
        expr = f"(abs(x) <= 1) & (abs(y) <= 1) & ~((x > {c}) & (y > {c}))"
        dom = geom.implicit_domain(2, expr, (-1, 1, -1, 1))
        assert abs(dom.volume - (4.0 - (1.0 - c) ** 2)) <= dom.volume_error
        assert dom.volume_error <= 1e-4 * dom.volume
    ball3 = geom.implicit_domain(3, "x**2 + y**2 + z**2 <= 1",
                                 (-1, 1, -1, 1, -1, 1))
    assert ball3.volume == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def oracle_series(table, R):
    # the radial table's profiles and G by the written-out Horner sum, one
    # profile at a time over all of R: the arithmetic that
    # _RadialTable._horner must reproduce bit for bit
    return [series_reference(table, gu, R) for gu in table.gus]


def oracle_G(table, d):
    return lambda R: [series_reference(table, gu, R, d) for gu in table.gus]


def oracle_ray_sums(sign, Gt):
    # each ray's sum of sign x G from +0.0, left to right: the order that
    # _ray_sums keeps (test_cli.py pins the bytes of the quotient outputs)
    out = np.zeros(len(Gt))
    for j in range(Gt.shape[1]):
        out = out + sign[:, j] * Gt[:, j]
    return out


def oracle_rows(W, hits, G):
    return [W @ np.concatenate(s) for s in zip(*(
        [oracle_ray_sums(sign, Gt) for Gt in G(t)] for t, sign in hits))]


@st.composite
def radial_cases(draw):
    # a random table of 1-3 profiles (values of either sign, so G and the
    # ray sums change sign and give signed zeros), and crossings of k = 1
    # to 6 columns: zero radii anywhere, each ray's signs +-1 then 0 on
    # the padding, as an implicit cast leaves them (t = 0 there)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from((2, 3)))
    cells = draw(st.sampled_from((16, 64)))
    panels = draw(st.sampled_from((3, 64, 71)))
    umax = draw(st.floats(0.5, 3.0))
    k = draw(st.integers(1, 6))
    tables = draw(st.integers(1, 3))
    u = geom._panel_nodes(umax, panels)
    table = geom._RadialTable(
        u, [rng.standard_normal(u.shape) for _ in range(tables)], panels)
    W = geom._sphere_rule(d, cells)[1]
    m = int(np.count_nonzero(W[0] > 0.0))
    hits = []
    for rays in (m, W.shape[1] - m):
        t = rng.uniform(0.0, umax, (rays, k))
        t[rng.random((rays, k)) < draw(st.sampled_from((0.0, 0.3, 1.0)))] = 0.0
        sign = rng.choice((-1.0, 1.0), (rays, k))
        pad = np.arange(k) >= rng.integers(0, k + 1, rays)[:, None]
        t[pad], sign[pad] = 0.0, 0.0
        hits.append((t, sign))
    return d, cells, table, W, hits


@settings(max_examples=60, deadline=None)
@given(radial_cases())
def test_radial_table_and_ray_sums_keep_the_oracle_bits(case):
    d, cells, table, W, hits = case
    G, ref = table.G(d), oracle_G(table, d)
    for t, _ in hits:
        for got, want in zip(G(t), ref(t)):
            assert np.array_equal(bits(got), bits(want))
    # the grid and mc evaluation of the profiles
    u = np.concatenate([hits[0][0].ravel(), [0.0, table.top / table.panels]])
    for got, want in zip(table(u), oracle_series(table, u)):
        assert np.array_equal(bits(got), bits(want))
    rays = geom._Rays(geom.ball(d), cells, np.zeros(d))
    rays._hits = hits
    for got, want in zip(rays.rows(G), oracle_rows(W, hits, ref)):
        assert np.array_equal(bits(got), bits(want))
    (t, sign), w = hits[0], W[0, :len(hits[0][0])]
    for got, want in zip(rays.main(G)[1], ref(t)):
        assert np.array_equal(bits(got), bits(w * oracle_ray_sums(sign, want)))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from((1, 5, 300)),
       k=st.integers(1, 10))
def test_ray_sums_add_each_ray_left_to_right(seed, m, k):
    # signed zeros, exact cancellations and sign-0 padding, against each
    # ray's sum added on Python floats from +0.0, left to right
    rng = np.random.default_rng(seed)
    Gt = rng.choice((0.0, -0.0, 1.0, -1.0, 3.0), (m, k)) \
        * rng.choice((1.0, 1.0 + 2.0**-52), (m, k))
    Gt[:, ::2] += rng.standard_normal((m, (k + 1) // 2)) \
        * rng.integers(0, 2, (m, (k + 1) // 2))
    row = np.array([1.0, -1.0] * k)[:k]    # a library shape's broadcast signs
    for sign in (rng.choice((-1.0, 0.0, 1.0), (m, k)),
                 np.broadcast_to(row, (m, k))):
        want = []
        for srow, grow in zip(sign.tolist(), Gt.tolist()):
            acc = 0.0
            for s, g in zip(srow, grow):
                acc += s * g
            want.append(acc)
        assert np.array_equal(bits(geom._ray_sums(sign, Gt)), bits(want))
