import ast
import hashlib
import math
import re
import time
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from freeplate import ball as ballmod
from freeplate import cli, geom, specfun, trial
from freeplate.geom import QuadratureSpec

from oracles import legendre_to_power, mp_gauss_gegenbauer


def profile(d=2, tau=1.0):
    return trial.TrialProfile(ballmod.fundamental_tone(tau, d))


def test_unit_ball_volumes():
    assert geom.unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert geom.unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-15)
    assert geom.unit_ball_volume(4) == pytest.approx(math.pi**2 / 2, rel=1e-15)
    assert geom.unit_ball_volume(5) == pytest.approx(8 * math.pi**2 / 15, rel=1e-15)


def test_factory_volumes_are_closed_form():
    assert geom.ball(3, 2.0).volume == pytest.approx(32 * math.pi / 3, rel=1e-14)
    assert geom.ellipsoid(2, (2.0, 0.5)).volume == pytest.approx(math.pi, rel=1e-14)
    s = math.sqrt(math.pi)
    assert geom.box(2, (s, s)).volume == pytest.approx(math.pi, rel=1e-14)
    ann = geom.annulus(2, 0.6, math.sqrt(1.36))
    assert ann.volume == pytest.approx(math.pi, rel=1e-14)
    tb = geom.two_balls(2, (0.5, 0.5), ((-1.0, 0.0), (1.0, 0.0)))
    assert tb.volume == pytest.approx(math.pi / 2, rel=1e-14)
    assert tb.volume_error == 0.0
    # a ball inside the other: the union is the larger ball
    for d in (2, 3, 4):
        tb = geom.two_balls(d, (0.3, 1.2), (np.zeros(d), np.full(d, 0.1)))
        larger = math.pi ** (d / 2) / math.gamma(d / 2 + 1) * 1.2**d
        assert tb.volume == pytest.approx(larger, rel=1e-15)


def test_two_balls_overlap_volume_matches_lens_formula():
    # union of two unit disks at distance 1: 2 pi minus the lens area
    dist = 1.0
    lens = 2 * math.acos(dist / 2) - (dist / 2) * math.sqrt(4 - dist**2)
    union = 2 * math.pi - lens
    tb = geom.two_balls(2, (1.0, 1.0), ((-0.5, 0.0), (0.5, 0.0)))
    assert tb.volume == pytest.approx(union, rel=1e-14)
    assert tb.volume_error == 0.0
    # 3-d: the sphere-sphere lens at center distance c (Weisstein,
    # Sphere-Sphere Intersection), subtracted from the two ball volumes
    for r1, r2, c in ((1.0, 0.7, 0.5), (1.0, 1.0, 1.0), (0.6, 1.1, 1.2),
                      (1.0, 0.3, 0.75)):
        lens = (math.pi * (r1 + r2 - c) ** 2
                * (c**2 + 2 * c * r2 - 3 * r2**2 + 2 * c * r1 + 6 * r1 * r2
                   - 3 * r1**2) / (12 * c))
        union = 4 * math.pi / 3 * (r1**3 + r2**3) - lens
        tb = geom.two_balls(3, (r1, r2), ((0.0, 0.0, 0.0), (c, 0.0, 0.0)))
        assert tb.volume == pytest.approx(union, rel=1e-14)
        assert tb.volume_error == 0.0


def _mp_two_balls_volume(d, r1, r2, c):
    # the union of two overlapping d-balls, each cut by the radical plane:
    # the part of a ball of radius r on its own side of a plane at signed
    # distance x from its center is |B| r^d (1 + sgn(x) (1 - I)) / 2, with
    # I = I(1 - x^2/r^2) the regularized incomplete beta function of
    # ((d+1)/2, 1/2), the cap beyond the plane
    r1, r2, c = mp.mpf(r1), mp.mpf(r2), mp.mpf(c)
    a, half = mp.mpf(d + 1) / 2, mp.mpf(1) / 2

    def side(r, x):
        part = 1 - mp.betainc(a, half, 0, 1 - (x / r) ** 2, regularized=True)
        return mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2 + 1) * r**d \
            * (1 + mp.sign(x) * part) / 2

    x1 = (c**2 + r1**2 - r2**2) / (2 * c)
    return side(r1, x1) + side(r2, c - x1)


def test_two_balls_volume_matches_mpmath():
    # d = 2..10 against 30-digit mpmath: equal balls, a small ball mostly
    # inside a large one (its radical plane past its center), and balls
    # that barely overlap
    cases = ((1.0, 1.0, 1.0), (1.0, 0.5, 1.2), (1.0, 0.5, 0.6),
             (0.3, 1.2, 1.45), (1.0, 1.0, 1.999), (1.0, 0.2, 0.81),
             (0.7, 1.3, 0.65))
    with mp.workdps(30):
        for d in range(2, 11):
            for r1, r2, c in cases:
                far = np.zeros(d)
                far[0] = c
                got = geom.two_balls(d, (r1, r2), (np.zeros(d), far)).volume
                ref = _mp_two_balls_volume(d, r1, r2, c)
                assert abs(got - ref) <= 1e-14 * ref, (d, r1, r2, c)


def test_contains_matches_analytic_predicates():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2.5, 2.5, size=(4000, 2))
    el = geom.ellipsoid(2, (2.0, 0.5), center=(0.1, -0.2))
    y = (pts - np.array([0.1, -0.2])) / np.array([2.0, 0.5])
    assert np.array_equal(el.contains(pts), np.sum(y**2, axis=1) <= 1.0)
    bx = geom.box(2, (1.0, 3.0), center=(0.5, 0.0))
    m = (np.abs(pts[:, 0] - 0.5) <= 0.5) & (np.abs(pts[:, 1]) <= 1.5)
    assert np.array_equal(bx.contains(pts), m)
    ann = geom.annulus(2, 0.6, 1.2)
    r = np.linalg.norm(pts, axis=1)
    assert np.array_equal(ann.contains(pts), (r >= 0.6) & (r <= 1.2))
    tb = geom.two_balls(2, (0.5, 1.0), ((-1.0, 0.0), (1.0, 0.0)))
    m = (np.linalg.norm(pts - np.array([-1.0, 0.0]), axis=1) <= 0.5) | \
        (np.linalg.norm(pts - np.array([1.0, 0.0]), axis=1) <= 1.0)
    assert np.array_equal(tb.contains(pts), m)


def test_bbox_bounds_every_member():
    doms = [geom.ball(2, 1.3, (0.4, -0.1)),
            geom.ellipsoid(2, (2.0, 0.5)),
            geom.annulus(2, 0.6, 1.2, (1.0, 1.0)),
            geom.two_balls(2, (0.5, 1.0), ((-1.0, 0.0), (1.0, 0.0)))]
    rng = np.random.default_rng(5)
    for dom in doms:
        lo, hi = np.asarray(dom.bbox[0]), np.asarray(dom.bbox[1])
        pts = rng.uniform(lo - 1.0, hi + 1.0, size=(3000, dom.d))
        inside = dom.contains(pts)
        assert np.all(pts[inside] >= lo - 1e-12)
        assert np.all(pts[inside] <= hi + 1e-12)
        assert dom.diameter() == pytest.approx(float(np.linalg.norm(hi - lo)))


def test_factory_rejections():
    with pytest.raises(ValueError):
        geom.ball(2, 0.0)
    with pytest.raises(ValueError):
        geom.ellipsoid(2, (1.0, -1.0))
    with pytest.raises(ValueError):
        geom.ellipsoid(3, (1.0, 1.0))
    with pytest.raises(ValueError):
        geom.annulus(2, 1.2, 0.6)
    with pytest.raises(ValueError):
        geom.ball(2, 1.0, center=(0.0, 0.0, 0.0))


def test_implicit_domain_basics():
    dom = geom.implicit_domain(2, "x**2 + y**2 <= 1", (-1, 1, -1, 1))
    assert dom.volume == pytest.approx(math.pi, abs=4 * dom.volume_error)
    known = geom.implicit_domain(2, "x**2 + y**2 <= 1", (-1, 1, -1, 1),
                                 volume=math.pi)
    assert known.volume == math.pi and known.volume_error == 0.0
    hi = geom.implicit_domain(4, "x1**2 + x2**2 + x3**2 + x4**2 <= 1",
                              (-1, 1) * 4, volume=geom.unit_ball_volume(4))
    assert bool(hi.contains(np.zeros((1, 4)))[0])
    assert not bool(hi.contains(np.full((1, 4), 0.9))[0])
    with pytest.raises(ValueError, match="empty"):
        geom.implicit_domain(2, "x > 2", (-1, 1, -1, 1))
    with pytest.raises(ValueError, match="parse"):
        geom.implicit_domain(2, "x +* y", (-1, 1, -1, 1))
    with pytest.raises(ValueError, match="boolean"):
        geom.implicit_domain(2, "x + y", (-1, 1, -1, 1), volume=1.0)
    with pytest.raises(ValueError):
        geom.implicit_domain(2, "__import__('os')", (-1, 1, -1, 1))
    # and, or, not and a chained comparison take the truth value of an
    # array; they fail at construction, given a volume or not
    for expr in ("(-1 < x < 1) & (y*y < 0.5)",
                 "(x*x < 0.5) and (y*y < 0.5)", "(x*x < 0.5) or (y > 0)",
                 "not (x*x + y*y > 1)"):
        for volume in (2.0, None):
            with pytest.raises(ValueError, match=r"&, \|, ~.*\(a < x\) & "
                                                 r"\(x < b\)"):
                geom.implicit_domain(2, expr, (-1, 1, -1, 1), volume)


# expressions outside the implicit grammar (docs/domains.md); each of them
# but the first two was accepted before the grammar was checked, and the
# last read geom's module globals through a generator's frame
ESCAPES = (
    "x.tofile({probe!r}) < 1", "__import__('os')", "(w := x) < 1",
    "(lambda: x)() < 1", "[v for v in (x, y)][0] < 1", "x[...] < 1",
    "(x < 1) & ('a' < 'b')", "hypot(x, y=y) < 1", "(x < 1) & True",
    "x // 2 < 1", "x % 2 < 1", "(x < 1) ^ (y < 1)", "(x < 1) * 1 < 2",
    "(x.size > 0) & (x < 1)",
    "(x*x + y*y <= 1) & ((x == x) == [(L := []), L.append("
    "(z.gi_frame.f_back.f_back.f_globals.get('np') is not None for z in L)),"
    " [*L[0]]][2][0])",
)
# and, or, not and chained comparisons, refused with the hint to use &, |, ~
TRUTH = ("(-1 < x < 1) & (y*y < 0.5)", "(x*x < 0.5) and (y*y < 0.5)",
         "(x*x < 0.5) or (y > 0)", "not (x*x + y*y > 1)", "-1 < x < 1",
         "(-1 < x) and (x < 1)")


def test_implicit_grammar_is_checked_before_evaluation(monkeypatch, tmp_path,
                                                       capsys):
    # each escape raises on all three construction paths, a config in the
    # CLI exits 2, and no expression is evaluated on the way
    calls = []
    monkeypatch.setattr(geom, "_eval_implicit",
                        lambda *args: calls.append(args))
    probe, cfg = tmp_path / "probe", tmp_path / "d.cfg"
    for expr in [e.format(probe=str(probe)) for e in ESCAPES] + list(TRUTH):
        with pytest.raises(ValueError, match="^implicit expr"):
            geom.implicit_domain(2, expr, (-1, 1, -1, 1))
        cfg.write_text(f"shape=implicit\ndim=2\nexpr={expr}\n"
                       "bounds=-1,1,-1,1\nvolume=1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^implicit expr"):
            geom.load_domain(str(cfg))
        assert cli.main(["quotient", "--domain", str(cfg), "--tau", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: implicit expr")
        with pytest.raises(ValueError, match="^implicit expr"):
            geom.Domain(2, "implicit", {"expr": expr}, (0.0, 0.0), 1.0, 1.0,
                        0.0, ((-1.0, -1.0), (1.0, 1.0)))
    assert calls == [] and not probe.exists()
    # nesting past the walk's recursion is refused too
    with pytest.raises(ValueError, match="does not parse"):
        geom.implicit_domain(2, "x" + " + x" * 2000 + " < 1", (-1, 1, -1, 1))


def test_int_powers_overflow_at_once(capsys, tmp_path):
    # int literals evaluate as floats, so a tower of ** between them
    # overflows on its first evaluation (as exact ints, 10**10**7 took
    # 7.5 s, 20-30x more per decade of the exponent, and 9**9**9**9 did
    # not return); a literal past the float range does not parse
    cfg = tmp_path / "tower.cfg"
    for expr in ("x < 10**10**7", "x < 9**9**9**9", "x < " + "9" * 400):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^implicit expr"):
            geom.implicit_domain(2, expr, (-1, 1, -1, 1))
        assert time.perf_counter() - start < 1.0
        for extra in ("", "volume=1\n"):
            cfg.write_text(f"shape=implicit\ndim=2\nexpr={expr}\n"
                           f"bounds=-1,1,-1,1\n{extra}", encoding="utf-8")
            assert cli.main(["quotient", "--domain", str(cfg),
                             "--tau", "1"]) == 2
            assert capsys.readouterr().err.startswith("error: implicit expr")


def _written_expressions():
    # every implicit expression written out in tests/, docs/domains.md, the
    # README and bench/workloads.py: string literals that parse, compare
    # and read a coordinate and only coordinates, pi and functions (or the
    # text after expr= in a config), f-strings with 0.5 for each field, and
    # in the markdown the expr= lines and code spans; with the dimension
    # their names need
    root = Path(__file__).resolve().parents[1]
    texts = []
    for path in [*sorted((root / "tests").glob("*.py")),
                 root / "bench" / "workloads.py"]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                texts.append(node.value)
            elif isinstance(node, ast.JoinedStr):
                texts.append("".join(v.value if isinstance(v, ast.Constant)
                                     else "0.5" for v in node.values))
    for name in ("docs/domains.md", "README.md"):
        md = (root / name).read_text(encoding="utf-8")
        texts += re.findall(r"^expr=(.*)$", md, re.M)
        texts += re.findall(r"`([^`\n]+)`", md)
    coords = {"x", "y", "z"} | {f"x{k}" for k in range(1, 31)}
    functions = {"pi", *geom._FUNCTIONS}
    out = set()
    for text in texts:
        for expr in re.findall(r"expr=([^\n]*)", text) or [text]:
            try:
                tree = ast.parse(expr, mode="eval")
            except SyntaxError:
                continue
            names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            if any(isinstance(n, ast.Compare) for n in ast.walk(tree)) \
                    and names & coords and names <= coords | functions:
                d = max([int(n[1:]) for n in names if n[1:].isdigit()]
                        + [3 if "z" in names else 2])
                out.add((expr, d))
    return out


def test_implicit_grammar_accepts_every_written_expression():
    # the escapes and the truth-value cases are the only written
    # expressions the check refuses; 200 random CSG shapes pass it too
    written = _written_expressions()
    assert len(written) > 40
    refused = set(ESCAPES) | set(TRUTH)
    for expr, d in written:
        if expr not in refused:
            geom._checked(expr, d)
    rng = np.random.default_rng(5)
    for _ in range(200):
        geom._checked(_random_csg(rng, 3), 2)


def test_domains_need_finite_numbers():
    # the shape constructors check positivity, which NaN passes; the
    # Domain itself refuses a non-finite scale or volume
    for make in (lambda: geom.ball(2, float("nan")),
                 lambda: geom.ellipsoid(2, (math.inf, 1.0)),
                 lambda: geom.annulus(2, 0.5, math.inf),
                 lambda: replace(geom.ball(2), scale=math.inf),
                 lambda: replace(geom.ball(2), volume=math.inf)):
        with pytest.raises(ValueError, match="finite scale > 0 and volume"):
            make()
    # positions: centers, the two balls' centers and implicit bounds
    for make in (lambda: geom.ball(2, 1.0, center=(math.nan, 0.0)),
                 lambda: geom.box(2, (1.0, 1.0), center=(0.0, math.inf)),
                 lambda: geom.two_balls(2, (1.0, 1.0),
                                        ((0.0, 0.0), (math.nan, 3.0))),
                 lambda: geom.implicit_domain(2, "x * x + y * y <= 1",
                                              (-1, 1, -1, math.inf), 3.0)):
        with pytest.raises(ValueError, match="finite"):
            make()


def test_normalize_volume_examples():
    half = geom.normalize_volume(geom.ball(2, 2.0))
    assert half.scale == pytest.approx(0.5, rel=1e-15)
    assert half.volume == pytest.approx(math.pi, rel=1e-15)
    same = geom.normalize_volume(geom.ellipsoid(2, (2.0, 0.5)))
    assert same.scale == pytest.approx(1.0, rel=1e-15)
    grown = geom.normalize_volume(geom.box(2, (1.0, 1.0)))
    assert grown.scale == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    lo, hi = np.asarray(grown.bbox[0]), np.asarray(grown.bbox[1])
    assert np.allclose(hi - lo, math.sqrt(math.pi))
    with pytest.raises(ValueError, match="noisy"):
        geom.normalize_volume(replace(geom.ball(2), volume_error=1e-3))


def test_quadrature_spec_validation():
    # three fields; a kind alone takes its own count from the one table
    assert [f.name for f in fields(QuadratureSpec)] == ["kind", "samples",
                                                        "seed"]
    for kind, n in (("radial", 8192), ("grid", 1024), ("mc", 10**7)):
        assert QuadratureSpec(kind) == QuadratureSpec(kind, n, 7)
    with pytest.raises(TypeError):
        QuadratureSpec("grid", cells=64)
    with pytest.raises(ValueError):
        QuadratureSpec("simpson")
    with pytest.raises(ValueError):
        QuadratureSpec("grid", 1)
    # integer samples and seed, the seed nonnegative: a float count would
    # put the grid's last node on the bbox face, a seed of None would draw
    # an unseeded stream
    for kind in ("radial", "grid", "mc"):
        for field, bad in (("samples", 64.5), ("samples", 64.0),
                           ("samples", 1e6), ("samples", None),
                           ("samples", True), ("samples", -2),
                           ("samples", "64"), ("seed", None), ("seed", 2.5),
                           ("seed", True), ("seed", -1)):
            with pytest.raises(ValueError):
                QuadratureSpec(kind, **{field: bad})
    assert QuadratureSpec("mc", np.int64(64), np.int32(0)).seed == 0
    # the radial product rule has at least 2^d directions whatever count
    # is asked for, and refuses more than 2^20 before building any array
    with pytest.raises(ValueError, match="d = 30 needs 1073741824 "
                                         "directions.*--quad mc"):
        geom._sphere_rule(30, 8192)


def test_gauss_gegenbauer_rule_against_scipy_and_mpmath(monkeypatch):
    # every (n, alpha) that the default radial rule builds at d = 3..6.
    # Nodes against scipy's roots_gegenbauer; weights against 30-digit
    # mpmath, and against scipy only as far as scipy's own weights go
    # (4e-12 relative at n = 64 against the same mpmath reference). Then
    # the (80, 1/2) rule of ball.membrane_C: nodes against numpy's
    # Gauss-Legendre rule, weights against mpmath
    from scipy.special import roots_gegenbauer
    built = set()
    real = geom._gauss_gegenbauer

    def spy(n, alpha):
        built.add((n, alpha))
        return real(n, alpha)

    monkeypatch.setattr(geom, "_gauss_gegenbauer", spy)
    geom._sphere_rule.cache_clear()     # the rules are cached once built
    for d in range(3, 7):
        geom._sphere_rule(d, QuadratureSpec("radial").samples)
    assert (64, 0.5) in built and (3, 2.0) in built
    for n, alpha in sorted(built):
        t, w = real(n, alpha)
        t_sp, w_sp = roots_gegenbauer(n, alpha)
        t_mp, w_mp = mp_gauss_gegenbauer(n, alpha, t)
        np.testing.assert_allclose(t, t_sp, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(t, t_mp, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(w, w_mp, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(w, w_sp, rtol=1e-11, atol=0.0)
    assert ballmod._C_NODES == 80
    t, w = real(80, 0.5)
    t_lg, _ = np.polynomial.legendre.leggauss(80)
    np.testing.assert_allclose(t, t_lg, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(w, mp_gauss_gegenbauer(80, 0.5, t)[1],
                               rtol=1e-13, atol=0.0)


def test_gauss_rules_send_no_large_matrix_to_linalg(monkeypatch):
    # the rules of membrane_C (80 nodes) and of the default radial rules
    # take their nodes from an SVD of half the Jacobi matrix's size, so no
    # matrix over 40 on a side reaches np.linalg; an 80 x 80 eigenproblem
    # there left OpenBLAS's worker thread spinning for about 0.1 s
    shapes = []
    for name in dir(np.linalg):
        fn = getattr(np.linalg, name)
        if name.startswith("_") or isinstance(fn, type) or not callable(fn):
            continue

        def spy(*args, _fn=fn, **kwargs):
            shapes.extend(np.shape(a) for a in args
                          if isinstance(a, np.ndarray))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    for cached in (specfun._gauss_gegenbauer, ballmod.membrane_C,
                   geom._sphere_rule):
        cached.cache_clear()
    for d in range(2, 31):
        ballmod.membrane_C(d)
    for d in range(3, 7):
        geom._sphere_rule(d, 8192)
    assert (40, 40) in shapes
    assert max(max(shape) for shape in shapes) <= 40, sorted(set(shapes))


def integrate_radial(dom, f, quad, center=None):
    # the integral of the radial function f(|x - center|) over the domain
    # (center by default its offset) and its error estimate: the radial
    # rule's rows from a record at center, or the grid or mc node set
    c = np.asarray(dom.offset if center is None else center, dtype=float)
    if quad.kind == "radial":
        rays = geom._Rays(dom, quad.samples, c)
        u = geom._panel_nodes(max(float(t.max()) for t, _ in rays._cast()),
                              geom._PANELS)
        rows = rays.rows(geom._RadialTable(u, [f(u)], geom._PANELS).G(dom.d))
        return tuple(float(x) for x in geom._estimate(rows[0]))
    vals, errs, _ = geom._integrate(dom, lambda r: [f(r)], quad, c)
    return float(vals[0]), float(errs[0])


def test_integrate_radial_closed_forms():
    one = lambda r: np.ones_like(r)
    for d in (2, 3):
        dom = geom.ball(d)
        val, err = integrate_radial(dom, one, QuadratureSpec("radial", 1024))
        assert val == pytest.approx(geom.unit_ball_volume(d), rel=1e-12)
        val, err = integrate_radial(dom, lambda r: r**2,
                                    QuadratureSpec("radial", 1024))
        exact = d * geom.unit_ball_volume(d) / (d + 2)
        assert val == pytest.approx(exact, rel=1e-12)


def test_integrate_radial_grid_and_mc_agree():
    el = geom.ellipsoid(2, (2.0, 0.5))
    f = lambda r: r**2
    # second moment of the ellipse about its center
    exact = math.pi * 2.0 * 0.5 * (2.0**2 + 0.5**2) / 4
    gval, gerr = integrate_radial(el, f, QuadratureSpec("grid", 1024))
    assert gerr > 0.0
    assert abs(gval - exact) <= 5 * gerr + 1e-6
    mval, merr = integrate_radial(
        el, f, QuadratureSpec("mc", samples=10**6, seed=2))
    assert abs(mval - exact) <= 4 * merr
    assert abs(mval - gval) <= 4 * (merr + gerr)


def test_radial_quadrature_off_balls_and_off_center():
    f = lambda r: r**2
    el = geom.ellipsoid(2, (2.0, 0.5))
    exact = math.pi * 2.0 * 0.5 * (2.0**2 + 0.5**2) / 4
    val, err = integrate_radial(el, f, QuadratureSpec("radial", 1024))
    assert val == pytest.approx(exact, rel=1e-10)
    assert abs(val - exact) <= err
    # about an off-center point the second moment gains the parallel-axis
    # term |Omega| |c|^2
    for c in ((0.3, 0.0), (0.2, -0.1, 0.25)):
        dom = geom.ball(len(c))
        vol = dom.volume
        exact = vol * len(c) / (len(c) + 2) + vol * float(np.dot(c, c))
        val, err = integrate_radial(dom, f, QuadratureSpec("radial", 1024),
                                    center=c)
        assert val == pytest.approx(exact, rel=1e-10)
        assert abs(val - exact) <= err


def test_centering_recovers_translated_ball():
    prof = profile()
    dom = geom.ball(2, center=(0.3, 0.0))
    v = geom.center_trial(dom, prof).center
    assert np.linalg.norm(v - np.array([0.3, 0.0])) <= 1e-9
    v = geom.center_trial(dom, prof, QuadratureSpec("mc", samples=10**6,
                                                    seed=4)).center
    assert np.linalg.norm(v - np.array([0.3, 0.0])) <= 5e-3


def test_centering_on_an_asymmetric_domain():
    # L-shaped plate: square with the open positive quadrant removed
    dom = geom.implicit_domain(
        2, "(abs(x) <= 0.75) & (abs(y) <= 0.75) & ~((x > 0) & (y > 0))",
        (-0.75, 0.75, -0.75, 0.75), volume=27.0 / 16.0)
    v = geom.center_trial(dom, profile()).center
    assert -0.35 < v[0] < -0.05 and -0.35 < v[1] < -0.05
    # the domain is symmetric about the diagonal y = x
    assert abs(v[0] - v[1]) <= 0.01


def test_centering_argument_validation():
    prof = profile()
    dom = geom.ball(2)
    # a tolerance that can never be met is refused before any iteration
    for tol in (0.0, -1e-6, float("nan")):
        with pytest.raises(ValueError, match="tol must be positive"):
            geom.center_trial(dom, prof, tol=tol)
    shifted = geom.ball(2, center=(0.3, 0.0))
    v = geom.center_trial(shifted, prof, QuadratureSpec("radial", 1024)).center
    assert np.linalg.norm(v - np.array([0.3, 0.0])) <= 1e-9


def test_centering_reports_nonconvergence():
    dom = geom.implicit_domain(
        2, "(abs(x) <= 0.75) & (abs(y) <= 0.75) & ~((x > 0) & (y > 0))",
        (-0.75, 0.75, -0.75, 0.75), volume=27.0 / 16.0)
    with pytest.raises(RuntimeError, match="did not converge"):
        geom.center_trial(dom, profile(), QuadratureSpec("grid", 128),
                          tol=1e-300)


def test_every_quadrature_kind_centers_at_the_same_point():
    # the grid and mc node sets carry only the quotient's integrals; the
    # center is the zero of the default radial rule's field for every kind
    prof = profile()
    doms = [geom.normalize_volume(geom.two_balls(
                2, (0.6, 0.5), ((-0.5, 0.0), (0.5, 0.1)))),
            geom.implicit_domain(
                2, "(abs(x) <= 1) & (abs(y) <= 1) & ~((x > 0) & (y > 0))",
                (-1, 1, -1, 1), volume=3.0)]
    for dom in doms:
        v = geom.center_trial(dom, prof).center
        for quad in (QuadratureSpec("grid", 256),
                     QuadratureSpec("mc", samples=2 * 10**5, seed=5)):
            got = geom._quotient(dom, prof.mode, quad)
            at_v = geom._quotient(dom, prof.mode, quad, center=v)
            assert np.array(got).tobytes() == np.array(at_v).tobytes()


def test_box_chord_along_a_face_from_a_point_on_it():
    # along that face the slab quotients are 0/0; the face bounds nothing
    t, sign = geom.box(2, (2, 1)).crossings((-1, 0), [[0, 1]])
    assert np.array_equal(t, [[0.5, 0.0]]) and np.array_equal(sign, [[1, -1]])
    # a ray parallel to the faces from beside the box misses it
    t, _ = geom.box(2, (2, 1)).crossings((-2, 0), [[0, 1]])
    assert np.array_equal(t, [[0.0, 0.0]])


def l_shape(c=0.05):
    # the benchmark's implicit L-shape, normalized to unit-ball volume
    return geom.normalize_volume(geom.implicit_domain(
        2, f"(abs(x) <= 1) & (abs(y) <= 1) & ~((x > {c!r}) & (y > {c!r}))",
        (-1, 1, -1, 1), volume=4.0 - (1.0 - c) ** 2))


def exp_disc():
    # a disc that the exact cast's grammar does not take (exp), so the
    # sampled cast serves it
    return geom.implicit_domain(2, "exp(x*x + y*y) <= 2.7", (-1, 1, -1, 1),
                                volume=math.pi * math.log(2.7))


def test_ray_cast_is_row_separable():
    # a ray's crossings depend on the origin and its direction alone, not
    # on the other rays of the call, in the exact and in the sampled cast:
    # the subset of nearly horizontal rays has a shorter longest span than
    # the whole rule
    def trimmed(t, sign):
        k = int(np.max(np.sum(sign != 0.0, axis=1)))
        assert not np.any(sign[:, k:]) and not np.any(t[:, k:])
        return t[:, :k].tobytes(), sign[:, :k].tobytes()

    doms = [l_shape(), geom.implicit_domain(
        2, "(x*x + y*y <= 1) & (x*x + y*y >= 0.25)", (-1, 1, -1, 1),
        volume=0.75 * math.pi), exp_disc()]
    dirs, _ = geom._sphere_rule(2, 512)
    S = np.abs(dirs[:, 1]) < 0.1
    for dom in doms:
        lo, hi = np.asarray(dom.bbox[0]), np.asarray(dom.bbox[1])
        for o in (np.array([0.1, -0.2]), np.array([2.5, 0.4])):
            t_in, t_out = geom._slab(o - 0.5 * (lo + hi), dirs,
                                     0.5 * (hi - lo))
            span = t_out - t_in
            assert np.max(span[S]) < 0.95 * np.max(span)
            t, sign = dom.crossings(o, dirs)
            assert np.any(sign[S])
            assert trimmed(*dom.crossings(o, dirs[S])) == \
                trimmed(t[S], sign[S])


def test_implicit_contains_reads_every_layout_alike():
    # membership is computed column by column, so C-ordered, F-ordered and
    # strided points give one mask, the expression's own on (x - offset) /
    # scale, and a single (d,) point gives a bool
    dom = l_shape()
    rng = np.random.default_rng(31)
    pts = rng.uniform(-1.5, 1.5, size=(3001, 2))
    y = (pts - np.asarray(dom.offset)) / dom.scale
    x0, y0 = y[:, 0], y[:, 1]
    want = (abs(x0) <= 1) & (abs(y0) <= 1) & ~((x0 > 0.05) & (y0 > 0.05))
    wide = np.zeros((2 * len(pts), 5))
    wide[::2, 1:4:2] = pts
    for form in (pts, np.asfortranarray(pts), wide[::2, 1:4:2],
                 np.ascontiguousarray(pts.T).T):
        got = dom.contains(form)
        assert got.dtype == bool and np.array_equal(got, want)
    for i in range(5):
        one = dom.contains(pts[i])
        assert isinstance(one, bool) and one == want[i]
    with pytest.raises(ValueError, match="points must have d columns"):
        dom.contains(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="implicit expr failed"):
        geom.implicit_domain(2, "(x < 1) & (q < 1)", (-1, 1, -1, 1))


def l_shape_3d():
    # a cube less one corner octant, normalized to unit-ball volume
    return geom.normalize_volume(geom.implicit_domain(
        3, "(abs(x) <= 1) & (abs(y) <= 1) & (abs(z) <= 1)"
           " & ~((x > 0.1) & (y > 0.1) & (z > 0.1))",
        (-1, 1, -1, 1, -1, 1), volume=8.0 - 0.9**3))


def test_implicit_cast_is_the_same_alone_in_the_main_rows_and_past_a_chunk():
    # the sampled cast takes step-major blocks of at most _RAY_CHUNK points
    # and chunks the rays above _RAY_CHUNK of them, the exact cast one
    # column of pieces over all rays: a ray's crossings are the same bits
    # cast alone, within the rule's main rows and within a cast of more
    # than _RAY_CHUNK rays (where its copies sit at other indices)
    def rows(t, sign):
        k = np.sum(sign != 0.0, axis=1)
        assert not np.any(t[np.arange(t.shape[1]) >= k[:, None]])
        return [(t[i, :k[i]].tobytes(), sign[i, :k[i]].tobytes())
                for i in range(len(t))]

    for dom, o in ((l_shape(), (-0.1, -0.1)), (l_shape(), (2.5, 0.4)),
                   (l_shape_3d(), (-0.1, 0.2, -0.3)),
                   (exp_disc(), (0.1, -0.2))):
        dirs, W = geom._sphere_rule(dom.d, 8192)
        u = dirs[W[0] > 0.0]
        big = np.concatenate([u[::-1], u, u, u, u[::2]])
        assert len(big) > geom._RAY_CHUNK >= len(u)
        main = rows(*dom.crossings(o, u))
        assert any(tb for tb, _ in main)
        wide = rows(*dom.crossings(o, big))
        m = len(u)
        assert wide[m:2 * m] == main and wide[:m] == main[::-1]
        assert wide[4 * m:] == main[::2]
        for i in range(0, m, 331):
            assert rows(*dom.crossings(o, u[i:i + 1])) == [main[i]]


def _closed_form_crossings(lib, o, dirs):
    # the library shape's crossings per ray as ((t, sign), ...) in t
    # order, a segment that starts at the origin with its t = 0, empty
    # chords left out
    t, _ = lib.crossings(o, dirs)
    out = []
    for row in t:
        if lib.shape == "annulus":
            bo, ao, bi, ai = row
            segs = [(ao, bo)] if bi <= ai else [(ao, ai), (bi, bo)]
        elif lib.shape == "two-balls":
            segs = [(row[1], row[0]), (row[3], row[2])]
        else:
            segs = [(row[1], row[0])]
        out.append([x for a, b in segs if b > a
                    for x in ((a, -1.0), (b, 1.0))])
    return out


def test_implicit_twins_match_the_closed_forms():
    # implicit twins of the library ellipse, box, annulus, two balls and
    # 3-d ellipsoid, normalized alike, cross every ray of the main rows as
    # often as the closed forms and within 1e-13 diameters of them, on the
    # faces of a shape that touches its bbox too (the ellipse's second
    # origin has an exit 4.2e-11 diameters from a face, which the sampled
    # cast put on the face; the box lies on its bbox)
    cases = [
        (geom.ellipsoid(2, (2.0, 1.0)), "x*x/4 + y*y <= 1", (-2, 2, -1, 1),
         [(0.3, -0.2), (-1.5, 0.5), (2.5, 1.5)]),
        (geom.box(2, (1.8, 1.0)), "(abs(x) <= 0.9) & (abs(y) <= 0.5)",
         (-0.9, 0.9, -0.5, 0.5), [(0.3, -0.2), (-0.9, 0.1), (2.5, 1.5)]),
        (geom.annulus(2, 0.5, 1.0), "(x*x + y*y <= 1) & (x*x + y*y >= 0.25)",
         (-1, 1, -1, 1), [(0.1, -0.2), (0.0, 0.7), (2.5, 0.4)]),
        (geom.two_balls(2, (0.6, 0.5), ((-0.5, 0.0), (0.5, 0.1))),
         "((x + 0.5)**2 + y*y <= 0.36) | ((x - 0.5)**2 + (y - 0.1)**2 "
         "<= 0.25)", (-1.1, 1.0, -0.6, 0.6),
         [(0.0, 0.0), (-0.5, 0.3), (1.5, -0.8)]),
        (geom.ellipsoid(3, (1.5, 1.0, 0.7)), "x*x/2.25 + y*y + z*z/0.49 <= 1",
         (-1.5, 1.5, -1, 1, -0.7, 0.7),
         [(0.2, -0.1, 0.3), (-1.4, 0.0, 0.0), (0.0, 0.0, 1.5)]),
    ]
    for lib, expr, bounds, origins in cases:
        d = lib.d
        twin = geom.normalize_volume(geom.implicit_domain(d, expr, bounds,
                                                          volume=lib.volume))
        lib = geom.normalize_volume(lib)
        assert twin.scale == lib.scale and twin.bbox == lib.bbox
        assert geom._checked(expr, d)[1] is not None
        dirs, W = geom._sphere_rule(d, QuadratureSpec("radial").samples)
        u = dirs[W[0] > 0.0]
        diam = lib.diameter()
        for o in origins:
            o = lib.scale * np.asarray(o)
            want = _closed_form_crossings(lib, o, u)
            t, sign = twin.crossings(o, u)
            for i, row in enumerate(want):
                got = [(t[i, j], sign[i, j]) for j in range(t.shape[1])
                       if sign[i, j] != 0.0]
                assert [g[1] for g in got] == [w[1] for w in row]
                for (tg, _), (tw, _) in zip(got, row):
                    assert abs(tg - tw) <= 1e-13 * diam, (expr, o, i)


def test_exact_cast_finds_features_thinner_than_a_sample_step():
    # the sampled cast steps diameter / 256 along a ray, so it missed a
    # slit of width 0.002 (volume 3.99907 against 3.9968, bar 1.0e-4) and
    # the notch corner of the L-shape where two rays clip it
    dom = geom.implicit_domain(
        2, "(abs(x) <= 1) & (abs(y) <= 1) & ~((abs(y - 0.3) < 0.001) & "
           "(abs(x) < 0.8))", (-1, 1, -1, 1))
    assert abs(dom.volume - 3.9968) <= dom.volume_error < 1e-5
    # from (0.3, -0.5) a ray that leaves the normalized L through the
    # notch's lower edge y = c s before its left edge x = c s re-enters
    # at once: chords of 1.5e-3 and 2.7e-4 outside, then up to the top
    c, L = 0.05, l_shape()
    s, o = L.scale, np.array([0.3, -0.5])
    dirs, W = geom._sphere_rule(2, QuadratureSpec("radial").samples)
    u = dirs[W[0] > 0.0]
    with np.errstate(divide="ignore", invalid="ignore"):
        ta, tb = (c * s - o[1]) / u[:, 1], (c * s - o[0]) / u[:, 0]
    clip = np.flatnonzero((u[:, 0] < 0.0) & (u[:, 1] > 0.0)
                          & (tb > ta) & (tb - ta < 2e-3))
    assert np.allclose(tb[clip] - ta[clip], [1.509e-3, 2.745e-4], rtol=1e-3)
    assert np.allclose(u[clip], [-0.412, 0.911], atol=2e-3)
    t, sign = L.crossings(o, u[clip])
    for i, j in enumerate(clip):
        want = [0.0, ta[j], tb[j], (s - o[1]) / u[j, 1]]
        assert np.array_equal(sign[i], [-1.0, 1.0, -1.0, 1.0])
        assert np.all(np.abs(t[i] - want) <= 1e-13 * L.diameter())


def _random_csg(rng, depth):
    # a random &, |, ~ combination of discs, half-planes and boxes, written
    # with every function of the exact cast's grammar
    if depth == 0 or rng.random() < 0.3:
        cx, cy = (round(v, 3) for v in rng.uniform(-0.8, 0.8, 2))
        r, hx, hy = (round(v, 3) for v in rng.uniform(0.1, 0.9, 3))
        a, b = (round(v, 3) for v in rng.normal(size=2))
        return [f"((x - {cx})**2 + (y - {cy})**2 <= {r * r})",
                f"(hypot(x - {cx}, y - {cy}) < {r})",
                f"(sqrt((x - {cx}) * (x - {cx}) + y*y) >= {r})",
                f"({a} * x + {b} * y <= {cx})",
                f"(minimum(x - {cx}, {b} - y / 2) < 0)",
                f"((abs(x - {cx}) <= {hx}) & (abs(y - {cy}) < {hy}))",
                f"(maximum(abs(x - {cx}) / {hx}, abs(y) / {hy}) <= 1)",
                ][rng.integers(7)]
    op = rng.integers(3)
    if op == 2:
        return f"~{_random_csg(rng, depth - 1)}"
    return (f"({_random_csg(rng, depth - 1)} {'&|'[op]} "
            f"{_random_csg(rng, depth - 1)})")


def test_exact_cast_matches_dense_sampling_of_random_shapes():
    # every ray's segments, from the exact cast, against membership sampled
    # at 4001 points along the ray's span in the bbox (beyond it counts as
    # outside): they agree at every sample farther than 1e-12 from a
    # reported crossing, so no segment longer than a sample step is missed
    # or made up
    rng = np.random.default_rng(23)
    for _ in range(30):
        expr = _random_csg(rng, 3)
        assert geom._checked(expr, 2)[1] is not None, expr
        dom = geom.implicit_domain(2, expr, (-1, 1, -1, 1), volume=1.0)
        u = rng.normal(size=(48, 2))
        u /= np.linalg.norm(u, axis=1)[:, None]
        for o in (rng.uniform(-1.0, 1.0, 2), np.array([1.7, -1.2])):
            t, sign = dom.crossings(o, u)
            t_in, t_out = geom._slab(o, u, np.ones(2))
            for i in range(len(u)):
                tc, sc = t[i][sign[i] != 0.0], sign[i][sign[i] != 0.0]
                assert np.all(np.diff(tc) > 0.0) and np.all(sc[::2] == -1.0)
                assert np.all(sc[1::2] == 1.0) and len(sc) % 2 == 0
                if t_out[i] == t_in[i]:     # the ray misses the bbox
                    assert not len(sc)
                    continue
                ts = np.linspace(t_in[i], t_out[i], 4001)
                got = dom.contains(o + ts[:, None] * u[i])
                want = (-sc * (tc <= ts[:, None])).sum(axis=1) == 1
                gap = np.abs(ts[:, None] - tc).min(axis=1, initial=1.0)
                far = gap > 1e-12
                assert np.array_equal(got[far], want[far]), (expr, o, i)


def test_exact_cast_merges_the_roots_at_a_vertex():
    # a ray aimed at the vertex of two half-planes crosses both lines
    # there, at roots that rounding sets a few ulps apart: they are one
    # breakpoint, so no segment of zero length appears (unmerged, 30 of
    # these 300 rays had one)
    rng = np.random.default_rng(1)
    for _ in range(300):
        (a1, b1), (a2, b2) = rng.normal(size=(2, 2)).tolist()
        v = rng.uniform(-0.5, 0.5, 2)
        expr = (f"({a1!r} * x + {b1!r} * y <= {a1 * v[0] + b1 * v[1]}) "
                f"{'&|'[rng.integers(2)]} "
                f"({a2!r} * x + {b2!r} * y <= {a2 * v[0] + b2 * v[1]})")
        dom = geom.implicit_domain(2, expr, (-1, 1, -1, 1), volume=1.0)
        o = rng.uniform(-1.0, 1.0, 2)
        t, sign = dom.crossings(o, [(v - o) / np.linalg.norm(v - o)])
        tc = t[0][sign[0] != 0.0]
        assert np.all(tc[1::2] - tc[::2] > 1e-9), expr


def test_implicit_cast_evaluates_each_sample_once(monkeypatch):
    # one 8192-ray sampled cast evaluates the expression once per sampling
    # block of at most _RAY_CHUNK points, m (steps + 1) points in all, and
    # once per bisection round, always on 1-d contiguous coordinates (a
    # call per ray would make thousands of calls); past _RAY_CHUNK rays
    # the blocks still hold at most _RAY_CHUNK points
    dom = exp_disc()
    dirs, W = geom._sphere_rule(2, QuadratureSpec("radial").samples)
    u, o = dirs[W[0] > 0.0], np.array([-0.1, -0.1])
    lo, hi = np.asarray(dom.bbox[0]), np.asarray(dom.bbox[1])
    far = np.linalg.norm(np.maximum(np.abs(o - lo), np.abs(hi - o)))
    steps = math.ceil(min(far, dom.diameter()) * geom._RAY_STEPS
                      / dom.diameter())
    evaluate, rounds, sizes = geom._eval_implicit, geom._BISECTIONS, []

    def counting(expr, cols):
        assert all(c.ndim == 1 and c.flags.c_contiguous for c in cols)
        sizes.append(cols[0].size)
        return evaluate(expr, cols)

    monkeypatch.setattr(geom, "_eval_implicit", counting)
    for rays in (u, np.concatenate([u] * 5)):
        sizes.clear()
        t, sign = dom.crossings(o, rays)
        m = len(rays)
        samples, bisections = sizes[:-rounds], sizes[-rounds:]
        width = min(m, geom._RAY_CHUNK)
        assert sum(samples) == m * (steps + 1)
        assert max(samples) <= geom._RAY_CHUNK
        assert len(samples) == math.ceil(m / width) * math.ceil(
            (steps + 1) / (geom._RAY_CHUNK // width))
        assert len(set(bisections)) == 1
        assert 0 < bisections[0] <= np.count_nonzero(t)
    assert m > geom._RAY_CHUNK >= len(u)


def test_exact_cast_expression_call_budget(monkeypatch):
    # one 8192-ray L-shape cast calls the expression once per column of
    # pieces, on every ray and 1-d contiguous coordinates. Its atoms have
    # 6 roots along a ray (four faces and the notch's two edges), so a ray
    # has at most 7 pieces: at most 8 calls, where the sampled cast makes
    # one per block of samples and 45 bisection rounds (about 80)
    dom = l_shape()
    dirs, W = geom._sphere_rule(2, QuadratureSpec("radial").samples)
    u = dirs[W[0] > 0.0]
    (c1, _), (c2, _, _) = geom._checked(dom.params["expr"], 2)[1]
    pieces = 1 + len(c1) + 2 * len(c2)
    assert pieces == 7
    evaluate, sizes = geom._eval_implicit, []

    def counting(expr, cols):
        assert all(c.ndim == 1 and c.flags.c_contiguous for c in cols)
        sizes.append(cols[0].size)
        return evaluate(expr, cols)

    monkeypatch.setattr(geom, "_eval_implicit", counting)
    for o in ((-0.1, -0.1), (0.3, -0.5), (2.5, 0.4)):
        sizes.clear()
        t, sign = dom.crossings(np.array(o), u)
        assert np.any(sign)
        assert 1 <= len(sizes) <= pieces + 1
        assert set(sizes) == {len(u)}


def _two_ball_pairs(rng, d):
    # (radii, centers, kind) of disjoint, overlapping and nested pairs
    for kind in ("disjoint", "overlapping", "nested") * 3:
        r1, r2 = rng.uniform(0.3, 1.0, 2)
        lo, hi = {"disjoint": (r1 + r2, r1 + r2 + 1.0),
                  "overlapping": (abs(r1 - r2), r1 + r2),
                  "nested": (0.0, abs(r1 - r2))}[kind]
        e = rng.normal(size=d)
        c1 = rng.uniform(-1.0, 1.0, d)
        yield (r1, r2), (c1, c1 + rng.uniform(lo, hi) * e / np.linalg.norm(e)
                         ), kind


def _tangent_rays(rng, o, c, r):
    # two directions from o that touch the ball (c, r), o outside it
    e = c - o
    dist = np.linalg.norm(e)
    e /= dist
    w = rng.normal(size=len(o))
    w -= (w @ e) * e
    w /= np.linalg.norm(w)
    a = math.asin(r / dist)
    return [math.cos(a) * e + s * math.sin(a) * w for s in (1.0, -1.0)]


def test_two_balls_crossings_are_disjoint_segments():
    # the union of the two chords comes as two ordered, disjoint segments
    # (b1, a1, b2, a2) with sign +1 at an end and -1 at a start, (0, 0)
    # padding; for any F with F(0) = 0 their signed sum equals the
    # inclusion-exclusion of the two chords and their overlap. Random
    # disjoint, overlapping and nested pairs, origins in neither ball, one
    # or both, random rays, rays through the centers and tangent rays
    rng = np.random.default_rng(17)
    fs = (lambda t: t, lambda t: t**3 / 3.0, lambda t: 1.0 - np.cos(3.0 * t))
    seen = set()
    for d in (2, 3):
        for radii, centers, kind in _two_ball_pairs(rng, d):
            dom = geom.two_balls(d, radii, centers)
            lo, hi = np.asarray(dom.bbox[0]), np.asarray(dom.bbox[1])
            origins = [*centers, 0.5 * (centers[0] + centers[1])]
            origins += list(rng.uniform(lo - 0.5, hi + 0.5, size=(8, d)))
            for o in origins:
                inside = [np.linalg.norm(o - c) <= r
                          for c, r in zip(centers, radii)]
                seen.add((d, kind, sum(inside)))
                u = rng.normal(size=(256, d))
                rays = list(u / np.linalg.norm(u, axis=1)[:, None])
                for c, r, ins in zip(centers, radii, inside):
                    if np.linalg.norm(c - o) > 0.0:
                        rays.append((c - o) / np.linalg.norm(c - o))
                    if not ins:
                        rays += _tangent_rays(rng, o, c, r)
                u = np.array(rays)
                t, sign = dom.crossings(o, u)
                assert t.shape == (len(u), 4)
                assert np.array_equal(sign, np.broadcast_to([1.0, -1.0, 1.0,
                                                             -1.0], t.shape))
                b1, a1, b2, a2 = t.T
                one, two = b1 > a1, b2 > a2
                assert np.all(t >= 0.0)
                assert np.all(t[~one, :2] == 0.0)
                assert np.all(t[~two, 2:] == 0.0)
                assert np.all(one[two]) and np.all(b1[two] < a2[two])
                (p1, q1), (p2, q2) = (geom._chord(o - c, u, r)
                                      for c, r in zip(centers, radii))
                p12 = np.maximum(p1, p2)
                q12 = np.maximum(p12, np.minimum(q1, q2))
                for F in fs:
                    terms = [F(q1), -F(p1), F(q2), -F(p2), -F(q12), F(p12)]
                    got = np.sum(sign * F(t), axis=1)
                    assert np.all(np.abs(got - sum(terms))
                                  <= 1e-14 * sum(map(np.abs, terms)))
    for d in (2, 3):
        assert {(d, "disjoint", k) for k in (0, 1)} <= seen
        assert {(d, kind, k) for kind in ("overlapping", "nested")
                for k in (0, 1, 2)} <= seen


def test_implicit_crossings_are_pinned():
    # sha256 of the crossings' float.hex (t, then sign) from one origin
    # inside the bbox and one outside. The L-shape and the annulus take the
    # exact cast (recorded when it replaced the sampled one for them); the
    # expressions with sin, a cube and a division by a coordinate lie
    # outside its grammar and keep the sampled cast's bits, recorded
    # before the exact cast existed
    pinned = {
        ("l", 0): "0c53871ea69c54b1e30a1433a48539b0"
                  "2aa6c9f7fc1f9149f5ba0288667f5aab",
        ("l", 1): "8a48209d8cc278d8b3302bad783a17cc"
                  "6d62211f45e944d182ede81096e1ea7b",
        ("annulus", 0): "e330e2b4a53304b1df208a439e2c1e09"
                        "35326534be82095008c87008c891b112",
        ("annulus", 1): "5386b2b3c63557a805a092085c5fa881"
                        "ec9e4a02bab4877d20d50817b242e7b0",
        ("sin", 0): "21bfd3d83964aae2967143bdaf80b2bc"
                    "1dd68b33a3a26abf0ff2f4789e43ecbd",
        ("sin", 1): "7d7023e1c9fa6fa3d6cbd46f539fdd2a"
                    "8ea03c7b2d274f2cfd864d78d4f91ce9",
        ("cube", 0): "fb463dcf4818c48d2b2ce81f7840a72b"
                     "c478a47fd02fef671f17e73823f369d5",
        ("cube", 1): "88d300132a68c71a276426dcf7de2405"
                     "3ebc03b5b5fa9136401c35990523c61f",
        ("over-x", 0): "5469317b1cfc20eaace67cd089554930"
                       "ef5339e335e639fde2de80872e68c7e0",
        ("over-x", 1): "2fb653ae88b1794ac1bee4649aa5d96c"
                       "ceaeb9f1f25ff4ed39fcc41aac9dc9fc",
    }
    sampled = {"sin": "(sin(3*x) + y*y <= 0.5) & (x*x <= 0.8)",
               "cube": "x*x*x + y*y <= 0.4",
               "over-x": "y*y/(x + 2) + x*x <= 0.5"}
    doms = {"l": l_shape(), "annulus": geom.implicit_domain(
        2, "(x*x + y*y <= 1) & (x*x + y*y >= 0.25)", (-1, 1, -1, 1),
        volume=0.75 * math.pi)}
    for name, expr in sampled.items():
        assert geom._checked(expr, 2)[1] is None
        doms[name] = geom.implicit_domain(2, expr, (-1, 1, -1, 1), volume=1.0)
    dirs, _ = geom._sphere_rule(2, 512)
    for (name, k), digest in pinned.items():
        t, sign = doms[name].crossings(((0.1, -0.2), (2.5, 0.4))[k], dirs)
        text = " ".join(float(v).hex() for v in np.concatenate(
            [t.ravel(), sign.ravel()]))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (name, k)


def test_centering_stays_on_the_mirror_of_a_thin_l_shape():
    # the arms' ends lie on bbox faces: with the end samples on the faces,
    # rounding found a chord at an arm's tip on one ray and missed it on
    # the mirrored one, so the first case's center left the diagonal by
    # 6e-6 and the second's centering did not converge
    for c, tau in ((-0.76171875, 0.01), (-0.65625, 1.0)):
        dom = l_shape(c)
        prof = trial.TrialProfile(ballmod.fundamental_tone(tau, 2))
        v = geom.center_trial(dom, prof,
                              QuadratureSpec("radial", samples=2048)).center
        assert abs(v[0] - v[1]) <= 1e-12 * dom.diameter()


def two_balls_2d():
    return geom.normalize_volume(geom.two_balls(
        2, (0.6, 0.5), ((-0.5, 0.0), (0.5, 0.1))))


def two_balls_3d():
    return geom.normalize_volume(geom.two_balls(
        3, (1.0, 0.8), ((-0.3, 0.0, 0.0), (0.4, 0.1, 0.0))))


def test_quotient_reusing_the_centering_cast_changes_nothing():
    # the quotient casts only the companion rows and takes the main rows
    # from the centering's last cast; a fresh cast from the same center
    # gives the same bits
    for dom in (l_shape(), two_balls_2d(), two_balls_3d()):
        quad = QuadratureSpec("radial")
        mode = ballmod.fundamental_tone(1.7, dom.d, 1.0)
        v = geom.center_trial(dom, trial.TrialProfile(mode), quad).center
        got = geom._quotient(dom, mode, quad)
        fresh = geom._quotient(dom, mode, quad, center=v)
        assert np.array(got).tobytes() == np.array(fresh).tobytes()


def test_trial_center_quotients_are_pinned():
    # (Q, error bar) of _quotient at the trial center, tau = 1, as
    # float.hex; no CLI pin covers the 3-d two-balls. Re-recorded for the
    # Bessel sweep whose orders up to s + 5 start from a base above s + 5
    # (old -> new): l Q 0x1.9b65ee2a00c4cp+1 -> 0x1.9b65ee2a00c4fp+1 (3
    # ulps), error bar 0x1.39c96eb1b65eep-17 -> 0x1.39c96eb1265eep-17; tb2
    # Q 0x1.77ece0d0ad956p+1 -> 0x1.77ece0d0ad958p+1 (2 ulps), error bar
    # 0x1.066e46ef77670p-16 -> 0x1.066e46ef2f670p-16; tb3 Q
    # 0x1.2fddd09b6483ap+2 -> 0x1.2fddd09b6483ep+2 (4 ulps), error bar
    # 0x1.92088dc6fddd1p-16 -> 0x1.92088dc74ddd1p-16
    pinned = {
        "l": ("0x1.9b65ee2a00c4fp+1", "0x1.39c96eb1265eep-17"),
        "tb2": ("0x1.77ece0d0ad958p+1", "0x1.066e46ef2f670p-16"),
        "tb3": ("0x1.2fddd09b6483ep+2", "0x1.92088dc74ddd1p-16"),
    }
    for name, dom in (("l", l_shape()), ("tb2", two_balls_2d()),
                      ("tb3", two_balls_3d())):
        Q, err = geom._quotient(dom, profile(dom.d).mode, None)
        assert (Q.hex(), err.hex()) == pinned[name]


def test_centered_quotient_casts_each_ray_once(monkeypatch):
    # every Newton cast casts the rule's main rows; the quotient adds only
    # the companion rows (the parent of this budget cast all rows again)
    dom = l_shape()
    calls = []
    crossings = geom.Domain.crossings

    def counting(self, origin, dirs):
        calls.append(len(dirs))
        return crossings(self, origin, dirs)

    monkeypatch.setattr(geom.Domain, "crossings", counting)
    geom._sphere_rule.cache_clear()
    geom._quotient(dom, ballmod.fundamental_tone(1.0, 2, 1.0), None)
    # one rule serves every Newton step and the quotient
    assert geom._sphere_rule.cache_info().misses == 1
    dirs, W = geom._sphere_rule(2, QuadratureSpec("radial").samples)
    main = int(np.sum(W[0] > 0.0))
    assert calls == [main] * 3 + [len(dirs) - main]
    assert sum(calls) == 32768
    # in 3-d the companions are the half rule and the turned rule; the
    # symmetric ellipsoid is not centered, so the quotient casts both parts
    for dom, want in ((two_balls_3d(), [8192, 8192, 8192, 10240]),
                      (geom.normalize_volume(geom.ellipsoid(3, (1.5, 1.5, 1))),
                       [8192, 10240])):
        calls.clear()
        geom._quotient(dom, ballmod.fundamental_tone(1.7, 3, 1.0), None)
        assert calls == want


def test_centered_quotient_evaluates_the_profile_once(monkeypatch):
    # the centering's profile pass, on the panel nodes to the diameter and
    # at the diameter (the default tol), also gives the quotient's tables
    # (the parent of this budget made 3 passes: tol, centering, quotient)
    calls = []
    pieces = trial._eval_pieces

    def counting(prof, r, deriv=2):
        calls.append(len(r))
        return pieces(prof, r, deriv)

    monkeypatch.setattr(trial, "_eval_pieces", counting)
    for dom in (two_balls_2d(), l_shape()):
        calls.clear()
        geom._quotient(dom, profile(dom.d).mode, None)
        assert len(calls) == 1


def test_implicit_volume_is_pinned():
    # the radial reduction of f = 1 about the bbox center, as float.hex of
    # (volume, volume_error) for an implicit disk and 3-d ball; the ball's
    # error re-recorded for the exact cast (0x1.30152382d736bp-44 from the
    # sampled one, both near the rules' rounding floor)
    for d, expr, pinned in (
            (2, "x**2 + y**2 <= 1",
             ("0x1.921fb54442d60p+1", "0x1.921fb54442d60p-45")),
            (3, "x**2 + y**2 + z**2 <= 1",
             ("0x1.0c152382d736bp+2", "0x1.2d152382d736bp-44"))):
        dom = geom.implicit_domain(d, expr, (-1, 1) * d)
        assert (dom.volume.hex(), dom.volume_error.hex()) == pinned


def profile_table(prof, umax):
    # the centering's three tables, rho, rho' and rho / r, on [0, umax]
    n = geom._panels(prof)
    u = geom._panel_nodes(umax, n)
    pc = trial._eval_pieces(prof, u.ravel())
    return geom._RadialTable(u, (pc["rho"], pc["d1"], pc["p"]), n)


def series_reference(table, gu, R, d=None):
    # one profile's table at R by Horner's rule written out over all of R
    # at once, its power-basis coefficients from the exact Legendre to
    # power matrix: the profile itself for d None, else
    # G(R) = int_0^R g(u) u^(d-1) du, the panels left of R's panel summed
    # into the constant coefficient and exactly 0 at R = 0 and -0.0
    n = table.panels
    P = legendre_to_power(geom._GAUSS_NODES + 1)
    if d is None:
        c = P[:-1, :-1] @ (gu @ geom._TO_SERIES.T).T
    else:
        y = gu * table.u ** (d - 1)
        c = P @ ((0.5 / n) * (y @ geom._TO_INTEGRAL.T)).T
        c[0, 1:] += (np.cumsum(y @ geom._NODE_WEIGHTS) * (0.5 / n))[:-1]
    j = np.minimum((R * n).astype(int), table.top - 1)
    x = 2.0 * (R * n - j) - 1.0
    out = c[-1, j]
    for k in range(len(c) - 2, -1, -1):
        out = out * x + c[k, j]
    return out if d is None else np.where(R == 0.0, 0.0, out)


def test_radial_table_shares_one_basis_bit_for_bit():
    # one panel index and Horner pass serve every profile of a table, and
    # each profile's values are those of a one-profile table and of the
    # written-out Horner sum. Neither the chunks of _SERIES_CHUNK radii nor
    # G's skipped zero radii move a bit: at the panel edge u = 1, in the
    # last panel and at its end, on -0.0, for 1-d and (m, k) radii, and at
    # sizes below, at and above a chunk
    prof = profile(tau=2.0)
    table = profile_table(prof, 2.3)
    n, d = table.panels, 3
    end = table.top / n
    rng = np.random.default_rng(11)
    inputs = [np.concatenate([[0.0, 1.0, 1.0 - 1e-16, end, end - 0.5 / n],
                              rng.uniform(0.0, end, 3000),
                              rng.uniform(end - 1.0 / n, end, 200)])]
    edges = [0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
             end - 1.0 / n, end - 0.5 / n, end]
    chunk = geom._SERIES_CHUNK
    for size in (chunk - 4, chunk, chunk + 4, 3 * chunk + 8):
        R = rng.uniform(0.0, end, size)
        R[rng.random(size) < 0.5] = 0.0
        R[rng.random(size) < 0.1] = -0.0
        R[:len(edges)] = edges
        inputs += [R, R.reshape(-1, 4)]
    G = table.G(d)
    own = [geom._RadialTable(table.u, [gu], n) for gu in table.gus]
    own_G = [t.G(d) for t in own]
    for R in inputs:
        shared_G, shared_g = G(R), table(R)
        assert len(shared_G) == len(shared_g) == 3
        for i, gu in enumerate(table.gus):
            for got, alone, ref in (
                    (shared_G[i], own_G[i](R)[0],
                     series_reference(table, gu, R, d)),
                    (shared_g[i], own[i](R)[0],
                     series_reference(table, gu, R))):
                assert got.shape == R.shape
                assert got.tobytes() == alone.tobytes() == ref.tobytes()
    for f in (G, table):
        assert [a.shape for a in f(np.empty((0, 4)))] == [(0, 4)] * 3
        for bad in ([0.5, end * (1.0 + 1e-12)],
                    [[0.0, 0.5], [end * (1.0 + 1e-12), 0.0]]):
            with pytest.raises(ValueError, match="radius beyond the radial"):
                f(np.array(bad))


def legendre_G(table, gu, R, d):
    # G by each panel's Legendre series and its three-term recurrence, the
    # form the power basis replaced: the panel sums left of R's panel plus
    # the series of R's panel
    n = table.panels
    y = gu * table.u ** (d - 1)
    cum = np.concatenate([[0.0], np.cumsum(y @ geom._NODE_WEIGHTS)])
    cum *= 0.5 / n
    coef = (0.5 / n) * (y @ geom._TO_INTEGRAL.T)
    j = np.minimum((R * n).astype(int), table.top - 1)
    x = 2.0 * (R * n - j) - 1.0
    p0, p1 = np.ones_like(x), x
    out = coef[j, 0] + coef[j, 1] * x
    for k in range(1, coef.shape[1] - 1):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        out += coef[j, k + 1] * p1
    return cum[j] + out


def test_radial_table_G_against_mpmath_quadrature():
    # G(R) = int_0^R rho(u) u^(d-1) du of the trial profile against 50-digit
    # Gauss-Legendre quadrature of rho = j_1(a u) + gamma i_1(b u), from
    # mpmath's Bessel functions, and of its linear extension past u = 1:
    # at panel edges, u = 1 and the table's end, within 1e-14 max|G|, and
    # within 4 ulps of max|G| of the Legendre series evaluation
    for d in (2, 3, 5, 10):
        for tau in (0.01, 1.0, 100.0):
            prof = profile(d, tau)
            n = geom._panels(prof)
            u = geom._panel_nodes(1.6, n)
            table = geom._RadialTable(
                u, [trial._eval_pieces(prof, u.ravel())["rho"]], n)
            R = np.array([1.0, 0.5 * n, n - 1.0, n, n + 7.0, table.top]) / n
            got = table.G(d)(R)[0]
            with mp.workdps(50):
                s = mp.mpf(d - 2) / 2
                a, b, g = (mp.mpf(x) for x in (prof.mode.a, prof.mode.b,
                                               prof.mode.gamma))

                def rho(t):
                    return (mp.besselj(s + 1, a * t) * (a * t) ** -s
                            + g * mp.besseli(s + 1, b * t) * (b * t) ** -s)

                slope = mp.diff(rho, 1)
                edge = rho(1) - slope
                ends = [mp.mpf(0)] + [mp.mpf(r) for r in R]
                ref, total = [], mp.mpf(0)
                for lo, hi in zip(ends, ends[1:]):
                    inner = hi <= 1
                    total += mp.quad(
                        lambda t: (rho(t) if inner else edge + slope * t)
                        * t ** (d - 1), [lo, hi], method="gauss-legendre")
                    ref.append(float(total))
            top = np.max(np.abs(ref))
            assert np.all(np.abs(got - ref) <= 1e-14 * top), (d, tau)
            old = legendre_G(table, table.gus[0], R, d)
            assert np.all(np.abs(got - old) <= 4 * np.spacing(top)), (d, tau)


def test_radial_series_peak_memory_on_a_centering_cast():
    # one G call over a centering cast of two balls (8192 rays, 4
    # crossings each, the centering's 3 tables) peaks below 1.5 MiB: the
    # result is 0.75 MiB, and the Horner pass gathers one term of every
    # table at a time, a chunk of radii long (1.35 MiB in all measured),
    # where a gather of every term of a chunk took 2.60 MiB and one gather
    # over the whole cast would hold 33 copies of its radii
    dom = two_balls_2d()
    prof = profile(tau=1.7)
    dirs, W = geom._sphere_rule(2, QuadratureSpec("radial").samples)
    lo, hi = np.asarray(dom.bbox[0]), np.asarray(dom.bbox[1])
    t, _ = dom.crossings(0.5 * (lo + hi), dirs[W[0] > 0.0])
    assert t.shape == (8192, 4)
    G = profile_table(prof, 1.5 * dom.diameter() + 1.0).G(2)
    G(t)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        G(t)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 1.5 * 2**20


def test_quotient_equals_tone_on_the_unit_ball():
    for d in (2, 3):
        for tau in (0.5, 2.0):
            omega = ballmod.fundamental_tone(tau, d).omega
            Q, err = geom.quotient_bound(geom.ball(d), tau,
                                         quad=QuadratureSpec("radial", 1024))
            assert abs(Q - omega) <= 1e-8 * omega
            assert err <= 1e-6 * omega


def test_quotient_scaling_law_on_balls():
    # dilating the ball by s maps (tau, Q) to (tau/s^2, Q/s^4)
    tau, s = 3.0, 0.7
    base, _ = geom.quotient_bound(geom.ball(2), tau,
                                  quad=QuadratureSpec("radial", 1024))
    scaled, _ = geom.quotient_bound(geom.ball(2, s), tau / s**2,
                                    quad=QuadratureSpec("radial", 1024))
    assert scaled == pytest.approx(base / s**4, rel=1e-9)
    omega = ballmod.fundamental_tone(tau, 2).omega
    assert base == pytest.approx(omega, rel=1e-9)


def test_quotient_scaling_law_off_balls():
    # same law on a box, evaluated at two unrelated grid resolutions so
    # agreement is not an artifact of shared nodes
    tau, s = 3.0, 0.7
    dom = geom.box(2, (1.0, 2.0))
    scaled = geom.box(2, (s, 2.0 * s))
    base, eb = geom.quotient_bound(dom, tau, quad=QuadratureSpec("grid", 512))
    other, eo = geom.quotient_bound(scaled, tau / s**2,
                                    quad=QuadratureSpec("grid", 768))
    assert abs(other - base / s**4) <= (eo + eb / s**4) + 1e-9


def dilated(dom, s):
    # the domain dilated by s about the origin, as normalize_volume does
    lo, hi = (s * np.asarray(x) for x in dom.bbox)
    return replace(dom, scale=s * dom.scale,
                   offset=tuple(s * np.asarray(dom.offset)),
                   volume=s**dom.d * dom.volume, bbox=(tuple(lo), tuple(hi)))


@pytest.mark.parametrize("kind", ["radial", "grid"])
def test_quotient_scaling_law_with_an_explicit_center(kind):
    # quotient_bound normalizes the domain and maps an explicit center c to
    # c / s: dilating an unnormalized domain and its center by s maps
    # (tau, Q) to (tau / s^2, Q / s^4) whatever c is
    tau, s = 2.0, 0.7
    quad = QuadratureSpec(kind, samples=8192 if kind == "radial" else 256)
    c = 0.05
    doms = [(geom.ellipsoid(2, (1.6, 0.9), center=(0.3, -0.2)), (0.4, -0.1)),
            (geom.implicit_domain(
                2, f"(abs(x) <= 1) & (abs(y) <= 1) & ~((x > {c!r}) & "
                   f"(y > {c!r}))", (-1, 1, -1, 1),
                volume=4.0 - (1.0 - c) ** 2), (-0.2, -0.15))]
    for dom, center in doms:
        base, eb = geom.quotient_bound(dom, tau, quad=quad, center=center)
        other, eo = geom.quotient_bound(
            dilated(dom, s), tau / s**2, quad=quad,
            center=s * np.asarray(center))
        assert other == pytest.approx(base / s**4, rel=1e-9)
        # a bar at the rules' rounding floor moves with the rounding
        assert eo * s**4 == pytest.approx(eb, rel=0.1, abs=0.0)


def test_the_radial_rule_by_name_is_the_default():
    # quotient_bound's default rule and QuadratureSpec("radial") are one
    # rule, bit for bit: on the ellipse, and on the L-shape whose volume
    # comes from the rule too
    lshape = geom.implicit_domain(
        2, "(abs(x) <= 1) & (abs(y) <= 1) & ~((x > 0.05) & (y > 0.05))",
        (-1, 1, -1, 1))
    for dom in (geom.ellipsoid(2, (2.0, 0.5)), lshape):
        default = geom.quotient_bound(dom, 1.0)
        named = geom.quotient_bound(dom, 1.0, quad=QuadratureSpec("radial"))
        assert np.array(default).tobytes() == np.array(named).tobytes()
    assert geom.quotient_bound(geom.ellipsoid(2, (2.0, 0.5)), 1.0)[1] < 1e-12


def test_grid_and_mc_quotients_at_a_center_outside_the_domain():
    # the node sets reach the bbox corner farthest from the center, past
    # 1.5 diameters + 1 at (10, 0): their table covers it, and they agree
    # with the radial rule within the summed bars
    dom = geom.ball(2)
    for center in ((3.0, 0.0), (10.0, 0.0)):
        Q, err = geom.quotient_bound(
            dom, 1.0, quad=QuadratureSpec("radial", 1024), center=center)
        for quad in (QuadratureSpec("grid"),
                     QuadratureSpec("mc", samples=10**6, seed=1)):
            q, e = geom.quotient_bound(dom, 1.0, quad=quad, center=center)
            assert abs(q - Q) <= err + e, (center, quad.kind, q, Q)


def test_quotient_is_strictly_below_tone_on_an_ellipse():
    dom = geom.ellipsoid(2, (2.0, 0.5))
    Q, err = geom.quotient_bound(dom, 1.0, quad=QuadratureSpec("grid", 512))
    omega = ballmod.fundamental_tone(1.0, 2).omega
    assert Q < omega
    assert omega - Q > 5 * err


def test_quotient_mc_is_reproducible_and_converging():
    dom = geom.ellipsoid(2, (2.0, 0.5))
    q1 = geom.quotient_bound(dom, 1.0, quad=QuadratureSpec("mc", samples=10**6, seed=9))
    q2 = geom.quotient_bound(dom, 1.0, quad=QuadratureSpec("mc", samples=10**6, seed=9))
    assert q1 == q2
    q3 = geom.quotient_bound(dom, 1.0, quad=QuadratureSpec("mc", samples=10**6, seed=10))
    assert q3 != q1
    assert abs(q3[0] - q1[0]) <= 6 * (q1[1] + q3[1])
    q4 = geom.quotient_bound(dom, 1.0, quad=QuadratureSpec("mc", samples=4 * 10**6, seed=9))
    assert q1[1] / q4[1] >= 1.3


def test_quotient_argument_validation():
    dom = geom.ball(2)
    with pytest.raises(ValueError, match="tau must be positive"):
        geom.quotient_bound(dom, 0.0)
    # the dimension is the domain's own
    with pytest.raises(TypeError):
        geom.quotient_bound(dom, 1.0, d=2)
    # no ray crosses this shape: the centered quotient stops before its
    # Newton solve, the one about a given center before its 0/0
    empty = geom.implicit_domain(2, "x > 100", (-1, 1, -1, 1), volume=1.0)
    for center in (None, (0.0, 0.0)):
        with pytest.raises(ValueError, match="^domain appears empty: no ray "
                                             "of the radial rule crosses"):
            geom.quotient_bound(empty, 1.0, center=center)


def test_radial_rows_that_cross_nothing_raise():
    # from the trial center midway between two small balls 1000 apart, the
    # quarter rule on every fourth azimuth node from the third (row 4 of
    # _sphere_rule) has no ray that crosses either ball: its Q was 0/0, an
    # error bar of nan with a RuntimeWarning
    far = geom.two_balls(2, (0.5, 0.5), ((0.0, 0.0), (1000.0, 0.0)))
    with pytest.raises(ValueError, match="^a companion of the radial rule "
                                         "crosses no part of the domain: "
                                         "raise --samples$"):
        geom.quotient_bound(far, 1.0)
    # at 400 apart every row crosses (about two rays a ball), as before
    near = geom.two_balls(2, (0.5, 0.5), ((0.0, 0.0), (400.0, 0.0)))
    Q, err = geom.quotient_bound(near, 1.0)
    assert (Q.hex(), err.hex()) == ("0x1.a363677540ff2p-15",
                                    "0x1.02d3648656366p-33")


def test_radial_tables_are_bounded():
    # a radial table holds (64 + ceil(2 b)) x 10 nodes per unit of the
    # normalized radius it reaches: the box of aspect ratio 1e12 reaches
    # 8.9e5 (about 6e8 nodes, which had not returned after 60 s) and is
    # refused before its table is allocated
    tracemalloc.start()
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^radial tables to r = 886227 "
                                         r"need more than 2\^22 nodes"):
        geom.quotient_bound(geom.box(2, (1e6, 1e-6)), 1.0)
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 1.0 and peak < 16 * 2**20
    # aspect ratio 1e6 (radius 886, 593,780 nodes) solves as before
    Q, err = geom.quotient_bound(geom.box(2, (1e3, 1e-3)), 1.0)
    assert (Q.hex(), err.hex()) == ("0x1.0c6ef802051acp-16",
                                    "0x1.132d4db30595ep+4")


def test_centers_must_be_d_finite_numbers():
    # a NaN center used to end in a ZeroDivisionError in the quotient
    dom = geom.ellipsoid(2, (2.0, 0.5))
    for center in ((math.nan, 0.0), (0.0, math.inf), (0.0, 0.0, 0.0)):
        for quad in (QuadratureSpec("radial", 1024), QuadratureSpec("grid")):
            with pytest.raises(ValueError, match="center must be d finite"):
                geom.quotient_bound(dom, 1.0, quad=quad, center=center)


def test_mc_quotient_needs_no_radial_rule():
    # from d = 21 on the radial rule refuses to be built; a symmetric
    # shape's record at its offset is never cast, so mc still works there
    with pytest.raises(ValueError, match="d = 21 needs"):
        geom._sphere_rule(21, 8192)
    Q, err = geom.quotient_bound(geom.box(21, [1.0] * 21), 1.0,
                                 quad=QuadratureSpec("mc", samples=2000))
    assert math.isfinite(Q) and 0.0 < err < Q


def test_config_round_trips():
    dom = geom.parse_domain_config(
        "# comment\nshape=ball\ndim=3\nradius=1.5\ncenter=0,0,0.5\n")
    assert dom.shape == "ball" and dom.d == 3
    assert dom.params["radius"] == 1.5 and dom.offset == (0.0, 0.0, 0.5)
    dom = geom.parse_domain_config("shape=ellipsoid\ndim=2\nsemiaxes=2,0.5")
    assert dom.params["semiaxes"] == (2.0, 0.5)
    dom = geom.parse_domain_config("shape=box\ndim=2\nsides=1,2  # halves")
    assert dom.params["sides"] == (1.0, 2.0)
    dom = geom.parse_domain_config("shape=annulus\ndim=2\ninner=0.6\nouter=1.2")
    assert dom.params == {"inner": 0.6, "outer": 1.2}
    dom = geom.parse_domain_config(
        "shape=two-balls\ndim=2\nradii=0.5,0.5\ncenters=-1,0;1,0")
    assert dom.volume == pytest.approx(math.pi / 2, rel=1e-14)
    dom = geom.parse_domain_config(
        "shape=implicit\ndim=2\nexpr=x**2 + y**2 <= 1\n"
        "bounds=-1,1,-1,1\nvolume=3.141592653589793")
    assert dom.volume == math.pi


def test_config_diagnostics():
    cases = [
        ("dim=2\nradius=1", "missing required key 'shape'"),
        ("shape=ball\nradius=1", "missing required key 'dim'"),
        ("shape=ball\ndim=one\nradius=1", "dim must be an integer"),
        ("shape=ball\ndim=1\nradius=1", "dim must be at least 2"),
        ("shape=ball\ndim=2\nradius=1\nradius=2", "duplicate key"),
        ("shape=ball\ndim=2\nradius\n", "expected key=value"),
        ("shape=\ndim=2", "empty key or value"),
        ("shape=gon\ndim=2", "unknown shape"),
        ("shape=ball\ndim=2", "needs keys radius"),
        ("shape=ball\ndim=2\nradius=abc", "comma-separated numbers"),
        ("shape=ball\ndim=2\nradius=1\nfoo=3", "unrecognized keys foo"),
        ("shape=ball\ndim=2\nradius=1\ncenter=0", "center must have dim"),
        ("shape=two-balls\ndim=2\nradii=1\ncenters=0,0;1,0", "radii=r1,r2"),
        ("shape=two-balls\ndim=2\nradii=1,1\ncenters=0;1", "dim entries"),
        ("shape=two-balls\ndim=2\nradii=1,1\ncenters=0,0;1,0\nsamples=9",
         "unrecognized keys samples"),
        ("shape=two-balls\ndim=2\nradii=1,1\ncenters=0,0;1,0\nseed=3",
         "unrecognized keys seed"),
        ("shape=implicit\ndim=2\nexpr=x +* y\nbounds=-1,1,-1,1",
         "does not parse"),
        ("shape=implicit\ndim=2\nexpr=x + y\nbounds=-1,1,-1,1\nvolume=1",
         "boolean"),
        ("shape=implicit\ndim=2\nexpr=x<1\nbounds=-1,1,-1,1\ncenter=0,0",
         "does not take center"),
    ]
    for text, needle in cases:
        with pytest.raises(ValueError, match=needle):
            geom.parse_domain_config(text)


def test_load_domain(tmp_path):
    path = tmp_path / "dom.cfg"
    path.write_text("shape=annulus\ndim=2\ninner=0.6\nouter=1.2\n",
                    encoding="utf-8")
    dom = geom.load_domain(str(path))
    assert dom.shape == "annulus" and dom.params["outer"] == 1.2
