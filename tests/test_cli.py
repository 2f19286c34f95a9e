import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import freeplate
from freeplate import ball, report
from freeplate.cli import main
from freeplate.specfun import first_zero_j1prime

from oracles import mp_tone


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    vals = {}
    for line in out.strip().splitlines():
        key, _, val = line.partition(" = ")
        vals[key] = val
    return vals


def test_tone_reports_mode_between_linear_bounds(capsys):
    code, out, _ = run(capsys, "tone", "--dim", "2", "--tau", "1")
    assert code == 0
    vals = parse_kv(out)
    omega = float(vals["omega"])
    mu = first_zero_j1prime(2) ** 2
    assert mu < omega < 4.0
    assert float(vals["b"]) ** 2 - float(vals["a"]) ** 2 == pytest.approx(1.0)
    assert float(vals["gamma"]) > 0.0
    assert float(vals["moment_residual"]) < 1e-12
    assert float(vals["shear_residual"]) < 1e-12


def test_tone_rejects_nonpositive_tension(capsys):
    code, out, err = run(capsys, "tone", "--dim", "2", "--tau", "-1")
    assert code == 2
    assert "tau must be positive" in err
    assert out == ""


def test_tone_radius_follows_scaling_law(capsys):
    code, out, _ = run(capsys, "tone", "--dim", "2", "--tau", "1",
                       "--radius", "2")
    assert code == 0
    scaled = float(parse_kv(out)["omega"])
    code, out, _ = run(capsys, "tone", "--dim", "2", "--tau", "4")
    base = float(parse_kv(out)["omega"])
    assert scaled == pytest.approx(base / 16.0, rel=1e-9)


def test_tone_solves_tiny_radius_and_tiny_tension(capsys):
    # effective tension tau R^2 = 1e-16 both ways; below 1e-8 the sandwich
    # margin relative to omega is under double precision, so it is not
    # asserted here
    for tau, radius in (("1", "1e-8"), ("1e-16", "1")):
        code, out, err = run(capsys, "tone", "--dim", "2", "--tau", tau,
                             "--radius", radius)
        assert code == 0, err
        vals = parse_kv(out)
        assert float(vals["moment_residual"]) <= 1e-9
        assert float(vals["shear_residual"]) <= 1e-9
        R = float(radius)
        ref = mp_tone(float(tau) * R**2, 2)
        assert float(vals["omega"]) * R**4 == pytest.approx(ref, rel=1e-7)


def test_tone_rejects_a_tension_scale_beyond_double_range(capsys):
    # tau R^2 overflows at radius 1e200 and underflows at 1e-200: a
    # diagnostic that names it, with no traceback and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for radius in ("1e200", "1e-200"):
            code, out, err = run(capsys, "tone", "--dim", "2", "--tau", "1",
                                 "--radius", radius)
            assert code == 2 and out == ""
            assert err.startswith("error: tau R^2 is no positive finite double")
    for radius in (1e200, 1e-200):
        with pytest.raises(ValueError, match="tau R"):
            ball.fundamental_tones([1.0, 2.0], 3, radius)
        with pytest.raises(ValueError, match="tau R"):
            ball.gamma_of(0.5 / radius, 1.0, 3, radius)


def test_tone_residuals_at_extreme_radii(capsys):
    # tensions the solve accepts, where a power of R leaves double range:
    # the residuals, taken on the unit ball, are finite and within
    # tolerance, with no traceback and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tau, radius in (("1", "1e-150"), ("1", "1e-105"),
                            ("1e-210", "1e105")):
            code, out, err = run(capsys, "tone", "--dim", "2", "--tau", tau,
                                 "--radius", radius)
            assert code == 0, err
            vals = parse_kv(out)
            for key in ("moment_residual", "shear_residual"):
                res = float(vals[key])
                assert math.isfinite(res) and res <= ball.RESIDUAL_TOL, key


def test_bracket_overflow_raises_without_a_warning(capsys):
    # past tau R^2 of about 1.3e154, t^2 overflows in the closed-form
    # bracket: the kernels reject the nan bracket at radius 1e154
    # (ValueError, exit 2) and the i_l argument at tau 1e300 (an escaping
    # OverflowError), for one tension and for a batch, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "tone", "--dim", "2", "--tau", "1",
                             "--radius", "1e154")
        assert code == 2 and out == ""
        assert err.startswith("error: z must be finite")
        with pytest.raises(OverflowError):
            main(["tone", "--dim", "2", "--tau", "1e300"])
        with pytest.raises(ValueError, match="z must be finite"):
            ball.fundamental_tones([1.0, 1.5], 2, 1e154)
        with pytest.raises(OverflowError):
            ball.fundamental_tones([1e300, 1.0], 2)


def test_secular_v_at_extreme_radii():
    # a R = 0.5 and tau R^2 = 1 at every radius: V_R = R^-3 V_1, which
    # overflows at R = 1e-150 (ValueError, as omega does) and underflows
    # at R = 1e105 (the underflowed value), with no numpy warning; at a
    # power of two, the exact R^-3 V_1
    v1 = ball.secular_V(0.5, 1.0, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="V_R is no finite double"):
            ball.secular_V(0.5e150, 1e300, 2, 1e-150)
        v = ball.secular_V(0.5e-105, 1e-210, 2, 1e105)
    assert math.isfinite(v) and abs(v) < np.finfo(float).tiny
    R = 2.0**-300
    assert ball.secular_V(0.5 / R, 1.0 / R**2, 2, R) == v1 / R**3
    assert ball.gamma_of(0.5e-105, 1e-210, 2, 1e105) == pytest.approx(
        ball.gamma_of(0.5, 1.0, 2), rel=1e-14)


def test_tone_rejects_omega_beyond_double_range(capsys):
    # tau R^2 = 1 solves, but omega_R = R^-4 omega_1 leaves double range at
    # R = 1e-78: a clean error, exit 2, and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "tone", "--dim", "2", "--tau", "1e156",
                             "--radius", "1e-78")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "finite doubles" in err
    assert "Warning" not in err


def test_tone_outputs_match_the_pinned_records(tmp_path):
    # every record of d in {2, 3, 5, 10, 30} x tau R^2 in {1e-8, 1e-3, 1,
    # 1e2, 1e5} x R in {1e-2, 1, 1e2}, byte for byte; the file holds each
    # argv after "$ " and then the output of tone for it
    text = (Path(__file__).parent / "data" / "tone_outputs.txt"
            ).read_text(encoding="utf-8")
    records = [r.split("\n", 1) for r in text.split("$ ")[1:]]
    assert len(records) == 75
    out = tmp_path / "tone.txt"
    for argv, pinned in records:
        assert main(argv.split() + ["--out", str(out)]) == 0, argv
        assert out.read_text(encoding="utf-8") == pinned, argv


def test_sweep_rows_satisfy_the_bound_sandwich(capsys):
    code, out, _ = run(capsys, "sweep", "--dim", "2", "--tau-min", "0.01",
                       "--tau-max", "100", "--tau-steps", "9", "--log")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "tau,omega,lower,upper_coord,upper_membrane,ratio"
    assert len(lines) == 10
    taus, ratios = [], []
    for line in lines[1:]:
        cells = line.split(",")
        tau, omega, lower, up_c, up_m, ratio = map(float, cells)
        assert lower < omega < min(up_c, up_m)
        assert ratio == pytest.approx(omega / tau, rel=1e-15)
        # lossless 17-digit round trip
        assert [report.format_float(float(c)) for c in cells] == cells
        taus.append(tau)
        ratios.append(ratio)
    assert taus == sorted(taus)
    # ratio squeezes down toward mu as tension grows
    mu = first_zero_j1prime(2) ** 2
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
    assert ratios[-1] > mu
    assert ratios[-1] - mu < 0.1


def test_sweep_rejects_non_finite_tensions(capsys):
    # a diagnostic and exit 2 before any row, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lo, hi in (("1", "inf"), ("nan", "2"), ("-inf", "1")):
            code, out, err = run(capsys, "sweep", "--dim", "2",
                                 f"--tau-min={lo}", f"--tau-max={hi}",
                                 "--tau-steps", "3")
            assert code == 2 and out == ""
            assert err == "error: tau-min and tau-max must be finite\n"


def test_sweep_validation(capsys):
    code, _, err = run(capsys, "sweep", "--dim", "2", "--tau-min", "-1",
                       "--tau-max", "1")
    assert code == 2 and "tau must be positive" in err
    code, _, err = run(capsys, "sweep", "--dim", "2", "--tau-min", "1",
                       "--tau-max", "2", "--tau-steps", "1")
    assert code == 2 and "at least 2" in err
    code, _, err = run(capsys, "sweep", "--dim", "2", "--tau-min", "2",
                       "--tau-max", "1")
    assert code == 2 and "exceed" in err


def test_sweep_records_solver_failures_as_empty_omega(capsys, monkeypatch):
    real = ball.fundamental_tone

    def flaky(tau, d, radius=1.0):
        if tau > 1.0:
            raise RuntimeError("no sign change of the secular function")
        return real(tau, d, radius)

    monkeypatch.setattr("freeplate.ball.fundamental_tone", flaky)
    code, out, err = run(capsys, "sweep", "--dim", "2", "--tau-min", "0.5",
                         "--tau-max", "2", "--tau-steps", "3")
    assert code == 2
    assert "solver failed at tau = 1.25" in err
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert rows[0][1] != "" and rows[1][1] == "" and rows[2][1] == ""
    assert rows[1][5] == ""
    # bounds stay populated on failed rows
    assert float(rows[1][2]) > 0.0


def test_sweep_blanks_rows_that_overflow(capsys):
    # tau = 1e7 puts b past the i_l kernel range; the row is blanked like any
    # other solver failure and the rows below keep their tone
    code, out, err = run(capsys, "sweep", "--dim", "2", "--tau-min", "1",
                         "--tau-max", "1e7", "--tau-steps", "5", "--log")
    assert code == 2
    assert "solver failed at tau = 1e+07" in err
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 5
    for row in rows:
        tau = float(row[0])
        if tau <= 2e5:
            assert float(row[2]) < float(row[1]) < float(row[3])
        else:
            assert row[1] == "" and row[5] == ""


def test_verify_reports_all_lemmas(capsys):
    code, out, err = run(capsys, "verify", "--dims", "2,3")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == report.CSV_HEADER
    ids = [line.split(",")[0] for line in lines[1:]]
    assert ids == sorted(ids)
    per_d = ["bessel-signs", "ij-bounds", "gamma-lower-bound",
             "large-tension", "profile-concavity", "numerator-monotone",
             "denominator-increase", "h-decrease-condition", "P-nonneg"]
    expected = {f"{name}[d={d}]" for name in per_d for d in (2, 3)}
    expected -= {"P-nonneg[d=2]"}  # polynomial rows start at d = 3
    expected |= {"P-nonneg[d=3..30]", "Q-positive", "binomial-three-halves"}
    assert set(ids) == expected
    assert all(line.split(",")[1] == "true" for line in lines[1:])


def test_verify_rejects_bad_dims(capsys):
    for dims in ("x", "1", "31", ""):
        code, _, err = run(capsys, "verify", "--dims", dims)
        assert code == 2
        assert "dims" in err


def test_quotient_on_ball_matches_tone(capsys, tmp_path):
    cfg = tmp_path / "ball.cfg"
    cfg.write_text("shape=ball\ndim=2\nradius=2\n", encoding="utf-8")
    code, out, _ = run(capsys, "quotient", "--domain", str(cfg),
                       "--tau", "1", "--quad", "radial")
    assert code == 0
    vals = parse_kv(out)
    # config ball is renormalized to unit volume, so Q reproduces omega
    assert abs(float(vals["margin"])) <= 5 * float(vals["error_bar"]) + 1e-10
    assert vals["Q_below_omega_beyond_bars"] == "no"
    omega = ball.fundamental_tone(1.0, 2).omega
    assert float(vals["omega"]) == pytest.approx(omega, rel=1e-12)
    assert float(vals["Q"]) == pytest.approx(omega, rel=1e-8)


def test_quotient_on_ellipse_is_separated(capsys, tmp_path):
    cfg = tmp_path / "el.cfg"
    cfg.write_text("shape=ellipsoid\ndim=2\nsemiaxes=2,0.5\n",
                   encoding="utf-8")
    code, out, _ = run(capsys, "quotient", "--domain", str(cfg),
                       "--tau", "1")
    assert code == 0
    vals = parse_kv(out)
    assert float(vals["Q"]) < float(vals["omega"])
    assert float(vals["separation_sigmas"]) > 5.0
    assert vals["Q_below_omega_beyond_bars"] == "yes"


def test_quotient_error_paths(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("shape=banana\ndim=2\n", encoding="utf-8")
    code, _, err = run(capsys, "quotient", "--domain", str(bad), "--tau", "1")
    assert code == 2 and "unknown shape" in err
    code, _, err = run(capsys, "quotient", "--domain",
                       str(tmp_path / "missing.cfg"), "--tau", "1")
    assert code == 2
    cfg = tmp_path / "el.cfg"
    cfg.write_text("shape=ellipsoid\ndim=2\nsemiaxes=2,0.5\n",
                   encoding="utf-8")
    code, _, err = run(capsys, "quotient", "--domain", str(cfg),
                       "--tau", "-2")
    assert code == 2 and "tau must be positive" in err
    code, _, err = run(capsys, "quotient", "--domain", str(cfg),
                       "--tau", "1", "--dim", "3")
    assert code == 2 and "disagrees" in err
    # the ellipse is centered at its offset, and its --tol still checked
    for tol in ("0", "nan"):
        code, _, err = run(capsys, "quotient", "--domain", str(cfg),
                           "--tau", "1", "--tol", tol)
        assert code == 2 and "tol must be positive" in err
    code, _, err = run(capsys, "quotient", "--domain", str(cfg),
                       "--tau", "1", "--quad", "radial")
    assert code == 0, err
    # a grid whose cell midpoints all miss the domain
    ring = tmp_path / "ring.cfg"
    ring.write_text("shape=annulus\ndim=2\ninner=0.9\nouter=1\n",
                    encoding="utf-8")
    code, _, err = run(capsys, "quotient", "--domain", str(ring),
                       "--tau", "1", "--quad", "grid", "--samples", "2")
    assert code == 2 and "no quadrature nodes" in err


@pytest.mark.parametrize("key, lines", [
    ("radius", "shape=ball\nradius=nan"),
    ("center", "shape=box\nsides=1,1\ncenter=nan,0"),
    ("bounds", "shape=implicit\nexpr=x*x + y*y <= 1\nbounds=-1,1,-1,nan"),
    ("semiaxes", "shape=ellipsoid\nsemiaxes=inf,1"),
    ("outer", "shape=annulus\ninner=0.5\nouter=inf"),
    ("radii", "shape=two-balls\nradii=1,nan\ncenters=0,0;3,0"),
    ("centers", "shape=two-balls\nradii=1,1\ncenters=0,-inf;3,0"),
    ("volume", "shape=implicit\nexpr=x*x + y*y <= 1\nbounds=-1,1,-1,1\n"
               "volume=nan")])
def test_quotient_rejects_non_finite_config_numbers(capsys, tmp_path, key,
                                                    lines):
    # a diagnostic that names the key, before any quadrature: exit 2 and
    # no numpy warning
    cfg = tmp_path / "d.cfg"
    cfg.write_text(f"dim=2\n{lines}\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "quotient", "--domain", str(cfg),
                             "--tau", "1")
    assert code == 2 and out == ""
    assert err == f"error: config: {key} must be finite numbers\n"


def test_samples_sets_the_default_rules_resolution(capsys, tmp_path):
    cfg = tmp_path / "el.cfg"
    cfg.write_text("shape=ellipsoid\ndim=2\nsemiaxes=2,0.5\n",
                   encoding="utf-8")
    outs = []
    for extra in ([], ["--quad", "radial"]):
        code, out, _ = run(capsys, "quotient", "--domain", str(cfg),
                           "--tau", "1", "--samples", "256", *extra)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    code, out, _ = run(capsys, "quotient", "--domain", str(cfg),
                       "--tau", "1")
    assert code == 0
    assert parse_kv(out)["error_bar"] != parse_kv(outs[0])["error_bar"]


def test_quad_grid_without_samples_uses_the_grids_own_default(capsys,
                                                              tmp_path):
    cfg = tmp_path / "el.cfg"
    cfg.write_text("shape=ellipsoid\ndim=2\nsemiaxes=2,0.5\n",
                   encoding="utf-8")
    outs = []
    for extra in ([], ["--samples", "1024"]):
        code, out, err = run(capsys, "quotient", "--domain", str(cfg),
                             "--tau", "1", "--quad", "grid", *extra)
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]


def test_tol_that_cannot_be_met_reports_the_residual_trace(capsys,
                                                           tmp_path):
    # Newton steps clipped to the bbox may cast rays from points on its
    # faces, some along a face; the run must end in the centering
    # diagnostic once halving no longer lowers the residual
    cfg = tmp_path / "l.cfg"
    cfg.write_text("shape=implicit\ndim=2\n"
                   "expr=(abs(x) <= 1) & (abs(y) <= 1) & ~((x > 0) & (y > 0))\n"
                   "bounds=-1,1,-1,1\nvolume=3\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "quotient", "--domain", str(cfg),
                           "--tau", "1", "--tol", "1e-300", "--samples",
                           "256")
    assert code == 2
    assert "centering did not converge" in err and "residual trace" in err


def test_thin_l_shape_centers_at_large_tension(capsys, tmp_path):
    # arms 0.22 wide, and at tau = 1000 rho' falls twentyfold from r = 0
    # to r = 1: the field's slope varies widely over the domain, and
    # centering must still converge (the config carries no volume)
    c = -0.7764699120554092
    cfg = tmp_path / "thin-l.cfg"
    cfg.write_text("shape=implicit\ndim=2\n"
                   "expr=(abs(x) <= 1) & (abs(y) <= 1) & "
                   f"~((x > {c!r}) & (y > {c!r}))\n"
                   "bounds=-1,1,-1,1\n", encoding="utf-8")
    code, out, err = run(capsys, "quotient", "--domain", str(cfg),
                         "--tau", "1000")
    assert code == 0, err
    vals = parse_kv(out)
    assert float(vals["Q"]) + 5 * float(vals["error_bar"]) \
        < float(vals["omega"])


def test_quotient_on_overlapping_3d_two_balls(capsys, tmp_path):
    cfg = tmp_path / "tb.cfg"
    cfg.write_text("shape=two-balls\ndim=3\nradii=1,0.7\n"
                   "centers=0,0,0;0.5,0,0\n", encoding="utf-8")
    code, out, err = run(capsys, "quotient", "--domain", str(cfg),
                         "--tau", "1")
    assert code == 0, err
    vals = parse_kv(out)
    Q, bar = float(vals["Q"]), float(vals["error_bar"])
    assert bar > 0.0
    assert Q + 5 * bar < float(vals["omega"])
    assert vals["Q_below_omega_beyond_bars"] == "yes"


def test_quotient_on_implicit_3d_ball_without_volume(capsys, tmp_path):
    # the volume comes from the radial reduction, and the shape is the
    # ball, so Q is the tone
    cfg = tmp_path / "ib.cfg"
    cfg.write_text("shape=implicit\ndim=3\nexpr=x**2 + y**2 + z**2 <= 1\n"
                   "bounds=-1,1,-1,1,-1,1\n", encoding="utf-8")
    code, out, err = run(capsys, "quotient", "--domain", str(cfg),
                         "--tau", "1")
    assert code == 0, err
    vals = parse_kv(out)
    assert float(vals["Q"]) == pytest.approx(float(vals["omega"]), rel=1e-6)


def test_implicit_config_rejects_samples_and_seed(capsys, tmp_path):
    cfg = tmp_path / "disk.cfg"
    for key in ("samples", "seed"):
        cfg.write_text("shape=implicit\ndim=2\nexpr=x**2 + y**2 <= 1\n"
                       f"bounds=-1,1,-1,1\n{key}=3\n", encoding="utf-8")
        code, _, err = run(capsys, "quotient", "--domain", str(cfg),
                           "--tau", "1")
        assert code == 2 and f"unrecognized keys {key}" in err


def test_outputs_are_byte_identical_across_reruns(capsys, tmp_path):
    cfg = tmp_path / "el.cfg"
    cfg.write_text("shape=ellipsoid\ndim=2\nsemiaxes=2,0.5\n",
                   encoding="utf-8")
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        code = main(["quotient", "--domain", str(cfg), "--tau", "1",
                     "--quad", "mc", "--samples", "500000", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    captured = capsys.readouterr()
    assert captured.out == ""
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    for out in (s1, s2):
        assert main(["sweep", "--dim", "3", "--tau-min", "0.5", "--tau-max",
                     "2", "--tau-steps", "4", "--out", str(out)]) == 0
    assert s1.read_bytes() == s2.read_bytes()


def test_verify_rows_match_the_pinned_fixture(tmp_path):
    # ids, order, pass flags, grids and tolerances exactly; margins and
    # points to a relative 1e-12
    out = tmp_path / "verify.csv"
    assert main(["verify", "--dims", "2,3,4,5,6,7,8,9,10",
                 "--out", str(out)]) == 0
    rows = out.read_text(encoding="utf-8").splitlines()
    pinned = (Path(__file__).parent / "data" / "verify_rows_d2_10.csv"
              ).read_text(encoding="utf-8").splitlines()
    assert len(rows) == len(pinned) == 84
    assert rows[0] == pinned[0] == report.CSV_HEADER
    for row, ref in zip(rows[1:], pinned[1:]):
        got, want = row.split(","), ref.split(",")
        exact = (0, 1, 4, 5)
        assert [got[k] for k in exact] == [want[k] for k in exact]
        nums = [float(c) for c in [got[2]] + got[3].split(";")]
        ref_nums = [float(c) for c in [want[2]] + want[3].split(";")]
        assert nums == pytest.approx(ref_nums, rel=1e-12, abs=0.0), got[0]


def test_verify_lists_failing_lemmas(capsys, monkeypatch):
    from freeplate import verify as vmod
    from freeplate.report import VerificationReport

    real = vmod.full_suite

    def doctored(d, trial_tau_grid=None, include_global=True,
                 grid_size=vmod.DEFAULT_GRID):
        rows = real(d, trial_tau_grid, include_global, grid_size)
        bad = VerificationReport("planted-failure[d=2]", False, -1.0,
                                 (0.0,), "single point", 0.0)
        return rows + [bad]

    monkeypatch.setattr("freeplate.verify.full_suite", doctored)
    code, out, err = run(capsys, "verify", "--dims", "2")
    assert code == 1
    assert "failing lemmas: planted-failure[d=2]" in err
    assert any(line.startswith("planted-failure[d=2],false")
               for line in out.splitlines())


def test_cli_loads_no_optimize_integrate_or_linalg(tmp_path):
    # the program runs on numpy alone. A fresh process runs a tone, a 3-d
    # ellipsoid quotient and a 2-d overlapping two-balls quotient (its
    # volume from the cap integral), so a lazy import inside a call shows
    # up too: no scipy module, and no numpy.f2py
    cfgs = {"el.cfg": "shape=ellipsoid\ndim=3\nsemiaxes=1.2,1,0.8\n",
            "tb.cfg": "shape=two-balls\ndim=2\nradii=1,0.6\n"
                      "centers=0,0;1.2,0\n"}
    for name, text in cfgs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    code = (
        "import sys\n"
        "from freeplate.cli import main\n"
        "assert main(['tone', '--dim', '3', '--tau', '1']) == 0\n"
        + "".join(f"assert main(['quotient', '--domain', "
                  f"{str(tmp_path / name)!r}, '--tau', '1']) == 0\n"
                  for name in cfgs)
        + "print(sorted(m for m in sys.modules if m == 'scipy' or\n"
        "    m.startswith(('scipy.', 'numpy.f2py'))))\n")
    src = str(Path(freeplate.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
