"""Correctness checks of every CLI call and the seed-commit defects they
are allowed to show.

Each check returns an Outcome: ``ok``, ``fail`` (the call raised or exited
nonzero) or ``wrong`` (it returned, but a check failed), with the reasons
and, when every reason matches a recorded seed-commit defect, that
defect's id. A result that fails and matches no recorded defect makes the
run incorrect; a recorded defect is counted in fail_rate or wrong_rate
and reported by id, never dropped.
"""

import csv
import io
import re
from dataclasses import dataclass, field
from pathlib import Path


from reference import (Q_REF_RTOL, ainf, digits, omega_reference,
                       q_reference)

RESIDUAL_TOL = 1e-9      # the solver's own bound, freeplate.ball.RESIDUAL_TOL
WAVENUMBER_RTOL = 1e-10  # |b^2 - a^2 - tau| <= this * b^2
OMEGA_PRODUCT_RTOL = 1e-12
OMEGA_MIN_DIGITS = 6     # omega against the mpmath reference
MARGIN_RTOL = 1e-6       # verify worst margins against the seed commit,
MARGIN_ATOL = 1e-10      # plus this absolute floor for noise-level margins
SEED_ROWS = Path(__file__).with_name("seed_verify_rows.csv")

KNOWN_DEFECTS = {
    "overflow": "effective tension above about 5e5: i_l leaves double "
                "range and cli.main lets OverflowError escape (traceback, "
                "exit 1)",
    "tiny-radius": "radius 1e-7 or below: BallMode's absolute b^2-a^2 "
                   "check rejects a valid solve (exit 2)",
    "small-tension": "small effective tension: omega loses digits (about "
                     "6 correct at tau R^2 = 1e-8 and d near 30) and comes "
                     "out above tau(d+2), breaking the strict sandwich",
}


@dataclass
class Outcome:
    status: str = "ok"
    reasons: list = field(default_factory=list)
    defects: list = field(default_factory=list)  # id per reason, or None
    digits: list = field(default_factory=list)   # (kind, value)
    info: dict = field(default_factory=dict)

    def flag(self, status, reason, defect=None):
        if self.status != "fail":
            self.status = status
        self.reasons.append(reason)
        self.defects.append(defect)

    @property
    def defect(self):
        """The recorded defect that explains every reason, else None."""
        ids = set(self.defects)
        return ids.pop() if len(ids) == 1 and None not in ids else None

    @property
    def explained(self):
        return self.status == "ok" or self.defect is not None


def _fields(text):
    return dict(line.split(" = ", 1) for line in text.splitlines()
                if " = " in line)


def _call_failed(res, out, defect_if):
    """Flag a call that raised or exited nonzero; True when it did."""
    if res["exc"] is not None:
        out.flag("fail", f"raised {res['exc']}", defect_if(res))
        return True
    if res["rc"] != 0:
        out.flag("fail", f"exit {res['rc']}: {res['stderr'].strip()}",
                 defect_if(res))
        return True
    return False


def check_tone(item, res, with_reference):
    out = Outcome()
    d, tau, radius = item["d"], item["tau"], item["radius"]
    tau_eff = tau * radius**2

    def defect(r):
        if r["exc"] and r["exc"].startswith("OverflowError") \
                and tau_eff > 4e5:
            return "overflow"
        if "b^2 - a^2" in r["stderr"] and radius <= 1e-6:
            return "tiny-radius"
        return None

    if _call_failed(res, out, defect):
        return out
    f = _fields(res["out"])
    try:
        a, b, w = float(f["a"]), float(f["b"]), float(f["omega"])
        gamma = float(f["gamma"])
        echo = (int(f["d"]), float(f["tau"]), float(f["radius"]))
        res_m = float(f["moment_residual"])
        res_v = float(f["shear_residual"])
    except (KeyError, ValueError) as exc:
        out.flag("wrong", f"unparsable output: {exc}")
        return out
    if echo != (d, tau, radius):
        out.flag("wrong", f"echoed inputs {echo} differ")
    if abs(b * b - a * a - tau) > WAVENUMBER_RTOL * b * b:
        out.flag("wrong", "b^2 - a^2 != tau")
    if abs(w - a * a * b * b) > OMEGA_PRODUCT_RTOL * w:
        out.flag("wrong", "omega != a^2 b^2")
    if not (res_m <= RESIDUAL_TOL and res_v <= RESIDUAL_TOL):
        out.flag("wrong", f"residuals {res_m:.3g}, {res_v:.3g}")
    if not gamma > 0:
        out.flag("wrong", "gamma <= 0")
    # sandwich through the scaling law omega_R(tau) = R^-4 omega_1(tau R^2)
    w1 = w * radius**4
    mu = float(ainf(d) ** 2)
    if not tau_eff * mu < w1:
        out.flag("wrong", f"omega below tau*mu (ratio {w1 / tau_eff!r})")
    small = "small-tension" if tau_eff <= 1e-4 else None
    if not w1 < tau_eff * (d + 2):
        out.flag("wrong", f"omega above tau*(d+2) (ratio {w1 / tau_eff!r})",
                 small)
    if with_reference:
        dig = digits(w1, omega_reference(tau_eff, d))
        out.digits.append(("omega", dig))
        if dig < OMEGA_MIN_DIGITS:
            out.flag("wrong", f"omega has {dig:.2f} correct digits", small)
    return out


_DIM = re.compile(r"\[d=(\d+)\]$")


def _rows(text):
    return {r["lemma_id"]: r for r in csv.DictReader(io.StringIO(text))}


def seed_rows(dims):
    """Seed-commit rows expected from ``verify --dims`` over dims."""
    rows = _rows(SEED_ROWS.read_text(encoding="utf-8"))
    keep = {}
    for lemma, row in rows.items():
        m = _DIM.search(lemma)
        if m is None or int(m.group(1)) in dims:
            keep[lemma] = row
    return keep


def check_verify(item, res):
    out = Outcome()
    if res["exc"] is not None or res["rc"] not in (0, 1):
        _call_failed(res, out, lambda r: None)
        return out
    rows = _rows(res["out"])
    expected = seed_rows(set(item["dims"]))
    if set(rows) != set(expected):
        out.flag("wrong", "lemma ids differ from the seed commit: "
                 f"{sorted(set(rows) ^ set(expected))}")
    for lemma in sorted(set(rows) & set(expected)):
        row, ref = rows[lemma], expected[lemma]
        if row["passed"] != "true":
            out.flag("wrong", f"{lemma} failed")
        if row["passed"] != ref["passed"]:
            out.flag("wrong", f"{lemma} pass flag differs from seed")
        m, m0 = float(row["worst_margin"]), float(ref["worst_margin"])
        if abs(m - m0) > MARGIN_RTOL * abs(m0) + MARGIN_ATOL:
            out.flag("wrong", f"{lemma} worst margin {m!r} vs seed {m0!r}")
        # rows whose worst point is (tau, a) of a solved mode
        if lemma.startswith(("gamma-lower-bound", "large-tension")):
            tau, a = (float(t) for t in row["worst_point"].split(";"))
            d = int(_DIM.search(lemma).group(1))
            dig = digits(a * a * (a * a + tau), omega_reference(tau, d))
            out.digits.append(("omega", dig))
            if dig < OMEGA_MIN_DIGITS:
                out.flag("wrong", f"{lemma}: omega at the worst point has "
                         f"{dig:.2f} correct digits")
    if res["rc"] == 1:
        out.flag("wrong", f"exit 1: {res['stderr'].strip()}")
    out.info["rows"] = len(rows)
    out.info["rows_failed"] = sum(r["passed"] != "true"
                                  for r in rows.values())
    return out


def check_quotient(item, res):
    out = Outcome()
    if _call_failed(res, out, lambda r: None):
        return out
    f = _fields(res["out"])
    try:
        q, w, err = float(f["Q"]), float(f["omega"]), float(f["error_bar"])
    except (KeyError, ValueError) as exc:
        out.flag("wrong", f"unparsable output: {exc}")
        return out
    if not q + 5.0 * err < w:
        out.flag("wrong", f"Q + 5 err = {q + 5 * err!r} not below omega {w!r}")
    out.info["rel_err_bar"] = err / abs(q)
    dig = digits(w, omega_reference(item["tau"], item["d"]))
    out.digits.append(("omega", dig))
    if dig < OMEGA_MIN_DIGITS:
        out.flag("wrong", f"omega has {dig:.2f} correct digits")
    if item["geometry"] is not None:
        q_ref, gap = q_reference(item["geometry"], item["d"], item["tau"])
        if gap > Q_REF_RTOL:
            out.flag("wrong", f"radial reference not converged ({gap:.2g})")
        out.digits.append(("q", digits(q, q_ref)))
    return out


CHECKS = {"tone-single": lambda item, res: check_tone(
              item, res, item.get("reference", False)),
          "verify-suite": check_verify,
          "quotient-domains": check_quotient}
