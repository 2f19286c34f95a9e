import ast
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import freeplate

EXPORTS = {"ball": ("BallMode", "fundamental_tone"),
           "geom": ("Domain", "QuadratureSpec", "load_domain",
                    "quotient_bound"),
           "report": ("VerificationReport",),
           "trial": ("TrialProfile",),
           "verify": ("full_suite", "spot_values")}
SUBMODULES = ("ball", "specfun", "geom", "trial", "verify", "report")
# module-level definitions that no program code names, each with its reason
NAMED_OUTSIDE = {
    "trial.rho": "bench/reference.py's radial-reduction Q reference",
    "trial.numerator_integrand": "bench/reference.py's radial-reduction Q "
                                 "reference",
    "ball.infinite_tension_ratio": "the tau -> infinity squeeze checks of "
                                   "the ball tone",
}


def run_fresh(code):
    # code in a fresh interpreter that imports freeplate from this checkout;
    # its last stdout line
    src = str(Path(freeplate.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_package_exports_resolve_to_their_modules():
    names = [name for group in EXPORTS.values() for name in group]
    assert sorted(freeplate.__all__) == sorted(names)
    for module, group in EXPORTS.items():
        for name in group:
            assert getattr(freeplate, name) is getattr(
                import_module(f"freeplate.{module}"), name)
    star = {}
    exec("from freeplate import *", star)
    assert set(star) - {"__builtins__"} == set(freeplate.__all__)
    assert set(names) | set(SUBMODULES) <= set(dir(freeplate))
    with pytest.raises(AttributeError, match="'freeplate'.*no_such_name"):
        freeplate.no_such_name
    assert freeplate.__version__ == "0.1.0"
    # a bare import resolves every submodule name on use
    out = run_fresh("import freeplate\n"
                    f"print([getattr(freeplate, m).__name__ for m in "
                    f"{SUBMODULES!r}])\n")
    assert out[-1] == repr([f"freeplate.{m}" for m in SUBMODULES])


def test_tone_path_loads_no_geom_verify_or_polynomial():
    # a tone solve and the membrane constant need ball and specfun alone;
    # the CLI imports every subcommand's module up front
    heavy = ("freeplate.geom", "freeplate.verify", "freeplate.trial",
             "freeplate.report", "freeplate.cli")
    out = run_fresh(
        "import sys\n"
        "import freeplate\n"
        "freeplate.fundamental_tone(1.0, 3)\n"
        "from freeplate import ball\n"
        "ball.membrane_C(3)\n"
        "ball.tone_bounds(1.0, 3)\n"
        "def loaded():\n"
        f"    return sorted(m for m in sys.modules if m in {heavy!r} or\n"
        "        m == 'numpy.polynomial' or m.startswith('numpy.polynomial.'))\n"
        "print(loaded())\n"
        "from freeplate.cli import main\n"
        f"print([m for m in {heavy!r} if m not in sys.modules])\n")
    assert out[-2:] == ["[]", "[]"]


def test_quotient_loads_no_verify_or_report():
    # the quotient needs geom, trial, ball and specfun; verify and the
    # report rows are the lemma suite's alone
    out = run_fresh(
        "import sys\n"
        "import freeplate\n"
        "from freeplate import geom\n"
        "dom = geom.normalize_volume(geom.ellipsoid(2, (2.0, 0.5)))\n"
        "freeplate.quotient_bound(dom, 1.0)\n"
        "print(sorted(m for m in ('freeplate.verify', 'freeplate.report')\n"
        "             if m in sys.modules))\n")
    assert out[-1] == "[]"


def test_every_definition_is_named_by_the_program():
    # a module-level def or class that only the tests call is code the
    # program carries for nothing: each one is named (a Name or an
    # Attribute, so docstrings and strings do not count) somewhere in the
    # package's code, exported, a dunder, or on NAMED_OUTSIDE, whose
    # entries are still defined and still unnamed
    src = Path(freeplate.__file__).resolve().parent
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(src.glob("*.py"))}
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    orphans = sorted(
        f"{module}.{node.name}" for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in named and node.name not in freeplate._EXPORTS
        and not (node.name.startswith("__") and node.name.endswith("__")))
    assert orphans == sorted(NAMED_OUTSIDE)


def test_implicit_functions_are_listed_once(monkeypatch):
    # the functions docs/domains.md's implicit grammar names, the namespace
    # the expression is evaluated in and the calls the grammar check lets
    # through are one set, so none of the three drifts from the others
    import numpy as np

    from freeplate import geom
    docs = (Path(__file__).resolve().parents[1] / "docs" / "domains.md"
            ).read_text(encoding="utf-8").split("### implicit", 1)[1]
    [item] = [part for part in docs.split("\n- ")
              if part.startswith("the functions")]
    documented = set(re.findall(r"`(\w+)`", item))
    seen = {}

    def spy(code, scope, ns):
        seen.update(ns)
        return ns["x"] < 1.0

    monkeypatch.setattr(geom, "eval", spy, raising=False)
    geom._eval_implicit("x < 1", [np.zeros(3), np.zeros(3)])
    evaluated = set(seen) - {"x", "y", "pi"}

    def passes(name):
        for args in ("x", "x, y"):
            try:
                geom._checked(f"{name}({args}) < 1", 2)
                return True
            except ValueError:
                pass
        return False

    candidates = documented | evaluated | {"pi", "x", "eval", "open"} | {
        n for n in dir(np) if n.isidentifier()}
    allowed = {name for name in candidates if passes(name)}
    assert documented == evaluated == allowed
    assert documented == {"abs", "sqrt", "exp", "cos", "sin", "minimum",
                          "maximum", "hypot"}


def test_quadrature_defaults_are_stated_once(capsys):
    # the count each rule takes unless --samples gives one, as the README's
    # quotient paragraph and the --samples help state it, is geom's one
    # table of defaults, kind by kind
    from freeplate import cli, geom
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    [item] = [" ".join(part.split()) for part in readme.split("\n- ")
              if part.startswith("`quotient`")]
    stated = {kind: float(n) for kind, n in re.findall(
        r"\b(radial|grid|mc)(?: rule)? \(([\d.e]+) by default", item)}
    assert stated == {kind: float(n) for kind, n in geom._SAMPLES.items()}
    with pytest.raises(SystemExit):
        cli.main(["quotient", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    [helped] = re.findall(r"--samples SAMPLES (.*?) --seed", text)
    assert {kind: int(n) for n, kind in re.findall(
        r"(\d+) \((radial|grid|mc)\)", helped)} == geom._SAMPLES
