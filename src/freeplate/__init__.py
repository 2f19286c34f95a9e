"""Fundamental tone of the free plate under tension.

Solves the plate eigenvalue problem on d-dimensional balls, evaluates the
trial-function quotient bound on arbitrary domains of prescribed volume, and
machine-checks the chain of inequalities behind the ball-maximizer result.

Each export, and each submodule, is loaded on first use (PEP 562), so a
tone solve loads ball and specfun alone.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {"BallMode": "ball", "fundamental_tone": "ball",
            "Domain": "geom", "QuadratureSpec": "geom", "load_domain": "geom",
            "quotient_bound": "geom", "VerificationReport": "report",
            "TrialProfile": "trial", "full_suite": "verify",
            "spot_values": "verify"}
_SUBMODULES = ("ball", "specfun", "geom", "trial", "verify", "report")
__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
