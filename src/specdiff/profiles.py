"""Smoothed step profiles interpolating between +1/2 and -1/2.

A profile psi is a smooth function with psi(-inf) = +1/2 and psi(+inf) = -1/2.
Most approach the limits only asymptotically; a compactly flat one equals
them exactly outside [-R, R], and records R as its ``flat_radius``.
Scaling by eps compresses the transition region onto a width-eps scale, which
is the smoothing used throughout the projection-difference experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import gauss_legendre

__all__ = [
    "CutoffProfile",
    "builtin_profile",
    "zeta",
    "zeta_eps",
]


@dataclass(frozen=True)
class CutoffProfile:
    """A smoothed step.  ``fn`` must accept and return numpy arrays.

    ``flat_radius`` is None for a profile that reaches its limits only
    asymptotically, and the positive R for a compactly flat one, which equals
    -+1/2 exactly for |x| >= R.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    flat_radius: float | None = None

    def __post_init__(self):
        if self.flat_radius is not None and not (self.flat_radius > 0):
            raise ValueError(f"flat_radius must be None or positive, got {self.flat_radius!r}")

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def zeta(x):
    """The model symbol -(2/pi) arctan(x), a step of height 1 at the origin."""
    return -(2.0 / np.pi) * np.arctan(np.asarray(x, dtype=float))


def zeta_eps(x, epsilon: float):
    """zeta at scale epsilon, zeta(x / epsilon)."""
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    return zeta(np.asarray(x, dtype=float) / epsilon)


def _arctan_half(x: np.ndarray) -> np.ndarray:
    return -np.arctan(x) / np.pi


def _tanh_half(x: np.ndarray) -> np.ndarray:
    return -np.tanh(x) / 2.0


def _shifted_arctan(x: np.ndarray) -> np.ndarray:
    # Deliberately not odd: transition centred at x = 1.  Used to stress the
    # claim that the limiting statistics do not see the profile shape.
    return -np.arctan(x - 1.0) / np.pi


# The mollified step integrates the standard C-infinity bump exp(-1/(1-t^2)).
# One fixed 64-point Gauss-Legendre rule evaluates int_0^x bump; normalising
# by the same rule's value at x = 1 makes psi(+-1) = -+1/2 exact and keeps the
# profile odd to the last bit (the rule is applied to [0, x] for every x).
_GL64_NODES, _GL64_WEIGHTS = gauss_legendre(64)


def _bump(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


def _bump_integral_zero_to(x: np.ndarray) -> np.ndarray:
    # nodes mapped from [-1, 1] onto [0, x]; odd in x by construction
    t = 0.5 * np.multiply.outer(_GL64_NODES + 1.0, x)
    vals = _bump(t)
    return 0.5 * x * np.tensordot(_GL64_WEIGHTS, vals, axes=1)


_BUMP_HALF_MASS = float(_bump_integral_zero_to(np.array([1.0]))[0])


def _mollified_step(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    xv = np.atleast_1d(x)
    out = np.where(xv >= 1.0, -0.5, np.where(xv <= -1.0, 0.5, 0.0))
    inside = np.abs(xv) < 1.0
    if np.any(inside):
        out[inside] = -_bump_integral_zero_to(xv[inside]) / (2.0 * _BUMP_HALF_MASS)
    return float(out[0]) if x.ndim == 0 else out


_BUILTINS = {
    "ARCTAN_HALF": CutoffProfile("ARCTAN_HALF", _arctan_half),
    "TANH_HALF": CutoffProfile("TANH_HALF", _tanh_half),
    "MOLLIFIED_STEP": CutoffProfile("MOLLIFIED_STEP", _mollified_step, flat_radius=1.0),
    "SHIFTED_ARCTAN": CutoffProfile("SHIFTED_ARCTAN", _shifted_arctan),
}


def builtin_profile(name: str) -> CutoffProfile:
    """Look up a built-in profile by name (case-insensitive)."""
    key = str(name).strip().upper()
    try:
        return _BUILTINS[key]
    except KeyError:
        known = ", ".join(_BUILTINS)
        raise ValueError(f"unknown profile {name!r}; known profiles: {known}") from None
